"""rtlab: builders and exhaustive checkers for sphere-based extremal
graph and hypergraph constructions."""

__version__ = "0.1.0"

# the most bytes of arrays one build may hold at once
MAX_BYTES = 1 << 30


class CapExceeded(RuntimeError):
    """A cap stopped the run before it decided anything: a node budget,
    the retries of a witness pipeline, the (eps, k) search's k, or
    MAX_BYTES of arrays.  The CLI exits 3 on it, printing the message."""


def check_bytes(size: int, what: str) -> None:
    """CapExceeded, to be raised before anything is allocated, when
    `what` would hold `size` bytes, over MAX_BYTES (1 GiB).  Each caller
    counts the arrays its stage keeps, not its transient peak: a
    pair-cover index peaks at about 4.7 times its count, a blowup at
    about 3 times."""
    if size > MAX_BYTES:
        raise CapExceeded(f"{what} would hold {size} bytes, over the cap "
                          f"{MAX_BYTES}")
