"""Deterministic RNG substreams.

Every randomized operation in the package draws from a substream derived
from (master seed, operation name, call index).  The same triple always
yields the same generator, on any platform, so whole pipelines are
bit-reproducible from a single 64-bit seed.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def _name_key(name: str) -> int:
    # Stable 64-bit digest of the operation name (no PYTHONHASHSEED issues);
    # hashlib is imported here, at the first substream, so a command that
    # never draws does not load OpenSSL
    import hashlib
    return int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8], "little")


def substream(seed: int, op: str, index: int = 0) -> np.random.Generator:
    """Generator for call #index of operation `op` under a master seed."""
    entropy = [int(seed) & _MASK64, _name_key(op), int(index) & _MASK64]
    return np.random.default_rng(np.random.SeedSequence(entropy))
