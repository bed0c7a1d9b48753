"""Command-line front end.

Subcommands: construct, verify, report, optimize, drc, sphere.  Exit
codes: 0 property holds / success, 1 property violated (witness rechecked,
then written as JSON; for `alpha_t --bound`, a K_t-free set above the
bound found, even if the budget then ran out), 2 refused input (an
OSError or ValueError), 3 a cap stopped the run and nothing was decided
(a CapExceeded: a node budget, the drc retries, the eps-k search's k,
1 GiB of arrays, refused before it is allocated, or an `optimize`
answer past the interpreter's int-to-str digit limit; one line on stderr,
nothing on stdout, no file written), 4 internal error (any other
exception, including a witness that fails its recheck).  `verify` runs
one search check on a file; `report` writes its density report.  One
reader takes params.json and drc.json and checks every value against
its field's annotation; `construct` and `report` take the construction
params from `--params` alone, and all randomness flows from the single
seed.  A command runs only the modules it uses: each is registered at
import but runs when a command first reads from it, so `optimize` (the
`bounds` module alone) and `sphere eps-k` and `sphere cap-measure` (the
`capmeasure` module alone) run without numpy, and numpy.random and
hashlib load only in a command that draws.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys

from . import CapExceeded


def _lazy(name: str):
    """The package module `name`, in sys.modules at once but run only
    when one of its attributes is first read (importlib's LazyLoader);
    a module already imported is returned as it is."""
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


bounds = _lazy("bounds")
capmeasure = _lazy("capmeasure")
con = _lazy("constructions")
drcmod = _lazy("drc")
hg = _lazy("hypergraph")
reports = _lazy("reports")
sph = _lazy("sphere")
ver = _lazy("verifiers")

EXIT_HOLDS = 0
EXIT_VIOLATED = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4

# each `construct --type` and the `constructions` builder it calls with
# (params, partition); names, so building the parser runs no module
CONSTRUCTIONS = {"be": "bollobas_erdos", "sphere": "sphere_hypergraph",
                 "full": "full_construction",
                 "corollary": "corollary_construction"}


def _read_params(cls, what: str, path):
    """A `cls` (ConstructionParams or DrcParams) of the JSON object in
    the file at `path`.  Every value is checked against its field's
    annotation: an int field takes an int, a float field an int or a
    float, neither a bool, and a field declared `X | None` also null.
    ValueError for a file that is not a JSON object, a key that names no
    field, a missing field without a default or a value not of its
    field's type."""
    from dataclasses import MISSING
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: params must be a JSON object, "
                         f"got {type(data).__name__}")
    fields = cls.__dataclass_fields__
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ValueError(f"unknown {what} params: {', '.join(unknown)}")
    missing = [name for name, f in fields.items()
               if name not in data and f.default is MISSING]
    if missing:
        raise ValueError(f"missing {what} params: {', '.join(missing)}")
    for name, value in data.items():
        # (int,) or (float,), with NoneType beside it for `X | None`
        annotation = fields[name].type
        kinds = getattr(annotation, "__args__", (annotation,))
        if not (type(value) is int or type(value) is float and float in kinds
                or value is None and type(None) in kinds):
            kind = "an integer" if int in kinds else "a number"
            raise ValueError(f"{name} must be {kind}, got {value!r}")
    return cls(**data)


def _read_input(path: str) -> hg.PartitionedHypergraph:
    """The file's hypergraph, as a SimpleGraph when r=2."""
    h = hg.read_hypergraph(path)
    return hg.as_graph(h) if h.r == 2 else h


def _emit(text: str, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload, path):
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", path)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_construct(args) -> int:
    params = _read_params(con.ConstructionParams, "construction", args.params)
    build = getattr(con, CONSTRUCTIONS[args.type])
    out = build(params, params.build_partition())
    hg.write_hypergraph(out, args.out)
    print(f"wrote {args.type} construction to {args.out}")
    return EXIT_HOLDS


# each check's required flag (None: none), the other flags it reads, and
# whether it needs a graph file (r=2); the flags are checked before the
# file is read, the uniformity after
VERIFY_NEEDS = {
    "clique": ("s", ("budget", "witness_out"), True),
    "alpha_t": ("t", ("bound", "budget"), True),
    "tk": ("s", ("budget", "witness_out"), False),
    "tkf": ("s", ("budget", "witness_out"), False),
    "split-core": (None, ("budget", "witness_out"), False),
    "sparse": (None, ("ell", "budget", "witness_out"), False)}
# every flag of `verify` besides --check, as argparse names them
VERIFY_FLAGS = ("s", "t", "ell", "bound", "budget", "witness_out")


def _cmd_verify(args) -> int:
    check = args.check
    flag, reads, graph_only = VERIFY_NEEDS[check]
    if flag and getattr(args, flag) is None:
        raise ValueError(f"{check} check needs --{flag}")
    foreign = [f"--{f.replace('_', '-')}" for f in VERIFY_FLAGS
               if f != flag and f not in reads and getattr(args, f) is not None]
    if foreign:
        raise ValueError(f"{check} check does not read {', '.join(foreign)}")
    h = _read_input(args.file)
    if graph_only and h.r != 2:
        raise ValueError(f"{check} check needs a graph file (r=2)")
    if check == "clique":
        witness = ver.find_clique(h, args.s, args.budget)
        recheck = lambda w: ver.recheck_cores(h, w, args.s)
    elif check == "alpha_t":
        try:
            value = ver.alpha_t(h, args.t, args.budget)
        except ver.BudgetExceeded as exc:
            # a K_t-free set already found above the bound proves it broken
            if (args.bound is None or exc.certified is None
                    or exc.certified <= args.bound):
                raise
            print(exc, file=sys.stderr)
            print(f"alpha_{args.t} >= {exc.certified}")
            return EXIT_VIOLATED
        print(f"alpha_{args.t} = {value}")
        if args.bound is not None and value > args.bound:
            return EXIT_VIOLATED
        return EXIT_HOLDS
    elif check == "tk":
        witness = ver.find_tk(h, args.s, args.budget)
        recheck = lambda w: ver.recheck_cores(h, w, args.s, fresh=True)
    elif check == "tkf":
        witness = ver.find_tkf_core(h, args.s, args.budget)
        recheck = lambda w: ver.recheck_cores(h, w, args.s)
    elif check == "split-core":
        witness = ver.scan_split_core(h, args.budget)
        recheck = lambda w: ver.recheck_split_core(h, w)
    else:
        ell = args.ell if args.ell is not None else h.r ** 3
        # the inside edges of every part in one scan (no pattern spans two
        # parts: their inside edges share no vertex); the whole file when
        # it has no parts
        edges = h.inside_edges() if h.parts else h.edge_array
        inside = hg.PartitionedHypergraph(h.n, h.r, edges, h.part_of)
        witness = ver.scan_sparse_patterns(inside, h.r, ell, args.budget)
        recheck = lambda w: ver.recheck_sparse_pattern(h, w, ell)
    if witness is None:
        print(f"{check}: holds")
        return EXIT_HOLDS
    if not recheck(witness):
        raise RuntimeError(f"{check} witness failed its recheck; not written")
    _emit_json(witness.as_json(), args.witness_out)
    print(f"{check}: violated")
    return EXIT_VIOLATED


def _cmd_report(args) -> int:
    """Density report of the graph (r=2) or hypergraph, written to
    --out or stdout; exit 1 only when an asserted row fails, so a report
    with nothing asserted (verdict `unchecked`) exits 0."""
    h = _read_input(args.file)
    params = (_read_params(con.ConstructionParams, "construction", args.params)
              if args.params else None)
    rep = ver.density_report(h, params)
    header = (dict(params.to_json(), theta=params.theta, u=params.u)
              if params else {})
    _emit(reports.emit_report(rep, args.format, header), args.out)
    return EXIT_VIOLATED if rep.verdict == "violated" else EXIT_HOLDS


def _cmd_optimize(args) -> int:
    # the answer has at least the digits of 2^(u^2), u = ceil(t/2): a t
    # whose 2^(u^2) passes the interpreter's limit on int-to-str digits
    # (none before Python 3.10.7, or when set to 0) is refused before it
    # is built, as its answer could not be printed; 3.32... is log2(10),
    # and a negative t is left to optimize_a, which refuses it as input
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    u = (args.t + 1) // 2
    if limit and u > 0 and u * u > limit * 3.321928094887362:
        raise CapExceeded(f"optimize at t={args.t} would print more than "
                          f"the interpreter's limit of {limit} digits")
    a_star, bound = bounds.optimize_a(args.t, args.ell, args.q)
    print(f"a*={a_star.numerator}/{a_star.denominator} "
          f"bound={bound.numerator}/{bound.denominator}")
    return EXIT_HOLDS


def _cmd_drc(args) -> int:
    p = _read_params(drcmod.DrcParams, "drc", args.params)
    h = _read_input(args.file)
    if args.action == "find-set":
        if h.r != 2:
            raise ValueError("find-set needs a graph file (r=2)")
        u = drcmod.drc_find_set(h, p, seed=args.seed)
        if u is None:
            raise drcmod.PipelineFailure("drc-set",
                                         "no verified set within retries")
        payload = {"U": sorted(u)}
    elif args.action == "find-f":
        payload = drcmod.find_f_witness(h, p, seed=args.seed).as_json()
    else:
        tkf5, tk4 = drcmod.find_tkf5_tk4(h, p.epsilon, p.codegree_threshold,
                                         seed=args.seed, retries=p.retries)
        payload = {"tkf5": tkf5.as_json(),
                   "tk4": tk4.as_json() if tk4 else None}
    _emit_json(payload, args.out)
    return EXIT_HOLDS


def _cmd_sphere(args) -> int:
    if args.action == "partition":
        part = sph.build_partition(args.k, args.z, args.theta, args.seed)
        sph.write_partition(part, args.out)
        min_z = part.precondition_min_z
        verdict = ("fails (volume bound)" if part.z < min_z
                   else "not excluded by the volume bound")
        print(f"wrote partition (diameter bound theta/4 = "
              f"{part.domain_diam_bound:.4f}, needs z >= {min_z:.6g}: {verdict})")
        return EXIT_HOLDS
    if args.action == "eps-k":
        eps, k = capmeasure.find_eps_k(args.alpha, args.beta)
        print(f"eps={eps} k={k}")
        return EXIT_HOLDS
    print(f"{capmeasure.cap_measure(args.k, args.s):.12f}")
    return EXIT_HOLDS


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rtlab",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a construction and write it")
    p.add_argument("--type", required=True, choices=list(CONSTRUCTIONS))
    p.add_argument("--params", required=True, help="params.json path")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="run a property check on a file")
    p.add_argument("--check", required=True,
                   choices=list(VERIFY_NEEDS))
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--ell", type=int)
    p.add_argument("--bound", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--witness-out")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("report", help="density report for a file")
    p.add_argument("--params", help="params.json path")
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.add_argument("--out")
    p.add_argument("file")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("optimize", help="exact mixing optimization")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("drc", help="dependent-random-choice pipelines")
    p.add_argument("action", choices=["find-set", "find-f", "find-tkf5"])
    p.add_argument("--params", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("file")
    p.set_defaults(func=_cmd_drc)

    p = sub.add_parser("sphere", help="sphere utilities")
    p.set_defaults(func=_cmd_sphere)
    actions = p.add_subparsers(dest="action", required=True)
    # no abbreviations, so cap-measure's --s is refused, not read as --seed
    a = actions.add_parser("partition", allow_abbrev=False,
                           help="build and write a partition")
    a.add_argument("--k", type=int, required=True)
    a.add_argument("--z", type=int, required=True)
    a.add_argument("--theta", type=float, required=True)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--out", required=True)
    a = actions.add_parser("eps-k", help="search (epsilon, k)")
    a.add_argument("--alpha", type=float, required=True)
    a.add_argument("--beta", type=float, required=True)
    a = actions.add_parser("cap-measure", help="measure of a spherical cap")
    a.add_argument("--k", type=int, required=True)
    a.add_argument("--s", type=float, required=True)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching the input-error code
        return EXIT_INPUT if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    # the package's own class, so testing the type runs no lazy module
    except CapExceeded as exc:
        print(exc, file=sys.stderr)
        return EXIT_CAP
    except Exception as exc:
        detail = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {detail}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
