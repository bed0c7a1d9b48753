"""Command-line front end.

Subcommands: construct, verify, report, optimize, drc, sphere.  Exit
codes: 0 property holds / success, 1 property violated (witness rechecked,
then written as JSON; for `alpha_t --bound`, a K_t-free set above the
bound found, even if the budget then ran out), 2 input error, 3 search
budget exceeded (for drc: no witness verified within the retries; for
sphere eps-k: no (eps, k) within the search caps), 4 internal error
(any other exception, including a witness that fails its recheck).
`verify` runs one search check on a file; `report` writes its density
report.  The construction flags of `construct` and `report` mirror the
params.json keys and override file values; all randomness flows from
the single seed.
"""

import argparse
import json
import sys

from . import constructions as con
from . import drc as drcmod
from . import hypergraph as hg
from . import reports
from . import sphere as sph
from . import verifiers as ver

EXIT_HOLDS = 0
EXIT_VIOLATED = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

# the construction flags, one per params.json key (--blowup-t for blowup_t)
PARAM_FLAGS = {"r": int, "z": int, "alpha": float, "beta": float,
               "epsilon": float, "k": int, "blowup_t": int, "gamma": float,
               "pattern_cap": int, "seed": int}


def _read_params(path: str) -> dict:
    """A params file's JSON object; ValueError if the top level is not one."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: params must be a JSON object, "
                         f"got {type(data).__name__}")
    return data


def _load_params(args) -> con.ConstructionParams:
    data = _read_params(args.params) if getattr(args, "params", None) else {}
    for key in PARAM_FLAGS:
        override = getattr(args, key, None)
        if override is not None:
            data[key] = override
    return con.ConstructionParams.from_json(data)


def _add_param_flags(p: argparse.ArgumentParser):
    p.add_argument("--params", help="params.json path")
    for key, kind in PARAM_FLAGS.items():
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=kind)


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
    params = _load_params(args)
    if args.type == "corollary":
        ell, q = params.extras.get("ell", 2), params.extras.get("q", 2)
        for key, value in (("ell", ell), ("q", q)):
            if type(value) is not int:
                raise ValueError(f"{key} must be an integer, got {value!r}")
    partition = params.build_partition()
    if args.type == "be":
        out = con.bollobas_erdos(partition, params.epsilon)
    elif args.type == "sphere":
        out = con.sphere_hypergraph(params, partition)
    elif args.type == "full":
        out = con.full_construction(params, partition)
    elif args.type == "corollary":
        mix_a = params.extras.get("mix_a")
        if mix_a is None:
            a_star, _ = con.optimize_a(params.r, ell, q)
            mix_a = float(a_star)
        full = con.full_construction(params, partition)
        base = con.shadow_first_parts(full, ell)
        provider = lambda n: con.maximal_ktfree_graph(n, params.r, params.seed)
        out = con.corollary_graph(base, q, params.r, provider, mix_a=mix_a)
    hg.write_hypergraph(out, args.out)
    print(f"wrote {args.type} construction to {args.out}")
    return EXIT_HOLDS


# each check's flag (None: no flag) and whether it needs a graph file (r=2);
# the flag is checked before the file is read, the uniformity after
VERIFY_NEEDS = {"clique": ("s", True), "alpha_t": ("t", True),
                "tk": ("s", False), "tkf": ("s", False),
                "split-core": (None, False), "sparse": (None, False)}


def _cmd_verify(args) -> int:
    check = args.check
    flag, graph_only = VERIFY_NEEDS[check]
    if flag and getattr(args, flag) is None:
        raise ValueError(f"{check} check needs --{flag}")
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
            print(_budget_line(exc), file=sys.stderr)
            print(f"alpha_{args.t} >= {exc.certified}")
            return EXIT_VIOLATED
        print(f"alpha_{args.t} = {value}")
        if args.bound is not None and value > args.bound:
            return EXIT_VIOLATED
        return EXIT_HOLDS
    elif check == "tk":
        witness = ver.find_tk(h, args.s, args.budget)
        recheck = lambda w: ver.recheck_tk(h, w, args.s)
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
    given = args.params or any(getattr(args, k) is not None
                               for k in PARAM_FLAGS)
    params = _load_params(args) if given else None
    rep = ver.density_report(h, params)
    _emit(reports.emit_report(rep, args.format,
                              params.to_json() if params else {}), args.out)
    return EXIT_VIOLATED if rep.verdict == "violated" else EXIT_HOLDS


def _cmd_optimize(args) -> int:
    a_star, bound = con.optimize_a(args.t, args.ell, args.q)
    print(f"a*={a_star.numerator}/{a_star.denominator} "
          f"bound={bound.numerator}/{bound.denominator}")
    return EXIT_HOLDS


def _cmd_drc(args) -> int:
    p = drcmod.DrcParams.from_json(_read_params(args.params))
    h = _read_input(args.file)
    try:
        if args.action == "find-set":
            if h.r != 2:
                raise ValueError("find-set needs a graph file (r=2)")
            u = drcmod.drc_find_set(h, p, seed=args.seed)
            if u is None:
                print("find-set: no verified set within the retry budget")
                return EXIT_BUDGET
            payload = {"U": sorted(u)}
        elif args.action == "find-f":
            payload = drcmod.find_f_witness(h, p, seed=args.seed).as_json()
        else:
            tkf5, tk4 = drcmod.find_tkf5_tk4(h, p.epsilon, p.codegree_threshold,
                                             seed=args.seed, retries=p.retries)
            payload = {"tkf5": tkf5.as_json(),
                       "tk4": tk4.as_json() if tk4 else None}
    except drcmod.PipelineFailure as exc:
        print(f"{args.action} failed at stage '{exc.stage}': {exc.detail}")
        return EXIT_BUDGET
    _emit_json(payload, args.out)
    return EXIT_HOLDS


# the flags each sphere action needs, checked before it does any work
SPHERE_FLAGS = {"partition": ["k", "z", "theta", "out"],
                "eps-k": ["alpha", "beta"],
                "cap-measure": ["k", "s"]}


def _cmd_sphere(args) -> int:
    for flag in SPHERE_FLAGS[args.action]:
        if getattr(args, flag) is None:
            raise ValueError(f"sphere {args.action} needs --{flag}")
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
        try:
            eps, k = sph.find_eps_k(args.alpha, args.beta, args.t_max)
        except sph.InfeasibleSearch as exc:
            print(f"eps-k: {exc}", file=sys.stderr)
            return EXIT_BUDGET
        print(f"eps={eps} k={k}")
        return EXIT_HOLDS
    print(f"{sph.cap_measure(args.k, args.s):.12f}")
    return EXIT_HOLDS


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rtlab",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a construction and write it")
    p.add_argument("--type", required=True,
                   choices=["be", "sphere", "full", "corollary"])
    _add_param_flags(p)
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
    _add_param_flags(p)
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
    p.add_argument("action", choices=list(SPHERE_FLAGS))
    p.add_argument("--k", type=int)
    p.add_argument("--z", type=int)
    p.add_argument("--theta", type=float)
    p.add_argument("--s", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--t-max", dest="t_max", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sphere)

    return ap


def _budget_line(exc: ver.BudgetExceeded) -> str:
    return (f"budget exceeded after {exc.nodes} nodes "
            f"(certified: {exc.certified})")


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching the input-error code
        return EXIT_INPUT if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except ver.BudgetExceeded as exc:
        print(_budget_line(exc), file=sys.stderr)
        return EXIT_BUDGET
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        detail = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {detail}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
