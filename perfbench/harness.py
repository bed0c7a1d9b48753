"""Round loop, machine pace, failure accounting and result assembly shared
by the workloads.

A workload is a fixed list of operations built from the seed.  A run
repeats whole rounds of that list (closed loop, one thread).  The number
of rounds depends only on `--seconds` and the workload's reference round
time, never on how fast this run goes, so every run of the same length
attempts the same operations.  Outputs are checked after the timed region:
each operation's first-round result against an independent computation,
every later round's result against the first round's fingerprint.

Times are reported in reference seconds (see `Pace`): the machine is
shared and its speed drifts by up to 2x over minutes, so each timed piece
is scaled by a fixed reference kernel timed just before and just after it.
"""

import bisect
import gc
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work", str(os.getpid()))   # removed after the run

SETUP_REPEATS = 3
IMPORT_SAMPLES = 2            # taken before and again after the rounds
COLD_START_SAMPLES = 2        # taken before and again after the rounds
CHILD_TIMEOUT_S = 120

REF_KERNEL_S = 0.01           # reference kernel time at reference speed
PACE_BURST = 2                # kernel runs per burst
PACE_GAP_S = 0.25             # a burst precedes any operation this long after the last


class CheckFailed(AssertionError):
    """An output disagreed with the benchmark's independent check."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


@dataclass
class Child:
    seconds: float
    returncode: int
    stdout: str
    stderr: str
    peak_rss_mb: float             # the child's own peak, from wait4


def run_child(argv, cwd, timeout=CHILD_TIMEOUT_S):
    """Run a Python child to completion and reap it with wait4, so its own
    peak RSS is known apart from every other child's.  Its output goes
    through files in WORK; it is killed after `timeout` seconds."""
    os.makedirs(WORK, exist_ok=True)
    paths = [os.path.join(WORK, "child.out"), os.path.join(WORK, "child.err")]
    with open(paths[0], "w+") as out, open(paths[1], "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=cwd,
                                env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(seconds, proc.returncode, out.read(), err.read(),
                     usage.ru_maxrss / 1024.0)


_KERNEL_M = np.random.default_rng(0).random((96, 96))
_KERNEL_X = np.random.default_rng(1).standard_normal((4096, 16))


def reference_kernel():
    """Fixed work that never touches rtlab, in two parts: interpreted
    Python (set and dict updates over 20,000 keys) and numpy (ten 96x96
    matrix products, then the angles between 4,096 and 96 random unit
    vectors).  Returns its wall time.  Collection is off while
    it runs, so the program's live objects do not slow it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        seen, table = set(), {}
        for i in range(20_000):
            key = (i * 7919) % 1013
            if key in seen:
                table.pop((key, i & 7), None)
            else:
                seen.add(key)
                table[(key, i & 7)] = i
        m = _KERNEL_M
        for _ in range(10):
            m = (m @ _KERNEL_M) / 96.0
        np.sort(m.ravel())
        unit = _KERNEL_X / np.linalg.norm(_KERNEL_X, axis=1, keepdims=True)
        cos = np.clip(unit @ unit[:96].T, -1.0, 1.0)
        np.sort(np.arccos(cos).min(axis=1))
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Pace:
    """How fast the shared machine runs, sampled between timed pieces.

    A burst times the reference kernel PACE_BURST times.  A piece of work
    timed from `start` to `end` is scaled by REF_KERNEL_S over the mean
    kernel time of the last burst before it and the first burst after it:
    its wall time becomes reference seconds, the time it would take with
    the machine at the kernel's reference speed.  The kernel shares one
    CPU with the work (run.py pins the process, and children inherit the
    pin), so both see the same contention from other tenants."""

    def __init__(self):
        self.bursts = []            # (start, end, mean kernel seconds)

    def burst(self):
        t0 = time.perf_counter()
        mean = statistics.fmean(reference_kernel() for _ in range(PACE_BURST))
        self.bursts.append((t0, time.perf_counter(), mean))

    def burst_if_due(self):
        if not self.bursts or time.perf_counter() - self.bursts[-1][1] >= PACE_GAP_S:
            self.burst()

    def scale(self, start, end):
        before = bisect.bisect_right([b[1] for b in self.bursts], start) - 1
        after = bisect.bisect_left([b[0] for b in self.bursts], end)
        near = [self.bursts[i][2] for i in (before, after)
                if 0 <= i < len(self.bursts)]
        return REF_KERNEL_S / statistics.fmean(near)

    def kernel_s(self):
        """Median kernel time over the run (REF_KERNEL_S at reference speed)."""
        return median([b[2] for b in self.bursts])


@dataclass
class Fault:
    """A known fault an operation hits every time today: the exception
    it raises and what causes it.  Any other exception is unexpected."""
    error: type
    why: str


@dataclass
class Op:
    name: str
    kind: str                      # "certify" (no witness) or "find"
    fn: object                     # () -> result
    fault: Fault | None = None     # named fault the operation hits today
    needs: str | None = None       # skip when that op failed this round


@dataclass
class Outcome:
    op: Op
    start: float
    seconds: float                 # wall time
    result: object = None
    error: BaseException | None = None
    ref_seconds: float = 0.0       # in reference seconds (see Pace)


@dataclass
class Fingerprint:
    value: object


@dataclass
class Round:
    outcomes: list
    wall: float                    # wall time less the pace bursts
    spans: list | None = None
    counts: dict = field(default_factory=dict)


@dataclass
class Report:
    attempted: int = 0
    failed: int = 0
    reasons: dict = field(default_factory=dict)
    check_failures: list = field(default_factory=list)
    unexpected: list = field(default_factory=list)

    @property
    def correct(self):
        """No check failed and every failed operation hit its named fault."""
        return not self.check_failures and not self.unexpected


class Workload:
    """Base for the four workloads: `setup(seed)` builds `self.ops`."""

    name = ""
    ops: list = []
    trace = None
    round_s = 1.0       # reference round time (s), sets the round count

    def rounds_for(self, seconds, traced):
        """Whole rounds that fit in `seconds` at the reference round time:
        fixed for a given run length.  At least one, and two when traced
        (an untraced and a traced round)."""
        return max(2 if traced else 1, int(seconds / self.round_s))

    def prepare(self, seed):
        """Reference values an operation's definition needs, computed
        apart from the program before set-up (untimed)."""

    def setup(self, seed):
        raise NotImplementedError

    def begin_round(self, trace):
        self.trace = trace

    def check(self, op, result):
        pass

    def fingerprint(self, op, result):
        return result

    def layer_counts(self, rnd):
        return {}

    def layer_extra(self):
        return {}

    def peak_rss_mb(self):
        return peak_rss_mb()


def run_rounds(workload, n_rounds, pace, trace=None):
    """Closed loop over `n_rounds` whole rounds, with a pace burst before
    any operation that starts PACE_GAP_S or more after the last burst and
    one after each round.  With a tracer, rounds alternate untraced /
    traced so one run gives both."""
    rounds = []
    checked = set()
    for i in range(n_rounds):
        traced = trace is not None and i % 2 == 1
        workload.begin_round(trace if traced else None)
        if traced:
            trace.install()
        outcomes = []
        failed = set()
        pacing = 0.0
        t0 = time.perf_counter()
        for op in workload.ops:
            if op.needs in failed:
                continue
            t = time.perf_counter()
            pace.burst_if_due()
            pacing += time.perf_counter() - t
            sid = trace.open(f"bench.{op.name}") if traced else None
            t = time.perf_counter()
            try:
                out = Outcome(op, t, 0.0, result=op.fn())
            except Exception as exc:  # counted and reported as a failure
                out = Outcome(op, t, 0.0, error=exc)
                failed.add(op.name)
            out.seconds = time.perf_counter() - t
            if traced:
                trace.close(sid)
            outcomes.append(out)
        wall = time.perf_counter() - t0 - pacing
        pace.burst()
        spans = None
        if traced:
            trace.uninstall()
            spans = trace.take()
        rnd = Round(outcomes, wall, spans)
        if traced:
            rnd.counts = workload.layer_counts(rnd)
        for out in outcomes:
            # keep one full result per operation for the checks; later
            # rounds keep only a fingerprint, so memory does not grow
            # with the number of rounds
            if out.error is None and out.op.name in checked:
                out.result = Fingerprint(workload.fingerprint(out.op, out.result))
            elif out.error is None:
                checked.add(out.op.name)
        rounds.append(rnd)
    for rnd in rounds:
        for out in rnd.outcomes:
            out.ref_seconds = out.seconds * pace.scale(out.start,
                                                       out.start + out.seconds)
    return rounds


def account(workload, rounds):
    """Count attempts and failures, and check every output."""
    rep = Report()
    first = {}
    for rnd in rounds:
        for out in rnd.outcomes:
            rep.attempted += 1
            name = out.op.name
            if out.error is not None:
                rep.failed += 1
                reason = describe(out.error)
                fault = out.op.fault
                if fault is not None and isinstance(out.error, fault.error):
                    reason += f" [named fault: {fault.why}]"
                else:
                    reason += " [UNEXPECTED]"
                    rep.unexpected.append(f"{name}: {reason}")
                key = (name, reason)
                rep.reasons[key] = rep.reasons.get(key, 0) + 1
                continue
            try:
                if name not in first:
                    workload.check(out.op, out.result)
                    first[name] = workload.fingerprint(out.op, out.result)
                else:
                    require(out.result.value == first[name],
                            "output differs from the first round's")
            except Exception as exc:  # a check that cannot even parse fails too
                rep.failed += 1
                rep.check_failures.append(f"{name}: {exc}")
                key = (name, f"failed check: {exc}")
                rep.reasons[key] = rep.reasons.get(key, 0) + 1
    return rep


def describe(exc):
    if type(exc).__name__ == "BudgetExceeded":
        return f"budget exhausted after {exc.nodes} nodes"
    return f"exception {type(exc).__name__}: {str(exc)[:120]}"


def median(xs):
    return statistics.median(xs)


def typical_round(rounds, kind=None, wall=False):
    """Sum over the round's operations (of one kind, or all) of each
    operation's median time across the run's rounds, in reference seconds
    (or in wall seconds with `wall`)."""
    times = {}
    for rnd in rounds:
        for out in rnd.outcomes:
            if kind is None or out.op.kind == kind:
                times.setdefault(out.op.name, []).append(
                    out.seconds if wall else out.ref_seconds)
    return sum(median(v) for v in times.values())


def paced_samples(pace, sample, repeats):
    """Call `sample()`, which returns seconds, `repeats` times with a pace
    burst before each call and after the last; the results in reference
    seconds."""
    timed = []
    for _ in range(repeats):
        pace.burst_if_due()
        t0 = time.perf_counter()
        seconds = sample()
        timed.append((seconds, t0, time.perf_counter()))
    pace.burst()
    return [s * pace.scale(t0, t1) for s, t0, t1 in timed]


def cold_start_samples(pace, samples=COLD_START_SAMPLES):
    """Times of `rtlab optimize` in fresh interpreters."""
    os.makedirs(WORK, exist_ok=True)

    def sample():
        proc = run_child(["-m", "rtlab.cli", "optimize", "--t", "3",
                          "--ell", "2", "--q", "2"], WORK)
        if proc.returncode != 0 or proc.stdout.strip() != "a*=32/63 bound=16/63":
            raise CheckFailed(f"optimize exited {proc.returncode}: "
                              f"{proc.stdout.strip()!r} {proc.stderr[-200:]!r}")
        return proc.seconds
    return paced_samples(pace, sample, samples)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_samples(pace, samples=IMPORT_SAMPLES):
    """Import time of numpy, networkx and rtlab, each sample measured
    inside a fresh interpreter (interpreter start-up excluded)."""
    probe = ("import time; t0 = time.perf_counter(); "
             "import numpy, networkx, rtlab, rtlab.cli; "
             "print(time.perf_counter() - t0)")

    def sample():
        proc = run_child(["-c", probe], HERE)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe exited {proc.returncode}: "
                               f"{proc.stderr[-200:]!r}")
        return float(proc.stdout)
    return paced_samples(pace, sample, samples)


def timed_setup(workload, seed, pace):
    """Median time of several input generations in this process."""
    def sample():
        t0 = time.perf_counter()
        workload.setup(seed)
        return time.perf_counter() - t0
    return median(paced_samples(pace, sample, SETUP_REPEATS))


def end_to_end(rounds, imports, generate_s, rss):
    """`setup_s` is the median import time plus the median generation time."""
    return {
        "setup_s": (median(imports) + generate_s, "s"),
        "run_s": (typical_round(rounds), "s"),
        "peak_rss_mb": (rss, "MB"),
    }


def per_layer(workload, rounds, extra):
    """Per-layer metrics from the traced rounds (median over them), the
    certify / find split of the untraced rounds, and tracing overhead."""
    traced = [r for r in rounds if r.spans is not None]
    plain = [r for r in rounds if r.spans is None]
    rows = {}
    for rnd in traced:
        vals = layer_metrics(rnd.spans, rnd.wall)
        vals.update(rnd.counts)
        for k, v in vals.items():
            rows.setdefault(k, []).append(v)
    out = {k: (median(v), UNITS.get(k, "s")) for k, v in rows.items()}
    traced_s = typical_round(traced)
    plain_s = typical_round(plain)
    out["trace.run_s"] = (traced_s, "s")
    out["trace.untraced_run_s"] = (plain_s, "s")
    out["trace.overhead_s"] = (traced_s - plain_s, "s")
    out["workload.certify_s"] = (typical_round(plain, "certify"), "s")
    out["workload.find_s"] = (typical_round(plain, "find"), "s")
    out.update(extra)
    for name, unit in UNITS.items():
        out.setdefault(name, (0, unit))
    for name in LAYER_TIMES:
        out.setdefault(name, (0.0, "s"))
    return out


# per-layer metric -> span names whose covered time it reports
LAYER_TIMES = {
    "sphere.build_partition_s": ["sphere.build_partition"],
    "sphere.p4_best_margin_s": ["sphere.p4_best_margin"],
    "sphere.find_eps_k_s": ["sphere.find_eps_k"],
    "sphere.cap_measure_s": ["sphere.cap_measure"],
    "sphere.estimate_dt_s": ["sphere.estimate_dt"],
    "hypergraph.blowup_s": ["hypergraph.blowup"],
    "hypergraph.pair_cover_index_s": ["hypergraph.pair_cover_index"],
    "hypergraph.induced_s": ["hypergraph.induced"],
    "hypergraph.shadow_s": ["hypergraph.shadow"],
    "hypergraph.clean_low_codegree_s": ["hypergraph.clean_low_codegree"],
    "hypergraph.write_s": ["hypergraph.write_hypergraph",
                           "hypergraph.write_graph"],
    "hypergraph.read_s": ["hypergraph.read_hypergraph",
                          "hypergraph.read_graph"],
    "constructions.sphere_hypergraph_s": ["constructions.sphere_hypergraph"],
    "verifiers.doomed_edges_s": ["verifiers.sparse_pattern_doomed_edges"],
    "verifiers.find_clique_s": ["verifiers.find_clique"],
    "verifiers.alpha_t_s": ["verifiers.alpha_t"],
    "verifiers.hyper_independence_s": ["verifiers.hyper_independence"],
    "verifiers.scan_split_core_s": ["verifiers.scan_split_core"],
    "verifiers.scan_sparse_patterns_s": ["verifiers.scan_sparse_patterns"],
    "verifiers.find_tk_s": ["verifiers.find_tk"],
    "verifiers.density_report_s": ["verifiers.density_report"],
    "drc.drc_find_set_s": ["drc.drc_find_set"],
    "drc.find_f_witness_s": ["drc.find_f_witness"],
    "drc.find_tkf5_tk4_s": ["drc.find_tkf5_tk4"],
    "cli.construct_s": ["cli.construct"],
    "cli.verify_s": ["cli.verify"],
    "reports.emit_report_s": ["reports.emit_report"],
}
LAYERS = ["sphere", "hypergraph", "constructions", "verifiers", "drc", "cli",
          "reports", "bench"]
UNITS = {
    "sphere.cap_measure_calls": "count",
    "sphere.p4_quads_per_s": "1/s",
    "hypergraph.file_bytes": "bytes",
    "constructions.random_blowup_self_s": "s",
    "constructions.kept_edges": "count",
    "constructions.deleted_edges": "count",
    "constructions.deleted_per_kept": "ratio",
    "verifiers.budget_nodes_failed": "count",
    "cli.cold_start_s": "s",
    "cli.import_rtlab_s": "s",
    "cli.import_scipy_s": "s",
    "trace.layer_share": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}


def layer_metrics(spans, wall):
    out = {name: tracer.covered_time(spans, names)
           for name, names in LAYER_TIMES.items()}
    own = tracer.self_times(spans)
    out["constructions.random_blowup_self_s"] = sum(
        t for s, t in zip(spans, own) if s[2] == "constructions.random_blowup")
    out["sphere.cap_measure_calls"] = tracer.count(spans, "sphere.cap_measure")
    by_layer = tracer.layer_self_times(spans)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = by_layer.get(layer, 0.0)
    program = sum(v for k, v in by_layer.items() if k != "bench")
    # share of the traced round's wall time that program-layer self times
    # account for; the rest is benchmark glue between operations
    out["trace.layer_share"] = program / wall
    return out


def summary_lines(workload_name, rep, metrics, rounds, pace):
    walls = ", ".join(f"{r.wall:.3f}" for r in rounds)
    lines = [f"[{workload_name}] attempted={rep.attempted} failed={rep.failed}",
             f"[{workload_name}] rounds={len(rounds)} walls=[{walls}] s",
             f"[{workload_name}] pace: median kernel {pace.kernel_s() * 1e3:.2f} ms "
             f"(reference {REF_KERNEL_S * 1e3:g} ms), typical round "
             f"{typical_round(rounds, wall=True):.4g} s wall"]
    for (name, reason), n in sorted(rep.reasons.items()):
        lines.append(f"[{workload_name}]   failed x{n}: {name}: {reason}")
    for name, (value, unit) in metrics.items():
        lines.append(f"[{workload_name}]   {name} = {value:.6g} {unit}")
    return lines
