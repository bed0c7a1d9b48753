"""`cli`: the README pipeline, one fresh `python -m rtlab.cli` per call.

Parameters: the README params.json (r=3, z=14, eps=0.5, k=5, t=3,
gamma=0.3, cap 10, seed 3); the seed of the run only sets the seed of
`sphere partition`, because build time of `construct --type full` swings
by two orders of magnitude between seeds.  Calls run one at a time.
Certify operations are the four `verify` calls; the rest are find
operations.  Every call must exit 0 (README: property holds / success).
"""

import hashlib
import json
import os

import numpy as np

import harness
import oracles
import tracer
from harness import Op, require

PARAMS = {"r": 3, "z": 14, "alpha": 0.3, "beta": 0.3, "epsilon": 0.5, "k": 5,
          "blowup_t": 3, "gamma": 0.3, "pattern_cap": 10, "seed": 3}
CHILD = os.path.join(harness.HERE, "cli_child.py")
IMPORT_SAMPLES = 3


class CliFailed(RuntimeError):
    """A CLI call exited with a code other than the one expected."""


class Cli(harness.Workload):
    name = "cli"
    round_s = 8.9
    peak_child_mb = 0.0

    def setup(self, seed):
        self.dir = os.path.join(harness.WORK, "cli")
        os.makedirs(self.dir, exist_ok=True)
        with open(os.path.join(self.dir, "params.json"), "w") as fh:
            json.dump(PARAMS, fh)
        part_seed = seed % 1_000_003
        self.calls = [
            ("construct-be", "find", "be.g",
             ["construct", "--type", "be", "--params", "params.json", "--out", "be.g"]),
            ("construct-full", "find", "full.hg",
             ["construct", "--type", "full", "--params", "params.json",
              "--out", "full.hg"]),
            ("verify-clique", "certify", None,
             ["verify", "--check", "clique", "--s", "4", "be.g"]),
            ("verify-split-core", "certify", None,
             ["verify", "--check", "split-core", "full.hg"]),
            ("verify-sparse", "certify", None,
             ["verify", "--check", "sparse", "--ell", "9", "full.hg"]),
            ("verify-alpha_t", "certify", None,
             ["verify", "--check", "alpha_t", "--t", "3", "--bound", "40", "be.g"]),
            ("report", "find", "report.csv",
             ["report", "--params", "params.json", "--format", "csv",
              "--out", "report.csv", "full.hg"]),
            ("optimize", "find", None, ["optimize", "--t", "3", "--ell", "2", "--q", "2"]),
            ("sphere-eps-k", "find", None,
             ["sphere", "eps-k", "--alpha", "0.3", "--beta", "0.3"]),
            ("sphere-partition", "find", "p.sphere",
             ["sphere", "partition", "--k", "5", "--z", "20", "--theta", "0.5",
              "--seed", str(part_seed), "--out", "p.sphere"]),
        ]
        self.part_seed = part_seed
        self.ops = [Op(name, kind, self._call(argv, out))
                    for name, kind, out, argv in self.calls]

    def _call(self, argv, out_file):
        def call():
            if self.trace is None:
                proc = harness.run_child(["-m", "rtlab.cli", *argv], self.dir)
            else:
                proc = self._traced_call(argv)
            self.peak_child_mb = max(self.peak_child_mb, proc.peak_rss_mb)
            if proc.returncode != 0:
                raise CliFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-160:]}")
            digest = None
            if out_file:
                with open(os.path.join(self.dir, out_file), "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
            return proc.stdout, digest
        return call

    def _traced_call(self, argv):
        spans_file = os.path.join(self.dir, "spans.json")
        sid = self.trace.open("cli.spawn")
        try:
            proc = harness.run_child([CHILD, spans_file, *argv], self.dir)
        finally:
            self.trace.close(sid)
        with open(spans_file) as fh:
            tracer.graft(self.trace.spans, json.load(fh), sid)
        return proc

    def check(self, op, result):
        stdout = result[0].strip()
        path = lambda name: os.path.join(self.dir, name)
        if op.name == "construct-be":
            r, n, edges, _ = oracles.read_hypergraph_file(path("be.g"))
            require(r == 2 and n == 2 * PARAMS["z"], "be.g has the wrong shape")
        elif op.name == "verify-clique":
            _, n, edges, _ = oracles.read_hypergraph_file(path("be.g"))
            require(stdout == "clique: holds", f"clique verdict {stdout!r}")
            require(oracles.clique_number(n, edges) < 4, "networkx finds K4 in be.g")
        elif op.name in ("construct-full", "verify-split-core", "verify-sparse"):
            r, n, edges, part_of = oracles.read_hypergraph_file(path("full.hg"))
            if op.name == "construct-full":
                require(r == 3 and sorted(set(part_of)) == [0, 1, 2],
                        "full.hg is not a 3-part 3-graph")
            elif op.name == "verify-split-core":
                require(stdout == "split-core: holds", f"verdict {stdout!r}")
                split, _ = oracles.split_core_or_k5(edges, part_of)
                require(not split, "networkx finds a split core in full.hg")
            elif op.name == "verify-sparse":
                require(stdout == "sparse: holds", f"verdict {stdout!r}")
                cond = lambda v, m: v < 3 + 2 * (m - 1)
                for q in sorted(set(part_of)):
                    inside = [e for e in edges if all(part_of[v] == q for v in e)]
                    require(not oracles.sparse_pattern_exists(inside, 9, cond),
                            f"brute force finds a sparse pattern in part {q}")
        elif op.name == "verify-alpha_t":
            value = int(stdout.split("=")[1])
            require(stdout.startswith("alpha_3 = ") and value <= 40,
                    f"alpha_t output {stdout!r} with exit 0")
        elif op.name == "report":
            self._check_report()
        elif op.name == "optimize":
            require(stdout == "a*=32/63 bound=16/63", f"optimize printed {stdout!r}")
        elif op.name == "sphere-eps-k":
            fields = dict(kv.split("=") for kv in stdout.split())
            eps, k = float(fields["eps"]), int(fields["k"])
            problem = oracles.check_cap_properties(eps, k, 0.3, 0.3,
                                                   np.random.default_rng(k))
            require(problem is None, f"eps-k answer {stdout!r}: {problem}")
        elif op.name == "sphere-partition":
            with open(path("p.sphere")) as fh:
                lines = fh.read().splitlines()
            head = lines[0].split()
            require(head[:4] == ["SPHERE", "5", "20", str(self.part_seed)],
                    f"partition header {lines[0]!r}")
            rows = [[float(c) for c in ln.split()] for ln in lines[1:]]
            require(len(rows) == 20 and all(
                len(r) == 6 and abs(sum(c * c for c in r) - 1.0) < 1e-9 for r in rows),
                "partition rows are not 20 unit vectors in R^6")

    def _check_report(self):
        """Report rows against counts from the benchmark's own reader.  The
        report's verdict is not taken as a check: no row is asserted when
        the file carries no construction metadata."""
        _, n, edges, part_of = oracles.read_hypergraph_file(
            os.path.join(self.dir, "full.hg"))
        rows = oracles.read_report_csv(os.path.join(self.dir, "report.csv"))
        parts = sorted(set(part_of))
        want = {"vertices": n, "edges": len(edges),
                "cross_edges": sum(len({part_of[v] for v in e}) == 3 for e in edges),
                "inside_edges": sum(len({part_of[v] for v in e}) == 1 for e in edges)}
        want.update({f"part_{p}_size": part_of.count(p) for p in parts})
        for key, value in want.items():
            require(rows.get(key) == str(value),
                    f"report {key}={rows.get(key)} but the file has {value}")

    def layer_counts(self, rnd):
        size = sum(os.path.getsize(os.path.join(self.dir, f))
                   for f in ("be.g", "full.hg"))
        return {"hypergraph.file_bytes": size}

    def layer_extra(self):
        """Import cost of a fresh `import rtlab.cli` (python -X importtime)."""
        rtlab_s, scipy_s = [], []
        for _ in range(IMPORT_SAMPLES):
            proc = harness.run_child(["-X", "importtime", "-c", "import rtlab.cli"],
                                     self.dir)
            rtlab_s.append(import_seconds(proc.stderr, "rtlab"))
            scipy_s.append(import_seconds(proc.stderr, "scipy"))
        return {"cli.import_rtlab_s": (harness.median(rtlab_s), "s"),
                "cli.import_scipy_s": (harness.median(scipy_s), "s")}

    def peak_rss_mb(self):
        """The largest peak RSS of any CLI call of the rounds."""
        return self.peak_child_mb


def import_seconds(importtime_log, package):
    """Cumulative import time of `package` and its submodules, counting
    each outermost import of the package once."""
    entries = []            # (depth, name, cumulative us)
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line.split("|")
        if not cum.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cum)))
    # a module's line follows those of the imports it triggered (one level
    # deeper), so walking backwards visits every parent before its children
    total = 0
    inside = []             # depths of enclosing lines of `package`
    for depth, name, cum in reversed(entries):
        while inside and inside[-1] >= depth:
            inside.pop()
        mine = name == package or name.startswith(package + ".")
        if mine and not inside:
            total += cum
        if mine:
            inside.append(depth)
    return total / 1e6
