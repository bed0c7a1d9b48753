"""`construct`: full_construction on two fixed corpora, then certification.

Corpora (fixed, because per-seed build time spans 0.15 s to over 30 s on
the README parameters and a seed-drawn corpus would make run-to-run
spread meaningless; the seed only shuffles the order of the instances):

- README parameters (r=3, z=14, eps=0.5, k=5, t=3, gamma=0.3, cap 10) at
  seeds 2..5, node budget 80,000.  Seed 4 exhausts the budget every time
  (named fault: pattern deletion enumerates every connected
  sub-collection up to the cap).
- acceptance-criterion-6 parameters (z=20, theta=0.5, k=5, t=3,
  gamma=0.3, cap 10) at seeds 3, 4, 5, node budget 250,000.

Per instance: one `find` op (partition + full_construction) and one
`certify` op (split-core scan, K5 scan of the two-part shadow, and the
sparse-pattern scan of every part under the deletion condition).
"""

import math
import random

import numpy as np

import harness
import oracles
from harness import Fault, Op, require

README = dict(r=3, z=14, alpha=0.3, beta=0.3, epsilon=0.5, k=5, blowup_t=3,
              gamma=0.3, pattern_cap=10)
CRIT6 = dict(r=3, z=20, alpha=0.3, beta=0.3, epsilon=0.5 * math.sqrt(5), k=5,
             blowup_t=3, gamma=0.3, pattern_cap=10)
CORPUS = ([("readme", s, README, 80_000) for s in (2, 3, 4, 5)]
          + [("crit6", s, CRIT6, 250_000) for s in (3, 4, 5)])
FAULT = ("sparse_pattern_doomed_edges enumerates every connected "
         "sub-collection up to pattern_cap vertices")


class Construct(harness.Workload):
    name = "construct"
    # nominal, not measured (a round takes about 9.6 s): two rounds at the
    # 14-s run length.  Each build is one long call with pace bursts only
    # at its ends; with one round the run-to-run spread of run_s reached
    # 0.085 over ten runs, and the median of two rounds narrows it.
    round_s = 7.0

    def setup(self, seed):
        import rtlab.constructions as con
        from rtlab.verifiers import BudgetExceeded
        self.con = con
        self.built = {}
        instances = list(CORPUS)
        random.Random(seed).shuffle(instances)
        self.params = {}
        self.ops = []
        for tag, s, kw, budget in instances:
            key = f"{tag}-z{kw['z']}-seed{s}"
            self.params[key] = con.ConstructionParams(seed=s, **kw)
            fault = (Fault(BudgetExceeded, FAULT) if (tag, s) == ("readme", 4)
                     else None)
            self.ops.append(Op(f"{key}/build", "find",
                               self._build(key, budget), fault=fault))
            self.ops.append(Op(f"{key}/certify", "certify",
                               self._certify(key), needs=f"{key}/build"))

    def _build(self, key, budget):
        def build():
            p = self.params[key]
            partition = p.build_partition()
            h = self.con.full_construction(p, partition, budget=budget)
            self.built[key] = h
            return partition, h
        return build

    def _certify(self, key):
        import rtlab.verifiers as ver

        def certify():
            h = self.built.pop(key)
            p = self.params[key]
            cond = ver.blowup_deletion_condition(p.r, p.gamma)
            sparse = [ver.scan_sparse_patterns(h.induced(h.part_vertices(q)),
                                               p.r, p.pattern_cap,
                                               condition=cond)
                      for q in range(h.parts)]
            return (ver.scan_split_core(h),
                    ver.find_clique(self.con.shadow_first_parts(h, 2), 5),
                    sparse)
        return certify

    def check(self, op, result):
        key, step = op.name.split("/")
        p = self.params[key]
        if step == "certify":
            split, k5, sparse = result
            require(split is None, "split-core witness on a finished construction")
            require(k5 is None, "K5 in the two-part shadow")
            require(all(w is None for w in sparse), "sparse pattern survived deletion")
            return
        partition, h = result
        edges = sorted(h.edges)
        part_of = list(h.part_of)
        cross = sum(1 for e in edges if len({part_of[v] for v in e}) == p.r)
        triples = oracles.close_transversal_triples(np.asarray(partition.reps),
                                                    p.theta, p.u)
        require(cross == triples * p.blowup_t ** p.r,
                f"cross edges {cross} != t^r x {triples} close tuple triples")
        split, k5 = oracles.split_core_or_k5(edges, part_of)
        require(not split, "networkx finds a split core")
        require(not k5, "networkx finds K5 in the two-part shadow")
        cond = lambda v, m: v + (1.0 + p.gamma - p.r) * (m - 1) < p.r
        for q in range(h.parts):
            inside = [e for e in edges if all(part_of[v] == q for v in e)]
            require(not oracles.sparse_pattern_exists(inside, p.pattern_cap, cond),
                    f"brute force finds a sparse pattern in part {q}")

    def fingerprint(self, op, result):
        if op.name.endswith("/certify"):
            return result
        return hash(result[1].edges), result[1].n

    def layer_counts(self, rnd):
        kept = deleted = nodes = 0
        for out in rnd.outcomes:
            if not out.op.name.endswith("/build"):
                continue
            if out.error is not None:
                nodes += getattr(out.error, "nodes", 0)
            else:
                meta = out.result[1].meta
                kept += meta["kept_edges"]
                deleted += meta["deleted_patterns_edges"]
        return {"constructions.kept_edges": kept,
                "constructions.deleted_edges": deleted,
                "constructions.deleted_per_kept": deleted / kept if kept else 0.0,
                "verifiers.budget_nodes_failed": nodes}
