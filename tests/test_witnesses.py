"""Pinned witnesses: the JSON of every pair-cover search on fixed seeded
inputs, compared with `witnesses.json` beside this file.

The witnesses depend on the order in which the searches meet covered
pairs and covering edges, so a change to the pair-cover index, the
cleaning or the shadow that keeps the answers valid but picks different
ones shows here.  To re-pin after a deliberate change of order, run this
module as a script (`PYTHONPATH=src python tests/test_witnesses.py`)
and commit the file it writes, saying in the change log why the
witnesses moved.
"""

import json
from itertools import combinations
from pathlib import Path

from rtlab.drc import DrcParams, find_f_witness, find_tkf5_tk4
from rtlab.hypergraph import PartitionedHypergraph, turan_hypergraph
from rtlab.rng import substream
from rtlab.verifiers import find_tk, find_tkf_core, scan_split_core

PINNED = Path(__file__).with_name("witnesses.json")


def _triples(n, p, seed, labels=None):
    rng = substream(seed, "pinned-witnesses")
    edges = frozenset(e for e in combinations(range(n), 3) if rng.random() < p)
    return PartitionedHypergraph(n, 3, edges, labels)


def _planted(seed):
    base = turan_hypergraph(31, 3, 3)
    rng = substream(seed, "pinned-plant")
    plant = tuple(sorted(rng.choice(base.part_vertices(0), 3,
                                    replace=False).tolist()))
    return PartitionedHypergraph(31, 3, base.edges | {plant}, base.part_of)


def _json(result):
    if result is None:
        return None
    if isinstance(result, tuple):
        return [_json(x) for x in result]
    return result.as_json()


def witnesses() -> dict:
    out = {}
    for seed in range(3):
        h = _triples(24, 0.25, seed)
        out[f"tk5-{seed}"] = find_tk(h, 5)
        out[f"tkf6-{seed}"] = find_tkf_core(h, 6)
        parted = _triples(18, 0.08, seed, tuple(v % 3 for v in range(18)))
        out[f"split-{seed}"] = scan_split_core(parted)
        dense = _triples(30, 0.9, seed)
        out[f"f-witness-{seed}"] = find_f_witness(
            dense, DrcParams(a=4, m=4, t=2, s=2, codegree_threshold=4),
            seed=seed)
        out[f"tkf5-random-parts-{seed}"] = find_tkf5_tk4(
            dense, eps=0.1, codegree_threshold=4, seed=seed)
        out[f"tkf5-planted-{seed}"] = find_tkf5_tk4(
            _planted(seed), eps=0.2, codegree_threshold=4, seed=seed)
    return {name: _json(w) for name, w in out.items()}


def test_pinned_witnesses():
    got = witnesses()
    # a round trip through JSON text also fails on numpy scalars
    assert json.loads(json.dumps(got)) == json.loads(PINNED.read_text())


if __name__ == "__main__":
    lines = [f"{json.dumps(name)}: {json.dumps(w, sort_keys=True)}"
             for name, w in sorted(witnesses().items())]
    PINNED.write_text("{\n" + ",\n".join(lines) + "\n}\n")
