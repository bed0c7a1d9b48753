"""Input guards of the library functions: each refuses a bad argument
with ValueError and a message that names what is wrong."""

import os
from itertools import combinations

import numpy as np
import pytest

from helpers import complete_uniform
from rtlab.bounds import optimize_a
from rtlab.capmeasure import threshold_for_base_diameter
from rtlab.constructions import (ConstructionParams, corollary_graph,
                                 random_blowup, tuple_vertices)
from rtlab.drc import (DrcParams, drc_feasible, find_f_witness,
                       find_tkf5_tk4, hyper_drc)
from rtlab.hypergraph import (PartitionedHypergraph, SimpleGraph, as_graph,
                              clean_low_codegree)
from rtlab.reports import emit_report
from rtlab.sphere import (SpherePartition, SphericalCap, build_partition,
                          cap_measure, check_p4, estimate_dt, read_partition)
from rtlab.verifiers import (VerificationReport, alpha_t, find_clique,
                             find_tk, find_tkf_core)

# the README params, each guard test changing one field
README = dict(r=3, z=14, alpha=0.3, beta=0.3, epsilon=0.5, k=5, blowup_t=3,
              gamma=0.3, pattern_cap=10, seed=3)
K4 = SimpleGraph(4, combinations(range(4), 2))
K4_3 = complete_uniform(4, 3)
# a 3-graph on two labelled parts
TWO_PARTS = PartitionedHypergraph(4, 3, [(0, 1, 2), (1, 2, 3)], [0, 0, 1, 1])
CAP = SphericalCap(np.array([1.0, 0.0, 0.0]), 0.5)


def params(**change):
    return ConstructionParams(**{**README, **change})


GUARDS = [
    ("params-z", lambda: params(z=0), "partition size z must be >= 1"),
    ("params-k", lambda: params(k=0), "sphere dimension k must be >= 1"),
    ("params-alpha", lambda: params(alpha=0.0),
     r"alpha and beta must lie in \(0, 1\)"),
    ("params-beta", lambda: params(beta=1.0),
     r"alpha and beta must lie in \(0, 1\)"),
    ("params-pattern-cap", lambda: params(pattern_cap=2),
     "pattern cap must be >= r"),
    ("tuple-vertices-u",
     lambda: tuple_vertices(build_partition(2, 3, 0.5, seed=1), 0, 0.5),
     "tuple length must be >= 1"),
    ("blowup-t", lambda: random_blowup(K4_3, 0, 0.3, 9, 0),
     "blowup factor must be >= 1"),
    ("blowup-gamma", lambda: random_blowup(K4_3, 2, 1.0, 9, 0),
     r"gamma must lie in \(0, 1\)"),
    ("blowup-ell", lambda: random_blowup(K4_3, 2, 0.3, 2, 0),
     "pattern cap must be >= r"),
    ("corollary-q", lambda: corollary_graph(K4, 1, 2, 0, 0.5),
     "need q >= 2"),
    ("corollary-mix-a", lambda: corollary_graph(K4, 2, 2, 0, 1.0),
     r"mixing fraction must lie in \(0, 1\)"),
    ("drc-feasible-n", lambda: drc_feasible(DrcParams(), 4),
     "the graph-form test needs n"),
    ("hyper-drc-r", lambda: hyper_drc(K4, 2),
     "hypergraph form needs r >= 3"),
    ("hyper-drc-parts", lambda: hyper_drc(TWO_PARTS, 2),
     "need an 3-partite input, found 2 parts"),
    ("f-witness-r", lambda: find_f_witness(K4, DrcParams()),
     "witness pipelines are for 3-uniform hypergraphs"),
    # a bad count, not a pipeline that ran out of tries
    ("tkf5-retries", lambda: find_tkf5_tk4(K4_3, 0.5, retries=0),
     "retries must be >= 1"),
    ("as-graph-r", lambda: as_graph(K4_3), r"expected a graph \(r=2\)"),
    ("clean-threshold", lambda: clean_low_codegree(K4_3, -1),
     "threshold must be >= 0"),
    ("report-format",
     lambda: emit_report(VerificationReport("density", "unchecked"), "xml"),
     "unknown report format: xml"),
    ("optimize-a-q", lambda: optimize_a(3, 2, 1), "need q >= 2"),
    ("cap-threshold", lambda: SphericalCap(np.array([1.0, 0.0, 0.0]), 1.5),
     r"cap threshold must be in \[-1, 1\]"),
    ("base-diameter", lambda: threshold_for_base_diameter(2.5),
     r"cap base diameter must be in \[0, 2\]"),
    ("cap-measure-k", lambda: cap_measure(0, 0.5),
     "sphere dimension must be >= 1"),
    ("p4-dimensions",
     lambda: check_p4([1.0, 0.0], [0.0, 1.0], [1.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0], 0.1),
     "all four points must share a dimension"),
    ("partition-reps",
     lambda: SpherePartition(k=2, z=3, reps=np.eye(2), theta=0.5, seed=0),
     r"reps must be a \(z, k\+1\) array"),
    ("partition-z", lambda: build_partition(2, 0, 0.5, seed=1),
     "domain count must be >= 1"),
    ("partition-header", lambda: read_partition(os.devnull),
     "not a partition file"),
    ("estimate-dt-t", lambda: estimate_dt([CAP], 1), "need t >= 2 points"),
    ("find-clique-s", lambda: find_clique(K4, 0),
     "clique size must be >= 1"),
    ("alpha-t-t", lambda: alpha_t(K4, 1), "need t >= 2"),
    ("tkf-core-s", lambda: find_tkf_core(K4_3, 1),
     "core count must be >= 2"),
    ("find-tk-s", lambda: find_tk(K4_3, 1),
     "need at least 2 core vertices"),
]


@pytest.mark.parametrize("call, message", [g[1:] for g in GUARDS],
                         ids=[g[0] for g in GUARDS])
def test_guard_refuses_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()
