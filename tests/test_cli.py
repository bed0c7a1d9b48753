import hashlib
import json
import math
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from rtlab import verifiers as ver
from rtlab.cli import main
from rtlab.drc import FWitness, recheck_f_witness
from helpers import complete_uniform
from rtlab.hypergraph import (PartitionedHypergraph, SimpleGraph,
                              read_hypergraph, write_graph, write_hypergraph)
from rtlab.reports import emit_report
from rtlab.sphere import cap_measure
from rtlab.verifiers import Embedding, density_report


def write_params(tmp_path, **kw):
    base = dict(r=3, z=10, alpha=0.3, beta=0.3,
                epsilon=0.5 * math.sqrt(5), k=5, blowup_t=2, gamma=0.3,
                seed=2)
    base.update(kw)
    path = tmp_path / "params.json"
    path.write_text(json.dumps(base))
    return str(path)


def test_optimize_prints_exact_values(capsys):
    assert main(["optimize", "--t", "3", "--ell", "2", "--q", "2"]) == 0
    assert capsys.readouterr().out.strip() == "a*=32/63 bound=16/63"


def test_optimize_second_row(capsys):
    assert main(["optimize", "--t", "3", "--ell", "3", "--q", "2"]) == 0
    assert capsys.readouterr().out.strip() == "a*=24/47 bound=12/47"


def test_construct_and_verify_be(tmp_path, capsys):
    # theta = 0.5/sqrt(5) < 2 - sqrt(3), the regime where both sides stay
    # triangle-free and no K4 can appear
    params = write_params(tmp_path, z=40, epsilon=0.5, k=5)
    out = tmp_path / "be.g"
    assert main(["construct", "--type", "be", "--params", params,
                 "--out", str(out)]) == 0
    assert main(["verify", "--check", "clique", "--s", "4", str(out)]) == 0


def test_verify_violation_writes_witness(tmp_path):
    g = SimpleGraph(5, frozenset(combinations(range(5), 2)))
    path = tmp_path / "k5.g"
    write_graph(g, str(path))
    wit = tmp_path / "witness.json"
    code = main(["verify", "--check", "clique", "--s", "4",
                 "--witness-out", str(wit), str(path)])
    assert code == 1
    payload = json.loads(wit.read_text())
    assert len(payload["vertex_map"]) == 4


def test_verify_malformed_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.hg"
    bad.write_text("junk\n")
    assert main(["verify", "--check", "clique", "--s", "3", str(bad)]) == 2
    # edges of r = 0 (one empty line) and r = 1 vertex are refused too,
    # and so is a negative edge count
    for text in ["HG 0 2 1 0\n-1\n-1\n\n", "HG 1 2 1 0\n-1\n-1\n0\n",
                 "HG 3 4 -1 0\n" + "-1\n" * 4]:
        bad.write_text(text)
        assert main(["verify", "--check", "sparse", str(bad)]) == 2
    # so is a vertex id beyond int64, as the range check words it
    big = 99999999999999999999
    for edge in [(0, big), (0, 1, big)]:
        bad.write_text(f"HG {len(edge)} 4 1 1\n" + "0\n" * 4
                       + " ".join(map(str, edge)) + "\n")
        capsys.readouterr()
        assert main(["verify", "--check", "sparse", str(bad)]) == 2
        assert (f"input error: edge {edge} out of range for n=4"
                in capsys.readouterr().err)


def test_verify_missing_file_exit_2(tmp_path):
    assert main(["verify", "--check", "clique", "--s", "3",
                 str(tmp_path / "nope.hg")]) == 2


def test_verify_budget_exit_3(tmp_path):
    from rtlab.rng import substream
    rng = substream(1, "gnp")
    n = 40
    edges = frozenset((a, b) for a in range(n) for b in range(a + 1, n)
                      if rng.random() < 0.8)
    path = tmp_path / "dense.g"
    write_graph(SimpleGraph(n, edges), str(path))
    assert main(["verify", "--check", "clique", "--s", "12",
                 "--budget", "2", str(path)]) == 3
    # a negative budget is an input error, not an exhausted one
    assert main(["verify", "--check", "clique", "--s", "12",
                 "--budget", "-5", str(path)]) == 2


def test_verify_alpha_t_budget_out_above_bound_exit_1(tmp_path, capsys):
    # G(40, 0.8): listing the triangles takes about 6,000 nodes, and at
    # 8,000 the search has already found a triangle-free set of 8 (its
    # alpha_3), so the budget runs out with alpha_3 > 7 certified
    from rtlab.rng import substream
    rng = substream(1, "gnp")
    n = 40
    edges = frozenset((a, b) for a in range(n) for b in range(a + 1, n)
                      if rng.random() < 0.8)
    path = tmp_path / "dense.g"
    write_graph(SimpleGraph(n, edges), str(path))
    argv = ["verify", "--check", "alpha_t", "--t", "3", str(path)]
    capsys.readouterr()
    assert main(argv + ["--budget", "8000", "--bound", "7"]) == 1
    out, err = capsys.readouterr()
    assert out.strip() == "alpha_3 >= 8"
    assert err.strip() == "budget exceeded after 8001 nodes (certified: 8)"
    # a certified size not above the bound proves nothing: exit 3
    for budget, bound in (("8000", "8"), ("2000", "7"), ("8000", None)):
        extra = ["--budget", budget] + (["--bound", bound] if bound else [])
        assert main(argv + extra) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("budget exceeded after")


def test_verify_alpha_t_with_bound(tmp_path, capsys):
    g = SimpleGraph(6, frozenset(combinations(range(6), 2)))
    path = tmp_path / "k6.g"
    write_graph(g, str(path))
    assert main(["verify", "--check", "alpha_t", "--t", "3",
                 "--bound", "2", str(path)]) == 0
    assert main(["verify", "--check", "alpha_t", "--t", "3",
                 "--bound", "1", str(path)]) == 1
    edgeless = tmp_path / "edgeless.g"
    write_graph(SimpleGraph(1500, frozenset()), str(edgeless))
    capsys.readouterr()
    # one node per vertex
    assert main(["verify", "--check", "alpha_t", "--t", "3",
                 "--budget", "1500", str(edgeless)]) == 0
    assert capsys.readouterr().out.strip() == "alpha_3 = 1500"


def test_verify_tkf_and_split_core(tmp_path):
    h = complete_uniform(8, 3)
    path = tmp_path / "h.hg"
    write_hypergraph(h, str(path))
    assert main(["verify", "--check", "tkf", "--s", "4", str(path)]) == 1
    parts = (0,) * 4 + (1,) * 4
    hp = PartitionedHypergraph(8, 3, frozenset([(0, 1, 4)]), parts)
    path2 = tmp_path / "hp.hg"
    write_hypergraph(hp, str(path2))
    assert main(["verify", "--check", "split-core", str(path2)]) == 0


def test_verify_sparse_witness_names_file_vertices(tmp_path):
    # two triples sharing a pair inside part 1 (vertices 4..7)
    hp = PartitionedHypergraph(8, 3, frozenset([(4, 5, 6), (4, 5, 7)]),
                               (0,) * 4 + (1,) * 4)
    path = tmp_path / "hp.hg"
    write_hypergraph(hp, str(path))
    wit = tmp_path / "witness.json"
    assert main(["verify", "--check", "sparse", "--witness-out", str(wit),
                 str(path)]) == 1
    payload = json.loads(wit.read_text())
    assert sorted(payload["vertex_map"].values()) == [4, 5, 6, 7]
    assert sorted(map(tuple, payload["edges_used"])) == [(4, 5, 6), (4, 5, 7)]


def test_verify_edge_count_mismatch_exit_2(tmp_path):
    path = tmp_path / "dup.hg"
    path.write_text("HG 2 3 2 0\n-1\n-1\n-1\n0 1\n1 0\n")
    assert main(["verify", "--check", "clique", "--s", "2", str(path)]) == 2


@pytest.mark.parametrize("header_parts,label,problem", [
    (0, -5, "part label -5 is below -1"),
    (2, -1, "header gives 2 parts, the labels give 0"),
])
def test_verify_bad_part_labels_exit_2(tmp_path, capsys, header_parts, label,
                                       problem):
    path = tmp_path / "labels.hg"
    path.write_text(f"HG 3 4 2 {header_parts}\n" + f"{label}\n" * 4
                    + "0 1 2\n1 2 3\n")
    assert main(["verify", "--check", "sparse", "--ell", "9",
                 str(path)]) == 2
    assert problem in capsys.readouterr().err


def test_verify_sparse_ell_below_r_exit_2(tmp_path, capsys):
    # with ell < r no sub-collection fits, so the scan would check nothing
    path = tmp_path / "pair.hg"
    write_hypergraph(PartitionedHypergraph(4, 3,
                                           frozenset([(0, 1, 2), (0, 1, 3)])),
                     str(path))
    assert main(["verify", "--check", "sparse", "--ell", "2",
                 str(path)]) == 2
    assert "below r=3" in capsys.readouterr().err


@pytest.mark.parametrize("argv,r,problem", [
    (["verify", "--check", "clique", "--s", "3"], 3,
     "clique check needs a graph file"),
    (["verify", "--check", "alpha_t", "--t", "3"], 3,
     "alpha_t check needs a graph file"),
    (["drc", "find-set"], 3, "find-set needs a graph file"),
    (["verify", "--check", "clique"], 2, "clique check needs --s"),
    (["verify", "--check", "alpha_t"], 2, "alpha_t check needs --t"),
])
def test_wrong_uniformity_or_missing_flag_exit_2(tmp_path, capsys, argv, r,
                                                 problem):
    path = tmp_path / "in.hg"
    write_hypergraph(complete_uniform(5, r), str(path))
    if argv[0] == "drc":
        params = tmp_path / "drc.json"
        params.write_text("{}")
        argv = argv + ["--params", str(params)]
    assert main(argv + [str(path)]) == 2
    assert problem in capsys.readouterr().err


@pytest.mark.parametrize("check,flag", [
    ("clique", "s"), ("alpha_t", "t"), ("tk", "s"), ("tkf", "s")])
def test_verify_missing_flag_reported_before_file_read(tmp_path, capsys,
                                                        check, flag):
    missing = tmp_path / "absent.hg"
    assert main(["verify", "--check", check, str(missing)]) == 2
    assert capsys.readouterr().err == \
        f"input error: {check} check needs --{flag}\n"


def test_sparse_scan_budget_covers_every_part(tmp_path, monkeypatch, capsys):
    # the README full.hg (z=14, seed 3): the scan over all parts' inside
    # edges takes 48 nodes, its largest part alone 23
    monkeypatch.chdir(tmp_path)
    Path("params.json").write_text(json.dumps(
        {"r": 3, "z": 14, "alpha": 0.3, "beta": 0.3, "epsilon": 0.5, "k": 5,
         "blowup_t": 3, "gamma": 0.3, "pattern_cap": 10, "seed": 3}))
    assert main(["construct", "--type", "full", "--params", "params.json",
                 "--out", "full.hg"]) == 0
    sparse = ["verify", "--check", "sparse", "--ell", "6", "--budget"]
    assert main(sparse + ["47", "full.hg"]) == 3
    assert "budget exceeded after 48 nodes" in capsys.readouterr().err
    assert main(sparse + ["48", "full.hg"]) == 0
    assert capsys.readouterr().out.endswith("sparse: holds\n")


def test_drc_find_tkf5_bad_epsilon_exit_2(tmp_path, capsys):
    path = tmp_path / "k6.hg"
    write_hypergraph(complete_uniform(6, 3), str(path))
    params = tmp_path / "drc.json"
    params.write_text(json.dumps({"epsilon": -1}))
    assert main(["drc", "find-tkf5", "--params", str(params), str(path)]) == 2
    assert "eps must lie in (0, 1], got -1" in capsys.readouterr().err


BOGUS = Embedding({i: i for i in range(4)}, {i: "core" for i in range(4)},
                  [(0, 1, 2)])


@pytest.mark.parametrize("check,finder,flags", [
    ("clique", "find_clique", ["--s", "4"]),
    ("tk", "find_tk", ["--s", "4"]),
    ("tkf", "find_tkf_core", ["--s", "4"]),
    ("split-core", "scan_split_core", []),
    ("sparse", "scan_sparse_patterns", []),
])
def test_verify_failed_recheck_exit_4(tmp_path, monkeypatch, capsys, check,
                                      finder, flags):
    # a finder that returns an embedding the file does not contain: the
    # recheck rejects it, nothing is written and the run is an internal
    # error, not a violation
    r = 2 if check == "clique" else 3
    path = tmp_path / "empty.hg"
    write_hypergraph(PartitionedHypergraph(8, r, frozenset(),
                                           (0,) * 4 + (1,) * 4), str(path))
    monkeypatch.setattr(ver, finder, lambda *a, **kw: BOGUS)
    wit = tmp_path / "witness.json"
    assert main(["verify", "--check", check, *flags, "--witness-out",
                 str(wit), str(path)]) == 4
    assert not wit.exists()
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and "recheck" in err


@pytest.mark.parametrize("check,finder,r", [
    ("clique", "find_clique", 2),
    ("tkf", "find_tkf_core", 3),
    ("tk", "find_tk", 3),
    ("split-core", "scan_split_core", 3),
])
def test_verify_short_witness_exit_4(tmp_path, monkeypatch, capsys, check,
                                     finder, r):
    # the first edge of a path holds in the file, but its two vertices are
    # no K_4, no four-core set and no split core: the recheck counts them
    # against --s (four cores for split-core)
    path = tmp_path / "path.hg"
    write_hypergraph(PartitionedHypergraph(8, r, frozenset(
        tuple(range(i, i + r)) for i in range(0, 8 - r + 1, r - 1))), str(path))
    short = Embedding({0: 0, 1: 1}, {0: "core", 1: "core"}, [tuple(range(r))])
    monkeypatch.setattr(ver, finder, lambda *a, **kw: short)
    wit = tmp_path / "witness.json"
    assert main(["verify", "--check", check, "--s", "4", "--witness-out",
                 str(wit), str(path)]) == 4
    assert not wit.exists()
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and "recheck" in err


def test_verify_tkf_edges_not_in_file_exit_4(tmp_path, monkeypatch, capsys):
    # every core pair is covered by the file's one edge, but the witness
    # names edges the file does not hold: the recheck reads edges_used
    path = tmp_path / "edge.hg"
    write_hypergraph(PartitionedHypergraph(8, 3, frozenset([(0, 1, 2)])),
                     str(path))
    forged = Embedding({i: i for i in range(3)}, {i: "core" for i in range(3)},
                       [(0, 1, 5), (0, 2, 5), (1, 2, 5)])
    monkeypatch.setattr(ver, "find_tkf_core", lambda *a, **kw: forged)
    wit = tmp_path / "witness.json"
    assert main(["verify", "--check", "tkf", "--s", "3", "--witness-out",
                 str(wit), str(path)]) == 4
    assert not wit.exists()
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and "recheck" in err


def test_internal_error_exit_4(tmp_path, monkeypatch, capsys):
    def crash(*args, **kwargs):
        raise ZeroDivisionError("line one\nline two")
    monkeypatch.setattr(ver, "find_clique", crash)
    path = tmp_path / "k3.g"
    write_graph(SimpleGraph(3, frozenset(combinations(range(3), 2))), str(path))
    assert main(["verify", "--check", "clique", "--s", "3", str(path)]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: ZeroDivisionError: line one line two\n"


@pytest.mark.parametrize("kind", ["be", "sphere", "full", "corollary"])
def test_constructed_files_read_back(tmp_path, kind):
    # every file `construct` writes passes the strict reader and writes
    # back to the same bytes
    params = write_params(tmp_path, z=12, epsilon=0.5, k=5, pattern_cap=10)
    out = tmp_path / f"{kind}.hg"
    assert main(["construct", "--type", kind, "--params", params,
                 "--out", str(out)]) == 0
    again = tmp_path / "again.hg"
    write_hypergraph(read_hypergraph(str(out)), str(again))
    assert again.read_bytes() == out.read_bytes()


def test_unknown_flags_exit_2():
    assert main(["verify", "--nonsense"]) == 2


def test_report_byte_reproducible(tmp_path):
    params = write_params(tmp_path, z=12)
    hg = tmp_path / "full.hg"
    assert main(["construct", "--type", "full", "--params", params,
                 "--out", str(hg)]) == 0
    r1 = tmp_path / "r1.csv"
    r2 = tmp_path / "r2.csv"
    assert main(["report", "--params", params, "--out", str(r1), str(hg)]) == 0
    assert main(["report", "--params", params, "--out", str(r2), str(hg)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_report_flags_without_params_file(tmp_path):
    # construction flags alone carry the parameters into the report
    path = tmp_path / "k5.hg"
    write_hypergraph(complete_uniform(5, 3), str(path))
    out = tmp_path / "report.csv"
    assert main(["report", "--r", "3", "--z", "99", "--alpha", "0.3",
                 "--beta", "0.3", "--epsilon", "0.5", "--k", "5",
                 "--seed", "7", "--out", str(out), str(path)]) == 0
    text = out.read_text()
    assert "# param z=99\n" in text and "# param seed=7\n" in text
    assert "vertex_bound_reference" in text


def test_report_flags_missing_keys_exit_2(tmp_path, capsys):
    path = tmp_path / "k5.hg"
    write_hypergraph(complete_uniform(5, 3), str(path))
    out = tmp_path / "report.csv"
    assert main(["report", "--z", "99", "--seed", "7", "--out", str(out),
                 str(path)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("input error:")
    # every key given, but an epsilon that is not a positive finite number
    for epsilon in ["-1", "0", "inf", "nan"]:
        assert main(["report", "--r", "3", "--z", "14", "--alpha", "0.3",
                     "--beta", "0.3", "--epsilon", epsilon, "--k", "5",
                     "--out", str(out), str(path)]) == 2, epsilon
        assert not out.exists()
        assert "epsilon must be a positive finite number" in \
            capsys.readouterr().err


# sha256 of the README pipeline's files (z=14, seed 3); a change that is
# meant to keep seeded output must keep these
README_DIGESTS = {
    "be.g": "27a04b88a13596d020bc44f4f3277eb949ea0cd4f6ad9c130c76d6dc7e669698",
    "full.hg": "cd76219445f19b66f904af1081a61656291b3e163669df172aab414a40e877d7",
    # full.hg carries no construction metadata, so nothing is asserted
    # and the report's verdict is `unchecked`
    "report.csv": "d88afbcd3c826ae07463f07df87e830475e50b2feaf21eb244dddf0d5b2276f1",
}


def test_readme_pipeline_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("params.json").write_text(
        '{"r": 3, "z": 14, "alpha": 0.3, "beta": 0.3, "epsilon": 0.5, '
        '"k": 5,\n "blowup_t": 3, "gamma": 0.3, "pattern_cap": 10, '
        '"seed": 3}\n')
    assert main(["construct", "--type", "be", "--params", "params.json",
                 "--out", "be.g"]) == 0
    assert main(["construct", "--type", "full", "--params", "params.json",
                 "--out", "full.hg"]) == 0
    assert main(["report", "--params", "params.json", "--format", "csv",
                 "--out", "report.csv", "full.hg"]) == 0
    got = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
           for name in README_DIGESTS}
    assert got == README_DIGESTS


def test_construct_pipeline_reproducible(tmp_path):
    params = write_params(tmp_path, z=12)
    h1 = tmp_path / "a.hg"
    h2 = tmp_path / "b.hg"
    assert main(["construct", "--type", "full", "--params", params,
                 "--out", str(h1)]) == 0
    assert main(["construct", "--type", "full", "--params", params,
                 "--out", str(h2)]) == 0
    assert h1.read_bytes() == h2.read_bytes()


def test_construct_corollary_cli(tmp_path):
    params = write_params(tmp_path, z=12, epsilon=0.5, k=5, pattern_cap=10)
    out = tmp_path / "cor.g"
    assert main(["construct", "--type", "corollary", "--params", params,
                 "--out", str(out)]) == 0
    # q=2, base r=3: the composition must stay K_{2*3+2}-free
    assert main(["verify", "--check", "clique", "--s", "8", str(out)]) == 0


def test_flag_overrides_params_file(tmp_path):
    params = write_params(tmp_path, z=10)
    out1 = tmp_path / "s1.hg"
    assert main(["construct", "--type", "sphere", "--params", params,
                 "--z", "6", "--out", str(out1)]) == 0
    h = read_hypergraph(str(out1))
    assert h.n % 6 == 0  # parts are copies of 6 tuple vertices


def test_drc_find_set_cli(tmp_path):
    from rtlab.rng import substream
    rng = substream(3, "gnp")
    n = 100
    edges = frozenset((a, b) for a in range(n) for b in range(a + 1, n)
                      if rng.random() < 0.5)
    gpath = tmp_path / "g.hg"
    write_graph(SimpleGraph(n, edges), str(gpath))
    ppath = tmp_path / "drc.json"
    ppath.write_text(json.dumps({"a": 4, "m": 5, "t": 3, "r": 2}))
    out = tmp_path / "u.json"
    assert main(["drc", "find-set", "--params", str(ppath), "--seed", "1",
                 "--out", str(out), str(gpath)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["U"]) >= 4


def test_drc_find_f_cli(tmp_path):
    h = complete_uniform(12, 3)
    hpath = tmp_path / "h.hg"
    write_hypergraph(h, str(hpath))
    ppath = tmp_path / "drc.json"
    ppath.write_text(json.dumps({"a": 3, "m": 3, "t": 2, "s": 1,
                                 "codegree_threshold": 2}))
    out = tmp_path / "w.json"
    assert main(["drc", "find-f", "--params", str(ppath), "--seed", "1",
                 "--out", str(out), str(hpath)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["xs"]) == 3


def test_drc_find_tkf5_cli(tmp_path):
    from rtlab.hypergraph import turan_hypergraph
    base = turan_hypergraph(61, 3, 3)
    plant = tuple(sorted(base.part_vertices(0)[:3]))
    h = PartitionedHypergraph(61, 3, frozenset(base.edges | {plant}),
                              base.part_of)
    hpath = tmp_path / "h.hg"
    write_hypergraph(h, str(hpath))
    ppath = tmp_path / "drc.json"
    ppath.write_text(json.dumps({"epsilon": 0.2, "codegree_threshold": 16}))
    out = tmp_path / "w.json"
    assert main(["drc", "find-tkf5", "--params", str(ppath),
                 "--out", str(out), str(hpath)]) == 0
    payload = json.loads(out.read_text())
    assert payload["tkf5"] is not None and payload["tk4"] is not None


def test_drc_find_set_exhausted_retries_exit_3(tmp_path, capsys):
    # K_{50,50}: three picks on both sides have no common neighbour, and
    # both retries at seed 0 draw such picks
    g = SimpleGraph(100, frozenset((a, b) for a in range(50)
                                   for b in range(50, 100)))
    gpath = tmp_path / "g.hg"
    write_graph(g, str(gpath))
    ppath = tmp_path / "drc.json"
    ppath.write_text(json.dumps({"a": 4, "m": 5, "t": 3, "r": 2,
                                 "retries": 2}))
    out = tmp_path / "u.json"
    assert main(["drc", "find-set", "--params", str(ppath), "--seed", "0",
                 "--out", str(out), str(gpath)]) == 3
    assert "no verified set" in capsys.readouterr().out
    assert not out.exists()


def test_drc_find_set_zero_vertices_exit_2(tmp_path, capsys):
    # no vertices, no average degree: an input error, nothing written
    gpath = tmp_path / "g.hg"
    gpath.write_text("HG 2 0 0 0\n")
    ppath = tmp_path / "drc.json"
    ppath.write_text(json.dumps({"a": 6, "m": 8, "t": 4, "r": 2}))
    out = tmp_path / "u.json"
    assert main(["drc", "find-set", "--params", str(ppath), "--seed", "1",
                 "--out", str(out), str(gpath)]) == 2
    assert "no vertices" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("action", ["find-f", "find-tkf5"])
def test_drc_hypergraph_pipeline_failure_exit_3(tmp_path, capsys, action):
    # one edge: no edge survives the codegree sweep in any retry
    hpath = tmp_path / "h.hg"
    write_hypergraph(PartitionedHypergraph(30, 3, frozenset([(0, 1, 2)])),
                     str(hpath))
    ppath = tmp_path / "drc.json"
    ppath.write_text(json.dumps({"epsilon": 0.5, "codegree_threshold": 1,
                                 "retries": 2}))
    out = tmp_path / "w.json"
    assert main(["drc", action, "--params", str(ppath), "--seed", "1",
                 "--out", str(out), str(hpath)]) == 3
    assert f"{action} failed at stage" in capsys.readouterr().out
    assert not out.exists()


def test_drc_find_f_31_vertices(tmp_path, capsys):
    # a balanced partition of 31 vertices has parts 11, 10, 10
    rng = np.random.default_rng(7)
    h = PartitionedHypergraph(31, 3, [e for e in combinations(range(31), 3)
                                      if rng.random() < 0.9])
    hpath, ppath, out = tmp_path / "h.hg", tmp_path / "drc.json", tmp_path / "w.json"
    write_hypergraph(h, str(hpath))
    ppath.write_text(json.dumps({"a": 4, "m": 4, "t": 2, "s": 2,
                                 "codegree_threshold": 4}))
    assert main(["drc", "find-f", "--params", str(ppath), "--seed", "1",
                 "--out", str(out), str(hpath)]) == 0
    w = json.loads(out.read_text())
    assert recheck_f_witness(h, FWitness(*(tuple(w[k]) for k in ("xs", "ys", "zs"))))


@pytest.mark.parametrize("action", ["find-f", "find-tkf5"])
@pytest.mark.parametrize("params,problem", [
    ({"retries": 0}, "retries must be >= 1"),
    ({"retries": -3}, "retries must be >= 1"),
    ({"codegree_threshold": -1}, "codegree_threshold must be >= 0"),
    ({"a": 0}, "a must be >= 1"),
    ({"s": 0}, "s must be >= 1"),
    ({"n": 0}, "n must be positive"),
    ({"retires": 2, "seed": 1}, "unknown drc params: retires, seed"),
])
def test_drc_bad_params_exit_2(tmp_path, capsys, action, params, problem):
    # refused as input before any trial runs, not reported as a pipeline
    # that found no witness
    hpath = tmp_path / "h.hg"
    write_hypergraph(complete_uniform(9, 3), str(hpath))
    ppath = tmp_path / "drc.json"
    ppath.write_text(json.dumps(params))
    out = tmp_path / "w.json"
    assert main(["drc", action, "--params", str(ppath),
                 "--out", str(out), str(hpath)]) == 2
    captured = capsys.readouterr()
    assert problem in captured.err and "failed at stage" not in captured.out
    assert not out.exists()


def test_sphere_subcommands(tmp_path, capsys):
    out = tmp_path / "p.sphere"
    assert main(["sphere", "partition", "--k", "3", "--z", "5",
                 "--theta", "0.4", "--seed", "1", "--out", str(out)]) == 0
    from rtlab.sphere import read_partition
    part = read_partition(str(out))
    assert part.z == 5
    capsys.readouterr()
    assert main(["sphere", "cap-measure", "--k", "2", "--s", "0.5"]) == 0
    assert capsys.readouterr().out.strip() == "0.250000000000"


def test_sphere_eps_k_cli(capsys):
    assert main(["sphere", "eps-k", "--alpha", "0.49", "--beta", "0.49"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("eps=") and " k=" in out
    # k = 23,342, where building a (k+1, k+1) identity ran out of memory
    assert main(["sphere", "eps-k", "--alpha", "0.1", "--beta", "0.001"]) == 0
    assert capsys.readouterr().out.strip() == "eps=0.125 k=23342"


def test_sphere_eps_k_infeasible_exit_3(capsys):
    # no k <= 1,000,000 works: the search is exhausted, not broken
    assert main(["sphere", "eps-k", "--alpha", "1e-9", "--beta", "0.3"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and not err.startswith("internal error")
    assert "no (eps, k) with k <= 1000000" in err


@pytest.mark.parametrize("s", ["1e-320", "-1e-200"])
def test_sphere_cap_measure_tiny_threshold(capsys, s):
    # s * s underflows to 0 for these thresholds
    assert main(["sphere", "cap-measure", "--k", "3", f"--s={s}"]) == 0
    assert capsys.readouterr().out.strip() == "0.500000000000"


@pytest.mark.parametrize("theta", ["-1", "0", "nan", "inf"])
def test_sphere_partition_rejects_bad_theta(tmp_path, capsys, theta):
    # a theta that is not positive and finite is an input error: exit 2,
    # no file written
    out = tmp_path / "p.sphere"
    assert main(["sphere", "partition", "--k", "2", "--z", "4",
                 f"--theta={theta}", "--out", str(out)]) == 2
    assert "theta must be a positive finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("k,z,theta,verdict", [
    (1, 56, 0.5 / math.sqrt(5), "fails (volume bound)"),
    # theta >= 8: the cap threshold is clamped at -1, z=1 would do
    (2, 4, 10.0, "not excluded by the volume bound"),
])
def test_sphere_partition_prints_volume_bound(tmp_path, capsys, k, z, theta,
                                              verdict):
    out = tmp_path / "p.sphere"
    assert main(["sphere", "partition", "--k", str(k), "--z", str(z),
                 f"--theta={theta!r}", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert f"theta/4 = {theta / 4:.4f}" in printed
    assert printed.rstrip().endswith(f"{verdict})")


def test_sphere_missing_flags_exit_2():
    assert main(["sphere", "partition", "--z", "4"]) == 2
    assert main(["sphere", "eps-k"]) == 2


SPHERE_ARGS = {"partition": {"k": "2", "z": "4", "theta": "0.5", "out": None},
               "eps-k": {"alpha": "0.3", "beta": "0.3"},
               "cap-measure": {"k": "2", "s": "0.5"}}


@pytest.mark.parametrize("action,missing", [
    (action, flag) for action, flags in SPHERE_ARGS.items() for flag in flags])
def test_sphere_names_missing_flag_before_work(action, missing, tmp_path,
                                               monkeypatch, capsys):
    # each required flag is checked before the action runs: exit 2 with
    # the flag named, nothing computed and nothing written
    from rtlab import sphere

    def no_work(*args, **kwargs):
        raise AssertionError("ran without a required flag")

    for name in ("build_partition", "find_eps_k", "cap_measure"):
        monkeypatch.setattr(sphere, name, no_work)
    out = tmp_path / "p.sphere"
    argv = ["sphere", action]
    for flag, value in SPHERE_ARGS[action].items():
        if flag != missing:
            argv += [f"--{flag}", value or str(out)]
    assert main(argv) == 2
    assert f"sphere {action} needs --{missing}" in capsys.readouterr().err
    assert not out.exists()


def test_density_report_json_roundtrip():
    h = complete_uniform(6, 3)
    rep = density_report(h)
    text = emit_report(rep, "json", {"seed": 1})
    parsed = json.loads(text)
    assert parsed["property"] == "density"
    assert set(parsed) == {"property", "verdict", "params", "rows"}
    assert json.loads(json.dumps(parsed)) == parsed


@pytest.mark.parametrize("payload", [[1, 2], "str"])
@pytest.mark.parametrize("argv", [
    ["construct", "--type", "be", "--out", "be.g"],
    ["report"],
    ["drc", "find-set"],
])
def test_params_file_not_an_object_exit_2(tmp_path, monkeypatch, capsys,
                                          argv, payload):
    # a params file must hold a JSON object; anything else is an input
    # error, for the construction and the drc params alike
    monkeypatch.chdir(tmp_path)
    write_graph(SimpleGraph(3, frozenset([(0, 1)])), "g.g")
    Path("bad.json").write_text(json.dumps(payload))
    file = [] if argv[0] == "construct" else ["g.g"]
    assert main(argv + ["--params", "bad.json"] + file) == 2
    assert capsys.readouterr().err.startswith("input error")


@pytest.mark.parametrize("argv,key,value", [
    (["construct", "--type", "be", "--out", "be.g"], "seed", 3.5),
    (["report", "k5.hg"], "pattern_cap", 10.9),
    (["drc", "find-f", "k5.hg"], "retries", True),
    (["drc", "find-f", "k5.hg"], "a", "4"),
    (["construct", "--type", "corollary", "--out", "be.g"], "ell", 2.9),
    (["construct", "--type", "corollary", "--out", "be.g"], "q", "2"),
])
def test_params_file_non_integer_exit_2(tmp_path, monkeypatch, capsys, argv,
                                        key, value):
    # an integer field of the construction or the drc params that holds a
    # float, a bool or a string is refused, not truncated or compared
    monkeypatch.chdir(tmp_path)
    write_hypergraph(complete_uniform(5, 3), "k5.hg")
    if argv[0] == "drc":
        Path("params.json").write_text(json.dumps({key: value}))
        params = "params.json"
    else:
        params = write_params(tmp_path, **{key: value})
    assert main(argv + ["--params", params]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error") and f"{key} must be an integer" in err
    assert not Path("be.g").exists()


@pytest.mark.parametrize("argv", [
    ["construct", "--type", "full", "--out", "be.g"],
    ["report", "k5.hg"],
])
def test_params_file_unknown_key_exit_2(tmp_path, monkeypatch, capsys, argv):
    # a misspelled key is refused, not kept beside the field's default;
    # the corollary's ell, q and mix_a are the only keys besides the fields
    monkeypatch.chdir(tmp_path)
    write_hypergraph(complete_uniform(5, 3), "k5.hg")
    params = write_params(tmp_path, gama=0.9, ell=2, q=2, mix_a=0.5)
    assert main(argv + ["--params", params]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error")
    assert "unknown construction params: gama" in err
    assert not Path("be.g").exists()


@pytest.mark.parametrize("k,z,ok", [(5, 14, "no"), (2, 600, ""),
                                     (200, 14, "no")])
def test_report_volume_bound_row(tmp_path, k, z, ok):
    # one unasserted row: z against the volume bound, which is inf when
    # the cap measure underflows (k=200); both formats render it, the
    # JSON one as strict JSON with inf written as text
    path = tmp_path / "k5.hg"
    write_hypergraph(complete_uniform(5, 3), str(path))
    csv, js = tmp_path / "report.csv", tmp_path / "report.json"
    flags = ["--r", "3", "--z", str(z), "--alpha", "0.3", "--beta", "0.3",
             "--epsilon", "0.5", "--k", str(k), str(path)]
    assert main(["report", "--out", str(csv)] + flags) == 0
    assert main(["report", "--format", "json", "--out", str(js)] + flags) == 0
    want = cap_measure(k, 1.0 - (0.5 / math.sqrt(k)) ** 2 / 32.0)
    want = 1.0 / want if want else math.inf
    row = [line for line in csv.read_text().splitlines()
           if line.startswith("partition_z_volume_bound,")]
    assert row == [f"partition_z_volume_bound,{z},{z},{want!r},no,{ok}"]
    rows = {r["quantity"]: r for r in json.loads(
        js.read_text(), parse_constant=_no_constant)["rows"]}
    assert float(rows["partition_z_volume_bound"]["reference"]) == want


def test_report_with_nothing_asserted_is_unchecked(tmp_path):
    # no row of a metadata-free hypergraph's report is asserted: the
    # verdict says so, and the exit code stays 0 (1 is only a violation)
    path = tmp_path / "k5.hg"
    write_hypergraph(complete_uniform(5, 3), str(path))
    csv, js = tmp_path / "report.csv", tmp_path / "report.json"
    assert main(["report", "--out", str(csv), str(path)]) == 0
    assert main(["report", "--format", "json", "--out", str(js),
                 str(path)]) == 0
    assert csv.read_text().splitlines()[0] == \
        "# property=density verdict=unchecked"
    assert json.loads(js.read_text())["verdict"] == "unchecked"


def _no_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_graph_report_volume_bound_row(tmp_path, monkeypatch):
    # a graph report with params gets the volume-bound row of the
    # hypergraph report, but not its r/u reference rows
    monkeypatch.chdir(tmp_path)
    params = write_params(tmp_path, z=14, epsilon=0.5, k=5)
    assert main(["construct", "--type", "be", "--params", params,
                 "--out", "be.g"]) == 0
    assert main(["report", "--params", params, "--out", "report.csv",
                 "be.g"]) == 0
    lines = Path("report.csv").read_text().splitlines()
    assert "partition_z_volume_bound,14,14,10799153.523573805,no,no" in lines
    assert not any(line.startswith(("vertex_bound", "cross_bound"))
                   for line in lines)


def test_empty_report_header_only():
    from rtlab.verifiers import VerificationReport
    rep = VerificationReport("density", "holds")
    text = emit_report(rep, "csv", {})
    lines = text.strip().splitlines()
    assert lines[0].startswith("# property=density")
    assert lines[-1].startswith("quantity,")


def test_runs_without_scipy():
    # the runtime needs numpy only: with scipy blocked, the CLI still
    # imports and computes a cap measure
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "import rtlab.cli\n"
            "sys.exit(rtlab.cli.main(['sphere', 'cap-measure', '--k', '5', "
            "'--s', '0.3']))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) == pytest.approx(cap_measure(5, 0.3), abs=1e-12)
