import hashlib
import json
import math
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import rtlab
from rtlab import bounds, constructions, verifiers as ver
from rtlab.cli import main
from rtlab.drc import FWitness, recheck_f_witness
from helpers import complete_uniform, run_fresh
from rtlab.hypergraph import (PartitionedHypergraph, SimpleGraph,
                              read_hypergraph, write_graph, write_hypergraph)
from rtlab.reports import emit_report
from rtlab.sphere import cap_measure
from rtlab.verifiers import Embedding, density_report


# the README's params.json
README_PARAMS = {"r": 3, "z": 14, "alpha": 0.3, "beta": 0.3, "epsilon": 0.5,
                 "k": 5, "blowup_t": 3, "gamma": 0.3, "pattern_cap": 10,
                 "seed": 3}


def write_params(tmp_path, **kw):
    base = dict(r=3, z=10, alpha=0.3, beta=0.3,
                epsilon=0.5 * math.sqrt(5), k=5, blowup_t=2, gamma=0.3,
                seed=2)
    base.update(kw)
    path = tmp_path / "params.json"
    path.write_text(json.dumps(base))
    return str(path)


def dense_graph(path):
    """G(40, 0.8) from seed 1, written to the path."""
    from rtlab.rng import substream
    rng = substream(1, "gnp")
    write_graph(SimpleGraph(40, frozenset(
        (a, b) for a, b in combinations(range(40), 2)
        if rng.random() < 0.8)), str(path))


def test_optimize_prints_exact_values(capsys):
    assert main(["optimize", "--t", "3", "--ell", "2", "--q", "2"]) == 0
    assert capsys.readouterr().out.strip() == "a*=32/63 bound=16/63"


def test_optimize_second_row(capsys):
    assert main(["optimize", "--t", "3", "--ell", "3", "--q", "2"]) == 0
    assert capsys.readouterr().out.strip() == "a*=24/47 bound=12/47"


def test_optimize_at_the_digit_limit(capsys):
    # t = 238 is the last t whose answer fits the interpreter's default
    # limit of 4,300 digits for an int printed as text; its 17,068-byte
    # output is pinned
    assert main(["optimize", "--t", "238", "--ell", "2", "--q", "2"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "767b98d04feae90fc5cf8750c6cc1eac4cc3d731589f9cb9d74a6969a4a30bca")


def test_construct_and_verify_be(tmp_path, capsys):
    # theta = 0.5/sqrt(5) < 2 - sqrt(3), the regime where both sides stay
    # triangle-free and no K4 can appear
    params = write_params(tmp_path, z=40, epsilon=0.5, k=5)
    out = tmp_path / "be.g"
    assert main(["construct", "--type", "be", "--params", params,
                 "--out", str(out)]) == 0
    assert main(["verify", "--check", "clique", "--s", "4", str(out)]) == 0


def test_verify_reads_a_pipe():
    # the edge block is read once and never sought, so /dev/stdin on a
    # pipe reads as a file does: five triangles on seven vertices, no K4
    text = "HG 2 7 11 0\n" + "-1\n" * 7 + "".join(
        f"{e[0]} {e[1]}\n" for e in "01 12 23 34 45 56 06 14 24 46 04".split())
    proc = run_fresh("import sys; from rtlab.cli import main; "
                     "sys.exit(main(sys.argv[1:]))", "verify", "--check",
                     "clique", "--s", "4", "/dev/stdin", input=text)
    assert (proc.returncode, proc.stdout) == (0, "clique: holds\n"), \
        proc.stderr


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
    path = tmp_path / "dense.g"
    dense_graph(path)
    assert main(["verify", "--check", "clique", "--s", "12",
                 "--budget", "2", str(path)]) == 3
    # a negative budget is an input error, not an exhausted one
    assert main(["verify", "--check", "clique", "--s", "12",
                 "--budget", "-5", str(path)]) == 2


def test_verify_alpha_t_budget_out_above_bound_exit_1(tmp_path, capsys):
    # G(40, 0.8): listing the triangles takes about 6,000 nodes, and at
    # 8,000 the search has already found a triangle-free set of 8 (its
    # alpha_3), so the budget runs out with alpha_3 > 7 certified
    path = tmp_path / "dense.g"
    dense_graph(path)
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
    (10 ** 21 + 1, 10 ** 21,
     f"part label {10 ** 21} is not an integer within int64"),
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


@pytest.mark.parametrize("check,argv,foreign", [
    ("clique", ["--s", "3", "--bound", "5"], "--bound"),
    ("clique", ["--s", "3", "--bound", "5", "--ell", "2", "--t", "9"],
     "--t, --ell, --bound"),
    ("split-core", ["--s", "3"], "--s"),
    ("sparse", ["--t", "3"], "--t"),
    ("alpha_t", ["--t", "3", "--witness-out", "w.json"], "--witness-out"),
    ("tk", ["--s", "4", "--ell", "2"], "--ell"),
    ("tkf", ["--s", "4", "--bound", "1"], "--bound")])
def test_verify_refuses_flags_its_check_does_not_read(tmp_path, capsys, check,
                                                      argv, foreign):
    # a flag the check would ignore is refused before the file is read
    missing = tmp_path / "absent.hg"
    assert main(["verify", "--check", check, *argv, str(missing)]) == 2
    assert capsys.readouterr().err == \
        f"input error: {check} check does not read {foreign}\n"


@pytest.mark.parametrize("check,argv", [
    ("clique", ["--s", "3", "--budget", "9", "--witness-out", "w.json"]),
    ("alpha_t", ["--t", "3", "--bound", "5", "--budget", "9"]),
    ("tk", ["--s", "3", "--budget", "9", "--witness-out", "w.json"]),
    ("tkf", ["--s", "3", "--budget", "9", "--witness-out", "w.json"]),
    ("split-core", ["--budget", "9", "--witness-out", "w.json"]),
    ("sparse", ["--ell", "9", "--budget", "9", "--witness-out", "w.json"])])
def test_verify_accepts_every_flag_its_check_reads(tmp_path, capsys, check,
                                                   argv):
    # every flag the check reads passes the flag check: the run goes on
    # to read the file, which is missing
    missing = tmp_path / "absent.hg"
    assert main(["verify", "--check", check, *argv, str(missing)]) == 2
    assert "absent.hg" in capsys.readouterr().err


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
    # against --s (four cores for split-core, which takes no --s)
    path = tmp_path / "path.hg"
    write_hypergraph(PartitionedHypergraph(8, r, frozenset(
        tuple(range(i, i + r)) for i in range(0, 8 - r + 1, r - 1))), str(path))
    short = Embedding({0: 0, 1: 1}, {0: "core", 1: "core"}, [tuple(range(r))])
    monkeypatch.setattr(ver, finder, lambda *a, **kw: short)
    wit = tmp_path / "witness.json"
    flags = [] if check == "split-core" else ["--s", "4"]
    assert main(["verify", "--check", check, *flags, "--witness-out",
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


def test_type_error_in_a_search_exit_4(tmp_path, monkeypatch, capsys):
    # a TypeError raised inside a search is a fault, not refused input
    def crash(*args, **kwargs):
        raise TypeError("bug deep in a search")
    monkeypatch.setattr(ver, "find_clique", crash)
    path = tmp_path / "k3.g"
    write_graph(SimpleGraph(3, frozenset(combinations(range(3), 2))), str(path))
    assert main(["verify", "--check", "clique", "--s", "3", str(path)]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: TypeError: bug deep in a search\n"


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


def test_report_flags_missing_keys_exit_2(tmp_path, capsys):
    path = tmp_path / "k5.hg"
    write_hypergraph(complete_uniform(5, 3), str(path))
    out = tmp_path / "report.csv"
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"z": 99, "seed": 7}))
    assert main(["report", "--params", str(params), "--out", str(out),
                 str(path)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("input error:")
    # every key given, but an epsilon that is not a positive finite number
    for epsilon in [-1, 0, math.inf, math.nan]:
        params = write_params(tmp_path, z=14, epsilon=epsilon, k=5)
        assert main(["report", "--params", params, "--out", str(out),
                     str(path)]) == 2, epsilon
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


def test_construct_corollary_budget_exit_3(tmp_path, monkeypatch, capsys):
    # the README params: the greedy K_4-free class graph spends 15,413
    # clique-walk nodes, more than the budget, so no file is written
    params = write_params(tmp_path, z=14, epsilon=0.5, blowup_t=3,
                          pattern_cap=10, seed=3)
    monkeypatch.setenv("RTLAB_BUDGET", "15412")
    out = tmp_path / "cor.g"
    assert main(["construct", "--type", "corollary", "--params", params,
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(
        "budget exceeded after 15413 nodes")
    assert not out.exists()


# sha256 of `construct --type corollary` files (z=12, seed 2) for the
# corollary's defaults and three sets of ell, q and mix_a
COROLLARY_DIGESTS = [
    ({}, "4ef05ada9389063eb67129e7152931de65823314575593c4baf5ed7159ac8028"),
    ({"q": 3},
     "eb02f5fd5afd0270feee520c5699e8a6a92a6ea4553e6d40b48180a3874a0f1a"),
    ({"ell": 3, "q": 2},
     "f56270040b9783d1aae1a4a017e46891d4cb32b9313a8d744db49b7896f9fb2d"),
    ({"q": 4, "mix_a": 0.3, "ell": 2},
     "872271c34f547c0cef68975cda6666a71ff69f47f1bc87a738e8743c5f1ba621"),
]


@pytest.mark.parametrize("extra,message", [
    ({"q": 1, "mix_a": 0.5}, "need q >= 2"),
    ({"ell": 4, "mix_a": 0.5}, "ell must be in [1, 3], got 4"),
    ({"mix_a": 1.5}, "mixing fraction must lie in (0, 1)"),
    # the default a* needs ell >= 2
    ({"ell": 1}, "ell = 1 needs mix_a"),
])
def test_construct_corollary_bad_params_exit_2_before_building(
        tmp_path, monkeypatch, capsys, extra, message):
    # the params refuse a bad ell, q or mix_a before the partition or
    # the full construction is built (a call to either would exit 4)
    def refuse(*args, **kwargs):
        raise AssertionError("build called")
    monkeypatch.setattr(constructions, "build_partition", refuse)
    monkeypatch.setattr(constructions, "full_construction", refuse)
    params = write_params(tmp_path, z=12, **extra)
    out = tmp_path / "cor.g"
    assert main(["construct", "--type", "corollary", "--params", params,
                 "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra,digest", COROLLARY_DIGESTS)
def test_construct_corollary_digests(tmp_path, extra, digest):
    params = write_params(tmp_path, z=12, epsilon=0.5, k=5, pattern_cap=10,
                          **extra)
    out = tmp_path / "cor.g"
    assert main(["construct", "--type", "corollary", "--params", params,
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("command", ["construct --type sphere", "report"])
@pytest.mark.parametrize("flag", ["--z 6", "--seed 7", "--blowup-t 3"])
def test_construction_flags_are_refused(tmp_path, capsys, command, flag):
    # the construction params come from the params file alone: a flag
    # named after one of its keys is a usage error, and nothing is written
    path = tmp_path / "k5.hg"
    write_hypergraph(complete_uniform(5, 3), str(path))
    out = tmp_path / "out"
    argv = [*command.split(), "--params", write_params(tmp_path),
            *flag.split(), "--out", str(out)]
    if command == "report":
        argv.append(str(path))
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


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


def test_drc_find_f_empty_auxiliary_graph_exit_3(tmp_path, monkeypatch,
                                                 capsys):
    # the hypergraph form keeps no pair: the one trial fails at its stage,
    # which the stderr line names, and nothing is written
    from rtlab import drc
    monkeypatch.setattr(drc, "hyper_drc", lambda g, s, seed: (
        PartitionedHypergraph(g.n, 2, frozenset(), g.part_of)))
    hpath = tmp_path / "h.hg"
    write_hypergraph(complete_uniform(12, 3), str(hpath))
    ppath = tmp_path / "drc.json"
    ppath.write_text(json.dumps({"a": 3, "m": 3, "t": 2, "s": 1,
                                 "codegree_threshold": 2, "retries": 1}))
    out = tmp_path / "w.json"
    assert main(["drc", "find-f", "--params", str(ppath), "--seed", "2",
                 "--out", str(out), str(hpath)]) == 3
    assert capsys.readouterr() == (
        "", "stage 'hyper-drc' failed: empty auxiliary graph\n")
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
    assert problem in captured.err and "stage '" not in captured.err
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


@pytest.mark.parametrize("kind", ["sphere", "full"])
def test_construct_over_part_cap_exit_3(tmp_path, monkeypatch, capsys, kind):
    # a part whose tuple matrices would pass the byte cap is a refusal,
    # like the eps-k search caps: one stderr line, no file
    monkeypatch.setattr(rtlab, "MAX_BYTES", 1 << 20)
    out = tmp_path / "h.hg"
    assert main(["construct", "--type", kind, "--params",
                 write_params(tmp_path, z=50, epsilon=0.5),
                 "--out", str(out)]) == 3
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("the tuple matrices of ")
    assert err.endswith("over the cap 1048576\n")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("kind", ["be", "sphere", "full", "corollary"])
def test_construct_large_k_exit_3(tmp_path, capsys, kind):
    # the partition's points would take over their byte cap: refused
    # before any draw, one stderr line, no file
    out = tmp_path / "h.hg"
    assert main(["construct", "--type", kind, "--params",
                 write_params(tmp_path, k=1_000_000), "--out", str(out)]) == 3
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("a partition of S^1000000")
    assert err.count("\n") == 1
    assert not out.exists()


def _optimize_route(t):
    def route(monkeypatch):
        # refused before optimize_a builds 2^(u^2), at the default limit
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300,
                            raising=False)
        monkeypatch.setattr(bounds, "optimize_a", lambda *a: pytest.fail())
        return f"optimize --t {t} --ell 2 --q 2"
    return route


def _budget_route(monkeypatch):
    dense_graph("dense.g")
    return ("verify --check clique --s 12 --budget 2 --witness-out out "
            "dense.g")


def _part_cap_route(monkeypatch):
    # 1 MiB holds the partition's points but not the tuple matrices
    monkeypatch.setattr(rtlab, "MAX_BYTES", 1 << 20)
    write_params(Path("."), z=50, epsilon=0.5)
    return "construct --type sphere --params params.json --out out"


def _oversized_route(kind, **kw):
    # README params with one field changed, past what 1 GiB holds
    def route(monkeypatch):
        Path("params.json").write_text(json.dumps(dict(README_PARAMS, **kw)))
        return f"construct --type {kind} --params params.json --out out"
    return route


def _construct_bytes_route(monkeypatch):
    write_params(Path("."), k=1_000_000)
    return "construct --type be --params params.json --out out"


def _partition_bytes_route(monkeypatch):
    return "sphere partition --k 1000000 --z 14 --theta 0.5 --out out"


def _eps_k_route(monkeypatch):
    from rtlab import capmeasure
    monkeypatch.setattr(capmeasure, "K_CAP", 64)
    return "sphere eps-k --alpha 0.3 --beta 1e-9"


def _find_set_route(monkeypatch):
    # K_{50,50}: three picks on both sides have no common neighbour, and
    # both retries at seed 0 draw such picks
    write_graph(SimpleGraph(100, frozenset(
        (a, b) for a in range(50) for b in range(50, 100))), "g.hg")
    Path("drc.json").write_text(json.dumps(
        {"a": 4, "m": 5, "t": 3, "r": 2, "retries": 2}))
    return "drc find-set --params drc.json --seed 0 --out out g.hg"


def _stage_route(action):
    def route(monkeypatch):
        # one edge: no edge survives the codegree sweep in any retry
        write_hypergraph(PartitionedHypergraph(
            30, 3, frozenset([(0, 1, 2)])), "h.hg")
        Path("drc.json").write_text(json.dumps(
            {"epsilon": 0.5, "codegree_threshold": 1, "retries": 2}))
        return f"drc {action} --params drc.json --seed 1 --out out h.hg"
    return route


def _pair_index_route(monkeypatch):
    # one edge over 20,000 vertices: 3.2 GB of pair keys and order
    Path("wide.h").write_text(WIDE_EDGE)
    return "verify --check tkf --s 3 --witness-out out wide.h"


@pytest.mark.parametrize("route,line", [
    (_budget_route, "budget exceeded after 3 nodes (certified: None)"),
    (_part_cap_route, "the tuple matrices of 780 tuple vertices would hold "
     "1825200 bytes, over the cap 1048576"),
    (_oversized_route("sphere", r=10, z=200, pattern_cap=12),
     "a listing of 11565702 sequences of length 5 would hold 1076816032 "
     "bytes, over the cap 1073741824"),
    (_oversized_route("full", blowup_t=60), "a 60-blowup of 224 edges into "
     "48384000 copies would hold 1166400000 bytes, over the cap 1073741824"),
    (_oversized_route("corollary", mix_a=0.001), "a class matrix of 120000 x "
     "120000 vertices would hold 14630169600 bytes, over the cap 1073741824"),
    (_oversized_route("corollary", mix_a=5e-324), "a class matrix of 120 / "
     "5e-324 vertices overflows a float"),
    (_construct_bytes_route, "a partition of S^1000000 into 10 domains "
     "would hold 160080160080 bytes, over the cap 1073741824"),
    (_partition_bytes_route, "a partition of S^1000000 into 14 domains "
     "would hold 160112160112 bytes, over the cap 1073741824"),
    (_eps_k_route, "no (eps, k) with k <= 64 satisfies the cap properties "
     "for alpha=0.3, beta=1e-09"),
    (_find_set_route, "stage 'drc-set' failed: no verified set within "
     "retries"),
    (_stage_route("find-f"), "stage 'cleaning' failed: no edges survive "
     "the codegree sweep"),
    (_stage_route("find-tkf5"), "stage 'cleaning' failed: no edges survive "
     "the codegree sweep"),
    (_pair_index_route, "a pair-cover index of 1 x C(20000, 2) pairs would "
     "hold 3199840000 bytes, over the cap 1073741824"),
    (_optimize_route(239), "optimize at t=239 would print more than the "
     "interpreter's limit of 4300 digits"),
    (_optimize_route(10 ** 6), "optimize at t=1000000 would print more than "
     "the interpreter's limit of 4300 digits"),
], ids=["verify-budget", "construct-part-cap", "construct-tuple-listing",
        "construct-blowup", "construct-class-matrix", "construct-mix-a-overflow",
        "construct-bytes", "partition-bytes", "eps-k", "drc-find-set-retries",
        "drc-find-f-stage", "drc-find-tkf5-stage", "tkf-pair-index",
        "optimize-t-239", "optimize-t-1000000"])
def test_cap_routes_exit_3(tmp_path, monkeypatch, capsys, route, line):
    # every cap that stops a command exits 3 the same way: one line on
    # stderr, nothing on stdout and no file written
    monkeypatch.chdir(tmp_path)
    argv = route(monkeypatch).split()
    assert main(argv) == 3
    assert capsys.readouterr() == ("", line + "\n")
    assert not Path("out").exists()


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


def test_sphere_eps_k_takes_no_t_max(capsys):
    # the search decides every property in closed form, so there is no
    # intersection depth to set: the flag is an unknown argument
    assert main(["sphere", "eps-k", "--alpha", "0.3", "--beta", "0.3",
                 "--t-max", "3"]) == 2
    assert "unrecognized arguments: --t-max 3" in capsys.readouterr().err


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
    from rtlab import capmeasure, sphere

    def no_work(*args, **kwargs):
        raise AssertionError("ran without a required flag")

    # the functions each action calls
    monkeypatch.setattr(sphere, "build_partition", no_work)
    for name in ("find_eps_k", "cap_measure"):
        monkeypatch.setattr(capmeasure, name, no_work)
    out = tmp_path / "p.sphere"
    argv = ["sphere", action]
    for flag, value in SPHERE_ARGS[action].items():
        if flag != missing:
            argv += [f"--{flag}", value or str(out)]
    assert main(argv) == 2
    assert f"required: --{missing}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["eps-k", "--alpha", "0.3", "--beta", "0.3", "--k", "5"],
    ["cap-measure", "--k", "2", "--s", "0.5", "--out", "f"],
    # --s is a prefix of --seed, but not an abbreviation of it
    ["partition", "--k", "2", "--z", "4", "--theta", "0.5", "--out", "f",
     "--s", "3"],
], ids=["eps-k-k", "cap-measure-out", "partition-s"])
def test_sphere_action_refuses_foreign_flag(tmp_path, monkeypatch, capsys,
                                            argv):
    # each action takes only the flags it reads: another action's flag is
    # a usage error, not ignored, and nothing is written
    monkeypatch.chdir(tmp_path)
    assert main(["sphere"] + argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not Path("f").exists()


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


@pytest.mark.parametrize("argv,key,value,problem", [
    (["construct", "--type", "be", "--out", "be.g"], "seed", None,
     "seed must be an integer, got None"),
    (["construct", "--type", "be", "--out", "be.g"], "alpha", "x",
     "alpha must be a number, got 'x'"),
    (["report", "k5.hg"], "epsilon", True,
     "epsilon must be a number, got True"),
    # ... drops the key from the file
    (["construct", "--type", "full", "--out", "be.g"], "z", ...,
     "missing construction params: z"),
    (["drc", "find-f", "k5.hg"], "a", None, "a must be an integer, got None"),
    (["drc", "find-tkf5", "k5.hg"], "epsilon", "0.5",
     "epsilon must be a number, got '0.5'"),
], ids=["seed-null", "alpha-string", "epsilon-bool", "z-missing",
        "drc-a-null", "drc-epsilon-string"])
def test_params_file_wrong_type_exit_2(tmp_path, monkeypatch, capsys, argv,
                                       key, value, problem):
    # each value is checked against its field's annotation before any
    # params are built: a null only where the field allows None, a bool
    # or a string never in a number field, and a missing field is named
    monkeypatch.chdir(tmp_path)
    write_hypergraph(complete_uniform(5, 3), "k5.hg")
    data = ({} if argv[0] == "drc"
            else json.loads(Path(write_params(tmp_path)).read_text()))
    data[key] = value
    if value is ...:
        del data[key]
    Path("params.json").write_text(json.dumps(data))
    assert main(argv + ["--params", "params.json"]) == 2
    out, err = capsys.readouterr()
    assert err == f"input error: {problem}\n" and out == ""
    assert not Path("be.g").exists()


@pytest.mark.parametrize("argv", [
    ["construct", "--type", "full", "--out", "be.g"],
    ["report", "k5.hg"],
])
def test_params_file_unknown_key_exit_2(tmp_path, monkeypatch, capsys, argv):
    # a misspelled key is refused, not kept beside the field's default;
    # the corollary's ell, q and mix_a are fields, so they are not refused
    monkeypatch.chdir(tmp_path)
    write_hypergraph(complete_uniform(5, 3), "k5.hg")
    params = write_params(tmp_path, gama=0.9, ell=2, q=2, mix_a=0.5)
    assert main(argv + ["--params", params]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error")
    assert "unknown construction params: gama" in err
    assert not Path("be.g").exists()


@pytest.mark.parametrize("key,value", [("theta", 0.5), ("u", 2)])
@pytest.mark.parametrize("argv", [
    ["construct", "--type", "be", "--out", "be.g"],
    ["report", "--out", "report.csv", "k5.hg"],
])
def test_params_file_derived_key_exit_2(tmp_path, monkeypatch, capsys, argv,
                                        key, value):
    # theta and u are worked out from the other params, so a file that
    # sets either, even to the derived value, is refused and nothing is
    # written
    monkeypatch.chdir(tmp_path)
    write_hypergraph(complete_uniform(5, 3), "k5.hg")
    params = write_params(tmp_path, **{key: value})
    assert main(argv + ["--params", params]) == 2
    out, err = capsys.readouterr()
    assert err == f"input error: unknown construction params: {key}\n"
    assert out == ""
    assert not Path("be.g").exists() and not Path("report.csv").exists()


@pytest.mark.parametrize("k,z,ok", [(5, 14, "no"), (2, 600, ""),
                                     (200, 14, "no")])
def test_report_volume_bound_row(tmp_path, k, z, ok):
    # one unasserted row: z against the volume bound, which is inf when
    # the cap measure underflows (k=200); both formats render it, the
    # JSON one as strict JSON with inf written as text
    path = tmp_path / "k5.hg"
    write_hypergraph(complete_uniform(5, 3), str(path))
    csv, js = tmp_path / "report.csv", tmp_path / "report.json"
    flags = ["--params", write_params(tmp_path, z=z, epsilon=0.5, k=k),
             str(path)]
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


# `rtlab report` timed inside a fresh interpreter: argv is the hypergraph
# file and the JSON report path; prints the exit code and the seconds
REPORT_TIMED = """
import sys, time
from rtlab.cli import main
start = time.perf_counter()
code = main(["report", "--format", "json", "--out", sys.argv[2], sys.argv[1]])
print(code, time.perf_counter() - start)
"""


def test_report_rows_cover_the_labels_present(tmp_path):
    # a label far above the number of parts gets its one row and the
    # labels it skips none, so the report does no work per skipped label
    far = 10 ** 12
    path, js = tmp_path / "far.hg", tmp_path / "report.json"
    path.write_text(f"HG 3 3 1 {far + 1}\n0\n0\n{far}\n0 1 2\n")
    proc = run_fresh(REPORT_TIMED, str(path), str(js))
    code, seconds = proc.stdout.split()
    assert code == "0" and float(seconds) < 1, proc.stderr
    rows = json.loads(js.read_text())["rows"]
    assert [(row["quantity"], row["value"]) for row in rows
            if row["quantity"].startswith("part_")] == \
        [("part_0_size", 2), (f"part_{far}_size", 1)]


def test_graph_report_rows_grow_with_the_edges(tmp_path):
    # 1,000 labels and one edge: a within row per label and one between
    # row, not one per label pair
    path, js = tmp_path / "labels.g", tmp_path / "report.json"
    path.write_text("HG 2 1000 1 1000\n"
                    + "".join(f"{p}\n" for p in range(1000)) + "0 1\n")
    proc = run_fresh(REPORT_TIMED, str(path), str(js))
    code, seconds = proc.stdout.split()
    assert code == "0" and float(seconds) < 1, proc.stderr
    names = [row["quantity"] for row in json.loads(js.read_text())["rows"]]
    assert sum(n.startswith("edges_within_part_") for n in names) == 1000
    assert [n for n in names if n.startswith("edges_between_")] == \
        ["edges_between_parts_0_1"]


# the CLI on argv under a 1 GB address-space cap, so a run that would
# size its work by a header's count fails at once instead of filling
# the machine's memory; prints the seconds main took as its last line
# of stderr and exits with its code
CLI_CAPPED = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from rtlab.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(time.perf_counter() - start, file=sys.stderr)
sys.exit(code)
"""


WIDE_EDGE = ("HG 20000 20000 1 0\n" + "-1\n" * 20000
             + " ".join(map(str, range(20000))) + "\n")

ONE_EDGE = "HG 2 100000 1 0\n" + "-1\n" * 100000 + "0 1\n"


@pytest.mark.parametrize("text,argv,code,out", [
    # the header's 30 M label lines are read only while the file lasts
    ("HG 3 30000000 1 1\n0\n", "report", 2,
     "header gives 30000000 part labels, file ends after 1"),
    # an edge-free store covers no pair, whatever its r
    ("HG 100000000 3 0 1\n0\n0\n0\n", "verify --check split-core", 0,
     "split-core: holds"),
    ("HG 100000000 3 0 1\n0\n0\n0\n", "verify --check tk --s 3", 0,
     "tk: holds"),
    ("HG 100000000 3 0 1\n0\n0\n0\n", "verify --check tkf --s 3", 0,
     "tkf: holds"),
    ("HG 100000000 3 0 1\n0\n0\n0\n", "verify --check sparse", 0,
     "sparse: holds"),
    # one edge over 20,000 unlabelled vertices covers 2*10^8 pairs, but
    # with no two parts and no two edges no witness can exist
    (WIDE_EDGE, "verify --check split-core", 0, "split-core: holds"),
    (WIDE_EDGE, "verify --check sparse", 0, "sparse: holds"),
    # tk and tkf need the index of those pairs, 3.2 GB of keys and order:
    # refused before it is built
    (WIDE_EDGE, "verify --check tk --s 3", 3, "over the cap 1073741824"),
    (WIDE_EDGE, "verify --check tkf --s 3", 3, "over the cap 1073741824"),
    # one edge over 100,000 vertices: the searches' bitmask rows are
    # packed only for the two vertices that have a neighbour
    (ONE_EDGE, "verify --check alpha_t --t 3", 0, "alpha_3 = 100000"),
    (ONE_EDGE, "verify --check tk --s 3", 0, "tk: holds"),
    (ONE_EDGE, "verify --check clique --s 3", 0, "clique: holds"),
    (ONE_EDGE, "verify --check tkf --s 3", 0, "tkf: holds"),
], ids=["label-count", "split-core", "tk", "tkf", "sparse",
        "wide-edge-split-core", "wide-edge-sparse", "wide-edge-tk",
        "wide-edge-tkf", "one-edge-alpha-t",
        "one-edge-tk", "one-edge-clique", "one-edge-tkf"])
def test_header_counts_cost_nothing(tmp_path, text, argv, code, out):
    # a small file whose header gives a huge count, or whose one edge is
    # huge, is answered within 2 s; a refusal prints nothing on stdout
    path = tmp_path / "tiny.hg"
    path.write_text(text)
    proc = run_fresh(CLI_CAPPED, *argv.split(), str(path), timeout=10)
    assert proc.returncode == code, proc.stderr
    assert out in proc.stdout + proc.stderr
    assert code != 3 or proc.stdout == ""
    assert float(proc.stderr.split()[-1]) < 2


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
    # the runtime needs numpy only: with scipy blocked, every layer
    # imports and the CLI computes a cap measure (which reads no numpy
    # layer, so they are imported first)
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "import rtlab.cli, rtlab.constructions, rtlab.drc, "
            "rtlab.reports, rtlab.verifiers\n"
            "sys.exit(rtlab.cli.main(['sphere', 'cap-measure', '--k', '5', "
            "'--s', '0.3']))\n")
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) == pytest.approx(cap_measure(5, 0.3), abs=1e-12)


# runs the CLI as `python -m rtlab.cli` does, then prints as its last line
# which rtlab modules ran and which are registered but never read from,
# whether numpy was imported, and which of the seeded-RNG imports
# numpy.random and hashlib were made; exits with the CLI's code
CLI_PROBE = """
import json, runpy, sys, types
try:
    runpy.run_module("rtlab.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
ran = {name: type(module) is types.ModuleType
       for name, module in sys.modules.items() if name.startswith("rtlab.")}
print(json.dumps({"ran": sorted(n for n in ran if ran[n]),
                  "lazy": sorted(n for n in ran if not ran[n]),
                  "numpy": "numpy" in sys.modules,
                  "numpy.ma": "numpy.ma" in sys.modules,
                  "seeded": [n for n in ("numpy.random", "hashlib")
                             if n in sys.modules]}))
sys.exit(code)
"""

LAZY_LAYERS = {"bounds", "capmeasure", "constructions", "drc", "hypergraph",
               "reports", "sphere", "verifiers"}
# the layers that import the standard library only
NUMPY_FREE = {"bounds", "capmeasure"}
# the layers a report with construction params runs
REPORT_LAYERS = {"bounds", "capmeasure", "constructions", "hypergraph",
                 "reports", "rng", "sphere", "verifiers"}


@pytest.mark.parametrize("argv,code,err,ran,seeded", [
    ("verify --check clique --s 5 k4.g", 0, "", {"hypergraph", "verifiers"},
     []),
    # BudgetExceeded is caught after the input errors, from a loaded module
    ("verify --check clique --s 3 --budget 1 k4.g", 3,
     "budget exceeded after", {"hypergraph", "verifiers"}, []),
    ("sphere cap-measure --k 5 --s 0.3", 0, "", {"capmeasure"}, []),
    ("sphere eps-k --alpha 0.3 --beta 0.3", 0, "", {"capmeasure"}, []),
    # numpy.random and hashlib load only when a generator is made
    ("sphere partition --k 2 --z 4 --theta 0.5 --out p.sphere", 0, "",
     {"capmeasure", "rng", "sphere"}, ["numpy.random", "hashlib"]),
    # an input error is reported without running verifiers for its type
    ("sphere partition --k 5 --z 0 --theta 0.5 --out p.sphere", 2,
     "input error:", {"capmeasure", "rng", "sphere"}, []),
    ("report --params params.json k4.g", 0, "", REPORT_LAYERS, []),
    ("optimize --t 3 --ell 2 --q 2", 0, "", {"bounds"}, []),
], ids=["verify", "verify-budget", "cap-measure", "eps-k", "partition",
        "partition-input-error", "report", "optimize"])
def test_fresh_cli_runs_only_its_modules(tmp_path, argv, code, err, ran,
                                         seeded):
    # every layer is in sys.modules after the import, but a command runs
    # only the ones it reads from; only `optimize`, `sphere eps-k` and
    # `sphere cap-measure` run without numpy, only a command that draws
    # loads numpy.random and hashlib, and none loads numpy.ma (a plain
    # first np.unique would, at about 15 ms)
    write_graph(SimpleGraph(4, frozenset(combinations(range(4), 2))),
                str(tmp_path / "k4.g"))
    write_params(tmp_path, r=2, z=4, epsilon=0.5, k=5)
    proc = run_fresh(CLI_PROBE, *argv.split(), cwd=tmp_path)
    assert proc.returncode == code, proc.stderr
    assert err in proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["ran"] == sorted(f"rtlab.{name}" for name in ran)
    assert seen["lazy"] == sorted(f"rtlab.{name}"
                                  for name in LAZY_LAYERS - ran)
    assert seen["numpy"] == bool(ran - NUMPY_FREE)
    assert not seen["numpy.ma"]
    assert seen["seeded"] == seeded
