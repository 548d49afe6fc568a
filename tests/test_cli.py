"""End-to-end CLI flows: exit codes, formats, emitted files."""

import ast
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import setgraceful
from setgraceful import conditions
from setgraceful import cli as cli_module
from setgraceful import search as search_module
from setgraceful.cli import main
from setgraceful.conditions import ProofStep, proof_trace
from setgraceful.search import SearchOutcome

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def star_files(tmp_path, capsys):
    """A K_{1,3} graph file and a valid labeling file for it."""
    gpath = tmp_path / "star.graph"
    code, _, _ = run(capsys, "gen", "--type", "star", "--q", "3", "--out", str(gpath))
    assert code == 0
    lpath = tmp_path / "star.lab"
    lpath.write_text("m 2\n0 0\n1 1\n2 2\n3 3\n")
    return gpath, lpath


def test_gen_complete_bipartite_to_stdout(capsys):
    code, out, _ = run(capsys, "gen", "--type", "complete-bipartite", "--p", "3", "--q", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "vertices 8"
    assert len(lines) == 16  # header + 15 edges


def test_gen_cycle_bytes(capsys):
    # The header and the canonical edges, with no comment line before them.
    code, out, _ = run(capsys, "gen", "--type", "cycle", "--n", "4")
    assert code == 0
    assert out == "vertices 4\n0 1\n0 3\n1 2\n2 3\n"


def test_gen_star(capsys, tmp_path):
    gpath = tmp_path / "s.graph"
    code, _, _ = run(capsys, "gen", "--type", "star", "--q", "7", "--out", str(gpath))
    assert code == 0
    body = gpath.read_text()
    assert "vertices 8" in body


def test_gen_cycle_too_small_exits_2(capsys):
    code, _, err = run(capsys, "gen", "--type", "cycle", "--n", "2")
    assert code == 2
    assert "cycle" in err


def test_gen_missing_param_exits_2(capsys):
    code, _, err = run(capsys, "gen", "--type", "path")
    assert code == 2


def test_gen_unwritable_out_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "gen", "--type", "path", "--n", "4",
                       "--out", str(tmp_path / "missing" / "x.graph"))
    assert code == 2
    assert err.startswith("error: ")


def test_check_valid_star(capsys, star_files):
    gpath, lpath = star_files
    code, out, _ = run(capsys, "check", str(gpath), str(lpath))
    assert code == 0
    assert "VALID" in out.splitlines()


# The text report, byte for byte: every component holding, then every one violated.
CHECK_VALID_STAR = (
    "graph: 4 vertices, 3 edges\n"
    "labeling: m=2, 4 vertices\n"
    "vertex labels injective: yes\n"
    "edge labels injective: yes\n"
    "covers all nonempty labels: yes\n"
    "empty edge label: none\n"
    "VALID\n"
)
CHECK_P3_ALL_ZERO = (
    "graph: 3 vertices, 2 edges\n"
    "labeling: m=2, 3 vertices\n"
    "vertex labels not injective: v=0 and v=1 share label 0\n"
    "edge labels not injective: edges (0,1) and (1,2) share label 0\n"
    "covers all nonempty labels: no, missing 1\n"
    "empty edge label: edge (0,1)\n"
    "INVALID\n"
)


def test_check_text_report_bytes(capsys, tmp_path, star_files):
    gpath, lpath = star_files
    assert run(capsys, "check", str(gpath), str(lpath)) == (0, CHECK_VALID_STAR, "")
    p3 = tmp_path / "p3.graph"
    p3.write_text("0 1\n1 2\n")
    zeros = tmp_path / "zeros.lab"
    zeros.write_text("m 2\n0 0\n1 0\n2 0\n")
    assert run(capsys, "check", str(p3), str(zeros)) == (1, CHECK_P3_ALL_ZERO, "")


def test_check_duplicate_vertex_label(capsys, tmp_path, star_files):
    gpath, _ = star_files
    bad = tmp_path / "bad.lab"
    bad.write_text("m 2\n0 1\n1 1\n2 2\n3 3\n")
    code, out, _ = run(capsys, "check", str(gpath), str(bad))
    assert code == 1
    assert "vertex labels not injective: v=0 and v=1" in out
    assert "INVALID" in out


def test_check_missing_vertex_exits_2(capsys, tmp_path, star_files):
    gpath, _ = star_files
    bad = tmp_path / "short.lab"
    bad.write_text("m 2\n0 0\n1 1\n2 2\n")
    code, _, err = run(capsys, "check", str(gpath), str(bad))
    assert code == 2
    assert "4" in err  # graph has 4 vertices


def test_check_vertex_count_mismatch_message(capsys, tmp_path, star_files):
    gpath, _ = star_files
    short = tmp_path / "short.lab"
    short.write_text("m 2\n0 0\n1 1\n2 2\n")
    code, out, err = run(capsys, "check", str(gpath), str(short))
    assert code == 2
    assert out == ""
    assert err == "error: labeling covers 3 vertices, graph has 4\n"


def test_check_parse_error_exits_2(capsys, tmp_path, star_files):
    gpath, _ = star_files
    bad = tmp_path / "syntax.lab"
    bad.write_text("m 2\n0 nope\n")
    code, _, err = run(capsys, "check", str(gpath), str(bad))
    assert code == 2
    assert "line 2" in err


def test_check_refuses_a_digit_separator(capsys, tmp_path, star_files):
    # int("1_0") is 10; a labeling file takes ASCII digits only.
    gpath, _ = star_files
    bad = tmp_path / "separator.lab"
    bad.write_text("m 4\n0 0\n1 1_0\n")
    code, out, err = run(capsys, "check", str(gpath), str(bad))
    assert (code, out) == (2, "")
    assert err == "error: line 3: not a label literal: '1_0'\n"


def test_check_json(capsys, star_files):
    gpath, lpath = star_files
    code, out, _ = run(capsys, "check", str(gpath), str(lpath), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["vertex_witness"] is None


def test_check_json_keys(capsys, star_files):
    gpath, lpath = star_files
    code, out, _ = run(capsys, "check", str(gpath), str(lpath), "--json")
    assert code == 0
    assert out.count("\n") == 1  # one compact object
    assert set(json.loads(out)) == {
        "valid", "vertex_witness", "edge_witness", "missing_label", "empty_edge", "m", "graph",
    }


def test_check_json_witnesses(capsys, tmp_path):
    # Each violated component is stated once, by its witness.
    p3 = tmp_path / "p3.graph"
    p3.write_text("0 1\n1 2\n")
    zeros = tmp_path / "zeros.lab"
    zeros.write_text("m 2\n0 0\n1 0\n2 0\n")
    code, out, _ = run(capsys, "check", str(p3), str(zeros), "--json")
    assert code == 1
    assert json.loads(out) == {
        "valid": False, "vertex_witness": [0, 1], "edge_witness": [[0, 1], [1, 2]],
        "missing_label": 1, "empty_edge": [0, 1], "m": 2,
        "graph": {"n": 3, "edges": [[0, 1], [1, 2]]},
    }


def test_search_json_keys(capsys, star_files):
    gpath, _ = star_files
    code, out, _ = run(capsys, "search", str(gpath), "--json")
    assert code == 0
    assert out.count("\n") == 1  # one compact object
    assert set(json.loads(out)) == {
        "m", "count_raw", "nodes_explored", "exhausted", "reason", "witnesses", "emitted", "graph",
    }
    code, out, _ = run(capsys, "search", str(gpath))
    assert code == 0
    assert "count_raw=24\n" in out
    assert "count_anchored=" not in out


def test_search_all_json_bytes(capsys, star_files):
    # Witness tuples print as the JSON arrays that lists gave, byte for byte.
    gpath, _ = star_files
    code, out, _ = run(capsys, "search", str(gpath), "--mode", "all", "--json")
    assert code == 0
    assert out == (
        '{"count_raw": 24, "emitted": [], "exhausted": true, "graph": {"edges": [[0, 1], '
        '[0, 2], [0, 3]], "n": 4}, "m": 2, "nodes_explored": 64, "reason": null, '
        '"witnesses": [[0, 1, 2, 3], [0, 1, 3, 2], [0, 2, 1, 3], [0, 2, 3, 1], [0, 3, 1, 2], '
        '[0, 3, 2, 1], [1, 0, 2, 3], [1, 0, 3, 2], [1, 2, 0, 3], [1, 2, 3, 0], [1, 3, 0, 2], '
        '[1, 3, 2, 0], [2, 0, 1, 3], [2, 0, 3, 1], [2, 1, 0, 3], [2, 1, 3, 0], [2, 3, 0, 1], '
        '[2, 3, 1, 0], [3, 0, 1, 2], [3, 0, 2, 1], [3, 1, 0, 2], [3, 1, 2, 0], [3, 2, 0, 1], '
        '[3, 2, 1, 0]]}\n'
    )


def test_search_count_star(capsys, star_files):
    gpath, _ = star_files
    code, out, _ = run(capsys, "search", str(gpath))
    assert code == 0
    assert "count_raw=24" in out
    assert "exhausted=yes" in out


def test_search_first_k35_finds_none(capsys, tmp_path):
    gpath = tmp_path / "k35.graph"
    run(capsys, "gen", "--type", "complete-bipartite", "--p", "3", "--q", "5",
        "--out", str(gpath))
    code, out, _ = run(capsys, "search", str(gpath), "--mode", "first")
    assert code == 1
    assert "none (exhausted)" in out


def test_search_node_limit_exits_3(capsys, tmp_path):
    gpath = tmp_path / "k17.graph"
    run(capsys, "gen", "--type", "star", "--q", "7", "--out", str(gpath))
    code, out, _ = run(capsys, "search", str(gpath), "--node-limit", "50")
    assert code == 3
    assert "exhausted=no" in out


def test_search_infeasible_reports_reason(capsys, tmp_path):
    gpath = tmp_path / "c4.graph"
    run(capsys, "gen", "--type", "cycle", "--n", "4", "--out", str(gpath))
    code, out, _ = run(capsys, "search", str(gpath))
    assert code == 1
    assert "infeasible: edge count 4 is not 2^m - 1 for any m" in out


def test_search_parity_reports_m_and_reason(capsys, tmp_path):
    # P_16 has exactly two odd-degree vertices, its ends.
    gpath = tmp_path / "p16.graph"
    run(capsys, "gen", "--type", "path", "--n", "16", "--out", str(gpath))
    code, out, _ = run(capsys, "search", str(gpath), "--mode", "first")
    assert code == 1
    lines = out.splitlines()
    assert lines[1] == "m=4"
    assert lines[2].startswith("no labeling: vertices 0 and 15 are the only odd-degree vertices")
    assert "nodes_explored=0" in lines
    assert "witness: none (exhausted)" in lines
    code, out, _ = run(capsys, "search", str(gpath), "--mode", "first", "--json")
    assert code == 1
    payload = json.loads(out)
    assert (payload["m"], payload["exhausted"], payload["count_raw"],
            payload["nodes_explored"], payload["witnesses"]) == (4, True, 0, 0, [])
    assert "vertices 0 and 15" in payload["reason"]


def test_search_too_many_vertices_reports_m_and_reason(capsys, tmp_path):
    # A triangle has 3 = 2^2 - 1 edges, but five vertices cannot get four labels.
    gpath = tmp_path / "tri5.graph"
    gpath.write_text("vertices 5\n0 1\n1 2\n0 2\n")
    code, out, _ = run(capsys, "search", str(gpath))
    assert code == 1
    lines = out.splitlines()
    assert lines[1:3] == ["m=2", "no labeling: more vertices (5) than labels (4)"]
    assert "nodes_explored=0" in lines
    code, out, _ = run(capsys, "search", str(gpath), "--json")
    assert code == 1
    payload = json.loads(out)
    assert (payload["m"], payload["reason"], payload["nodes_explored"]) == (
        2, "more vertices (5) than labels (4)", 0)


def test_search_emit_first_revalidates(capsys, tmp_path, star_files):
    gpath, _ = star_files
    wpath = tmp_path / "witness.lab"
    code, out, _ = run(capsys, "search", str(gpath), "--mode", "first",
                       "--emit", str(wpath))
    assert code == 0
    assert wpath.exists()
    code2, out2, _ = run(capsys, "check", str(gpath), str(wpath))
    assert code2 == 0
    assert "VALID" in out2.splitlines()


def test_search_emit_all_numbered_files(capsys, tmp_path):
    gpath = tmp_path / "k2.graph"
    run(capsys, "gen", "--type", "star", "--q", "1", "--out", str(gpath))
    wpath = tmp_path / "w.lab"
    code, out, _ = run(capsys, "search", str(gpath), "--mode", "all",
                       "--emit", str(wpath))
    assert code == 0
    emitted = sorted(tmp_path.glob("w-*.lab"))
    assert len(emitted) == 2
    for path in emitted:
        code2, _, _ = run(capsys, "check", str(gpath), str(path))
        assert code2 == 0


def test_search_emit_unwritable_exits_2(capsys, star_files, tmp_path):
    gpath, _ = star_files
    code, _, err = run(capsys, "search", str(gpath), "--mode", "first",
                       "--emit", str(tmp_path / "missing" / "w.lab"))
    assert code == 2
    assert err.startswith("error: ")


def test_search_no_symmetry_same_count_more_nodes(capsys, tmp_path):
    # All mode walks the whole tree, with no symmetry breaking.
    gpath = tmp_path / "c7.graph"
    run(capsys, "gen", "--type", "cycle", "--n", "7", "--out", str(gpath))
    code, on, _ = run(capsys, "search", str(gpath))
    assert code == 0
    code, off, _ = run(capsys, "search", str(gpath), "--mode", "all")
    assert code == 0
    assert "count_raw=2688" in on.splitlines()
    assert "count_raw=2688" in off.splitlines()
    assert "mode=count" in on.splitlines()
    assert "mode=all" in off.splitlines()
    assert "nodes_explored=21" in on.splitlines()
    assert "nodes_explored=23584" in off.splitlines()


def test_search_no_symmetry_is_a_usage_error(capsys, star_files):
    # The mode decides symmetry, so no flag switches it.
    gpath, _ = star_files
    with pytest.raises(SystemExit) as exc:
        main(["search", str(gpath), "--no-symmetry"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert "unrecognized arguments: --no-symmetry" in err


def test_search_emit_with_count_mode_rejected(capsys, star_files, tmp_path):
    gpath, _ = star_files
    code, _, err = run(capsys, "search", str(gpath), "--emit", str(tmp_path / "x.lab"))
    assert code == 2
    assert "--emit" in err


def test_search_json_mirror(capsys, star_files):
    gpath, _ = star_files
    code, out, _ = run(capsys, "search", str(gpath), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 2
    assert payload["count_raw"] == 24
    assert payload["exhausted"] is True


def test_theorem_m2_counts(capsys):
    code, out, _ = run(capsys, "theorem", "--m", "2")
    assert code == 0
    assert "(1,3)" in out and "(3,1)" in out
    assert out.count("count_raw=24") == 2
    assert "all pairs agree: yes" in out


def test_theorem_m3_all_star_pairs(capsys):
    code, out, _ = run(capsys, "theorem", "--m", "3")
    assert code == 0
    assert "(1,7)" in out and "(7,1)" in out
    assert "star-admits" in out


def test_theorem_m3_json_confirms_stars_in_first_mode(capsys):
    code, out, _ = run(capsys, "theorem", "--m", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert [(rec["p"], rec["q"]) for rec in payload["pairs"]] == [(1, 7), (7, 1)]
    for rec in payload["pairs"]:
        # One witness's affine orbit: 2^3 * |GL(3,2)| = 8 * 168.
        assert rec["confirm"] == {"mode": "first", "count_raw": 1344,
                                  "exhausted": True, "agrees": True}


def test_theorem_m4_confirms_star_theorem(capsys):
    code, out, _ = run(capsys, "theorem", "--m", "4")
    assert code == 0
    assert "factor pairs of 15: (1,15) (3,5) (5,3) (15,1)" in out
    assert out.count("non-star-impossible") == 2
    assert out.count("count_raw=0") == 2
    assert out.count("OddUniverseContradiction") == 2
    assert "all pairs agree: yes" in out


@pytest.mark.parametrize("argv, golden", [
    (("--m", "4"), "theorem_m4.txt"),
    (("--m", "4", "--json"), "theorem_m4.json"),
    (("--m", "6"), "theorem_m6.txt"),
], ids=["m4", "m4-json", "m6"])
def test_theorem_output_matches_golden(capsys, argv, golden):
    # The whole report, byte for byte: decisions, traces, confirmations, and
    # the JSON decision objects.
    code, out, _ = run(capsys, "theorem", *argv)
    assert code == 0
    assert out == (DATA / golden).read_text()


def test_theorem_m5_exhaustive(capsys):
    code, out, _ = run(capsys, "theorem", "--m", "5", "--exhaustive-up-to", "5")
    assert code == 0
    assert "factor pairs of 31: (1,31) (31,1)" in out
    assert out.count(", agrees") == 2
    assert "all pairs agree: yes" in out


def test_theorem_node_limit_leaves_pairs_undecided(capsys):
    code, out, _ = run(capsys, "theorem", "--m", "4", "--node-limit", "10")
    assert code == 3
    assert out.count("exhausted=no, undecided (node limit)") == 4
    assert "all pairs agree: undecided (node limit)" in out
    # A limit no confirming search reaches changes nothing.
    code, limited, _ = run(capsys, "theorem", "--m", "4", "--node-limit", "1000000")
    assert code == 0
    assert limited == run(capsys, "theorem", "--m", "4")[1]
    code, _, err = run(capsys, "theorem", "--m", "4", "--node-limit", "0")
    assert code == 2
    assert "node_limit must be positive" in err


def test_theorem_disagreement_outranks_node_limit(capsys, monkeypatch):
    # K_{1,3} comes back exhausted with no labeling, a disagreement, and
    # K_{3,1} comes back stopped by the limit: the run is negative, not limited.
    outcomes = iter([
        SearchOutcome(m=2, count_raw=0, witnesses=(), nodes_explored=5, exhausted=True,
                      reason=None),
        SearchOutcome(m=2, count_raw=0, witnesses=(), nodes_explored=5, exhausted=False,
                      reason=None),
    ])
    # The CLI imports search when the command runs, so the module's name is patched.
    monkeypatch.setattr(search_module, "search", lambda g, cfg: next(outcomes))
    code, out, _ = run(capsys, "theorem", "--m", "2", "--node-limit", "5")
    assert code == 1
    assert "exhausted=yes, DISAGREES" in out
    assert "exhausted=no, undecided (node limit)" in out
    assert "all pairs agree: NO" in out


def test_theorem_m6_node_limit_exits_3():
    """`theorem --m 6 --exhaustive-up-to 6` has no end unless a node limit stops
    K_{3,21} and K_{7,9}; with one it exits 3 in moments, with no traceback."""
    env = {**os.environ, "PYTHONPATH": str(Path(setgraceful.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "setgraceful.cli", "theorem", "--m", "6",
         "--exhaustive-up-to", "6", "--node-limit", "20000", "--json"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["all_agree"] is False
    confirms = {(rec["p"], rec["q"]): rec["confirm"] for rec in payload["pairs"]}
    for star in ((1, 63), (63, 1)):
        assert confirms[star]["exhausted"] and confirms[star]["agrees"]
    for pair in ((3, 21), (7, 9), (9, 7), (21, 3)):
        assert confirms[pair] == {"mode": "first", "count_raw": 0,
                                  "exhausted": False, "agrees": False}


def test_theorem_m6_traces_without_search(capsys):
    code, out, _ = run(capsys, "theorem", "--m", "6")
    assert code == 0
    for pair in ["(1,63)", "(3,21)", "(7,9)", "(9,7)", "(21,3)", "(63,1)"]:
        assert pair in out
    assert "confirm: skipped" in out
    assert "OddUniverseContradiction" in out


def test_theorem_builds_each_trace_once(capsys, monkeypatch):
    for extra in ((), ("--json",)):
        calls = []

        def counting(p, q):
            trace = proof_trace(p, q)
            calls.append((p, q, trace is not None))
            return trace

        monkeypatch.setattr(conditions, "proof_trace", counting)
        code, _, _ = run(capsys, "theorem", "--m", "6", *extra)
        assert code == 0
        # One call per factor pair of 63: the two stars get None, the four
        # others a trace.
        assert calls == [(1, 63, False), (3, 21, True), (7, 9, True), (9, 7, True),
                         (21, 3, True), (63, 1, False)]


def test_theorem_json_traces_recheck_from_the_output_alone(capsys):
    # A trace is a certificate: each step read back from the JSON rechecks
    # with no other input.
    code, out, _ = run(capsys, "theorem", "--m", "6", "--json")
    assert code == 0
    traces = [rec["trace"] for rec in json.loads(out)["pairs"] if rec["trace"] is not None]
    steps = [ProofStep(**step) for trace in traces for step in trace["steps"]]
    assert (len(traces), len(steps)) == (4, 36)
    assert all(step.recheck() for step in steps)


def test_theorem_bad_m_exits_2(capsys):
    code, _, err = run(capsys, "theorem", "--m", "0")
    assert code == 2


def test_theorem_without_m_is_an_argparse_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["theorem"])
    assert exc.value.code == 2
    assert "the following arguments are required: --m" in capsys.readouterr().err


def test_theorem_json(capsys):
    code, out, _ = run(capsys, "theorem", "--m", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_agree"] is True
    assert [(rec["p"], rec["q"]) for rec in payload["pairs"]] == [(1, 3), (3, 1)]


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--type", "tesseract"])
    assert exc.value.code == 2


# Every usage error of the four commands, as (argv, message).  `{tmp}` stands
# for the test's directory, which holds star.graph (K_{1,3}), loop.graph (a
# loop on its second line), ok.lab (a valid labeling of the star) and
# short.lab (one vertex short of it).
_NO_FILE = "[Errno 2] No such file or directory: '{tmp}/%s'"
_LOOP = "line 2: loop at vertex 1 (graph must be simple)"
USAGE_ERRORS = {
    "gen-path-n0": (["gen", "--type", "path", "--n", "0"],
                    "path needs at least one vertex, got 0"),
    "gen-path-no-n": (["gen", "--type", "path"], "path needs --n"),
    "gen-star-no-q": (["gen", "--type", "star"], "star needs --q (number of leaves)"),
    "gen-kpq-no-q": (["gen", "--type", "complete-bipartite", "--p", "2"],
                     "complete-bipartite needs --p and --q"),
    "gen-cycle-n2": (["gen", "--type", "cycle", "--n", "2"],
                     "cycle needs at least 3 vertices, got 2"),
    "gen-out-missing-dir": (["gen", "--type", "path", "--n", "3", "--out", "{tmp}/missing/x.graph"],
                            _NO_FILE % "missing/x.graph"),
    "check-no-graph": (["check", "{tmp}/none.graph", "{tmp}/ok.lab"], _NO_FILE % "none.graph"),
    "check-no-labeling": (["check", "{tmp}/star.graph", "{tmp}/none.lab"], _NO_FILE % "none.lab"),
    "check-loop": (["check", "{tmp}/loop.graph", "{tmp}/ok.lab"], _LOOP),
    "check-short": (["check", "{tmp}/star.graph", "{tmp}/short.lab"],
                    "labeling covers 3 vertices, graph has 4"),
    "search-no-graph": (["search", "{tmp}/none.graph"], _NO_FILE % "none.graph"),
    "search-loop": (["search", "{tmp}/loop.graph"], _LOOP),
    "search-limit-0": (["search", "{tmp}/star.graph", "--node-limit", "0"],
                       "node_limit must be positive, got 0"),
    "search-limit-neg": (["search", "{tmp}/star.graph", "--node-limit", "-3"],
                         "node_limit must be positive, got -3"),
    "search-emit-count": (["search", "{tmp}/star.graph", "--emit", "{tmp}/x.lab"],
                          "--emit needs --mode first or --mode all (count keeps no witnesses)"),
    "search-emit-missing-dir": (["search", "{tmp}/star.graph", "--mode", "first",
                                 "--emit", "{tmp}/missing/w.lab"], _NO_FILE % "missing/w.lab"),
    "theorem-m0": (["theorem", "--m", "0"], "--m must be between 1 and 30, got 0"),
    "theorem-m31": (["theorem", "--m", "31"], "--m must be between 1 and 30, got 31"),
    "theorem-limit-0": (["theorem", "--m", "3", "--node-limit", "0"],
                        "node_limit must be positive, got 0"),
}


@pytest.mark.parametrize("argv, message", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_error_exact(capsys, tmp_path, argv, message):
    (tmp_path / "star.graph").write_text("0 1\n0 2\n0 3\n")
    (tmp_path / "loop.graph").write_text("0 1\n1 1\n")
    (tmp_path / "ok.lab").write_text("m 2\n0 0\n1 1\n2 2\n3 3\n")
    (tmp_path / "short.lab").write_text("m 2\n0 0\n1 1\n2 2\n")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert run(capsys, *argv) == (2, "", f"error: {message.format(tmp=tmp_path)}\n")


def test_only_main_handles_errors():
    """Commands raise; `main` alone catches, and alone calls `_fail`, so every
    usage error leaves by one path."""
    tree = ast.parse(Path(cli_module.__file__).read_text(encoding="utf-8"))
    found = []
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "main":
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.ExceptHandler) or (
                    isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "_fail"):
                found.append(f"{type(node).__name__} at line {node.lineno}")
    assert found == []


def test_module_entry_point_exit_codes(tmp_path):
    """Exit codes survive `python -m setgraceful.cli`, with no traceback."""
    star = tmp_path / "star.graph"
    star.write_text("0 1\n0 2\n0 3\n")
    k17 = tmp_path / "k17.graph"
    k17.write_text("".join(f"0 {i}\n" for i in range(1, 8)))
    c4 = tmp_path / "c4.graph"
    c4.write_text("0 1\n1 2\n2 3\n0 3\n")
    env = {**os.environ, "PYTHONPATH": str(Path(setgraceful.__file__).parents[1])}
    cases = [
        (0, ["search", str(star)]),
        (1, ["search", str(c4)]),
        (2, ["search", str(star), "--mode", "first",
             "--emit", str(tmp_path / "missing" / "w.lab")]),
        (3, ["search", str(k17), "--node-limit", "5"]),
    ]
    for expected, argv in cases:
        proc = subprocess.run([sys.executable, "-m", "setgraceful.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == expected, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr


def test_closed_stdout_exits_2(tmp_path):
    """A reader that closes the pipe early is an output error, not a negative answer."""
    k17 = tmp_path / "k17.graph"
    k17.write_text("".join(f"0 {i}\n" for i in range(1, 8)))
    env = {**os.environ, "PYTHONPATH": str(Path(setgraceful.__file__).parents[1])}
    for argv in (["search", str(k17), "--mode", "all", "--json"],
                 ["gen", "--type", "cycle", "--n", "100000"]):
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails with EPIPE
        try:
            proc = subprocess.run([sys.executable, "-m", "setgraceful.cli", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  env=env, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


# Restores the default SIGINT handler (a parent may pass SIGINT on as ignored),
# says when main is about to run, then runs it on argv[1:].
_INTERRUPTIBLE = (
    "import signal, sys\n"
    "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
    "from setgraceful.cli import main\n"
    "print('ready', flush=True)\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def test_sigint_exits_3_without_traceback(tmp_path):
    c31 = tmp_path / "c31.graph"
    c31.write_text("".join(f"{i} {(i + 1) % 31}\n" for i in range(31)))
    env = {**os.environ, "PYTHONPATH": str(Path(setgraceful.__file__).parents[1])}
    # Counting C_31 runs far longer than the test waits.
    proc = subprocess.Popen(
        [sys.executable, "-c", _INTERRUPTIBLE, "search", str(c31), "--mode", "count"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        assert proc.stdout.readline() == "ready\n"
        time.sleep(0.5)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 3
    assert err == "interrupted\n"
    assert out == ""


# Runs argv[2:] with stdout to the file argv[1], then prints its exit code and
# the peak RSS of its children.  A fresh, small parent keeps the reading clean:
# Linux folds the pre-exec RSS of a forked child into ru_maxrss, so a child
# spawned straight from the test process would inherit the test run's peak.
_MEASURE_RSS = (
    "import resource, subprocess, sys\n"
    "with open(sys.argv[1], 'w') as out:\n"
    "    code = subprocess.call(sys.argv[2:], stdout=out)\n"
    "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_search_all_json_peak_rss(tmp_path):
    """`search --mode all --json` on K_{1,7} stays under 45 MB peak RSS."""
    k17 = tmp_path / "k17.graph"
    k17.write_text("".join(f"0 {i}\n" for i in range(1, 8)))
    out_path = tmp_path / "out.json"
    env = {**os.environ, "PYTHONPATH": str(Path(setgraceful.__file__).parents[1])}
    cli = [sys.executable, "-m", "setgraceful.cli", "search", str(k17), "--mode", "all", "--json"]
    proc = subprocess.run([sys.executable, "-c", _MEASURE_RSS, str(out_path), *cli],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    code, maxrss_kib = map(int, proc.stdout.split())
    assert code == 0
    assert len(json.loads(out_path.read_text())["witnesses"]) == 40320
    assert maxrss_kib < 45 * 1024, f"peak RSS {maxrss_kib} KiB"
