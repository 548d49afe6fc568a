"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import corpus  # noqa: E402
from bench import Bench, tail_percentile  # noqa: E402
from setgraceful.graph import read_graph  # noqa: E402


def graph_files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.graph"))}


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_corpus_is_byte_identical_per_seed(tmp_path, workload):
    jobs = corpus.write_corpus(workload, 7, tmp_path / "a")
    corpus.write_corpus(workload, 7, tmp_path / "b")
    corpus.write_corpus(workload, 8, tmp_path / "c")
    assert graph_files(tmp_path / "a") == graph_files(tmp_path / "b")
    assert graph_files(tmp_path / "a") != graph_files(tmp_path / "c")

    spec = corpus.WORKLOADS[workload]
    for job in jobs:
        if job.graph is None:
            continue
        with open(job.graph, encoding="utf-8") as fh:
            g = read_graph(fh)
        assert (g.n, g.edges) == (job.n, job.edges)
        assert len(g.edges) == (1 << spec.m) - 1
        reached, frontier = {0}, [0]
        while frontier:
            u = frontier.pop()
            for e in g.edges:
                if u in e and (v := e[0] + e[1] - u) not in reached:
                    reached.add(v)
                    frontier.append(v)
        assert len(reached) == g.n, f"{job.name} is not connected"


@pytest.fixture(scope="module")
def c7_answer(tmp_path_factory):
    """The C_7 all-mode job and the CLI's real answer to it."""
    jobs = corpus.write_corpus("enumerate_m3", 1, tmp_path_factory.mktemp("corpus"))
    job = next(j for j in jobs if j.name == "C_7")
    code, out = Bench.cli_inprocess([0])(job.argv())
    return job, code, out


def failures(job, code, out, tmp_path) -> int:
    bench = Bench("enumerate_m3", 1, tmp_path)
    bench.execute(job, lambda argv: (code, out))
    assert bench.attempted == 1
    return bench.failed


def test_checker_accepts_the_real_answer(c7_answer, tmp_path):
    assert failures(*c7_answer, tmp_path) == 0


def corrupt_witness(payload: dict) -> None:
    w = payload["witnesses"][0]
    w[0] = w[1]


def wrong_count(payload: dict) -> None:
    payload["count_raw"] -= 8
    del payload["witnesses"][:8]


@pytest.mark.parametrize("corrupt", [corrupt_witness, wrong_count])
def test_checker_counts_a_wrong_answer_as_failed(c7_answer, tmp_path, corrupt):
    job, code, out = c7_answer
    payload = json.loads(out)
    corrupt(payload)
    assert failures(job, code, json.dumps(payload), tmp_path) == 1


def test_checker_validates_a_first_mode_witness(tmp_path):
    jobs = corpus.write_corpus("find_m4", 1, tmp_path / "corpus")
    job = dataclasses.replace(next(j for j in jobs if j.name == "C_15"), emit=False)
    code, out = Bench.cli_inprocess([0])(job.argv())
    assert failures(job, code, out, tmp_path) == 0
    payload = json.loads(out)
    corrupt_witness(payload)
    assert failures(job, code, json.dumps(payload), tmp_path) == 1


def test_checker_counts_a_wrong_exit_code_as_failed(c7_answer, tmp_path):
    job, code, out = c7_answer
    assert code == 0
    assert failures(job, 1, out, tmp_path) == 1


def test_checker_pins_the_theorem_pairs(tmp_path):
    jobs = corpus.write_corpus("decide_m4", 1, tmp_path / "corpus")
    job = next(j for j in jobs if j.graph is None)

    def pair(p: int, q: int, count: int) -> dict:
        return {"p": p, "q": q, "confirm": {"agrees": True, "exhausted": True, "count_raw": count}}

    payload = {"m": 4, "exhaustive": True, "all_agree": True,
               "pairs": [pair(1, 15, 16), pair(3, 5, 0), pair(5, 3, 0), pair(15, 1, 16)]}
    assert failures(job, 0, json.dumps(payload), tmp_path) == 0
    payload["pairs"][1]["confirm"]["count_raw"] = 16
    assert failures(job, 0, json.dumps(payload), tmp_path) == 1
    del payload["pairs"][1]
    assert failures(job, 0, json.dumps(payload), tmp_path) == 1


def test_tail_percentile_leaves_ten_samples_above():
    samples = [float(i) for i in range(100, 0, -1)]
    assert tail_percentile(samples) == (90, 90.0)
    assert tail_percentile(samples[-50:]) == (80, 40.0)
    assert tail_percentile(samples[-10:]) == (100, 10.0)
