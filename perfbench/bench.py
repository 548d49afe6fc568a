"""Passes over a workload's jobs, untraced (end to end) or replayed with spans.

End to end: each job runs ``python -m setgraceful.cli`` as a subprocess, one
at a time (a closed loop with one client, so two cores suffice), and its
answer is checked before the next job starts.  A job's wall time covers its
CLI calls and its checks: for all-mode jobs that includes validating every
witness and the oracle cross-check, because a verified count is the unit of
work there.

Traced replay: the same jobs call ``setgraceful.cli.main`` in this process,
alternating an untraced and a traced pass, so the traced pass can be charged
with its own overhead.
"""

from __future__ import annotations

import contextlib
import io
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable

import checker
import corpus
import tracer
from corpus import Job
from setgraceful import cli
from setgraceful.graph import Graph
from setgraceful.search import SearchConfig
from setgraceful.search import search as untraced_search

SETUP_REPEATS = 7
STARTUP_REPEATS = 5
JOB_TIMEOUT_S = 120

CliCall = Callable[[list[str]], tuple[int, str]]


class Bench:
    def __init__(self, workload: str, seed: int, root: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.spec = corpus.WORKLOADS[workload]
        self.work = root / ".perfbench-work" / f"{workload}-seed{seed}"
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.jobs: list[Job] = []
        self.attempted = 0
        self.failed = 0

    # ------------------------------------------------------------ CLI calls

    def cli_subprocess(self, argv: list[str]) -> tuple[int, str]:
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "setgraceful.cli", *argv],
                env=self.env, capture_output=True, text=True, timeout=JOB_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return -1, ""
        return proc.returncode, proc.stdout

    @staticmethod
    def cli_inprocess(stdout_bytes: list[int]) -> CliCall:
        def call(argv: list[str]) -> tuple[int, str]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
            text = out.getvalue()
            stdout_bytes[0] += len(text.encode())
            return code, text

        return call

    # ------------------------------------------------------------ set-up

    def setup(self) -> float:
        """Write the corpus and start the CLI once; return the seconds taken."""
        start = time.perf_counter()
        if self.work.exists():
            shutil.rmtree(self.work)
        self.jobs = corpus.write_corpus(self.workload, self.seed, self.work)
        code, _ = self.cli_subprocess(["--help"])
        if code != 0:
            raise RuntimeError(f"CLI warm-up start exited {code}")
        return time.perf_counter() - start

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    # ------------------------------------------------------------ jobs

    def execute(self, job: Job, call: CliCall) -> bool:
        """Run and check one job; return whether it was decided."""
        try:
            problems, code = self._run_checked(job, call)
        except Exception:  # a crash inside an in-process replay is a failed job
            problems, code = [traceback.format_exc(limit=3)], -1
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {self.workload} seed {self.seed} {job.name}: {problems}", file=sys.stderr)
            return False
        return code in (checker.EXIT_FOUND, checker.EXIT_NONE)

    @staticmethod
    def _run_checked(job: Job, call: CliCall) -> tuple[list[str], int]:
        if job.graph is None:
            code, out = call(job.argv())
            return checker.check_theorem(job, code, out), code
        if job.emit:
            job.emit_path().unlink(missing_ok=True)
        code, out = call(job.argv())
        problems, witness = checker.check_search(job, code, out)
        if job.emit and witness is not None:
            path = job.emit_path()
            problems += checker.check_emitted(
                path.read_text(encoding="utf-8") if path.exists() else "", job.m, witness)
            check_code, check_out = call(["check", str(job.graph), str(path), "--json"])
            problems += checker.check_verdict(check_code, check_out)
        return problems, code

    # ------------------------------------------------------------ end to end

    def end_to_end(self, seconds: float) -> dict[str, tuple[float, str]]:
        setups = [self.setup() for _ in range(SETUP_REPEATS)]
        job_s: list[float] = []
        decided = 0

        def one_pass() -> float:
            nonlocal decided
            start = time.perf_counter()
            for job in self.jobs:
                t0 = time.perf_counter()
                decided += self.execute(job, self.cli_subprocess)
                job_s.append(time.perf_counter() - t0)
            return time.perf_counter() - start

        pass_s = run_passes(seconds, one_pass)
        # The tail is printed, not reported as a metric.  Its percentile rises
        # with the number of passes that fit in a run, so a faster program
        # would be judged at a higher one; and on decide_m4 and enumerate_m3
        # it falls on one or two slow jobs (the theorem job, K_1_7), which
        # swing by a quarter from repeat to repeat on a shared host.
        percentile, tail = tail_percentile(job_s)
        print(f"{len(pass_s)} passes of {len(self.jobs)} jobs; job_s.tail {tail:.6g} s "
              f"(p{percentile} of {len(job_s)} jobs); failed_ratio {self.failed}/{self.attempted}")
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return {
            "setup_s": (statistics.median(setups), "s"),
            "pass_s": (statistics.median(pass_s), "s"),
            "job_s.p50": (statistics.median(job_s), "s"),
            "decided_ratio": (decided / self.attempted, "1"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        }

    # ------------------------------------------------------------ traced replay

    def startup_s(self) -> float:
        """Median wall time of one interpreter start plus ``import setgraceful.cli``."""
        times = []
        for _ in range(STARTUP_REPEATS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import setgraceful.cli"],
                           env=self.env, check=True, timeout=JOB_TIMEOUT_S)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def replay(self, seconds: float, trace_path: Path) -> dict[str, tuple[float, str]]:
        self.setup()
        startup = self.startup_s()
        plain_s: list[float] = []
        traced_s: list[float] = []
        per_pass: list[dict[str, float]] = []
        tracers: list[tracer.Tracer] = []
        all_mode = [job for job in self.jobs if job.mode == "all"]

        def plain_pass() -> float:
            call = self.cli_inprocess([0])
            total = 0.0
            for job in self.jobs:
                t0 = time.perf_counter()
                self.execute(job, call)
                total += time.perf_counter() - t0
            return total

        def traced_pass() -> float:
            tr = tracer.Tracer()
            stdout_bytes = [0]
            call = self.cli_inprocess(stdout_bytes)
            total = 0.0
            with tracer.instrument(tr):
                for job_id, job in enumerate(self.jobs):
                    tr.job_id = job_id
                    t0 = time.perf_counter()
                    with tr.span("bench.job"):
                        self.execute(job, call)
                    total += time.perf_counter() - t0
            reference_s = 0.0
            for job in all_mode:
                g = Graph(job.n, job.edges)
                t0 = time.perf_counter()
                untraced_search(g, SearchConfig(mode="count"))
                reference_s += time.perf_counter() - t0
            layers = tracer.layer_metrics(tr, reference_s)
            layers["cli.stdout_bytes"] = stdout_bytes[0]
            per_pass.append(layers)
            tracers.append(tr)
            return total

        def pair() -> float:
            start = time.perf_counter()
            plain_s.append(plain_pass())
            traced_s.append(traced_pass())
            return time.perf_counter() - start

        run_passes(seconds, pair)
        tracer.write_spans(trace_path, tracers, {
            "workload": self.workload, "seed": self.seed,
            "jobs": [job.name for job in self.jobs],
            "node_limit": self.spec.node_limit,
        })
        print(f"{len(traced_s)} traced passes of {len(self.jobs)} jobs; spans in {trace_path}")
        metrics = {name: (statistics.median(p[name] for p in per_pass), unit)
                   for name, unit in LAYER_UNITS.items() if name in per_pass[0]}
        metrics["search.node_limit"] = (float(self.spec.node_limit or 0), "count")
        metrics["cli.startup_s"] = (startup, "s")
        metrics["trace.overhead_s"] = (statistics.median(traced_s) - statistics.median(plain_s), "s")
        return {name: metrics[name] for name in LAYER_UNITS}


LAYER_UNITS = {
    "search.nodes": "count",
    "search.node_limit": "count",
    "search.nodes_per_s": "1/s",
    "search.count_s": "s",
    "search.limit_hits": "count",
    "search.order_s": "s",
    "search.expand_s": "s",
    "search.witnesses": "count",
    "graph.read_s": "s",
    "cli.startup_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "labeling.io_s": "s",
    "labeling.validate_s": "s",
    "labeling.validate_calls": "count",
    "oracle.enumerate_s": "s",
    "oracle.assignments": "count",
    "oracle.assignments_per_s": "1/s",
    "conditions.decide_s": "s",
    "conditions.trace_s": "s",
    "trace.overhead_s": "s",
}


def run_passes(seconds: float, one_pass: Callable[[], float]) -> list[float]:
    """Run passes while the next one is expected to end within ``seconds``."""
    start = time.perf_counter()
    times = [one_pass()]
    while time.perf_counter() - start + statistics.median(times) <= seconds:
        times.append(one_pass())
    return times


def tail_percentile(samples: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least 10 samples above it, and
    its value (nearest rank).  With 10 samples or fewer none qualifies; the
    maximum is reported as p100."""
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return 100, ordered[-1]
    p = 100 * (len(ordered) - 10) // len(ordered)
    rank = max(1, -(-p * len(ordered) // 100))
    return p, ordered[rank - 1]
