"""Per-job answer checker.

Each function takes what a CLI call returned (exit code and standard output)
and returns the list of problems found; an empty list means the answer is
right.  A job with any problem counts as failed.  Checks call the library
through its modules (``labeling.validate``, ``oracle.brute_force_enumerate``)
so that a traced replay times them as the layers they belong to.
"""

from __future__ import annotations

import json

from corpus import Job
from setgraceful import graph, labeling, oracle

EXIT_FOUND = 0
EXIT_NONE = 1
EXIT_LIMIT = 3

# Answers known independently of the engine (closed form or the oracle).
PINNED_COUNT = {"P_8": 0, "C_7": 2688, "K_1_7": 40320}
NEVER_LABELED = {"P_16"}
ORACLE_MAX_M = 3


def _parse(stdout: str) -> tuple[dict | None, list[str]]:
    try:
        return json.loads(stdout), []
    except ValueError:
        return None, ["output is not JSON"]


def check_theorem(job: Job, code: int, stdout: str) -> list[str]:
    out, problems = _parse(stdout)
    if out is None:
        return problems
    if out.get("m") != job.m or not out.get("exhaustive"):
        problems.append(f"theorem ran for m={out.get('m')}, exhaustive={out.get('exhaustive')}")
    if not out.get("all_agree"):
        problems.append("theorem: decision and exhaustive search disagree")
    target = (1 << job.m) - 1
    factor_pairs = {(d, target // d) for d in range(1, target + 1) if target % d == 0}
    pairs = out.get("pairs", [])
    if {(pair.get("p"), pair.get("q")) for pair in pairs} != factor_pairs:
        problems.append(f"theorem: pairs differ from the factor pairs of {target}")
    for pair in pairs:
        confirm = pair.get("confirm") or {}
        # Of the K_{p,q} with pq = 2^m - 1, only the stars have a labeling;
        # this pins K_{3,5} and K_{5,3} to 0 for m = 4.
        star = 1 in (pair.get("p"), pair.get("q"))
        count = confirm.get("count_raw", 0)
        if not (confirm.get("agrees") and confirm.get("exhausted") and (count > 0) == star):
            problems.append(f"theorem: K_{pair.get('p')},{pair.get('q')} is not confirmed: {confirm}")
    if code != EXIT_FOUND:
        problems.append(f"theorem exited {code}, expected {EXIT_FOUND}")
    return problems


def check_search(job: Job, code: int, stdout: str) -> tuple[list[str], list[int] | None]:
    """Check a search answer; also return the first witness, if any."""
    out, problems = _parse(stdout)
    if out is None:
        return problems, None
    try:
        m, count, exhausted = out["m"], out["count_raw"], out["exhausted"]
        witnesses = [tuple(w) for w in out["witnesses"]]
    except (KeyError, TypeError):
        return ["search output lacks m, count_raw, exhausted or witnesses"], None
    if m != job.m:
        problems.append(f"m={m}, expected {job.m}")
        return problems, None

    expected_code = EXIT_LIMIT if not exhausted else EXIT_FOUND if count > 0 else EXIT_NONE
    if code != expected_code:
        problems.append(f"exit code {code}, expected {expected_code} for this outcome")
    if count % (1 << m):
        problems.append(f"count_raw {count} is not a multiple of 2^{m}")
    if job.mode == "count" and witnesses:
        problems.append("count mode printed witnesses")
    if job.mode == "first" and len(witnesses) != (1 if count else 0):
        problems.append(f"first mode printed {len(witnesses)} witnesses for count_raw {count}")
    if job.mode == "all" and exhausted and len(witnesses) != count:
        problems.append(f"all mode printed {len(witnesses)} witnesses for count_raw {count}")
    if job.name in PINNED_COUNT and (not exhausted or count != PINNED_COUNT[job.name]):
        problems.append(f"{job.name}: count_raw {count} exhausted={exhausted}, "
                        f"expected {PINNED_COUNT[job.name]} exhausted")
    if job.name in NEVER_LABELED and witnesses:
        problems.append(f"{job.name} has no set-graceful labeling, but one was printed")

    g = graph.Graph(job.n, job.edges)
    for w in witnesses:
        try:
            ok = labeling.validate(g, labeling.Labeling(m, w)).valid
        except ValueError:
            ok = False
        if not ok:
            problems.append(f"witness {list(w)} is not set-graceful")
            break
    if job.mode == "all" and exhausted and m <= ORACLE_MAX_M:
        expected = {f.values for f in oracle.brute_force_enumerate(g, m)}
        if set(witnesses) != expected:
            problems.append(f"witness set differs from the oracle's {len(expected)} labelings")
    return problems, list(witnesses[0]) if witnesses else None


def check_emitted(text: str, m: int, witness: list[int]) -> list[str]:
    """The emitted labeling file must hold exactly the printed witness."""
    header: int | None = None
    labels: dict[int, int] = {}
    try:
        for raw in text.splitlines():
            parts = raw.split("#", 1)[0].split()
            if len(parts) != 2:
                continue
            if header is None and parts[0] == "m":
                header = int(parts[1])
            else:
                labels[int(parts[0])] = int(parts[1], 0)
    except ValueError:
        header = None
    if header != m or labels != dict(enumerate(witness)):
        return ["emitted labeling file differs from the printed witness"]
    return []


def check_verdict(code: int, stdout: str) -> list[str]:
    """``check --json`` on an emitted witness must report it valid."""
    out, problems = _parse(stdout)
    if out is None:
        return problems
    if out.get("valid") is not True or code != EXIT_FOUND:
        problems.append(f"check rejected the emitted witness (exit {code})")
    return problems
