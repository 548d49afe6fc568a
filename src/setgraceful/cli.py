"""Command-line frontend: generate graphs, check labelings, search, verify.

Exit codes: 0 success (valid / found / all confirmations agree),
1 checked-and-negative (invalid labeling, nothing found, disagreement),
2 usage or input error (a closed standard output included),
3 resource limit hit or interrupted.

Commands raise on bad input; `main` alone turns a `ValueError` or
`OSError` into `error: <message>` on stderr and exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from setgraceful.graph import (
    Graph,
    make_complete_bipartite,
    make_cycle,
    make_path,
    read_graph,
    write_graph,
)
from setgraceful.labeling import read_labeling, validate, write_labeling
from setgraceful.labels import MAX_GROUND_SIZE, MODES

# The commands that search or decide import `search` and `conditions`
# themselves, so that a `check` or `gen` process does not load them.
if TYPE_CHECKING:
    from setgraceful.search import SearchOutcome

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _fields(record) -> dict:
    """A record's fields by name, as the JSON output prints them."""
    return {name: getattr(record, name) for name in record.__slots__}


def _graph_desc(g: Graph) -> str:
    return f"{g.n} vertices, {len(g.edges)} edges"


def _load_graph(path: str) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return read_graph(fh)


# ---------------------------------------------------------------- gen

def cmd_gen(args: argparse.Namespace) -> int:
    if args.type == "complete-bipartite":
        if args.p is None or args.q is None:
            raise ValueError("complete-bipartite needs --p and --q")
        g = make_complete_bipartite(args.p, args.q)
    elif args.type == "star":
        if args.q is None:
            raise ValueError("star needs --q (number of leaves)")
        g = make_complete_bipartite(1, args.q)
    elif args.type == "path":
        if args.n is None:
            raise ValueError("path needs --n")
        g = make_path(args.n)
    else:
        if args.n is None:
            raise ValueError("cycle needs --n")
        g = make_cycle(args.n)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_graph(g, fh)
    else:
        write_graph(g, sys.stdout)
    return EXIT_OK


# ---------------------------------------------------------------- check

def cmd_check(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    with open(args.labeling, encoding="utf-8") as fh:
        f = read_labeling(fh)
    report = validate(g, f)
    if args.json:
        payload = _fields(report)
        payload["graph"] = {"n": g.n, "edges": list(g.edges)}
        payload["m"] = f.m
        print(json.dumps(payload, sort_keys=True))
        return EXIT_OK if report.valid else EXIT_NEGATIVE

    print(f"graph: {_graph_desc(g)}")
    print(f"labeling: m={f.m}, {len(f.values)} vertices")
    if report.vertex_witness is None:
        print("vertex labels injective: yes")
    else:
        u, v = report.vertex_witness
        print(f"vertex labels not injective: v={u} and v={v} share label {f.values[u]}")
    if report.edge_witness is None:
        print("edge labels injective: yes")
    else:
        e1, e2 = report.edge_witness
        shared = f.values[e1[0]] ^ f.values[e1[1]]
        print(
            f"edge labels not injective: edges ({e1[0]},{e1[1]}) and "
            f"({e2[0]},{e2[1]}) share label {shared}"
        )
    if report.missing_label is None:
        print("covers all nonempty labels: yes")
    else:
        print(f"covers all nonempty labels: no, missing {report.missing_label}")
    if report.empty_edge is None:
        print("empty edge label: none")
    else:
        print(f"empty edge label: edge ({report.empty_edge[0]},{report.empty_edge[1]})")
    print("VALID" if report.valid else "INVALID")
    return EXIT_OK if report.valid else EXIT_NEGATIVE


# ---------------------------------------------------------------- search

def _emit_witnesses(outcome: SearchOutcome, path: str) -> list[str]:
    """Write witnesses as labeling files; numbered siblings when several."""
    paths: list[str] = []
    if not outcome.witnesses:
        return paths
    if len(outcome.witnesses) == 1:
        targets = [Path(path)]
    else:
        base = Path(path)
        width = len(str(len(outcome.witnesses) - 1))
        targets = [
            base.with_name(f"{base.stem}-{i:0{width}d}{base.suffix}")
            for i in range(len(outcome.witnesses))
        ]
    for target, witness in zip(targets, outcome.witnesses):
        with open(target, "w", encoding="utf-8") as fh:
            write_labeling(witness, fh)
        paths.append(str(target))
    return paths


def cmd_search(args: argparse.Namespace) -> int:
    from setgraceful.search import SearchConfig, search

    g = _load_graph(args.graph)
    if args.emit and args.mode == "count":
        raise ValueError("--emit needs --mode first or --mode all (count keeps no witnesses)")
    cfg = SearchConfig(mode=args.mode, node_limit=args.node_limit)

    outcome = search(g, cfg)
    emitted = _emit_witnesses(outcome, args.emit) if args.emit else []

    if args.json:
        payload = _fields(outcome)
        # Tuples encode as JSON arrays, as lists do.
        payload["witnesses"] = [w.values for w in outcome.witnesses]
        payload["graph"] = {"n": g.n, "edges": list(g.edges)}
        payload["emitted"] = emitted
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"graph: {_graph_desc(g)}")
        if outcome.m is None:
            print(f"infeasible: {outcome.reason}")
        else:
            print(f"m={outcome.m}")
            if outcome.reason is not None:
                print(f"no labeling: {outcome.reason}")
        print(f"mode={args.mode}")
        print(f"count_raw={outcome.count_raw}")
        print(f"nodes_explored={outcome.nodes_explored}")
        print(f"exhausted={'yes' if outcome.exhausted else 'no'}")
        if args.mode == "first":
            if outcome.witnesses:
                labels = " ".join(str(v) for v in outcome.witnesses[0].values)
                print(f"witness: {labels}")
            elif outcome.exhausted:
                print("witness: none (exhausted)")
            else:
                print("witness: none (node limit)")
        elif args.mode == "all":
            print(f"witnesses={len(outcome.witnesses)}")
        if args.emit:
            print(f"emitted={len(emitted)}")

    if not outcome.exhausted:
        return EXIT_LIMIT
    return EXIT_OK if outcome.count_raw > 0 else EXIT_NEGATIVE


# ---------------------------------------------------------------- theorem

def _divisors(t: int) -> list[int]:
    small = [d for d in range(1, int(t**0.5) + 1) if t % d == 0]
    return sorted(set(small + [t // d for d in small]))


def cmd_theorem(args: argparse.Namespace) -> int:
    from setgraceful.conditions import proof_trace
    from setgraceful.search import SearchConfig, search

    m = args.m
    if not 1 <= m <= MAX_GROUND_SIZE:
        raise ValueError(f"--m must be between 1 and {MAX_GROUND_SIZE}, got {m}")
    target = (1 << m) - 1
    pairs = [(d, target // d) for d in _divisors(target)]
    run_exhaustive = m <= args.exhaustive_up_to
    cfg = SearchConfig(mode="first", node_limit=args.node_limit)

    rows = []
    for p, q in pairs:
        # The theorem: a star admits a labeling, and any other shape has a
        # trace of its contradiction.
        trace = proof_trace(p, q)
        confirm = None
        if run_exhaustive:
            # First mode walks the count-mode tree until a witness, so it
            # exhausts a non-star exactly as count mode would and stops a
            # star at its first labeling.  A pair the node limit stops is
            # neither confirmed nor contradicted: it does not agree.
            outcome = search(make_complete_bipartite(p, q), cfg)
            confirm = {
                "mode": "first",
                "count_raw": outcome.count_raw,
                "exhausted": outcome.exhausted,
                "agrees": outcome.exhausted and (outcome.count_raw > 0) == (trace is None),
            }
        record = {
            "p": p,
            "q": q,
            "decision": {"kind": "star-admits" if trace is None else "non-star-impossible",
                         "m": m},
            "trace": None if trace is None else {
                **_fields(trace), "steps": [_fields(s) for s in trace.steps]},
            "confirm": confirm,
        }
        rows.append((record, trace))

    confirms = [record["confirm"] for record, _ in rows if record["confirm"] is not None]
    all_agree = all(c["agrees"] for c in confirms)
    code = (EXIT_OK if all_agree
            else EXIT_NEGATIVE if any(c["exhausted"] and not c["agrees"] for c in confirms)
            else EXIT_LIMIT)
    if args.json:
        payload = {"m": m, "pairs": [record for record, _ in rows], "all_agree": all_agree,
                   "exhaustive": run_exhaustive}
        print(json.dumps(payload, sort_keys=True))
        return code

    print(f"theorem harness: m={m}, |X|={1 << m}, feasible edge count 2^{m} - 1 = {target}")
    print(f"factor pairs of {target}: " + " ".join(f"({p},{q})" for p, q in pairs))
    for record, trace in rows:
        p, q = record["p"], record["q"]
        print()
        print(f"pair ({p},{q}): {record['decision']['kind']} (m={record['decision']['m']})")
        if trace is not None:
            for line in trace.render().splitlines():
                print(f"  {line}")
        confirm = record["confirm"]
        if confirm is None:
            print(f"  confirm: skipped (m above exhaustive cutoff {args.exhaustive_up_to})")
        else:
            verdict = ("agrees" if confirm["agrees"]
                       else "DISAGREES" if confirm["exhausted"] else "undecided (node limit)")
            print(
                f"  confirm: mode={confirm['mode']} count_raw={confirm['count_raw']} "
                f"exhausted={'yes' if confirm['exhausted'] else 'no'}, {verdict}"
            )
    print()
    if not run_exhaustive:
        print("all pairs agree: not checked (decisions and traces only)")
    elif code == EXIT_LIMIT:
        print("all pairs agree: undecided (node limit)")
    else:
        print(f"all pairs agree: {'yes' if all_agree else 'NO'}")
    return code


# ---------------------------------------------------------------- driver

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setgraceful",
        description="Decide, find, count, and verify set-graceful labelings of finite simple graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a graph file")
    p_gen.add_argument("--type", required=True,
                       choices=["complete-bipartite", "star", "path", "cycle"])
    p_gen.add_argument("--p", type=int, help="left side size (complete-bipartite)")
    p_gen.add_argument("--q", type=int, help="right side size / number of leaves")
    p_gen.add_argument("--n", type=int, help="vertex count (path, cycle)")
    p_gen.add_argument("--out", help="output path (default stdout)")
    p_gen.set_defaults(func=cmd_gen)

    p_check = sub.add_parser("check", help="validate a labeling against a graph")
    p_check.add_argument("graph", help="graph file")
    p_check.add_argument("labeling", help="labeling file")
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=cmd_check)

    p_search = sub.add_parser("search", help="search a graph for set-graceful labelings")
    p_search.add_argument("graph", help="graph file")
    p_search.add_argument("--mode", choices=list(MODES), default="count")
    p_search.add_argument("--node-limit", type=int, default=None)
    p_search.add_argument("--emit", help="write witnesses as labeling files to this path")
    p_search.add_argument("--json", action="store_true")
    p_search.set_defaults(func=cmd_search)

    p_thm = sub.add_parser("theorem",
                           help="check the complete-bipartite decision against search")
    p_thm.add_argument("--m", type=int, required=True, dest="m")
    p_thm.add_argument("--exhaustive-up-to", type=int, default=4,
                       help="run exhaustive confirmation when m is at most this (default 4)")
    p_thm.add_argument("--node-limit", type=int, default=None,
                       help="stop each confirming search after this many nodes (exit 3 if one stops)")
    p_thm.add_argument("--json", action="store_true")
    p_thm.set_defaults(func=cmd_theorem)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        # Flush here, so a closed stdout fails inside the handler below
        # rather than at interpreter exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        # Point stdout at the null device, so the exit-time flush of what is
        # still buffered cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _fail(f"standard output closed: {exc}")
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_LIMIT


if __name__ == "__main__":
    sys.exit(main())
