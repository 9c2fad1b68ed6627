"""Command-line surface: generation, embedding, verification, bounds, search, SVG.

Exit codes: 0 success, 1 suite/embedding failure, 2 input error, 3 a search
ran out of budget (verdict unknown). Besides verify's summary, which sets
1 or 3, each nonzero code comes from one except clause of main.
"""
from __future__ import annotations

import argparse
import inspect
import json
import sys
from functools import lru_cache
from pathlib import Path

from .embedding import (
    Embedding,
    EmbeddingDefectError,
    embed_avoiding_single,
    embed_convex_avoiding_two,
    embed_recursive,
)
from .forbid import r_edge_blanket, turan_lower_bound, upper_bound_value
from .generators import convex_points, random_points
from .geometry import EdgeSet, PointSet, json_field, json_ints
from .oracle import DEFAULT_BUDGET, SearchBudgetExceeded, min_forbidden_set_size
from .suites import SUITES
from .svg import render_svg
from .trees import Tree, root_at, spider_tree


def _emit(data: dict, out: str | None) -> None:
    text = json.dumps(data, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _load_tree(source: str) -> Tree:
    """A tree file path, or a shorthand like spider:7, path:6, star:5."""
    if ":" in source and not Path(source).exists():
        kind, _, num = source.partition(":")
        n = int(num)
        if kind == "spider":
            return spider_tree(n)
        if kind == "path":
            return Tree(n, [(i, i + 1) for i in range(n - 1)])
        if kind == "star":
            return Tree(n, [(0, i) for i in range(1, n)])
        raise ValueError(f"unknown tree shorthand {source!r}")
    return Tree.from_json(_load_json(source))


def _parse_range(text: str) -> list[int]:
    """A range like 5..9 (both ends included) or a single value; ValueError if empty."""
    if ".." in text:
        lo, hi = text.split("..")
        values = list(range(int(lo), int(hi) + 1))
        if not values:
            raise ValueError(f"empty range {text!r}")
        return values
    return [int(text)]


def cmd_gen(args) -> int:
    gen = convex_points if args.mode == "convex" else random_points
    s = gen(args.n, args.seed)
    data = s.to_json()
    data.update({"seed": args.seed, "mode": args.mode, "n": args.n})
    _emit(data, args.out)
    return 0


def cmd_embed(args) -> int:
    s = PointSet.from_json(_load_json(args.points))
    t = _load_tree(args.tree)
    forbidden = None
    if args.forbidden:
        forbidden = EdgeSet.from_json(_load_json(args.forbidden))
        s.check_edges(*forbidden.edges)
    if forbidden is None or len(forbidden) == 0:
        emb = embed_recursive(root_at(t, 0), s)
    elif len(forbidden) == 1:
        (e,) = list(forbidden)
        emb = embed_avoiding_single(t, s, e)
    elif len(forbidden) == 2:
        f1, f2 = list(forbidden)
        emb = embed_convex_avoiding_two(t, s, f1, f2)
    else:
        raise ValueError("no constructive procedure for 3+ forbidden edges; "
                         "use search-min or the oracle")
    if args.svg:  # first, so that a bad path exits 2 with nothing on stdout
        Path(args.svg).write_text(render_svg(s, emb, forbidden))
    _emit(emb.to_json(forbidden), args.out)
    return 0


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        raise ValueError(f"unknown suite {args.suite!r}; available: {', '.join(sorted(SUITES))}")
    suite = SUITES[args.suite]
    kwargs = {}
    if args.n:
        kwargs["ns"] = _parse_range(args.n)
    if args.seeds:
        kwargs["seeds"] = _parse_range(args.seeds)
    params = inspect.signature(suite).parameters
    for flag, name in (("--n", "ns"), ("--seeds", "seeds")):
        if name in kwargs and name not in params:
            raise ValueError(f"suite {args.suite!r} does not take {flag}")
    sink = open(args.out, "w") if args.out else sys.stdout
    failures = unknown = total = 0
    try:
        for case in suite(**kwargs):
            total += 1
            failures += 0 if case.ok or case.unknown else 1
            unknown += 1 if case.unknown else 0
            sink.write(json.dumps(case.to_json(), sort_keys=True) + "\n")
            if case.note:
                print(case.note, file=sys.stderr)
        summary = {"summary": True, "suite": args.suite, "cases": total,
                   "failures": failures, "unknown": unknown}
        sink.write(json.dumps(summary, sort_keys=True) + "\n")
    finally:
        if args.out:
            sink.close()
    if failures:
        return 1
    if unknown:
        return 3
    return 0


def cmd_bounds(args) -> int:
    # On a convex set an edge's depth is fixed by its cyclic gap, so the
    # blanket size depends on n and k only.
    blanket = r_edge_blanket(convex_points(args.n), args.k)
    _emit({
        "n": args.n,
        "k": args.k,
        "lower": str(turan_lower_bound(args.n, args.k)),
        "upper": str(upper_bound_value(args.n, args.k)),
        "blanket_size": len(blanket.edges),
    }, args.out)
    return 0


def cmd_search_min(args) -> int:
    s = PointSet.from_json(_load_json(args.points))
    res = min_forbidden_set_size(s, args.k, args.cap, args.budget)
    if res is None:
        _emit({"size": None, "cap": args.cap, "k": args.k}, args.out)
    else:
        _emit({
            "size": res.size,
            "k": args.k,
            "edges": res.edges.to_json()["edges"],
            "tree": res.tree.to_json(),
        }, args.out)
    return 0


def cmd_render(args) -> int:
    s = PointSet.from_json(_load_json(args.points))
    emb = None
    if args.embedding:
        if not args.tree:
            raise ValueError("--embedding requires --tree to reconstruct segments")
        t = _load_tree(args.tree)
        assignment = json_ints(json_field(_load_json(args.embedding), "assignment"))
        emb = Embedding(t, s, tuple(assignment))
    forbidden = None
    if args.forbidden:
        forbidden = EdgeSet.from_json(_load_json(args.forbidden))
        s.check_edges(*forbidden.edges)
    Path(args.svg).write_text(render_svg(s, emb, forbidden))
    return 0


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every main() call."""
    parser = argparse.ArgumentParser(
        prog="forbidtree",
        description="Planar tree embeddings with forbidden edges: "
                    "generators, embedders, verification suites, bounds, search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded point set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--mode", choices=["convex", "random"], default="convex")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("embed", help="embed a tree, optionally avoiding forbidden edges")
    p.add_argument("--tree", required=True, help="tree JSON file or spider:N/path:N/star:N")
    p.add_argument("--points", required=True)
    p.add_argument("--forbidden", help="edge-set JSON file (0, 1 or 2 edges)")
    p.add_argument("--out")
    p.add_argument("--svg")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--n", help="range like 5..9 or a single value")
    p.add_argument("--seeds", help="range like 1..20 or a single value")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bounds", help="exact bound values and blanket size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("search-min", help="smallest forbidding subset up to a cap")
    p.add_argument("--points", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cap", type=int, default=3)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--out")
    p.set_defaults(func=cmd_search_min)

    p = sub.add_parser("render", help="render points/embedding/forbidden set as SVG")
    p.add_argument("--points", required=True)
    p.add_argument("--tree")
    p.add_argument("--embedding")
    p.add_argument("--forbidden")
    p.add_argument("--svg", required=True)
    p.set_defaults(func=cmd_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EmbeddingDefectError as ex:
        print(f"embedding failed: {ex}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, ValueError, IndexError) as ex:
        print(f"input error: {ex}", file=sys.stderr)
        return 2
    except SearchBudgetExceeded:
        print("budget exhausted before a verdict", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
