"""Named verification suites: the library's claims, made executable.

Each suite yields one CaseResult per case, so callers can stream progress
(the CLI writes line-delimited JSON). Default parameters match the
acceptance configuration; the CLI can narrow or widen the ranges.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .embedding import (
    EmbeddingDefectError,
    embed_avoiding_single,
    embed_convex_avoiding_two,
    embed_few_hull_edges,
    embed_recursive,
)
from .forbid import (
    ForbidConstruction,
    r_edge_blanket,
    three_consecutive_hull_edges,
    three_pairs_consecutive_hull_edges,
    turan_lower_bound,
    upper_bound_value,
)
from .generators import convex_points, random_points
from .geometry import Edge, EdgeSet, PointSet, is_convex_position
from .oracle import (
    SearchBudgetExceeded,
    exists_embedding,
    forbids,
    min_forbidden_set_size,
)
from .trees import all_trees, root_at, spider_tree

# The (n, k) blanket cases, and the bound checks: exact values up to
# BOUNDS_N_MAX, brute-force minima at BRUTE_NS.
BLANKET_PAIRS = ((7, 4), (8, 5), (9, 5), (9, 6))
BOUNDS_N_MAX = 30
BRUTE_NS = (5, 6)


@dataclass
class CaseResult:
    suite: str
    params: dict
    ok: bool
    unknown: bool = False
    note: str = ""
    counters: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {"suite": self.suite, "params": self.params, "ok": self.ok}
        if self.unknown:
            out["unknown"] = True
        if self.note:
            out["note"] = self.note
        if self.counters:
            out["counters"] = self.counters
        return out


def spread_middles(n: int) -> tuple[int, int, int]:
    """Three hull positions as far apart as the cycle allows."""
    return (0, math.ceil(n / 3), math.ceil(2 * n / 3))


def _avoidance_case(suite: str, params: dict, embed, s: PointSet, cases) -> CaseResult:
    """Run embed(t, s, *edges) for each (t, edges) case up to the first failure.

    A case fails when the embedder reports a defect, draws a forbidden edge
    or a crossing, or when the oracle finds no drawing that avoids the
    edges; an input it does not take raises. With no failure, an oracle
    check that runs out of budget makes the result unknown. The counter
    is the number of cases run.
    """
    checked = 0
    unknown = False
    note = ""
    for t, edges in cases:
        checked += 1
        try:
            emb = embed(t, s, *edges)
        except EmbeddingDefectError as ex:
            note = f"{type(ex).__name__}: {ex}"
            break
        forbidden = EdgeSet(edges)
        if not emb.avoids(forbidden) or emb.crossing_count() != 0:
            note = "invalid avoiding embedding"
            break
        feasible = exists_embedding(t, s, forbidden).feasible
        if feasible is None:
            unknown = True
        elif not feasible:
            note = "oracle disagrees"
            break
    return CaseResult(suite, params, not note and not unknown, unknown=unknown and not note,
                      note=note, counters={"checked": checked})


def _blocking_case(suite: str, params: dict, c: ForbidConstruction, s: PointSet,
                   ok: bool = True, counters: dict | None = None) -> CaseResult:
    """The case that c blocks its target tree on s (and that ok holds); unknown on a run-out."""
    try:
        blocked = forbids(c.edges, c.target_tree, s)
    except SearchBudgetExceeded:
        return CaseResult(suite, params, False, unknown=True)
    return CaseResult(suite, params, blocked and ok, counters=counters or {})


def suite_baseline(ns: Sequence[int] = range(5, 9),
                   seeds: Sequence[int] = range(1, 21)) -> Iterator[CaseResult]:
    """Every tree embeds into every seeded general-position set, crossing-free."""
    for n in ns:
        trees = all_trees(n)
        for seed in seeds:
            s = random_points(n, seed)
            ok = True
            for t in trees:
                emb = embed_recursive(root_at(t, 0), s)
                if emb.crossing_count() != 0:
                    ok = False
            yield CaseResult("baseline", {"n": n, "seed": seed}, ok,
                             counters={"trees": len(trees)})


def suite_single_edge(ns: Sequence[int] = range(5, 8),
                      seeds: Sequence[int] = range(1, 11)) -> Iterator[CaseResult]:
    """Constructive single-edge avoidance, confirmed feasible by the oracle."""
    for n in ns:
        trees = all_trees(n)
        edges = [Edge(a, b) for a in range(n) for b in range(a + 1, n)]
        for mode, gen in (("convex", convex_points), ("random", random_points)):
            for seed in seeds:
                yield _avoidance_case(
                    "single-edge", {"n": n, "mode": mode, "seed": seed},
                    embed_avoiding_single, gen(n, seed),
                    ((t, (e,)) for t in trees for e in edges))


def suite_few_hull(ns: Sequence[int] = range(5, 10)) -> Iterator[CaseResult]:
    """Hull-edge usage strictly below n/2 for every tree on the convex n-gon."""
    for n in ns:
        s = convex_points(n, seed=1)
        for t in all_trees(n):
            emb = embed_few_hull_edges(t, s)
            used = emb.hull_edges_used()
            yield CaseResult("few-hull", {"n": n, "tree": list(t.edges)},
                             used * 2 < n and emb.crossing_count() == 0,
                             counters={"hull_edges": used})


def suite_two_edge_convex(ns: Sequence[int] = (5, 6, 7)) -> Iterator[CaseResult]:
    """Every pair of forbidden edges is avoidable on the convex n-gon.

    Also checks that the smallest forbidding subset on the convex n-gon has
    size exactly 3 (no singleton or pair forbids; some triple does).
    """
    for n in ns:
        s = convex_points(n, seed=1)
        edges = [Edge(a, b) for a in range(n) for b in range(a + 1, n)]
        yield _avoidance_case(
            "two-edge-convex", {"n": n}, embed_convex_avoiding_two, s,
            ((t, pair) for t in all_trees(n) for pair in itertools.combinations(edges, 2)))
        params = {"n": n, "min_forbidden": True}
        try:
            res = min_forbidden_set_size(s, n, 3)
        except SearchBudgetExceeded:
            yield CaseResult("two-edge-convex", params, False, unknown=True)
            continue
        yield CaseResult("two-edge-convex", params, res is not None and res.size == 3,
                         counters={"found": res.size if res else 0})


def suite_conf3(ns: Sequence[int] = range(5, 10)) -> Iterator[CaseResult]:
    """Three consecutive hull edges block the spider tree, and sharply so."""
    for n in ns:
        s = convex_points(n, seed=1)
        c = three_consecutive_hull_edges(s, start=0)
        case = _blocking_case("conf3", {"n": n}, c, s)
        yield case
        if case.unknown:
            continue
        for drop in c.edges:
            rest = EdgeSet(e for e in c.edges if e != drop)
            rep = exists_embedding(spider_tree(n), s, rest)
            yield CaseResult("conf3", {"n": n, "dropped": drop.to_json()},
                             rep.feasible is True, unknown=rep.unknown,
                             counters={"nodes": rep.nodes_expanded})


def suite_three_pairs(ns: Sequence[int] = range(6, 10)) -> Iterator[CaseResult]:
    """Three spread pairs of consecutive hull edges block the spider tree."""
    for n in ns:
        s = convex_points(n, seed=1)
        mids = spread_middles(n)
        c = three_pairs_consecutive_hull_edges(s, mids)
        yield _blocking_case("three-pairs", {"n": n, "middles": list(mids)}, c, s)


def suite_blanket() -> Iterator[CaseResult]:
    """The depth blanket blocks the k-spider on every k-subset, within size bound."""
    for n, k in BLANKET_PAIRS:
        s = convex_points(n, seed=1)
        c = r_edge_blanket(s, k)
        yield _blocking_case("blanket", {"n": n, "k": k}, c, s,
                             ok=len(c.edges) <= upper_bound_value(n, k),
                             counters={"edges": len(c.edges),
                                       "threshold": c.params["threshold"]})


def suite_bounds(seeds: Sequence[int] = range(1, 6)) -> Iterator[CaseResult]:
    """Lower bound never exceeds upper bound; small point sets respect the floor."""
    for n in range(5, BOUNDS_N_MAX + 1):
        ok = all(turan_lower_bound(n, k) <= upper_bound_value(n, k)
                 for k in range(3, n + 1))
        yield CaseResult("bounds", {"n": n}, ok)
    for n in BRUTE_NS:
        for seed in seeds:
            s = random_points(n, seed)
            ok = True
            unknown = False
            note = ""
            for k in range(3, n + 1):
                floor = math.ceil(turan_lower_bound(n, k))
                if floor <= 1:
                    continue
                try:
                    res = min_forbidden_set_size(s, k, floor - 1)
                except SearchBudgetExceeded:
                    ok, unknown = False, True
                    break
                if res is not None:
                    ok = False
                    note = f"subset of size {res.size} < {floor} forbids k={k}"
                    break
            yield CaseResult("bounds", {"n": n, "seed": seed, "brute": True},
                             ok, unknown=unknown, note=note)


def suite_bracket(ns: Sequence[int] = (5, 6),
                  seeds: Sequence[int] = range(1, 11)) -> Iterator[CaseResult]:
    """Minimum forbidding size on spanning trees: 3 on convex sets, 2 or 3 otherwise.

    A size-2 result on a non-convex set is an open-gap sighting and is
    reported prominently in the note, not treated as a failure. A size-2
    result on a convex set contradicts the paper's convex minimum of 3: it
    gets the same note and fails the case.
    """
    if any(n < 5 for n in ns):
        raise ValueError("the bracket suite needs n >= 5")
    for n in ns:
        for seed in seeds:
            s = random_points(n, seed)
            try:
                res = min_forbidden_set_size(s, n, 3)
            except SearchBudgetExceeded:
                yield CaseResult("bracket", {"n": n, "seed": seed}, False, unknown=True)
                continue
            ok = res is not None and res.size in (2, 3)
            note = ""
            if res is not None and res.size == 2:
                convex = is_convex_position(s)
                ok = not convex
                shape = "convex" if convex else "NON-CONVEX"
                note = (f"NOTABLE: 2-edge forbidding set on {shape} set "
                        f"(n={n}, seed={seed}): {[e.to_json() for e in res.edges]} "
                        f"blocks tree {list(res.tree.edges)}")
            yield CaseResult("bracket", {"n": n, "seed": seed}, ok, note=note,
                             counters={"size": res.size if res else 0})


SUITES = {
    "baseline": suite_baseline,
    "single-edge": suite_single_edge,
    "few-hull": suite_few_hull,
    "two-edge-convex": suite_two_edge_convex,
    "conf3": suite_conf3,
    "three-pairs": suite_three_pairs,
    "blanket": suite_blanket,
    "bounds": suite_bounds,
    "bracket": suite_bracket,
}
