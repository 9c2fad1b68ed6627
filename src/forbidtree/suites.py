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
from .trees import MAX_ENUM_VERTICES, all_trees, root_at, spider_tree

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


def _case(suite: str, params: dict, check, *args, **kwargs) -> CaseResult:
    """Settle one case: check(counters, *args, **kwargs) returns (verdict, note).

    The verdict is True, False or None (unknown). Here alone an exception
    becomes an outcome: a search run-out makes the case unknown, and an
    embedder defect fails it with the defect as its note, keeping the
    counters written so far. Other exceptions, such as bad input, propagate.
    """
    counters: dict = {}
    try:
        verdict, note = check(counters, *args, **kwargs)
    except SearchBudgetExceeded:
        verdict, note = None, ""
    except EmbeddingDefectError as ex:
        verdict, note = False, f"{type(ex).__name__}: {ex}"
    return CaseResult(suite, params, bool(verdict), unknown=verdict is None,
                      note=note, counters=counters)


def _avoids(counters: dict, embed, s: PointSet, cases) -> tuple[bool | None, str]:
    """embed(t, s, *edges) avoids the edges for each (t, edges) case, up to the first failure.

    A case fails on a drawing with a forbidden edge or a crossing, or when
    the oracle finds no drawing that avoids the edges. With no failure, an
    oracle run-out makes the verdict unknown. The counter is the cases run.
    """
    counters["checked"] = 0
    verdict = True
    for t, edges in cases:
        counters["checked"] += 1
        emb = embed(t, s, *edges)
        forbidden = EdgeSet(edges)
        if not emb.avoids(forbidden) or emb.crossing_count() != 0:
            return False, "invalid avoiding embedding"
        feasible = exists_embedding(t, s, forbidden).feasible
        if feasible is None:
            verdict = None
        elif not feasible:
            return False, "oracle disagrees"
    return verdict, ""


def _blocks(counters: dict, c: ForbidConstruction, s: PointSet, ok: bool = True, **found):
    """c blocks its target tree on s, and ok holds; found joins the counters after the search."""
    blocked = forbids(c.edges, c.target_tree, s)
    counters.update(found)
    return blocked and ok, ""


def _trees_for(ns: Sequence[int]) -> list[tuple[int, list]]:
    """(n, all_trees(n)) for every n, built before the first case so a bad n yields nothing."""
    return [(n, all_trees(n)) for n in ns]


def suite_baseline(ns: Sequence[int] = range(5, 9),
                   seeds: Sequence[int] = range(1, 21)) -> Iterator[CaseResult]:
    """Every tree embeds into every seeded general-position set, crossing-free."""
    def check(counters, s, trees):
        counters["trees"] = len(trees)
        return all(embed_recursive(root_at(t, 0), s).crossing_count() == 0
                   for t in trees), ""

    for n, trees in _trees_for(ns):
        for seed in seeds:
            yield _case("baseline", {"n": n, "seed": seed}, check, random_points(n, seed), trees)


def suite_single_edge(ns: Sequence[int] = range(5, 8),
                      seeds: Sequence[int] = range(1, 11)) -> Iterator[CaseResult]:
    """Constructive single-edge avoidance, confirmed feasible by the oracle."""
    for n, trees in _trees_for(ns):
        edges = [Edge(a, b) for a in range(n) for b in range(a + 1, n)]
        for mode, gen in (("convex", convex_points), ("random", random_points)):
            for seed in seeds:
                yield _case("single-edge", {"n": n, "mode": mode, "seed": seed},
                            _avoids, embed_avoiding_single, gen(n, seed),
                            ((t, (e,)) for t in trees for e in edges))


def suite_few_hull(ns: Sequence[int] = range(5, 10)) -> Iterator[CaseResult]:
    """Hull-edge usage strictly below n/2 for every tree on the convex n-gon."""
    def check(counters, t, s):
        emb = embed_few_hull_edges(t, s)
        counters["hull_edges"] = used = emb.hull_edges_used()
        return used * 2 < len(s) and emb.crossing_count() == 0, ""

    for n, trees in _trees_for(ns):
        s = convex_points(n, seed=1)
        for t in trees:
            yield _case("few-hull", {"n": n, "tree": list(t.edges)}, check, t, s)


def suite_two_edge_convex(ns: Sequence[int] = (5, 6, 7)) -> Iterator[CaseResult]:
    """Every pair of forbidden edges is avoidable on the convex n-gon.

    Also checks that the smallest forbidding subset on the convex n-gon has
    size exactly 3 (no singleton or pair forbids; some triple does).
    """
    def min_is_three(counters, s, n):
        res = min_forbidden_set_size(s, n, 3)
        counters["found"] = res.size if res else 0
        return res is not None and res.size == 3, ""

    for n, trees in _trees_for(ns):
        s = convex_points(n, seed=1)
        edges = [Edge(a, b) for a in range(n) for b in range(a + 1, n)]
        yield _case("two-edge-convex", {"n": n}, _avoids, embed_convex_avoiding_two, s,
                    ((t, pair) for t in trees for pair in itertools.combinations(edges, 2)))
        yield _case("two-edge-convex", {"n": n, "min_forbidden": True}, min_is_three, s, n)


def suite_conf3(ns: Sequence[int] = range(5, 10)) -> Iterator[CaseResult]:
    """Three consecutive hull edges block the spider tree, and sharply so."""
    def embeds(counters, s, rest):
        rep = exists_embedding(spider_tree(len(s)), s, rest)
        counters["nodes"] = rep.nodes_expanded
        return rep.feasible, ""

    for n in ns:
        s = convex_points(n, seed=1)
        c = three_consecutive_hull_edges(s, start=0)
        case = _case("conf3", {"n": n}, _blocks, c, s)
        yield case
        if case.unknown:
            continue
        for drop in c.edges:
            yield _case("conf3", {"n": n, "dropped": drop.to_json()}, embeds, s,
                        EdgeSet(e for e in c.edges if e != drop))


def suite_three_pairs(ns: Sequence[int] = range(6, 10)) -> Iterator[CaseResult]:
    """Three spread pairs of consecutive hull edges block the spider tree."""
    for n in ns:
        s = convex_points(n, seed=1)
        mids = spread_middles(n)
        c = three_pairs_consecutive_hull_edges(s, mids)
        yield _case("three-pairs", {"n": n, "middles": list(mids)}, _blocks, c, s)


def suite_blanket() -> Iterator[CaseResult]:
    """The depth blanket blocks the k-spider on every k-subset, within size bound."""
    for n, k in BLANKET_PAIRS:
        s = convex_points(n, seed=1)
        c = r_edge_blanket(s, k)
        yield _case("blanket", {"n": n, "k": k}, _blocks, c, s,
                    len(c.edges) <= upper_bound_value(n, k),
                    edges=len(c.edges), threshold=c.params["threshold"])


def suite_bounds(seeds: Sequence[int] = range(1, 6)) -> Iterator[CaseResult]:
    """Lower bound never exceeds upper bound; small point sets respect the floor."""
    def ordered(counters, n):
        return all(turan_lower_bound(n, k) <= upper_bound_value(n, k)
                   for k in range(3, n + 1)), ""

    def floor_holds(counters, s, n):
        for k in range(3, n + 1):
            floor = math.ceil(turan_lower_bound(n, k))
            if floor > 1 and (res := min_forbidden_set_size(s, k, floor - 1)) is not None:
                return False, f"subset of size {res.size} < {floor} forbids k={k}"
        return True, ""

    for n in range(5, BOUNDS_N_MAX + 1):
        yield _case("bounds", {"n": n}, ordered, n)
    for n in BRUTE_NS:
        for seed in seeds:
            yield _case("bounds", {"n": n, "seed": seed, "brute": True},
                        floor_holds, random_points(n, seed), n)


def suite_bracket(ns: Sequence[int] = (5, 6),
                  seeds: Sequence[int] = range(1, 11)) -> Iterator[CaseResult]:
    """Minimum forbidding size on spanning trees: 3 on convex sets, 2 or 3 otherwise.

    A size-2 result on a non-convex set is an open-gap sighting and is
    reported prominently in the note, not treated as a failure. A size-2
    result on a convex set contradicts the paper's convex minimum of 3: it
    gets the same note and fails the case.
    """
    def check(counters, s, n, seed):
        res = min_forbidden_set_size(s, n, 3)
        counters["size"] = res.size if res else 0
        if res is None or res.size != 2:
            return res is not None and res.size == 3, ""
        convex = is_convex_position(s)
        shape = "convex" if convex else "NON-CONVEX"
        return not convex, (f"NOTABLE: 2-edge forbidding set on {shape} set "
                            f"(n={n}, seed={seed}): {[e.to_json() for e in res.edges]} "
                            f"blocks tree {list(res.tree.edges)}")

    if not all(5 <= n <= MAX_ENUM_VERTICES for n in ns):
        raise ValueError(f"the bracket suite needs 5 <= n <= {MAX_ENUM_VERTICES}")
    for n in ns:
        for seed in seeds:
            yield _case("bracket", {"n": n, "seed": seed}, check, random_points(n, seed), n, seed)


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
