"""Exhaustive backtracking oracle for tree embeddability under forbidden edges.

This is the ground truth the constructive embedders and the forbidden-set
constructions are checked against. A feasibility search is exact within its
node budget; running out of budget is a distinct "unknown" outcome, never
conflated with infeasibility.
"""
from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

from .embedding import Embedding
from .geometry import Edge, EdgeSet, PointSet, convex_hull, is_convex_position
from .trees import Tree, all_trees, root_at

DEFAULT_BUDGET = 10**8


class SearchBudgetExceeded(RuntimeError):
    """A search hit its node budget before reaching a verdict."""


@dataclass
class SearchReport:
    """Outcome of one feasibility search.

    feasible is True/False for settled verdicts and None when the budget ran
    out; a witness is present exactly when feasible is True.
    """

    feasible: bool | None
    witness: Embedding | None
    nodes_expanded: int
    prunes: dict[str, int] = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def unknown(self) -> bool:
        return self.feasible is None

    def to_json(self) -> dict:
        return {
            "feasible": "unknown" if self.feasible is None else self.feasible,
            "witness": self.witness.to_json() if self.witness else None,
            "nodes": self.nodes_expanded,
            "prunes": dict(self.prunes),
            "ms": round(self.elapsed * 1000, 3),
        }


def _search_order(t: Tree, start: int | None = None) -> list[int]:
    """BFS order from a max-degree vertex: early placements constrain most edges."""
    if start is None:
        start = min(range(t.k), key=lambda v: (-t.degree(v), v))
    order = []
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        order.append(u)
        for w in t.adjacency[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return order


@lru_cache(maxsize=None)
def _edge_bits(n: int) -> tuple[int, ...]:
    """Bit of edge {u, v} (id ``min * n + max``) at index u * n + v, both orders."""
    return tuple(1 << (min(u, v) * n + max(u, v)) for u in range(n) for v in range(n))


def exists_embedding(
    t: Tree,
    s: PointSet,
    forbidden: EdgeSet | None = None,
    budget: int = DEFAULT_BUDGET,
    vertex_order: list[int] | None = None,
) -> SearchReport:
    """Decide whether the tree embeds into the point set avoiding forbidden edges.

    DFS over injective vertex-to-point assignments in a BFS vertex order, so
    each newly placed vertex adds exactly one drawn edge; branches are pruned
    the moment that edge is forbidden or crosses an earlier one. The drawn
    and the forbidden edges are int masks of edge ids, so a candidate edge
    costs one row of ``s.crossing_sets()`` and two ``&`` tests. Points are
    tried in ascending order. Exhaustive within the budget.
    """
    k, n = t.k, len(s)
    if k > n:
        raise ValueError(f"tree on {k} vertices cannot embed into {n} points")
    if budget <= 0:
        raise ValueError("budget must be positive")
    forbidden = forbidden or EdgeSet()
    forbidden.validate_for(s)
    forb_mask = 0
    for e in forbidden:
        forb_mask |= 1 << s.edge_id(e)
    start = time.perf_counter()

    if k == 1:
        emb = Embedding(root_at(t, 0), s, (0,))
        prunes = {"crossing": 0, "forbidden": 0}
        return SearchReport(True, emb, 1, prunes, time.perf_counter() - start)

    order = vertex_order if vertex_order is not None else _search_order(t)
    if sorted(order) != list(range(k)):
        raise ValueError("vertex_order must be a permutation of the vertices")
    # parent of each vertex among its predecessors in the order
    placed_rank = {v: i for i, v in enumerate(order)}
    parent_of = [-1] * k
    for v in order[1:]:
        earlier = [w for w in t.adjacency[v] if placed_rank[w] < placed_rank[v]]
        if len(earlier) != 1:
            raise ValueError("vertex_order must place a neighbor before each vertex")
        parent_of[v] = earlier[0]

    cross = s.crossing_sets()
    edge_bit = _edge_bits(n)
    asg = [-1] * k
    used = [False] * n
    nodes = crossing_prunes = forbidden_prunes = 0
    last = k - 1

    def dfs(i: int, placed: int) -> bool:
        """Place order[i] (i >= 1) next to its placed parent; placed = drawn edge bits."""
        nonlocal nodes, crossing_prunes, forbidden_prunes
        v = order[i]
        row = asg[parent_of[v]] * n
        for pt in range(n):
            if used[pt]:
                continue
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded
            bit = edge_bit[row + pt]
            if forb_mask & bit:
                forbidden_prunes += 1
                continue
            if cross[row + pt] & placed:
                crossing_prunes += 1
                continue
            used[pt] = True
            asg[v] = pt
            if i == last or dfs(i + 1, placed | bit):
                return True
            used[pt] = False
        return False

    def search() -> bool:
        nonlocal nodes
        root = order[0]
        for pt in range(n):
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded
            used[pt] = True
            asg[root] = pt
            if dfs(1, 0):
                return True
            used[pt] = False
        return False

    try:
        found = search()
    except SearchBudgetExceeded:
        found = None
    prunes = {"crossing": crossing_prunes, "forbidden": forbidden_prunes}
    witness = None
    if found:
        witness = Embedding(root_at(t, order[0]), s, tuple(asg))
        witness.validate()
        if not witness.avoids(forbidden):
            raise AssertionError("oracle witness uses a forbidden edge")
    return SearchReport(found, witness, nodes, prunes, time.perf_counter() - start)


def forbids(
    forbidden: EdgeSet,
    t: Tree,
    s: PointSet,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """True iff every embedding of the tree uses a forbidden edge."""
    report = exists_embedding(t, s, forbidden, budget)
    if report.unknown:
        raise SearchBudgetExceeded(f"verdict unknown after {report.nodes_expanded} nodes")
    return not report.feasible


MAX_SEARCH_POINTS = 7


@dataclass(frozen=True)
class MinForbidResult:
    size: int
    edges: EdgeSet
    tree: Tree


def _dihedral_canonical(positions: dict[int, int], n: int, subset: tuple[Edge, ...]):
    """Canonical form of an edge subset under hull rotations and reflections."""
    pos_pairs = [(positions[e.a], positions[e.b]) for e in subset]
    best = None
    for r in range(n):
        for refl in (False, True):
            mapped = []
            for a, b in pos_pairs:
                if refl:
                    a, b = (r - a) % n, (r - b) % n
                else:
                    a, b = (a + r) % n, (b + r) % n
                mapped.append((a, b) if a < b else (b, a))
            mapped.sort()
            key = tuple(mapped)
            if best is None or key < best:
                best = key
    return best


def min_forbidden_set_size(
    s: PointSet,
    k: int,
    size_cap: int,
    budget: int = DEFAULT_BUDGET,
) -> MinForbidResult | None:
    """Smallest edge subset (up to the cap) forbidding some k-vertex tree.

    Enumerates subsets in size order; for convex inputs only one
    representative per dihedral symmetry class of the hull order is tested.
    Returns None when no subset within the cap forbids any tree.
    """
    n = len(s)
    if n > MAX_SEARCH_POINTS:
        raise ValueError(f"practical range is n <= {MAX_SEARCH_POINTS}")
    if not (2 <= k <= n):
        raise ValueError("need 2 <= k <= n")
    if size_cap < 1:
        raise ValueError("size_cap must be positive")
    trees = all_trees(k)
    edges = [Edge(a, b) for a in range(n) for b in range(a + 1, n)]
    hull_pos = None
    if is_convex_position(s):
        hull_pos = {idx: p for p, idx in enumerate(convex_hull(s))}
    seen_classes: set = set()
    for m in range(1, min(size_cap, len(edges)) + 1):
        seen_classes.clear()
        for combo in itertools.combinations(edges, m):
            if hull_pos is not None:
                key = _dihedral_canonical(hull_pos, n, combo)
                if key in seen_classes:
                    continue
                seen_classes.add(key)
            fset = EdgeSet(combo)
            for t in trees:
                if forbids(fset, t, s, budget):
                    return MinForbidResult(m, fset, t)
    return None

