"""Abstract trees: spiders, rooting, canonical forms, exhaustive generation.

Canonical strings use sorted-parenthesization AHU encoding rooted at the
tree center(s); two trees get equal strings iff they are isomorphic. The
encoding is stable across releases.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Sequence

from .geometry import json_field, json_ints

MAX_ENUM_VERTICES = 10


class Tree:
    """Unrooted tree on k vertices given by its edge list."""

    def __init__(self, k: int, edges: Iterable[tuple[int, int]]):
        edges = [tuple(sorted(e)) for e in edges]
        if len(edges) != k - 1:
            raise ValueError(f"a tree on {k} vertices needs {k - 1} edges")
        adjacency: list[list[int]] = [[] for _ in range(k)]
        seen = set()
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                raise TypeError(f"tree edge endpoints must be integers, got ({u!r}, {v!r})")
            if u == v:
                raise ValueError("self-loop")
            if not (0 <= u < k and 0 <= v < k):
                raise ValueError("vertex index out of range")
            if (u, v) in seen:
                raise ValueError("parallel edge")
            seen.add((u, v))
            adjacency[u].append(v)
            adjacency[v].append(u)
        self.k = k
        self.adjacency = tuple(tuple(sorted(nbrs)) for nbrs in adjacency)
        self.edges = tuple(sorted(seen))
        if k > 1 and len(_bfs(self.adjacency, 0)[0]) != k:
            raise ValueError("tree is not connected")

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def is_path(self) -> bool:
        return self.k <= 2 or all(self.degree(v) <= 2 for v in range(self.k))

    def __eq__(self, other):
        return isinstance(other, Tree) and self.k == other.k and self.edges == other.edges

    def __hash__(self):
        return hash((self.k, self.edges))

    def __repr__(self):
        return f"Tree(k={self.k}, edges={list(self.edges)})"

    def to_json(self) -> dict:
        return {"k": self.k, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json(cls, data: dict) -> "Tree":
        edges = [tuple(json_ints(e, 2)) for e in json_field(data, "edges")]
        return cls(json_field(data, "k", int), edges)


def _bfs(adjacency: tuple[tuple[int, ...], ...], v: int) -> tuple[list[int], list[int | None]]:
    """Breadth-first order from v, neighbours in adjacency order, and each vertex's parent.

    Vertices that v does not reach are left out of the order.
    """
    parent: list[int | None] = [None] * len(adjacency)
    order = [v]
    seen = {v}
    for u in order:
        for w in adjacency[u]:
            if w not in seen:
                seen.add(w)
                parent[w] = u
                order.append(w)
    return order, parent


@dataclass(frozen=True)
class RootedTree:
    """Tree plus root, parent pointers, ordered children and subtree sizes.

    ``order`` is the breadth-first order from the root (neighbours by
    ascending index), so every vertex comes after its parent.
    """

    tree: Tree
    root: int
    children: tuple[tuple[int, ...], ...]
    parent: tuple[int | None, ...]
    subtree_size: tuple[int, ...]
    order: tuple[int, ...]

    @property
    def k(self) -> int:
        return self.tree.k


def root_at(t: Tree, v: int) -> RootedTree:
    """Root the tree at v; children initially in ascending index order."""
    if not (0 <= v < t.k):
        raise ValueError(f"vertex {v} out of range")
    order, parent = _bfs(t.adjacency, v)
    children: list[list[int]] = [[] for _ in range(t.k)]
    size = [1] * t.k
    for u in order[1:]:
        children[parent[u]].append(u)
    for u in reversed(order[1:]):
        size[parent[u]] += size[u]
    return RootedTree(
        tree=t,
        root=v,
        children=tuple(tuple(c) for c in children),
        parent=tuple(parent),
        subtree_size=tuple(size),
        order=tuple(order),
    )


def sort_children_by_subtree_size(rt: RootedTree) -> RootedTree:
    """Reorder every child list by ascending subtree size; ties break by vertex index."""
    children = tuple(
        tuple(sorted(kids, key=lambda c: (rt.subtree_size[c], c))) for kids in rt.children
    )
    return replace(rt, children=children)


def spider_tree(n: int) -> Tree:
    """The spider T_n: vertex 0 is the center.

    n = 2 is a single edge. Odd n: (n-1)/2 legs, each a path of length 2.
    Even n > 2: one leg of length 3 and (n-4)/2 legs of length 2 (one leg of
    the odd spider on n-1 vertices with an edge subdivided; any choice of
    subdivided edge gives an isomorphic tree).
    """
    if n < 2:
        raise ValueError("spider trees need n >= 2")
    if n == 2:
        return Tree(2, [(0, 1)])
    edges = []
    nxt = 1
    if n % 2 == 0:
        edges += [(0, 1), (1, 2), (2, 3)]
        nxt = 4
    while nxt < n:
        edges += [(0, nxt), (nxt, nxt + 1)]
        nxt += 2
    return Tree(n, edges)


def _center_vertices(t: Tree) -> list[int]:
    """1 or 2 middle vertices found by repeatedly stripping leaves."""
    if t.k == 1:
        return [0]
    degree = [t.degree(v) for v in range(t.k)]
    layer = [v for v in range(t.k) if degree[v] == 1]
    remaining = t.k
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            for u in t.adjacency[v]:
                degree[u] -= 1
                if degree[u] == 1:
                    nxt.append(u)
            degree[v] = 0
        layer = nxt
    return sorted(layer)


def _ahu_codes(t: Tree, order: Sequence[int], parent: Sequence[int | None]) -> list[str]:
    """AHU code of each vertex's subtree: "(" + its children's sorted codes + ")".

    Built leaves first over a breadth-first ``order``, so no call stack grows.
    """
    code = [""] * t.k
    for v in reversed(order):
        code[v] = "(" + "".join(sorted(code[u] for u in t.adjacency[v] if u != parent[v])) + ")"
    return code


def ahu_canonical(t: Tree) -> str:
    """Canonical string: minimum center-rooted AHU encoding."""
    return min(_ahu_codes(t, *_bfs(t.adjacency, c))[c] for c in _center_vertices(t))


@lru_cache(maxsize=None)
def _all_trees_grow(k: int) -> tuple[Tree, ...]:
    """Extend every (k-1)-vertex class by one leaf in every position.

    Every tree on k vertices arises from a tree on k-1 vertices by leaf
    removal, so this enumeration is exhaustive; AHU dedup keeps one
    representative per class.
    """
    level = {ahu_canonical(Tree(2, [(0, 1)])): Tree(2, [(0, 1)])}
    for m in range(3, k + 1):
        nxt: dict[str, Tree] = {}
        for t in level.values():
            for v in range(t.k):
                grown = Tree(m, list(t.edges) + [(v, m - 1)])
                canon = ahu_canonical(grown)
                if canon not in nxt:
                    nxt[canon] = grown
        level = nxt
    return tuple(level[c] for c in sorted(level))


def all_trees(k: int) -> list[Tree]:
    """One representative per isomorphism class of trees on k vertices.

    Deterministic order (sorted by canonical string). Supported for
    2 <= k <= 10.
    """
    if not (2 <= k <= MAX_ENUM_VERTICES):
        raise ValueError(f"supported range is 2..{MAX_ENUM_VERTICES}")
    return list(_all_trees_grow(k))
