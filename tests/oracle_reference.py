"""The oracle's depth-first search as it stood before candidate rows: the reference.

A frozen copy of ``exists_embedding``'s search loop, which looped over every
point at every level and indexed the crossing table by ``row + pt``. The
package oracle has to dominate it: wherever the reference settles within a
budget, the oracle settles too, with the same verdict and witness
assignment; unbounded, it expands no more nodes and prunes no more
branches; and its own budget cut-off is exact. A rewrite of the loop may
visit fewer nodes (twin subtrees are tried in one point order), but never
another witness.
"""
from __future__ import annotations

from forbidtree.geometry import EdgeSet, PointSet
from forbidtree.trees import Tree, root_at


class _BudgetExceeded(Exception):
    pass


def reference_search(
    t: Tree,
    s: PointSet,
    forbidden: EdgeSet,
    budget: int,
) -> tuple[bool | None, int, dict[str, int], tuple[int, ...] | None]:
    """(feasible, nodes_expanded, prunes, witness assignment) as the old oracle reported them."""
    k, n = t.k, len(s)
    forb_mask = 0
    for e in forbidden:
        forb_mask |= 1 << s.edge_id(e)
    rt = root_at(t, min(range(k), key=lambda v: (-t.degree(v), v)))
    order, parent_of = rt.order, rt.parent

    cross = s.crossing_sets()
    edge_bit = tuple(1 << (min(u, v) * n + max(u, v)) for u in range(n) for v in range(n))
    asg = [-1] * k
    used = [False] * n
    nodes = crossing_prunes = forbidden_prunes = 0
    last = k - 1

    def dfs(i: int, placed: int) -> bool:
        nonlocal nodes, crossing_prunes, forbidden_prunes
        v = order[i]
        row = asg[parent_of[v]] * n
        for pt in range(n):
            if used[pt]:
                continue
            nodes += 1
            if nodes > budget:
                raise _BudgetExceeded
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
                raise _BudgetExceeded
            used[pt] = True
            asg[root] = pt
            if k == 1 or dfs(1, 0):
                return True
            used[pt] = False
        return False

    try:
        found = search()
    except _BudgetExceeded:
        found = None
    prunes = {"crossing": crossing_prunes, "forbidden": forbidden_prunes}
    return found, nodes, prunes, tuple(asg) if found else None
