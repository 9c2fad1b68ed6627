"""Prufer-sequence tree enumeration: the independent reference for all_trees.

Decoding the k^(k-2) labelled trees in sequence order and keeping the
first of each isomorphism class shares no logic with the leaf-growth
enumerator in the package, so tests compare the two. Decoding stops once
every class is seen; the class counts are the published ones (OEIS A000055),
so the stop does not depend on the package either.
"""
from __future__ import annotations

import itertools
from functools import lru_cache

from forbidtree.trees import Tree, ahu_canonical

# Trees on k unlabelled vertices, k = 2..10 (OEIS A000055).
TREE_COUNTS = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}


def prufer_to_edges(seq: tuple[int, ...], k: int) -> list[tuple[int, int]]:
    """Decode a Prufer sequence; repeatedly joins the smallest current leaf.

    Pointer trick: consumed vertices drop to degree 0 so the forward scan
    skips them; a vertex below the pointer that just became a leaf is used
    immediately (it is smaller than every unscanned candidate).
    """
    degree = [1] * k
    for x in seq:
        degree[x] += 1
    edges = []
    ptr = 0
    leaf = -1
    for x in seq:
        if leaf < 0:
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
            ptr += 1
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
        leaf = x if (degree[x] == 1 and x < ptr) else -1
    last = [v for v in range(k) if degree[v] == 1]
    edges.append((last[0], last[1]))
    return edges


@lru_cache(maxsize=None)
def prufer_trees(k: int) -> tuple[Tree, ...]:
    """First-decoded representative of each class, sorted by canonical string."""
    if k == 2:
        return (Tree(2, [(0, 1)]),)
    found: dict[str, Tree] = {}
    for seq in itertools.product(range(k), repeat=k - 2):
        t = Tree(k, prufer_to_edges(seq, k))
        found.setdefault(ahu_canonical(t), t)
        if len(found) == TREE_COUNTS[k]:
            break
    return tuple(found[c] for c in sorted(found))
