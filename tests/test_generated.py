"""The constructive embedders on generated point sets, checked against the oracle.

Coordinates are drawn from a small box, so near-degenerate sets (almost
collinear triples, tight clusters) are common; a drawn point that would
break general position is dropped.
"""
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from forbidtree.embedding import embed_avoiding_single, embed_convex_avoiding_two
from forbidtree.geometry import Edge, EdgeSet, GeneralPositionError, PointSet
from forbidtree.oracle import exists_embedding
from forbidtree.trees import all_trees


@st.composite
def general_sets(draw):
    """5 to 8 points in general position, coordinates in [-30, 30]."""
    coord = st.integers(-30, 30)
    pts: list[tuple[int, int]] = []
    for p in draw(st.lists(st.tuples(coord, coord), min_size=5, max_size=12)):
        try:
            PointSet(pts + [p])
        except GeneralPositionError:
            continue
        pts.append(p)
    assume(len(pts) >= 5)
    return PointSet(pts[:8])


@st.composite
def convex_sets(draw):
    """5 to 8 points on a parabola, so in convex and general position.

    All convex n-gons have the same order type, so what varies is which
    label sits where on the hull and which hull vertex is lowest.
    """
    xs = draw(st.lists(st.integers(-20, 20), min_size=5, max_size=8, unique=True))
    flip = draw(st.sampled_from([1, -1]))
    pts = [(x, flip * x * x) for x in xs]
    if draw(st.booleans()):
        pts = [(y, x) for x, y in pts]
    return PointSet(pts)


def edges_of(n: int) -> list[Edge]:
    return [Edge(a, b) for a in range(n) for b in range(a + 1, n)]


def check_against_oracle(t, s, emb, forbidden: EdgeSet) -> None:
    assert sorted(emb.assignment) == list(range(len(s)))
    assert emb.avoids(forbidden) and emb.crossing_count() == 0
    report = exists_embedding(t, s, forbidden)
    assert report.feasible is True and report.witness.avoids(forbidden)


@settings(max_examples=60, deadline=None)
@given(st.one_of(general_sets(), convex_sets()), st.data())
def test_single_edge_avoidance_on_generated_sets(s, data):
    n = len(s)
    t = data.draw(st.sampled_from(all_trees(n)))
    e = data.draw(st.sampled_from(edges_of(n)))
    check_against_oracle(t, s, embed_avoiding_single(t, s, e), EdgeSet([e]))


@settings(max_examples=60, deadline=None)
@given(convex_sets(), st.data())
def test_two_edge_avoidance_on_generated_convex_sets(s, data):
    n = len(s)
    t = data.draw(st.sampled_from(all_trees(n)))
    f1, f2 = (data.draw(st.sampled_from(edges_of(n))) for _ in range(2))
    check_against_oracle(t, s, embed_convex_avoiding_two(t, s, f1, f2), EdgeSet([f1, f2]))
