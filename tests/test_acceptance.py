"""Acceptance criteria, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (shown with ``pytest -s``, or in
the captured output of a failing run; with ``pytest -v`` the test names
themselves give the per-criterion verdict lines).
"""
import random

from forbidtree.embedding import embed_recursive, rotate_embedding
from forbidtree.generators import convex_points, random_points
from forbidtree.geometry import (
    Edge,
    Point,
    angular_sort,
    convex_hull,
    edge_depth,
    orient,
    segments_cross,
)
from forbidtree.suites import (
    suite_baseline,
    suite_blanket,
    suite_bounds,
    suite_bracket,
    suite_conf3,
    suite_few_hull,
    suite_single_edge,
    suite_three_pairs,
    suite_two_edge_convex,
)
from forbidtree.trees import all_trees, root_at


def _run_suite(num: int, label: str, cases) -> None:
    results = list(cases)
    failed = [c for c in results if not c.ok]
    for c in results:
        if c.note:
            print(c.note)
    status = "PASS" if not failed else "FAIL"
    print(f"[{status}] criterion {num}: {label} ({len(results)} cases, "
          f"{len(failed)} failures)")
    assert not failed, f"criterion {num} failed cases: {[c.params for c in failed[:5]]}"


def test_criterion_01_baseline_embedding():
    _run_suite(1, "every tree embeds crossing-free into 20 seeded sets, n=5..8",
               suite_baseline(ns=range(5, 9), seeds=range(1, 21)))


def test_criterion_02_single_forbidden_edge():
    _run_suite(2, "single-edge avoidance over all trees x edges x 20 sets, n=5..7",
               suite_single_edge(ns=range(5, 8), seeds=range(1, 11)))


def test_criterion_03_few_hull_edges():
    _run_suite(3, "hull-edge usage < n/2 on the convex n-gon, n=5..9",
               suite_few_hull(ns=range(5, 10)))


def test_criterion_04_two_edge_convex():
    _run_suite(4, "every pair of forbidden edges avoidable on convex n=5..7; "
                  "minimum forbidding size is exactly 3",
               suite_two_edge_convex(ns=(5, 6, 7)))


def test_criterion_05_three_consecutive_hull_edges():
    _run_suite(5, "three consecutive hull edges block the spider, sharply, n=5..9",
               suite_conf3(ns=range(5, 10)))


def test_criterion_06_three_pairs():
    _run_suite(6, "three spread pairs of hull edges block the spider, n=6..9",
               suite_three_pairs(ns=range(6, 10)))


def test_criterion_07_blanket_upper_bound():
    _run_suite(7, "depth blanket blocks the k-spider on all k-subsets, within size bound",
               suite_blanket())


def test_criterion_08_bound_consistency():
    _run_suite(8, "lower <= upper for 5<=n<=30; brute minimum respects the floor",
               suite_bounds(seeds=range(1, 6)))


def test_criterion_09_spanning_bracket():
    _run_suite(9, "minimum forbidding size for spanning trees lands in {2,3}",
               suite_bracket(ns=(5, 6), seeds=range(1, 11)))


def test_criterion_10_property_suites():
    checks = 0

    # orientation antisymmetry
    rng = random.Random(101)
    done = 0
    while done < 1000:
        p, q, r = (Point(rng.randint(-999, 999), rng.randint(-999, 999))
                   for _ in range(3))
        if len({p, q, r}) < 3:
            continue
        assert orient(p, q, r) == -orient(p, r, q)
        done += 1
    checks += done

    # crossing symmetry
    done = 0
    seed = 0
    while done < 1000:
        seed += 1
        s = random_points(8, seed=seed)
        edges = [Edge(a, b) for a in range(8) for b in range(a + 1, 8)]
        for _ in range(100):
            e1, e2 = rng.choice(edges), rng.choice(edges)
            assert segments_cross(s, e1, e2) == segments_cross(s, e2, e1)
            done += 1
    checks += done

    # hull-edge iff depth-0
    done = 0
    seed = 100
    while done < 1000:
        seed += 1
        s = random_points(8, seed=seed)
        hull = convex_hull(s)
        hull_edges = {Edge(hull[i], hull[(i + 1) % len(hull)])
                      for i in range(len(hull))}
        for a in range(8):
            for b in range(a + 1, 8):
                e = Edge(a, b)
                assert (edge_depth(s, e) == 0) == (e in hull_edges)
                done += 1
    checks += done

    # angular-sort CCW chain property
    done = 0
    seed = 300
    while done < 1000:
        seed += 1
        s = random_points(8, seed=seed)
        for center in convex_hull(s):
            rest = [i for i in range(8) if i != center]
            out = angular_sort(s, center, rest)
            assert sorted(out) == rest
            for a, b in zip(out, out[1:]):
                assert s.orient_idx(center, a, b) == 1
            done += 1
    checks += done

    # tree-count sequence
    assert [len(all_trees(k)) for k in range(2, 9)] == [1, 1, 2, 3, 6, 11, 23]
    checks += 7

    # rotation preserves planarity
    done = 0
    for n in (6, 7):
        s = convex_points(n, seed=1)
        for t in all_trees(n):
            emb = embed_recursive(root_at(t, 0), s)
            for i in range(2 * n):
                rot = rotate_embedding(emb, i)
                assert rot.crossing_count() == 0
                done += 1
            if done >= 1000:
                break
    assert done >= 200  # 17 trees x 2n rotations
    checks += done

    print(f"[PASS] criterion 10: property suites ({checks} randomized checks)")
