"""The benchmark's four workloads.

Each workload has a program-side set-up (timed as setup_s), a fixed list
of operations that makes up one round, the operation (whose program calls
are timed), and checks that run outside every timed interval. Every operation of a
workload does the same kind of work at the same input size, so that
per-operation times fall in one cluster and their median is steady.

The program is reached only through module attributes (``ft.<name>`` and
``cli.main``), so that the traced run's wrappers see every call.
"""
from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

import forbidtree as ft
from forbidtree import cli

import checker


class OpFailed(RuntimeError):
    """An operation ended with an error instead of an output."""


def run_cli(clock, argv: list[str]) -> None:
    code = clock(cli.main, argv)
    if code != 0:
        raise OpFailed(f"forbidtree {argv[0]} exited with {code}")


def coords(s) -> list[tuple[int, int]]:
    return [(p.x, p.y) for p in s]


def write_json(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def input_seed(seed: int, i: int) -> int:
    """Generator seed of the i-th input of a run with the given --seed."""
    return seed * 1000 + i


class Workload:
    name = ""
    setups = 5  # set-ups per run; setup_s is their median

    def setup(self, seed: int, workdir: Path) -> dict:
        raise NotImplementedError

    def op(self, state: dict, item, clock):
        """Run one operation, passing each program call through clock(fn, *args)."""
        raise NotImplementedError

    def check(self, state: dict, item, out) -> None:
        """Check one operation's output; raise checker.CheckError if wrong."""

    def final_check(self, state: dict) -> None:
        """Checks made once per run, after all timing."""


class EmbedDeep(Workload):
    """`forbidtree embed` with no forbidden edge, caterpillar trees, 80 random points.

    The spine is a path 0..47 rooted at its end vertex 0; leg j (vertex
    48 + j) hangs from a spine vertex drawn from the j-th of 32 equal
    strata of the spine, so every tree has the same even shape and the
    per-op cost clusters tightly.
    """

    name = "embed-deep"
    n, spine, inputs = 80, 48, 8

    def caterpillar(self, rng: random.Random) -> list[tuple[int, int]]:
        legs = self.n - self.spine
        edges = [(v, v + 1) for v in range(self.spine - 1)]
        for j in range(legs):
            lo, hi = j * self.spine // legs, (j + 1) * self.spine // legs
            edges.append((rng.randrange(lo, hi), self.spine + j))
        return edges

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        items = []
        for i in range(self.inputs):
            pts = coords(ft.random_points(self.n, input_seed(seed, i)))
            edges = self.caterpillar(rng)
            items.append({
                "coords": pts,
                "edges": edges,
                "argv": [
                    "embed",
                    "--tree", write_json(workdir / f"tree-{i}.json",
                                         {"k": self.n, "edges": edges}),
                    "--points", write_json(workdir / f"points-{i}.json", {"points": pts}),
                    "--out", str(workdir / f"out-{i}.json"),
                ],
            })
        return {"items": items}

    def op(self, state, item, clock):
        run_cli(clock, item["argv"])

    def check(self, state, item, out):
        result = json.loads(Path(item["argv"][-1]).read_text())
        if result["crossings"] != 0:
            raise checker.CheckError("embed reports crossings")
        checker.check_plane_embedding(item["coords"], item["edges"], result["assignment"])


class AvoidSweep(Workload):
    """f(n,n) >= 2 at n = 8: every tree avoids every single forbidden edge.

    One op sweeps one convex and one random 8-point set: all 23 trees x all
    28 edges through embed_avoiding_single, each confirmed by
    exists_embedding with that edge forbidden. Pairing the two kinds of
    point set in every op keeps every op the same work.
    """

    name = "avoid-sweep"
    n, pairs, tree_count = 8, 6, 23
    setups = 3  # each set-up enumerates all_trees(8), several seconds

    def setup(self, seed, workdir):
        trees = ft.all_trees(self.n)
        forbidden = [
            (ft.Edge(a, b), ft.EdgeSet([ft.Edge(a, b)]))
            for a in range(self.n) for b in range(a + 1, self.n)
        ]
        items = []
        for i in range(self.pairs):
            pair = (ft.convex_points(self.n, input_seed(seed, i)),
                    ft.random_points(self.n, input_seed(seed, i)))
            for s in pair:
                s.crossing_sets()
            items.append(pair)
        return {"trees": trees, "forbidden": forbidden, "items": items}

    def op(self, state, item, clock):
        out = []
        for s in item:  # timed one tree at a time, so that rescaling keeps up
            for t in state["trees"]:
                out += clock(self.sweep, t, s, state["forbidden"])
        return out

    @staticmethod
    def sweep(t, s, forbidden):
        return [(ft.embed_avoiding_single(t, s, e), ft.exists_embedding(t, s, fs))
                for e, fs in forbidden]

    def check(self, state, item, out):
        cases = []
        for s in item:
            pts = coords(s)
            cases += [(pts, t, e) for t in state["trees"] for e, _ in state["forbidden"]]
        if len(out) != len(cases):
            raise checker.CheckError("sweep is missing cases")
        for (pts, t, e), (emb, report) in zip(cases, out):
            edge = [(e.a, e.b)]
            checker.check_plane_embedding(pts, t.edges, emb.assignment, edge)
            if report.feasible is not True or report.witness is None:
                raise checker.CheckError(f"oracle says {report.feasible} for {t} avoiding {e}")
            checker.check_plane_embedding(pts, t.edges, report.witness.assignment, edge)

    def final_check(self, state):
        classes = {checker.canonical_tree(self.n, t.edges) for t in state["trees"]}
        if len(state["trees"]) != self.tree_count or len(classes) != self.tree_count:
            raise checker.CheckError("all_trees(8) is not the 23 distinct trees")


def spider_edges(n: int) -> list[tuple[int, int]]:
    """The paper's spider on even n: legs of two edges, one leg of three."""
    edges = [(0, 1), (1, 2), (2, 3)]
    for v in range(4, n, 2):
        edges += [(0, v), (v, v + 1)]
    return edges


class BlockedVerdict(Workload):
    """Three consecutive hull edges block the spider on a convex 10-gon.

    One op is one exhaustive oracle search that must come out infeasible.
    Convex sets are combinatorially alike, so every op expands the same
    number of nodes whatever the seed and the start position.
    """

    name = "blocked-verdict"
    n, inputs = 10, 8

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        spider = ft.spider_tree(self.n)
        items = []
        for i in range(self.inputs):
            s = ft.convex_points(self.n, input_seed(seed, i))
            construction = ft.three_consecutive_hull_edges(s, rng.randrange(self.n))
            s.crossing_sets()
            items.append((s, construction.edges))
        return {"spider": spider, "items": items}

    def op(self, state, item, clock):
        s, edges = item
        return clock(ft.exists_embedding, state["spider"], s, edges)

    def check(self, state, item, out):
        if out.feasible is not False:
            raise checker.CheckError(f"verdict is {out.feasible}, not infeasible")

    def final_check(self, state):
        spider = state["spider"]
        if checker.canonical_tree(self.n, spider.edges) != checker.canonical_tree(
                self.n, spider_edges(self.n)):
            raise checker.CheckError("spider_tree(10) is not the spider")
        for s, edges in state["items"]:
            pts = coords(s)
            hull = checker.hull_order(pts)
            if len(hull) != self.n:
                raise checker.CheckError("convex_points(10) is not in convex position")
            hull_edges = {frozenset((hull[j], hull[(j + 1) % self.n])) for j in range(self.n)}
            pairs = [(e.a, e.b) for e in edges]
            if len(pairs) != 3 or any(frozenset(p) not in hull_edges for p in pairs) \
                    or len(set(itertools.chain(*pairs))) != 4:
                raise checker.CheckError("construction is not three consecutive hull edges")
            for two in itertools.combinations(edges, 2):
                report = ft.exists_embedding(spider, s, ft.EdgeSet(two))
                if report.feasible is not True:
                    raise checker.CheckError("two hull edges block the spider")
                checker.check_plane_embedding(pts, spider.edges, report.witness.assignment,
                                              [(e.a, e.b) for e in two])


class SearchMin(Workload):
    """`forbidtree search-min --k 6 --cap 3` on random 6-point sets."""

    name = "search-min"
    n, cap, inputs = 6, 3, 24

    def setup(self, seed, workdir):
        ft.all_trees(self.n)
        items = []
        for i in range(self.inputs):
            pts = coords(ft.random_points(self.n, input_seed(seed, i)))
            items.append({
                "index": i,
                "coords": pts,
                "argv": [
                    "search-min",
                    "--points", write_json(workdir / f"points-{i}.json", {"points": pts}),
                    "--k", str(self.n), "--cap", str(self.cap),
                    "--out", str(workdir / f"out-{i}.json"),
                ],
            })
        return {"items": items, "minimum": {}, "blocked": set()}

    def op(self, state, item, clock):
        run_cli(clock, item["argv"])

    def check(self, state, item, out):
        result = json.loads(Path(item["argv"][-1]).read_text())
        # The brute-force answers depend only on the input, so each is
        # computed once per input and reused in later rounds.
        i = item["index"]
        if i not in state["minimum"]:
            state["minimum"][i] = checker.min_forbidding_size(item["coords"], self.cap)
        expected = state["minimum"][i]
        if expected is None:
            if result["size"] is not None:
                raise checker.CheckError("search-min found a set the brute force missed")
            return
        if result["size"] != expected[0] or result["size"] < 2:
            raise checker.CheckError(f"size {result['size']}, brute force {expected[0]}")
        edges = tuple(tuple(e) for e in result["edges"])
        tree = tuple(tuple(e) for e in result["tree"]["edges"])
        if len(set(edges)) != result["size"]:
            raise checker.CheckError("edge set does not have the reported size")
        if not checker.is_tree(self.n, tree):
            raise checker.CheckError("reported tree is not a tree on k vertices")
        if (i, edges, tree) not in state["blocked"]:
            if checker.embeds(item["coords"], tree, edges):
                raise checker.CheckError("reported set does not block the reported tree")
            state["blocked"].add((i, edges, tree))


WORKLOADS = {w.name: w for w in (EmbedDeep(), AvoidSweep(), BlockedVerdict(), SearchMin())}
