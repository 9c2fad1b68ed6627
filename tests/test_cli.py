import functools
import hashlib
import json

import pytest

from forbidtree import suites
from forbidtree.cli import main
from forbidtree.embedding import EmbeddingDefectError
from forbidtree.generators import convex_points, random_points
from forbidtree.geometry import Edge, EdgeSet, PointSet
from forbidtree.oracle import MinForbidResult, exists_embedding, min_forbidden_set_size
from forbidtree.trees import spider_tree


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_writes_valid_deterministic_pointset(tmp_path, capsys):
    out = tmp_path / "pts.json"
    code, _, _ = run(capsys, "gen", "--n", "7", "--seed", "2", "--mode", "random",
                     "--out", str(out))
    assert code == 0
    first = out.read_bytes()
    data = json.loads(first)
    PointSet.from_json(data)  # validates general position
    assert data["seed"] == 2 and data["mode"] == "random"
    run(capsys, "gen", "--n", "7", "--seed", "2", "--mode", "random", "--out", str(out))
    assert out.read_bytes() == first


def test_gen_convex_hull_cycle(tmp_path, capsys):
    out = tmp_path / "pts.json"
    run(capsys, "gen", "--n", "7", "--mode", "convex", "--out", str(out))
    from forbidtree.geometry import Edge, edge_depth
    s = PointSet.from_json(json.loads(out.read_text()))
    zero_depth = [
        (a, b) for a in range(7) for b in range(a + 1, 7)
        if edge_depth(s, Edge(a, b)) == 0
    ]
    assert len(zero_depth) == 7


def test_embed_basic_and_svg(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    svg = tmp_path / "drawing.svg"
    run(capsys, "gen", "--n", "7", "--mode", "convex", "--out", str(pts))
    code, out, _ = run(capsys, "embed", "--tree", "spider:7", "--points", str(pts),
                       "--svg", str(svg))
    assert code == 0
    data = json.loads(out)
    assert data["crossings"] == 0
    text = svg.read_text()
    assert text.startswith("<svg") and text.count("<line") == 6


def test_embed_unwritable_svg_prints_no_result(tmp_path, capsys):
    # the SVG is written before the JSON, so an exit 2 leaves stdout and the
    # --out file empty
    pts = tmp_path / "pts.json"
    out_file = tmp_path / "emb.json"
    forb = tmp_path / "forb.json"
    run(capsys, "gen", "--n", "7", "--out", str(pts))
    forb.write_text(json.dumps({"edges": [[0, 1]]}))
    svg = str(tmp_path / "missing" / "x.svg")
    for extra in ((), ("--forbidden", str(forb)), ("--out", str(out_file))):
        code, out, err = run(capsys, "embed", "--tree", "star:7", "--points", str(pts),
                             *extra, "--svg", svg)
        assert (code, out) == (2, ""), extra
        assert err.startswith("input error: [Errno 2]")
    assert not out_file.exists()


def test_embed_single_forbidden(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    forb = tmp_path / "forb.json"
    run(capsys, "gen", "--n", "6", "--mode", "random", "--seed", "3", "--out", str(pts))
    forb.write_text(json.dumps({"edges": [[0, 5]]}))
    code, out, _ = run(capsys, "embed", "--tree", "path:6", "--points", str(pts),
                       "--forbidden", str(forb))
    assert code == 0
    data = json.loads(out)
    assert data["forbidden_avoided"] is True and data["crossings"] == 0


def test_embed_two_forbidden_convex(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    forb = tmp_path / "forb.json"
    run(capsys, "gen", "--n", "6", "--mode", "convex", "--out", str(pts))
    forb.write_text(json.dumps({"edges": [[0, 1], [2, 4]]}))
    code, out, _ = run(capsys, "embed", "--tree", "star:6", "--points", str(pts),
                       "--forbidden", str(forb))
    assert code == 0
    assert json.loads(out)["forbidden_avoided"] is True


def test_embed_rejects_three_forbidden(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    forb = tmp_path / "forb.json"
    run(capsys, "gen", "--n", "6", "--mode", "convex", "--out", str(pts))
    forb.write_text(json.dumps({"edges": [[0, 1], [1, 2], [2, 3]]}))
    code, _, err = run(capsys, "embed", "--tree", "star:6", "--points", str(pts),
                       "--forbidden", str(forb))
    assert code == 2
    assert "3+" in err or "no constructive" in err


def test_embed_invalid_json_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "embed", "--tree", "spider:5", "--points", str(bad))
    assert code == 2
    assert "input error" in err


GOOD_FILES = {"points.json": {"points": [[0, 0], [5, 1], [2, 7]]},
              "tree.json": {"k": 3, "edges": [[0, 1], [1, 2]]},
              "emb.json": {"assignment": [0, 1, 2]}}
EMBED = "embed --tree tree.json --points points.json"


@pytest.mark.parametrize("argv,bad", [
    (EMBED, {"points.json": {}}),
    ("search-min --k 3 --points points.json", {"points.json": {}}),
    (EMBED + " --forbidden forb.json", {"forb.json": {"edges": 5}}),
    (EMBED, {"points.json": {"points": [[0.6, 0], [5, 1.2], [2, 7.9]]}}),
    (EMBED, {"tree.json": {"k": 3.0, "edges": [[0, 1], [1, 2]]}}),
    ("render --points points.json --tree tree.json --embedding emb.json --svg out.svg",
     {"emb.json": {"assignment": [0, True, 2]}}),
    ("render --points points.json --embedding emb.json --svg out.svg", {}),
])
def test_malformed_json_is_input_error(tmp_path, monkeypatch, capsys, argv, bad):
    monkeypatch.chdir(tmp_path)
    for name, data in {**GOOD_FILES, **bad}.items():
        (tmp_path / name).write_text(json.dumps(data))
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err.startswith("input error") and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    EMBED + " --forbidden forb.json",
    "verify --suite nope",
    "verify --suite blanket --n 7",
    "bounds --n 10 --k 2",
])
def test_refused_requests_are_input_errors(tmp_path, monkeypatch, capsys, argv):
    """Requests the program refuses share the one input-error path of main."""
    monkeypatch.chdir(tmp_path)
    files = {**GOOD_FILES, "forb.json": {"edges": [[0, 1], [1, 2], [0, 2]]}}
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err.startswith("input error") and len(err.strip().splitlines()) == 1


def test_verify_suite_pass_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    code, _, _ = run(capsys, "verify", "--suite", "conf3", "--n", "5..6",
                     "--out", str(out))
    assert code == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    summary = lines[-1]
    assert summary["summary"] and summary["failures"] == 0
    assert summary["cases"] == len(lines) - 1


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == 2 and "unknown suite" in err


def test_bounds_values(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "10", "--k", "6")
    assert code == 0
    data = json.loads(out)
    assert data == {"blanket_size": 30, "k": 6, "lower": "5", "n": 10, "upper": "40"}
    code, out, _ = run(capsys, "bounds", "--n", "8", "--k", "8")
    data = json.loads(out)
    assert data["lower"] == "4/7" and data["upper"] == "16" and data["blanket_size"] == 8


def test_bounds_rejects_small_k(capsys):
    code, _, err = run(capsys, "bounds", "--n", "10", "--k", "2")
    assert code == 2


def test_search_min(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    run(capsys, "gen", "--n", "5", "--mode", "convex", "--out", str(pts))
    code, out, _ = run(capsys, "search-min", "--points", str(pts), "--k", "5",
                       "--cap", "3")
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 3 and len(data["edges"]) == 3
    # two points: the one edge forbids the one-edge tree
    run(capsys, "gen", "--n", "2", "--mode", "random", "--out", str(pts))
    code, out, _ = run(capsys, "search-min", "--points", str(pts), "--k", "2")
    assert code == 0 and json.loads(out)["size"] == 1


def test_search_min_budget_must_be_positive(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    run(capsys, "gen", "--n", "5", "--mode", "convex", "--out", str(pts))
    for budget in ("0", "-1"):
        code, out, err = run(capsys, "search-min", "--points", str(pts), "--k", "5",
                             "--budget", budget)
        assert code == 2 and out == "" and "budget must be positive" in err


def test_search_min_budget_run_out_exits_3(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    run(capsys, "gen", "--n", "7", "--seed", "1", "--mode", "random", "--out", str(pts))
    code, out, err = run(capsys, "search-min", "--points", str(pts), "--k", "7",
                         "--cap", "4", "--budget", "5")
    assert code == 3 and out == ""
    assert "budget exhausted" in err and "Traceback" not in err


def test_search_min_without_a_set_within_the_cap(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    run(capsys, "gen", "--n", "7", "--out", str(pts))
    code, out, err = run(capsys, "search-min", "--points", str(pts), "--k", "5", "--cap", "2")
    assert (code, out, err) == (0, '{"cap": 2, "k": 5, "size": null}\n', "")


@pytest.mark.parametrize("argv,message", [
    ("embed --tree cycle:7 --points pts.json", "unknown tree shorthand 'cycle:7'"),
    ("render --points pts.json --tree spider:7 --embedding emb.json --svg out.svg",
     "assignment maps outside the point set"),
])
def test_unknown_shorthand_and_outside_assignment_are_input_errors(
        tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    run(capsys, "gen", "--n", "7", "--out", "pts.json")
    (tmp_path / "emb.json").write_text(json.dumps({"assignment": [0, 1, 2, 3, 4, 5, 9]}))
    code, out, err = run(capsys, *argv.split())
    assert (code, out, err) == (2, "", f"input error: {message}\n")
    assert not (tmp_path / "out.svg").exists()


def test_render_round_trip(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    emb = tmp_path / "emb.json"
    forb = tmp_path / "forb.json"
    svg = tmp_path / "out.svg"
    run(capsys, "gen", "--n", "6", "--mode", "convex", "--out", str(pts))
    code, out, _ = run(capsys, "embed", "--tree", "path:6", "--points", str(pts),
                       "--out", str(emb))
    assert code == 0
    forb.write_text(json.dumps({"edges": [[0, 2], [3, 5]]}))
    code, _, _ = run(capsys, "render", "--points", str(pts), "--tree", "path:6",
                     "--embedding", str(emb), "--forbidden", str(forb),
                     "--svg", str(svg))
    assert code == 0
    text = svg.read_text()
    assert text.count("<circle") == 6
    # forbidden edges render dashed, tree edges solid
    assert text.count("stroke-dasharray") == 2
    assert text.count("<line") == 7


def test_render_out_of_range_forbidden_edge_is_input_error(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    forb = tmp_path / "forb.json"
    svg = tmp_path / "out.svg"
    run(capsys, "gen", "--n", "7", "--out", str(pts))
    forb.write_text(json.dumps({"edges": [[0, 9]]}))
    code, out, err = run(capsys, "render", "--points", str(pts), "--forbidden", str(forb),
                         "--svg", str(svg))
    assert code == 2 and out == ""
    assert err.startswith("input error") and "out of range for 7 points" in err
    assert not svg.exists()


def test_verify_rejects_parameters_the_suite_does_not_take(capsys):
    # a flag the suite lacks, an n its embedder does not take, an empty range
    for argv in (("--suite", "blanket", "--n", "7"), ("--suite", "conf3", "--seeds", "1"),
                 ("--suite", "single-edge", "--n", "4", "--seeds", "1"),
                 ("--suite", "two-edge-convex", "--n", "4"),
                 ("--suite", "baseline", "--n", "9..5"),
                 ("--suite", "baseline", "--n", "5", "--seeds", "3..1"),
                 ("--suite", "bracket", "--n", "4", "--seeds", "1"),
                 ("--suite", "bracket", "--n", "4..6", "--seeds", "1")):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2, argv
        assert out == ""
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_verify_budget_run_out_is_unknown(monkeypatch, capsys):
    # 5 nodes per minimum search and 3 per avoidance check leave at least
    # one search in each suite without a verdict (with the oracle's
    # lookahead, every minimum search of bounds --seeds 1 settles within 8)
    monkeypatch.setattr(suites, "min_forbidden_set_size",
                        functools.partial(min_forbidden_set_size, budget=5))
    monkeypatch.setattr(suites, "exists_embedding",
                        functools.partial(exists_embedding, budget=3))
    for argv in (("--suite", "bracket", "--n", "5", "--seeds", "1"),
                 ("--suite", "two-edge-convex", "--n", "5"),
                 ("--suite", "bounds", "--seeds", "1"),
                 ("--suite", "single-edge", "--n", "5", "--seeds", "1")):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 3, (argv, err)
        lines = [json.loads(line) for line in out.splitlines()]
        assert any(case.get("unknown") for case in lines[:-1])
        assert lines[-1]["failures"] == 0 and lines[-1]["unknown"] >= 1


def test_verify_bracket_convex_size_two_fails(monkeypatch, capsys):
    # the paper's convex minimum is 3, so only a non-convex size-2 set passes
    def size_two(s, k, cap):
        return MinForbidResult(2, EdgeSet([Edge(0, 1), Edge(0, 2)]), spider_tree(k))

    monkeypatch.setattr(suites, "min_forbidden_set_size", size_two)
    for gen, ok in ((convex_points, False), (random_points, True)):
        monkeypatch.setattr(suites, "random_points", gen)
        code, out, err = run(capsys, "verify", "--suite", "bracket", "--n", "5", "--seeds", "3")
        assert code == (0 if ok else 1)
        case = json.loads(out.splitlines()[0])
        assert case["ok"] is ok and case["counters"]["size"] == 2
        shape = "NON-CONVEX" if ok else "convex"
        assert err.startswith(f"NOTABLE: 2-edge forbidding set on {shape} set (n=5, seed=3)")


def test_verify_embedding_defect_is_a_failed_case(monkeypatch, capsys):
    def broken(*args):
        raise EmbeddingDefectError("broken on purpose")

    monkeypatch.setattr(suites, "embed_avoiding_single", broken)
    code, out, _ = run(capsys, "verify", "--suite", "single-edge", "--n", "5", "--seeds", "1")
    assert code == 1
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[0]["ok"] is False
    assert lines[0]["note"] == "EmbeddingDefectError: broken on purpose"
    assert lines[-1]["failures"] == len(lines) - 1 == 2



def test_parser_is_reused_after_an_argparse_error(tmp_path, capsys):
    # the parser is built once per process, so an error exit must leave it as it was
    pts = tmp_path / "pts.json"
    run(capsys, "gen", "--n", "6", "--seed", "3", "--mode", "random", "--out", str(pts))
    argv = ("search-min", "--points", str(pts), "--k", "6", "--cap", "3")
    first = run(capsys, *argv)
    with pytest.raises(SystemExit) as ex:
        main(["embed", "--points", str(pts)])
    assert ex.value.code == 2 and "--tree" in capsys.readouterr().err
    assert run(capsys, *argv) == first and first[0] == 0


def test_verify_refuses_an_out_of_range_n_before_the_first_case(capsys):
    # all_trees stops at 10 vertices; the whole range is checked before any output
    for argv in (("--suite", "few-hull", "--n", "10..11"),
                 ("--suite", "baseline", "--n", "10..11", "--seeds", "1")):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("input error") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("suite,embedder,argv", [
    ("baseline", "embed_recursive", ("--n", "5", "--seeds", "1")),
    ("few-hull", "embed_few_hull_edges", ("--n", "5")),
])
def test_verify_defect_in_every_suite_is_a_failed_case(monkeypatch, capsys, suite, embedder,
                                                        argv):
    def broken(*args):
        raise EmbeddingDefectError("broken on purpose")

    monkeypatch.setattr(suites, embedder, broken)
    code, out, err = run(capsys, "verify", "--suite", suite, *argv)
    assert code == 1 and "Traceback" not in err
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[0]["ok"] is False
    assert lines[0]["note"] == "EmbeddingDefectError: broken on purpose"
    assert lines[-1]["summary"] and lines[-1]["failures"] == len(lines) - 1 >= 1


def test_embed_defect_exits_1(tmp_path, monkeypatch, capsys):
    import forbidtree.cli as cli

    def broken(*args):
        raise EmbeddingDefectError("broken on purpose")

    pts = tmp_path / "pts.json"
    forb = tmp_path / "forb.json"
    run(capsys, "gen", "--n", "7", "--out", str(pts))
    forb.write_text(json.dumps({"edges": [[0, 1]]}))
    monkeypatch.setattr(cli, "embed_avoiding_single", broken)
    code, out, err = run(capsys, "embed", "--tree", "path:7", "--points", str(pts),
                         "--forbidden", str(forb))
    assert (code, out, err) == (1, "", "embedding failed: broken on purpose\n")


# sha256 of each suite's stdout (case lines and summary) at its defaults
SUITE_JSON_SHA256 = {
    "baseline": "b044a20aed36b0e4989b5f3ff345dd000e2372fa21650ec07a323d9fda33dde7",
    "blanket": "f7afcc242af890f45513ce454892bc6d3f0ca487cd026efe8e375a261b1cc494",
    "bounds": "1d365c8f12ca0f3d27f18c2142bacdf16626ea6730f228173141662f0ca41de0",
    "bracket": "245e683b0fc3c41c67081c21ad45c94e9740ff10ebcafd5242f5d942e9268034",
    "conf3": "c1fb7674edbf0e6505ce2c7c22ae2ce2fbfa3e50b7c52990af7017b90787844b",
    "few-hull": "65eac50686c6d9ab5abfcac1b027ad448c8ac4c5a4767b7dda4acefb09774b7b",
    "single-edge": "c4ee8129abb92b6c40c5e9aea86921846807e7b75a0dc4d153c1baaf4c0940cb",
    "three-pairs": "6fee3bb72653eb925040bfbce247b046dc150b383f38b853882516c1c656e29b",
    "two-edge-convex": "c1dff9a51463ed4da1f5c8c81516df36951a28496e8d5d0e5e42431754851ab0",
}


def test_verify_json_is_pinned_at_the_defaults(capsys):
    assert set(SUITE_JSON_SHA256) == set(suites.SUITES)
    for suite, digest in SUITE_JSON_SHA256.items():
        code, out, err = run(capsys, "verify", "--suite", suite)
        assert (code, err) == (0, ""), suite
        assert hashlib.sha256(out.encode()).hexdigest() == digest, suite
