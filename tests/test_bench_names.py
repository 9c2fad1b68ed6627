"""Every program name the benchmark reaches for still exists.

The tracer skips a layer whose function is gone, and that layer's metrics
then read 0 instead of failing, so a rename in src/ would silently blind
the benchmark. The bench sources are parsed, not imported, so the check
leaves bench/ untouched.
"""
import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _parse(name):
    return ast.parse((BENCH / name).read_text())


def _resolve(modname, path):
    obj = importlib.import_module(modname)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def test_tracer_layers_resolve():
    (layers,) = [node.value for node in _parse("tracing.py").body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "LAYERS" for t in node.targets)]
    entries = ast.literal_eval(layers)
    assert entries
    for modname, path in entries.values():
        assert callable(_resolve(modname, path)), (modname, path)


def test_workload_program_names_resolve():
    tree = _parse("workloads.py")
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update((a.asname or a.name, a.name) for a in node.names
                           if a.name == "forbidtree")
        elif isinstance(node, ast.ImportFrom) and node.module == "forbidtree":
            aliases.update((a.asname or a.name, f"forbidtree.{a.name}") for a in node.names)
    assert "ft" in aliases
    used = {(aliases[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in aliases}
    assert ("forbidtree", "exists_embedding") in used
    for modname, attr in used:
        assert callable(_resolve(modname, attr)), (modname, attr)
