"""perfbench's tracer wraps owpdb by name: every module in its ``LAYERS``
and every (class, method) pair in its ``METHODS``, each looked up in the
class's own ``__dict__``, and its install stops at the first one missing.
A refactor that moves a listed method to a base class, or makes a layer
module lazy, would break traced runs; this reads the two lists from the
tracer's source, without importing it, and checks them against owpdb as a
fresh interpreter imports it."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The missing entries, as a fresh interpreter that imports owpdb and its CLI sees them.
CHECK = """
import json, sys
import owpdb, owpdb.cli
layers, methods = json.loads(sys.argv[1])
missing = [f"owpdb.{layer}" for layer in layers if f"owpdb.{layer}" not in sys.modules]
for layer, classes in methods.items():
    module = sys.modules.get(f"owpdb.{layer}")
    for cls, names in classes.items():
        own = vars(getattr(module, cls, None) or type("Missing", (), {}))
        missing += [f"owpdb.{layer}.{cls}.{name}" for name in names if name not in own]
print(json.dumps(missing))
"""


def tracer_lists() -> tuple[list, dict]:
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    found = {target.id: ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
             for target in node.targets if isinstance(target, ast.Name) and target.id in ("LAYERS", "METHODS")}
    return list(found["LAYERS"]), found["METHODS"]


def missing(layers, methods) -> list[str]:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", CHECK, json.dumps([layers, methods])], check=True,
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    return json.loads(out.stdout)


def test_every_traced_layer_and_method_is_where_the_tracer_looks():
    layers, methods = tracer_lists()
    assert "engine" in layers and "Evaluator" in methods["engine"]
    assert missing(layers, methods) == []


def test_a_moved_method_or_an_unknown_layer_is_reported():
    # pattern_entries is ProbView's own, so Database's __dict__ does not hold it
    planted = {"database": {"Database": ["prob", "pattern_entries"]}}
    assert missing(["engine", "nowhere"], planted) == ["owpdb.nowhere", "owpdb.database.Database.pattern_entries"]
