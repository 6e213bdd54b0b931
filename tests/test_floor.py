"""The package keeps to its floor, Python 3.10 (``requires-python`` in
``pyproject.toml``): every module parses as 3.10 syntax and names none of
the standard-library additions of later versions."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "owpdb"
# (module, attribute) added after 3.10; an attribute of None is a new module.
LATER = {("operator", "call"), ("itertools", "batched"), ("math", "sumprod"), ("hashlib", "file_digest"),
         ("typing", "Self"), ("enum", "StrEnum"), ("tomllib", None)}


def later_names(tree: ast.AST) -> list[str]:
    """The additions of ``LATER`` that ``tree`` imports or reads off an imported module."""
    modules, found = {}, []  # local name -> module it binds
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.partition(".")[0]
                modules[local] = alias.name if alias.asname else local
                found += [alias.name] * ((alias.name, None) in LATER)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if {(node.module, alias.name), (node.module, None)} & LATER]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if (modules.get(node.value.id), node.attr) in LATER:
                found.append(f"{modules[node.value.id]}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_a_module_keeps_to_python_3_10(path):
    tree = ast.parse(path.read_text(), str(path), feature_version=(3, 10))
    assert later_names(tree) == []


@pytest.mark.parametrize("text, names", [
    ("import operator\nkey = operator.call(f)", ["operator.call"]),
    ("import operator as op\nop.call(f)", ["operator.call"]),
    ("from itertools import batched", ["itertools.batched"]),
    ("import tomllib", ["tomllib"]),
    ("from tomllib import loads", ["tomllib.loads"]),
    ("def f():\n    import hashlib\n    return hashlib.file_digest(fh, 'sha256')", ["hashlib.file_digest"]),
    ("import math\nmath.fsum(xs)", []),
])
def test_the_check_finds_a_later_name(text, names):
    assert later_names(ast.parse(text)) == names
