import ast
from pathlib import Path

import hamline

#: Settable values in ``src/hamline``.  A change that adds a knob raises
#: this bound and says why in CHANGES.md.
MAX_SETTABLE_VALUES = 54


def settable_values(tree: ast.AST) -> int:
    """``add_argument`` calls, parameters with defaults and dataclass
    fields with defaults in one module's syntax tree."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute) and node.func.attr == "add_argument":
            count += 1
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            count += len(node.args.defaults) + sum(
                d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         for s in node.body)
    return count


def test_settable_values_stay_within_the_bound():
    package = Path(hamline.__file__).resolve().parent
    total = sum(settable_values(ast.parse(p.read_text()))
                for p in sorted(package.rglob("*.py")))
    assert total <= MAX_SETTABLE_VALUES, total


def test_settable_values_counts_each_kind():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class C:\n    a: int\n    b: int = 1\n"
        "def f(x, y=2, *, z=3, w): pass\n"
        "g = lambda u=4: u\n"
        "p.add_argument('--v')\n")
    assert settable_values(tree) == 5
