"""Source rules: every failure the package raises is one of its typed errors."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "umco").glob("*.py"))
UNTYPED = {"ValueError", "TypeError", "RuntimeError", "Exception"}


def _untyped_failures(tree):
    """(line, what) of every raise of a bare builtin exception and of every assert."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in UNTYPED:
                yield node.lineno, f"raise {exc.id}"


def test_sources_are_found():
    assert {"channel.py", "bssc.py", "exponent.py", "cli.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_bare_builtin_raise_or_assert(path):
    found = [f"{path.name}:{line}: {what}" for line, what in _untyped_failures(ast.parse(path.read_text()))]
    assert not found, "raise a typed error from umco.errors instead:\n" + "\n".join(found)


@pytest.mark.parametrize(
    "source, expected",
    [
        ("raise ValueError('x')", ["raise ValueError"]),
        ("raise TypeError", ["raise TypeError"]),
        ("def f():\n    raise RuntimeError('x') from None", ["raise RuntimeError"]),
        ("raise Exception()", ["raise Exception"]),
        ("assert x", ["assert"]),
        ("raise ValidationError('x')", []),
        ("try:\n    pass\nexcept ValueError as exc:\n    raise", []),
        ("raise failed[s]", []),
    ],
)
def test_the_rule_sees_each_form(source, expected):
    assert [what for _, what in _untyped_failures(ast.parse(source))] == expected


def test_one_function_writes_csv():
    # channel._csv owns the CSV format; every table builds rows and calls it.
    writers = [
        (path.name, node.name)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "join"
            and isinstance(call.func.value, ast.Constant)
            and call.func.value.value == ","
            for call in ast.walk(node)
        )
    ]
    assert writers == [("channel.py", "_csv")]


def _scalar_conversions(tree):
    """Line of every float(_check_entries(...)) call: a scalar check that lets a list of one through."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            for arg in node.args:
                if isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name) and arg.func.id == "_check_entries":
                    yield node.lineno


def test_scalars_pass_the_scalar_rule():
    # channel._check_number owns the scalar rule: _check_entries plus a 0-d test.
    assert list(_scalar_conversions(ast.parse("x = float(_check_entries(v, 'x'))"))) == [1]
    found = [f"{path.name}:{line}" for path in SOURCES for line in _scalar_conversions(ast.parse(path.read_text()))]
    assert not found, "call channel._check_number instead:\n" + "\n".join(found)
