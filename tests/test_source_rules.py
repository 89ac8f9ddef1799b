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


def test_one_sweep_sets_the_average_reward_stage_tolerance():
    # infinite_horizon._sweep owns the inner tolerance of every average-reward stage solve.
    tree = ast.parse(next(path for path in SOURCES if path.name == "infinite_horizon.py").read_text())
    callers = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "maximize_stage_objective"
    ]
    assert callers == ["_sweep"]


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


def _owners(tree):
    """Innermost enclosing function name ('' at module level) of every node."""
    owner = {}
    for node in ast.walk(tree):  # breadth first, so an inner function overrides the one it is nested in
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update(dict.fromkeys(ast.walk(node), node.name))
    return owner


def _freezes(tree):
    """Enclosing function ('' at module level) of every array freeze: a setflags call or a write to .writeable."""
    owner = _owners(tree)
    for node in ast.walk(tree):
        call = isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "setflags"
        if call or isinstance(node, ast.Attribute) and node.attr == "writeable" and isinstance(node.ctx, ast.Store):
            yield owner.get(node, "")


@pytest.mark.parametrize(
    "source, expected",
    [
        ("def f(a):\n    a.setflags(write=False)", ["f"]),
        ("def f(a):\n    def g():\n        a.setflags(write=False)", ["g"]),
        ("a.flags.writeable = False", [""]),
        ("x = a.flags.writeable", []),
        ("def f(a):\n    return _frozen_array(a, 'a')", []),
    ],
)
def test_the_freeze_rule_sees_each_form(source, expected):
    assert list(_freezes(ast.parse(source))) == expected


def test_one_function_freezes_arrays_outside_the_stage_solver():
    # Records freeze what they are given through channel._frozen_array; only the stage solver's
    # StateSolution, a NamedTuple on the hot path, freezes its own buffers.
    found = [(path.name, owner) for path in SOURCES for owner in _freezes(ast.parse(path.read_text()))]
    assert ("onestage.py", "maximize_stage_objective") in found
    assert sorted({entry for entry in found if entry[0] != "onestage.py"}) == [("channel.py", "_frozen_array")]


def _dataclasses(tree):
    """(class name, frozen) of every class decorated with dataclass, frozen only for a literal frozen=True."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for decorator in node.decorator_list:
                call = isinstance(decorator, ast.Call)
                target = decorator.func if call else decorator
                if isinstance(target, ast.Name) and target.id == "dataclass":
                    keywords = decorator.keywords if call else []
                    yield node.name, any(
                        k.arg == "frozen" and isinstance(k.value, ast.Constant) and k.value.value is True
                        for k in keywords
                    )


@pytest.mark.parametrize(
    "source, expected",
    [
        ("@dataclass(frozen=True)\nclass A: pass", [("A", True)]),
        ("@dataclass(frozen=True, eq=False)\nclass A: pass", [("A", True)]),
        ("@dataclass\nclass A: pass", [("A", False)]),
        ("@dataclass()\nclass A: pass", [("A", False)]),
        ("@dataclass(frozen=False)\nclass A: pass", [("A", False)]),
        ("class A(NamedTuple): pass", []),
    ],
)
def test_the_dataclass_rule_sees_each_form(source, expected):
    assert list(_dataclasses(ast.parse(source))) == expected


def test_every_dataclass_is_frozen():
    # Every record the package builds or returns is immutable after construction.
    found = [(path.name, name, frozen) for path in SOURCES for name, frozen in _dataclasses(ast.parse(path.read_text()))]
    assert len(found) >= 15
    assert [f"{path}: {name}" for path, name, frozen in found if not frozen] == []


def _callers(name):
    """Sorted (file, enclosing function) of every call of the package function ``name``."""
    callers = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        owner = _owners(tree)
        callers += [
            (path.name, owner.get(node, ""))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name
        ]
    return sorted(callers)


def test_one_function_holds_the_cost_rule():
    # channel._cost_penalty checks the multiplier and the cost table, and builds
    # the penalty, for the solves, both records and the verifiers; the table
    # alone goes through channel._cost_table, the cost rule's own table check.
    assert _callers("_cost_penalty") == [
        ("channel.py", "resolve_cost"),
        ("finite_dp.py", "__post_init__"),
        ("finite_dp.py", "_condition_report"),
        ("infinite_horizon.py", "__post_init__"),
        ("infinite_horizon.py", "generalized_dp_check"),
    ]
    assert _callers("_cost_table") == [
        ("channel.py", "__post_init__"),  # CostSpec: the axes only, it has no channel
        ("channel.py", "_cost_penalty"),
        ("channel.py", "parse_channel_document"),
        ("channel.py", "serialize_channel"),
        ("constrained.py", "_solve_budgets"),
        ("constrained.py", "average_cost"),
        ("infinite_horizon.py", "minimum_average_cost"),
    ]


def _mismatch_raisers(tree):
    """Enclosing function ('' at module level) of every raise of DimensionMismatchError."""
    owner = _owners(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "DimensionMismatchError":
                yield owner.get(node, "")


@pytest.mark.parametrize(
    "source, expected",
    [
        ("def f(a):\n    raise DimensionMismatchError('x')", ["f"]),
        ("def f(a):\n    if a:\n        raise DimensionMismatchError", ["f"]),
        ("raise DimensionMismatchError('x')", [""]),
        ("def f(a):\n    raise ValidationError('x')", []),
        ("def f(a):\n    return _fit(a, 'a', (2,), 'states')", []),
    ],
)
def test_the_mismatch_rule_sees_each_form(source, expected):
    assert list(_mismatch_raisers(ast.parse(source))) == expected


def test_one_function_holds_the_fit_rule():
    # channel._fit decides whether an array fits the channel, solution or record it
    # goes with: the loader's kernel, a channel's and an output kernel's own shape,
    # a record's fields against each other and every array a caller passes.
    found = [(path.name, owner) for path in SOURCES for owner in _mismatch_raisers(ast.parse(path.read_text()))]
    assert found == [("channel.py", "_fit")]


def _axes_readers(tree):
    """Enclosing function ('' at module level) of every read of an ``ndim`` attribute (``a.ndim``, ``np.ndim``)."""
    owner = _owners(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "ndim":
            yield owner.get(node, "")


@pytest.mark.parametrize(
    "source, expected",
    [
        ("def f(a):\n    return a.ndim", ["f"]),
        ("def f(a):\n    if np.ndim(a) != 2:\n        raise ValidationError('x')", ["f"]),
        ("n = a.ndim", [""]),
        ("def f(a):\n    return a.shape", []),
        ("def f(a):\n    return _fit(a, 'a', (None,), '')", []),
    ],
)
def test_the_axes_rule_sees_each_form(source, expected):
    assert list(_axes_readers(ast.parse(source))) == expected


def test_one_function_counts_axes():
    # channel._fit decides whether an array has the right number of axes, and
    # channel._check_number that a single number has none; no other code reads ndim.
    found = [(path.name, owner) for path in SOURCES for owner in _axes_readers(ast.parse(path.read_text()))]
    assert sorted(set(found)) == [("channel.py", "_check_number"), ("channel.py", "_fit")]


STAGE_LAYER = {
    "onestage.py": {"maximize_stage_objective", "letter_scores", "_letter_bias"},
    "infinite_horizon.py": {"_sweep", "_policy_rewards", "_evaluate_policy"},
}


def test_the_stage_layer_takes_one_penalty_array():
    # A solve builds the penalty s * cost once; below it no function takes the multiplier or the table.
    # Every function of onestage.py is checked, and the named ones must take the penalty.
    params = {}
    for path in SOURCES:
        checked = STAGE_LAYER.get(path.name, ())
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and (path.name == "onestage.py" or node.name in checked):
                params[path.name, node.name] = {arg.arg for arg in [*node.args.args, *node.args.kwonlyargs]}
    assert [key for key, names in params.items() if names & {"cost_row", "multiplier", "gamma", "s"}] == []
    for path, functions in STAGE_LAYER.items():
        for name in functions:
            assert "penalty" in params.get((path, name), ()), f"{path}: {name}"
