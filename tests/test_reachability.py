"""Every function in `symten` runs in some command, or is listed below
with the reason it stays; one that only the tests call belongs in
`tests/reference.py`.  The commands run in a fresh interpreter, so that
no per-process cache (`_class_table`, `mn_character`) hides a call.
No module of `symten` holds an `assert`, which `python -O` strips, or
calls `id`."""
import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

from symten import cli
from tests.test_cli import DATA, GOLDEN_COMMANDS

PACKAGE = Path(cli.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# what no command reaches, by module-qualified name, with why it stays
UNREACHED = {
    "linalg.rank": "perfbench traces it by name",
    "linalg.span_equal": "perfbench traces it by name",
    "combinatorics.enumerate_standard": "perfbench traces it by name",
    "combinatorics.enumerate_column_systems": "perfbench traces it by name",
    "tensor.is_zero": "perfbench/record.py imports it",
    "tensor.to_json_obj": "perfbench traces it by name; the tests hold `symmetrize` to it",
    "linalg.determinant": "the certificates from products of minors planned in ROADMAP.md",
    "group_algebra.GroupAlgebraElement.terms": "read by the tests and by perfbench's tracer",
    "linalg.VectorFamily.__eq__": "families compare by value, as the tests compare them",
    "linalg.VectorFamily.__hash__": "hashes what `__eq__` compares",
    "linalg.VectorFamily.__repr__": "shows dim and vectors, not the scaled rows, as the tests check",
    "tensor.SparseTensor.__eq__": "tensors compare by value, as the tests compare them",
    "tensor.SparseTensor.__repr__": "shows dim, order and entries in the tests' failure reports",
}

# every golden command, the flags the goldens leave out, and error exits
COMMANDS = [(list(argv), 0) for argv, _ in GOLDEN_COMMANDS] + [
    (["selfcheck", "--n", "5", "--trials", "3"], 0),
    (["selfcheck", "--n", "4", "--seed", "7"], 0),
    (["equal", "--input", str(DATA / "equal_product_off.json"), "--exhaustive-failures"], 0),
    (["symmetrize", "--input", str(DATA / "symmetrize_basis.json"), "--shape-only"], 0),
    (["gamas", "--input", str(DATA / "bad_lambda.json")], 2),
    (["characters", "--n", "9"], 3),
    (["selfcheck", "--n", "70", "--trials", "0"], 3),
    (["selfcheck", "--n", "17", "--trials", "0", "--max-n", "17"], 3),
]

_TRACE = """
import contextlib, io, json, sys
from symten import cli
reached, codes = set(), []
def record(frame, event, arg):
    reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.settrace(record)
for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
sys.settrace(None)
json.dump({"codes": codes, "reached": sorted(reached)}, sys.stdout)
"""


def _functions():
    """{(file, first line of its code): qualified name} of every def in the
    package, nested ones included; a decorated function's code starts at
    its first decorator."""
    functions = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                functions[path, first] = prefix + child.name
                walk(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in PACKAGE.glob("*.py"):
        walk(ast.parse(path.read_text()), str(path), f"{path.stem}.")
    return functions


def test_every_function_is_reached_by_a_command_or_allowed():
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", _TRACE],
        input=json.dumps([argv for argv, _ in COMMANDS]),
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    traced = json.loads(proc.stdout)
    assert traced["codes"] == [code for _, code in COMMANDS]
    reached = {(str(Path(f).resolve()), line) for f, line in traced["reached"]}
    unreached = {name for key, name in _functions().items() if key not in reached}
    assert unreached == set(UNREACHED)


def test_no_check_is_an_assert():
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_no_module_calls_id():
    """No output can depend on which objects the caller keeps alive."""
    calls = [
        f"{path.name}:{node.lineno}"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "id"
    ]
    assert calls == []


def _perfbench_names():
    """(traced, imported): the "layer.function" names that the benchmark's
    worker reads through `calls`, `seconds` and `tracer.stat`, with the
    keys of its tracer's `_BEFORE` and `_AFTER`; and the (module, name)
    pairs that `record.py` imports from `symten`."""
    traced = set()
    for node in ast.walk(ast.parse((PERFBENCH / "worker.py").read_text())):
        if (
            isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) in ("calls", "seconds")
                 or getattr(node.func, "attr", None) == "stat")
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            traced.add(node.args[0].value)
    for node in ast.parse((PERFBENCH / "tracing.py").read_text()).body:
        target = node.targets[0] if isinstance(node, ast.Assign) else None
        if getattr(target, "id", None) in ("_BEFORE", "_AFTER"):
            traced |= {key.value for key in node.value.keys}
    imported = {
        (node.module, alias.name)
        for node in ast.walk(ast.parse((PERFBENCH / "record.py").read_text()))
        if isinstance(node, ast.ImportFrom) and node.module.startswith("symten")
        for alias in node.names
    }
    return traced, imported


def test_the_names_the_benchmark_looks_up_exist():
    """The tracer wraps only the public functions a module defines, and a
    name it cannot find fails the benchmark's smoke test."""
    traced, imported = _perfbench_names()
    assert len(traced) == 17 and len(imported) == 7
    for name in traced:
        layer, _, function = name.partition(".")
        module = importlib.import_module(f"symten.{layer}")
        fn = getattr(module, function, None)
        assert not function.startswith("_") and callable(fn) and not isinstance(fn, type), name
        assert getattr(fn, "__module__", None) == module.__name__, name
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), (module, name)
