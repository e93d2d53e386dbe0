"""Every function in `symten` runs in some command, or is listed below
with the reason it stays; one that only the tests call belongs in
`tests/reference.py`.  The commands run in a fresh interpreter, so that
no per-process cache (`_class_table`, `mn_character`) hides a call."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from symten import cli
from tests.test_cli import DATA, GOLDEN_COMMANDS

PACKAGE = Path(cli.__file__).resolve().parent

# what no command reaches, by module-qualified name, with why it stays
UNREACHED = {
    "linalg.rank": "perfbench traces it by name",
    "linalg.span_equal": "perfbench traces it by name",
    "linalg.transition_scalar": "perfbench traces it by name",
    "combinatorics.enumerate_standard": "perfbench traces it by name",
    "combinatorics.enumerate_column_systems": "perfbench traces it by name",
    "linalg.determinant": "the certificates from products of minors planned in ROADMAP.md",
    "group_algebra.GroupAlgebraElement.__post_init__": "the public constructor the tests use",
    "group_algebra._canonical": "the public constructor the tests use",
}

# every golden command, the flags the goldens leave out, and error exits
COMMANDS = [(list(argv), 0) for argv, _ in GOLDEN_COMMANDS] + [
    (["selfcheck", "--n", "5", "--trials", "3"], 0),
    (["selfcheck", "--n", "4", "--seed", "7"], 0),
    (["equal", "--input", str(DATA / "equal_product_off.json"), "--exhaustive-failures"], 0),
    (["symmetrize", "--input", str(DATA / "symmetrize_basis.json"), "--shape-only"], 0),
    (["gamas", "--input", str(DATA / "bad_lambda.json")], 2),
    (["characters", "--n", "9"], 3),
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
