"""What a launch loads: `import symten.cli` and the deciding commands
leave the oracle's modules unloaded, and no module of the package
imports `dataclasses`.  The commands run in a fresh interpreter, since
this one has loaded every module already."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from symten import cli
from tests.test_cli import GOLDEN, GOLDEN_COMMANDS

PACKAGE = Path(cli.__file__).resolve().parent

# what `gamas` and `equal` never run
ORACLE_MODULES = {
    "symten.crosscheck",
    "symten.tensor",
    "symten.group_algebra",
    "symten.characters",
    "symten.sampling",
}

_LAUNCH = """
import contextlib, io, json, sys
argvs = json.load(sys.stdin)
before = set(sys.modules)
from symten import cli
imported = set(sys.modules) - before
outputs = []
for argv in argvs:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        outputs.append([cli.main(argv), out.getvalue()])
json.dump({"imported": sorted(imported), "loaded": sorted(sys.modules), "outputs": outputs}, sys.stdout)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_deciding_commands_load_no_oracle_module(flags):
    golden = [(list(argv), name) for argv, name in GOLDEN_COMMANDS if argv[0] in ("gamas", "equal")]
    assert {argv[0] for argv, _ in golden} == {"gamas", "equal"}
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _LAUNCH],
        input=json.dumps([argv for argv, _ in golden]),
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    launched = json.loads(proc.stdout)
    assert launched["outputs"] == [[0, (GOLDEN / f"{name}.json").read_text()] for _, name in golden]
    assert "symten.cli" in launched["imported"]
    assert "dataclasses" not in launched["imported"]
    assert "symten.decision" in launched["loaded"]
    assert ORACLE_MODULES.intersection(launched["loaded"]) == set()


def test_no_module_imports_dataclasses():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            assert all(name.partition(".")[0] != "dataclasses" for name in names), path.name
