import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symten import characters, cli, crosscheck, decision, group_algebra, tensor
from symten.combinatorics import enumerate_partitions
from symten.decision import (
    INDEPENDENCE_MISMATCH,
    NO_SPAN_MATCHING,
    PRODUCT_NOT_ONE,
    EqualityVerdict,
    SystemFailure,
    SystemWitness,
    decide_equality,
)
from symten.linalg import format_rational
from symten.sampling import random_family, scaled_family
from symten.tensor import SparseTensor, tensor_equal, to_json_obj
from tests.reference import from_json_obj, verdict_json

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

# (command and flags, name): each reads tests/data/<name>.json and prints
# tests/golden/<name>.json
GOLDEN_CASES = [
    (("gamas",), "gamas_vanishing"),
    (("gamas",), "gamas_nonvanishing"),
    (("gamas",), "gamas_zero_vector"),
    (("equal",), "equal_scaling"),
    (("equal",), "equal_product_off"),
    (("equal",), "equal_both_vanish"),
    (("equal",), "equal_witnessed_n7"),
    (("equal", "--exhaustive-failures"), "equal_product_off_exhaustive"),
    # λ = (9), u a unit-product rescaling of v rotated by one place: the
    # witness's sigma is not the identity
    (("equal", "--max-n", "9"), "equal_rotated_n9"),
    (("symmetrize",), "symmetrize_basis"),
    (("symmetrize",), "symmetrize_vanishing"),
    (("symmetrize",), "symmetrize_n8"),
]

# the argv of every file in tests/golden/, which CI also runs under python -O
GOLDEN_COMMANDS = [
    ((*command, "--input", str(DATA / f"{name}.json")), name)
    for command, name in GOLDEN_CASES
] + [
    (("characters", "--n", "4"), "characters_n4"),
    (("selfcheck", "--n", "3", "--trials", "5", "--seed", "2"), "selfcheck_n3"),
]

# the (n, trials) of each selfcheck run, seed 0, that CI runs under python -O
SELFCHECK_SETTINGS = [(3, 25), (4, 100), (5, 25), (6, 4), (7, 2)]


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize(
    "command,name", GOLDEN_CASES, ids=[f"{' '.join(c)}-{name}" for c, name in GOLDEN_CASES]
)
def test_golden_outputs(capsys, command, name):
    code, out = run(capsys, *command, "--input", str(DATA / f"{name}.json"))
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text()


def test_characters_golden(capsys):
    code, out = run(capsys, "characters", "--n", "4")
    assert code == 0
    assert out == (GOLDEN / "characters_n4.json").read_text()


def test_selfcheck_golden(capsys):
    code, out = run(capsys, "selfcheck", "--n", "3", "--trials", "5", "--seed", "2")
    assert code == 0
    assert out == (GOLDEN / "selfcheck_n3.json").read_text()


def test_reruns_are_byte_identical(capsys, tmp_path):
    args = ("equal", "--input", str(DATA / "equal_scaling.json"))
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second
    out_path = tmp_path / "out.json"
    code = cli.main([*args, "--output", str(out_path)])
    assert code == 0
    assert out_path.read_text() == first


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def recorded(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recorded)
    help_text = cli.build_parser().format_help()
    args = ("equal", "--input", str(DATA / "equal_scaling.json"))
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first.encode() == second.encode()
    assert parsers == [cli.build_parser()] * 2
    assert cli.build_parser().format_help() == help_text


def test_golden_commands_repeat_in_process(capsys):
    assert {name for _, name in GOLDEN_COMMANDS} == {p.stem for p in GOLDEN.glob("*.json")}
    # the first round starts cold, the second hits every per-process cache
    cli.build_parser.cache_clear()
    group_algebra._class_table.cache_clear()
    characters.mn_character.cache_clear()
    for _ in range(2):
        for argv, name in GOLDEN_COMMANDS:
            code, out = run(capsys, *argv)
            assert code == 0, name
            assert out == (GOLDEN / f"{name}.json").read_text(), name


def test_symmetrize_round_trip(capsys):
    code, out = run(capsys, "symmetrize", "--input", str(DATA / "symmetrize_basis.json"))
    assert code == 0
    obj = json.loads(out)
    from symten.cli import load_instance
    from symten.group_algebra import isotypic_projector
    from symten.tensor import apply_element, decomposable

    lam, fv, _ = load_instance(str(DATA / "symmetrize_basis.json"))
    expected = apply_element(decomposable(fv), isotypic_projector(lam))
    assert tensor_equal(from_json_obj(obj), expected)


def test_symmetrize_shape_only(capsys):
    code, out = run(
        capsys, "symmetrize", "--input", str(DATA / "symmetrize_basis.json"), "--shape-only"
    )
    assert code == 0
    assert json.loads(out) == {"dim": 3, "order": 3, "entry_count": 3}


def test_symmetrize_shape_only_formats_no_coefficients(capsys, monkeypatch):
    calls = []

    def counted(q):
        calls.append(q)
        return format_rational(q)

    monkeypatch.setattr(tensor, "format_rational", counted)
    monkeypatch.setattr(cli, "format_rational", counted)
    code, _ = run(
        capsys, "symmetrize", "--input", str(DATA / "symmetrize_basis.json"), "--shape-only"
    )
    assert code == 0
    assert calls == []


@pytest.mark.parametrize(
    "flags,name",
    [((), "equal_witnessed_n7"), (("--exhaustive-failures",), "equal_product_off_exhaustive")],
    ids=["witnessed", "exhaustive-failures"],
)
def test_equal_formats_each_rational_once(capsys, monkeypatch, flags, name):
    calls = []

    def counted(q):
        calls.append(q)
        return format_rational(q)

    monkeypatch.setattr(cli, "format_rational", counted)
    code, out = run(capsys, "equal", *flags, "--input", str(DATA / f"{name}.json"))
    assert code == 0
    report = json.loads(out)
    written = [q for r in report["witnesses"] + report["failures"] for q in r["scalars"]]
    written += [r["product"] for r in report["failures"]]
    # the witnesses and failures share their ratios: far fewer values than scalars
    assert len(set(written)) * 4 < len(written)
    assert sorted(map(format_rational, calls)) == sorted(set(written))


def test_symmetrize_formats_each_rational_once(capsys, monkeypatch):
    calls = []

    def counted(q):
        calls.append(q)
        return format_rational(q)

    monkeypatch.setattr(cli, "format_rational", counted)
    code, out = run(capsys, "symmetrize", "--input", str(DATA / "symmetrize_n8.json"))
    assert code == 0
    written = [entry["coeff"] for entry in json.loads(out)["entries"]]
    # the entries share their values: far fewer values than entries
    assert len(set(written)) * 4 < len(written)
    assert sorted(map(format_rational, calls)) == sorted(set(written))


def test_rational_writer_texts_values_it_does_not_keep_alive():
    """Each rational is dropped once written, so a later one may reuse its
    memory; each still gets its own value's text."""
    rational = cli._rational_writer()
    values = [(p, q) for q in (1, 2, 3, 7) for p in range(-30, 31)]
    texts = [rational(Fraction(p, q)) for p, q in values]
    assert texts == [json.dumps(format_rational(Fraction(p, q))) for p, q in values]


def test_version(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--version"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == "0.1.0\n"


def test_imports_only_the_standard_library():
    # dependencies = [] in pyproject.toml: importing the commands and the
    # crosscheck loads no module from outside symten and the standard library
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import symten.cli, symten.crosscheck\n"
        "print(*sorted({m.partition('.')[0] for m in set(sys.modules) - before}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    added = set(proc.stdout.split())
    assert "symten" in added
    assert added - {"symten"} <= set(sys.stdlib_module_names), added


def test_no_floats_in_payloads(capsys):
    for command, name in GOLDEN_CASES:
        _, out = run(capsys, *command, "--input", str(DATA / f"{name}.json"))

        def assert_no_floats(node):
            if isinstance(node, dict):
                for v in node.values():
                    assert_no_floats(v)
            elif isinstance(node, list):
                for v in node:
                    assert_no_floats(v)
            else:
                assert not isinstance(node, float)

        assert_no_floats(json.loads(out))


def test_exit_code_input_errors(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    assert cli.main(["gamas", "--input", str(missing)]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["gamas", "--input", str(bad)]) == 2
    capsys.readouterr()
    assert cli.main(["gamas", "--input", str(DATA / "bad_lambda.json")]) == 2
    capsys.readouterr()
    # equal requires u
    assert cli.main(["equal", "--input", str(DATA / "gamas_vanishing.json")]) == 2
    capsys.readouterr()


def test_exit_code_limit(capsys, tmp_path):
    big = json.loads((DATA / "big_instance.json").read_text())
    instance = tmp_path / "n9.json"
    instance.write_text(json.dumps({**big, "u": big["v"]}))
    for command in ("gamas", "equal", "symmetrize", "characters", "selfcheck"):
        if command in ("characters", "selfcheck"):
            argv = [command, "--n", "9"]
        else:
            argv = [command, "--input", str(instance)]
        assert cli.main(argv) == 3, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: degree 9 exceeds the size limit 8\n"
        if command in ("gamas", "equal", "characters"):
            # the override flag admits the same command
            assert cli.main([*argv, "--max-n", "9"]) == 0, command
            capsys.readouterr()


def test_limit_comes_before_any_enumeration(capsys, monkeypatch):
    # S_70 has 4,087,968 shapes; refusing the degree must not list them
    listed = characters.enumerate_partitions

    def capped(n):
        if n > 8:
            raise AssertionError(f"listed the shapes of {n}")
        return listed(n)

    for module in (characters, group_algebra):
        monkeypatch.setattr(module, "enumerate_partitions", capped)
    assert cli.main(["selfcheck", "--n", "70", "--trials", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: degree 70 exceeds the size limit 8\n"


def test_selfcheck_reaches_the_class_table_before_any_listing(capsys, monkeypatch):
    # a raised --max-n lets degree 50 past the command's limit; the class
    # table must refuse it before the 204,226 shapes of 50 are listed
    def unlisted(n):
        raise AssertionError(f"listed the shapes of {n}")

    for module in (characters, group_algebra):
        monkeypatch.setattr(module, "enumerate_partitions", unlisted)
    assert cli.main(["selfcheck", "--n", "50", "--trials", "0", "--max-n", "50"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: degree 50 is past the class table's limit of 67108864 bytes: "
        "S_50 by class takes 50!*51 bytes\n"
    )


@pytest.mark.parametrize("command", ["symmetrize", "selfcheck", "symmetrize-tall"])
def test_degree_past_the_class_table_exits_3(capsys, monkeypatch, tmp_path, command):
    # S_11 by class would take 11!*12 bytes, 479 MB; the table stops at 10.
    # (1^11) has more rows than dim 2, so its projection is 0 with no
    # projector built, and is refused all the same.  symmetrize refuses
    # before it builds the tensor: a dense one of degree n has d^n entries
    def unbuilt(fv):
        raise AssertionError("built the tensor")

    monkeypatch.setattr(tensor, "decomposable", unbuilt)
    instance = tmp_path / "n11.json"
    instance.write_text(json.dumps({"dim": 2, "lambda": [11], "v": [["1", "0"]] * 11}))
    tall = tmp_path / "n11-tall.json"
    tall.write_text(json.dumps({"dim": 2, "lambda": [1] * 11, "v": [["1", "2"]] * 11}))
    argv = {
        "symmetrize": ["symmetrize", "--input", str(instance)],
        "selfcheck": ["selfcheck", "--n", "11", "--trials", "0"],
        "symmetrize-tall": ["symmetrize", "--input", str(tall)],
    }[command]
    assert cli.main([*argv, "--max-n", "11"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: degree 11 is past the class table's limit of 67108864 bytes: "
        "S_11 by class takes 11!*12 bytes\n"
    )


def test_symmetrize_past_the_class_table_lists_no_permutation(capsys, monkeypatch):
    # 12!*13 bytes, 6.2 GB, would exhaust the memory before any size check;
    # CI runs the same command
    def unlisted(n):
        raise AssertionError(f"listed the permutations of {n}")

    monkeypatch.setattr(group_algebra, "enumerate_permutations", unlisted)
    instance = DATA / "symmetrize_n12.json"
    assert cli.main(["symmetrize", "--input", str(instance), "--max-n", "12"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: degree 12 is past the class table's limit")


def test_malformed_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gamas", "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_selfcheck_passes(capsys):
    code, out = run(capsys, "selfcheck", "--n", "3", "--trials", "10", "--seed", "1")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["seed"] == 1
    assert len(report["properties"]) >= 4
    assert all(p["pass"] for p in report["properties"])


def test_selfcheck_minimal(capsys):
    code, out = run(capsys, "selfcheck", "--n", "2", "--trials", "1", "--seed", "0")
    assert code == 0
    report = json.loads(out)
    assert len(report["properties"]) >= 4


def test_selfcheck_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(crosscheck, "tensor_equal", lambda *a, **k: False)
    code = cli.main(["selfcheck", "--n", "2", "--trials", "2", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_exhaustive_failures_flag(capsys, tmp_path):
    instance = {
        "dim": 3,
        "lambda": [1, 1, 1],
        "v": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "u": [["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance))
    code, out = run(capsys, "equal", "--input", str(path), "--exhaustive-failures")
    assert code == 0
    assert json.loads(out)["equal"] is False


def write_instance(tmp_path, text):
    path = tmp_path / "inst.json"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize(
    "text",
    [
        '{"dim": 1, "lambda": [1], "v": [[0.1]]}',
        '{"dim": 1, "lambda": [1], "v": [[true]]}',
        '{"dim": 1, "lambda": [1], "v": [[Infinity]]}',
        '{"dim": 1, "lambda": [1], "v": [["1e10000000"]]}',
        '{"dim": 1, "lambda": [1], "v": [["1/0"]]}',
        '{"dim": 1, "lambda": [1], "v": [[' + "7" * 5000 + "]]}",
        '{"dim": true, "lambda": [1], "v": [["1"]]}',
        '{"dim": 1, "lambda": [true], "v": [["1"]]}',
    ],
    ids=["float", "bool", "infinity", "exponent", "zero-denominator", "5000-digits",
         "bool-dim", "bool-part"],
)
def test_non_rational_inputs_exit_2(capsys, tmp_path, text):
    assert cli.main(["gamas", "--input", write_instance(tmp_path, text)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


_BIG = "7" * 3000  # an accepted input numeral whose square is past 4,300 digits


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
)
@pytest.mark.parametrize(
    "argv,instance",
    [
        (["symmetrize"], {"dim": 2, "lambda": [2], "v": [[_BIG, "1"], [_BIG, "2"]]}),
        (
            ["equal", "--exhaustive-failures"],
            {
                "dim": 2,
                "lambda": [1, 1],
                "v": [[_BIG, "0"], ["0", _BIG]],
                "u": [["1", "0"], ["0", "1"]],
            },
        ),
    ],
    ids=["symmetrize", "equal"],
)
def test_result_numerals_past_the_digit_limit_exit_3(capsys, tmp_path, argv, instance):
    path = write_instance(tmp_path, json.dumps(instance))
    assert cli.main([*argv, "--input", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    limit = sys.get_int_max_str_digits()
    assert captured.err == f"error: a numeral of the result has over {limit} digits\n"


def test_integer_entries_accepted(capsys, tmp_path):
    path = write_instance(tmp_path, '{"dim": 2, "lambda": [1, 1], "v": [[1, 0], [0, -3]]}')
    code, out = run(capsys, "gamas", "--input", path)
    assert code == 0
    assert json.loads(out)["nonzero"] is True


@pytest.mark.parametrize("target", ["missing/out.json", "."])
def test_unwritable_output_exits_2(capsys, tmp_path, target):
    output = str(tmp_path / target)
    code = cli.main(
        ["gamas", "--input", str(DATA / "gamas_vanishing.json"), "--output", output]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: cannot write ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_unwritable_stdout_exits_2():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = ["gamas", "--input", str(DATA / "gamas_vanishing.json")]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "symten.cli", *argv],
            env=env, stdout=full, stderr=subprocess.PIPE, text=True,
        )
    assert proc.returncode == 2, proc.stderr
    # one line: no traceback, and no failed flush reported at exit
    assert proc.stderr.startswith("error: cannot write stdout: ")
    assert proc.stderr.count("\n") == 1, proc.stderr


def test_argument_ranges_exit_2(capsys):
    for argv in (
        ["characters", "--n", "-3"],
        ["selfcheck", "--n", "0"],
        ["selfcheck", "--n", "-1"],
        ["selfcheck", "--n", "2", "--trials", "-1"],
    ):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
    code, out = run(capsys, "characters", "--n", "0")
    assert code == 0
    assert json.loads(out)["n"] == 0


def test_negative_max_n_exits_2(capsys):
    instance = str(DATA / "equal_scaling.json")
    for argv in (
        ["gamas", "--input", instance],
        ["equal", "--input", instance],
        ["symmetrize", "--input", instance],
        ["characters", "--n", "0"],
        ["selfcheck", "--n", "2", "--trials", "1"],
    ):
        assert cli.main([*argv, "--max-n", "-1"]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --max-n must be at least 0\n"


def test_selfcheck_property_that_raises_fails(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(crosscheck, "tensor_equal", boom)
    code = cli.main(["selfcheck", "--n", "2", "--trials", "2", "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    assert "error: right_action_law raised RuntimeError: boom\n" in captured.err
    report = json.loads(captured.out)
    assert report["ok"] is False
    passed = {p["name"]: p["pass"] for p in report["properties"]}
    assert passed["right_action_law"] is False
    assert passed["gamas_matches_oracle"] is True  # uses no tensor_equal


def test_selfcheck_failure_exits_1_under_optimize():
    # python -O strips assert statements; the properties must still fail
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = (
        "import sys, symten.cli as c, symten.crosscheck as x\n"
        "x.tensor_equal = lambda *a, **k: False\n"
        "sys.exit(c.main(['selfcheck', '--n', '2', '--trials', '2', '--seed', '0']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 1, proc.stderr
    report = json.loads(proc.stdout)
    assert report["ok"] is False
    assert not all(p["pass"] for p in report["properties"])


def test_gamas_decider_mismatch_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(decision, "gamas_standard", lambda *a, **k: (False, None))
    code = cli.main(["gamas", "--input", str(DATA / "gamas_nonvanishing.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_empty_shape_witnesses(capsys, tmp_path):
    path = write_instance(tmp_path, '{"dim": 2, "lambda": [], "v": []}')
    code, out = run(capsys, "gamas", "--input", path)
    assert code == 0
    assert json.loads(out) == {"nonzero": True, "witness_system": [], "standard_witness": []}


json_leaves = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=4)
    | st.floats()
    | st.sampled_from(["1", "-1/2", "0", "1/0", "0.5", "1e3", "x", ""])
)
json_values = st.recursive(json_leaves, lambda inner: st.lists(inner, max_size=3), max_leaves=12)
# near-valid parts, so that some documents parse
dims = st.integers(min_value=1, max_value=2) | json_values
shapes = st.sampled_from([[], [1], [2], [1, 1], [True], [1.0], [-1]]) | json_values
vectors = st.lists(st.lists(json_leaves, min_size=1, max_size=2), max_size=2) | json_values


@settings(max_examples=200, deadline=None)
@given(
    json_values
    | st.fixed_dictionaries(
        {"dim": dims, "lambda": shapes, "v": vectors}, optional={"u": vectors}
    )
)
def test_load_instance_parses_or_raises_input_error(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "inst.json"
    path.write_text(json.dumps(doc))
    try:
        lam, fv, fu = cli.load_instance(str(path))
    except cli.InputError:
        return
    assert type(fv.dim) is int and all(type(p) is int for p in lam)
    assert len(fv) == sum(lam)


def _writes_as_json_dumps(out: str) -> bool:
    return out == json.dumps(json.loads(out), indent=2) + "\n"


def test_writer_on_large_outputs(capsys, tmp_path):
    rng = random.Random(7)
    fv = random_family(rng, 7, 3)
    fu = scaled_family(rng, fv, unit_product=False)
    path = tmp_path / "off.json"
    path.write_text(json.dumps({
        "dim": 3,
        "lambda": [3, 2, 2],
        "v": [[format_rational(x) for x in v] for v in fv.vectors],
        "u": [[format_rational(x) for x in u] for u in fu.vectors],
    }))
    code, out = run(capsys, "equal", "--input", str(path), "--exhaustive-failures")
    assert code == 0
    report = json.loads(out)
    assert report["equal"] is False and len(report["failures"]) > 50
    assert {f["reason"] for f in report["failures"]} == {"product_not_one"}
    assert _writes_as_json_dumps(out)
    path.write_text(json.dumps({
        "dim": 2,
        "lambda": [4, 2],
        "v": [[format_rational(x) for x in v] for v in random_family(rng, 6, 2).vectors],
    }))
    code, out = run(capsys, "symmetrize", "--input", str(path))
    assert code == 0
    assert len(json.loads(out)["entries"]) > 20
    assert _writes_as_json_dumps(out)


# indices past 9 and dims past a digit; mixed denominators, zero dropped
_coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=30)


@st.composite
def _tensors(draw):
    order, dim = draw(st.integers(0, 4)), draw(st.integers(1, 12))
    index = st.tuples(*[st.integers(1, dim)] * order)
    return SparseTensor(dim, order, draw(st.dictionaries(index, _coeffs, max_size=12)))


@settings(max_examples=200, deadline=None)
@given(_tensors())
@example(SparseTensor(3, 0, {(): Fraction(-7, 4)}))
@example(SparseTensor(3, 0))
@example(SparseTensor(12, 2))
@example(SparseTensor(12, 3, {(10, 1, 12): Fraction(5), (2, 11, 3): Fraction(-1, 10)}))
def test_tensor_template_writes_as_json_dumps(x):
    assert cli._tensor_text(x) == json.dumps(to_json_obj(x), indent=2)


_columns = st.lists(st.integers(1, 12), max_size=3).map(tuple)
_systems = st.lists(_columns, max_size=3).map(tuple)


@st.composite
def _verdicts(draw):
    """Any verdict the writer may meet: each rational drawn from a few
    objects, each value also as a second object, as a verdict shares them."""
    values = draw(st.lists(_coeffs.filter(bool), min_size=1, max_size=4))
    shared = st.sampled_from(values + [Fraction(q.numerator, q.denominator) for q in values])

    def scalars(k):
        return tuple(draw(shared) for _ in range(k))

    failures = []
    for system in draw(st.lists(_systems, max_size=3)):
        reason = draw(st.sampled_from([INDEPENDENCE_MISMATCH, NO_SPAN_MATCHING, PRODUCT_NOT_ONE]))
        if reason == PRODUCT_NOT_ONE:
            failures.append(SystemFailure(system, reason, scalars(len(system)), draw(shared)))
        else:
            failures.append(SystemFailure(system, reason))
    witnesses = [
        SystemWitness(system, tuple(draw(st.permutations(range(1, len(system) + 1)))),
                      scalars(len(system)))
        for system in draw(st.lists(_systems, max_size=3))
    ]
    mode = draw(st.sampled_from(["both_vanish", "witnessed", "failed"]))
    return EqualityVerdict(mode != "failed", mode, tuple(failures), tuple(witnesses))


@settings(max_examples=200, deadline=None)
@given(_verdicts())
@example(EqualityVerdict(True, "both_vanish", (), ()))
@example(EqualityVerdict(True, "witnessed", (), (SystemWitness((), (), ()),)))
def test_verdict_template_writes_as_json_dumps(verdict):
    assert cli._verdict_text(verdict) == json.dumps(verdict_json(verdict), indent=2)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 5).flatmap(lambda n: st.sampled_from(enumerate_partitions(n))),
    st.integers(0, 2**32),
    st.sampled_from(["unrelated", "unit_product", "product_off"]),
    st.booleans(),
)
@example((), 0, "unit_product", False)
def test_equal_verdicts_write_as_json_dumps(lam, seed, kind, exhaustive):
    # every mode: unrelated pairs fail or both vanish, rescalings are witnessed
    rng = random.Random(seed)
    n, dim = sum(lam), rng.choice((1, 2, 3))
    fv = random_family(rng, n, dim, adversarial=True)
    if kind == "unrelated" or not n:  # no family of 0 vectors is rescaled
        fu = random_family(rng, n, dim, adversarial=True)
    else:
        fu = scaled_family(rng, fv, unit_product=kind == "unit_product")
    verdict = decide_equality(fv, fu, lam, exhaustive)
    assert cli._verdict_text(verdict) == json.dumps(verdict_json(verdict), indent=2)


def _stdout_of(argv) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv) == 0
    return out.getvalue()


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 6).flatmap(lambda n: st.sampled_from(enumerate_partitions(n))),
    st.sampled_from((1, 2, 3)),
    st.integers(0, 2**32),
)
@example((), 2, 0)
@example((1, 1), 1, 0)  # taller than the dimension: both witnesses null
@example((3, 2, 1), 3, 1)
def test_gamas_writes_as_json_dumps(tmp_path_factory, lam, dim, seed):
    fv = random_family(random.Random(seed), sum(lam), dim, adversarial=True)
    path = tmp_path_factory.mktemp("gamas") / "inst.json"
    path.write_text(json.dumps({
        "dim": dim,
        "lambda": list(lam),
        "v": [[format_rational(x) for x in v] for v in fv.vectors],
    }))
    nonzero, system = decision.gamas_nonvanishing(fv, lam)
    _, tableau = decision.gamas_standard(fv, lam)
    payload = {
        "nonzero": nonzero,
        "witness_system": None if system is None else [list(c) for c in system],
        "standard_witness": None if tableau is None else [list(r) for r in tableau],
    }
    assert _stdout_of(["gamas", "--input", str(path)]) == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("name", [name for c, name in GOLDEN_CASES if c == ("symmetrize",)])
def test_symmetrize_shape_only_writes_as_json_dumps(name):
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    payload = {"dim": golden["dim"], "order": golden["order"], "entry_count": len(golden["entries"])}
    out = _stdout_of(["symmetrize", "--shape-only", "--input", str(DATA / f"{name}.json")])
    assert out == json.dumps(payload, indent=2) + "\n"
