import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symten import characters, cli, crosscheck, group_algebra, tensor
from symten.linalg import format_rational
from symten.sampling import random_family, scaled_family
from symten.tensor import tensor_equal
from tests.reference import from_json_obj

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

GOLDEN_CASES = [
    ("gamas", "gamas_vanishing"),
    ("gamas", "gamas_nonvanishing"),
    ("gamas", "gamas_zero_vector"),
    ("equal", "equal_scaling"),
    ("equal", "equal_product_off"),
    ("equal", "equal_both_vanish"),
    ("symmetrize", "symmetrize_basis"),
    ("symmetrize", "symmetrize_vanishing"),
    ("symmetrize", "symmetrize_n8"),
]

# the argv of every file in tests/golden/, which CI also runs under python -O
GOLDEN_COMMANDS = [
    ((command, "--input", str(DATA / f"{name}.json")), name)
    for command, name in GOLDEN_CASES
] + [
    (("characters", "--n", "4"), "characters_n4"),
    (("selfcheck", "--n", "3", "--trials", "5", "--seed", "2"), "selfcheck_n3"),
]


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("command,name", GOLDEN_CASES)
def test_golden_outputs(capsys, command, name):
    code, out = run(capsys, command, "--input", str(DATA / f"{name}.json"))
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
        _, out = run(capsys, command, "--input", str(DATA / f"{name}.json"))

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


def test_exit_code_limit(capsys):
    assert cli.main(["gamas", "--input", str(DATA / "big_instance.json")]) == 3
    capsys.readouterr()
    assert cli.main(["characters", "--n", "9"]) == 3
    capsys.readouterr()
    # the override flag admits the same instance
    assert (
        cli.main(["gamas", "--input", str(DATA / "big_instance.json"), "--max-n", "9"])
        == 0
    )
    capsys.readouterr()


@pytest.mark.parametrize("command", ["symmetrize", "selfcheck"])
def test_degree_past_the_class_table_exits_3(capsys, tmp_path, command):
    # listing S_17 by class would take 17! permutations; the table stops at 16
    instance = tmp_path / "n17.json"
    instance.write_text(json.dumps({"dim": 2, "lambda": [17], "v": [["1", "0"]] * 17}))
    argv = {
        "symmetrize": ["symmetrize", "--input", str(instance)],
        "selfcheck": ["selfcheck", "--n", "17", "--trials", "0"],
    }[command]
    assert cli.main([*argv, "--max-n", "17"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: degree 17 is past the class table's limit of 16")
    assert captured.err.count("\n") == 1, captured.err


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
    monkeypatch.setattr(cli, "gamas_standard", lambda *a, **k: (False, None))
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


# every kind the writer takes, with the strings and ints json.dumps escapes
# or spells out in full
writer_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.text()
    | st.text(st.characters(max_codepoint=0x7F))
    | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u00e9\u4e2d\U0001f600", "\n\t\r"])
)
writer_values = st.recursive(
    writer_leaves,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(writer_values)
@example({"a\u00e9\"\\": ["\x07", "\u2028", -(10**40)], "": {}, "e": [[], {}, [[]], [{}]]})
@example([1, True, 0, False, None, -1])
@example([[1, 2], ["x", "y"], [True, 2], [2, True], ["a", 1]])
@example({})
@example([])
def test_writer_matches_json_dumps(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize(
    "obj",
    [1.5, {"a": [1.0]}, (1, 2), [1, (2,)], {1: "a"}, {"a": {None: 1}}, float("nan")],
    ids=["float", "nested-float", "tuple", "nested-tuple", "int-key", "none-key", "nan"],
)
def test_writer_refuses_what_json_dumps_would_convert(obj):
    with pytest.raises(TypeError):
        cli._json_text(obj)


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
