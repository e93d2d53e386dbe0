"""The committed fault gate: faults, each one edit of the code that runs
(`tests.reference.sabotage`), and the checks that kill them.

A row names every check that fails with its edit in place, and the test
asserts that each of them does.  A row marked EQUIVALENT names none: its
edit changes nothing the checks can see, and the test asserts that every
check passes with it in place.  The checks are CI's selfcheck settings,
each run as `selfcheck` runs it; the exhaustive tiny sweep; the verdicts
fixed by construction past the oracle; the goldens, run in-process; equal
pairs on proper subspaces that are not rescalings; and the integer
elimination against a rational one, a Hypothesis property that reports
its first falsifying example only.
The memoized character values, class table and parser are cleared before
and after each row, so that a fault in what they memoize is met, and
leaves nothing behind.
"""
from __future__ import annotations

import contextlib
import functools
import io

import pytest

import tests.test_decision as decision_tests
import tests.test_linalg as linalg_tests
from symten import characters, cli, combinatorics, decision, group_algebra, linalg
from tests.reference import edited, sabotage
from tests.test_cli import GOLDEN, GOLDEN_COMMANDS, SELFCHECK_SETTINGS


def _run(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _selfcheck(n: int, trials: int) -> None:
    code, _ = _run("selfcheck", "--n", str(n), "--trials", str(trials), "--seed", "0")
    assert code == cli.EXIT_OK


def _goldens() -> None:
    for argv, name in GOLDEN_COMMANDS:
        assert _run(*argv) == (0, (GOLDEN / f"{name}.json").read_text()), name


def _selfchecks(*settings: tuple[int, int]) -> tuple[str, ...]:
    return tuple(f"selfcheck {n} {trials}" for n, trials in settings)


ALL_SELFCHECKS = _selfchecks(*SELFCHECK_SETTINGS)
#: Each check by name; it raises AssertionError when it fails.
CHECKS = {
    **{
        name: functools.partial(_selfcheck, *setting)
        for name, setting in zip(ALL_SELFCHECKS, SELFCHECK_SETTINGS)
    },
    "tiny sweep": decision_tests.test_every_tiny_instance_agrees_with_the_oracle,
    "constructed": decision_tests.test_constructed_verdicts_past_the_oracle,
    "goldens": _goldens,
    "proper subspaces": (
        decision_tests.test_equal_columns_of_proper_subspaces_that_are_not_rescalings
    ),
    "rational elimination": linalg_tests.test_integer_elimination_matches_rational_reference,
}
EQUIVALENT = ()


#: (module, function, old text, new text, the checks that kill it), each
#: row under the reason its edit is a fault or, marked EQUIVALENT, is none.
FAULTS = [
    # a row swap that keeps the sign of the minor
    pytest.param(
        linalg, "_echelon", "sign = -sign", "pass",
        (
            *_selfchecks((3, 25), (4, 100), (6, 4)), "tiny sweep", "constructed",
            "proper subspaces", "rational elimination",
        ),
        id="echelon-swap-sign",
    ),
    # the product checked only on systems of at most 4 columns
    pytest.param(
        decision, "_search_matching", "if num != den:", "if num != den and len(system) <= 4:",
        (*_selfchecks((5, 25), (6, 4)), "constructed"),
        id="product-check-up-to-4-columns",
    ),
    # only on systems of at least 2 columns
    pytest.param(
        decision, "_search_matching", "if num != den:", "if num != den and len(system) >= 2:",
        (*_selfchecks((3, 25)), "tiny sweep", "goldens", "proper subspaces"),
        id="product-check-from-2-columns",
    ),
    # only on systems of fewer than 9 columns, which no degree up to 8 has
    pytest.param(
        decision, "_search_matching", "if num != den:", "if num != den and len(system) < 9:",
        ("constructed",),
        id="product-check-below-9-columns",
    ),
    # equality's search cutting a column dependent on one side only
    pytest.param(
        decision, "decide_equality", "is not None or u_keys", "is not None and u_keys",
        _selfchecks((3, 25), (4, 100), (5, 25), (6, 4)),
        id="keep-with-and",
    ),
    # an independence mismatch seen only when v is the independent side
    pytest.param(
        decision, "decide_equality", "if v_ind != u_ind:", "if v_ind and not u_ind:",
        _selfchecks((3, 25), (4, 100), (5, 25)),
        id="one-sided-independence-mismatch",
    ),
    # the last choice of a column's least entry skipped
    pytest.param(
        combinatorics, "iter_column_systems", "range(room[j] + 1)", "range(room[j])",
        (*ALL_SELFCHECKS, "tiny sweep", "constructed", "goldens"),
        id="last-lead-skipped",
    ),
    # a border strip removed onto a beta number already there
    pytest.param(
        characters, "_border_strip_removals", "if b < 0 or b in beta_set:", "if b < 0:",
        (*ALL_SELFCHECKS, "tiny sweep", "goldens", "proper subspaces"),
        id="invalid-border-strips",
    ),
    # a span key's basis rows signed by their last entry, not their pivot;
    # only keys of fewer than dim vectors sign rows
    pytest.param(
        linalg, "_SpanKeys.__missing__", "if row[c] < 0:", "if row[-1] < 0:",
        (
            *_selfchecks((3, 25), (4, 100), (5, 25)), "tiny sweep", "constructed", "goldens",
            "proper subspaces", "rational elimination",
        ),
        id="span-key-sign-column",
    ),
    # dependent span keys for columns of 5 or more vectors, which only
    # dimension 5 and up can make independent
    pytest.param(
        linalg, "_SpanKeys.__missing__", "if k <= self.dim else", "if k <= min(self.dim, 4) else",
        ("constructed",),
        id="span-key-past-4-vectors",
    ),
    # the basis of dim - 1 vectors read off rows the back half never cleared
    pytest.param(
        linalg, "_SpanKeys.__missing__", "reduce=k < self.dim", "reduce=k < self.dim - 1",
        ("proper subspaces", "rational elimination"),
        id="span-key-unreduced-below-dim",
    ),
    # the identity basis given to dim - 1 independent vectors as well
    pytest.param(
        linalg, "_SpanKeys.__missing__", "if k == self.dim:", "if k >= self.dim - 1:",
        (*_selfchecks((3, 25)), "tiny sweep", "constructed", "goldens", "rational elimination"),
        id="span-key-identity-below-dim",
    ),
    # each v column matched to the last free u column of its span: a
    # matching still, of the same product, but another witness
    pytest.param(
        decision, "_search_matching", "targets.pop(0)", "targets.pop()",
        ("tiny sweep", "goldens"),
        id="last-free-target",
    ),
    # a lead equal to the least entry of the equal column above it: that
    # entry is in use, so it is never among the remaining ones
    pytest.param(
        combinatorics, "iter_column_systems", "if lead <= above:", "if lead < above:",
        EQUIVALENT,
        id="lead-not-above",
    ),
    # a value put under an empty cell: it goes into its column's next free
    # row, where the row above would put it, so every tableau that comes
    # out is still standard, and the first one is the same
    pytest.param(
        combinatorics, "iter_standard", "filled[i - 1] > j", "filled[i - 1] >= j",
        EQUIVALENT,
        id="standard-placement-under-an-empty-cell",
    ),
]


def _fails(check) -> bool:
    """Whether the check fails an assertion; any other exception propagates."""
    try:
        check()
    except AssertionError:
        return True
    return False


def _clear_caches() -> None:
    characters.mn_character.cache_clear()
    group_algebra._class_table.cache_clear()
    cli.build_parser.cache_clear()


@pytest.mark.parametrize("module,name,old,new,kills", FAULTS)
def test_every_committed_fault_is_killed_by_the_checks_it_names(
    monkeypatch, module, name, old, new, kills
):
    _clear_caches()
    try:
        sabotage(monkeypatch, module, name, old, new)
        if kills:
            assert [check for check in kills if not _fails(CHECKS[check])] == []
        else:
            assert [check for check, run in CHECKS.items() if _fails(run)] == []
    finally:
        monkeypatch.undo()
        _clear_caches()


@pytest.mark.parametrize("old,count", [("no such text", 0), ("*= ratio.", 2)])
def test_an_edit_must_find_its_old_text_exactly_once(old, count):
    with pytest.raises(ValueError, match=f"occurs {count} times in _search_matching"):
        edited(decision, "_search_matching", old, "pass")
