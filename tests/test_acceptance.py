"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Criteria 1 and 2 run the oracle comparisons of `symten.crosscheck`, the
same properties `selfcheck` runs; the other criteria pit symmetrizers,
characters and the CLI against their own oracles.  Agreement is required
to be exact, with no tolerances anywhere.
"""
import json
import math
import random
from fractions import Fraction

import pytest

from symten import cli, crosscheck
from symten.combinatorics import enumerate_partitions, tableau_columns
from symten.group_algebra import isotypic_projector
from symten.linalg import is_independent
from symten.sampling import random_family, scaled_family
from symten.tensor import apply_element, decomposable, is_zero, tensor_equal
from tests import test_characters
from tests.reference import (
    column_antisymmetrizer,
    combination,
    enumerate_fillings,
    from_json_obj,
    ga_multiply,
    hook_length_dimension,
    young_symmetrizer,
)
from tests.test_cli import DATA, GOLDEN, GOLDEN_CASES


def report(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def projectors():
    cache = {}

    def get(lam):
        if lam not in cache:
            cache[lam] = isotypic_projector(lam)
        return cache[lam]

    return get


def run_property(name, degrees, trials, seed):
    rng = random.Random(seed)
    checks = 0
    for n in degrees:
        count = dict(crosscheck.properties(n, trials, rng))[name]()
        assert count is not None, f"{name} failed at n = {n}"
        checks += count
    return checks


def test_criterion_1_main_theorem_oracle_equivalence():
    checks = run_property("equality_matches_oracle", range(2, 6), 12, 20260825)
    assert checks >= 200
    report("criterion 1 (main-theorem oracle equivalence)", f"{checks} instances")


def test_criterion_2_gamas_equivalence():
    checks = run_property("gamas_matches_oracle", range(1, 6), 12, 7042)
    assert checks >= 100
    report("criterion 2 (Gamas equivalence)", f"{checks} families")


def test_criterion_3_column_antisymmetrizer_vanishing():
    rng = random.Random(1131)
    families = 0
    for n in range(1, 5):
        partitions = enumerate_partitions(n)
        symmetrizers = {
            lam: [
                (rows, column_antisymmetrizer(rows), young_symmetrizer(rows))
                for rows in enumerate_fillings(lam)
            ]
            for lam in partitions
        }
        for trial in range(5):
            fam = random_family(rng, n, rng.choice((2, 3)), adversarial=trial % 2 == 1)
            x = decomposable(fam)
            for lam in partitions:
                families += 1
                for rows, b, c in symmetrizers[lam]:
                    columns_ok = all(
                        is_independent(fam, col) for col in tableau_columns(rows)
                    )
                    b_zero = is_zero(apply_element(x, b))
                    c_zero = is_zero(apply_element(x, c))
                    assert b_zero == c_zero == (not columns_ok)
    assert families >= 50
    report("criterion 3 (column-wise vanishing, all fillings)", f"{families} family/shape cases")


def test_criterion_4_projector_versus_every_symmetrizer(projectors):
    rng = random.Random(404)
    pairs = 0
    for n in (2, 3, 4):
        partitions = enumerate_partitions(n)
        symmetrizers = {
            lam: [young_symmetrizer(rows) for rows in enumerate_fillings(lam)]
            for lam in partitions
        }
        for trial in range(6):
            dim = rng.choice((2, 3))
            fv = random_family(rng, n, dim, adversarial=True)
            if trial % 3 == 0:
                fu = scaled_family(rng, fv, unit_product=bool(trial % 2))
            else:
                fu = random_family(rng, n, dim, adversarial=True)
            xv = decomposable(fv)
            xu = decomposable(fu)
            for lam in partitions:
                pairs += 1
                under_projector = tensor_equal(
                    apply_element(xv, projectors(lam)),
                    apply_element(xu, projectors(lam)),
                )
                under_all_symmetrizers = all(
                    tensor_equal(apply_element(xv, c), apply_element(xu, c))
                    for c in symmetrizers[lam]
                )
                assert under_projector == under_all_symmetrizers
    assert pairs >= 50
    report("criterion 4 (projector equality iff per-symmetrizer equality)", f"{pairs} pairs")


def test_criterion_5_character_suite():
    # the unit tests of symten.characters, at every degree they cover
    for n in range(1, 7):
        test_characters.test_mn_table_matches_oracle(n)
        test_characters.test_row_orthogonality(n)
        test_characters.test_column_orthogonality(n)
        test_characters.test_dimension_consistency(n)
    for n in range(1, 9):
        test_characters.test_sum_of_squared_dimensions(n)
    report("criterion 5 (character suite)", "tables n<=6, dimensions n<=8")


def test_criterion_6_group_algebra_suite(projectors):
    # n = 5 spot checks
    spot = [(5,), (3, 2), (2, 2, 1)]
    for lam in spot:
        p = projectors(lam)
        assert ga_multiply(p, p).terms == p.terms
        rows = tuple(
            tuple(range(sum(lam[:i]) + 1, sum(lam[:i + 1]) + 1)) for i in range(len(lam))
        )
        c = young_symmetrizer(rows)
        assert ga_multiply(p, c).terms == c.terms
        kappa = Fraction(math.factorial(5), hook_length_dimension(lam))
        assert ga_multiply(c, c).terms == combination((kappa, c)).terms
    assert ga_multiply(projectors((5,)), projectors((3, 2))).terms == {}
    report("criterion 6 (group-algebra suite)", "n=5 spot checks")


def test_criterion_7_cli_contract(capsys, tmp_path):
    for command, name in GOLDEN_CASES:
        argv = [*command, "--input", str(DATA / f"{name}.json")]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert first == (GOLDEN / f"{name}.json").read_text()
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == first
    assert cli.main(["characters", "--n", "4"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "characters_n4.json").read_text()

    # symmetrize -> parse round trip
    assert cli.main(["symmetrize", "--input", str(DATA / "symmetrize_basis.json")]) == 0
    obj = json.loads(capsys.readouterr().out)
    lam, fv, _ = cli.load_instance(str(DATA / "symmetrize_basis.json"))
    expected = apply_element(decomposable(fv), isotypic_projector(lam))
    assert tensor_equal(from_json_obj(obj), expected)

    # exit-code table
    assert cli.main(["gamas", "--input", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    assert cli.main(["equal", "--input", str(DATA / "gamas_vanishing.json")]) == 2
    capsys.readouterr()
    assert cli.main(["gamas", "--input", str(DATA / "big_instance.json")]) == 3
    capsys.readouterr()
    assert cli.main(["selfcheck", "--n", "3", "--trials", "5", "--seed", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    report("criterion 7 (CLI contract)", "golden files, reruns, round trip, exit codes")
