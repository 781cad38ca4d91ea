"""Verification reports: a failing check names its first counterexample."""

from dataclasses import replace
from fractions import Fraction

from octasphere import operators, suites


def _check(rep, prefix):
    return next(c for c in rep["checks"] if c["name"].startswith(prefix))


def test_passing_algebra_report_carries_no_counterexample():
    rep = suites.suite_algebra(1)
    assert rep["passed"]
    assert all("counterexample" not in c and "witness" not in c for c in rep["checks"])


def test_failed_samples_name_the_first_operators_and_sector(monkeypatch):
    monkeypatch.setattr(suites, "is_zero_op", lambda op: False)
    rep = suites.suite_algebra(1)
    assert _check(rep, "antisymmetry")["counterexample"] == \
        {"operators": ["A-", "B+"], "sector": ["1", "0", "1"]}
    assert _check(rep, "Jacobi")["counterexample"] == \
        {"operators": ["A-", "A+", "B-"], "sector": ["1", "1", "1"]}


def test_failed_annihilation_names_the_first_state(monkeypatch):
    monkeypatch.setattr(suites, "is_zero", lambda p: False)
    rep = suites.suite_intertwine(1)
    assert _check(rep, "A- and C- annihilate")["counterexample"] == \
        {"operators": ["A-"], "sector": ["0", "0", "0"]}


def test_unclosed_commutators_carry_their_witness(monkeypatch):
    fam = operators.FAMILIES["A"]
    monkeypatch.setitem(operators.FAMILIES, "A",
                        replace(fam, cot_row=fam.cot_row[:3] + (Fraction(1),)))
    check = _check(suites.suite_algebra(1), "pairwise commutators close")
    assert not check["passed"]
    assert set(check["witness"]) == set(check["unmatched"])
    assert check["witness"]["B+,C-"] == {"monomial": [0, 0, 1], "terms": 1}
