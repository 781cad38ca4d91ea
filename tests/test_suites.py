"""Verification reports: a failing check names its first counterexample."""

import ast
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import octasphere
from octasphere import operators, suites
from octasphere.trigpoly import SIN1


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


def test_a_failed_jacobi_proof_names_its_first_triple_and_witness(monkeypatch):
    # products in place of brackets: the Jacobi sum no longer vanishes
    monkeypatch.setattr(suites, "graded_bracket", operators.graded_product)
    check = _check(suites.suite_algebra(1), "Jacobi")
    assert not check["passed"]
    assert check["operators"] == ["A-", "A+", "B-"]
    assert check["witness"] == {"monomial": [0, 0, 0], "terms": 19}


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


def test_failed_riccati_residual_names_the_first_sector(monkeypatch):
    real = suites.riccati_check

    def broken(ell):
        resid, lam = real(ell)
        return (SIN1 if ell in ((0, 1, 0), (1, 1, 1)) else resid), lam

    monkeypatch.setattr(suites, "riccati_check", broken)
    check = _check(suites.suite_riccati(1), "riccati residual")
    assert not check["passed"]
    assert check["counterexample"] == {"sector": ["0", "1", "0"]}


def test_riccati_samples_take_their_flag_from_the_residual(monkeypatch):
    real = suites.riccati_check

    def broken(ell):
        resid, lam = real(ell)
        return (SIN1 if ell == (0, 1, 0) else resid), lam

    monkeypatch.setattr(suites, "riccati_check", broken)
    samples = {tuple(s["sector"]): s["riccati_residual_zero"]
               for s in suites.suite_riccati(1)["lambda_samples"]}
    assert samples.pop(("0", "1", "0")) is False
    assert samples and all(ok is True for ok in samples.values())


def test_failed_simultaneous_superpotential_names_m_n_and_family(monkeypatch):
    real = suites.simultaneous_superpotentials
    monkeypatch.setattr(suites, "simultaneous_superpotentials",
                        lambda m, n: dict(real(m, n), C=(m, n) not in ((1, 0), (2, 2))))
    check = _check(suites.suite_riccati(1), "one fundamental state")
    assert not check["passed"]
    assert check["counterexample"] == {"m": 1, "n": 0, "superpotential": "C"}


def test_passing_riccati_report_carries_no_counterexample():
    assert all("counterexample" not in c for c in suites.suite_riccati(1)["checks"])


def test_the_printed_audit_checks_read_the_delta_report(monkeypatch):
    # the four printed B/C checks follow the verdicts printed_delta_report records
    only_b_minus = [d for d in operators.printed_delta_report() if d["operator"] == "B-"]
    monkeypatch.setattr(suites, "printed_delta_report", lambda: only_b_minus)
    rep = suites.suite_intertwine(0)
    verdicts = {n: _check(rep, f"printed {n} fails")["passed"] for n in ("B-", "B+", "C-", "C+")}
    assert verdicts == {"B-": True, "B+": False, "C-": False, "C+": False}
    assert rep["paper_deltas"] == only_b_minus


def test_no_check_in_the_package_is_a_bare_assert():
    # python -O strips assert statements, and a report must not claim what it skipped
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(octasphere.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []
