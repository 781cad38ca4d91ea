"""Verification reports: a failing check names its first counterexample."""

import ast
import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import octasphere
from octasphere import cli, operators, suites
from octasphere.superpotential import riccati_check
from octasphere.trigpoly import TrigPoly, frac_to_str


def _check(rep, prefix):
    return next(c for c in rep["checks"] if c["name"].startswith(prefix))


def test_passing_algebra_report_carries_no_counterexample():
    rep = suites.suite_algebra()
    assert rep["passed"]
    assert all("counterexample" not in c and "witness" not in c for c in rep["checks"])


def test_a_failed_antisymmetry_proof_names_its_pair_and_witness(monkeypatch):
    # products in place of brackets: XY + YX no longer vanishes
    monkeypatch.setattr(suites, "graded_bracket", operators.graded_product)
    check = _check(suites.suite_algebra(), "antisymmetry")
    assert not check["passed"]
    assert check["operators"] == ["A-", "B+"]
    assert check["witness"] == {"monomial": [0, 0, 0], "terms": 7}


def test_a_failed_jacobi_proof_names_its_first_triple_and_witness(monkeypatch):
    # products in place of brackets: the Jacobi sum no longer vanishes
    monkeypatch.setattr(suites, "graded_bracket", operators.graded_product)
    check = _check(suites.suite_algebra(), "Jacobi")
    assert not check["passed"]
    assert check["operators"] == ["A-", "A+", "B-"]
    assert check["witness"] == {"monomial": [0, 0, 0], "terms": 19}


def _break_family_a(monkeypatch):
    # an extra l2 cot(phi1) term in A's multiplier
    fam = operators.FAMILIES["A"]
    monkeypatch.setitem(operators.FAMILIES, "A",
                        replace(fam, cot_row=fam.cot_row[:3] + (Fraction(1),)))


def test_failed_annihilation_names_its_operator_and_witness(monkeypatch):
    _break_family_a(monkeypatch)
    check = _check(suites.suite_intertwine(), "A- and C- annihilate")
    assert not check["passed"]
    assert check["operators"] == ["A-"]
    assert check["witness"] == {"monomial": [0, 0, 1], "terms": 1}


def test_unclosed_commutators_carry_their_witness(monkeypatch):
    _break_family_a(monkeypatch)
    check = _check(suites.suite_algebra(), "pairwise commutators close")
    assert not check["passed"]
    assert set(check["witness"]) == set(check["unmatched"])
    assert check["witness"]["B+,C-"] == {"monomial": [0, 0, 1], "terms": 1}


def test_an_inconsistent_multiplier_system_fails_its_checks_with_the_solver_report(
        monkeypatch):
    # a wrong d2 coefficient in B's chart leaves no multiplier that intertwines:
    # the solver raises, and the suite records the failure instead of raising
    fam = operators.FAMILIES["B"]
    monkeypatch.setitem(operators.FAMILIES, "B", replace(fam, chart=replace(
        fam.chart, d2_coeff=TrigPoly.monomial(-2, (1, 0, 0, 0)))))
    rep = suites.suite_intertwine()
    assert not rep["passed"]
    solves = [c for c in rep["checks"] if c["name"].startswith("solve_multiplier rebuilds")]
    failed = [c for c in solves if not c["passed"]]
    assert [c["name"] for c in failed] == [c["name"] for c in solves if " B- " in c["name"]]
    assert [c["witness"] for c in failed] == [
        {"sector": sector, "delta": [1, 0, 1], "rows": 13}
        for sector in (["1", "2", "0"], ["1", "1", "1"], ["2", "0", "1"])]
    assert cli.main(["verify", "--suite", "intertwine"]) == 1


def test_the_table_errata_read_their_computed_side_off_the_table(monkeypatch):
    real = operators.structure_table

    def moved():
        st = real()
        st["table"]["A+,C+"] = [("1", "B-")]
        return st

    def computed(rep):
        return {d["entry"]: d["computed"] for d in rep["paper_deltas"]}

    assert computed(suites.suite_algebra()) == {"[A-,A+]": "-2A", "[A+,C+]": "-B+",
                                                "[B-,C+]": "A-"}
    monkeypatch.setattr(suites, "structure_table", moved)
    assert computed(suites.suite_algebra())["[A+,C+]"] == "B-"


def test_failed_riccati_residual_names_the_first_sector(monkeypatch):
    _break_family_a(monkeypatch)
    rep = suites.suite_riccati()
    check = _check(rep, "riccati residual")
    assert not check["passed"]
    assert check["witness"] == {"sector": ["1/2", "1/3", "2"], "terms": 2}
    assert not _check(rep, "lambda_l is an exact polynomial")["passed"]


def test_a_riccati_residual_that_vanishes_with_the_wrong_lambda_fails(monkeypatch):
    real = suites.riccati_check
    monkeypatch.setattr(suites, "riccati_check", lambda ell: (real(ell)[0], Fraction(0)))
    check = _check(suites.suite_riccati(), "riccati residual")
    assert not check["passed"]
    assert check["witness"] == {"sector": ["1/2", "1/3", "2"], "terms": 0}


def test_riccati_samples_take_their_flag_from_the_residual(monkeypatch):
    # the flag is the lambda proof: the residual is a constant for every l
    samples = suites.suite_riccati()["lambda_samples"]
    assert len(samples) == 8 and all(s["riccati_residual_zero"] is True for s in samples)
    _break_family_a(monkeypatch)
    assert suites.suite_riccati()["lambda_samples"] == []


def test_lambda_samples_are_the_sector_check_at_their_sectors():
    samples = suites.suite_riccati()["lambda_samples"]
    assert [s["sector"] for s in samples] == [
        ["0", "0", "0"], ["0", "0", "1"], ["0", "0", "2"], ["0", "1", "0"],
        ["0", "1", "1"], ["0", "1", "2"], ["0", "2", "0"], ["0", "2", "1"]]
    for s in samples:
        resid, lam = riccati_check(tuple(Fraction(x) for x in s["sector"]))
        assert not resid and s["lambda"] == frac_to_str(lam)


def test_failed_simultaneous_superpotential_names_its_family_and_witness(monkeypatch):
    _break_family_a(monkeypatch)
    check = _check(suites.suite_riccati(), "one fundamental state")
    assert not check["passed"]
    assert check["operators"] == ["A"]
    assert check["witness"] == {"monomial": [0, 0, 1], "terms": 1}


def test_passing_riccati_report_carries_no_counterexample():
    assert all("counterexample" not in c and "witness" not in c
               for c in suites.suite_riccati()["checks"])


def test_the_report_is_the_same_at_every_range():
    # every suite proves its identities for all l: --range is only echoed
    reports = [suites.run_suite("all", r) for r in (1, 2, 3)]
    for r, rep in zip((1, 2, 3), reports):
        assert rep["range"] == r and all(sub["range"] == r for sub in rep["suites"])
    unranged = [json.dumps(dict(rep, range=None, suites=[dict(sub, range=None)
                                                         for sub in rep["suites"]]),
                           sort_keys=True) for rep in reports]
    assert unranged[0] == unranged[1] == unranged[2]


def test_the_printed_audit_checks_read_the_delta_report(monkeypatch):
    # the four printed B/C checks follow the verdicts printed_delta_report records
    only_b_minus = [d for d in operators.printed_delta_report() if d["operator"] == "B-"]
    monkeypatch.setattr(suites, "printed_delta_report", lambda: only_b_minus)
    rep = suites.suite_intertwine()
    verdicts = {n: _check(rep, f"printed {n} fails")["passed"] for n in ("B-", "B+", "C-", "C+")}
    assert verdicts == {"B-": True, "B+": False, "C-": False, "C+": False}
    assert rep["paper_deltas"] == only_b_minus


def test_no_check_in_the_package_is_a_bare_assert():
    # python -O strips assert statements, and a report must not claim what it skipped
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(octasphere.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []
