"""Vector/multiplier decompositions, superpotentials and the Riccati identity."""

from fractions import Fraction

import math

import pytest
from hypothesis import given, settings, strategies as st

from octasphere.diffop import DiffOp, pv
from octasphere.hierarchy import closed_form_state, ground_state
from octasphere.operators import (build_first_order, graded,
                                  is_exact_intertwiner)
from octasphere.superpotential import (decompose, family_multiplier,
                                       kinetic_rotation_check, riccati_check,
                                       riccati_lambda, superpot_from_state,
                                       simultaneous_superpotentials)
from octasphere.trigpoly import ONE, TrigPoly, TrigTerm, is_zero

F = Fraction
HALF = F(1, 2)


def mono(c, a, b, cc, d):
    return TrigPoly.monomial(c, (F(a), F(b), F(cc), F(d)))


def test_decompose_A_plus():
    vec, mult = decompose(build_first_order("A", "+", pv(1, 1, 1)))
    assert vec == DiffOp({(1, 0): ONE})
    assert mult == mono(-F(3, 2), -1, 1, 0, 0) + mono(F(3, 2), 1, -1, 0, 0)


def test_decompose_printed_B_plus():
    vec, mult = decompose(build_first_order("B", "+", pv(0, 0, 0)))
    assert vec == DiffOp({(1, 0): mono(1, 0, 1, -1, 1), (0, 1): mono(1, 1, 0, 0, 0)})
    assert mult == mono(-HALF, 1, 0, 1, -1) + mono(HALF, -1, 0, -1, 1)


def test_decompose_pure_vector():
    vec, mult = decompose(DiffOp({(0, 1): ONE}))
    assert not mult and vec == DiffOp({(0, 1): ONE})


def test_decompose_rejects_second_order():
    with pytest.raises(ValueError):
        decompose(DiffOp({(2, 0): ONE}))


def test_recombination_is_exact():
    op = build_first_order("C", "-", pv(2, 1, 0), variant="corrected")
    vec, mult = decompose(op)
    assert vec + DiffOp.multiplication(mult) == op


def test_superpot_from_state_matches_printed_alpha():
    phi0 = TrigTerm(F(1), (F(3, 2), HALF, F(2), HALF))
    vec = DiffOp({(1, 0): ONE.scale(-1)})  # a^-
    got = superpot_from_state(vec, phi0)
    # printed alpha at (1, 0, 0): -(3/2) tan + (1/2) cot
    assert got == mono(-F(3, 2), -1, 1, 0, 0) + mono(HALF, 1, -1, 0, 0)


def test_superpot_one_dimensional_convention():
    st = ground_state("phi1_1d", (1, 2, 0))
    vec = DiffOp({(1, 0): ONE.scale(-1)})
    omega = superpot_from_state(vec, st.wavefunction)
    # omega_m = (d f0/dphi1)/f0, the log-derivative of the chain ground state
    from octasphere.trigpoly import PHI1, differentiate, divide_by_monomial
    term = list(st.wavefunction.terms())[0]
    log_deriv = divide_by_monomial(differentiate(st.wavefunction, PHI1), term)
    assert is_zero(omega - log_deriv)


def test_superpot_constant_state_is_zero():
    vec = DiffOp({(1, 0): ONE.scale(-1)})
    assert not superpot_from_state(vec, TrigTerm(F(2), (F(0),) * 4))


def test_superpot_rejects_non_monomial():
    vec = DiffOp({(1, 0): ONE})
    with pytest.raises(ValueError):
        superpot_from_state(vec, mono(1, 1, 0, 0, 0) + mono(1, 0, 1, 0, 0))


def test_riccati_vanishing_potential_sector():
    resid, lam = riccati_check(pv(HALF, HALF, HALF))
    assert not resid and lam == 9


def test_riccati_integer_sectors():
    for ell, want in ((pv(1, 0, 1), F(63, 4)), (pv(2, 0, 0), F(63, 4)),
                      (pv(1, 1, 1), F(67, 4))):
        resid, lam = riccati_check(ell)
        assert not resid and lam == want


def test_riccati_lambda_closed_form():
    lam = riccati_lambda()
    assert lam is not None
    # lambda = 2(l0^2+l1^2+l2^2) - (l0-l1-l2)^2 + 4(l0+l2) + 15/4
    want = {(0, 0, 0): F(15, 4), (1, 0, 0): F(4), (0, 0, 1): F(4),
            (2, 0, 0): F(1), (0, 2, 0): F(1), (0, 0, 2): F(1),
            (1, 1, 0): F(2), (1, 0, 1): F(2), (0, 1, 1): F(-2)}
    assert lam == want
    # the same values on the {0..2}^3 box the closed form used to be fitted on
    for ell in ((i, j, k) for i in range(3) for j in range(3) for k in range(3)):
        resid, value = riccati_check(ell)
        assert not resid and value == _evaluate(lam, ell)


def _evaluate(poly, ell):
    return sum(c * math.prod(F(x) ** k for x, k in zip(ell, m)) for m, c in poly.items())


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@settings(max_examples=25, deadline=None)
@given(st.tuples(rationals, rationals, rationals))
def test_symbolic_lambda_matches_the_sector_check(ell):
    resid, value = riccati_check(ell)
    assert not resid and value == _evaluate(riccati_lambda(), ell)


def test_riccati_check_rejects_a_sector_without_three_couplings():
    with pytest.raises(ValueError):
        riccati_check((1, 2))


def test_lambda_of_broken_multiplier_is_none(monkeypatch):
    # an extra l2 cot(phi1) term in A's multiplier leaves a non-constant residual
    from dataclasses import replace
    from octasphere import operators
    fam = operators.FAMILIES["A"]
    monkeypatch.setitem(operators.FAMILIES, "A",
                        replace(fam, cot_row=fam.cot_row[:3] + (F(1),)))
    assert riccati_lambda() is None


def test_kinetic_and_rotation():
    rep = kinetic_rotation_check()
    assert rep["kinetic_identity"] and rep["so3_closure"]
    assert rep["commutator_table"] == {"[a+,b+]": "+c+", "[a+,c+]": "-b+",
                                       "[b+,c+]": "+a+"}


def test_simultaneous_superpotentials_case_i():
    for m in range(3):
        for n in range(3):
            assert all(simultaneous_superpotentials(m, n).values())


def test_joint_ground_state_feeds_alpha_and_beta_but_not_gamma():
    # the m = n = 0 separated monomial is the joint ground state: it lies in
    # ker(A-) and ker(B-) at every sector, but in ker(C-) only when l1 = 0
    from octasphere.diffop import apply
    st = closed_form_state("separated_2d", ((1, 1, 1), 0, 0))
    term = list(st.wavefunction.terms())[0]
    for fam in ("A", "B"):
        assert is_zero(apply(graded(fam + "-").at(st.params), st.wavefunction))
        vec, _ = decompose(graded(fam + "-").at(st.params))
        got = superpot_from_state(vec, term)
        assert is_zero(got - family_multiplier(fam, st.params))
    assert not is_zero(apply(graded("C-").at(st.params), st.wavefunction))
    c_vec, _ = decompose(graded("C-").at(st.params))
    gamma_candidate = superpot_from_state(c_vec, term)
    assert not is_zero(gamma_candidate - family_multiplier("C", st.params))


def test_partial_fundamental_state_case_ii():
    # an excited separated state lies in ker(A-) only; the phi1 monomial factor
    # reproduces alpha, while the same construction for beta/gamma yields
    # multipliers that do not intertwine
    from octasphere.diffop import apply
    from octasphere.lpoly import LPoly
    from octasphere.operators import GradedOp
    st = closed_form_state("separated_2d", ((1, 1, 1), 0, 1))
    assert is_zero(apply(graded("A-").at(st.params), st.wavefunction))
    assert not is_zero(apply(graded("B-").at(st.params), st.wavefunction))
    assert not is_zero(apply(graded("C-").at(st.params), st.wavefunction))

    f_factor = TrigTerm(F(1), (F(3, 2), F(3, 2), F(0), F(0)))  # phi1 monomial of st
    a_vec, _ = decompose(graded("A-").at(st.params))
    alpha = superpot_from_state(a_vec, f_factor)
    assert is_zero(alpha - family_multiplier("A", st.params))

    for fam, delta in (("B", (1, 0, 1)), ("C", (0, -1, 1))):
        vec, _ = decompose(graded(fam + "-").at(st.params))
        candidate = superpot_from_state(vec, f_factor)
        assert not is_zero(candidate - family_multiplier(fam, st.params))
        cand_op = GradedOp(name=fam + "-cand", shift=delta,
                           poly=LPoly(DiffOp, {(0, 0, 0): vec + DiffOp.multiplication(candidate)}))
        assert not is_exact_intertwiner(cand_op, st.params)


def test_riccati_suite_checks_each_sector_once(monkeypatch):
    from octasphere import suites, superpotential
    calls = []
    original = superpotential.riccati_check

    def counting(ell):
        calls.append(tuple(ell))
        return original(ell)

    monkeypatch.setattr(superpotential, "riccati_check", counting)
    monkeypatch.setattr(suites, "riccati_check", counting)
    rep = suites.suite_riccati(2)
    assert rep["passed"]
    assert len(calls) == len(set(calls)) == 27
