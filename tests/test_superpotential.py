"""Vector/multiplier decompositions, superpotentials and the Riccati identity."""

from fractions import Fraction

import math

import pytest
from hypothesis import given, settings, strategies as st

from octasphere.diffop import DiffOp, is_zero_op, pv
from octasphere.hierarchy import closed_form_state, phi0, phi0_action
from octasphere.lpoly import LPoly
from octasphere.operators import (FAMILIES, build_first_order, graded, graded_product,
                                  intertwine_residual)
from octasphere.superpotential import (kinetic_rotation_check, riccati_check, riccati_lambda,
                                       simultaneous_superpotentials)
from octasphere.trigpoly import ONE, PHI1, PHI2, TrigPoly, differentiate, is_zero, mul

F = Fraction
HALF = F(1, 2)


def mono(c, a, b, cc, d):
    return TrigPoly.monomial(c, (F(a), F(b), F(cc), F(d)))


def decompose(x: DiffOp) -> tuple[DiffOp, TrigPoly]:
    """Split an order-<=1 operator into (vector part, multiplier)."""
    if x.order() > 1:
        raise ValueError("decompose expects an operator of order <= 1")
    mult = x.coeff((0, 0))
    vector = DiffOp({k: c for k, c in x.items() if k != (0, 0)})
    return vector, mult


def test_decompose_A_plus():
    vec, mult = decompose(build_first_order("A", "+", pv(1, 1, 1)))
    assert vec == DiffOp({(1, 0): ONE})
    assert mult == mono(-F(3, 2), -1, 1, 0, 0) + mono(F(3, 2), 1, -1, 0, 0)


def test_decompose_printed_B_plus():
    # the printed B+ formula at ell is the B- one (exchanged superscripts)
    vec, mult = decompose(build_first_order("B", "-", pv(0, 0, 0)))
    assert vec == DiffOp({(1, 0): mono(1, 0, 1, -1, 1), (0, 1): mono(1, 1, 0, 0, 0)})
    assert mult == mono(-HALF, 1, 0, 1, -1) + mono(HALF, -1, 0, -1, 1)


def test_decompose_pure_vector():
    vec, mult = decompose(DiffOp({(0, 1): ONE}))
    assert not mult and vec == DiffOp({(0, 1): ONE})


def test_decompose_rejects_second_order():
    with pytest.raises(ValueError):
        decompose(DiffOp({(2, 0): ONE}))


def test_recombination_is_exact():
    op = build_first_order("C", "-", pv(2, 1, 0))
    vec, mult = decompose(op)
    assert vec + DiffOp.multiplication(mult) == op


def _constant(op: DiffOp) -> LPoly:
    """An operator that does not depend on ell, as a polynomial in ell."""
    return LPoly(DiffOp, {(0, 0, 0): op})


def _inverse(monomial: TrigPoly) -> TrigPoly:
    ((exps, c),) = monomial.items()
    return TrigPoly.monomial(1 / c, tuple(-x for x in exps))


def test_superpot_from_state_matches_printed_alpha():
    # the superpotential read off phi0 at (1, 0, 0) by a^+ = d1 is the printed
    # alpha there: -(3/2) tan + (1/2) cot
    got = phi0_action(_constant(DiffOp({(1, 0): ONE}))).at(pv(1, 0, 0))
    assert got == mono(-F(3, 2), -1, 1, 0, 0) + mono(HALF, 1, -1, 0, 0)


def test_superpot_one_dimensional_convention():
    # d_i phi0 / phi0: a monomial's log-derivative is its derivative times the
    # inverse monomial
    for ell in (pv(1, 2, 0), pv(HALF, F(3, 2), F(-1, 2)), pv(-2, 0, 3)):
        for order, var in (((1, 0), PHI1), ((0, 1), PHI2)):
            got = phi0_action(_constant(DiffOp({order: ONE}))).at(ell)
            assert got == mul(differentiate(phi0(ell), var), _inverse(phi0(ell)))


def test_superpot_constant_state_is_zero():
    # at (-1/2, -1/2, -1/2) the gauge is the constant 1: no derivative survives
    ell = pv(-HALF, -HALF, -HALF)
    assert phi0(ell) == ONE
    x = _constant(DiffOp({(1, 0): mono(3, 1, 0, -1, 0), (0, 1): ONE}))
    assert not phi0_action(x).at(ell)


def test_phi0_action_rejects_a_second_order_operator():
    with pytest.raises(ValueError):
        phi0_action(graded_product(graded("A+"), graded("A-")).poly)


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
    # each family's residual is zero on the plane l1 = 0 of the u(3) fundamental
    # states, and C's is a multiple of l1 off it
    got = simultaneous_superpotentials()
    assert list(got) == ["A", "B", "C"]
    survivors = {name: [m for m, c in w.items() if not is_zero(c)] for name, w in got.items()}
    assert survivors == {"A": [], "B": [], "C": [(0, 1, 0)]}
    for m in range(3):
        for n in range(3):
            assert all(is_zero(w.at(pv(m, 0, n))) for w in got.values())


def test_joint_ground_state_feeds_alpha_and_beta_but_not_gamma():
    # the m = n = 0 separated monomial is the joint ground state: it lies in
    # ker(A-) and ker(B-) at every sector, but in ker(C-) only when l1 = 0
    from octasphere.diffop import apply
    st = closed_form_state("separated_2d", ((1, 1, 1), 0, 0))
    assert st.wavefunction == phi0(st.params)
    for fam in ("A", "B"):
        assert is_zero(apply(graded(fam + "-").at(st.params), st.wavefunction))
        vec, _ = decompose(build_first_order(fam, "-", st.params))
        got = phi0_action(_constant(vec.scale(-1))).at(st.params)
        assert is_zero(got - FAMILIES[fam].symbolic_multiplier.at(st.params))
    assert not is_zero(apply(graded("C-").at(st.params), st.wavefunction))
    c_vec, _ = decompose(build_first_order("C", "-", st.params))
    gamma_candidate = phi0_action(_constant(c_vec.scale(-1))).at(st.params)
    assert not is_zero(gamma_candidate - FAMILIES["C"].symbolic_multiplier.at(st.params))


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

    # the phi1 monomial factor of st is the phi1-block gauge; it has no phi2
    # factor, so a log-derivative reads it off phi0's d1 part alone
    assert phi0(st.params, onedim=True) == mono(1, F(3, 2), F(3, 2), 0, 0)

    def candidate_from_f_factor(vec):
        return phi0_action(_constant(DiffOp({(1, 0): vec.coeff((1, 0)).scale(-1)}))) \
            .at(st.params)

    a_vec, _ = decompose(build_first_order("A", "-", st.params))
    alpha = candidate_from_f_factor(a_vec)
    assert is_zero(alpha - FAMILIES["A"].symbolic_multiplier.at(st.params))

    for fam, delta in (("B", (1, 0, 1)), ("C", (0, -1, 1))):
        vec, _ = decompose(build_first_order(fam, "-", st.params))
        candidate = candidate_from_f_factor(vec)
        assert not is_zero(candidate - FAMILIES[fam].symbolic_multiplier.at(st.params))
        cand_op = GradedOp(name=fam + "-cand", shift=delta,
                           poly=LPoly(DiffOp, {(0, 0, 0): vec + DiffOp.multiplication(candidate)}))
        assert not is_zero_op(intertwine_residual(cand_op, st.params))
