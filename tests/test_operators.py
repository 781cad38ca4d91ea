"""Graded operator families: printed forms, intertwining, the multiplier solver,
reflections, commutators and the Casimir identities."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from octasphere import diffop, operators
from octasphere.diffop import (HAMILTONIAN, PHI2_BLOCK, DiffOp, build_hamiltonian, compose,
                               is_zero_op, pv)
from octasphere.lpoly import LPoly, row_at
from octasphere.operators import (CHAIN, DIAGONALS, FAMILIES, LADDER_NAMES, SO6_CONSTANT,
                                  SO6_CONSTANT_PRINTED, TILDE_NAMES, TILDES, GradedOp,
                                  MultiplierSolveError, build_first_order, casimir_identity,
                                  constant_part, diagonal, graded, graded_bracket,
                                  graded_commutator, graded_product, intertwine_identity,
                                  intertwine_residual, match_constant_multiple,
                                  multiplier_ansatz, printed_delta_report, residual_witness,
                                  solve_multiplier, structure_table, verdict_memo)
from octasphere.trigpoly import COS1, ONE, SIN1, TrigPoly, TrigTerm, is_zero

F = Fraction
HALF = F(1, 2)


def mono(c, a, b, cc, d):
    return TrigPoly.monomial(c, (F(a), F(b), F(cc), F(d)))


def first_order_op(vec_terms, mult):
    terms = dict(vec_terms)
    terms[(0, 0)] = mult
    return DiffOp(terms)


# -- printed constructors -------------------------------------------------------

def test_printed_A_minus_at_1_2_0():
    got = build_first_order("A", "-", pv(1, 2, 0))
    want = first_order_op({(1, 0): ONE.scale(-1)},
                          mono(-F(3, 2), -1, 1, 0, 0) + mono(F(5, 2), 1, -1, 0, 0))
    assert got == want


def test_printed_B_plus_at_origin():
    # the printed X^s formula at ell is build_first_order(X, -s, ell), see
    # test_printed_B_C_swap_is_the_correction
    got = build_first_order("B", "-", pv(0, 0, 0))
    want = first_order_op(
        {(1, 0): mono(1, 0, 1, -1, 1), (0, 1): mono(1, 1, 0, 0, 0)},
        mono(-HALF, 1, 0, 1, -1) + mono(HALF, -1, 0, -1, 1))
    assert got == want


def test_printed_M_minus_at_origin():
    got = build_first_order("M", "-", pv(0, 0, 0), m=0)
    want = first_order_op({(0, 1): ONE.scale(-1)},
                          mono(-1, 0, 0, -1, 1) + mono(HALF, 0, 0, 1, -1))
    assert got == want


def test_the_phi1_chain_ladder_is_A_at_the_shifted_sector():
    # the phi1 chain member m of sector ell is A at (l0 + m, l1 + m, l2)
    assert graded("A-").poly.shift((2, 2, 0)).at(pv(1, 0, 2)) == \
        build_first_order("A", "-", pv(3, 2, 2)).scale(HALF)


@pytest.mark.parametrize("name", [*FAMILIES, *TILDES])
def test_a_family_ladder_given_m_or_n_raises(name):
    # m and n label only the phi2 chain M
    for labels in ({"m": 3}, {"n": 1}, {"m": 1, "n": 2}):
        with pytest.raises(ValueError):
            build_first_order(name, "-", pv(0, 0, 0), **labels)


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        build_first_order("Q", "-", pv(0, 0, 0))


def test_a_replaced_family_row_gets_a_new_generator_and_an_equal_row_the_same(monkeypatch):
    # the generator is memoised on the family row, not on the name: a changed
    # row is a new object, a rebuilt equal row the one already built
    fam = operators.FAMILIES["A"]
    before = {n: graded(n).poly for n in ("A-", "A+", "At-", "At+")}
    monkeypatch.setitem(operators.FAMILIES, "A",
                        replace(fam, cot_row=fam.cot_row[:3] + (F(1),)))
    for n, poly in before.items():
        assert graded(n).poly is not poly, n
        assert graded(n).poly.items() != poly.items(), n
    monkeypatch.setitem(operators.FAMILIES, "A", replace(fam))
    assert operators.FAMILIES["A"] is not fam
    for n, poly in before.items():
        assert graded(n).poly is poly, n


@pytest.mark.parametrize("field, index", [("tan_row", 0), ("cot_row", 3), ("shift", 1)])
def test_a_replaced_family_row_hashes_anew_and_is_a_new_generator_key(field, index,
                                                                      monkeypatch, fresh_memos):
    # a family row keeps its hash once formed; a row changed by `replace` is a
    # new object with its own hash, so the generator memo takes a new key
    fam = operators.FAMILIES["A"]
    row = getattr(fam, field)
    changed = replace(fam, **{field: row[:index] + (row[index] + 1,) + row[index + 1:]})
    assert hash(fam) == hash(fam) == hash(replace(fam))
    assert changed != fam and hash(changed) != hash(fam)
    sound = graded("A-").poly
    assert operators._generator.cache_info().currsize == 1
    monkeypatch.setitem(operators.FAMILIES, "A", changed)
    assert graded("A-").poly is not sound
    assert operators._generator.cache_info().currsize == 2


@pytest.mark.parametrize("name", ["", "-", "A", "Q-", "A*"])
def test_graded_rejects_malformed_names(name):
    with pytest.raises(ValueError):
        graded(name)


@pytest.mark.parametrize("name", ["", "M+", "A"])
def test_symbolic_rejects_non_family_names(name):
    with pytest.raises(ValueError):
        graded(name).poly


# rational sectors: negatives, half-integers and other small denominators
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
sectors = st.tuples(rationals, rationals, rationals)


@settings(max_examples=25, deadline=None)
@given(sectors)
def test_symbolic_ladders_evaluate_to_the_sector_operators(ell):
    # against the operators written out independently: X- is the table formula
    # at ell, X+ the formula at its target sector; the generator is half of it
    for name in [*LADDER_NAMES, *TILDE_NAMES]:
        op = graded(name)
        at = ell if name[-1] == "-" else op.target(ell)
        got = op.at(ell)
        want = _public_first_order(name[:-1], name[-1], at, 0, 0)
        assert got == want.scale(HALF), name
        assert [k for k, _ in got.items()] == [k for k, _ in want.items()]


def test_a_ladder_generator_is_half_its_table_formula():
    # X- acts on ell as the formula at ell, X+ as the formula at its target
    for name in [*LADDER_NAMES, *TILDE_NAMES]:
        op = graded(name)
        for ell in (pv(1, 2, 0), pv(F(-1, 3), 2, F(5, 2))):
            at = ell if name[-1] == "-" else op.target(ell)
            assert op.at(ell) == build_first_order(name[:-1], name[-1], at).scale(HALF), name


def test_a_sector_without_three_couplings_is_rejected():
    for name in ("A-", "Bt+"):
        with pytest.raises(ValueError):
            graded(name).at((1, 2))
    with pytest.raises(ValueError):
        build_first_order("A", "-", (1, 2, 3, 4))


# -- intertwining -----------------------------------------------------------------

def test_A_minus_residual_zero():
    assert is_zero_op(intertwine_residual(graded("A-"), pv(1, 1, 2)))


def test_printed_C_minus_residual_nonzero():
    # the printed C- formula at ell is the C+ formula there, claimed to shift like C-
    ell = pv(1, 1, 1)
    printed = GradedOp("C-", graded("C-").shift,
                       LPoly(DiffOp, {(0, 0, 0): build_first_order("C", "+", ell)}))
    assert not is_zero_op(intertwine_residual(printed, ell))


def test_identity_graded_residual_zero():
    ident = GradedOp(name="1", shift=(0, 0, 0), poly=LPoly(DiffOp, {(0, 0, 0): DiffOp.identity()}))
    assert is_zero_op(intertwine_residual(ident, pv(2, -1, 3)))


@pytest.mark.parametrize("name", ["A-", "A+", "B-", "B+", "C-", "C+",
                                  "At-", "At+", "Bt-", "Bt+", "Ct-", "Ct+"])
def test_corrected_families_intertwine_on_box(name):
    # unit-scale box; the acceptance suite sweeps the larger +-3 / +-2 boxes
    op = graded(name)
    for i in range(-1, 2):
        for j in range(-1, 2):
            for k in range(-1, 2):
                assert is_zero_op(intertwine_residual(op, pv(i, j, k))), (name, i, j, k)


def test_printed_B_C_swap_is_the_correction():
    # the source prints B^s and C^s with the vectors s (sin phi1 tan phi2 d1 + cos phi1 d2)
    # and s (cos phi1 tan phi2 d1 - sin phi1 d2) and the family's multiplier: corrected
    # X^s equals printed X^(-s), so the printed X^s formula at ell is build_first_order(X, -s, ell)
    printed_vectors = {"B": {(1, 0): mono(1, 0, 1, -1, 1), (0, 1): mono(1, 1, 0, 0, 0)},
                       "C": {(1, 0): mono(1, 1, 0, -1, 1), (0, 1): mono(-1, 0, 1, 0, 0)}}
    ell = pv(2, -1, 1)
    for base, vector in printed_vectors.items():
        mult = build_first_order(base, "-", ell).coeff((0, 0))
        for sign, other in (("+", "-"), ("-", "+")):
            s = 1 if other == "+" else -1
            printed_other = DiffOp({**{k: c.scale(s) for k, c in vector.items()}, (0, 0): mult})
            assert build_first_order(base, sign, ell) == printed_other, (base, sign)


@pytest.mark.parametrize("base,lowering", [("B", (1, 0, 1)), ("C", (0, -1, 1))])
def test_built_B_and_C_ladders_intertwine_in_their_claimed_direction(base, lowering):
    # X- at ell maps sector ell to ell + lowering; X+ at ell maps ell + lowering back to ell
    for ell in (pv(1, 1, 1), pv(2, -1, 0)):
        h, h_low = build_hamiltonian(ell), build_hamiltonian(
            tuple(e + d for e, d in zip(ell, lowering)))
        xm, xp = build_first_order(base, "-", ell), build_first_order(base, "+", ell)
        assert is_zero_op(compose(xm, h) - compose(h_low, xm)), (base, ell)
        assert is_zero_op(compose(xp, h_low) - compose(h, xp)), (base, ell)


def _public_first_order(name, sign, ell, m, n) -> DiffOp:
    """The first-order operators written out through the validating public constructors."""
    s = 1 if sign == "+" else -1
    l0, l1, l2 = (F(x) for x in ell)
    if name == "M":
        alpha = l0 + l1 + 2 * m + n + 1 + (1 if s > 0 else 0)
        return DiffOp({(0, 1): TrigPoly.constant(s),
                       (0, 0): mono(-alpha, 0, 0, -1, 1) + mono(l2 + n + HALF, 0, 0, 1, -1)})
    ell = [l0, l1, l2]
    if name in TILDES:
        name, axis = TILDES[name]
        ell[axis] = -ell[axis]
    fam = FAMILIES[name]
    tan_c, cot_c = (row[0] + sum(c * x for c, x in zip(row[1:], ell))
                    for row in (fam.tan_row, fam.cot_row))
    return DiffOp({(1, 0): fam.chart.d1_coeff.scale(s), (0, 1): fam.chart.d2_coeff.scale(s),
                   (0, 0): fam.chart.tan.scale(tan_c) + fam.chart.cot.scale(cot_c)})


@settings(max_examples=50, deadline=None)
@given(sectors, st.integers(0, 2), st.integers(0, 2))
def test_first_order_builder_matches_the_public_constructor_form(ell, m, n):
    for name in [*FAMILIES, *TILDES, "M"]:
        labels = (m, n) if name == "M" else (0, 0)  # m and n label only the chain
        for sign in "+-":
            got = build_first_order(name, sign, ell, m=labels[0], n=labels[1])
            want = _public_first_order(name, sign, ell, *labels)
            assert got == want, (name, sign)
            # the same term order too: application sums coefficients in this order
            assert [k for k, _ in got.items()] == [k for k, _ in want.items()]


def test_a_misbuilt_tilde_fails_its_own_check_beside_a_passing_family(monkeypatch,
                                                                        fresh_memos):
    # At built without the reflection of its polynomial: the operator of A-,
    # the shift of At-
    monkeypatch.setattr(LPoly, "reflect", lambda self, axis: self)
    from octasphere import suites
    checks = {c["name"]: c for c in suites.run_suite("intertwine", 1)["checks"]}
    for name in ("A-", "A+"):
        check = checks[f"corrected {name} intertwines exactly for all l in Q^3"]
        assert check["passed"] and "witness" not in check
    for name in ("At-", "At+"):
        check = checks[f"corrected {name} intertwines exactly for all l in Q^3"]
        assert not check["passed"]
        assert check["witness"] == {"monomial": [1, 0, 0], "terms": 4}


# -- multiplier solver ---------------------------------------------------------------

def test_solver_recovers_A_multiplier():
    vector = DiffOp({(1, 0): ONE.scale(-1)})
    ansatz = [TrigTerm(F(1), (F(-1), F(1), F(0), F(0))),
              TrigTerm(F(1), (F(1), F(-1), F(0), F(0)))]
    got = solve_multiplier(vector, (1, 1, 0), ansatz, pv(1, 2, 0))
    assert got == mono(-F(3, 2), -1, 1, 0, 0) + mono(F(5, 2), 1, -1, 0, 0)


def test_solver_C_with_printed_vector():
    # printed C- vector kept fixed; the unique multiplier for the claimed shift
    # (0,-1,1) at (1,1,1) is -(1/2) csc tan - (3/2) sin cot, i.e. minus the
    # printed multiplier -- exact evidence that only the vector sign is off.
    vector = DiffOp({(1, 0): mono(-1, 1, 0, -1, 1), (0, 1): mono(1, 0, 1, 0, 0)})
    ansatz = [TrigTerm(F(1), (F(0), F(-1), F(-1), F(1))),
              TrigTerm(F(1), (F(0), F(1), F(-1), F(1))),
              TrigTerm(F(1), (F(0), F(1), F(1), F(-1))),
              TrigTerm(F(1), (F(0), F(-1), F(1), F(-1)))]
    got = solve_multiplier(vector, (0, -1, 1), ansatz, pv(1, 1, 1))
    want = mono(-HALF, 0, -1, -1, 1) + mono(-F(3, 2), 0, 1, 1, -1)
    assert got == want
    printed_mult = build_first_order("C", "-", pv(1, 1, 1)).coeff((0, 0))
    assert is_zero(got + printed_mult)


def test_solver_empty_ansatz_fails():
    with pytest.raises(MultiplierSolveError):
        solve_multiplier(DiffOp({(1, 0): ONE}), (1, 1, 0), [], pv(0, 0, 0))


def test_solver_inconsistent_system_fails():
    # no multiplier makes a bare d2 intertwine along the A shift
    with pytest.raises(MultiplierSolveError):
        solve_multiplier(DiffOp({(0, 1): ONE}), (1, 1, 0),
                         multiplier_ansatz("A"), pv(1, 0, 0))


@pytest.mark.parametrize("name", ["Q", "At", "A-"])
def test_multiplier_ansatz_of_an_unknown_family_is_a_value_error(name):
    with pytest.raises(ValueError, match="unknown ladder family"):
        multiplier_ansatz(name)


# -- reflections -----------------------------------------------------------------------

def _mirror(v, axis):
    return tuple(-x if i == axis else x for i, x in enumerate(v))


def _reflected(name, axis, times=1):
    """The ladder `graded(name)` conjugated by l_axis -> -l_axis: its polynomial under
    `LPoly.reflect`, and its shift with the axis component negated."""
    poly, shift = graded(name).poly, graded(name).shift
    for _ in range(times):
        poly, shift = poly.reflect(axis), _mirror(shift, axis)
    return GradedOp(f"I{axis}({name})", shift, poly)


def test_reflect_A_matches_printed_tilde():
    # At- written out from its printed formula (TILDE_PINS) at (1, 2, 0)
    refl = _reflected("A-", 0)
    assert refl.at(pv(1, 2, 0)) == TILDE_PINS[0][-1].scale(HALF)
    for ell in (pv(1, 2, 0), pv(-1, 3, 2)):
        assert refl.at(ell) == build_first_order("At", "-", ell).scale(HALF)
    assert refl.shift == (-1, 1, 0)


# the tilde families written out from their printed formulas, with
# tan phi1 = (-1, 1, 0, 0), cot phi1 = (1, -1, 0, 0) and
#   At^s = s d1 + (l0 - 1/2) tan phi1 + (l1 + 1/2) cot phi1
#   Bt^s = s' (sin phi1 tan phi2 d1 + cos phi1 d2)
#          + (l2 - 1/2) cos phi1 cot phi2 + (l0 + 1/2) sec phi1 tan phi2
#   Ct^s = s' (cos phi1 tan phi2 d1 - sin phi1 d2)
#          + (-l1 - 1/2) csc phi1 tan phi2 + (l2 + 1/2) sin phi1 cot phi2
# where s' = -s: the printed Bt and Ct superscripts are exchanged, like those of B and C

def _bt(s, tan_c, cot_c):
    return first_order_op({(1, 0): mono(s, 0, 1, -1, 1), (0, 1): mono(s, 1, 0, 0, 0)},
                          mono(tan_c, 1, 0, 1, -1) + mono(cot_c, -1, 0, -1, 1))


def _ct(s, tan_c, cot_c):
    return first_order_op({(1, 0): mono(s, 1, 0, -1, 1), (0, 1): mono(-s, 0, 1, 0, 0)},
                          mono(tan_c, 0, -1, -1, 1) + mono(cot_c, 0, 1, 1, -1))


TILDE_PINS = [
    ("At", "-", (1, 2, 0),
     first_order_op({(1, 0): ONE.scale(-1)}, mono(HALF, -1, 1, 0, 0) + mono(F(5, 2), 1, -1, 0, 0))),
    ("At", "+", (-1, 3, 2),
     first_order_op({(1, 0): ONE}, mono(-F(3, 2), -1, 1, 0, 0) + mono(F(7, 2), 1, -1, 0, 0))),
    ("Bt", "+", (1, 1, 1), _bt(-1, HALF, F(3, 2))),
    ("Bt", "-", (2, 0, -1), _bt(1, -F(3, 2), F(5, 2))),
    ("Ct", "+", (1, 1, 1), _ct(-1, -F(3, 2), F(3, 2))),
    ("Ct", "-", (0, -2, 1), _ct(1, F(3, 2), F(3, 2))),
]


@pytest.mark.parametrize("name,sign,ell,want", TILDE_PINS)
def test_tilde_formulas_pinned_by_hand(name, sign, ell, want):
    assert build_first_order(name, sign, pv(*ell)) == want


def test_graded_tilde_raising_acts_through_its_target_sector():
    # X+ on ell is half the formula at ell - shift(X-); the names stay At+, Bt+, Ct+
    at_plus = graded("At+")
    assert at_plus.name == "At+"
    assert at_plus.at(pv(1, 2, 0)) == first_order_op(
        {(1, 0): ONE}, mono(F(3, 2), -1, 1, 0, 0) + mono(F(3, 2), 1, -1, 0, 0)).scale(HALF)
    assert graded("Bt+").at(pv(2, 0, -1)) == _bt(-1, -HALF, F(3, 2)).scale(HALF)
    assert graded("Ct+").at(pv(0, -1, 2)) == _ct(-1, F(3, 2), F(3, 2)).scale(HALF)
    # the printed Ct+ on (0, -1, 2) is the Ct- formula at its target (0, -2, 1)
    assert graded("Ct+").target(pv(0, -1, 2)) == (0, -2, 1)
    assert build_first_order("Ct", "-", pv(0, -2, 1)) == _ct(1, F(3, 2), F(3, 2))


def test_lowering_shifts_match_the_paper_table():
    want = {"A-": (1, 1, 0), "B-": (1, 0, 1), "C-": (0, -1, 1),
            "At-": (-1, 1, 0), "Bt-": (1, 0, -1), "Ct-": (0, 1, 1)}
    for name, shift in want.items():
        assert graded(name).shift == shift
        assert graded(name[:-1] + "+").shift == tuple(-s for s in shift)


def test_reflect_is_involution():
    op = graded("B+")
    twice = _reflected("B+", 1, times=2)
    assert op.poly.reflect(1).reflect(1).items() == op.poly.items()
    for ell in (pv(1, 1, 1), pv(0, -2, 3)):
        assert twice.at(ell) == op.at(ell)
    assert twice.shift == op.shift


def test_reflect_shift_rule():
    assert _reflected("C-", 1).shift == (0, 1, 1)
    # each tilde ladder shifts as its family's reflected
    for tilde, (base, axis) in TILDES.items():
        for sign in "-+":
            assert graded(tilde + sign).shift == _mirror(graded(base + sign).shift, axis)


def test_reflect_preserves_intertwining():
    for axis in (0, 1, 2):
        refl = _reflected("C-", axis)
        for ell in (pv(1, 1, 1), pv(2, 0, -1)):
            assert is_zero_op(intertwine_residual(refl, ell))


def test_reflection_fixes_untouched_families():
    # I0 leaves C alone; I2 leaves A alone
    for ell in (pv(1, 2, 3), pv(-1, 0, 2)):
        assert _reflected("C-", 0).at(ell) == graded("C-").at(ell)
        assert _reflected("A+", 2).at(ell) == graded("A+").at(ell)


# -- commutators --------------------------------------------------------------------------

def test_diag_commutator_with_raising():
    a = diagonal("A")
    aplus = graded("A+")
    for ell in (pv(0, 0, 0), pv(2, -1, 3)):
        got, _ = graded_commutator(a, aplus, ell)
        assert is_zero_op(got - aplus.at(ell))


def test_lowering_raising_commutator_is_minus_two_diag():
    for base in ("A", "B", "C"):
        minus, plus = graded(base + "-"), graded(base + "+")
        for ell in (pv(1, 1, 1), pv(2, 0, -1), pv(-2, 3, 1)):
            op, shift = graded_commutator(minus, plus, ell)
            assert shift == (0, 0, 0)
            assert constant_part(op) == -2 * row_at(DIAGONALS[base], ell)


def test_graded_bracket_is_the_commutator():
    bracket = graded_bracket(graded("A-"), graded("C-"))
    assert bracket.shift == (1, 0, 1)
    for ell in (pv(1, 1, 1), pv(-2, 0, 3)):
        op, shift = graded_commutator(graded("A-"), graded("C-"), ell)
        assert bracket.at(ell) == op and shift == bracket.shift
        assert match_constant_multiple(bracket.at(ell), graded("B-").at(ell)) == 1
    # the 18 diagonal-ladder brackets of the structure table
    for dn in ("A", "B", "C"):
        for name in LADDER_NAMES:
            d, y = diagonal(dn), graded(name)
            bracket = graded_bracket(d, y)
            for ell in RATIONAL_SECTORS:
                op, shift = graded_commutator(d, y, ell)
                assert bracket.at(ell) == op and shift == bracket.shift == y.shift, (dn, name)


def test_self_commutator_vanishes():
    op, _ = graded_commutator(graded("B-"), graded("B-"), pv(1, 2, 3))
    assert is_zero_op(op)


def test_central_D_commutes():
    d = diagonal("D")
    for name in ("A-", "A+", "B-", "B+", "C-", "C+"):
        for ell in (pv(1, 1, 1), pv(0, 2, -1)):
            assert is_zero_op(graded_commutator(d, graded(name), ell)[0])


def test_match_constant_multiple_over_different_monomials():
    # op = 3 * cand as operators, but no monomial of op appears in cand
    cand = DiffOp({(1, 0): ONE, (0, 0): COS1 * COS1})
    pyth = COS1 * COS1 + SIN1 * SIN1
    op = DiffOp({(1, 0): pyth.scale(3), (0, 0): (ONE - SIN1 * SIN1).scale(3)})
    assert match_constant_multiple(op, cand) == 3
    skew = DiffOp({(1, 0): pyth.scale(3), (0, 0): (ONE - SIN1 * SIN1).scale(2)})
    assert match_constant_multiple(skew, cand) is None
    extra = DiffOp({(1, 0): pyth.scale(3), (0, 0): (ONE - SIN1 * SIN1).scale(3),
                    (0, 1): pyth - ONE})
    assert match_constant_multiple(extra, cand) == 3


def test_structure_table_closure_and_entries():
    table = structure_table()
    assert table["unmatched"] == [] and table["witness"] == {}
    t = table["table"]
    assert t["A-,A+"] == [("-2", "A")]
    assert t["B-,B+"] == [("-2", "B")]
    assert t["C-,C+"] == [("-2", "C")]
    assert t["A-,C-"] == [("1", "B-")]
    assert t["A+,C+"] == [("-1", "B+")]
    assert t["A+,B-"] == [("1", "C-")]
    assert t["A-,B+"] == [("-1", "C+")]
    assert t["B+,C-"] == [("-1", "A+")]
    assert t["B-,C+"] == [("1", "A-")]
    assert t["A-,B-"] == [] and t["B+,C+"] == [] and t["A+,C-"] == []


def test_broken_family_row_leaves_a_witness(monkeypatch):
    # an extra l2 cot(phi1) term in A's multiplier: [A-,A+] and every bracket
    # that should give a ladder through A no longer close, and the witness names
    # the first l-monomial of a nonzero residual coefficient with its normal-form size
    fam = operators.FAMILIES["A"]
    monkeypatch.setitem(operators.FAMILIES, "A",
                        replace(fam, cot_row=fam.cot_row[:3] + (F(1),)))
    table = structure_table()
    assert table["unmatched"] == ["A-,A+", "A-,B-", "A-,B+", "A-,C-", "A-,C+", "A+,B-",
                                  "A+,B+", "A+,C-", "A+,C+", "B-,C+", "B+,C-"]
    assert set(table["witness"]) == set(table["unmatched"])
    # [A-,A+] is no constant multiple of A, B or C: the witness is its residual
    # against A, the broken l2 entry
    assert table["witness"]["A-,A+"] == {"monomial": [0, 0, 1], "terms": 1}
    assert table["witness"]["A-,C-"] == {"monomial": [0, 0, 0], "terms": 3}
    assert table["witness"]["B-,C+"] == {"monomial": [0, 0, 1], "terms": 1}
    assert table["table"]["B-,B+"] == [("-2", "B")]


def test_diagonal_relation():
    a, b, c = DIAGONALS["A"], DIAGONALS["B"], DIAGONALS["C"]
    for i in range(-3, 4):
        for j in range(-3, 4):
            for k in range(-3, 4):
                ell = pv(i, j, k)
                assert row_at(c, ell) == row_at(b, ell) - row_at(a, ell)


# -- casimir identities ---------------------------------------------------------------------

def test_su3_casimir_identity():
    assert is_zero_op(casimir_identity("su3_esp", pv(2, 0, 1)))


def test_so4_casimir_identity():
    assert is_zero_op(casimir_identity("so4_ca", pv(1, 1, 0)))


def test_so6_casimir_identity_corrected_constant():
    assert is_zero_op(casimir_identity("so6_cass", pv(1, 1, 1)))


def test_so6_printed_constant_residual():
    # the printed combination is the exact one with 41/12 in place of 15/4
    resid = casimir_identity("so6_cass", pv(1, 1, 1)) \
        + DiffOp.identity().scale(SO6_CONSTANT_PRINTED - SO6_CONSTANT)
    assert constant_part(resid) == F(-1, 3)


def test_printed_delta_report_has_exact_evidence():
    deltas = printed_delta_report()
    assert [d["operator"] for d in deltas] == ["B-", "B+", "C-", "C+"]
    assert all(d["corrected_residual_zero"] for d in deltas)
    assert all(d["evidence_sector"] == ["1", "1", "1"] and d["printed_residual_zero"] is False
               for d in deltas)


def _containers(obj):
    """Every dict and list in a verdict, nested ones included."""
    if isinstance(obj, (dict, list)):
        yield obj
        for v in obj.values() if isinstance(obj, dict) else obj:
            yield from _containers(v)


@pytest.mark.parametrize("proof", [structure_table, printed_delta_report])
def test_a_memoised_verdict_shares_no_container_between_callers(proof):
    # a caller that edits its verdict must not change what the next one reads
    first, second = proof(), proof()
    assert first == second
    assert not {id(c) for c in _containers(first)} & {id(c) for c in _containers(second)}


def test_a_verdict_edited_through_a_nested_list_reads_unchanged_next_time():
    deltas = printed_delta_report()
    deltas[0]["evidence_sector"][0] = "9"
    deltas[0]["evidence_sector"].append("9")
    assert printed_delta_report()[0]["evidence_sector"] == ["1", "1", "1"]

    # a dict inside a tuple inside a list is its caller's own too
    @verdict_memo
    def proof(n):
        return {"witness": [("part", {"monomial": [0, 0, n]})], "terms": n}

    first = proof(1)
    first["witness"][0][1]["monomial"].append(7)
    first["witness"].clear()
    assert proof(1) == {"witness": [("part", {"monomial": [0, 0, 1]})], "terms": 1}


@pytest.mark.parametrize("name", ["B-", "B+", "C-", "C+"])
def test_the_audited_printed_ladder_is_the_opposite_formula_composed_at_a_sector(name):
    # the audit's printed X±, the corrected X∓ polynomial on X±'s shift, against
    # the printed formula built at one sector: X- acts as the formula at ell, X+
    # as the formula at its target
    shift = graded(name).shift
    other = name[:-1] + ("+" if name[-1] == "-" else "-")
    identity = intertwine_identity(GradedOp(name, shift, graded(other).poly.shift(shift)),
                                   HAMILTONIAN)
    for ell in (pv(1, 1, 1), *RATIONAL_SECTORS):
        at = ell if name[-1] == "-" else tuple(e + s for e, s in zip(ell, shift))
        printed = GradedOp(name, shift,
                           LPoly(DiffOp, {(0, 0, 0): build_first_order(name[0], other[-1], at)}))
        # the audit reads the corrected generator, half the formula
        assert identity.at(ell) == intertwine_residual(printed, ell).scale(HALF), (name, ell)
        assert not is_zero_op(identity.at(ell)), (name, ell)


def test_a_broken_corrected_family_is_recorded_beside_its_printed_delta(monkeypatch):
    # an extra l1 cot term in B's multiplier: the printed B± still fail, and the
    # report records that the corrected B± fail too, without raising
    fam = operators.FAMILIES["B"]
    monkeypatch.setitem(operators.FAMILIES, "B",
                        replace(fam, cot_row=fam.cot_row[:2] + (F(1),) + fam.cot_row[3:]))
    verdicts = {d["operator"]: d["corrected_residual_zero"] for d in printed_delta_report()}
    assert verdicts == {"B-": False, "B+": False, "C-": True, "C+": True}


def test_printed_deltas_name_the_monomials_where_the_printed_residual_is_nonzero():
    b = [[0, 0, 0], [0, 0, 1], [0, 0, 2], [1, 0, 0], [2, 0, 0]]
    c = [[0, 0, 0], [0, 0, 1], [0, 0, 2], [0, 1, 0], [0, 2, 0]]
    got = {d["operator"]: d["failure_monomials"] for d in printed_delta_report()}
    assert got == {"B-": b, "B+": b, "C-": c, "C+": c}


# -- the identities in l against compositions at one sector -----------------------------------

RATIONAL_SECTORS = [pv(F(1, 3), F(-2, 5), F(7, 2)), pv(F(-3, 4), F(5, 3), F(1, 6))]


def _half_formula(name, ell):
    """Half the table formula of a ladder acting on sector ell: X- is the formula
    at ell, X+ the formula at its target."""
    at = ell if name[-1] == "-" else graded(name).target(ell)
    return build_first_order(name[:-1], name[-1], at).scale(HALF)


@pytest.mark.parametrize("ell", RATIONAL_SECTORS)
@pytest.mark.parametrize("x,y", [("A-", "C-"), ("B+", "At-"), ("Ct+", "A+"), ("C-", "C+")])
def test_ladder_products_and_brackets_compose_the_halved_formulas(x, y, ell):
    def product(a, b):
        return compose(_half_formula(a, graded(b).target(ell)), _half_formula(b, ell))

    gx, gy = graded(x), graded(y)
    assert is_zero_op(graded_product(gx, gy).at(ell) - product(x, y))
    assert is_zero_op(graded_bracket(gx, gy).at(ell) - (product(x, y) - product(y, x)))


@pytest.mark.parametrize("ell", RATIONAL_SECTORS)
@pytest.mark.parametrize("name", ["A", "B", "C", "D"])
def test_a_diagonal_generator_is_a_graded_multiplication_operator(name, ell):
    d = diagonal(name)
    assert isinstance(d, GradedOp) and d.shift == (0, 0, 0)
    assert d.at(ell) == DiffOp.identity().scale(row_at(DIAGONALS[name], ell))


@pytest.mark.parametrize("ell", RATIONAL_SECTORS)
def test_each_intertwining_identity_at_a_rational_sector_is_the_composed_residual(ell):
    for name in LADDER_NAMES + TILDE_NAMES:
        x = graded(name)
        assert intertwine_identity(x, HAMILTONIAN).at(ell) == intertwine_residual(x, ell), name


def _composed_casimir(kind, ell):
    """The Casimir combination minus its Hamiltonian block, composed at one sector."""
    def product(x, y):
        return compose(graded(x).at(graded(y).target(ell)), graded(y).at(ell))

    def anticommutator(base):
        return product(base + "+", base + "-") + product(base + "-", base + "+")

    one = DiffOp.identity()
    l0, l1, l2 = ell
    if kind == "su3_esp":
        cas = DiffOp.zero()
        for base in "ABC":
            d = row_at(DIAGONALS[base], ell)
            cas = cas + product(base + "+", base + "-") + one.scale(F(2, 3) * d * (d - F(3, 2)))
        d = row_at(DIAGONALS["D"], ell)
        return cas.scale(4) + one.scale(F(15, 4) - d * d / 3) - build_hamiltonian(ell)
    if kind == "so4_ca":
        return anticommutator("A") + anticommutator("At") + one.scale(l0 ** 2 + l1 ** 2 + 1) \
            - diffop.PHI1_BLOCK.at((l0, l1, 0))
    out = one.scale(l0 ** 2 + l1 ** 2 + l2 ** 2 + F(15, 4)) - build_hamiltonian(ell)
    for base in ("A", "B", "C", "At", "Bt", "Ct"):
        out = out + anticommutator(base)
    return out


@pytest.mark.parametrize("ell", RATIONAL_SECTORS)
@pytest.mark.parametrize("kind", ["su3_esp", "so4_ca", "so6_cass"])
def test_each_casimir_residual_at_a_rational_sector_is_the_composed_combination(kind, ell):
    assert is_zero_op(casimir_identity(kind, ell) - _composed_casimir(kind, ell))
    assert is_zero_op(_composed_casimir(kind, ell))


# -- the phi2 chain ------------------------------------------------------------------------

def _phi2_operator(a, l2) -> DiffOp:
    """PHI2_BLOCK at l2 plus a^2 sec^2 phi2: the phi2 operator whose sec^2 coupling is a^2."""
    return PHI2_BLOCK.at((0, 0, l2)) + DiffOp.multiplication(mono(F(a) ** 2, 0, 0, -2, 0))


def _affine(*row) -> LPoly:
    """c0 + c_l0 l0 + c_l1 l1 + c_l2 l2 times the identity operator."""
    return LPoly.affine(tuple(F(c) for c in row), DiffOp.identity())


# H2 = PHI2_BLOCK + (l0 + l1 + 1)^2 sec^2 phi2, the phi2 operator of the chain member m = n = 0
_ROOT = _affine(1, 1, 1, 0)
H2 = PHI2_BLOCK + _ROOT.product(_ROOT, compose).product(
    LPoly(DiffOp, {(0, 0, 0): DiffOp.multiplication(mono(1, 0, 0, -2, 0))}), compose)


def test_the_phi2_chain_intertwines_for_every_ell():
    # M- maps the member at ell to the member at ell + (1, 0, 1)
    residual = CHAIN["-"].product(H2, compose) - H2.shift((1, 0, 1)).product(CHAIN["-"], compose)
    assert residual_witness(residual) is None


def test_the_phi2_chain_factorizes_for_every_ell():
    # M+ M- - H2 = -(s + 3/2)(s + 5/2), s = l0 + l1 + l2
    mu = _affine(F(3, 2), 1, 1, 1).product(_affine(F(5, 2), 1, 1, 1), compose)
    assert residual_witness(CHAIN["+"].product(CHAIN["-"], compose) - H2 + mu) is None


def test_the_phi2_chain_commutator_for_every_ell():
    # (1/4)(M-(ell) M+(ell) - M+(ell') M-(ell')) = l0 + l1 + l2 + 3, ell' = ell + (1, 0, 1)
    up = (1, 0, 1)
    comm = CHAIN["-"].product(CHAIN["+"], compose) \
        - CHAIN["+"].shift(up).product(CHAIN["-"].shift(up), compose)
    assert residual_witness(comm.scale(F(1, 4)) - _affine(3, 1, 1, 1)) is None


def test_phi2_chain_factorization():
    # H_(n) = M+_n M-_n + mu_n with mu_n = (s+2n+3/2)(s+2n+5/2), s = l0+l1+l2+2m
    ell, m = pv(1, 0, 1), 1
    s = F(1 + 0 + 1 + 2 * m)
    for n in range(4):
        mp = build_first_order("M", "+", ell, m=m, n=n)
        mm = build_first_order("M", "-", ell, m=m, n=n)
        mu = (s + 2 * n + F(3, 2)) * (s + 2 * n + F(5, 2))
        h_n = _phi2_operator(1 + 0 + 2 * m + n + 1, 1 + n)
        assert is_zero_op(compose(mp, mm) + DiffOp.identity().scale(mu) - h_n)


def test_phi2_chain_intertwining():
    ell, m = pv(0, 0, 0), 0
    for n in range(3):
        mm = build_first_order("M", "-", ell, m=m, n=n)
        h1 = _phi2_operator(n + 1, n)
        h2 = _phi2_operator(n + 2, n + 1)
        assert is_zero_op(compose(mm, h1) - compose(h2, mm))


def test_phi2_chain_commutator_value():
    # [M-, M+] with the 1/2-scaled convention is (l0+l1+l2+2m+2n+1) * id;
    # the printed value -4(...) has the unscaled magnitude and the wrong sign
    ell, m, n = pv(1, 1, 0), 0, 1
    mm_prev = build_first_order("M", "-", ell, m=m, n=n - 1).scale(HALF)
    mp_prev = build_first_order("M", "+", ell, m=m, n=n - 1).scale(HALF)
    mm_n = build_first_order("M", "-", ell, m=m, n=n).scale(HALF)
    mp_n = build_first_order("M", "+", ell, m=m, n=n).scale(HALF)
    comm = compose(mm_prev, mp_prev) - compose(mp_n, mm_n)
    want = F(1 + 1 + 0 + 2 * m + 2 * n + 1)
    assert constant_part(comm) == want


# -- composite two-unit intertwiners ----------------------------------------------------------

def test_two_unit_composites_intertwine():
    # A+ At+ shifts l1 by -2; A+ At- shifts l0 by -2; both stay exact
    x_plus = graded_product(graded("A+"), graded("At+"))
    assert x_plus.shift == (0, -2, 0)
    y_plus = graded_product(graded("A+"), graded("At-"))
    assert y_plus.shift == (-2, 0, 0)
    for op in (x_plus, y_plus):
        for ell in (pv(1, 1, 0), pv(2, -1, 3), pv(0, 2, 1)):
            assert is_zero_op(intertwine_residual(op, ell))
