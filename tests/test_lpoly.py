"""Polynomials in the couplings: evaluation commutes with every operation."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from octasphere.diffop import HAMILTONIAN, DiffOp, compose, is_zero_op
from octasphere.hierarchy import _factor_poly
from octasphere.lpoly import (LPoly, RowTable, nonzero, residual_witness, row_at, row_table,
                              rows_at, sector_ints, sector_params)
from octasphere.operators import CHAIN, LADDER_NAMES, TILDE_NAMES, graded
from octasphere.trigpoly import (COS1, PHI2, SIN1, SIN2, TAN1, TrigPoly, frac_to_str, is_zero,
                                 linear_combine, mul)

F = Fraction

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
sectors = st.tuples(rationals, rationals, rationals)
halves = st.integers(-4, 4).map(lambda k: F(k, 2))
monos = st.tuples(*(st.integers(0, 2),) * 3)
coeffs = st.sampled_from([COS1, SIN2, TAN1, COS1 * SIN2 + TAN1.scale(F(-3, 2))])
polys = st.dictionaries(monos, coeffs, max_size=4).map(lambda d: LPoly(TrigPoly, d))


def test_affine_reads_the_row():
    row = (F(1, 2), F(-1), F(0), F(3))
    p = LPoly.affine(row, COS1)
    for ell in ((F(0), F(0), F(0)), (F(1, 2), F(-2), F(5))):
        assert p.at(ell) == COS1.scale(row_at(row, ell))


@settings(max_examples=200, deadline=None)
@given(st.tuples(rationals, rationals, rationals, rationals), sectors)
def test_row_at_equals_the_fraction_sum(row, ell):
    assert row_at(row, ell) == row[0] + row[1] * ell[0] + row[2] * ell[1] + row[3] * ell[2]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(rationals, rationals, rationals, rationals), min_size=1, max_size=4),
       sectors, st.data())
def test_rows_at_an_int_sector_is_row_at(rows, ell, data):
    # the sector over its least common denominator, given as Fractions or,
    # where integral, as ints; each row value one int numerator over one den
    given_ell = tuple(data.draw(st.sampled_from([x, int(x)] if x.denominator == 1 else [x]))
                      for x in ell)
    n0, n1, n2, d = sector = sector_ints(given_ell)
    assert d == math.lcm(*(x.denominator for x in ell))
    assert sector_params(sector) == ell
    nums, den = rows_at(RowTable(rows), sector)
    assert [F(v, den) for v in nums] == [row_at(row, ell) for row in rows]


def test_a_row_table_is_its_tuple_hashed_once():
    rows = ((F(1, 2), F(1), F(0), F(0)), (F(0), F(0), F(-3, 2), F(1)))
    table = RowTable(rows)
    assert table == rows and hash(table) == hash(rows) and hash(table) == hash(table)
    assert row_table(rows) is row_table(tuple(rows)) is row_table(RowTable(rows))


@settings(max_examples=40, deadline=None)
@given(polys, polys, sectors, st.tuples(*(halves,) * 3))
def test_evaluation_commutes_with_the_operations(p, q, ell, delta):
    # integral shift components weigh in ints, half-integral ones in Fractions
    assert (p + q).at(ell) == p.at(ell) + q.at(ell)
    assert (p - q).at(ell) == p.at(ell) - q.at(ell)
    assert p.scale(F(-2, 3)).at(ell) == p.at(ell).scale(F(-2, 3))
    assert p.product(q, mul).at(ell) == mul(p.at(ell), q.at(ell))
    assert p.shift(delta).at(ell) == p.at(tuple(x + d for x, d in zip(ell, delta)))


def _at_reference(poly: LPoly, ell):
    """poly at ell from Fraction powers l0^i l1^j l2^k, term by term in the
    stored order: one `linear_combine` per coefficient (per derivative order
    for an operator)."""
    l0, l1, l2 = (F(x) for x in ell)
    pairs = [(l0 ** i * l1 ** j * l2 ** k, c) for (i, j, k), c in poly._terms.items()]
    if poly.kind is TrigPoly:
        return linear_combine(pairs)
    orders: dict = {}
    for w, op in pairs:
        for order, c in op.items():
            orders.setdefault(order, []).append((w, c))
    return DiffOp._raw({o: linear_combine(ps) for o, ps in orders.items()})


def _stored(p) -> list:
    """A TrigPoly or DiffOp as its stored terms, in order, with denominators."""
    if isinstance(p, TrigPoly):
        return [p._den, list(p._terms.items())]
    return [(o, _stored(c)) for o, c in p.items()]


AT_POLYS = {"H": HAMILTONIAN,
            **{name: graded(name).poly for name in LADDER_NAMES + TILDE_NAMES},
            **{f"CHAIN[{sign}]": poly for sign, poly in CHAIN.items()},
            # a TrigPoly-kind poly of degree 0 to 2: the phi2 Jacobi factor of level (1, 1)
            "phi2 factor": _factor_poly(PHI2, 1, 1)}
integers = st.integers(-3, 3)
at_sectors = st.one_of(st.tuples(integers, integers, integers),
                       st.tuples(halves, halves, halves), sectors)


@pytest.mark.parametrize("name", list(AT_POLYS))
@settings(max_examples=30, deadline=None)
@given(at_sectors)
def test_at_is_the_fraction_power_sum_term_for_term(name, ell):
    # each weight an int over d^top: a degree below top carries d^(top - deg)
    got, want = AT_POLYS[name].at(ell), _at_reference(AT_POLYS[name], ell)
    assert got == want and _stored(got) == _stored(want)


zero_function = COS1 * COS1 + SIN1 * SIN1 - TrigPoly.constant(1)   # zero, three terms stored
some_coeffs = st.sampled_from([COS1, TAN1, zero_function, COS1 * SIN2 + zero_function])
some_ops = st.dictionaries(st.sampled_from([(0, 0), (1, 0), (0, 2)]), some_coeffs,
                           min_size=1, max_size=2).map(DiffOp)
trig_polys = st.dictionaries(monos, some_coeffs, max_size=5).map(lambda d: LPoly(TrigPoly, d))
op_polys = st.dictionaries(monos, some_ops, max_size=5).map(lambda d: LPoly(DiffOp, d))


@settings(max_examples=60, deadline=None)
@given(st.one_of(trig_polys, op_polys), st.sampled_from([None, 0, 1, 2]))
def test_the_witness_on_a_plane_is_that_of_the_poly_without_l_plane(poly, plane):
    zero = is_zero if poly.kind is TrigPoly else is_zero_op
    assert [m for m, _ in nonzero(poly)] == [m for m, c in poly.items() if not zero(c)]
    kept = LPoly(poly.kind, {m: c for m, c in poly.items() if plane is None or not m[plane]})
    assert residual_witness(poly, plane) == residual_witness(kept)
    assert list(nonzero(poly, plane)) == list(nonzero(kept))


def test_product_through_compose_and_the_result_kind():
    d1 = LPoly(DiffOp, {(0, 0, 0): DiffOp({(1, 0): TrigPoly.constant(1)})})
    m = LPoly.affine((F(0), F(1), F(0), F(0)), DiffOp.multiplication(COS1))
    ell = (F(3), F(0), F(0))
    assert d1.product(m, compose).at(ell) == compose(d1.at(ell), m.at(ell))
    assert d1.map(lambda op: op.coeff((1, 0)), TrigPoly).kind is TrigPoly


def test_shift_expands_binomially():
    # (l0 + 2)^2 = l0^2 + 4 l0 + 4
    p = LPoly(TrigPoly, {(2, 0, 0): COS1}).shift((2, 0, 0))
    assert dict(p.items()) == {(0, 0, 0): COS1.scale(4), (1, 0, 0): COS1.scale(4),
                               (2, 0, 0): COS1}


@settings(max_examples=40, deadline=None)
@given(polys, sectors, st.integers(0, 2))
def test_reflect_is_an_involution_evaluated_at_the_reflected_sector(p, ell, axis):
    assert p.reflect(axis).reflect(axis).items() == p.items()
    mirrored = tuple(-x if i == axis else x for i, x in enumerate(ell))
    assert p.reflect(axis).at(ell) == p.at(mirrored)


def test_reflect_rejects_an_axis_outside_the_couplings():
    with pytest.raises(ValueError):
        LPoly(TrigPoly, {(1, 0, 0): COS1}).reflect(3)


def test_a_sector_without_three_couplings_is_rejected():
    row = (F(0), F(1), F(1), F(1))
    p = LPoly(TrigPoly, {(1, 1, 1): COS1})
    for ell in ((F(1), F(1)), (F(1),) * 4):
        with pytest.raises(ValueError):
            row_at(row, ell)
        with pytest.raises(ValueError):
            sector_ints(ell)
        with pytest.raises(ValueError):
            p.at(ell)
        with pytest.raises(ValueError):
            p.shift(ell)


@pytest.mark.parametrize("mono", [(-1, 0, 0), (1, 0), (0, 0, 0, 0), (1.0, 0, 0), (True, 0, 0)])
def test_a_monomial_that_is_not_three_non_negative_ints_is_rejected(mono):
    # a negative exponent would make shift drop the term and at divide by zero
    with pytest.raises(ValueError):
        LPoly(TrigPoly, {mono: COS1})


def _entry_points():
    from octasphere.hierarchy import closed_form_state, energy, ground_state, jacobi, make_state
    from octasphere.linalg import rank_exact, solve_exact
    from octasphere.lpoly import pv
    from octasphere.operators import build_first_order, graded
    from octasphere.superpotential import riccati_check
    p = LPoly(TrigPoly, {(1, 1, 1): COS1})
    return {
        "pv": lambda x: pv(1, 2, x),
        "GradedOp.at": lambda x: graded("A-").at((1, 2, x)),
        "LPoly.shift": lambda x: p.shift((0, x, 0)),
        "riccati_check": lambda x: riccati_check((x, 1, 1)),
        "build_first_order M l0": lambda x: build_first_order("M", "-", (x, 0, 0)),
        "build_first_order M l2": lambda x: build_first_order("M", "-", (0, 0, x)),
        # coefficients, exponents and Jacobi parameters take the same conversion
        "TrigPoly.constant": lambda x: TrigPoly.constant(x),
        "TrigPoly.monomial exponent": lambda x: TrigPoly.monomial(1, (x, 0, 0, 0)),
        "TrigPoly.scale": lambda x: TrigPoly.constant(1).scale(x),
        "DiffOp.scale": lambda x: DiffOp.identity().scale(x),
        "jacobi alpha": lambda x: jacobi(2, x, 0),
        # so do the hierarchy's one-dimensional sectors and the exact linear algebra
        "energy lambda_m": lambda x: energy("lambda_m", l0=x, l1=0, m=0),
        "ground_state phi1_1d": lambda x: ground_state("phi1_1d", (x, 0, 0)),
        "closed_form_state phi1_excited": lambda x: closed_form_state("phi1_excited", (x, 0, 1)),
        "make_state energy": lambda x: make_state((0, 0, 0), {}, TrigPoly.constant(1), x),
        "rank_exact": lambda x: rank_exact([[x]]),
        "solve_exact": lambda x: solve_exact([[x]], [1]),
        # and the JSON writer of a fraction
        "frac_to_str": frac_to_str,
    }


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("entry", list(_entry_points()))
def test_a_non_finite_coupling_is_a_value_error(entry, value):
    with pytest.raises(ValueError):
        _entry_points()[entry](value)
