"""DiffOp composition/application against the nesting identity and H examples."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from octasphere import diffop, trigpoly
from octasphere.diffop import (HAMILTONIAN, PHI1_BLOCK, PHI2_BLOCK, DiffOp, apply,
                               apply_normal_at, build_hamiltonian, compose, is_zero_op, pv)
from octasphere.operators import (LADDER_NAMES, TILDE_NAMES, build_first_order, graded,
                                  graded_product)
from octasphere.trigpoly import (COS1, ONE, PHI1, PHI2, SIN1, TAN1, TrigPoly, _new, _ratio, _sum,
                                 differentiate, is_zero, mul, normalized)

F = Fraction
HALF = F(1, 2)


def mono(c, a, b, cc, d):
    return TrigPoly.monomial(c, (F(a), F(b), F(cc), F(d)))


def monomial_sum(ts):
    """The sum of TrigPoly.monomial(c, e) over the (c, e) pairs ts, in their order."""
    return sum((TrigPoly.monomial(c, e) for c, e in ts), TrigPoly.zero())


# -d2^2 + tan phi2 d2 - sec^2 phi2 d1^2, the derivative terms of H, typed by hand
KINETIC = DiffOp({(0, 2): TrigPoly.constant(-1),
                  (0, 1): TrigPoly.monomial(1, (0, 0, -1, 1)),
                  (2, 0): TrigPoly.monomial(-1, (0, 0, -2, 0))})

D1 = DiffOp({(1, 0): ONE})
D2 = DiffOp({(0, 1): ONE})


def test_compose_derivatives():
    assert compose(D1, D1) == DiffOp({(2, 0): ONE})


def test_compose_noncommutative_by_sec_squared():
    tan_mult = DiffOp.multiplication(TAN1)
    left = compose(tan_mult, D1)
    right = compose(D1, tan_mult)
    diff = right - left  # [d1, tan] = sec^2
    sec2 = DiffOp.multiplication(mono(1, -2, 0, 0, 0))
    assert is_zero_op(diff - sec2)


def test_factorization_identity_at_sector():
    # A+ A- + (l0+l1+1)^2 = phi1 block, checked at (1, 1, 0)
    ell = pv(1, 1, 0)
    aplus = build_first_order("A", "+", ell)
    aminus = build_first_order("A", "-", ell)
    lam0 = F(9)
    lhs = compose(aplus, aminus) + DiffOp.identity().scale(lam0)
    assert is_zero_op(lhs - diffop.PHI1_BLOCK.at((1, 1, 0)))


def test_apply_annihilates_ground_state():
    aminus = build_first_order("A", "-", pv(0, 0, 0))
    ground = mono(1, HALF, HALF, 0, 0)
    assert is_zero(apply(aminus, ground))


def test_apply_identity_and_derivative():
    p = mono(3, 1, 2, 0, 1)
    assert apply(DiffOp.identity(), p) == p
    assert apply(D1, SIN1) == COS1


def test_hamiltonian_pure_kinetic_at_half_sector():
    h = build_hamiltonian(pv(HALF, HALF, HALF))
    assert is_zero_op(h - KINETIC)


def test_hamiltonian_eigenvalue_examples():
    # (0,0,1) on the q=1 fundamental state -> 35/4
    psi = mono(1, HALF, HALF, 1, F(3, 2))
    h = build_hamiltonian(pv(0, 0, 1))
    assert is_zero(apply(h, psi) - psi.scale(F(35, 4)))
    # (0,0,0) on the q=0 state -> 15/4
    psi0 = mono(1, HALF, HALF, 1, HALF)
    h0 = build_hamiltonian(pv(0, 0, 0))
    assert is_zero(apply(h0, psi0) - psi0.scale(F(15, 4)))


def test_compose_matches_nested_apply_randomized():
    rng = random.Random(7)

    def rand_poly():
        acc = TrigPoly.zero()
        for _ in range(rng.randint(1, 3)):
            e = tuple(F(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(4))
            acc = acc + TrigPoly.monomial(F(rng.randint(-3, 3) or 1), e)
        return acc

    def rand_op(max_order):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            k1 = rng.randint(0, max_order)
            k2 = rng.randint(0, max_order - k1)
            terms[(k1, k2)] = rand_poly()
        return DiffOp(terms)

    for _ in range(100):
        x, y = rand_op(2), rand_op(2)
        f = rand_poly()
        assert is_zero(apply(compose(x, y), f) - apply(x, apply(y, f)))


def test_compositions_above_order_four_are_the_nested_applications():
    # [S_A, R] has order 5 before cancellation and R^2 order 6: compose takes any order
    x = DiffOp({(3, 0): mono(1, -1, 1, 0, 0), (1, 2): mono(F(2, 3), 0, 0, HALF, -1),
                (0, 1): COS1})
    y = DiffOp({(2, 0): mono(-1, 0, -2, 0, 0), (1, 1): mono(F(1, 2), 1, 0, 0, HALF)})
    z = DiffOp({(2, 1): mono(3, 0, 1, -1, 0), (0, 0): SIN1})
    f = mono(1, HALF, F(3, 2), 1, HALF) + mono(F(-2, 5), 2, -1, F(5, 2), 1)
    for a, b, order in ((x, y, 5), (x, z, 6)):
        ab = compose(a, b)
        assert ab.order() == order
        assert is_zero(apply(ab, f) - apply(a, apply(b, f)))
    with pytest.raises(ValueError):
        DiffOp({(3, -1): ONE})


def test_internal_builds_equal_the_checked_constructor():
    # compose, +, - and scale build without re-validation; the result must be
    # what DiffOp() would make of the same terms: no zero coefficient, same map
    h = build_hamiltonian(pv(1, 2, 0))
    a = build_first_order("A", "-", pv(1, 2, 0))
    for r in (compose(a, h), compose(h, a), h + a, h - h, -a, a.scale(F(-2, 3)), a.scale(0),
              compose(D1, DiffOp.multiplication(ONE)) - D1):
        assert all(c for _, c in r.items())
        assert DiffOp(dict(r.items())) == r
    assert not (h - h) and not a.scale(0)


# -- equality and the int-path Hamiltonian -------------------------------------------

half_ints = st.integers(min_value=-6, max_value=6).map(lambda k: F(k, 2))
coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
term_lists = st.lists(st.tuples(coeffs, st.tuples(half_ints, half_ints, half_ints, half_ints)),
                      max_size=4)
orders = st.sampled_from([(k1, k2) for k1 in range(3) for k2 in range(3 - k1)])
op_terms = st.dictionaries(orders, term_lists, max_size=4)


def _op(terms: dict, reverse: bool) -> DiffOp:
    """DiffOp of {order: [(coeff, exps)]}, inserting orders and terms in either order."""
    seq = list(reversed(terms.items())) if reverse else list(terms.items())
    return DiffOp({k: monomial_sum(ts[::-1] if reverse else ts)
                   for k, ts in seq})


@settings(max_examples=100, deadline=None)
@given(op_terms)
def test_diffop_equality_holds_across_insertion_orders(terms):
    assert _op(terms, False) == _op(terms, True)


def _public_hamiltonian(ell) -> DiffOp:
    """The Hamiltonian written out through the validating public constructors."""
    l0, l1, l2 = (F(x) for x in ell)
    q = F(1, 4)
    return DiffOp({
        (0, 2): TrigPoly.constant(-1),
        (0, 1): mono(1, 0, 0, -1, 1),
        (2, 0): mono(-1, 0, 0, -2, 0),
        (0, 0): TrigPoly({(0, 0, 0, -2): l2 * l2 - q, (-2, 0, -2, 0): l0 * l0 - q,
                          (0, -2, -2, 0): l1 * l1 - q}),
    })


rational_sectors = st.tuples(*[st.fractions(min_value=-3, max_value=3, max_denominator=6)] * 3)


@settings(max_examples=100, deadline=None)
@given(rational_sectors)
def test_hamiltonian_builder_matches_the_public_constructor_form(ell):
    got, want = build_hamiltonian(ell), _public_hamiltonian(ell)
    assert got == want


def _public_phi1_block(l0, l1) -> DiffOp:
    q = F(1, 4)
    return DiffOp({(2, 0): TrigPoly.constant(-1),
                   (0, 0): TrigPoly({(-2, 0, 0, 0): l0 * l0 - q, (0, -2, 0, 0): l1 * l1 - q})})


@settings(max_examples=100, deadline=None)
@given(rational_sectors)
def test_the_hamiltonian_is_its_phi2_block_plus_sec2_phi2_times_its_phi1_block(ell):
    sec2_phi2 = DiffOp.multiplication(mono(1, 0, 0, -2, 0))
    assert build_hamiltonian(ell) == PHI2_BLOCK.at(ell) + compose(sec2_phi2, PHI1_BLOCK.at(ell))
    assert diffop.PHI1_BLOCK.at((ell[0], ell[1], 0)) == _public_phi1_block(ell[0], ell[1])


def test_hamiltonian_drops_a_vanishing_potential():
    assert build_hamiltonian((HALF, -HALF, HALF)) == KINETIC


def test_a_sector_without_three_couplings_is_rejected():
    for ell in ((1, 2), (1, 2, 3, 4)):
        with pytest.raises(ValueError):
            pv(*ell)
        with pytest.raises(ValueError):
            build_hamiltonian(ell)


# -- application: one accumulation over the derivatives of f ---------------------------

def _reference_apply(op: DiffOp, f: TrigPoly) -> TrigPoly:
    """sum c * d1^k1 d2^k2 f, one `mul` and one `+` per derivative order."""
    out = TrigPoly.zero()
    for (k1, k2), c in op.items():
        g = f
        for _ in range(k1):
            g = differentiate(g, PHI1)
        for _ in range(k2):
            g = differentiate(g, PHI2)
        out = out + mul(c, g)
    return out


# total order <= 4, as high as any program operator goes
all_orders = st.sampled_from([(k1, k2) for k1 in range(5) for k2 in range(5 - k1)])


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(all_orders, term_lists, max_size=6), term_lists)
def test_apply_equals_the_sum_of_coefficients_times_derivatives(terms, f_terms):
    op = _op(terms, False)
    f = monomial_sum(f_terms)
    assert apply(op, f) == _reference_apply(op, f)


def test_applying_the_hamiltonian_forms_each_derivative_once(monkeypatch):
    # orders (0,2), (0,1), (2,0): d2 f, d2^2 f, d1 f, d1^2 f, with d2 f formed once;
    # the products are accumulated without a `mul` or `+` per order
    h = HAMILTONIAN.at(pv(F(1, 2), 2, F(-1, 3)))
    f = mono(2, HALF, F(3, 2), 1, HALF) + mono(F(-1, 3), -1, HALF, F(5, 2), 2)
    calls = {"differentiate": 0, "mul": 0, "add": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(diffop, "differentiate", counted("differentiate", diffop.differentiate))
    monkeypatch.setattr(trigpoly, "mul", counted("mul", trigpoly.mul))
    monkeypatch.setattr(TrigPoly, "__add__", counted("add", TrigPoly.__add__))
    got = apply(h, f)
    assert calls == {"differentiate": 4, "mul": 0, "add": 0}
    monkeypatch.undo()
    assert got == _reference_apply(h, f)


def test_composing_with_the_hamiltonian_forms_each_coefficient_derivative_once(monkeypatch):
    # H's d2^2 and d2 terms both need d2 of each coefficient of A-: read from
    # that coefficient's derivative table, it is formed once, so no polynomial
    # object (kept alive in `inputs`) is differentiated twice in one variable;
    # no product is a `mul`
    ell = pv(F(1, 2), 2, F(-1, 3))
    h, x = build_hamiltonian(ell), graded("A-").at(ell)
    inputs, muls = [], []
    real_differentiate, real_mul = diffop.differentiate, trigpoly.mul

    def differentiate_recorded(p, var):
        inputs.append((p, var))
        return real_differentiate(p, var)

    def mul_recorded(p, q):
        muls.append((p, q))
        return real_mul(p, q)

    monkeypatch.setattr(diffop, "differentiate", differentiate_recorded)
    monkeypatch.setattr(trigpoly, "mul", mul_recorded)
    got = compose(h, x)
    monkeypatch.undo()
    assert inputs and len(inputs) == len({(id(p), var) for p, var in inputs}) and not muls
    f = mono(2, HALF, F(3, 2), 1, HALF) + mono(F(-1, 3), -1, HALF, F(5, 2), 2)
    assert is_zero(apply(got, f) - apply(h, apply(x, f)))


# -- operator polynomials applied at a sector ------------------------------------------

AT_SECTORS = [pv(0, 0, 0), pv(2, -1, 3), pv(-3, 4, 1), pv(F(1, 2), 2, F(-1, 3)),
              pv(F(-7, 4), F(2, 5), F(3, 2)), pv(F(-1, 2), F(-1, 2), F(-1, 2))]
AT_FUNCTIONS = [mono(1, HALF, HALF, 1, HALF),
                mono(2, HALF, F(3, 2), 1, HALF) + mono(F(-1, 3), -1, HALF, F(5, 2), 2),
                mono(F(5, 4), F(-3, 2), 2, 0, F(-1, 2)) + mono(-1, 1, 1, 1, 1)
                + mono(F(2, 7), 0, F(5, 2), -2, 3)]
AT_POLYS = {"H": HAMILTONIAN, "phi1 block": PHI1_BLOCK,
            **{name: graded(name).poly for name in LADDER_NAMES + TILDE_NAMES}}


def _reference_normal_at(poly, ell, f: TrigPoly, energy=0) -> TrigPoly:
    """The operator formed at the sector, applied, less energy * f, then normalized."""
    return normalized(apply(poly.at(ell), f) - f.scale(energy))


@pytest.mark.parametrize("name", list(AT_POLYS))
def test_applying_a_polynomial_at_a_sector_is_applying_its_value_there(name):
    # the weights l0^i l1^j l2^k and the energy go into the one accumulation of
    # monomial images: the normal form of applying the operator formed there
    poly = AT_POLYS[name]
    for ell in AT_SECTORS:
        for f in AT_FUNCTIONS:
            want = normalized(apply(poly.at(ell), f))
            got = apply_normal_at(poly, ell, f)
            assert got == want and sorted(got._terms) == sorted(want._terms), (ell, f)
            assert apply_normal_at(poly, ell, f, energy=F(-7, 3)) \
                == normalized(want + f.scale(F(7, 3)))


energies = st.one_of(st.just(F(0)), st.fractions(min_value=F(1, 7), max_value=40,
                                                 max_denominator=12),
                     st.fractions(min_value=-40, max_value=F(-1, 7), max_denominator=12))


@pytest.mark.parametrize("name", list(AT_POLYS))
@settings(max_examples=40, deadline=None)
@given(rational_sectors, term_lists, energies)
def test_apply_normal_at_is_the_normal_form_of_the_operator_formed_at_the_sector(
        name, ell, f_terms, energy):
    # raw f with half-integer and negative exponents, rational sectors and energies
    f = monomial_sum(f_terms)
    got = apply_normal_at(AT_POLYS[name], ell, f, energy)
    assert got == _reference_normal_at(AT_POLYS[name], ell, f, energy)


# -- the image-table kernel against the per-monomial accumulation ------------------------

def _image_sum_at(poly, ell, f: TrigPoly, energy=0) -> TrigPoly:
    """Reference: one `trigpoly._sum` part per monomial x^k of f and ell-monomial
    m of poly of nonzero weight, in poly's stored order, the image NF(poly_m
    x^k) weighted f_k l^m, l^m a product of Fraction powers, then the energy
    image -f_k energy NF(x^k); each image formed afresh."""
    en, ed = _ratio(energy)
    l0, l1, l2 = pv(*ell)
    weights = [(m, *_ratio(w)) for m in poly._terms
               if (w := l0 ** m[0] * l1 ** m[1] * l2 ** m[2])]
    parts = []
    for key, n in f._terms.items():
        x = _new({key: 1}, 1)
        for m, wn, wd in weights:
            img = normalized(apply(poly.coeff(m), x))
            parts.append((n * wn, wd * f._den * img._den, img._terms))
        if en:
            img = normalized(x)
            parts.append((-n * en, ed * f._den * img._den, img._terms))
    return _sum(parts)


KERNEL_POLYS = {**{name: graded(name).poly for name in LADDER_NAMES + TILDE_NAMES},
                "A+*C+": graded_product(graded("A+"), graded("C+")).poly,
                "H": HAMILTONIAN, "phi1 block": PHI1_BLOCK}
# integral and half-integral sectors; each coupling may be 0, which zeroes the
# weight of every ell-monomial it divides
kernel_sectors = st.one_of(st.tuples(*[st.integers(min_value=-4, max_value=4)] * 3),
                           st.tuples(*[half_ints] * 3))
kernel_energies = st.one_of(st.just(0), st.fractions(min_value=-40, max_value=40,
                                                     max_denominator=12))


# normalized f at a sector with zero couplings: images of weight 0 share keys with later
# ones: adding them unskipped moves those keys forward
ZERO_WEIGHT_CASES = [
    [(F(2, 3), (2, 1, 2, -HALF)), (-HALF, (F(3, 2), 2, 1, -2)), (1, (1, 1, -1, HALF))],
    [(-1, (F(-3, 2), -2, F(-3, 2), -2)), (HALF, (-1, F(-3, 2), 2, HALF)),
     (HALF, (1, 2, HALF, 2))]]


@pytest.mark.parametrize("name", list(KERNEL_POLYS))
@settings(max_examples=30, deadline=None)
@given(kernel_sectors, term_lists, st.booleans(), kernel_energies)
@example((0, 0, 0), ZERO_WEIGHT_CASES[0], True, 0)
@example((0, 0, 0), ZERO_WEIGHT_CASES[1], True, 0)
def test_apply_normal_at_is_the_per_monomial_accumulation_term_for_term(
        name, ell, f_terms, normal, energy):
    # the same denominator, numerators and stored key order as adding each
    # weighted image as its own part, so every state file stays byte-identical
    f = monomial_sum(f_terms)
    f = normalized(f) if normal else f
    got = apply_normal_at(KERNEL_POLYS[name], ell, f, energy)
    want = _image_sum_at(KERNEL_POLYS[name], ell, f, energy)
    assert got._den == want._den
    assert list(got._terms.items()) == list(want._terms.items())
