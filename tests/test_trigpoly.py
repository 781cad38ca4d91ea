"""Exact trig-monomial algebra: spec'd examples plus algebraic property tests."""

import functools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from octasphere.trigpoly import (COS1, COS2, ONE, PHI1, PHI2, SIN1, SIN2, TAN1,
                                 TAN2, TrigPoly, _angle_basis, _pythagoras,
                                 differentiate, eval_numeric, frac_from_str, from_obj,
                                 is_zero, linear_combine, mul, normal_form, proportionality,
                                 sum_of_products, to_obj)

F = Fraction
HALF = F(1, 2)


def mono(c, a, b, cc, d):
    return TrigPoly.monomial(c, (F(a), F(b), F(cc), F(d)))


def monomial_sum(ts):
    """The sum of TrigPoly.monomial(c, e) over the (c, e) pairs ts, in their order."""
    return sum((TrigPoly.monomial(c, e) for c, e in ts), TrigPoly.zero())


def to_json(p):
    """p as compact JSON text: `to_obj` written by `json.dumps`."""
    return json.dumps(to_obj(p), separators=(",", ":"))


def from_json(s):
    """A TrigPoly read from JSON text: `from_obj` of the parsed value."""
    return from_obj(json.loads(s))


# -- linear_combine ------------------------------------------------------------

def test_cancellation_gives_empty():
    p = linear_combine([(F(1), COS1), (F(-1), COS1)])
    assert len(p) == 0 and is_zero(p)


def test_like_term_merge():
    p = linear_combine([(F(2), SIN2), (F(3), SIN2)])
    assert p == SIN2.scale(5)


def test_pythagorean_identity_via_is_zero():
    p = COS1 * COS1 + SIN1 * SIN1
    assert len(p) == 2  # canonical form does not merge across classes
    assert is_zero(p - ONE)


# -- mul -------------------------------------------------------------------------

def test_mul_squares_cosine():
    assert COS1 * COS1 == mono(1, 2, 0, 0, 0)


def test_tan_times_cot_is_one():
    cot1 = mono(1, 1, -1, 0, 0)
    assert TAN1 * cot1 == ONE


def test_half_integer_exponent_doubling():
    h = mono(1, HALF, HALF, 0, 0)
    assert h * h == mono(1, 1, 1, 0, 0)


# -- differentiate ------------------------------------------------------------------

def test_derivative_of_cos():
    assert differentiate(COS1, PHI1) == SIN1.scale(-1)


def test_derivative_of_half_powers():
    p = mono(1, HALF, HALF, 0, 0)
    want = mono(-HALF, -HALF, F(3, 2), 0, 0) + mono(HALF, F(3, 2), -HALF, 0, 0)
    assert differentiate(p, PHI1) == want


def test_derivative_in_second_variable():
    p = mono(1, 0, 0, 2, 0)
    assert differentiate(p, PHI2) == mono(-2, 0, 0, 1, 1)


# -- is_zero --------------------------------------------------------------------------

def test_is_zero_pythagorean():
    assert is_zero(COS1 * COS1 + SIN1 * SIN1 - ONE)


def test_is_zero_distinct_classes():
    assert not is_zero(mono(1, HALF, 0, 0, 0) - mono(1, 0, HALF, 0, 0))


def test_is_zero_with_negative_exponents():
    sec2 = mono(1, 0, 0, -1, 0)
    p = (ONE - SIN2 * SIN2) * sec2 - COS2
    assert is_zero(p)


# -- normal form and proportionality ---------------------------------------------------

def test_normal_form_is_a_basis_expansion():
    # class (1, 1) of phi1: basis {cos sin^(1+2j)} u {cos^(1-2k) sin, k >= 1}
    nf = normal_form(mono(1, -3, -5, 0, 0))
    for (a, b, c, d) in nf:
        assert a == 1 or (a < 0 and b == 1)
    assert is_zero(TrigPoly(nf) - mono(1, -3, -5, 0, 0))


def test_proportionality_across_classes_of_terms():
    assert proportionality((COS1 * COS1 + SIN1 * SIN1).scale(3), ONE) == 3


def test_proportionality_not_proportional():
    assert proportionality(COS1 + SIN1, COS1) is None
    assert proportionality(COS1 + SIN1.scale(2), COS1 + SIN1) is None


def test_proportionality_zero_numerator():
    assert proportionality(COS1 * COS1 + SIN1 * SIN1 - ONE, TAN2) == 0


def test_proportionality_zero_denominator():
    assert proportionality(COS2, COS1 * COS1 + SIN1 * SIN1 - ONE) is None


# -- eval_numeric -------------------------------------------------------------------------

def test_eval_cos_at_pi_third():
    assert eval_numeric(COS1, math.pi / 3, 0.7) == pytest.approx(0.5, abs=1e-14)


def test_eval_identity_vanishes():
    p = COS1 * COS1 + SIN1 * SIN1 - ONE
    for x, y in [(0.2, 1.1), (0.9, 0.4), (1.5, 1.5)]:
        assert abs(eval_numeric(p, x, y)) <= 1e-13


def test_eval_singular_boundary_raises():
    with pytest.raises(ValueError):
        eval_numeric(TAN2, 0.5, math.pi / 2)


def test_exponent_denominator_restriction():
    with pytest.raises(ValueError):
        TrigPoly.monomial(1, (F(1, 3), F(0), F(0), F(0)))


def test_frac_from_str_zero_denominator_raises_value_error():
    with pytest.raises(ValueError):
        frac_from_str("1/0")


@pytest.mark.parametrize("field", ["coeff", "exps"])
def test_from_obj_and_from_json_zero_denominator_raise_value_error(field):
    term = {"coeff": "1/1", "exps": ["0/1", "0/1", "0/1", "0/1"]}
    term[field] = "1/0" if field == "coeff" else ["1/0", "0/1", "0/1", "0/1"]
    obj = {"terms": [term]}
    with pytest.raises(ValueError):
        from_obj(obj)
    with pytest.raises(ValueError):
        from_json(json.dumps(obj))


@pytest.mark.parametrize("read, arg", [
    (from_obj, {}),                                   # no "terms"
    (from_json, '{"terms": [{"coeff": "1/2"}]}'),     # a term without "exps"
    (from_json, "[1]"),                               # not an object
])
def test_malformed_objects_raise_value_error(read, arg):
    with pytest.raises(ValueError):
        read(arg)


# -- property tests ---------------------------------------------------------------------

exps = st.fractions(min_value=-4, max_value=4).map(
    lambda f: F(round(f * 2), 2))
coeffs = st.fractions(min_value=-5, max_value=5).filter(lambda c: c != 0)
terms = st.tuples(coeffs, st.tuples(exps, exps, exps, exps))
polys = st.lists(terms, min_size=0, max_size=5).map(
    lambda ts: monomial_sum(ts))


@settings(max_examples=100, deadline=None)
@given(polys, polys)
def test_mul_commutes(p, q):
    assert is_zero(mul(p, q) - mul(q, p))


@settings(max_examples=100, deadline=None)
@given(polys, polys, polys)
def test_linear_combine_assoc_commut(p, q, r):
    lhs = linear_combine([(F(2), p), (F(-3), q), (F(1), r)])
    rhs = linear_combine([(F(1), r), (F(2), p)]) + q.scale(-3)
    assert lhs == rhs


@settings(max_examples=100, deadline=None)
@given(polys)
def test_self_difference_is_zero(p):
    assert is_zero(p - p)


@settings(max_examples=100, deadline=None)
@given(polys, polys)
def test_leibniz_rule(p, q):
    for var in (PHI1, PHI2):
        lhs = differentiate(mul(p, q), var)
        rhs = mul(differentiate(p, var), q) + mul(p, differentiate(q, var))
        assert is_zero(lhs - rhs)


@settings(max_examples=100, deadline=None)
@given(polys)
def test_canonical_idempotence(p):
    rebuilt = TrigPoly(dict(p.items()))
    assert rebuilt == p and list(rebuilt.terms()) == list(p.terms())


@settings(max_examples=100, deadline=None)
@given(polys)
def test_serialization_round_trip_bit_exact(p):
    s = to_json(p)
    assert to_json(from_json(s)) == s
    assert from_json(s) == p
    json.loads(s)  # valid JSON


@settings(max_examples=60, deadline=None)
@given(polys)
def test_zero_test_soundness_at_random_points(p):
    if not is_zero(p):
        return
    for k in range(5):
        x = 0.17 + 0.23 * k
        y = 1.35 - 0.21 * k
        assert abs(eval_numeric(p, x, y)) <= 1e-10


@settings(max_examples=100, deadline=None)
@given(polys)
def test_numeric_consistency_against_log_space_reference(p):
    # independent float reference: per-term evaluation through exp/log
    for k in range(10):
        x, y = 0.25 + 0.11 * k, 1.31 - 0.09 * k
        ref, scale = 0.0, 1.0
        for t in p.terms():
            logs = (float(t.exps[0]) * math.log(math.cos(x))
                    + float(t.exps[1]) * math.log(math.sin(x))
                    + float(t.exps[2]) * math.log(math.cos(y))
                    + float(t.exps[3]) * math.log(math.sin(y)))
            val = float(t.coeff) * math.exp(logs)
            ref += val
            scale += abs(val)
        assert abs(eval_numeric(p, x, y) - ref) <= 1e-12 * scale


def _is_basis(e):
    # per angle: cos exponent in [0, 2), or negative with sin exponent in [0, 2)
    return all(0 <= a < 2 or (a < 0 and 0 <= b < 2) for a, b in ((e[0], e[1]), (e[2], e[3])))


@settings(max_examples=100, deadline=None)
@given(polys, st.integers(min_value=0), st.sampled_from([PHI1, PHI2]))
def test_normal_form_invariant_under_pythagoras(p, index, var):
    if not p:
        return
    t = list(p.terms())[index % len(p)]
    single = TrigPoly.monomial(t.coeff, t.exps)
    cos2, sin2 = (COS1 * COS1, SIN1 * SIN1) if var == PHI1 else (COS2 * COS2, SIN2 * SIN2)
    rewritten = p - single + single * cos2 + single * sin2
    nf = normal_form(p)
    assert normal_form(rewritten) == nf
    assert all(_is_basis(e) for e in nf)


@settings(max_examples=100, deadline=None)
@given(polys)
def test_normal_form_agrees_numerically(p):
    q = TrigPoly(normal_form(p))
    for k in range(5):
        x, y = 0.21 + 0.25 * k, 1.33 - 0.23 * k
        scale = 1.0 + sum(abs(eval_numeric(TrigPoly.monomial(t.coeff, t.exps), x, y))
                          for t in list(p.terms()) + list(q.terms()))
        assert abs(eval_numeric(p, x, y) - eval_numeric(q, x, y)) <= 1e-11 * scale


# -- stored representation -------------------------------------------------------------

def _int_keyed(p):
    return all(len(e) == 4 and all(type(x) is int for x in e) for e in p._terms)


def test_exponents_are_stored_doubled():
    p = TrigPoly({(F(3, 2), 1, F(-1, 2), F(2)): 5})
    assert p._terms == {(3, 2, -1, 4): 5}
    assert dict(p.items()) == {(F(3, 2), F(1), F(-1, 2), F(2)): 5}


@settings(max_examples=100, deadline=None)
@given(polys, polys, coeffs, st.sampled_from([PHI1, PHI2]))
def test_stored_keys_stay_int_tuples(p, q, c, var):
    # a Fraction key would still compare equal (2 == Fraction(2)), only slower
    made = [p, q, TrigPoly(dict(p.items())), TrigPoly.constant(c),
            TrigPoly.monomial(c, (HALF, 1, F(-3, 2), 0.5)),
            p + q, p - q, -p, p.scale(c), mul(p, q), differentiate(p, var),
            linear_combine([(c, p), (F(1), q)]),
            from_json(to_json(p))]
    assert all(_int_keyed(r) for r in made)


@settings(max_examples=100, deadline=None)
@given(polys)
def test_public_views_give_fraction_exponents(p):
    keys = [e for e, _ in p.items()] + [t.exps for t in p.terms()] + list(normal_form(p))
    assert all(type(x) is Fraction for e in keys for x in e)
    assert dict(p.items()) == {t.exps: t.coeff for t in p.terms()}


@settings(max_examples=100, deadline=None)
@given(polys, polys)
def test_equal_polys_built_by_different_routes_hash_equal(p, q):
    # the hash is cached on first use: p's is filled before the others exist
    seen = {p: "p"}
    for r in ((p + q) - q, monomial_sum((t.coeff, t.exps) for t in reversed(list(p.terms()))),
              TrigPoly(dict(p.items())), TrigPoly(dict(reversed(list(p.items())))),
              from_json(to_json(p)), mul(p, ONE), p.scale(F(2)).scale(HALF),
              linear_combine([(F(1), p)])):
        assert r == p and hash(r) == hash(p) == hash(r)
        assert seen[r] == "p"


# -- differential test: the int kernel against a plain Fraction reference ----------------

def _ref_sum(pairs):
    """sum c * p over dict[Exps, Fraction] polys; keys in order of first
    occurrence, where a part of weight 0 adds no key."""
    acc = {}
    for c, p in pairs:
        if not c:
            continue
        for e, v in p.items():
            acc[e] = acc.get(e, 0) + c * v
    return {e: v for e, v in acc.items() if v}


def _ref_mul(p, q):
    acc = {}
    for e1, v1 in p.items():
        for e2, v2 in q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            acc[e] = acc.get(e, 0) + v1 * v2
    return {e: v for e, v in acc.items() if v}


def _ref_differentiate(p, var):
    i = 0 if var == PHI1 else 2
    acc = {}
    for e, v in p.items():
        # d cos^a sin^b = -a cos^(a-1) sin^(b+1) + b cos^(a+1) sin^(b-1)
        for k, da in ((-e[i], -1), (e[i + 1], 1)):
            f = list(e)
            f[i] += da
            f[i + 1] -= da
            acc[tuple(f)] = acc.get(tuple(f), 0) + k * v
    return {e: v for e, v in acc.items() if v}


def _ref_normal_form(p):
    """Fraction coefficients through the same basis table, one angle after the other."""
    for i in (0, 2):
        acc = {}
        for e, v in p.items():
            for x, y, k in _angle_basis(int(2 * e[i]), int(2 * e[i + 1])):
                f = list(e)
                f[i], f[i + 1] = F(x, 2), F(y, 2)
                acc[tuple(f)] = acc.get(tuple(f), 0) + k * v
        p = {e: v for e, v in acc.items() if v}
    return p


def _ref_proportionality(p, q):
    np_, nq = _ref_normal_form(p), _ref_normal_form(q)
    if not nq:
        return None
    if not np_:
        return F(0)
    e0 = next(iter(nq))
    c = np_.get(e0, 0) / nq[e0]
    return c if np_ == {e: c * v for e, v in nq.items()} else None


def _canonical(p):
    nums = list(p._terms.values())
    return (type(p._den) is int and p._den > 0 and math.gcd(p._den, *nums) == 1
            and all(type(n) is int and n != 0 for n in nums))


@settings(max_examples=100, deadline=None)
@given(polys, polys, coeffs, st.sampled_from([PHI1, PHI2]))
def test_kernel_matches_a_fraction_reference(p, q, c, var):
    rp, rq = dict(p.items()), dict(q.items())
    pyth = COS1 * COS1 + SIN1 * SIN1 if var == PHI1 else COS2 * COS2 + SIN2 * SIN2
    zeros_first = {**{e: 0 for e in rq}, **rp}   # q's keys first, p's coefficients
    cases = [
        (p.scale(c), _ref_sum([(c, rp)])),
        (p.scale(0), {}),
        (-p, _ref_sum([(-1, rp)])),
        (differentiate(p, var), _ref_differentiate(rp, var)),
    ]
    # every sum also keeps the reference's key order, which float sums read
    ordered = [
        (p + q, _ref_sum([(1, rp), (1, rq)])),
        (p - q, _ref_sum([(1, rp), (-1, rq)])),
        (mul(p, q), _ref_mul(rp, rq)),
        (linear_combine([(c, p), (F(0), q), (F(-1, 3), q)]),
         _ref_sum([(c, rp), (F(-1, 3), rq)])),
        (TrigPoly(zeros_first), _ref_sum([(1, zeros_first)])),
    ]
    for r, want in cases + ordered:
        assert _canonical(r) and dict(r.items()) == want
    for r, want in ordered:
        assert list(dict(r.items())) == list(want)
    assert normal_form(p) == _ref_normal_form(rp)
    assert normal_form(mul(p, q)) == _ref_normal_form(_ref_mul(rp, rq))
    assert proportionality(p, q) == _ref_proportionality(rp, rq)
    same = mul(p, pyth).scale(c)   # c p as a function, stored over other monomials
    assert proportionality(same, p) == _ref_proportionality(dict(same.items()), rp)
    assert proportionality(same, p) == (c if not is_zero(p) else None)


@settings(max_examples=100, deadline=None)
@given(polys, polys, polys, coeffs, coeffs)
def test_sum_of_products_matches_a_fraction_reference(p, q, r, c, w):
    # the second and fifth products cancel; a zero weight or factor contributes nothing
    triples = [(1, p, q), (w, q.scale(c), r), (F(3, 7), TrigPoly.zero(), p), (0, p, r),
               (w, r, q.scale(-c)), (-2, p, ONE), (w, ONE, q), (F(-5, 6), q, p)]
    got = sum_of_products(triples)
    want = _ref_sum([(x, _ref_mul(dict(a.items()), dict(b.items()))) for x, a, b in triples])
    assert _canonical(got) and _int_keyed(got) and dict(got.items()) == want
    assert list(dict(got.items())) == list(want)
    assert got == mul(p, q) + p.scale(-2) + q.scale(w) + mul(q, p).scale(F(-5, 6))
    assert sum_of_products([(1, p, q), (1, p, ONE)]) == mul(p, q) + p
    assert sum_of_products([]) == TrigPoly.zero()


@functools.cache
def _recursive_pythagoras(i, j):
    """The table as a recursion on sin^2 = 1 - cos^2 and 1 = cos^2 + sin^2,
    one level per power of sin^2."""
    if i >= 0:
        return tuple((0, j + m, (-1) ** m * math.comb(i, m)) for m in range(i + 1))
    if j == 0:
        return ((i, 0, 1),)
    if j > 0:
        parts = ((1, _recursive_pythagoras(i, j - 1)), (-1, _recursive_pythagoras(i + 1, j - 1)))
    else:
        parts = ((1, _recursive_pythagoras(i + 1, j)), (1, _recursive_pythagoras(i, j + 1)))
    acc = {}
    for sign, terms in parts:
        for i2, j2, c in terms:
            acc[i2, j2] = acc.get((i2, j2), 0) + sign * c
    return tuple((i2, j2, c) for (i2, j2), c in acc.items() if c)


def test_pythagoras_closed_form_is_the_recursion():
    # the same triples in the same order, so every normal form keeps its key order
    for i in range(-12, 13):
        for j in range(-12, 13):
            assert _pythagoras(i, j) == _recursive_pythagoras(i, j), (i, j)


@pytest.mark.parametrize("j", [1900, 3000, 5000])
def test_normal_form_of_a_high_sine_power_over_a_secant_returns(j):
    # the recursion went one level per power of sin^2 and raised RecursionError here
    p = TrigPoly.monomial(1, (-2, 2 * j, 0, 0))
    assert not is_zero(p)
    assert len(normal_form(p)) == j + 1   # sec^2 and sin^0 .. sin^(2j - 2)
    assert is_zero(p - mul(p, COS1 * COS1 + SIN1 * SIN1))
