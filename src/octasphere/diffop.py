"""Differential operators with TrigPoly coefficients.

    DiffOp ~ dict[(k1, k2) -> TrigPoly]   meaning   sum coeff * d^k1_phi1 d^k2_phi2

Application and composition (the generalized Leibniz rule) are exact; both
read derivatives from a `_derivative` table, so each is formed once.  Total
order is capped at 4, which covers every workflow here (quadratic Casimir
elements of first-order ladder operators).

A DiffOp, like its TrigPoly coefficients, is immutable by convention: nothing
mutates `_terms` after construction.  Equality is structural (equal
coefficients at equal orders); operators are not hashable.

The ladder builder and every eigen or annihilation check apply an operator
polynomial at a sector through `apply_normal_at`, which adds memoised
normal-form images of f's monomials (`_image`, `_monomial_image`, keyed on
the polynomial object and int tuples; `operators.reset` empties them) into
one int accumulation.

The Hamiltonian family is defined once, as the quadratic polynomial in the
couplings `HAMILTONIAN` (an LPoly), assembled from its separated blocks
H = PHI2_BLOCK + sec^2 phi2 PHI1_BLOCK, each inverse-square term written by
one coupling rule; `build_hamiltonian(ell)` and `PHI1_BLOCK.at(ell)` are
values of these polynomials, assembled with `linear_combine` and
`DiffOp._raw`, so no term is re-validated per sector.  Both tables live here
only: every module reads `diffop.HAMILTONIAN` and `diffop.PHI1_BLOCK` at the
call, never a copy.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .lpoly import ZERO, LPoly, Mono, ParamVector, coupling, pv  # noqa: F401  (pv re-exported)
from .trigpoly import (PHI1, PHI2, ONE, Key, TrigPoly, _new, _ratio, _reduced, differentiate,
                       is_zero, normalized, sum_of_products)

MAX_ORDER = 4


class DiffOp:
    """Finite sum of (TrigPoly coefficient) * (mixed partial derivative).

    Immutable by convention; equal operators (equal coefficients at equal
    orders, in any insertion order) are `==`.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[tuple[int, int], TrigPoly] | None = None):
        clean: dict[tuple[int, int], TrigPoly] = {}
        for (k1, k2), c in (terms or {}).items():
            if k1 < 0 or k2 < 0:
                raise ValueError("negative derivative order")
            if k1 + k2 > MAX_ORDER:
                raise ValueError(f"order {k1 + k2} exceeds cap {MAX_ORDER}")
            if not isinstance(c, TrigPoly):
                c = TrigPoly.constant(c)
            if c:
                clean[(k1, k2)] = c
        self._terms = clean

    @staticmethod
    def _raw(terms: dict[tuple[int, int], TrigPoly]) -> "DiffOp":
        """DiffOp of terms with valid orders and TrigPoly coefficients, as
        built internally: drops zero coefficients and checks nothing else."""
        op = object.__new__(DiffOp)
        op._terms = {k: v for k, v in terms.items() if v}
        return op

    @staticmethod
    def zero() -> "DiffOp":
        return DiffOp()

    @staticmethod
    def identity() -> "DiffOp":
        return DiffOp({(0, 0): ONE})

    @staticmethod
    def multiplication(p: TrigPoly) -> "DiffOp":
        return DiffOp({(0, 0): p})

    def items(self):
        return self._terms.items()

    def coeff(self, order: tuple[int, int]) -> TrigPoly:
        return self._terms.get(order, TrigPoly.zero())

    def order(self) -> int:
        return max(map(sum, self._terms), default=0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self):
        if not self._terms:
            return "DiffOp(0)"
        bits = [f"d1^{k1} d2^{k2}: {c!r}" for (k1, k2), c in sorted(self._terms.items())]
        return "DiffOp{" + "; ".join(bits) + "}"

    def __add__(self, other: "DiffOp") -> "DiffOp":
        acc = dict(self._terms)
        for k, c in other._terms.items():
            acc[k] = acc[k] + c if k in acc else c
        return DiffOp._raw(acc)

    def __neg__(self) -> "DiffOp":
        return DiffOp._raw({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + (-other)

    def scale(self, c) -> "DiffOp":
        c = coupling(c)
        if c == 0:
            return DiffOp()
        return DiffOp._raw({k: v.scale(c) for k, v in self._terms.items()})


def _derivative(derivs: dict[tuple[int, int], TrigPoly], k1: int, k2: int) -> TrigPoly:
    """d1^k1 d2^k2 f, for f = derivs[0, 0]: read from derivs, or formed from
    d1^k1 d2^(k2-1) f (from d1^(k1-1) f when k2 = 0) and stored there."""
    g = derivs.get((k1, k2))
    if g is None:
        g = differentiate(_derivative(derivs, k1, k2 - 1), PHI2) if k2 \
            else differentiate(_derivative(derivs, k1 - 1, 0), PHI1)
        derivs[k1, k2] = g
    return g


def apply(op: DiffOp, f: TrigPoly) -> TrigPoly:
    """Exact application of op to f: one `sum_of_products` of the coefficients
    with the derivatives d1^k1 d2^k2 f, each distinct derivative formed once."""
    derivs = {(0, 0): f}
    return sum_of_products((1, c, _derivative(derivs, *k)) for k, c in op.items())


@functools.cache
def _image(poly: LPoly, mono: Mono, key: Key) -> TrigPoly:
    """The normal form of poly's l^mono coefficient applied to the monomial with
    doubled exponents key (`trigpoly.normalized`)."""
    return normalized(apply(poly.coeff(mono), _new({key: 1}, 1)))


@functools.cache
def _monomial_image(key: Key) -> TrigPoly:
    """The normal form of the monomial with doubled exponents key."""
    return normalized(_new({key: 1}, 1))


def apply_normal_at(poly: LPoly, ell, f: TrigPoly, energy=0) -> TrigPoly:
    """normalized(apply(poly.at(ell), f) - energy * f), empty exactly when that
    is the zero function, without forming poly.at(ell), a derivative of f or a
    raw result.  Application and the normal form are both linear over Q, so
    the result is the sum over the monomials x^k of f and the ell-monomials m
    of poly of f_k l^m NF(poly_m x^k) - f_k energy NF(x^k); each image is
    memoised (`_image`, `_monomial_image`), and all are added into one int
    dict over the lcm of their denominators with one gcd."""
    en, ed = _ratio(energy)
    weights = [(m, *_ratio(w)) for m, w, _ in poly.weighted(ell) if w]
    parts = []
    for key, n in f._terms.items():
        for m, wn, wd in weights:
            img = _image(poly, m, key)
            if img._terms:
                parts.append((n * wn, wd * img._den, img._terms))
        if en:
            img = _monomial_image(key)
            parts.append((-n * en, ed * img._den, img._terms))
    den = math.lcm(*{d for _, d, _ in parts})
    acc: dict[Key, int] = {}
    for c, d, terms in parts:
        c *= den // d
        for e, v in terms.items():
            v *= c
            v0 = acc.get(e)
            acc[e] = v if v0 is None else v0 + v
    return _reduced({e: v for e, v in acc.items() if v}, den * f._den)


def compose(x: DiffOp, y: DiffOp) -> DiffOp:
    """Exact composition x∘y via the generalized Leibniz expansion
    d^k (cy d^m f) = sum_j C(k, j) (d^j cy) d^(k-j+m) f per variable, d^j cy
    read from cy's `_derivative` table; each order's products are one
    `sum_of_products`.

    apply(compose(x, y), f) == apply(x, apply(y, f)) for every f.
    """
    if x.order() + y.order() > MAX_ORDER:
        raise ValueError("composition exceeds order cap")
    tables = {m: {(0, 0): cy} for m, cy in y.items()}
    acc: dict[tuple[int, int], list] = {}
    for (k1, k2), cx in x.items():
        for (m1, m2), derivs in tables.items():
            for j1 in range(k1 + 1):
                for j2 in range(k2 + 1):
                    acc.setdefault((k1 - j1 + m1, k2 - j2 + m2), []).append(
                        (math.comb(k1, j1) * math.comb(k2, j2), cx,
                         _derivative(derivs, j1, j2)))
    return DiffOp._raw({k: sum_of_products(t) for k, t in acc.items()})


def is_zero_op(op: DiffOp) -> bool:
    """True iff every coefficient is the zero function."""
    return all(is_zero(c) for _, c in op.items())


# -- the Hamiltonian family ---------------------------------------------------

_SEC2_2 = TrigPoly.monomial(1, (0, 0, -2, 0))  # sec^2 phi2


def _inverse_square(axis: int, f: TrigPoly) -> LPoly:
    """The coupling (l_axis^2 - 1/4) f of an inverse-square potential term."""
    square = tuple(2 if i == axis else 0 for i in range(3))
    return LPoly(DiffOp, {square: DiffOp.multiplication(f),
                          ZERO: DiffOp.multiplication(f.scale(Fraction(-1, 4)))})


def _potential_last(op: DiffOp) -> DiffOp:
    """op with its derivative terms first, in their order, and its potential last."""
    return DiffOp._raw(dict(sorted(op.items(), key=lambda t: t[0] == (0, 0))))


# -d1^2 + (l0^2-1/4) sec^2 phi1 + (l1^2-1/4) csc^2 phi1
PHI1_BLOCK = LPoly(DiffOp, {ZERO: DiffOp({(2, 0): TrigPoly.constant(-1)})}) \
    + _inverse_square(0, TrigPoly.monomial(1, (-2, 0, 0, 0))) \
    + _inverse_square(1, TrigPoly.monomial(1, (0, -2, 0, 0)))

# -d2^2 + tan phi2 d2 + (l2^2-1/4) csc^2 phi2
PHI2_BLOCK = LPoly(DiffOp, {ZERO: DiffOp({(0, 2): TrigPoly.constant(-1),
                                          (0, 1): TrigPoly.monomial(1, (0, 0, -1, 1))})}) \
    + _inverse_square(2, TrigPoly.monomial(1, (0, 0, 0, -2)))

# H = PHI2_BLOCK + sec^2 phi2 PHI1_BLOCK, one quadratic polynomial in ell.  Its
# constant coefficient lists the derivative terms before the potential, and the
# value at a sector keeps that term order (application sums terms in stored order).
HAMILTONIAN = (PHI2_BLOCK + LPoly(DiffOp, {ZERO: DiffOp.multiplication(_SEC2_2)})
               .product(PHI1_BLOCK, compose)).map(_potential_last)


def build_hamiltonian(ell: ParamVector) -> DiffOp:
    """Separated two-sphere Hamiltonian at parameters (l0, l1, l2): HAMILTONIAN there."""
    return HAMILTONIAN.at(ell)

