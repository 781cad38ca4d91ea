"""Differential operators with TrigPoly coefficients.

    DiffOp ~ dict[(k1, k2) -> TrigPoly]   meaning   sum coeff * d^k1_phi1 d^k2_phi2

Application and composition (the generalized Leibniz rule) are exact; both
read derivatives from a `_derivative` table, so each is formed once, and add
their products in one `trigpoly.sum_of_products`.

A DiffOp, like its TrigPoly coefficients, is immutable by convention: nothing
mutates `_terms` after construction.  Equality is structural (equal
coefficients at equal orders); operators are not hashable.

The ladder builder and every eigen or annihilation check apply an operator
polynomial at a sector through `apply_normal_ints`, the sector read as int
numerators over one denominator (`apply_normal_at` reads it so for a caller
holding couplings; the ladders walk their int sectors themselves): per
monomial of f it reads one memoised flat table of the normal-form images of
all the polynomial's ell-monomial coefficients applied to that monomial
(`_flat`, keyed on the polynomial object and the monomial's int key),
weights them by the ell-monomials as ints (`lpoly.weights`) in one pass
into one int dict, and subtracts the monomial's own memoised normal form
for an energy (`_monomial_image`); `operators.reset` empties both memos.

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
from typing import Iterable

from .lpoly import ZERO, IntSector, LPoly, ParamVector, sector_ints, weights
from .lpoly import pv  # noqa: F401  (re-exported)
from .trigpoly import (PHI1, PHI2, ONE, Key, TrigPoly, _new, _ratio, _reduced, coupling,
                       differentiate, is_zero, normalized, sum_of_products)


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
def _flat(poly: LPoly, key: Key) -> tuple[int, tuple[tuple[Key, int, int], ...]]:
    """The normal forms (`trigpoly.normalized`) of poly's ell-monomial
    coefficients applied to the monomial with doubled exponents key, as one
    flat table over one denominator: (den, ((out key, slot, int numerator),
    ...)), slot s the s-th monomial of poly in its stored order, the slots in
    that order and each image's terms in its stored order.  The slots share
    one table of the monomial's derivatives."""
    derivs = {(0, 0): _new({key: 1}, 1)}
    images = [normalized(sum_of_products((1, c, _derivative(derivs, *k)) for k, c in op.items()))
              for op in poly._terms.values()]
    den = math.lcm(*(img._den for img in images))
    return den, tuple((e, s, v * (den // img._den))
                      for s, img in enumerate(images) for e, v in img._terms.items())


@functools.cache
def _monomial_image(key: Key) -> TrigPoly:
    """The normal form of the monomial with doubled exponents key."""
    return normalized(_new({key: 1}, 1))


def apply_normal_at(poly: LPoly, ell, f: TrigPoly, energy=0) -> TrigPoly:
    """normalized(apply(poly.at(ell), f) - energy * f), empty exactly when that
    is the zero function, without forming poly.at(ell), a derivative of f or a
    raw result: `apply_normal_ints` at the sector read once in ints
    (`lpoly.sector_ints`)."""
    return apply_normal_ints(poly, sector_ints(ell), f, energy)


def apply_normal_ints(poly: LPoly, sector: IntSector, f: TrigPoly, energy=0) -> TrigPoly:
    """`apply_normal_at` at the sector (n0, n1, n2, q), int numerators over
    one denominator q.  Application and the normal form are both linear over
    Q, so the result is the sum over the monomials x^k of f and the
    ell-monomials m of poly of f_k l^m NF(poly_m x^k) - f_k energy NF(x^k).
    The weights l^m are `lpoly.weights`, ints over q^top, top the largest
    degree of poly.
    Each x^k is one read of its image table (`_flat`) and one int pass over
    it, skipping the slots of weight 0, then of its own image
    (`_monomial_image`) for a nonzero energy.  Terms are added into one int
    dict over the lcm of the tables' denominators, keys in first-occurrence
    order, and one gcd divides out: term for term the sum `trigpoly._sum`
    makes of one part per image."""
    # the weights l0^i l1^j l2^k of poly's monomials, ints over wd * ed
    ws, wd = weights(poly._terms, sector)
    en, ed = _ratio(energy)
    if ed != 1:
        ws = [w * ed for w in ws]
    # numerators over f._den * wd * ed * den, den the lcm of the tables' denominators so far
    acc: dict[Key, int] = {}
    den = 1
    for key, n in f._terms.items():
        d, table = _flat(poly, key)
        if den % d:
            grown = math.lcm(den, d)
            acc = {e: v * (grown // den) for e, v in acc.items()}
            den = grown
        c = n * (den // d)
        cws = [c * w for w in ws]
        for e, s, v in table:
            w = cws[s]
            if w:
                acc[e] = acc.get(e, 0) + v * w
        if en:
            c = -n * en * wd * den
            for e, v in _monomial_image(key)._terms.items():
                acc[e] = acc.get(e, 0) + v * c
    return _reduced(acc, f._den * wd * ed * den)


def apply_normal_poly(pairs: Iterable[tuple[LPoly, LPoly]]) -> LPoly:
    """The normal form of the sum of poly(ell) f(ell) over the pairs (poly, f),
    each f a polynomial in ell with TrigPoly coefficients, as one polynomial
    in ell: its coefficient of l^nu is the sum over mu + rho = nu of
    NF(poly_mu f_rho).  Each monomial of each f_rho is one read of its image
    table (`_flat`, shared with `apply_normal_at`), and every image is added
    in ints over one common denominator.  The result is empty exactly when
    the sum is the zero function for every ell in Q^3."""
    parts = []
    den = 1
    for poly, f in pairs:
        monos = list(poly._terms)
        for rho, p in f._terms.items():
            targets = [(rho[0] + i, rho[1] + j, rho[2] + k) for i, j, k in monos]
            for key, n in p._terms.items():
                d, table = _flat(poly, key)
                d *= p._den
                parts.append((targets, n, d, table))
                if den % d:
                    den = math.lcm(den, d)
    acc: dict = {}
    for targets, n, d, table in parts:
        c = n * (den // d)
        for e, s, v in table:
            out = acc.get(targets[s])
            if out is None:
                out = acc[targets[s]] = {}
            out[e] = out.get(e, 0) + v * c
    return LPoly(TrigPoly, {nu: _reduced(t, den) for nu, t in acc.items()})


def compose(x: DiffOp, y: DiffOp) -> DiffOp:
    """Exact composition x∘y via the generalized Leibniz expansion
    d^k (cy d^m f) = sum_j C(k, j) (d^j cy) d^(k-j+m) f per variable, d^j cy
    read from cy's `_derivative` table; each order's products are one
    `sum_of_products`.

    apply(compose(x, y), f) == apply(x, apply(y, f)) for every f.
    """
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


# -d1^2 + (l0^2-1/4) sec^2 phi1 + (l1^2-1/4) csc^2 phi1
PHI1_BLOCK = LPoly(DiffOp, {ZERO: DiffOp({(2, 0): TrigPoly.constant(-1)})}) \
    + _inverse_square(0, TrigPoly.monomial(1, (-2, 0, 0, 0))) \
    + _inverse_square(1, TrigPoly.monomial(1, (0, -2, 0, 0)))

# -d2^2 + tan phi2 d2 + (l2^2-1/4) csc^2 phi2
PHI2_BLOCK = LPoly(DiffOp, {ZERO: DiffOp({(0, 2): TrigPoly.constant(-1),
                                          (0, 1): TrigPoly.monomial(1, (0, 0, -1, 1))})}) \
    + _inverse_square(2, TrigPoly.monomial(1, (0, 0, 0, -2)))

# H = PHI2_BLOCK + sec^2 phi2 PHI1_BLOCK, one quadratic polynomial in ell
HAMILTONIAN = PHI2_BLOCK + LPoly(DiffOp, {ZERO: DiffOp.multiplication(_SEC2_2)}) \
    .product(PHI1_BLOCK, compose)


def build_hamiltonian(ell: ParamVector) -> DiffOp:
    """Separated two-sphere Hamiltonian at parameters (l0, l1, l2): HAMILTONIAN there."""
    return HAMILTONIAN.at(ell)

