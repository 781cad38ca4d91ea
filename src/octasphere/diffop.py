"""Differential operators with TrigPoly coefficients.

    DiffOp ~ dict[(k1, k2) -> TrigPoly]   meaning   sum coeff * d^k1_phi1 d^k2_phi2

Composition uses the generalized Leibniz rule and is exact.  Total order is
capped at 4, which covers every workflow here (quadratic Casimir elements of
first-order ladder operators).

A DiffOp, like its TrigPoly coefficients, is immutable by convention: nothing
mutates `_terms` after construction.  Equality is structural (equal
coefficients at equal orders); operators are not hashable.

The Hamiltonian family is defined once, as the quadratic polynomial in the
couplings `HAMILTONIAN` (an LPoly), assembled from its separated blocks
H = PHI2_BLOCK + sec^2 phi2 PHI1_BLOCK, each inverse-square term written by
one coupling rule; `build_hamiltonian(ell)` and `build_phi1_block` are values
of these polynomials, assembled with `linear_combine` and `DiffOp._raw`, so no
term is re-validated per sector.  Both tables live here only: every module
reads `diffop.HAMILTONIAN` and `diffop.PHI1_BLOCK` at the call, never a copy.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .lpoly import ZERO, LPoly, ParamVector, coupling, pv  # noqa: F401  (pv re-exported)
from .trigpoly import PHI1, PHI2, ONE, TrigPoly, differentiate, is_zero, sum_of_products

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
                prev = clean.get((k1, k2))
                clean[(k1, k2)] = prev + c if prev is not None else c
        self._terms = {k: v for k, v in clean.items() if v}

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
        return max((k1 + k2 for (k1, k2) in self._terms), default=0)

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


def apply_at(poly: LPoly, ell, f: TrigPoly, derivs: dict | None = None, energy=0) -> TrigPoly:
    """apply(poly.at(ell), f) - energy * f, without forming poly.at(ell): one
    `sum_of_products` whose weights are the l0^i l1^j l2^k (`LPoly.weighted`).
    derivs, f's table {(k1, k2): d1^k1 d2^k2 f}, is read and filled, so several
    operators applied to one f form each derivative once; a table whose (0, 0)
    entry is not f itself raises ValueError."""
    if derivs is None:
        derivs = {(0, 0): f}
    elif derivs.get((0, 0)) is not f:
        raise ValueError("derivs is not the derivative table of f")
    return sum_of_products([(w, c, _derivative(derivs, *k)) for w, op in poly.weighted(ell)
                            for k, c in op.items()] + [(-energy, ONE, f)])


def compose(x: DiffOp, y: DiffOp) -> DiffOp:
    """Exact composition x∘y via the generalized Leibniz expansion.

    apply(compose(x, y), f) == apply(x, apply(y, f)) for every f.
    """
    acc: dict[tuple[int, int], TrigPoly] = {}
    for (k1, k2), cx in x.items():
        for (m1, m2), cy in y.items():
            if k1 + m1 + k2 + m2 > MAX_ORDER:
                raise ValueError("composition exceeds order cap")
            # d^k (cy * d^m f) = sum_j C(k, j) (d^j cy) d^(k-j+m) f, per variable
            for j1 in range(k1 + 1):
                dj = cy
                for _ in range(j1):
                    dj = differentiate(dj, PHI1)
                if not dj:
                    continue
                b1 = math.comb(k1, j1)
                for j2 in range(k2 + 1):
                    dj2 = dj
                    for _ in range(j2):
                        dj2 = differentiate(dj2, PHI2)
                    if not dj2:
                        continue
                    b = b1 * math.comb(k2, j2)
                    key = (k1 - j1 + m1, k2 - j2 + m2)
                    add = cx * dj2 if b == 1 else cx * dj2.scale(b)
                    acc[key] = acc[key] + add if key in acc else add
    return DiffOp._raw(acc)


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


def build_phi1_block(l0, l1) -> DiffOp:
    """One-dimensional block -d1^2 + (l0^2-1/4) sec^2 phi1 + (l1^2-1/4) csc^2 phi1."""
    return PHI1_BLOCK.at((l0, l1, 0))
