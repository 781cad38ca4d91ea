"""Polynomials in the couplings ell = (l0, l1, l2) with operator or function coefficients.

    LPoly ~ dict[(i, j, k) -> coeff]   meaning   sum coeff * l0^i l1^j l2^k

The coefficients are DiffOps or TrigPolys (`kind`).  Each ladder generator and
the Hamiltonian is one such polynomial (`operators.graded`, `diffop.HAMILTONIAN`),
and its operator on a sector is its value there (`at`).  The ladders are affine
in ell, so every product, commutator and potential identity built from them is
a polynomial in ell of low degree.  Distinct monomials in ell are linearly
independent functions of ell, so such an identity holds for every ell in Q^3
exactly when each of its coefficients is the zero function, and a constant of
the identity (a structure constant, the Riccati lambda) is read off
coefficient by coefficient.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Callable, Sequence

from .trigpoly import TrigPoly, _ratio, coupling, linear_combine

Mono = tuple[int, int, int]
Row = tuple[Fraction, Fraction, Fraction, Fraction]
ParamVector = tuple[Fraction, Fraction, Fraction]
IntSector = tuple[int, int, int, int]   # (n0, n1, n2, d): l_i = n_i / d, d > 0

ZERO: Mono = (0, 0, 0)
# the monomials of an affine row (c0, c_l0, c_l1, c_l2)
UNITS: tuple[Mono, ...] = (ZERO, (1, 0, 0), (0, 1, 0), (0, 0, 1))


def pv(*ell) -> ParamVector:
    """The sector (l0, l1, l2) given as three arguments, read by `as_sector`."""
    return as_sector(ell)


def as_sector(ell) -> ParamVector:
    """The sector ell = (l0, l1, l2), one argument, as Fractions, Fraction
    couplings unchanged; ValueError for anything but a sequence of three couplings."""
    try:
        l0, l1, l2 = ell
    except (TypeError, ValueError):
        raise ValueError(f"a sector is three couplings (l0, l1, l2), got {ell!r}") from None
    if type(l0) is Fraction and type(l1) is Fraction and type(l2) is Fraction:
        return (l0, l1, l2)
    return (coupling(l0), coupling(l1), coupling(l2))


def sector_ints(ell) -> IntSector:
    """The sector ell = (l0, l1, l2) as int numerators over one denominator,
    (n0, n1, n2, d) with d > 0, each coupling read once (an int is its own
    numerator); ValueError as for `as_sector`."""
    try:
        l0, l1, l2 = ell
    except (TypeError, ValueError):
        raise ValueError(f"a sector is three couplings (l0, l1, l2), got {ell!r}") from None
    (n0, d0), (n1, d1), (n2, d2) = _ratio(l0), _ratio(l1), _ratio(l2)
    d = math.lcm(d0, d1, d2)
    return n0 * (d // d0), n1 * (d // d1), n2 * (d // d2), d


def sector_params(s: IntSector) -> ParamVector:
    """The sector (n0, n1, n2, d) as the Fraction couplings of a record."""
    n0, n1, n2, d = s
    return Fraction(n0, d), Fraction(n1, d), Fraction(n2, d)


def quantum_number(x, name: str) -> int:
    """A quantum number (m, n, q, a degree): an int >= 0 that is not a bool; else ValueError."""
    if isinstance(x, bool) or not isinstance(x, int) or x < 0:
        raise ValueError(f"{name} must be an int >= 0, got {x!r}")
    return x


def row_at(row: Row, ell: Sequence[Fraction]) -> Fraction:
    """The affine function c0 + c_l0 l0 + c_l1 l1 + c_l2 l2 at a sector.

    The sum is formed in ints over a common denominator and normalised once.
    """
    num, den = row[0].numerator, row[0].denominator
    for c, x in zip(row[1:], as_sector(ell)):
        d = c.denominator * x.denominator
        num, den = num * d + c.numerator * x.numerator * den, den * d
    return Fraction(num, den)


class RowTable(tuple):
    """A tuple of affine rows that hashes its Fractions once, on first use, as
    `operators.Family` does: every memo keyed on a table (PHI0_ROWS, a
    generated spectral or Jacobi-parameter table) hashes it on each call.
    It equals, and hashes as, the plain tuple of the same rows."""

    @functools.cached_property
    def _hash(self) -> int:
        return tuple.__hash__(self)

    def __hash__(self) -> int:
        return self._hash


@functools.cache
def row_table(rows: tuple[Row, ...]) -> RowTable:
    """The one RowTable of these rows: equal tables built apart (the Jacobi
    parameters or spectral rows of two levels) are one object, so a memo
    keyed on a table finds it by identity, with no Fraction compared."""
    return RowTable(rows)


@functools.cache
def int_rows(rows: tuple[Row, ...]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The rows as int numerators over their one common denominator."""
    den = math.lcm(*(c.denominator for row in rows for c in row))
    return tuple(tuple(c.numerator * (den // c.denominator) for c in row) for row in rows), den


def rows_at(rows: tuple[Row, ...], s: IntSector) -> tuple[list[int], int]:
    """The values of the rows at the sector s = (n0, n1, n2, d), as int
    numerators over one denominator: each row one int dot product
    (`int_rows`), no Fraction formed; `row_at` is the Fraction reference."""
    ints, den = int_rows(rows)
    n0, n1, n2, d = s
    return [a * d + b * n0 + c * n1 + e * n2 for a, b, c, e in ints], den * d


class LPoly:
    """Finite sum of coefficient * l0^i l1^j l2^k, coefficients of one kind.

    Immutable by convention: nothing mutates `_terms` after construction.  It
    hashes and compares by identity, so a memo keyed on a polynomial keys on
    the one object built from its table row.
    """

    __slots__ = ("kind", "_terms")

    def __init__(self, kind: type, terms: dict | None = None):
        terms = terms or {}
        for m in terms:
            if type(m) is not tuple or len(m) != 3 \
                    or any(type(k) is not int or k < 0 for k in m):
                raise ValueError(f"a monomial is three non-negative int exponents, got {m!r}")
        self.kind = kind
        self._terms = {m: c for m, c in terms.items() if c}

    @staticmethod
    def affine(row: Row, coeff) -> "LPoly":
        """(c0 + c_l0 l0 + c_l1 l1 + c_l2 l2) * coeff."""
        return LPoly(type(coeff), {m: coeff.scale(c) for m, c in zip(UNITS, row)})

    def items(self):
        """(monomial, coefficient) pairs in increasing monomial order."""
        return sorted(self._terms.items())

    def coeff(self, m: Mono):
        return self._terms.get(m, self.kind.zero())

    def __add__(self, other: "LPoly") -> "LPoly":
        acc = dict(self._terms)
        for m, c in other._terms.items():
            acc[m] = acc[m] + c if m in acc else c
        return LPoly(self.kind, acc)

    def __neg__(self) -> "LPoly":
        return LPoly(self.kind, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "LPoly") -> "LPoly":
        return self + (-other)

    def scale(self, c) -> "LPoly":
        return LPoly(self.kind, {m: v.scale(c) for m, v in self._terms.items()})

    def map(self, fn: Callable, kind: type | None = None) -> "LPoly":
        """Apply a map that is linear over the rationals to every coefficient."""
        return LPoly(kind or self.kind, {m: fn(c) for m, c in self._terms.items()})

    def product(self, other: "LPoly", mul: Callable) -> "LPoly":
        """The product with coefficients multiplied by `mul` (compose, mul, apply).

        The result has the kind of `other`.
        """
        acc: dict = {}
        for (a0, a1, a2), x in self._terms.items():
            for (b0, b1, b2), y in other._terms.items():
                m, v = (a0 + b0, a1 + b1, a2 + b2), mul(x, y)
                acc[m] = acc[m] + v if m in acc else v
        return LPoly(other.kind, acc)

    def weighted(self, ell: Sequence[Fraction]):
        """(monomial, l0^i l1^j l2^k at ell, coefficient) per term in stored order;
        int weights at an integer sector."""
        (n0, d0), (n1, d1), (n2, d2) = ((x.numerator, x.denominator) for x in as_sector(ell))
        for m, c in self._terms.items():
            i, j, k = m
            num, den = n0 ** i * n1 ** j * n2 ** k, d0 ** i * d1 ** j * d2 ** k
            yield m, num if den == 1 else Fraction(num, den), c

    def at(self, ell: Sequence[Fraction]):
        """The coefficient-kind value at one sector, in the stored term order: one
        `linear_combine` of the `weighted` terms per derivative order (a lone term
        of weight 1 as it is)."""
        pairs = ((w, c) for _, w, c in self.weighted(ell))
        if self.kind is TrigPoly:
            return linear_combine(pairs)
        orders: dict = {}
        for w, op in pairs:
            for order, p in op.items():
                orders.setdefault(order, []).append((w, p))
        return self.kind._raw({o: ps[0][1] if len(ps) == 1 and ps[0][0] == 1 else linear_combine(ps)
                               for o, ps in orders.items()})

    def reflect(self, axis: int) -> "LPoly":
        """The polynomial at ell with l_axis -> -l_axis."""
        if axis not in (0, 1, 2):
            raise ValueError("axis must be 0, 1 or 2")
        return LPoly(self.kind, {m: -c if m[axis] % 2 else c for m, c in self._terms.items()})

    def shift(self, delta: Sequence[int]) -> "LPoly":
        """The polynomial at ell + delta: l^k -> sum_j C(k, j) delta^(k-j) l^j per coupling.

        A zero shift returns the polynomial itself; integral components weigh in ints."""
        delta = as_sector(delta)
        if not any(delta):
            return self
        delta = [d.numerator if d.denominator == 1 else d for d in delta]
        acc: dict = {}
        for m, c in self._terms.items():
            for j in itertools.product(*(range(k + 1) for k in m)):
                w = math.prod(math.comb(k, i) * d ** (k - i)
                              for k, i, d in zip(m, j, delta))
                if w:
                    v = c.scale(w)
                    acc[j] = acc[j] + v if j in acc else v
        return LPoly(self.kind, acc)
