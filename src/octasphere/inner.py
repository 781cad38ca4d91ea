"""Inner products on the octant with the sphere measure cos(phi2) dphi1 dphi2.

A monomial integral is the product of two one-angle Beta values (evaluated
through log-gamma).  Each is memoised on the doubled-int exponent pair that
TrigPoly stores.  An inner product builds, per angle, one row of Beta values
for each distinct exponent pair of f over the distinct pairs of g, so it
looks up each Beta pair once, and then adds the term pairs one by one in the
canonical order, the same float as the sum of `mono_inner` over the term
pairs.  States of the representation space live in the direct sum over sectors,
so records at different parameter points are orthogonal by construction.  The
module also provides the float-side oracles used against the symbolic engine:
tanh-sinh quadrature for the Beta values and a five-point finite-difference
application of operators.  The quadrature is summed afresh on every call, from
memoised per-exponent columns of its integrand.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .diffop import DiffOp, apply
from .hierarchy import StateRecord
from .lpoly import as_sector
from .operators import build_first_order
from .trigpoly import TrigPoly, TrigTerm, eval_numeric


@functools.cache
def _beta(s: int, t: int) -> float:
    """int_0^{pi/2} cos^(s/2) sin^(t/2), exponents doubled as TrigPoly stores them.

    It is Beta((s+2)/4, (t+2)/4) / 2; the arguments are exact dyadic floats, so
    the memoised value is the one the half-integer exponents give.
    """
    _check_integrable(s, t)
    x, y = (s + 2) / 4, (t + 2) / 4
    return 0.5 * math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def _check_integrable(s: int, t: int) -> None:
    # cos^(s/2) sin^(t/2) is integrable on (0, pi/2) iff both powers exceed -1
    if s <= -2 or t <= -2:
        raise ValueError("non-integrable monomial pair")


def _doubled(x: Fraction) -> int:
    """2x for a half-integer x, in ints."""
    return x.numerator * 2 // x.denominator


def _pair_key(t1: TrigTerm, t2: TrigTerm) -> tuple[int, int, int, int]:
    """Doubled exponents of t1 * t2 times the measure cos(phi2)."""
    a, b, c, d = (_doubled(x) + _doubled(y) for x, y in zip(t1.exps, t2.exps))
    return a, b, c + 2, d


def _float_coeff(t1: TrigTerm, t2: TrigTerm) -> float:
    """The coefficient of t1 * t2 as a float; ValueError beyond the float range."""
    try:
        return float(t1.coeff * t2.coeff)
    except OverflowError:
        raise ValueError("a coefficient overflows a float") from None


def _finite(x: float) -> float:
    """x, or ValueError when an inner product is beyond the float range."""
    if not math.isfinite(x):
        raise ValueError("the inner product overflows a float")
    return x


def mono_inner(t1: TrigTerm, t2: TrigTerm) -> float:
    """<t1, t2> with measure cos(phi2); relative error ~1e-12.  ValueError
    beyond the float range."""
    a, b, c, d = _pair_key(t1, t2)
    return _finite(_float_coeff(t1, t2) * _beta(a, b) * _beta(c, d))


_TS_STEP, _TS_RANGE = 1 / 20, 4.5  # tanh-sinh nodes t = k * step, |t| <= range


@functools.cache
def _tanh_sinh_nodes() -> list[tuple[float, float, float]]:
    """(weight, sin x, cos x) at x = pi/4 (1 + tanh(pi/2 sinh t)) (Takahasi & Mori 1974).

    x0 = x and x1 = pi/2 - x are formed directly, so sin x = sin x0 and cos x =
    sin x1 stay accurate at the singular endpoints; dx/dt = 2 x0 x1 cosh t.
    """
    n, nodes = round(_TS_RANGE / _TS_STEP), []
    for t in (k * _TS_STEP for k in range(-n, n + 1)):
        u = math.pi / 2 * math.sinh(t)
        x0, x1 = math.pi / 2 / (1 + math.exp(-2 * u)), math.pi / 2 / (1 + math.exp(2 * u))
        if x0 > 0 and x1 > 0:  # drop a node whose endpoint distance underflows
            nodes.append((2 * _TS_STEP * x0 * x1 * math.cosh(t), math.sin(x0), math.sin(x1)))
    return nodes


@functools.cache
def _cos_column(s: int) -> tuple[float, ...]:
    """w * cos^(s/2) x over the tanh-sinh nodes."""
    return tuple(w * c ** (s / 2) for w, _, c in _tanh_sinh_nodes())


@functools.cache
def _sin_column(t: int) -> tuple[float, ...]:
    """sin^(t/2) x over the tanh-sinh nodes."""
    return tuple(si ** (t / 2) for _, si, _ in _tanh_sinh_nodes())


def _tanh_sinh(s: int, t: int) -> float:
    """_beta(s, t) by quadrature, with neither _beta nor the gamma function:
    the exactly rounded sum of w * cos^(s/2) * sin^(t/2) over the nodes, its
    two factors read from memoised columns (the same floats, multiplied in
    the same order)."""
    return math.fsum(map(operator.mul, _cos_column(s), _sin_column(t)))


def mono_inner_quadrature(t1: TrigTerm, t2: TrigTerm) -> float:
    """Same integral by tanh-sinh quadrature (independent float oracle)."""
    a, b, c, d = _pair_key(t1, t2)
    _check_integrable(a, b)
    _check_integrable(c, d)
    return _finite(_float_coeff(t1, t2) * _tanh_sinh(a, b) * _tanh_sinh(c, d))


def inner(f: TrigPoly, g: TrigPoly) -> float:
    """Bilinear extension of mono_inner, summed over the terms in canonical order.

    Reads the stored int numerators and doubled exponents: n1 * n2 / (den_f *
    den_g) is correctly rounded, so each term equals mono_inner's float of the
    Fraction product.  The Beta values come in rows: for each distinct phi1
    pair of f one row over the distinct phi1 pairs of g, likewise for phi2
    with the measure's cos(phi2), so one call looks up each Beta pair once.
    The terms are added one by one with `+=`, sorted f terms outside sorted g
    terms, as the sum of mono_inner over the term pairs.  ValueError when a
    coefficient product or the total is beyond the float range.
    """
    # distinct phi1 and phi2 pairs of g, and each g term's index into them
    g1: dict[tuple[int, int], int] = {}
    g2: dict[tuple[int, int], int] = {}
    g_index = [(n2, g1.setdefault((a, b), len(g1)), g2.setdefault((c, d), len(g2)))
               for (a, b, c, d), n2 in sorted(g._terms.items())]
    rows2: dict[tuple[int, int], list[float]] = {}
    pair1 = None
    total = 0.0
    den = f._den * g._den
    try:
        for (a, b, c, d), n1 in sorted(f._terms.items()):
            if (a, b) != pair1:  # sorted, so the terms of one phi1 pair are adjacent
                pair1 = a, b
                row1 = [_beta(a + s, b + t) for s, t in g1]
            row2 = rows2.get((c, d))
            if row2 is None:
                # the measure adds 2 to the doubled cos(phi2) power
                row2 = rows2[c, d] = [_beta(c + 2 + s, d + t) for s, t in g2]
            for n2, i, j in g_index:
                total += n1 * n2 / den * row1[i] * row2[j]
    except OverflowError:
        raise ValueError("a coefficient overflows a float") from None
    return _finite(total)


def norm(f: TrigPoly) -> float:
    return math.sqrt(inner(f, f))


def state_inner(s1: StateRecord, s2: StateRecord) -> float:
    """Inner product on the direct sum over sectors: cross-sector states are
    orthogonal by construction."""
    if tuple(s1.params) != tuple(s2.params):
        return 0.0
    return inner(s1.wavefunction, s2.wavefunction)


@dataclass
class GramReport:
    states: list
    matrix: list[list[float]]
    rank: int
    max_offdiag_normalized: float
    threshold: float

    def to_obj(self) -> dict:
        return {"rank": self.rank,
                "size": len(self.states),
                "max_offdiag_normalized": self.max_offdiag_normalized,
                "threshold": self.threshold,
                "matrix": [list(row) for row in self.matrix]}


def _pivoted_rank(mat: list[list[float]], threshold: float) -> int:
    """Rank of a symmetric PSD matrix by pivoted Cholesky with a diagonal cutoff:
    pop the largest remaining diagonal pivot and keep its Schur complement."""
    a = [list(row) for row in mat]
    rank = 0
    while a:
        p = max(range(len(a)), key=lambda i: a[i][i])
        if a[p][p] <= threshold:
            break
        top = a.pop(p)
        piv = top.pop(p)
        for row in a:
            v = row.pop(p) / piv
            if v != 0.0:  # x - 0.0 * y == x for a finite pivot row
                row[:] = [x - v * y for x, y in zip(row, top)]
        rank += 1
    return rank


def gram(states) -> GramReport:
    """Pairwise inner products of StateRecords, or of bare TrigPolys; ValueError
    for a list that mixes the two.  Records at different sectors are orthogonal
    by construction (`state_inner`), so only the pairs within one sector are
    integrated and searched for the largest normalized off-diagonal entry; the
    other entries are 0.0."""
    records = {isinstance(s, StateRecord) for s in states}
    if len(records) > 1:
        raise ValueError("gram takes StateRecords or bare TrigPolys, not a mix of both")
    n = len(states)
    if records == {True}:
        sectors: dict[tuple, list[int]] = {}
        for i, s in enumerate(states):
            sectors.setdefault(tuple(s.params), []).append(i)
        blocks = list(sectors.values())
        polys = [s.wavefunction for s in states]
    else:
        blocks, polys = [list(range(n))], states
    pairs = [(i, j) for block in blocks for k, i in enumerate(block) for j in block[k:]]
    mat = [[0.0] * n for _ in range(n)]
    for i, j in pairs:
        mat[i][j] = mat[j][i] = inner(polys[i], polys[j])
    diag = [mat[i][i] for i in range(n)]
    threshold = 1e-9 * max(diag, default=0.0)
    rank = _pivoted_rank(mat, threshold)
    off = 0.0
    for i, j in pairs:
        if i != j:
            denom = math.sqrt(abs(diag[i] * diag[j])) or 1.0
            off = max(off, abs(mat[i][j]) / denom)
    return GramReport(list(states), mat, rank, off, threshold)


def _admissible(f: TrigPoly) -> bool:
    """Every exponent of f is at least 1/2: every doubled stored one at least 1."""
    return all(k >= 1 for key in f._terms for k in key)


def adjoint_residual(x_name: str, ell, f: TrigPoly, g: TrigPoly) -> float:
    """|<X- f, g> - <f, X+ g>| with the sector pairing implied by the shift,
    X± the table formulas at ell (`build_first_order`).

    f lives on sector ell, g on the shifted sector; both must vanish at the
    octant boundary (every exponent >= 1/2), so the integration-by-parts
    boundary terms drop.
    """
    ell = as_sector(ell)
    xm = build_first_order(x_name, "-", ell)
    xp = build_first_order(x_name, "+", ell)
    if not f or not g:
        return 0.0
    if not (_admissible(f) and _admissible(g)):
        raise ValueError("inadmissible states for the hermiticity pairing")
    return abs(inner(apply(xm, f), g) - inner(f, apply(xp, g)))


FD_STEP = 1e-4   # the finite-difference step h, in radians

_STENCILS = {1: ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0)),               # / 12h
             2: ((-2, -1.0), (-1, 16.0), (0, -30.0), (1, 16.0), (2, -1.0))}  # / 12h^2


def _fd(fun, x: float, y: float, k1: int, k2: int, h: float) -> float:
    """d1^k1 d2^k2 fun at (x, y), the phi1 stencil outside the phi2 one; each
    stencil is summed exactly rounded (`math.fsum`), so the value does not
    depend on how the Python version sums floats."""
    if k1 == 0 and k2 == 0:
        return fun(x, y)
    if k1 > 2 or k2 > 2:
        raise ValueError("finite-difference oracle supports order <= 2 per variable")
    # step along phi1 while k1 > 0, then along phi2
    k, (dx, dy), rest = (k1, (h, 0.0), (0, k2)) if k1 else (k2, (0.0, h), (0, 0))
    return math.fsum(w * _fd(fun, x + o * dx, y + o * dy, *rest, h)
                     for o, w in _STENCILS[k]) / (12 * h if k == 1 else 12 * h * h)


def numeric_oracle_check(op: DiffOp, f: TrigPoly, points) -> float:
    """Max relative deviation of the exact apply(op, f) against a five-point
    finite-difference application of op to f (step FD_STEP) at the given
    interior points."""
    sym = apply(op, f)
    worst = 0.0
    for (x, y) in points:
        ref = 0.0
        for (k1, k2), coeff in op.items():
            ref += eval_numeric(coeff, x, y) * _fd(lambda u, v: eval_numeric(f, u, v),
                                                   x, y, k1, k2, FD_STEP)
        val = eval_numeric(sym, x, y)
        scale = max(abs(val), abs(ref), 1e-9)
        worst = max(worst, abs(val - ref) / scale)
    return worst
