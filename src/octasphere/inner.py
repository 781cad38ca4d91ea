"""Inner products on the octant with the sphere measure cos(phi2) dphi1 dphi2.

A monomial integral is the product of two one-angle Beta values (evaluated
through log-gamma).  Each is memoised on the doubled-int exponent pair that
TrigPoly stores, so an inner product looks up one value per angle and term
pair.  States of the representation space live in the direct sum over sectors,
so records at different parameter points are orthogonal by construction.  The
module also provides the float-side oracles used against the symbolic engine:
adaptive quadrature for the Beta values and a five-point finite-difference
application of operators.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .diffop import DiffOp, apply
from .hierarchy import StateRecord
from .operators import graded
from .trigpoly import TrigPoly, TrigTerm, eval_numeric

HALF = Fraction(1, 2)


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


def _pair_key(t1: TrigTerm, t2: TrigTerm) -> tuple[int, int, int, int]:
    """Doubled exponents of t1 * t2 times the measure cos(phi2)."""
    a, b, c, d = (int(2 * (x + y)) for x, y in zip(t1.exps, t2.exps))
    return a, b, c + 2, d


def mono_inner(t1: TrigTerm, t2: TrigTerm) -> float:
    """<t1, t2> with measure cos(phi2); relative error ~1e-12."""
    a, b, c, d = _pair_key(t1, t2)
    return float(t1.coeff * t2.coeff) * _beta(a, b) * _beta(c, d)


def mono_inner_quadrature(t1: TrigTerm, t2: TrigTerm) -> float:
    """Same integral by adaptive quadrature (independent float oracle)."""
    from scipy.integrate import quad
    a, b, c, d = _pair_key(t1, t2)
    _check_integrable(a, b)
    _check_integrable(c, d)
    a, b, c, d = a / 2, b / 2, c / 2, d / 2
    i1, _ = quad(lambda x: math.cos(x) ** a * math.sin(x) ** b, 0, math.pi / 2,
                 epsabs=0.0, epsrel=1e-12, limit=400)
    i2, _ = quad(lambda x: math.cos(x) ** c * math.sin(x) ** d, 0, math.pi / 2,
                 epsabs=0.0, epsrel=1e-12, limit=400)
    return float(t1.coeff * t2.coeff) * i1 * i2


def inner(f: TrigPoly, g: TrigPoly) -> float:
    """Bilinear extension of mono_inner, summed over the terms in canonical order.

    Reads the stored int numerators and doubled exponents: n1 * n2 / (den_f *
    den_g) is correctly rounded and the Beta values are looked up per angle, so
    each term equals mono_inner's float of the Fraction product.
    """
    total = 0.0
    den = f._den * g._den
    g_terms = sorted(g._terms.items())
    # the measure adds 2 to the doubled cos(phi2) power
    for (a, b, c, d), n1 in sorted(f._terms.items()):
        c += 2
        for e2, n2 in g_terms:
            total += n1 * n2 / den * _beta(a + e2[0], b + e2[1]) * _beta(c + e2[2], d + e2[3])
    return total


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
    matrix: np.ndarray
    rank: int
    max_offdiag_normalized: float
    threshold: float

    def to_obj(self) -> dict:
        return {"rank": self.rank,
                "size": len(self.states),
                "max_offdiag_normalized": self.max_offdiag_normalized,
                "threshold": self.threshold,
                "matrix": [[float(x) for x in row] for row in self.matrix]}


def _pivoted_rank(mat: np.ndarray, threshold: float) -> int:
    """Rank of a symmetric PSD matrix by pivoted Cholesky with a diagonal cutoff."""
    a = mat.copy().astype(float)
    n = a.shape[0]
    rank = 0
    for _ in range(n):
        d = np.diag(a).copy()
        d[:rank] = -np.inf
        p = int(np.argmax(d))
        if d[p] <= threshold:
            break
        a[[rank, p]] = a[[p, rank]]
        a[:, [rank, p]] = a[:, [p, rank]]
        piv = a[rank, rank]
        v = a[rank + 1:, rank] / piv
        a[rank + 1:, rank + 1:] -= np.outer(v, a[rank, rank + 1:])
        a[rank + 1:, rank] = 0.0
        a[rank, rank + 1:] = 0.0
        rank += 1
    return rank


def gram(states) -> GramReport:
    """Pairwise inner products of StateRecords (or bare TrigPolys)."""
    n = len(states)
    mat = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            if isinstance(states[i], StateRecord):
                v = state_inner(states[i], states[j])
            else:
                v = inner(states[i], states[j])
            mat[i, j] = mat[j, i] = v
    diag = np.diag(mat)
    maxdiag = float(diag.max()) if n else 0.0
    threshold = 1e-9 * maxdiag
    rank = _pivoted_rank(mat, threshold)
    off = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            denom = math.sqrt(abs(diag[i] * diag[j])) or 1.0
            off = max(off, abs(mat[i, j]) / denom)
    return GramReport(list(states), mat, rank, off, threshold)


def _admissible(f: TrigPoly) -> bool:
    return all(e >= HALF for t in f.terms() for e in t.exps)


def adjoint_residual(x_name: str, ell, f: TrigPoly, g: TrigPoly) -> float:
    """|<X- f, g> - <f, X+ g>| with the sector pairing implied by the shift.

    f lives on sector ell, g on the shifted sector; both must vanish at the
    octant boundary (every exponent >= 1/2), so the integration-by-parts
    boundary terms drop.
    """
    xm = graded(x_name + "-", "corrected")
    xp = graded(x_name + "+", "corrected")
    if not f or not g:
        return 0.0
    if not (_admissible(f) and _admissible(g)):
        raise ValueError("inadmissible states for the hermiticity pairing")
    from .diffop import pv
    ell = pv(*ell)
    lhs = inner(apply(xm.at(ell), f), g)
    rhs = inner(f, apply(xp.at(xm.target(ell)), g))
    return abs(lhs - rhs)


_STENCIL_1 = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))   # / 12h
_STENCIL_2 = ((-2, -1.0), (-1, 16.0), (0, -30.0), (1, 16.0), (2, -1.0))  # / 12h^2


def _fd(fun, x: float, y: float, k1: int, k2: int, h: float) -> float:
    if k1 == 0 and k2 == 0:
        return fun(x, y)
    if k1 > 0:
        st = _STENCIL_1 if k1 == 1 else _STENCIL_2
        den = 12 * h if k1 == 1 else 12 * h * h
        if k1 > 2:
            raise ValueError("finite-difference oracle supports order <= 2 per variable")
        return sum(w * _fd(fun, x + o * h, y, 0, k2, h) for o, w in st) / den
    st = _STENCIL_1 if k2 == 1 else _STENCIL_2
    den = 12 * h if k2 == 1 else 12 * h * h
    if k2 > 2:
        raise ValueError("finite-difference oracle supports order <= 2 per variable")
    return sum(w * _fd(fun, x, y + o * h, 0, 0, h) for o, w in st) / den


def numeric_oracle_check(op: DiffOp, f: TrigPoly, points, h: float = 1e-4) -> float:
    """Max relative deviation of the exact apply(op, f) against a five-point
    finite-difference application of op to f at the given interior points."""
    sym = apply(op, f)
    worst = 0.0
    for (x, y) in points:
        ref = 0.0
        for (k1, k2), coeff in op.items():
            ref += eval_numeric(coeff, x, y) * _fd(lambda u, v: eval_numeric(f, u, v),
                                                   x, y, k1, k2, h)
        val = eval_numeric(sym, x, y)
        scale = max(abs(val), abs(ref), 1e-9)
        worst = max(worst, abs(val - ref) / scale)
    return worst
