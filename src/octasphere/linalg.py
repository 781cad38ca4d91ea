"""Small exact linear-algebra helpers: one fraction-free elimination over ints
serves both the rank and the solve."""

from __future__ import annotations

import math
from fractions import Fraction

from .trigpoly import coupling


def _width(rows: list[list[Fraction]]) -> int:
    """The common length of the rows; ValueError if they are ragged."""
    n = len(rows[0]) if rows else 0
    if any(len(row) != n for row in rows):
        raise ValueError("matrix rows must all have the same length")
    return n


def _int_row(row: list[Fraction]) -> list[int]:
    """The row times the lcm of its denominators: ints spanning the same line."""
    vals = [v if type(v) is int else coupling(v) for v in row]
    den = math.lcm(*(v.denominator for v in vals))
    return [v.numerator * (den // v.denominator) for v in vals]


def _echelon(rows: list[list[Fraction]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Row echelon form of rows over their first ncols columns, by elimination
    over ints: each row is scaled to ints, and a pivot row p clears column c of
    a later row r as p[c] r - r[c] p, divided by the gcd of its entries.
    Neither step changes the row space (p[c] != 0), so the pivot columns
    returned are those of any echelon form.  Rows from len(pivots) on are zero
    left of column c, so only columns c onward are updated."""
    a = [_int_row(row) for row in rows]
    m = len(a)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        pr = next((i for i in range(r, m) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        p, tail = a[r][c], a[r][c + 1:]
        for i in range(r + 1, m):
            f = a[i][c]
            if f:
                row = [p * v - f * w for v, w in zip(a[i][c + 1:], tail)]
                g = math.gcd(*row)
                a[i][c:] = [0, *(v // g for v in row)] if g > 1 else [0, *row]
        pivots.append(c)
    return a, pivots


def solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve A x = b exactly; None if inconsistent.

    The augmented rows are eliminated (`_echelon`) and back-substituted in
    Fractions.  If the system is underdetermined, free variables are set to 0
    (the returned vector is still an exact solution).
    """
    n = _width(rows)
    if len(rhs) != len(rows):
        raise ValueError(f"{len(rhs)} right-hand sides for {len(rows)} equations")
    a, pivots = _echelon([[*row, b] for row, b in zip(rows, rhs)], n)
    if any(row[n] for row in a[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for i, p in reversed(list(enumerate(pivots))):
        x[p] = Fraction(a[i][n] - sum(a[i][c] * x[c] for c in pivots[i + 1:]), a[i][p])
    return x


def rank_exact(rows: list[list[Fraction]]) -> int:
    """The rank: the number of pivots of `_echelon`."""
    return len(_echelon(rows, _width(rows))[1])
