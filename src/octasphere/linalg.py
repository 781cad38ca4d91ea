"""Small exact linear-algebra helpers: fraction-free rank; Fraction
elimination for solves."""

from __future__ import annotations

import math
from fractions import Fraction

from .trigpoly import coupling


def _echelon(a: list[list[Fraction]], ncols: int) -> list[int]:
    """Reduce a in place to row echelon form over its first ncols columns.

    Each pivot row is scaled to a leading 1 and cleared below only; returns
    the pivot columns, so the rank is their count.  Rows from r on are zero
    left of column c, so only columns c onward are updated.
    """
    m = len(a)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        pr = next((i for i in range(r, m) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = 1 / a[r][c]
        a[r][c:] = [v * inv for v in a[r][c:]]
        pivot = a[r][c:]
        for i in range(r + 1, m):
            f = a[i][c]
            if f != 0:
                a[i][c:] = [vi - f * vr for vi, vr in zip(a[i][c:], pivot)]
        pivots.append(c)
    return pivots


def _width(rows: list[list[Fraction]]) -> int:
    """The common length of the rows; ValueError if they are ragged."""
    n = len(rows[0]) if rows else 0
    if any(len(row) != n for row in rows):
        raise ValueError("matrix rows must all have the same length")
    return n


def solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve A x = b exactly; None if inconsistent.

    If the system is underdetermined, free variables are set to 0 (the
    returned vector is still an exact solution).
    """
    n = _width(rows)
    if len(rhs) != len(rows):
        raise ValueError(f"{len(rhs)} right-hand sides for {len(rows)} equations")
    a = [[coupling(v) for v in row] + [coupling(b)] for row, b in zip(rows, rhs)]
    pivots = _echelon(a, n)
    if any(row[n] != 0 for row in a[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for i in reversed(range(len(pivots))):
        x[pivots[i]] = a[i][n] - sum(a[i][c] * x[c] for c in pivots[i + 1:])
    return x


def _int_row(row: list[Fraction]) -> list[int]:
    """The row times the lcm of its denominators: ints spanning the same line."""
    vals = [v if type(v) is int else coupling(v) for v in row]
    den = math.lcm(*(v.denominator for v in vals))
    return [v.numerator * (den // v.denominator) for v in vals]


def rank_exact(rows: list[list[Fraction]]) -> int:
    """The rank, by elimination over ints: each row is scaled to ints, and a
    pivot row p clears column c of a later row r as p[c] r - r[c] p, divided by
    the gcd of its entries.  Neither step changes the row space (p[c] != 0),
    so the pivots counted are the rank.  Rows from the rank on are zero left
    of column c, so only columns c onward are updated."""
    n = _width(rows)
    a = [_int_row(row) for row in rows]
    m = len(a)
    rank = 0
    for c in range(n):
        if rank == m:
            break
        pr = next((i for i in range(rank, m) if a[i][c]), None)
        if pr is None:
            continue
        a[rank], a[pr] = a[pr], a[rank]
        p, tail = a[rank][c], a[rank][c + 1:]
        for i in range(rank + 1, m):
            f = a[i][c]
            if f:
                row = [p * v - f * w for v, w in zip(a[i][c + 1:], tail)]
                g = math.gcd(*row)
                a[i][c:] = [0, *(v // g for v in row)] if g > 1 else [0, *row]
        rank += 1
    return rank

