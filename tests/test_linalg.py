"""Exact elimination: solves and ranks."""

import random
from fractions import Fraction

import pytest

from octasphere import linalg
from octasphere.linalg import _echelon, rank_exact, solve_exact

F = Fraction


def _random_matrix(rnd, m, n, rank):
    # product of an m x rank and a rank x n integer matrix: rank at most `rank`
    left = [[rnd.randint(-3, 3) for _ in range(rank)] for _ in range(m)]
    right = [[rnd.randint(-3, 3) for _ in range(n)] for _ in range(rank)]
    return [[sum(F(left[i][k] * right[k][j]) for k in range(rank)) for j in range(n)]
            for i in range(m)]


def test_solve_exact_solves_every_consistent_system():
    rnd = random.Random(7)
    for _ in range(200):
        m, n = rnd.randint(1, 6), rnd.randint(1, 6)
        a = _random_matrix(rnd, m, n, rnd.randint(1, min(m, n)))
        x0 = [F(rnd.randint(-4, 4), rnd.randint(1, 3)) for _ in range(n)]
        b = [sum(r * x for r, x in zip(row, x0)) for row in a]
        x = solve_exact(a, b)
        assert x is not None
        assert [sum(r * v for r, v in zip(row, x)) for row in a] == b


def test_solve_exact_rejects_inconsistent_systems():
    rnd = random.Random(11)
    for _ in range(200):
        m, n = rnd.randint(2, 6), rnd.randint(1, 5)
        a = _random_matrix(rnd, m, n, rnd.randint(1, min(m - 1, n)))
        b = [F(rnd.randint(-4, 4)) for _ in range(m)]
        augmented = [row + [v] for row, v in zip(a, b)]
        consistent = rank_exact(augmented) == rank_exact(a)
        assert (solve_exact(a, b) is not None) == consistent


def test_free_variables_are_zero():
    # x0 + x1 = 2, x2 free: the pivot is x0, so x1 = x2 = 0
    assert solve_exact([[F(1), F(1), F(0)]], [F(2)]) == [2, 0, 0]
    assert solve_exact([[F(0), F(2), F(4)], [F(0), F(1), F(3)]], [F(2), F(2)]) == [0, -1, 1]


def test_rank_exact():
    assert rank_exact([]) == 0
    assert rank_exact([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert rank_exact([[F(0), F(1)], [F(1), F(0)], [F(1), F(1)]]) == 2
    rnd = random.Random(3)
    for r in range(1, 5):
        a = _random_matrix(rnd, 6, 6, r)
        assert rank_exact(a) <= r


def test_rank_exact_is_the_pivot_count_of_fraction_elimination(monkeypatch):
    # every shape up to 6 x 6 at every rank up to its size, as int rows and as
    # Fraction rows (rows and columns scaled by nonzero rationals: same rank)
    rnd = random.Random(5)
    cases = []
    for m in range(1, 7):
        for n in range(1, 7):
            for r in range(min(m, n) + 1):
                ints = [[int(v) for v in row] for row in _random_matrix(rnd, m, n, r)]
                cols = [F(rnd.choice((-1, 1)) * rnd.randint(1, 9), rnd.randint(1, 9))
                        for _ in range(n)]
                fracs = [[v * x * F(rnd.randint(1, 7), rnd.choice((-5, -2, 3))) for v, x in
                          zip(row, cols)] for row in ints]
                cases += [ints, fracs]
    want = [len(_echelon([[F(v) for v in row] for row in a], len(a[0]))) for a in cases]
    assert set(want) == set(range(7))
    copies = [[list(row) for row in a] for a in cases]
    # the rank eliminates over ints, never through the Fraction echelon
    monkeypatch.setattr(linalg, "_echelon", None)
    assert [rank_exact(a) for a in cases] == want
    assert cases == copies


def test_ragged_rows_are_a_value_error():
    with pytest.raises(ValueError):
        rank_exact([[1], [2, 3]])
    with pytest.raises(ValueError):
        rank_exact([[1, 2], [3]])
    with pytest.raises(ValueError):
        solve_exact([[1, 2], [3]], [1, 2])


def test_a_right_hand_side_of_the_wrong_length_is_a_value_error():
    with pytest.raises(ValueError):
        solve_exact([[1, 2], [3, 4]], [1])
    with pytest.raises(ValueError):
        solve_exact([[1, 2]], [1, 2])
    with pytest.raises(ValueError):
        solve_exact([], [1])
