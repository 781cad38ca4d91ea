"""Sphere-measure inner products, Gram analysis, hermiticity, numeric oracles."""

import importlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from octasphere.diffop import DiffOp, apply, build_hamiltonian, pv
from octasphere.hierarchy import closed_form_state, ground_state, iur_states
from octasphere.inner import (_beta, _fd, _pair_key, _pivoted_rank, _tanh_sinh, _tanh_sinh_nodes,
                              adjoint_residual, gram, inner, mono_inner, mono_inner_quadrature,
                              norm, numeric_oracle_check, state_inner)
from octasphere.linalg import rank_exact
from octasphere.operators import build_first_order
from octasphere.trigpoly import ONE, SIN1, TrigPoly, TrigTerm, eval_numeric

F = Fraction
HALF = F(1, 2)


def term(c, a, b, cc, d):
    return TrigTerm(F(c), (F(a), F(b), F(cc), F(d)))


def monomial_sum(ts):
    """The sum of TrigPoly.monomial(c, e) over the (c, e) pairs ts, in their order."""
    return sum((TrigPoly.monomial(c, e) for c, e in ts), TrigPoly.zero())


def test_mono_inner_q1_state():
    t = term(1, HALF, HALF, 1, F(3, 2))
    assert mono_inner(t, t) == pytest.approx(1 / 24, rel=1e-12)


def test_mono_inner_constant():
    t = term(1, 0, 0, 0, 0)
    assert mono_inner(t, t) == pytest.approx(math.pi / 2, rel=1e-12)


def test_mono_inner_divergent_pair():
    with pytest.raises(ValueError):
        mono_inner(term(1, 0, -1, 0, 0), term(1, 0, -1, 0, 0))


def test_inner_symmetry_and_zero():
    f = TrigPoly.monomial(2, (HALF, HALF, 1, HALF)) + TrigPoly.monomial(1, (1, 1, 1, 1))
    g = TrigPoly.monomial(1, (F(3, 2), HALF, 2, HALF))
    assert inner(f, g) == pytest.approx(inner(g, f), rel=1e-14)
    assert inner(f, TrigPoly.zero()) == 0.0


def test_norms_of_first_u3_grounds():
    # (0,1) carries the sin^(3/2) phi2 factor: integral (1/2)(1/12) = 1/24;
    # (0,0) integrates to (1/2)(1/4) = 1/8
    st = ground_state("u3", (0, 1))
    assert norm(st.wavefunction) == pytest.approx(math.sqrt(1 / 24), rel=1e-12)
    st0 = ground_state("u3", (0, 0))
    assert norm(st0.wavefunction) == pytest.approx(math.sqrt(1 / 8), rel=1e-12)


def test_positivity_over_catalog():
    states = [ground_state("u3", (m, n)) for m in range(3) for n in range(3)]
    states += [closed_form_state("separated_2d", ((0, 0, 0), m, n))
               for m in range(2) for n in range(2)]
    for s in states:
        assert norm(s.wavefunction) > 0


def test_orthogonality_distinct_energies():
    s1 = closed_form_state("separated_2d", ((0, 0, 0), 0, 0))
    s2 = closed_form_state("separated_2d", ((0, 0, 0), 1, 0))
    v = abs(inner(s1.wavefunction, s2.wavefunction))
    v /= norm(s1.wavefunction) * norm(s2.wavefunction)
    assert v <= 1e-10


def test_gram_duplicate_state_rank_one():
    st = ground_state("u3", (0, 0))
    rep = gram([st, st])
    assert rep.rank == 1


def test_gram_distinct_energy_offdiag():
    s1 = closed_form_state("separated_2d", ((0, 0, 0), 0, 0))
    s2 = closed_form_state("separated_2d", ((0, 0, 0), 0, 1))
    rep = gram([s1, s2])
    assert rep.rank == 2 and rep.max_offdiag_normalized <= 1e-10


def test_gram_so4_level2_rank_nine():
    sts = iur_states("so4", (2,))
    rep = gram(sts)
    assert rep.rank == 9


def test_gram_of_a_list_mixing_records_and_bare_polys_is_a_value_error():
    st = ground_state("u3", (0, 0))
    for states in ([st, st.wavefunction], [st.wavefunction, st]):
        with pytest.raises(ValueError, match="not a mix"):
            gram(states)


def test_gram_report_json():
    sts = iur_states("u3", (1, 0))
    obj = gram(sts).to_obj()
    assert obj["rank"] == 3 and obj["size"] == 3
    assert len(obj["matrix"]) == 3 and "threshold" in obj
    assert obj["matrix"][0][1] == 0.0  # cross-sector states orthogonal
    assert all(type(x) is float for row in obj["matrix"] for x in row)


def test_pivoted_rank_of_integer_gram_products():
    # B B^T has the rank of B; its entries are small ints, exact as floats
    rnd = random.Random(13)
    for _ in range(200):
        m, r = rnd.randint(1, 9), rnd.randint(1, 6)
        b = [[rnd.randint(-3, 3) for _ in range(r)] for _ in range(m)]
        g = [[float(sum(x * y for x, y in zip(bi, bj))) for bj in b] for bi in b]
        threshold = 1e-9 * max(g[i][i] for i in range(m))
        assert _pivoted_rank(g, threshold) == rank_exact(b)


def _dense_pivoted_rank(mat, threshold):
    """The pivoted Cholesky with every Schur update done, zero multipliers included."""
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
            row[:] = [x - v * y for x, y in zip(row, top)]
        rank += 1
    return rank


def _block_diagonal_psd(rnd):
    """B B^T blocks of random rank, rows of B at random scales, exactly zero
    between blocks, with rows and columns in random order and some zeros
    signed negative."""
    blocks = []
    for _ in range(rnd.randint(1, 5)):
        m, r = rnd.randint(1, 4), rnd.randint(0, 4)
        b = [[rnd.uniform(-1, 1) * scale for _ in range(r)]
             for scale in (10.0 ** rnd.randint(-16, 1) for _ in range(m))]
        blocks.append([[sum(x * y for x, y in zip(bi, bj)) for bj in b] for bi in b])
    n = sum(len(blk) for blk in blocks)
    mat = [[0.0] * n for _ in range(n)]
    at = 0
    for blk in blocks:
        for i, row in enumerate(blk):
            mat[at + i][at:at + len(row)] = row
        at += len(blk)
    order = rnd.sample(range(n), n)
    mat = [[mat[i][j] for j in order] for i in order]
    for i in range(n):
        for j in range(i + 1, n):
            if mat[i][j] == 0.0 and rnd.random() < 0.5:
                mat[i][j] = mat[j][i] = -0.0
    return mat


def test_pivoted_rank_skipping_zero_multipliers_equals_the_dense_update():
    rnd = random.Random(29)
    for _ in range(300):
        mat = _block_diagonal_psd(rnd)
        for threshold in (0.0, 1e-9 * max(mat[i][i] for i in range(len(mat)))):
            assert _pivoted_rank(mat, threshold) == _dense_pivoted_rank(mat, threshold)


@pytest.mark.parametrize("n", range(8))
def test_pivoted_rank_equals_the_dense_update_on_so4_grams(n):
    rep = gram(iur_states("so4", (n,)))
    assert rep.rank == _dense_pivoted_rank(rep.matrix, rep.threshold)


def _all_pairs_gram(states):
    """(matrix, rank, max normalized off-diagonal, threshold) of records with
    every pair integrated through `state_inner`, as a reference."""
    n = len(states)
    mat = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            mat[i][j] = mat[j][i] = state_inner(states[i], states[j])
    diag = [mat[i][i] for i in range(n)]
    threshold = 1e-9 * max(diag)
    off = max((abs(mat[i][j]) / (math.sqrt(abs(diag[i] * diag[j])) or 1.0)
               for i in range(n) for j in range(i + 1, n)), default=0.0)
    return mat, _pivoted_rank(mat, threshold), off, threshold


@pytest.mark.parametrize("algebra,label", [("u3", (2, 1)), ("so6", (2,)), ("so4", (3,))])
def test_a_gram_of_records_integrates_only_the_pairs_within_one_sector(algebra, label,
                                                                       monkeypatch):
    # records at different sectors are orthogonal by construction, so only the
    # pairs within one sector are integrated, and every field is the same float
    sts = iur_states(algebra, label)
    want = _all_pairs_gram(sts)
    module = importlib.import_module("octasphere.inner")
    calls = []

    def counted(f, g):
        calls.append((f, g))
        return inner(f, g)

    monkeypatch.setattr(module, "inner", counted)
    rep = gram(sts)
    assert (rep.matrix, rep.rank, rep.max_offdiag_normalized, rep.threshold) == want
    per_sector = {}
    for s in sts:
        per_sector[tuple(s.params)] = per_sector.get(tuple(s.params), 0) + 1
    assert len(calls) == sum(m * (m + 1) // 2 for m in per_sector.values()) < len(sts) ** 2


def test_state_inner_cross_sector_is_zero():
    sts = iur_states("u3", (1, 0))
    assert state_inner(sts[0], sts[1]) == 0.0


def test_adjoint_residual_on_states():
    ell = pv(1, 1, 0)
    f = closed_form_state("separated_2d", (ell, 0, 0)).wavefunction
    g = closed_form_state("separated_2d", ((2, 2, 0), 0, 0)).wavefunction
    val = adjoint_residual("A", ell, f, g)
    assert val <= 1e-10 * norm(f) * norm(g)


def test_adjoint_residual_pairs_the_table_formulas():
    ell = pv(1, 1, 0)
    f = closed_form_state("separated_2d", (ell, 1, 0)).wavefunction
    g = closed_form_state("separated_2d", ((2, 2, 0), 0, 1)).wavefunction
    want = abs(inner(apply(build_first_order("A", "-", ell), f), g)
               - inner(f, apply(build_first_order("A", "+", ell), g)))
    assert adjoint_residual("A", ell, f, g) == want


def test_adjoint_residual_zero_state():
    assert adjoint_residual("A", pv(1, 1, 0), TrigPoly.zero(), TrigPoly.zero()) == 0.0


def test_adjoint_residual_rejects_an_unknown_family_even_for_a_zero_state():
    for f in (TrigPoly.zero(), SIN1):
        with pytest.raises(ValueError, match="unknown ladder family 'Z'"):
            adjoint_residual("Z", (1, 1, 1), f, f)


def test_adjoint_residual_half_exponent_edges():
    # exponent exactly 1/2 at both edges still cancels the boundary terms
    f = TrigPoly.monomial(1, (HALF, HALF, 1, HALF))
    g = TrigPoly.monomial(1, (F(3, 2), F(3, 2), 2, HALF))
    val = adjoint_residual("A", pv(0, 0, 0), f, g)
    assert val <= 1e-10 * norm(f) * norm(g)


ADMISSIBLE = TrigPoly.monomial(1, (HALF, HALF, 1, HALF)) \
    + TrigPoly.monomial(F(-2, 3), (F(3, 2), 1, F(5, 2), 2))


def test_adjoint_residual_rejects_inadmissible():
    # an exponent below 1/2 anywhere, in either state and in any term, is refused
    for bad in (F(0), -HALF):
        for axis in range(4):
            exps = [HALF, HALF, 1, HALF]
            exps[axis] = bad
            f = ADMISSIBLE + TrigPoly.monomial(3, exps)
            for pair in ((f, ADMISSIBLE), (ADMISSIBLE, f)):
                with pytest.raises(ValueError, match="inadmissible states"):
                    adjoint_residual("A", pv(0, 0, 0), *pair)
    assert adjoint_residual("A", pv(0, 0, 0), ADMISSIBLE, ADMISSIBLE) >= 0.0


def test_beta_vs_quadrature():
    pairs = [(term(1, HALF, HALF, 1, F(3, 2)), term(1, HALF, HALF, 1, F(3, 2))),
             (term(2, -HALF, 1, 0, 2), term(1, 1, -HALF, 2, 0)),
             (term(1, 3, 2, 1, 4), term(1, 0, 0, 0, 0)),
             # integrand cos^(-1/2) sin^(-1/2) in both angles, measure included
             (term(1, -HALF, 0, -HALF, 0), term(3, 0, -HALF, -1, -HALF))]
    for t1, t2 in pairs:
        a = mono_inner(t1, t2)
        b = mono_inner_quadrature(t1, t2)
        assert abs(a - b) <= 1e-9 * abs(a)


def test_tanh_sinh_matches_beta_on_every_doubled_exponent_pair():
    for s in range(-1, 81):
        for t in range(-1, 81):
            assert abs(_tanh_sinh(s, t) - _beta(s, t)) <= 1e-12 * _beta(s, t)


def test_tanh_sinh_sums_each_node_integrand_bit_for_bit():
    # the memoised columns hold the same floats, multiplied in the same order
    nodes = _tanh_sinh_nodes()
    for s in range(-1, 41):
        for t in range(-1, 41):
            assert _tanh_sinh(s, t) == math.fsum(w * c ** (s / 2) * si ** (t / 2)
                                                 for w, si, c in nodes), (s, t)


half_integer_exps = st.lists(st.integers(-60, 60).map(lambda k: F(k, 2)),
                             min_size=8, max_size=8)


@given(half_integer_exps)
def test_pair_key_adds_doubled_ints(exps):
    t1, t2 = TrigTerm(F(1), tuple(exps[:4])), TrigTerm(F(1), tuple(exps[4:]))
    a, b, c, d = (int(2 * (x + y)) for x, y in zip(t1.exps, t2.exps))
    key = _pair_key(t1, t2)
    assert key == (a, b, c + 2, d)
    assert all(type(k) is int for k in key)


def test_quadrature_oracle_needs_neither_beta_nor_gamma(monkeypatch):
    def boom(*_):
        raise AssertionError("the quadrature oracle must not use the Beta route")
    # the package re-exports the function inner, so fetch the module itself
    monkeypatch.setattr(importlib.import_module("octasphere.inner"), "_beta", boom)
    monkeypatch.setattr(math, "lgamma", boom)
    monkeypatch.setattr(math, "gamma", boom)
    t = term(1, HALF, HALF, 1, F(3, 2))
    assert mono_inner_quadrature(t, t) == pytest.approx(1 / 24, rel=1e-12)


def test_numeric_oracle_first_derivative():
    op = DiffOp({(1, 0): ONE})
    dev = numeric_oracle_check(op, SIN1, [(0.5, 0.8), (1.0, 0.3)])
    assert dev <= 1e-7


def test_numeric_oracle_hamiltonian():
    st = ground_state("so6", (1,))
    dev = numeric_oracle_check(build_hamiltonian(st.params), st.wavefunction,
                               [(0.4, 0.7), (0.9, 1.1)])
    assert dev <= 1e-6


def test_numeric_oracle_boundary_point_rejected():
    op = DiffOp({(1, 0): ONE})
    with pytest.raises(ValueError):
        numeric_oracle_check(op, SIN1, [(0.0, 0.5)])


half_up = st.integers(min_value=1, max_value=8).map(lambda k: F(k, 2))
nonzero = st.fractions(min_value=-5, max_value=5).filter(lambda c: c != 0)
admissible_polys = st.lists(st.tuples(nonzero, st.tuples(half_up, half_up, half_up, half_up)),
                            max_size=4).map(
    lambda ts: monomial_sum(ts))


def _fraction_route_inner(f, g):
    total = 0.0
    for t1 in f.terms():
        for t2 in g.terms():
            total += mono_inner(t1, t2)
    return total


@settings(max_examples=100, deadline=None)
@given(admissible_polys, admissible_polys)
def test_inner_is_the_sum_of_mono_inner_in_term_order(f, g):
    assert inner(f, g) == _fraction_route_inner(f, g)


@st.composite
def polys_sharing_angle_parts(draw):
    """Sums of scaled polys whose terms reuse a few phi1 and phi2 exponent
    pairs: mixed denominators, coefficients of both signs, and terms that the
    sum cancels."""
    pairs1 = draw(st.lists(st.tuples(half_up, half_up), min_size=1, max_size=3))
    pairs2 = draw(st.lists(st.tuples(half_up, half_up), min_size=1, max_size=3))
    term = st.tuples(st.sampled_from(pairs1), st.sampled_from(pairs2), nonzero)
    out = TrigPoly.zero()
    for _ in range(draw(st.integers(0, 3))):
        part = TrigPoly({(*e1, *e2): c for e1, e2, c in draw(st.lists(term, max_size=6))})
        out = out + part.scale(draw(st.sampled_from([F(1), F(-1), F(1, 3), F(-5, 7)])))
        if draw(st.booleans()):
            out = out - part
    return out


@settings(max_examples=150, deadline=None)
@given(polys_sharing_angle_parts(), polys_sharing_angle_parts())
def test_inner_with_shared_angle_parts_is_the_sum_of_mono_inner(f, g):
    assert inner(f, g) == _fraction_route_inner(f, g)


def _distinct_pairs(p, angle):
    return len({(t.exps[2 * angle], t.exps[2 * angle + 1]) for t in p.terms()})


def _beta_lookups(f, g):
    before = _beta.cache_info()
    inner(f, g)
    after = _beta.cache_info()
    return after.hits + after.misses - before.hits - before.misses


@settings(max_examples=50, deadline=None)
@given(polys_sharing_angle_parts(), polys_sharing_angle_parts())
def test_inner_looks_up_each_beta_pair_once(f, g):
    want = sum(_distinct_pairs(f, angle) * _distinct_pairs(g, angle) for angle in (0, 1))
    assert _beta_lookups(f, g) == want


def test_inner_of_closed_forms_looks_up_each_beta_pair_once():
    f = closed_form_state("separated_2d", ((1, 2, 0), 2, 1)).wavefunction
    g = closed_form_state("separated_2d", ((1, 2, 0), 1, 2)).wavefunction
    want = sum(_distinct_pairs(f, angle) * _distinct_pairs(g, angle) for angle in (0, 1))
    assert _beta_lookups(f, g) == want < len(f) * len(g)


def _fraction_route_eval(p, x, y):
    c1, s1, c2, s2 = math.cos(x), math.sin(x), math.cos(y), math.sin(y)
    total = 0.0
    for (a, b, c, d), coeff in p.items():   # stored order, as eval_numeric sums
        total += float(coeff) * c1 ** float(a) * s1 ** float(b) * c2 ** float(c) * s2 ** float(d)
    return total


def test_inner_and_eval_are_bit_identical_to_the_fraction_route():
    # the int numerators over one denominator give the same floats, not close
    # ones; a few copies over 3 and 7 make the quotients inexact
    blocks = [[s.wavefunction for s in iur_states("so4", (n,))] for n in range(6)]
    blocks.append([closed_form_state("separated_2d", (ell, m, n)).wavefunction
                   for ell, m, n in (((0, 0, 0), 1, 1), ((1, 2, 0), 2, 0), ((2, 1, 1), 0, 2))])
    for block in blocks:
        block += [block[0].scale(F(1, 3)), block[-1].scale(F(-5, 7))]
        for f in block:
            for g in block:
                assert inner(f, g) == _fraction_route_inner(f, g)
            for x, y in ((0.3, 0.4), (0.77, 1.21), (1.4, 0.05)):
                assert eval_numeric(f, x, y) == _fraction_route_eval(f, x, y)


# 10^154 (1 + cos phi1): each coefficient product is 10^308, its inner product ~2.6e308
_HUGE = TrigPoly.monomial(10 ** 154, (0, 0, 0, 0)) + TrigPoly.monomial(10 ** 154, (1, 0, 0, 0))


@pytest.mark.parametrize("call", [
    lambda: inner(TrigPoly.monomial(10 ** 400, (0, 0, 0, 0)), ONE),
    lambda: mono_inner(TrigTerm(10 ** 400, (0, 0, 0, 0)), TrigTerm(1, (0, 0, 0, 0))),
    lambda: mono_inner_quadrature(TrigTerm(10 ** 400, (0, 0, 0, 0)), TrigTerm(1, (0, 0, 0, 0))),
    lambda: eval_numeric(TrigPoly.monomial(10 ** 400, (0, 0, 0, 0)), 0.3, 0.3),
    lambda: eval_numeric(TrigPoly.monomial(1, (-4000, 0, 0, 0)), 1.5, 0.3),
    # each coefficient is a float, the value is not
    lambda: inner(_HUGE, _HUGE),
    lambda: norm(_HUGE),
    lambda: gram([_HUGE]),
    lambda: mono_inner(TrigTerm(15 * 10 ** 307, (0, 0, 0, 0)), TrigTerm(1, (0, 0, 0, 0))),
    lambda: mono_inner_quadrature(TrigTerm(15 * 10 ** 307, (0, 0, 0, 0)),
                                  TrigTerm(1, (0, 0, 0, 0))),
    lambda: eval_numeric(TrigPoly.monomial(10 ** 300, (-40, 0, 0, 0)), 1.5, 0.3),
], ids=["inner_coeff", "mono_inner_coeff", "quadrature_coeff", "eval_coeff", "eval_power",
        "inner_total", "norm_total", "gram_total", "mono_inner_total", "quadrature_total",
        "eval_total"])
def test_float_oracles_reject_values_beyond_the_float_range(call):
    with pytest.raises(ValueError, match="overflows a float"):
        call()


def test_inner_rejects_a_non_integrable_pair():
    f = TrigPoly.monomial(1, (0, -1, 0, 0)) + TrigPoly.monomial(1, (1, 1, 1, 1))
    with pytest.raises(ValueError):
        inner(f, f)


def test_inner_is_the_same_float_with_the_beta_table_cold_and_warm():
    f = closed_form_state("separated_2d", ((1, 2, 0), 2, 1)).wavefunction
    g = f + closed_form_state("separated_2d", ((1, 2, 0), 1, 2)).wavefunction.scale(F(-2, 7))
    _beta.cache_clear()
    cold = inner(f, g)
    assert _beta.cache_info().currsize > 0
    assert inner(f, g) == cold
    _beta.cache_clear()
    assert inner(f, g) == cold


def test_the_measure_weight_sets_the_cos_phi2_integrability_boundary():
    # summed cos(phi2) power -1 becomes 0 under the measure cos(phi2): integrable
    f = TrigPoly.monomial(1, (0, 0, -HALF, 0))
    assert inner(f, f) == pytest.approx((math.pi / 2) ** 2, rel=1e-12)
    # summed power -2 becomes -1: divergent at phi2 = pi/2
    g = TrigPoly.monomial(1, (0, 0, -1, 0))
    with pytest.raises(ValueError):
        inner(g, g)
    with pytest.raises(ValueError):
        mono_inner(next(g.terms()), next(g.terms()))
    with pytest.raises(ValueError):
        mono_inner_quadrature(next(g.terms()), next(g.terms()))


# stencil values whose weighted terms are 1 or -1, -2^k, 2^k and zeros: a
# left-to-right float sum loses the small term, an exactly rounded one keeps it
_CANCELLING = {1: ({-2: 1.0, -1: 2.0 ** 300, 1: 2.0 ** 300, 2: 0.0}, 1 / 12),
               2: ({-2: 1.0, -1: 2.0 ** 300, 0: 0.0, 1: -2.0 ** 300, 2: 0.0}, -1 / 12)}


@pytest.mark.parametrize("k1,k2", [(1, 0), (0, 1), (2, 0), (0, 2)])
def test_a_stencil_whose_terms_cancel_is_summed_exactly(k1, k2):
    values, want = _CANCELLING[k1 or k2]
    axis = 0 if k1 else 1
    assert _fd(lambda x, y: values[round((x, y)[axis])], 0.0, 0.0, k1, k2, 1.0) == want


def test_the_package_attribute_inner_is_the_module():
    import octasphere
    assert octasphere.inner is importlib.import_module("octasphere.inner")
    assert octasphere.inner.mono_inner is mono_inner
