"""States, spectra, Jacobi closed forms, ladders and representation lattices."""

import hashlib
import json
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from octasphere import hierarchy
from octasphere.diffop import apply, build_hamiltonian, pv
from octasphere.hierarchy import (closed_form_state, energy,
                                  ground_state, iso_energy_decomposition,
                                  iur_lattice, iur_states, jacobi, jacobi_in_cos2,
                                  ladder_build, lattice_to_csv, make_state,
                                  phi2_closed_form, proportionality,
                                  so6_dimension, state_to_obj)
from octasphere.linalg import rank_exact
from octasphere.inner import numeric_oracle_check
from octasphere.operators import (LADDER_NAMES, TILDE_NAMES, build_first_order, graded,
                                  graded_product)
from octasphere.trigpoly import PHI1, PHI2, TrigPoly, is_zero, normal_form, normalized

F = Fraction
HALF = F(1, 2)


def mono(c, a, b, cc, d):
    return TrigPoly.monomial(c, (F(a), F(b), F(cc), F(d)))


# -- jacobi ------------------------------------------------------------------------

def test_jacobi_p0_is_one():
    assert jacobi(0, F(3, 2), F(7)).coeffs == (F(1),)


def test_jacobi_p1_formula():
    for a, b in ((F(2), F(1)), (F(1, 2), F(3)), (F(0), F(0))):
        jp = jacobi(1, a, b)
        assert jp.coeffs == ((a - b) / 2, (a + b + 2) / 2)


def test_jacobi_p2_legendre():
    assert jacobi(2, 0, 0).coeffs == (F(-1, 2), F(0), F(3, 2))


def test_jacobi_three_term_consistency():
    # recurrence output matches the hypergeometric series at sample points
    jp = jacobi(4, F(1, 2), F(3))
    # P_n^{(a,b)}(1) = C(n+a, n), the sum of the coefficients
    assert sum(jp.coeffs) == F(9 * 7 * 5 * 3, 2 ** 4 * 24)


def test_jacobi_degenerate_parameters():
    # the three-term recurrence divides by zero here; the explicit sum does not
    assert jacobi(2, -1, -1).coeffs == (F(-1, 4), F(0), F(1, 4))


def test_phi1_excited_degenerate_sector():
    st = closed_form_state("phi1_excited", (-1, -1, 2))
    assert st.energy == 9


def _gen_binom(z, m):
    num, den = F(1), F(1)
    for i in range(m):
        num *= z - i
        den *= i + 1
    return num / den


@pytest.mark.parametrize("n", range(6))
def test_jacobi_value_at_one(n):
    # P_n(1) = C(n + alpha, n), including alpha + beta in {-1, -2, ...}
    grid = [F(k, 2) for k in range(-6, 7)]
    for a in grid:
        for b in grid:
            assert sum(jacobi(n, a, b).coeffs) == _gen_binom(n + a, n), (a, b)


def test_jacobi_negative_degree_rejected():
    with pytest.raises(ValueError):
        jacobi(-1, 0, 0)


@pytest.mark.parametrize("var", [0, 3, "phi1"])
def test_jacobi_in_cos2_rejects_an_angle_other_than_phi1_or_phi2(var):
    with pytest.raises(ValueError):
        hierarchy.jacobi_in_cos2(1, 0, 0, var)


def _power_and_sum_in_cos2(jp, var):
    """sum_k c_k x^k with x = cos^2 - sin^2 of the angle var, by TrigPoly * and +."""
    if var == PHI1:
        x = mono(1, 2, 0, 0, 0) + mono(-1, 0, 2, 0, 0)
    else:
        x = mono(1, 0, 0, 2, 0) + mono(-1, 0, 0, 0, 2)
    out, power = TrigPoly.zero(), TrigPoly.constant(1)
    for c in jp.coeffs:
        out = out + power.scale(c)
        power = power * x
    return out


jacobi_parameters = st.one_of(st.fractions(min_value=-6, max_value=6, max_denominator=12),
                              st.sampled_from([F(k, 2) for k in range(-16, 4)]))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 8), jacobi_parameters, jacobi_parameters, st.sampled_from([PHI1, PHI2]))
@example(1, F(-1), F(-1), PHI1)        # P_1^(-1,-1) is the zero polynomial
@example(2, F(0), F(-3), PHI2)         # P_2^(0,-3) == 1: x and x^2 coefficients vanish
@example(4, F(-3, 2), F(-3, 2), PHI1)  # alpha == beta: the odd coefficients vanish
def test_jacobi_in_cos2_is_the_power_and_sum_expansion(n, a, b, var):
    got, want = jacobi_in_cos2(n, a, b, var), _power_and_sum_in_cos2(jacobi(n, a, b), var)
    assert is_zero(got - want)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 8), jacobi_parameters, jacobi_parameters, st.sampled_from([PHI1, PHI2]))
@example(1, F(-1), F(-1), PHI1)        # every Szego weight is 0: no term
@example(2, F(0), F(-3), PHI2)         # (cos^2 + sin^2)^2: three terms, though P_2 == 1
@example(4, F(-3, 2), F(-3, 2), PHI1)  # alpha == beta: the weights are symmetric in k
@example(2, F(-1), F(0), PHI2)         # C(1, 2) = 0 drops k = 0 only
def test_jacobi_in_cos2_stores_the_nonzero_szego_terms_in_ascending_k(n, a, b, var):
    # (-1)^k C(n+a, n-k) C(n+b, k) cos^(2(n-k)) sin^(2k), in Fractions
    want = []
    for k in range(n + 1):
        c = (-1) ** k * _gen_binom(n + a, n - k) * _gen_binom(n + b, k)
        pair = (F(2 * (n - k)), F(2 * k))
        if c:
            want.append((pair + (F(0), F(0)) if var == PHI1 else (F(0), F(0)) + pair, c))
    assert list(jacobi_in_cos2(n, a, b, var).items()) == want


def _szego_reference(n, a, b):
    """Szego's sum in Fractions: sum_k C(n+a, n-k) C(n+b, k) ((x-1)/2)^k ((x+1)/2)^(n-k)."""
    coeffs = [F(0)] * (n + 1)
    for k in range(n + 1):
        w = _gen_binom(n + a, n - k) * _gen_binom(n + b, k) / 2 ** n
        for i in range(k + 1):
            for j in range(n - k + 1):
                coeffs[i + j] += w * (-1) ** (k - i) * math.comb(k, i) * math.comb(n - k, j)
    return tuple(coeffs)


@pytest.mark.parametrize("n", range(7))
def test_jacobi_matches_the_fraction_reference_on_a_grid(n):
    # negative integers (the degenerate jacobi(2, -1, -1)), half-integers,
    # thirds, and alpha == beta on the diagonal
    grid = [F(k) for k in range(-4, 4)] + [F(k, 2) for k in (-5, -3, -1, 1, 3)] + [F(-7, 3)]
    for a in grid:
        for b in grid:
            jp = jacobi(n, a, b)
            assert (jp.alpha, jp.beta) == (a, b)
            assert jp.coeffs == _szego_reference(n, a, b), (a, b)


rational_params = st.fractions(min_value=-12, max_value=12, max_denominator=9)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 8), rational_params, rational_params)
def test_jacobi_matches_the_fraction_reference(n, a, b):
    assert jacobi(n, a, b).coeffs == _szego_reference(n, a, b)


# -- ground states --------------------------------------------------------------------

def test_u3_ground_state_2_1():
    st = ground_state("u3", (2, 1))
    assert st.wavefunction == mono(1, F(5, 2), HALF, 3, F(3, 2))
    assert st.energy == F(99, 4)
    assert tuple(st.params) == (2, 0, 1)


def test_so4_ground_state():
    st = ground_state("so4", (2,))
    assert st.wavefunction == mono(1, HALF, F(5, 2), 0, 0)
    assert st.energy == 9 and st.onedim


def test_so6_odd_ground_state():
    st = ground_state("so6", (1,))
    assert st.wavefunction == mono(1, HALF, HALF, 1, F(3, 2))
    assert st.energy == F(35, 4)


@pytest.mark.parametrize("q", range(6))
def test_so6_ground_state_is_the_u3_ground_state_at_m_zero(q):
    so6, u3 = ground_state("so6", (q,)), ground_state("u3", (0, q))
    assert (so6.wavefunction, so6.energy) == (u3.wavefunction, u3.energy)
    assert ground_state("so6", q).wavefunction == so6.wavefunction


@pytest.mark.parametrize("kind", ["so6_even", "so6_odd"])
def test_so6_parity_kinds_are_unknown(kind):
    with pytest.raises(ValueError, match="unknown ground-state kind"):
        ground_state(kind, (1,))


def test_phi0_is_the_ground_state_gauge():
    ell = (F(3, 2), F(-1, 2), F(2))
    assert hierarchy.phi0(ell) == mono(1, 2, 0, 2, F(5, 2))
    assert hierarchy.phi0(ell, onedim=True) == mono(1, 2, 0, 0, 0)


half_integers = st.integers(0, 8).map(lambda k: F(k, 2))
signed_half_integers = st.integers(-8, 8).map(lambda k: F(k, 2))
ALL_LADDERS = LADDER_NAMES + TILDE_NAMES


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ALL_LADDERS),
       st.tuples(signed_half_integers, signed_half_integers, signed_half_integers))
def test_phi0_action_at_a_sector_is_the_ladder_on_phi0_over_phi0(name, ell):
    # in 1/2 Z every exponent of phi0 has denominator 1 or 2
    x = graded(name)
    want = apply(x.at(ell), hierarchy.phi0(ell))
    got = hierarchy.phi0_action(x.poly, hierarchy.PHI0_ROWS).at(ell)
    assert is_zero(got * hierarchy.phi0(ell) - want)


def test_phi0_action_names_the_couplings_a_lowering_operator_needs_zero():
    # A-, B- and Ct- annihilate phi0 at every sector; C-, At- and Bt- only where
    # l1, l0 and l2 vanish, each leaving that one monomial of ell
    rows = hierarchy.PHI0_ROWS
    survivors = {name: [m for m, c in hierarchy.phi0_action(graded(name).poly, rows).items()
                        if not is_zero(c)]
                 for name in ("A-", "B-", "Ct-", "C-", "At-", "Bt-")}
    assert survivors == {"A-": [], "B-": [], "Ct-": [],
                         "C-": [(0, 1, 0)], "At-": [(1, 0, 0)], "Bt-": [(0, 0, 1)]}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_every_ground_state_is_phi0_with_the_spectrum_value(data):
    kind = data.draw(st.sampled_from(["phi1_1d", "u3", "so4", "so6"]))
    if kind == "phi1_1d":
        l0, l1, m = data.draw(half_integers), data.draw(half_integers), data.draw(st.integers(0, 3))
        params, sector, onedim = (l0, l1, m), pv(l0 + m, l1 + m, 0), True
    elif kind == "u3":
        m, n = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
        params, sector, onedim = (m, n), pv(m, 0, n), False
    elif kind == "so4":
        n = data.draw(st.integers(0, 8))
        params, sector, onedim = (n,), pv(0, n, 0), True
    else:
        q = data.draw(st.integers(0, 8))
        params, sector, onedim = (q,), pv(0, 0, q), False
    got = ground_state(kind, params)
    assert got.params == sector and got.onedim == onedim
    assert got.wavefunction == hierarchy.phi0(sector, onedim)
    if onedim:
        assert got.energy == energy("lambda_m", l0=sector[0], l1=sector[1], m=0)
    else:
        assert got.energy == energy("E_mn", ell=sector, m=0, n=0)


# a quantum number is an int >= 0 that is not a bool, everywhere it is taken
BAD_LABELS = {
    "ground_state_u3_negative": lambda: ground_state("u3", (-1, 0)),
    "ground_state_so6_half": lambda: ground_state("so6", (1.5,)),
    "ground_state_u3_half": lambda: ground_state("u3", (0.5, 1)),
    "ground_state_so6_bool": lambda: ground_state("so6", (True,)),
    "ground_state_so4_half": lambda: ground_state("so4", 2.5),
    "energy_E_mn_half_m": lambda: energy("E_mn", ell=(0, 0, 0), m=0.5, n=0),
    "energy_lambda_m_half_m": lambda: energy("lambda_m", l0=0, l1=0, m=0.5),
    "energy_E_q_half_q": lambda: energy("E_q", q=1.5),
    "u3_dimension_negative": lambda: hierarchy.u3_dimension(-5, 0),
    "so6_dimension_half": lambda: so6_dimension(1.5),
    "iur_lattice_so6_half": lambda: iur_lattice("so6", (1.5,)),
    "jacobi_half_degree": lambda: jacobi(0.5, 0, 0),
    "closed_form_state_half_m": lambda: closed_form_state("phi1_excited", (0, 0, 1.5)),
    "iso_energy_decomposition_half": lambda: iso_energy_decomposition(1.5),
    # the printed phi2 chain M
    "printed_M_half_m": lambda: build_first_order("M", "-", pv(0, 0, 0), m=0.5),
    "printed_M_negative_n": lambda: build_first_order("M", "+", pv(0, 0, 0), n=-1),
    "ladder_A_half_m": lambda: build_first_order("A", "-", pv(0, 0, 0), m=0.5),
    "ladder_A_bool_m": lambda: build_first_order("A", "-", pv(0, 0, 0), m=True),
    "ladder_A_negative_m": lambda: build_first_order("A", "-", pv(0, 0, 0), m=-1),
    "phi2_closed_form_half_m": lambda: phi2_closed_form((0, 0, 0), 1.5, 0),
    "phi2_closed_form_bool_m": lambda: phi2_closed_form((0, 0, 0), True, 0),
    "phi2_closed_form_negative_m": lambda: phi2_closed_form((0, 0, 0), -1, 0),
}


@pytest.mark.parametrize("call", list(BAD_LABELS))
def test_negative_labels_rejected(call):
    with pytest.raises(ValueError):
        BAD_LABELS[call]()


# a label with the wrong number of parts, a bare int where a tuple is due among them
WRONG_SHAPES = {
    "ground_state_u3_bare": lambda: ground_state("u3", 5),
    "ground_state_phi1_1d_bare": lambda: ground_state("phi1_1d", 5),
    "ground_state_u3_three_parts": lambda: ground_state("u3", (1, 2, 3)),
    "ground_state_so6_two_parts": lambda: ground_state("so6", (1, 2)),
    "closed_form_state_phi1_excited_bare": lambda: closed_form_state("phi1_excited", 3),
    "closed_form_state_separated_2d_two_parts":
        lambda: closed_form_state("separated_2d", ((0, 0, 0), 1)),
    "iur_lattice_u3_bare": lambda: iur_lattice("u3", 3),
    "iur_states_u3_bare": lambda: iur_states("u3", 3),
}


@pytest.mark.parametrize("call", list(WRONG_SHAPES))
def test_a_label_of_the_wrong_shape_is_a_value_error(call):
    with pytest.raises(ValueError, match="part"):
        WRONG_SHAPES[call]()


# a sector given as a bare number where the triple (l0, l1, l2) is due
BARE_SECTORS = {
    "closed_form_state": lambda: closed_form_state("separated_2d", (5, 0, 0)),
    "energy": lambda: energy("E_mn", ell=5, m=0, n=0),
    "phi2_closed_form": lambda: phi2_closed_form(5, 0, 0),
    "build_first_order": lambda: build_first_order("A", "-", 5),
    "phi0": lambda: hierarchy.phi0(5),
    "GradedOp.at": lambda: graded("A-").at(5),
}


@pytest.mark.parametrize("call", list(BARE_SECTORS))
def test_a_bare_number_for_a_sector_is_a_value_error(call):
    with pytest.raises(ValueError, match=r"a sector is three couplings \(l0, l1, l2\), got 5$"):
        BARE_SECTORS[call]()


def test_make_state_rejects_wrong_energy():
    st = ground_state("u3", (0, 0))
    with pytest.raises(ValueError):
        make_state(st.params, {}, st.wavefunction, st.energy + 1)


# -- ladders -----------------------------------------------------------------------------

def test_raise_ground_one_step():
    # f0 at (l0+1, l1+1) raised by A+ is an eigenstate at (l0, l1) with
    # eigenvalue (l0+l1+3)^2
    l0, l1 = 1, 2
    st = ground_state("phi1_1d", (l0, l1, 1))
    assert tuple(st.params) == (l0 + 1, l1 + 1, 0)
    up = ladder_build(st, ["A+"])
    assert up is not None
    assert tuple(up.params) == (l0, l1, 0)
    assert up.energy == (l0 + l1 + 3) ** 2


def test_lowering_annihilates_fundamental():
    st = ground_state("u3", (1, 2))
    assert ladder_build(st, ["A-"]) is None


def test_empty_path_is_identity():
    st = ground_state("u3", (0, 1))
    assert ladder_build(st, []) is st


# -- closed forms ---------------------------------------------------------------------------

def test_phi1_excited_m0_is_ground_monomial():
    st = closed_form_state("phi1_excited", (1, 1, 0))
    assert st.wavefunction == mono(1, F(3, 2), F(3, 2), 0, 0)


def test_phi1_excited_m1_two_classes():
    st = closed_form_state("phi1_excited", (1, 1, 1))
    assert len(list(st.wavefunction.terms())) > 1
    assert st.energy == 25


def test_separated_2d_energy():
    st = closed_form_state("separated_2d", ((0, 0, 0), 1, 1))
    assert st.energy == energy("E_mn", ell=(0, 0, 0), m=1, n=1)


def test_printed_phi2_jacobi_parameter_fails():
    # the printed phi2 factor at (0,0,0), m = 0, n = 1: cos phi2 sin^(1/2) phi2 P_1^(1/2, 1)
    f_part = mono(1, HALF, HALF, 0, 0)
    printed = mono(1, 0, 0, 1, HALF) * jacobi_in_cos2(1, HALF, 1, PHI2)
    assert printed != phi2_closed_form((0, 0, 0), 0, 1)
    bad = f_part * printed
    h = build_hamiltonian(pv(0, 0, 0))
    e = energy("E_mn", ell=(0, 0, 0), m=0, n=1)
    assert not is_zero(apply(h, bad) - bad.scale(e))


# -- energies ---------------------------------------------------------------------------------

def test_energy_values():
    assert energy("lambda_m", l0=1, l1=2, m=0) == 16
    assert energy("E_mn", ell=(0, 0, 0), m=0, n=0) == F(15, 4)
    assert energy("E_q", q=1) == F(35, 4)


def test_lambda_m_names_its_missing_parameter():
    with pytest.raises(ValueError, match="'m'"):
        energy("lambda_m", l0=1, l1=2)


def test_E_mn_names_its_missing_parameter():
    with pytest.raises(ValueError, match="'ell'"):
        energy("E_mn", m=0, n=0)


def test_E_q_names_its_missing_parameter():
    with pytest.raises(ValueError, match="'q'"):
        energy("E_q")


def test_E_mn_rejects_a_sector_without_three_couplings():
    with pytest.raises(ValueError):
        energy("E_mn", ell=(1, 2), m=0, n=0)


def test_energy_degeneracy_across_m_n():
    vals = {energy("E_mn", ell=(0, 0, 0), m=m, n=q - m)
            for q in range(5) for m in range(q + 1)}
    assert len(vals) == 5  # one energy per q


def test_ladder_jacobi_equivalence_sample():
    for l0, l1, m in ((0, 0, 2), (1, 2, 3), (3, 1, 1)):
        start = ground_state("phi1_1d", (l0, l1, m))
        laddered = ladder_build(start, ["A+"] * m)
        closed = closed_form_state("phi1_excited", (l0, l1, m))
        c = proportionality(laddered.wavefunction, closed.wavefunction)
        assert c is not None and c != 0


def test_phi2_ladder_jacobi_equivalence():
    from octasphere.diffop import apply as apply_op
    l0, l1, l2, m = 1, 0, 1, 0
    root = l0 + l1 + 2 * m + 1
    for n in range(1, 4):
        g = mono(1, 0, 0, root + n, l2 + n + HALF)  # chain ground at level n
        for k in range(n - 1, -1, -1):
            g = apply_op(build_first_order("M", "+", pv(l0, l1, l2), m=m, n=k), g)
        closed = phi2_closed_form((l0, l1, l2), m, n)
        c = proportionality(g, closed)
        assert c is not None and c != 0, n


# -- lattices -----------------------------------------------------------------------------------

def test_u3_lattice_1_0():
    lat = iur_lattice("u3", (1, 0))
    assert lat.dimension == 3
    assert lat.points == (((0, -1, 0), 1), ((0, 0, -1), 1), ((1, 0, 0), 1))


def test_u3_lattice_adjoint_center_multiplicity():
    lat = iur_lattice("u3", (1, 1))
    assert lat.dimension == 8
    assert dict(lat.points)[(0, 0, 0)] == 2


def test_u3_lattice_on_plane():
    for m, n in ((2, 1), (0, 3)):
        lat = iur_lattice("u3", (m, n))
        assert all(p[0] - p[1] - p[2] == m - n for p, _ in lat.points)


def test_so4_lattice_square():
    lat = iur_lattice("so4", (3,))
    assert lat.dimension == 16 and len(lat.points) == 16


def test_so6_lattice_q1_q3():
    lat1 = iur_lattice("so6", (1,))
    assert lat1.dimension == 6 and len(lat1.points) == 6
    lat3 = iur_lattice("so6", (3,))
    assert lat3.dimension == 50 and len(lat3.points) == 44
    outer = [p for p, mult in lat3.points if abs(p[0]) + abs(p[1]) + abs(p[2]) == 3]
    inner = [(p, mult) for p, mult in lat3.points if abs(p[0]) + abs(p[1]) + abs(p[2]) == 1]
    assert len(outer) == 38 and len(inner) == 6
    assert all(mult == 2 for _, mult in inner)


def test_so6_shell_parity():
    lat = iur_lattice("so6", (4,))
    for p, _ in lat.points:
        s = abs(p[0]) + abs(p[1]) + abs(p[2])
        assert s <= 4 and s % 2 == 0


def test_dimension_cross_sum_up_to_q8():
    for q in range(9):
        dec = iso_energy_decomposition(q)
        assert sum(r["dimension"] for r in dec) == so6_dimension(q)
        assert iur_lattice("so6", (q,)).dimension == so6_dimension(q)


def test_negative_lattice_labels_rejected():
    with pytest.raises(ValueError):
        iur_lattice("so6", (-1,))
    with pytest.raises(ValueError):
        iso_energy_decomposition(-2)


# -- laddered IUR state families -------------------------------------------------------------

def test_u3_states_1_0():
    sts = iur_states("u3", (1, 0))
    assert len(sts) == 3
    assert {s.energy for s in sts} == {F(35, 4)}


def test_so6_states_q1():
    sts = iur_states("so6", (1,))
    assert len(sts) == 6
    assert {s.energy for s in sts} == {F(35, 4)}
    assert {tuple(int(x) for x in s.params) for s in sts} == {
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)}


def test_u3_states_adjoint_has_two_at_center():
    sts = iur_states("u3", (1, 1))
    center = [s for s in sts if tuple(int(x) for x in s.params) == (0, 0, 0)]
    assert len(center) == 2


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(hierarchy, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(hierarchy, name, counted)
    return calls


def test_iur_builder_ladders_only_below_capacity(monkeypatch):
    # a step onto a full lattice point is skipped before laddering; only the
    # fundamental state is eigen-checked, the laddered ones are eigenstates
    # because every raising operator is proved to intertwine H
    raising = {id(graded(name).poly) for name in hierarchy.RAISING["so6"]}
    applied = _count_calls(monkeypatch, "apply_normal_at")
    checks = _count_calls(monkeypatch, "make_state")
    assert len(iur_states("so6", (3,))) == 50
    ladders = [args for args in applied if id(args[0]) in raising]
    assert (len(ladders), len(checks)) == (153, 1)


def test_iur_builder_names_a_raising_operator_that_fails_its_proof(monkeypatch):
    # each raising operator is proved once per build, before any state is
    # laddered; a failed proof raises ladder_build's error, naming the operator
    real = hierarchy.intertwining_witness
    proved = []

    def fails_for_bt(x, block):
        proved.append(x.name)
        return {"monomial": [0, 0, 0], "terms": 1} if x.name == "Bt+" else real(x, block)

    monkeypatch.setattr(hierarchy, "intertwining_witness", fails_for_bt)
    with pytest.raises(hierarchy.StateCheckError,
                       match=r"^Bt\+ does not intertwine the H for all l") as err:
        iur_states("so6", (2,))
    with pytest.raises(hierarchy.StateCheckError) as by_path:
        ladder_build(ground_state("so6", (2,)), ["Bt+"])
    assert str(err.value) == str(by_path.value) and err.value.report == by_path.value.report
    assert err.value.report["operator"] == "Bt+"
    assert err.value.report["sector"] == ["0", "0", "2"]
    assert proved == ["A+", "B+", "C+", "At+", "Bt+", "Bt+"]
    proved.clear()
    assert len(iur_states("u3", (1, 1))) == 8 and proved == ["A+", "B+", "C+"]


ORACLE_POINTS = [(0.4, 0.7), (0.9, 0.5), (1.1, 1.0)]


LADDERED = {
    "so6_q3": lambda: iur_states("so6", (3,)),
    "so4_n3": lambda: iur_states("so4", (3,)),
    "u3_2_1": lambda: iur_states("u3", (2, 1)),
    "phi1_m_le_3": lambda: [ladder_build(ground_state("phi1_1d", (l0, l1, m)), ["A+"] * m)
                            for l0, l1 in ((0, 0), (1, 2), (3, 1)) for m in range(4)],
}


@pytest.mark.parametrize("kind", list(LADDERED))
def test_every_laddered_state_solves_its_eigenvalue_equation(kind):
    # independent of the intertwining proofs that let ladder_build skip this:
    # H psi = E psi exactly, and the exact apply against finite differences
    for s in LADDERED[kind]():
        h = s.block()[1].at(s.params)
        assert is_zero(apply(h, s.wavefunction) - s.wavefunction.scale(s.energy)), s.params
        assert numeric_oracle_check(h, s.wavefunction, ORACLE_POINTS) <= 1e-6, s.params


def _reference_normal_at(poly, ell, f, energy=0):
    """The operator formed at its sector and applied, less energy * f, in normal form."""
    return normalized(apply(poly.at(ell), f) - f.scale(energy))


@pytest.mark.parametrize("kind", list(LADDERED))
def test_every_laddered_state_is_stored_as_the_normal_form_of_its_raw_step(kind, monkeypatch):
    # each stored wavefunction is the normal form of the raw step it came from,
    # an operator formed at its sector and applied, or of the raw fundamental
    # state phi0: the same function, in normal form
    steps = []
    real = hierarchy.apply_normal_at

    def recording(poly, ell, f, energy=0):
        steps.append((real(poly, ell, f, energy), apply(poly.at(ell), f) - f.scale(energy)))
        return steps[-1][0]

    monkeypatch.setattr(hierarchy, "apply_normal_at", recording)
    for s in LADDERED[kind]():
        if kind == "phi1_m_le_3" and s.labels["m"] == 0:
            continue   # no step taken: ladder_build returns its start as built
        psi = s.wavefunction
        assert normal_form(psi) == dict(psi.items()), s.params
        raw = next((r for out, r in steps if out is psi), None)
        if raw is None:
            raw = hierarchy.phi0(s.params, s.onedim)
        assert psi == normalized(raw) and proportionality(psi, raw) == 1, s.params


def test_a_one_variable_state_is_laddered_only_by_steps_that_intertwine_the_phi1_block():
    # B+ intertwines H but not the phi1 block, so it cannot ladder a phi1 state
    with pytest.raises(ValueError, match=r"^B\+ does not intertwine the phi1 block") as err:
        ladder_build(ground_state("so4", (2,)), ["B+"])
    assert err.value.report["witness"] == {"monomial": [0, 0, 0], "terms": 9}


def test_a_graded_product_step_ladders_like_its_two_steps():
    start = ground_state("so6", (2,))
    both = ladder_build(start, [graded_product(graded("A+"), graded("C+"))])
    steps = ladder_build(start, ["C+", "A+"])
    assert both is not None and steps is not None
    assert (both.params, both.energy) == (steps.params, steps.energy) == (pv(-1, 0, 1), start.energy)
    assert is_zero(both.wavefunction - steps.wavefunction)


def _sha256_of_states(states, term_order=True):
    """sha256 of each state's JSON object with its stored terms and denominator;
    term_order=False sorts the (key, numerator) pairs, so only the content counts."""
    def terms(p):
        return p._terms.items() if term_order else sorted(p._terms.items())
    obj = [[state_to_obj(s), [[list(k), n] for k, n in terms(s.wavefunction)], s.wavefunction._den]
           for s in states]
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


# each state's JSON object with its stored term order and denominator, as written
# by the sweep of memoised monomial images (`diffop.apply_normal_at`)
SWEPT_STATES = {
    ("so6", (3,)): "7c0c1393117dca8f846a65a05f600588aaab5fb5d77d6171dde6f1a87122678f",
    ("so6", (4,)): "6909622b017a977fea5c64af616f83684da92fcd78a993a3386be281e2806fa0",
    ("so4", (7,)): "e5726a4d05467b8868ac44699b50c245c9327974637c3ae32042df5fcbdbf0dd",
    ("u3", (3, 2)): "7e4eee6d19eaeb13a1330aad1f02e8d3be3b9e8d090ad044cd3c1cb4300317be",
}
# the same with the terms sorted: the content of the states, which the sweep
# that formed each step's operator at its sector and then applied it also wrote
SWEPT_CONTENT = {
    ("so6", (3,)): "e32906833524a89e440c2c590284c415c844b8b523fff7d8cf95de95396429e0",
    ("so6", (4,)): "b0974f8681212761522c4dee27b56521d13c15f5ecbe5ba9d318258c95acf082",
    ("so4", (7,)): "59e7ac0a77edd58f4e40258ee91da576e4f8ac93e73e41c566f711cec5e67527",
    ("u3", (3, 2)): "b461231bec69fb56e621c4b7953402fcd980c4d25f97fac0dc6bef689472d90e",
}


@pytest.mark.parametrize("algebra,label", list(SWEPT_STATES))
def test_iur_states_are_the_states_of_each_operator_formed_at_its_sector(algebra, label,
                                                                         monkeypatch):
    # the memoised monomial images added into one accumulation give the states
    # of the reference path, which forms each operator at its sector, applies
    # it and then takes the normal form
    got = iur_states(algebra, label)
    assert _sha256_of_states(got) == SWEPT_STATES[algebra, label]
    assert _sha256_of_states(got, term_order=False) == SWEPT_CONTENT[algebra, label]

    monkeypatch.setattr(hierarchy, "apply_normal_at", _reference_normal_at)
    want = iur_states(algebra, label)
    assert [(s.params, s.labels, s.energy) for s in got] \
        == [(s.params, s.labels, s.energy) for s in want]
    assert [s.wavefunction for s in got] == [s.wavefunction for s in want]
    assert _sha256_of_states(want, term_order=False) == SWEPT_CONTENT[algebra, label]


def test_a_ground_state_at_a_high_sector_returns():
    # its normal forms hold sin powers in the thousands, one recursion level each before
    st = ground_state("so6", (2000,))
    assert st.energy == energy("E_q", q=2000) and len(st.wavefunction) == 1


IURS = [("u3", (1, 1)), ("so6", (2,)), ("so6", (4,)), ("so4", (3,)), ("u3", (2, 1))]


@pytest.mark.parametrize("algebra,label", IURS)
def test_iur_states_independent_at_every_point(algebra, label):
    sts = iur_states(algebra, label)
    for pt, mult in iur_lattice(algebra, label).points:
        forms = [normal_form(s.wavefunction) for s in sts if tuple(s.params) == pt]
        keys = sorted({k for f in forms for k in f})
        assert rank_exact([[f.get(k, F(0)) for k in keys] for f in forms]) == mult


@pytest.mark.parametrize("algebra,label", IURS)
def test_iur_states_keep_fraction_sectors(algebra, label):
    # the sweep walks int lattice points; the states it emits keep Fraction params
    assert all(type(x) is F for s in iur_states(algebra, label) for x in s.params)


def test_iur_builder_takes_a_rank_only_where_a_point_already_holds_a_state(monkeypatch):
    ranks = []
    real = hierarchy.linalg.rank_exact

    def counted(rows):
        ranks.append(len(rows))
        return real(rows)

    monkeypatch.setattr(hierarchy.linalg, "rank_exact", counted)
    assert len(iur_states("so6", (4,))) == 105
    assert len(ranks) == 52 and min(ranks) == 2


def test_a_named_step_is_one_generator_object_and_ladders_like_single_steps():
    # every name resolves to the one polynomial built from its family row, so a
    # step's intertwining proof is made once however often the name recurs
    for name in [*LADDER_NAMES, *TILDE_NAMES]:
        assert graded(name).poly is graded(name).poly, name
    start = ground_state("phi1_1d", (1, 2, 3))
    stepwise = start
    for _ in range(3):
        stepwise = ladder_build(stepwise, ["A+"])
    got = ladder_build(start, ["A+"] * 3)
    assert (got.params, got.labels, got.energy, got.onedim) == \
        (stepwise.params, stepwise.labels, stepwise.energy, stepwise.onedim)
    assert got.wavefunction == stepwise.wavefunction


def test_iur_builder_rejects_a_step_off_the_lattice(monkeypatch):
    full = iur_lattice("so6", (1,))
    cut = replace(full, points=tuple(p for p in full.points if p[0] != (1, 0, 0)))
    monkeypatch.setattr(hierarchy, "iur_lattice", lambda algebra, label: cut)
    with pytest.raises(ValueError, match="ladder left the lattice"):
        iur_states("so6", (1,))


# -- serialization -----------------------------------------------------------------------------

def test_state_json_schema():
    st = ground_state("u3", (1, 0))
    obj = state_to_obj(st)
    assert obj["params"] == ["1/1", "0/1", "0/1"]
    assert obj["energy"] == "35/4"
    assert obj["labels"] == {"m": 1, "n": 0}
    assert obj["wavefunction"]["terms"][0]["coeff"] == "1/1"


def test_lattice_csv_format():
    csv_text = lattice_to_csv(iur_lattice("so6", (1,)))
    lines = csv_text.strip().splitlines()
    assert lines[0] == "l0,l1,l2,multiplicity,shell"
    assert len(lines) == 7
