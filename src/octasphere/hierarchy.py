"""Eigenstates, exact spectra and representation lattices of the hierarchy.

Everything here is exact, and every state is proved an eigenstate for every
ell at once, never at its own sector.  A fundamental or closed-form state is
the ground-state gauge phi0, whose exponents are affine in ell (PHI0_ROWS),
times Jacobi factors in cos 2 phi1 and cos 2 phi2 whose exponents do not
depend on ell (`_factor`); Szego's weights are polynomials in the affine rows
of the Jacobi parameters, so each family is a polynomial in ell with TrigPoly
coefficients (`_factor_poly`).  Conjugated by phi0, a block becomes a
polynomial in ell again, each d_i turned into d_i + d_i log phi0 (`_gauged`),
and a family is an eigenfunction for every ell exactly when the gauged block
minus the spectral value (`_spectral_rows`, which `energy` reads too) kills
it coefficient by coefficient (`diffop.apply_normal_poly`).  The proof is
made once per family and level, memoised on the blocks read from `diffop` at
the call, PHI0_ROWS and the level: `_phi1_witness` per m for the phi1 block,
and `_separated_witness` per (m, n) for H, which splits H into the phi2
block plus sec^2 phi2 times the phi1 block and proves each one-angle factor
(Kalnins, Miller & Post, J. Phys. A 40, 11525, 2007).  A state is then the
value of its proved family at its sector.  For a first-order ladder X,
(X phi0)/phi0 is a polynomial in ell too (`phi0_action`), so each
annihilation of a fundamental state is one identity on the kind's plane
(`annihilation_witness`).  `make_state` checks one state at its own sector
and is the independent oracle of these proofs.

A laddered state is an eigenstate by theorem, because its every step is
proved to intertwine the record's `block`, the Hamiltonian or the phi1 block
read from their one home `diffop` at the call, for every ell (Infeld & Hull,
Rev. Mod. Phys. 23, 21, 1951): once per distinct step in `ladder_build`,
once per raising operator and build in `iur_states`, by one shared proof
(`_prove_step`).  Laddered states, and every state `iur_states` emits, are
stored in normal form (`trigpoly.normalized`).  Each ladder step is one
`diffop.apply_normal_ints`: per monomial of the state, one read of a memoised
table of normal-form images and one int pass over it, empty exactly when the
result is zero.  `iur_states` walks its lattice on int points and ladders
wavefunctions, building a record only for a kept state.  A Jacobi closed
form at a sector is Szego's sum at x = cos 2 phi, one cos^2/sin^2 monomial
per term (`_jacobi_terms`).  The lattices (u(3) triangles/hexagons, so(4)
squares, so(6) octahedra) carry integer multiplicities cross-checked against
the closed dimension formulas.

Sector arithmetic is int arithmetic, one path for every rational sector.
The state path (`energy`, `ground_state`, `closed_form_state`, `ladder_build`,
`iur_states`) reads its sector once as int numerators over one denominator,
(n0, n1, n2, d) (`lpoly.sector_ints`; an integer sector has d = 1), and
keeps it so until the record it returns, whose params are Fractions
(`lpoly.sector_params`).  Each affine row table (PHI0_ROWS, the spectral rows,
the Jacobi parameters) is a `lpoly.RowTable`, one object per content that
hashes once, read at the sector as int numerators over one denominator
(`lpoly.rows_at`): phi0's doubled exponents, the energy as one Fraction, and
Szego's weights.  A closed form is one int product of its factors' Szego
sums (`_product`), phi0's exponents added into its monomial keys, so neither
phi0 nor a second factor is multiplied in as a TrigPoly.  A ladder moves its
int sector by each step's shift.  The proof memos key on the same table
objects, so no lookup hashes a Fraction.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import diffop, linalg
from .diffop import (DiffOp, ParamVector, apply_normal_at, apply_normal_ints, apply_normal_poly,
                     compose)
from .lpoly import (UNITS, ZERO, IntSector, LPoly, Mono, Row, RowTable, as_sector,
                    quantum_number, row_table, rows_at, sector_ints, sector_params)
from .operators import GradedOp, graded, intertwining_witness, residual_witness, verdict_memo
from .trigpoly import (COT1, COT2, ONE, PHI1, PHI2, TAN1, TAN2, Key, TrigPoly, _exps, _new,
                       _reduced, _sum, coupling, frac_to_str, linear_combine, mul, normalized,
                       to_obj)
from .trigpoly import proportionality  # noqa: F401  (re-exported for comparing states)

HALF = Fraction(1, 2)
SEC2_2 = TrigPoly.monomial(1, (0, 0, -2, 0))  # sec^2 phi2


# -- Jacobi polynomials --------------------------------------------------------

@dataclass(frozen=True)
class JacobiPoly:
    """Exact Jacobi polynomial P_n^(alpha,beta); coeffs ascending in x."""
    n: int
    alpha: Fraction
    beta: Fraction
    coeffs: tuple[Fraction, ...]


def _szego(n: int, pa: int, qa: int, pb: int, qb: int) -> tuple[list[int], int]:
    """Szego's explicit sum (Orthogonal Polynomials 4.3)

        P_n^(alpha,beta)(x) = sum_k C(n+alpha, n-k) C(n+beta, k) ((x-1)/2)^k ((x+1)/2)^(n-k)

    divides only by integers, so it is defined for all rational alpha, beta.  With
    alpha = pa/qa and beta = pb/qb, in any terms with qa, qb > 0, C(n+alpha, n-k)
    C(n+beta, k) is the int weight
    prod_{i<n-k} (qa (n-i) + pa) qa^k * prod_{i<k} (qb (n-i) + pb) qb^(n-k) * C(n, k)
    over qa^n qb^n n!; returns the weights, k ascending, and that denominator.
    """
    # rising products: num_a[j] = prod_{i<j} (qa (n-i) + pa), likewise num_b
    num_a, num_b = [1], [1]
    for i in range(n):
        num_a.append(num_a[-1] * (qa * (n - i) + pa))
        num_b.append(num_b[-1] * (qb * (n - i) + pb))
    weights = [num_a[n - k] * qa ** k * num_b[k] * qb ** (n - k) * math.comb(n, k)
               for k in range(n + 1)]
    return weights, qa ** n * qb ** n * math.factorial(n)


def jacobi(n: int, alpha, beta) -> JacobiPoly:
    """Exact coefficients of P_n^(alpha,beta) in powers of x: Szego's sum (`_szego`)
    expanded over ints, each coefficient one Fraction."""
    n = quantum_number(n, "jacobi degree")
    a, b = coupling(alpha), coupling(beta)
    weights, den = _szego(n, a.numerator, a.denominator, b.numerator, b.denominator)
    coeffs = [0] * (n + 1)
    for k, w in enumerate(weights):
        if w == 0:
            continue
        # (x-1)^k (x+1)^(n-k), ascending in x
        for i in range(k + 1):
            wi = (-1) ** (k - i) * w * math.comb(k, i)
            for j in range(n - k + 1):
                coeffs[i + j] += wi * math.comb(n - k, j)
    den *= 2 ** n
    return JacobiPoly(n, a, b, tuple(Fraction(c, den) for c in coeffs))


def jacobi_in_cos2(n: int, alpha, beta, var: int) -> TrigPoly:
    """P_n^(alpha,beta)(cos 2 phi) in the angle var in {PHI1, PHI2} (`_jacobi_terms`)."""
    if var not in (PHI1, PHI2):
        raise ValueError(f"unknown variable {var!r}")
    n = quantum_number(n, "jacobi degree")
    a, b = coupling(alpha), coupling(beta)
    terms = _jacobi_terms(n, a.numerator, a.denominator, b.numerator, b.denominator, var)
    return _product((0, 0, 0, 0), [terms])


def _jacobi_terms(n: int, pa: int, qa: int, pb: int, qb: int,
                  var: int) -> tuple[list[tuple[Key, int]], int]:
    """P_n^(pa/qa, pb/qb)(cos 2 phi) in the angle var as (doubled exponents,
    int weight) pairs over one denominator: at x = cos 2 phi, (x-1)/2 =
    -sin^2 phi and (x+1)/2 = cos^2 phi, so Szego's sum (`_szego`) is the n+1
    monomials (-1)^k C(n+alpha, n-k) C(n+beta, k) cos^(2(n-k)) phi
    sin^(2k) phi, k ascending."""
    weights, den = _szego(n, pa, qa, pb, qb)
    keys = [(4 * (n - k), 4 * k, 0, 0) for k in range(n + 1)] if var == PHI1 \
        else [(0, 0, 4 * (n - k), 4 * k) for k in range(n + 1)]
    return [(e, -w if k % 2 else w) for k, (e, w) in enumerate(zip(keys, weights))], den


def _product(key: Key, sums: list[tuple[list[tuple[Key, int]], int]]) -> TrigPoly:
    """The monomial of doubled exponents key times the product of Szego sums
    (`_jacobi_terms`), each in an angle of its own, so no two products share
    a monomial: the int weights are multiplied and the exponents added
    straight into the stored form, over the product of the denominators;
    zero weights drop and one gcd divides out."""
    terms, den = {key: 1}, 1
    for pairs, d in sums:
        terms = {(a1 + a2, b1 + b2, c1 + c2, d1 + d2): v * w
                 for (a1, b1, c1, d1), v in terms.items() for (a2, b2, c2, d2), w in pairs}
        den *= d
    return _reduced(terms, den)


# -- energies --------------------------------------------------------------------

def energy(kind: str, **params) -> Fraction:
    """Exact spectral values: lambda_m, E_mn, or E_q.

    ValueError names a missing parameter (lambda_m needs l0, l1, m; E_mn needs
    ell, m, n; E_q needs q).
    """
    def need(*names):
        missing = [n for n in names if n not in params]
        if missing:
            raise ValueError(f"energy {kind!r} needs parameter {missing[0]!r}")
        return [params[n] for n in names]

    if kind == "lambda_m":
        l0, l1, m = need("l0", "l1", "m")
        sector, m, n = sector_ints((l0, l1, 0)), quantum_number(m, "m"), 0
    elif kind == "E_mn":
        ell, m, n = need("ell", "m", "n")
        sector, m, n = sector_ints(ell), quantum_number(m, "m"), quantum_number(n, "n")
    elif kind == "E_q":
        (q,) = need("q")
        kind, sector, m, n = "E_mn", (0, 0, quantum_number(q, "q"), 1), 0, 0
    else:
        raise ValueError(f"unknown energy kind {kind!r}")
    return _energy(kind, m, n, sector)


def _energy(kind: str, m: int, n: int, s: IntSector) -> Fraction:
    """The spectral value of level (m, n) at the int sector s: the product of
    the two `_spectral_rows` read in ints (`rows_at`), one Fraction."""
    (a, b), den = rows_at(_spectral_rows(kind, m, n), s)
    return Fraction(a * b, den * den)


@functools.cache
def _spectral_rows(kind: str, m: int, n: int) -> RowTable:
    """The two affine rows in ell whose product is the spectral value of level
    (m, n): lambda_m = (l0 + l1 + 2m + 1)^2 of the phi1 block, and E_mn =
    (s + 3/2)(s + 5/2), s = l0 + l1 + l2 + 2m + 2n, of H.  `energy` and the
    eigenvalue proofs both read them."""
    if kind == "lambda_m":
        row = _row(2 * m + 1, 1, 1, 0)
        return row_table((row, row))
    s = 2 * m + 2 * n
    return row_table((_row(s + HALF * 3, 1, 1, 1), _row(s + HALF * 5, 1, 1, 1)))


def _row(*coeffs) -> Row:
    return tuple(map(Fraction, coeffs))


# -- state records ----------------------------------------------------------------

@dataclass(frozen=True)
class StateRecord:
    """An exact eigenstate: parameters, quantum labels, wavefunction, energy.

    `block` is the one place that picks a record's operator, read from `diffop`
    at the call: the phi1 block for onedim (phi1-hierarchy) records, else H.
    """
    params: ParamVector
    labels: dict
    wavefunction: TrigPoly
    energy: Fraction
    onedim: bool = False

    def block(self) -> tuple[str, LPoly]:
        return ("phi1 block", diffop.PHI1_BLOCK) if self.onedim else ("H", diffop.HAMILTONIAN)


class StateCheckError(ValueError):
    """A state that fails a check at construction; `report` names the sector
    and the operator the check was made with."""

    def __init__(self, message: str, report: dict):
        super().__init__(message)
        self.report = report


def _failure(what: str, ell, operator: str, **detail) -> StateCheckError:
    """The StateCheckError "<what> at <sector>" of a check made with `operator`."""
    sector = "(" + ", ".join(frac_to_str(x) for x in ell) + ")"
    return StateCheckError(f"{what} at {sector}", {"sector": [str(x) for x in ell],
                                                   "operator": operator, **detail})


def make_state(params, labels, wavefunction: TrigPoly, energy_val,
               onedim: bool = False) -> StateRecord:
    """Build a StateRecord, verifying (H - E) psi = 0 exactly at its one sector:
    the normal form of (H - E) applied to the normal form of psi, one
    accumulation of memoised monomial images (`diffop.apply_normal_at`), is
    empty.  The builders prove their states for every ell instead; this
    per-sector check is the independent oracle they are tested against."""
    params = as_sector(params)
    energy_val = coupling(energy_val)
    if not wavefunction:
        raise ValueError("state wavefunction must be nonzero")
    rec = StateRecord(params, dict(labels), wavefunction, energy_val, onedim)
    name, block = rec.block()
    if apply_normal_at(block, params, normalized(wavefunction), energy=energy_val):
        raise _failure(f"eigenvalue equation with E={frac_to_str(energy_val)} fails",
                       params, name)
    return rec


# -- the ground-state gauge ---------------------------------------------------------

# the exponents of cos phi1, sin phi1, cos phi2, sin phi2 in phi0, affine rows in ell
PHI0_ROWS: tuple[Row, ...] = row_table(tuple(tuple(map(Fraction, r)) for r in (
    (HALF, 1, 0, 0), (HALF, 0, 1, 0), (1, 1, 1, 0), (HALF, 0, 0, 1))))

_NO_ROW: Row = _row(0, 0, 0, 0)


def _angle_rows(rows: tuple[Row, ...], var: int) -> tuple[Row, ...]:
    """The exponent rows of the factor of phi0 in one angle, the other two rows zero."""
    return rows[:2] + (_NO_ROW,) * 2 if var == PHI1 else (_NO_ROW,) * 2 + rows[2:]


def _phi0_key(s: IntSector) -> Key:
    """The doubled exponents of phi0 at the int sector s: twice the values of
    PHI0_ROWS there (`rows_at`), each an int exactly when the exponent is in
    Z/2; ValueError as `TrigPoly.monomial` reads an exponent otherwise."""
    nums, den = rows_at(PHI0_ROWS, s)
    if any(2 * v % den for v in nums):
        _exps([Fraction(v, den) for v in nums])   # raises, naming the first such exponent
    return tuple(2 * v // den for v in nums)


def _phi0(s: IntSector, onedim: bool) -> TrigPoly:
    key = _phi0_key(s)
    return _new({key[:2] + (0, 0) if onedim else key: 1}, 1)


def phi0(ell, onedim: bool = False) -> TrigPoly:
    """The ground-state gauge of sector ell, the monomial with exponents PHI0_ROWS,

        phi0 = cos^(l0+1/2) phi1 sin^(l1+1/2) phi1 cos^(l0+l1+1) phi2 sin^(l2+1/2) phi2,

    the fundamental state of every sector (Cooper, Khare & Sukhatme, Phys. Rep.
    251, 267, 1995); onedim keeps its phi1 factor, the phi1-block fundamental state.
    """
    return _phi0(sector_ints(ell), onedim)


def _log_derivative(rows: tuple[Row, ...], var: int) -> LPoly:
    """d log phi0 / d phi_var for phi0 of exponent rows `rows`, a polynomial in
    ell: d log(cos^a sin^b) = -a tan + b cot in the angle var."""
    i, tan, cot = (0, TAN1, COT1) if var == PHI1 else (2, TAN2, COT2)
    return LPoly.affine(rows[i], -tan) + LPoly.affine(rows[i + 1], cot)


def phi0_action(x: LPoly, rows: tuple[Row, ...]) -> LPoly:
    """(X phi0)/phi0 for a first-order X given as a polynomial in ell, itself a
    polynomial in ell: X's multiplier plus its vector field applied to log phi0
    (`_log_derivative`).  phi0's exponent rows are `rows` (the program passes
    PHI0_ROWS).  Its value at ell is zero exactly when X annihilates phi0(ell);
    ValueError for order > 1."""
    if any(op.order() > 1 for _, op in x.items()):
        raise ValueError("phi0_action expects an operator of order <= 1")
    out = x.map(lambda op: op.coeff((0, 0)), TrigPoly)
    for var, order in ((PHI1, (1, 0)), (PHI2, (0, 1))):
        out = out + x.map(lambda op: op.coeff(order), TrigPoly).product(
            _log_derivative(rows, var), mul)
    return out


@verdict_memo
def annihilation_witness(x: GradedOp, rows: tuple[Row, ...], plane: int | None) -> dict | None:
    """The `residual_witness` of (X phi0)/phi0 (`phi0_action`, phi0 of exponent
    rows `rows`) on the plane l_plane = 0, or on all of Q^3 for plane None:
    None when X annihilates phi0(ell) at every sector of the plane.  Proved
    once per generator, rows and plane; the ground states and the suites'
    annihilation check read the same verdicts."""
    return residual_witness(on_plane(phi0_action(x.poly, rows), plane))


def on_plane(poly: LPoly, plane: int | None) -> LPoly:
    """A function-valued polynomial in ell on the plane l_plane = 0 (its
    monomials free of l_plane; all of them for plane None), as
    multiplication operators."""
    return LPoly(DiffOp, {m: DiffOp.multiplication(c) for m, c in poly.items()
                          if plane is None or not m[plane]})


# -- eigenvalue proofs for every ell ----------------------------------------------

@functools.cache
def _factor(var: int, m: int, n: int) -> tuple[int, RowTable, Key]:
    """The Jacobi factor of level (m, n) in the angle var of a closed form over
    phi0: its degree, its parameters (alpha, beta) as two affine rows in ell,
    and its monomial prefactor, whose exponents do not depend on ell.  In phi1
    it is P_m^(l1, l0)(cos 2 phi1); in phi2 it is cos^(2m) phi2 P_n^(l2,
    l0+l1+2m+1)(cos 2 phi2), the phi2 factor cos^(l0+l1+2m+1) phi2 sin^(l2+1/2)
    phi2 of the state over that of phi0.  The source prints the phi2 alpha as
    l2 + 1/2, which `suites.spectral_delta_report` shows to fail for n >= 1."""
    if var == PHI1:
        return m, row_table((_row(0, 0, 1, 0), _row(0, 1, 0, 0))), (0, 0, 0, 0)
    return n, row_table((_row(0, 0, 0, 1), _row(2 * m + 1, 1, 1, 0))), (0, 0, 4 * m, 0)


def _factors_at(angles: tuple[int, ...], m: int, n: int, s: IntSector, gauge: Key) -> TrigPoly:
    """The monomial of doubled exponents `gauge` times the Jacobi factors of
    level (m, n) in the angles at the int sector s: Szego's sums at the int
    values of their parameter rows (`rows_at`, `_jacobi_terms`), multiplied
    out with the gauge and the prefactors folded into the monomials
    (`_product`); one factor is the value at s of `_factor_poly`."""
    sums = []
    for var in angles:
        deg, params, pre = _factor(var, m, n)
        (pa, pb), q = rows_at(params, s)
        sums.append(_jacobi_terms(deg, pa, q, pb, q, var))
        gauge = tuple(a + b for a, b in zip(gauge, pre))
    return _product(gauge, sums)


@functools.cache
def _factor_poly(var: int, m: int, n: int) -> LPoly:
    """The Jacobi factor of level (m, n) in var (`_factor`) as a polynomial in
    ell with TrigPoly coefficients: Szego's weight of its k-th monomial,
    C(d+alpha, d-k) C(d+beta, k) = prod_{i<d-k} (alpha + d - i) prod_{i<k}
    (beta + d - i) / ((d-k)! k!), is expanded as a product of affine rows."""
    deg, (alpha, beta), pre = _factor(var, m, n)
    parts: dict[Mono, list] = {}
    for k in range(deg + 1):
        rows = [(alpha[0] + deg - i,) + alpha[1:] for i in range(deg - k)] \
            + [(beta[0] + deg - i,) + beta[1:] for i in range(k)]
        x = (4 * (deg - k), 4 * k, 0, 0) if var == PHI1 else (0, 0, 4 * (deg - k), 4 * k)
        key = tuple(a + b for a, b in zip(pre, x))
        scale = Fraction((-1) ** k, math.factorial(deg - k) * math.factorial(k))
        for mono, c in _expand(rows).items():
            parts.setdefault(mono, []).append((c * scale, 1, {key: 1}))
    return LPoly(TrigPoly, {mono: _sum(ps) for mono, ps in sorted(parts.items())})


def _expand(rows: list[Row]) -> dict[Mono, Fraction]:
    """The product of affine rows (c0, c_l0, c_l1, c_l2) as {monomial: coefficient},
    multiplied out in ints over the product of the rows' denominators."""
    acc, den = {ZERO: 1}, 1
    for row in rows:
        d = math.lcm(*(r.denominator for r in row))
        nums = [r.numerator * (d // r.denominator) for r in row]
        den *= d
        nxt: dict[Mono, int] = {}
        for (i, j, k), c in acc.items():
            for (a, b, e), r in zip(UNITS, nums):
                if r:
                    mono = (i + a, j + b, k + e)
                    nxt[mono] = nxt.get(mono, 0) + c * r
        acc = nxt
    return {mono: Fraction(c, den) for mono, c in acc.items()}


def _multiplication(*parts: tuple[str, int, int, TrigPoly]) -> LPoly:
    """The sum over the parts (kind, m, n, f) of the spectral value of level
    (m, n) (`_spectral_rows`, expanded) times the function f, as a polynomial
    in ell of multiplication operators."""
    acc: dict[Mono, list] = {}
    for kind, m, n, f in parts:
        for mono, c in _expand(list(_spectral_rows(kind, m, n))).items():
            acc.setdefault(mono, []).append((c, f))
    return LPoly(DiffOp, {mono: DiffOp.multiplication(linear_combine(ps))
                          for mono, ps in acc.items()})


@functools.cache
def _gauged(block: LPoly, rows: tuple[Row, ...]) -> LPoly:
    """phi0^-1 block phi0 as a polynomial in ell, phi0 of exponent rows `rows`:
    every d_i becomes d_i + w_i, w_i = d_i log phi0 (`_log_derivative`), so
    c d1^k1 d2^k2 becomes c (d1 + w1)^k1 (d2 + w2)^k2; the two factors commute."""
    steps = [LPoly(DiffOp, {ZERO: DiffOp({order: ONE})})
             + _log_derivative(rows, var).map(DiffOp.multiplication, DiffOp)
             for var, order in ((PHI1, (1, 0)), (PHI2, (0, 1)))]
    powers = {(0, 0): LPoly(DiffOp, {ZERO: DiffOp.identity()})}

    def power(k1: int, k2: int) -> LPoly:
        if (k1, k2) not in powers:
            powers[k1, k2] = steps[1].product(power(k1, k2 - 1), compose) if k2 \
                else steps[0].product(power(k1 - 1, 0), compose)
        return powers[k1, k2]

    out = LPoly(DiffOp)
    for mono, op in block.items():
        for order, c in op.items():
            out = out + LPoly(DiffOp, {mono: DiffOp.multiplication(c)}).product(
                power(*order), compose)
    return out


def _kernel_witness(ops: tuple[LPoly, ...], family: LPoly) -> dict | None:
    """The first ell-monomial whose coefficient in the sum of op(ell)
    family(ell) over ops is not the zero function, with its number of
    normal-form terms (`diffop.apply_normal_poly`); None when it vanishes for
    every ell.  A gauged block is one of ops, so its image tables are shared
    by every level."""
    return next(({"monomial": list(m), "terms": len(p)} for m, p in
                 apply_normal_poly((op, family) for op in ops).items()), None)


@verdict_memo
def _phi1_witness(block: LPoly, rows: tuple[Row, ...], m: int) -> dict | None:
    """The proof for every ell that phi0 (its phi1 factor, of rows `rows`)
    times the phi1 factor of level m is an eigenfunction of the phi1 block
    `block` with the value lambda_m: the gauged block minus lambda_m kills
    the factor's polynomial (`_kernel_witness`)."""
    rows = _angle_rows(rows, PHI1)
    ops = (_gauged(block, rows), _multiplication(("lambda_m", m, 0, -ONE)))
    return _kernel_witness(ops, _factor_poly(PHI1, m, 0))


@verdict_memo
def _split_witness(hamiltonian: LPoly, phi1_block: LPoly, phi2_block: LPoly) -> dict | None:
    """The `residual_witness` of H - phi2 block - sec^2 phi2 phi1 block, then of
    the d2 part of the phi1 block and the d1 part of the phi2 block; None when
    H splits into blocks that each differentiate in their own angle only."""
    found = residual_witness(hamiltonian - phi2_block - LPoly(
        DiffOp, {ZERO: DiffOp.multiplication(SEC2_2)}).product(phi1_block, compose))
    for other, block in ((1, phi1_block), (0, phi2_block)):
        found = found or residual_witness(LPoly(DiffOp, {
            mono: DiffOp._raw({o: c for o, c in op.items() if o[other]})
            for mono, op in block.items()}))
    return found


@verdict_memo
def _separated_witness(hamiltonian: LPoly, phi1_block: LPoly, phi2_block: LPoly,
                       rows: tuple[Row, ...], m: int, n: int) -> dict | None:
    """The proof for every ell that phi0 (rows `rows`) times the phi1 and phi2
    factors of level (m, n) is an eigenfunction of `hamiltonian` with the value
    E_mn, in three parts, the first failing one named under "part":

    - split: H = phi2 block + sec^2 phi2 phi1 block, the phi1 block free of d2
      and the phi2 block free of d1, so each block acts on its own angle's
      factor of a product of one-angle factors;
    - phi1: the phi1 factor, with phi0's phi1 factor, has the phi1-block value
      lambda_m (`_phi1_witness`, shared with `phi1_excited`);
    - phi2: with phi0's phi2 factor, the phi2 factor is killed by the gauged
      phi2 block plus lambda_m sec^2 phi2 minus E_mn."""
    split = _split_witness(hamiltonian, phi1_block, phi2_block)
    if split is not None:
        return {"part": "split", **split}
    found = _phi1_witness(phi1_block, rows, m)
    if found is not None:
        return {"part": "phi1", **found}
    ops = (_gauged(phi2_block, _angle_rows(rows, PHI2)),
           _multiplication(("lambda_m", m, 0, SEC2_2), ("E_mn", m, n, -ONE)))
    found = _kernel_witness(ops, _factor_poly(PHI2, m, n))
    return None if found is None else {"part": "phi2", **found}


def _level_witness(onedim: bool, hamiltonian: LPoly, phi1_block: LPoly, phi2_block: LPoly,
                   rows: tuple[Row, ...], m: int, n: int) -> tuple[str, dict | None]:
    """The operator of a state of level (m, n), the phi1 block when onedim and
    else H, and the witness of its memoised proof for every ell
    (`_phi1_witness`, `_separated_witness`), None when it holds."""
    if onedim:
        return "phi1 block", _phi1_witness(phi1_block, rows, m)
    return "H", _separated_witness(hamiltonian, phi1_block, phi2_block, rows, m, n)


def _eigen_failure(sector: IntSector, name: str, witness: dict, energy_val) -> StateCheckError:
    return _failure(f"eigenvalue equation with E={frac_to_str(energy_val)} does not hold for "
                    f"all l (witness {witness})", sector_params(sector), name, witness=witness)


def _labels(label, size: int, name: str) -> tuple:
    """The `size` parts of a kind's label, given as a tuple or list (a one-part
    label also bare); ValueError for any other shape."""
    if size == 1 and not isinstance(label, (tuple, list)):
        label = (label,)
    if not isinstance(label, (tuple, list)) or len(label) != size:
        raise ValueError(f"{name}: a label of {size} part(s) expected, got {label!r}")
    return tuple(label)


def _one_label(label, name: str) -> int:
    """The label of a one-label kind, given bare or as a 1-tuple; a quantum number."""
    return quantum_number(*_labels(label, 1, name), name)


def _fundamental(kind: str, params) -> tuple[IntSector, dict, tuple, bool, Fraction]:
    """A kind's fundamental sector in ints, labels, annihilators with the plane
    l_i = 0 each is proved on (None for all of Q^3), onedim and spectrum energy."""
    if kind == "phi1_1d":
        l0, l1, m = _labels(params, 3, kind)
        (n0, n1, _, d), m = sector_ints((l0, l1, 0)), quantum_number(m, "m")
        sector = (n0 + m * d, n1 + m * d, 0, d)
        labels = {"m": m, "su2_j": Fraction(n0 + n1 + 2 * m * d, 2 * d)}
        lowering = (("A-", None),)
    elif kind == "u3":
        m, n = _labels(params, 2, kind)
        m, n = quantum_number(m, "m"), quantum_number(n, "n")
        sector, labels, lowering = (m, 0, n, 1), {"m": m, "n": n}, (("A-", None), ("C-", 1))
    elif kind == "so4":
        n = _one_label(params, "n")
        sector, labels = (0, n, 0, 1), {"n": n, "su2_j": Fraction(n, 2)}
        lowering = (("A-", None), ("At-", 0))
    elif kind == "so6":
        q = _one_label(params, "q")
        sector, labels = (0, 0, q, 1), {"q": q}
        lowering = (("A-", None), ("C-", 1), ("At-", 0))
    else:
        raise ValueError(f"unknown ground-state kind {kind!r}")
    onedim = kind in ("phi1_1d", "so4")
    e = _energy("lambda_m" if onedim else "E_mn", 0, 0, sector)
    return sector, labels, lowering, onedim, e


def ground_energy(kind: str, params) -> Fraction:
    """The energy of `ground_state(kind, params)`, read off the spectrum at the
    kind's sector; no state is built, so no table of ladders is read."""
    return _fundamental(kind, params)[-1]


def ground_state(kind: str, params) -> StateRecord:
    """Fundamental (lowest-weight) states: phi0 at the kind's sector with the
    spectrum value there, the level (0, 0) of the closed forms, whose factors
    are 1.  Each lowering operator is proved to annihilate phi0 for every ell
    on the kind's plane (`annihilation_witness`: A- on all of Q^3, C- on
    l1 = 0, At- on l0 = 0), and phi0 to be an eigenfunction of the kind's
    block for every ell (the memoised proof of level (0, 0), as in
    `closed_form_state`); a failed proof raises StateCheckError naming the
    sector, the operator and its witness.

    kinds: phi1_1d (l0, l1, m) -- phi1 chain member at (l0+m, l1+m, 0), one-variable;
           u3 (m, n)           -- lowest weight of the u(3) IUR (m, n), at (m, 0, n);
           so4 (n,)            -- lowest weight of the so(4) square, at (0, n, 0), one-variable;
           so6 (q,)            -- lowest weight of the so(6) IUR q, at (0, 0, q).
    """
    sector, labels, lowering, onedim, e = _fundamental(kind, params)
    failed = _fundamental_witness(tuple((graded(name), plane) for name, plane in lowering),
                                  onedim, diffop.HAMILTONIAN, diffop.PHI1_BLOCK,
                                  diffop.PHI2_BLOCK, PHI0_ROWS)
    if failed is not None:
        claim, name, witness = failed
        if claim == "eigenvalue":
            raise _eigen_failure(sector, name, witness, e)
        raise _failure(f"{name} does not annihilate the candidate state for all l "
                       f"(witness {witness})", sector_params(sector), name, witness=witness)
    return StateRecord(sector_params(sector), labels, _phi0(sector, onedim), e, onedim)


@verdict_memo
def _fundamental_witness(lowering: tuple[tuple[GradedOp, int | None], ...], onedim: bool,
                         hamiltonian: LPoly, phi1_block: LPoly, phi2_block: LPoly,
                         rows: tuple[Row, ...]) -> tuple[str, str, dict] | None:
    """The first failed proof for every ell of a fundamental state, as its
    claim ("annihilation" or "eigenvalue"), operator and witness: each
    lowering operator annihilates phi0 (of rows `rows`, its phi1 factor when
    onedim) on its plane (`annihilation_witness`), and phi0 is an
    eigenfunction of the phi1 block when onedim, else of H (`_level_witness`
    at level (0, 0)).  One memo per kind's generators, the blocks and the
    rows, so a state reads one verdict."""
    gauge = _angle_rows(rows, PHI1) if onedim else rows
    for x, plane in lowering:
        witness = annihilation_witness(x, gauge, plane)
        if witness is not None:
            return "annihilation", x.name, witness
    name, witness = _level_witness(onedim, hamiltonian, phi1_block, phi2_block, rows, 0, 0)
    return None if witness is None else ("eigenvalue", name, witness)


def _prove_step(op: GradedOp, block: tuple[str, LPoly], sector: IntSector) -> None:
    """Raise StateCheckError, naming op and the sector it was to act on, unless
    op is proved to intertwine the block (a record's `block`) for every ell
    (`intertwining_witness`, memoised on the generator and the block)."""
    name, poly = block
    witness = intertwining_witness(op, poly)
    if witness is not None:
        raise _failure(f"{op.name} does not intertwine the {name} for all l "
                       f"(witness {witness}); no state laddered from the state",
                       sector_params(sector), op.name, witness=witness)


def _step(step) -> GradedOp:
    """A ladder step: a name read by `graded`, or a GradedOp as it is."""
    if isinstance(step, str):
        return graded(step)
    if isinstance(step, GradedOp):
        return step
    raise ValueError(f"a ladder step is a ladder name or a GradedOp, got {step!r}")


def ladder_build(start: StateRecord, path: Sequence[str | GradedOp]) -> StateRecord | None:
    """Apply graded operators left-to-right with parameter bookkeeping.

    Returns None when the state is annihilated along the way; otherwise the
    resulting StateRecord at the shifted sector with the energy of `start`,
    its wavefunction stored in normal form (`trigpoly.normalized`): each step
    is one accumulation of the memoised normal-form images of the monomials
    of the state (`diffop.apply_normal_ints`), empty exactly on an
    annihilation.  The start sector is read once in ints, each step moves it
    by its int shift, and one record is built, for the end of the path (an
    empty path returns `start`).  H psi = E psi is not re-applied to the
    result: every step is proved to intertwine the state's `block` for all
    ell, X(ell) H(ell) = H(ell + shift) X(ell), so it maps an eigenstate of
    H(ell) to one of H(ell + shift) with the same energy (Cooper, Khare &
    Sukhatme, Phys. Rep. 251, 267, 1995).  A step that fails its proof
    (`intertwining_witness`) raises StateCheckError, a ValueError, naming the
    step and the sector it was to act on.  A step given by name is its
    `graded` generator, one object per family row, so its proof is made once
    per block however often the step recurs, and its images are formed once
    per monomial however many states it is applied to.  ValueError for a path
    given as one string or a step that is neither a name nor a GradedOp.
    """
    if isinstance(path, str):
        raise ValueError(f"a ladder path is a sequence of steps, got the string {path!r}; "
                         f"write [{path!r}] for one step")
    ops = [_step(step) for step in path]
    if not ops:
        return start
    block = start.block()
    sector, psi = sector_ints(start.params), start.wavefunction
    for op in ops:
        _prove_step(op, block, sector)
        psi = apply_normal_ints(op.poly, sector, psi)
        if not psi:
            return None
        (n0, n1, n2, d), (a, b, c) = sector, op.shift
        sector = (n0 + a * d, n1 + b * d, n2 + c * d, d)
    return StateRecord(sector_params(sector), dict(start.labels), psi, start.energy, start.onedim)


def closed_form_state(kind: str, params) -> StateRecord:
    """Jacobi-polynomial closed forms, each phi0 times Jacobi factors (`_factor`)
    whose exponents do not depend on ell.

    phi1_excited (l0, l1, m): phi0's phi1 factor cos^(l0+1/2) sin^(l1+1/2) phi1
    times P_m^(l1,l0)(cos 2 phi1), a phi1-block state;
    separated_2d (ell, m, n): its product with the phi2 factor (`phi2_closed_form`).

    The state is not checked at its sector: the family of its level is proved
    once, for every ell, to be an eigenfunction of the block read from `diffop`
    at the call (`_phi1_witness` per m, `_separated_witness` per (m, n), keyed on
    the blocks, PHI0_ROWS and the level), and the state is the value of the
    proved family at its sector, read once in ints (`_factors_at`), with the
    energy of the same spectral rows (`_spectral_rows`).  A failed proof raises StateCheckError
    naming the sector, the operator and the first failing ell-monomial.
    """
    if kind == "phi1_excited":
        l0, l1, m = _labels(params, 3, kind)
        sector, m, n = sector_ints((l0, l1, 0)), quantum_number(m, "m"), 0
        labels, onedim = {"m": m}, True
    elif kind == "separated_2d":
        ell, m, n = _labels(params, 3, kind)
        sector, m, n = sector_ints(ell), quantum_number(m, "m"), quantum_number(n, "n")
        labels, onedim = {"m": m, "n": n}, False
    else:
        raise ValueError(f"unknown closed-form kind {kind!r}")
    e = _energy("lambda_m" if onedim else "E_mn", m, n, sector)
    name, witness = _level_witness(onedim, diffop.HAMILTONIAN, diffop.PHI1_BLOCK,
                                   diffop.PHI2_BLOCK, PHI0_ROWS, m, n)
    if witness is not None:
        raise _eigen_failure(sector, name, witness, e)
    key = _phi0_key(sector)
    psi = _factors_at((PHI1,), m, n, sector, key[:2] + (0, 0)) if onedim \
        else _factors_at((PHI1, PHI2), m, n, sector, key)
    if not psi:
        raise ValueError("state wavefunction must be nonzero")
    return StateRecord(sector_params(sector), labels, psi, e, onedim)


def phi2_closed_form(ell, m: int, n: int) -> TrigPoly:
    """phi2 factor cos^(l0+l1+2m+1) sin^(l2+1/2) P_n^(l2, l0+l1+2m+1)(cos 2 phi2):
    phi0's phi2 factor times the phi2 Jacobi factor of level (m, n) at ell, an
    exact eigenfunction factor (the source prints the first Jacobi parameter as
    l2 + 1/2, which `suites.spectral_delta_report` shows to fail for n >= 1).
    """
    sector, m, n = sector_ints(ell), quantum_number(m, "m"), quantum_number(n, "n")
    return _factors_at((PHI2,), m, n, sector, (0, 0) + _phi0_key(sector)[2:])


# -- representation lattices ------------------------------------------------------

@dataclass(frozen=True)
class IurLattice:
    algebra: str
    label: tuple
    points: tuple  # ((l0, l1, l2), multiplicity), sorted
    dimension: int


def u3_dimension(m: int, n: int) -> int:
    m, n = quantum_number(m, "m"), quantum_number(n, "n")
    return (m + 1) * (n + 1) * (m + n + 2) // 2


def so6_dimension(q: int) -> int:
    q = quantum_number(q, "q")
    return (q + 1) * (q + 2) ** 2 * (q + 3) // 12


def iur_lattice(algebra: str, label) -> IurLattice:
    """Parameter-space support of one IUR with multiplicities.

    u3 (m, n): Gelfand-Tsetlin enumeration of the weight diagram mapped onto
    the plane D = m - n; so4 (n,): the (n+1)^2 square; so6 (q,): nested
    octahedral shells |l0|+|l1|+|l2| = q - 2t with multiplicity t + 1.
    """
    if algebra == "u3":
        m, n = _labels(label, 2, "u3")
        m, n = quantum_number(m, "u3 label m"), quantum_number(n, "u3 label n")
        counts: dict[tuple, int] = {}
        lam1, lam2 = m + n, m
        for a in range(lam2, lam1 + 1):
            for b in range(0, lam2 + 1):
                for c in range(b, a + 1):
                    w = (c, a + b - c, lam1 + lam2 - a - b)
                    pt = (m - w[0], w[1] - m, w[2] - m)
                    counts[pt] = counts.get(pt, 0) + 1
        points = tuple(sorted((pt, mult) for pt, mult in counts.items()))
        dim = sum(counts.values())
        if dim != u3_dimension(m, n):
            raise ValueError(f"u(3) lattice ({m},{n}) has dimension {dim}")
        return IurLattice("u3", (m, n), points, dim)
    if algebra == "so4":
        n = _one_label(label, "so4 label")
        points = tuple(sorted(((b - a, n - a - b, 0), 1)
                              for a in range(n + 1) for b in range(n + 1)))
        return IurLattice("so4", (n,), points, (n + 1) ** 2)
    if algebra == "so6":
        q = _one_label(label, "so6 label")
        counts = {}
        for t in range(q // 2 + 1):
            s = q - 2 * t
            for l0 in range(-s, s + 1):
                for l1 in range(-(s - abs(l0)), s - abs(l0) + 1):
                    l2a = s - abs(l0) - abs(l1)
                    for l2 in ({l2a, -l2a} if l2a else {0}):
                        counts[(l0, l1, l2)] = t + 1
        points = tuple(sorted(counts.items()))
        dim = sum(counts.values())
        if dim != so6_dimension(q):
            raise ValueError(f"so(6) lattice q={q} has dimension {dim}")
        return IurLattice("so6", (q,), points, dim)
    raise ValueError(f"unknown algebra {algebra!r}")


def iso_energy_decomposition(q: int) -> list[dict]:
    """All u(3) labels (m, n) with m + n = q and their dimensions."""
    q = quantum_number(q, "q")
    out = [{"m": m, "n": q - m, "dimension": u3_dimension(m, q - m)} for m in range(q + 1)]
    if sum(r["dimension"] for r in out) != so6_dimension(q):
        raise ValueError(f"q={q}: u(3) dimensions do not sum to the so(6) dimension")
    return out


# -- state families over a lattice -------------------------------------------------

RAISING = {"u3": ["A+", "B+", "C+"],
           "so4": ["A+", "At+"],
           "so6": ["A+", "B+", "C+", "At+", "Bt+", "Ct+"]}


def iur_states(algebra: str, label) -> list[StateRecord]:
    """Ladder out a whole IUR from its fundamental state.

    Each raising operator of the algebra is first proved, once per build, to
    intertwine the fundamental state's block for every ell (`ladder_build`'s
    proof and StateCheckError), so every laddered state is an eigenstate with
    the fundamental energy.  A breadth-first sweep then applies the raising
    operators to every newly kept wavefunction, walking the lattice as the int
    points of `iur_lattice`, each point the int sector of denominator 1.  Each
    candidate is decided once: a step whose target point already holds its
    multiplicity is skipped; otherwise it is one `diffop.apply_normal_ints` at
    the source point, dropped when empty (an
    annihilation) and kept iff it is exactly independent of the wavefunctions
    kept at that point.  The first one at a point is nonzero, so it is kept
    without a rank; a later one takes one rank of the int numerators of the
    point's wavefunctions.  Every wavefunction, the fundamental one included,
    is stored in normal form, so its stored terms are its coordinates, and
    scaling a row by its denominator leaves the rank alone.  The final counts
    are verified against the IUR multiplicities, and a StateRecord is built
    for each kept wavefunction only, its params the Fraction sector.
    """
    lattice = iur_lattice(algebra, label)
    fund = ground_state(algebra, lattice.label)
    ops = [graded(name) for name in RAISING[algebra]]
    sector = sector_ints(fund.params)   # integral: its denominator is 1
    for op in ops:
        _prove_step(op, fund.block(), sector)
    steps = [(op.poly, op.shift) for op in ops]
    want = dict(lattice.points)
    start = sector[:3]
    # per int lattice point: the kept wavefunctions; the frontier pairs each with its point
    psi0 = normalized(fund.wavefunction)
    kept = {start: [psi0]}
    frontier = [(start, psi0)]
    while frontier:
        new_frontier = []
        for pt0, psi in frontier:
            a, b, c = pt0
            for poly, (da, db, dc) in steps:
                pt = (a + da, b + db, c + dc)
                bucket = kept.get(pt)
                if bucket and len(bucket) >= want.get(pt, 0):
                    continue
                nxt = apply_normal_ints(poly, (a, b, c, 1), psi)
                if not nxt:
                    continue
                if pt not in want:
                    raise ValueError(f"ladder left the lattice at {pt}")
                if bucket:
                    forms = [p._terms for p in bucket] + [nxt._terms]
                    keys = {k for f in forms for k in f}
                    if linalg.rank_exact([[f.get(k, 0) for k in keys] for f in forms]) \
                            == len(bucket):
                        continue
                kept.setdefault(pt, []).append(nxt)
                new_frontier.append((pt, nxt))
        frontier = new_frontier
    got = {pt: len(v) for pt, v in kept.items()}
    if got != want:
        missing = {pt: (want[pt], got.get(pt, 0)) for pt in want if got.get(pt) != want[pt]}
        raise ValueError(f"lattice not saturated: want/got {missing}")
    params = {pt: sector_params(pt + (1,)) for pt in kept}
    return [StateRecord(params[pt], dict(fund.labels), psi, fund.energy, fund.onedim)
            for pt in sorted(kept) for psi in kept[pt]]


# -- serialization ------------------------------------------------------------------

def state_to_obj(s: StateRecord) -> dict:
    labels = {k: (frac_to_str(v) if isinstance(v, Fraction) else v)
              for k, v in sorted(s.labels.items())}
    return {"params": [frac_to_str(x) for x in s.params],
            "labels": labels,
            "energy": frac_to_str(s.energy),
            "wavefunction": to_obj(s.wavefunction)}


def lattice_to_obj(lat: IurLattice) -> dict:
    return {"algebra": lat.algebra,
            "label": list(lat.label),
            "dimension": lat.dimension,
            "points": [{"l0": p[0], "l1": p[1], "l2": p[2], "multiplicity": m,
                        "shell": abs(p[0]) + abs(p[1]) + abs(p[2])}
                       for p, m in lat.points]}


def lattice_to_csv(lat: IurLattice) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["l0", "l1", "l2", "multiplicity", "shell"])
    for p, m in lat.points:
        w.writerow([p[0], p[1], p[2], m, abs(p[0]) + abs(p[1]) + abs(p[2])])
    return buf.getvalue()
