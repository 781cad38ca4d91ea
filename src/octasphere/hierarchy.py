"""Eigenstates, exact spectra and representation lattices of the hierarchy.

Everything here is exact.  A fundamental or closed-form state verifies its
eigenvalue equation at construction (`make_state`); a laddered state is an
eigenstate by theorem, because its every step is proved to intertwine the
record's `block`, the Hamiltonian or the phi1 block read from their one home
`diffop` at the call, for every ell (Infeld & Hull, Rev. Mod. Phys. 23, 21,
1951): once per distinct step in `ladder_build`, once per raising operator
and build in `iur_states`, by one shared proof (`_prove_step`).  Laddered
states, and every state `iur_states` emits, are stored in normal form
(`trigpoly.normalized`).  Each ladder step, annihilation check and
eigenvalue check is one `diffop.apply_normal_at`: per monomial of the state,
one read of a memoised table of normal-form images and one int pass over
it, empty exactly when the result is zero.  `iur_states` walks its lattice
on int points and ladders wavefunctions, building a record only for a kept
state.  A Jacobi closed form is Szego's sum at x = cos 2 phi, one cos^2/sin^2
monomial per term (`jacobi_in_cos2`).  The lattices (u(3) triangles/hexagons,
so(4) squares, so(6) octahedra) carry integer multiplicities cross-checked
against the closed dimension formulas.
Every fundamental state is the value of one ground-state gauge phi0 whose
exponents are affine in ell, so (X phi0)/phi0 is a polynomial in ell for a
first-order ladder X (`phi0_action`), and each annihilation is an identity in ell.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import diffop, linalg
from .diffop import ParamVector, apply_normal_at
from .lpoly import LPoly, Row, as_sector, quantum_number, row_at
from .operators import GradedOp, graded, intertwining_witness
from .trigpoly import (COT1, COT2, PHI1, PHI2, TAN1, TAN2, TrigPoly, _sum, coupling,
                       frac_to_str, mul, normalized, to_obj)
from .trigpoly import proportionality  # noqa: F401  (re-exported for comparing states)

HALF = Fraction(1, 2)


# -- Jacobi polynomials --------------------------------------------------------

@dataclass(frozen=True)
class JacobiPoly:
    """Exact Jacobi polynomial P_n^(alpha,beta); coeffs ascending in x."""
    n: int
    alpha: Fraction
    beta: Fraction
    coeffs: tuple[Fraction, ...]


def _szego(n: int, alpha, beta) -> tuple[list[int], int]:
    """Szego's explicit sum (Orthogonal Polynomials 4.3)

        P_n^(alpha,beta)(x) = sum_k C(n+alpha, n-k) C(n+beta, k) ((x-1)/2)^k ((x+1)/2)^(n-k)

    divides only by integers, so it is defined for all rational alpha, beta.  With
    alpha = pa/qa and beta = pb/qb, C(n+alpha, n-k) C(n+beta, k) is the int weight
    prod_{i<n-k} (qa (n-i) + pa) qa^k * prod_{i<k} (qb (n-i) + pb) qb^(n-k) * C(n, k)
    over qa^n qb^n n!; returns the weights, k ascending, and that denominator.
    """
    n = quantum_number(n, "jacobi degree")
    a, b = coupling(alpha), coupling(beta)
    pa, qa, pb, qb = a.numerator, a.denominator, b.numerator, b.denominator
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
    weights, den = _szego(n, alpha, beta)
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
    return JacobiPoly(n, coupling(alpha), coupling(beta), tuple(Fraction(c, den) for c in coeffs))


def jacobi_in_cos2(n: int, alpha, beta, var: int) -> TrigPoly:
    """P_n^(alpha,beta)(cos 2 phi) in the angle var in {PHI1, PHI2}: at x = cos 2 phi,
    (x-1)/2 = -sin^2 phi and (x+1)/2 = cos^2 phi, so Szego's sum (`_szego`) is the
    n+1 monomials (-1)^k C(n+alpha, n-k) C(n+beta, k) cos^(2(n-k)) phi sin^(2k) phi,
    added, k ascending, by the one linear accumulation of `trigpoly`."""
    if var not in (PHI1, PHI2):
        raise ValueError(f"unknown variable {var!r}")
    weights, den = _szego(n, alpha, beta)
    return _sum(((-1) ** k * w, den,
                 {(4 * (n - k), 4 * k, 0, 0) if var == PHI1 else (0, 0, 4 * (n - k), 4 * k): 1})
                for k, w in enumerate(weights))


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
        l0, l1, m = coupling(l0), coupling(l1), quantum_number(m, "m")
        return (l0 + l1 + 2 * m + 1) ** 2
    if kind == "E_mn":
        ell, m, n = need("ell", "m", "n")
        ell, m, n = as_sector(ell), quantum_number(m, "m"), quantum_number(n, "n")
        s = ell[0] + ell[1] + ell[2] + 2 * n + 2 * m
        return (s + Fraction(3, 2)) * (s + Fraction(5, 2))
    if kind == "E_q":
        (q,) = need("q")
        q = quantum_number(q, "q")
        return (q + Fraction(3, 2)) * (q + Fraction(5, 2))
    raise ValueError(f"unknown energy kind {kind!r}")


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
    """Build a StateRecord, verifying (H - E) psi = 0 exactly: the normal form of
    (H - E) applied to the normal form of psi, one accumulation of memoised
    monomial images (`diffop.apply_normal_at`), is empty."""
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


# the exponents of cos phi1, sin phi1, cos phi2, sin phi2 in phi0, affine rows in ell
PHI0_ROWS: tuple[Row, ...] = tuple(tuple(map(Fraction, r)) for r in (
    (HALF, 1, 0, 0), (HALF, 0, 1, 0), (1, 1, 1, 0), (HALF, 0, 0, 1)))


def phi0(ell, onedim: bool = False) -> TrigPoly:
    """The ground-state gauge of sector ell, the monomial with exponents PHI0_ROWS,

        phi0 = cos^(l0+1/2) phi1 sin^(l1+1/2) phi1 cos^(l0+l1+1) phi2 sin^(l2+1/2) phi2,

    the fundamental state of every sector (Cooper, Khare & Sukhatme, Phys. Rep.
    251, 267, 1995); onedim keeps its phi1 factor, the phi1-block fundamental state.
    """
    exps = [row_at(row, ell) for row in PHI0_ROWS]
    return TrigPoly.monomial(1, exps[:2] + [0, 0] if onedim else exps)


def phi0_action(x: LPoly, rows: tuple[Row, ...]) -> LPoly:
    """(X phi0)/phi0 for a first-order X given as a polynomial in ell, itself a
    polynomial in ell: X's multiplier plus its vector field applied to log phi0,
    where d log(cos^a sin^b) = -a tan + b cot per angle.  phi0's exponent rows
    are `rows` (the program passes PHI0_ROWS).  Its value at ell is zero
    exactly when X annihilates phi0(ell); ValueError for order > 1."""
    if any(op.order() > 1 for _, op in x.items()):
        raise ValueError("phi0_action expects an operator of order <= 1")
    out = x.map(lambda op: op.coeff((0, 0)), TrigPoly)
    for i, (order, tan, cot) in enumerate((((1, 0), TAN1, COT1), ((0, 1), TAN2, COT2))):
        log_derivative = LPoly.affine(rows[2 * i], -tan) + LPoly.affine(rows[2 * i + 1], cot)
        out = out + x.map(lambda op: op.coeff(order), TrigPoly).product(log_derivative, mul)
    return out


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


def _check_annihilated(op_name: str, ell, psi: TrigPoly) -> None:
    # a zero test, so the generator's 1/2 does not matter
    if apply_normal_at(graded(op_name).poly, ell, psi):
        raise _failure(f"{op_name} does not annihilate the candidate state", ell, op_name)


def _fundamental(kind: str, params) -> tuple[ParamVector, dict, tuple[str, ...], bool, Fraction]:
    """A kind's fundamental sector, labels, annihilators, onedim and spectrum energy."""
    if kind == "phi1_1d":
        l0, l1, m = _labels(params, 3, kind)
        l0, l1, m = coupling(l0), coupling(l1), quantum_number(m, "m")
        sector, labels = (l0 + m, l1 + m, 0), {"m": m, "su2_j": (l0 + l1 + 2 * m) / 2}
        lowering = ("A-",)
    elif kind == "u3":
        m, n = _labels(params, 2, kind)
        m, n = quantum_number(m, "m"), quantum_number(n, "n")
        sector, labels, lowering = (m, 0, n), {"m": m, "n": n}, ("A-", "C-")
    elif kind == "so4":
        n = _one_label(params, "n")
        sector, labels, lowering = (0, n, 0), {"n": n, "su2_j": Fraction(n, 2)}, ("A-", "At-")
    elif kind == "so6":
        q = _one_label(params, "q")
        sector, labels, lowering = (0, 0, q), {"q": q}, ("A-", "C-", "At-")
    else:
        raise ValueError(f"unknown ground-state kind {kind!r}")
    sector = as_sector(sector)
    onedim = kind in ("phi1_1d", "so4")
    e = energy("lambda_m", l0=sector[0], l1=sector[1], m=0) if onedim \
        else energy("E_mn", ell=sector, m=0, n=0)
    return sector, labels, lowering, onedim, e


def ground_energy(kind: str, params) -> Fraction:
    """The energy of `ground_state(kind, params)`, read off the spectrum at the
    kind's sector; no state is built, so no table of ladders is read."""
    return _fundamental(kind, params)[-1]


def ground_state(kind: str, params) -> StateRecord:
    """Fundamental (lowest-weight) states: phi0 at the kind's sector with the
    spectrum value there, annihilation- and eigen-verified at construction.

    kinds: phi1_1d (l0, l1, m) -- phi1 chain member at (l0+m, l1+m, 0), one-variable;
           u3 (m, n)           -- lowest weight of the u(3) IUR (m, n), at (m, 0, n);
           so4 (n,)            -- lowest weight of the so(4) square, at (0, n, 0), one-variable;
           so6 (q,)            -- lowest weight of the so(6) IUR q, at (0, 0, q).
    """
    sector, labels, lowering, onedim, e = _fundamental(kind, params)
    psi = phi0(sector, onedim)
    for name in lowering:
        _check_annihilated(name, sector, psi)
    return make_state(sector, labels, psi, e, onedim=onedim)


def _prove_step(op: GradedOp, state: StateRecord) -> None:
    """Raise StateCheckError, naming op and the state's sector, unless op is
    proved to intertwine the state's `block` for every ell
    (`intertwining_witness`, memoised on the generator and the block)."""
    name, block = state.block()
    witness = intertwining_witness(op, block)
    if witness is not None:
        raise _failure(f"{op.name} does not intertwine the {name} for all l "
                       f"(witness {witness}); no state laddered from the state",
                       state.params, op.name, witness=witness)


def ladder_build(start: StateRecord, path: Sequence[str | GradedOp]) -> StateRecord | None:
    """Apply graded operators left-to-right with parameter bookkeeping.

    Returns None when the state is annihilated along the way; otherwise the
    resulting StateRecord at the shifted sector with the energy of `start`,
    its wavefunction stored in normal form (`trigpoly.normalized`): each step
    is one accumulation of the memoised normal-form images of the monomials
    of the state (`diffop.apply_normal_at`), empty exactly on an annihilation.
    H psi = E psi is not re-applied to the result: every step is proved to
    intertwine the state's `block` for all ell, X(ell) H(ell) = H(ell + shift)
    X(ell), so it maps an eigenstate of H(ell) to one of H(ell + shift) with the
    same energy (Cooper, Khare & Sukhatme, Phys. Rep. 251, 267, 1995).  A step
    that fails its proof (`intertwining_witness`) raises StateCheckError, a
    ValueError, naming the step and the sector it was to act on.  A step given
    by name is its `graded` generator, one object per family row, so its proof
    is made once per block however often the step recurs, and its images are
    formed once per monomial however many states it is applied to.
    """
    state = start
    for step in path:
        op = graded(step) if isinstance(step, str) else step
        _prove_step(op, state)
        psi = apply_normal_at(op.poly, state.params, state.wavefunction)
        if not psi:
            return None
        state = StateRecord(as_sector(op.target(state.params)), dict(state.labels), psi,
                            state.energy, state.onedim)
    return state


def closed_form_state(kind: str, params) -> StateRecord:
    """Jacobi-polynomial closed forms.

    phi1_excited (l0, l1, m): the phi1 factor cos^(l0+1/2) sin^(l1+1/2) P_m^(l1,l0)(cos 2 phi1);
    separated_2d (ell, m, n): its product with the phi2 factor (`phi2_closed_form`).
    """
    if kind == "phi1_excited":
        l0, l1, m = _labels(params, 3, kind)
        l0, l1, m = coupling(l0), coupling(l1), quantum_number(m, "m")
        psi = _phi1_closed_form((l0, l1, 0), m)
        lam = energy("lambda_m", l0=l0, l1=l1, m=m)
        return make_state((l0, l1, 0), {"m": m}, psi, lam, onedim=True)
    if kind == "separated_2d":
        ell, m, n = _labels(params, 3, kind)
        ell, m, n = as_sector(ell), quantum_number(m, "m"), quantum_number(n, "n")
        # phi2 Jacobi parameters (l2, l0+l1+2m+1): the parameter printed as
        # l2 + 1/2 fails the eigenvalue equation for n >= 1 (see phi2_closed_form)
        psi = _phi1_closed_form(ell, m) * phi2_closed_form(ell, m, n)
        e = energy("E_mn", ell=ell, m=m, n=n)
        return make_state(ell, {"m": m, "n": n}, psi, e)
    raise ValueError(f"unknown closed-form kind {kind!r}")


def _phi1_closed_form(ell: ParamVector, m: int) -> TrigPoly:
    """phi1 factor cos^(l0+1/2) sin^(l1+1/2) P_m^(l1, l0)(cos 2 phi1), phi0's phi1
    factor at the sector ell times the Jacobi polynomial."""
    return phi0(ell, onedim=True) * jacobi_in_cos2(m, ell[1], ell[0], PHI1)


def phi2_closed_form(ell, m: int, n: int) -> TrigPoly:
    """phi2 factor cos^(l0+l1+2m+1) sin^(l2+1/2) P_n^(l2, l0+l1+2m+1)(cos 2 phi2),
    an exact eigenfunction factor (the source prints the first Jacobi parameter
    as l2 + 1/2, which `suites.spectral_delta_report` shows to fail for n >= 1).
    """
    (l0, l1, l2), m, n = as_sector(ell), quantum_number(m, "m"), quantum_number(n, "n")
    root = l0 + l1 + 2 * m + 1
    pref = TrigPoly.monomial(1, (0, 0, root, l2 + HALF))
    return pref * jacobi_in_cos2(n, l2, root, PHI2)


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
    points of `iur_lattice`; each sector is read from one table of Fraction
    triples keyed by int point.  Each candidate is decided once: a step whose
    target point already holds its multiplicity is skipped; otherwise it is
    one `diffop.apply_normal_at` at the source sector, dropped when empty (an
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
    for op in ops:
        _prove_step(op, fund)
    steps = [(op.poly, op.shift) for op in ops]
    want = dict(lattice.points)
    start = tuple(int(x) for x in fund.params)
    sectors = {pt: as_sector(pt) for pt in want}
    # per int lattice point: the kept wavefunctions; the frontier pairs each with its point
    psi0 = normalized(fund.wavefunction)
    kept = {start: [psi0]}
    frontier = [(start, psi0)]
    while frontier:
        new_frontier = []
        for pt0, psi in frontier:
            ell, (a, b, c) = sectors[pt0], pt0
            for poly, (da, db, dc) in steps:
                pt = (a + da, b + db, c + dc)
                bucket = kept.get(pt)
                if bucket and len(bucket) >= want.get(pt, 0):
                    continue
                nxt = apply_normal_at(poly, ell, psi)
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
    return [StateRecord(sectors[pt], dict(fund.labels), psi, fund.energy, fund.onedim)
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
