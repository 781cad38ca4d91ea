"""Ladder-operator families for the two-sphere hierarchy.

Each of the three separation charts (around the s2, s1 and s0 axes) carries a
pair of first-order intertwiners built from the chart's azimuthal derivative
plus tan/cot multipliers; expressed in the base coordinates (phi1, phi2) these
are the A, B, C families, one row each of the table FAMILIES.  The tan/cot
coefficients and the diagonal generators are affine rows (c0, c_l0, c_l1, c_l2)
in the couplings ell.  Each ladder X± is defined once, as a polynomial in ell
(an LPoly, `symbolic`) read off the rows and kept on its family; the tilde
families At, Bt, Ct are those polynomials under a parameter reflection
l_i -> -l_i (TILDES, `LPoly.reflect`), which maps intertwiners to intertwiners
because the Hamiltonian depends on the parameters only through their squares.
Each per-sector operator is the value of its polynomial.  A GradedOp is such a
polynomial with its parameter shift and scale; its value at ell is the
operator *acting on* sector ell, and graded_product composes two of them as
polynomials, so commutators and Casimir combinations read left to right
without extra index gymnastics.

The diagonal generators A, B, C, D are graded operators as well (`diagonal`):
multiplication by an affine row of ell, of shift 0 and scale 1.  The phi2
chain M± is one polynomial in ell per sign (`CHAIN`), written for the member
m = n = 0; the member (m, n) is its value at a shifted sector.

Every operator identity is formed once as a polynomial in ell and decided
coefficient by coefficient, so it holds for every ell in Q^3: the intertwining
of a ladder with H (`intertwine_identity`), the structure table
(`structure_table`, all 33 entries, the 18 [A|B|C, X±] ones included, formed
by the one graded bracket and each read as one rational constant times one
generator of its shift), the Casimir residuals (`casimir_residual`) and the
brackets behind the Jacobi identity (`graded_bracket`).  `residual_witness`
names the first ell-monomial where such an identity fails.  The per-sector
compositions (`intertwine_residual`, `graded_commutator`) compose the concrete
operators at one sector and are the reference the identities are checked
against.

Every constructor builds the corrected operator.  The source table prints the
B and C families with their +/- superscripts exchanged (the printed B-/C-
formulas intertwine in the direction claimed for B+/C+ and vice versa);
`printed_delta_report` writes those printed formulas out and decides them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg
from .diffop import (HAMILTONIAN, PHI1_BLOCK, DiffOp, ParamVector, build_hamiltonian,
                     compose, is_zero_op, pv)
from .lpoly import ZERO, LPoly, Mono, Row, quantum_number
from .trigpoly import (COT2, TAN2, TrigPoly, TrigTerm, coordinate_vectors, is_zero,
                       normal_form, proportionality)

F0 = Fraction(0)
F1 = Fraction(1)
HALF = Fraction(1, 2)


# -- charts -------------------------------------------------------------------
# vector: coefficients of (d1, d2) for the chart's azimuthal derivative;
# tan/cot: the chart's tangent and cotangent as TrigPoly monomials.

@dataclass(frozen=True)
class Chart:
    name: str
    d1_coeff: TrigPoly
    d2_coeff: TrigPoly
    tan: TrigPoly
    cot: TrigPoly

    def derivative(self, sign: int) -> DiffOp:
        return DiffOp({(1, 0): self.d1_coeff.scale(sign),
                       (0, 1): self.d2_coeff.scale(sign)})


CHART_PHI = Chart(
    "phi",
    d1_coeff=TrigPoly.constant(1),
    d2_coeff=TrigPoly.zero(),
    tan=TrigPoly.monomial(1, (-1, 1, F0, F0)),
    cot=TrigPoly.monomial(1, (1, -1, F0, F0)),
)

# d_xi1 = -(sin phi1 tan phi2 d1 + cos phi1 d2); tan xi1 = cos phi1 cot phi2
CHART_XI = Chart(
    "xi",
    d1_coeff=TrigPoly.monomial(-1, (F0, 1, -1, 1)),
    d2_coeff=TrigPoly.monomial(-1, (1, F0, F0, F0)),
    tan=TrigPoly.monomial(1, (1, F0, 1, -1)),
    cot=TrigPoly.monomial(1, (-1, F0, -1, 1)),
)

# d_theta1 = -(cos phi1 tan phi2 d1 - sin phi1 d2); tan theta1 = csc phi1 tan phi2
CHART_THETA = Chart(
    "theta",
    d1_coeff=TrigPoly.monomial(-1, (1, F0, -1, 1)),
    d2_coeff=TrigPoly.monomial(1, (F0, 1, F0, F0)),
    tan=TrigPoly.monomial(1, (F0, -1, -1, 1)),
    cot=TrigPoly.monomial(1, (F0, 1, 1, -1)),
)


# -- the family table -------------------------------------------------------------

Shift = tuple[int, int, int]


def _row(*coeffs) -> Row:
    return tuple(Fraction(c) for c in coeffs)


@dataclass(frozen=True)
class Family:
    """One ladder family: X^s = s d_chart + tan_row(ell) tan + cot_row(ell) cot.

    X- shifts the sector by `shift`, X+ by its negative.  The rows are affine
    in ell, (c0, c_l0, c_l1, c_l2).
    """
    chart: Chart
    tan_row: Row
    cot_row: Row
    shift: Shift

    @functools.cached_property
    def symbolic_multiplier(self) -> LPoly:
        """The multiplier as a polynomial in ell, shared by X+ and X-."""
        return LPoly.affine(self.tan_row, self.chart.tan) \
            + LPoly.affine(self.cot_row, self.chart.cot)

    @functools.cached_property
    def ladders(self) -> dict[str, tuple[LPoly, Shift]]:
        """sign -> X± as a polynomial in ell, and its shift: X- acts on ell as the
        table formula at ell, X+ as the formula at its target ell - shift."""
        mult = self.symbolic_multiplier.map(DiffOp.multiplication, DiffOp)
        up = tuple(-d for d in self.shift)
        out = {}
        for sign in "-+":
            op = LPoly(DiffOp, {ZERO: self.chart.derivative(_sgn(sign))}) + mult
            out[sign] = (op, self.shift) if sign == "-" else (op.shift(up), up)
        return out


FAMILIES: dict[str, Family] = {
    # A: -(l0 + 1/2) tan phi1 + (l1 + 1/2) cot phi1
    "A": Family(CHART_PHI, _row(-HALF, -1, 0, 0), _row(HALF, 0, 1, 0), (1, 1, 0)),
    "B": Family(CHART_XI, _row(-HALF, 0, 0, -1), _row(HALF, 1, 0, 0), (1, 0, 1)),
    "C": Family(CHART_THETA, _row(-HALF, 0, 1, 0), _row(HALF, 0, 0, 1), (0, -1, 1)),
}

# tilde family -> (family, reflection axis): each is its family at the reflected sector
TILDES: dict[str, tuple[str, int]] = {"At": ("A", 0), "Bt": ("B", 2), "Ct": ("C", 1)}


def _sgn(sign: str) -> int:
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    return 1 if sign == "+" else -1


def _reflect(v: tuple, axis: int) -> tuple:
    return tuple(-x if i == axis else x for i, x in enumerate(v))


# the phi2 chain M± of the member m = n = 0: ±d2 - a± tan phi2 + (l2 + 1/2) cot phi2,
# a- = l0 + l1 + 1 and a+ = a- + 1 (the tan phi2 d2 term of H shifts the pair by one unit)
CHAIN: dict[str, LPoly] = {
    sign: LPoly(DiffOp, {ZERO: DiffOp({(0, 1): TrigPoly.constant(_sgn(sign))})})
    + (LPoly.affine(_row(-a0, -1, -1, 0), TAN2)
       + LPoly.affine(_row(HALF, 0, 0, 1), COT2)).map(DiffOp.multiplication, DiffOp)
    for sign, a0 in (("-", 1), ("+", 2))}


def build_first_order(name: str, sign: str, ell: ParamVector, *,
                      m: int = 0, n: int = 0) -> DiffOp:
    """Concrete first-order operator at a sector: the table formula X^sign at ell.

    name in {A, B, C, At, Bt, Ct, M}.  Each is the value of a polynomial in
    ell: the ladder families of `symbolic`, and the phi2 chain member M of
    `CHAIN[sign]` at (l0+2m+n, l1, l2+n).  m and n are quantum numbers
    (`quantum_number`) and label only the chain: a ladder family raises
    ValueError for m or n other than 0.
    """
    ell, m, n = pv(*ell), quantum_number(m, "m"), quantum_number(n, "n")
    l0, l1, l2 = ell
    if name == "M":
        _sgn(sign)  # ValueError on a sign other than '+' or '-'
        return CHAIN[sign].at((l0 + 2 * m + n, l1, l2 + n))
    if m or n:
        raise ValueError(f"m and n label the phi2 chain M, not the ladder {name!r}")
    op, shift = _ladder(name + sign)
    # X+ acts as the formula at its target, so the formula at ell is X+ on ell - shift
    return op.at(ell if sign == "-" else tuple(x - d for x, d in zip(ell, shift)))


# -- graded operators -----------------------------------------------------------

@dataclass(frozen=True)
class GradedOp:
    """An operator as a polynomial in ell, with its parameter shift.

    at(ell), the value of `poly` at ell, is the operator *acting on* sector ell
    (so the raising member of a pair is the printed formula at ell - shift of
    its partner); the global normalization of the ladder convention lives in
    `scale`.
    """
    name: str
    shift: Shift
    poly: LPoly
    scale: Fraction = HALF

    def at(self, ell: ParamVector) -> DiffOp:
        return self.poly.at(ell)

    def scaled_at(self, ell: ParamVector) -> DiffOp:
        return self.at(ell).scale(self.scale)

    def scaled(self) -> LPoly:
        """The polynomial with the scale inside."""
        return self.poly.scale(self.scale)

    def target(self, ell: ParamVector) -> ParamVector:
        """The sector this operator maps ell to."""
        return tuple(e + s for e, s in zip(ell, self.shift))


def _ladder(name: str) -> tuple[LPoly, Shift]:
    """X± of a family or tilde family as a polynomial in ell, and its shift."""
    base, axis = TILDES.get(name[:-1], (name[:-1], None))
    if base not in FAMILIES:
        raise ValueError(f"unknown ladder family {name[:-1]!r}")
    if name[-1:] not in FAMILIES[base].ladders:
        raise ValueError(f"no ladder {name!r}")
    op, shift = FAMILIES[base].ladders[name[-1:]]
    return (op, shift) if axis is None else (op.reflect(axis), _reflect(shift, axis))


def symbolic(name: str) -> LPoly:
    """The ladder X± of a family, or of a tilde family (its family's under
    `LPoly.reflect`), as one polynomial in ell; unscaled, like `GradedOp.at`."""
    return _ladder(name)[0]


def graded(name: str) -> GradedOp:
    """Global ladder operator, e.g. graded('A-'): the value of `symbolic(name)`
    at each sector, with its shift."""
    op, shift = _ladder(name)
    return GradedOp(name, shift, op)


LADDER_NAMES = [f + s for f in FAMILIES for s in "-+"]
TILDE_NAMES = [t + s for t in TILDES for s in "-+"]


DIAGONALS: dict[str, Row] = {
    "A": _row(0, -HALF, -HALF, 0),     # -(l0 + l1)/2
    "B": _row(0, -HALF, 0, -HALF),     # -(l0 + l2)/2
    "C": _row(0, 0, HALF, -HALF),      # (l1 - l2)/2
    "D": _row(0, 1, -1, -1),           # l0 - l1 - l2
}


def diagonal(name: str) -> GradedOp:
    """A diagonal generator: multiplication by the affine function DIAGONALS[name]
    of ell, a graded operator of shift 0 and scale 1."""
    if name not in DIAGONALS:
        raise ValueError(f"unknown diagonal operator {name!r}")
    return GradedOp(name, (0, 0, 0), LPoly.affine(DIAGONALS[name], DiffOp.identity()), F1)


DIAGONAL_NAMES = ["A", "B", "C"]


def graded_product(x: GradedOp, y: GradedOp) -> GradedOp:
    """Composite ladder operator X∘Y (e.g. the two-unit shifts A^± At^±): X at
    the target of Y composed with Y, as a polynomial in ell."""
    shift = tuple(a + b for a, b in zip(x.shift, y.shift))
    return GradedOp(f"{x.name}*{y.name}", shift,
                    x.poly.shift(y.shift).product(y.poly, compose), x.scale * y.scale)


def residual_witness(poly: LPoly) -> dict | None:
    """The first ell-monomial whose coefficient in `poly` is not the zero
    operator, with that coefficient's number of normal-form terms; None when
    poly vanishes for every ell in Q^3."""
    for m, op in poly.items():
        if not is_zero_op(op):
            return {"monomial": list(m), "terms": sum(len(normal_form(p)) for _, p in op.items())}
    return None


# -- intertwining ---------------------------------------------------------------

def intertwine_identity(x: GradedOp) -> LPoly:
    """X∘H(ell) - H(ell+shift)∘X as a polynomial in ell: zero iff X intertwines
    exactly at every ell in Q^3; its value at ell is `intertwine_residual(x, ell)`."""
    return x.poly.product(HAMILTONIAN, compose) \
        - HAMILTONIAN.shift(x.shift).product(x.poly, compose)


def intertwine_residual(x: GradedOp, ell: ParamVector) -> DiffOp:
    """X_ell ∘ H_ell - H_(ell+shift) ∘ X_ell, composed at ell; empty iff X
    intertwines exactly at ell."""
    ell = pv(*ell)
    xop = x.at(ell)
    return compose(xop, build_hamiltonian(ell)) - compose(build_hamiltonian(x.target(ell)), xop)


class MultiplierSolveError(ValueError):
    def __init__(self, message: str, residual_report: dict | None = None):
        super().__init__(message)
        self.residual_report = residual_report or {}


def solve_multiplier(vector_part: DiffOp, delta: Shift,
                     ansatz: Sequence[TrigTerm], ell: ParamVector) -> TrigPoly:
    """Find rationals k_i making vector_part + sum k_i g_i an exact intertwiner.

    The residual of X = V + sum k_i g_i against H_ell -> H_(ell+delta) is
    affine in the k_i; its canonical-class coordinates give an exact linear
    system over the rationals.  Raises MultiplierSolveError if the ansatz is
    empty or the system is inconsistent.
    """
    if vector_part.order() > 1:
        raise ValueError("vector part must have order <= 1")
    if vector_part.coeff((0, 0)):
        raise ValueError("vector part must have zero multiplier")
    if not ansatz:
        raise MultiplierSolveError("empty ansatz")
    ell = pv(*ell)

    def residual(x: DiffOp) -> DiffOp:
        return intertwine_residual(GradedOp("X", delta, LPoly(DiffOp, {ZERO: x})), ell)

    base = residual(vector_part)
    cols = [residual(DiffOp.multiplication(TrigPoly.monomial(g.coeff, g.exps)))
            for g in ansatz]

    orders = sorted({k for op in [base, *cols] for k, _ in op.items()})
    row_data = []
    for order in orders:
        polys = [base.coeff(order)] + [c.coeff(order) for c in cols]
        vecs = coordinate_vectors(polys)
        for key in sorted({k for v in vecs for k in v}):
            row_data.append(([v.get(key, F0) for v in vecs[1:]], -vecs[0].get(key, F0)))

    if not row_data:
        return TrigPoly.zero()
    sol = linalg.solve_exact([r for r, _ in row_data], [b for _, b in row_data])
    if sol is None:
        report = {"sector": [str(x) for x in ell], "delta": list(delta),
                  "rows": len(row_data)}
        raise MultiplierSolveError("inconsistent multiplier system", report)
    out = TrigPoly.zero()
    for k, g in zip(sol, ansatz):
        out = out + TrigPoly.monomial(k * g.coeff, g.exps)
    # paranoia: the linear algebra is exact, but verify the operator anyway
    if not is_zero_op(residual(vector_part + DiffOp.multiplication(out))):
        raise MultiplierSolveError("solver produced a non-intertwiner (bug)")
    return out


def multiplier_ansatz(name: str) -> list[TrigTerm]:
    """Ansatz shapes read off the printed multipliers of one family."""
    if name not in FAMILIES:
        raise ValueError(f"unknown ladder family {name!r}")
    chart = FAMILIES[name].chart
    shapes = []
    for p in (chart.tan, chart.cot):
        ((exps, _),) = tuple(p.items())
        shapes.append(TrigTerm(F1, exps))
    return shapes


# -- graded commutators and the structure table -----------------------------------

def graded_commutator(x: GradedOp, y: GradedOp, ell: ParamVector) -> tuple[DiffOp, Shift]:
    """[X, Y] on sector ell, X∘Y - Y∘X composed there with scales, and its shift."""
    ell = pv(*ell)

    def product(a: GradedOp, b: GradedOp) -> DiffOp:
        return compose(a.at(b.target(ell)), b.at(ell)).scale(a.scale * b.scale)

    return product(x, y) - product(y, x), tuple(a + b for a, b in zip(x.shift, y.shift))


def graded_bracket(x: GradedOp, y: GradedOp) -> GradedOp:
    """[X, Y] as a polynomial in ell of unit scale (its scales are inside)."""
    xy, yx = graded_product(x, y), graded_product(y, x)
    return GradedOp(f"[{x.name},{y.name}]", xy.shift, xy.scaled() - yx.scaled(), F1)


def match_constant_multiple(op: DiffOp, cand: DiffOp) -> Fraction | None:
    """c with op == c * cand exactly (semantic equality), else None.

    Each derivative order must give the same ratio of normal forms, so the two
    operators may be written over structurally different monomials.
    """
    shared = None
    for order in {k for k, _ in op.items()} | {k for k, _ in cand.items()}:
        p, q = op.coeff(order), cand.coeff(order)
        c = proportionality(p, q)
        if c is None:
            if is_zero(q) and is_zero(p):
                continue
            return None
        if shared is not None and c != shared:
            return None
        shared = c
    return F0 if shared is None else shared


def constant_part(op: DiffOp) -> Fraction | None:
    """If op is multiplication by an exact constant, return it."""
    return match_constant_multiple(op, DiffOp.identity())


def _scalar(terms: dict[Mono, Fraction]) -> LPoly:
    """The polynomial sum c * l^m over `terms`, as multiples of the identity operator."""
    return LPoly(DiffOp, {m: DiffOp.identity().scale(c) for m, c in terms.items()})


def _read_constant(comm: LPoly, gen: LPoly) -> Fraction:
    """c read off comm == c * gen where gen's coefficient is one function: at
    gen's first ell-monomial and highest derivative order (the first such
    order in sorted order).  For a ladder that is a component of its ell-free
    vector field, for a diagonal generator its first affine coefficient.  c
    reads 0 where comm has no such ratio, so the residual comm - c * gen
    shows the failure."""
    m, op = gen.items()[0]
    order = min(k for k, _ in op.items() if sum(k) == op.order())
    return proportionality(comm.coeff(m).coeff(order), op.coeff(order)) or F0


def structure_table() -> dict:
    """Pairwise commutators of {A±, B±, C±, A, B, C}, for every ell in Q^3.

    Each commutator, a diagonal one too, is formed once as a polynomial in ell
    by `graded_bracket` and read as one rational constant times one generator
    of its shift: the ladder of that shift, or A, B and C in that order for
    shift 0.  A zero commutator is the empty entry; otherwise the entry is
    [(c, X)] for the first generator X whose residual comm - c * X vanishes
    for every ell.  Returns {"table": {...}, "unmatched": [...], "witness":
    {...}}, the witness giving per unmatched key the `residual_witness` of its
    residual against the first generator of its shift (of the commutator
    itself when no generator has that shift).
    """
    lads = [graded(n) for n in LADDER_NAMES]
    diags = [diagonal(n) for n in DIAGONAL_NAMES]
    pairs = [(x, y) for i, x in enumerate(lads) for y in lads[i + 1:]]
    pairs += [(d, y) for d in diags for y in lads]
    table: dict[str, list] = {}
    unmatched, witness = [], {}
    for x, y in pairs:
        key, comm = f"{x.name},{y.name}", graded_bracket(x, y)
        bad = residual_witness(comm.poly)
        if bad is None:
            table[key] = []
            continue
        for i, gen in enumerate(g for g in lads + diags if g.shift == comm.shift):
            c = _read_constant(comm.poly, gen.scaled())
            resid = residual_witness(comm.poly - gen.scaled().scale(c))
            if resid is None:
                table[key] = [(str(c), gen.name)]
                break
            if i == 0:
                bad = resid
        else:
            unmatched.append(key)
            witness[key] = bad
    return {"table": table, "unmatched": unmatched, "witness": witness}


# -- casimir identities -----------------------------------------------------------

SO6_CONSTANT = Fraction(15, 4)
SO6_CONSTANT_PRINTED = Fraction(41, 12)


def _anticommutator(base: str) -> LPoly:
    """{X+, X-} as a polynomial in ell, scales included."""
    minus, plus = graded(base + "-"), graded(base + "+")
    return graded_product(plus, minus).scaled() + graded_product(minus, plus).scaled()


@functools.cache
def casimir_residual(kind: str) -> LPoly:
    """Residual of the quoted quadratic Casimir combination minus the
    Hamiltonian, as a polynomial in ell, built once per kind.

    kinds: su3_esp  -- 4C - D^2/3 + 15/4 - H
           so4_ca   -- {A+,A-} + {At+,At-} + L0^2 + L1^2 + 1 - (phi1 block)
           so6_cass -- sum of six anticommutators + L^2 + SO6_CONSTANT - H
                       (the source prints the constant as SO6_CONSTANT_PRINTED).
    """
    zero = LPoly(DiffOp)
    if kind == "su3_esp":
        a, b, c, d = (diagonal(n).poly for n in (*DIAGONAL_NAMES, "D"))
        cas = sum((graded_product(graded(base + "+"), graded(base + "-")).scaled()
                   for base in FAMILIES), zero)
        diag = sum((x.product(x - _scalar({ZERO: Fraction(3, 2)}), compose) for x in (a, b, c)),
                   zero)
        cas = cas + diag.scale(Fraction(2, 3))
        return cas.scale(4) - d.product(d, compose).scale(Fraction(1, 3)) \
            + _scalar({ZERO: Fraction(15, 4)}) - HAMILTONIAN
    if kind == "so4_ca":
        return _anticommutator("A") + _anticommutator("At") \
            + _scalar({(2, 0, 0): F1, (0, 2, 0): F1, ZERO: F1}) - PHI1_BLOCK
    if kind == "so6_cass":
        return sum((_anticommutator(base) for base in [*FAMILIES, *TILDES]), zero) \
            + _scalar({(2, 0, 0): F1, (0, 2, 0): F1, (0, 0, 2): F1, ZERO: SO6_CONSTANT}) \
            - HAMILTONIAN
    raise ValueError(f"unknown casimir kind {kind!r}")


def casimir_identity(kind: str, ell: ParamVector) -> DiffOp:
    """The Casimir residual `casimir_residual(kind)` at sector ell."""
    return casimir_residual(kind).at(ell)


# -- printed-vs-corrected audit -----------------------------------------------------

PRINTED_EVIDENCE_SECTOR = pv(1, 1, 1)   # the sector each printed residual is shown at


def printed_delta_report() -> list[dict]:
    """Exact evidence for every printed B/C ladder that fails its claimed
    direction, read off its intertwining identity for all ell in Q^3."""
    deltas = []
    for name in ("B-", "B+", "C-", "C+"):
        # the printed B and C vectors are +/-(sin phi1 tan phi2 d1 + cos phi1 d2) =
        # -/+ d_xi1 and +/-(cos phi1 tan phi2 d1 - sin phi1 d2) = -/+ d_theta1: the
        # printed X± is the corrected X∓'s polynomial on X±'s shift
        shift = graded(name).shift
        other = name[:-1] + ("+" if name[-1] == "-" else "-")
        identity = intertwine_identity(GradedOp(name, shift, symbolic(other).shift(shift)))
        if residual_witness(identity) is None:
            continue
        deltas.append({
            "operator": name,
            "issue": "printed +/- superscripts intertwine in the opposite direction",
            "fix": "swap the superscripts (vector-sign flip); multipliers unchanged",
            "evidence_sector": [str(x) for x in PRINTED_EVIDENCE_SECTOR],
            "printed_residual_zero": is_zero_op(identity.at(PRINTED_EVIDENCE_SECTOR)),
            "corrected_residual_zero":
                residual_witness(intertwine_identity(graded(name))) is None,
            # the l-monomials with a nonzero coefficient in the printed residual
            "failure_monomials": [list(m) for m, op in identity.items() if not is_zero_op(op)],
        })
    return deltas
