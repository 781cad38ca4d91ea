"""Verification suites: every identity the engine certifies, plus the errata.

Each suite returns a deterministic report dict.  The engine builds only the
corrected objects; each erratum's audit writes the printed formula as the
corrected object with its one difference and lists it under "paper_deltas"
with exact evidence.

Each identity proved for all l in Q^3 is proved once per process and the
objects it reads (`operators.verdict_memo`): the twelve intertwinings
(`intertwining_witness`, on the generator and the Hamiltonian), the structure
table (on the six ladder generators and the A, B, C rows), the printed B/C
audit (on the B± and C± generators and the Hamiltonian), antisymmetry
(`_antisymmetry_witness`) and Jacobi (`_jacobi_witness`), each on the
generators it brackets, the A-/C- annihilation of the u(3) fundamental states
(`_annihilation_witness`, on the two generators and `hierarchy.PHI0_ROWS`),
the l1 = 0 superpotentials (`_superpotential_witness`, on the family rows and
the phi0 rows), the Riccati lambda and the kinetic check
(`superpotential.riccati_lambda`, `kinetic_rotation_check`, on the family
rows and the Hamiltonian).  The Casimir residuals are memoised polynomials
(`operators.casimir_residual`).  The per-sector multiplier solves, the state
builds (whose eigenvalue checks read the memoised monomial images of
`diffop.apply_normal_at`) and the float oracles run in every report: they are
the independent cross-checks.  Each builds its sector invariants once per
report: a solve its two Hamiltonians, the adjoint check each sector's state
and norm, the orthogonality check each state's norm, and the quadrature
reads memoised integrand columns, summed afresh.
A replaced table row is a new key; a mutant of code is seen only after
`operators.reset`, which empties every memo here too.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import diffop, hierarchy, operators
from .diffop import DiffOp, apply, apply_normal_at, build_hamiltonian, pv
from .hierarchy import (StateCheckError, closed_form_state, energy,
                        ground_state, jacobi_in_cos2, phi0, phi0_action)
from .inner import (adjoint_residual, inner, mono_inner, mono_inner_quadrature,
                    norm, numeric_oracle_check)
from .lpoly import ZERO, LPoly, Row
from .operators import (DIAGONALS, FAMILIES, LADDER_NAMES, PRINTED_EVIDENCE_SECTOR, PRINTED_NAMES,
                        SO6_CONSTANT_PRINTED, TILDE_NAMES, Family, GradedOp, MultiplierSolveError,
                        build_first_order, casimir_residual, constant_part, graded,
                        graded_bracket, intertwining_witness, multiplier_ansatz,
                        printed_delta_report, residual_witness, solve_multiplier,
                        structure_table, verdict_memo)
from .superpotential import (kinetic_rotation_check, riccati_check, riccati_lambda,
                             simultaneous_superpotentials)
from .trigpoly import SIN1, TrigPoly, TrigTerm, frac_to_str, is_zero, normal_form

SUITE_NAMES = ["algebra", "intertwine", "casimir", "riccati", "hermiticity"]


def _check(name: str, passed: bool, **detail) -> dict:
    return {"name": name, "passed": bool(passed), **detail}


def _at(ell) -> str:
    """A sector as a check name writes it: (1/2,1/3,2)."""
    return "(" + ",".join(map(str, ell)) + ")"


def _verdict(name: str, witness: dict | None, **detail) -> dict:
    """The check of an identity for every l in Q^3, with the witness of a failure."""
    if witness is not None:
        detail["witness"] = witness
    return _check(name, witness is None, **detail)


def _proof(name: str, poly: LPoly, **detail) -> dict:
    """The check that `poly` vanishes for every l in Q^3, with the
    `residual_witness` of a failure."""
    return _verdict(name, residual_witness(poly), **detail)


def _first_failure(polys) -> tuple[list, dict] | None:
    """The first (operators, polynomial) pair whose polynomial does not vanish
    for every l, as its operators and `residual_witness`; None when all vanish."""
    return next(((list(ops), w) for ops, poly in polys
                 if (w := residual_witness(poly)) is not None), None)


def _proof_each(name: str, bad: tuple[list, dict] | None, **detail) -> dict:
    """The check that every identity of a `_first_failure` vanishes: a failure
    names the first failing operators and their witness."""
    if bad is not None:
        detail.update(operators=bad[0], witness=bad[1])
    return _check(name, bad is None, **detail)


def _on_l1_plane(poly: LPoly) -> LPoly:
    """A function-valued polynomial on the plane l1 = 0 (its monomials free of
    l1), as multiplication operators."""
    return LPoly(DiffOp, {m: DiffOp.multiplication(c) for m, c in poly.items() if not m[1]})


# -- intertwine ------------------------------------------------------------------

def suite_intertwine() -> dict:
    checks = [_verdict(f"corrected {name} intertwines exactly for all l in Q^3",
                       intertwining_witness(graded(name), diffop.HAMILTONIAN))
              for name in LADDER_NAMES + TILDE_NAMES]

    # printed audit: B/C printed superscripts intertwine the wrong way, as decided
    # by the delta report for all l and shown at its evidence sector
    deltas = printed_delta_report()
    failing = {d["operator"] for d in deltas if not d["printed_residual_zero"]}
    for name in PRINTED_NAMES:
        checks.append(_check(f"printed {name} fails its claimed direction at "
                             f"{_at(PRINTED_EVIDENCE_SECTOR)}", name in failing))

    # the multiplier solver reproduces every corrected multiplier from scratch
    for fam, family in FAMILIES.items():
        for ell in (pv(1, 2, 0), pv(1, 1, 1), pv(2, 0, 1)):
            name = f"solve_multiplier rebuilds corrected {fam}- multiplier at " \
                f"{tuple(map(str, ell))}"
            try:
                got = solve_multiplier(family.chart.derivative(-1), family.shift,
                                       multiplier_ansatz(fam), ell)
            except MultiplierSolveError as err:
                checks.append(_check(name, False, witness=err.residual_report))
                continue
            checks.append(_check(name, is_zero(got - family.symbolic_multiplier.at(ell))))

    # the u(3) fundamental states phi0 at (m, 0, n): (X phi0)/phi0 vanishes on l1 = 0
    checks.append(_proof_each(
        "A- and C- annihilate u(3) fundamental states for all l in Q^3 with l1 = 0",
        _annihilation_witness((graded("A-"), graded("C-")), hierarchy.PHI0_ROWS)))

    return _report("intertwine", checks, deltas)


@verdict_memo
def _annihilation_witness(ladders: tuple[GradedOp, ...], rows: tuple[Row, ...]):
    """The `_first_failure` of (X phi0)/phi0 on the plane l1 = 0 over the
    ladders, phi0 of exponent rows `rows`; proved once per generators and rows."""
    return _first_failure(((x.name,), _on_l1_plane(phi0_action(x.poly, rows))) for x in ladders)


# -- algebra ---------------------------------------------------------------------

# printed table conflicts: (entry, printed, issue); the computed side is the table entry
_PRINTED_TABLE_CONFLICTS = [
    ("A-,A+", "-2A in the su(2) commutator display but +2A in the full table",
     "sign inconsistency between the two printed sources"),
    ("A+,C+", "listed twice, as -B+ and as B-",
     "duplicated table row with conflicting right-hand sides"),
    ("B-,C+", "C+/2", "printed right-hand side has the wrong generator"),
]


def _entry_str(entry: list | None) -> str:
    """A structure-table entry as printed: [("-1", "B+")] reads -B+, [] reads 0."""
    if entry is None:
        return "unmatched"
    return "".join({"1": "", "-1": "-"}.get(c, c) + name for c, name in entry) or "0"


@verdict_memo
def _antisymmetry_witness(pairs: tuple[tuple[GradedOp, GradedOp], ...]):
    """The `_first_failure` of [X,Y] + [Y,X] over the pairs, proved once per
    generators.  Antisymmetry holds by construction of `graded_bracket`: the
    check tests only the bracket arithmetic."""
    return _first_failure(((x.name, y.name),
                           graded_bracket(x, y).poly + graded_bracket(y, x).poly)
                          for x, y in pairs)


@verdict_memo
def _jacobi_witness(triples: tuple[tuple[GradedOp, GradedOp, GradedOp], ...]):
    """The `_first_failure` of the Jacobi sum [[X,Y],Z] + [[Y,Z],X] + [[Z,X],Y]
    over the triples, each sum one polynomial in l, proved once per generators."""
    return _first_failure(((x.name, y.name, z.name),
                           graded_bracket(graded_bracket(x, y), z).poly
                           + graded_bracket(graded_bracket(y, z), x).poly
                           + graded_bracket(graded_bracket(z, x), y).poly)
                          for x, y, z in triples)


def suite_algebra() -> dict:
    checks = []
    st = structure_table()
    table = st["table"]
    witness = {"witness": st["witness"]} if st["unmatched"] else {}
    checks.append(_check("pairwise commutators close for all l in Q^3",
                         not st["unmatched"], unmatched=st["unmatched"], **witness))

    for base in ("A", "B", "C"):
        got = table.get(f"{base}-,{base}+")
        checks.append(_check(f"[{base}-,{base}+] = -2{base}",
                             got == [("-2", base)], got=got))

    for key, want in (("A-,C-", [("1", "B-")]), ("A+,C+", [("-1", "B+")]),
                      ("A+,B-", [("1", "C-")]), ("A-,B+", [("-1", "C+")]),
                      ("B+,C-", [("-1", "A+")]), ("B-,C+", [("1", "A-")])):
        checks.append(_check(f"[{key}] = {want[0][0]}*{want[0][1]}",
                             table.get(key) == want, got=table.get(key)))

    lads = {n: graded(n) for n in LADDER_NAMES}
    checks.append(_proof_each(
        "antisymmetry [X,Y] + [Y,X] = 0 for all l in Q^3 on three pairs "
        "(tests bracket arithmetic only)",
        _antisymmetry_witness(tuple(
            (lads[x], lads[y]) for x, y in (("A-", "B+"), ("B-", "C+"), ("A+", "C+"))))))
    checks.append(_proof_each(
        "Jacobi identity for all l in Q^3 on three triples",
        _jacobi_witness(tuple(
            tuple(lads[n] for n in tr)
            for tr in (("A-", "A+", "B-"), ("A-", "B+", "C-"), ("B-", "C+", "A+"))))))

    # diagonal relation C = B - A, an identity of the affine rows
    a, b, c = DIAGONALS["A"], DIAGONALS["B"], DIAGONALS["C"]
    cb_ok = c == tuple(y - x for x, y in zip(a, b))
    checks.append(_check("C = B - A on all sectors", cb_ok))

    deltas = [{"entry": f"[{key}]", "printed": printed, "computed": _entry_str(table.get(key)),
               "issue": issue,
               "evidence": "exact structure table, each commutator proved for all l in Q^3"}
              for key, printed, issue in _PRINTED_TABLE_CONFLICTS]
    rep = _report("algebra", checks, deltas)
    rep["structure_constants"] = {k: [list(e) for e in v] for k, v in sorted(table.items())}
    return rep


# -- casimir ---------------------------------------------------------------------

def suite_casimir() -> dict:
    checks = [_proof(f"{kind} residual exactly zero for all l in Q^3", casimir_residual(kind))
              for kind in ("su3_esp", "so4_ca", "so6_cass")]

    def constant(c) -> LPoly:
        return LPoly(DiffOp, {ZERO: DiffOp.identity().scale(c)})

    # printed so(6) constant leaves the exact residual (41/12 - 15/4) = -1/3
    so6 = casimir_residual("so6_cass")
    resid = so6 + constant(SO6_CONSTANT_PRINTED - operators.SO6_CONSTANT)
    checks.append(_proof("printed so(6) constant 41/12 leaves residual -1/3 for all l in Q^3",
                         resid - constant(Fraction(-1, 3)),
                         got=str(constant_part(resid.coeff(ZERO)))))

    # the constant that makes the so(6) residual vanish, read off the residual:
    # SO6_CONSTANT minus its value, when that value is a constant
    delta = {"entry": "so(6) symmetrized casimir constant",
             "printed": frac_to_str(SO6_CONSTANT_PRINTED)}
    value = constant_part(so6.coeff(ZERO))
    witness = residual_witness(so6 - constant(value or 0))
    if witness is not None:
        delta.update(computed="no constant makes the residual vanish",
                     issue="the so(6) residual is not a constant for every l in Q^3",
                     witness=witness)
    else:
        computed = operators.SO6_CONSTANT - value
        delta["computed"] = frac_to_str(computed)
        if computed != SO6_CONSTANT_PRINTED:
            delta["issue"] = "printed constant fails the exact identity; engine value makes " \
                             "the residual vanish for every l in Q^3"
        else:
            delta["issue"] = "printed constant makes the residual vanish for every l in Q^3"
    return _report("casimir", checks, [delta])


# -- riccati ---------------------------------------------------------------------

RICCATI_SPOT = pv(Fraction(1, 2), Fraction(1, 3), 2)   # the sector identity solved afresh
LAMBDA_SECTORS = [pv(0, j, k) for j in range(3) for k in range(3)][:8]   # first 8 of {0..2}^3


def suite_riccati() -> dict:
    lam = riccati_lambda()

    def lam_at(ell) -> Fraction:
        """lambda at a sector of Fractions, summed in ints over one denominator."""
        (n0, d0), (n1, d1), (n2, d2) = ((x.numerator, x.denominator) for x in ell)
        num, den = 0, 1
        for (i, j, k), c in lam.items():
            d = c.denominator * d0 ** i * d1 ** j * d2 ** k
            num, den = num * d + c.numerator * n0 ** i * n1 ** j * n2 ** k * den, den * d
        return Fraction(num, den)

    resid, spot = riccati_check(RICCATI_SPOT)
    ok = lam is not None and not resid and spot == lam_at(RICCATI_SPOT)
    detail = {} if ok else {"witness": {"sector": [str(x) for x in RICCATI_SPOT],
                                        "terms": len(normal_form(resid))}}
    checks = [_check(f"riccati residual exactly zero at {_at(RICCATI_SPOT)}, "
                     "lambda = lambda_l there", ok, **detail)]

    checks.append(_check("lambda_l is an exact polynomial of degree <= 2 for all l in Q^3",
                         lam is not None and all(sum(m) <= 2 for m in lam),
                         closed_form={str(k): frac_to_str(v) for k, v in (lam or {}).items()}))

    kin = kinetic_rotation_check()
    checks.append(_check("vector fields rebuild the kinetic operator", kin["kinetic_identity"]))
    checks.append(_check("raising vector fields close so(3)", kin["so3_closure"],
                         table=kin["commutator_table"]))

    checks.append(_proof_each(
        "one fundamental state feeds all three superpotentials for all l in Q^3 with l1 = 0",
        _superpotential_witness(tuple(FAMILIES.items()), hierarchy.PHI0_ROWS)))

    rep = _report("riccati", checks, [])
    rep["lambda_samples"] = [{"sector": [str(x) for x in ell], "lambda": frac_to_str(lam_at(ell))}
                             for ell in (LAMBDA_SECTORS if lam is not None else [])]
    return rep


@verdict_memo
def _superpotential_witness(families: tuple[tuple[str, Family], ...], rows: tuple[Row, ...]):
    """The `_first_failure` of the `simultaneous_superpotentials` of the family
    rows on the plane l1 = 0, phi0 of exponent rows `rows`; proved once per
    family rows and phi0 rows."""
    return _first_failure(((name,), _on_l1_plane(w))
                          for name, w in simultaneous_superpotentials(families, rows).items())


# -- hermiticity / numerics ---------------------------------------------------------

def _state_check(name: str, measure, bound: float, key: str) -> dict:
    """The check that measure() <= bound, its value recorded under `key`; a state
    that fails its build fails the check with that state's report as the witness."""
    try:
        value = measure()
    except StateCheckError as err:
        return _check(name, False, witness=err.report)
    return _check(name, value <= bound, **{key: value})


def _orthogonality_worst() -> float:
    """The largest normalized overlap of distinct-energy closed forms at (0,0,0);
    each state's norm is taken once."""
    worst = 0.0
    states = [closed_form_state("separated_2d", ((0, 0, 0), m, n))
              for m in range(3) for n in range(3 - m)]
    norms = [norm(s.wavefunction) for s in states]
    for i, s1 in enumerate(states):
        for j in range(i + 1, len(states)):
            s2 = states[j]
            if s1.energy == s2.energy:
                continue
            val = abs(inner(s1.wavefunction, s2.wavefunction))
            val /= norms[i] * norms[j]
            worst = max(worst, val)
    return worst


def _adjoint_worst() -> float:
    """The largest normalized adjoint residual of the corrected ladder pairs on
    admissible closed forms.  Each sector's state f and its norm are built
    once, at its first pair, and read by every family."""
    worst = 0.0
    sources: dict[tuple, tuple[TrigPoly, float]] = {}
    for fam in FAMILIES:
        lowering = graded(fam + "-")
        for ell in (pv(1, 1, 1), pv(2, 1, 0), pv(0, 1, 2)):
            target = lowering.target(ell)
            if min(target) < 0 or min(ell) < 0:
                continue
            if ell not in sources:
                f = closed_form_state("separated_2d", (ell, 1, 0)).wavefunction
                sources[ell] = f, norm(f)
            f, norm_f = sources[ell]
            g = closed_form_state("separated_2d", (target, 0, 1)).wavefunction
            worst = max(worst, adjoint_residual(fam, ell, f, g) / (norm_f * norm(g)))
    return worst


def suite_hermiticity() -> dict:
    checks = [
        # orthogonality of distinct-energy eigenstates of one Hamiltonian
        _state_check("distinct-energy states orthogonal (<= 1e-10 normalized)",
                     _orthogonality_worst, 1e-10, "worst"),
        # hermiticity of the corrected ladder pairs on admissible states
        _state_check("adjoint residuals <= 1e-10 * scale", _adjoint_worst, 1e-10, "worst"),
    ]

    # beta-function integrals against adaptive quadrature
    rng_state = random.Random(20200515)
    worst = 0.0
    for _ in range(50):
        exps = []
        for _i in range(8):
            exps.append(Fraction(rng_state.randint(-1, 8), rng_state.choice((1, 2))))
        t1 = TrigTerm(Fraction(rng_state.randint(1, 5), rng_state.randint(1, 3)), tuple(exps[:4]))
        t2 = TrigTerm(Fraction(1), tuple(exps[4:]))
        try:
            exact = mono_inner(t1, t2)
        except ValueError:
            continue
        quadv = mono_inner_quadrature(t1, t2)
        worst = max(worst, abs(exact - quadv) / max(abs(exact), 1e-300))
    checks.append(_check("beta vs quadrature <= 1e-9 relative on random pairs",
                         worst <= 1e-9, worst=worst))

    # symbolic vs finite-difference application
    pts = [(0.4, 0.7), (0.9, 0.5), (1.1, 1.0)]

    def q1_deviation() -> float:
        q1 = ground_state("so6", (1,))
        return numeric_oracle_check(build_hamiltonian(q1.params), q1.wavefunction, pts)

    checks.append(_state_check("finite-difference oracle on H (q=1 state) <= 1e-6",
                               q1_deviation, 1e-6, "deviation"))
    dev = numeric_oracle_check(DiffOp({(1, 0): TrigPoly.constant(1)}), SIN1, pts)
    checks.append(_check("finite-difference oracle on d/dphi1 <= 1e-7", dev <= 1e-7,
                         deviation=dev))

    return _report("hermiticity", checks, [])


# -- assembly ------------------------------------------------------------------------

def _delta_witness(ell, operator: str, **detail) -> dict:
    """The witness of a failed spectral delta: the sector and the operator of
    the computation that disagreed."""
    return {"witness": {"sector": [str(x) for x in ell], "operator": operator, **detail}}


def spectral_delta_report() -> list[dict]:
    """Spectral/closed-form errata, each re-established by exact computation.

    A delta whose computation does not come out as stated records what it
    found under "computed", with a "witness"; `run_suite` then fails."""
    deltas = []

    # figure-caption energies vs the exact spectrum; a fundamental state that
    # fails its build is named here and fails the hermiticity suite's check
    witness = {}
    try:
        st1, st3 = ground_state("so6", (1,)), ground_state("so6", (3,))
    except StateCheckError as err:
        computed = f"no fundamental state: {err}"
    else:
        computed = f"E_1 = {frac_to_str(st1.energy)} and E_3 = {frac_to_str(st3.energy)}"
        off = next((st for st, want in ((st1, Fraction(35, 4)), (st3, Fraction(99, 4)))
                    if st.energy != want), None)
        if off is not None:
            witness = _delta_witness(off.params, "H")
    deltas.append({
        "entry": "figure-1 caption energies",
        "printed": "E = 5/2 * 3/2 for q=1 and E = 7/2 * 5/2 for q=3",
        "computed": computed,
        "issue": "caption energies conflict with E_q = (q+3/2)(q+5/2); engine values "
                 "from exact application of H to the fundamental states",
        **witness,
    })

    # phi2 Jacobi parameter in the separated closed form: the printed phi2 factor
    # at (0,0,0), m = 0, n = 1 is cos phi2 sin^(1/2) phi2 P_1^(1/2, 1)(cos 2 phi2)
    printed = TrigPoly.monomial(1, (0, 0, 1, Fraction(1, 2))) \
        * jacobi_in_cos2(1, Fraction(1, 2), 1, var=2)
    bad = phi0((0, 0, 0), onedim=True) * printed
    e = energy("E_mn", ell=(0, 0, 0), m=0, n=1)
    if not apply_normal_at(diffop.HAMILTONIAN, pv(0, 0, 0), bad, energy=e):
        computed = f"the printed P_1^(1/2, 1) solves the eigenvalue equation with " \
            f"E={frac_to_str(e)} at (0,0,0), m=0, n=1"
        witness = _delta_witness(pv(0, 0, 0), "H", m=0, n=1)
    else:
        # construction verifies the corrected closed form exactly; a failure is
        # named here and fails the hermiticity suite's checks
        try:
            closed_form_state("separated_2d", ((0, 0, 0), 0, 1))
        except StateCheckError as err:
            computed, witness = f"no corrected closed form: {err}", {"witness": err.report}
        else:
            computed, witness = "P_n^(l2, l0+l1+2m+1)(cos 2 phi2)", {}
    deltas.append({
        "entry": "phi2 Jacobi parameter in the separated eigenfunctions",
        "printed": "P_n^(l2+1/2, l0+l1+2m+1)(cos 2 phi2)",
        "computed": computed,
        "issue": "printed first parameter fails the eigenvalue equation for n >= 1; "
                 "corrected value verified exactly and against the phi2 ladder",
        **witness,
    })

    # phi2 chain ground-state exponent (garbled in print)
    g0 = TrigPoly.monomial(1, (0, 0, 2, Fraction(5, 2)))  # l=(0,0,1), m=0, n=1 reading
    mm = build_first_order("M", "-", pv(0, 0, 1), m=0, n=1)
    if is_zero(apply(mm, g0)):
        computed, witness = "cos^(l0+l1+2m+n+1)", {}
    else:
        computed = "M- does not annihilate cos^2 phi2 sin^(5/2) phi2 at (0,0,1), m=0, n=1"
        witness = _delta_witness(pv(0, 0, 1), "M-", m=0, n=1)
    deltas.append({
        "entry": "phi2 chain fundamental-state cosine exponent",
        "printed": "cos^(l1+l0 phi2+2m+1) (garbled)",
        "computed": computed,
        "issue": "read as l0+l1+2m+n+1; verified by exact annihilation under the "
                 "chain lowering operator",
        **witness,
    })
    return deltas


def _report(suite: str, checks: list, deltas: list) -> dict:
    return {"suite": suite, "passed": all(c["passed"] for c in checks),
            "checks": checks, "paper_deltas": deltas}


def run_suite(name: str, rng: int) -> dict:
    """The report of one suite, or of all of them in SUITE_NAMES order with the
    paper deltas, failing when a suite fails or a delta carries a witness;
    every suite proves its identities for all l, so `rng` is only echoed as
    "range"."""
    fns = {"algebra": suite_algebra, "intertwine": suite_intertwine,
           "casimir": suite_casimir, "riccati": suite_riccati,
           "hermiticity": suite_hermiticity}
    if name == "all":
        reports = [dict(fns[n](), range=rng) for n in SUITE_NAMES]
        deltas = [d for r in reports for d in r["paper_deltas"]] + spectral_delta_report()
        return {"suite": "all", "range": rng,
                "passed": all(r["passed"] for r in reports)
                and not any("witness" in d for d in deltas),
                "suites": reports, "paper_deltas": deltas}
    if name not in fns:
        raise ValueError(f"unknown suite {name!r}")
    return dict(fns[name](), range=rng)
