"""Vector-field / multiplier decomposition of the first-order intertwiners.

The three corrected ladder pairs share one multiplier function per family
(X^± = x^± + w with x^- = -x^+), the multipliers are logarithmic actions of
the vector fields on fundamental states, and the squared multipliers rebuild
the potential up to a sector constant -- the two-variable analogue of the
Riccati equation.  This module computes all of that exactly and reports the
sign conventions it finds.  `riccati_check` solves the identity at one
sector; `riccati_lambda` reads the constant lambda(ell) off the same identity
written as one polynomial in ell (the potential read from
`diffop.HAMILTONIAN`), so it holds for every ell in Q^3, and so do the
superpotentials read off the ground-state gauge (`hierarchy.phi0_action`).
Each family's vector field and multiplier are read off its `operators.FAMILIES`
row (`chart.derivative(±1)`, `symbolic_multiplier`), and the Hamiltonian off
`diffop` at the call, so every check here reads the tables from their home.
The two proofs for every ell, `riccati_lambda` and `kinetic_rotation_check`,
are verdict memos on the family rows and the Hamiltonian; `riccati_check`, at
one sector, runs on every call.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from . import diffop
from .diffop import DiffOp, apply, build_hamiltonian, compose, is_zero_op
from .hierarchy import phi0_action
from .lpoly import ZERO, LPoly, Mono, Row, as_sector
from .operators import FAMILIES, Family, match_constant_multiple, verdict_memo
from .trigpoly import ONE, TrigPoly, mul, proportionality

F0 = Fraction(0)


def riccati_check(ell) -> tuple[TrigPoly, Fraction]:
    """Potential identity V = a^2 + (x+ a) + ... + lambda, solved for lambda.

    Returns (residual, lambda): residual is exactly zero when the multiplier
    combination differs from the potential by a constant, and lambda is that
    constant.  A nonzero residual is the failure signal.
    """
    ell = as_sector(ell)
    v = build_hamiltonian(ell).coeff((0, 0))
    comb = TrigPoly.zero()
    for fam in FAMILIES.values():
        w = fam.symbolic_multiplier.at(ell)
        comb = comb + w * w + apply(fam.chart.derivative(1), w)
    diff = v - comb
    lam = proportionality(diff, ONE)
    if lam is None:
        return diff, F0
    return TrigPoly.zero(), lam


def riccati_lambda() -> dict[Mono, Fraction] | None:
    """lambda(ell) with V = sum_f (w_f^2 + x_f w_f) + lambda(ell) for every ell.

    V and the multipliers w_f are polynomials in ell, so V - sum_f(...) is
    one; lambda is read off its coefficients, each of which must be a
    constant function.  Returns {exponent-triple: coeff} over the nonzero
    coefficients, or None if some coefficient is not constant.  Proved once
    per family rows and Hamiltonian (`_riccati_lambda`).
    """
    return _riccati_lambda(tuple(FAMILIES.values()), diffop.HAMILTONIAN)


@verdict_memo
def _riccati_lambda(families: tuple[Family, ...],
                    hamiltonian: LPoly) -> dict[Mono, Fraction] | None:
    diff = hamiltonian.map(lambda op: op.coeff((0, 0)), TrigPoly)
    for fam in families:
        w = fam.symbolic_multiplier
        diff = diff - w.product(w, mul) - w.map(partial(apply, fam.chart.derivative(1)))
    lam = {}
    for m, p in diff.items():
        c = proportionality(p, ONE)
        if c is None:
            return None
        if c:
            lam[m] = c
    return lam


def kinetic_rotation_check() -> dict:
    """Exact checks that the vector parts rebuild the kinetic term and close so(3).

    Returns a report with the residual status of x+ x- summed over the three
    families against the kinetic operator (the derivative terms of the
    ell-free coefficient of `diffop.HAMILTONIAN`), and the signed so(3) table
    of the raising vector fields.  Proved once per family rows and
    Hamiltonian (`_kinetic_rotation_check`).
    """
    return _kinetic_rotation_check(tuple(FAMILIES.items()), diffop.HAMILTONIAN)


@verdict_memo
def _kinetic_rotation_check(families: tuple[tuple[str, Family], ...],
                            hamiltonian: LPoly) -> dict:
    vecs = {name: fam.chart.derivative(1) for name, fam in families}
    total = DiffOp.zero()
    for plus in vecs.values():
        total = total + compose(plus, plus.scale(-1))
    kinetic = DiffOp({k: c for k, c in hamiltonian.coeff(ZERO).items() if k != (0, 0)})
    kinetic_ok = is_zero_op(total - kinetic)

    names = list(vecs)
    table = {}
    closure_ok = True
    for i, xn in enumerate(names):
        for yn in names[i + 1:]:
            comm = compose(vecs[xn], vecs[yn]) - compose(vecs[yn], vecs[xn])
            entry = None
            for zn in names:
                c = match_constant_multiple(comm, vecs[zn])
                if c in (1, -1):
                    entry = ("+" if c > 0 else "-") + zn.lower() + "+"
                    break
            if entry is None:
                closure_ok = False
                entry = "unclosed"
            table[f"[{xn.lower()}+,{yn.lower()}+]"] = entry
    return {"kinetic_identity": kinetic_ok, "so3_closure": closure_ok,
            "commutator_table": table}


def simultaneous_superpotentials(families: tuple[tuple[str, Family], ...],
                                 rows: tuple[Row, ...]) -> dict[str, LPoly]:
    """Case (i): one u(3) fundamental state feeds all three multipliers.

    Per family, x+ phi0 / phi0 minus its multiplier w, a polynomial in ell
    (`phi0_action`); each vanishes on the plane l1 = 0 of the u(3) fundamental
    states (m, 0, n), where X- = -x+ + w annihilates phi0.  The (name, row)
    pairs `families` and phi0's exponent rows `rows` are those of FAMILIES and
    `hierarchy.PHI0_ROWS` in the program.
    """
    return {name: phi0_action(LPoly(DiffOp, {ZERO: fam.chart.derivative(1)}), rows)
            - fam.symbolic_multiplier for name, fam in families}
