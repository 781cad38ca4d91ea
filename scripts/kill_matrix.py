#!/usr/bin/env python3
"""Run `verify --suite all` under each catalogued corruption of the tables
the certifier reads, all in one process, and print one line per mutant.

    PYTHONPATH=src python3 scripts/kill_matrix.py

A mutant replaces one table entry: an entry of a family's tan or cot row
(+1 and +1/2) or of its shift (+1), a tilde's reflection axis, an entry of a
diagonal row or of a phi0 exponent row (+1/2), or the so(6) constant (the
printed 41/12).  It may also replace one of the two operator tables of
`diffop`, doubling one coupling: in `HAMILTONIAN` the l_i^2 part or the -1/4
part of an inverse-square term, the tan phi2 d2 term or the d1^2 coefficient,
or adding 1; in `PHI1_BLOCK` the l0^2 or l1^2 coupling, or adding 1.  Each
line reads KILLED with the number of failed checks and the first of them,
SURVIVED (with the reason for a known survivor), or RAISED with the
exception; the last line counts them and gives the time.  Every
memo is keyed on the rows and generator objects it reads, so a mutant
re-proves only the identities that read what it changed, and no memo is
emptied between mutants.  The exit status is 1 when a mutant raises or a
mutant not in KNOWN_SURVIVORS survives.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import replace
from fractions import Fraction

from octasphere import diffop, hierarchy, operators
from octasphere.diffop import DiffOp
from octasphere.lpoly import ZERO, LPoly
from octasphere.suites import run_suite

HALF = Fraction(1, 2)

_EXCHANGED = ("the sound tilde pair with its superscripts exchanged (X-/+ = -X+/-), "
              "and no check pins which member lowers which coupling; a check of "
              "the ladders derived from H, shifts included, would see it")
_OFF_PLANE = ("an l1 coefficient of a phi2 exponent, and the phi0 identities are proved "
              "only on the plane l1 = 0; a proof of H phi0 = E phi0 for all l "
              "would see it")
# the mutants the report does not see yet, each with the reason
KNOWN_SURVIVORS = {
    "TILDES[At] reflected in l1": _EXCHANGED,
    "TILDES[Bt] reflected in l0": _EXCHANGED,
    "TILDES[Ct] reflected in l2": _EXCHANGED,
    "PHI0_ROWS[2][2] + 1/2": _OFF_PLANE,
    "PHI0_ROWS[3][2] + 1/2": _OFF_PLANE,
}


def _bumped(row: tuple, index: int, delta) -> tuple:
    return row[:index] + (row[index] + delta,) + row[index + 1:]


def _square(axis: int) -> tuple:
    """The exponent triple of l_axis^2."""
    return tuple(2 if i == axis else 0 for i in range(3))


def _operator_mutants() -> list[tuple[str, object, str, object]]:
    """The Hamiltonian and phi1-block mutants, each one coupling doubled or a
    constant added, set on `diffop`, where every module reads them."""
    mutants = []

    def add(name: str, label: str, mono: tuple, op: DiffOp) -> None:
        """diffop.<name> + op * l^mono."""
        table = getattr(diffop, name)
        mutants.append((f"{name} {label}", diffop, name, table + LPoly(DiffOp, {mono: op})))

    h, block = diffop.HAMILTONIAN, diffop.PHI1_BLOCK
    for i in range(3):
        add("HAMILTONIAN", f"l{i}^2 part x2", _square(i), h.coeff(_square(i)))
        add("HAMILTONIAN", f"l{i} -1/4 part x2", ZERO, h.coeff(_square(i)).scale(Fraction(-1, 4)))
    for label, order in (("tan phi2 d2 x2", (0, 1)), ("d1^2 x2", (2, 0))):
        add("HAMILTONIAN", label, ZERO, DiffOp({order: h.coeff(ZERO).coeff(order)}))
    add("HAMILTONIAN", "+ 1", ZERO, DiffOp.identity())
    for i in range(2):
        add("PHI1_BLOCK", f"l{i}^2 part x2", _square(i), block.coeff(_square(i)))
    add("PHI1_BLOCK", "+ 1", ZERO, DiffOp.identity())
    return mutants


def catalogue() -> list[tuple[str, object, str, object]]:
    """Every mutant as (label, table, key, value): it sets table[key] to value,
    table a dict, or an attribute of a module."""
    mutants = []
    for name, fam in operators.FAMILIES.items():
        for field in ("tan_row", "cot_row"):
            for i in range(4):
                for delta in (1, HALF):
                    value = replace(fam, **{field: _bumped(getattr(fam, field), i, delta)})
                    mutants.append((f"FAMILIES[{name}].{field}[{i}] + {delta}",
                                    operators.FAMILIES, name, value))
        for i in range(3):
            mutants.append((f"FAMILIES[{name}].shift[{i}] + 1", operators.FAMILIES, name,
                            replace(fam, shift=_bumped(fam.shift, i, 1))))
    for tilde, (base, axis) in operators.TILDES.items():
        for other in sorted({0, 1, 2} - {axis}):
            mutants.append((f"TILDES[{tilde}] reflected in l{other}", operators.TILDES, tilde,
                            (base, other)))
    for name, row in operators.DIAGONALS.items():
        for i in range(4):
            mutants.append((f"DIAGONALS[{name}][{i}] + 1/2", operators.DIAGONALS, name,
                            _bumped(row, i, HALF)))
    rows = hierarchy.PHI0_ROWS
    for r, row in enumerate(rows):
        for i in range(4):
            mutants.append((f"PHI0_ROWS[{r}][{i}] + 1/2", hierarchy, "PHI0_ROWS",
                            rows[:r] + (_bumped(row, i, HALF),) + rows[r + 1:]))
    mutants.append(("SO6_CONSTANT printed", operators, "SO6_CONSTANT",
                    operators.SO6_CONSTANT_PRINTED))
    return mutants + _operator_mutants()


def verdict(table, key: str, value) -> tuple[str, str]:
    """The outcome of `verify --suite all` with table[key] set to value, the
    table restored afterwards: KILLED, SURVIVED or RAISED, and its detail."""
    is_dict = isinstance(table, dict)
    old = table[key] if is_dict else getattr(table, key)
    if is_dict:
        table[key] = value
    else:
        setattr(table, key, value)
    try:
        rep = run_suite("all", 2)
    except Exception as exc:   # a crash is an outcome of the matrix, not of this script
        traceback.print_exc()
        return "RAISED", f"{type(exc).__name__}: {exc}"
    finally:
        if is_dict:
            table[key] = old
        else:
            setattr(table, key, old)
    if rep["passed"]:
        return "SURVIVED", ""
    failed = [c["name"] for r in rep["suites"] for c in r["checks"] if not c["passed"]]
    if not failed:
        witnessed = [d["issue"] for d in rep["paper_deltas"] if "witness" in d]
        return "KILLED", f"{len(witnessed)} paper deltas with a witness; first: {witnessed[0]}"
    return "KILLED", f"{len(failed)} failed checks; first: {failed[0]}"


def main() -> int:
    start = time.perf_counter()
    counts = {"KILLED": 0, "SURVIVED": 0, "RAISED": 0}
    unexpected = 0
    for label, table, key, value in catalogue():
        outcome, detail = verdict(table, key, value)
        counts[outcome] += 1
        if outcome == "SURVIVED" and label in KNOWN_SURVIVORS:
            detail = "known: " + KNOWN_SURVIVORS[label]
        else:
            unexpected += outcome != "KILLED"
        print(f"{outcome:<8}  {label:<32}  {detail}".rstrip())
    if not run_suite("all", 2)["passed"]:
        raise RuntimeError("the restored tables fail verify")
    print(f"{sum(counts.values())} mutants: " + ", ".join(
        f"{n} {k.lower()}" for k, n in counts.items())
        + f" in {time.perf_counter() - start:.1f} s")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
