"""Expected answers, written by hand from the README and the paper, never read
back from the engine, plus an independent float evaluator for the emitted
state JSON.
"""

from __future__ import annotations

import math

# -- verify_all --------------------------------------------------------------

VERIFY_CHECKS = 53

# The errata the report must flag, by name: the four printed B/C ladder
# superscripts, the three commutator-table conflicts, the so(6) Casimir
# constant, and the three spectral slips (caption energies, the phi2 Jacobi
# parameter, the garbled phi2 ground-state exponent).
PAPER_DELTAS = [
    "B-", "B+", "C-", "C+",
    "[A-,A+]", "[A+,C+]", "[B-,C+]",
    "so(6) symmetrized casimir constant",
    "figure-1 caption energies",
    "phi2 Jacobi parameter in the separated eigenfunctions",
    "phi2 chain fundamental-state cosine exponent",
]

# [X-, X+] = -2X for the three diagonal generators
STRUCTURE_CONSTANTS = {
    "A-,A+": [["-2", "A"]],
    "B-,B+": [["-2", "B"]],
    "C-,C+": [["-2", "C"]],
}

# -- iur_so6_q4 ----------------------------------------------------------------

SO6_Q = 4
SO6_STATES = 105                        # (q+1)(q+2)^2(q+3)/12 at q = 4
SO6_ENERGY = "143/4"                    # (q+3/2)(q+5/2) at q = 4


def so6_multiplicities(q: int) -> dict[tuple[int, int, int], int]:
    """Multiplicity t+1 on the octahedral shell |l0|+|l1|+|l2| = q-2t."""
    out = {}
    for t in range(q // 2 + 1):
        s = q - 2 * t
        for l0 in range(-s, s + 1):
            for l1 in range(-s, s + 1):
                for l2 in range(-s, s + 1):
                    if abs(l0) + abs(l1) + abs(l2) == s:
                        out[(l0, l1, l2)] = t + 1
    return out


# -- closed_forms --------------------------------------------------------------

ORTHOGONALITY_TOL = 1e-10


def so4_gram_rank(n: int) -> int:
    return (n + 1) ** 2


# Verdicts known to fail at the seed: the so(4) Gram matrix is exactly
# diagonal, but its norms span more than the 1e-9 relative rank cutoff, so the
# float rank reads 43 for n = 6 and n = 7.  They count as failed; they do not
# make the run incorrect.  Exact inner products are the fix.
KNOWN_DEFECTS = {"so4_gram_rank_n6", "so4_gram_rank_n7"}


# -- independent float check of H psi = E psi ------------------------------------

FD_STEP = 1e-3
FD_TOL = 1e-6
FD_POINTS = [(0.41, 0.67), (0.93, 0.38)]


def _frac(s: str) -> float:
    num, den = s.split("/")
    return int(num) / int(den)


class FloatState:
    """A state read from its JSON export, evaluated in floating point."""

    def __init__(self, obj: dict):
        self.params = [_frac(x) for x in obj["params"]]
        self.energy = _frac(obj["energy"])
        self.terms = [(_frac(t["coeff"]), [_frac(e) for e in t["exps"]])
                      for t in obj["wavefunction"]["terms"]]

    def _monomials(self, x: float, y: float):
        c1, s1, c2, s2 = math.cos(x), math.sin(x), math.cos(y), math.sin(y)
        return (c * c1 ** a * s1 ** b * c2 ** cc * s2 ** d for c, (a, b, cc, d) in self.terms)

    def value(self, x: float, y: float) -> float:
        return sum(self._monomials(x, y))

    def magnitude(self, x: float, y: float) -> float:
        return sum(abs(t) for t in self._monomials(x, y))

    def h_residual(self, x: float, y: float, h: float = FD_STEP) -> float:
        """|H psi - E psi| / (E * sum |terms|) at (x, y), with derivatives by
        sixth-order central differences and

            H = -d2^2 + tan(y) d2 + (l2^2 - 1/4) csc^2 y
                + sec^2 y [-d1^2 + (l0^2 - 1/4) sec^2 x + (l1^2 - 1/4) csc^2 x].
        """
        l0, l1, l2 = self.params
        f = self.value
        w2 = (2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0)
        w1 = (-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0)
        offs = range(-3, 4)
        fx = [f(x + k * h, y) for k in offs]
        fy = [f(x, y + k * h) for k in offs]
        d11 = sum(w * v for w, v in zip(w2, fx)) / (180 * h * h)
        d22 = sum(w * v for w, v in zip(w2, fy)) / (180 * h * h)
        d2 = sum(w * v for w, v in zip(w1, fy)) / (60 * h)
        psi = fx[3]
        sec2x, csc2x = 1 / math.cos(x) ** 2, 1 / math.sin(x) ** 2
        sec2y, csc2y = 1 / math.cos(y) ** 2, 1 / math.sin(y) ** 2
        hpsi = (-d22 + math.tan(y) * d2 + (l2 * l2 - 0.25) * csc2y * psi
                + sec2y * (-d11 + ((l0 * l0 - 0.25) * sec2x
                                   + (l1 * l1 - 0.25) * csc2x) * psi))
        scale = self.energy * self.magnitude(x, y)
        return abs(hpsi - self.energy * psi) / scale
