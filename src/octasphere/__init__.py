"""Exact ladder-operator algebra for the superintegrable system on the two-sphere.

The engine is built on an exact trigonometric-monomial algebra with a
decidable zero test; every operator identity (intertwining, commutators,
Casimir elements, the Riccati-type potential identity) and every eigenvalue
in this package is certified over the rationals.  The IUR counts are exact:
`iur_states` keeps a state only on an exact rank and checks the counts
against the lattice dimension formulas.  The Gram rank of `inner.gram` is a
float oracle with a relative cutoff; it reads too low where the state norms
span more than the cutoff, as for so(4) n = 6, 7 and so(6) q = 6, 7.
"""

from .diffop import DiffOp, apply, build_hamiltonian, compose, is_zero_op, pv
from .hierarchy import (IurLattice, JacobiPoly, StateRecord, closed_form_state,
                        energy, ground_state, iso_energy_decomposition, iur_lattice,
                        iur_states, jacobi, ladder_build, make_state)
from .inner import GramReport, adjoint_residual, gram, mono_inner, norm
from .operators import (GradedOp, build_first_order, casimir_identity,
                        diagonal, graded, graded_commutator, intertwine_residual,
                        solve_multiplier, structure_table)
from .superpotential import kinetic_rotation_check, riccati_check
from .trigpoly import (TrigPoly, TrigTerm, differentiate, eval_numeric, is_zero,
                       linear_combine, mul)

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
