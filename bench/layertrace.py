"""Per-layer tracing from outside the program.

The tracer wraps public functions of the octasphere modules without editing
them.  A module-level function is replaced in every ``octasphere`` module
namespace that bound it by name (``compose`` lives in ``diffop`` but is also
bound in ``operators``, ``superpotential`` and the package ``__init__``), so a
call is counted whichever name the caller used.  Methods are wrapped on their
class.  Each wrapped call is a span; its self time is its duration minus the
durations of the wrapped calls it made.  Spans are folded into per-function
totals as they close: a full span list would hold over half a million
entries on ``verify_all`` and would itself move the peak memory being measured.
"""

from __future__ import annotations

import sys
import time

# module -> {metric name: attribute path}; a dotted path names a class method
LAYERS = {
    "trigpoly": {
        "mul": "mul",
        "add": "TrigPoly.__add__",
        "scale": "TrigPoly.scale",
        "differentiate": "differentiate",
        "is_zero": "is_zero",
        "class_reduce": "class_reduce",
        "coordinate_vectors": "coordinate_vectors",
    },
    "diffop": {n: n for n in ("compose", "apply", "is_zero_op", "build_hamiltonian")},
    "operators": {n: n for n in (
        "intertwine_residual", "graded_commutator", "casimir_identity",
        "structure_table", "match_constant_multiple", "constant_part",
        "solve_multiplier")},
    "hierarchy": {n: n for n in (
        "ladder_build", "make_state", "iur_states", "closed_form_state", "jacobi",
        "proportionality", "state_to_obj")},
    "linalg": {n: n for n in ("rank_exact", "solve_exact")},
    "inner": {n: n for n in (
        "inner", "mono_inner", "mono_inner_quadrature", "gram", "adjoint_residual")},
    "superpotential": {n: n for n in ("riccati_check", "kinetic_rotation_check")},
}

# suites are reported by inclusive time only, as suites.<name>.s
SUITES = ["suite_algebra", "suite_intertwine", "suite_casimir", "suite_riccati",
          "suite_hermiticity", "spectral_delta_report"]


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "octasphere" or name.startswith("octasphere."))]


class Tracer:
    """Counts calls and accumulates self and inclusive time per wrapped function.

    Use as a context manager: the wrappers are installed on entry and the
    original functions restored on exit.
    """

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.mul_terms_max = 0
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _targets(self):
        for layer, funcs in LAYERS.items():
            for metric, path in funcs.items():
                yield f"{layer}.{metric}", layer, path
        for name in SUITES:
            yield f"suites.{name.removeprefix('suite_')}", "suites", name

    def _wrap(self, key: str, fn):
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        stack = self._stack
        clock = time.perf_counter
        observe_mul = key == "trigpoly.mul"
        calls[key] = 0
        self_s[key] = total_s[key] = 0.0

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                calls[key] += 1
                self_s[key] += dt - frame[0]
                total_s[key] += dt
            if observe_mul:
                self.mul_terms_max = max(self.mul_terms_max, len(args[0]),
                                         len(args[1]), len(out))
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def __enter__(self):
        modules = _package_modules()
        for key, layer, path in self._targets():
            mod = sys.modules[f"octasphere.{layer}"]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(key, orig))
                continue
            orig = getattr(mod, path)
            wrapped = self._wrap(key, orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._undo.append((m, attr, orig))
                        setattr(m, attr, wrapped)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)
        return False
