"""The benchmark's tracer looks up octasphere functions by name; keep them there."""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parent.parent / "bench" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_layers_resolve():
    lt = _layertrace()
    targets = [(layer, path) for layer, funcs in lt.LAYERS.items() for path in funcs.values()]
    targets += [("suites", name) for name in lt.SUITES]
    for layer, path in targets:
        obj = importlib.import_module(f"octasphere.{layer}")
        for attr in path.split("."):
            assert hasattr(obj, attr), f"octasphere.{layer}.{path}"
            obj = getattr(obj, attr)
        assert callable(obj), f"octasphere.{layer}.{path}"


def test_class_reduce_values_have_a_length():
    from octasphere.trigpoly import COS1, SIN2, TrigPoly, class_reduce
    p = COS1 * SIN2 + TrigPoly.monomial(2, (Fraction(1, 2), 0, -3, 1))
    reduced = class_reduce(p)
    assert sum(len(poly) for poly in reduced.values()) >= 2
