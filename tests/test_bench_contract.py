"""The benchmark reaches octasphere functions by name; keep them there, with their answers."""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
LAYERTRACE = BENCH / "layertrace.py"


def _bench_module(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _layertrace():
    return _bench_module(LAYERTRACE)


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


def test_bench_readers_keep_their_shapes():
    # bench/run.py counts class_reduce terms; the tracer wraps TrigPoly.scale
    # through the class dict and mono_inner by module name
    from octasphere.inner import mono_inner
    from octasphere.trigpoly import COS1, SIN2, TrigPoly, TrigTerm, class_reduce
    p = COS1 * SIN2 + TrigPoly.monomial(2, (Fraction(1, 2), 0, -3, 1))
    reduced = class_reduce(p)
    for cls, poly in reduced.items():
        assert all(type(x) is Fraction for x in cls)
        assert all(type(x) is Fraction for e in poly for x in e) and len(poly)
    assert callable(TrigPoly.__dict__["scale"])
    t = TrigTerm(Fraction(1), (Fraction(1, 2), 1, 0, Fraction(3, 2)))
    assert mono_inner(t, t) > 0


def test_bench_workloads_reach_the_program(monkeypatch):
    # bench/workloads.py calls operators.build_first_order("M", ...),
    # hierarchy.ladder_build, proportionality, inner.gram and more through module
    # attributes; one small case of each closed_forms step, with its known answer
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    c, state = workloads._phi1(0, 0, 2)
    assert c is not None and c != 0 and state
    c = workloads._phi2(0, 0, 0, 0, 2)
    assert c is not None and c != 0
    assert max(workloads._orthogonality((0, 0, 0))) <= 1e-10
    (rank, _, _), states = workloads._gram(1)
    assert rank == 4 and len(states) == 4


def test_verify_all_reports_the_benchmark_check_count_all_passing():
    # verify_all counts the checks of `verify --suite all --range 2`
    from octasphere.suites import run_suite
    expected = _bench_module(BENCH / "expected.py")
    checks = [c for rep in run_suite("all", 2)["suites"] for c in rep["checks"]]
    assert len(checks) == expected.VERIFY_CHECKS
    assert [c["name"] for c in checks if not c["passed"]] == []
