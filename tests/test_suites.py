"""Verification reports: a failing check names its first counterexample."""

import ast
import importlib
import json
import math
import pkgutil
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import octasphere
from octasphere import cli, diffop, hierarchy, operators, suites, superpotential, trigpoly
from octasphere.diffop import HAMILTONIAN, DiffOp, pv
from octasphere.lpoly import ZERO, LPoly
from octasphere.superpotential import riccati_check
from octasphere.trigpoly import TrigPoly, frac_to_str


def _check(rep, prefix):
    return next(c for c in rep["checks"] if c["name"].startswith(prefix))


def test_passing_algebra_report_carries_no_counterexample():
    rep = suites.suite_algebra()
    assert rep["passed"]
    assert all("counterexample" not in c and "witness" not in c for c in rep["checks"])


def test_a_failed_antisymmetry_proof_names_its_pair_and_witness(monkeypatch, fresh_memos):
    # products in place of brackets: XY + YX no longer vanishes
    monkeypatch.setattr(suites, "graded_bracket", operators.graded_product)
    check = _check(suites.suite_algebra(), "antisymmetry")
    assert not check["passed"]
    assert check["operators"] == ["A-", "B+"]
    assert check["witness"] == {"monomial": [0, 0, 0], "terms": 7}


def test_a_failed_jacobi_proof_names_its_first_triple_and_witness(monkeypatch, fresh_memos):
    # products in place of brackets: the Jacobi sum no longer vanishes
    monkeypatch.setattr(suites, "graded_bracket", operators.graded_product)
    check = _check(suites.suite_algebra(), "Jacobi")
    assert not check["passed"]
    assert check["operators"] == ["A-", "A+", "B-"]
    assert check["witness"] == {"monomial": [0, 0, 0], "terms": 19}


def _break_family_a(monkeypatch):
    # an extra l2 cot(phi1) term in A's multiplier
    fam = operators.FAMILIES["A"]
    monkeypatch.setitem(operators.FAMILIES, "A",
                        replace(fam, cot_row=fam.cot_row[:3] + (Fraction(1),)))


def test_a_broken_family_fails_the_finite_difference_check_instead_of_raising(monkeypatch):
    _break_family_a(monkeypatch)
    check = _check(suites.suite_hermiticity(), "finite-difference oracle on H")
    assert not check["passed"]
    assert check["witness"] == {"sector": ["0", "0", "1"], "operator": "A-",
                                "witness": {"monomial": [0, 0, 1], "terms": 1}}
    with pytest.raises(ValueError, match=r"A- does not annihilate .* at \(0/1, 0/1, 1/1\)"):
        hierarchy.ground_state("so6", (1,))
    assert cli.main(["verify", "--suite", "all"]) == 1


def test_a_broken_family_gets_its_casimir_residuals_built_afresh(monkeypatch):
    # the residuals are cached on the rows and generators they are built from,
    # not on the kind name: no stale verdict before or after the break
    assert suites.suite_casimir()["passed"]
    with monkeypatch.context() as patch:
        _break_family_a(patch)
        assert not suites.suite_casimir()["passed"]
    assert suites.suite_casimir()["passed"]


def test_a_broken_family_is_proved_afresh_not_served_by_name(monkeypatch):
    assert len(hierarchy.iur_states("so6", (1,))) == 6   # proves the sound A+
    _break_family_a(monkeypatch)
    ell = pv(0, 0, 1)
    start = hierarchy.StateRecord(ell, {}, hierarchy.phi0(ell), hierarchy.energy("E_q", q=1))
    with pytest.raises(ValueError, match=r"^A\+ does not intertwine") as err:
        hierarchy.ladder_build(start, ["A+"])
    assert err.value.report["witness"] == {"monomial": [0, 0, 1], "terms": 4}
    with pytest.raises(ValueError, match="A- does not annihilate"):
        hierarchy.iur_states("so6", (1,))


def _so6_constant_delta() -> dict:
    (delta,) = suites.suite_casimir()["paper_deltas"]
    return delta


def test_the_so6_constant_delta_reads_its_constant_off_the_residual(monkeypatch):
    # with the printed constant in the engine the so6_cass residual is -1/3,
    # so the constant that makes it vanish is still 41/12 + 1/3 = 15/4
    monkeypatch.setattr(operators, "SO6_CONSTANT", Fraction(41, 12))
    delta = _so6_constant_delta()
    assert (delta["printed"], delta["computed"]) == ("41/12", "15/4")
    assert delta["issue"].startswith("printed constant fails") and "witness" not in delta


def test_a_printed_constant_that_makes_the_residual_vanish_does_not_fail(monkeypatch):
    monkeypatch.setattr(suites, "SO6_CONSTANT_PRINTED", Fraction(15, 4))
    delta = _so6_constant_delta()
    assert (delta["printed"], delta["computed"]) == ("15/4", "15/4")
    assert "fails" not in delta["issue"] and "witness" not in delta


def test_a_so6_residual_that_is_not_a_constant_gets_a_witness(monkeypatch):
    _doubled("HAMILTONIAN", (2, 0, 0))(monkeypatch)
    delta = _so6_constant_delta()
    assert delta["witness"] == {"monomial": [2, 0, 0], "terms": 1}
    assert "fails" not in delta["issue"]
    assert not suites.run_suite("all", 2)["passed"]


def test_a_compose_that_drops_the_binomial_weights_fails_the_report(monkeypatch, fresh_memos):
    # the Leibniz products d^k (c d^m) = sum_j C(k, j) (d^j c) d^(k-j+m), each
    # with weight 1: wrong wherever a second-order term meets a non-constant
    # coefficient; the memos are empty, so every composing check runs on it
    def compose_unweighted(x, y):
        tables = {m: {(0, 0): cy} for m, cy in y.items()}
        acc = {}
        for (k1, k2), cx in x.items():
            for (m1, m2), derivs in tables.items():
                for j1 in range(k1 + 1):
                    for j2 in range(k2 + 1):
                        acc.setdefault((k1 - j1 + m1, k2 - j2 + m2), []).append(
                            (1, cx, diffop._derivative(derivs, j1, j2)))
        return DiffOp._raw({k: trigpoly.sum_of_products(t) for k, t in acc.items()})

    for module in (diffop, operators, superpotential):
        monkeypatch.setattr(module, "compose", compose_unweighted)
    assert not suites.run_suite("all", 2)["passed"]


def test_a_sum_that_skips_the_common_denominator_fails_the_report_and_the_lattice(monkeypatch,
                                                                                  fresh_memos):
    # the one linear accumulation of trigpoly with each part added over its own
    # denominator, not brought to the lcm: wrong wherever the parts' denominators
    # differ; the memos are empty, so every check and ladder step runs on it
    # (diffop.apply_normal_at sums its image tables itself; test_diffop pins
    # that sum term for term against this accumulation)
    def sum_unscaled(parts):
        kept, den = [], 1
        for w, d, terms in parts:
            if type(w) is not int:
                w, wd = trigpoly._ratio(w)
                d *= wd
            if w and terms:
                kept.append((w, terms))
                den = math.lcm(den, d)
        acc = {}
        for w, terms in kept:
            for e, v in terms.items():
                acc[e] = acc.get(e, 0) + w * v
        return trigpoly._reduced(acc, den)

    for module in (trigpoly, hierarchy):
        monkeypatch.setattr(module, "_sum", sum_unscaled)
    assert not suites.run_suite("all", 2)["passed"]
    operators.reset()
    with pytest.raises(hierarchy.StateCheckError):
        hierarchy.iur_states("so6", (3,))


def _shift_row(name, row, index, delta):
    """A mutant adding delta to entry `index` of a family row (c0, c_l0, c_l1, c_l2)."""
    def mutate(patch):
        fam = operators.FAMILIES[name]
        old = getattr(fam, row)
        patch.setitem(operators.FAMILIES, name, replace(
            fam, **{row: old[:index] + (old[index] + delta,) + old[index + 1:]}))
    return mutate


def _doubled(name, mono):
    """A mutant doubling the l^mono coefficient of diffop.<name> (HAMILTONIAN or
    PHI1_BLOCK), set where every module reads it."""
    def mutate(patch):
        table = getattr(diffop, name)
        patch.setattr(diffop, name, table + LPoly(DiffOp, {mono: table.coeff(mono)}))
    return mutate


# catalogued corruptions of the tables the memos read:
# (mutant, breaks the so(6) ladders, failed checks of `verify --suite all`)
DATA_MUTANTS = {
    "B_tan_c0_plus_half": (_shift_row("B", "tan_row", 0, Fraction(1, 2)), True, 19),
    "C_cot_l2_plus_one": (_shift_row("C", "cot_row", 3, 1), True, 22),
    "A_cot_l1_plus_half": (_shift_row("A", "cot_row", 2, Fraction(1, 2)), True, 21),
    "Ct_reflected_in_l0": (lambda patch: patch.setitem(operators.TILDES, "Ct", ("C", 0)),
                           False, 2),
    "diagonal_A_l2_one": (lambda patch: patch.setitem(
        operators.DIAGONALS, "A", operators.DIAGONALS["A"][:3] + (Fraction(1),)), False, 4),
    "so6_constant_printed": (lambda patch: patch.setattr(
        operators, "SO6_CONSTANT", Fraction(41, 12)), False, 1),
    "hamiltonian_l0_squared_doubled": (_doubled("HAMILTONIAN", (2, 0, 0)), True, 22),
    "phi1_block_l1_squared_doubled": (_doubled("PHI1_BLOCK", (0, 2, 0)), True, 4),
}


def _failed_verify_checks(capsys) -> tuple[int, int]:
    """The exit code of `verify --suite all` and its number of failed checks."""
    code = cli.main(["verify", "--suite", "all"])
    return code, capsys.readouterr().out.count("[FAIL]")


@pytest.mark.parametrize("mutant", list(DATA_MUTANTS))
def test_a_data_mutant_fails_verify_through_warm_memos(mutant, monkeypatch, capsys):
    # every memo is keyed on the rows and objects it reads, so with the memos
    # warm and none cleared a corrupted table is proved afresh, and the
    # restored table is served its sound verdicts again
    mutate, breaks_ladders, failed = DATA_MUTANTS[mutant]
    assert _failed_verify_checks(capsys) == (0, 0)
    hierarchy.iur_states("so6", (2,))
    with monkeypatch.context() as patch:
        mutate(patch)
        assert _failed_verify_checks(capsys) == (1, failed)
        if breaks_ladders:
            with pytest.raises(ValueError):
                hierarchy.iur_states("so6", (2,))
    assert _failed_verify_checks(capsys) == (0, 0)
    assert len(hierarchy.iur_states("so6", (2,))) == 20


@pytest.mark.parametrize("mono", [(2, 0, 0), (0, 2, 0), (0, 0, 2)])
def test_no_all_l_intertwining_passes_beside_a_failed_rebuild_of_its_ladder(mono, monkeypatch):
    # the proofs for all l read the Hamiltonian the per-sector rebuilds read:
    # under a changed coupling, no "for all l" claim stands beside a failed
    # solve_multiplier rebuild of the same ladder
    _doubled("HAMILTONIAN", mono)(monkeypatch)
    checks = suites.run_suite("intertwine", 2)["checks"]
    passed = {c["name"] for c in checks if c["passed"]}
    rebuilds = [c["name"].split()[3] for c in checks
                if c["name"].startswith("solve_multiplier rebuilds") and not c["passed"]]
    assert rebuilds
    assert not [x for x in rebuilds
                if f"corrected {x} intertwines exactly for all l in Q^3" in passed]


def _counted(monkeypatch, names) -> dict[str, int]:
    """The calls of each operators.<name>, counted through a wrapper."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _real=getattr(operators, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(operators, name, counted)
    return calls


def test_a_warm_report_forms_no_product_or_intertwining_identity(monkeypatch):
    # every identity the report proves for all l is a verdict memo on the
    # generator objects: proved once cold, then read off the memos
    operators.reset()
    calls = _counted(monkeypatch, ("graded_product", "intertwine_identity"))
    cold = json.dumps(suites.run_suite("all", 2), sort_keys=True)
    assert all(calls.values()), calls
    calls.update(dict.fromkeys(calls, 0))
    warm = json.dumps(suites.run_suite("all", 2), sort_keys=True)
    assert calls == {"graded_product": 0, "intertwine_identity": 0}
    assert warm == cold


def test_a_warm_report_derives_no_phi0_riccati_or_kinetic_identity(monkeypatch):
    # the annihilation and superpotential proofs, the Riccati lambda and the
    # kinetic check are verdict memos on the rows and generators they read:
    # proved once cold, then read off the memos, with no phi0 action, product
    # or composition formed
    operators.reset()
    calls = {"phi0_action": 0, "mul": 0, "compose": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    phi0_action = counted("phi0_action", hierarchy.phi0_action)
    for module in (hierarchy, superpotential):
        monkeypatch.setattr(module, "phi0_action", phi0_action)
    for name in ("mul", "compose"):
        monkeypatch.setattr(superpotential, name, counted(name, getattr(superpotential, name)))
    memos = (suites._superpotential_witness, superpotential._riccati_lambda,
             superpotential._kinetic_rotation_check)
    cold = json.dumps(suites.run_suite("all", 2), sort_keys=True)
    # A- on l1 = 0 and on all of Q^3, C- on l1 = 0 (shared by the suite's check
    # and the so(6) fundamental states) and At- on l0 = 0; three superpotentials
    assert calls["phi0_action"] == 7 and calls["mul"] and calls["compose"], calls
    assert hierarchy.annihilation_witness.cache_info().misses == 4
    assert [memo.cache_info().misses for memo in memos] == [1] * len(memos)
    calls.update(dict.fromkeys(calls, 0))
    warm = json.dumps(suites.run_suite("all", 2), sort_keys=True)
    assert calls == {"phi0_action": 0, "mul": 0, "compose": 0}
    assert hierarchy.annihilation_witness.cache_info().misses == 4
    assert [memo.cache_info().misses for memo in memos] == [1] * len(memos)
    assert warm == cold


def test_each_multiplier_solve_builds_its_two_hamiltonians_once(monkeypatch):
    # the per-sector solves run in every report, each composing its residuals
    # with one H(l) and one H(l + delta)
    builds, per_solve = [0], []
    real_build, real_solve = operators.build_hamiltonian, suites.solve_multiplier

    def build(ell):
        builds[0] += 1
        return real_build(ell)

    def solve(*args):
        before = builds[0]
        out = real_solve(*args)
        per_solve.append(builds[0] - before)
        return out

    monkeypatch.setattr(operators, "build_hamiltonian", build)
    monkeypatch.setattr(suites, "solve_multiplier", solve)
    for _ in range(2):
        assert suites.run_suite("intertwine", 2)["passed"]
    assert per_solve == [2] * 18


def _package_memos() -> dict[str, object]:
    """Every memo of the package by its qualified name: each object with a
    `cache_info` defined in an `octasphere` module, every module imported."""
    memos = {}
    for info in pkgutil.iter_modules(octasphere.__path__):
        module = importlib.import_module(f"octasphere.{info.name}")
        memos.update((f"{info.name}.{name}", obj) for name, obj in vars(module).items()
                     if hasattr(obj, "cache_info") and obj.__module__ == module.__name__)
    return memos


def test_one_reset_reproves_every_memo_and_keeps_no_entry(monkeypatch, capsys):
    # a code mutant is no new key; `reset` empties every memo, so the mutant
    # and then the restored code are each proved afresh, and no entry built
    # on the discarded generators is kept
    def bracket_without_yx(x, y):
        return replace(operators.graded_product(x, y), name=f"[{x.name},{y.name}]")

    memos = _package_memos()
    assert {name.partition(".")[0] for name in memos} \
        >= {"diffop", "inner", "operators", "suites", "superpotential", "trigpoly"}
    operators.reset()
    assert _failed_verify_checks(capsys) == (0, 0)
    filled = {name for name, memo in memos.items() if memo.cache_info().currsize}
    with monkeypatch.context() as patch:
        patch.setattr(operators, "graded_bracket", bracket_without_yx)
        operators.reset()
        assert _failed_verify_checks(capsys)[0] == 1
    operators.reset()
    assert {name: memo.cache_info().currsize for name, memo in memos.items()} \
        == dict.fromkeys(memos, 0)
    assert _failed_verify_checks(capsys) == (0, 0)
    assert {name for name, memo in memos.items() if memo.cache_info().currsize} == filled


def _sign_flipped_pythagoras(real):
    """`trigpoly._pythagoras` with the sign of its polynomial part flipped for i < 0 <= j."""
    def flipped(i, j):
        out = real(i, j)
        if i < 0 <= j:
            return tuple((a, b, -c if a == 0 else c) for a, b, c in out)
        return out
    return flipped


def test_a_code_mutant_of_the_normal_form_serves_no_stale_image_after_reset(monkeypatch, capsys):
    # a code mutant is no new key of the eigenvalue proofs for every ell, nor of
    # the monomial images the per-sector oracle reads; `reset` empties them and
    # the normal-form basis table, so the mutant is seen at once by both, and
    # the restored code is proved afresh
    def oracle():
        return hierarchy.make_state((0, 0, 1), {}, hierarchy.phi0((0, 0, 1)),
                                    hierarchy.energy("E_q", q=1))

    operators.reset()
    assert len(hierarchy.iur_states("so6", (2,))) == 20
    oracle()
    memos = (hierarchy._separated_witness, diffop._flat, diffop._monomial_image)
    assert all(memo.cache_info().currsize for memo in memos)
    with monkeypatch.context() as patch:
        patch.setattr(trigpoly, "_pythagoras", _sign_flipped_pythagoras(trigpoly._pythagoras))
        operators.reset()
        with pytest.raises(hierarchy.StateCheckError,
                           match="eigenvalue equation .* does not hold for all l"):
            hierarchy.iur_states("so6", (2,))
        with pytest.raises(hierarchy.StateCheckError, match="eigenvalue equation"):
            oracle()
    operators.reset()
    assert len(hierarchy.iur_states("so6", (2,))) == 20
    oracle()
    assert _failed_verify_checks(capsys) == (0, 0)


@pytest.mark.parametrize("alone_first", [True, False])
@pytest.mark.parametrize("name", suites.SUITE_NAMES)
def test_a_suite_alone_is_its_entry_in_the_full_report(name, alone_first):
    # the suites share memos, so whichever proves an identity first, the
    # report of a suite does not depend on the order
    operators.reset()
    if alone_first:
        alone = suites.run_suite(name, 2)
        full = suites.run_suite("all", 2)
    else:
        full = suites.run_suite("all", 2)
        alone = suites.run_suite(name, 2)
    assert alone == full["suites"][suites.SUITE_NAMES.index(name)]


def _printed_phi2_factor(monkeypatch):
    """The phi2 Jacobi factor with the printed first parameter l2 + 1/2, set
    where the closed forms and their proofs read it (a code mutant: the test
    takes `fresh_memos`)."""
    real = hierarchy._factor

    def printed(var, m, n):
        deg, (alpha, beta), pre = real(var, m, n)
        return (deg, ((alpha[0] + Fraction(1, 2),) + alpha[1:], beta), pre) if var == 2 \
            else (deg, (alpha, beta), pre)

    monkeypatch.setattr(hierarchy, "_factor", printed)


def test_a_failing_closed_form_fails_the_report_instead_of_raising(monkeypatch, fresh_memos):
    _printed_phi2_factor(monkeypatch)
    rep = suites.run_suite("all", 2)
    assert not rep["passed"]
    herm = next(r for r in rep["suites"] if r["suite"] == "hermiticity")
    # the first state each check builds at level n >= 1 fails the phi2 part of
    # its proof for every l, at its first l-monomial
    witness = {"part": "phi2", "monomial": [0, 0, 0], "terms": 1}
    for prefix, sector in (("distinct-energy states orthogonal", ["0", "0", "0"]),
                           ("adjoint residuals", ["2", "2", "1"])):
        check = _check(herm, prefix)
        assert not check["passed"] and "worst" not in check
        assert check["witness"] == {"sector": sector, "operator": "H", "witness": witness}
    delta = next(d for d in rep["paper_deltas"] if d.get("entry", "").startswith("phi2 Jacobi"))
    assert delta["computed"].startswith("no corrected closed form: eigenvalue equation")
    assert delta["witness"] == {"sector": ["0", "0", "0"], "operator": "H", "witness": witness}
    assert cli.main(["verify", "--suite", "all"]) == 1


def _spectral_delta(rep, prefix):
    return next(d for d in rep["paper_deltas"] if d.get("entry", "").startswith(prefix))


def test_passing_spectral_deltas_carry_no_witness():
    assert all("witness" not in d for d in suites.spectral_delta_report())


def test_an_off_ground_energy_fails_the_report_instead_of_raising(monkeypatch):
    real = suites.ground_state

    def shifted(kind, params):
        st = real(kind, params)
        return replace(st, energy=st.energy + 1) if params == (3,) else st

    monkeypatch.setattr(suites, "ground_state", shifted)
    rep = suites.run_suite("all", 2)
    assert not rep["passed"] and all(sub["passed"] for sub in rep["suites"])
    delta = _spectral_delta(rep, "figure-1 caption")
    assert delta["computed"] == "E_1 = 35/4 and E_3 = 103/4"
    assert delta["witness"] == {"sector": ["0", "0", "3"], "operator": "H"}
    assert cli.main(["verify", "--suite", "all"]) == 1


def test_a_printed_phi2_parameter_that_solves_fails_the_report_instead_of_raising(monkeypatch):
    # the printed first Jacobi parameter 1/2 read as the corrected 0
    real = suites.jacobi_in_cos2
    monkeypatch.setattr(suites, "jacobi_in_cos2",
                        lambda n, a, b, var: real(n, 0 if a == Fraction(1, 2) else a, b, var))
    rep = suites.run_suite("all", 2)
    assert not rep["passed"] and all(sub["passed"] for sub in rep["suites"])
    delta = _spectral_delta(rep, "phi2 Jacobi")
    assert delta["computed"].startswith("the printed P_1^(1/2, 1) solves")
    assert delta["witness"] == {"sector": ["0", "0", "0"], "operator": "H", "m": 0, "n": 1}
    assert cli.main(["verify", "--suite", "all"]) == 1


def test_a_chain_lowering_that_does_not_annihilate_fails_the_report_instead_of_raising(
        monkeypatch):
    monkeypatch.setitem(operators.CHAIN, "-", operators.CHAIN["+"])
    rep = suites.run_suite("all", 2)
    assert not rep["passed"] and all(sub["passed"] for sub in rep["suites"])
    delta = _spectral_delta(rep, "phi2 chain")
    assert delta["computed"].startswith("M- does not annihilate")
    assert delta["witness"] == {"sector": ["0", "0", "1"], "operator": "M-", "m": 0, "n": 1}
    assert cli.main(["verify", "--suite", "all"]) == 1


def test_failed_annihilation_names_its_operator_and_witness(monkeypatch):
    _break_family_a(monkeypatch)
    check = _check(suites.suite_intertwine(), "A- and C- annihilate")
    assert not check["passed"]
    assert check["operators"] == ["A-"]
    assert check["witness"] == {"monomial": [0, 0, 1], "terms": 1}


def test_unclosed_commutators_carry_their_witness(monkeypatch):
    _break_family_a(monkeypatch)
    check = _check(suites.suite_algebra(), "pairwise commutators close")
    assert not check["passed"]
    assert set(check["witness"]) == set(check["unmatched"])
    assert check["witness"]["B+,C-"] == {"monomial": [0, 0, 1], "terms": 1}


def test_an_inconsistent_multiplier_system_fails_its_checks_with_the_solver_report(
        monkeypatch):
    # a wrong d2 coefficient in B's chart leaves no multiplier that intertwines:
    # the solver raises, and the suite records the failure instead of raising
    fam = operators.FAMILIES["B"]
    monkeypatch.setitem(operators.FAMILIES, "B", replace(fam, chart=replace(
        fam.chart, d2_coeff=TrigPoly.monomial(-2, (1, 0, 0, 0)))))
    rep = suites.suite_intertwine()
    assert not rep["passed"]
    solves = [c for c in rep["checks"] if c["name"].startswith("solve_multiplier rebuilds")]
    failed = [c for c in solves if not c["passed"]]
    assert [c["name"] for c in failed] == [c["name"] for c in solves if " B- " in c["name"]]
    assert [c["witness"] for c in failed] == [
        {"sector": sector, "delta": [1, 0, 1], "rows": 13}
        for sector in (["1", "2", "0"], ["1", "1", "1"], ["2", "0", "1"])]
    assert cli.main(["verify", "--suite", "intertwine"]) == 1


def test_the_table_errata_read_their_computed_side_off_the_table(monkeypatch):
    real = operators.structure_table

    def moved():
        st = real()
        st["table"]["A+,C+"] = [("1", "B-")]
        return st

    def computed(rep):
        return {d["entry"]: d["computed"] for d in rep["paper_deltas"]}

    assert computed(suites.suite_algebra()) == {"[A-,A+]": "-2A", "[A+,C+]": "-B+",
                                                "[B-,C+]": "A-"}
    monkeypatch.setattr(suites, "structure_table", moved)
    assert computed(suites.suite_algebra())["[A+,C+]"] == "B-"


def test_failed_riccati_residual_names_the_first_sector(monkeypatch):
    _break_family_a(monkeypatch)
    rep = suites.suite_riccati()
    check = _check(rep, "riccati residual")
    assert not check["passed"]
    assert check["witness"] == {"sector": ["1/2", "1/3", "2"], "terms": 2}
    assert not _check(rep, "lambda_l is an exact polynomial")["passed"]


def test_a_riccati_residual_that_vanishes_with_the_wrong_lambda_fails(monkeypatch):
    real = suites.riccati_check
    monkeypatch.setattr(suites, "riccati_check", lambda ell: (real(ell)[0], Fraction(0)))
    check = _check(suites.suite_riccati(), "riccati residual")
    assert not check["passed"]
    assert check["witness"] == {"sector": ["1/2", "1/3", "2"], "terms": 0}


def test_a_doubled_tan_phi2_d2_coupling_fails_the_kinetic_check(monkeypatch):
    # the kinetic operator is read off the Hamiltonian, so a changed coupling is seen
    assert _check(suites.suite_riccati(), "vector fields rebuild")["passed"]
    tan_d2 = DiffOp({(0, 1): HAMILTONIAN.coeff(ZERO).coeff((0, 1))})
    monkeypatch.setattr(diffop, "HAMILTONIAN", HAMILTONIAN + LPoly(DiffOp, {ZERO: tan_d2}))
    assert not _check(suites.suite_riccati(), "vector fields rebuild")["passed"]


def test_riccati_samples_take_their_flag_from_the_residual(monkeypatch):
    # the samples exist only under the lambda proof: the residual is a constant for every l
    samples = suites.suite_riccati()["lambda_samples"]
    assert len(samples) == 8
    _break_family_a(monkeypatch)
    assert suites.suite_riccati()["lambda_samples"] == []


def test_lambda_samples_are_the_sector_check_at_their_sectors():
    samples = suites.suite_riccati()["lambda_samples"]
    assert [s["sector"] for s in samples] == [
        ["0", "0", "0"], ["0", "0", "1"], ["0", "0", "2"], ["0", "1", "0"],
        ["0", "1", "1"], ["0", "1", "2"], ["0", "2", "0"], ["0", "2", "1"]]
    for s in samples:
        resid, lam = riccati_check(tuple(Fraction(x) for x in s["sector"]))
        assert not resid and s["lambda"] == frac_to_str(lam)


def test_failed_simultaneous_superpotential_names_its_family_and_witness(monkeypatch):
    _break_family_a(monkeypatch)
    check = _check(suites.suite_riccati(), "one fundamental state")
    assert not check["passed"]
    assert check["operators"] == ["A"]
    assert check["witness"] == {"monomial": [0, 0, 1], "terms": 1}


def test_passing_riccati_report_carries_no_counterexample():
    assert all("counterexample" not in c and "witness" not in c
               for c in suites.suite_riccati()["checks"])


def test_the_report_is_the_same_at_every_range():
    # every suite proves its identities for all l: --range is only echoed
    reports = [suites.run_suite("all", r) for r in (1, 2, 3)]
    for r, rep in zip((1, 2, 3), reports):
        assert rep["range"] == r and all(sub["range"] == r for sub in rep["suites"])
    unranged = [json.dumps(dict(rep, range=None, suites=[dict(sub, range=None)
                                                         for sub in rep["suites"]]),
                           sort_keys=True) for rep in reports]
    assert unranged[0] == unranged[1] == unranged[2]


def test_the_printed_audit_checks_read_the_delta_report(monkeypatch):
    # the four printed B/C checks follow the verdicts printed_delta_report records
    only_b_minus = [d for d in operators.printed_delta_report() if d["operator"] == "B-"]
    monkeypatch.setattr(suites, "printed_delta_report", lambda: only_b_minus)
    rep = suites.suite_intertwine()
    verdicts = {n: _check(rep, f"printed {n} fails")["passed"] for n in ("B-", "B+", "C-", "C+")}
    assert verdicts == {"B-": True, "B+": False, "C-": False, "C+": False}
    assert rep["paper_deltas"] == only_b_minus


def test_no_check_in_the_package_is_a_bare_assert():
    # python -O strips assert statements, and a report must not claim what it skipped
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(octasphere.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []
