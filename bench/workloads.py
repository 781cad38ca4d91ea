"""The three benchmark workloads.

Each workload has a ``run`` step, which is the program's work and is timed,
and a ``check`` step, which compares what ``run`` produced against the hand
written answers in ``expected`` and is not timed.  The program is reached
through module attributes (``hierarchy.iur_states``, ``cli.main``), never
through names bound here, so the tracer sees every call.
"""

from __future__ import annotations

import importlib
import io
import itertools
import json
import random
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import expected as E

# import_module, because the package rebinds some submodule names (``inner``)
# to functions of the same name
cli, diffop, hierarchy, inner, operators, trigpoly = (
    importlib.import_module(f"octasphere.{m}")
    for m in ("cli", "diffop", "hierarchy", "inner", "operators", "trigpoly"))


@dataclass
class Outcome:
    """Verdicts of one job, the bytes it produced, and its final states."""
    verdicts: dict[str, bool]
    output: bytes
    states: list = field(default_factory=list)    # final wavefunctions (TrigPoly)
    detail: dict = field(default_factory=dict)

    def failed(self) -> list[str]:
        return [k for k, ok in self.verdicts.items() if not ok]


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = _guarded(cli.main, argv)
    return (1 if code is None else code), buf.getvalue()


# -- verify_all ------------------------------------------------------------------

def run_verify_all(seed: int, workdir: Path):
    return _cli(["verify", "--suite", "all", "--range", "2", "--format", "json"])


def check_verify_all(raw, workdir: Path) -> Outcome:
    code, text = raw
    v = {"exit code 0": code == 0}
    try:
        rep = json.loads(text)
    except ValueError:
        rep = {}
    v["report passed"] = rep.get("passed") is True
    checks = [c for s in rep.get("suites", []) for c in s.get("checks", [])]
    v["check count"] = len(checks) == E.VERIFY_CHECKS
    for i in range(E.VERIFY_CHECKS):
        v[f"check {i}"] = i < len(checks) and checks[i].get("passed") is True
    names = [d.get("entry", d.get("operator")) for d in rep.get("paper_deltas", [])]
    v["delta count"] = len(names) == len(E.PAPER_DELTAS)
    for name in E.PAPER_DELTAS:
        v[f"delta {name}"] = name in names
    algebra = next((s for s in rep.get("suites", []) if s.get("suite") == "algebra"), {})
    table = algebra.get("structure_constants", {})
    for key, want in E.STRUCTURE_CONSTANTS.items():
        v[f"[{key}]"] = table.get(key) == want
    return Outcome(v, text.encode())


# -- iur_so6_q4 ------------------------------------------------------------------

def _states_path(workdir: Path) -> Path:
    return workdir / f"so6_{E.SO6_Q}_states.json"


def run_iur_so6_q4(seed: int, workdir: Path):
    _states_path(workdir).unlink(missing_ok=True)
    return _cli(["iur", "--algebra", "so6", "--q", str(E.SO6_Q), "--emit", "states",
                 "--out", str(workdir)])


def check_iur_so6_q4(raw, workdir: Path) -> Outcome:
    code, text = raw
    v = {"exit code 0": code == 0}
    path = _states_path(workdir)
    data = path.read_bytes() if path.is_file() else b""
    try:
        objs = json.loads(data)
    except ValueError:
        objs = []
    v["state count"] = len(objs) == E.SO6_STATES
    want = E.so6_multiplicities(E.SO6_Q)
    got: dict[tuple, int] = {}
    for o in objs:
        pt = tuple(Fraction(x) for x in o["params"])
        got[pt] = got.get(pt, 0) + 1
    for pt, mult in sorted(want.items()):
        v[f"multiplicity at {pt}"] = got.get(pt, 0) == mult
    v["no state off the lattice"] = set(got) <= set(want)
    for i in range(E.SO6_STATES):
        v[f"energy of state {i}"] = i < len(objs) and objs[i]["energy"] == E.SO6_ENERGY
    worst = 0.0
    for i in range(0, E.SO6_STATES, 7):
        if i >= len(objs):
            v[f"float H psi = E psi, state {i}"] = False
            continue
        st = E.FloatState(objs[i])
        dev = max(st.h_residual(x, y) for x, y in E.FD_POINTS)
        worst = max(worst, dev)
        v[f"float H psi = E psi, state {i}"] = dev <= E.FD_TOL
    states = [trigpoly.from_obj(o["wavefunction"]) for o in objs]
    return Outcome(v, text.encode() + data, states, {"fd_worst": worst})


# -- closed_forms ------------------------------------------------------------------

PHI1_RANGE = 4          # l0, l1 < 4
PHI1_M = 6              # m < 6
PHI2_SECTORS = ((0, 0, 0, 0), (1, 0, 1, 0), (1, 1, 0, 1))    # (l0, l1, l2, m)
PHI2_N = 6              # n < 6
# Sectors with l0 == l1 give symmetric phi1 Jacobi factors and about half the
# monomial terms of the others, so the seed draws a fixed number of each,
# in the 1:2 proportion of the {0..2}^3 box: the sectors vary, the work does not.
SEPARATED_SYMMETRIC = 2
SEPARATED_ASYMMETRIC = 4
SEPARATED_MN = 4        # m + n <= 4
SO4_N = 8               # n < 8


def separated_sectors(seed: int) -> list[tuple[int, int, int]]:
    box = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)]
    rng = random.Random(seed)
    symmetric = rng.sample([s for s in box if s[0] == s[1]], SEPARATED_SYMMETRIC)
    asymmetric = rng.sample([s for s in box if s[0] != s[1]], SEPARATED_ASYMMETRIC)
    return sorted(symmetric + asymmetric)


def _phi1(l0: int, l1: int, m: int):
    lad = hierarchy.ladder_build(hierarchy.ground_state("phi1_1d", (l0, l1, m)), ["A+"] * m)
    closed = hierarchy.closed_form_state("phi1_excited", (l0, l1, m))
    return hierarchy.proportionality(lad.wavefunction, closed.wavefunction), lad.wavefunction


def _phi2(l0: int, l1: int, l2: int, m: int, n: int):
    ell = diffop.pv(l0, l1, l2)
    root = l0 + l1 + 2 * m + 1
    g = trigpoly.TrigPoly.monomial(1, (0, 0, root + n, Fraction(2 * (l2 + n) + 1, 2)))
    for k in range(n - 1, -1, -1):
        g = diffop.apply(operators.build_first_order("M", "+", ell, m=m, n=k), g)
    return hierarchy.proportionality(g, hierarchy.phi2_closed_form(ell, m, n))


SEPARATED_LABELS = [(m, n) for m in range(SEPARATED_MN + 1)
                    for n in range(SEPARATED_MN + 1 - m)]
# distinct-energy pairs: the energy depends on m + n only
SEPARATED_PAIRS = [(i, j) for i, a in enumerate(SEPARATED_LABELS)
                   for j, b in enumerate(SEPARATED_LABELS) if i < j and sum(a) != sum(b)]


def _orthogonality(ell):
    sts = [hierarchy.closed_form_state("separated_2d", (ell, m, n)) for m, n in SEPARATED_LABELS]
    norms = [inner.norm(s.wavefunction) for s in sts]
    return [abs(inner.inner(sts[i].wavefunction, sts[j].wavefunction)) / (norms[i] * norms[j])
            for i, j in SEPARATED_PAIRS]


def _gram(n: int):
    sts = hierarchy.iur_states("so4", (n,))
    rep = inner.gram(sts)
    diag = [rep.matrix[i][i] for i in range(len(sts))]
    return (rep.rank, rep.max_offdiag_normalized, min(diag) / max(diag)), \
        [s.wavefunction for s in sts]


def _guarded(fn, *args):
    """fn(*args), or None after printing the traceback: a failure of the
    program is a failed verdict, never the end of the run."""
    try:
        return fn(*args)
    except Exception:  # noqa: BLE001 - the benchmark is a boundary that must go on
        traceback.print_exc()
        return None


def run_closed_forms(seed: int, workdir: Path) -> dict:
    res = {"phi1": {}, "phi2": {}, "orth": {}, "gram": {}, "states": []}
    for key in itertools.product(range(PHI1_RANGE), range(PHI1_RANGE), range(PHI1_M)):
        c, state = _guarded(_phi1, *key) or (None, None)
        res["phi1"][key] = c
        if state is not None:
            res["states"].append(state)
    for (l0, l1, l2, m), n in itertools.product(PHI2_SECTORS, range(PHI2_N)):
        res["phi2"][(l0, l1, l2, m, n)] = _guarded(_phi2, l0, l1, l2, m, n)
    for ell in separated_sectors(seed):
        vals = _guarded(_orthogonality, ell) or [None] * len(SEPARATED_PAIRS)
        for (i, j), val in zip(SEPARATED_PAIRS, vals):
            res["orth"][(ell, SEPARATED_LABELS[i], SEPARATED_LABELS[j])] = val
    for n in range(SO4_N):
        gram, states = _guarded(_gram, n) or (None, [])
        res["gram"][n] = gram
        res["states"].extend(states)
    return res


def check_closed_forms(res: dict, workdir: Path) -> Outcome:
    v = {}
    for key, c in res["phi1"].items():
        v[f"phi1 ladder ~ closed form {key}"] = c is not None and c != 0
    for key, c in res["phi2"].items():
        v[f"phi2 chain ~ closed form {key}"] = c is not None and c != 0
    for key, val in res["orth"].items():
        v[f"orthogonal {key}"] = val is not None and val <= E.ORTHOGONALITY_TOL
    for n, gram in res["gram"].items():
        v[f"so4_gram_rank_n{n}"] = gram is not None and gram[0] == E.so4_gram_rank(n)
    record = {k: sorted((str(key), repr(val)) for key, val in res[k].items())
              for k in ("phi1", "phi2", "orth", "gram")}
    detail = {f"n{n}": dict(zip(("rank", "max_offdiag", "norm_span"), gram or ()))
              for n, gram in res["gram"].items()}
    return Outcome(v, json.dumps(record).encode(), res["states"], {"gram": detail})


@dataclass(frozen=True)
class Workload:
    run: object
    check: object
    inputs: str


WORKLOADS = {
    "verify_all": Workload(run_verify_all, check_verify_all,
                           "fixed by the CLI (verify --suite all --range 2); --seed unused"),
    "iur_so6_q4": Workload(run_iur_so6_q4, check_iur_so6_q4,
                           "fixed by the CLI (iur --algebra so6 --q 4); --seed unused"),
    "closed_forms": Workload(run_closed_forms, check_closed_forms,
                             "--seed draws the separated_2d sectors"),
}
