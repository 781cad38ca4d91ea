"""CLI contract: exit codes, file outputs, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from octasphere import operators
from octasphere.cli import main
from octasphere.hierarchy import iur_lattice, so6_dimension
from octasphere.operators import structure_table

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as e:  # argparse errors surface as SystemExit(2)
        return e.code


def test_usage_errors_exit_2():
    assert run_cli(["verify", "--suite", "bogus"]) == 2
    assert run_cli(["verify", "--range", "0"]) == 2
    assert run_cli(["iur", "--algebra", "so4", "--n", "-1"]) == 2
    assert run_cli(["iur", "--algebra", "u3", "--m", "1"]) == 2
    assert run_cli(["spectrum", "--qmax", "-1"]) == 2
    assert run_cli(["nonsense"]) == 2


def test_verify_riccati_passes(capsys):
    assert run_cli(["verify", "--suite", "riccati", "--range", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASSED" in out


def test_verify_json_deterministic(capsys):
    assert run_cli(["verify", "--suite", "riccati", "--range", "1",
                    "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert run_cli(["verify", "--suite", "riccati", "--range", "1",
                    "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)


def test_iur_so6_q3_lattice(tmp_path, capsys):
    assert run_cli(["iur", "--algebra", "so6", "--q", "3", "--emit", "lattice",
                    "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "dimension 50" in out and "energy 99/4" in out
    csv_lines = (tmp_path / "so6_3_lattice.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "l0,l1,l2,multiplicity,shell"
    assert len(csv_lines) == 45  # 44 points + header
    mults = [int(line.split(",")[3]) for line in csv_lines[1:]]
    assert sum(mults) == 50
    obj = json.loads((tmp_path / "so6_3_lattice.json").read_text())
    assert obj["dimension"] == 50 and len(obj["points"]) == 44


def test_iur_reports_a_state_failing_its_certificate(tmp_path, capsys, monkeypatch):
    sound, broken = tmp_path / "sound", tmp_path / "broken"
    argv = ["iur", "--algebra", "so6", "--q", "1", "--emit"]
    assert run_cli(argv + ["lattice", "--out", str(sound)]) == 0
    capsys.readouterr()
    # an extra l2 cot(phi1) term in A's multiplier: A- no longer annihilates phi0
    fam = operators.FAMILIES["A"]
    monkeypatch.setitem(operators.FAMILIES, "A",
                        replace(fam, cot_row=fam.cot_row[:3] + (Fraction(1),)))
    assert run_cli(argv + ["states", "--out", str(broken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verification failure: A- does not annihilate"), err
    assert err.count("\n") == 1
    # the lattice does not depend on the families, and its energy is the spectrum's
    assert run_cli(argv + ["lattice", "--out", str(broken)]) == 0
    assert capsys.readouterr().err == ""
    for name in ("so6_1_lattice.json", "so6_1_lattice.csv"):
        assert (broken / name).read_bytes() == (sound / name).read_bytes()


def test_iur_u3_states(tmp_path, capsys):
    assert run_cli(["iur", "--algebra", "u3", "--m", "1", "--n", "0",
                    "--emit", "states", "--out", str(tmp_path)]) == 0
    states = json.loads((tmp_path / "u3_1_0_states.json").read_text())
    assert len(states) == 3
    assert all(s["energy"] == "35/4" for s in states)


def test_iur_states_round_trip(tmp_path):
    from octasphere.trigpoly import from_obj, to_obj
    assert run_cli(["iur", "--algebra", "so6", "--q", "1", "--emit", "both",
                    "--out", str(tmp_path)]) == 0
    states = json.loads((tmp_path / "so6_1_states.json").read_text())
    assert len(states) == 6
    for s in states:
        assert to_obj(from_obj(s["wavefunction"])) == s["wavefunction"]


def test_so6_q4_states_round_trip_in_normal_form(tmp_path):
    from octasphere.trigpoly import from_obj, normal_form, to_obj
    assert run_cli(["iur", "--algebra", "so6", "--q", "4", "--emit", "states",
                    "--out", str(tmp_path)]) == 0
    states = json.loads((tmp_path / "so6_4_states.json").read_text())
    assert len(states) == 105
    for s in states:
        psi = from_obj(s["wavefunction"])
        assert to_obj(psi) == s["wavefunction"]
        assert normal_form(psi) == dict(psi.items())


def test_states_file_is_one_state_per_line_and_rewrites_byte_identically(tmp_path):
    from octasphere.hierarchy import iur_states, state_to_obj
    assert run_cli(["iur", "--algebra", "u3", "--m", "2", "--n", "1", "--emit", "states",
                    "--out", str(tmp_path)]) == 0
    raw = (tmp_path / "u3_2_1_states.json").read_text()
    objs = json.loads(raw)
    assert objs == [state_to_obj(s) for s in iur_states("u3", (2, 1))]
    lines = raw.splitlines()
    assert (lines[0], lines[-1], len(lines)) == ("[", "]", len(objs) + 2)
    assert "[\n" + ",\n".join(json.dumps(o) for o in objs) + "\n]\n" == raw


def test_spectrum_rows(capsys):
    assert run_cli(["spectrum", "--qmax", "1"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert "15/4" in lines[1] and "(0,0):1" in lines[1]
    assert "35/4" in lines[2] and "(1,0):3" in lines[2] and "(0,1):3" in lines[2]
    assert "caption" in out or "figure" in out  # discrepancy flagged once


def test_spectrum_qmax_zero(capsys):
    assert run_cli(["spectrum", "--qmax", "0"]) == 0
    out = capsys.readouterr().out
    rows = [l for l in out.strip().splitlines() if l.strip() and l.strip()[0].isdigit()]
    assert len(rows) == 1


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "octasphere.cli", "spectrum",
                           "--qmax", "0"], capture_output=True, text=True)
    assert proc.returncode == 0 and "15/4" in proc.stdout


def test_verify_algebra_json_carries_structure_constants(capsys):
    assert run_cli(["verify", "--suite", "algebra", "--range", "1",
                    "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    t = rep["structure_constants"]
    assert t["A-,A+"] == [["-2", "A"]]
    assert t["A+,C+"] == [["-1", "B+"]]


def test_lattice_json_reserializes_byte_identically(tmp_path):
    assert run_cli(["iur", "--algebra", "u3", "--m", "2", "--n", "1",
                    "--out", str(tmp_path)]) == 0
    raw = (tmp_path / "u3_2_1_lattice.json").read_text()
    assert json.dumps(json.loads(raw), indent=2) + "\n" == raw


def _run_script(name, *args, returncode=0):
    src = str(SCRIPTS.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == returncode, proc.stderr
    return proc.stdout


def test_kill_matrix_kills_every_mutant_but_the_known_survivors():
    # one process, no memo emptied between mutants: every verdict a mutant
    # changes is proved afresh through the warm memos
    *lines, summary = _run_script("kill_matrix.py").splitlines()
    assert len(lines) == 108
    assert not [line for line in lines if line.startswith("RAISED")]
    survivors = [line for line in lines if line.startswith("SURVIVED")]
    assert len(survivors) == 2 and all("  known: " in line for line in survivors)
    assert summary.startswith("108 mutants: 106 killed, 2 survived, 0 raised in ")


def test_export_octahedra_script(tmp_path):
    out = _run_script("export_octahedra.py", "--qmax", "2", "--out", str(tmp_path))
    assert len(out.strip().splitlines()) == 3
    for q, energy in ((0, "15/4"), (1, "35/4"), (2, "63/4")):
        lat = iur_lattice("so6", (q,))
        csv_lines = (tmp_path / f"so6_q{q}.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "l0,l1,l2,multiplicity,shell"
        assert len(csv_lines) == len(lat.points) + 1
        obj = json.loads((tmp_path / f"so6_q{q}.json").read_text())
        assert obj["dimension"] == so6_dimension(q) and obj["energy"] == energy
        assert sum(r["dimension"] for r in obj["u3_sections"]) == so6_dimension(q)


def test_print_structure_constants_script():
    out = json.loads(_run_script("print_structure_constants.py"))
    st = structure_table()
    assert out["unmatched"] == st["unmatched"] == [] and out["witness"] == {}
    assert out["table"] == {k: [list(e) for e in v] for k, v in st["table"].items()}
    # the table holds for every sector, so there is no sector box to choose
    _run_script("print_structure_constants.py", "--box", "1", returncode=2)


def test_output_digests_script(tmp_path):
    out = _run_script("output_digests.py", "u3_3_2_states", "structure_constants")
    lines = [line.split("  ") for line in out.splitlines()]
    assert [name for _, name in lines] == ["u3_3_2_states", "structure_constants"]
    assert all(len(digest) == 64 and int(digest, 16) >= 0 for digest, _ in lines)
    assert run_cli(["iur", "--algebra", "u3", "--m", "3", "--n", "2", "--emit", "states",
                    "--out", str(tmp_path)]) == 0
    states = (tmp_path / "u3_3_2_states.json").read_bytes()
    assert lines[0][0] == hashlib.sha256(states).hexdigest()
    _run_script("output_digests.py", "no_such_output", returncode=2)


def test_errata_report_script_lists_every_delta():
    out = json.loads(_run_script("errata_report.py"))
    assert out["passed"] is True
    names = [d.get("entry", d.get("operator")) for d in out["paper_deltas"]]
    assert names == ["[A-,A+]", "[A+,C+]", "[B-,C+]", "B-", "B+", "C-", "C+",
                     "so(6) symmetrized casimir constant", "figure-1 caption energies",
                     "phi2 Jacobi parameter in the separated eigenfunctions",
                     "phi2 chain fundamental-state cosine exponent"]


_WITHOUT_NUMPY_AND_SCIPY = """
import sys
sys.modules["numpy"] = sys.modules["scipy"] = None   # any import of them now fails
from octasphere.cli import main
from octasphere.hierarchy import iur_states
from octasphere.inner import gram
assert main(["verify", "--suite", "all", "--range", "2"]) == 0
assert main(["iur", "--algebra", "so4", "--n", "3", "--emit", "states", "--out", sys.argv[1]]) == 0
assert gram(iur_states("so4", (3,))).rank == 16
"""


def test_the_package_runs_without_numpy_and_scipy(tmp_path):
    src = str(SCRIPTS.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY_AND_SCIPY, str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "so4_3_states.json").exists()
