"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

They run the benchmark command on the smallest workload, so they take
about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
COUNT_SUFFIXES = (".calls", ".terms_max", "_mean", "_ratio", "_per_state")


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_counts_repeat_and_cover_every_layer_metric():
    args = ("--workload", "closed_forms", "--seed", "3", "--seconds", "0", "--trace", "1")
    first, second = (_result(_run(ROOT, *args)) for _ in range(2))
    # correct includes: traced outputs byte-identical to the untraced job's
    assert first["correct"] and second["correct"]
    counts = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
              for r in (first, second)]
    assert counts[0] and counts[0] == counts[1]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} == set(first["metrics"])
    assert first["metrics"]["diffop.compose.calls"]["value"] == 0


def test_untraced_run_reports_end_to_end_metrics_and_the_known_gram_defect():
    out = _run(ROOT, "--workload", "closed_forms", "--seed", "3", "--seconds", "0",
               "--trace", "0")
    res = _result(out)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in declared}
    assert all(v["value"] > 0 for v in res["metrics"].values())
    # exactly the so(4) Gram ranks at n = 6 and n = 7 fail, and are recorded
    assert res["correct"] and res["failed"] == 2
    assert "fail_share" in out.stdout


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "verify_all", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
