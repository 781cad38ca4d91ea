#!/usr/bin/env python3
"""Print the SHA-256 digest of each canonical output, one line per output.

    PYTHONPATH=src python3 scripts/output_digests.py                 # every output
    PYTHONPATH=src python3 scripts/output_digests.py verify_range_1  # a chosen few

Each line is ``<sha256>  <name>``, as ``sha256sum`` prints it, so running the
script in two checkouts and comparing the lines (``diff``) tells whether a
change left these outputs byte-identical:

- ``verify --suite all --range 1|2 --format json``, the certifier's report;
- ``verify --suite <name> --range 2 --format json`` for each of the five
  suites run on its own (the single-suite CLI path);
- the ``iur --emit states`` JSON of so(6) q=3, 4, 6, 8 and 10, so(4) n=7 and
  u(3) (3,2);
- ``scripts/print_structure_constants.py``;
- the ``closed_forms`` benchmark record for seeds 1-3
  (``check_closed_forms(run_closed_forms(seed)).output`` from ``bench/workloads.py``,
  which the script imports and never writes).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from octasphere.suites import SUITE_NAMES

ROOT = Path(__file__).resolve().parent.parent


def _cli(*argv: str) -> bytes:
    from octasphere import cli
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"octasphere {' '.join(argv)} exited {code}")
    return buf.getvalue().encode()


def _verify(rng: int, suite: str = "all") -> bytes:
    return _cli("verify", "--suite", suite, "--range", str(rng), "--format", "json")


def _states(algebra: str, **label: int) -> bytes:
    with tempfile.TemporaryDirectory() as out:
        flags = [x for k, v in label.items() for x in (f"--{k}", str(v))]
        _cli("iur", "--algebra", algebra, *flags, "--emit", "states", "--out", out)
        stem = "_".join([algebra, *(str(v) for v in label.values())])
        return (Path(out) / f"{stem}_states.json").read_bytes()


def _structure_constants() -> bytes:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "print_structure_constants.py")],
                          capture_output=True, check=True, env=env).stdout


def _closed_forms(seed: int) -> bytes:
    if str(ROOT / "bench") not in sys.path:
        sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    with tempfile.TemporaryDirectory() as out:
        return workloads.check_closed_forms(workloads.run_closed_forms(seed, Path(out)),
                                            Path(out)).output


OUTPUTS = {
    "verify_range_1": lambda: _verify(1),
    "verify_range_2": lambda: _verify(2),
    **{f"verify_{n}_range_2": (lambda n=n: _verify(2, n)) for n in SUITE_NAMES},
    **{f"so6_q{q}_states": (lambda q=q: _states("so6", q=q)) for q in (3, 4, 6, 8, 10)},
    "so4_n7_states": lambda: _states("so4", n=7),
    "u3_3_2_states": lambda: _states("u3", m=3, n=2),
    "structure_constants": _structure_constants,
    **{f"closed_forms_seed_{s}": (lambda s=s: _closed_forms(s)) for s in (1, 2, 3)},
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("names", nargs="*", metavar="name",
                        help="outputs to digest (default: all): " + ", ".join(OUTPUTS))
    names = parser.parse_args(argv).names or list(OUTPUTS)
    unknown = [n for n in names if n not in OUTPUTS]
    if unknown:
        parser.error(f"unknown output {unknown[0]!r}")
    for name in names:
        print(f"{hashlib.sha256(OUTPUTS[name]()).hexdigest()}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
