"""Command-line interface: verification suites, IUR exports, spectrum tables.

Exit codes: 0 success, 1 verification or I/O failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .hierarchy import (energy, ground_energy, iso_energy_decomposition,
                        iur_lattice, iur_states, lattice_to_csv, lattice_to_obj,
                        so6_dimension, state_to_obj)
from .suites import SUITE_NAMES, run_suite
from .trigpoly import frac_to_str


def _print_report(rep: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(rep, indent=2, sort_keys=True))
        return
    subreports = rep.get("suites", [rep])
    for sub in subreports:
        print(f"suite {sub['suite']} (range {sub['range']}):")
        for c in sub["checks"]:
            mark = "ok  " if c["passed"] else "FAIL"
            print(f"  [{mark}] {c['name']}")
    deltas = rep.get("paper_deltas", [])
    if deltas:
        print("printed-source deltas (printed vs computed, exact evidence):")
        for d in deltas:
            entry = d.get("entry", d.get("operator", "?"))
            print(f"  - {entry}: {d['issue']}")
    print("PASSED" if rep["passed"] else "FAILED")


def _cmd_verify(args) -> int:
    rep = run_suite(args.suite, args.range)
    _print_report(rep, args.format)
    return 0 if rep["passed"] else 1


def _iur_label(args, parser) -> tuple:
    if args.algebra == "u3":
        if args.m is None or args.n is None or args.m < 0 or args.n < 0:
            parser.error("u3 needs --m and --n >= 0")
        return (args.m, args.n)
    if args.algebra == "so4":
        if args.n is None or args.n < 0:
            parser.error("so4 needs --n >= 0")
        return (args.n,)
    if args.q is None or args.q < 0:
        parser.error("so6 needs --q >= 0")
    return (args.q,)


def _cmd_iur(args, parser) -> int:
    label = _iur_label(args, parser)
    stem = args.algebra + "_" + "_".join(str(x) for x in label)
    outdir = Path(args.out)
    try:
        lat = iur_lattice(args.algebra, label)
        outdir.mkdir(parents=True, exist_ok=True)
        if args.emit in ("lattice", "both"):
            (outdir / f"{stem}_lattice.json").write_text(
                json.dumps(lattice_to_obj(lat), indent=2) + "\n", encoding="utf-8")
            (outdir / f"{stem}_lattice.csv").write_text(lattice_to_csv(lat),
                                                        encoding="utf-8")
        if args.emit in ("states", "both"):
            # one state per line by the C encoder; an indent forces the Python one
            objs = [state_to_obj(s) for s in iur_states(args.algebra, label)]
            (outdir / f"{stem}_states.json").write_text(
                "[\n" + ",\n".join(json.dumps(o) for o in objs) + "\n]\n", encoding="utf-8")
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # a lattice count or a state failed its certificate
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    e = ground_energy(args.algebra, label)   # the spectrum's, shared by every state
    print(f"{args.algebra} IUR {label}: dimension {lat.dimension}, energy {e}, "
          f"{len(lat.points)} lattice points -> {outdir}/{stem}_*")
    return 0


def _cmd_spectrum(args) -> int:
    print(f"{'q':>3}  {'E_q':>10}  {'dim so(6)':>9}  u(3) iso-energy decomposition")
    for q in range(args.qmax + 1):
        eq = energy("E_q", q=q)
        dec = iso_energy_decomposition(q)
        dec_s = " + ".join(f"({r['m']},{r['n']}):{r['dimension']}" for r in dec)
        print(f"{q:>3}  {frac_to_str(eq):>10}  {so6_dimension(q):>9}  {dec_s}")
    print("note: the printed figure captions give E = 5/2*3/2 (q=1) and 7/2*5/2 (q=3); "
          "the exact spectrum is E_q = (q+3/2)(q+5/2), i.e. 35/4 and 99/4.")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="octasphere",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", choices=SUITE_NAMES + ["all"], default="all")
    p_verify.add_argument("--range", type=int, default=2,
                          help="echoed in the report; every suite proves its identities "
                               "for all l (>= 1)")
    p_verify.add_argument("--format", choices=["json", "text"], default="text")

    p_iur = sub.add_parser("iur", help="export an IUR lattice and/or its states")
    p_iur.add_argument("--algebra", choices=["u3", "so4", "so6"], required=True)
    p_iur.add_argument("--m", type=int)
    p_iur.add_argument("--n", type=int)
    p_iur.add_argument("--q", type=int)
    p_iur.add_argument("--emit", choices=["lattice", "states", "both"], default="lattice")
    p_iur.add_argument("--out", default=".")

    p_spec = sub.add_parser("spectrum", help="print the iso-energy table")
    p_spec.add_argument("--qmax", type=int, default=3)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        if args.range < 1:
            parser.error("--range must be >= 1")
        return _cmd_verify(args)
    if args.command == "iur":
        return _cmd_iur(args, parser)
    if args.command == "spectrum":
        if args.qmax < 0:
            parser.error("--qmax must be >= 0")
        return _cmd_spectrum(args)
    parser.error(f"unknown command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
