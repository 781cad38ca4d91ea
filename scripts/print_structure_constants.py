#!/usr/bin/env python3
"""Print the computed u(3) structure-constant table as JSON.

Each commutator is formed once as a polynomial in the couplings and its
structure constant read off it, so the table holds for every sector.  Each
entry is one rational constant times one generator of its shift, a list of
one (coefficient, generator) pair: the ladder of that shift, or A, B or C for
shift 0; a zero commutator is the empty list.  Unmatched commutators carry a
witness: the first coupling monomial of a nonzero residual coefficient.
"""

import argparse
import json

from octasphere.operators import structure_table


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()
    st = structure_table()
    out = {"table": {k: [list(e) for e in v] for k, v in sorted(st["table"].items())},
           "unmatched": st["unmatched"], "witness": st["witness"]}
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
