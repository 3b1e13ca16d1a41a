#!/usr/bin/env python3
"""Run the relator-family generation checks at one scale and print the report.

Usage: python3 scripts/run_hyp_spec_gen.py [--scale S]

At the default scale the family has relators of length 2*S^2 + S = 20100;
the metric check, the three forced collapses, and the survivor test
together take well under a second.
"""

import argparse
import time

from concc import smallcanc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scale", type=int, default=100)
    args = ap.parse_args()

    t0 = time.perf_counter()
    rep = smallcanc.verify_hyp_spec_gen(args.scale)
    dt = time.perf_counter() - t0

    print(f"scale            {rep.scale}")
    print(f"relator length   {rep.relator_length}")
    print(f"closure size     {rep.closure_size}")
    print(f"max piece        {rep.max_piece}  (bound {rep.bound} of length)")
    for c in rep.checks:
        print(f"  {'ok ' if c.ok else 'FAIL'} {c.name}: {c.detail}")
    print(f"elapsed          {dt:.2f}s")
    return 0 if rep.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
