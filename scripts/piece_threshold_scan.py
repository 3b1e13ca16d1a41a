#!/usr/bin/env python3
"""Scan relator-family scales and report where the eighth-metric first holds.

Usage: python3 scripts/piece_threshold_scan.py [--lo 2] [--hi 24]

Prints, per scale, the relator length, closure size, longest piece and the
worst piece/length ratio.  The interesting output is the first scale whose
ratio drops strictly below 1/8 (it is 20 for this family; scales 19 and
below all carry a too-long piece).
"""

import argparse
import time
from fractions import Fraction

from concc import smallcanc
from concc.words import Alphabet


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lo", type=int, default=2)
    ap.add_argument("--hi", type=int, default=24)
    args = ap.parse_args()

    A = Alphabet(["a", "b"])
    a, b = A.gen("a"), A.gen("b")
    bound = Fraction(1, 8)
    first = None
    print(f"{'scale':>5} {'|R|':>7} {'closure':>8} {'piece':>6} {'ratio':>10}  metric")
    for s in range(args.lo, args.hi + 1):
        t0 = time.perf_counter()
        S = smallcanc.symmetrize(list(smallcanc.relator_trio(s, a, b).values()))
        rep = smallcanc.max_pieces(S)
        ok = smallcanc.check_metric(S, bound).ok
        worst = max(row["ratio"] for row in rep.per_relator)
        dt = time.perf_counter() - t0
        mark = "ok" if ok else "--"
        print(f"{s:>5} {2*s*s+s:>7} {S.closure_size:>8} {rep.max_piece_length:>6}"
              f" {str(worst):>10}  {mark}  ({dt:.2f}s)")
        if ok and first is None:
            first = s
    print(f"\nfirst scale with every ratio < {bound}: {first}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
