#!/usr/bin/env python3
"""Randomized free-product path audits plus the power-conjugacy probe table.

Usage: python3 scripts/relpath_audits.py [--instances 10000] [--seed 20260405]

Three phases over the free product Z * Z/5 * K with free part {x1, x2}:

1. trivial closed cycles: every factor component must connect to another;
2. mirrored r q r' q' instances with boundary constant <= 1: no middle
   component may be isolated and q/q' components must pair one-to-one;
3. the aligned power-conjugacy table for both twist signs, each predicted
   witness re-multiplied.
"""

import argparse
import random
import time

from concc import freeprod as fp
from concc.words import Alphabet


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instances", type=int, default=10000)
    ap.add_argument("--seed", type=int, default=20260405)
    args = ap.parse_args()

    t0 = time.perf_counter()
    audit = fp.path_audit(fp.audit_ctx(), random.Random(args.seed), args.instances)
    isolated, irregular, violations = audit.isolated, audit.irregular, audit.pair_violations
    print(f"trivial cycles: {audit.trivial_instances} instances, {isolated} isolated components")
    print(f"regularity audits: {audit.regularity_instances} instances, {irregular} irregular,"
          f" {violations} pairing violations ({time.perf_counter()-t0:.1f}s for both)")

    X = Alphabet(["x1", "x2"])
    ctx1 = fp.FreeProductCtx([fp.FreeAbelianFactor("A", 1)], X)
    t1 = ctx1.free_word([1])
    gamma, beta = (2,), (3,)
    u1 = ctx1.product([ctx1.syllable("A", gamma), t1, ctx1.syllable("A", beta)])
    rep1 = fp.commensuration_probe(
        ctx1, "A", (1,), t1, u1, range(1, 21),
        twist=fp.TwistSpec(gamma=gamma, beta=beta, xi=1, eps=1),
    )
    print("\nstraight twist (abelian factor):")
    for row in rep1.rows[:5]:
        print(f"  k={row.k:<3} exponents={row.exponents}"
              f" witness={row.witness}  verified={row.prediction_verified}")
    print(f"  ... all 20: found={rep1.all_found} verified={rep1.all_verified}")

    ctx2 = fp.FreeProductCtx([fp.KleinBottleFactor("K")], X)
    t2 = ctx2.free_word([1])
    g2 = (0, 1)
    u2 = ctx2.product([ctx2.syllable("K", g2), t2, ctx2.syllable("K", g2)])
    rep2 = fp.commensuration_probe(
        ctx2, "K", (1, 0), t2, u2, range(1, 21),
        twist=fp.TwistSpec(gamma=g2, beta=g2, xi=1, eps=-1),
    )
    print("flip twist (Klein bottle factor):")
    for row in rep2.rows[:5]:
        print(f"  k={row.k:<3} exponents={row.exponents}"
              f" witness={row.witness}  verified={row.prediction_verified}")
    print(f"  ... all 20: found={rep2.all_found} verified={rep2.all_verified}")

    ok = (isolated == 0 and irregular == 0 and violations == 0
          and rep1.all_verified and rep2.all_verified)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
