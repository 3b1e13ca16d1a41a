#!/usr/bin/env python3
"""Time the phases of the free-product path audit, in this interpreter.

Usage: python3 scripts/relpaths_phases.py [--instances 100000] [--repeat 5]

Runs the loop of ``freeprod.path_audit`` at seed 7 and times each call
apart, summing the seconds of each phase:

- ``cycle_gen_s``: ``instances`` calls of ``random_trivial_cycle``;
- ``connectivity_s``: ``connectivity`` of each of those cycles;
- ``mirrored_gen_s``: max(1000, instances // 10) calls of ``mirrored_instance``;
- ``regularity_s``: ``regularity_audit`` of each mirrored instance.

The instances are the ones ``concc relpaths audit --seed 7`` reads, and
the cycle sizes are drawn outside the timed calls.  Each phase reports its
best time over ``--repeat`` rounds.  Prints one JSON line, with the counts
the audit checks beside the seconds.
"""

import argparse
import json
import random
import time

from concc import freeprod as fp

SEED = 7
PHASES = ("cycle_gen_s", "connectivity_s", "mirrored_gen_s", "regularity_s")


def one_round(instances: int) -> tuple[list[float], dict]:
    """Seconds of each phase, and the counts the audit reads, for one round."""
    clock = time.perf_counter
    ctx, rng = fp.audit_ctx(), random.Random(SEED)
    secs = [0.0] * len(PHASES)
    counts = dict.fromkeys(("components", "isolated", "irregular", "pair_violations"), 0)
    for _ in range(instances):
        size = rng.randint(4, 16)
        t0 = clock()
        path = fp.random_trivial_cycle(ctx, rng, size=size)
        t1 = clock()
        rep = fp.connectivity(path)
        t2 = clock()
        secs[0] += t1 - t0
        secs[1] += t2 - t1
        counts["components"] += len(rep.components)
        counts["isolated"] += rep.isolated_count
    n_reg = max(1000, instances // 10)
    for _ in range(n_reg):
        t0 = clock()
        instance = fp.mirrored_instance(ctx, rng)
        t1 = clock()
        audit = fp.regularity_audit(ctx, *instance)
        t2 = clock()
        secs[2] += t1 - t0
        secs[3] += t2 - t1
        counts["irregular"] += audit.irregular_count
        counts["pair_violations"] += audit.pair_violations
    return secs, {"instances": instances, "regularity_instances": n_reg, **counts}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--instances", type=int, default=100000)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()
    best = [float("inf")] * len(PHASES)
    for _ in range(max(1, args.repeat)):
        secs, counts = one_round(args.instances)
        best = [min(b, s) for b, s in zip(best, secs)]
    row = {"seed": SEED, "repeat": max(1, args.repeat), **counts}
    row.update({p: round(s, 4) for p, s in zip(PHASES, best)})
    print(json.dumps(row))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
