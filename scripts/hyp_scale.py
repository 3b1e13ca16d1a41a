#!/usr/bin/env python3
"""Time the phases of the hyperbolic-quotient generation step, scale by scale.

Usage: python3 scripts/hyp_scale.py [--scales 1000 3000 10000]

Each scale runs in a fresh interpreter, so that its peak RSS is its own.
Prints one JSON line with a row per scale:

- ``family_s``: building the relator trio and the survivor R(a, b) as runs;
- ``symmetrize_s``: the closure of the trio;
- ``index_s``: the piece index with its self-check, the C'(1/8) metric check
  and the longest-piece report;
- ``dehn_s``: the four Dehn reductions, the trio to the empty word and the
  survivor to itself, with the search structure they build on first use;
- ``peak_rss_mb``: ``ru_maxrss`` of the interpreter at the end;
- ``ok`` and ``max_piece``: the verdicts ``verify_hyp_spec_gen`` reports.
"""

import argparse
import json
import resource
import subprocess
import sys
import time
from fractions import Fraction


def one(s: int) -> dict:
    """The phases of scale s, timed in this interpreter."""
    from concc import smallcanc
    from concc.words import Alphabet

    A = Alphabet(["a", "b"])
    a, b = A.gen("a"), A.gen("b")
    t = [time.perf_counter()]
    trio = smallcanc.relator_trio(s, a, b)
    survivor = smallcanc.r_family(s, a, b)
    t.append(time.perf_counter())
    S = smallcanc.symmetrize(list(trio.values()))
    t.append(time.perf_counter())
    metric = smallcanc.check_metric(S, Fraction(1, 8))
    pieces = smallcanc.max_pieces(S)
    t.append(time.perf_counter())
    empty = [smallcanc.dehn_reduce_traced(r, S).is_empty for r in trio.values()]
    kept = smallcanc.dehn_reduce_traced(survivor, S)
    t.append(time.perf_counter())
    phases = ("family_s", "symmetrize_s", "index_s", "dehn_s")
    row = {"scale": s, **{p: round(t1 - t0, 4) for p, t0, t1 in zip(phases, t, t[1:])}}
    row["total_s"] = round(t[-1] - t[0], 4)
    row["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    row["ok"] = bool(metric.ok and S.index().checked and all(empty) and kept.irreducible and kept.runs == survivor)
    row["max_piece"] = pieces.max_piece_length
    return row


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--scales", type=int, nargs="+", default=[1000, 3000, 10000])
    ap.add_argument("--one", type=int, help=argparse.SUPPRESS)  # a single scale, in this interpreter
    args = ap.parse_args()
    if args.one is not None:
        print(json.dumps(one(args.one)))
        return 0
    rows = []
    for s in args.scales:
        done = subprocess.run([sys.executable, __file__, "--one", str(s)], capture_output=True, text=True, check=True)
        rows.append(json.loads(done.stdout))
    print(json.dumps({"scales": rows}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
