#!/usr/bin/env python3
"""Build one tower of each kind, write certificates, and replay them.

Usage: python3 scripts/tower_demo.py [--stages 50] [--outdir .]

Builds the three-class tower over F(x1, x2) and the mod-3 coset tower over
the Klein bottle group, prints a stage digest for each, writes the
certificates as JSON, and re-verifies both from the serialized form alone.
"""

import argparse
import collections
import pathlib

from concc import towers
from concc.presentations import parse_presentation


def digest(build):
    actions = collections.Counter(r.action for r in build.records)
    classes = collections.Counter(
        r.class_index for r in build.records if r.action == "attach"
    )
    return dict(actions), dict(sorted(classes.items()))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--stages", type=int, default=50)
    ap.add_argument("--outdir", default=".")
    args = ap.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    pres = parse_presentation("< x1 , x2 | >")
    A = pres.alphabet
    reps = (A.word([A.letter("x1")]), A.word([A.letter("x2")]))
    ncc = towers.build_tower(towers.TowerConfig(
        base=pres, classes=3, representatives=reps, stages=args.stages
    ))
    actions, classes = digest(ncc)
    print(f"ncc tower:   {actions} attachments per class {classes}")
    ncc_path = outdir / "tower-ncc.json"
    ncc_path.write_text(towers.certificate_to_json_str(ncc) + "\n")

    coset = towers.build_tower(towers.klein_coset_config(args.stages))
    actions, classes = digest(coset)
    q = towers.quotient_check(coset)
    print(f"coset tower: {actions} attachments per class {classes}"
          f"  quotient-check={'ok' if q.ok else 'FAIL'}")
    coset_path = outdir / "tower-coset.json"
    coset_path.write_text(towers.certificate_to_json_str(coset) + "\n")

    bad = 0
    for path in (ncc_path, coset_path):
        rep = towers.reverify_certificate(towers.load_certificate(path.read_text()))
        status = "ok" if rep.ok else "FAIL: " + "; ".join(rep.failures)
        print(f"replay {path.name}: {len(rep.checks)} checks, {status}")
        bad += not rep.ok
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
