#!/usr/bin/env python3
"""Time the phases of an ncc tower build and its replay, in this interpreter.

Usage: python3 scripts/tower_phases.py [--stages 15000] [--repeat 5]

Builds the tower ``concc tower build --stages N`` builds (three classes
over F(x1, x2)) and times each phase apart:

- ``build_s``: ``towers.build_tower``, which verifies every skip's
  conjugator by Britton reduction;
- ``write_s``: ``towers.certificate_to_json_str`` of that build;
- ``load_s``: ``towers.load_certificate`` of the text;
- ``replay_s``: ``towers.reverify_certificate`` of the loaded document;
- ``checks_s``: the replay's skip checks alone, each witness read by
  ``Tower.printed_items`` straight into ``hnn.conjugator_holds`` at the
  tower of its stage; the towers are rebuilt from the document first,
  outside the clock.

Each phase reports its best time over ``--repeat`` rounds.  Prints one
JSON line with the seconds, the sha256 of the certificate file the CLI
writes (the text and a newline), and the stage, attach and skip counts.
"""

import argparse
import hashlib
import json
import time

from concc import cli, hnn, towers, words

PHASES = ("build_s", "write_s", "load_s", "replay_s", "checks_s")


def skip_checks(doc: dict) -> list[tuple]:
    """(tower, witness text, element items, target items) of each skip stage
    with a witness, in stage order, as replay checks it."""
    base = words.Alphabet(doc["base"])
    tower, out = hnn.Tower(base), []
    for s in doc["stages"]:
        g, target = base.parse_word(s["element"]), base.parse_word(s.get("target", "1"))
        if s["action"] == "attach":
            tower = tower.extend(hnn.CyclicAssociation(s["stable"], g, target))
        elif "witness" in s:
            out.append((tower, s["witness"], (g.letters,), (target.letters,)))
    return out


def one_round(stages: int) -> tuple[list[float], dict]:
    """Seconds of each phase, and what the build and replay gave, for one round."""
    clock = time.perf_counter
    config = cli._ncc_config(3, stages)
    t0 = clock()
    build = towers.build_tower(config)
    t1 = clock()
    text = towers.certificate_to_json_str(build)
    t2 = clock()
    doc = towers.load_certificate(text)
    t3 = clock()
    report = towers.reverify_certificate(doc)
    t4 = clock()
    if not report.ok:
        raise SystemExit(f"replay failed: {report.failures}")
    checks = skip_checks(doc)
    t5 = clock()
    for tower, witness, g, target in checks:
        if not hnn.conjugator_holds(tower, tower.printed_items(witness), g, target):
            raise SystemExit(f"skip check failed on witness {witness}")
    t6 = clock()
    attaches = sum(r.action == "attach" for r in build.records)
    out = {
        "stages": len(build.records),
        "attaches": attaches,
        "skips": len(build.records) - attaches,
        "sha256": hashlib.sha256((text + "\n").encode()).hexdigest(),
    }
    return [t1 - t0, t2 - t1, t3 - t2, t4 - t3, t6 - t5], out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--stages", type=int, default=15000)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()
    best = [float("inf")] * len(PHASES)
    for _ in range(max(1, args.repeat)):
        secs, out = one_round(args.stages)
        best = [min(b, s) for b, s in zip(best, secs)]
    row = {"repeat": max(1, args.repeat), **out}
    row.update({p: round(s, 4) for p, s in zip(PHASES, best)})
    print(json.dumps(row))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
