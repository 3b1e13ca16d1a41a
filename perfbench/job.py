"""One job of one workload, in a fresh interpreter started by ``run.py``.

Set-up is interpreter start, ``import concc`` and generating the seeded
inputs; the job notes the monotonic clock when it is done, so the parent
can measure set-up from the moment it spawned this process.  Then the
workload runs once, and the result goes to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(1, os.path.join(ROOT, "src"))

import numpy  # noqa: E402

import concc.cli  # noqa: E402,F401  (set-up pays for importing every layer)
import inputs  # noqa: E402
from spans import Tracer, layer_metrics, span_cost  # noqa: E402
from workloads import RUNNERS, Job  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    inp = inputs.make(args.workload, args.seed)
    result = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    if not args.setup_only:
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        job = Job(tracer)
        RUNNERS[args.workload](job, inp, args.workdir)
        result.update(
            wall_s=job.wall_s,
            ops=job.ops,
            failed=job.failed,
            errors=job.errors,
            latencies=job.latencies,
            input_digest=inputs.digest(inp),
            numpy=numpy.__version__,
        )
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = layer_metrics(tracer.spans, tracer.counters, job.wall_s, span_cost())
            tracer.dump(args.result.replace(".json", "-spans.json"))
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    # skip interpreter teardown: it is not part of any job
    os._exit(0)


if __name__ == "__main__":
    main()
