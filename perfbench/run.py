"""concc benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Jobs run one after another, each in a fresh
single-threaded interpreter (see ``job.py``), until the next job would end
after ``--seconds``.  With ``--trace 0`` the last line of output carries the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of traced jobs
interleaved with untraced ones.  The line before it holds the details: sample
counts, tail percentiles, input digest and an environment stamp.  Work files
go to ``.bench_build/perfbench``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
from spans import DERIVED_METRICS, SPAN_METRICS  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = [*SPAN_METRICS, *DERIVED_METRICS]
MIN_SETUPS = 25
JOB_TIMEOUT_S = 150
SINGLE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


class BenchError(RuntimeError):
    pass


def _clock() -> float:
    # CLOCK_MONOTONIC is system-wide, so parent and child stamps compare
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "bytes" if name.endswith("_bytes") else "count"


def run_child(args, workdir: str, n: int, traced: bool = False, setup_only: bool = False) -> dict:
    """Spawn one job, wait for it, and add its set-up time and rusage."""
    result = os.path.join(workdir, f"job-{n}.json")
    cmd = [sys.executable, os.path.join(HERE, "job.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", workdir, "--result", result]
    cmd += ["--trace"] * traced + ["--setup-only"] * setup_only
    env = {**os.environ, **SINGLE_THREAD, "PYTHONHASHSEED": "0"}
    pid = 0
    spawned = _clock()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if _clock() - spawned > JOB_TIMEOUT_S:
                raise BenchError(f"job {n} did not finish in {JOB_TIMEOUT_S} s")
            time.sleep(0.005)
    finally:
        if not pid:
            proc.kill()
            proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"job {n} exited with code {proc.returncode}")
    with open(result) as fh:
        out = json.load(fh)
    out["setup_s"] = out.pop("ready") - spawned
    out["cpu_s"] = usage.ru_utime + usage.ru_stime
    out["peak_rss_mb"] = usage.ru_maxrss / 1024
    out["traced"] = traced
    return out


def tail(values: list[float]) -> dict | None:
    """Highest whole percentile with at least ten samples beyond it (nearest rank)."""
    n = len(values)
    if n < 11:
        return None
    p = 100 * (n - 10) // n
    return {"percentile": p, "value": sorted(values)[math.ceil(p * n / 100) - 1]}


def summary(values: list[float]) -> dict:
    return {"n": len(values), "median": statistics.median(values), "tail": tail(values)}


def source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "concc")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or None


def run(args) -> tuple[dict, dict]:
    workdir = os.path.join(ROOT, ".bench_build", "perfbench", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    load_start = os.getloadavg()
    started = _clock()
    jobs: list[dict] = []
    while True:
        traced = args.trace and len(jobs) % 2 == 1
        jobs.append(run_child(args, workdir, len(jobs), traced=traced))
        elapsed = _clock() - started
        # a traced run needs one untraced and one traced job at least
        if (not args.trace or len(jobs) >= 2) and elapsed + elapsed / len(jobs) > args.seconds:
            break
    setups = [j["setup_s"] for j in jobs]
    # a traced run reports no setup_s
    while not args.trace and len(setups) < MIN_SETUPS:
        setups.append(run_child(args, workdir, len(jobs) + len(setups), setup_only=True)["setup_s"])

    plain = [j for j in jobs if not j["traced"]]
    traced = [j for j in jobs if j["traced"]]
    if args.trace:
        metrics = {
            k: {"value": statistics.median(j["layers"][k] for j in traced), "unit": layer_unit(k)}
            for k in PER_LAYER
        }
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(j["wall_s"] for j in plain),
            "cpu_s": statistics.median(j["cpu_s"] for j in plain),
            "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in plain),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": int(args.trace),
        "input_digest": jobs[0]["input_digest"],
        "jobs": len(jobs),
        "traced_jobs": len(traced),
        "setup_s": summary(setups),
        "wall_s": summary([j["wall_s"] for j in plain]),
        "traced_wall_s": summary([j["wall_s"] for j in traced]) if traced else None,
        "op_latency_s": summary([x for j in plain for x in j["latencies"]]),
        "errors": [e for j in jobs for e in j["errors"]][:20],
        "env": {
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
            "python": sys.version.split()[0],
            "numpy": jobs[0]["numpy"],
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
            "run_s": _clock() - started,
        },
    }
    attempted = sum(j["ops"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return details, line


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "concc", "__init__.py")):
        print(f"no concc sources under {ROOT}/src; run from a repository checkout", file=sys.stderr)
        return 2
    try:
        details, line = run(args)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    with open(os.path.join(ROOT, ".bench_build", "perfbench", f"{args.workload}-result.json"), "w") as fh:
        json.dump({"details": details, "result": line}, fh, indent=1)
    print(json.dumps(details))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
