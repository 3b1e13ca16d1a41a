"""Tests of the benchmark itself: inputs, gates, tracing and output format.

    python3 -m pytest perfbench/tests -q

The in-process tests shrink the job sizes in ``inputs.py`` (the ``small``
fixture); the two that run the command line use the real sizes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    for name, value in {
        "HYP_SCALE": 30,
        "DEHN_PRODUCTS": (2, 3, 4),
        "BRITTON_DEPTHS": (3, 4),
        "TOWER_STAGES": 300,
        "RELPATHS_INSTANCES": 2000,
    }.items():
        monkeypatch.setattr(inputs, name, value)


def run_job(workload: str, inp: dict, workdir, tracer=None) -> workloads.Job:
    job = workloads.Job(tracer)
    workloads.RUNNERS[workload](job, inp, str(workdir))
    return job


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_input_digest_is_fixed_by_the_seed(workload):
    first = inputs.digest(inputs.make(workload, 7))
    assert inputs.digest(inputs.make(workload, 7)) == first
    others = {inputs.digest(inputs.make(workload, s)) for s in range(8, 20)}
    assert first not in others or workload == "hyp_spec_gen"
    # hyp_spec_gen has three inputs only (scales 199, 200, 201)
    assert len(others) == (3 if workload == "hyp_spec_gen" else 12)


def test_inputs_import_no_concc():
    code = "import sys, inputs; inputs.make('word_problems', 1); print('concc' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True)
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_small_job_passes_every_gate(workload, tmp_path, small):
    job = run_job(workload, inputs.make(workload, 3), tmp_path)
    assert job.ops > 0
    assert (job.failed, job.errors) == (0, [])
    assert job.wall_s > 0


def _spoil(workload: str, inp: dict) -> int:
    """Make expected answers wrong; returns how many operations must fail."""
    if workload == "hyp_spec_gen":
        inp["expect"]["max_piece"] += 1
        return 1
    if workload == "word_problems":
        inp["dehn"][0]["trivial"] = not inp["dehn"][0]["trivial"]
        inp["britton"][0]["equal"] = not inp["britton"][0]["equal"]
        return 2
    if workload == "tower_cert":
        inp["expect"]["stages"] += 1
        return 1
    inp["expect"]["checks"] += 1
    return 1


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_wrong_expected_answer_counts_as_failed(workload, tmp_path, small):
    inp = inputs.make(workload, 3)
    wrong = _spoil(workload, inp)
    job = run_job(workload, inp, tmp_path)
    assert job.failed == wrong
    assert len(job.errors) == wrong


def test_tampered_certificate_is_rejected_at_its_stage(tmp_path, small):
    inp = inputs.make("tower_cert", 3)
    job = run_job("tower_cert", inp, tmp_path)
    assert job.failed == 0
    with open(tmp_path / "tower-verify.json") as fh:
        failures = json.load(fh)["artifacts"]["failures"]
    assert len(failures) == 1 and "stage " in failures[0]
    # the tampered copy is the certificate with " x1" added once
    good = (tmp_path / "tower-cert.json").read_bytes()
    bad = (tmp_path / "tower-cert-tampered.json").read_bytes()
    at = len(os.path.commonprefix([good, bad]))
    assert bad == good[:at] + b" x1" + good[at:]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_traced_job_reports_every_layer_and_restores_the_program(workload, tmp_path, small):
    from concc import smallcanc, substrings
    from concc.words import Word

    originals = (smallcanc.suffix_array, substrings.suffix_array, Word.__pow__)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert smallcanc.suffix_array is substrings.suffix_array is not originals[0]
        job = run_job(workload, inputs.make(workload, 3), tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert (smallcanc.suffix_array, substrings.suffix_array, Word.__pow__) == originals
    assert job.failed == 0
    layers = spans.layer_metrics(tracer.spans, tracer.counters, job.wall_s, spans.span_cost())
    assert set(layers) == set(spans.SPAN_METRICS) | set(spans.DERIVED_METRICS)
    assert 0 < layers["bench.trace_overhead_s"] < 0.1 * job.wall_s
    assert 0.95 < layers["bench.top_span_share"] <= 1.0 + 1e-9
    assert sum(1 for s in tracer.spans if s[0] == spans.OP) == job.ops


def test_busy_and_self_time_from_spans():
    rows = [
        ("cli.main", 0.0, 10.0, -1, 0),
        ("towers.build", 1.0, 4.0, 0, 0),
        ("cli.main", 5.0, 7.0, 0, 0),
    ]
    out = spans.layer_metrics(rows, {}, 10.0, 1e-6)
    assert out["cli.main_s"] == 10.0  # the nested call lies inside the outer one
    assert out["cli.self_s"] == (10.0 - 3.0 - 2.0) + 2.0
    assert out["towers.build_s"] == 3.0
    assert out["bench.top_span_share"] == 1.0
    assert out["bench.trace_overhead_s"] == pytest.approx(3e-6)


def test_span_cost_is_positive_and_small():
    assert 0 < spans.span_cost(calls=2000) < 1e-4


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail(list(range(10))) is None
    t = run.tail([float(x) for x in range(1, 21)])
    assert t == {"percentile": 50, "value": 10.0}
    assert sum(1 for x in range(1, 21) if x > t["value"]) >= 10


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_output_metrics_match_benchmark_json(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    cmd = spec["command"] + ["--workload", "relpaths_audit", "--seed", "5", "--seconds", "1",
                             "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    line = _last_json(done.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    want = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {m["name"]: m["unit"] for m in want}
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "relpaths_audit", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout == ""
