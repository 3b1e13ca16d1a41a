"""The timed part of each workload: calls into concc plus known-answer gates.

Every operation is one timed call whose verdict is checked against the
answer stored in the generated inputs (see ``inputs.py``).  A wrong verdict
or an exception counts the operation as failed; the job goes on.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
from time import perf_counter

from spans import OP


class WrongAnswer(Exception):
    pass


def check(ok: bool, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


class Job:
    """Closed loop with one caller: each operation starts when the last ends."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops = 0
        self.failed = 0
        self.errors: list[str] = []
        self.latencies: list[float] = []
        self.start: float | None = None
        self.end: float | None = None

    def op(self, label: str, fn) -> None:
        call = fn
        if self.tracer is not None:
            self.tracer.op = self.ops
            call = self.tracer.span(OP, fn)
        t0 = perf_counter()
        if self.start is None:
            self.start = t0
        error = None
        try:
            call()
        except WrongAnswer as e:
            error = f"wrong answer: {e}"
        except Exception as e:  # an operation that raises is a failed operation
            error = f"raised {type(e).__name__}: {e}"
        self.end = perf_counter()
        self.latencies.append(self.end - t0)
        self.ops += 1
        if error is not None:
            self.failed += 1
            self.errors.append(f"{label}: {error}")

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def _cli(argv: list[str]) -> int:
    from concc import cli

    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as e:
            return e.code


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def _passed(report: dict) -> bool:
    return all(c["status"] == "pass" for c in report["checks"])


def hyp_spec_gen(job: Job, inp: dict, workdir: str) -> None:
    out = os.path.join(workdir, "hyp-spec-gen.json")

    def run():
        code = _cli(inp["argv"] + ["--out", out])
        check(code == 0, f"exit code {code}")
        art = _load(out)["artifacts"]
        for key, want in inp["expect"].items():
            check(art[key] == want, f"{key} is {art[key]}, expected {want}")

    job.op("hyp-spec-gen", run)


def word_problems(job: Job, inp: dict, workdir: str) -> None:
    from concc import hnn, smallcanc
    from concc.words import Alphabet

    A = Alphabet(["a", "b"])
    sets = []

    def relators():
        S = smallcanc.symmetrize([A.parse_word(t) for t in inp["trio"]])
        check(S.closure_size == inp["closure_size"], f"closure size {S.closure_size}")
        sets.append(S)

    job.op("symmetrize", relators)
    for i, case in enumerate(inp["dehn"]):

        def dehn(case=case):
            red = smallcanc.dehn_reduce_traced(A.parse_word(case["text"]), sets[0])
            check(red.is_empty == case["trivial"], f"reduced to {len(red.word)} letters")

        job.op(f"dehn-{i}", dehn)
    for i, case in enumerate(inp["britton"]):

        def britton(case=case):
            T = hnn.bs12_tower()
            v = hnn.equal_in_group(T.parse(case["left"]), T.parse(case["right"]))
            want = "yes" if case["equal"] else "no"
            check(v.status == want, f"{case['left']} vs {case['right']}: {v.status}")

        job.op(f"britton-{i}", britton)


def _tamper_target(doc: dict, pick: float) -> tuple[int, str]:
    """A late skip stage over both generators and its witness: appending x1
    to that conjugator breaks it, since x1 commutes with no base word that
    involves x2."""
    n = doc["stage_count"]
    cands = [
        (s["stage"], s["witness"])
        for s in doc["stages"][n - n // 10 :]
        if s["action"] == "skip"
        and s.get("witness")
        and {t.partition("^")[0] for t in s["element"].split()} == {"x1", "x2"}
    ]
    check(bool(cands), "no skip stage to tamper with near the end")
    return cands[int(pick * len(cands))]


def _tamper(data: bytes, stage: int, witness: str) -> bytes:
    """The certificate text with `` x1`` appended to one stage's witness,
    every other byte kept."""
    rec = re.search(rb'"stage":\s*%d\b' % stage, data)
    check(rec is not None, f"stage {stage} not in the certificate text")
    old = json.dumps(witness).encode()
    at = data.find(old, rec.end(), data.index(b"}", rec.end()))
    check(at >= 0, f"witness of stage {stage} not in its record")
    return data[:at] + json.dumps(witness + " x1").encode() + data[at + len(old) :]


def tower_cert(job: Job, inp: dict, workdir: str) -> None:
    cert = os.path.join(workdir, "tower-cert.json")
    bad = os.path.join(workdir, "tower-cert-tampered.json")
    report = os.path.join(workdir, "tower-verify.json")
    n = inp["expect"]["stages"]

    def build():
        code = _cli(inp["argv"] + ["--out", cert])
        check(code == 0, f"build exit code {code}")
        # stage numbers read straight from the text, without parsing it
        with open(cert, "rb") as fh:
            data = fh.read()
        count = re.search(rb'"stage_count":\s*(\d+)', data)
        numbers = [int(x) for x in re.findall(rb'"stage":\s*(\d+)', data)]
        check(count is not None and int(count[1]) == n, "stage count")
        check(numbers == list(range(1, n + 1)), "stage numbers")

    def verify():
        code = _cli(["tower", "verify", cert, "--out", report])
        check(code == 0 and _passed(_load(report)), f"verify exit code {code}")

    def tampered():
        with open(cert, "rb") as fh:
            data = fh.read()
        # the parsed copy is gone before the program runs again
        stage, witness = _tamper_target(json.loads(data), inp["tamper_pick"])
        with open(bad, "wb") as fh:
            fh.write(_tamper(data, stage, witness))
        del data
        code = _cli(["tower", "verify", bad, "--out", report])
        check(code == 2, f"tampered certificate: exit code {code}")
        failures = _load(report)["artifacts"]["failures"]
        check(
            len(failures) == 1 and f"stage {stage}:" in failures[0],
            f"stage {stage} tampered, failures name {failures}",
        )

    job.op("tower-build", build)
    job.op("tower-verify", verify)
    job.op("tower-verify-tampered", tampered)


def relpaths_audit(job: Job, inp: dict, workdir: str) -> None:
    out = os.path.join(workdir, "relpaths-audit.json")

    def run():
        code = _cli(inp["argv"] + ["--out", out])
        report = _load(out)
        check(code == 0 and _passed(report), f"exit code {code}")
        check(len(report["checks"]) == inp["expect"]["checks"], "number of checks")

    job.op("relpaths-audit", run)


RUNNERS = {
    "hyp_spec_gen": hyp_spec_gen,
    "word_problems": word_problems,
    "tower_cert": tower_cert,
    "relpaths_audit": relpaths_audit,
}
