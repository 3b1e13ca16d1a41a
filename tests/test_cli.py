"""End-to-end checks of the command-line reports and exit codes."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import given, strategies as st

from concc import cli, smallcanc
from concc.words import Alphabet


def run(capsys, argv):
    """Invoke the CLI in-process; returns (exit_code, parsed_report|None, raw)."""
    try:
        code = cli.main(argv)
    except SystemExit as e:
        code = e.code
    raw = capsys.readouterr().out
    doc = None
    if raw.lstrip().startswith("{"):
        doc = json.loads(raw)
    return code, doc, raw


def scrub(doc):
    """Drop the wall-clock field so reports can be compared bytewise."""
    clone = json.loads(json.dumps(doc))
    clone["timing"] = None
    return clone


def _drop(doc, key, stage=None):
    del (doc if stage is None else doc["stages"][stage])[key]
    return doc


def _set(doc, key, value, stage=None):
    (doc if stage is None else doc["stages"][stage])[key] = value
    return doc


class TestReportShape:
    def test_versioned_envelope(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, doc, _ = run(capsys, ["verify", "hyp-spec-gen", "--scale", "20"])
        assert code == 0
        assert doc["version"] == 1
        assert doc["kind"] == "run-report"
        assert doc["command"] == ["verify", "hyp-spec-gen", "--scale", "20"]
        assert {c["status"] for c in doc["checks"]} == {"pass"}
        assert "elapsed_seconds" in doc["timing"]
        assert doc["artifacts"]["max_piece"] == 98

    def test_failing_scale_exits_two(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, doc, _ = run(capsys, ["verify", "hyp-spec-gen", "--scale", "19"])
        assert code == 2
        failed = [c["name"] for c in doc["checks"] if c["status"] == "fail"]
        assert "metric-c-prime-1-8" in failed

    def test_report_written_to_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "report.json"
        code, _, raw = run(
            capsys, ["verify", "hyp-spec-gen", "--scale", "20", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "run-report"
        # the console gets a one-line-per-check summary instead
        assert "pass" in raw and "metric-c-prime-1-8" in raw

    def test_determinism_modulo_timing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["relpaths", "audit", "--instances", "200", "--seed", "11"]
        _, doc1, _ = run(capsys, argv)
        _, doc2, _ = run(capsys, argv)
        assert scrub(doc1) == scrub(doc2)


    @pytest.mark.parametrize(
        "scale, digest",
        [
            (19, "abe069d6115fa0eca3abe75cfd0edbf6d657bb2b0248f50a9ad286271df81cc3"),
            (20, "da689ad57d390e619898c8fd10a674d3889a28fc2bc8d85f7cdad3f37868244c"),
            (200, "c04670ff90dc922ff7a7b310a4d857d7233388da464c7577b1b48843cc8dad80"),
        ],
    )
    def test_hyp_spec_gen_report_is_pinned(self, capsys, tmp_path, monkeypatch, scale, digest):
        # sha256 of the report without its timing, printed with indent 2; a new
        # digest means a check, a witness or the necklace order changed
        monkeypatch.chdir(tmp_path)
        _, doc, _ = run(capsys, ["verify", "hyp-spec-gen", "--scale", str(scale)])
        del doc["timing"]
        text = json.dumps(doc, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


    def test_hyp_spec_gen_imports_no_masked_arrays(self, tmp_path):
        # a plain np.unique imports numpy.ma on its first call, inside the run
        code = (
            "import sys\n"
            "import concc.cli as cli\n"
            "assert 'numpy.ma' not in sys.modules\n"
            "cli.main(['verify', 'hyp-spec-gen', '--scale', '20', '--out', 'r.json'])\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, cwd=tmp_path, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"


def usage_error(capsys, argv):
    """Run a command that must fail on its arguments; returns (exit_code, stderr)."""
    with pytest.raises(SystemExit) as e:
        cli.main(argv)
    return e.value.code, capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, ["frobnicate"])
        assert code == 64

    def test_missing_subcommand(self, capsys):
        code, _, _ = run(capsys, ["tower"])
        assert code == 64

    def test_bad_flag_value(self, capsys):
        code, err = usage_error(capsys, ["verify", "hyp-spec-gen", "--scale", "zero"])
        assert code == 64
        assert "argument --scale: invalid int value: 'zero'" in err

    def test_nonpositive_scale(self, capsys):
        code, err = usage_error(capsys, ["verify", "hyp-spec-gen", "--scale", "0"])
        assert code == 64
        assert "argument --scale: must be at least 1, got 0" in err
        code, err = usage_error(capsys, ["smallcanc", "pieces", "--scale", "0"])
        assert code == 64
        assert "argument --scale: must be at least 1, got 0" in err

    def test_scale_above_the_int64_bound(self, capsys, monkeypatch):
        top = smallcanc.max_scale()

        def no_work(*args):
            raise AssertionError("work started before the scale was refused")

        for name in ("verify_hyp_spec_gen", "relator_trio", "symmetrize"):
            monkeypatch.setattr(smallcanc, name, no_work)
        for argv in (["verify", "hyp-spec-gen"], ["smallcanc", "pieces"]):
            code, err = usage_error(capsys, argv + ["--scale", str(top + 1)])
            assert code == 64
            assert err.startswith(f"usage: concc {argv[0]} {argv[1]}")
            assert f"argument --scale: must be at most {top}, got {top + 1}" in err

    def test_nonpositive_instances(self, capsys):
        code, err = usage_error(capsys, ["relpaths", "audit", "--instances", "0"])
        assert code == 64
        assert "argument --instances: must be at least 1, got 0" in err

    def test_negative_stages(self, capsys):
        code, err = usage_error(capsys, ["tower", "build", "--stages", "-1"])
        assert code == 64
        assert err.startswith("usage: concc tower build")
        assert "argument --stages: must be at least 0, got -1" in err

    def test_one_class_in_ncc_mode(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, err = usage_error(capsys, ["tower", "build", "--classes", "1"])
        assert code == 64
        assert err.startswith("usage: concc tower build")
        assert "argument --classes: must be at least 2 in ncc mode, got 1" in err
        assert not (tmp_path / "tower-cert.json").exists()
        # coset mode does not read --classes
        code, doc, _ = run(capsys, ["tower", "build", "--mode", "coset", "--classes", "1", "--stages", "3"])
        assert code == 0
        assert doc["artifacts"]["stages"] == 3


    @pytest.mark.parametrize(
        "argv",
        [["verify", "hyp-spec-gen"], ["tower", "build"], ["tower", "verify", "CERT"],
         ["check", "klein-bottle"], ["check", "bs12"], ["relpaths", "audit"], ["smallcanc", "pieces"]],
    )
    def test_unwritable_out(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        for out, why in (("missing/dir/r.json", "directory 'missing/dir' does not exist"),
                         (".", "'.' is a directory")):
            code, err = usage_error(capsys, argv + ["--out", out])
            assert code == 64
            assert err.startswith(f"usage: concc {argv[0]} {argv[1]}")
            assert f"argument --out: {why}" in err
        # refused before any work: not even a tower certificate was written
        assert not list(tmp_path.iterdir())


class TestExitCodeMapping:
    def test_unknown_only_maps_to_three(self):
        checks = [{"name": "a", "status": "pass"}, {"name": "b", "status": "unknown"}]
        assert cli._exit_code(checks) == 3

    def test_fail_beats_unknown(self):
        checks = [{"name": "a", "status": "unknown"}, {"name": "b", "status": "fail"}]
        assert cli._exit_code(checks) == 2

    def test_all_pass(self):
        assert cli._exit_code([{"name": "a", "status": "pass"}]) == 0


class TestTowerCommands:
    def test_build_then_verify_round_trip(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cert = tmp_path / "cert.json"
        code, doc, _ = run(
            capsys, ["tower", "build", "--stages", "30", "--out", str(cert)]
        )
        assert code == 0
        assert doc["artifacts"]["stages"] == 30
        assert cert.exists()

        code2, doc2, _ = run(capsys, ["tower", "verify", str(cert)])
        assert code2 == 0
        assert all(c["status"] == "pass" for c in doc2["checks"])
        assert doc2["artifacts"]["failures"] == []

    def test_verify_names_tampered_stage(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cert = tmp_path / "cert.json"
        run(capsys, ["tower", "build", "--stages", "30", "--out", str(cert)])
        doc = json.loads(cert.read_text())
        victim = None
        for rec in doc["stages"]:
            # need a skip whose element genuinely moves, so a wrong
            # conjugator cannot fix it by accident
            if rec["action"] == "skip" and rec["element"] != rec["target"]:
                victim = rec["stage"]
                rec["witness"] = "x1"
                break
        assert victim is not None
        cert.write_text(json.dumps(doc))
        code, rep, _ = run(capsys, ["tower", "verify", str(cert)])
        assert code == 2
        assert any(f"stage {victim}" in f for f in rep["artifacts"]["failures"])

    @pytest.mark.parametrize(
        "witness", ["t4^ x2^-1", "t4^+1 x2^-1", "t4^\u0660\u0661 x2^-1", "t4 x2^-0_1"]
    )
    def test_verify_rejects_misspelt_exponents(self, capsys, tmp_path, monkeypatch, witness):
        monkeypatch.chdir(tmp_path)
        cert = tmp_path / "cert.json"
        run(capsys, ["tower", "build", "--stages", "30", "--out", str(cert)])
        doc = json.loads(cert.read_text())
        assert doc["stages"][10]["witness"] == "t4 x2^-1"
        cert.write_text(json.dumps(_set(doc, "witness", witness, 10)))
        code, rep, _ = run(capsys, ["tower", "verify", str(cert)])
        assert code == 2
        assert [f.split(": ")[:2] for f in rep["artifacts"]["failures"]] == [["replay", "stage 11"]]

    @pytest.mark.parametrize(
        "key, stage, text, check",
        [
            ("witness", 11, "t1^1000000", "replay"),
            ("witness", 11, "t1^99999999999999999999", "replay"),
            ("element", 1, "x1^99999999999999999999", "well-formed"),
            ("witness", 24, "t2^300000 x1^-1", "replay"),
        ],
        ids=["witness-1e6", "witness-1e20", "element-1e20", "witness-chain"],
    )
    def test_exponent_probes_fail_fast(self, capsys, tmp_path, monkeypatch, key, stage, text, check):
        # no printed word carries an exponent other than -1, so each of these
        # stops before anything expands
        monkeypatch.chdir(tmp_path)
        cert = tmp_path / "cert.json"
        run(capsys, ["tower", "build", "--stages", "30", "--out", str(cert)])
        cert.write_text(json.dumps(_set(json.loads(cert.read_text()), key, text, stage - 1)))
        start = time.perf_counter()
        code, rep, _ = run(capsys, ["tower", "verify", str(cert)])
        assert time.perf_counter() - start < 2
        assert code == 2
        assert [f.split(": ")[:2] for f in rep["artifacts"]["failures"]] == [[check, f"stage {stage}"]]

    def test_verify_detects_truncation(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cert = tmp_path / "cert.json"
        run(capsys, ["tower", "build", "--stages", "30", "--out", str(cert)])
        doc = json.loads(cert.read_text())
        doc["stages"] = doc["stages"][:-1]
        cert.write_text(json.dumps(doc))
        code, rep, _ = run(capsys, ["tower", "verify", str(cert)])
        assert code == 2
        assert any("truncated" in f for f in rep["artifacts"]["failures"])

    def test_verify_unreadable_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, rep, _ = run(capsys, ["tower", "verify", str(tmp_path / "missing.json")])
        assert code == 2
        assert rep["checks"][0]["name"] == "certificate-readable"

    @pytest.mark.parametrize(
        "content, needle",
        [
            (b"[" * 200_000, "recursion"),
            (b"\xff\xfe{}", "decode"),
            (b"9" * 5000, "digits"),
            (b'{"stages": [{"witness": "x1", "witness": "1"}]}', "repeated key 'witness'"),
        ],
        ids=["deep-nesting", "bad-utf8", "long-integer", "repeated-key"],
    )
    def test_verify_reports_unreadable_content(
        self, capsys, tmp_path, monkeypatch, content, needle
    ):
        monkeypatch.chdir(tmp_path)
        cert = tmp_path / "cert.json"
        cert.write_bytes(content)
        code, rep, _ = run(capsys, ["tower", "verify", str(cert)])
        assert code == 2
        assert [c["name"] for c in rep["checks"]] == ["certificate-readable"]
        assert rep["checks"][0]["status"] == "fail"
        assert needle in rep["checks"][0]["detail"]

    @pytest.mark.parametrize(
        "mutate, check, needle",
        [
            (lambda doc, at: [1, 2], "well-formed", "not a JSON object"),
            (lambda doc, at: {}, "well-formed", "missing 'base'"),
            (lambda doc, at: _drop(doc, "stages"), "well-formed", "missing 'stages'"),
            (lambda doc, at: _drop(doc, "element", at["attach"]), "well-formed", "attach"),
            (lambda doc, at: _drop(doc, "stable", at["attach"]), "well-formed", "attach"),
            (lambda doc, at: _drop(doc, "target", at["attach"]), "well-formed", "attach"),
            (lambda doc, at: _set(doc, "element", "x1 x9", at["skip"]), "well-formed", "skip"),
            (lambda doc, at: _set(doc, "witness", "t99", at["skip"]), "replay", "skip"),
            (
                lambda doc, at: _set(doc, "base_facts", [dict(doc["base_facts"][0], left="1")]),
                "base-facts",
                "base fact on 1 and x2",
            ),
            (
                lambda doc, at: _set(doc, "representatives", ["1", "x2"]),
                "representatives",
                "representative 1 is the identity",
            ),
            (
                lambda doc, at: _set(doc, "seeds", {"1": ["1"]}),
                "representatives",
                "seed for class 1 is the identity",
            ),
            (lambda doc, at: _set(doc, "base_facts", 5), "well-formed", "not a list"),
        ],
        ids=[
            "list", "empty", "no-stages", "no-element", "no-stable", "no-target",
            "unknown-generator", "unknown-stable-letter", "identity-base-fact",
            "identity-representative", "identity-seed", "base-facts-not-a-list",
        ],
    )
    def test_verify_reports_malformed_documents(
        self, capsys, tmp_path, monkeypatch, mutate, check, needle
    ):
        monkeypatch.chdir(tmp_path)
        cert = tmp_path / "cert.json"
        run(capsys, ["tower", "build", "--stages", "30", "--out", str(cert)])
        doc = json.loads(cert.read_text())
        # index of the first attach record and of the first skip with a witness
        at = {}
        for i, rec in enumerate(doc["stages"]):
            at.setdefault("skip" if rec.get("witness") else rec["action"], i)
        if needle in at:
            needle = f"stage {at[needle] + 1}:"
        cert.write_text(json.dumps(mutate(doc, at)))
        code, rep, _ = run(capsys, ["tower", "verify", str(cert)])
        assert code == 2
        failed = [c for c in rep["checks"] if c["status"] == "fail"]
        assert [c["name"] for c in failed] == [check]
        assert needle in failed[0]["detail"]

    def test_coset_build_includes_quotient_check(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cert = tmp_path / "coset.json"
        code, doc, _ = run(
            capsys,
            ["tower", "build", "--mode", "coset", "--stages", "40", "--out", str(cert)],
        )
        assert code == 0
        names = [c["name"] for c in doc["checks"]]
        assert "quotient-check" in names
        assert all(c["status"] == "pass" for c in doc["checks"])


class TestWorkedExamples:
    def test_klein_bottle(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, doc, _ = run(capsys, ["check", "klein-bottle"])
        assert code == 0
        names = [c["name"] for c in doc["checks"]]
        assert "certified-non-conjugacy t vs t^-1" in names
        cert = doc["artifacts"]["certificate"]
        assert cert["certificate"] == "non-conjugacy"
        assert cert["images"] != [cert["images"][1], cert["images"][1]]

    def test_bs12(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, doc, _ = run(capsys, ["check", "bs12"])
        assert code == 0
        assert sum(1 for c in doc["checks"] if "non-conjugacy" in c["name"]) == 3


class TestPieceStatistics:
    def test_passing_scale(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, doc, _ = run(capsys, ["smallcanc", "pieces", "--scale", "20"])
        assert code == 0
        assert doc["artifacts"]["closure_size"] == 4920
        assert doc["artifacts"]["max_piece"] == 98

    @pytest.mark.parametrize("cmd", [["smallcanc", "pieces"], ["verify", "hyp-spec-gen"]])
    def test_reports_carry_the_index_check(self, capsys, tmp_path, monkeypatch, cmd):
        monkeypatch.chdir(tmp_path)
        _, doc, _ = run(capsys, cmd + ["--scale", "20"])
        names = [c["name"] for c in doc["checks"]]
        assert names[:2] == ["metric-c-prime-1-8", "piece-index-checked"]
        check = doc["checks"][1]
        assert check["status"] == "pass"
        assert check["detail"] == "suffix and LCP arrays of 486 run tokens checked"

    def test_failing_scale(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, doc, _ = run(capsys, ["smallcanc", "pieces", "--scale", "19"])
        assert code == 2
        failed = [c for c in doc["checks"] if c["status"] == "fail"]
        assert failed and "metric" in failed[0]["name"]


    def test_relator_column_prints_the_word_cut_to_sixty(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _, doc, _ = run(capsys, ["smallcanc", "pieces", "--scale", "4"])
        A = Alphabet(["a", "b"])
        trio = smallcanc.relator_trio(4, A.gen("a"), A.gen("b")).values()
        for row, r in zip(doc["artifacts"]["per_relator"], trio, strict=True):
            text = str(r)
            assert row["relator"] == (text if len(text) <= 60 else text[:57] + "...")

    @given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=90))
    def test_abbreviation_reads_only_a_prefix(self, letters):
        word = Alphabet(["a", "b"]).word(letters)
        text = str(word)
        assert cli._abbrev(word) == (text if len(text) <= 60 else text[:57] + "...")


class TestRelpathAudit:
    def test_small_audit_passes(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, doc, _ = run(capsys, ["relpaths", "audit", "--instances", "300"])
        assert code == 0
        names = [c["name"] for c in doc["checks"]]
        assert "trivial-cycles-no-isolated" in names
        assert "regularity-c-le-1" in names
        assert doc["seed"] == 20260405

    def test_script_runs(self):
        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run(
            [sys.executable, str(root / "scripts" / "relpath_audits.py"), "--instances", "200"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert "200 instances, 0 isolated components" in done.stdout
        assert "1000 instances, 0 irregular, 0 pairing violations" in done.stdout


class TestDehnRounds:
    def test_script_prints_one_line(self):
        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run(
            [sys.executable, str(root / "scripts" / "dehn_rounds.py"),
             "--conjugates", "3", "--max-length", "5", "--repeat", "1"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout)
        # one whole-relator step per conjugate; the reduced words of five
        # letters with a rotation inside a member of the one relator's closure
        assert line["rounds"] == 3 and line["short_words"] == 60
        assert line["ms_per_round"] > 0 and line["short_cpu_s"] >= 0


class TestHypScale:
    def test_script_prints_one_line(self):
        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run(
            [sys.executable, str(root / "scripts" / "hyp_scale.py"), "--scales", "20"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        (row,) = json.loads(done.stdout)["scales"]
        assert row["scale"] == 20 and row["ok"] and row["max_piece"] == 98
        phases = ("family_s", "symmetrize_s", "index_s", "dehn_s")
        assert all(row[p] >= 0 for p in phases) and row["total_s"] > 0
        assert row["peak_rss_mb"] > 0


class TestTowerDemo:
    def test_script_runs(self, tmp_path):
        # the output directory does not exist yet: the script makes it
        outdir = tmp_path / "new" / "out"
        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run(
            [sys.executable, str(root / "scripts" / "tower_demo.py"),
             "--stages", "60", "--outdir", str(outdir)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        replays = [l for l in done.stdout.splitlines() if l.startswith("replay ")]
        assert [l.split(":")[0] for l in replays] == [
            "replay tower-ncc.json", "replay tower-coset.json"
        ]
        assert all(l.endswith(", ok") for l in replays), done.stdout
        assert "quotient-check=ok" in done.stdout
        assert sorted(p.name for p in outdir.iterdir()) == ["tower-coset.json", "tower-ncc.json"]
