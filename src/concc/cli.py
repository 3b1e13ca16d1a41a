"""Command-line front end: verification suites, tower builds, certificate replay.

Every subcommand emits one versioned JSON report.  Reports are
deterministic for a fixed command and seed, with wall-clock data confined
to the ``timing`` key, and each passing report embeds enough certificate
material to re-verify offline.  Exit codes: 0 all checks pass, 2 any
check failed, 3 checks ended unknown but none failed, 64 usage error.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import random
import sys
import time
from fractions import Fraction

from . import freeprod as fp
from . import hnn, smallcanc, towers
from .presentations import KillSpec, conjugacy_obstruction, parse_presentation
from .words import Alphabet, Word

REPORT_VERSION = 1

USAGE_EXIT = 64
FAIL_EXIT = 2
UNKNOWN_EXIT = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the report contract reserves 2 for
    failed checks, so usage problems leave through 64 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _at_least(low: int, most=None):
    """argparse type: an int no smaller than low and, if ``most`` is given,
    no larger than ``most()``, computed only when the flag is read; argparse
    names the flag when it is not."""
    def parse(text: str) -> int:
        if (value := int(text)) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if most is not None and value > (high := most()):
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    parse.__name__ = "int"  # a non-number still reads "invalid int value"
    return parse


def _out_file(text: str) -> str:
    """argparse type: a path whose directory exists and that is not itself a
    directory, so that writing the output after the work fails on neither."""
    path = pathlib.Path(text)
    if path.is_dir():
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    if not path.parent.is_dir():
        raise argparse.ArgumentTypeError(f"directory {str(path.parent)!r} does not exist")
    return text


def _add_common(p: _Parser) -> None:
    p.add_argument("--out", type=_out_file, metavar="FILE", help="write the JSON report here")


def build_parser() -> _Parser:
    top = _Parser(prog="concc", description=__doc__)
    # the report goes to --out where a subcommand has it; only the audit has a seed
    top.set_defaults(out=None, seed=None)
    sub = top.add_subparsers(dest="group", required=True, parser_class=_Parser)

    verify = sub.add_parser("verify", help="run a verification suite")
    vsub = verify.add_subparsers(dest="cmd", required=True, parser_class=_Parser)
    hsg = vsub.add_parser(
        "hyp-spec-gen",
        help="small-cancellation generation step: metric, collapses, survivor",
    )
    hsg.add_argument("--scale", type=_at_least(1, smallcanc.max_scale), default=100, metavar="S")
    _add_common(hsg)

    tower = sub.add_parser("tower", help="build or re-verify class towers")
    tsub = tower.add_subparsers(dest="cmd", required=True, parser_class=_Parser)
    tb = tsub.add_parser("build", help="run a tower build and write its certificate")
    tb.add_argument("--classes", type=int, default=3, metavar="N")
    tb.add_argument("--stages", type=_at_least(0), default=50, metavar="M")
    tb.add_argument("--mode", default="ncc", choices=["ncc", "coset"])
    tb.add_argument(
        "--out",
        dest="cert_out",  # it names the certificate, so the report goes to stdout
        type=_out_file,
        metavar="FILE",
        help="write the certificate here (default tower-cert.json); the report goes to stdout",
    )
    # --classes is read only in ncc mode, so its bound is checked there
    tb.set_defaults(error=tb.error)
    tv = tsub.add_parser("verify", help="replay a certificate file")
    tv.add_argument("certificate", metavar="FILE")
    _add_common(tv)

    check = sub.add_parser("check", help="worked examples with certificates")
    csub = check.add_subparsers(dest="cmd", required=True, parser_class=_Parser)
    _add_common(csub.add_parser("klein-bottle", help="t vs t^-1 in the Klein bottle group"))
    _add_common(csub.add_parser("bs12", help="powers of t in BS(1,2)"))

    relp = sub.add_parser("relpaths", help="free-product path audits")
    rsub = relp.add_subparsers(dest="cmd", required=True, parser_class=_Parser)
    ra = rsub.add_parser("audit", help="randomized connectivity and regularity audits")
    ra.add_argument("--instances", type=_at_least(1), default=10000, metavar="N")
    ra.add_argument("--seed", type=int, default=20260405, metavar="SEED")
    _add_common(ra)

    sc = sub.add_parser("smallcanc", help="piece statistics for relator families")
    ssub = sc.add_subparsers(dest="cmd", required=True, parser_class=_Parser)
    pieces = ssub.add_parser("pieces", help="exact piece lengths and metric margins")
    pieces.add_argument("--scale", type=_at_least(1, smallcanc.max_scale), default=20, metavar="S")
    _add_common(pieces)

    return top


# -- report plumbing -------------------------------------------------------


def _check(name: str, ok: bool | None, detail: str) -> dict:
    """One report check; ``ok`` None means the check ended unknown."""
    status = "unknown" if ok is None else "pass" if ok else "fail"
    return {"name": name, "status": status, "detail": detail}


def _exit_code(checks: list[dict]) -> int:
    statuses = {c["status"] for c in checks}
    if "fail" in statuses:
        return FAIL_EXIT
    if "unknown" in statuses:
        return UNKNOWN_EXIT
    return 0


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# -- subcommands -----------------------------------------------------------


def _cmd_hyp_spec_gen(args) -> tuple[list[dict], dict]:
    rep = smallcanc.verify_hyp_spec_gen(args.scale)
    checks = [_check(c.name, c.ok, c.detail) for c in rep.checks]
    artifacts = {
        "scale": rep.scale,
        "relator_length": rep.relator_length,
        "closure_size": rep.closure_size,
        "max_piece": rep.max_piece,
        "bound": str(rep.bound),
    }
    return checks, artifacts


def _ncc_config(classes: int, stages: int) -> towers.TowerConfig:
    if classes <= 3:
        pres = parse_presentation("< x1 , x2 | >")
        A = pres.alphabet
        reps = tuple(A.gen(f"x{i}") for i in range(1, classes))
        return towers.TowerConfig(
            base=pres, classes=classes, representatives=reps, stages=stages
        )
    pres, reps, seeds = towers.gadget_presentation(classes)
    return towers.TowerConfig(
        base=pres,
        classes=classes,
        representatives=reps,
        stages=stages,
        class_seeds=seeds,
    )


def _cmd_tower_build(args) -> tuple[list[dict], dict]:
    if args.mode == "coset":
        config = towers.klein_coset_config(args.stages)
    elif args.classes < 2:
        args.error(f"argument --classes: must be at least 2 in ncc mode, got {args.classes}")
    else:
        config = _ncc_config(args.classes, args.stages)
    build = towers.build_tower(config)
    out_path = args.cert_out or "tower-cert.json"

    checks = [
        _check(
            "build-completed",
            len(build.records) == args.stages,
            f"{len(build.records)} stages recorded",
        )
    ]
    used = sorted(
        {r.class_index for r in build.records if r.class_index and r.action == "attach"}
    )
    checks.append(
        _check(
            "nonidentity-classes-bound",
            len(used) <= len(config.representatives),
            f"classes touched by attachments: {used}",
        )
    )
    if args.mode == "coset":
        q = towers.quotient_check(build)
        checks.append(
            _check("quotient-check", q.ok, f"{len(q.rows)} attached relations compatible")
        )
    # the self-replay reads back exactly the text that goes into the file
    text = towers.certificate_to_json_str(build)
    with open(out_path, "w") as fh:
        fh.write(text + "\n")
    replay = towers.reverify_certificate(towers.load_certificate(text))
    checks.append(
        _check(
            "self-reverify",
            replay.ok,
            "; ".join(replay.failures) or f"{len(replay.checks)} checks replayed",
        )
    )
    artifacts = {
        "certificate_file": out_path,
        "mode": config.mode,
        "classes": config.classes,
        "stages": len(build.records),
        "attachments": sum(1 for r in build.records if r.action == "attach"),
        "skips": sum(1 for r in build.records if r.action == "skip"),
    }
    return checks, artifacts


def _cmd_tower_verify(args) -> tuple[list[dict], dict]:
    try:
        with open(args.certificate) as fh:
            doc = towers.load_certificate(fh.read())
    except (OSError, ValueError, RecursionError) as e:
        # ValueError covers bad JSON, bad UTF-8, over-long integer literals and
        # repeated keys; RecursionError covers nesting deeper than the decoder allows
        checks = [_check("certificate-readable", False, str(e))]
        return checks, {"certificate_file": args.certificate}
    rep = towers.reverify_certificate(doc)
    checks = [_check(c["name"], c["ok"], c["detail"]) for c in rep.checks]
    artifacts = {
        "certificate_file": args.certificate,
        "failures": rep.failures,
    }
    return checks, artifacts


def _cmd_klein_bottle(args) -> tuple[list[dict], dict]:
    pres = parse_presentation("< a , t | t a t^-1 a >")
    spec = KillSpec(pres, frozenset({"a"}))
    A = pres.alphabet
    t = A.gen("t")
    cert = conjugacy_obstruction(pres, spec, t, t.inverse())
    checks = []
    if cert is None:
        checks.append(
            _check(
                "certified-non-conjugacy t vs t^-1",
                None,
                "retraction images are conjugate; no obstruction",
            )
        )
        cert_json = None
    else:
        checks.append(
            _check(
                "certified-non-conjugacy t vs t^-1",
                cert.verify(),
                f"kill-{{a}} images {cert.u_image!r} vs {cert.v_image!r}",
            )
        )
        cert_json = cert.to_json()
    tower = hnn.klein_bottle_tower()
    rel = tower.parse("t a t^-1 a")
    verdict = hnn.is_trivial(rel)
    checks.append(
        _check(
            "relation t a t^-1 a = 1",
            verdict.is_yes,
            "Britton reduction empties the defining relation",
        )
    )
    artifacts = {"certificate": cert_json}
    return checks, artifacts


def _cmd_bs12(args) -> tuple[list[dict], dict]:
    pres = parse_presentation("< a , t | t a t^-1 a^-2 >")
    spec = KillSpec(pres, frozenset({"a"}))
    A = pres.alphabet
    t = A.gen("t")
    checks = []
    certs = []
    for i, j in ((2, 4), (2, 8), (4, 8)):
        cert = conjugacy_obstruction(pres, spec, t**i, t**j)
        ok = cert is not None and cert.verify()
        checks.append(
            _check(
                f"certified-non-conjugacy t^{i} vs t^{j}",
                ok,
                "kill-{a} images differ as cyclic words" if ok else "no obstruction found",
            )
        )
        if cert is not None:
            certs.append(cert.to_json())
    tower = hnn.bs12_tower()
    up = hnn.equal_in_group(tower.parse("t a t^-1"), tower.parse("a^2"))
    down = hnn.equal_in_group(tower.parse("t^-1 a^2 t"), tower.parse("a"))
    checks.append(_check("relation t a t^-1 = a^2", up.is_yes, "Britton reduction"))
    checks.append(_check("relation t^-1 a^2 t = a", down.is_yes, "Britton reduction"))
    return checks, {"certificates": certs}


def _cmd_relpaths_audit(args) -> tuple[list[dict], dict]:
    ctx = fp.audit_ctx()
    audit = fp.path_audit(ctx, random.Random(args.seed), args.instances)
    checks = [
        _check(
            "trivial-cycles-no-isolated",
            audit.isolated == 0,
            f"{audit.trivial_instances} random trivial cycles, "
            f"{audit.isolated} isolated components",
        ),
        _check(
            "regularity-c-le-1",
            audit.irregular == 0,
            f"{audit.regularity_instances} mirrored instances, "
            f"{audit.irregular} irregular middle components",
        ),
        _check(
            "pairing-no-violations",
            audit.pair_violations == 0,
            f"{audit.pair_violations} classes pairing one side twice",
        ),
    ]
    artifacts = {
        "trivial_instances": audit.trivial_instances,
        "regularity_instances": audit.regularity_instances,
        "factors": [f.label for f in ctx.factors],
    }
    return checks, artifacts


def _abbrev(w: Word | smallcanc.RunWord, limit: int = 60) -> str:
    """``str(w)`` cut to ``limit`` characters; spells only a prefix of w."""
    # each letter prints as at least one character and a separating blank
    text = str(smallcanc.RunWord.of(w).word(limit))
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _cmd_smallcanc_pieces(args) -> tuple[list[dict], dict]:
    A = Alphabet(["a", "b"])
    trio = smallcanc.relator_trio(args.scale, A.gen("a"), A.gen("b"))
    S = smallcanc.symmetrize(list(trio.values()))
    pieces = smallcanc.max_pieces(S)
    metric = smallcanc.check_metric(S, Fraction(1, 8))
    checks = [
        _check(
            "metric-c-prime-1-8",
            metric.ok,
            "all pieces strictly below an eighth"
            if metric.ok
            else f"piece of length {pieces.max_piece_length} inside a "
            f"relator of length {metric.carrier_length}",
        ),
        _check("piece-index-checked", S.index().checked, S.index().check_detail),
    ]
    artifacts = {
        "scale": args.scale,
        "closure_size": pieces.closure_size,
        "max_piece": pieces.max_piece_length,
        "per_relator": [
            {
                "relator": _abbrev(row["relator"]),
                "length": row["length"],
                "max_piece": row["max_piece"],
                "ratio": str(row["ratio"]),
            }
            for row in pieces.per_relator
        ],
    }
    return checks, artifacts


_HANDLERS = {
    ("verify", "hyp-spec-gen"): _cmd_hyp_spec_gen,
    ("tower", "build"): _cmd_tower_build,
    ("tower", "verify"): _cmd_tower_verify,
    ("check", "klein-bottle"): _cmd_klein_bottle,
    ("check", "bs12"): _cmd_bs12,
    ("relpaths", "audit"): _cmd_relpaths_audit,
    ("smallcanc", "pieces"): _cmd_smallcanc_pieces,
}


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and emit its report to ``--out`` or stdout; the
    exit code follows the report's checks."""
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    # the handlers make no reference cycles worth collecting, and a full
    # collection walks every live word and record, so the cyclic collector
    # is off while one runs and back as the caller had it after
    collecting = gc.isenabled()
    gc.disable()
    try:
        checks, artifacts = _HANDLERS[(args.group, args.cmd)](args)
    finally:
        if collecting:
            gc.enable()
    doc = {
        "version": REPORT_VERSION,
        "kind": "run-report",
        "command": argv,
        "seed": args.seed,
        "checks": checks,
        "artifacts": artifacts,
        "timing": {"elapsed_seconds": round(time.perf_counter() - started, 3)},
    }
    _emit(doc, args.out)
    if args.out:
        for c in checks:
            print(f"{c['status']:7s} {c['name']}")
    return _exit_code(checks)


if __name__ == "__main__":
    raise SystemExit(main())
