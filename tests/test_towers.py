import copy
import hashlib
import json

import pytest

from concc import hnn, towers
from concc.presentations import parse_presentation
from concc.towers import (
    TowerBuildError,
    TowerConfig,
    bounded_simple_witness,
    build_tower,
    certificate_to_json_str,
    gadget_presentation,
    klein_coset_config,
    quotient_check,
    reverify_certificate,
)


def ncc_config(classes=3, stages=50, **kw):
    pres = parse_presentation("< x1 , x2 | >")
    A = pres.alphabet
    reps = tuple(A.parse_word(f"x{i}") for i in range(1, classes))
    return TowerConfig(base=pres, classes=classes, representatives=reps, stages=stages, **kw)


class TestConfigValidation:
    def test_rep_count_must_match(self):
        pres = parse_presentation("< x1 , x2 | >")
        with pytest.raises(TowerBuildError):
            TowerConfig(
                base=pres, classes=3, representatives=(pres.alphabet.parse_word("x1"),)
            ).validate()

    def test_commensurable_reps_rejected(self):
        pres = parse_presentation("< x1 , x2 | >")
        A = pres.alphabet
        cfg = TowerConfig(
            base=pres,
            classes=3,
            representatives=(A.parse_word("x1"), A.parse_word("x1 x1")),
        )
        with pytest.raises(TowerBuildError):
            cfg.validate()

    def test_non_free_base_rejected(self):
        pres = parse_presentation("< a , t | t a t^-1 a >")
        with pytest.raises(TowerBuildError):
            TowerConfig(
                base=pres, classes=2, representatives=(pres.alphabet.parse_word("t"),)
            ).validate()

    def test_identity_representative_rejected(self):
        pres = parse_presentation("< x1 , x2 | >")
        with pytest.raises(TowerBuildError):
            TowerConfig(
                base=pres, classes=2, representatives=(pres.alphabet.identity(),)
            ).validate()


class TestNccBuild:
    def test_fifty_stages(self):
        build = build_tower(ncc_config())
        assert len(build.records) == 50
        # every attached stage names a stable letter and a target
        for r in build.records:
            if r.action == "attach":
                assert r.stable and r.target is not None
            else:
                assert r.witness is not None

    def test_deterministic(self):
        a = certificate_to_json_str(build_tower(ncc_config()))
        b = certificate_to_json_str(build_tower(ncc_config()))
        assert a == b

    @pytest.mark.parametrize(
        "config, digest",
        [
            (ncc_config(stages=2000), "a1a8ef3a3b23b2def58547aa5a86383d15881eb4f775f81797c1a9be421aabbe"),
            (klein_coset_config(40), "34bbd3677aaa294ba44d8a8a8af1deec7d3e464e09ef17ee5a58b25ca360861b"),
        ],
        ids=["ncc-2000", "coset-40"],
    )
    def test_certificate_bytes_are_pinned(self, config, digest):
        # sha256 of the file ``tower build`` writes for this config; a new
        # digest means the certificate format changed, not just the code
        text = certificate_to_json_str(build_tower(config)) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_classes_stay_within_bound(self):
        build = build_tower(ncc_config())
        used = {r.class_index for r in build.records if r.class_index}
        assert used <= {1, 2}

    def test_skip_witnesses_verify_by_britton(self):
        build = build_tower(ncc_config())
        tower = build.tower
        for r in build.records:
            if r.action != "skip" or r.witness is None:
                continue
            g = tower.parse(str(r.witness))
            w = tower.embed(r.element)
            tgt = tower.embed(r.target)
            assert hnn.verify_conjugator(g, w, tgt)

    def test_conjugator_witness_composes(self):
        build = build_tower(ncc_config())
        A = build.config.base.alphabet
        ans = build.conjugator_witness(A.parse_word("x1^-1"))
        assert ans.status == "yes" and ans.class_index == 1
        assert hnn.verify_conjugator(
            ans.witness, build.tower.embed(A.parse_word("x1^-1")), build.tower.embed(ans.target)
        )

    def test_unknown_for_unseen(self):
        build = build_tower(ncc_config(stages=5))
        A = build.config.base.alphabet
        ans = build.conjugator_witness(A.parse_word("x1 x2 x1 x2 x2"))
        assert ans.status == "unknown"


class TestReverify:
    def test_fresh_certificate_passes(self):
        build = build_tower(ncc_config())
        rep = reverify_certificate(build.to_json())
        assert rep.ok and not rep.failures

    def test_tampered_witness_names_stage(self):
        build = build_tower(ncc_config())
        doc = build.to_json()
        victim = None
        for s in doc["stages"]:
            if s.get("witness") and s["witness"] != "1":
                victim = s["stage"]
                s["witness"] = "x1 x2 x1"
                break
        assert victim is not None
        rep = reverify_certificate(doc)
        assert not rep.ok
        assert any(f"stage {victim}" in f for f in rep.failures)

    def test_truncation_detected(self):
        build = build_tower(ncc_config())
        doc = build.to_json()
        doc["stages"] = doc["stages"][:-1]
        rep = reverify_certificate(doc)
        assert not rep.ok
        assert any("truncated" in f for f in rep.failures)

    def test_forged_class_merge_detected(self):
        build = build_tower(ncc_config())
        doc = build.to_json()
        for s in doc["stages"]:
            if s["action"] == "attach" and s.get("case") == "fresh":
                s["class"] = 2  # fresh attachments must open class 1's merge path
                break
        rep = reverify_certificate(doc)
        assert not rep.ok

    def test_forged_base_fact_detected(self):
        build = build_tower(ncc_config())
        doc = build.to_json()
        doc["base_facts"][0]["related"] = not doc["base_facts"][0]["related"]
        rep = reverify_certificate(doc)
        assert not rep.ok
        assert any("base" in f for f in rep.failures)

    def test_json_string_round_trip(self):
        build = build_tower(ncc_config())
        doc = json.loads(certificate_to_json_str(build))
        assert reverify_certificate(doc).ok


class TestCosetMode:
    def test_build_and_quotient_check(self):
        build = build_tower(klein_coset_config(stages=40))
        q = quotient_check(build)
        assert q.ok and q.rows

    def test_images_of_t_and_inverse_distinct(self):
        cfg = klein_coset_config(stages=10)
        spec = cfg.quotient
        A = cfg.base.alphabet
        assert spec.image(A.parse_word("t")) != spec.image(A.parse_word("t^-1"))

    def test_reverify(self):
        build = build_tower(klein_coset_config(stages=40))
        rep = reverify_certificate(build.to_json())
        assert rep.ok

    def test_coset_tamper_detected(self):
        build = build_tower(klein_coset_config(stages=40))
        doc = build.to_json()
        for s in doc["stages"]:
            if s["action"] == "attach":
                s["target"] = "t^2" if s["target"] != "t^2" else "t"
                break
        rep = reverify_certificate(doc)
        assert not rep.ok

    def test_skip_rule_only_under_conjugation_invariant_quotient(self):
        build = build_tower(klein_coset_config(stages=40))
        skips = [r for r in build.records if r.action == "skip"]
        for r in skips:
            assert r.reason in (
                "conjugator-to-representative-known",
                "no-representative-for-image",
                "element-is-representative",
            )


class TestGadget:
    def test_needs_three_classes(self):
        with pytest.raises(TowerBuildError):
            gadget_presentation(2)

    def test_simple_witness_shapes(self):
        pres, reps, seeds = gadget_presentation(3)
        cfg = TowerConfig(
            base=pres,
            classes=3,
            representatives=reps,
            stages=1400,
            class_seeds=seeds,
        )
        build = build_tower(cfg)
        A = pres.alphabet
        x = A.parse_word("a2 b1 a2^-1 b1^-1")
        y = A.parse_word("a2")
        wit = bounded_simple_witness(build, x, y)
        assert wit.status == "yes"
        assert wit.verify()
        # same-class route: a single conjugate suffices
        wit2 = bounded_simple_witness(build, A.parse_word("a1^-1"), A.parse_word("a1"))
        assert wit2.status == "yes" and wit2.verify()

    def test_unstaged_comes_back_unknown(self):
        pres, reps, seeds = gadget_presentation(3)
        cfg = TowerConfig(
            base=pres, classes=3, representatives=reps, stages=5, class_seeds=seeds
        )
        build = build_tower(cfg)
        A = pres.alphabet
        wit = bounded_simple_witness(
            build, A.parse_word("a1 b2 a1 b2 a1"), A.parse_word("a2")
        )
        assert wit.status == "unknown"
