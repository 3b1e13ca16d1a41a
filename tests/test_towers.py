import copy
import functools
import hashlib
import itertools
import json
import re
import sys
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from concc import hnn, towers, words
from concc.presentations import CyclicSpec, KillSpec, parse_presentation
import oracles
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


def gadget_config(classes, stages):
    """What ``concc tower build --classes N`` builds for N >= 4: the seeded gadget."""
    pres, reps, seeds = gadget_presentation(classes)
    return TowerConfig(
        base=pres, classes=classes, representatives=reps, stages=stages, class_seeds=seeds
    )


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

    def test_coset_representative_over_another_alphabet_rejected(self):
        cfg = klein_coset_config(10)
        alien = words.Alphabet(["a", "t", "u"]).parse_word("u")
        cfg.representatives = cfg.representatives[:2] + (alien,)
        with pytest.raises(TowerBuildError, match="not over the base alphabet"):
            cfg.validate()

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
            (gadget_config(4, 1500), "4350485d950e1626043fd39db0423ab7d7b721b0655e576a213dded838322ecd"),
        ],
        ids=["ncc-2000", "coset-40", "gadget-4-1500"],
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


ABC = words.Alphabet(["a", "b", "c"])
abc_letters = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=10)


class TestClassKey:
    @given(abc_letters, st.integers(1, 4), abc_letters)
    def test_matches_the_cyclic_word_formula(self, us, k, ps):
        # periodic cores u^k, and their conjugates p u^k p^-1
        u = ABC.word(us) ** k
        for x in (u, u.conjugated_by(ABC.word(ps))):
            key, i, at = towers._class_key_at(x)
            assert key == oracles.class_key(x) == words.CyclicWord.of(x).letters
            codes = [[words.letter_code(l) for l in key[r:] + key[:r]] for r in range(len(key))]
            assert not codes or codes[0] == min(codes)
            # the key is x's core, after the i peeled letters, rotated to its k-th letter
            core, prefix = words.cyclic_reduce(x)
            assert prefix.letters == x.letters[:i] and core.letters[at:] + core.letters[:at] == key

    def test_single_letters_and_the_identity(self):
        for size in range(1, 4):
            A = words.Alphabet([f"g{i}" for i in range(1, size + 1)])
            assert towers._class_key_at(A.identity()) == ((), 0, 0)
            for l in A.letters_in_order():
                assert towers._class_key_at(A.word([l])) == ((l,), 0, 0)


class TestConjugatorFromOffsets:
    @given(abc_letters, st.integers(1, 3), abc_letters, abc_letters, st.integers(0, 29))
    def test_matches_the_rotation_search(self, us, m, qs, ps, j):
        # a stored element g0 = q c q^-1 with c = u^m cyclically reduced, so
        # cores may be periodic, and any conjugate g of it: the build's
        # conjugator is the one words.conjugacy_witness finds
        c = words.cyclic_reduce(ABC.word(us) ** m)[0]
        assume(not c.is_identity)
        q, p = ABC.word(qs), ABC.word(ps)
        g0 = c.conjugated_by(q)
        j %= len(c)
        g = ABC.word(c.letters[j:] + c.letters[:j]).conjugated_by(p)
        config = TowerConfig(base=parse_presentation("< a , b , c | >"), representatives=(c,))
        b = towers.TowerBuild(config)
        w0 = b.tower.embed(q.inverse())
        b._remember_witness(towers._class_key_at(g0), g0, 1, w0)
        ans = b.conjugator_witness(g)
        assert ans.status == "yes" and ans.class_index == 1 and ans.target == c
        assert ans.witness == w0 * b.tower.embed(words.conjugacy_witness(g, g0))


class TestStageWork:
    def test_build_computes_each_class_key_once(self, monkeypatch):
        keys = []
        key_at = towers._class_key_at
        monkeypatch.setattr(towers, "_class_key_at", lambda w: keys.append(w) or key_at(w))
        config = ncc_config(3, 300)
        build = build_tower(config)
        # once per stage, plus once per representative
        assert len(keys) == 300 + len(config.representatives)
        assert keys[len(config.representatives):] == [r.element for r in build.records]

    def test_one_conjugator_check_per_skip(self, monkeypatch):
        checks = []
        holds = hnn.conjugator_holds
        monkeypatch.setattr(hnn, "conjugator_holds", lambda *a: checks.append(a) or holds(*a))
        build = build_tower(ncc_config(3, 300))
        skips = sum(r.action == "skip" for r in build.records)
        assert skips > 200 and len(checks) == skips
        checks.clear()
        assert reverify_certificate(json.loads(certificate_to_json_str(build))).ok
        assert len(checks) == skips


class TestSkipChecks:
    """The replay's check of every skip witness, with and without a letter appended."""

    @pytest.mark.parametrize(
        "config", [lambda: ncc_config(3, 2000), lambda: gadget_config(4, 400)], ids=["ncc-2000", "gadget-4"]
    )
    def test_every_witness_passes_and_no_appended_one(self, config, monkeypatch):
        build = build_tower(config())
        doc = json.loads(certificate_to_json_str(build))
        calls = []
        holds = hnn.conjugator_holds
        monkeypatch.setattr(hnn, "conjugator_holds", lambda *a: calls.append(a) or holds(*a))
        assert reverify_certificate(doc).ok
        skips = [s for s in doc["stages"] if "witness" in s]
        assert len(calls) == len(skips) > 50
        A = build.config.base.alphabet
        x = A.names[0]  # x1 over the ncc base
        refused = 0
        for (tower, w, g, target), s in zip(calls, skips):
            text = s["witness"]
            assert str(hnn.TowerWord(tower, w)) == text and g == (A.parse_word(s["element"]).letters,)
            assert holds(tower, w, g, target)
            try:
                ok = holds(tower, tower.printed_items(f"{text} {x}"), g, target)
            except hnn.HnnError:  # "1 x1", or x1 after x1^-1
                ok = False
            # w x1 conjugates g onto the target too exactly when x1 commutes
            # with g, which in the free base means g is a power of x1
            valid = words.is_power_of(words.Word(A, g[0]), A.gen(x)) is not None
            assert ok == (valid and text != "1" and not text.endswith(f"{x}^-1"))
            refused += not ok
        assert refused > len(skips) // 2


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

    # each document below is accepted by a replay that does not recompute
    # the enumeration, the skip reasons and the attach targets

    def test_unknown_action_fails_structure(self):
        doc = valid_certificate("ncc")
        doc["stages"][1]["action"] = "frob"
        rep = reverify_certificate(doc)
        assert [c["name"] for c in rep.checks if not c["ok"]] == ["structure"]
        assert rep.failures[0].startswith("structure: stage 2:")

    def test_ncc_skip_needs_a_known_conjugator(self):
        doc = valid_certificate("ncc")
        victim = next(s for s in doc["stages"] if s["action"] == "skip")
        victim["reason"] = "whatever"
        del victim["witness"]
        rep = reverify_certificate(doc)
        assert rep.failures == [
            f"replay: stage {victim['stage']}: skip reason 'whatever' is not a conjugator"
        ]

    def test_dropped_skips_break_the_enumeration(self):
        doc = valid_certificate("ncc")
        kept = [s for s in doc["stages"] if s["action"] == "attach"]
        for i, s in enumerate(kept, start=1):
            s["stage"] = i
        doc["stages"], doc["stage_count"] = kept, len(kept)
        rep = reverify_certificate(doc)
        assert rep.failures[0].startswith("structure: stage 1: element x1^-1 is not shortlex")

    def test_attach_must_target_its_class_representative(self):
        doc = valid_certificate("ncc")
        # stage 28 attaches x1^-1 x1^-1 x2^-1 onto x1; x1 x1 lies in the same
        # class, and no later witness uses the letter of stage 28
        victim = doc["stages"][27]
        assert (victim["action"], victim["target"]) == ("attach", "x1")
        victim["target"] = "x1 x1"
        rep = reverify_certificate(doc)
        assert rep.failures[0].startswith("replay: stage 28: target x1 x1 is not the representative")

    @pytest.mark.parametrize(
        "name, problem",
        [
            ("t^2", "contains reserved characters"),
            ("t s", "contains reserved characters"),
            ("*", "contains reserved characters"),
            ("", "is not a nonempty string"),
            ("1", "is the identity literal"),
        ],
    )
    def test_unprintable_stable_name_fails_at_its_attach(self, name, problem):
        doc = valid_certificate("ncc")
        # stage 4 attaches t2, and the witness of stage 24 uses it
        victim = doc["stages"][3]
        old = victim["stable"]
        assert old == "t2" and doc["stages"][23]["witness"] == "t2 x1^-1"
        # rename the letter everywhere, so only the name itself is wrong
        victim["stable"] = name
        for s in doc["stages"]:
            if "witness" in s:
                toks = [t.partition("^") for t in s["witness"].split()]
                s["witness"] = " ".join(
                    (name if n == old else n) + sep + e for n, sep, e in toks
                )
        rep = reverify_certificate(doc)
        assert rep.failures == [f"well-formed: stage 4: stable letter name {name!r} {problem}"]

    def test_inflated_witness_fails_fast_at_its_stage(self):
        # t2^300000 x1^-1 closes 300 000 pinches in one chain when replay
        # verifies it; moving list slots at every pinch is quadratic in that
        doc = valid_certificate("ncc")
        assert doc["stages"][23]["witness"] == "t2 x1^-1"
        doc["stages"][23]["witness"] = "t2^300000 x1^-1"
        start = time.perf_counter()
        rep = reverify_certificate(doc)
        assert time.perf_counter() - start < 10
        assert len(rep.failures) == 1 and rep.failures[0].startswith("replay: stage 24: ")

    @pytest.mark.parametrize(
        "witness", ["t4^ x2^-1", "t4^+1 x2^-1", "t4^\u0660\u0661 x2^-1", "t4 x2^-0_1"]
    )
    def test_misspelt_exponent_fails_at_its_stage(self, witness):
        # each spelling once read as the recorded t4 x2^-1; no writer emits it
        doc = valid_certificate("ncc")
        assert doc["stages"][10]["witness"] == "t4 x2^-1"
        doc["stages"][10]["witness"] = witness
        rep = reverify_certificate(doc)
        assert len(rep.failures) == 1
        assert rep.failures[0].startswith("replay: stage 11: bad exponent")

    def test_coset_class_must_match_the_image(self):
        doc = valid_certificate("coset")
        for s in doc["stages"]:
            s["class"] = 99
        rep = reverify_certificate(doc)
        assert rep.failures == ["images: stage 1: recorded class 99, image 0 has class 1"]

    @pytest.mark.parametrize("reason", ["no-representative-for-image", "element-is-representative"])
    def test_coset_skip_reasons_are_recomputed(self, reason):
        doc = valid_certificate("coset")
        victim = next(s for s in doc["stages"] if s.get("witness", "1") != "1")
        victim["reason"] = reason
        if reason == "no-representative-for-image":
            del victim["target"], victim["witness"]
        rep = reverify_certificate(doc)
        assert rep.failures[0].startswith(f"images: stage {victim['stage']}:")


@functools.cache
def _valid_certificate_text(mode):
    config = ncc_config(stages=30) if mode == "ncc" else klein_coset_config(40)
    return certificate_to_json_str(build_tower(config))


def valid_certificate(mode):
    """A fresh copy of the 30-stage ncc or the 40-stage coset certificate."""
    return json.loads(_valid_certificate_text(mode))


CHECK_NAMES = {
    "base-alphabet", "well-formed", "structure", "representatives", "base-facts",
    "replay", "independence", "quotient", "images", "stage-relations",
}
MUTANT_VALUES = ["1", "", "x9", -1, None, [], {}, 3.5]


def _slots(node):
    """Every (container, key) pair inside a JSON document."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return []
    return [slot for k, v in items for slot in [(node, k), *_slots(v)]]


class TestReplayMutations:
    @settings(max_examples=400)
    @given(st.sampled_from(["ncc", "coset"]), st.data())
    def test_mutants_get_a_report(self, mode, data):
        doc = valid_certificate(mode)
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            stages = doc.get("stages")
            ops = ["delete", "set"]
            if isinstance(stages, list) and len(stages) > 1:
                ops.append("swap")
            op = data.draw(st.sampled_from(ops), label="op")
            if op == "swap":
                i, j = data.draw(
                    st.lists(st.integers(0, len(stages) - 1), min_size=2, max_size=2, unique=True),
                    label="stages",
                )
                stages[i], stages[j] = stages[j], stages[i]
                continue
            node, key = data.draw(st.sampled_from(_slots(doc)), label="slot")
            if op == "delete":
                del node[key]
            else:
                node[key] = copy.deepcopy(data.draw(st.sampled_from(MUTANT_VALUES), label="value"))

        rep = reverify_certificate(doc)
        # replay stops at its first failing check, which ends the report
        assert rep.failures == ([] if rep.ok else [rep.failures[0]])
        assert all(c["ok"] for c in rep.checks[:-1])
        assert rep.checks[-1]["ok"] == rep.ok and rep.checks[-1]["name"] in CHECK_NAMES
        if rep.ok:
            A = words.Alphabet(doc["base"])
            wanted = itertools.islice(words.shortlex_words(A), len(doc["stages"]))
            assert [A.parse_word(s["element"]) for s in doc["stages"]] == list(wanted)


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


def kill_coset_config(stages):
    """Coset drive over F(a, t) by the map that kills a: images are words in t."""
    pres = parse_presentation("< a , t | >")
    A = pres.alphabet
    return TowerConfig(
        base=pres,
        mode="coset",
        classes=3,
        stages=stages,
        quotient=KillSpec(pres, frozenset({"a"})),
        representatives=(A.gen("a"), A.gen("t"), A.gen("t").inverse()),
    )


class TestCosetReplay:
    def test_kill_spec_build_reuses_no_conjugator_and_replays(self):
        build = build_tower(kill_coset_config(40))
        reasons = {r.reason for r in build.records if r.action == "skip"}
        assert reasons == {"no-representative-for-image", "element-is-representative"}
        # t a is a conjugate of a t, stage 6: a CyclicSpec build would reuse
        # that conjugator, a KillSpec build attaches again
        stage = {str(r.element): r for r in build.records}
        assert stage["a t"].action == stage["t a"].action == "attach"
        rep = reverify_certificate(json.loads(certificate_to_json_str(build)))
        assert rep.ok
        assert [c["name"] for c in rep.checks] == [
            "structure", "quotient", "images", "stage-relations", "representatives"
        ]

    def test_recorded_image_must_be_recomputed(self):
        doc = valid_certificate("coset")
        victim = doc["stages"][1]
        assert (victim["element"], victim["image"]) == ("a^-1", "0")
        victim["image"] = "1"
        rep = reverify_certificate(doc)
        assert rep.failures == ["images: stage 2: recorded image 1, recomputed 0"]

    def test_skip_with_reason_attach_fails(self):
        # a skip record must not extend the tower, whatever its reason says
        doc = valid_certificate("coset")
        victim = doc["stages"][1]
        assert victim["action"] == "attach"
        victim["action"], victim["reason"] = "skip", "attach"
        rep = reverify_certificate(doc)
        assert rep.failures == ["images: stage 2: a skip cannot give reason 'attach'"]

    @pytest.mark.parametrize("action", ["attach", "skip"])
    def test_target_must_be_the_representative(self, action):
        doc = valid_certificate("coset")
        # the first stage of that kind whose target is a (class 1)
        victim = next(
            s for s in doc["stages"]
            if s["action"] == action and s.get("target") == "a" and s.get("witness") != "1"
        )
        victim["target"] = "a a"
        rep = reverify_certificate(doc)
        assert rep.failures == [
            f"images: stage {victim['stage']}: target a a is not a, the representative"
        ]


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


# -- one spelling per certificate ------------------------------------------


def seeded_ncc_config(stages):
    """ncc, three classes, with the seed x1 x1 in class 1: a word text with a
    repeated letter in an element, a seed and a base fact."""
    A = ncc_config().base.alphabet
    return ncc_config(stages=stages, class_seeds={1: (A.parse_word("x1 x1"),)})


@functools.cache
def _printed_text(name):
    config = {
        "seeded-ncc-45": lambda: seeded_ncc_config(45),
        "gadget-4-60": lambda: gadget_config(4, 60),
    }[name]()
    return certificate_to_json_str(build_tower(config))


def respell_power(text):
    """The first repeated token N N (or N^-1 N^-1) as N^2 (N^-2)."""
    toks = text.split(" ")
    i = next(i for i in range(len(toks) - 1) if toks[i] == toks[i + 1])
    name, _, exp = toks[i].partition("^")
    return " ".join(toks[:i] + [f"{name}^{2 * int(exp or 1)}"] + toks[i + 2 :])


def respell_insert(pair):
    def insert(text):
        first, _, rest = text.partition(" ")
        return f"{first} {pair} {rest}"
    return insert


RESPELLINGS = {
    "power": respell_power,
    "star": lambda text: text.replace(" ", " * "),
    "double-space": lambda text: text.replace(" ", "  ", 1),
    "leading-blank": lambda text: " " + text,
    "hat-one": lambda text: text.replace(" ", "^1 ", 1),
}


def _word_field(field):
    """(document, container and key of the field, prefix of its failure, a
    cancelling pair of base letters) for a fresh honest document; every
    field text chosen has two equal adjacent tokens."""
    seeded = json.loads(_printed_text("seeded-ncc-45"))
    coset = valid_certificate("coset")
    repeat = re.compile(r"(?:^| )(\S+) \1(?: |$)")
    witness = next(s for s in seeded["stages"] if repeat.search(s.get("witness", "")))
    target = next(s for s in coset["stages"] if s.get("target") == "t t")
    fields = {
        "element": (seeded, seeded["stages"][4], "element", "structure: stage 5: "),
        "target": (coset, target, "target", f"images: stage {target['stage']}: "),
        "witness": (seeded, witness, "witness", f"replay: stage {witness['stage']}: "),
        "representative": (coset, coset["representatives"], 2, "representatives: "),
        "seed": (seeded, seeded["seeds"]["1"], 0, "representatives: "),
        "base-fact": (seeded, seeded["base_facts"][1], "right", "base-facts: "),
    }
    doc, node, key, prefix = fields[field]
    return doc, node, key, prefix, "a a^-1" if doc is coset else "x2 x2^-1"


class TestOneSpelling:
    @pytest.mark.parametrize("respelling", [*RESPELLINGS, "insert"])
    @pytest.mark.parametrize(
        "field", ["element", "target", "witness", "representative", "seed", "base-fact"]
    )
    def test_respelt_field_fails_at_its_stage(self, field, respelling):
        doc, node, key, prefix, pair = _word_field(field)
        assert reverify_certificate(doc).ok
        spell = respell_insert(pair) if respelling == "insert" else RESPELLINGS[respelling]
        old = node[key]
        node[key] = spell(old)
        # the same word, spelt another way
        A = words.Alphabet(doc["base"])
        if field != "witness":
            assert node[key] != old and A.parse_word(node[key]) == A.parse_word(old)
        rep = reverify_certificate(doc)
        assert len(rep.failures) == 1 and rep.failures[0].startswith(prefix)

    def test_readable_elements_name_the_printed_form(self):
        doc = valid_certificate("ncc")
        doc["stages"][4]["element"] = "x1^2"
        rep = reverify_certificate(doc)
        assert rep.failures == ["structure: stage 5: element 'x1^2' is not the printed form of x1 x1"]

    @pytest.mark.parametrize(
        "witness, problem",
        [
            ("t2 1 x1^-1", "1 stands only alone"),
            ("", "empty token"),
            ("t2 x1^-1 x1", "not freely reduced"),
            ("t2 t2^-1 t2 x1^-1", "not freely reduced"),
            ("t2^-01 x1^-1", "exponent -01 in token 't2^-01'"),
            ("t2^2 x1^-1", "exponent 2 in token 't2^2'"),
        ],
    )
    def test_witness_reader_takes_only_the_printed_form(self, witness, problem):
        doc = valid_certificate("ncc")
        assert doc["stages"][23]["witness"] == "t2 x1^-1"
        doc["stages"][23]["witness"] = witness
        rep = reverify_certificate(doc)
        assert len(rep.failures) == 1
        assert rep.failures[0].startswith("replay: stage 24: ") and problem in rep.failures[0]

    @settings(max_examples=30, deadline=None)
    @given(
        st.one_of(
            st.tuples(st.just("ncc"), st.integers(2, 3), st.integers(0, 80)),
            st.tuples(st.just("gadget"), st.integers(3, 4), st.integers(0, 80)),
            st.tuples(st.sampled_from(["klein", "kill", "z4"]), st.just(0), st.integers(0, 60)),
        )
    )
    def test_honest_word_fields_are_printed(self, shape):
        kind, classes, stages = shape
        config = {
            "ncc": lambda: ncc_config(classes, stages),
            "gadget": lambda: gadget_config(classes, stages),
            "klein": lambda: klein_coset_config(stages),
            "kill": lambda: kill_coset_config(stages),
            "z4": lambda: z4_coset_config(stages),
        }[kind]()
        build = build_tower(config)
        doc = json.loads(certificate_to_json_str(build))
        A, tower = build.config.base.alphabet, build.tower
        texts = list(doc["representatives"])
        texts += [w for ws in doc.get("seeds", {}).values() for w in ws]
        texts += [f[k] for f in doc.get("base_facts", []) for k in ("left", "right")]
        texts += [s[k] for s in doc["stages"] for k in ("element", "target") if k in s]
        assert all(t == str(A.parse_word(t)) for t in texts)
        for s in doc["stages"]:
            if "witness" in s:
                assert s["witness"] == str(tower.parse(s["witness"]))
                assert tower.read_printed(s["witness"]) == tower.parse(s["witness"])
        assert reverify_certificate(doc).ok


class TestSeedKeys:
    @pytest.mark.parametrize("key", ["+1", " 1", "01", "١"])
    def test_respelt_seed_key_fails(self, key):
        # int() reads each of these keys as 1
        doc = json.loads(_printed_text("gadget-4-60"))
        assert reverify_certificate(doc).ok
        doc["seeds"][key] = doc["seeds"].pop("1")
        rep = reverify_certificate(doc)
        assert rep.failures == [f"representatives: seed key {key!r} is not a class 1..3"]

    def test_second_spelling_of_a_key_fails(self):
        # the empty list under "01" used to replace class 1's seeds unchecked
        doc = json.loads(_printed_text("gadget-4-60"))
        doc["seeds"] = {"1": doc["seeds"]["1"], "01": [], **doc["seeds"]}
        rep = reverify_certificate(doc)
        assert rep.failures == ["representatives: seed key '01' is not a class 1..3"]


# -- one format, defined by the writer ---------------------------------------


def rename_stable(doc, old, new):
    """Rename stable letter ``old`` in its attach and in every witness."""
    for s in doc["stages"]:
        if s.get("stable") == old:
            s["stable"] = new
        if "witness" in s:
            toks = [t.partition("^") for t in s["witness"].split(" ")]
            s["witness"] = " ".join((new if n == old else n) + h + e for n, h, e in toks)


TRUE_FACT = {"left": "x1 x2", "right": "x2 x2", "classes": [1, 2], "related": False}

# edits no writer makes, each once replayed ok: (mode, edit, check, stage)
FORMAT_PROBES = {
    "classes-99": ("ncc", lambda d: d.update(classes=99), "structure", None),
    "version-7": ("coset", lambda d: d.update(version=7), "structure", None),
    "extra-field": ("ncc", lambda d: d.update(note="hi"), "structure", None),
    "extra-record-key": ("ncc", lambda d: d["stages"][3].update(note="hi"), "well-formed", 4),
    "extra-quotient-key": ("coset", lambda d: d["quotient"].update(note="hi"), "quotient", None),
    "base-facts-emptied": ("ncc", lambda d: d.update(base_facts=[]), "base-facts", None),
    "base-facts-deleted": ("ncc", lambda d: d.pop("base_facts"), "base-facts", None),
    "base-facts-padded": ("ncc", lambda d: d["base_facts"].append(TRUE_FACT), "base-facts", None),
    "related-0": ("ncc", lambda d: d["base_facts"][0].update(related=0), "base-facts", None),
    "seeds-deleted": ("ncc", lambda d: d.pop("seeds"), "representatives", None),
    "stable-zz": ("ncc", lambda d: rename_stable(d, "t2", "zz"), "replay", 4),
    "coset-stable-zz": ("coset", lambda d: rename_stable(d, "t1", "zz"), "images", 2),
    "stage-true": ("ncc", lambda d: d["stages"][0].update(stage=True), "structure", 1),
    "stage-1.0": ("ncc", lambda d: d["stages"][0].update(stage=1.0), "structure", 1),
    "no-image": ("coset", lambda d: d["stages"][5].pop("image"), "well-formed", 6),
}


class TestWriterFormat:
    @pytest.mark.parametrize("probe", FORMAT_PROBES)
    def test_edit_the_writer_never_makes_fails_once(self, probe):
        mode, edit, check, stage = FORMAT_PROBES[probe]
        doc = valid_certificate(mode)
        edit(doc)
        rep = reverify_certificate(doc)
        assert len(rep.failures) == 1 and rep.failures[0].startswith(f"{check}: ")
        if stage is not None:
            assert rep.failures[0].startswith(f"{check}: stage {stage}: ")

    @pytest.mark.parametrize(
        "edit, check, needle",
        [
            (lambda d: d["stages"][4].update(element="x1^200000"), "structure", "stage 5: "),
            (lambda d: d["stages"][4].update(element="x9 " * 100_000), "well-formed", "stage 5: "),
            (lambda d: d["representatives"].append("x1 " * 100_000), "representatives", ""),
            (lambda d: d["seeds"].update({"9" * 200_000: []}), "representatives", "seed key"),
            (lambda d: d.update({"n" * 200_000: 1}), "structure", "unexpected"),
            (lambda d: d.update(mode="m" * 200_000), "structure", "unknown mode"),
            (lambda d: d.update(stage_count="9" * 200_000), "structure", "truncated"),
            (lambda d: d["stages"][3].update({"k" * 200_000: 1}), "well-formed", "stage 4: "),
            (lambda d: d["stages"][3].update(target="x1 " * 100_000), "replay", "stage 4: "),
            (lambda d: d["stages"][3].update(stable="t" * 200_000), "replay", "stage 4: "),
            (lambda d: d["stages"][3].update(stable="t^" * 100_000), "well-formed", "stage 4: "),
            (lambda d: d["stages"][10].update(reason="r" * 200_000), "replay", "stage 11: "),
            (lambda d: d["stages"][10].update(witness="q" * 200_000), "replay", "stage 11: "),
            (lambda d: d["base_facts"][0].update(left="x1 " * 100_000), "base-facts", "base fact"),
        ],
        ids=[
            "element-power", "element-unknown", "representative", "seed-key", "field-name",
            "mode", "stage-count", "record-key", "target", "stable", "stable-name", "reason", "witness",
            "base-fact-side",
        ],
    )
    def test_failures_quote_a_short_prefix_of_huge_values(self, edit, check, needle):
        doc = valid_certificate("ncc")
        edit(doc)
        rep = reverify_certificate(doc)
        assert len(rep.failures) == 1 and rep.failures[0].startswith(f"{check}: ")
        assert needle in rep.failures[0] and len(rep.failures[0]) < 300

    def test_a_value_nested_near_the_limit_fails_well_formed(self):
        doc = valid_certificate("ncc")
        deep = []
        for _ in range(990):
            deep = [deep]
        doc["base_facts"][0]["left"] = deep
        rep = reverify_certificate(doc)
        assert rep.failures == ["well-formed: certificate: a value nests too deeply"]

    def test_a_witness_deeper_than_the_stack_fails_at_its_stage(self):
        doc = json.loads(certificate_to_json_str(build_tower(ncc_config(stages=7000))))
        victim = [s for s in doc["stages"] if "witness" in s][-1]
        height = sum(s["action"] == "attach" for s in doc["stages"][: victim["stage"]])
        assert height > sys.getrecursionlimit()
        # the witness nests through more heights than Python's recursion
        # limit, and Britton reduction still reaches its verdict
        victim["witness"] = " ".join(f"t{k}" for k in range(height, 0, -1))
        rep = reverify_certificate(doc)
        why = f"recorded conjugator does not take {victim['element']} to {victim['target']}"
        assert rep.failures == [f"replay: stage {victim['stage']}: {why}"]

    @pytest.mark.parametrize(
        "shape, stage, witness",
        [("klein", 1, "a"), ("klein", 3, "t"), ("klein", 13, "t"), ("kill", 1, "a"),
         ("kill", 3, "t"), ("kill", 4, "t"), ("ncc-3", 1, "x1")],
    )
    def test_an_element_that_is_its_own_target_has_witness_1(self, shape, stage, witness):
        # each witness conjugates the element to itself, but the writer
        # prints 1 for it and nothing else
        doc = json.loads(_shape_text(shape))
        rec = doc["stages"][stage - 1]
        assert rec["element"] == rec["target"] and rec["witness"] == "1"
        rec["witness"] = witness
        rep = reverify_certificate(doc)
        check = "replay" if shape == "ncc-3" else "stage-relations"
        why = f"{rec['element']} is its own target: its witness is 1, not {witness}"
        assert rep.failures == [f"{check}: stage {stage}: {why}"]

    def test_repeated_key_does_not_load(self):
        text = _valid_certificate_text("ncc")
        assert towers.load_certificate(text) == json.loads(text)
        forged = text.replace('"witness": "t2 x1^-1"', '"witness": "x1", "witness": "t2 x1^-1"', 1)
        assert forged != text and reverify_certificate(json.loads(forged)).ok
        with pytest.raises(ValueError, match="repeated key 'witness'"):
            towers.load_certificate(forged)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["ncc-3", "gadget-4", "klein", "kill", "z4"]),
        st.sampled_from(["header", "quotient", "record"]),
        st.text(min_size=1, max_size=8),
        st.sampled_from(MUTANT_VALUES),
        st.data(),
    )
    def test_any_added_key_fails(self, shape, where, key, value, data):
        doc = json.loads(_shape_text(shape))
        if where == "record":
            node = doc["stages"][data.draw(st.integers(0, len(doc["stages"]) - 1), label="stage")]
        else:
            node = doc if where == "header" else doc.get("quotient")
        assume(node is not None and key not in node)
        node[key] = value
        rep = reverify_certificate(doc)
        assert len(rep.failures) == 1


@functools.cache
def _shape_text(shape):
    config = {
        "ncc-3": lambda: ncc_config(3, 40),
        "gadget-4": lambda: gadget_config(4, 40),
        "klein": lambda: klein_coset_config(40),
        "kill": lambda: kill_coset_config(40),
        "z4": lambda: z4_coset_config(40),
    }[shape]()
    return certificate_to_json_str(build_tower(config))


# -- the certificate writer ------------------------------------------------


def z4_coset_config(stages):
    """Coset drive over F(a, t) onto Z/4, t of order 4 and a in the kernel."""
    pres = parse_presentation("< a , t | >")
    A = pres.alphabet
    return TowerConfig(
        base=pres,
        mode="coset",
        classes=4,
        stages=stages,
        quotient=CyclicSpec(pres, 4, {"a": 0, "t": 1}),
        representatives=(A.gen("a"), A.gen("t"), A.gen("t") ** 2, A.gen("t") ** 3),
    )


def non_ascii_config(stages):
    """ncc over generators named with non-ASCII letters, so strings carry
    ``\\u`` escapes."""
    pres = parse_presentation("< α , ß₂ | >")
    A = pres.alphabet
    return TowerConfig(
        base=pres, classes=3, representatives=(A.gen("α"), A.gen("ß₂")), stages=stages
    )


class TestCertificateWriter:
    @pytest.mark.parametrize(
        "config",
        [
            lambda: ncc_config(3, 300),
            lambda: gadget_config(4, 300),
            lambda: klein_coset_config(60),
            lambda: kill_coset_config(60),
            lambda: z4_coset_config(60),
            lambda: non_ascii_config(120),
            lambda: ncc_config(3, 0),
        ],
        ids=["ncc-3", "gadget-4", "klein", "kill-spec", "z4", "non-ascii", "no-stages"],
    )
    def test_writer_matches_json_dumps(self, config):
        build = build_tower(config())
        text = certificate_to_json_str(build)
        assert text == json.dumps(build.to_json(), indent=2, sort_keys=True)
        if build.config.base.alphabet.names[0] == "α":
            assert "\\u03b1" in text and text.isascii()

    def test_writer_encodes_any_scalar(self, monkeypatch):
        # the writer must not lean on every value being a str or an int
        fields = towers.StageRecord.fields
        monkeypatch.setattr(
            towers.StageRecord,
            "fields",
            lambda r: [(k, float(v) if k == "stage" else v) for k, v in fields(r)],
        )
        build = build_tower(klein_coset_config(30))
        text = certificate_to_json_str(build)
        assert text == json.dumps(build.to_json(), indent=2, sort_keys=True)
        assert '"stage": 1.0' in text

    @pytest.mark.parametrize("coset", [False, True], ids=["ncc", "coset"])
    @pytest.mark.parametrize(
        "kind",
        ["attach", towers._KNOWN_CONJUGATOR, towers._NO_REPRESENTATIVE, "element-is-representative"],
    )
    def test_fields_come_sorted_by_key(self, kind, coset):
        # the writer writes a record's fields in the order fields() gives
        # them, so that order is json.dumps's sort_keys order
        record = towers.StageRecord.of_kind(
            0, "", kind, 0, image="" if coset else None, case="-", stable="", target="", witness=""
        )
        keys = [k for k, _ in record.fields()]
        assert keys == sorted(keys) and set(keys) == towers._record_keys(kind, coset)
