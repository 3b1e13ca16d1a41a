"""Free products with pluggable factors, path audits, and the power probe."""

import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, strategies as st
from oracles import brute_connectivity, rejection_trivial_cycle, sentinel_scrub

from concc import freeprod as fp
from concc import hnn
from concc.words import Alphabet, free_reduce

X = Alphabet(["x1", "x2"])


def make_ctx():
    return fp.FreeProductCtx(
        [fp.FreeAbelianFactor("A", 1), fp.CyclicFactor("B", 5), fp.KleinBottleFactor("K")],
        X,
    )


def rand_elem(ctx, rng, n=5):
    e = ctx.identity()
    factors = [ctx.factor(lab) for lab in ("A", "B", "K")]
    for _ in range(n):
        if rng.random() < 0.4:
            e = ctx.mul(e, ctx.free_word([rng.choice([1, -1, 2, -2])]))
        else:
            f = rng.choice(factors)
            e = ctx.mul(e, ctx.syllable(f.label, f.sample(rng)))
    return e


def abelian_setup():
    ctx = fp.FreeProductCtx([fp.FreeAbelianFactor("A", 1)], X)
    t = ctx.free_word([1])
    gamma, beta = (2,), (3,)
    u = ctx.product([ctx.syllable("A", gamma), t, ctx.syllable("A", beta)])
    return ctx, t, u, fp.TwistSpec(gamma=gamma, beta=beta, xi=1, eps=1)


def klein_setup():
    ctx = fp.FreeProductCtx([fp.KleinBottleFactor("K")], X)
    t = ctx.free_word([1])
    gamma = beta = (0, 1)
    u = ctx.product([ctx.syllable("K", gamma), t, ctx.syllable("K", beta)])
    return ctx, t, u, fp.TwistSpec(gamma=gamma, beta=beta, xi=1, eps=-1)


class TestFactors:
    def test_cyclic_arithmetic(self):
        B = fp.CyclicFactor("B", 5)
        assert B.multiply(3, 4) == 2
        assert B.inverse(2) == 3
        assert B.power(1, 7) == 2
        assert B.is_identity(B.multiply(2, 3))
        assert B.has_finite_order(1)

    def test_free_abelian_arithmetic(self):
        A = fp.FreeAbelianFactor("A", 2)
        assert A.multiply((1, 2), (3, -5)) == (4, -3)
        assert A.inverse((1, -2)) == (-1, 2)
        assert not A.has_finite_order((0, 1))
        assert A.has_finite_order((0, 0))

    def test_klein_multiplication_twists(self):
        K = fp.KleinBottleFactor("K")
        # passing a past the flip generator inverts it
        assert K.multiply((0, 1), (1, 0)) == (-1, 1)
        assert K.multiply((1, 0), (0, 1)) == (1, 1)
        p = (3, 1)
        assert K.is_identity(K.multiply(p, K.inverse(p)))

    def test_klein_agrees_with_britton_engine(self):
        K = fp.KleinBottleFactor("K")
        tower = hnn.klein_bottle_tower()
        rng = random.Random(7)
        A2 = K.word_alphabet
        for _ in range(40):
            letters = []
            for _ in range(rng.randint(0, 6)):
                l = rng.choice([1, -1, 2, -2])
                if letters and l == -letters[-1]:
                    l = -l
                letters.append(l)
            w = A2.word(letters)
            p = K.from_word(w)  # raises internally on any normal-form mismatch
            q = K.sample(rng)
            r = K.multiply(p, q)
            lhs = w * A2.parse_word(K.format(q))
            check = tower.parse(str(lhs)) * tower.parse(K.format(r)).inverse()
            assert hnn.is_trivial(check).is_yes

    def test_klein_conjugacy_matches_brute_scan(self):
        K = fp.KleinBottleFactor("K")
        rng = random.Random(11)

        def brute(p, q):
            for xx in range(-6, 7):
                for yy in range(-3, 4):
                    c = (xx, yy)
                    if K.multiply(K.multiply(c, p), K.inverse(c)) == q:
                        return c
            return None

        for _ in range(120):
            p = (rng.randint(-4, 4), rng.randint(-2, 2))
            q = (rng.randint(-4, 4), rng.randint(-2, 2))
            got = K.conjugating(p, q)
            assert (got is None) == (brute(p, q) is None)
            if got is not None:
                assert K.multiply(K.multiply(got, p), K.inverse(got)) == q

    def test_parse_format_round_trip(self):
        K = fp.KleinBottleFactor("K")
        for p in ((0, 0), (2, 1), (-3, -2), (1, 4)):
            assert K.parse(K.format(p)) == p
        B = fp.CyclicFactor("B", 5)
        assert B.parse(B.format(3)) == 3


class TestContext:
    def test_normal_form_and_group_laws(self):
        ctx = make_ctx()
        rng = random.Random(13)
        for _ in range(60):
            a, b, c = (rand_elem(ctx, rng) for _ in range(3))
            for e in (a, b, c):
                for i, (lab, payload) in enumerate(e):
                    if lab is None:
                        assert payload and free_reduce(tuple(payload)) == tuple(payload)
                    else:
                        assert not ctx.factor(lab).is_identity(payload)
                    if i:
                        assert e[i - 1][0] != lab
            assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
            assert ctx.mul(a, ctx.inv(a)) == ()
            assert ctx.pow(a, 3) == ctx.mul(a, ctx.mul(a, a))
            assert ctx.pow(a, -2) == ctx.inv(ctx.mul(a, a))

    def test_cross_factor_merge(self):
        ctx = make_ctx()
        g = ctx.mul(ctx.syllable("A", (2,)), ctx.syllable("A", (-2,)))
        assert g == ()
        h = ctx.mul(ctx.free_word([1]), ctx.free_word([-1, 2]))
        assert h == ctx.free_word([2])

    def test_format_and_parse_path_round_trip(self):
        ctx = make_ctx()
        text = "x1 [A: 2] x2^-1 [K: a t]"
        path = fp.parse_path(ctx, text)
        assert len(path.letters) == 4
        g = path.product()
        assert "[K:" in ctx.format_element(g)
        assert fp.parse_path(ctx, text).product() == g

    def test_printed_empty_path_reads_back(self):
        ctx = make_ctx()
        assert fp.parse_path(ctx, str(fp.SyllablePath(ctx, ()))).letters == ()

    def test_parse_path_reads_free_text_as_words(self):
        ctx = make_ctx()
        path = fp.parse_path(ctx, "x1*x2^-2[B: 3]x1^0 x2")
        assert str(path) == "x1 x2^-1 x2^-1 [B: 3] x2"

    def test_parse_path_rejects_garbage(self):
        ctx = make_ctx()
        with pytest.raises(fp.FreeProductError):
            fp.parse_path(ctx, "[A: 2")
        with pytest.raises(fp.FreeProductError):
            fp.parse_path(ctx, "[Z: 2]")
        with pytest.raises(fp.FreeProductError):
            fp.parse_path(ctx, "[A 2]")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(fp.FreeProductError):
            fp.FreeProductCtx(
                [fp.CyclicFactor("A", 2), fp.FreeAbelianFactor("A", 1)], X
            )

    def test_cyclic_syllable_reduce_invariant(self):
        ctx = make_ctx()
        rng = random.Random(17)
        for _ in range(100):
            g = rand_elem(ctx, rng, rng.randint(1, 6))
            if g == ():
                continue
            core, conj = fp._cyclic_syllable_reduce(ctx, g)
            assert ctx.product([conj, core, ctx.inv(conj)]) == g
            if len(core) >= 2:
                assert core[0][0] != core[-1][0]


class TestHyperbolicity:
    def test_mixed_words_are_hyperbolic(self):
        ctx = make_ctx()
        for k1 in (1, 3, 10):
            for k2 in (1, 7):
                g = ctx.product([
                    ctx.syllable("A", (k1,)), ctx.free_word([1]),
                    ctx.syllable("A", (k2,)), ctx.free_word([2]),
                ])
                rep = fp.hyperbolicity_report(g, ctx)
                assert rep.hyperbolic and rep.infinite_order

    def test_conjugated_factor_element_is_parabolic(self):
        ctx = make_ctx()
        g = ctx.mul(ctx.free_word([1]),
                    ctx.mul(ctx.syllable("A", (2,)), ctx.free_word([-1])))
        rep = fp.hyperbolicity_report(g, ctx)
        assert not rep.hyperbolic
        assert rep.infinite_order
        assert rep.factor_label == "A"

    def test_finite_order_parabolic(self):
        ctx = make_ctx()
        rep = fp.hyperbolicity_report(ctx.syllable("B", 2), ctx)
        assert not rep.hyperbolic and not rep.infinite_order

    def test_identity_rejected(self):
        ctx = make_ctx()
        with pytest.raises(fp.FreeProductError):
            fp.hyperbolicity_report((), ctx)


class TestConjugacy:
    def test_witness_always_verifies_and_brute_never_beats_us(self):
        ctx = make_ctx()
        rng = random.Random(19)
        pool = [ctx.free_word([1]), ctx.free_word([2]), ctx.syllable("A", (1,)),
                ctx.syllable("B", 1), ctx.syllable("K", (1, 0)), ctx.syllable("K", (0, 1))]
        pool += [ctx.inv(p) for p in pool]

        def brute(u, v, depth=3):
            seen = {(): None}
            frontier = [()]
            for _ in range(depth):
                new = []
                for g in frontier:
                    for p in pool:
                        h = ctx.mul(g, p)
                        if h not in seen:
                            seen[h] = None
                            new.append(h)
                frontier = new
            return any(ctx.conj(g, u) == v for g in seen)

        for _ in range(50):
            u = rand_elem(ctx, rng, rng.randint(1, 3))
            if rng.random() < 0.5:
                v = ctx.conj(rand_elem(ctx, rng, 2), u)
            else:
                v = rand_elem(ctx, rng, rng.randint(1, 3))
            got = fp.conjugacy_witness_fp(ctx, u, v)
            if got is not None:
                assert ctx.conj(got, u) == v
            elif brute(u, v):
                pytest.fail(f"missed conjugacy: {ctx.format_element(u)}"
                            f" ~ {ctx.format_element(v)}")

    def test_rotation_pair(self):
        ctx = make_ctx()
        u = ctx.mul(ctx.syllable("A", (1,)), ctx.free_word([1]))
        v = ctx.mul(ctx.free_word([1]), ctx.syllable("A", (1,)))
        g = fp.conjugacy_witness_fp(ctx, u, v)
        assert g is not None and ctx.conj(g, u) == v

    def test_parabolic_delegates_to_factor(self):
        ctx = make_ctx()
        u = ctx.syllable("K", (2, 0))
        v = ctx.syllable("K", (-2, 0))  # conjugate by the flip generator
        g = fp.conjugacy_witness_fp(ctx, u, v)
        assert g is not None and ctx.conj(g, u) == v
        assert fp.conjugacy_witness_fp(ctx, u, ctx.syllable("K", (3, 0))) is None


class TestPaths:
    def test_membership_table(self):
        ctx = make_ctx()
        mk = lambda *ls: fp.SyllablePath(ctx, tuple(ls))
        h = ctx.h_letter
        x = ctx.x_letter
        assert fp.check_W_membership(mk())
        assert fp.check_W_membership(mk(x("x1")))
        assert fp.check_W_membership(mk(h("A", (2,))))
        assert fp.check_W_membership(mk(h("A", (1,)), x("x1"), h("A", (2,))))
        assert fp.check_W_membership(mk(h("A", (1,)), h("B", 2)))
        assert not fp.check_W_membership(mk(h("A", (1,)), h("A", (2,))))
        assert not fp.check_W_membership(mk(x("x1"), x("x2")))
        assert not fp.check_W_membership(mk(h("A", (1,)), h("A", (3,)), h("A", (2,))))

    def test_identity_run_is_ill_formed(self):
        ctx = make_ctx()
        p = fp.SyllablePath(ctx, (ctx.h_letter("A", (1,)), ctx.h_letter("A", (-1,))))
        with pytest.raises(fp.FreeProductError, match="ill-formed"):
            fp.path_components(p)

    def test_components_merge_runs(self):
        ctx = make_ctx()
        p = fp.SyllablePath(ctx, (
            ctx.h_letter("A", (1,)), ctx.h_letter("A", (2,)),
            ctx.x_letter("x1"), ctx.h_letter("B", 1),
        ))
        comps = fp.path_components(p)
        assert [c.factor_label for c in comps] == ["A", "B"]
        assert comps[0].payload == (3,)
        assert (comps[0].start, comps[0].end) == (0, 2)

    def test_connectivity_pairs_mirror_components(self):
        ctx = make_ctx()
        p = fp.SyllablePath(ctx, (
            ctx.h_letter("A", (2,)), ctx.x_letter("x1"),
            ctx.x_letter("x1", -1), ctx.h_letter("A", (-2,)),
        ))
        rep = fp.connectivity(p)
        assert len(rep.components) == 2
        assert rep.isolated_count == 0
        assert len(rep.classes) == 1

    def test_identity_run_after_free_letters_names_its_positions(self):
        p = fp.parse_path(make_ctx(), "x1 x2 [A: 1] [A: -1]")
        with pytest.raises(fp.FreeProductError) as err:
            fp.path_components(p)
        assert str(err.value) == (
            "letters 2..3 in factor 'A' multiply to the identity; the path is ill-formed"
        )

    def test_connectivity_requires_cycle(self):
        ctx = make_ctx()
        with pytest.raises(fp.FreeProductError, match="closed path"):
            fp.connectivity(fp.SyllablePath(ctx, (ctx.x_letter("x1"),)))

    def test_trivial_cycles_have_no_isolated_components(self):
        ctx = make_ctx()
        rng = random.Random(23)
        for _ in range(500):
            path = fp.random_trivial_cycle(ctx, rng, size=rng.randint(4, 16))
            assert path.product() == ()
            assert fp.connectivity(path).isolated_count == 0

    def test_admissible_word_components_lie_in_distinct_cosets(self):
        ctx = make_ctx()
        rng = random.Random(29)
        for _ in range(300):
            q = fp.random_admissible_word(ctx, rng, blocks=rng.randint(1, 6))
            assert fp.check_W_membership(q)
            comps = fp.path_components(q)
            vs = q.vertices()
            keys = [(c.factor_label, fp._coset_key(ctx, vs[c.start], c.factor_label))
                    for c in comps]
            assert len(set(keys)) == len(keys)


class TestTrivialCycleSampler:
    """The shape-first sampler against the whole-word rejection sampler."""

    # fixed before the first run: seeds, cycles per sampler, level per statistic
    SEEDS, CYCLES, ALPHA = (2501, 2502), 20000, 0.001

    @staticmethod
    def statistics(sample, seed, n):
        ctx, rng = fp.audit_ctx(), random.Random(seed)
        stats = {"length": Counter(), "free letters": Counter(),
                 "factor mix": Counter(), "Klein payloads": Counter()}
        for _ in range(n):
            letters = sample(ctx, rng, size=rng.randint(4, 16)).letters
            stats["length"][len(letters)] += 1
            stats["free letters"][sum(l[0] == "x" for l in letters)] += 1
            for l in letters:
                if l[0] == "h":
                    stats["factor mix"][l[1]] += 1
                    if l[1] == "K":
                        stats["Klein payloads"][l[2]] += 1
        return stats

    @staticmethod
    def pooled_table(a, b, least=20):
        """Two rows of counts; categories under ``least`` in total share one column."""
        cats = sorted(set(a) | set(b), key=repr)
        big = [c for c in cats if a[c] + b[c] >= least]
        rest = [c for c in cats if a[c] + b[c] < least]
        return [[h[c] for c in big] + ([sum(h[c] for c in rest)] if rest else []) for h in (a, b)]

    def test_matches_the_rejection_oracle(self):
        from scipy.stats import chi2_contingency

        new = self.statistics(fp.random_trivial_cycle, self.SEEDS[0], self.CYCLES)
        old = self.statistics(rejection_trivial_cycle, self.SEEDS[1], self.CYCLES)
        for name in new:
            table = self.pooled_table(new[name], old[name])
            assert len(table[0]) >= 2, name
            p = chi2_contingency(table).pvalue
            assert p >= self.ALPHA, f"{name}: p = {p:.2e} against the rejection sampler"

    def test_no_free_part_fails_at_once(self):
        ctx = fp.FreeProductCtx([fp.CyclicFactor("B", 5)])
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(fp.FreeProductError, match="needs a free part"):
            fp.random_trivial_cycle(ctx, rng)
        assert rng.getstate() == state

    @pytest.mark.parametrize("size", [1, 0, -3])
    def test_size_below_two_fails_at_once(self, size):
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(fp.FreeProductError, match=f"needs size >= 2 to hold a pair, got {size}"):
            fp.random_trivial_cycle(fp.audit_ctx(), rng, size=size)
        assert rng.getstate() == state

    def test_factor_samples_cover_their_documented_supports(self):
        ctx, rng = fp.audit_ctx(), random.Random(2503)
        supports = {
            "A": {(k,) for k in range(-3, 4) if k},
            "B": {1, 2, 3, 4},
            "K": {(p, q) for p in range(-2, 3) for q in range(-2, 3) if (p, q) != (0, 0)},
        }
        assert [f.label for f in ctx.factors] == list(supports)
        for f in ctx.factors:
            assert {f.sample(rng) for _ in range(5000)} == supports[f.label], f.label

    def test_free_letters_cover_every_generator_and_inverse(self):
        ctx, rng = fp.audit_ctx(), random.Random(2504)
        seen = set()
        for _ in range(2000):
            seen |= {l[1] for l in fp.random_trivial_cycle(ctx, rng).letters if l[0] == "x"}
        assert seen == {1, -1, 2, -2}


class TestRegularity:
    def test_mirrored_instances_are_clean(self):
        ctx = make_ctx()
        rng = random.Random(31)
        for _ in range(150):
            r, q, rp, qp = fp.mirrored_instance(ctx, rng)
            rep = fp.regularity_audit(ctx, r, q, rp, qp)
            assert rep.constant <= 1
            assert rep.bound_ok
            assert rep.irregular_count == 0
            assert rep.pair_violations == 0

    @pytest.mark.parametrize("sampler", [fp.random_admissible_word, fp.mirrored_instance])
    @pytest.mark.parametrize("ctx, cause", [
        (fp.FreeProductCtx([], X), "needs a factor"),
        (fp.FreeProductCtx([fp.CyclicFactor("B", 5)]), "needs a free part"),
    ])
    def test_samplers_fail_at_once_without_factors_or_free_part(self, sampler, ctx, cause):
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(fp.FreeProductError, match=f"admissible-word sampling {cause}"):
            sampler(ctx, rng)
        assert rng.getstate() == state

    def test_segment_slicing(self):
        ctx = make_ctx()
        rng = random.Random(37)
        r, q, rp, qp = fp.mirrored_instance(ctx, rng)
        rep = fp.regularity_audit(ctx, r, q, rp, qp)
        assert set(rep.segments) == {"r", "q", "r'", "q'"}
        total = sum(b - a for a, b in rep.segments.values())
        assert total == len(r) + len(q) + len(rp) + len(qp)


class TestPowerProbe:
    def test_abelian_straight_twist(self):
        ctx, t, u, tw = abelian_setup()
        rep = fp.commensuration_probe(ctx, "A", (1,), t, u, range(1, 9), twist=tw)
        assert rep.all_found and rep.all_verified
        assert all(r.exponents == (1, 1) for r in rep.rows)
        assert all(r.predicted_eta == 1 for r in rep.rows)

    def test_klein_flip_twist(self):
        ctx, t, u, tw = klein_setup()
        rep = fp.commensuration_probe(ctx, "K", (1, 0), t, u, range(1, 9), twist=tw)
        assert rep.all_found and rep.all_verified
        assert all(r.predicted_eta == -1 for r in rep.rows)

    def test_inverse_letter_variants(self):
        ctx, t, _, _ = abelian_setup()
        gamma, beta = (2,), (3,)
        u = ctx.product([ctx.syllable("A", gamma), ctx.inv(t), ctx.syllable("A", beta)])
        tw = fp.TwistSpec(gamma=gamma, beta=beta, xi=-1, eps=1)
        rep = fp.commensuration_probe(ctx, "A", (1,), t, u, range(1, 6), twist=tw)
        assert rep.all_found and rep.all_verified

        ctxk, tk, _, _ = klein_setup()
        gk = (0, 1)
        uk = ctxk.product([ctxk.syllable("K", gk), ctxk.inv(tk), ctxk.syllable("K", gk)])
        twk = fp.TwistSpec(gamma=gk, beta=gk, xi=-1, eps=-1)
        repk = fp.commensuration_probe(ctxk, "K", (1, 0), tk, uk, range(1, 6), twist=twk)
        assert repk.all_found and repk.all_verified

    def test_unrelated_element_reports_nothing(self):
        ctx, t, _, _ = abelian_setup()
        u_bad = ctx.product([ctx.syllable("A", (1,)), ctx.free_word([2]),
                             ctx.syllable("A", (1,)), ctx.free_word([1])])
        rep = fp.commensuration_probe(ctx, "A", (1,), t, u_bad, range(1, 4), exp_bound=3)
        assert not any(r.found for r in rep.rows)
        assert not rep.all_found

    def test_dishonest_twist_rejected(self):
        ctx, t, u, _ = abelian_setup()
        with pytest.raises(fp.FreeProductError):
            fp.commensuration_probe(ctx, "A", (1,), t, u, [1],
                                    twist=fp.TwistSpec((9,), (3,), 1, 1))

    def test_aligned_runs_are_mirror_monotone(self):
        for setup, lab, a in ((abelian_setup, "A", (1,)),
                              (klein_setup, "K", (1, 0))):
            ctx, t, u, _ = setup()
            for k, l in ((2, 2), (3, 3)):
                r, q, rp, qp = fp.aligned_power_instance(ctx, lab, a, t, u, k, l)
                rep = fp.regularity_audit(ctx, r, q, rp, qp)
                pairs = rep.matched_pairs
                assert len(pairs) >= 2
                assert all(pairs[i + 1][1] < pairs[i][1] for i in range(len(pairs) - 1))
                assert any(y[0] - x[0] == 1 == x[1] - y[1] for x, y in zip(pairs, pairs[1:]))


CTX = make_ctx()
SEEDS = st.integers(0, 2**32 - 1)

LETTERS = [CTX.x_letter(n, e) for n in ("x1", "x2") for e in (1, -1)] + [
    CTX.h_letter(lab, p)
    for lab, ps in (
        ("A", [(1,), (-1,), (2,), (-2,)]),
        ("B", [1, 2, 3, 4]),
        ("K", [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)]),
    )
    for p in ps
]
WORDS = st.lists(st.sampled_from(LETTERS), max_size=14)
FREE_LETTERS = [l for l in LETTERS if l[0] == "x"]
# long free runs between short mixed stretches
FREE_RUN_WORDS = st.lists(
    st.one_of(
        st.lists(st.sampled_from(FREE_LETTERS), min_size=2, max_size=16),
        st.lists(st.sampled_from(LETTERS), max_size=3),
    ),
    max_size=5,
).map(lambda parts: [l for part in parts for l in part])


def assert_walk_matches_brute(ctx, report, letters, cuts=()):
    comps, classes, isolated, end = brute_connectivity(ctx, letters, cuts)
    assert end == ()
    assert [
        (c.factor_label, c.start, c.end, c.payload, c.coset_key) for c in report.components
    ] == comps
    assert report.classes == classes
    assert report.isolated == isolated


class TestWalkAgainstBrute:
    """The one-pass walk against prefix products taken letter by letter."""

    @given(SEEDS, st.integers(4, 24))
    def test_trivial_cycles(self, seed, size):
        path = fp.random_trivial_cycle(CTX, random.Random(seed), size=size)
        assert_walk_matches_brute(CTX, fp.connectivity(path), path.letters)

    def _check_regularity(self, ctx, r, q, rp, qp):
        rep = fp.regularity_audit(ctx, r, q, rp, qp)
        letters = tuple(r) + tuple(q) + tuple(rp) + tuple(qp)
        cuts = {hi for lo, hi in rep.segments.values()}
        assert_walk_matches_brute(ctx, rep.report, letters, cuts)
        for c in rep.report.components:
            lo, hi = rep.segments[c.segment]
            assert lo <= c.start < c.end <= hi
        comps = rep.report.components
        assert rep.irregular == [
            i for i in rep.report.isolated if comps[i].segment in ("q", "q'")
        ]

    @given(SEEDS)
    def test_mirrored_instances(self, seed):
        self._check_regularity(CTX, *fp.mirrored_instance(CTX, random.Random(seed)))

    @given(st.booleans(), st.integers(1, 4), st.integers(1, 4))
    def test_aligned_power_cycles(self, klein, k, power):
        ctx, t, u, _ = klein_setup() if klein else abelian_setup()
        lab, a = ("K", (1, 0)) if klein else ("A", (1,))
        self._check_regularity(ctx, *fp.aligned_power_instance(ctx, lab, a, t, u, k, power))

    @given(st.one_of(WORDS, FREE_RUN_WORDS))
    def test_open_paths_with_long_free_runs(self, letters):
        letters = tuple(fp._scrub_identity_runs(CTX, letters))
        report, end = fp._walk(CTX, (("", letters),))
        comps, classes, isolated, brute_end = brute_connectivity(CTX, letters)
        assert [
            (c.factor_label, c.start, c.end, c.payload, c.coset_key) for c in report.components
        ] == comps
        assert report.classes == classes
        assert report.isolated == isolated
        assert end == brute_end
        # the brute vertices come from ctx.mul, which reduces free letters as
        # the walk does, so check the normal form against words.free_reduce too
        for i, (lab, payload) in enumerate(end):
            assert lab is not None or (payload and free_reduce(payload) == payload)
            assert i == 0 or end[i - 1][0] != lab
        if all(l[0] == "x" for l in letters):
            word = free_reduce([l[1] for l in letters])
            assert end == (((None, word),) if word else ())


def product(letters):
    return fp.SyllablePath(CTX, tuple(letters)).product()


class TestScrub:
    @given(WORDS)
    def test_scrub_leaves_no_identity_run_and_keeps_the_product(self, letters):
        out = fp._scrub_identity_runs(CTX, list(letters))
        fp.path_components(fp.SyllablePath(CTX, tuple(out)))  # raises on an identity run
        assert product(out) == product(letters)
        has_free = any(l[0] == "x" for l in letters)
        assert (not out) == (not has_free and product(letters) == ())

    @given(WORDS, WORDS)
    def test_trivial_words_empty_exactly_without_free_letters(self, u, v):
        letters = u + v + [CTX.letter_inverse(l) for l in reversed(u + v)]
        out = fp._scrub_identity_runs(CTX, letters)
        assert (not out) == (not any(l[0] == "x" for l in letters))

    @given(st.one_of(WORDS, WORDS.map(lambda u: u + [CTX.letter_inverse(l) for l in reversed(u)])))
    def test_scrub_matches_the_sentinel_scrub(self, letters):
        assert fp._scrub_identity_runs(CTX, letters) == sentinel_scrub(CTX, letters)

    @given(SEEDS, st.integers(2, 24))
    def test_generated_words_scrub_as_with_the_sentinel(self, seed, size):
        seen = []
        scrub = fp._scrub_identity_runs

        def spy(ctx, letters):
            seen.append(list(letters))
            return scrub(ctx, letters)

        with mock.patch.object(fp, "_scrub_identity_runs", spy):
            path = fp.random_trivial_cycle(CTX, random.Random(seed), size=size)
        (letters,) = seen
        assert list(path.letters) == scrub(CTX, letters) == sentinel_scrub(CTX, letters)

    def test_generation_draws_are_pinned(self):
        # the builder's draw order is part of the report contract: a fixed
        # seed must leave the generator in this state after 1000 cycles
        ctx, rng = fp.audit_ctx(), random.Random(20260405)
        for _ in range(1000):
            fp.random_trivial_cycle(ctx, rng, size=rng.randint(4, 16))
        assert rng.random() == 0.44898676387147896


class TestPowers:
    def test_factor_power_matches_repeated_multiplication(self):
        rng = random.Random(43)
        for f in CTX.factors:
            p = f.sample(rng)
            for n in range(-20, 21):
                base = p if n >= 0 else f.inverse(p)
                want = f.identity()
                for _ in range(abs(n)):
                    want = f.multiply(want, base)
                assert f.power(p, n) == want

    def test_element_pow_matches_repeated_mul(self):
        rng = random.Random(47)
        for _ in range(10):
            g = rand_elem(CTX, rng)
            for n in range(-20, 21):
                base = g if n >= 0 else CTX.inv(g)
                want = ()
                for _ in range(abs(n)):
                    want = CTX.mul(want, base)
                assert CTX.pow(g, n) == want

    def test_cyclic_power_of_a_huge_exponent(self):
        f = fp.CyclicFactor("C", 7)
        n = 10**12
        for p in range(7):
            assert f.power(p, n) == p * n % 7


# A (Z^2), B (Z/5), K (Klein bottle) over x1, x2
CTX2 = fp.FreeProductCtx(
    [fp.FreeAbelianFactor("A", 2), fp.CyclicFactor("B", 5), fp.KleinBottleFactor("K")], X
)


class TestPathText:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("[B: +3]", "bad residue '\\+3'"),
            ("[B: ٣]", "bad residue '٣'"),
            ("[B: x]", "bad residue 'x'"),
            ("[B: 9" + "9" * 5000 + "]", "has too many digits"),
            ("[A: 1, +2]", "bad coordinate '\\+2'"),
            ("[A: 1_0, 2]", "bad coordinate '1_0'"),
            ("[A: ]", "bad coordinate ''"),
            ("[K: z]", "unknown generator 'z'"),
            ("[K: a^+1]", "bad exponent '\\+1'"),
            ("x9", "unknown generator 'x9'"),
            ("x1^+2", "bad exponent '\\+2'"),
            ("x1 1 [B: 3]", "unknown generator '1'"),  # as parse_word reads "a 1"
        ],
    )
    def test_every_error_is_a_free_product_error(self, text, message):
        with pytest.raises(fp.FreeProductError, match=message):
            fp.parse_path(CTX2, text)

    @pytest.mark.parametrize("text", ["[B: 3] 1 [B: 1]", "[B: 3] 1", "1 [B: 3]", "[B: 3]*1"])
    def test_bare_one_only_as_the_whole_text(self, text):
        with pytest.raises(fp.FreeProductError, match="bare '1'"):
            fp.parse_path(CTX2, text)

    @pytest.mark.parametrize("text", ["1", " 1 ", "*1*"])
    def test_bare_one_alone_is_the_empty_path(self, text):
        assert fp.parse_path(CTX2, text).letters == ()

    def test_blanks_around_coordinates_still_read(self):
        assert fp.parse_path(CTX2, "[A: 1, -2] x1").letters[0] == ("h", "A", (1, -2))

    # at most 10 characters keep exponents small enough to expand
    @given(st.text(st.sampled_from(list("x12[]:,ABK^-+_ *at") + ["٣"]), max_size=10))
    def test_parse_path_raises_only_free_product_errors(self, text):
        try:
            fp.parse_path(CTX2, text)
        except fp.FreeProductError:
            pass

    @given(WORDS)
    def test_printed_paths_read_back(self, letters):
        path = fp.SyllablePath(CTX, tuple(letters))
        assert fp.parse_path(CTX, str(path)).letters == path.letters
