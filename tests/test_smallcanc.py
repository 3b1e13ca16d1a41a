"""Symmetrized closures, piece metrics, and Dehn reduction."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from concc.smallcanc import (
    PieceWitness,
    SmallCancellationError,
    check_metric,
    dehn_reduce,
    dehn_reduce_traced,
    max_pieces,
    r_family,
    symmetrize,
    verify_hyp_spec_gen,
    word_family_w,
)
from concc.words import Alphabet, CyclicWord, Word, cyclic_reduce, primitive_root

import inspect

import numpy as np

from concc import smallcanc, substrings, words
from oracles import (
    bfs_trivial_set,
    brute_dehn,
    brute_max_piece,
    brute_piece_ratios,
    letter_piece_best,
    letter_symmetrize,
    run_piece_partners,
)

AB = Alphabet(["a", "b"])
ABC = Alphabet(["a", "b", "c"])


def w(text, alphabet=AB):
    return alphabet.parse_word(text)


def trio(s):
    a, b = w("a"), w("b")
    return [
        r_family(s, a.inverse(), b.inverse()),
        r_family(s, b, a),
        r_family(s, b.inverse(), a.inverse()),
    ]


class TestFamilies:
    def test_r_family_lengths(self):
        a, b = w("a"), w("b")
        for s in range(1, 6):
            assert len(r_family(s, a, b)) == 2 * s * s + s

    def test_r_family_scale_two(self):
        assert str(r_family(2, w("a"), w("b"))) == "a b b b a a b b b b"

    def test_w_family_lengths(self):
        a, b = w("a"), w("b")
        for k, n in ((1, 2), (2, 3), (3, 1), (4, 4)):
            assert len(word_family_w(k, n, a, b)) == 2 * n * k + n * (n - 1)

    def test_w_family_small(self):
        assert str(word_family_w(1, 2, w("a"), w("b"))) == "a b a a b b"

    def test_equal_generators_collapse_to_a_power(self):
        # R(s, a, a) degenerates to a single power of a, which the
        # symmetrization step rejects as a proper power.
        r = r_family(2, w("a"), w("a"))
        assert str(r) == " ".join(["a"] * 10) or str(r) == "a^10" or len(r) == 10
        with pytest.raises(SmallCancellationError):
            symmetrize([r])


    @pytest.mark.parametrize("s", [1, 2, 5])
    def test_letter_pairs_match_the_reduced_spelling(self, s):
        # single letters take a path that writes the word without reducing it
        for x in (1, -1, 2, -2, 3):
            for y in (1, -1, 2, -2, 3):
                spelled = []
                for i in range(1, s + 1):
                    spelled += [x] * i + [y] * (s + i)
                assert r_family(s, ABC.word([x]), ABC.word([y])) == ABC.word(spelled)


class TestSymmetrize:
    def test_commutator_closure(self):
        S = symmetrize([w("a b a^-1 b^-1")])
        # 4 rotations of the relator plus 4 of its inverse, no overlap.
        assert S.closure_size == 8

    def test_closure_counts_rotations_and_inverses(self):
        r = r_family(2, w("a"), w("b"))
        S = symmetrize([r])
        assert S.closure_size == 2 * len(r)

    def test_members_are_distinct_and_cyclically_reduced(self):
        S = symmetrize([w("a b a^-1 b^-1")])
        seen = set()
        for m in S.members():
            assert str(m) not in seen
            seen.add(str(m))
        assert len(seen) == S.closure_size

    def test_member_lookup_matches_generator(self):
        S = symmetrize(trio(2))
        listed = list(S.members())
        relisted = list(S.members())
        assert [str(m) for m in listed] == [str(m) for m in relisted]

    def test_rejects_identity(self):
        with pytest.raises(SmallCancellationError):
            symmetrize([Word(AB, ())])

    def test_rejects_proper_power(self):
        with pytest.raises(SmallCancellationError):
            symmetrize([w("a b a b")])

    def test_rejects_cyclically_reducible(self):
        with pytest.raises(SmallCancellationError):
            symmetrize([w("a b b a^-1")])


class TestPieces:
    def test_commutator_pieces(self):
        rep = max_pieces(symmetrize([w("a b a^-1 b^-1")]))
        assert rep.max_piece_length == 1
        assert [str(row["ratio"]) for row in rep.per_relator] == ["1/4"]
        assert [row["relator"] for row in rep.per_relator] == [w("a b a^-1 b^-1")]

    @pytest.mark.parametrize("s", [1, 3, 8])
    def test_relator_trio_is_the_spelled_out_trio(self, s):
        named = smallcanc.relator_trio(s, w("a"), w("b"))
        assert list(named) == ["R(a^-1,b^-1)", "R(b,a)", "R(b^-1,a^-1)"]
        assert list(named.values()) == trio(s)

    def test_witness_verifies(self):
        S = symmetrize([r_family(2, w("a"), w("b"))])
        rep = max_pieces(S)
        assert rep.max_piece_length == 4
        assert rep.witness is not None
        assert len(rep.witness.piece) == 4
        assert rep.witness.verify(S)

    def test_tampered_witness_fails(self):
        S = symmetrize([r_family(2, w("a"), w("b"))])
        rep = max_pieces(S)
        bad = type(rep.witness)(
            piece=w("a b b b a"),  # one longer than the true maximum
            member=rep.witness.member,
            other=rep.witness.other,
        )
        assert not bad.verify(S)

    def test_witness_ids_are_checked(self):
        S = symmetrize([r_family(2, w("a"), w("b"))])
        wit = max_pieces(S).witness
        apart = next(j for j in range(S.closure_size) if S.member_word(j, 4) != wit.piece)
        for member, other in ((wit.member, wit.member), (-1, wit.other),
                              (wit.member, S.closure_size), (wit.member, apart)):
            assert not PieceWitness(wit.piece, member, other).verify(S)
        assert PieceWitness(wit.piece, wit.other, wit.member).verify(S)
        # a a b repeated starts with a a b a, but the member a a b has three letters
        S = symmetrize([w("a a b"), w("a a b a a b a")])
        i, j = (next(i for i in range(S.closure_size) if S.member_word(i) == w(t))
                for t in ("a a b", "a a b a a b a"))
        assert not PieceWitness(w("a a b a"), j, i).verify(S)
        assert PieceWitness(w("a a b"), j, i).verify(S)

    def test_brute_agreement_fixed_sets(self):
        for rels in ([w("a b a^-1 b^-1")], [r_family(2, w("a"), w("b"))], trio(2)):
            S = symmetrize(rels)
            members = [m.letters for m in S.members()]
            assert max_pieces(S).max_piece_length == brute_max_piece(members)

    def test_brute_ratio_agreement(self):
        relators = trio(3)
        S = symmetrize(relators)
        rep = max_pieces(S)
        ratios = brute_piece_ratios([m.letters for m in S.members()])
        # Partition the closure into relator orbits and compare the worst
        # ratio seen inside each orbit against the reported per-relator row.
        orbit_of = {}
        for i, r in enumerate(relators):
            for v in (r, r.inverse()):
                orbit_of[str(CyclicWord(v).word())] = i
        worst = {}
        for letters, ratio in ratios.items():
            i = orbit_of[str(CyclicWord(Word(AB, letters)).word())]
            worst[i] = max(worst.get(i, Fraction(0)), ratio)
        for i, row in enumerate(rep.per_relator):
            assert row["ratio"] == worst[i]

    def test_brute_agreement_random_sets(self):
        rng = random.Random(7)
        pool = [str(v) for v in (w("a"), w("b"), w("a^-1"), w("b^-1"))]
        trials = 0
        while trials < 12:
            letters = [rng.choice(pool) for _ in range(rng.randint(4, 8))]
            try:
                S = symmetrize([w(" ".join(letters))])
            except SmallCancellationError:
                continue
            trials += 1
            members = [m.letters for m in S.members()]
            assert max_pieces(S).max_piece_length == brute_max_piece(members)


def symmetrize_outcome(build, relators):
    """The necklace letters in order and the origin pairs, or the rejection text."""
    try:
        out = build(relators)
    except ValueError as e:
        return str(e)
    if isinstance(out, smallcanc.SymmetrizedSet):
        return [n.letters for n in out.necklaces], list(out.origin_necklaces)
    return out


@st.composite
def rotation_sets(draw):
    """Relator sets for the run-token rotation: words of blocks, one-run
    words, words whose runs all have length 1, words whose first and last
    letters agree, proper powers, and rotations of earlier relators or of
    their inverses, so that necklaces repeat."""
    alphabet = draw(st.sampled_from([AB, ABC]))
    letters = [g * e for g in range(1, alphabet.size + 1) for e in (1, -1)]

    def blocks(longest):
        out = []
        for _ in range(draw(st.integers(1, 5))):
            out += [draw(st.sampled_from(letters))] * draw(st.integers(1, longest))
        return out

    relators = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["blocks", "one-run", "unit-runs", "wrap", "power", "repeat"]))
        if kind == "one-run":
            word = [draw(st.sampled_from(letters))] * draw(st.integers(1, 4))
        elif kind == "unit-runs":
            word = blocks(1)
        elif kind == "wrap":
            word = blocks(4)
            word += [word[0]] * draw(st.integers(1, 3))
        elif kind == "power":
            word = blocks(3) * draw(st.integers(2, 3))
        elif kind == "repeat" and relators:
            old = draw(st.sampled_from(relators))
            old = old.inverse() if draw(st.booleans()) else old
            cut = draw(st.integers(0, max(len(old) - 1, 0)))
            word = list(old.letters[cut:] + old.letters[:cut])
        else:
            word = blocks(6)
        core, _ = cyclic_reduce(alphabet.word(word))
        relators.append(core)
    return relators


class TestRunRotation:
    """symmetrize over run tokens against the letter-level CyclicWord,
    primitive_root and letter-code sort it replaced."""

    @settings(max_examples=400, deadline=None)
    @given(rotation_sets())
    def test_matches_letter_symmetrize(self, relators):
        assert symmetrize_outcome(symmetrize, relators) == symmetrize_outcome(
            letter_symmetrize, relators
        )

    @pytest.mark.parametrize("s", [*range(1, 31), 200])
    def test_trio_matches_letter_symmetrize(self, s):
        assert symmetrize_outcome(symmetrize, trio(s)) == symmetrize_outcome(
            letter_symmetrize, trio(s)
        )

    @pytest.mark.parametrize(
        "text, e",
        [("a b^2 a b^2 a b^2", 3), ("a^5", 5), ("a b a a b a", 2), ("a b", 1), ("b^-1", 1),
         ("a b^-1 a^2 b^-1 a", 2), ("a b^-1 a^2 b^-1", 1)],
    )
    def test_proper_power_exponent(self, text, e):
        r = w(text)
        assert primitive_root(r)[1] == e
        if e == 1:
            symmetrize([r])
        else:
            with pytest.raises(SmallCancellationError, match=rf"\(exponent {e}\)"):
                symmetrize([r])

    def test_repeated_necklaces_are_kept_once(self):
        r = w("a^2 b a^-1 b^3")
        again = r.inverse()
        again = Word(AB, again.letters[2:] + again.letters[:2])
        S = symmetrize([r, again, r])
        assert len(S.necklaces) == 2
        assert S.origin_necklaces[0] == S.origin_necklaces[2] == S.origin_necklaces[1][::-1]
        assert symmetrize_outcome(symmetrize, [r, again, r]) == symmetrize_outcome(
            letter_symmetrize, [r, again, r]
        )

    def test_booth_runs_over_runs(self, monkeypatch):
        calls = []

        def least_rotation(codes):
            calls.append(len(codes))
            return words._least_rotation(codes)

        monkeypatch.setattr(smallcanc, "_least_rotation", least_rotation)
        monkeypatch.setattr(words, "letter_code", None)
        symmetrize(trio(20))
        # six necklaces of 2s runs each, not 2s^2 + s letters
        assert calls == [40] * 6

    @settings(max_examples=200, deadline=None)
    @given(rotation_sets())
    def test_member_spells_one_rotation(self, relators):
        try:
            S = symmetrize(relators)
        except SmallCancellationError:
            assume(False)
        for k, n in enumerate(S.necklaces):
            ls, L = n.letters, len(n)
            for off in range(-L, 2 * L):
                assert S.member(k, off).letters == ls[off % L :] + ls[: off % L]


def mixed_length_set(raw):
    """Closure of the cyclic cores of raw, proper powers dropped; needs two
    necklace lengths, so the index sweeps more than one length class."""
    relators = []
    for letters in raw:
        core, _ = cyclic_reduce(AB.word(letters))
        if not core.is_identity and primitive_root(core)[1] == 1:
            relators.append(core)
    assume(relators)
    S = symmetrize(relators)
    assume(len({len(n) for n in S.necklaces}) >= 2)
    return S


class TestMixedLengthIndex:
    """The per-length-class sweep against the all-pairs oracle."""

    @settings(max_examples=150)
    @given(st.lists(st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=10),
                    min_size=2, max_size=4))
    def test_index_matches_brute(self, raw):
        S = mixed_length_set(raw)
        ratios = brute_piece_ratios([m.letters for m in S.members()])
        idx = S.index()
        for i in range(len(idx.best)):
            u = S.member_word(i)
            b = int(idx.best[i])
            assert b == ratios[u.letters] * len(u)
            if b:
                assert PieceWitness(Word(AB, u.letters[:b]), i, int(idx.partner[i])).verify(S)
        rep = max_pieces(S)
        assert rep.max_piece_length == max(r * len(m) for m, r in ratios.items())
        assert (rep.witness is None) == (rep.max_piece_length == 0)
        assert rep.witness is None or rep.witness.verify(S)
        for bound in (Fraction(1, 6), Fraction(1, 8)):
            chk = check_metric(S, bound)
            assert chk.ok == all(r < bound for r in ratios.values())
            if not chk.ok:
                assert chk.witness.verify(S)
                assert len(chk.witness.piece) >= bound * chk.carrier_length


@st.composite
def block_relators(draw):
    """Relators made of blocks x^i y^j with i, j up to 12, so that long runs
    and many run lengths occur, plus single-letter relators; cyclic cores of
    proper powers are dropped."""
    alphabet = draw(st.sampled_from([AB, ABC]))
    letters = [g * e for g in range(1, alphabet.size + 1) for e in (1, -1)]
    relators = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()) and draw(st.booleans()):
            word = [draw(st.sampled_from(letters))]
        else:
            word = []
            for _ in range(draw(st.integers(1, 3))):
                x = draw(st.sampled_from(letters))
                y = draw(st.sampled_from([l for l in letters if abs(l) != abs(x)]))
                word += [x] * draw(st.integers(1, 12)) + [y] * draw(st.integers(1, 12))
        core, _ = cyclic_reduce(alphabet.word(word))
        if not core.is_identity and primitive_root(core)[1] == 1:
            relators.append(core)
    assume(relators)
    return symmetrize(relators)


def member_prefixes_agree(S, idx, members):
    """Whether each given member and its partner share best letters."""
    doubled = [n.letters + n.letters for n in S.necklaces]
    starts = S.starts.tolist()

    def text(i, b):
        k = int(np.searchsorted(S.starts, i, side="right")) - 1
        off = i - starts[k]
        return doubled[k][off : off + b]

    return all(
        idx.partner[i] != i and text(i, int(idx.best[i])) == text(int(idx.partner[i]), int(idx.best[i]))
        for i in members
    )


class TestRunIndex:
    """The run-level index against the letter-level index it replaced."""

    @pytest.mark.parametrize("s", [3, 7, 20, 100])
    def test_best_matches_letter_index(self, s):
        S = symmetrize(trio(s))
        idx = S.index()
        best, _ = letter_piece_best(S.necklaces)
        assert idx.best.tolist() == best.tolist()
        assert ((idx.partner >= 0) == (idx.best > 0)).all()
        assert int(idx.best.max()) == 5 * s - 2
        # every partner shares the piece; at scale 100 a sample of members
        members = range(len(idx.best)) if s < 100 else range(0, len(idx.best), 97)
        assert member_prefixes_agree(S, idx, members)

    @settings(max_examples=200, deadline=None)
    @given(block_relators())
    def test_block_relators_match_letter_index(self, S):
        idx = S.index()
        assert idx.checked, idx.check_detail
        best, _ = letter_piece_best(S.necklaces)
        assert idx.best.tolist() == best.tolist()
        for i in range(len(idx.best)):
            b = int(idx.best[i])
            if not b:
                assert idx.partner[i] == -1
                continue
            assert PieceWitness(S.member_word(i, b), i, int(idx.partner[i])).verify(S)

    def test_single_letter_relators(self):
        # a necklace of one run is one letter; it shares it with every
        # member that opens with that letter
        S = symmetrize([w("a"), w("a a b"), w("b^-1")])
        idx = S.index()
        best, _ = letter_piece_best(S.necklaces)
        assert idx.best.tolist() == best.tolist()
        assert member_prefixes_agree(S, idx, np.flatnonzero(idx.best))

    @pytest.mark.parametrize("s", [9, 19])
    def test_witnesses_are_the_first_members(self, s):
        S = symmetrize(trio(s))
        idx = S.index()
        rep = max_pieces(S)
        assert rep.witness.member == int(np.argmax(idx.best))
        chk = check_metric(S, Fraction(1, 8))
        fails = idx.best * 8 >= np.repeat(S.lengths, S.lengths)
        assert chk.witness.member == int(np.argmax(fails))
        assert chk.witness.verify(S)
        assert len(chk.witness.piece) * 8 >= chk.carrier_length


def assert_readers_match_arrays(S):
    """The segment-end readers against the per-member arrays: the first
    member with the longest piece, the first member over each bound, their
    partners and carrier lengths, and the per-relator maxima; then the
    arrays against the tie rules as ``run_piece_partners`` states them."""
    idx = S.index()
    rep = max_pieces(S)
    checks = {bound: check_metric(S, bound) for bound in
              (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6), Fraction(1, 8))}
    assert "all_answers" not in vars(idx)
    best, partner = idx.best, idx.partner
    member_len = np.repeat(S.lengths, S.lengths)
    i = int(np.argmax(best))
    assert rep.max_piece_length == best[i]
    if best[i]:
        assert rep.witness.member == i
        assert rep.witness.other == partner[i]
    neck_max = np.maximum.reduceat(best, S.starts[:-1])
    assert [row["max_piece"] for row in rep.per_relator] == [
        int(neck_max[list(ks)].max()) for ks in S.origin_necklaces
    ]
    for bound, chk in checks.items():
        fails = best * bound.denominator >= member_len * bound.numerator
        assert chk.ok == (not fails.any())
        if not chk.ok:
            i = int(np.argmax(fails))
            assert chk.witness.member == i
            assert chk.witness.other == partner[i]
            assert len(chk.witness.piece) == best[i]
            assert chk.carrier_length == member_len[i]
    for i in np.flatnonzero(best)[:: max(1, len(best) // 50)].tolist():
        assert idx.piece_at(i) == (best[i], partner[i])
    assert (best.tolist(), partner.tolist()) == run_piece_partners(S.necklaces)


class TestSegmentReaders:
    """max_pieces and check_metric read segment ends; the per-member arrays
    are built only on request, by the same tie rules."""

    @settings(max_examples=150, deadline=None)
    @given(block_relators())
    def test_block_relators(self, S):
        assert_readers_match_arrays(S)

    @settings(max_examples=150)
    @given(st.lists(st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=10),
                    min_size=2, max_size=4))
    def test_mixed_lengths(self, raw):
        assert_readers_match_arrays(mixed_length_set(raw))

    @pytest.mark.parametrize("s", [1, 2, 5, 9, 19, 20])
    def test_trio(self, s):
        assert_readers_match_arrays(symmetrize(trio(s)))

    @pytest.mark.parametrize("s", [300, 1000])
    def test_large_trio_builds_no_member_arrays(self, s):
        S = symmetrize(trio(s))
        idx = S.index()
        assert idx.checked, idx.check_detail
        assert max_pieces(S).max_piece_length == 5 * s - 2
        assert check_metric(S, Fraction(1, 8)).ok
        assert "all_answers" not in vars(idx)
        for r in trio(s):
            assert dehn_reduce(r, S).is_identity
        survivor = r_family(s, w("a"), w("b"))
        assert dehn_reduce(survivor, S) == survivor
        # the closure is kept as runs: no necklace was spelled out
        assert "necklaces" not in vars(S)

    def test_witnesses_spell_only_their_pieces(self, monkeypatch):
        spell, longest = smallcanc._spell, [0]

        def counted(letter, length):
            out = spell(letter, length)
            longest[0] = max(longest[0], len(out))
            return out

        monkeypatch.setattr(smallcanc, "_spell", counted)
        s = 300
        assert verify_hyp_spec_gen(s).ok
        assert longest[0] <= 5 * s - 2
        S = symmetrize(trio(s))
        chk = check_metric(S, Fraction(1, 1000))
        assert not chk.ok and "necklaces" not in vars(S)
        assert chk.witness.verify(S) and "necklaces" not in vars(S)
        assert longest[0] <= 5 * s - 2


def _wrong_lifting_level(seq, sa):
    """lcp_array with each lifting step reading the class level above its own."""
    source = inspect.getsource(substrings.lcp_array).replace(
        "cls = levels[j]\n", "cls = levels[min(j + 1, len(levels) - 1)]\n"
    )
    assert "levels[min(j + 1, len(levels) - 1)]" in source
    scope = {"np": np}
    exec(source, scope)
    return scope["lcp_array"](seq, sa)


def token_index(s):
    S = symmetrize(trio(s))
    letter, length, _, neck = smallcanc._runs(S.runs)
    key = smallcanc._token_text(letter, length, neck)[0]
    sa = substrings.suffix_array(key)
    return key, sa, substrings.lcp_array(key, sa)


class TestIndexSelfCheck:
    """The suffix and LCP arrays of the run tokens check themselves."""

    @pytest.mark.parametrize("s", [1, 3, 20])
    def test_honest_index_passes(self, s):
        key, sa, lcp = token_index(s)
        assert smallcanc._index_fault(key, sa, lcp) is None
        idx = symmetrize(trio(s)).index()
        assert idx.checked
        assert idx.check_detail == f"suffix and LCP arrays of {len(key)} run tokens checked"

    @pytest.mark.parametrize("s", [2, 7, 20])
    def test_swapped_suffixes_are_caught(self, s):
        key, sa, lcp = token_index(s)
        rng = random.Random(s)
        for _ in range(20):
            i, j = rng.sample(range(len(sa)), 2)
            bad = sa.copy()
            bad[i], bad[j] = bad[j], bad[i]
            assert "out of order" in smallcanc._index_fault(key, bad, lcp)

    @pytest.mark.parametrize("s", [2, 7, 20])
    def test_lcp_off_by_one_is_caught(self, s):
        key, sa, lcp = token_index(s)
        for i in range(len(lcp)):
            for d in (1, -1):
                bad = lcp.copy()
                bad[i] += d
                assert smallcanc._index_fault(key, sa, bad) is not None

    @pytest.mark.parametrize("s", [7, 20])
    def test_wrong_lcp_inside_a_long_prefix_is_caught(self, s):
        key, sa, lcp = token_index(s)
        r = int(np.argmax(lcp))
        a, b, h = int(sa[r]), int(sa[r + 1]), int(lcp[r])
        assert h >= s
        # inside the common prefix: the tokens after it still agree
        bad = lcp.copy()
        bad[r] = h // 2
        assert "not followed by a mismatch" in smallcanc._index_fault(key, sa, bad)
        # past it, where the tokens differ again: only the prefix comparison,
        # which starts from Kasai's bound, finds the unequal tokens
        far = next(c for c in range(h + 1, len(key) - max(a, b))
                   if key[a + c] != key[b + c])
        bad[r] = far
        assert smallcanc._index_fault(key, sa, bad) == f"LCP {far} at rank {r} covers unequal tokens"

    @pytest.mark.parametrize("s", [3, 20])
    def test_wrong_lifting_level_fails_the_report(self, s, monkeypatch):
        key, sa, lcp = token_index(s)
        assert _wrong_lifting_level(key, sa).tolist() != lcp.tolist()
        monkeypatch.setattr(smallcanc, "lcp_array", _wrong_lifting_level)
        rep = verify_hyp_spec_gen(s)
        check = {c.name: c for c in rep.checks}["piece-index-checked"]
        assert not check.ok and not rep.ok
        assert "LCP" in check.detail

    @settings(max_examples=200)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=40), st.data())
    def test_hypothesis_texts(self, text, data):
        # the check needs a text that ends in a token found nowhere else
        key = np.array(text + [-1], dtype=np.int64)
        sa = substrings.suffix_array(key)
        lcp = substrings.lcp_array(key, sa)
        assert smallcanc._index_fault(key, sa, lcp) is None
        i = data.draw(st.integers(0, len(key) - 2))
        j = data.draw(st.integers(i + 1, len(key) - 1))
        bad = sa.copy()
        bad[i], bad[j] = bad[j], bad[i]
        assert smallcanc._index_fault(key, bad, lcp) is not None
        k = data.draw(st.integers(0, len(lcp) - 1)) if len(lcp) else None
        if k is not None:
            for d in (1, -1):
                off = lcp.copy()
                off[k] += d
                assert smallcanc._index_fault(key, sa, off) is not None


class TestMetric:
    def test_commutator_fails_quarter_strictly(self):
        # The length-1 piece is exactly a quarter of the relator; the
        # strict inequality rules it out.
        S = symmetrize([w("a b a^-1 b^-1")])
        chk = check_metric(S, Fraction(1, 4))
        assert not chk.ok
        assert chk.witness is not None
        assert len(chk.witness.piece) * 4 >= chk.carrier_length

    def test_commutator_passes_third(self):
        assert check_metric(symmetrize([w("a b a^-1 b^-1")]), Fraction(1, 3)).ok

    def test_trio_threshold(self):
        assert not check_metric(symmetrize(trio(19)), Fraction(1, 8)).ok
        assert check_metric(symmetrize(trio(20)), Fraction(1, 8)).ok

    def test_trio_first_passing_scale(self):
        firsts = [s for s in range(1, 21)
                  if check_metric(symmetrize(trio(s)), Fraction(1, 8)).ok]
        assert firsts == [20]

    def test_scale_twenty_profile(self):
        S = symmetrize(trio(20))
        assert S.closure_size == 4920
        rep = max_pieces(S)
        assert rep.max_piece_length == 98
        assert sorted({str(r["ratio"]) for r in rep.per_relator}) == ["29/410", "49/410"]

    def test_scale_nineteen_profile(self):
        S = symmetrize(trio(19))
        rep = max_pieces(S)
        assert rep.max_piece_length == 93
        # 93/741 = 31/247 >= 1/8, which is why the metric fails there.
        assert Fraction(93, 741) >= Fraction(1, 8)


C16_RELATOR = "a a b a b^-1 a c c"


def c16_set():
    return symmetrize([w(C16_RELATOR, ABC)])


class TestDehn:
    def test_relator_rotation_dies(self):
        S = c16_set()
        assert str(dehn_reduce(w("c a a b a b^-1 a c", ABC), S)) == "1"

    def test_conjugated_relator_dies(self):
        S = c16_set()
        word = w("b " + C16_RELATOR + " b^-1", ABC)
        red = dehn_reduce_traced(word, S)
        assert red.is_empty
        assert len(red.steps) == 1

    def test_long_prefix_steps_once(self):
        S = c16_set()
        red = dehn_reduce_traced(w("a a b a b^-1 a c", ABC), S)
        assert str(red.word) == "c^-1"
        assert len(red.steps) == 1

    def test_short_word_irreducible(self):
        S = c16_set()
        red = dehn_reduce_traced(w("a b c", ABC), S)
        assert red.irreducible
        assert str(red.word) == "a b c"

    def test_c16_profile(self):
        S = c16_set()
        assert S.closure_size == 16
        assert max_pieces(S).max_piece_length == 1
        assert check_metric(S, Fraction(1, 6)).ok

    def test_only_closure_members_die_among_short_words(self):
        # Greendlinger: a nonempty trivial word contains more than half a
        # relator, so nothing shorter than the relator can be trivial here.
        S = c16_set()
        members = [m.letters for m in S.members()]
        trivial = bfs_trivial_set(members, 8)
        assert {t for t in trivial if t and len(t) <= 7} == set()
        assert trivial == {()} | set(members)
        for m in S.members():
            assert dehn_reduce(m, S).letters == ()

    @settings(max_examples=60)
    @given(st.lists(st.sampled_from(["a", "b", "c", "a^-1", "b^-1", "c^-1"]),
                    min_size=0, max_size=6))
    def test_short_words_survive(self, parts):
        word = w(" ".join(parts), ABC)
        if not word.letters:
            return
        S = c16_set()
        red = dehn_reduce(word, S)
        # Words this short cannot contain half of a length-8 relator
        # after free reduction unless they cancel entirely on their own.
        assert (red.letters == ()) == (word.letters == ())


@st.composite
def dehn_cases(draw):
    """A relator set over two or three generators, with no metric promise,
    and a product of conjugates of its members and member prefixes."""
    alphabet = draw(st.sampled_from([AB, ABC]))
    letter = st.sampled_from([g * e for g in range(1, alphabet.size + 1) for e in (1, -1)])
    relators = []
    for letters in draw(st.lists(st.lists(letter, min_size=1, max_size=12), min_size=1, max_size=3)):
        core, _ = cyclic_reduce(alphabet.word(letters))
        if not core.is_identity and primitive_root(core)[1] == 1:
            relators.append(core)
    assume(relators)
    S = symmetrize(relators)
    word = []
    for _ in range(draw(st.integers(0, 5))):
        neck = S.necklaces[draw(st.integers(0, len(S.necklaces) - 1))].letters
        off = draw(st.integers(0, len(neck) - 1))
        member = neck[off:] + neck[:off]
        g = draw(st.lists(letter, max_size=4))
        word += g + list(member[: draw(st.integers(1, len(neck)))]) + [-l for l in reversed(g)]
    return S, alphabet.word(word)


def assert_matches_brute(S, word):
    red = dehn_reduce_traced(word, S)
    want, steps = brute_dehn(word.letters, [n.letters for n in S.necklaces])
    assert red.word.letters == want
    assert [(s.position, s.matched, s.necklace, s.offset) for s in red.steps] == steps


@st.composite
def run_shape_cases(draw):
    """A relator set with a relator one of whose runs is longer than half of
    it, and a word in a shape the run matcher treats apart: every run of
    length 1, or first and last runs of one letter (a run that wraps)."""
    alphabet = draw(st.sampled_from([AB, ABC]))
    letters = [g * e for g in range(1, alphabet.size + 1) for e in (1, -1)]
    x = draw(st.sampled_from(letters))
    tail = [draw(st.sampled_from([l for l in letters if abs(l) != abs(x)]))]
    for _ in range(draw(st.integers(0, 3))):
        tail.append(draw(st.sampled_from([l for l in letters if l not in (x, -x, -tail[-1])])))
    relators = [alphabet.word([x] * draw(st.integers(len(tail) + 1, len(tail) + 5)) + tail)]
    letter = st.sampled_from(letters)
    for letters_ in draw(st.lists(st.lists(letter, min_size=1, max_size=10), max_size=2)):
        core, _ = cyclic_reduce(alphabet.word(letters_))
        if not core.is_identity and primitive_root(core)[1] == 1:
            relators.append(core)
    S = symmetrize(relators)
    if draw(st.booleans()):
        word = [draw(letter)]
        for _ in range(draw(st.integers(0, 20))):
            word.append(draw(st.sampled_from([l for l in letters if l not in (word[-1], -word[-1])])))
        while len(word) > 1 and word[-1] in (word[0], -word[0]):
            word.pop()
        return S, alphabet.word(word)
    word = []
    for _ in range(draw(st.integers(1, 4))):
        neck = S.necklaces[draw(st.integers(0, len(S.necklaces) - 1))].letters
        off = draw(st.integers(0, len(neck) - 1))
        g = draw(st.lists(letter, max_size=3))
        word += g + list((neck[off:] + neck[:off])[: draw(st.integers(1, len(neck)))])
        word += [-l for l in reversed(g)]
    core = cyclic_reduce(alphabet.word(word))[0].letters
    # start inside a run, so that the word's first and last runs share a letter
    inside = [i for i in range(1, len(core)) if core[i] == core[i - 1]]
    assume(inside)
    i = draw(st.sampled_from(inside))
    return S, alphabet.word(core[i:] + core[:i])


@settings(max_examples=300)
@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12), st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12))
def test_run_rewrite_matches_letter_reduction(x, y):
    # the rewrite joins two reduced words by their runs; so must free and
    # cyclic reduction of their letters
    x, y = AB.word(x).letters, AB.word(y).letters
    runs = [smallcanc._linear_runs(np.array(v, dtype=np.int64)) for v in (x, y)]
    letter, length = smallcanc._join(*runs[0], *runs[1])
    assert tuple(letter.repeat(length).tolist()) == cyclic_reduce(AB.word(x + y))[0].letters
    assert all(letter[1:] != letter[:-1]) and all(length > 0)


class TestDehnOracle:
    """The run-token matcher against plain enumeration, step by step."""

    @settings(max_examples=300)
    @given(dehn_cases())
    def test_matches_brute_dehn(self, case):
        assert_matches_brute(*case)

    @settings(max_examples=300)
    @given(run_shape_cases())
    def test_run_shapes_match_brute_dehn(self, case):
        S, word = case
        # some necklace has a run of more than half of it
        assert any(2 * length.max() > length.sum() for _, length in S.runs)
        assert_matches_brute(S, word)

    def test_refuses_an_unchecked_index(self, monkeypatch):
        monkeypatch.setattr(smallcanc, "_index_fault", lambda *arrays: "forged fault at rank 3")
        S = c16_set()
        assert not S.index().checked
        with pytest.raises(SmallCancellationError, match="forged fault at rank 3"):
            dehn_reduce_traced(w("a a b a b^-1 a c c", ABC), S)
        rep = verify_hyp_spec_gen(20)
        dehn = [c for c in rep.checks if c.name.startswith(("reduces", "survivor"))]
        assert len(dehn) == 4 and not any(c.ok for c in dehn)
        assert all("not run" in c.detail for c in dehn)

    def test_ties_go_to_the_smallest_offset(self):
        # a a a opens the rotations at offsets 0 and 1 of a^4 b alike
        S = symmetrize([w("a a a a b")])
        red = dehn_reduce_traced(w("a a a"), S)
        assert [(s.position, s.matched, s.necklace, s.offset) for s in red.steps] == [(0, 3, 0, 0)]
        assert str(red.word) == "b^-1 a^-1"
        assert_matches_brute(S, w("a a a"))

    def test_scale_twenty_products(self):
        S = symmetrize(trio(20))
        rng = random.Random(5)
        word = []
        for _ in range(6):
            r = rng.choice(S.origins)
            g = [rng.choice([1, -1, 2, -2]) for _ in range(5)]
            word += g + list(r.letters if rng.random() < 0.5 else r.inverse().letters)
            word += [-l for l in reversed(g)]
        red = dehn_reduce_traced(AB.word(word), S)
        assert red.is_empty
        # one whole-relator step per conjugate
        assert [(s.position, s.matched, s.necklace, s.offset) for s in red.steps] == [
            (4, 820, 1, 1), (818, 820, 3, 39), (3, 820, 0, 40),
            (4, 820, 5, 60), (822, 820, 2, 781), (0, 820, 5, 60),
        ]


class TestGeneratorReport:
    def test_small_scale_fails_metric(self):
        rep = verify_hyp_spec_gen(3)
        assert not rep.ok
        assert rep.relator_length == 21
        by_name = {c.name: c.ok for c in rep.checks}
        assert by_name["metric-c-prime-1-8"] is False
        assert by_name["reduces-to-empty R(b,a)"] is True

    def test_threshold_scale_passes(self):
        rep = verify_hyp_spec_gen(20)
        assert rep.ok
        assert rep.relator_length == 820
        assert rep.closure_size == 4920
        assert rep.max_piece == 98
        assert rep.bound == Fraction(1, 8)
        assert all(c.ok for c in rep.checks)
        assert rep.metric_witness is None
