import itertools
import random
import re
import sys

import pytest
from hypothesis import assume, given, strategies as st

from concc import freeprod, hnn, presentations
from concc.words import (
    Alphabet,
    CyclicWord,
    Word,
    WordError,
    _least_rotation,
    all_reduced_words,
    commensurability_key,
    commensurable,
    conjugacy_witness,
    cyclic_reduce,
    free_reduce,
    is_cyclically_reduced,
    is_power_of,
    letter_code,
    primitive_root,
    read_int,
    read_tokens,
)

import oracles

AB = Alphabet(["a", "b"])


def w(text: str) -> Word:
    return AB.parse_word(text)


# letter strategy over a 2-letter alphabet: signed indices 1, 2
letters = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12)


class TestReduction:
    def test_cancel_adjacent(self):
        assert free_reduce((1, -1)) == ()
        assert free_reduce((1, 2, -2, -1, 1)) == (1,)

    def test_inverse_of_identity_is_itself(self):
        e = AB.identity()
        assert e.inverse() is e

    def test_parse_and_str_round_trip(self):
        for text in ("a b^-1 a a", "1", "b^3", "a^-2 b"):
            assert str(w(text)) == str(w(str(w(text))))

    @given(letters)
    def test_reduce_idempotent(self, ls):
        once = free_reduce(tuple(ls))
        assert free_reduce(once) == once

    @given(letters, letters)
    def test_mul_inverse(self, xs, ys):
        u, v = Word(AB, free_reduce(tuple(xs))), Word(AB, free_reduce(tuple(ys)))
        assert (u * v) * v.inverse() == u
        assert (u * u.inverse()).is_identity

    @given(letters, st.integers(-6, 6))
    def test_pow_matches_oracle(self, ls, k):
        # words that are not cyclically reduced cancel across every seam
        u = Word(AB, free_reduce(tuple(ls)))
        assert (u ** k).letters == oracles.letters_pow(u.letters, k)

    @given(letters, letters, letters)
    def test_mul_is_letter_exact(self, us, vs, xs):
        # products cancel only at the junction; the full reducer is the oracle
        u, v, x = AB.word(us), AB.word(vs), AB.word(xs)
        assert (u * v).letters == free_reduce(u.letters + v.letters)
        rest = u.inverse() * x  # u cancels completely against it
        assert (u * rest).letters == free_reduce(u.letters + rest.letters) == x.letters
        assert (rest.inverse() * u.inverse()).letters == x.inverse().letters

    @given(letters, st.integers(0, 12), letters)
    def test_lazy_hashes_agree_across_constructions(self, ls, cut, gs):
        u = AB.word(ls)
        v = AB.word(ls[:cut]) * AB.word(ls[cut:])
        p = AB.parse_word(str(u))
        assert u == v == p and hash(v) == hash(u) == hash(p)
        assert {u: "u"}[v] == "u" and len({p, v, u}) == 1
        cu = CyclicWord.of(u)
        cg = CyclicWord.of(v.conjugated_by(AB.word(gs)))
        assert cg == cu and hash(cg) == hash(cu)
        assert {cg: "c"}[cu] == "c" and len({cu, cg}) == 1

    def test_letter_order_codes(self):
        # a < a^-1 < b < b^-1
        assert [letter_code(l) for l in (1, -1, 2, -2)] == [0, 1, 2, 3]

    @pytest.mark.parametrize("size", range(1, 7))
    def test_code_table_is_letter_code(self, size):
        A = Alphabet([f"g{i}" for i in range(1, size + 1)])
        letters = A.letters_in_order()
        assert len(letters) == 2 * size
        assert [A.codes[l] for l in letters] == [letter_code(l) for l in letters]
        assert list(map(A.codes.__getitem__, letters)) == list(range(2 * size))
        assert sorted(A.codes) == sorted(letters)  # no code for 0 or a letter past the alphabet


class TestCyclic:
    def test_cyclic_reduce_round_trip_examples(self):
        core, p = cyclic_reduce(w("a b a^-1"))
        assert str(core) == "b" and str(p) == "a"
        core, p = cyclic_reduce(w("a b b a^-1"))
        assert p * core * p.inverse() == w("a b b a^-1")

    @given(letters)
    def test_cyclic_reduce_invariant(self, ls):
        u = Word(AB, free_reduce(tuple(ls)))
        core, p = cyclic_reduce(u)
        assert p * core * p.inverse() == u
        assert is_cyclically_reduced(core)

    @given(letters)
    def test_canonical_rotation_least(self, ls):
        u = Word(AB, free_reduce(tuple(ls)))
        c = CyclicWord.of(u)
        canon = min(
            (tuple(letter_code(l) for l in r.letters) for r in c.rotations()),
            default=(),
        )
        assert tuple(letter_code(l) for l in c.letters) == canon

    @given(st.lists(st.tuples(st.integers(1, 4), st.sampled_from([2, -2, 3])), max_size=60))
    def test_canonical_rotation_of_long_words(self, blocks):
        # runs of a between single other letters: every a may start the least
        # rotation, so long words go to Booth's loop and short ones to slices
        ABC = Alphabet(["a", "b", "c"])
        u = Word(ABC, tuple(l for k, x in blocks for l in [1] * k + [x]))
        codes = lambda r: tuple(letter_code(l) for l in r.letters)  # noqa: E731
        assert codes(CyclicWord(u)) == min(map(codes, CyclicWord(u).rotations()), default=())

    def test_booth_matches_its_first_form_exhaustively(self):
        for n in range(1, 9):
            for codes in itertools.product(range(3), repeat=n):
                assert _least_rotation(codes) == oracles.booth_least_rotation(codes), codes

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=40), st.integers(1, 6))
    def test_booth_matches_its_first_form_on_periodic_keys(self, block, k):
        for codes in (block, block * k):
            assert _least_rotation(codes) == oracles.booth_least_rotation(codes)

    def test_unreduced_input_rejected(self):
        with pytest.raises(WordError):
            CyclicWord(w("a b a^-1"))


class TestConjugacy:
    def test_shift_pair(self):
        assert conjugacy_witness(w("a b"), w("b a")) is not None
        g = conjugacy_witness(w("a b"), w("b a"))
        assert g * w("a b") * g.inverse() == w("b a")
        assert str(g) == "a^-1"

    def test_inverse_not_conjugate(self):
        assert conjugacy_witness(w("a"), w("a^-1")) is None

    @given(letters, letters)
    def test_witness_or_rotations_disagree(self, us, gs):
        u = Word(AB, free_reduce(tuple(us)))
        g = Word(AB, free_reduce(tuple(gs)))
        v = g * u * g.inverse()
        got = conjugacy_witness(u, v)
        assert got is not None
        assert got * u * got.inverse() == v

    @given(letters, letters)
    def test_agrees_with_rotation_oracle(self, us, vs):
        u = Word(AB, free_reduce(tuple(us)))
        v = Word(AB, free_reduce(tuple(vs)))
        assert (conjugacy_witness(u, v) is not None) == oracles.rotation_conjugate(u, v)


class TestPrimitiveRoot:
    def test_examples(self):
        root, e = primitive_root(w("a b a b"))
        assert str(root) == "a b" and e == 2
        _, e = primitive_root(w("a b"))
        assert e == 1
        with pytest.raises(WordError):
            primitive_root(w("1"))

    @given(letters, st.integers(min_value=1, max_value=4))
    def test_power_recovers(self, ls, k):
        u = Word(AB, free_reduce(tuple(ls)))
        if u.is_identity:
            return
        root, e = primitive_root(u**k)
        assert root**e == u**k
        assert primitive_root(root)[1] == 1
        assert is_power_of(u**k, root) == e


    @given(letters, st.integers(1, 3), st.integers(-8, 8), letters)
    def test_is_power_of_matches_brute_search(self, ls, e, k, other):
        r = Word(AB, free_reduce(tuple(ls)))
        assume(not r.is_identity)
        c = r**e  # not its own root when e > 1
        for u in (c**k, r**k, Word(AB, free_reduce(tuple(other)))):
            brute = [m for m in range(-8, 9) if c**m == u]
            for got in (is_power_of(u, c), is_power_of(u, c, primitive_root(c))):
                if got is None:
                    assert brute == []
                else:
                    assert c**got == u
                    assert brute == ([got] if abs(got) <= 8 else [])


# each parser of word text, with its own error class and a context for "a"
KLEIN = hnn.klein_bottle_tower()
PATH_CTX = freeprod.FreeProductCtx([freeprod.CyclicFactor("B", 5)], Alphabet(["a"]))
PARSERS = {
    "parse_word": (AB.parse_word, WordError),
    "Tower.parse": (KLEIN.parse, hnn.HnnError),
    "parse_path": (lambda text: freeprod.parse_path(PATH_CTX, text), freeprod.FreeProductError),
    "parse_presentation": (
        lambda text: presentations.parse_presentation(f"< a , b | {text} >"),
        presentations.PresentationError,
    ),
}


class TestWordText:
    def test_read_int(self):
        assert [read_int(t, "residue") for t in ("0", "7", "-0012")] == [0, 7, -12]
        for bad in ("", "-", "+2", "1_0", " 2", "2 ", "\u0663", "--1", "0x1"):
            with pytest.raises(WordError, match=re.escape(f"bad residue {bad!r}")):
                read_int(bad, "residue")
        with pytest.raises(WordError, match="coordinate '99.*too many digits"):
            read_int("9" * 5000, "coordinate")

    def test_tokens(self):
        assert read_tokens(" a*b^-1  a^3 b^0 ") == [("a", 1), ("b", -1), ("a", 3), ("b", 0)]
        assert read_tokens("a^-0012") == [("a", -12)]
        assert read_tokens("zz") == [("zz", 1)]  # names are not looked up

    @pytest.mark.parametrize("text", ["", "  ", "1", " 1 ", "*1*"])
    def test_identity(self, text):
        assert read_tokens(text) == []

    def test_one_is_identity_only_alone(self):
        with pytest.raises(WordError, match="unknown generator '1'"):
            AB.parse_word("a 1")

    @pytest.mark.parametrize("parser", PARSERS)
    @pytest.mark.parametrize("text", ["a^", "a^+2", "a^1_0", "a^\u0663", "a^^2", "a^-", "a^ 2"])
    def test_bad_exponents_raise_the_parsers_own_error(self, parser, text):
        parse, error = PARSERS[parser]
        with pytest.raises(WordError, match="bad exponent"):
            read_tokens(text)
        with pytest.raises(error, match="bad exponent"):
            parse(text)


    @pytest.mark.parametrize("parser", PARSERS)
    def test_exponent_past_the_digit_limit(self, parser):
        parse, error = PARSERS[parser]
        with pytest.raises(error, match="too many digits"):
            parse("a^-" + "9" * 5000)

    @pytest.mark.parametrize("parser", PARSERS)
    @pytest.mark.parametrize("exp", ["99999999999999999999", "-99999999999999999999",
                                     str(sys.maxsize + 1), str(-sys.maxsize - 1)])
    def test_exponent_past_the_index_size(self, parser, exp):
        parse, error = PARSERS[parser]
        with pytest.raises(error, match=re.escape(f"exponent outside +-{sys.maxsize}")):
            parse(f"a^{exp}")

    def test_tokens_keep_exponents_up_to_the_index_size(self):
        assert read_tokens(f"a^{sys.maxsize} b^-{sys.maxsize}") == [
            ("a", sys.maxsize), ("b", -sys.maxsize)
        ]

    @given(st.lists(st.tuples(st.sampled_from(["a", "b"]), st.integers(-6, 6)), max_size=14))
    def test_run_reduction_matches_letter_reduction(self, tokens):
        # zero exponents, runs that cancel in part and cascades of cancels
        text = " ".join(f"{name}^{exp}" for name, exp in tokens)
        letters = [AB.letter(name) * (1 if exp > 0 else -1) for name, exp in tokens for _ in range(abs(exp))]
        assert w(text).letters == free_reduce(letters)

    def test_cancels_cascade_across_runs(self):
        assert str(w("a^3 a^-5 b b^-1 a^2")) == "1"
        assert str(w("a^3 b^2 b^0 b^-2 a^-1 b")) == "a a b"
        assert str(w("b a^2 a^-3 a^1 b^-1")) == "1"


class TestCommensurability:
    def test_basic_relations(self):
        assert commensurable(w("a b"), w("b a")).related
        assert commensurable(w("a b"), w("a b a b")).related
        assert commensurable(w("a"), w("a^-1")).related  # inverse counts
        assert not commensurable(w("a"), w("b")).related

    def test_witness_verifies(self):
        c = commensurable(w("a b a b"), w("b a"))
        assert c.related and c.verify()

    @given(letters, letters)
    def test_symmetric(self, us, vs):
        u = Word(AB, free_reduce(tuple(us)))
        v = Word(AB, free_reduce(tuple(vs)))
        if u.is_identity or v.is_identity:
            return
        assert commensurable(u, v).related == commensurable(v, u).related

    @given(letters, letters)
    def test_key_invariant(self, us, vs):
        u = Word(AB, free_reduce(tuple(us)))
        v = Word(AB, free_reduce(tuple(vs)))
        if u.is_identity or v.is_identity:
            return
        same_key = commensurability_key(u) == commensurability_key(v)
        assert same_key == commensurable(u, v).related

    @given(letters, st.integers(1, 3))
    def test_key_is_the_least_cyclic_root_up_to_inversion(self, ls, e):
        u = Word(AB, free_reduce(tuple(ls))) ** e
        if u.is_identity:
            return
        root, _ = primitive_root(u)
        codes = lambda r: tuple(letter_code(l) for l in r)  # noqa: E731
        rotations = [
            r.letters for c in (root, root.inverse()) for r in CyclicWord.of(c).rotations()
        ]
        assert commensurability_key(u) == min(rotations, key=codes)

    @given(letters, st.integers(1, 4), letters)
    def test_key_matches_its_first_formula(self, us, k, ps):
        # periodic cores u^k, and their conjugates p u^k p^-1
        u = Word(AB, free_reduce(tuple(us))) ** k
        assume(not u.is_identity)
        for x in (u, u.conjugated_by(Word(AB, free_reduce(tuple(ps))))):
            assert commensurability_key(x) == oracles.commensurability_key(x)

    def test_key_of_single_letters(self):
        ABC = Alphabet(["a", "b", "c"])
        for l in ABC.letters_in_order():
            x = ABC.word([l])
            assert commensurability_key(x) == oracles.commensurability_key(x) == (abs(l),)

    def test_brute_sample_agreement(self):
        # the exhaustive version runs in the acceptance suite
        oracle = oracles.BruteCommensurability(AB, conj_radius=4, exp_bound=4)
        rng = random.Random(11)
        words = [u for u in all_reduced_words(AB, 3) if not u.is_identity]
        for _ in range(300):
            u, v = rng.choice(words), rng.choice(words)
            assert commensurable(u, v).related == oracle.related(u, v)


class TestEnumeration:
    def test_shortlex_prefix(self):
        first = [str(x) for x in all_reduced_words(AB, 1)]
        assert first == ["1", "a", "a^-1", "b", "b^-1"]

    def test_all_reduced_counts(self):
        n = sum(1 for _ in all_reduced_words(AB, 3))
        assert n == 1 + 4 + 12 + 36
