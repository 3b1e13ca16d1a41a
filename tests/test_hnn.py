import random
import re
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from concc import hnn
from concc.hnn import (
    CyclicAssociation,
    HnnError,
    Tower,
    TowerWord,
    britton_reduce,
    bs12_tower,
    cyclic_membership,
    equal_in_group,
    find_pinch,
    is_trivial,
    klein_bottle_tower,
    verify_conjugator,
)
from concc.words import Alphabet

import oracles


def rand_tower_word(tower, rng, n=8):
    A = tower.base
    out = tower.identity()
    for _ in range(n):
        if rng.random() < 0.5:
            out = out * tower.embed(A.parse_word(rng.choice(["a", "a^-1", "a a"])))
        else:
            name = rng.choice([a.stable for a in tower.assocs])
            out = out * tower.stable(name, rng.choice((1, -1)))
    return out


class TestKleinBottle:
    def test_defining_relation_trivial(self):
        t = klein_bottle_tower()
        assert is_trivial(t.parse("t a t^-1 a")).is_yes

    def test_conjugation_action(self):
        t = klein_bottle_tower()
        assert equal_in_group(t.parse("t a t^-1"), t.parse("a^-1")).is_yes
        assert equal_in_group(t.parse("t a^3 t^-1"), t.parse("a^-3")).is_yes

    def test_agreement_with_normal_form_oracle(self):
        tower = klein_bottle_tower()
        rng = random.Random(3)
        for _ in range(300):
            w = rand_tower_word(tower, rng)
            flat = oracles.flatten_one_level(w)
            assert is_trivial(w).is_yes == (oracles.klein_pair(flat) == (0, 0))


class TestBS12:
    def test_defining_relations(self):
        t = bs12_tower()
        assert equal_in_group(t.parse("t a t^-1"), t.parse("a^2")).is_yes
        assert equal_in_group(t.parse("t^-1 a^2 t"), t.parse("a")).is_yes

    def test_non_relations(self):
        t = bs12_tower()
        assert not is_trivial(t.parse("t a t^-1 a^-1")).is_yes
        assert not is_trivial(t.parse("t")).is_yes

    def test_agreement_with_affine_oracle(self):
        tower = bs12_tower()
        rng = random.Random(4)
        for _ in range(300):
            w = rand_tower_word(tower, rng)
            flat = oracles.flatten_one_level(w)
            s, m = oracles.bs12_affine(flat)
            assert is_trivial(w).is_yes == (s == 1 and m == 0)


class TestBritton:
    def test_reduced_has_no_pinch(self):
        tower = bs12_tower()
        rng = random.Random(5)
        for _ in range(200):
            w = britton_reduce(rand_tower_word(tower, rng))
            assert find_pinch(w) is None

    def test_word_and_inverse_agree_on_triviality(self):
        # reducing w^-1 meets the pinches of w from the right
        tower = klein_bottle_tower()
        rng = random.Random(6)
        for _ in range(200):
            w = rand_tower_word(tower, rng)
            r, r_inv = britton_reduce(w), britton_reduce(w.inverse())
            assert len(r.signature()) == len(r_inv.signature())
            trivial = oracles.klein_pair(oracles.flatten_one_level(w)) == (0, 0)
            assert is_trivial(r).is_yes == is_trivial(r_inv).is_yes == trivial
            for x in (r, r_inv):
                assert plain(x) == oracles.tower_normal_form(item_symbols(x))
                assert find_pinch(x) is None

    def test_pinch_example(self):
        tower = bs12_tower()
        w = tower.parse("t a^2 t^-1")
        assert find_pinch(w) is not None
        assert equal_in_group(w, tower.parse("a^4")).is_yes

    def test_signature_preserved_for_reduced(self):
        tower = bs12_tower()
        w = britton_reduce(tower.parse("t a t a t^-1"))
        # Britton: reduction never changes the stable-letter signature
        again = britton_reduce(w)
        assert again.signature() == w.signature()


class TestTowers:
    def test_two_level_tower(self):
        A = Alphabet(["a"])
        a = A.parse_word("a")
        t1 = Tower(A).extend(CyclicAssociation("t", a, a**2))
        t2 = t1.extend(CyclicAssociation("s", a, a**3))
        w = t2.parse("s t a t^-1 s^-1")
        r = britton_reduce(w)
        assert r.has_stable_letters or r.base_word()
        # t a t^-1 pinches to a^2; s a^2 s^-1 does not pinch (a^2 not a power of a? it is)
        assert equal_in_group(w, t2.parse("a^6")).is_yes

    def test_duplicate_stable_rejected(self):
        A = Alphabet(["a"])
        a = A.parse_word("a")
        t1 = Tower(A).extend(CyclicAssociation("t", a, a**2))
        with pytest.raises(HnnError):
            t1.extend(CyclicAssociation("t", a, a**3))

    def test_stable_collides_with_base(self):
        A = Alphabet(["a"])
        a = A.parse_word("a")
        with pytest.raises(HnnError):
            Tower(A).extend(CyclicAssociation("a", a, a))

    @pytest.mark.parametrize("name", ["t^2", "t s", "", "*", "1", "t\ts", "s,t", 7])
    def test_stable_names_that_cannot_round_trip_rejected(self, name):
        A = Alphabet(["a"])
        a = A.gen("a")
        with pytest.raises(HnnError, match="stable letter name"):
            Tower(A).extend(CyclicAssociation(name, a, a**2))
        with pytest.raises(HnnError, match="stable letter name"):
            Tower(A, [CyclicAssociation(name, a, a**2)])

    @pytest.mark.parametrize("name", ["t", "t2", "T_1", "s'", "x-1"])
    def test_accepted_stable_names_round_trip(self, name):
        A = Alphabet(["a", "b"])
        T = Tower(A, [CyclicAssociation(name, A.gen("a"), A.gen("b"))])
        w = T.stable(name) * T.embed(A.parse_word("a b^-1")) * T.stable(name, -1)
        assert T.parse(str(w)) == w

    def test_parse_rejects_unknown_letters(self):
        t = klein_bottle_tower()
        with pytest.raises((HnnError, Exception)):
            t.parse("z")

    def test_lift_across_extension(self):
        A = Alphabet(["a"])
        a = A.parse_word("a")
        t1 = Tower(A).extend(CyclicAssociation("t", a, a**2))
        t2 = t1.extend(CyclicAssociation("s", a**2, a**4))
        w1 = t1.parse("t a t^-1")
        lifted = w1.lift_to(t2)
        assert equal_in_group(lifted, t2.parse("a^2")).is_yes
        assert (w1 * t2.stable("s")).tower == t2


class TestCyclicMembership:
    def test_base_generator_exact(self):
        t = bs12_tower()
        r = cyclic_membership(t.parse("a^6"), t.parse("a^2"))
        assert r.status == "yes" and r.exponent == 3
        r = cyclic_membership(t.parse("a^5"), t.parse("a^2"))
        assert r.status == "no"
        r = cyclic_membership(t.parse("t"), t.parse("a"))
        assert r.status == "no"

    def test_identity_exponent_zero(self):
        t = bs12_tower()
        r = cyclic_membership(t.parse("1"), t.parse("a"))
        assert r.status == "yes" and r.exponent == 0

    def test_non_base_bounded(self):
        t = bs12_tower()
        c = t.parse("t a")
        r = cyclic_membership(t.parse("t a t a"), c, bound=8)
        assert r.status == "yes" and r.exponent == 2
        r = cyclic_membership(t.parse("a"), c, bound=4)
        assert r.status in ("no", "unknown")

    def test_trivial_generator_rejected(self):
        t = klein_bottle_tower()
        with pytest.raises(HnnError):
            cyclic_membership(t.parse("a"), t.parse("t a t^-1 a"))


class TestConjugatorVerification:
    def test_valid_conjugation(self):
        t = bs12_tower()
        g = t.parse("t")
        assert verify_conjugator(g, t.parse("a"), t.parse("a^2"))
        assert not verify_conjugator(g, t.parse("a"), t.parse("a^3"))

    def test_power_conjugation_chain(self):
        t = bs12_tower()
        g = t.parse("t^3")
        assert verify_conjugator(g, t.parse("a"), t.parse("a^8"))


@given(st.integers(min_value=-6, max_value=6), st.integers(min_value=-3, max_value=3))
def test_klein_normal_forms_multiply(p, q):
    tower = klein_bottle_tower()
    w1 = tower.parse(f"a^{p} t^{q}") if p or q else tower.identity()
    w2 = tower.parse("a t")
    prod = w1 * w2
    np_, nq = oracles.klein_pair(oracles.flatten_one_level(prod))
    expect = (p + (1 if q % 2 == 0 else -1), q + 1)
    assert (np_, nq) == expect


def two_level_tower():
    A = Alphabet(["a", "b"])
    a, b = A.gen("a"), A.gen("b")
    return Tower(A, [CyclicAssociation("t", a, b), CyclicAssociation("s", a * b, b**2)])


TOKEN = st.tuples(st.sampled_from("abts"), st.integers(min_value=-3, max_value=3))
TOKENS = st.lists(TOKEN, max_size=10)


def tokens_text(tokens):
    return " ".join(f"{name}^{e}" for name, e in tokens) or "1"


def tokens_symbols(tokens):
    """Oracle symbols of a token list: base letters as ints, stable letters as pairs."""
    out = []
    for name, e in tokens:
        sign = 1 if e > 0 else -1
        sym = sign * {"a": 1, "b": 2}[name] if name in "ab" else ({"t": 0, "s": 1}[name], sign)
        out.extend([sym] * abs(e))
    return out


def inverse_symbols(symbols):
    return [(s[0], -s[1]) if isinstance(s, tuple) else -s for s in reversed(symbols)]


def plain(w):
    return tuple(it if isinstance(it, tuple) else it.letters for it in w.items)


def item_symbols(w):
    """Oracle symbols of a tower word as it is stored."""
    return [s for it in w.items for s in ((it,) if isinstance(it, tuple) else it.letters)]


# snippets that pinch in two_level_tower()
PINCHES = [
    "t a^2 t^-1",
    "t^-1 b^-3 t",
    "s a b s^-1",
    "s^-1 b^4 s",
    "s t a t^-1 b s^-1",
    "t^-1 s a b s^-1 t",
]
# plain tokens mixed with those snippets
PINCHY = st.lists(
    st.one_of(TOKEN.map(lambda t: tokens_text([t])), st.sampled_from(PINCHES)),
    max_size=8,
).map(lambda parts: " ".join(parts) or "1")


class TestBrittonNormalForm:
    """Britton reduction returns a normal word with no pinch left."""

    @given(PINCHY)
    def test_output_is_normal_and_pinch_free(self, text):
        w = two_level_tower().parse(text)
        for r in (britton_reduce(w), britton_reduce(w.inverse())):
            assert plain(r) == oracles.tower_normal_form(item_symbols(r))
            assert find_pinch(r) is None

    @given(PINCHY)
    def test_word_and_inverse_agree(self, text):
        # w^-1 meets the pinches of w from the right; both reductions must
        # leave the same stable letters and the same element
        w = two_level_tower().parse(text)
        r, r_inv = britton_reduce(w), britton_reduce(w.inverse())
        assert r.signature() == r_inv.inverse().signature()
        assert equal_in_group(r, r_inv.inverse()).is_yes
        assert is_trivial(r).is_yes == is_trivial(r_inv).is_yes == is_trivial(w).is_yes

    def test_long_pinch_chain_is_not_rescanned(self):
        # t^k a t^-k pinches k times, each at the pair inside the last one;
        # rescanning from the start after every pinch is quadratic in k
        T = klein_bottle_tower()
        w = T.parse("t^20000 a t^-20000")
        start = time.perf_counter()
        assert britton_reduce(w) == T.parse("a")
        assert britton_reduce(w.inverse()) == T.parse("a^-1")
        assert time.perf_counter() - start < 10

    def test_nested_pinches_fire(self):
        T = two_level_tower()
        # t a t^-1 = b, then s a b s^-1 = b^2: both levels pinch away
        assert plain(britton_reduce(T.parse("s a t a t^-1 s^-1 b^-2"))) == ((),)
        # s a b s^-1 = b^2 leaves t^-1 b^2 t = a^2 behind the pinch
        assert plain(britton_reduce(T.parse("t^-1 s a b s^-1 t a^-2"))) == ((),)


def four_level_tower():
    top = two_level_tower()
    a, b = top.base.gen("a"), top.base.gen("b")
    return top.extend(CyclicAssociation("u", b, a**2)).extend(CyclicAssociation("v", a, a.inverse()))


# PINCHY over four_level_tower(), with pinches that nest across its heights
PINCHY4 = st.lists(
    st.one_of(
        st.tuples(st.sampled_from("abtsuv"), st.integers(-3, 3)).map(lambda t: tokens_text([t])),
        st.sampled_from(
            PINCHES
            + [
                "u b^3 u^-1",
                "u^-1 a^4 u",
                "v a^2 v^-1",
                "v^-1 a^-1 v",
                "u^-1 v a^2 v^-1 u",
                "s v a^-1 v^-1 b s^-1",
                "u t a t^-1 u^-1",
                "v^-1 u^-1 a^2 u v",
            ]
        ),
    ),
    max_size=10,
).map(lambda parts: " ".join(parts) or "1")


class TestBrittonOracle:
    """The one-pass reducer against ``oracles.rescan_britton``, four heights."""

    @settings(max_examples=300)
    @given(PINCHY4)
    @example("t a t^-1 b t")  # two pinches overlap: fired left first, b^2 t, not t a^2
    def test_items_match_the_rescanning_oracle(self, text):
        T = four_level_tower()
        w = T.parse(text)
        for x in (w, w.inverse()):
            r = britton_reduce(x)
            assert r.items == oracles.rescan_britton(T, x.items)
            assert find_pinch(r) is None

    def test_five_thousand_heights_reduce(self):
        # one stack for every height: nesting deeper than Python's
        # recursion limit is no different from nesting one deep
        A = Alphabet(["a"])
        a = A.gen("a")
        T = Tower(A, [CyclicAssociation(f"t{k}", a, a) for k in range(1, 5001)])
        start = time.perf_counter()
        g = T.parse(" ".join(f"t{k}" for k in range(5000, 0, -1)))
        assert verify_conjugator(g, T.embed(a), T.embed(a))
        assert is_trivial(g * g.inverse()).is_yes
        assert time.perf_counter() - start < 5


def cancels(w):
    """Some stable letter of w meets its inverse across an empty chunk."""
    its = w.items
    return any(
        its[k] == (its[k + 2][0], -its[k + 2][1]) and not its[k + 1].letters
        for k in range(1, len(its) - 2, 2)
    )


class TestPrintedReader:
    """``Tower.read_printed`` reads exactly the texts ``str`` prints."""

    @given(PINCHY)
    def test_printed_words_read_back(self, text):
        T = two_level_tower()
        w = T.parse(text)
        if cancels(w):
            with pytest.raises(HnnError, match="not freely reduced"):
                T.read_printed(str(w))
        else:
            assert T.read_printed(str(w)) == w

    @given(st.lists(st.sampled_from(["a", "b^-1", "t", "s^-1", "a^2", "t^1", "1", "", "*", "q"]), max_size=6))
    def test_other_texts_are_refused(self, toks):
        T = two_level_tower()
        text = " ".join(toks)
        try:
            w = T.read_printed(text)
        except HnnError:
            return
        assert str(w) == text and w == T.parse(text)

    def test_refusals_name_the_token(self):
        T = two_level_tower()
        assert T.read_printed("1") == T.identity()
        for text, problem in [
            ("a^2", "exponent 2 in token 'a^2': printed words write only ^-1"),
            ("t^+1", "bad exponent '+1' in token 't^+1'"),
            ("a  b", "empty token"),
            ("a 1", "1 stands only alone"),
            ("a a^-1", "'a^-1' cancels the letter before it"),
            ("t t^-1", "'t^-1' cancels the letter before it"),
            ("u", "unknown token 'u'"),
            ("a^99999999999999999999", "exponent 99999999999999999999 in token"),
        ]:
            with pytest.raises(HnnError, match=re.escape(problem)):
                T.read_printed(text)

    def test_letters_above_the_height_are_unknown(self):
        # low and T share one chain, and s sits above low's height
        top = two_level_tower()
        A = top.base
        low = Tower(A).extend(top.assocs[0])
        T = low.extend(top.assocs[1])
        assert T.read_printed("s a") == T.parse("s a")
        with pytest.raises(HnnError, match="unknown token 's'"):
            low.read_printed("s a")
        # a branch off the older tower gets its own letters
        branch = low.extend(CyclicAssociation("r", A.gen("a"), A.gen("b")))
        assert str(branch.read_printed("r^-1 t")) == "r^-1 t"
        with pytest.raises(HnnError, match="unknown token 's'"):
            branch.read_printed("s")


class TestJunctionArithmetic:
    """parse, products, inverses and powers against the plain normaliser."""

    @given(TOKENS, TOKENS)
    def test_parse_and_mul(self, u, v):
        T = two_level_tower()
        x, y = T.parse(tokens_text(u)), T.parse(tokens_text(v))
        assert plain(x) == oracles.tower_normal_form(tokens_symbols(u))
        assert plain(x * y) == oracles.tower_normal_form(tokens_symbols(u) + tokens_symbols(v))

    @given(TOKENS, st.integers(min_value=-4, max_value=4))
    def test_inverse_and_pow(self, u, k):
        x = two_level_tower().parse(tokens_text(u))
        syms = tokens_symbols(u)
        inv = inverse_symbols(syms)
        assert plain(x.inverse()) == oracles.tower_normal_form(inv)
        assert plain(x**k) == oracles.tower_normal_form((syms if k >= 0 else inv) * abs(k))


class TestAppendOnlyChain:
    def setup_method(self):
        A = Alphabet(["a"])
        a = A.gen("a")
        self.A = A
        self.t = CyclicAssociation("t", a, a**2)
        self.s = CyclicAssociation("s", a, a**3)
        self.u = CyclicAssociation("u", a**2, a)

    def test_branching_leaves_sibling_alone(self):
        root = Tower(self.A).extend(self.t)
        left = root.extend(self.s)  # the tip of root's chain
        before = (left.height, left.assocs, left.stable("s").items, hash(left))
        right = root.extend(self.u)  # no longer the tip
        deeper = left.extend(self.u)
        assert (left.height, left.assocs, left.stable("s").items, hash(left)) == before
        assert left == Tower(self.A, [self.t, self.s]) and left != right
        assert right.assocs == (self.t, self.u) and right.stable("u").items[1] == (1, 1)
        assert deeper.assocs == (self.t, self.s, self.u) and deeper.stable("u").items[1] == (2, 1)
        with pytest.raises(HnnError):
            left.stable("u")
        with pytest.raises(HnnError):
            right.stable("s")
        assert left.extends(root) and right.extends(root) and deeper.extends(left)
        assert not right.extends(left) and not deeper.extends(right) and not root.extends(left)
        with pytest.raises(HnnError):
            left.stable("s") * right.stable("u")
        w = root.parse("t a t^-1")
        assert (w * right.stable("u")).tower == right
        assert equal_in_group(w.lift_to(deeper), deeper.parse("a^2")).is_yes

    def test_separate_chains_compare_by_associations(self):
        one = Tower(self.A, [self.t, self.s])
        two = Tower(self.A).extend(self.t).extend(self.s)
        assert one == two and hash(one) == hash(two) and one.extends(two)
        assert (one.stable("s") * two.stable("t")).tower == one
        assert Tower(self.A, [self.t]) != Tower(self.A, [self.s])
        assert Tower(self.A) != Tower(Alphabet(["b"]))

    def test_rejected_extension_changes_nothing(self):
        root = Tower(self.A).extend(self.t)
        tip = root.extend(self.s)
        with pytest.raises(HnnError):
            tip.extend(CyclicAssociation("s", self.A.gen("a"), self.A.gen("a")))
        with pytest.raises(HnnError):
            root.extend(self.t)
        assert tip.assocs == (self.t, self.s) and tip.extend(self.u).height == 3

    def test_letters_above_the_height_are_unknown(self):
        root = Tower(self.A).extend(self.t)
        root.extend(self.s)
        for lookup in (root.stable, root.parse):
            with pytest.raises(HnnError):
                lookup("s")
        assert root.assocs == (self.t,)
