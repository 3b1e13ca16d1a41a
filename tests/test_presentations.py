import pytest
from hypothesis import given, strategies as st

from concc.presentations import (
    CyclicSpec,
    FinitePresentation,
    KillSpec,
    NonConjugacyCertificate,
    PresentationError,
    conjugacy_obstruction,
    parse_presentation,
    quotient_spec_from_json,
)
from concc.words import Alphabet, Word, WordError, free_reduce, name_problem

KLEIN = "< a , t | t a t^-1 a >"
BS12 = "< a , t | t a t^-1 a^-2 >"


class TestParsing:
    def test_round_trip(self):
        for text in (KLEIN, BS12, "< a , b | >", "< x1 , x2 | x1 x2 x1^-1 x2^-1 >"):
            p = parse_presentation(text)
            assert str(parse_presentation(str(p))) == str(p)

    def test_equations_become_relators(self):
        p = parse_presentation("< a , t | t a t^-1 = a^-1 >")
        q = parse_presentation(KLEIN)
        assert [str(r) for r in p.relators] == [str(r) for r in q.relators]

    def test_free_presentation(self):
        p = parse_presentation("< a , b | >")
        assert p.is_free

    @pytest.mark.parametrize(
        "bad",
        [
            "< a a | >",  # duplicate generator
            "< a | a a^-1 >",  # identity relator
            "< a | b >",  # unknown generator
            "< a | a",  # unterminated
            "< a | a > trailing",
            "a , b | ab",
        ],
    )
    def test_errors_carry_positions(self, bad):
        with pytest.raises(PresentationError) as exc:
            parse_presentation(bad)
        assert exc.value.position is None or exc.value.position >= 0

    @pytest.mark.parametrize(
        "text, position, message",
        [
            ("", 0, "expected '<'"),
            ("  a , b | ab", 2, "expected '<'"),
            ("< a , b >", 9, "expected '|'"),
            ("< a | a", 7, "expected '>'"),
            ("< a | a >  x >", 9, "trailing input after '>'"),
            ("< | >", 2, "generator name '' is not a nonempty string"),
            ("< a , , b | >", 6, "generator name '' is not a nonempty string"),
            ("< a b | >", 2, "generator name 'a b' contains reserved characters"),
            ("< a = b | >", 2, "generator name 'a = b' contains reserved characters"),
            ("< a , a | >", 6, "duplicate generator 'a'"),
            ("< a |  b >", 7, "unknown generator 'b'"),
            ("< a | a , a a^-1 >", 10, "relation reduces to the identity"),
            ("< a | a , = a = a >", 10, "more than one '='"),
            ("< a | a | a >", 6, "unknown generator '|'"),
            ("< a | a^+1 >", 6, r"bad exponent '\+1'"),
        ],
    )
    def test_error_positions(self, text, position, message):
        with pytest.raises(PresentationError, match=message) as exc:
            parse_presentation(text)
        assert exc.value.position == position

    @pytest.mark.parametrize(
        "text, printed",
        [
            ("< a | = >", "< a | >"),
            ("< a | , , >", "< a | >"),
            ("<a|a=>", "< a | a >"),
            ("<a|=a,>", "< a | a^-1 >"),
        ],
    )
    def test_blank_relations_are_skipped(self, text, printed):
        assert str(parse_presentation(text)) == printed

    @pytest.mark.parametrize("mark", "<>|,=[]:^*")
    def test_reserved_marks_cannot_name_a_generator(self, mark):
        with pytest.raises(WordError, match="reserved"):
            Alphabet([f"a{mark}b", "c"])


class TestKillSpec:
    def test_klein_kill_a(self):
        p = parse_presentation(KLEIN)
        spec = KillSpec(p, frozenset({"a"}))
        t = p.alphabet.parse_word("t")
        assert str(spec.image(t)) == "t"
        assert str(spec.image(p.alphabet.parse_word("a t a"))) == "t"
        assert spec.image(t) != spec.image(t.inverse())
        assert spec.conjugacy_invariant(t) != spec.conjugacy_invariant(t.inverse())

    def test_killed_generators_must_die_in_relators(self):
        p = parse_presentation(BS12)
        with pytest.raises(PresentationError):
            KillSpec(p, frozenset({"t"}))  # image of relator would be t t^-1? no: a^-2 nontrivial

    def test_json_round_trip(self):
        p = parse_presentation(KLEIN)
        spec = KillSpec(p, frozenset({"a"}))
        doc = spec.to_json()
        back = quotient_spec_from_json(p, doc)
        assert back.to_json() == doc


class TestCyclicSpec:
    def test_klein_mod3(self):
        p = parse_presentation("< a , t | >")
        spec = CyclicSpec(p, 3, {"a": 0, "t": 1})
        A = p.alphabet
        assert spec.image(A.parse_word("t")) == 1
        assert spec.image(A.parse_word("t^-1")) == 2
        assert spec.image(A.parse_word("a t a t")) == 2
        assert spec.conjugacy_invariant(A.parse_word("a t")) == 1

    def test_relator_compatibility_enforced(self):
        p = parse_presentation(KLEIN)
        # relator t a t^-1 a has a-weight 2: residues with 2r != 0 mod m fail
        with pytest.raises(PresentationError):
            CyclicSpec(p, 3, {"a": 1, "t": 0})
        CyclicSpec(p, 2, {"a": 1, "t": 0})  # 2*1 = 0 mod 2 is fine

    def test_json_round_trip(self):
        p = parse_presentation("< a , t | >")
        spec = CyclicSpec(p, 3, {"a": 0, "t": 1})
        assert quotient_spec_from_json(p, spec.to_json()).to_json() == spec.to_json()


class TestObstruction:
    def test_klein_t_vs_t_inverse(self):
        p = parse_presentation(KLEIN)
        spec = KillSpec(p, frozenset({"a"}))
        t = p.alphabet.parse_word("t")
        cert = conjugacy_obstruction(p, spec, t, t.inverse())
        assert cert is not None and cert.verify()

    def test_bs12_powers(self):
        p = parse_presentation(BS12)
        spec = KillSpec(p, frozenset({"a"}))
        t = p.alphabet.parse_word("t")
        for i, j in ((2, 4), (2, 8), (4, 8)):
            cert = conjugacy_obstruction(p, spec, t**i, t**j)
            assert cert is not None and cert.verify()

    def test_inconclusive_returns_none(self):
        p = parse_presentation(KLEIN)
        spec = KillSpec(p, frozenset({"a"}))
        u = p.alphabet.parse_word("t a")
        v = p.alphabet.parse_word("a t")
        # images are conjugate (equal, even), so no obstruction exists
        assert conjugacy_obstruction(p, spec, u, v) is None

    def test_certificate_tamper_detected(self):
        p = parse_presentation(KLEIN)
        spec = KillSpec(p, frozenset({"a"}))
        t = p.alphabet.parse_word("t")
        cert = conjugacy_obstruction(p, spec, t, t.inverse())
        doc = cert.to_json()
        doc["images"][1] = "t"  # claim both map to t
        forged = NonConjugacyCertificate.from_json(doc)
        assert not forged.verify()

    def test_certificate_json_round_trip(self):
        p = parse_presentation(BS12)
        spec = KillSpec(p, frozenset({"a"}))
        t = p.alphabet.parse_word("t")
        cert = conjugacy_obstruction(p, spec, t**2, t**4)
        back = NonConjugacyCertificate.from_json(cert.to_json())
        assert back.verify() and back.to_json() == cert.to_json()


@given(
    st.lists(
        st.text(min_size=1, max_size=3).filter(lambda n: name_problem(n) is None),
        min_size=1,
        max_size=3,
        unique=True,
    ),
    st.lists(st.lists(st.integers(-3, 3).filter(bool), min_size=1, max_size=6), max_size=3),
)
def test_printed_presentation_reads_back(names, rels):
    # any names the alphabet accepts survive printing and parsing
    A = Alphabet(names)
    words = [A.word([l for l in ls if abs(l) <= A.size]) for ls in rels]
    p = FinitePresentation(A, tuple(w for w in words if not w.is_identity))
    assert parse_presentation(str(p)) == p


@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=10))
def test_kill_image_is_homomorphism(ls):
    p = parse_presentation(KLEIN)
    spec = KillSpec(p, frozenset({"a"}))
    u = Word(p.alphabet, free_reduce(tuple(ls)))
    v = p.alphabet.parse_word("t a")
    assert spec.image(u * v) == spec.image(u) * spec.image(v)


@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=10))
def test_cyclic_image_is_homomorphism(ls):
    p = parse_presentation("< a , t | >")
    spec = CyclicSpec(p, 5, {"a": 2, "t": 1})
    u = Word(p.alphabet, free_reduce(tuple(ls)))
    v = p.alphabet.parse_word("a t^-1")
    assert spec.image(u * v) == (spec.image(u) + spec.image(v)) % 5
