"""Exact word algebra over finitely generated free groups.

Letters are nonzero machine integers: ``+i`` is the ``i``-th generator
(1-based), ``-i`` its inverse.  All words are kept freely reduced, cyclic
words are kept in a canonical rotation, and every answer that claims a
relation (conjugacy, commensurability) carries an explicit witness that can
be re-multiplied and checked.

Because words are kept reduced, arithmetic re-reduces nothing: a product
cancels only at the junction (the suffix of the left factor that mirrors
the prefix of the right one), and a power repeats the cyclically reduced
core between the conjugating prefix and its inverse.  Both work on letter
tuples (``mul_letters``, ``power_letters``), and so does the power test
(``power_exponent``), so the tower words of ``hnn``, whose chunks are
letter tuples, share them with ``Word``.  A word's hash is computed the
first time it is asked for, not at construction.

The letter order used everywhere is

    g1 < g1^-1 < g2 < g2^-1 < ...

so shortlex enumeration and canonical rotations are stable across runs.
``letter_code`` gives each letter its place in it.  Each ``Alphabet``
keeps a table of those codes, ``codes``, so canonical rotations and
commensurability keys read a word's codes with one ``map`` over it rather
than one Python call per letter.

Word text has one grammar, ``read_tokens``; every parser in the package
reads its words through it, so exponents are read in one place only, and
every integer in a text format is spelled as ``read_int`` reads it.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class WordError(ValueError):
    """Raised on malformed alphabets, letters, or parse failures."""


def letter_code(letter: int) -> int:
    """Total order on letters: a < a^-1 < b < b^-1 < ...  Smaller is earlier."""
    if letter == 0:
        raise WordError("0 is not a letter")
    return 2 * (abs(letter) - 1) + (0 if letter > 0 else 1)


def free_reduce(letters: Iterable[int]) -> tuple[int, ...]:
    """Cancel adjacent inverse pairs until none remain."""
    out: list[int] = []
    for l in letters:
        if l == 0:
            raise WordError("0 is not a letter")
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def name_problem(name: object) -> str | None:
    """Why ``name`` cannot name a generator or a stable letter; None if it can.

    A name must read back as itself from every printed form, so it is not
    ``1`` and holds no whitespace and none of the marks the formats use:
    presentations ``<>|,=``, free-product paths ``[]:`` and words ``^*``.
    """
    if not isinstance(name, str) or not name:
        return "is not a nonempty string"
    if name == "1":
        return "is the identity literal"
    if any(ch in "<>|,=[]:^*" or ch.isspace() for ch in name):
        return "contains reserved characters"
    return None


def read_int(text: str, what: str) -> int:
    """The integer ``text`` spells: an optional ``-`` and ASCII digits.

    The one integer spelling of every text format; ``int()`` alone would
    also take ``+2``, ``1_0``, blanks and non-ASCII digits.  ``what`` names
    the number in the ``WordError`` raised for any other text.
    """
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise WordError(f"bad {what} {text!r}")
    try:
        return int(text)
    except ValueError:  # past int's digit limit
        raise WordError(f"{what} {text[:20]!r}... has too many digits") from None


def read_tokens(text: str) -> list[tuple[str, int]]:
    """The one grammar for word text: its ``(name, exponent)`` pairs, in order.

    Tokens are separated by whitespace or ``*``; empty text or a bare ``1``
    is the identity.  A token is a name, then optionally ``^`` and an
    exponent (``read_int``) within +-``sys.maxsize``, the most letters a
    parser can expand it to.  Names are not looked up here.
    """
    toks = text.replace("*", " ").split()
    if toks == ["1"]:
        return []
    out = []
    for tok in toks:
        name, hat, exp_s = tok.partition("^")
        exp = 1
        if hat:
            try:
                exp = read_int(exp_s, "exponent")
                if abs(exp) > sys.maxsize:
                    raise WordError(f"exponent outside +-{sys.maxsize}")
            except WordError as e:
                raise WordError(f"{e} in token {tok[:24]!r}") from None
        out.append((name, exp))
    return out


class Alphabet:
    """Ordered finite set of generator names.

    The order of ``names`` fixes the letter encoding and therefore every
    canonical form downstream; two alphabets are equal only if the name
    sequences match exactly.
    """

    __slots__ = ("names", "codes", "_index", "_text")

    def __init__(self, names: Sequence[str]):
        names = tuple(names)
        if not names:
            raise WordError("alphabet needs at least one generator")
        for n in names:
            problem = name_problem(n)
            if problem:
                raise WordError(f"generator name {n!r} {problem}")
        if len(set(names)) != len(names):
            raise WordError(f"duplicate generator names in {names}")
        self.names = names
        self._index = {n: i + 1 for i, n in enumerate(names)}
        # letter -> its printed token; a letter outside the alphabet has none
        self._text: dict[int, str] = {}
        # letter -> letter_code(letter); a letter outside the alphabet has no code
        self.codes: dict[int, int] = {}
        for i, n in enumerate(names, start=1):
            self._text[i], self._text[-i] = n, n + "^-1"
            self.codes[i], self.codes[-i] = letter_code(i), letter_code(-i)

    @property
    def size(self) -> int:
        return len(self.names)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"Alphabet({', '.join(self.names)})"

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def letter(self, name: str, sign: int = 1) -> int:
        if name not in self._index:
            raise WordError(f"unknown generator {name!r}")
        if sign not in (1, -1):
            raise WordError(f"letter sign must be +1 or -1, got {sign}")
        return sign * self._index[name]

    def letter_str(self, letter: int) -> str:
        text = self._text.get(letter)
        if text is None:
            raise WordError(f"letter {letter} outside alphabet of size {self.size}")
        return text

    def spell(self, letters: tuple[int, ...]) -> str:
        """The printed tokens of ``letters`` joined by single spaces; "" for none.

        A letter outside the alphabet, of either sign, has no entry in the
        token table, so it raises ``WordError`` and never prints as another
        letter's token.  (A list indexed by the letter looks up faster, but
        a negative index wraps around, and checking the range first costs
        more than it saves.)
        """
        try:
            return " ".join(map(self._text.__getitem__, letters))
        except KeyError as e:
            raise WordError(f"letter {e.args[0]} outside alphabet of size {self.size}") from None

    def letters_in_order(self) -> tuple[int, ...]:
        """All 2n letters sorted by letter_code."""
        out = []
        for i in range(1, self.size + 1):
            out.append(i)
            out.append(-i)
        return tuple(out)

    def word(self, letters: Iterable[int] = ()) -> "Word":
        return Word(self, free_reduce(self._check(letters)))

    def identity(self) -> "Word":
        return Word(self, ())

    def gen(self, name: str) -> "Word":
        return Word(self, (self.letter(name),))

    def _check(self, letters: Iterable[int]) -> list[int]:
        ls = list(letters)
        for l in ls:
            if not 1 <= abs(l) <= self.size:
                raise WordError(f"letter {l} outside alphabet of size {self.size}")
        return ls

    def parse_word(self, text: str) -> "Word":
        """Parse word text (``read_tokens``): ``a b^-1 a^3``, ``a*b^-1*a^3`` or ``1``.

        Free reduction runs on the tokens: a stack of [letter, count] runs,
        no two adjacent sharing or cancelling a letter, takes each token
        whole, and the letters are written out once at the end.
        """
        index = self._index
        runs: list[list[int]] = []
        for name, exp in read_tokens(text):
            if name not in index:
                raise WordError(f"unknown generator {name!r} in word {text!r}")
            if not exp:
                continue
            l, k = (index[name], exp) if exp > 0 else (-index[name], -exp)
            top = runs[-1] if runs else None
            if top is None or top[0] not in (l, -l):
                runs.append([l, k])
            elif top[0] == l:
                top[1] += k
            elif top[1] > k:
                top[1] -= k
            else:
                # the run below the one that went neither shares nor cancels l
                runs.pop()
                if k > top[1]:
                    runs.append([l, k - top[1]])
        letters: list[int] = []
        for l, k in runs:
            letters += [l] * k
        return Word(self, tuple(letters))


class Word:
    """Freely reduced word; immutable, hashable, comparable by content."""

    __slots__ = ("alphabet", "letters", "_hash")

    def __init__(self, alphabet: Alphabet, letters: tuple[int, ...]):
        # letters are trusted to be reduced; go through Alphabet.word otherwise
        self.alphabet = alphabet
        self.letters = letters
        self._hash = None

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Word)
            and self.letters == other.letters
            and self.alphabet == other.alphabet
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.alphabet.names, self.letters))
        return self._hash

    def __mul__(self, other: "Word") -> "Word":
        if self.alphabet is not other.alphabet and self.alphabet != other.alphabet:
            raise WordError("cannot multiply words over different alphabets")
        if not self.letters:
            return other
        if not other.letters:
            return self
        return Word(self.alphabet, mul_letters(self.letters, other.letters))

    def inverse(self) -> "Word":
        if not self.letters:
            return self
        return Word(self.alphabet, inverse_letters(self.letters))

    def __pow__(self, n: int) -> "Word":
        if n == 1:
            return self
        return Word(self.alphabet, power_letters(self.letters, n))

    def conjugated_by(self, g: "Word") -> "Word":
        """g * self * g^-1."""
        return g * self * g.inverse()

    def __str__(self) -> str:
        return self.alphabet.spell(self.letters) if self.letters else "1"

    def __repr__(self) -> str:
        return f"Word({self})"


def mul_letters(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The letters of the product of two freely reduced words, given by theirs.

    Both factors are reduced, so only the junction cancels: the suffix of
    ``a`` that mirrors the prefix of ``b``.  ``Word.__mul__`` and the chunks
    of tower words (``hnn``) multiply through this one helper.
    """
    if not a:
        return b
    if not b:
        return a
    if a[-1] != -b[0]:
        return a + b
    n, k, m = len(a), 1, min(len(a), len(b))
    while k < m and a[n - 1 - k] == -b[k]:
        k += 1
    return a[: n - k] + b[k:]


def inverse_letters(ls: tuple[int, ...]) -> tuple[int, ...]:
    """The letters of the inverse of the word with letters ``ls``."""
    return tuple([-l for l in reversed(ls)])


def power_letters(ls: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The letters of w^n for the freely reduced word w with letters ``ls``.

    w = p core p^-1 with core cyclically reduced, so the power
    p core^|n| p^-1 is reduced as written.
    """
    if n < 0:
        ls, n = inverse_letters(ls), -n
    if n == 1:
        return ls
    if n == 0 or not ls:
        return ()
    k = _peel(ls)
    return ls[:k] + ls[k : len(ls) - k] * n + ls[len(ls) - k :]


def _least_rotation(codes: Sequence[int]) -> int:
    """Index of the lexicographically least rotation (Booth's algorithm)."""
    s = list(codes) * 2
    f = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1:
            c = s[k + i + 1]
            if sj == c:
                break
            if sj < c:
                k = j - i - 1
            i = f[i]
        else:  # i == -1: sj meets the candidate's first symbol
            c = s[k]
            if sj != c:
                if sj < c:
                    k = j
                f[j - k] = -1
                continue
        f[j - k] = i + 1
    return k


def least_rotation_letters(ls: tuple[int, ...], codes: dict[int, int]) -> tuple[int, ...]:
    """The least rotation of ``ls`` in the letter order: Booth's algorithm over
    the letters' codes, read from the alphabet's table ``codes``."""
    if not ls:
        return ls
    k = _least_rotation(list(map(codes.__getitem__, ls)))
    return ls[k:] + ls[:k]


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split w = conjugator * core * conjugator^-1 with core cyclically reduced.

    The conjugator is the maximal prefix cancelled against the mirrored
    suffix, so the decomposition is unique and ``len(core)`` is minimal in
    the conjugacy class.
    """
    ls = w.letters
    i = _peel(ls)
    return Word(w.alphabet, ls[i : len(ls) - i]), Word(w.alphabet, ls[:i])


def _peel(ls: tuple[int, ...]) -> int:
    """Length of the conjugator ``cyclic_reduce`` splits off reduced letters."""
    i, j = 0, len(ls)
    while j - i >= 2 and ls[i] == -ls[j - 1]:
        i += 1
        j -= 1
    return i


def is_cyclically_reduced(w: Word) -> bool:
    ls = w.letters
    return len(ls) < 2 or ls[0] != -ls[-1]


class CyclicWord:
    """Conjugacy-class canonical form: least rotation of a cyclically reduced word."""

    __slots__ = ("alphabet", "letters", "_hash")

    def __init__(self, word: Word):
        if not is_cyclically_reduced(word):
            raise WordError(f"{word} is not cyclically reduced")
        self.alphabet = word.alphabet
        self.letters = least_rotation_letters(word.letters, word.alphabet.codes)
        self._hash = None

    @classmethod
    def of(cls, w: Word) -> "CyclicWord":
        core, _ = cyclic_reduce(w)
        return cls(core)

    @classmethod
    def from_least_rotation(cls, alphabet: Alphabet, letters: tuple[int, ...]) -> "CyclicWord":
        """The class of ``letters``, which the caller knows to be reduced,
        cyclically reduced and already its own least rotation."""
        c = cls.__new__(cls)
        c.alphabet, c.letters, c._hash = alphabet, letters, None
        return c

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CyclicWord)
            and self.letters == other.letters
            and self.alphabet == other.alphabet
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.alphabet.names, self.letters))
        return self._hash

    def word(self) -> Word:
        return Word(self.alphabet, self.letters)

    def rotations(self) -> Iterator[Word]:
        ls = self.letters
        for k in range(len(ls)):
            yield Word(self.alphabet, ls[k:] + ls[:k])

    def inverse(self) -> "CyclicWord":
        return CyclicWord(Word(self.alphabet, tuple(-l for l in reversed(self.letters))))

    def __str__(self) -> str:
        return "(" + str(self.word()) + ")"

    def __repr__(self) -> str:
        return f"CyclicWord{self}"


def conjugacy_witness(u: Word, v: Word) -> Word | None:
    """A word g with g u g^-1 = v, or None if u, v are not conjugate."""
    if u.alphabet != v.alphabet:
        raise WordError("words over different alphabets")
    cu, p = cyclic_reduce(u)
    cv, q = cyclic_reduce(v)
    if len(cu) != len(cv):
        return None
    if len(cu) == 0:
        return u.alphabet.identity()
    ls, target = cu.letters, cv.letters
    for r in range(len(ls)):
        if ls[r:] + ls[:r] == target:
            # rotation by r equals conjugation by the inverse of the prefix
            s = Word(u.alphabet, ls[:r])
            return q * s.inverse() * p.inverse()
    return None


def primitive_root(w: Word) -> tuple[Word, int]:
    """Unique (root, e) with w = root^e, e >= 1 maximal, root not a proper power.

    Works through the cyclically reduced core: the least period of the core
    as a linear string divides its length exactly when the core is a proper
    power of the corresponding prefix.
    """
    ls = w.letters
    if not ls:
        raise WordError("identity has no primitive root")
    i = _peel(ls)  # ls is p, core, p^-1 with p = ls[:i]
    n = len(ls) - 2 * i
    core = ls[i : i + n]
    for d in range(1, n + 1):
        if n % d == 0 and core == core[:d] * (n // d):
            if d == n:
                return w, 1
            return Word(w.alphabet, ls[:i] + core[:d] + ls[i + n :]), n // d
    raise AssertionError("unreachable: every word is a power of itself")


def commensurability_key(w: Word) -> tuple[int, ...]:
    """Hashable key equal for u, v iff some powers of u and v are conjugate.

    Built from the canonical cyclic form of the primitive root, symmetrised
    under inversion, so w, w^-1, conjugates and proper powers all collide.
    """
    r = primitive_root(w)[0].letters
    i = _peel(r)
    core, codes = r[i : len(r) - i], w.alphabet.codes
    a = least_rotation_letters(core, codes)
    b = least_rotation_letters(tuple([-l for l in reversed(core)]), codes)
    code = codes.__getitem__
    return a if list(map(code, a)) <= list(map(code, b)) else b


@dataclass(frozen=True)
class Commensuration:
    """Witnessed answer to: are nontrivial powers of u and v conjugate?

    When ``related``, the identity  conjugator * u^k * conjugator^-1 = v^l
    holds with k, l nonzero; ``verify()`` re-multiplies it.
    """

    related: bool
    u: Word
    v: Word
    k: int = 0
    l: int = 0
    conjugator: Word | None = None

    def verify(self) -> bool:
        if not self.related:
            return True
        g = self.conjugator
        assert g is not None
        return (self.u ** self.k).conjugated_by(g) == self.v ** self.l


def commensurable(u: Word, v: Word) -> Commensuration:
    """Exact commensurability via primitive roots.

    u^k ~ v^l for some nonzero k, l iff the primitive roots of u and v are
    conjugate up to inversion; the witness exponents are the root
    multiplicities (smallest possible in absolute value).
    """
    if u.is_identity or v.is_identity:
        raise WordError("commensurability is about nontrivial elements")
    ru, eu = primitive_root(u)
    rv, ev = primitive_root(v)
    g = conjugacy_witness(ru, rv)
    if g is not None:
        return Commensuration(True, u, v, k=ev, l=eu, conjugator=g)
    g = conjugacy_witness(ru, rv.inverse())
    if g is not None:
        return Commensuration(True, u, v, k=ev, l=-eu, conjugator=g)
    return Commensuration(False, u, v)


def is_power_of(w: Word, c: Word) -> int | None:
    """m with w = c^m, or None.  w identity gives 0; c must be nontrivial."""
    if not c.letters:
        raise WordError("powers of the identity are degenerate")
    root, e = primitive_root(c)
    return power_exponent(w.letters, root.letters, e)


def power_exponent(ls: tuple[int, ...], r: tuple[int, ...], e: int) -> int | None:
    """m with ls = c^m for c = rc^e, or None; ``r`` holds the letters of rc,
    which is not a proper power (``primitive_root(c)``), ``ls`` those of a
    freely reduced word.  No letters give 0.

    With rc = p q p^-1, q cyclically reduced, the powers rc^k = p q^k p^-1
    (k > 0) and p (q^-1)^|k| p^-1 (k < 0) are reduced as written, so the
    length of ``ls`` fixes |k|, its letter after p fixes the sign, and one
    compare decides; ls = c^m exactly when e divides k.
    """
    if not ls:
        return 0
    n, i = len(r), _peel(r)
    core = r[i : n - i]
    k, rem = divmod(len(ls) - 2 * i, len(core))
    if rem or k <= 0 or k % e:
        return None
    if ls[i] != core[0]:  # a negative power, if any
        core, k = inverse_letters(core), -k
    return k // e if ls == r[:i] + core * abs(k) + r[n - i :] else None


def shortlex_words(alphabet: Alphabet, max_length: int | None = None) -> Iterator[Word]:
    """Enumerate nonempty freely reduced words in shortlex order (letter_code
    within length); ``all_reduced_words`` puts the identity first.

    Infinite when max_length is None; pair with itertools.islice.
    """
    order = alphabet.letters_in_order()
    current: list[tuple[int, ...]] = [(l,) for l in order]
    length = 1
    while max_length is None or length <= max_length:
        for t in current:
            yield Word(alphabet, t)
        nxt = [t + (l,) for t in current for l in order if l != -t[-1]]
        if not nxt:
            return
        current = nxt
        length += 1


def all_reduced_words(alphabet: Alphabet, max_length: int) -> Iterator[Word]:
    """All freely reduced words of length <= max_length, identity included."""
    return itertools.chain(
        [alphabet.identity()], shortlex_words(alphabet, max_length=max_length)
    )
