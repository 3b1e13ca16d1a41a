"""Iterated HNN extensions over a free base, with exact Britton reduction.

A tower is a free base group plus a list of stable letters; stable letter
``t`` with association ``(c, d)`` imposes ``t c t^-1 = d``, conjugating the
cyclic subgroup generated by ``c`` onto the one generated by ``d``.  Both
``c`` and ``d`` are required to be nontrivial base words, which keeps every
question we ask decidable:

- a pinch ``t S t^-1`` fires iff the enclosed chunk equals ``c^m`` for some
  integer ``m``, and cyclic-subgroup membership in a free group is exact
  (primitive roots);
- a fully reduced word that still carries stable letters is not a base
  element, so triviality and base membership are never "unknown".

The only bounded search left is comparing against powers of a target that
itself carries stable letters; those answers surface as ``unknown`` with
the exhausted bound attached, never as a silent wrong answer.

Towers grow one stage at a time, so ``Tower`` is an append-only chain
(see its docstring): extending the newest tower is O(1) and validates
only the new association.  Tower words have one normal form, their
items: chunk, letter, chunk, ..., chunk.  A chunk is a freely reduced
tuple of base letters and a letter an ``(index, eps)`` pair, so position
parity tells them apart: chunks sit at even positions.  ``Word`` appears
only at the boundary: ``Tower.embed`` takes one and
``TowerWord.base_word`` gives one.  Every operation keeps the normal form
by merging only the chunks at a junction (``words.mul_letters``): a
product merges two, a power one per seam, and an inverse needs none.
``conjugator_holds`` checks a conjugator claim on items: it joins
g w g^-1 target^-1 that way in one pass, Britton-reduces the joined items
and accepts exactly when one empty chunk is left, making no ``Word``,
``TowerWord`` or ``Verdict3`` on the way.
They are read in two ways.  ``Tower.parse`` reads any word text
(``words.read_tokens``), exponents included.  ``Tower.printed_items``
reads only the printed form, ``str`` of a word: one dictionary lookup per
token goes straight into the normal items, and any other spelling,
exponent or text that is not freely reduced is refused before anything
expands; certificate replay reads witnesses with it, straight into
``conjugator_holds``.

Britton reduction keeps the normal form too.  It reads the items once,
left to right, with the reduced prefix on one stack: kept chunks and
stable letters of every height, the last chunk still open.  A pinch can
only close on the letter just read, against the kept letter on top and
across the open chunk, since anything longer between them is reduced and
still carries stable letters, so it is no base element.  When a pinch
fires, the letter leaves the stack and the chunks on either side merge.
Each association's primitive roots are computed once, when it is made,
and a pinch asks ``words.power_exponent`` against their letters, which
needs no root of the chunk.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

from . import words as W
from .words import Alphabet, Word

Chunk = tuple[int, ...]  # a freely reduced run of base letters
Items = tuple  # normal items: Chunk, (index, eps), Chunk, ..., Chunk


class HnnError(ValueError):
    """Raised on malformed towers, alien words, or unverifiable claims."""


@dataclass(frozen=True)
class CyclicAssociation:
    """Stable letter data: ``stable source stable^-1 = target`` in the extension."""

    stable: str
    source: Word
    target: Word
    # W.primitive_root of source and target as (root letters, exponent),
    # for the pinch test
    source_root: tuple[Chunk, int] = field(init=False, repr=False, compare=False)
    target_root: tuple[Chunk, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.source.alphabet != self.target.alphabet:
            raise HnnError("association source and target live over different alphabets")
        if self.source.is_identity or self.target.is_identity:
            raise HnnError(f"association at {self.stable!r} must join nontrivial elements")
        for end, w in (("source_root", self.source), ("target_root", self.target)):
            root, e = W.primitive_root(w)
            object.__setattr__(self, end, (root.letters, e))

    def __str__(self) -> str:
        return f"{self.stable}: {self.source} -> {self.target}"


class Tower:
    """Base alphabet plus an ordered list of cyclic associations.

    Extension order matters: stable letter ``k`` may be pinched only across
    chunks written in the sub-tower below it.  Britton reduction pinches
    only across a base chunk, which lies in every sub-tower.

    Towers are an append-only chain.  The towers of one chain share a
    single association list and token table (printed token -> base letter
    or stable letter, see ``printed_items``), and each knows only the first
    ``height`` associations: a letter stored at or above its height is
    unknown to it.  ``extend`` on the tip of a chain appends in place, so a
    build of n stages does O(n) work; extending an older tower copies its
    prefix into a new chain, leaving every existing tower as it was.
    ``_add`` is the one place an association is validated, and it checks
    only the new one (alphabet, name, duplicate stable letter, collision
    with a base generator), because everything below it was checked when it
    was added.  Stable-letter names obey the rule for generator names
    (``W.name_problem``), so every tower word prints as text that parses
    back to it.  Since a chain's list only ever grows, two towers on one chain
    agree on their common prefix, so equality and ``extends`` compare
    heights; only towers built on separate chains compare associations.
    """

    __slots__ = ("base", "height", "_assocs", "_tokens")

    def __init__(self, base: Alphabet, assocs: Sequence[CyclicAssociation] = ()):
        self.base = base
        self.height = 0
        self._assocs: list[CyclicAssociation] = []
        # printed token -> base letter (int) or stable letter (index, eps)
        self._tokens: dict[str, int | tuple[int, int]] = {text: l for l, text in base._text.items()}
        for a in assocs:
            self._add(a)

    def _add(self, a: CyclicAssociation) -> None:
        """Validate a and put it on top; self must be the tip of its chain."""
        if a.source.alphabet != self.base:
            raise HnnError(f"association {a.stable!r} is not over the tower base")
        problem = W.name_problem(a.stable)
        if problem:
            raise HnnError(f"stable letter name {a.stable!r} {problem}")
        if a.stable in self.base:
            raise HnnError(f"stable letter {a.stable!r} collides with a base generator")
        if a.stable in self._tokens:
            raise HnnError(f"duplicate stable letter {a.stable!r}")
        self._tokens[a.stable] = (self.height, 1)
        self._tokens[a.stable + "^-1"] = (self.height, -1)
        self._assocs.append(a)
        self.height += 1

    @property
    def assocs(self) -> tuple[CyclicAssociation, ...]:
        return tuple(self._assocs[: self.height])

    def _same_prefix(self, other: "Tower", n: int) -> bool:
        """The first n associations agree; both towers have at least n."""
        if self._assocs is other._assocs:
            return True
        return self.base == other.base and self._assocs[:n] == other._assocs[:n]

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Tower)
            and self.height == other.height
            and self._same_prefix(other, self.height)
        )

    def __hash__(self) -> int:
        return hash((self.base, self.height))

    def __repr__(self) -> str:
        return f"Tower(base={self.base!r}, height={self.height})"

    def extend(self, assoc: CyclicAssociation) -> "Tower":
        out = Tower.__new__(Tower)
        out.base, out.height = self.base, self.height
        if self.height == len(self._assocs):
            out._assocs, out._tokens = self._assocs, self._tokens
        else:
            out._assocs = self._assocs[: self.height]
            out._tokens = {
                t: it for t, it in self._tokens.items() if type(it) is int or it[0] < self.height
            }
        out._add(assoc)
        return out

    def extends(self, other: "Tower") -> bool:
        """True when self is the same tower with possibly more stages on top."""
        return self.height >= other.height and self._same_prefix(other, other.height)

    def identity(self) -> "TowerWord":
        return TowerWord(self, ((),))

    def embed(self, w: Word) -> "TowerWord":
        if w.alphabet is not self.base and w.alphabet != self.base:
            raise HnnError("cannot embed a word over a different alphabet")
        return TowerWord(self, (w.letters,))

    def _position(self, name: str) -> int:
        it = self._tokens.get(name)
        if type(it) is not tuple or it[1] < 0 or it[0] >= self.height:
            raise HnnError(f"unknown stable letter {name!r}")
        return it[0]

    def stable(self, name: str, eps: int = 1) -> "TowerWord":
        i = self._position(name)
        if eps not in (1, -1):
            raise HnnError("stable letter exponent must be +1 or -1")
        return TowerWord(self, ((), (i, eps), ()))

    def parse(self, text: str) -> "TowerWord":
        """Parse word text (``W.read_tokens``) over base and stable letters."""
        try:
            tokens = W.read_tokens(text)
        except W.WordError as e:
            raise HnnError(str(e)) from None
        table, height = self._tokens, self.height
        # built alternating as it is read: each run of base letters is
        # freely reduced once, when a stable letter or the end closes it
        items: list = []
        run: list[int] = []
        for name, exp in tokens:
            it = table.get(name)  # a name holds no ^, so it is no inverse token
            if type(it) is tuple and it[0] < height:
                letter = (it[0], 1 if exp > 0 else -1)
                for _ in range(abs(exp)):
                    items.append(W.free_reduce(run))
                    items.append(letter)
                    run = []
            elif type(it) is int:
                run.extend([it if exp > 0 else -it] * abs(exp))
            else:
                raise HnnError(f"unknown token {name!r} (neither base generator nor stable letter)")
        items.append(W.free_reduce(run))
        return TowerWord(self, tuple(items))

    def read_printed(self, text: str) -> "TowerWord":
        """The tower word whose printed form is text (``printed_items``)."""
        return TowerWord(self, self.printed_items(text))

    def printed_items(self, text: str) -> Items:
        """The normal items of the printed form of a tower word, and of no
        other spelling.

        The printed form is what ``str`` gives a normal word: ``1`` alone,
        or tokens ``name`` and ``name^-1`` joined by single spaces, freely
        reduced over the base and stable letters.  Each token is one
        lookup and goes straight into the normal items, so no exponent is
        ever expanded; any other exponent fails with ``W.read_int``'s
        words.  Any text this refuses raises ``HnnError``.  ``parse``
        reads every spelling.
        """
        if text == "1":
            return ((),)
        tokens, height = self._tokens, self.height
        items: list = []
        run: list[int] = []
        for tok in text.split(" "):
            it = tokens.get(tok)
            if type(it) is int:
                if run and run[-1] == -it:
                    raise HnnError(f"{tok!r} cancels the letter before it; not freely reduced")
                run.append(it)
            elif it is not None and it[0] < height:
                if not run and items and items[-1] == (it[0], -it[1]):
                    raise HnnError(f"{tok!r} cancels the letter before it; not freely reduced")
                items.append(tuple(run))
                items.append(it)
                run = []
            else:
                raise HnnError(_token_problem(tok))
        items.append(tuple(run))
        return tuple(items)


def _token_problem(tok: str) -> str:
    """Why ``Tower.printed_items`` cannot read tok."""
    name, hat, exp = tok.partition("^")
    if hat:
        try:
            W.read_int(exp, "exponent")
        except W.WordError as e:
            return f"{e} in token {tok[:24]!r}"
        if exp != "-1":
            return f"exponent {exp[:20]} in token {tok[:24]!r}: printed words write only ^-1"
    if not tok:
        return "empty token: printed words separate tokens by one space"
    if tok == "1":
        return "1 stands only alone"
    return f"unknown token {name[:24]!r} (neither base generator nor stable letter)"


def _inverse_items(items: Items) -> Items:
    if len(items) == 1:
        return (W.inverse_letters(items[0]),)
    # reversing an odd number of items keeps each one's parity
    return tuple(
        [(it[0], -it[1]) if k & 1 else W.inverse_letters(it) for k, it in enumerate(reversed(items))]
    )


def _join(parts: Sequence[Items]) -> Items:
    """Concatenate normal items; only the chunks at each junction merge."""
    items = list(parts[0])
    for part in parts[1:]:
        items[-1] = W.mul_letters(items[-1], part[0])
        items.extend(part[1:])
    return tuple(items)


def _common_tower(words: Sequence["TowerWord"]) -> Tower:
    """The tower a product of words lives in: the tallest of theirs, which
    must extend all the others."""
    tower = words[0].tower
    for x in words[1:]:
        if x.tower is tower or tower.extends(x.tower):
            continue
        if not x.tower.extends(tower):
            raise HnnError("cannot multiply words from unrelated towers")
        tower = x.tower
    return tower


class TowerWord:
    """A word in the tower as written: base chunks split by stable letters.

    Data equality only; group-level questions go through ``britton`` /
    ``is_trivial``.  Instances are immutable, and ``items`` is always
    normal: chunks, each a freely reduced tuple of base letters,
    alternating with stable letters, ``(index, eps)`` pairs, starting and
    ending with a chunk, so chunks sit at the even positions.  Every
    operation keeps that form by merging only the chunks that meet at a
    junction.
    """

    __slots__ = ("tower", "items")

    def __init__(self, tower: Tower, items: Items):
        self.tower = tower
        self.items = items

    def __mul__(self, other: "TowerWord") -> "TowerWord":
        return TowerWord(_common_tower((self, other)), _join((self.items, other.items)))

    def inverse(self) -> "TowerWord":
        return TowerWord(self.tower, _inverse_items(self.items))

    def __pow__(self, n: int) -> "TowerWord":
        items = (self if n >= 0 else self.inverse()).items
        n = abs(n)
        if n == 0 or len(items) == 1:
            return TowerWord(self.tower, (W.power_letters(items[0], n),))
        # c0 L ... L ck repeated: each seam merges ck with c0 once
        seam = (W.mul_letters(items[-1], items[0]),) + items[1:-1]
        return TowerWord(self.tower, items[:-1] + seam * (n - 1) + items[-1:])

    def lift_to(self, bigger: Tower) -> "TowerWord":
        if not bigger.extends(self.tower):
            raise HnnError("target tower does not extend this word's tower")
        return TowerWord(bigger, self.items)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TowerWord)
            and self.tower == other.tower
            and self.items == other.items
        )

    def __hash__(self) -> int:
        return hash((self.tower, self.items))

    @property
    def has_stable_letters(self) -> bool:
        return len(self.items) > 1

    def signature(self) -> tuple[tuple[str, int], ...]:
        """Stable letters in order of occurrence, as (name, exponent) pairs."""
        assocs = self.tower._assocs
        return tuple((assocs[i].stable, e) for i, e in self.items[1::2])

    def base_word(self) -> Word:
        if self.has_stable_letters:
            raise HnnError(f"{self} carries stable letters; not a base word")
        return Word(self.tower.base, self.items[0])

    def __str__(self) -> str:
        """Chunks spelled from the base alphabet's token table, as ``Word`` is."""
        items, assocs, spell = self.items, self.tower._assocs, self.tower.base.spell
        parts = [spell(items[0])] if items[0] else []
        for (i, e), chunk in zip(items[1::2], items[2::2]):
            name = assocs[i].stable
            parts.append(name if e > 0 else name + "^-1")
            if chunk:
                parts.append(spell(chunk))
        return " ".join(parts) or "1"

    def __repr__(self) -> str:
        return f"TowerWord({self})"


def _pinch(assoc: CyclicAssociation, eps: int, chunk: Chunk) -> Chunk | None:
    """The letters of the base word ``t^eps chunk t^-eps`` equals, if that
    pinch fires.  A chunk that is the association end itself, the power 1
    every skip check meets, needs no power test."""
    c, d, root = (
        (assoc.source, assoc.target, assoc.source_root)
        if eps > 0
        else (assoc.target, assoc.source, assoc.target_root)
    )
    if chunk == c.letters:
        return d.letters
    m = W.power_exponent(chunk, *root)
    return None if m is None else W.power_letters(d.letters, m)


def _britton_items(tower: Tower, items: Items) -> Items:
    """Reduce normal items (chunk, letter, ..., chunk); the result is normal too.

    One pass (see the module docstring): ``out`` is the reduced prefix read
    so far, its last chunk still open, so ``out[-2]`` is a letter.
    """
    assocs, mul = tower._assocs, W.mul_letters
    out = [items[0]]
    for letter, nxt in zip(items[1::2], items[2::2]):
        i, e = letter
        if len(out) > 1 and out[-2] == (i, -e) and (d := _pinch(assocs[i], -e, out[-1])) is not None:
            del out[-2:]
            out[-1] = mul(mul(out[-1], d), nxt)
        else:
            out += (letter, nxt)
    return tuple(out)


def britton_reduce(w: TowerWord) -> TowerWord:
    """Remove every pinch ``t^e (c or d)^m t^-e``; exact and terminating.

    The surviving stable-letter signature does not depend on the order in
    which pinches fire; the test suite checks this by reducing a word and
    its inverse, which meets the pinches in the opposite order.
    """
    return TowerWord(w.tower, _britton_items(w.tower, w.items))


def find_pinch(w: TowerWord) -> tuple[int, int] | None:
    """Positions (i, j) of a firing pinch pair in w's stable letters, else None.

    Independent scanner used to audit reduced forms: it looks directly for
    ``t^e ... t^-e`` with only lower letters between and the enclosed chunk
    a power of the right association end, without reusing the reducer's
    bookkeeping.
    """
    pos = range(1, len(w.items), 2)
    for a in range(len(pos)):
        ia, ea = w.items[pos[a]]
        for b in range(a + 1, len(pos)):
            ib, eb = w.items[pos[b]]
            if ib > ia:
                break
            if ib == ia:
                if eb == -ea:
                    chunk = britton_reduce(TowerWord(w.tower, w.items[pos[a] + 1 : pos[b]]))
                    assoc = w.tower._assocs[ia]
                    c = assoc.source if ea > 0 else assoc.target
                    if not chunk.has_stable_letters and W.is_power_of(chunk.base_word(), c) is not None:
                        return (a, b)
                break
    return None


@dataclass(frozen=True)
class Verdict3:
    """Answer of an exact decision procedure; Britton reduction always decides."""

    status: str  # "yes" | "no"
    detail: str = ""

    @property
    def is_yes(self) -> bool:
        return self.status == "yes"

    def __str__(self) -> str:
        return self.status + (f" ({self.detail})" if self.detail else "")


def is_trivial(w: TowerWord) -> Verdict3:
    """Exact word problem: reduce, then look at what is left."""
    r = britton_reduce(w)
    if r.has_stable_letters:
        return Verdict3("no", detail=f"reduces to {r}")
    if not r.items[0]:
        return Verdict3("yes")
    return Verdict3("no", detail=f"reduces to {r.base_word()}")


def equal_in_group(u: TowerWord, v: TowerWord) -> Verdict3:
    return is_trivial(u * v.inverse())


@dataclass(frozen=True)
class CyclicMembership:
    """Answer to ``w in <c>``; exponent is set exactly when status is yes."""

    status: str  # "yes" | "no" | "unknown"
    exponent: int | None = None
    bound: int | None = None

    def __str__(self) -> str:
        if self.status == "yes":
            return f"yes (exponent {self.exponent})"
        if self.status == "unknown":
            return f"unknown (bound {self.bound} exhausted)"
        return "no"


def cyclic_membership(w: TowerWord, c: TowerWord | Word, bound: int = 64) -> CyclicMembership:
    """Decide w = c^m.  Exact when c reduces into the base; bounded otherwise.

    With c a base element the question reduces to root comparison in the
    free group, and a w that keeps stable letters after reduction cannot be
    a base power at all.  A genuinely non-base c leaves only exponent
    search up to ``bound``, reported honestly as unknown when exhausted.
    """
    if isinstance(c, Word):
        c = w.tower.embed(c)
    if c.tower != w.tower:
        if w.tower.extends(c.tower):
            c = c.lift_to(w.tower)
        else:
            raise HnnError("w and c live over unrelated towers")
    rc = britton_reduce(c)
    rw = britton_reduce(w)
    if not rc.has_stable_letters:
        cw = rc.base_word()
        if cw.is_identity:
            raise HnnError("cyclic subgroup generator is trivial")
        if rw.has_stable_letters:
            return CyclicMembership("no")
        m = W.is_power_of(rw.base_word(), cw)
        return CyclicMembership("yes", exponent=m) if m is not None else CyclicMembership("no")
    for m in itertools.chain([0], *(((k, -k) for k in range(1, bound + 1)))):
        if is_trivial(rc ** (-m) * rw).is_yes:
            return CyclicMembership("yes", exponent=m)
    return CyclicMembership("unknown", bound=bound)


def conjugator_holds(tower: Tower, g: Items, w: Items, target: Items) -> bool:
    """The claim g w g^-1 = target, for normal items of words in ``tower``,
    by Britton reduction.

    The items of g w g^-1 target^-1 are joined in one pass, where only the
    chunks that meet at a junction merge, and reduced as they stand; the
    claim holds exactly when the reduced items are one empty chunk.  The
    build's skip checks and the replay's are this one call.
    """
    out = _britton_items(tower, _join((g, w, _inverse_items(g), _inverse_items(target))))
    return len(out) == 1 and not out[0]


def verify_conjugator(g: TowerWord, w: TowerWord, target: TowerWord) -> bool:
    """Check the claim g w g^-1 = target by Britton reduction (``conjugator_holds``)."""
    return conjugator_holds(_common_tower((g, w, target)), g.items, w.items, target.items)


def klein_bottle_tower() -> Tower:
    """F(a) with t a t^-1 = a^-1: the fundamental group of the Klein bottle."""
    a = Alphabet(["a"])
    return Tower(a, [CyclicAssociation("t", a.gen("a"), a.gen("a").inverse())])


def bs12_tower() -> Tower:
    """F(a) with t a t^-1 = a^2, the Baumslag-Solitar group BS(1,2)."""
    a = Alphabet(["a"])
    return Tower(a, [CyclicAssociation("t", a.gen("a"), a.gen("a") ** 2)])
