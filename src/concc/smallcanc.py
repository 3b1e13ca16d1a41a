"""Classical metric small cancellation over free groups, at full family scale.

Words are read as runs, the maximal blocks of one letter (``RunWord``).
The relator family is built as runs, 2s of them for 2s^2 + s letters at
scale s, and a ``Word`` enters through one adapter, ``RunWord.of``.  A
symmetrized set is stored as the runs of one canonical rotation per orbit
of cyclic permutation (a necklace), with the inverse word's orbit added
alongside.  Letters are spelled only on read: one member or necklace at a
time, a reduced word when its caller reads it.  The piece index and Dehn
reduction work on the runs, so they grow with the number of runs even when
the closure has seven figures of members.

Piece = common initial segment of two distinct closure members.  The index
finds, for every member, the longest piece it starts with.  A witness names
its two members by id, necklace by necklace and then by rotation offset,
and spells only the piece; checking it spells the piece's letters of each.

Member coordinates.  The canonical rotation is the least one, and the least
rotation of a word of two runs or more starts at a run boundary: it opens
with the smallest letter, a run of that letter is followed by a larger
letter, so of the rotations that start inside such a run the one at its
start is least.  (A word of one run is one letter; longer ones are proper
powers.)  So ``symmetrize`` finds it from the runs alone.  It splits each
relator and its inverse into cyclic runs, a run that wraps around being
one, and keys each run by (letter, side, +-length, next letter), the key
the index text uses (``_run_keys``).  Rotations that start at run
boundaries compare as their key sequences do, so Booth's least rotation
runs over the R keys, not the letters.  The same keys tell a proper power
(a word of two runs or more is one exactly when its cyclic key sequence
is, with the same exponent) and put same-length necklaces in letter
order.  Member (p, r) starts r letters before the end of run p; with c
the run's letter, L_p its necklace's length and S_p the doubled necklace
read from run p + 1 on, it reads c^r S_p cut to L_p letters.

Pieces from runs.  Members (p, r) and (q, r') that open with the same
letter share min(r, r') letters if r != r', and min(r + lcp(S_p, S_q), L_p,
L_q) if r = r'.  So the longest piece of (p, r) is the largest of
min(r + lcp(S_p, S_q), L_p, L_q) over the runs q != p of its letter with
l_q >= r, if there are any; otherwise r if l_p > r, shared with (p, r + 1),
and r - 1 if not.

Deletion pass.  A suffix array and LCP array over one token per run
(``_token_text``: each necklace's runs twice, then a separator) put the
texts S_p in order and give their letter LCPs.  Runs are grouped by letter,
each group in S_p order; the common text of two runs is the minimum LCP
between them, so the nearest run q with l_q >= r on each side of p shares
the longest text with it.  Length classes are taken one at a time: with
mixed relator lengths the nearest run may lie in a short necklace whose cap
hides a longer piece shared with a run further away, but within one class
the cap is shared.  Raising r deletes the class's runs in increasing
length, and when run q goes only its surviving neighbours change their
nearest partner: the nearest longer class runs on either side of q (all
nearest smaller values, Berkman-Schieber-Vishkin) become neighbours.  So a
run's nearest class partners are constant between a few events, each with
a threshold r, a common text and a partner, and on each stretch between
events best(p, r) = max(own-run piece, min(v + r, L_p, L)), v the longer of
the two common texts capped at L: a per-run segment.  Runs outside class L
find their nearest class run on each side and then walk the same chain of
nearest longer class runs.  Within a segment the piece grows with r while
the member id falls, so its longest piece and the first member that has it
sit at its last r; the reports read only those segment ends.  A word whose
runs all have length 1 is the same problem, one token per letter.  The
token arrays are checked on every build (see ``_index_fault``), and the
reports carry the outcome.

Dehn's algorithm replaces a subword that is more than half of a member by
the inverse of the rest of that member: M = L//2 + 1 letters or more of a
member of length L.  A round works on the cyclic word's runs and the same
checked token arrays.  The start a letters before the end of word run i
meets member (p, r) for min(a, r) letters if a != r; if a = r the match
goes on for the h letters that the texts after the two runs share, so
min(a + h, L, n) in all.  The word's windows of 2^j tokens are classed
among the text's, whose classes the checked LCP array gives, by one binary
search per doubling level; so the text after each word run finds its place
in the S_p order of its letter, and binary lifting measures h.  A run of
more than half its necklace is tried against every word run of its
letter; any other run p needs h >= M - l_p, so only the block of the S_p
order around that place whose neighbours share as much is read.  The
longest match wins, then the smallest cyclic start, necklace and offset.

A round finds the best match of every word run, and the next round keeps
most of them.  A match from run i ends by run i + k, k the most runs of a
necklace, so run i's best match reads only runs i .. i + k, and n while n
is below the longest necklace.  A step rewrites its match, cancels or
merges runs at the two seams, and rotates the word; the runs it left whole
keep their answers, shifted, and only the new runs, the seams and the k
runs before them are searched again (``_RunSearch``).  Each step is
checked on runs before it is applied: the word's letters from its start
must be those of its member, more than half of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .substrings import lcp_array, suffix_array
from .words import Alphabet, CyclicWord, Word, _least_rotation


class SmallCancellationError(ValueError):
    """Raised for relator sets outside the classical hypotheses."""


class RunWord:
    """A reduced word kept as its runs: letter ``letter[i]`` written
    ``length[i]`` times, adjacent runs of different letters.  Immutable;
    ``len`` counts letters and ``word`` spells them.  It equals only run
    words; spell it to compare it with a ``Word``."""

    __slots__ = ("alphabet", "letter", "length", "_size")

    def __init__(self, alphabet: Alphabet, letter: np.ndarray, length: np.ndarray):
        # the runs are trusted to be maximal and reduced; go through ``of`` otherwise
        letter.flags.writeable = length.flags.writeable = False
        self.alphabet, self.letter, self.length = alphabet, letter, length
        self._size = int(length.sum())

    @classmethod
    def of(cls, w: "Word | RunWord") -> "RunWord":
        """The runs of w: the one way a ``Word`` reaches the run code."""
        if isinstance(w, RunWord):
            return w
        return cls(w.alphabet, *_linear_runs(np.fromiter(w.letters, np.int64, len(w))))

    def __len__(self) -> int:
        return self._size

    @property
    def is_identity(self) -> bool:
        return not self._size

    def word(self, count: int | None = None) -> Word:
        """The letters, or the first ``count`` of them."""
        letter, length = self.letter, self.length
        if count is not None and count < self._size:
            end = length.cumsum()
            k = int(end.searchsorted(count, "right"))  # the runs wholly inside the prefix
            letter, length = letter[: k + 1], np.append(length[:k], count - (end[k] - length[k]))
        return Word(self.alphabet, _spell(letter, length))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunWord):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and np.array_equal(self.letter, other.letter)
            and np.array_equal(self.length, other.length)
        )

    def __str__(self) -> str:
        return str(self.word())

    def __repr__(self) -> str:
        return f"RunWord({self})"


def r_family(s: int, x: Word, y: Word) -> RunWord:
    """x y^{s+1} x^2 y^{s+2} ... x^s y^{2s}; 2s runs of 2s^2 + s letters for
    letters x, y."""
    if s < 1:
        raise SmallCancellationError(f"scale must be >= 1, got {s}")
    if x.alphabet != y.alphabet:
        raise SmallCancellationError("x and y must share an alphabet")
    if len(x) == 1 and len(y) == 1 and abs(x.letters[0]) != abs(y.letters[0]):
        # letters that are neither equal nor inverses neither merge nor
        # cancel: the runs are x^i and y^(s+i) as written
        i = np.arange(1, s + 1, dtype=np.int64)
        letter = np.tile(np.array([x.letters[0], y.letters[0]], dtype=np.int64), s)
        return RunWord(x.alphabet, letter, np.stack((i, s + i), axis=1).ravel())
    w = x.alphabet.identity()
    for i in range(1, s + 1):
        w = w * x ** i * y ** (s + i)
    return RunWord.of(w)


def relator_trio(s: int, a: Word, b: Word) -> dict[str, RunWord]:
    """The scale-s relators R(a^-1, b^-1), R(b, a), R(b^-1, a^-1), by name."""
    return {
        "R(a^-1,b^-1)": r_family(s, a.inverse(), b.inverse()),
        "R(b,a)": r_family(s, b, a),
        "R(b^-1,a^-1)": r_family(s, b.inverse(), a.inverse()),
    }


def word_family_w(k: int, n: int, x: Word, y: Word) -> Word:
    """x^k y^k x^{k+1} y^{k+1} ... x^{k+n-1} y^{k+n-1}; length 2nk + n(n-1)."""
    if k < 1 or n < 1:
        raise SmallCancellationError(f"need k, n >= 1, got k={k}, n={n}")
    if x.alphabet != y.alphabet:
        raise SmallCancellationError("x and y must share an alphabet")
    w = x.alphabet.identity()
    for i in range(n):
        w = w * x ** (k + i) * y ** (k + i)
    return w


class SymmetrizedSet:
    """Closure of a relator set under cyclic permutation and inversion, kept
    as runs: ``runs[k]`` holds the letter and length of each run of necklace
    k, its least rotation, from its first letter on.  Members are numbered
    necklace by necklace, then by rotation offset: member ``starts[k] + off``
    is rotation ``off`` of necklace ``k``.  Letters are spelled on read:
    ``member`` (by necklace and offset) and ``member_word`` (by id) spell one
    member or its first letters, ``necklaces`` all, when first read.
    ``origins`` are the relators it was built from, as run words."""

    def __init__(
        self,
        alphabet: Alphabet,
        origins: Sequence[RunWord],
        origin_necklaces: Sequence[tuple[int, int]],
        runs: Sequence[tuple[np.ndarray, np.ndarray]],
    ):
        self.alphabet = alphabet
        self.origins = tuple(origins)
        # indices of the necklaces of each origin relator and of its inverse
        self.origin_necklaces = tuple(origin_necklaces)
        self.runs = tuple(runs)
        self.lengths = np.array([length.sum() for _, length in self.runs], dtype=np.int64)
        self.starts = np.concatenate(([0], np.cumsum(self.lengths)))
        self.closure_size = int(self.starts[-1])
        self._index: _PieceIndex | None = None

    @cached_property
    def necklaces(self) -> tuple[CyclicWord, ...]:
        return tuple(CyclicWord.from_least_rotation(self.alphabet, _spell(*r)) for r in self.runs)

    def members(self) -> Iterator[Word]:
        for n in self.necklaces:
            yield from n.rotations()

    def member(self, neck: int, offset: int, count: int | None = None) -> Word:
        """Rotation ``offset`` of necklace ``neck``, or its first ``count`` letters."""
        L = int(self.lengths[neck])
        count = L if count is None else min(count, L)
        return Word(self.alphabet, _spell(*_cut(*_cyclic(*self.runs[neck]), L, offset, count)[:2]))

    def member_word(self, i: int, count: int | None = None) -> Word:
        """Member ``i``, or its first ``count`` letters."""
        k = int(np.searchsorted(self.starts, i, side="right")) - 1
        return self.member(k, i - int(self.starts[k]), count)

    def index(self) -> "_PieceIndex":
        if self._index is None:
            self._index = _PieceIndex(self)
        return self._index


def symmetrize(relators: Sequence[Word | RunWord]) -> SymmetrizedSet:
    """Build the closure; rejects identity, non-cyclically-reduced, and proper powers.

    Works on each relator's cyclic runs (see the module docstring): the
    token keys give the canonical rotation, the proper-power exponent and
    the necklace order without a pass over the letters in Python.
    """
    if not relators:
        raise SmallCancellationError("need at least one relator")
    relators = [RunWord.of(r) for r in relators]
    alphabet = relators[0].alphabet
    # every run is shorter than M and every letter code below D, so the keys
    # of all necklaces of one call compare on one scale
    M, D = max(len(r) for r in relators) + 1, 2 * alphabet.size + 1
    necklaces: dict[tuple, tuple] = {}
    origin_keys: list[tuple[tuple, tuple]] = []
    for r in relators:
        if r.alphabet != alphabet:
            raise SmallCancellationError("relators over different alphabets")
        if r.is_identity:
            raise SmallCancellationError("identity relator")
        if r.letter[0] == -r.letter[-1]:
            raise SmallCancellationError(f"relator {r} is not cyclically reduced")
        letter, length, _ = _cyclic(r.letter, r.length)
        e = int(length[0]) if len(letter) == 1 else _power(_cyclic_keys(letter, length, M, D))
        if e > 1:
            raise SmallCancellationError(
                f"relator {r} is a proper power (exponent {e}); "
                "the metric conditions exclude proper powers"
            )
        pair = [_necklace(letter, length, M, D), _necklace(-letter[::-1], length[::-1], M, D)]
        # keyed by length, then token keys: same-length necklaces compare as their keys do
        pair = [((len(r), tokens), runs) for tokens, runs in pair]
        necklaces.update(pair)
        origin_keys.append((pair[0][0], pair[1][0]))
    ordered = sorted(necklaces)
    position = {key: k for k, key in enumerate(ordered)}
    return SymmetrizedSet(
        alphabet,
        relators,
        [(position[a], position[b]) for a, b in origin_keys],
        [necklaces[key] for key in ordered],
    )


def _run_keys(code: np.ndarray, size: np.ndarray, nxt: np.ndarray, M: int, D: int) -> np.ndarray:
    """Token key of each run: (letter, side, +-length, next letter) as one
    integer, for letter codes ``code`` (letter_code + 1) below D, lengths
    below M and next-letter codes ``nxt`` (0 for none).

    Side 0 and +length when the next letter is smaller than the run's
    letter, side 1 and -length otherwise.  Comparing keys orders the token
    sequences exactly as the letter sequences they spell: two runs of one
    letter part where the shorter one ends, and the letter after it is
    below or above the run's letter.  The piece index, ``symmetrize`` and
    Dehn reduction all rank runs by these keys.
    """
    side = nxt > code
    return ((2 * code + side) * M + np.where(side, M - size, size)) * D + nxt


def _letter_codes(letter: np.ndarray) -> np.ndarray:
    """letter_code + 1 of each letter."""
    return 2 * np.abs(letter) - 1 + (letter < 0)


def _cyclic_keys(letter: np.ndarray, length: np.ndarray, M: int, D: int) -> np.ndarray:
    """Token keys of the runs of a cyclic word: the letter after the last
    run is the first run's."""
    code = _letter_codes(letter)
    return _run_keys(code, length, np.roll(code, -1), M, D)


def _power(key: np.ndarray) -> int:
    """Largest e such that the cyclic sequence key is some block repeated e times."""
    R = len(key)
    for d in range(1, R):
        if R % d == 0 and np.array_equal(key[d:], key[:-d]):
            return R // d
    return 1


def _necklace(letter: np.ndarray, length: np.ndarray, M: int, D: int):
    """The token keys of a primitive cyclic word's least rotation and that
    rotation's runs (letters, lengths), from the word's runs.

    The least rotation starts at a run boundary (module docstring), and
    rotations from run boundaries compare as their token keys do, so Booth
    runs over the R keys instead of the letters.
    """
    key = _cyclic_keys(letter, length, M, D)
    k = _least_rotation(key.tolist())
    return tuple(np.roll(key, -k).tolist()), (np.roll(letter, -k), np.roll(length, -k))


class _PieceIndex:
    """Longest pieces of all members, kept as per-run segments.

    Every necklace starts at a run boundary, being its least rotation, so
    member (p, r), which starts r letters before the end of run p, is a
    fixed member: member ``run_end[p] - r`` in the numbering of
    ``SymmetrizedSet``.  The module docstring derives its longest piece from
    the runs and explains the deletion pass.

    ``segments`` holds arrays (p, L, r0, r1, v, q), sorted by run, class and
    r0: for r0 <= r <= r1 member (p, r) shares min(v + r, L_p, L) letters
    with member (q, r), q a run of length class L.  A member's longest piece
    is the larger of its own-run piece and its segments' pieces.  Its
    partner is the own-run one unless another run beats it strictly, classes
    tried in increasing length; within a class the run before wins a tie.

    ``peak_member``, ``peak_piece`` and ``peak_neck`` hold, in member order,
    the last r of each segment and of each run's own-run stretch, where the
    stretch's longest piece and the first member with it sit: all that
    ``max_pieces`` and ``check_metric`` read.  ``piece_at`` answers one
    member; ``best`` and ``partner`` (-1 where ``best`` is 0) answer every
    member and are built together, as ``all_answers``, only when read.
    ``checked`` tells whether the suffix array and LCP array of the run
    tokens passed their self-check, and ``check_detail`` says what was
    checked or where it failed; Dehn reduction searches those arrays
    through ``search``, built on first use.
    """

    def __init__(self, S: SymmetrizedSet):
        self.S = S
        letter, self.run_len, self.run_end, neck = _runs(S.runs)
        key, size, code, self.after, self.scale = _token_text(letter, self.run_len, neck)
        sa, levels = suffix_array(key)
        lcp = lcp_array(sa, levels)
        del levels  # freed: the check below covers only the entries the lift read
        fault = _index_fault(key, sa, lcp)
        self.checked = fault is None
        self.check_detail = fault or f"suffix and LCP arrays of {len(key)} run tokens checked"
        self.key, self.sa, self.lcp, self.size, self.code = key, sa, lcp, size, code  # for Dehn
        # letter LCP of adjacent token suffixes: their equal tokens, then the
        # shorter of the first unequal tokens if those share a letter
        n = len(key)
        a, b = sa[:-1], sa[1:]
        # clipped, so that a faulty lcp, which the check reports, stays in the text
        ea, eb = np.clip(a + lcp, 0, n - 1), np.clip(b + lcp, 0, n - 1)
        prefix = np.concatenate(([0], np.cumsum(size)))
        shared = (code[ea] == code[eb]) & (code[ea] > 0)
        letter_lcp = prefix[ea] - prefix[a] + np.where(shared, np.minimum(size[ea], size[eb]), 0)
        # runs grouped by letter, each group in the order of the texts S_p
        self.rank = rank = np.empty(n, dtype=np.int64)
        rank[sa] = np.arange(n)
        first = code[self.after - 1]
        self.group = g = np.lexsort((rank[self.after], first))
        pos = rank[self.after][g]
        # letter LCP of group neighbours: a range minimum; -1 between groups
        self.flcp = flcp = _span_min(np.append(letter_lcp, 0), pos[:-1], pos[1:])
        flcp[first[g][1:] != first[g][:-1]] = -1
        self.neck = neck
        self.run_cap = S.lengths[neck]
        x, L, r0, r1, v, q = _deletion_pass(flcp, self.run_len[g], self.run_cap[g])
        order = np.lexsort((r0, L, g[x]))
        self.segments = tuple(c[order] for c in (g[x], L, r0, r1, v, g[q]))
        p, L, r0, r1, v, q = self.segments
        member = np.concatenate((self.run_end - self.run_len, self.run_end[p] - r1))
        piece = np.concatenate((self.run_len - 1, np.minimum(v + r1, np.minimum(self.run_cap[p], L))))
        order = np.argsort(member, kind="stable")
        self.peak_member, self.peak_piece = member[order], piece[order]
        self.peak_neck = np.concatenate((neck, neck[p]))[order]

    @cached_property
    def search(self) -> "_RunSearch":
        return _RunSearch(self)

    def piece_at(self, i: int) -> tuple[int, int]:
        """Longest piece of member i and the member it shares it with, -1
        where the piece is empty."""
        p = int(np.searchsorted(self.run_end, i, side="right"))
        best, partner = self._answers(p, p + 1)
        k = i - int(self.run_end[p] - self.run_len[p])
        return int(best[k]), int(partner[k])

    @cached_property
    def all_answers(self) -> tuple[np.ndarray, np.ndarray]:
        return self._answers(0, len(self.run_len))

    @property
    def best(self) -> np.ndarray:
        return self.all_answers[0]

    @property
    def partner(self) -> np.ndarray:
        return self.all_answers[1]

    def _answers(self, first: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Longest piece and partner of each member of runs first .. stop - 1,
        in member order: the own-run pieces, raised class by class in
        increasing length where a segment gives a strictly longer one."""
        length, end = self.run_len[first:stop], self.run_end[first:stop]
        lo = int(end[0] - length[0])
        ids = np.arange(lo, int(end[-1]))
        # own run: r letters with (p, r + 1), or r - 1 with (p, r - 1) at its start
        r = np.repeat(end, length) - ids
        at_start = r == np.repeat(length, length)
        best = r - at_start
        partner = np.where(at_start, np.where(r > 1, ids + 1, -1), ids - 1)
        cut = slice(*np.searchsorted(self.segments[0], [first, stop]))
        run, L, r0, r1, v, q = (c[cut] for c in self.segments)
        for c in sorted(set(L.tolist())):
            s = np.flatnonzero(L == c)
            count = r1[s] - r0[s] + 1
            rr = np.repeat(r0[s] - np.cumsum(count) + count, count) + np.arange(int(count.sum()))
            at = np.repeat(s, count)
            i = self.run_end[run[at]] - rr - lo
            got = np.minimum(v[at] + rr, np.minimum(self.run_cap[run[at]], c))
            up = got > best[i]
            best[i[up]] = got[up]
            partner[i[up]] = (self.run_end[q[at]] - rr)[up]
        return best, partner


def _runs(runs: Sequence[tuple[np.ndarray, np.ndarray]]):
    """Letter, length, end and necklace of every run, necklace by necklace,
    from each necklace's runs as ``symmetrize`` keeps them.

    Each necklace opens with a run, so a run's end, the index of the letter
    after it, is also a member id: member (p, r), the rotation that starts r
    letters before the end of run p, is member ``end[p] - r``.
    """
    letter = np.concatenate([ls for ls, _ in runs])
    length = np.concatenate([ns for _, ns in runs])
    neck = np.repeat(np.arange(len(runs)), [len(ls) for ls, _ in runs])
    return letter, length, np.cumsum(length), neck


def _token_text(letter: np.ndarray, length: np.ndarray, neck: np.ndarray):
    """The index text: one token per run, each necklace's runs twice, then a
    separator of its own.  A necklace of one run is a single letter (a longer
    one is a proper power) and is written once, so no two adjacent tokens
    share a letter.

    Returns the token keys, the token lengths and letter codes (letter_code
    + 1; -(k + 1) for separator k), and for each run the token after its
    first copy, where the text S_p that follows run p starts.

    A run's key is ``_run_keys``, with the separator after it as no next
    letter, so comparing keys orders the token suffixes exactly as the
    letter suffixes they spell; separators rank below every letter.  The
    key scale (M, D), also returned, leaves one length and one letter code
    spare above the text's, for the runs of a Dehn word that exceed them.
    """
    K = int(neck[-1]) + 1
    count = np.bincount(neck)
    copies = np.where(count > 1, 2, 1)
    opens = np.concatenate(([0], np.cumsum(copies * count + 1)))
    first_run = np.concatenate(([0], np.cumsum(count)))
    at = opens[neck] + np.arange(len(letter)) - first_run[neck]
    n = int(opens[-1])
    code = np.empty(n, dtype=np.int64)
    size = np.ones(n, dtype=np.int64)
    runs = _letter_codes(letter)
    code[at], size[at] = runs, length
    twice = copies[neck] == 2
    again = at[twice] + count[neck[twice]]
    code[again], size[again] = runs[twice], length[twice]
    code[opens[1:] - 1] = -np.arange(1, K + 1)
    nxt = np.append(np.maximum(code[1:], 0), 0)
    scale = int(size.max()) + 2, int(code.max()) + 2
    key = np.where(code > 0, K + _run_keys(code, size, nxt, *scale), -code - 1)
    return key, size, code, at + 1, scale


def _index_fault(key: np.ndarray, sa: np.ndarray, lcp: np.ndarray) -> str | None:
    """Where sa or lcp fails to be the suffix or LCP array of key; None if
    both are right.

    sa must be a permutation whose adjacent pairs (a, b) pass the neighbour
    test of Burkhardt and Kärkkäinen: key[a] < key[b], or the keys are equal
    and the suffix after a ranks below the one after b, the end ranking
    first.  Each lcp[i] is checked exactly: the suffixes at ranks i and i + 1
    agree token by token on their first lcp[i] tokens, and the next tokens
    differ.  The text ends in a token that occurs nowhere else, so two
    suffixes always differ inside it.  The prefixes are compared in text
    order, in linear time: once sa is right, if suffix t - 1 shares h tokens
    with the one ranked below it, suffix t shares h - 1 or more with its own
    (Kasai), so only the rest is compared.
    """
    n = len(key)
    if len(sa) != n or len(lcp) != max(n - 1, 0):
        return f"{len(sa)} suffixes and {len(lcp)} LCPs for {n} tokens"
    if n < 2:
        return None if np.array_equal(sa, np.arange(n)) else "suffix array is not 0"
    if sa.min() < 0 or sa.max() >= n:
        return "suffix array holds a position outside the text"
    rank = np.full(n + 1, -1, dtype=np.int64)
    rank[sa] = np.arange(n)
    if not np.array_equal(rank[sa], np.arange(n)):
        return "suffix array is not a permutation"
    a, b = sa[:-1], sa[1:]
    ka, kb = key[a], key[b]
    bad = ~((ka < kb) | ((ka == kb) & (rank[a + 1] < rank[b + 1])))
    if bad.any():
        i = int(np.argmax(bad))
        return f"suffixes at ranks {i} and {i + 1} are out of order"
    bad = (lcp < 0) | (a + lcp >= n) | (b + lcp >= n)
    bad[~bad] = key[(a + lcp)[~bad]] == key[(b + lcp)[~bad]]
    if bad.any():
        i = int(np.argmax(bad))
        return f"LCP {int(lcp[i])} at rank {i} is not followed by a mismatch"
    # in text order: the LCP of suffix t with the one ranked below it (0 for
    # the least suffix), and where its comparison may start
    h = np.zeros(n, dtype=np.int64)
    h[b] = lcp
    known = np.maximum(np.concatenate(([0], h[:-1])) - 1, 0)
    count = np.maximum(h - known, 0)
    t = np.repeat(np.arange(n), count)
    step = np.repeat(known - np.cumsum(count) + count, count) + np.arange(len(t))
    differ = key[t + step] != key[sa[np.maximum(rank[t] - 1, 0)] + step]
    if differ.any():
        i = int(rank[t[np.argmax(differ)]]) - 1
        return f"LCP {int(lcp[i])} at rank {i} covers unequal tokens"
    return None


def _deletion_pass(flcp: np.ndarray, length: np.ndarray, cap: np.ndarray):
    """Segments of the pieces members share with members of other runs.

    The run arrays are in grouped order (see the module docstring), and
    ``cap`` holds each run's necklace length; ``flcp[i]`` is the letter LCP
    of runs i and i + 1, -1 between letter groups.  Returns arrays (x, L,
    r0, r1, v, q) over segments in grouped positions: for r0 <= r <= r1 the
    nearest class-L runs of length r or more on either side of run x share
    at most v letters of text with it (capped at L), and q is the one that
    does, the one before on a tie.

    Per class, an event (x, t, side, k, h) says that from threshold r = t on
    the nearest class run on that side of x is class run k (-1: none), and
    that it shares h letters of text with x (-1: none).  Every run has an
    event at t = 1 on each side.  When class run c goes, at l_c + 1, its
    nearest longer class runs either side become neighbours; a run outside
    the class walks that chain from its nearest class runs.
    """
    n = len(length)
    X = np.arange(n)
    one = np.ones(n, dtype=np.int64)
    out = []
    for L in sorted(set(cap.tolist())):
        fl = np.append(np.minimum(flcp, L), -1)
        P = np.flatnonzero(cap == L)
        at = np.append(P, -1)  # at[-1] = -1: no run
        lp = length[P]
        up, dn = _nearest_longer(lp.tolist())
        h_up, h_dn = _span_min(fl, at[up], P), _span_min(fl, P, at[dn])
        # every run's nearest class run on each side, at r = 1
        before = np.searchsorted(P, X) - 1
        after = np.searchsorted(P, X, side="right")
        after[after == len(P)] = -1
        h_before, h_after = _span_min(fl, at[before], X), _span_min(fl, X, at[after])
        events = [(X, one, 0, before, h_before), (X, one, 1, after, h_after)]
        # class run c goes: up[c] and dn[c] share the text between them
        h = np.minimum(h_up, h_dn)
        s = dn >= 0
        events.append((P[dn[s]], lp[s] + 1, 0, up[s], h[s]))
        s = up >= 0
        events.append((P[up[s]], lp[s] + 1, 1, dn[s], h[s]))
        # runs outside the class walk the chains of nearest longer class runs
        outside = cap != L
        chains = ((before, h_before, up, h_up), (after, h_after, dn, h_dn))
        for side, (k, h, step, h_step) in enumerate(chains):
            x, k, h = X[outside], k[outside], h[outside]
            while True:
                live = (k >= 0) & (h >= 0)
                live[live] = lp[k[live]] < length[x[live]]
                x, k, h = x[live], k[live], h[live]
                if not len(x):
                    break
                t = lp[k] + 1
                h, k = np.minimum(h, h_step[k]), step[k]
                events.append((x, t, side, k, h))
        # one segment per run and threshold at which either side changes
        x, t, k, h = (np.concatenate([e[c] for e in events]) for c in (0, 1, 3, 4))
        side = np.concatenate([np.full(len(e[0]), e[2]) for e in events])
        order = np.lexsort((side, t, x))
        x, t, k, h, side = x[order], t[order], k[order], h[order], side[order]
        i = np.arange(len(x))
        lb = np.maximum.accumulate(np.where(side == 0, i, -1))
        la = np.maximum.accumulate(np.where(side == 1, i, -1))
        last = np.append((x[1:] != x[:-1]) | (t[1:] != t[:-1]), True)
        x, r0, lb, la = x[last], t[last], lb[last], la[last]
        r1 = np.where(np.append(x[1:] == x[:-1], False), np.append(r0[1:], 0) - 1, length[x])
        v = np.maximum(h[lb], h[la])
        q = np.where(h[lb] >= h[la], k[lb], k[la])
        s = v >= 0
        out.append((x[s], np.full(int(s.sum()), L), r0[s], r1[s], v[s], P[q[s]]))
    return tuple(np.concatenate(c) for c in zip(*out))


def _nearest_longer(lengths: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """For each position, the nearest position before it and after it with
    a strictly larger length; -1 where there is none.  One stack pass: a
    position pops the shorter ones, being the nearest longer one after them.
    """
    up, dn, stack = [-1] * len(lengths), [-1] * len(lengths), []
    for i, l in enumerate(lengths):
        while stack and lengths[stack[-1]] < l:
            dn[stack.pop()] = i
        if stack:
            # a run of equal length before i has the same nearest longer run
            j = stack[-1]
            up[i] = j if lengths[j] > l else up[j]
        stack.append(i)
    return np.array(up, dtype=np.int64), np.array(dn, dtype=np.int64)


def _span_min(fl: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """min fl[lo:hi] for each pair lo < hi, -1 where either is -1; fl ends
    in a pad entry, so that hi may be the last position."""
    out = np.full(len(lo), -1, dtype=np.int64)
    s = np.flatnonzero((lo >= 0) & (hi >= 0))
    if len(s):
        out[s] = np.minimum.reduceat(fl, np.stack((lo[s], hi[s]), axis=1).ravel())[::2]
    return out


@dataclass(frozen=True)
class PieceWitness:
    """A piece and two distinct members that start with it, named by id."""

    piece: Word
    member: int
    other: int

    def verify(self, S: SymmetrizedSet) -> bool:
        """Checks the ids against S, spelling only the piece's letters of each."""
        ids = (self.member, self.other)
        return (
            self.member != self.other
            and all(0 <= i < S.closure_size for i in ids)
            and all(S.member_word(i, len(self.piece)).letters == self.piece.letters for i in ids)
        )


@dataclass(frozen=True)
class PieceReport:
    max_piece_length: int
    witness: PieceWitness | None
    per_relator: tuple[dict, ...]
    closure_size: int


def max_pieces(S: SymmetrizedSet) -> PieceReport:
    """Exact maximum piece length with a re-checkable witness, carried by
    the first member (in member order) with a longest piece."""
    idx = S.index()
    j = int(np.argmax(idx.peak_piece))
    max_len = int(idx.peak_piece[j])
    witness = _witness(S, int(idx.peak_member[j])) if max_len > 0 else None
    # fold per-necklace maxima back onto the origin relators
    first = np.searchsorted(idx.peak_neck, np.arange(len(S.runs)))
    neck_max = np.maximum.reduceat(idx.peak_piece, first)
    rows = []
    for r, ks in zip(S.origins, S.origin_necklaces):
        m = int(neck_max[list(ks)].max())
        rows.append(
            {
                "relator": r,
                "length": len(r),
                "max_piece": m,
                "ratio": Fraction(m, len(r)),
            }
        )
    return PieceReport(max_len, witness, tuple(rows), S.closure_size)


@dataclass(frozen=True)
class MetricCheck:
    ok: bool
    bound: Fraction
    witness: PieceWitness | None = None
    carrier_length: int | None = None


def check_metric(S: SymmetrizedSet, bound: Fraction) -> MetricCheck:
    """Strict test: every piece p inside a member r has |p| < bound * |r|.

    A failure's witness is carried by the first member (in member order)
    that breaks the bound.
    """
    bound = Fraction(bound)
    if not 0 < bound <= 1:
        raise SmallCancellationError(f"bound must lie in (0, 1], got {bound}")
    idx = S.index()
    # |p| >= bound * L  <=>  |p| >= ceil(bound * L), exact per necklace
    least = [-(-bound.numerator * L // bound.denominator) for L in S.lengths.tolist()]
    fails = idx.peak_piece >= np.array(least)[idx.peak_neck]
    if not fails.any():
        return MetricCheck(True, bound)
    j = int(np.argmax(fails))
    w = _witness(S, int(idx.peak_member[j]))
    return MetricCheck(False, bound, witness=w, carrier_length=int(S.lengths[idx.peak_neck[j]]))


def _witness(S: SymmetrizedSet, i: int) -> PieceWitness:
    """Member i's longest piece, shared with its partner; spells only the piece."""
    b, partner = S.index().piece_at(i)
    return PieceWitness(S.member_word(i, b), i, partner)


@dataclass(frozen=True)
class DehnStep:
    position: int
    matched: int
    necklace: int
    offset: int


@dataclass
class DehnReduction:
    """The reduced word, kept as runs, and the steps that reached it;
    ``word`` spells it when first read."""

    runs: RunWord
    steps: list[DehnStep] = field(default_factory=list)

    @cached_property
    def word(self) -> Word:
        return self.runs.word()

    @property
    def is_empty(self) -> bool:
        return self.runs.is_identity

    @property
    def irreducible(self) -> bool:
        return not self.steps and not self.runs.is_identity


def dehn_reduce(w: Word | RunWord, S: SymmetrizedSet) -> Word:
    """Greedy Dehn reduction; result is empty iff w = 1 in the quotient.

    Requires C'(1/6), which the caller checks with ``check_metric``.  The
    result is cyclically reduced, so for nontrivial input it represents a
    conjugate of w.
    """
    return dehn_reduce_traced(w, S).word


def dehn_reduce_traced(w: Word | RunWord, S: SymmetrizedSet) -> DehnReduction:
    """Greedy Dehn reduction with its steps (see ``dehn_reduce``).

    Each round keeps the best match of every run of the cyclic word.  A step
    rewrites the runs around its match and rotates the word, so the next
    round takes the answers of the runs it left whole, shifted, and asks
    ``_RunSearch.best`` only for the rest (see ``_RunSearch``).  Every step
    is checked on runs before the rewrite: it must match more than half of
    its member, letter for letter.  A step that does not raises
    ``SmallCancellationError`` naming it.
    """
    w = RunWord.of(w)
    if w.alphabet != S.alphabet:
        raise SmallCancellationError("word and relator set use different alphabets")
    idx = S.index()
    if not idx.checked:
        raise SmallCancellationError(f"Dehn reduction needs a checked piece index: {idx.check_detail}")
    search, steps = idx.search, []
    letter, length = _join(w.letter[:0], w.length[:0], w.letter, w.length)
    n = int(length.sum())
    q0 = q1 = 0  # after a step, runs q0 .. q1 - 1 are the last round's runs at, at + 1, .. whole
    while n >= search.least:
        cyclic = _cyclic(letter, length)
        R = len(cyclic[0])
        drop = len(letter) - R  # the first run went into the last
        # runs lo .. hi - 1 see only whole runs up to look runs on: their answers stand
        lo, hi = q0 - drop, q1 - drop - search.look
        if hi <= lo or n < search.longest:
            best, linear = search.best(*cyclic, n, 0, R)
        else:
            fresh, linear = search.best(*cyclic, n, hi, R + lo)
            kept = best.take(np.arange(at, at + hi - lo), axis=1, mode="wrap")
            best = np.concatenate((fresh[:, R - hi :], kept, fresh[:, : R - hi]), axis=1)
        # the longest match, then the smallest start: starts grow with the run,
        # except that the run holding position 0 may start a match at or after 0
        b = int(best[0].argmax())
        if linear is not None and best[0, -1] == best[0, b]:
            b = min(b, R - 1, key=lambda r: (cyclic[2][r] + cyclic[1][r] - best[1, r]) % n)
        used, a, k, off = best[:, b].tolist()
        if not used:
            break
        start = int(cyclic[2][b] + cyclic[1][b] - a) % n
        if linear is not None:
            best[:, -1] = linear  # the run that holds position 0, as any other run
        L, member = int(S.lengths[k]), _cyclic(*S.runs[k])
        fits = L < 2 * used <= 2 * min(L, n) and 0 <= off < L
        if not (fits and _same(_cut(*cyclic, n, start, used), _cut(*member, L, off, used))):
            raise SmallCancellationError(
                f"Dehn step {len(steps) + 1} (position {start}, {used} letters, necklace {k}, "
                f"offset {off}) does not match more than half of its member"
            )
        rl, rn, _ = _cut(*member, L, off + used, L - used)
        yl, yn, first = _cut(*cyclic, n, start + used, n - used)
        letter, length, shift, q0, q1 = _splice(-rl[::-1], rn[::-1], yl, yn)
        at = (first + q0 - shift) % R
        n = int(length.sum())
        steps.append(DehnStep(start, used, k, off))
    if steps or n < len(w):
        w = RunWord(S.alphabet, letter, length)
    return DehnReduction(w, steps)


def _same(x: tuple, y: tuple) -> bool:
    """Whether two cuts (``_cut``) have the same runs."""
    return x[0].tolist() == y[0].tolist() and x[1].tolist() == y[1].tolist()


def _linear_runs(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Letter and length of each run of the word w, left to right."""
    bounds = np.concatenate(([0], np.flatnonzero(w[1:] != w[:-1]) + 1, [len(w)]))[: len(w) + 1]
    return w[bounds[:-1]], bounds[1:] - bounds[:-1]


def _spell(letter: np.ndarray, length: np.ndarray) -> tuple[int, ...]:
    """The letters of the word with these runs."""
    return tuple(letter.repeat(length).tolist())


def _cyclic(letter: np.ndarray, length: np.ndarray):
    """A word's cyclic runs (one that wraps around placed last) and starts."""
    begin = length.cumsum() - length
    if len(letter) < 2 or letter[0] != letter[-1]:
        return letter, length, begin
    return letter[1:], np.append(length[1:-1], length[-1] + length[0]), begin[1:]


def _cut(letter: np.ndarray, length: np.ndarray, begin: np.ndarray, n: int, t: int, count: int):
    """Runs of count <= n letters from position t of the cyclic word of n
    letters, and the index of the run that holds letter t."""
    R, b0 = len(letter), int(begin[0])
    t = (t - b0) % n + b0  # the runs cover b0 .. b0 + n - 1 once
    i = int(begin.searchsorted(t, "right")) - 1
    if not count:
        return letter[:0], length[:0], i
    u = t + count  # past the last letter, which may lie in the second lap
    lap = u > b0 + n
    j = int(begin.searchsorted(u - 1 - n * lap, "right")) + R * lap  # past its run
    if j <= R:
        cut, size = letter[i:j], length[i:j].copy()
    else:
        cut, size = np.concatenate((letter[i:], letter[: j - R])), np.concatenate((length[i:], length[: j - R]))
    size[0] -= t - begin[i]
    size[-1] -= begin[(j - 1) % R] + length[(j - 1) % R] + n * (j > R) - u
    return cut, size, i


def _join(xl: np.ndarray, xn: np.ndarray, yl: np.ndarray, yn: np.ndarray):
    """Runs of the cyclic core of x y, for reduced x and y given by runs."""
    return _splice(xl, xn, yl, yn)[:2]


def _splice(xl: np.ndarray, xn: np.ndarray, yl: np.ndarray, yn: np.ndarray):
    """``_join``, and the runs of y it leaves whole: for q0 <= q < q1, run q
    of the result is run q - shift of y, and no cancellation or merge
    touched it.  The first and last runs of y and of the result never count,
    as they may be cut."""
    X = len(xl)
    letter, length = np.concatenate((xl, yl)), np.concatenate((xn, yn))
    i, j = _cancel(letter, length, X - 1, X, -1)
    merged = bool(0 <= i < j < len(letter) and letter[i] == letter[j])
    if merged:
        length[j] += length[i]  # the runs between went whole, and these two share a letter
        length[i] = 0
    letter, length = letter[length > 0], length[length > 0]
    i2, j2 = _cancel(letter, length, 0, len(letter) - 1, 1)
    # a run of y past j lost the j - i - 1 runs between the seam's ends, run
    # i if merged, and the i2 runs before the cyclic core
    shift = X - (j - i - 1) - merged - i2
    q0, q1 = max(1, j - X + 1 + shift), min(j2 - i2, len(yl) - 1 + shift)
    return letter[i2 : j2 + 1], length[i2 : j2 + 1], shift, q0, q1


def _cancel(letter: np.ndarray, length: np.ndarray, i: int, j: int, d: int) -> tuple[int, int]:
    """Cancel runs i < j of inverse letters in place, moving i by d and j by
    -d past runs that go whole; returns where it stopped."""
    while 0 <= i < j < len(letter) and letter[i] == -letter[j]:
        c = min(length[i], length[j])
        length[i], length[j] = length[i] - c, length[j] - c
        gone_i, gone_j = not length[i], not length[j]
        i, j = i + d * gone_i, j - d * gone_j
        if not (gone_i and gone_j):
            break
    return i, j


class _RunSearch:
    """Dehn matching on run tokens over the piece index's checked arrays
    (module docstring).  A window of 2^j tokens is coded 2c + 1 if it is
    class c of that level, 2c if it falls just below it; ``odd[j]`` codes the
    text's (-1 past the end).  ``find[j]`` holds 2v - 1, 2v for the value v
    of each class (its token key, or its halves' codes packed with
    ``base[j - 1]``), so one binary search codes a word's window.
    ``group_*`` list the runs in per-letter S_p order, with an entry of no
    letter at either end.

    What a run's answer reads.  A member of necklace k has at most count_k
    + 1 runs, the first and last cut, so a match that starts inside word
    run i passes whole runs, one per run of the member, and ends inside run
    i + count_k at the latest.  The best match of run i (``best``) thus
    depends on the word only through the letters and lengths of runs i ..
    i + ``look`` (cyclically), ``look`` the most runs of a necklace, and,
    while n is below ``longest``, the longest necklace, through n, which
    caps a match.  Its start depends on where the run lies, so ``best``
    gives it as a, letters before the run's end.

    Coding reads further, and finds the same answer.  Lifting measures up
    to 2^``lift`` - 1 tokens, more than the text's longest LCP, which is at
    least count_p (the two copies of a necklace share count_p tokens).  So
    a word text cut there still covers the necklace of p, whose match is
    capped at its length either way, and it still shares with each
    neighbour q what S_p does, at most the longest LCP plus one token of
    S_p.  The top-level code, which places the text after a run among the
    S_p, reads 2^J tokens, J the last level.  So ``best`` codes ``ahead``
    tokens past the last run it answers.
    """

    def __init__(self, idx: _PieceIndex):
        self.idx, n = idx, len(idx.key)
        self.odd, self.find, self.base = [], [], []
        while not self.odd or self.base[-1] < 4 * n + 4:  # until the classes are the ranks
            j = len(self.odd)
            ids = np.concatenate(([0], np.cumsum(idx.lcp < (1 << j))))
            top = idx.sa[np.flatnonzero(np.diff(ids, prepend=-1))]  # one position per class
            low = self.odd[-1] if j else None
            value = low[top] * (self.base[-1] // 2) + low[np.minimum(top + (1 << j - 1), n)] if j else idx.key[top]
            self.find.append(np.stack((2 * value - 1, 2 * value), axis=1).ravel())
            self.odd.append(np.append(2 * ids[idx.rank] + 1, -1))
            self.base.append(4 * int(ids[-1]) + 8)  # twice the base that packs the next level
        self.lift = (int(idx.lcp.max(initial=0)) + 1).bit_length()
        self.ahead = max(1 << len(self.odd) - 1, 1 << self.lift)
        self.look = int(np.bincount(idx.neck).max())
        self.longest = int(idx.run_cap.max())
        # a word token's key (``_token_text``), its letter, length and next
        # letter cut to the spare ones above the text's, is linear in its
        # length for each pair of letter codes; kept doubled, as ``find`` is.
        # ``code_of`` holds the cut code of each signed letter, by index.
        M, D = idx.scale
        A = idx.S.alphabet.size
        self.code_of = np.roll(np.minimum(_letter_codes(np.arange(-A, A + 1)), D - 1), -A)
        self.code_count, self.length_cap = D, M - 1
        code, nxt = np.divmod(np.arange(D * D), D)
        key = [2 * (len(idx.S.runs) + _run_keys(code, length, nxt, M, D)) for length in (0, 1)]
        self.key_base, self.key_step = key[0], key[1] - key[0]
        g, run_code = idx.group, idx.code[idx.after - 1]
        self.stride = 2 * n + 2
        self.group_key = run_code[g] * self.stride + 2 * idx.rank[idx.after[g]] + 1
        pad = lambda c, v: np.concatenate(([v], c, [v]))
        self.group_run, self.group_x, self.group_code = pad(g, 0), pad(idx.after[g], 0), pad(run_code[g], -1)
        self.flcp = np.concatenate(([-1], idx.flcp, [-1, 0]))
        self.least_of, self.end_off = idx.run_cap // 2 + 1, idx.run_end - idx.S.starts[idx.neck]
        self.least = int(self.least_of.min())
        long = idx.run_len >= self.least_of
        self.long_run, self.long_code, self.long_x = np.flatnonzero(long), run_code[long], idx.after[long]
        # a match against a shorter run shares at least reach letters of text
        self.reach = int((self.least_of - idx.run_len)[~long].min(initial=np.iinfo(np.int64).max))

    def best(self, letter: np.ndarray, length: np.ndarray, begin: np.ndarray, n: int, lo: int, hi: int):
        """The best match of each run lo .. hi - 1 of the cyclic word with
        these runs, run indices taken mod their number R: an array of rows
        used, a, necklace and offset, one column per run.  The match starts a
        letters before the end of the run; used is 0 where no member matches
        more than half.

        Of a run's matches the longest wins, then the smallest start,
        necklace and offset.  Within a run a smaller a is a later start,
        except in a run that holds position 0 inside it: there starts from 0
        on come first.  That run's column is its answer in this word; the
        second value returned is its answer as any other run (None if no
        run in range holds 0), which is what a later round may reuse.
        """
        idx, R, W = self.idx, len(letter), hi - lo
        tok = np.arange(lo, hi + self.ahead + 1) % R
        code, size = self.code_of[letter[tok]], length[tok]
        # the codes of the windows of 2^j tokens from each token on
        pair = code[:-1] * self.code_count + code[1:]
        key = self.key_base[pair] + self.key_step[pair] * np.minimum(size[:-1], self.length_cap)
        ext = [self.find[0].searchsorted(key)]
        for j, (find, base, e) in enumerate(zip(self.find[1:], self.base, ext)):
            ext.append(find.searchsorted(e[: -(1 << j)] * base + 2 * e[1 << j :]))
        # the entries of each run's letter whose texts S_p rank just below and
        # just above the text after the run, which starts at the next run
        c = code[:W]
        u = self.group_key.searchsorted(c * self.stride + ext[-1][1 : W + 1], "right")
        near = np.concatenate((u, u + 1))
        pick = (self.group_code[near] == np.concatenate((c, c))).nonzero()[0]
        near, i = near[pick], pick % W
        x = self.group_x[near]
        if len(self.long_run):
            li, lj = (c[:, None] == self.long_code).nonzero()
            i, x = np.concatenate((i, li)), np.concatenate((x, self.long_x[lj]))
        # the letters each shares with the text after its word run: equal tokens
        # by binary lifting, then the shorter next ones if they share a letter
        at, y = i + 1, x
        for j in range(min(self.lift, R.bit_length()) - 1, -1, -1):  # up to R tokens or more
            d = (ext[j][at] == self.odd[j][y]) * (1 << j)
            at, y = at + d, y + d
        t = np.minimum(y - x, R)  # R tokens are the whole word
        last, y = i + t, x + t
        prefix = size.cumsum()
        h = prefix[last] - prefix[i] + np.minimum(size[last + 1], idx.size[y]) * (code[last + 1] == idx.code[y])
        found = [(i[len(pick) :], self.long_run[lj], h[len(pick) :])] if len(self.long_run) else []
        # walk away from the nearest entries while the texts share reach letters
        i, h, below = i[: len(pick)], h[: len(pick)], pick < W
        while (keep := h >= self.reach).any():
            s = keep.nonzero()[0]
            i, near, h, below = i[s], near[s], h[s], below[s]
            found.append((i, self.group_run[near], h))
            h = np.minimum(h, self.flcp[near - below])
            near = near + 1 - 2 * below
        out = np.zeros((4, W), dtype=np.int64)
        if not found:
            return out, None
        i, p, h = (np.concatenate(c) for c in zip(*found)) if len(found) > 1 else found[0]
        # the start a letters before the end of run i meets member (p, r) for
        # min(a, r) letters if a != r, min(a + h, L_p, n) if a = r: most at
        # a = r = m = min(l_i, l_p).  If that fires, so do a = r from cap - h
        # when that most is the cap, and a = m < r or r = m < a when it is m;
        # the longest, then the earliest start (the largest a), then
        # necklace and offset, wins
        lp, cap = idx.run_len[p], np.minimum(idx.run_cap[p], n)
        m = np.minimum(size[i], lp)
        used = np.minimum(m + h, cap)
        s = (used >= self.least_of[p]).nonzero()[0]
        if not len(s):
            return out, None
        i, p, h, lp, cap, m, used = i[s], p[s], h[s], lp[s], cap[s], m[s], used[s]
        flat = m == used
        a = m + (size[i] - m) * flat
        neck = idx.neck[p]
        off = self.end_off[p] - np.minimum(a, m) - (lp - m) * ((a == m) & flat)
        o = np.lexsort((off, neck, -a, -used, i))
        io = i[o]
        o = o[np.append(True, io[1:] != io[:-1])]  # each run's first
        out[:, i[o]] = used[o], a[o], neck[o], off[o]
        w, end = (R - 1 - lo) % R, int(begin[-1] + length[-1])
        s = (i == w).nonzero()[0] if w < W and end > n else ()
        if not len(s):
            return out, None
        # starts end - a .. end - a_lo; past n they wrap, and n itself is start 0
        a, m, lp, flat = a[s], m[s], lp[s], flat[s]
        a_lo = np.maximum(np.minimum(m, cap[s] - h[s]), 1)
        a -= (a - end + n) * ((end - a <= n) & (n <= end - a_lo))
        off = self.end_off[p[s]] - np.minimum(a, m) - (lp - m) * ((a == m) & flat)
        b = np.lexsort((off, neck[s], (end - a) % n, -used[s]))[0]
        linear = out[:, w].copy()
        out[:, w] = used[s[b]], a[b], neck[s[b]], off[b]
        return out, linear


@dataclass
class FamilyCheck:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class HypSpecGenReport:
    """All facts needed for the explicit hyperbolic-quotient generation step."""

    scale: int
    relator_length: int
    closure_size: int
    max_piece: int
    bound: Fraction
    checks: list[FamilyCheck]
    metric_witness: PieceWitness | None = None

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def max_scale() -> int:
    """The largest scale whose relator trio's integer codes fit int64.

    ``symmetrize`` keys the runs with ``_run_keys`` on the scale M = 2s^2 +
    s + 1, one above the relator length, and D = 5, one above the letter
    codes of a, b.  Its largest key there has the largest letter code, a
    smaller next letter and a run of M - 1 letters, and grows linearly with
    M.  Dehn reduction packs two window classes of the n <= 24s + 6 index
    tokens (six necklaces of 2s runs, each written twice and closed by a
    separator) into one code below 8 (n + 1)^2 (``_RunSearch``).  The other
    codes, the index keys on the scale of the longest run and the suffix
    array's pairs of ranks below (n + 1)^2, are smaller.
    """
    D, big = 5, 1 << 63
    top = lambda M: int(_run_keys(*np.array([[D - 1], [M - 1], [D - 2]], dtype=object), M, D)[0])
    most = (big - 1 - top(0)) // (top(1) - top(0))  # the largest M whose keys fit
    lo, hi = 1, 1 << 32  # lo fits, hi does not
    while hi - lo > 1:
        s = (lo + hi) // 2
        fits = 2 * s * s + s + 1 <= most and 8 * (24 * s + 7) ** 2 < big
        lo, hi = (s, hi) if fits else (lo, s)
    return lo


def verify_hyp_spec_gen(s: int) -> HypSpecGenReport:
    """Generate the scale-s relator family and verify its four defining facts.

    The three-relator set {R(a^-1, b^-1), R(b, a), R(b^-1, a^-1)} must be
    C'(1/8); its three relators must Dehn-reduce to the empty word; and
    R(a, b) itself must be Dehn-irreducible, which certifies it nontrivial
    in the quotient.  The report also carries ``piece-index-checked``, the
    self-check of the piece index behind the metric and Dehn reduction; if
    it fails, the four Dehn checks fail unrun.  A Dehn step that fails its
    own check fails its Dehn check with the step named.  Metric failure at
    small scales is reported as a failing check with its witness piece, not
    raised.
    """
    A = Alphabet(["a", "b"])
    a, b = A.gen("a"), A.gen("b")
    trio = relator_trio(s, a, b)
    survivor = r_family(s, a, b)
    S = symmetrize(list(trio.values()))
    bound = Fraction(1, 8)
    mc = check_metric(S, bound)
    pr = max_pieces(S)
    checks = [
        FamilyCheck(
            "metric-c-prime-1-8",
            mc.ok,
            f"max piece {pr.max_piece_length} over relator length {len(survivor)}"
            if mc.ok
            else f"piece {mc.witness.piece} has length {len(mc.witness.piece)} "
            f">= {bound} of {mc.carrier_length}",
        ),
        FamilyCheck("piece-index-checked", S.index().checked, S.index().check_detail),
    ]
    if not S.index().checked:  # Dehn reduction refuses it
        names = [f"reduces-to-empty {name}" for name in trio] + ["survivor-irreducible R(a,b)"]
        checks += [FamilyCheck(name, False, "not run: the piece index failed its self-check") for name in names]
    else:
        for name, r in trio.items():
            try:
                red = dehn_reduce_traced(r, S)
            except SmallCancellationError as e:  # a step that failed its check
                checks.append(FamilyCheck(f"reduces-to-empty {name}", False, str(e)))
                continue
            checks.append(
                FamilyCheck(
                    f"reduces-to-empty {name}",
                    red.is_empty,
                    "" if red.is_empty else f"left {len(red.runs)} letters",
                )
            )
        try:
            sur = dehn_reduce_traced(survivor, S)
        except SmallCancellationError as e:
            checks.append(FamilyCheck("survivor-irreducible R(a,b)", False, str(e)))
        else:
            checks.append(
                FamilyCheck(
                    "survivor-irreducible R(a,b)",
                    sur.irreducible and sur.runs == survivor,
                    f"no replacement applies across {len(survivor)} letters"
                    if sur.irreducible
                    else f"reduced by {len(sur.steps)} steps to {len(sur.runs)} letters",
                )
            )
    return HypSpecGenReport(
        scale=s,
        relator_length=len(survivor),
        closure_size=S.closure_size,
        max_piece=pr.max_piece_length,
        bound=bound,
        checks=checks,
        metric_witness=None if mc.ok else mc.witness,
    )
