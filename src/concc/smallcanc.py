"""Classical metric small cancellation over free groups, at full family scale.

A symmetrized set is stored as runs, the maximal blocks of one letter, of
one canonical rotation per orbit of cyclic permutation (a necklace), with
the inverse word's orbit added alongside.  Letters are spelled only on
read, one member or necklace at a time.  The piece index and Dehn reduction
work on the runs, so they grow with the number of runs even when the
closure has seven figures of members.  At scale s the relator family has
2s runs for 2s^2 + s letters.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .substrings import lcp_array, suffix_array
from .words import Alphabet, CyclicWord, Word, _least_rotation, is_cyclically_reduced


class SmallCancellationError(ValueError):
    """Raised for relator sets outside the classical hypotheses."""


def r_family(s: int, x: Word, y: Word) -> Word:
    """x y^{s+1} x^2 y^{s+2} ... x^s y^{2s}; length 2s^2 + s for letters x, y."""
    if s < 1:
        raise SmallCancellationError(f"scale must be >= 1, got {s}")
    if x.alphabet != y.alphabet:
        raise SmallCancellationError("x and y must share an alphabet")
    if len(x.letters) == 1 and len(y.letters) == 1 and x.letters[0] != -y.letters[0]:
        # letters that are not inverses cannot cancel: the word is reduced as written
        lx, ly = x.letters[0], y.letters[0]
        out: list[int] = []
        for i in range(1, s + 1):
            out.extend([lx] * i)
            out.extend([ly] * (s + i))
        return Word(x.alphabet, tuple(out))
    w = x.alphabet.identity()
    for i in range(1, s + 1):
        w = w * x ** i * y ** (s + i)
    return w


def relator_trio(s: int, a: Word, b: Word) -> dict[str, Word]:
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
    member or its first letters, ``necklaces`` all, when first read."""

    def __init__(
        self,
        origins: Sequence[Word],
        origin_necklaces: Sequence[tuple[int, int]],
        runs: Sequence[tuple[np.ndarray, np.ndarray]],
    ):
        self.origins = tuple(origins)
        self.alphabet: Alphabet = self.origins[0].alphabet
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
        return Word(self.alphabet, _spell(*_cut(*_cyclic(*self.runs[neck]), L, offset, count)))

    def member_word(self, i: int, count: int | None = None) -> Word:
        """Member ``i``, or its first ``count`` letters."""
        k = int(np.searchsorted(self.starts, i, side="right")) - 1
        return self.member(k, i - int(self.starts[k]), count)

    def index(self) -> "_PieceIndex":
        if self._index is None:
            self._index = _PieceIndex(self)
        return self._index


def symmetrize(relators: Sequence[Word]) -> SymmetrizedSet:
    """Build the closure; rejects identity, non-cyclically-reduced, and proper powers.

    Works on each relator's cyclic runs (see the module docstring): the
    token keys give the canonical rotation, the proper-power exponent and
    the necklace order without a pass over the letters in Python.
    """
    if not relators:
        raise SmallCancellationError("need at least one relator")
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
        if not is_cyclically_reduced(r):
            raise SmallCancellationError(f"relator {r} is not cyclically reduced")
        letter, length, _ = _cyclic(*_linear_runs(np.fromiter(r.letters, np.int64, len(r))))
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
        sa = suffix_array(key)
        lcp = lcp_array(key, sa)
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
        bounds = np.stack((pos[:-1], pos[1:]), axis=1).ravel()
        self.flcp = flcp = np.minimum.reduceat(np.append(letter_lcp, 0), bounds)[::2]
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
    word: Word
    steps: list[DehnStep] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return self.word.is_identity

    @property
    def irreducible(self) -> bool:
        return not self.steps and not self.word.is_identity


def dehn_reduce(w: Word, S: SymmetrizedSet) -> Word:
    """Greedy Dehn reduction; result is empty iff w = 1 in the quotient.

    Requires C'(1/6), which the caller checks with ``check_metric``.  The
    result is cyclically reduced, so for nontrivial input it represents a
    conjugate of w.
    """
    return dehn_reduce_traced(w, S).word


def dehn_reduce_traced(w: Word, S: SymmetrizedSet) -> DehnReduction:
    if w.alphabet != S.alphabet:
        raise SmallCancellationError("word and relator set use different alphabets")
    idx = S.index()
    if not idx.checked:
        raise SmallCancellationError(f"Dehn reduction needs a checked piece index: {idx.check_detail}")
    search, out = idx.search, DehnReduction(w)
    letters = np.fromiter(w.letters, np.int64, len(w))
    letter, length = _join(letters[:0], letters[:0], *_linear_runs(letters))
    n = int(length.sum())
    while n >= search.least:
        cyclic = _cyclic(letter, length)
        found = search.step(*cyclic, n)
        if found is None:
            break
        used, start, k, off = found
        L = int(S.lengths[k])
        rl, rn = _cut(*_cyclic(*S.runs[k]), L, off + used, L - used)
        letter, length = _join(-rl[::-1], rn[::-1], *_cut(*cyclic, n, start + used, n - used))
        n = int(length.sum())
        out.steps.append(DehnStep(start, used, k, off))
    if out.steps or n < len(w):
        out.word = Word(S.alphabet, _spell(letter, length))
    return out


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
    """Runs of count letters from position t of the cyclic word of n letters."""
    if not count:
        return letter[:0], length[:0]
    t = t % n + n * (t % n < begin[0])
    b = np.concatenate((begin, begin + n))
    e = b + np.concatenate((length, length))
    lo, hi = e.searchsorted(t, "right"), b.searchsorted(t + count)
    return np.concatenate((letter, letter))[lo:hi], np.minimum(e[lo:hi], t + count) - np.maximum(b[lo:hi], t)


def _join(xl: np.ndarray, xn: np.ndarray, yl: np.ndarray, yn: np.ndarray):
    """Runs of the cyclic core of x y, for reduced x and y given by runs."""
    letter, length = np.concatenate((xl, yl)), np.concatenate((xn, yn))
    i, j = _cancel(letter, length, len(xl) - 1, len(xl), -1)
    if 0 <= i < j < len(letter) and letter[i] == letter[j]:
        length[j] += length[i]  # the runs between went whole, and these two share a letter
        length[i] = 0
    letter, length = letter[length > 0], length[length > 0]
    i, j = _cancel(letter, length, 0, len(letter) - 1, 1)
    return letter[i : j + 1], length[i : j + 1]


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
    letter at either end."""

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
        self.span = 1 << len(self.odd)  # binary lifting moves fewer tokens than this
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

    def step(self, letter: np.ndarray, length: np.ndarray, begin: np.ndarray, n: int):
        """(used, start, necklace, offset) of the Dehn step the cyclic word
        with these runs takes, or None if no member matches more than half."""
        idx, R = self.idx, len(letter)
        code = _letter_codes(letter)
        # each word run's token key, its length and next letter cut to the
        # spare ones above the text's (``_token_text``)
        M, D = idx.scale
        nxt = np.minimum(np.concatenate((code[1:], code[:1])), D - 1)
        key = len(idx.S.runs) + _run_keys(code, np.minimum(length, M - 1), nxt, M, D)
        # the codes of the word's windows, over its runs repeated as far as lifting reads
        ext = [self.find[0].searchsorted(np.concatenate((2 * key,) * (2 + 2 * self.span // R)))]
        for j, (find, base, e) in enumerate(zip(self.find[1:], self.base, ext)):
            ext.append(find.searchsorted(e[: -(1 << j)] * base + 2 * e[1 << j :]))
        # the entries of each run's letter whose texts S_p rank just below and
        # just above the text after the run, which starts at the next run
        u = self.group_key.searchsorted(code * self.stride + ext[-1][1 : R + 1], "right")
        near = np.concatenate((u, u + 1))
        pick = (self.group_code[near] == np.concatenate((code, code))).nonzero()[0]
        near, i = near[pick], pick % R
        x = self.group_x[near]
        if len(self.long_run):
            li, lj = (code[:, None] == self.long_code).nonzero()
            i, x = np.concatenate((i, li)), np.concatenate((x, self.long_x[lj]))
        # the letters each shares with the text after its word run: equal tokens
        # by binary lifting, then the shorter next ones if they share a letter
        at, y = i + 1, x
        for j in range(min(len(self.odd), R.bit_length()) - 1, -1, -1):  # up to R tokens or more
            d = (ext[j][at] == self.odd[j][y]) * (1 << j)
            at, y = at + d, y + d
        t = np.minimum(y - x, R)  # R tokens are the whole word
        last, y = i + t, x + t
        z = (last + 1) % R
        prefix = np.concatenate((length, length)).cumsum()
        h = prefix[last] - prefix[i] + np.minimum(length[z], idx.size[y]) * (code[z] == idx.code[y])
        found = [(i[len(pick) :], self.long_run[lj], h[len(pick) :])] if len(self.long_run) else []
        # walk away from the nearest entries while the texts share reach letters
        i, h, below = i[: len(pick)], h[: len(pick)], pick < R
        while (keep := h >= self.reach).any():
            s = keep.nonzero()[0]
            i, near, h, below = i[s], near[s], h[s], below[s]
            found.append((i, self.group_run[near], h))
            h = np.minimum(h, self.flcp[near - below])
            near = near + 1 - 2 * below
        if not found:
            return None
        i, p, h = (np.concatenate(c) for c in zip(*found)) if len(found) > 1 else found[0]
        # the start a letters before the end of run i meets member (p, r) for
        # min(a, r) letters if a != r, min(a + h, L_p, n) if a = r: most at
        # a = r = m = min(l_i, l_p).  If that fires, so do a = r from cap - h
        # when that most is the cap, and a = m < r or r = m < a when it is m;
        # the longest (0 if it does not fire), then smallest start and offset win
        lp, cap = idx.run_len[p], np.minimum(idx.run_cap[p], n)
        m = np.minimum(length[i], lp)
        used = np.minimum(m + h, cap)
        used *= used >= self.least_of[p]
        if not used.any():
            return None
        flat = m == used
        a_lo, a_hi = np.maximum(np.minimum(m, cap - h), 1), m + (length[i] - m) * flat
        # starts end - a_hi .. end - a_lo; past n they wrap, and n itself is start 0
        end = begin[i] + length[i]
        a = a_hi - (a_hi - end + n) * ((end - a_hi <= n) & (n <= end - a_lo))
        r = np.minimum(a, m) + (lp - m) * ((a == m) & flat)
        start, neck, off = (end - a) % n, idx.neck[p], self.end_off[p] - r
        b = np.lexsort((off, neck, start, -used))[0]
        return int(used[b]), int(start[b]), int(neck[b]), int(off[b])


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


def verify_hyp_spec_gen(s: int) -> HypSpecGenReport:
    """Generate the scale-s relator family and verify its four defining facts.

    The three-relator set {R(a^-1, b^-1), R(b, a), R(b^-1, a^-1)} must be
    C'(1/8); its three relators must Dehn-reduce to the empty word; and
    R(a, b) itself must be Dehn-irreducible, which certifies it nontrivial
    in the quotient.  The report also carries ``piece-index-checked``, the
    self-check of the piece index behind the metric and Dehn reduction; if
    it fails, the four Dehn checks fail unrun.  Metric failure at small
    scales is reported as a failing check with its witness piece, not
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
            red = dehn_reduce_traced(r, S)
            checks.append(
                FamilyCheck(
                    f"reduces-to-empty {name}",
                    red.is_empty,
                    "" if red.is_empty else f"left {len(red.word)} letters",
                )
            )
        sur = dehn_reduce_traced(survivor, S)
        checks.append(
            FamilyCheck(
                "survivor-irreducible R(a,b)",
                sur.irreducible and sur.word == survivor,
                f"no replacement applies across {len(survivor)} letters"
                if sur.irreducible
                else f"reduced by {len(sur.steps)} steps to {len(sur.word)} letters",
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
