"""Classical metric small cancellation over free groups, at full family scale.

A symmetrized set is stored as necklaces: one canonical rotation per orbit
of cyclic permutation, with the inverse word's orbit added alongside.  The
closure members (all rotations of all necklaces) are never materialized;
the piece computation works on the necklaces' runs, the maximal blocks of
one letter, so the index grows with the number of runs even when the
closure has seven figures of members.  At scale s the relator family has
2s runs for 2s^2 + s letters.

Piece = common initial segment of two distinct closure members.  The index
finds, for every member, the longest piece it starts with.

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
the inverse of the rest of that member.  Against a member of length L only
a match of M = L//2 + 1 letters or more can fire, which is what makes a
small index enough.  Per length class, the q-grams (q = ceil(M/2)) of each
necklace are indexed at every d-th offset, d = M - q + 1: about four per
necklace.  A match of M letters or more that starts at member offset o
covers the whole q-grams starting at o .. o + d - 1, and any d cyclically
consecutive offsets hold one of the anchors, so every match that can fire
contains an anchored q-gram.  One round fingerprints all n cyclic q-grams
of the word (Karp-Rabin, prefix sums in numpy), looks them up among the
anchors, checks each hit letter by letter and extends it both ways, up to
min(L, n) letters in all.  The fingerprints only choose which alignments
to compare; a collision costs a comparison, never an answer.  The longest
match wins, then the smallest cyclic start, necklace and offset.  The
anchors of a length class are built when a Dehn round first needs them;
the piece scans never build them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .substrings import lcp_array, suffix_array, window_hashes
from .words import Alphabet, CyclicWord, Word, _least_rotation, is_cyclically_reduced

# Karp-Rabin fingerprints of the Dehn matcher: a prime below 2^31 and a unit
# mod it.  Fingerprints only pick candidates; every one is checked letter by
# letter, so the modulus bears on speed, never on answers.
_HASH_MODULUS = 2_147_483_647
_HASH_BASE = 1_000_003
# most comparisons one batch may hold at once (Dehn hits, index self-checks),
# and about the most letters of the Dehn anchors fingerprinted at once
_PAIR_BUDGET = 1 << 16


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
    """Closure of a relator set under cyclic permutation and inversion."""

    def __init__(
        self,
        origins: Sequence[Word],
        necklaces: Sequence[CyclicWord],
        origin_necklaces: Sequence[tuple[int, int]],
        runs: Sequence[tuple[np.ndarray, np.ndarray]],
    ):
        self.origins = tuple(origins)
        self.necklaces = tuple(necklaces)
        # indices of the necklaces of each origin relator and of its inverse
        self.origin_necklaces = tuple(origin_necklaces)
        # letter and length of each necklace's runs, from its first letter on
        self.runs = tuple(runs)
        self._index: _PieceIndex | None = None
        self._anchors: dict[int, _AnchorIndex] = {}

    @property
    def alphabet(self) -> Alphabet:
        return self.necklaces[0].alphabet

    @property
    def closure_size(self) -> int:
        return sum(len(n) for n in self.necklaces)

    def members(self) -> Iterator[Word]:
        for n in self.necklaces:
            yield from n.rotations()

    def member(self, neck: int, offset: int) -> Word:
        ls = self.necklaces[neck].letters
        offset %= len(ls)
        return Word(self.alphabet, ls[offset:] + ls[:offset])

    def contains(self, w: Word) -> bool:
        return is_cyclically_reduced(w) and bool(w) and any(
            CyclicWord(w) == n for n in self.necklaces
        )

    def index(self) -> "_PieceIndex":
        if self._index is None:
            self._index = _PieceIndex(self)
        return self._index

    def anchors(self, L: int) -> "_AnchorIndex":
        """Dehn matcher of length class L, built on first use."""
        if L not in self._anchors:
            self._anchors[L] = _AnchorIndex(self, L)
        return self._anchors[L]


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
        letter, length = _cyclic_runs(np.fromiter(r.letters, np.int64, len(r)))
        e = int(length[0]) if len(letter) == 1 else _power(_cyclic_keys(letter, length, M, D))
        if e > 1:
            raise SmallCancellationError(
                f"relator {r} is a proper power (exponent {e}); "
                "the metric conditions exclude proper powers"
            )
        pair = [
            _necklace(alphabet, letter, length, M, D),
            _necklace(alphabet, -letter[::-1], length[::-1], M, D),
        ]
        necklaces.update(pair)
        origin_keys.append((pair[0][0], pair[1][0]))
    # same-length necklaces compare as their token keys do
    ordered = sorted(necklaces.items(), key=lambda kc: (len(kc[1][0]), kc[0]))
    position = {tokens: k for k, (tokens, _) in enumerate(ordered)}
    return SymmetrizedSet(
        relators,
        [c for _, (c, _) in ordered],
        [(position[a], position[b]) for a, b in origin_keys],
        [runs for _, (_, runs) in ordered],
    )


def _cyclic_runs(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Letter and length of each run of the cyclic word w, a run that wraps
    around merged into one, from the first run boundary on."""
    begin = np.flatnonzero(w != np.roll(w, 1))
    if not len(begin):
        return w[:1], np.array([len(w)])
    return w[begin], np.diff(begin, append=begin[0] + len(w))


def _run_keys(code: np.ndarray, size: np.ndarray, nxt: np.ndarray, M: int, D: int) -> np.ndarray:
    """Token key of each run: (letter, side, +-length, next letter) as one
    integer, for letter codes ``code`` (letter_code + 1) below D, lengths
    below M and next-letter codes ``nxt`` (0 for none).

    Side 0 and +length when the next letter is smaller than the run's
    letter, side 1 and -length otherwise.  Comparing keys orders the token
    sequences exactly as the letter sequences they spell: two runs of one
    letter part where the shorter one ends, and the letter after it is
    below or above the run's letter.  The piece index and ``symmetrize``
    both rank runs by these keys.
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


def _necklace(alphabet: Alphabet, letter: np.ndarray, length: np.ndarray, M: int, D: int):
    """The token keys of a primitive cyclic word's least rotation, and its
    ``CyclicWord`` with that rotation's runs (letters, lengths), from the
    word's runs.

    The least rotation starts at a run boundary (module docstring), and
    rotations from run boundaries compare as their token keys do, so Booth
    runs over the R keys instead of the letters.
    """
    key = _cyclic_keys(letter, length, M, D)
    k = _least_rotation(key.tolist())
    runs = np.roll(letter, -k), np.roll(length, -k)
    word = CyclicWord.from_least_rotation(alphabet, tuple(np.repeat(*runs).tolist()))
    return tuple(np.roll(key, -k).tolist()), (word, runs)


class _PieceIndex:
    """Longest pieces of all members, kept as per-run segments.

    Every necklace starts at a run boundary, being its least rotation, so
    member (p, r), which starts r letters before the end of run p, is a
    fixed member: member ``run_end[p] - r`` when members are numbered
    necklace by necklace (member ``starts[k] + off`` is rotation ``off`` of
    necklace ``k``).  The module docstring derives its longest piece from
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
    member; ``best``, ``partner`` (-1 where ``best`` is 0) and
    ``member_len`` answer every member and are built only when read.
    ``checked`` tells whether the suffix array and LCP array of the run
    tokens passed their self-check, and ``check_detail`` says what was
    checked or where it failed.
    """

    def __init__(self, S: SymmetrizedSet):
        self.S = S
        self.lengths = np.array([len(n) for n in S.necklaces], dtype=np.int64)
        self.starts = np.concatenate(([0], np.cumsum(self.lengths)))
        letter, self.run_len, self.run_end, neck = _runs(S.runs)
        key, size, code, after = _token_text(letter, self.run_len, neck)
        sa = suffix_array(key)
        lcp = lcp_array(key, sa)
        fault = _index_fault(key, sa, lcp)
        self.checked = fault is None
        self.check_detail = fault or f"suffix and LCP arrays of {len(key)} run tokens checked"
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
        rank = np.empty(n, dtype=np.int64)
        rank[sa] = np.arange(n)
        first = code[after - 1]
        g = np.lexsort((rank[after], first))
        pos = rank[after][g]
        # letter LCP of group neighbours: a range minimum; -1 between groups
        bounds = np.stack((pos[:-1], pos[1:]), axis=1).ravel()
        flcp = np.minimum.reduceat(np.append(letter_lcp, 0), bounds)[::2]
        flcp[first[g][1:] != first[g][:-1]] = -1
        self.run_cap = self.lengths[neck]
        x, L, r0, r1, v, q = _deletion_pass(flcp, self.run_len[g], self.run_cap[g])
        order = np.lexsort((r0, L, g[x]))
        self.segments = tuple(c[order] for c in (g[x], L, r0, r1, v, g[q]))
        p, L, r0, r1, v, q = self.segments
        member = np.concatenate((self.run_end - self.run_len, self.run_end[p] - r1))
        piece = np.concatenate((self.run_len - 1, np.minimum(v + r1, np.minimum(self.run_cap[p], L))))
        order = np.argsort(member, kind="stable")
        self.peak_member, self.peak_piece = member[order], piece[order]
        self.peak_neck = np.concatenate((neck, neck[p]))[order]

    def member_word(self, i: int) -> Word:
        k = int(np.searchsorted(self.starts, i, side="right")) - 1
        return self.S.member(k, i - int(self.starts[k]))

    def piece_at(self, i: int) -> tuple[int, int]:
        """Longest piece of member i and the member it shares it with, -1
        where the piece is empty."""
        p = int(np.searchsorted(self.run_end, i, side="right"))
        best, partner = self._answers(p, p + 1)
        k = i - int(self.run_end[p] - self.run_len[p])
        return int(best[k]), int(partner[k])

    @cached_property
    def best(self) -> np.ndarray:
        best, self.partner = self._answers(0, len(self.run_len))
        return best

    @cached_property
    def partner(self) -> np.ndarray:
        self.best, partner = self._answers(0, len(self.run_len))
        return partner

    @cached_property
    def member_len(self) -> np.ndarray:
        return np.repeat(self.lengths, self.lengths)

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
    letter suffixes they spell; separators rank below every letter.
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
    M, D = int(size.max()) + 1, int(code.max()) + 1
    key = np.where(code > 0, K + _run_keys(code, size, nxt, M, D), -code - 1)
    return key, size, code, at + 1


def _index_fault(key: np.ndarray, sa: np.ndarray, lcp: np.ndarray) -> str | None:
    """Where sa or lcp fails to be the suffix or LCP array of key; None if
    both are right.

    sa must be a permutation whose adjacent pairs (a, b) pass the neighbour
    test of Burkhardt and Kärkkäinen: key[a] < key[b], or the keys are equal
    and the suffix after a ranks below the one after b, the end ranking
    first.  Each lcp[i] is checked exactly: the suffixes at ranks i and i + 1
    agree token by token on their first lcp[i] tokens, and the next tokens
    differ.  The text ends in a token that occurs nowhere else, so two
    suffixes always differ inside it.
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
    # compare the common prefixes in batches of about _PAIR_BUDGET tokens
    ends = np.cumsum(lcp)
    cuts = np.searchsorted(ends, np.arange(_PAIR_BUDGET, int(ends[-1]), _PAIR_BUDGET))
    for lo, hi in zip(np.concatenate(([0], cuts)), np.concatenate((cuts, [n - 1]))):
        h = lcp[lo:hi]
        pair = np.repeat(np.arange(lo, hi), h)
        step = np.arange(len(pair)) - np.repeat(np.cumsum(h) - h, h)
        differ = key[a[pair] + step] != key[b[pair] + step]
        if differ.any():
            i = int(pair[np.argmax(differ)])
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
    piece: Word
    member: Word
    other: Word

    def verify(self, S: SymmetrizedSet) -> bool:
        p = self.piece.letters
        return (
            self.member.letters[: len(p)] == p
            and self.other.letters[: len(p)] == p
            and self.member != self.other
            and S.contains(self.member)
            and S.contains(self.other)
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
    witness = None
    if max_len > 0:
        i = int(idx.peak_member[j])
        u = idx.member_word(i)
        v = idx.member_word(idx.piece_at(i)[1])
        witness = PieceWitness(Word(S.alphabet, u.letters[:max_len]), u, v)
    # fold per-necklace maxima back onto the origin relators
    first = np.searchsorted(idx.peak_neck, np.arange(len(idx.lengths)))
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
    least = [-(-bound.numerator * L // bound.denominator) for L in idx.lengths.tolist()]
    fails = idx.peak_piece >= np.array(least)[idx.peak_neck]
    if not fails.any():
        return MetricCheck(True, bound)
    j = int(np.argmax(fails))
    i = int(idx.peak_member[j])
    b, partner = idx.piece_at(i)
    u = idx.member_word(i)
    v = idx.member_word(partner)
    w = PieceWitness(Word(S.alphabet, u.letters[:b]), u, v)
    return MetricCheck(False, bound, witness=w, carrier_length=int(idx.lengths[idx.peak_neck[j]]))


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


def dehn_reduce(w: Word, S: SymmetrizedSet, verify_metric: bool = False) -> Word:
    """Greedy Dehn reduction; result is empty iff w = 1 in the quotient.

    Requires C'(1/6); pass ``verify_metric=True`` to have it checked here
    instead of by the caller.  The result is cyclically reduced, so for
    nontrivial input it represents a conjugate of w.
    """
    return dehn_reduce_traced(w, S, verify_metric).word


def dehn_reduce_traced(
    w: Word, S: SymmetrizedSet, verify_metric: bool = False
) -> DehnReduction:
    if verify_metric:
        mc = check_metric(S, Fraction(1, 6))
        if not mc.ok:
            raise SmallCancellationError(
                f"relator set fails C'(1/6): piece {mc.witness.piece} in a length-"
                f"{mc.carrier_length} member"
            )
    if w.alphabet != S.alphabet:
        raise SmallCancellationError("word and relator set use different alphabets")
    classes = sorted({len(n) for n in S.necklaces})
    out = DehnReduction(w)
    word = _cyclic_core(np.array(w.letters, dtype=np.int64))
    while len(word):
        n = len(word)
        tripled = np.concatenate((word, word, word))
        found = [S.anchors(L).runs(tripled, n) for L in classes if n > L // 2]
        found = [c for c in found if c is not None]
        if not found:
            break
        used, start, neck, off = (np.concatenate(col) for col in zip(*found))
        # longest match, then smallest start, necklace and offset
        i = np.lexsort((off, neck, start, -used))[0]
        used, start, k, off = int(used[i]), int(start[i]), int(neck[i]), int(off[i])
        member = S.anchors(len(S.necklaces[k])).member(k, off)
        rotated = tripled[start : start + n]
        assert np.array_equal(member[:used], rotated[:used]), "index reported a phantom match"
        repl, rest = -member[used:][::-1], rotated[used:]
        c = _cancelled(repl, rest, min(len(repl), len(rest)))
        word = _cyclic_core(np.concatenate((repl[: len(repl) - c], rest[c:])))
        out.steps.append(DehnStep(start, used, k, off))
    out.word = Word(S.alphabet, tuple(word.tolist()))
    return out


def _cancelled(left: np.ndarray, right: np.ndarray, most: int) -> int:
    """Letters that cancel, up to most, where left ends and right begins."""
    inverse = left[::-1][:most] == -right[:most]
    return int(np.logical_and.accumulate(inverse).sum())


def _cyclic_core(word: np.ndarray) -> np.ndarray:
    """The cyclically reduced core of a freely reduced word."""
    c = _cancelled(word, word, len(word) // 2)
    return word[c : len(word) - c]


class _AnchorIndex:
    """Anchored q-grams of the necklaces of one length class L (see the
    module docstring for why they catch every match that can fire).

    ``rows`` holds each necklace of the class three times over, as int32
    (letters are bounded by the alphabet size), so a stretch of up to L
    letters either side of any offset is a slice.  Anchors are kept sorted
    by fingerprint, each with its start in the flattened rows.
    """

    def __init__(self, S: SymmetrizedSet, L: int):
        self.L = L
        self.least = L // 2 + 1
        self.q = q = (self.least + 1) // 2
        d = self.least - q + 1
        self.necks = np.array([k for k, n in enumerate(S.necklaces) if len(n) == L])
        self.row_of = {k: r for r, k in enumerate(self.necks.tolist())}
        self.rows = rows = np.empty((len(self.necks), 3 * L), dtype=np.int32)
        for row, k in enumerate(self.necks.tolist()):
            rows[row, :L] = S.necklaces[k].letters
        rows[:, L : 2 * L] = rows[:, 2 * L :] = rows[:, :L]
        offsets = np.arange(0, L, d)
        at = (np.arange(len(self.necks))[:, None] * 3 * L + offsets).ravel()
        # fingerprint the anchored q-grams a batch of about _PAIR_BUDGET letters at a time
        flat, step = rows.ravel(), max(1, _PAIR_BUDGET // q)
        hashes = np.concatenate([
            window_hashes(flat[at[i : i + step, None] + np.arange(q)].ravel(), q,
                          _HASH_MODULUS, _HASH_BASE)[::q]
            for i in range(0, len(at), step)
        ])
        order = np.argsort(hashes, kind="stable")
        self.hashes, self.anchor_starts = hashes[order], at[order]

    def member(self, k: int, off: int) -> np.ndarray:
        return self.rows[self.row_of[k], off : off + self.L]

    def runs(self, tripled: np.ndarray, n: int):
        """Best match per verified anchor hit of the cyclic word tripled[:n].

        Returns arrays (used, start, necklace, offset) over the hits whose
        run, capped at min(L, n), is long enough for a Dehn step, or None
        if there is none; start is the smallest cyclic start of such a
        window, and offset that window's rotation of the necklace.
        """
        L, q = self.L, self.q
        h = window_hashes(tripled[: n + q - 1], q, _HASH_MODULUS, _HASH_BASE)
        lo = np.searchsorted(self.hashes, h, side="left")
        count = np.searchsorted(self.hashes, h, side="right") - lo
        pos = np.flatnonzero(count)
        if not len(pos):
            return None
        # every (word position, anchor) pair with equal fingerprints
        count = count[pos]
        pair = np.repeat(lo[pos] - np.cumsum(count) + count, count) + np.arange(int(count.sum()))
        hit, anchor = np.repeat(pos, count), self.anchor_starts[pair]
        # compare up to cap - q letters either side of each hit's q-gram
        cap = min(L, n)
        side = cap - q
        t = np.arange(-side, cap)
        flat = self.rows.ravel()
        found = []
        step = max(1, _PAIR_BUDGET // len(t))
        for s in range(0, len(hit), step):
            i, a = hit[s : s + step], anchor[s : s + step]
            same = tripled[(i + n)[:, None] + t] == flat[(a + L)[:, None] + t]
            left = _leading(same[:, :side][:, ::-1])
            right = _leading(same[:, side + q :])
            used = np.minimum(left + q + right, cap)
            # a fingerprint match counts only once its q-gram is equal letter by letter
            keep = same[:, side : side + q].all(axis=1) & (used >= self.least)
            i, a, used, left = i[keep], a[keep], used[keep], left[keep]
            # windows of the capped length start at first .. first + slack;
            # when that range passes a multiple of n, start 0 is the smallest
            first = i - left
            slack = left + q + right[keep] - used
            wrap = np.mod(first, n) + slack >= n
            begin = np.where(wrap, first + n - np.mod(first, n), first)
            row, off = np.divmod(a, 3 * L)
            found.append((used, np.mod(begin, n), self.necks[row], np.mod(off + begin - i, L)))
        cols = [np.concatenate(col) for col in zip(*found)]
        return cols if len(cols[0]) else None


def _leading(eq: np.ndarray) -> np.ndarray:
    """Length of the run of True that opens each row."""
    return np.logical_and.accumulate(eq, axis=1).sum(axis=1)


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
    self-check of the piece index behind the metric.  Metric failure at
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
