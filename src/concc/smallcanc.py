"""Classical metric small cancellation over free groups, at full family scale.

A symmetrized set is stored as necklaces: one canonical rotation per orbit
of cyclic permutation, with the inverse word's orbit added alongside.  The
closure members (all rotations of all necklaces) are never materialized;
the piece computation works on each necklace's doubled letter string, so
total index size stays linear in the sum of relator lengths even when the
closure has six figures of members.

Piece = common initial segment of two distinct closure members.  The index
finds, for every member, the longest piece it starts with: a suffix array
over the concatenated doubled necklaces gives the members in suffix order
and the longest common prefix of each adjacent pair; the common prefix of
any two members is the minimum over the pairs between them, capped at
both lengths.  Members of one length class share their cap, so among the
class members on one side of a member the nearest in suffix order shares
the longest capped prefix with it.  One sweep per length class and
direction, a segmented running minimum in numpy, therefore finds every
member's longest piece.  A single sweep over all members would not: with
mixed relator lengths the nearest member may be a short one whose cap
hides a longer piece shared with a member further away.

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
from typing import Iterator, Sequence

import numpy as np

from .substrings import lcp_array, suffix_array, window_hashes
from .words import (
    Alphabet,
    CyclicWord,
    Word,
    is_cyclically_reduced,
    letter_code,
    primitive_root,
)

# Karp-Rabin fingerprints of the Dehn matcher: a prime below 2^31 and a unit
# mod it.  Fingerprints only pick candidates; every one is checked letter by
# letter, so the modulus bears on speed, never on answers.
_HASH_MODULUS = 2_147_483_647
_HASH_BASE = 1_000_003
# most letter comparisons one batch of Dehn hits may hold at once
_PAIR_BUDGET = 1 << 16


class SmallCancellationError(ValueError):
    """Raised for relator sets outside the classical hypotheses."""


def r_family(s: int, x: Word, y: Word) -> Word:
    """x y^{s+1} x^2 y^{s+2} ... x^s y^{2s}; length 2s^2 + s for letters x, y."""
    if s < 1:
        raise SmallCancellationError(f"scale must be >= 1, got {s}")
    if x.alphabet != y.alphabet:
        raise SmallCancellationError("x and y must share an alphabet")
    if len(x.letters) == 1 and len(y.letters) == 1:
        lx, ly = x.letters[0], y.letters[0]
        out: list[int] = []
        for i in range(1, s + 1):
            out.extend([lx] * i)
            out.extend([ly] * (s + i))
        return x.alphabet.word(out)
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
    ):
        self.origins = tuple(origins)
        self.necklaces = tuple(necklaces)
        # indices of the necklaces of each origin relator and of its inverse
        self.origin_necklaces = tuple(origin_necklaces)
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
    """Build the closure; rejects identity, non-cyclically-reduced, and proper powers."""
    if not relators:
        raise SmallCancellationError("need at least one relator")
    alphabet = relators[0].alphabet
    necklaces: dict[tuple, CyclicWord] = {}
    keys: list[tuple[tuple, tuple]] = []
    for r in relators:
        if r.alphabet != alphabet:
            raise SmallCancellationError("relators over different alphabets")
        if r.is_identity:
            raise SmallCancellationError("identity relator")
        if not is_cyclically_reduced(r):
            raise SmallCancellationError(f"relator {r} is not cyclically reduced")
        _, e = primitive_root(r)
        if e > 1:
            raise SmallCancellationError(
                f"relator {r} is a proper power (exponent {e}); "
                "the metric conditions exclude proper powers"
            )
        pair = (CyclicWord(r), CyclicWord(r.inverse()))
        for c in pair:
            necklaces[c.letters] = c
        keys.append((pair[0].letters, pair[1].letters))
    ordered = sorted(
        necklaces.values(), key=lambda c: (len(c), [letter_code(l) for l in c.letters])
    )
    position = {c.letters: k for k, c in enumerate(ordered)}
    return SymmetrizedSet(
        relators, ordered, [(position[a], position[b]) for a, b in keys]
    )


class _PieceIndex:
    """Per-member longest-piece table over the doubled-necklace text.

    Members are numbered necklace by necklace: member ``starts[k] + off`` is
    rotation ``off`` of necklace ``k``.  The per-member arrays are int32 and
    run in suffix order: ``order[i]`` is the i-th member, ``flcp[i]`` the
    longest common prefix of the suffixes of members i and i+1, ``best[i]``
    the longest piece member i starts with and ``partner[i]`` a member it
    shares that piece with.
    """

    def __init__(self, S: SymmetrizedSet):
        self.S = S
        self.lengths = np.array([len(n) for n in S.necklaces], dtype=np.int32)
        self.starts = np.concatenate(([0], np.cumsum(self.lengths, dtype=np.int64)))
        self.order, self.flcp = _member_order(S.necklaces, self.starts)
        neck = np.searchsorted(self.starts, self.order, side="right") - 1
        self.member_len = self.lengths[neck]
        self.best, self.partner = _sweep(self.flcp, self.member_len)

    def member_word(self, i: int) -> Word:
        g = int(self.order[i])
        k = int(np.searchsorted(self.starts, g, side="right")) - 1
        return self.S.member(k, g - int(self.starts[k]))


def _member_order(necks: Sequence[CyclicWord], starts: np.ndarray):
    """Members in suffix order of the text, and the LCP of each adjacent pair.

    The text holds each necklace twice, so every rotation is read in full
    from its first copy, followed by a separator of its own that stops
    common prefixes from running into the next necklace.
    """
    parts = []
    for k, n in enumerate(necks):
        ls = np.array(n.letters, dtype=np.int64)
        codes = 2 * np.abs(ls) - 1 + (ls < 0)  # letter_code + 1, so 0 never occurs
        parts += [codes, codes, [-(k + 1)]]
    text = np.concatenate(parts)
    # necklace k opens the text at 2 * starts[k] + k
    m = int(starts[-1])
    member = np.full(len(text), -1, dtype=np.int32)
    ids = np.arange(m, dtype=np.int64)
    neck = np.repeat(np.arange(len(necks)), np.diff(starts))
    member[ids + starts[neck] + neck] = ids
    sa = suffix_array(text)
    lcp = lcp_array(text, sa)
    by_rank = member[sa]
    ranks = np.flatnonzero(by_rank >= 0)
    # a closure holds r and r^-1, never conjugate, so there are two members at least
    flcp = np.minimum.reduceat(lcp[: ranks[-1]], ranks[:-1])
    return by_rank[ranks], flcp.astype(np.int32)


def _sweep(flcp: np.ndarray, member_len: np.ndarray):
    """For each member: longest piece it starts with, and a partner member.

    One pass per length class and direction; the nearest class member on
    each side is the only candidate of that class worth checking.
    """
    m = len(member_len)
    best = np.zeros(m, dtype=np.int32)
    partner = np.full(m, -1, dtype=np.int32)
    for cap in np.unique(member_len).tolist():
        in_class = member_len == cap
        before = _nearest_before(flcp, in_class, cap)
        val, src = _nearest_before(flcp[::-1], in_class[::-1], cap)
        after = val[::-1], np.where(src >= 0, m - 1 - src, -1)[::-1]
        for val, src in (before, after):
            val = np.minimum(val, member_len)
            better = val > best
            best[better] = val[better]
            partner[better] = src[better]
    return best, partner


def _nearest_before(flcp: np.ndarray, in_class: np.ndarray, cap: int):
    """Common prefix, capped at cap, of each member with the nearest class
    member before it, and that member's index; 0 and -1 where there is none.

    A running minimum of flcp that restarts at every class member: lowering
    each segment below everything before it turns it into one global
    running minimum.
    """
    m = len(in_class)
    val = np.zeros(m, dtype=np.int64)
    src = np.full(m, -1, dtype=np.int64)
    seg = np.cumsum(in_class[:-1], dtype=np.int64)
    lift = seg * (cap + 1)
    run = np.minimum.accumulate(np.minimum(flcp, cap) - lift) + lift
    val[1:] = np.where(seg > 0, run, 0)
    src[1:] = np.maximum.accumulate(np.where(in_class, np.arange(m), -1))[:-1]
    return val, src


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
    """Exact maximum piece length with a re-checkable witness."""
    idx = S.index()
    best_i = int(np.argmax(idx.best))
    max_len = int(idx.best[best_i])
    witness = None
    if max_len > 0:
        u = idx.member_word(best_i)
        v = idx.member_word(int(idx.partner[best_i]))
        witness = PieceWitness(Word(S.alphabet, u.letters[:max_len]), u, v)
    # fold per-necklace maxima back onto the origin relators
    by_member = np.empty_like(idx.best)
    by_member[idx.order] = idx.best
    neck_max = np.maximum.reduceat(by_member, idx.starts[:-1])
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
    """Strict test: every piece p inside a member r has |p| < bound * |r|."""
    bound = Fraction(bound)
    if not 0 < bound <= 1:
        raise SmallCancellationError(f"bound must lie in (0, 1], got {bound}")
    idx = S.index()
    # |p| >= bound * L  <=>  |p| >= ceil(bound * L), exact per length class
    fails = np.zeros(len(idx.best), dtype=bool)
    for L in set(idx.lengths.tolist()):
        least = -(-bound.numerator * L // bound.denominator)
        fails |= (idx.member_len == L) & (idx.best >= least)
    if not fails.any():
        return MetricCheck(True, bound)
    i = int(np.argmax(fails))
    b = int(idx.best[i])
    u = idx.member_word(i)
    v = idx.member_word(int(idx.partner[i]))
    w = PieceWitness(Word(S.alphabet, u.letters[:b]), u, v)
    return MetricCheck(False, bound, witness=w, carrier_length=int(idx.member_len[i]))


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

    ``rows`` holds each necklace of the class three times over, so a
    stretch of up to L letters either side of any offset is a slice.
    Anchors are kept sorted by fingerprint, each with its start in the
    flattened rows.
    """

    def __init__(self, S: SymmetrizedSet, L: int):
        self.L = L
        self.least = L // 2 + 1
        self.q = q = (self.least + 1) // 2
        d = self.least - q + 1
        self.necks = np.array([k for k, n in enumerate(S.necklaces) if len(n) == L])
        self.row_of = {k: r for r, k in enumerate(self.necks.tolist())}
        once = np.array([S.necklaces[k].letters for k in self.necks], dtype=np.int64)
        self.rows = np.tile(once, 3)
        offsets = np.arange(0, L, d)
        at = (np.arange(len(self.necks))[:, None] * 3 * L + offsets).ravel()
        grams = self.rows[:, offsets[:, None] + np.arange(q)].ravel()
        hashes = window_hashes(grams, q, _HASH_MODULUS, _HASH_BASE)[::q]
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
    in the quotient.  Metric failure at small scales is reported as a
    failing check with its witness piece, not raised.
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
        )
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
