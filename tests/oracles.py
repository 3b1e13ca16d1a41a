"""Independent oracles used to cross-check the library's exact algorithms.

Everything here is deliberately naive: enumerate, rotate, insert, compare.
No code is shared with the implementations under test beyond basic word
reduction, so an agreement between an oracle and the library is evidence,
not a tautology.  Two exceptions are the letter-level forms of what the
run-level code in ``smallcanc`` replaced, which reach scales no quadratic
scan can: ``letter_piece_best`` reads the suffix and LCP arrays of
``concc.substrings``, which test_substrings checks against naive sorting,
and ``letter_symmetrize`` reads the letter-level ``CyclicWord`` and
``primitive_root`` of ``concc.words``, which test_words checks against
rotation and power enumeration.  ``rejection_trivial_cycle`` hands its
word to ``freeprod._scrub_identity_runs``, which test_freeprod checks on
its own, since it stands in only for the drawing of the word.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from concc.freeprod import (
    CyclicFactor,
    FreeAbelianFactor,
    FreeProductError,
    KleinBottleFactor,
    Letter,
    SyllablePath,
    _scrub_identity_runs,
)
from concc.substrings import lcp_array, suffix_array
from concc.words import (
    Alphabet,
    CyclicWord,
    Word,
    all_reduced_words,
    free_reduce,
    is_cyclically_reduced,
    is_power_of,
    letter_code,
    primitive_root,
)


def reduce_inverse(letters: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-l for l in reversed(letters))


def letters_pow(letters: tuple[int, ...], k: int) -> tuple[int, ...]:
    base = letters if k >= 0 else reduce_inverse(letters)
    return free_reduce(base * abs(k))


def cyclic_core(letters: tuple[int, ...]) -> tuple[int, ...]:
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == -letters[j - 1]:
        i += 1
        j -= 1
    return letters[i:j]


def rotation_conjugate(u: Word, v: Word) -> bool:
    """Conjugacy by enumerating all rotations of the cyclic cores."""
    a, b = cyclic_core(u.letters), cyclic_core(v.letters)
    if len(a) != len(b):
        return False
    if not a:
        return True
    return any(a[r:] + a[:r] == b for r in range(len(a)))


class BruteCommensurability:
    """Related iff some g u^k g^-1 equals v^l within explicit bounds.

    Precomputes, for each u in the universe, the set of all bounded
    conjugates of its bounded powers; queries are then set lookups of v's
    powers.  Sound within the bounds and complete for the word lengths the
    acceptance suite feeds it (conjugating witnesses for length-4 inputs
    fit well inside radius 6).
    """

    def __init__(self, alphabet: Alphabet, conj_radius: int = 6, exp_bound: int = 6):
        self.alphabet = alphabet
        self.exp_bound = exp_bound
        self.conjugators = [
            (w.letters, reduce_inverse(w.letters))
            for w in all_reduced_words(alphabet, conj_radius)
        ]
        self._cache: dict[tuple[int, ...], set[tuple[int, ...]]] = {}

    def _orbit(self, u: tuple[int, ...]) -> set[tuple[int, ...]]:
        if u not in self._cache:
            s = set()
            for k in range(1, self.exp_bound + 1):
                for sign in (1, -1):
                    uk = letters_pow(u, sign * k)
                    for g, ginv in self.conjugators:
                        s.add(free_reduce(g + uk + ginv))
            self._cache[u] = s
        return self._cache[u]

    def related(self, u: Word, v: Word) -> bool:
        orbit = self._orbit(u.letters)
        return any(
            letters_pow(v.letters, sign * l) in orbit
            for l in range(1, self.exp_bound + 1)
            for sign in (1, -1)
        )


def brute_max_piece(members: list[tuple[int, ...]]) -> int:
    """Longest common prefix-of-member substring seen at two distinct spots.

    A piece is a word that occurs as a prefix of two closure members which
    are not the same member at the same offset; since the closure is
    rotation-closed, prefixes cover all substrings.  Quadratic in the
    closure, usable up to a few thousand members.
    """
    best = 0
    n = len(members)
    for i in range(n):
        for j in range(i, n):
            a, b = members[i], members[j]
            lcp = 0
            for x, y in zip(a, b):
                if x != y:
                    break
                lcp += 1
            if i == j:
                continue
            best = max(best, lcp)
    return best


def brute_piece_ratios(members: list[tuple[int, ...]]) -> dict[tuple[int, ...], Fraction]:
    """Per-member worst piece ratio, same quadratic enumeration."""
    out: dict[tuple[int, ...], int] = {m: 0 for m in members}
    n = len(members)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            a, b = members[i], members[j]
            lcp = 0
            for x, y in zip(a, b):
                if x != y:
                    break
                lcp += 1
            out[a] = max(out[a], lcp)
    return {m: Fraction(p, len(m)) for m, p in out.items()}


def letter_piece_best(necklaces) -> tuple[np.ndarray, np.ndarray]:
    """Per-member longest piece and a partner member, from a suffix array
    over every letter of the doubled necklaces.

    The letter-level piece index that the run index replaced, kept as its
    reference: members are numbered necklace by necklace, as in the
    library, and partner is -1 where best is 0.  It shares ``suffix_array``
    and ``lcp_array`` with the library, which test_substrings checks against
    naive sorting; the member order, the LCP range minima and the sweep are
    its own.
    """
    lengths = np.array([len(n) for n in necklaces], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lengths)))
    parts = []
    for k, n in enumerate(necklaces):
        ls = np.array(n.letters, dtype=np.int64)
        codes = 2 * np.abs(ls) - 1 + (ls < 0)  # letter_code + 1, so 0 never occurs
        parts += [codes, codes, [-(k + 1)]]
    text = np.concatenate(parts)
    # necklace k opens the text at 2 * starts[k] + k
    m = int(starts[-1])
    member = np.full(len(text), -1, dtype=np.int64)
    ids = np.arange(m)
    neck = np.repeat(np.arange(len(necklaces)), lengths)
    member[ids + starts[neck] + neck] = ids
    sa, levels = suffix_array(text)
    lcp = lcp_array(sa, levels)
    by_rank = member[sa]
    ranks = np.flatnonzero(by_rank >= 0)
    order = by_rank[ranks]
    flcp = np.minimum.reduceat(lcp[: ranks[-1]], ranks[:-1])
    member_len = lengths[neck][order]
    # one pass per length class and direction: the nearest class member on
    # each side is the only candidate of that class worth checking
    best = np.zeros(m, dtype=np.int64)
    partner = np.full(m, -1, dtype=np.int64)
    for cap in np.unique(member_len).tolist():
        in_class = member_len == cap
        before = _letter_nearest_before(flcp, in_class, cap)
        val, src = _letter_nearest_before(flcp[::-1], in_class[::-1], cap)
        after = val[::-1], np.where(src >= 0, m - 1 - src, -1)[::-1]
        for val, src in (before, after):
            val = np.minimum(val, member_len)
            better = val > best
            best[better] = val[better]
            partner[better] = src[better]
    out_best = np.empty(m, dtype=np.int64)
    out_partner = np.empty(m, dtype=np.int64)
    out_best[order] = best
    out_partner[order] = np.where(partner >= 0, order[partner], -1)
    return out_best, out_partner


def run_piece_partners(necklaces) -> tuple[list[int], list[int]]:
    """Per-member longest piece and partner by the run index's tie rules,
    enumerated from their statement.

    Runs are the maximal blocks of each necklace from its first letter on.
    The text of run p is its necklace written twice (once if it is one
    run), from the letter after p's first copy, then a separator that sorts
    below every letter, separators in necklace order.  Member (p, r), the
    rotation that starts r letters before the end of run p, keeps its
    own-run piece, r with (p, r + 1) or r - 1 with (p, r - 1) at the run's
    start, unless a run of some length class L, the classes tried in
    increasing length, gives a strictly longer one: the nearest runs q of
    p's letter and class with l_q >= r before and after p in text order
    share min(lcp, L) letters of text with p, the one before winning a tie,
    and (q, r) shares min(that + r, L_p, L) letters with (p, r).
    """
    runs = []  # (letter, length, end, necklace length, text)
    end = 0
    for k, n in enumerate(necklaces):
        ls = list(n.letters)
        cuts = [0] + [i for i in range(1, len(ls)) if ls[i] != ls[i - 1]] + [len(ls)]
        body = [(1, letter_code(l)) for l in ls] * (1 if len(cuts) == 2 else 2) + [(0, k)]
        for a, b in zip(cuts, cuts[1:]):
            runs.append((ls[a], b - a, end + b, len(ls), body[b:]))
        end += len(ls)

    def lcp(u, v):
        h = 0
        while h < min(len(u), len(v)) and u[h] == v[h]:
            h += 1
        return h

    best, partner = [0] * end, [-1] * end
    classes = sorted({run[3] for run in runs})
    for p, (c, lp, ep, cap, text) in enumerate(runs):
        mates = sorted((q for q in range(len(runs)) if runs[q][0] == c), key=lambda q: runs[q][4])
        here = mates.index(p)
        for r in range(1, lp + 1):
            i = ep - r
            b, partner_i = (r - 1, i + 1 if r > 1 else -1) if r == lp else (r, i - 1)
            for L in classes:
                near = []
                for side in (mates[here - 1 :: -1] if here else [], mates[here + 1 :]):
                    q = next((q for q in side if runs[q][3] == L and runs[q][1] >= r), None)
                    near.append((-1, q) if q is None else (min(lcp(text, runs[q][4]), L), q))
                v, q = near[0] if near[0][0] >= near[1][0] else near[1]
                if v >= 0 and min(v + r, cap, L) > b:
                    b, partner_i = min(v + r, cap, L), runs[q][2] - r
            best[i], partner[i] = b, partner_i
    return best, partner


def letter_symmetrize(relators) -> tuple[list[tuple[int, ...]], list[tuple[int, int]]]:
    """The necklaces (in order) and each relator's pair of necklace indices
    that ``smallcanc.symmetrize`` gives, found letter by letter.

    Each relator and its inverse get their canonical rotation from
    ``CyclicWord`` (Booth over the letters), proper powers are found by
    ``primitive_root``, and the necklaces are sorted by length, then by
    their letter codes.  A rejected set raises ValueError with the text
    ``symmetrize`` gives.
    """
    alphabet = relators[0].alphabet
    necklaces: set[tuple[int, ...]] = set()
    pairs = []
    for r in relators:
        if r.alphabet != alphabet:
            raise ValueError("relators over different alphabets")
        if r.is_identity:
            raise ValueError("identity relator")
        if not is_cyclically_reduced(r):
            raise ValueError(f"relator {r} is not cyclically reduced")
        _, e = primitive_root(r)
        if e > 1:
            raise ValueError(
                f"relator {r} is a proper power (exponent {e}); "
                "the metric conditions exclude proper powers"
            )
        pair = (CyclicWord(r).letters, CyclicWord(r.inverse()).letters)
        necklaces.update(pair)
        pairs.append(pair)
    ordered = sorted(necklaces, key=lambda c: (len(c), [letter_code(l) for l in c]))
    position = {c: k for k, c in enumerate(ordered)}
    return ordered, [(position[a], position[b]) for a, b in pairs]


def _letter_nearest_before(flcp, in_class, cap):
    """Common prefix, capped at cap, of each member with the nearest class
    member before it in suffix order, and that member's rank; 0 and -1
    where there is none."""
    m = len(in_class)
    val = np.zeros(m, dtype=np.int64)
    src = np.full(m, -1, dtype=np.int64)
    seg = np.cumsum(in_class[:-1], dtype=np.int64)
    lift = seg * (cap + 1)
    run = np.minimum.accumulate(np.minimum(flcp, cap) - lift) + lift
    val[1:] = np.where(seg > 0, run, 0)
    src[1:] = np.maximum.accumulate(np.where(in_class, np.arange(m), -1))[:-1]
    return val, src


def bfs_trivial_set(
    members: list[tuple[int, ...]], ceiling: int
) -> set[tuple[int, ...]]:
    """All words of length <= ceiling reachable from 1 by relator insertion.

    Breadth-first closure: insert any closure member at any position and
    freely reduce, keeping results under the ceiling, until nothing new
    appears.  Steps that shorten a word are inverses of steps that grow
    one, so this reaches every word with a monotone reduction path inside
    the ceiling; Greendlinger's lemma makes every trivial word such a word
    once the ceiling exceeds the inputs by a relator's slack.
    """
    seen: set[tuple[int, ...]] = {()}
    frontier: list[tuple[int, ...]] = [()]
    while frontier:
        new = []
        for w in frontier:
            for m in members:
                for pos in range(len(w) + 1):
                    cand = free_reduce(w[:pos] + m + w[pos:])
                    if len(cand) <= ceiling and cand not in seen:
                        seen.add(cand)
                        new.append(cand)
        frontier = new
    return seen


def brute_dehn(
    letters: tuple[int, ...], necklaces: list[tuple[int, ...]]
) -> tuple[tuple[int, ...], list[tuple[int, int, int, int]]]:
    """Greedy Dehn reduction by enumerating every start against every member.

    Each round cyclically reduces the word, then compares the word read
    cyclically from every start with every rotation of every necklace.  A
    common prefix of more than half a necklace fires; the longest one wins,
    then the smallest start, necklace and offset.  It is replaced by the
    inverse of the rest of its member.  Returns the final word and the
    (start, length, necklace, offset) of every step.
    """
    w = cyclic_core(free_reduce(letters))
    steps = []
    while w:
        n = len(w)
        best = None
        for s in range(n):
            rotated = w[s:] + w[:s]
            for k, neck in enumerate(necklaces):
                for off in range(len(neck)):
                    member = neck[off:] + neck[:off]
                    used = 0
                    for x, y in zip(rotated, member):
                        if x != y:
                            break
                        used += 1
                    if 2 * used > len(neck):
                        key = (-used, s, k, off)
                        if best is None or key < best:
                            best = key
        if best is None:
            break
        used, s, k, off = -best[0], best[1], best[2], best[3]
        neck = necklaces[k]
        member = neck[off:] + neck[:off]
        rest = (w[s:] + w[:s])[used:]
        w = cyclic_core(free_reduce(reduce_inverse(member[used:]) + rest))
        steps.append((s, used, k, off))
    return w, steps


# -- faithful models of the two worked HNN groups --------------------------


def klein_pair(letters: tuple[int, ...]) -> tuple[int, int]:
    """(p, q) normal form of a word over a=1, t=2 in <a,t | t a t^-1 = a^-1>."""
    p = q = 0
    for l in letters:
        if abs(l) == 1:
            p += (1 if l > 0 else -1) * (1 if q % 2 == 0 else -1)
        else:
            q += 1 if l > 0 else -1
    return p, q


def bs12_affine(letters: tuple[int, ...]) -> tuple[Fraction, Fraction]:
    """(scale, shift) of the affine map for a word over a=1, t=2 in BS(1,2).

    a acts as x + 1 and t as 2x; the representation x -> s x + m with
    s a power of two and m dyadic is faithful, so (1, 0) certifies
    triviality independently of any Britton reduction.
    """
    s, m = Fraction(1), Fraction(0)
    for l in letters:
        if abs(l) == 1:
            gs, gm = Fraction(1), Fraction(1 if l > 0 else -1)
        elif l > 0:
            gs, gm = Fraction(2), Fraction(0)
        else:
            gs, gm = Fraction(1, 2), Fraction(0)
        s, m = s * gs, s * gm + m
    return s, m


def flatten_one_level(tw) -> tuple[int, ...]:
    """Letters over {base gen a=1, stable t=2} of a one-level tower word."""
    if tw.tower.height != 1:
        raise ValueError("flattening expects exactly one stable letter")
    out: list[int] = []
    for item in tw.items:
        if isinstance(item, tuple):
            idx, eps = item
            out.append(2 if eps > 0 else -2)
        else:
            out.extend(item.letters)
    return free_reduce(tuple(out))


def tower_normal_form(symbols) -> tuple:
    """A tower word as written, from its symbols in order.

    Base letters are ints and stable letters (index, eps) pairs.  The
    result alternates letter tuples and stable pairs, chunk first and
    last: each maximal run of base letters, freely reduced.
    """
    out: list = []
    run: list[int] = []
    for s in symbols:
        if isinstance(s, tuple):
            out.append(free_reduce(run))
            out.append(s)
            run = []
        else:
            run.append(s)
    out.append(free_reduce(run))
    return tuple(out)


def rescan_britton(tower, items) -> tuple:
    """Britton reduction by rescanning tower word items from the start.

    Fires the leftmost pinch ``t^e c^m t^-e`` between adjacent letters of
    one index across a base chunk, until none is left.  Leftmost, because
    pinches that overlap (``t A t^-1 B t``) leave different chunks by the
    order they fire in.  No pinch across more than a chunk can survive: what
    it encloses reduces into the base, so it holds an adjacent pinch.
    """
    assocs, items = tower.assocs, list(items)
    k = 1
    while k + 2 < len(items):
        (i, e), chunk, (j, f) = items[k : k + 3]
        a = assocs[i]
        c, d = (a.source, a.target) if e > 0 else (a.target, a.source)
        m = is_power_of(chunk, c) if (i, e) == (j, -f) else None
        if m is None:
            k += 2
        else:
            items[k - 1 : k + 4] = [items[k - 1] * d**m * items[k + 3]]
            k = 1
    return tuple(items)


def brute_connectivity(ctx, letters, cuts=()):
    """Components, coset keys, classes and isolated indices by the definition.

    Every prefix of the path is multiplied out with one ``ctx.mul`` per
    letter.  A component is a maximal same-factor letter run that does not
    cross an index in ``cuts``; its coset key is its start vertex with a
    trailing syllable of its own factor stripped.  Returns the components as
    (label, start, end, payload, key) tuples, the classes, the isolated
    component indices and the end vertex.
    """
    vertices = [()]
    for l in letters:
        step = ((None, (l[1],)),) if l[0] == "x" else ((l[1], l[2]),)
        vertices.append(ctx.mul(vertices[-1], step))
    comps = []
    i = 0
    while i < len(letters):
        if letters[i][0] != "h":
            i += 1
            continue
        lab = letters[i][1]
        f = ctx.factor(lab)
        payload = letters[i][2]
        j = i + 1
        while j < len(letters) and j not in cuts and letters[j][0] == "h" and letters[j][1] == lab:
            payload = f.multiply(payload, letters[j][2])
            j += 1
        v = vertices[i]
        key = v[:-1] if v and v[-1][0] == lab else v
        comps.append((lab, i, j, payload, key))
        i = j
    groups = {}
    for idx, c in enumerate(comps):
        groups.setdefault((c[0], c[4]), []).append(idx)
    classes = sorted(groups.values())
    isolated = [g[0] for g in classes if len(g) == 1]
    return comps, classes, isolated, vertices[-1]


def rejection_sample(f, rng: random.Random):
    """A nonidentity factor element by the rejection and ``randrange`` draws
    the factors used before their samplers became single picks."""
    if isinstance(f, CyclicFactor):
        return rng.randrange(1, f.modulus)
    if isinstance(f, FreeAbelianFactor):
        while True:
            p = tuple([rng.randint(-3, 3) for _ in range(f.rank)])
            if not f.is_identity(p):
                return p
    if isinstance(f, KleinBottleFactor):
        while True:
            p = (rng.randint(-2, 2), rng.randint(-2, 2))
            if p != (0, 0):
                return p
    raise TypeError(f"no rejection sampler for {type(f).__name__}")


def rejection_trivial_cycle(ctx, rng: random.Random, size: int = 12) -> SyllablePath:
    """The trivial-cycle sampler that builds whole words and rejects them.

    The recursive sampler ``freeprod.random_trivial_cycle`` used before it
    drew shapes first, kept word for word except that factor payloads come
    from ``rejection_sample``.  Every attempt draws its letters and payloads
    as it builds, and an attempt with no free letter is thrown away whole,
    so its output distribution is the definition the shape-first sampler
    must match.
    """
    free, factors = ctx.free_alphabet, ctx.factors

    def rand_pair() -> tuple[Letter, Letter]:  # a random letter and its inverse
        if free is not None and (not factors or rng.random() < 0.4):
            x = free.letter(rng.choice(free.names), rng.choice((1, -1)))
            return ("x", x), ("x", -x)
        f = rng.choice(factors)
        p = rejection_sample(f, rng)
        return ("h", f.label, p), ("h", f.label, f.inverse(p))

    def build(budget: int, out: list[Letter]) -> None:
        # a budget below 2 draws nothing and adds nothing
        while budget >= 2:
            if rng.random() < 0.55:
                l, l_inv = rand_pair()
                out.append(l)
                build(budget - 2, out)
                out.append(l_inv)
                return
            if rng.random() >= 0.5:
                return
            cut = rng.randint(1, budget - 1)
            build(cut, out)
            budget -= cut

    for _ in range(200):
        letters: list[Letter] = []
        build(size, letters)
        # the scrub empties a trivial word exactly when it has no free letter
        if any(l[0] == "x" for l in letters):
            return SyllablePath(ctx, tuple(_scrub_identity_runs(ctx, letters)))
    raise FreeProductError("could not generate a nonempty trivial cycle")
