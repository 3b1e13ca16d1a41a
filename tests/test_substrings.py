import itertools
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from concc.substrings import SuffixAutomaton, lcp_array, suffix_array


def naive_sa(seq):
    return sorted(range(len(seq)), key=lambda i: seq[i:])


def naive_lcp(seq, sa):
    out = []
    for r in range(1, len(sa)):
        a, b = seq[sa[r - 1] :], seq[sa[r] :]
        l = 0
        for x, y in zip(a, b):
            if x != y:
                break
            l += 1
        out.append(l)
    return out


def check_levels(seq, levels):
    # level j ranks the 2^j-symbol prefixes (cut short at the end), with -1
    # past the end; one level up to the first J whose prefixes are distinct
    n = len(seq)

    def prefixes(j):
        return [tuple(seq[p : p + 2**j]) for p in range(n)]

    distinct = next(J for J in itertools.count() if len(set(prefixes(J))) == n)
    assert len(levels) == max(distinct, 1)
    for j, level in enumerate(levels):
        dense = {t: r for r, t in enumerate(sorted(set(prefixes(j))))}
        assert level.dtype == np.int32 and len(level) == n + 1 and level[n] == -1
        assert level[:n].tolist() == [dense[t] for t in prefixes(j)]


@given(st.lists(st.integers(min_value=0, max_value=5), max_size=40))
def test_suffix_array_matches_naive(seq):
    seq = list(seq)
    sa, levels = suffix_array(seq)
    assert list(sa) == naive_sa(seq)
    check_levels(seq, levels)


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=40))
def test_lcp_matches_naive(seq):
    seq = list(seq)
    sa, levels = suffix_array(seq)
    assert list(lcp_array(sa, levels)) == naive_lcp(seq, list(sa))


def test_negative_separators_supported():
    seq = [3, 1, -1, 3, 1, -2, 1]
    assert list(suffix_array(seq)[0]) == naive_sa(seq)


def _fibonacci_word(n):
    a, b = [1], [1, 2]
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def _doubled_necklaces():
    # the piece index's text shape: each word twice, then its own separator
    rng = random.Random(11)
    seq = []
    for k, size in enumerate((180, 240, 240, 310)):
        word = [rng.choice((1, 2, 3)) for _ in range(size)]
        seq += word + word + [-(k + 1)]
    return seq


def _relator_runs(s):
    # x y^{s+1} x^2 y^{s+2} ... doubled, as in the scaled relator family
    word = []
    for i in range(1, s + 1):
        word += [1] * i + [3] * (s + i)
    return word + word + [-1] + [4] * 40 + word[:300] + [-2]


DEEP_CASES = {
    "one-letter": [2] * 600,
    "period-3": ([1, 3, 2] * 400)[:1100],
    "period-7-with-separators": ([1, 2, 1, 1, 2, 1, 2] * 130) + [-1] + [1, 2, 1] * 200 + [-2],
    "fibonacci": _fibonacci_word(1597),
    "doubled-necklaces": _doubled_necklaces(),
    "relator-runs": _relator_runs(12),
}


@pytest.mark.parametrize("name", sorted(DEEP_CASES))
def test_deep_doubling_matches_naive(name):
    # long common prefixes need many doubling rounds and lifting levels
    seq = DEEP_CASES[name]
    assert 500 <= len(seq) <= 2000
    sa, levels = suffix_array(seq)
    assert list(sa) == naive_sa(seq)
    check_levels(seq, levels)
    lcp = lcp_array(sa, levels)
    assert list(lcp) == naive_lcp(seq, list(sa))
    assert max(lcp) >= 128


def naive_matching_statistics(text, query):
    subs = {
        tuple(text[i:j])
        for i in range(len(text))
        for j in range(i + 1, len(text) + 1)
    }
    out = []
    for end in range(1, len(query) + 1):
        best = 0
        for start in range(end):
            if tuple(query[start:end]) in subs:
                best = max(best, end - start)
        out.append((end, best))
    return out


def test_matching_statistics_small():
    rng = random.Random(9)
    for _ in range(40):
        text = [rng.randint(0, 3) for _ in range(rng.randint(1, 12))]
        query = [rng.randint(0, 3) for _ in range(rng.randint(1, 12))]
        sam = SuffixAutomaton(text)
        got = [(e, l) for e, l, _ in sam.matching_statistics(query)]
        assert got == naive_matching_statistics(text, query)


def test_occurrence_end_points_into_text():
    text = [0, 1, 2, 0, 1]
    query = [2, 0, 1]
    sam = SuffixAutomaton(text)
    for end, length, state in sam.matching_statistics(query):
        if length:
            occ = sam.occurrence_end(state)
            assert text[occ - length : occ] == query[end - length : end]
