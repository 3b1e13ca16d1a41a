"""Suffix structures used by the small-cancellation metrics.

Everything here works on plain integer sequences, no group theory.  The
suffix array uses prefix doubling (Manber-Myers) with one numpy argsort of
a single int64 key per round, so O(log n) rounds of O(n log n).  The LCP
array reuses the same doubling idea without sorting: prefix classes are
read off the finished suffix array, then every adjacent pair is measured
at once by binary lifting.  The piece index in ``smallcanc`` runs both
over one token per relator run, not per letter: at scale 200 that is a
4 806-token text for 481 200 closure members, and both arrays take a few
milliseconds.  Dehn reduction searches the same arrays, once checked.

The suffix automaton is the usual online construction, kept per string,
with the earliest end position of each state retained so matches can be
located, not just measured.  Nothing in concc builds it.
"""

from __future__ import annotations

import numpy as np


def suffix_array(seq) -> np.ndarray:
    """Indices of suffixes of seq in increasing lexicographic order."""
    n = len(seq)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    arr = np.asarray(seq, dtype=np.int64)
    # dense ranks keep the sort keys small
    rank = np.unique(arr, return_inverse=True)[1].astype(np.int64)
    k = 1
    while True:
        # one key per suffix: (rank, rank k further on or -1 past the end)
        key = rank * (n + 1)
        key[: n - k] += rank[k:] + 1
        order = np.argsort(key)
        key = key[order]
        rank[order] = np.concatenate(([0], np.cumsum(key[1:] != key[:-1])))
        if rank[order[-1]] == n - 1:
            return order
        k *= 2


def lcp_array(seq, sa: np.ndarray) -> np.ndarray:
    """lcp[i] = longest common prefix of suffixes sa[i] and sa[i+1].

    Prefix classes by doubling, read off sa itself: suffixes that share
    their first 2^j symbols are neighbours in sa, so the class of each
    length-2^(j+1) prefix follows from two length-2^j classes without a
    sort.  Binary lifting over those levels then measures every adjacent
    pair at once.
    """
    n = len(sa)
    if n < 2:
        return np.zeros(max(n - 1, 0), dtype=np.int64)
    sa = np.asarray(sa, dtype=np.int64)
    first = np.asarray(seq, dtype=np.int64)[sa]
    ids = np.cumsum(first[1:] != first[:-1])  # class of sa[r + 1], in sa order
    # levels[j][p] = class of the 2^j symbols from p; the end, p = n, matches nothing
    levels = []
    h = 1
    while ids[-1] < n - 1:
        cls = np.empty(n + 1, dtype=np.int32)
        cls[sa[0]] = 0
        cls[sa[1:]] = ids
        cls[n] = -1
        levels.append(cls)
        second = cls[np.minimum(sa + h, n)]
        ids = np.cumsum((ids != np.concatenate(([0], ids[:-1]))) | (second[1:] != second[:-1]))
        h *= 2
    a, b = sa[:-1], sa[1:]
    lcp = np.zeros(n - 1, dtype=np.int64)
    for j in range(len(levels) - 1, -1, -1):
        cls = levels[j]
        lcp += (cls[a + lcp] == cls[b + lcp]).astype(np.int64) << j
    return lcp


class SuffixAutomaton:
    """Recognizes every substring of one sequence; linear size.

    ``first_end[s]`` is the smallest end index (exclusive) at which the
    longest string of state ``s`` occurs, which is enough to report where a
    match sits in the indexed word.
    """

    __slots__ = ("next", "link", "length", "first_end", "last")

    def __init__(self, seq):
        self.next: list[dict[int, int]] = [{}]
        self.link: list[int] = [-1]
        self.length: list[int] = [0]
        self.first_end: list[int] = [0]
        self.last = 0
        for pos, ch in enumerate(seq):
            self._extend(int(ch), pos + 1)

    def _extend(self, ch: int, end: int) -> None:
        nxt, link, length, first = self.next, self.link, self.length, self.first_end
        cur = len(nxt)
        nxt.append({})
        length.append(length[self.last] + 1)
        link.append(-1)
        first.append(end)
        p = self.last
        while p != -1 and ch not in nxt[p]:
            nxt[p][ch] = cur
            p = link[p]
        if p == -1:
            link[cur] = 0
        else:
            q = nxt[p][ch]
            if length[p] + 1 == length[q]:
                link[cur] = q
            else:
                clone = len(nxt)
                nxt.append(dict(nxt[q]))
                length.append(length[p] + 1)
                link.append(link[q])
                first.append(first[q])
                while p != -1 and nxt[p].get(ch) == q:
                    nxt[p][ch] = clone
                    p = link[p]
                link[q] = clone
                link[cur] = clone
        self.last = cur

    def matching_statistics(self, query):
        """Yield (end_index, length, state) per position of query.

        length = longest suffix of query[:end_index] occurring in the
        indexed sequence; standard walk along suffix links.
        """
        v, l = 0, 0
        for i, ch in enumerate(query):
            ch = int(ch)
            while v != 0 and ch not in self.next[v]:
                v = self.link[v]
                l = self.length[v]
            if ch in self.next[v]:
                v = self.next[v][ch]
                l += 1
            else:
                v, l = 0, 0
            yield i + 1, l, v

    def occurrence_end(self, state: int) -> int:
        return self.first_end[state]
