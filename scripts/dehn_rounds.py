#!/usr/bin/env python3
"""Time Dehn reduction on a long product and on many short words.

Usage: python3 scripts/dehn_rounds.py [--conjugates 32] [--max-length 8]
       [--repeat 5]

Prints one JSON line with two measurements:

- ``ms_per_round``: the wall time of one ``dehn_reduce_traced`` call on a
  product of scale-20 trio conjugates drawn with the fixed seed ``SEED``
  (the product pinned in ``tests/test_smallcanc.py`` at 32 conjugates),
  divided by its rounds, one round per step plus the one that finds no
  step.  The median of ``--repeat`` calls.
- ``short_cpu_s``: the CPU time of the Dehn calls of acceptance test 7: every
  reduced word of at most ``--max-length`` letters over a, b, c that has a
  five-letter window in common with a rotation of ``a a b a b^-1 a c c``,
  reduced over that relator.  At length 8 there are 14 232 of them.
  Enumerating the words is not timed.
"""

import argparse
import json
import random
import statistics
import time

from concc import smallcanc
from concc.words import Alphabet, all_reduced_words

AB = Alphabet(["a", "b"])
SEED = 22


def trio_product(count: int):
    """The scale-20 trio's closure and a product of ``count`` conjugates of
    its relators and their inverses by short random words."""
    a, b = AB.gen("a"), AB.gen("b")
    S = smallcanc.symmetrize(list(smallcanc.relator_trio(20, a, b).values()))
    rng = random.Random(SEED)
    word = []
    for _ in range(count):
        r = rng.choice(S.origins).word()
        g = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(2, 8))]
        word += g + list(r.letters if rng.random() < 0.5 else r.inverse().letters)
        word += [-l for l in reversed(g)]
    return S, AB.word(word)


def short_words(max_length: int):
    """The closure of ``a a b a b^-1 a c c`` and the words acceptance test 7
    reduces over it."""
    A3 = Alphabet(["a", "b", "c"])
    S = smallcanc.symmetrize([A3.parse_word("a a b a b^-1 a c c")])
    chunks = set()
    for m in S.members():
        dbl = m.letters + m.letters
        chunks.update(dbl[i : i + 5] for i in range(len(m)))
    words = []
    for word in all_reduced_words(A3, max_length):
        letters = word.letters
        dbl = letters + letters[:4]
        if len(letters) >= 5 and any(dbl[i : i + 5] in chunks for i in range(len(letters))):
            words.append(word)
    return S, words


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--conjugates", type=int, default=32)
    ap.add_argument("--max-length", type=int, default=8)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()

    S, word = trio_product(args.conjugates)
    S.index().search  # built once, outside the timed calls
    times = []
    for _ in range(args.repeat):
        t0 = time.perf_counter()
        red = smallcanc.dehn_reduce_traced(word, S)
        times.append(time.perf_counter() - t0)
    rounds = len(red.steps) + (not red.is_empty)

    S3, words = short_words(args.max_length)
    S3.index().search
    t0 = time.process_time()
    for w in words:
        smallcanc.dehn_reduce(w, S3)
    short_cpu = time.process_time() - t0

    print(json.dumps({
        "product_letters": len(word),
        "rounds": rounds,
        "ms_per_round": round(1000 * statistics.median(times) / rounds, 4),
        "short_words": len(words),
        "short_cpu_s": round(short_cpu, 3),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
