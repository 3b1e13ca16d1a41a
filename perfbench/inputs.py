"""Seeded input generators for the benchmark workloads.

Nothing here imports concc: inputs are built as text (CLI arguments and
``name^exp`` word strings) from the seed alone, together with the answers
they must produce, so the program under test receives only text and the
expected answers never come from the code they check.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("hyp_spec_gen", "word_problems", "tower_cert", "relpaths_audit")

# the size of one job of each workload
HYP_SCALE = 200
DEHN_PRODUCTS = (8, 16, 24, 32, 40)
DEHN_CONTROLS = 2
BRITTON_DEPTHS = (9, 10, 11, 12)
TOWER_STAGES = 15000
RELPATHS_INSTANCES = 100000

# letters are signed generator indices, as in the text a^1 = 1, a^-1 = -1, b = 2
_NAMES = {1: "a", 2: "b"}


def r_family_letters(s: int, x: int, y: int) -> list[int]:
    """x y^{s+1} x^2 y^{s+2} ... x^s y^{2s}, written out from the definition."""
    out: list[int] = []
    for i in range(1, s + 1):
        out += [x] * i + [y] * (s + i)
    return out


def inverse(letters: list[int]) -> list[int]:
    return [-l for l in reversed(letters)]


def to_text(letters: list[int]) -> str:
    """Run-length text: [1, 1, -2] -> 'a^2 b^-1'."""
    out: list[str] = []
    i = 0
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        l, n = letters[i], j - i
        out.append(f"{_NAMES[abs(l)]}^{n if l > 0 else -n}")
        i = j
    return " ".join(out)


def _reduced_word(rng: random.Random, n: int) -> list[int]:
    w: list[int] = []
    while len(w) < n:
        l = rng.choice((1, -1, 2, -2))
        if not w or w[-1] != -l:
            w.append(l)
    return w


def _hyp_spec_gen(rng: random.Random) -> dict:
    # three neighbouring scales keep the cost within about 1 % of scale 200
    s = HYP_SCALE + rng.randrange(3) - 1
    n = 2 * s * s + s
    return {
        "argv": ["verify", "hyp-spec-gen", "--scale", str(s)],
        "expect": {"max_piece": 5 * s - 2, "relator_length": n, "closure_size": 6 * n},
    }


def _word_problems(rng: random.Random) -> dict:
    s = 20
    trio = [
        r_family_letters(s, -1, -2),
        r_family_letters(s, 2, 1),
        r_family_letters(s, -2, -1),
    ]
    survivor = r_family_letters(s, 1, 2)
    # fixed sizes and control counts keep the work per job independent of the seed
    controls = set(rng.sample(range(len(DEHN_PRODUCTS)), DEHN_CONTROLS))
    dehn = []
    for i, n in enumerate(DEHN_PRODUCTS):
        factors = []
        for _ in range(n):
            r = rng.choice(trio)
            if rng.random() < 0.5:
                r = inverse(r)
            factors.append(r)
        if i in controls:
            factors[rng.randrange(n)] = survivor if rng.random() < 0.5 else inverse(survivor)
        letters: list[int] = []
        for r in factors:
            g = _reduced_word(rng, rng.randint(3, 12))
            letters += g + r + inverse(g)
        # a product of relator conjugates is 1; one survivor conjugate keeps it != 1
        dehn.append({"text": to_text(letters), "trivial": i not in controls})
    pairs = [(k, e) for k in BRITTON_DEPTHS for e in (1, 2)]
    off = set(rng.sample(range(len(pairs)), len(pairs) // 2))
    britton = []
    for i, (k, e) in enumerate(pairs):
        sign = rng.choice((1, -1))
        # t^k a^e t^-k = a^(e 2^k) in BS(1,2); one letter off is never equal
        delta = rng.choice((1, -1)) if i in off else 0
        britton.append(
            {
                "left": f"t^{k} a^{sign * e} t^-{k}",
                "right": f"a^{sign * e * 2 ** k + delta}",
                "equal": delta == 0,
            }
        )
    rng.shuffle(dehn)
    rng.shuffle(britton)
    return {
        "trio": [to_text(r) for r in trio],
        "closure_size": 6 * len(survivor),
        "dehn": dehn,
        "britton": britton,
    }


def _tower_cert(rng: random.Random) -> dict:
    stages = TOWER_STAGES + rng.randrange(11) - 5
    return {
        "argv": ["tower", "build", "--stages", str(stages)],
        "expect": {"stages": stages},
        # which eligible skip record near the end gets its witness altered
        "tamper_pick": rng.random(),
    }


def _relpaths_audit(rng: random.Random) -> dict:
    return {
        "argv": [
            "relpaths", "audit",
            "--instances", str(RELPATHS_INSTANCES),
            "--seed", str(rng.randrange(2**31)),
        ],
        "expect": {"checks": 3},
    }


_MAKERS = {
    "hyp_spec_gen": _hyp_spec_gen,
    "word_problems": _word_problems,
    "tower_cert": _tower_cert,
    "relpaths_audit": _relpaths_audit,
}


def make(workload: str, seed: int) -> dict:
    """The inputs of one workload; the same seed always gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    return _MAKERS[workload](rng)


def digest(inputs: dict) -> str:
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()
