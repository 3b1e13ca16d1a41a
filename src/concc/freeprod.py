"""Free products of pluggable factor groups and the path combinatorics over them.

Elements are alternating syllable tuples ``(label, payload)``; ``label`` is
a factor's name or None for a chunk of the free part, and payloads are
whatever the factor oracle works with (ints, vectors, Klein bottle normal
forms).  Multiplication is the usual stack merge, done by the one routine
``FreeProductCtx.merge``, so a tuple IS the normal form and equality is
tuple equality.

Paths are sequences of letters, each a free-part generator or a nonidentity
factor element.  The objects of interest are a path's components (maximal
same-factor letter runs), which components of a closed path land in a
common coset of their factor, and which stay isolated.  Coset membership is
read off normal forms exactly, so the audits in this module test the
combinatorial statements rather than assume them.

The audits read each path once, left to right: the running vertex is kept
as a syllable stack that changes only at its top, each free run is
reduced onto that top letter by letter as it is read (``_merge_free``, the
module's one free reduction, which ``merge`` also uses), and each
component's coset key and (label, key) class are taken from the stack as
the component starts.
Random trivial cycles are scrubbed of identity runs in one loop over their
letters, with the open run kept in a local.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import hnn
from .words import (
    Alphabet,
    Word,
    WordError,
    conjugacy_witness,
    cyclic_reduce,
    read_int,
    read_tokens,
)

Payload = object
Syllable = tuple  # (label: str | None, payload)
Element = tuple  # tuple of syllables, normal form
Letter = tuple  # ('x', signed index) | ('h', label, payload)


class FreeProductError(ValueError):
    """Malformed elements, letters, paths, or factor lookups."""


def _square_and_multiply(multiply, one, base, n: int):
    """base^n for n >= 0 in O(log n) multiplications."""
    out = one
    while n:
        if n & 1:
            out = multiply(out, base)
        n >>= 1
        if n:
            base = multiply(base, base)
    return out


class Factor:
    """Interface each peripheral factor implements; label must be unique."""

    label: str

    def identity(self) -> Payload:
        raise NotImplementedError

    def multiply(self, p: Payload, q: Payload) -> Payload:
        raise NotImplementedError

    def inverse(self, p: Payload) -> Payload:
        raise NotImplementedError

    def is_identity(self, p: Payload) -> bool:
        raise NotImplementedError

    def power(self, p: Payload, n: int) -> Payload:
        return _square_and_multiply(
            self.multiply, self.identity(), p if n >= 0 else self.inverse(p), abs(n)
        )

    def equal(self, p: Payload, q: Payload) -> bool:
        return self.is_identity(self.multiply(p, self.inverse(q)))

    def has_finite_order(self, p: Payload) -> bool:
        raise NotImplementedError

    def conjugating(self, p: Payload, q: Payload) -> Payload | None:
        """c with c p c^-1 = q inside the factor, or None."""
        raise NotImplementedError

    def format(self, p: Payload) -> str:
        raise NotImplementedError

    def parse(self, text: str) -> Payload:
        raise NotImplementedError

    def sample(self, rng: random.Random) -> Payload:
        """A random nonidentity element, uniform over a support the factor names."""
        raise NotImplementedError


class CyclicFactor(Factor):
    """Z/m written additively; payloads are residues."""

    def __init__(self, label: str, modulus: int):
        if modulus < 2:
            raise FreeProductError("cyclic factor needs modulus >= 2")
        self.label = label
        self.modulus = modulus

    def identity(self):
        return 0

    def multiply(self, p, q):
        return (p + q) % self.modulus

    def inverse(self, p):
        return (-p) % self.modulus

    def is_identity(self, p):
        return p % self.modulus == 0

    def has_finite_order(self, p):
        return True

    def conjugating(self, p, q):
        return 0 if (p - q) % self.modulus == 0 else None

    def format(self, p):
        return str(p % self.modulus)

    def parse(self, text):
        return read_int(text.strip(), "residue") % self.modulus

    def sample(self, rng):
        """Uniform over the nonzero residues 1..m-1."""
        return 1 + int(rng.random() * (self.modulus - 1))


class FreeAbelianFactor(Factor):
    """Z^r; payloads are integer tuples of length r."""

    def __init__(self, label: str, rank: int):
        if rank < 1:
            raise FreeProductError("free abelian factor needs rank >= 1")
        self.label = label
        self.rank = rank

    def identity(self):
        return (0,) * self.rank

    def multiply(self, p, q):
        return tuple(a + b for a, b in zip(p, q))

    def inverse(self, p):
        return tuple(-a for a in p)

    def is_identity(self, p):
        return not any(p)

    def has_finite_order(self, p):
        return self.is_identity(p)

    def conjugating(self, p, q):
        return self.identity() if p == q else None

    def format(self, p):
        return ",".join(str(a) for a in p) if self.rank > 1 else str(p[0])

    def parse(self, text):
        parts = [read_int(t.strip(), "coordinate") for t in text.split(",")]
        if len(parts) != self.rank:
            raise FreeProductError(f"expected {self.rank} coordinates, got {text!r}")
        return tuple(parts)

    def sample(self, rng):
        """Uniform over the nonzero vectors with coordinates in -3..3."""
        while True:
            p = tuple([int(rng.random() * 7) - 3 for _ in range(self.rank)])
            if any(p):
                return p


class KleinBottleFactor(Factor):
    """Fundamental group of the Klein bottle: <a, t | t a t^-1 = a^-1>.

    Torsion-free and non-abelian, with t conjugating a to its inverse;
    payloads are the normal-form pairs (p, q) for a^p t^q.  Every
    conversion from a word is cross-checked against Britton reduction in
    the matching HNN tower, so the closed-form arithmetic never drifts
    from the honest word problem.
    """

    _SUPPORT = tuple((p, q) for p in range(-2, 3) for q in range(-2, 3) if p or q)

    def __init__(self, label: str):
        self.label = label
        self.tower = hnn.klein_bottle_tower()
        self.word_alphabet = Alphabet(["a", "t"])

    def identity(self):
        return (0, 0)

    def multiply(self, p, q):
        (p1, q1), (p2, q2) = p, q
        return (p1 + (p2 if q1 % 2 == 0 else -p2), q1 + q2)

    def inverse(self, p):
        (a, q) = p
        return (-a if q % 2 == 0 else a, -q)

    def is_identity(self, p):
        return p == (0, 0)

    def has_finite_order(self, p):
        # the group is torsion-free
        return self.is_identity(p)

    def conjugating(self, p, q):
        (pa, pq), (qa, qq) = p, q
        if pq != qq:
            return None
        if pq % 2 == 0:
            # conjugates of a^p t^q, q even: exponent flips with the twist
            if qa == pa:
                return (0, 0)
            if qa == -pa:
                return (0, 1)
            return None
        # q odd: conjugation by a^x shifts the a-exponent by 2x, twist negates
        if (qa - pa) % 2 == 0:
            return ((qa - pa) // 2, 0)
        return None

    def format(self, p):
        (a, q) = p
        parts = []
        if a:
            parts.append(f"a^{a}" if a != 1 else "a")
        if q:
            parts.append(f"t^{q}" if q != 1 else "t")
        return " ".join(parts) if parts else "1"

    def parse(self, text):
        return self.from_word(self.word_alphabet.parse_word(text))

    def from_word(self, w: Word) -> Payload:
        """Normal form of a word in a, t; certified against the HNN engine."""
        out = (0, 0)
        gens = {1: (1, 0), -1: (-1, 0), 2: (0, 1), -2: (0, -1)}
        for l in w.letters:
            out = self.multiply(out, gens[l])
        check = (
            self.tower.parse(str(w)) * self.tower.parse(self.format(out)).inverse()
        )
        if not hnn.is_trivial(check).is_yes:
            raise FreeProductError(
                f"normal-form arithmetic for {w} disagrees with Britton reduction"
            )
        return out

    def sample(self, rng):
        """Uniform over the 24 pairs (p, q) with |p|, |q| <= 2, less (0, 0)."""
        return self._SUPPORT[int(rng.random() * len(self._SUPPORT))]


def _merge_free(out: list, word: Iterable[int]) -> None:
    """Multiply the normal form in ``out`` by a free word, reducing it onto the top letter by letter.

    The module's one free reduction.  The top is copied into a list once per
    call, so a word costs its length plus the top's: reducing a long free
    run one letter per call onto a tuple top would copy the top every time.
    """
    top = list(out.pop()[1]) if out and out[-1][0] is None else []
    for a in word:
        if top and top[-1] == -a:
            top.pop()
        else:
            top.append(a)
    if top:
        out.append((None, tuple(top)))


class FreeProductCtx:
    """Factors plus an optional free part; owns all element arithmetic."""

    def __init__(self, factors: Sequence[Factor], free_alphabet: Alphabet | None = None):
        labels = [f.label for f in factors]
        if len(set(labels)) != len(labels):
            raise FreeProductError(f"duplicate factor labels in {labels}")
        if not factors and free_alphabet is None:
            raise FreeProductError("need at least one factor or a free part")
        self.factors = tuple(factors)
        self.by_label: dict[str, Factor] = {f.label: f for f in factors}
        self.free_alphabet = free_alphabet
        # (letter, inverse) for each of the 2n free-part letters
        n = free_alphabet.size if free_alphabet is not None else 0
        self.free_pairs = tuple(
            (("x", s * i), ("x", -s * i)) for i in range(1, n + 1) for s in (1, -1)
        )
        # (letter, inverse) for each factor payload a trivial cycle has drawn,
        # by (label, payload): built once, so a pair costs no inverse
        self.h_pairs: dict[tuple, tuple[Letter, Letter]] = {}

    def factor(self, label: str) -> Factor:
        if label not in self.by_label:
            raise FreeProductError(f"unknown factor {label!r}")
        return self.by_label[label]

    # -- elements ---------------------------------------------------------

    def identity(self) -> Element:
        return ()

    def syllable(self, label: str, payload) -> Element:
        f = self.factor(label)
        if f.is_identity(payload):
            return ()
        return ((label, payload),)

    def free_word(self, letters: Iterable[int] | Word) -> Element:
        if self.free_alphabet is None:
            raise FreeProductError("this product has no free part")
        w = letters if isinstance(letters, Word) else self.free_alphabet.word(letters)
        return ((None, w.letters),) if w.letters else ()

    def merge(self, out: list, label: str | None, payload) -> None:
        """Multiply the normal form in ``out`` by one syllable, changing only its top.

        A free-part payload may be any letter tuple; a factor payload is not 1."""
        if label is None:
            _merge_free(out, payload)
        elif out and out[-1][0] == label:
            f = self.by_label[label]
            payload = f.multiply(out.pop()[1], payload)
            if not f.is_identity(payload):
                out.append((label, payload))
        else:
            out.append((label, payload))

    def mul(self, a: Element, b: Element) -> Element:
        out = list(a)
        for lab, payload in b:
            self.merge(out, lab, payload)
        return tuple(out)

    def product(self, parts: Iterable[Element]) -> Element:
        out: Element = ()
        for p in parts:
            out = self.mul(out, p)
        return out

    def inv(self, a: Element) -> Element:
        out = []
        for lab, payload in reversed(a):
            if lab is None:
                out.append((None, tuple(-l for l in reversed(payload))))
            else:
                out.append((lab, self.by_label[lab].inverse(payload)))
        return tuple(out)

    def pow(self, a: Element, n: int) -> Element:
        return _square_and_multiply(self.mul, (), a if n >= 0 else self.inv(a), abs(n))

    def conj(self, g: Element, a: Element) -> Element:
        """g a g^-1."""
        return self.mul(self.mul(g, a), self.inv(g))

    def format_element(self, a: Element) -> str:
        if not a:
            return "1"
        parts = []
        for lab, payload in a:
            if lab is None:
                parts.append(str(Word(self.free_alphabet, payload)))
            else:
                parts.append(f"[{lab}: {self.by_label[lab].format(payload)}]")
        return " ".join(parts)

    # -- letters and paths ------------------------------------------------

    def x_letter(self, name: str, sign: int = 1) -> Letter:
        if self.free_alphabet is None:
            raise FreeProductError("this product has no free part")
        return ("x", self.free_alphabet.letter(name, sign))

    def h_letter(self, label: str, payload) -> Letter:
        f = self.factor(label)
        if f.is_identity(payload):
            raise FreeProductError(
                f"factor letter in {label!r} carries the identity; not a letter"
            )
        return ("h", label, payload)

    def letter_inverse(self, letter: Letter) -> Letter:
        if letter[0] == "x":
            return ("x", -letter[1])
        _, lab, payload = letter
        return ("h", lab, self.by_label[lab].inverse(payload))

    def letter_element(self, letter: Letter) -> Element:
        if letter[0] == "x":
            return ((None, (letter[1],)),)
        return self.syllable(letter[1], letter[2])

    def format_letter(self, letter: Letter) -> str:
        if letter[0] == "x":
            return self.free_alphabet.letter_str(letter[1])
        _, lab, payload = letter
        return f"[{lab}: {self.by_label[lab].format(payload)}]"


@dataclass(frozen=True)
class SyllablePath:
    """Edge path: a letter sequence read from the identity vertex."""

    ctx: FreeProductCtx
    letters: tuple[Letter, ...]

    def vertices(self) -> list[Element]:
        vs: list[Element] = [()]
        for letter in self.letters:
            vs.append(self.ctx.mul(vs[-1], self.ctx.letter_element(letter)))
        return vs

    def product(self) -> Element:
        return self.ctx.product(self.ctx.letter_element(l) for l in self.letters)

    def __str__(self) -> str:
        return " ".join(self.ctx.format_letter(l) for l in self.letters) or "1"


def parse_path(ctx: FreeProductCtx, text: str) -> SyllablePath:
    """Parse ``x1 [A: 2] x2^-1 [K: a t]``: factor letters, and word text between them.

    A bare ``1`` is the empty path, and only as the whole text.  Every
    error is a ``FreeProductError``.
    """
    letters: list[Letter] = []
    rest = text
    try:
        while True:
            free, bracket, rest = rest.partition("[")
            tokens = read_tokens(free)
            # read_tokens reads a bare 1 as no letters
            if not tokens and "1" in free and (bracket or letters):
                raise FreeProductError("a bare '1' stands for the empty path only alone")
            for name, exp in tokens:
                letters.extend([ctx.x_letter(name, 1 if exp > 0 else -1)] * abs(exp))
            if not bracket:
                return SyllablePath(ctx, tuple(letters))
            inner, close, rest = rest.partition("]")
            if not close:
                raise FreeProductError(
                    f"unterminated factor letter at {len(text) - len(inner) - 1}"
                )
            lab, sep, payload_text = inner.partition(":")
            if not sep:
                raise FreeProductError(f"factor letter {inner!r} lacks a ':'")
            lab = lab.strip()
            payload = ctx.factor(lab).parse(payload_text.strip())
            letters.append(ctx.h_letter(lab, payload))
    except WordError as e:
        raise FreeProductError(str(e)) from None


@dataclass(slots=True)
class Component:
    """Maximal run of same-factor letters; label is the run's product."""

    factor_label: str
    start: int
    end: int  # exclusive letter index
    payload: Payload
    segment: str = ""
    coset_key: Element | None = None


def _walk(
    ctx: FreeProductCtx, segments: Iterable[tuple[str, Sequence[Letter]]]
) -> tuple[ConnectivityReport, Element]:
    """Read the segments' letters once, left to right: (report, end vertex).

    The running vertex is a syllable stack changed only at its top: each
    free run is reduced onto it letter by letter (``_merge_free``, the
    reduction ``merge`` uses), and each component (a maximal same-factor
    run inside one segment) is merged as one syllable.  As a component
    starts it gets its payload, its coset key (the stack less a trailing
    own-factor syllable) and its place in the class of its (label, key), so
    the classes come sorted by first member.
    """
    by_label, merge = ctx.by_label, ctx.merge
    stack: list[Syllable] = []
    comps: list[Component] = []
    groups: dict[tuple, list[int]] = {}
    pos = 0  # index of letters[0] in the whole path
    for name, letters in segments:
        n, i = len(letters), 0
        while i < n:
            letter = letters[i]
            j = i + 1
            if letter[0] == "x":
                while j < n and letters[j][0] == "x":
                    j += 1
                _merge_free(stack, [l[1] for l in letters[i:j]])
                i = j
                continue
            lab, payload = letter[1], letter[2]
            f = by_label.get(lab) or ctx.factor(lab)  # ctx.factor names an unknown label
            while j < n and letters[j][0] == "h" and letters[j][1] == lab:
                payload = f.multiply(payload, letters[j][2])
                j += 1
            if f.is_identity(payload):
                raise FreeProductError(
                    f"letters {pos + i}..{pos + j - 1} in factor {lab!r} multiply "
                    "to the identity; the path is ill-formed"
                )
            key = tuple(_coset_key(ctx, stack, lab))
            groups.setdefault((lab, key), []).append(len(comps))
            comps.append(Component(lab, pos + i, pos + j, payload, name, key))
            merge(stack, lab, payload)
            i = j
        pos += n
    classes = list(groups.values())
    isolated = [g[0] for g in classes if len(g) == 1]
    return ConnectivityReport(comps, classes, isolated), tuple(stack)


def path_components(path: SyllablePath) -> list[Component]:
    """Maximal same-factor runs; identity run products are ill-formed."""
    return _walk(path.ctx, (("", path.letters),))[0].components


def _coset_key(ctx: FreeProductCtx, vertex: Sequence, label: str) -> Sequence:
    """Canonical representative of vertex * H_label: drop a trailing label syllable."""
    if vertex and vertex[-1][0] == label:
        return vertex[:-1]
    return vertex


@dataclass
class ConnectivityReport:
    components: list[Component]
    classes: list[list[int]]  # index lists into components, by first member
    isolated: list[int]

    @property
    def isolated_count(self) -> int:
        return len(self.isolated)


def connectivity(path: SyllablePath) -> ConnectivityReport:
    """Partition a closed path's components by the coset their vertices share.

    Two components of factor H are connected exactly when their start
    vertices differ by right multiplication inside H; that is a normal-form
    comparison after stripping a trailing H-syllable, no search involved.
    One left-to-right walk records each component's coset key and class as
    it starts and reads closure off the empty final stack.
    """
    rep, end = _walk(path.ctx, (("", path.letters),))
    if end:
        raise FreeProductError(
            f"connectivity needs a closed path; this one ends at "
            f"{path.ctx.format_element(end)}"
        )
    return rep


def check_W_membership(path: SyllablePath) -> bool:
    """Alternation test for the admissible-word family.

    A member interleaves at most one free-part letter between factor
    letters, never puts two free-part letters side by side, and separates
    equal-factor neighbours by a free-part letter.  The general theory also
    forbids labels in a ball of some radius; over a free product that ball
    is just the identity, which letter validity already guarantees, so
    there is no radius to choose here.
    """
    prev = None
    for letter in path.letters:
        if letter[0] == "h":
            if path.ctx.factor(letter[1]).is_identity(letter[2]):
                return False
            if prev is not None and prev[0] == "h" and prev[1] == letter[1]:
                return False
        elif prev is not None and prev[0] == "x":
            return False
        prev = letter
    return True


# -- hyperbolicity ---------------------------------------------------------


def _cyclic_syllable_reduce(ctx: FreeProductCtx, g: Element) -> tuple[Element, Element]:
    """(core, conjugator) with g = conjugator * core * conjugator^-1.

    Rotates boundary syllables of equal kind into each other until the
    first and last syllables cannot merge; a lone free-part syllable is
    then cyclically reduced by ``words.cyclic_reduce``.
    """
    core = g
    conj: Element = ()
    while len(core) >= 2 and core[0][0] == core[-1][0]:
        head = (core[0],)
        conj = ctx.mul(conj, head)
        core = ctx.mul(core[1:], head)
    if len(core) == 1 and core[0][0] is None:
        free, p = cyclic_reduce(Word(ctx.free_alphabet, core[0][1]))
        conj, core = ctx.mul(conj, ctx.free_word(p)), ctx.free_word(free)
    return core, conj


@dataclass(frozen=True)
class HyperbolicityReport:
    hyperbolic: bool
    infinite_order: bool
    core: Element
    conjugator: Element
    factor_label: str | None = None  # set when parabolic


def hyperbolicity_report(g: Element, ctx: FreeProductCtx) -> HyperbolicityReport:
    if g == ():
        raise FreeProductError("the identity is neither hyperbolic nor parabolic")
    core, conj = _cyclic_syllable_reduce(ctx, g)
    if len(core) == 1 and core[0][0] is not None:
        lab, payload = core[0]
        return HyperbolicityReport(
            hyperbolic=False,
            infinite_order=not ctx.factor(lab).has_finite_order(payload),
            core=core,
            conjugator=conj,
            factor_label=lab,
        )
    return HyperbolicityReport(True, True, core, conj)


# -- exact conjugacy -------------------------------------------------------


def conjugacy_witness_fp(ctx: FreeProductCtx, u: Element, v: Element) -> Element | None:
    """g with g u g^-1 = v, or None; exact.

    Parabolic cores delegate to the factor oracle (conjugacy between
    factors never crosses them); hyperbolic cores are conjugate exactly
    when their cyclically reduced syllable sequences are rotations of each
    other; two one-syllable free cores go to ``words.conjugacy_witness``.
    """
    if u == () or v == ():
        return () if u == v else None
    cu, pu = _cyclic_syllable_reduce(ctx, u)
    cv, pv = _cyclic_syllable_reduce(ctx, v)
    par_u = len(cu) == 1 and cu[0][0] is not None
    par_v = len(cv) == 1 and cv[0][0] is not None
    if par_u != par_v:
        return None
    if par_u:
        (lu, hu), (lv, hv) = cu[0], cv[0]
        if lu != lv:
            return None
        z = ctx.factor(lu).conjugating(hu, hv)
        if z is None:
            return None
        return ctx.product([pv, ctx.syllable(lu, z), ctx.inv(pu)])
    if len(cu) == 1 and len(cv) == 1:
        # both single free syllables: conjugacy in the free part
        A = ctx.free_alphabet
        h = conjugacy_witness(Word(A, cu[0][1]), Word(A, cv[0][1]))
        return None if h is None else ctx.product([pv, ctx.free_word(h), ctx.inv(pu)])
    if len(cu) != len(cv):
        return None
    for r in range(len(cu)):
        if cu[r:] + cu[:r] == cv:
            sigma = cu[:r]
            return ctx.product([pv, ctx.inv(sigma), ctx.inv(pu)])
    return None


# -- regularity of four-segment cycles -------------------------------------


@dataclass
class RegularityReport:
    """Connectivity of a closed r q r' q' cycle, sliced by segment.

    A middle-segment component is regular when its coset class contains at
    least one other component of the cycle.  ``pair_violations`` counts
    classes where several distinct q-components meet a q'-component (or
    symmetrically), which the pairing statement forbids; ``matched_pairs``
    lists the clean one-to-one q/q' matches.
    """

    segments: dict[str, tuple[int, int]]
    constant: int  # max boundary-segment length
    report: ConnectivityReport
    irregular: list[int]
    bound_ok: bool
    pair_violations: int
    matched_pairs: list[tuple[int, int]]

    @property
    def irregular_count(self) -> int:
        return len(self.irregular)


def regularity_audit(
    ctx: FreeProductCtx,
    r: Sequence[Letter],
    q: Sequence[Letter],
    rp: Sequence[Letter],
    qp: Sequence[Letter],
) -> RegularityReport:
    """Audit which q/q' components of the cycle r q r' q' stay unmatched.

    The middle segments must be admissible words; the audit then asks, for
    each of their components, whether its factor coset recurs elsewhere on
    the cycle.  The count of irregular components is compared against four
    times the longer boundary segment.
    """
    for name, seg in (("q", q), ("q'", qp)):
        if not check_W_membership(SyllablePath(ctx, tuple(seg))):
            raise FreeProductError(f"segment {name} is not an admissible word")
    segments = (("r", r), ("q", q), ("r'", rp), ("q'", qp))
    rep, end = _walk(ctx, segments)
    if end:
        end = ctx.format_element(end)
        if not r and not rp and not qp:
            raise FreeProductError(
                "a nonempty admissible word alone cannot close up: its label "
                f"{end} is nontrivial in the free product"
            )
        raise FreeProductError(f"cycle does not close; total label {end}")
    bounds, off = {}, 0
    for name, seg in segments:
        bounds[name] = (off, off + len(seg))
        off += len(seg)
    comps = rep.components

    irregular: list[int] = []
    violations = 0
    matched: list[tuple[int, int]] = []
    for cls in rep.classes:
        if len(cls) == 1:
            if comps[cls[0]].segment in ("q", "q'"):
                irregular.append(cls[0])
            continue
        nq = nqp = 0  # q and q' members, with the last of each in iq, iqp
        for i in cls:
            seg = comps[i].segment
            if seg == "q":
                nq, iq = nq + 1, i
            elif seg == "q'":
                nqp, iqp = nqp + 1, i
        if (nq >= 2 and nqp) or (nqp >= 2 and nq):
            violations += 1
        elif nq == 1 == nqp and len(cls) == 2:
            matched.append((iq, iqp))
    constant = max(len(r), len(rp))
    return RegularityReport(
        segments=bounds,
        constant=constant,
        report=rep,
        irregular=irregular,
        bound_ok=len(irregular) <= 4 * constant,
        pair_violations=violations,
        matched_pairs=sorted(matched),
    )


# -- randomized audit instances -------------------------------------------


def random_trivial_cycle(ctx: FreeProductCtx, rng: random.Random, size: int = 12) -> SyllablePath:
    """Random closed path whose letter product is the identity.

    The word nests conjugated cancelling pairs and concatenates blocks under
    a letter budget; with factors present a pair is free-part with
    probability 0.4.  Shape first, payloads last: an attempt draws only its
    shape (the order in which pairs open and close) and each pair's kind,
    and is rejected when no pair is free, since the scrub below would empty
    it.  Acceptance reads only the shape and the kinds, and letters and
    payloads are independent of both, so drawing them for the kept attempt
    alone, in the recorded order, gives exactly the distribution of building
    whole words and rejecting them.  A factor pair's two letters are built
    once per (label, payload) and kept in ``ctx.h_pairs``.  The kept word is
    scrubbed in one stack pass: same-factor runs multiplying to the identity
    are deleted (the product is unchanged).  A seed fixes the whole sequence
    of cycles.
    """
    if ctx.free_alphabet is None:
        raise FreeProductError(
            "a trivial cycle needs a free part: without free letters every word scrubs to empty"
        )
    if size < 2:
        raise FreeProductError(f"a trivial cycle needs size >= 2 to hold a pair, got {size}")
    rand = rng.random
    mixed = bool(ctx.factors)
    for _ in range(200):
        order: list[int] = []  # pair i opens as i and closes as ~i
        kinds: list[bool] = []  # per pair in opening order: free-part or not
        # budgets still to build, and ~i for a pair still to close; a budget
        # below 2 draws nothing, so none is pushed
        todo = [size]
        while todo:
            b = todo.pop()
            if b < 0:
                order.append(b)
            elif rand() < 0.55:
                i = len(kinds)
                kinds.append(not mixed or rand() < 0.4)
                order.append(i)
                todo.append(~i)
                if b >= 4:
                    todo.append(b - 2)
            elif rand() < 0.5:
                cut = 1 + int(rand() * (b - 1))
                if b - cut >= 2:
                    todo.append(b - cut)
                if cut >= 2:
                    todo.append(cut)
        if True in kinds:
            break
    else:
        raise FreeProductError("could not generate a nonempty trivial cycle")
    free_pairs, factors, h_pairs = ctx.free_pairs, ctx.factors, ctx.h_pairs
    pairs = []
    for is_free in kinds:
        if is_free:
            pairs.append(free_pairs[int(rand() * len(free_pairs))])
        else:
            f = factors[int(rand() * len(factors))]
            key = (f.label, f.sample(rng))
            pair = h_pairs.get(key)
            if pair is None:
                lab, p = key
                pair = h_pairs[key] = (("h", lab, p), ("h", lab, f.inverse(p)))
            pairs.append(pair)
    letters = [pairs[i][0] if i >= 0 else pairs[~i][1] for i in order]
    return SyllablePath(ctx, tuple(_scrub_identity_runs(ctx, letters)))


def _scrub_identity_runs(ctx: FreeProductCtx, letters: Iterable[Letter]) -> list[Letter]:
    """Delete same-factor runs whose product is the identity, in one stack pass.

    A run is deleted when it closes with the identity product (a letter of
    another kind arrives, or the letters end), and the run below it reopens
    if the next letter has its label; the product is kept.  The open run is
    kept in a local and read off ``out`` only after a deletion.
    """
    by_label = ctx.by_label
    out: list[Letter] = []
    runs: list[list] = []  # [label, start in out, product, factor], one per factor run of out
    top = None  # the open run: the one out ends in, None after a free letter
    for letter in letters:
        if letter[0] == "x":
            if top is not None:
                if top[3].is_identity(top[2]):
                    del out[runs.pop()[1]:]
                top = None
            out.append(letter)
            continue
        lab = letter[1]
        if top is not None and top[0] != lab and top[3].is_identity(top[2]):
            del out[runs.pop()[1]:]
            top = runs[-1] if out and out[-1][0] == "h" else None
        if top is not None and top[0] == lab:
            top[2] = top[3].multiply(top[2], letter[2])
        else:
            top = [lab, len(out), letter[2], by_label[lab]]
            runs.append(top)
        out.append(letter)
    if top is not None and top[3].is_identity(top[2]):
        del out[top[1]:]
    return out


def _check_admissible_sampling(ctx: FreeProductCtx) -> None:
    """Fail before any draw unless the product has factor letters and free separators."""
    if ctx.free_alphabet is None:
        raise FreeProductError("admissible-word sampling needs a free part")
    if not ctx.factors:
        raise FreeProductError(
            "admissible-word sampling needs a factor: its words are factor letters "
            "between free ones"
        )


def random_admissible_word(
    ctx: FreeProductCtx,
    rng: random.Random,
    blocks: int = 4,
    x_ends: bool = False,
) -> SyllablePath:
    """Random member of the admissible family: h-letters with x separators.

    Equal-factor neighbours always get a separator; distinct factors get
    one at random.  With x_ends the word starts and ends with a free-part
    letter, which keeps its inverse admissible after wrapping in extra
    boundary letters.
    """
    _check_admissible_sampling(ctx)

    def x() -> Letter:
        return ctx.x_letter(rng.choice(ctx.free_alphabet.names), rng.choice((1, -1)))

    letters: list[Letter] = [x()] if x_ends else []
    prev_label: str | None = None
    for _ in range(blocks):
        f = rng.choice(ctx.factors)
        if letters and letters[-1][0] == "h" and (f.label == prev_label or rng.random() < 0.5):
            letters.append(x())
        elif not letters and rng.random() < 0.3:
            letters.append(x())
        letters.append(ctx.h_letter(f.label, f.sample(rng)))
        prev_label = f.label
    if x_ends:
        letters.append(x())
    return SyllablePath(ctx, tuple(letters))


def mirrored_instance(ctx: FreeProductCtx, rng: random.Random) -> tuple[tuple[Letter, ...], ...]:
    """(r, q, r', q') with single-letter boundaries and a mirrored q'.

    q is sampled admissible with free-part letters at both ends, so
    q' = r'^-1 q^-1 r^-1 is again admissible and the cycle closes by
    construction.  Boundary segments are single factor letters, or empty
    a quarter of the time, keeping the constant at most 1.
    """
    _check_admissible_sampling(ctx)
    q = random_admissible_word(ctx, rng, blocks=rng.randint(2, 5), x_ends=True)

    def boundary() -> tuple[Letter, ...]:
        if rng.random() < 0.25:
            return ()
        f = rng.choice(ctx.factors)
        return (ctx.h_letter(f.label, f.sample(rng)),)

    r = boundary()
    rp = boundary()
    qp = tuple(ctx.letter_inverse(l) for l in reversed(r + q.letters + rp))
    return r, q.letters, rp, qp


def audit_ctx() -> FreeProductCtx:
    """Z * Z/5 * K with free part {x1, x2}: the product the path audits run over."""
    return FreeProductCtx(
        [FreeAbelianFactor("A", 1), CyclicFactor("B", 5), KleinBottleFactor("K")],
        Alphabet(["x1", "x2"]),
    )


@dataclass(frozen=True)
class PathAudit:
    trivial_instances: int
    isolated: int
    regularity_instances: int
    irregular: int
    pair_violations: int


def path_audit(ctx: FreeProductCtx, rng: random.Random, instances: int) -> PathAudit:
    """``instances`` random trivial cycles, where no component should be
    isolated, then max(1000, instances // 10) mirrored r q r' q' cycles,
    where no middle component should be irregular or pair one side twice."""
    isolated = 0
    for _ in range(instances):
        path = random_trivial_cycle(ctx, rng, size=rng.randint(4, 16))
        isolated += connectivity(path).isolated_count
    n_reg = max(1000, instances // 10)
    irregular = violations = 0
    for _ in range(n_reg):
        rep = regularity_audit(ctx, *mirrored_instance(ctx, rng))
        irregular += rep.irregular_count
        violations += rep.pair_violations
    return PathAudit(instances, isolated, n_reg, irregular, violations)


# -- commensuration probe --------------------------------------------------


@dataclass(frozen=True)
class TwistSpec:
    """u = gamma * t^xi * beta with beta, gamma conjugating a to a^eps."""

    gamma: Payload
    beta: Payload
    xi: int
    eps: int


@dataclass
class ProbeRow:
    k: int
    exponents: tuple[int, int] | None
    witness: str | None
    predicted_eta: int | None = None
    predicted_witness: str | None = None
    prediction_verified: bool | None = None

    @property
    def found(self) -> bool:
        return self.exponents is not None


@dataclass
class ProbeReport:
    label: str
    exp_bound: int
    rows: list[ProbeRow]

    @property
    def all_found(self) -> bool:
        return all(r.found for r in self.rows)

    @property
    def all_verified(self) -> bool:
        return all(r.prediction_verified for r in self.rows)


def commensuration_probe(
    ctx: FreeProductCtx,
    label: str,
    a: Payload,
    t: Element,
    u: Element,
    ks: Iterable[int],
    exp_bound: int = 6,
    twist: TwistSpec | None = None,
) -> ProbeReport:
    """Relate powers of a^k t a^k t^-1 and a^k u a^k u^-1 across a range of k.

    For each k the probe searches exponent pairs (l, l') up to the bound
    for an exact conjugacy between the two powers; the search itself is
    honest (each candidate is settled by the exact conjugacy test), only
    the exponent range is bounded.  When the twist structure of u is
    supplied, the closed-form prediction for the conjugator is also
    verified on normal forms, independent of any search.
    """
    f = ctx.factor(label)
    if f.is_identity(a):
        raise FreeProductError("the probe needs a nonidentity factor element")
    if f.has_finite_order(a):
        raise FreeProductError("the probe needs an infinite-order factor element")
    for name, w in (("t", t), ("u", u)):
        if w == () or (len(w) == 1 and w[0][0] == label):
            raise FreeProductError(f"{name} must lie outside the factor {label!r}")
    if twist is not None:
        expect_u = ctx.product(
            [ctx.syllable(label, twist.gamma), ctx.pow(t, twist.xi), ctx.syllable(label, twist.beta)]
        )
        if expect_u != u:
            raise FreeProductError("twist data does not multiply out to u")
        for payload in (twist.beta, f.inverse(twist.gamma)):
            if not f.equal(
                f.multiply(f.multiply(payload, a), f.inverse(payload)),
                f.power(a, twist.eps),
            ):
                raise FreeProductError(
                    "twist data does not conjugate the probe element as claimed"
                )

    rows: list[ProbeRow] = []
    for k in ks:
        ak = ctx.syllable(label, f.power(a, k))
        g1 = ctx.product([ak, t, ak, ctx.inv(t)])
        g2 = ctx.product([ak, u, ak, ctx.inv(u)])
        found: tuple[int, int] | None = None
        wit: Element | None = None
        pairs = sorted(
            (
                (l, lp)
                for l in range(-exp_bound, exp_bound + 1)
                for lp in range(-exp_bound, exp_bound + 1)
                if l and lp
            ),
            key=lambda p: (abs(p[0]) + abs(p[1]), p[0] <= 0, p[1] <= 0, p),
        )
        for l, lp in pairs:
            w = conjugacy_witness_fp(ctx, ctx.pow(g1, l), ctx.pow(g2, lp))
            if w is not None:
                found, wit = (l, lp), w
                break
        row = ProbeRow(
            k=k,
            exponents=found,
            witness=ctx.format_element(wit) if wit is not None else None,
        )
        if twist is not None:
            gamma_el = ctx.syllable(label, twist.gamma)
            a_mk = ctx.syllable(label, f.power(a, -k))
            if twist.xi == 1:
                pred_w = gamma_el if twist.eps == 1 else ctx.mul(gamma_el, a_mk)
            else:
                tail = ctx.mul(ctx.inv(t), a_mk) if twist.eps == 1 else ctx.inv(t)
                pred_w = ctx.mul(gamma_el, tail)
            eta = twist.eps
            row.predicted_eta = eta
            row.predicted_witness = ctx.format_element(pred_w)
            row.prediction_verified = ctx.conj(pred_w, ctx.pow(g1, eta)) == g2
        rows.append(row)
    return ProbeReport(label=label, exp_bound=exp_bound, rows=rows)


def aligned_power_instance(
    ctx: FreeProductCtx,
    label: str,
    a: Payload,
    t: Element,
    u: Element,
    k: int,
    power: int,
) -> tuple[tuple[Letter, ...], ...]:
    """(r, q, r', q') comparing the probe words' powers along one cycle.

    With g1 = a^k t a^k t^-1 and g2 = a^k u a^k u^-1, the cycle runs
    q = g2^power against q' = g1^-power, the boundaries carrying whatever
    conjugator closes it.  Matched q/q' components of such cycles should
    come in aligned mirror runs; the caller asserts that on the report.
    """
    f = ctx.factor(label)
    ak = ctx.syllable(label, f.power(a, k))
    g1 = ctx.product([ak, t, ak, ctx.inv(t)])
    g2 = ctx.product([ak, u, ak, ctx.inv(u)])
    eta, gamma = 1, conjugacy_witness_fp(ctx, g1, g2)
    if gamma is None:
        eta, gamma = -1, conjugacy_witness_fp(ctx, ctx.inv(g1), g2)
    if gamma is None:
        raise FreeProductError("probe words are not conjugate; no aligned cycle")
    q = element_path(ctx, ctx.pow(g2, power))
    qp = element_path(ctx, ctx.pow(g1, -eta * power))
    r = element_path(ctx, ctx.inv(gamma))
    rp = element_path(ctx, gamma)
    return r, q, rp, qp


def element_path(ctx: FreeProductCtx, g: Element) -> tuple[Letter, ...]:
    """Letter path spelling an element's normal form."""
    letters: list[Letter] = []
    for lab, payload in g:
        if lab is None:
            letters.extend(("x", l) for l in payload)
        else:
            letters.append(("h", lab, payload))
    return tuple(letters)

