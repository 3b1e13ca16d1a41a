"""Finite presentations, retraction-style quotients, and non-conjugacy certificates.

A presentation is parsed from the angle-bracket syntax

    < a , t | t a t^-1 a >

with relators stored freely reduced.  Relations may be written either as a
single word (set equal to 1) or as ``left = right``.  The parser cuts the
text at its marks ``<|>,=`` and reads every word with ``words.read_tokens``.

Two kinds of quotient maps are supported, both onto groups where conjugacy
is trivially decidable:

- killing a subset of generators (image: free group on the survivors),
- sending every generator to a residue in Z/m (image: finite cyclic).

Each quotient is validated against the relators at construction time, and a
mismatch of images yields a self-contained non-conjugacy certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .words import Alphabet, CyclicWord, Word, WordError, name_problem


class PresentationError(ValueError):
    """Parse or validation failure; carries the offending position when known."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at character {position})"
        super().__init__(message)
        self.position = position


@dataclass(frozen=True)
class FinitePresentation:
    alphabet: Alphabet
    relators: tuple[Word, ...]

    def __post_init__(self):
        for r in self.relators:
            if r.alphabet != self.alphabet:
                raise PresentationError(f"relator {r} is not over the presentation alphabet")
            if r.is_identity:
                raise PresentationError("identity relator is not allowed")

    @property
    def is_free(self) -> bool:
        return not self.relators

    def __str__(self) -> str:
        gens = " , ".join(self.alphabet.names)
        rels = " , ".join(str(r) for r in self.relators)
        return f"< {gens} | {rels} >" if rels else f"< {gens} | >"


def _pieces(text: str, start: int, end: int):
    """(position, stripped piece) for each ``,``-separated piece of text[start:end]."""
    for piece in text[start:end].split(","):
        # a blank piece is placed at the mark that ends it
        yield start + len(piece) - len(piece.lstrip()), piece.strip()
        start += len(piece) + 1


def parse_presentation(text: str) -> FinitePresentation:
    """Parse ``< gens | relations >``; raises PresentationError with a position.

    The text is cut at ``<``, the first ``|`` and the next ``>``, then at
    ``,`` and ``=``; each side of a relation is word text.  Blank relations
    and a lone ``=`` are skipped.
    """
    lt = len(text) - len(text.lstrip())
    if not text.startswith("<", lt):
        raise PresentationError("expected '<' at the start", lt)
    bar = text.find("|", lt)
    if bar < 0:
        raise PresentationError("expected '|' after the generators", len(text))
    gt = text.find(">", bar)
    if gt < 0:
        raise PresentationError("unterminated presentation, expected '>'", len(text))
    if text[gt + 1 :].strip():
        raise PresentationError("trailing input after '>'", gt + 1)

    names: list[str] = []
    for at, name in _pieces(text, lt + 1, bar):
        problem = name_problem(name)
        if problem:
            raise PresentationError(f"generator name {name!r} {problem}", at)
        if name in names:
            raise PresentationError(f"duplicate generator {name!r}", at)
        names.append(name)
    alphabet = Alphabet(names)

    relators: list[Word] = []
    for at, relation in _pieces(text, bar + 1, gt):
        if relation.count("=") > 1:
            raise PresentationError("more than one '=' in a relation", at)
        if relation in ("", "="):
            continue
        left, _, right = relation.partition("=")
        try:
            rel = alphabet.parse_word(left) * alphabet.parse_word(right).inverse()
        except WordError as e:
            raise PresentationError(str(e), at) from None
        if rel.is_identity:
            raise PresentationError("relation reduces to the identity", at)
        relators.append(rel)
    return FinitePresentation(alphabet, tuple(relators))


@dataclass(frozen=True)
class KillSpec:
    """Quotient that deletes a set of generators and keeps the rest free.

    Valid only when every relator maps to the identity of the free group on
    the surviving generators; checked at construction against the
    presentation passed in.
    """

    presentation: FinitePresentation
    killed: tuple[str, ...]
    kind: str = field(default="kill-generators", init=False)

    def __post_init__(self):
        seen = set()
        for n in self.killed:
            if n not in self.presentation.alphabet:
                raise PresentationError(f"cannot kill unknown generator {n!r}")
            if n in seen:
                raise PresentationError(f"generator {n!r} killed twice")
            seen.add(n)
        if len(self.killed) == self.presentation.alphabet.size:
            raise PresentationError("killing every generator leaves nothing to separate")
        for r in self.presentation.relators:
            if not self.image(r).is_identity:
                raise PresentationError(
                    f"relator {r} does not die under killing {list(self.killed)}; "
                    "the quotient is not well defined"
                )

    @property
    def target_alphabet(self) -> Alphabet:
        return Alphabet([n for n in self.presentation.alphabet.names if n not in self.killed])

    def image(self, w: Word) -> Word:
        tgt = self.target_alphabet
        out = []
        for l in w.letters:
            name = w.alphabet.names[abs(l) - 1]
            if name in self.killed:
                continue
            out.append(tgt.letter(name, 1 if l > 0 else -1))
        return tgt.word(out)

    def conjugacy_invariant(self, w: Word) -> CyclicWord:
        return CyclicWord.of(self.image(w))

    def describe(self) -> str:
        return f"kill {{{', '.join(self.killed)}}} -> free group on {{{', '.join(self.target_alphabet.names)}}}"

    def to_json(self) -> dict:
        return {"kind": self.kind, "killed": list(self.killed)}


@dataclass(frozen=True)
class CyclicSpec:
    """Quotient onto Z/m sending each generator to a fixed residue.

    Valid only when every relator has weighted exponent sum divisible by m.
    """

    presentation: FinitePresentation
    modulus: int
    residues: Mapping[str, int]

    kind: str = field(default="cyclic", init=False)

    def __post_init__(self):
        if self.modulus < 2:
            raise PresentationError(f"modulus must be >= 2, got {self.modulus}")
        object.__setattr__(
            self,
            "residues",
            {n: r % self.modulus for n, r in dict(self.residues).items()},
        )
        for n in self.residues:
            if n not in self.presentation.alphabet:
                raise PresentationError(f"residue given for unknown generator {n!r}")
        for n in self.presentation.alphabet.names:
            if n not in self.residues:
                raise PresentationError(f"no residue given for generator {n!r}")
        for r in self.presentation.relators:
            if self.image(r) != 0:
                raise PresentationError(
                    f"relator {r} maps to {self.image(r)} != 0 mod {self.modulus}; "
                    "the quotient is not well defined"
                )

    def image(self, w: Word) -> int:
        total = 0
        for l in w.letters:
            name = w.alphabet.names[abs(l) - 1]
            total += self.residues[name] if l > 0 else -self.residues[name]
        return total % self.modulus

    def conjugacy_invariant(self, w: Word) -> int:
        return self.image(w)

    def describe(self) -> str:
        pairs = ", ".join(f"{n}->{r}" for n, r in self.residues.items())
        return f"Z/{self.modulus} via {pairs}"

    def to_json(self) -> dict:
        return {"kind": self.kind, "modulus": self.modulus, "residues": dict(self.residues)}


QuotientSpec = KillSpec | CyclicSpec


def quotient_spec_from_json(presentation: FinitePresentation, doc: Mapping) -> QuotientSpec:
    kind = doc.get("kind")
    if kind == "kill-generators":
        return KillSpec(presentation, tuple(doc["killed"]))
    if kind == "cyclic":
        return CyclicSpec(presentation, int(doc["modulus"]), dict(doc["residues"]))
    raise PresentationError(f"unknown quotient kind {kind!r}")


@dataclass(frozen=True)
class NonConjugacyCertificate:
    """Proof that two words are non-conjugate: a quotient separates their classes.

    The certificate stores everything needed to re-check it from scratch;
    ``verify`` re-parses, re-validates the quotient, and re-compares images.
    """

    presentation_text: str
    quotient: dict
    u_text: str
    v_text: str
    u_image: str
    v_image: str

    def verify(self) -> bool:
        pres = parse_presentation(self.presentation_text)
        spec = quotient_spec_from_json(pres, self.quotient)
        u = pres.alphabet.parse_word(self.u_text)
        v = pres.alphabet.parse_word(self.v_text)
        iu, iv = spec.conjugacy_invariant(u), spec.conjugacy_invariant(v)
        return str(spec.image(u)) == self.u_image and str(spec.image(v)) == self.v_image and iu != iv

    def to_json(self) -> dict:
        # keys in sorted order, as the run reports have always printed them
        return {
            "certificate": "non-conjugacy",
            "images": [self.u_image, self.v_image],
            "presentation": self.presentation_text,
            "quotient": dict(sorted(self.quotient.items())),
            "words": [self.u_text, self.v_text],
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "NonConjugacyCertificate":
        return cls(
            presentation_text=doc["presentation"],
            quotient=doc["quotient"],
            u_text=doc["words"][0],
            v_text=doc["words"][1],
            u_image=doc["images"][0],
            v_image=doc["images"][1],
        )


def conjugacy_obstruction(
    presentation: FinitePresentation,
    spec: QuotientSpec,
    u: Word,
    v: Word,
) -> NonConjugacyCertificate | None:
    """Certificate that u is not conjugate to v, or None when this test can't tell.

    Conjugate elements have conjugate images, so distinct conjugacy
    invariants downstairs rule conjugacy out upstairs.  Equal invariants
    prove nothing (the map can merge classes), hence None, not "conjugate".
    """
    if spec.presentation != presentation:
        raise PresentationError("quotient spec was validated against a different presentation")
    iu = spec.conjugacy_invariant(u)
    iv = spec.conjugacy_invariant(v)
    if iu == iv:
        return None
    return NonConjugacyCertificate(
        presentation_text=str(presentation),
        quotient=spec.to_json(),
        u_text=str(u),
        v_text=str(v),
        u_image=str(spec.image(u)),
        v_image=str(spec.image(v)),
    )
