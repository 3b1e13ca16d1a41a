"""Stagewise construction of HNN towers that collapse conjugacy classes.

Starting from a free base and a list of fixed representatives, each stage
takes the next nontrivial base element in shortlex order and either

- attaches a fresh stable letter conjugating it onto the representative of
  its class, or
- records a skip: an already-derivable conjugator (skip rule), so the tower
  does not grow for elements whose class is settled, or a reason the mode
  forces.

What a stage may record is one stage rule, ``_StageRule``, which the
builder follows and the replay of a certificate checks, so the decision is
written once.  In ncc mode its class bookkeeping is one ledger,
``_ClassLedger``: a union-find over exact commensurability keys of base
words with a class label on each root.  The point of the key choice:
attaching ``t g t^-1 = x`` can merge the classes of elements commensurable
with ``g`` or ``x`` but nothing else, so replaying the merges proves which
representatives stay in distinct classes.  In coset mode the rule holds the
map from quotient images to classes instead: each element is conjugated
onto the fixed representative carrying the same image under the map.

The build is packaged as a JSON certificate whose replay does not trust the
builder: the same rule, fed only by the document, recomputes the
enumeration, every key, image and merge, and every claimed conjugator from
scratch, and the replay report stops at its first failing check.

A certificate has one spelling, the text ``certificate_to_json_str``
writes, and replay accepts no other: the writer defines the format.  Every
field but the stages must be, as canonical JSON text, what ``_header``
writes for the configuration replay has read; each stage record carries
exactly the keys ``StageRecord.fields`` gives its kind; ``load_certificate``
refuses a repeated key.  Every word is printed form: tokens ``name`` or
``name^-1`` joined by single spaces and freely reduced, or ``1`` alone.
So replay compares words as text, parsing one only to say why it differs,
and reads witnesses with ``Tower.printed_items``, which expands no exponent,
straight into the one conjugator check, ``hnn.conjugator_holds``.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Mapping, NamedTuple

from . import hnn, words as W
from .hnn import CyclicAssociation, HnnError, Tower, TowerWord
from .presentations import (
    CyclicSpec,
    FinitePresentation,
    QuotientSpec,
    quotient_spec_from_json,
)
from .words import Word, WordError


class TowerBuildError(ValueError):
    """Configuration or replay failure; message names the offending stage."""


def _class_key_at(w: Word) -> tuple[tuple, int, int]:
    """w's conjugacy class key and where it sits in w: ``(key, i, k)``.

    The key is the least rotation (Booth) of w's cyclically reduced core
    ``ls[i:n-i]``, read straight off the letters through the alphabet's
    code table, and starts at the core's k-th letter; it equals the letters
    of ``W.CyclicWord.of(w)``, so keys are equal exactly for conjugate base
    words.
    """
    ls = w.letters
    i = W._peel(ls)
    core = ls[i : len(ls) - i]
    k = W._least_rotation(list(map(w.alphabet.codes.__getitem__, core))) if core else 0
    return core[k:] + core[:k], i, k


_KNOWN_CONJUGATOR = "conjugator-to-representative-known"  # the skip reason of the skip rule


class StageRecord(NamedTuple):
    """One stage of a build.  A named tuple, since a build makes one a stage
    and a frozen dataclass costs about three times as much to make; its
    field ``index`` shadows ``tuple.index``."""

    index: int
    element: Word
    action: str  # "attach" | "skip"
    class_index: int | None = None
    case: str = ""  # "fresh" | "same-class" for attaches
    reason: str = ""  # for skips
    stable: str | None = None
    target: Word | None = None
    witness: TowerWord | None = None
    image: str | None = None  # coset mode only

    def fields(self) -> list[tuple[str, str | int]]:
        """The record's JSON fields as (key, value) pairs, sorted by key: the
        order ``certificate_to_json_str`` writes them in."""
        out: list[tuple[str, str | int]] = [("action", self.action)]
        if self.case:
            out.append(("case", self.case))
        if self.class_index is not None:
            out.append(("class", self.class_index))
        out.append(("element", str(self.element)))
        if self.image is not None:
            out.append(("image", self.image))
        if self.reason:
            out.append(("reason", self.reason))
        if self.stable is not None:
            out.append(("stable", self.stable))
        out.append(("stage", self.index))
        if self.target is not None:
            out.append(("target", str(self.target)))
        if self.witness is not None:
            out.append(("witness", str(self.witness)))
        return out

    def to_json(self) -> dict:
        return dict(self.fields())

    @classmethod
    def of_kind(cls, index, element, kind, class_index, *, image, case="", stable=None,
                target=None, witness=None) -> StageRecord:
        """The record of a stage that records ``kind``, "attach" or a skip
        reason: the one place that says which fields each kind carries.  An
        attach has no witness, and a case only without an image (ncc mode);
        a skip that no representative's image fits has no class, target or
        witness."""
        if kind == "attach":
            return cls(index, element, kind, class_index, case if image is None else "",
                       stable=stable, target=target, image=image)
        if kind == _NO_REPRESENTATIVE:
            class_index = target = witness = None
        return cls(index, element, "skip", class_index, reason=kind, target=target,
                   witness=witness, image=image)


@dataclass
class TowerConfig:
    """Everything a build needs; validated before any stage runs.

    ``mode`` is "ncc" (class collapse towards fixed representatives) or
    "coset" (collapse towards representatives matched by quotient image).
    ``representatives`` holds the fixed representative of each class, in
    class order: ``classes - 1`` of them in ncc mode, where the identity is
    a class of its own, and ``classes`` in coset mode, one per image.
    ``class_seeds`` (ncc mode) pre-assigns extra base words to a
    representative's class; they are honoured when their turn comes up in
    the enumeration.
    """

    base: FinitePresentation
    classes: int = 2
    representatives: tuple[Word, ...] = ()
    stages: int = 50
    mode: str = "ncc"
    class_seeds: Mapping[int, tuple[Word, ...]] = field(default_factory=dict)
    quotient: QuotientSpec | None = None

    def _tagged(self) -> list[tuple[int, Word]]:
        """(class, word) for every representative, then every seed by class."""
        tagged = list(enumerate(self.representatives, start=1))
        for ci, seeds in sorted(self.class_seeds.items()):
            tagged.extend((ci, s) for s in seeds)
        return tagged

    def validate(self) -> None:
        if not self.base.is_free:
            raise TowerBuildError(
                "tower base must be a free presentation; relators are not supported"
            )
        if self.stages < 0:
            raise TowerBuildError("stages must be nonnegative")
        if self.mode not in ("ncc", "coset"):
            raise TowerBuildError(f"unknown mode {self.mode!r}")
        for i, r in enumerate(self.representatives, start=1):
            if r.is_identity:
                raise TowerBuildError(f"representative {i} is the identity")
            if r.alphabet != self.base.alphabet:
                raise TowerBuildError(f"representative {r} is not over the base alphabet")
        if self.mode == "ncc":
            if self.classes < 2:
                raise TowerBuildError("need at least 2 conjugacy classes (identity plus one)")
            if len(self.representatives) != self.classes - 1:
                raise TowerBuildError(
                    f"{self.classes} classes need {self.classes - 1} representatives, "
                    f"got {len(self.representatives)}"
                )
            for ci, seeds in self.class_seeds.items():
                if not 1 <= ci <= self.classes - 1:
                    raise TowerBuildError(f"seed class {ci} out of range")
                if any(s.is_identity for s in seeds):
                    raise TowerBuildError(f"seed for class {ci} is the identity")
            for (ci, u), (cj, v) in itertools.combinations(self._tagged(), 2):
                if ci != cj and W.commensurable(u, v).related:
                    raise TowerBuildError(
                        f"class {ci} word {u} and class {cj} word {v} are commensurable; "
                        "their classes could not stay distinct"
                    )
            return
        if self.quotient is None:
            raise TowerBuildError("coset mode needs a quotient spec")
        if self.quotient.presentation != self.base:
            raise TowerBuildError("quotient spec was built against a different presentation")
        if not self.representatives:
            raise TowerBuildError("coset mode needs a nonempty representative set")
        if self.classes != len(self.representatives):
            raise TowerBuildError(
                f"coset mode counts one class per representative: "
                f"classes={self.classes} vs {len(self.representatives)} representatives"
            )
        _StageRule.classes_by_image(self.quotient, self.representatives)


class _ClassLedger:
    """The class bookkeeping of the ncc stage rule.

    A union-find over ``W.commensurability_key`` of base words, plus the
    class label of each root.  It starts with every representative and
    seed labelled by its class.  ``attach(g)`` records the relation
    ``t g t^-1 = rep_ci`` by joining g's class to that of representative ci
    under label ci; a label that contradicts the one a class already
    carries raises ``TowerBuildError``.
    """

    def __init__(self, config: TowerConfig):
        self.parent: dict = {}
        self.labels: dict = {}
        self.reps = config.representatives
        self.rep_keys = tuple(W.commensurability_key(r) for r in self.reps)
        for ci, w in config._tagged():
            self._claim(self._root(W.commensurability_key(w)), w, ci)

    def _root(self, x):
        p = self.parent
        root = p.setdefault(x, x)
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def _claim(self, root, w: Word, ci: int) -> None:
        old = self.labels.setdefault(root, ci)
        if old != ci:
            raise TowerBuildError(f"{w} already belongs to class {old}, not {ci}")

    def attach(self, g: Word) -> tuple[str, int]:
        """Attach g; its case and class: the class g's key already carries
        ("same-class"), else class 1 ("fresh")."""
        rg = self._root(W.commensurability_key(g))
        have = self.labels.get(rg)
        case, ci = ("fresh", 1) if have is None else ("same-class", have)
        rt = self._root(self.rep_keys[ci - 1])
        self._claim(rg, g, ci)
        self._claim(rt, self.reps[ci - 1], ci)
        self.parent[rg] = rt
        return case, ci

    def independent(self) -> bool:
        """No two representatives' classes have merged."""
        return all(self.labels.get(self._root(k)) == i for i, k in enumerate(self.rep_keys, 1))


_ATTACH_OR_CONJUGATOR = ("attach", _KNOWN_CONJUGATOR)
_NO_REPRESENTATIVE = "no-representative-for-image"


class _StageRule:
    """The stage decision, in the one place both build and replay read it.

    ``choice(g)`` gives what the stage of base element g may record: its
    image (coset mode), its class where the image fixes it, and the kinds
    it may record, "attach" or a skip reason.  In ncc mode a stage may
    attach or skip with a known conjugator, and ``attach`` takes the class
    from the rule's ``_ClassLedger``.  In coset mode the image fixes the
    class; an image without a representative, or the representative
    itself, leaves one skip.  The builder reuses known conjugators only
    where the image is a conjugacy invariant (``reuse``): elsewhere a
    reused conjugator could reach a class other than the image's.
    """

    def __init__(self, config: TowerConfig):
        self.reps = config.representatives
        self.spec = config.quotient if config.mode == "coset" else None
        self.ledger = _ClassLedger(config) if self.spec is None else None
        if self.spec is not None:
            self.class_of_image = self.classes_by_image(self.spec, self.reps)
        self.reuse = self.spec is None or isinstance(self.spec, CyclicSpec)

    @staticmethod
    def classes_by_image(spec: QuotientSpec, reps: tuple[Word, ...]) -> dict[str, int]:
        """Image -> class of the representative carrying it; no image twice."""
        out: dict[str, int] = {}
        for i, z in enumerate(reps, start=1):
            img = str(spec.image(z))
            if img in out:
                raise TowerBuildError(
                    f"representatives {reps[out[img] - 1]} and {z} share the image {img}"
                )
            out[img] = i
        return out

    def choice(self, g: Word) -> tuple[str | None, int | None, tuple[str, ...]]:
        """(image, class, kinds) for the stage of g; attach comes first."""
        if self.spec is None:
            return None, None, _ATTACH_OR_CONJUGATOR
        img = str(self.spec.image(g))
        ci = self.class_of_image.get(img)
        if ci is None:
            return img, None, (_NO_REPRESENTATIVE,)
        if g == self.reps[ci - 1]:
            return img, ci, ("element-is-representative",)
        return img, ci, _ATTACH_OR_CONJUGATOR

    def attach(self, g: Word, ci: int | None) -> tuple[str, int]:
        """Record that g attaches; its case and class (the image's in coset mode)."""
        return ("", ci) if self.ledger is None else self.ledger.attach(g)


@dataclass(frozen=True)
class ConjugatorAnswer:
    """Result of asking for a conjugator onto a representative."""

    status: str  # "yes" | "unknown"
    class_index: int | None = None
    target: Word | None = None
    witness: TowerWord | None = None


@dataclass(frozen=True)
class SimplicityWitness:
    """x written as a product of at most two conjugates of y."""

    status: str  # "yes" | "unknown"
    x: Word | None = None
    y: Word | None = None
    g1: TowerWord | None = None
    g2: TowerWord | None = None
    detail: str = ""

    def verify(self) -> bool:
        if self.status != "yes":
            return False
        assert self.g1 is not None and self.x is not None and self.y is not None
        tower = self.g1.tower
        prod = self.g1 * tower.embed(self.y) * self.g1.inverse()
        if self.g2 is not None:
            prod = prod * self.g2 * tower.embed(self.y) * self.g2.inverse()
        return hnn.is_trivial(prod * tower.embed(self.x).inverse()).is_yes


class TowerBuild:
    """Result of ``build_tower``: the tower, the stage log, and lookups."""

    def __init__(self, config: TowerConfig):
        self.config = config
        self.tower = Tower(config.base.alphabet)
        self.records: list[StageRecord] = []
        # conjugacy-class key -> (class index, stored element, the items of
        # its witness onto rep, the element's i and k from _class_key_at,
        # and the key's period)
        self.witnesses: dict[tuple, tuple[int, Word, tuple, int, int, int]] = {}
        # the representatives as tower word items, for the conjugator check
        self._targets = tuple((r.letters,) for r in config.representatives)

    # -- conjugator witnesses ---------------------------------------------

    def _remember_witness(self, at: tuple, g: Word, ci: int, witness: TowerWord) -> None:
        """Store g's witness under its class key; ``at`` is ``_class_key_at(g)``.
        The first element stored for a key stays."""
        key, i, k = at
        if key not in self.witnesses:
            n = len(key)  # g is no identity, so n > 0
            period = next(p for p in range(1, n + 1) if n % p == 0 and key[p:] + key[:p] == key)
            self.witnesses[key] = (ci, g, witness.items, i, k, period)

    def conjugator_witness(self, g: Word, at: tuple | None = None) -> ConjugatorAnswer:
        """Conjugator taking g onto its class representative, if derivable.

        Derivable means: g is freely conjugate to some element whose stage
        already ran.  The composed conjugator is re-verified by Britton
        reduction before it is returned.  ``at`` is ``_class_key_at(g)``
        when the caller already has it.
        """
        if g.is_identity:
            raise TowerBuildError("the identity needs no conjugator")
        key, i, k = _class_key_at(g) if at is None else at
        hit = self.witnesses.get(key)
        if hit is None:
            return ConjugatorAnswer("unknown")
        ci, g0, w0, i0, k0, period = hit
        # both keys are rotations of the one core, at k and k0, so rotating
        # g's core by r gives g0's core, and this r is the least such, the
        # one W.conjugacy_witness(g, g0) finds: h is the conjugator it
        # returns, g0's first i0 letters times the inverse of g's first i + r
        r = (k - k0) % period
        ls = g.letters
        h = W.mul_letters(g0.letters[:i0], W.inverse_letters(ls[: i + r]))
        # w0 h; every stored witness lives in a tower the tip extends
        full = w0[:-1] + (W.mul_letters(w0[-1], h),)
        if not hnn.conjugator_holds(self.tower, full, (ls,), self._targets[ci - 1]):
            raise TowerBuildError(f"stored conjugator for {g} failed verification")
        target = self.config.representatives[ci - 1]
        return ConjugatorAnswer("yes", class_index=ci, target=target, witness=TowerWord(self.tower, full))

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        doc = _header(self.config, len(self.records))
        doc["stages"] = [r.to_json() for r in self.records]
        return doc


def _header(cfg: TowerConfig, stage_count: int) -> dict:
    """The certificate of a build of ``cfg`` without its stages."""
    doc: dict = {
        "version": 1,
        "kind": "tower-certificate",
        "mode": cfg.mode,
        "base": list(cfg.base.alphabet.names),
        "representatives": [str(r) for r in cfg.representatives],
        "stage_count": stage_count,
    }
    if cfg.mode == "ncc":
        doc["classes"] = cfg.classes
        doc["seeds"] = {
            str(ci): [str(s) for s in seeds] for ci, seeds in sorted(cfg.class_seeds.items())
        }
        doc["base_facts"] = [
            {"left": str(u), "right": str(v), "classes": [ci, cj], "related": False}
            for (ci, u), (cj, v) in itertools.combinations(cfg._tagged(), 2)
            if ci != cj
        ]
    else:
        assert cfg.quotient is not None
        doc["quotient"] = cfg.quotient.to_json()
    return doc


def build_tower(config: TowerConfig) -> TowerBuild:
    """Run the stagewise construction; exact, deterministic, and logged.

    Each stage records what ``_StageRule`` allows, first fit: the skip the
    image forces, a known conjugator where the rule reuses them (each one
    verified by Britton reduction), else an attach.  A stage that may attach
    computes its element's class key once, for both the conjugator lookup
    and the witness an attach stores.
    """
    config.validate()
    b = TowerBuild(config)
    rule = _StageRule(config)
    for i, r in enumerate(config.representatives, start=1):
        b._remember_witness(_class_key_at(r), r, i, b.tower.identity())
    stream = W.shortlex_words(config.base.alphabet)
    for idx in range(1, config.stages + 1):
        g = next(stream)
        img, ci, kinds = rule.choice(g)
        at = _class_key_at(g) if kinds[0] == "attach" else None
        if at is None:  # g has no representative, or is one
            reason, ans = kinds[0], ConjugatorAnswer("unknown")
            if ci is not None:
                ans = ConjugatorAnswer("yes", ci, g, b.tower.identity())
        elif rule.reuse and (ans := b.conjugator_witness(g, at)).status == "yes":
            reason = _KNOWN_CONJUGATOR
        else:
            case, ci = rule.attach(g, ci)
            target, stable = config.representatives[ci - 1], f"t{b.tower.height + 1}"
            b.tower = b.tower.extend(CyclicAssociation(stable, g, target))
            b._remember_witness(at, g, ci, b.tower.stable(stable))
            b.records.append(
                StageRecord.of_kind(
                    idx, g, "attach", ci, image=img, case=case, stable=stable, target=target
                )
            )
            continue
        b.records.append(
            StageRecord.of_kind(
                idx,
                g,
                reason,
                ans.class_index,
                image=img,
                target=ans.target,
                witness=ans.witness,
            )
        )
    return b


# -- re-verification of serialized certificates ---------------------------


@dataclass
class ReverifyReport:
    ok: bool
    checks: list[dict] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": ok, "detail": detail})
        if not ok:
            self.ok = False
            self.failures.append(f"{name}: {detail}" if detail else name)


class _Failed(Exception):
    """``_Failed(check, detail)``: replay stops at this failing check."""


_QUOTE = 200  # characters of a failure's detail that a report keeps


def _clip(text: str) -> str:
    """``text`` cut to ``_QUOTE`` characters, ``...`` marking the cut, so a
    huge document value still gives a short failure line."""
    return text if len(text) <= _QUOTE else text[:_QUOTE] + "..."


def load_certificate(text: str):
    """A certificate's JSON document.  A key repeated in one object raises
    ``ValueError`` naming it: ``json`` would hide its first value from replay."""
    return json.loads(text, object_pairs_hook=_object_once)


def _object_once(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ValueError(f"repeated key {_clip(repr(key))} in a JSON object")
    return obj


def _field(rec: dict, key: str, where: str):
    # the document comes from json.load, which makes every JSON object a dict
    if not isinstance(rec, dict):
        raise _Failed("well-formed", f"{where}: not a JSON object")
    if key not in rec:
        raise _Failed("well-formed", f"{where}: missing {key!r}")
    return rec[key]


def _text(rec: dict, key: str, where: str) -> str:
    value = _field(rec, key, where)
    if not isinstance(value, str):
        raise _Failed("well-formed", f"{where}: {key!r} is not a string")
    return value


def reverify_certificate(doc) -> ReverifyReport:
    """Replay a tower certificate without trusting the builder that wrote it.

    Replay reads only the document, holds it to the writer's format and
    stops at its first failing check, which ends the report and names its
    stage where there is one.  ``structure``: stage count and numbering
    (JSON integers), each element the printed i-th word of
    ``W.shortlex_words(base)``, and, once the document's configuration has
    passed the builder's validation (``representatives``), every other field
    as ``_header`` writes it, compared as canonical JSON text.  A field of
    the wrong JSON type fails ``well-formed``; seeds, ``base_facts`` and
    ``quotient`` fail ``representatives``, ``base-facts`` and ``quotient``,
    and the other fields ``structure``.
    One stage loop holds each record to ``_StageRule``: its kind, exactly
    the keys ``StageRecord.fields`` writes for it, its case, class, image,
    target and stable letter ``t{height}``, and each conjugator, read by
    ``Tower.printed_items``, by Britton reduction (``hnn.conjugator_holds``);
    an element that is its own target has the witness ``1``.  It reports
    ``replay`` and ``independence`` (ncc), or ``images`` and
    ``stage-relations`` (coset).
    What replay cannot read fails ``well-formed``.  A failure's detail is
    cut to ``_QUOTE`` characters.
    """
    rep = ReverifyReport(ok=True)
    try:
        _reverify(doc, rep)
    except _Failed as e:
        check, detail = e.args
        rep.add(check, False, _clip(detail))
    except RecursionError:  # quoting or comparing a document value nested near the limit
        rep.add("well-formed", False, "certificate: a value nests too deeply")
    return rep


def _read_config(doc, base: W.Alphabet) -> TowerConfig:
    """The document's configuration, either mode, not yet validated.

    A part that does not read fails ``representatives`` in ncc mode and
    ``quotient`` in coset mode, which reads the representatives with it.
    """
    free = FinitePresentation(base, ())
    coset = doc["mode"] == "coset"
    seeds: dict[int, tuple[Word, ...]] = {}
    try:
        spec = quotient_spec_from_json(free, doc["quotient"]) if coset else None
        reps = tuple(base.parse_word(r) for r in doc["representatives"])
        # a class key has one spelling, so no class can have two entries
        keys = {str(ci): ci for ci in range(1, len(reps) + 1)}
        for key, ws in {} if coset else doc.get("seeds", {}).items():
            if key not in keys:
                raise _Failed(
                    "representatives", f"seed key {key!r} is not a class 1..{len(reps)}"
                )
            seeds[keys[key]] = tuple(base.parse_word(w) for w in ws)
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        raise _Failed("quotient" if coset else "representatives", str(e)) from None
    return TowerConfig(
        base=free,
        classes=len(reps) if coset else len(reps) + 1,
        representatives=reps,
        mode=doc["mode"],
        class_seeds=seeds,
        quotient=spec,
    )


_ABSENT = object()  # the value on the side that lacks a field or entry
_FIELD_CHECK = {"representatives": "representatives", "seeds": "representatives",
                "base_facts": "base-facts", "quotient": "quotient"}  # the rest: structure
_JSON_TYPE = {list: "a list", dict: "an object", str: "a string", int: "an integer"}


def _canonical(value) -> str:
    """JSON text that tells 0 from false and 1 from 1.0; "" (no JSON) for none."""
    return "" if value is _ABSENT else json.dumps(value, sort_keys=True)


def _difference(where: str, got, want) -> str:
    """Where a document value first differs from the writer's, briefly."""
    if type(got) is type(want) and isinstance(want, (list, dict)):
        got, want = (dict(enumerate(v)) if isinstance(v, list) else v for v in (got, want))
        for k in sorted(got.keys() | want.keys()):
            a, b = got.get(k, _ABSENT), want.get(k, _ABSENT)
            if _canonical(a) != _canonical(b):
                if isinstance(a, dict) and where == "base_facts":  # name the fact
                    where = f"base fact on {a.get('left')} and {a.get('right')}, {where}"
                return _difference(f"{where}[{json.dumps(k)}]", a, b)
    if _ABSENT in (got, want):
        return f"{where} is missing" if got is _ABSENT else f"unexpected {where}"
    return f"{where} is {_canonical(got)}, not {_canonical(want)}"


def _check_header(doc: dict, config: TowerConfig, stage_count: int) -> None:
    """Every field but ``stages`` as the writer writes it for ``config``."""
    want = _header(config, stage_count)
    for key in [*want, *sorted(doc.keys() - want.keys() - {"stages"})]:  # writer's order
        got, w = doc.get(key, _ABSENT), want.get(key, _ABSENT)
        if _canonical(got) == _canonical(w):
            continue
        if _ABSENT not in (got, w) and type(got) is not type(w):
            raise _Failed("well-formed", f"certificate: {key!r} is not {_JSON_TYPE[type(w)]}")
        detail = f"certificate: {_difference(key, got, w)}"
        raise _Failed(_FIELD_CHECK.get(key, "structure"), detail)


@functools.cache
def _record_keys(kind: str, coset: bool) -> frozenset:
    """The keys ``StageRecord.fields`` writes for a record of this kind."""
    record = StageRecord.of_kind(
        0, "", kind, 0, image="" if coset else None, case="-", stable="", target="", witness=""
    )
    return frozenset(k for k, _ in record.fields())


def _reverify(doc, rep: ReverifyReport) -> None:
    try:
        base = W.Alphabet(_field(doc, "base", "certificate"))
    except (WordError, TypeError) as e:
        raise _Failed("base-alphabet", str(e)) from None
    stages = _field(doc, "stages", "certificate")
    if not isinstance(stages, list) or not all(isinstance(s, dict) for s in stages):
        raise _Failed("well-formed", "certificate: 'stages' is not a list of objects")
    if doc.get("stage_count") != len(stages):
        raise _Failed(
            "structure",
            f"certificate truncated or padded: declares {doc.get('stage_count')} stages, "
            f"carries {len(stages)}",
        )
    if doc.get("mode") not in ("ncc", "coset"):
        raise _Failed("structure", f"unknown mode {doc.get('mode')!r}")
    elements = []
    for i, (s, want) in enumerate(zip(stages, W.shortlex_words(base)), start=1):
        at = f"stage {i}"
        if type(s.get("stage")) is not int or s["stage"] != i:
            raise _Failed("structure", f"{at}: 'stage' is not the integer {i}")
        if s.get("element") != str(want):
            try:  # read only to say why the text differs
                g = base.parse_word(_text(s, "element", at))
            except WordError as e:
                raise _Failed("well-formed", f"{at}: {e}") from None
            raise _Failed(
                "structure",
                f"{at}: element {s['element']} is not shortlex word {i}, {want}"
                if g != want
                else f"{at}: element {s['element']!r} is not the printed form of {want}",
            )
        if s.get("action") not in ("attach", "skip"):
            action = _field(s, "action", at)  # a missing action fails well-formed
            raise _Failed("structure", f"{at}: unknown action {action!r}")
        elements.append(want)

    config = _read_config(doc, base)
    try:
        config.validate()
    except TowerBuildError as e:
        raise _Failed("representatives", str(e)) from None
    _check_header(doc, config, len(stages))
    rep.add("structure", True)
    coset = config.mode == "coset"
    rep.add(*(("quotient", True, config.quotient.describe()) if coset else ("base-facts", True)))

    rule, reps = _StageRule(config), config.representatives
    rep_texts = [str(r) for r in reps]
    check, relations = ("images", "stage-relations") if coset else ("replay", "replay")
    tower = Tower(base)
    targets = [(r.letters,) for r in reps]  # as tower word items
    for i, (s, g) in enumerate(zip(stages, elements), start=1):
        at = f"stage {i}"
        img, ci, kinds = rule.choice(g)
        kind = s["action"] if s["action"] == "attach" else s.get("reason")
        if kind not in kinds or kind == "attach" != s["action"]:
            if not coset:
                why = f"skip reason {kind!r} is not a conjugator"
            elif kind in kinds:  # only an attach record may extend the tower
                why = "a skip cannot give reason 'attach'"
            else:
                why = f"image {img} allows {' or '.join(kinds)}, not {kind}"
            raise _Failed(check, f"{at}: {why}")
        keys = _record_keys(kind, coset)
        if s.keys() != keys:
            missing, extra = sorted(keys - s.keys()), sorted(s.keys() - keys)
            why = f"missing {missing[0]!r}" if missing else f"unexpected key {extra[0]!r}"
            raise _Failed("well-formed", f"{at}: {why}")
        if coset and s["image"] != img:  # the image fixes the class
            raise _Failed(check, f"{at}: recorded image {s['image']}, recomputed {img}")
        if coset and ci is not None and (type(s["class"]) is not int or s["class"] != ci):
            raise _Failed(check, f"{at}: recorded class {s['class']}, image {img} has class {ci}")
        if kind == _NO_REPRESENTATIVE:
            continue
        ci = s["class"]
        if kind == "attach":
            case, want = rule.attach(g, ci)
            if not coset and (s["case"], ci) != (case, want):
                raise _Failed(
                    check,
                    f"{at}: element {g} is {case} in class {want}, "
                    f"certificate says {s['case']} in class {ci}",
                )
        if not (type(ci) is int and 1 <= ci <= len(reps) and s["target"] == rep_texts[ci - 1]):
            why = f"the representative of class {ci}"
            if coset:
                why = f"{rep_texts[ci - 1]}, the representative"
            raise _Failed(check, f"{at}: target {s['target']} is not {why}")
        target = reps[ci - 1]
        try:
            if kind == "attach":
                tower = tower.extend(CyclicAssociation(_text(s, "stable", at), g, target))
                if s["stable"] != f"t{tower.height}":
                    why = f"stable letter {s['stable']!r} is not t{tower.height}, the next letter"
                    raise _Failed(check, f"{at}: {why}")
                continue
            text = _text(s, "witness", at)
            w = tower.printed_items(text)  # text is w's printed form
            if g == target and w != ((),):  # the writer's witness for it is 1
                raise _Failed(relations, f"{at}: {g} is its own target: its witness is 1, not {text}")
            good = hnn.conjugator_holds(tower, w, (g.letters,), targets[ci - 1])
        except HnnError as e:
            raise _Failed("well-formed" if kind == "attach" else relations, f"{at}: {e}") from None
        if not good:
            raise _Failed(relations, f"{at}: recorded conjugator does not take {g} to {target}")
    if coset:
        # the representatives were validated before the stage loop; reported last
        for name in ("images", "stage-relations", "representatives"):
            rep.add(name, True)
        return
    rep.add("replay", True)
    if not rule.ledger.independent():
        raise _Failed("independence", "representative classes merged during replay")
    rep.add("independence", True)


@dataclass
class QuotientCheckReport:
    ok: bool
    rows: list[dict] = field(default_factory=list)


def quotient_check(build: TowerBuild) -> QuotientCheckReport:
    """Confirm the quotient map extends over every attached stage relation."""
    if build.config.mode != "coset":
        raise TowerBuildError("quotient_check applies to coset-mode builds")
    spec = build.config.quotient
    assert spec is not None
    report = QuotientCheckReport(ok=True)
    for r in build.records:
        if r.action != "attach":
            continue
        assert r.target is not None
        img_g, img_z = str(spec.image(r.element)), str(spec.image(r.target))
        ok = img_g == img_z
        report.rows.append(
            {
                "stage": r.index,
                "stable": r.stable,
                "element": str(r.element),
                "target": str(r.target),
                "images": [img_g, img_z],
                "ok": ok,
            }
        )
        if not ok:
            report.ok = False
    return report


# -- products of conjugates ------------------------------------------------


def _commutator(a: Word, b: Word) -> Word:
    return a * b * a.inverse() * b.inverse()


def gadget_presentation(classes: int) -> tuple[FinitePresentation, tuple[Word, ...], dict[int, tuple[Word, ...]]]:
    """Free base and seeds wiring every class into commutator position.

    For each class i there is a pet generator pair (a_i, b_i); class i is
    seeded with a_i, a_i^-1 and every commutator [a_l, b_i] for l != i.  In
    the limit group this makes any nontrivial element a product of two
    conjugates of any other, which ``bounded_simple_witness`` exhibits once
    the relevant stages have run.
    """
    if classes < 3:
        raise TowerBuildError("the conjugate-product wiring needs at least 3 classes")
    n = classes - 1
    names = [f"a{i}" for i in range(1, n + 1)] + [f"b{i}" for i in range(1, n + 1)]
    pres = FinitePresentation(W.Alphabet(names), ())
    A = pres.alphabet
    reps = tuple(A.gen(f"a{i}") for i in range(1, n + 1))
    seeds: dict[int, tuple[Word, ...]] = {}
    for i in range(1, n + 1):
        ws = [A.gen(f"a{i}").inverse()]
        for l in range(1, n + 1):
            if l != i:
                ws.append(_commutator(A.gen(f"a{l}"), A.gen(f"b{i}")))
        seeds[i] = tuple(ws)
    return pres, reps, seeds


def bounded_simple_witness(build: TowerBuild, x: Word, y: Word) -> SimplicityWitness:
    """Write x as a product of at most two conjugates of y in the built tower.

    Same class: one conjugate suffices (compose the two stored conjugators).
    Different classes i, j: route through the seeded commutator [a_j, b_i],
    which lies in x's class and whose two halves are conjugates of y.  Both
    cases verify the claimed identity by Britton reduction; anything not yet
    derivable from the built stages comes back as unknown, never guessed.
    """
    if x.is_identity or y.is_identity:
        raise TowerBuildError("both elements must be nontrivial")
    ax = build.conjugator_witness(x)
    ay = build.conjugator_witness(y)
    if ax.status != "yes" or ay.status != "yes":
        missing = "x" if ax.status != "yes" else "y"
        return SimplicityWitness("unknown", detail=f"no conjugator for {missing} at this stage count")
    i, j = ax.class_index, ay.class_index
    assert ax.witness is not None and ay.witness is not None
    tower = build.tower
    if i == j:
        g1 = hnn.britton_reduce(ax.witness.inverse() * ay.witness)
        w = SimplicityWitness("yes", x=x, y=y, g1=g1, g2=None)
        if not w.verify():
            raise TowerBuildError("single-conjugate witness failed verification")
        return w
    A = build.config.base.alphabet
    if f"a{j}" not in A or f"b{i}" not in A:
        return SimplicityWitness("unknown", detail="base lacks the conjugate-product wiring")
    aj, bi = A.gen(f"a{j}"), A.gen(f"b{i}")
    c = _commutator(aj, bi)
    ac = build.conjugator_witness(c)
    aaj = build.conjugator_witness(aj)
    aaji = build.conjugator_witness(aj.inverse())
    for name, ans in (("commutator", ac), ("a_j", aaj), ("a_j^-1", aaji)):
        if ans.status != "yes":
            return SimplicityWitness(
                "unknown", detail=f"no conjugator yet for the {name} piece; build more stages"
            )
    if ac.class_index != i or aaj.class_index != j or aaji.class_index != j:
        return SimplicityWitness("unknown", detail="wiring seeds landed in unexpected classes")
    assert ac.witness is not None and aaj.witness is not None and aaji.witness is not None
    big_w = ax.witness.inverse() * ac.witness
    g1 = hnn.britton_reduce(big_w * aaj.witness.inverse() * ay.witness)
    g2 = hnn.britton_reduce(big_w * tower.embed(bi) * aaji.witness.inverse() * ay.witness)
    w = SimplicityWitness("yes", x=x, y=y, g1=g1, g2=g2)
    if not w.verify():
        raise TowerBuildError("two-conjugate witness failed verification")
    return w


def _json_scalar(v) -> str:
    """``json.dumps(v)`` for a stage field, with the C encoder for strings."""
    if type(v) is str:
        return encode_basestring_ascii(v)
    return int.__repr__(v) if type(v) is int else json.dumps(v)


def certificate_to_json_str(build: TowerBuild) -> str:
    """``json.dumps(build.to_json(), indent=2, sort_keys=True)``, byte for byte.

    With ``indent`` the ``json`` module encodes in pure Python, so the
    stages, nearly all of the text, are written here instead: each record's
    fields in the order ``StageRecord.fields`` gives them, which is sorted
    by key, with strings encoded by the C encoder that
    ``json.dumps`` uses, joined at the places and indents it would use.
    The few other fields go through ``json.dumps`` itself.
    """
    enc = encode_basestring_ascii
    stages = ",\n".join(
        [
            "    {\n"
            + ",\n".join(
                [f"      {enc(k)}: {_json_scalar(v)}" for k, v in r.fields()]
            )
            + "\n    }"
            for r in build.records
        ]
    )
    doc = _header(build.config, len(build.records))
    doc["stages"] = []
    parts = []
    for key in sorted(doc):
        if key == "stages" and stages:
            value = "[\n" + stages + "\n  ]"
        else:
            # JSON text has no raw newline inside a string, so each one
            # here starts a nested line, which sits one level deeper
            value = json.dumps(doc[key], indent=2, sort_keys=True).replace("\n", "\n  ")
        parts.append(f"  {enc(key)}: {value}")
    return "{\n" + ",\n".join(parts) + "\n}"


def klein_coset_config(stages: int = 40) -> TowerConfig:
    """Index-3 coset drive over F(a, t): images in Z/3 with a in the kernel.

    The representative for each nonzero residue is a power of t; the kernel
    residue is represented by a itself, which keeps the representative
    nontrivial while mapping to 0.
    """
    pres = FinitePresentation(W.Alphabet(["a", "t"]), ())
    spec = CyclicSpec(pres, 3, {"a": 0, "t": 1})
    A = pres.alphabet
    return TowerConfig(
        base=pres,
        mode="coset",
        classes=3,
        stages=stages,
        quotient=spec,
        representatives=(A.gen("a"), A.gen("t"), A.gen("t") ** 2),
    )
