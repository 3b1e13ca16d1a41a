"""Span tracing installed from outside the program.

``Tracer.install`` wraps the public entry points of each concc layer.  A
module-level function is rebound in every concc module that holds it, so
callers that imported the name directly (``smallcanc.suffix_array``) are
traced too; methods are rebound on their class (``Word.__pow__``).  Spans
stay in memory as ``(name, start, end, parent, op)`` tuples and are written
out once the job ends.  Counters are updated at the same boundaries, from
arguments and return values only.
"""

from __future__ import annotations

import functools
import json
import math
from time import perf_counter

OP = "bench.op"

# per-layer metric -> (kind, span or counter names); kinds:
#   busy  - time inside spans of these names, nested same-name spans counted once
#   self  - span time minus the time of direct child spans
#   calls - number of spans of these names
#   count - counter total
SPAN_METRICS = {
    "substrings.suffix_array_s": ("busy", ["substrings.suffix_array"]),
    "substrings.suffix_array_symbols": ("count", ["substrings.suffix_array_symbols"]),
    "substrings.lcp_s": ("busy", ["substrings.lcp"]),
    "smallcanc.index_s": ("busy", ["smallcanc.index"]),
    "smallcanc.index_self_s": ("self", ["smallcanc.index"]),
    "smallcanc.symmetrize_s": ("busy", ["smallcanc.symmetrize"]),
    "smallcanc.pieces_s": ("self", ["smallcanc.pieces"]),
    "smallcanc.closure_size": ("count", ["smallcanc.closure_size"]),
    "substrings.automaton_build_s": ("busy", ["substrings.automaton_build"]),
    "substrings.automata": ("calls", ["substrings.automaton_build"]),
    "substrings.automaton_states": ("count", ["substrings.automaton_states"]),
    "smallcanc.dehn_s": ("busy", ["smallcanc.dehn"]),
    "smallcanc.dehn_calls": ("calls", ["smallcanc.dehn"]),
    "smallcanc.dehn_rounds": ("count", ["smallcanc.dehn_rounds"]),
    "smallcanc.dehn_letters_in": ("count", ["smallcanc.dehn_letters_in"]),
    "hnn.britton_s": ("busy", ["hnn.britton"]),
    "hnn.britton_calls": ("calls", ["hnn.britton"]),
    "hnn.is_trivial_s": ("busy", ["hnn.is_trivial"]),
    "words.pow_s": ("busy", ["words.pow"]),
    "words.pow_calls": ("calls", ["words.pow"]),
    "hnn.extend_s": ("busy", ["hnn.extend"]),
    "hnn.extend_calls": ("calls", ["hnn.extend"]),
    "hnn.parse_s": ("busy", ["hnn.parse"]),
    "towers.build_s": ("busy", ["towers.build"]),
    "towers.replay_s": ("busy", ["towers.replay"]),
    "towers.serialize_s": ("busy", ["towers.serialize"]),
    "towers.cert_bytes": ("count", ["towers.cert_bytes"]),
    "towers.stages": ("count", ["towers.stages"]),
    "towers.attaches": ("count", ["towers.attaches"]),
    "towers.conjugator_witness_s": ("busy", ["towers.conjugator_witness"]),
    "words.commensurability_key_s": ("busy", ["words.commensurability_key"]),
    "words.conjugacy_witness_s": ("busy", ["words.conjugacy_witness"]),
    "freeprod.cycle_gen_s": ("busy", ["freeprod.cycle_gen"]),
    "freeprod.connectivity_s": ("busy", ["freeprod.connectivity"]),
    "freeprod.mirrored_gen_s": ("busy", ["freeprod.mirrored_gen"]),
    "freeprod.regularity_s": ("busy", ["freeprod.regularity"]),
    "freeprod.instances": ("calls", ["freeprod.cycle_gen", "freeprod.mirrored_gen"]),
    "freeprod.components": ("count", ["freeprod.components"]),
    "cli.main_s": ("busy", ["cli.main"]),
    "cli.self_s": ("self", ["cli.main"]),
}

# derived in ``layer_metrics`` from the ones above
DERIVED_METRICS = (
    "smallcanc.dehn_useful_ratio",
    "towers.skip_ratio",
    "bench.top_span_share",
    "bench.trace_overhead_s",
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.op = -1
        self._undo: list = []

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def span(self, name: str, fn, after=None):
        """Wrap fn so each call records a span; ``after(result, args)`` counts."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op)
            if after is not None:
                after(result, args)
            return result

        return traced

    def _rebind(self, owner, attr: str, name: str, after=None, modules=()) -> None:
        fn = owner.__dict__[attr]
        wrapped = self.span(name, fn, after)
        holders = [owner] + [m for m in modules if m.__dict__.get(attr) is fn and m is not owner]
        for h in holders:
            setattr(h, attr, wrapped)
            self._undo.append((h, attr, fn))

    def install(self) -> None:
        from concc import cli, freeprod, hnn, smallcanc, substrings, towers, words

        mods = (cli, freeprod, hnn, smallcanc, substrings, towers, words)
        c = self.count

        def automaton(_, args):
            c("substrings.automaton_states", len(args[0].next))

        def dehn(red, args):
            steps = len(red.steps)
            c("smallcanc.dehn_letters_in", len(args[0]))
            c("smallcanc.dehn_steps", steps)
            # one matching pass per step, plus the pass that finds nothing
            c("smallcanc.dehn_rounds", steps + (0 if red.is_empty else 1))

        def build(b, _):
            c("towers.stages", len(b.records))
            c("towers.attaches", sum(1 for r in b.records if r.action == "attach"))
            c("towers.skips", sum(1 for r in b.records if r.action == "skip"))

        plan = [
            (substrings, "suffix_array", "substrings.suffix_array",
             lambda _, a: c("substrings.suffix_array_symbols", len(a[0]))),
            (substrings, "lcp_array", "substrings.lcp", None),
            (substrings.SuffixAutomaton, "__init__", "substrings.automaton_build", automaton),
            (smallcanc, "symmetrize", "smallcanc.symmetrize",
             lambda S, _: c("smallcanc.closure_size", S.closure_size)),
            (smallcanc.SymmetrizedSet, "index", "smallcanc.index", None),
            (smallcanc, "max_pieces", "smallcanc.pieces", None),
            (smallcanc, "check_metric", "smallcanc.pieces", None),
            (smallcanc, "dehn_reduce_traced", "smallcanc.dehn", dehn),
            (hnn, "britton_reduce", "hnn.britton", None),
            (hnn, "is_trivial", "hnn.is_trivial", None),
            (hnn.Tower, "extend", "hnn.extend", None),
            (hnn.Tower, "parse", "hnn.parse", None),
            (words.Word, "__pow__", "words.pow", None),
            (words, "commensurability_key", "words.commensurability_key", None),
            (words, "conjugacy_witness", "words.conjugacy_witness", None),
            (towers, "build_tower", "towers.build", build),
            (towers, "reverify_certificate", "towers.replay", None),
            (towers, "certificate_to_json_str", "towers.serialize",
             lambda text, _: c("towers.cert_bytes", len(text.encode()))),
            (towers.TowerBuild, "to_json", "towers.serialize", None),
            (towers.TowerBuild, "conjugator_witness", "towers.conjugator_witness", None),
            (freeprod, "random_trivial_cycle", "freeprod.cycle_gen", None),
            (freeprod, "connectivity", "freeprod.connectivity",
             lambda rep, _: c("freeprod.components", len(rep.components))),
            (freeprod, "mirrored_instance", "freeprod.mirrored_gen", None),
            (freeprod, "regularity_audit", "freeprod.regularity", None),
            (cli, "main", "cli.main", None),
        ]
        for owner, attr, name, after in plan:
            self._rebind(owner, attr, name, after, mods)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._undo):
            setattr(holder, attr, fn)
        self._undo.clear()

    def dump(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        rows = [[ids[n], round(t0, 7), round(t1, 7), p, op] for n, t0, t1, p, op in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names, "fields": ["name", "start", "end", "parent", "op"],
                       "spans": rows, "counters": self.counters}, fh)


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one span wrapper adds to a call: a wrapped one-argument no-op
    against a bare one, the fastest of ``repeats`` loops each.  Counter
    callbacks, and the garbage collector's work on the kept spans, are not in it."""

    def noop(x):
        return x

    tracer = Tracer()
    wrapped = tracer.span("noop", noop)
    best = {}
    for fn in (noop, wrapped) * repeats:
        tracer.spans.clear()
        t0 = perf_counter()
        for i in range(calls):
            fn(i)
        best[fn] = min(best.get(fn, math.inf), perf_counter() - t0)
    return max(0.0, best[wrapped] - best[noop]) / calls


def layer_metrics(spans: list, counters: dict, wall_s: float, cost: float) -> dict:
    """Every per-layer metric of one traced job; 0 where a layer did not run.

    ``cost`` is the time one span adds (``span_cost``); the tracing overhead
    of the job is that times the number of spans."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    def outermost(i: int, name: str) -> bool:
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return False
            p = spans[p][3]
        return True

    out: dict[str, float] = {}
    for metric, (kind, names) in SPAN_METRICS.items():
        if kind == "count":
            out[metric] = sum(counters.get(n, 0) for n in names)
            continue
        idx = [i for i, s in enumerate(spans) if s[0] in names]
        if kind == "calls":
            out[metric] = len(idx)
        elif kind == "busy":
            out[metric] = sum(dur[i] for i in idx if outermost(i, spans[i][0]))
        else:
            out[metric] = sum(dur[i] - child[i] for i in idx)
    rounds = counters.get("smallcanc.dehn_rounds", 0)
    out["smallcanc.dehn_useful_ratio"] = counters.get("smallcanc.dehn_steps", 0) / rounds if rounds else 0.0
    stages = counters.get("towers.stages", 0)
    out["towers.skip_ratio"] = counters.get("towers.skips", 0) / stages if stages else 0.0
    top = sum(dur[i] for i, s in enumerate(spans) if s[3] < 0)
    out["bench.top_span_share"] = top / wall_s if wall_s > 0 else 0.0
    out["bench.trace_overhead_s"] = cost * len(spans)
    return out
