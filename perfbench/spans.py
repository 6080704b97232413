"""Spans around the public functions of pgsynth's modules, installed from
outside the program for a traced run.

A span records its name, start, end, the enclosing span and the id of the
operation it belongs to. Functions called hundreds of thousands of times in
a pass (point checks, expansion, rewriting, the interpreters and the domain
generator) share one aggregate span per enclosing span and name: its start
is the first call's, its end the last call's, its duration the sum of the
calls' durations and `calls` their number. Every other call gets a span of
its own. All spans stay in memory until the run ends; self time is a span's
duration less its children's.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name: list[int] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.dur: list[float] = []
        self.calls: list[int] = []
        self._shared: dict[tuple[int, int, int], int] = {}
        self.current = -1  # the enclosing span, -1 at top level
        self.op_id = -1  # set by the caller around each operation
        self.counts: dict[str, int] = {}

    def _new(self, name_id: int, parent: int) -> int:
        self.name.append(name_id)
        self.parent.append(parent)
        self.op.append(self.op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.dur.append(0.0)
        self.calls.append(0)
        return len(self.name) - 1

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, name_id: int, shared: bool) -> int:
        if not shared:
            return self._new(name_id, self.current)
        key = (self.current, name_id, self.op_id)
        span = self._shared.get(key)
        if span is None:
            span = self._shared[key] = self._new(name_id, self.current)
        return span

    def close(self, span: int, t0: float) -> None:
        """End a call of span that began at t0. The span's bookkeeping, like
        open's, falls inside [t0, t1], so the enclosing span's self time
        holds only the entry into and return from the wrapper."""
        if not self.calls[span]:
            self.start[span] = t0
        self.calls[span] += 1
        t1 = perf_counter()
        self.end[span] = t1
        self.dur[span] += t1 - t0

    def count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, name: str, shared: bool = False, on_result=None):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = perf_counter()
            parent = self.current
            span = self.open(nid, shared)
            self.current = span
            try:
                out = fn(*args, **kwargs)
            finally:
                self.current = parent
                self.close(span, t0)
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def wrap_generator(self, fn, name: str):
        """Time each `next` of the generator fn returns, in a shared span."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                t0 = perf_counter()
                span = self.open(nid, True)
                try:
                    item = next(it)
                except StopIteration:
                    self.close(span, t0)
                    return
                self.close(span, t0)
                yield item

        return traced

    def wrap_factory(self, fn, name: str):
        """fn returns a closure; wrap each closure it returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.wrap(fn(*args, **kwargs), name, shared=True)

        return traced

    # -- analysis ----------------------------------------------------------

    def _spans_named(self, names) -> list[int]:
        ids = {self.name_ids[n] for n in names if n in self.name_ids}
        return [i for i, n in enumerate(self.name) if n in ids and self.op[i] >= 0]

    def _outermost(self, names) -> list[int]:
        """Spans with one of these names and no ancestor with one of them."""
        ids = {self.name_ids[n] for n in names if n in self.name_ids}
        out = []
        for i in self._spans_named(names):
            p = self.parent[i]
            while p >= 0 and self.name[p] not in ids:
                p = self.parent[p]
            if p < 0:
                out.append(i)
        return out

    def time(self, *names) -> float:
        """Time inside these functions, nested calls counted once."""
        return sum(self.dur[i] for i in self._outermost(names))

    def calls_of(self, *names) -> int:
        return sum(self.calls[i] for i in self._outermost(names))

    def self_time(self, name: str) -> float:
        spans = set(self._spans_named([name]))
        child = [0.0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p in spans:
                child[p] += self.dur[i]
        return sum(self.dur[i] - child[i] for i in spans)

    def dump(self, path) -> None:
        spans = list(
            zip(self.name, self.parent, self.op, self.start, self.end, self.dur, self.calls)
        )
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "fields": ["name", "parent", "op", "start", "end", "dur", "calls"],
                    "names": self.names,
                    "spans": spans,
                },
                f,
            )


def install(tracer: Tracer, pg) -> None:
    """Replace pgsynth's public functions by traced wrappers in every module
    that calls them. `pg` maps module short names to the imported modules.
    A module that imported a function by name holds its own binding, so each
    binding is replaced where it is looked up."""
    cegis, enum, repair = pg["cegis"], pg["enumerate"], pg["repair"]
    gfile, grammar, corpus, sexpr = pg["grammarfile"], pg["grammar"], pg["corpus"], pg["sexpr"]
    t = tracer

    def rules_built(g) -> None:
        t.count("grammar.rules", sum(len(group) for group in g.rules.values()))

    def tests_made(suite) -> None:
        t.count("repair.tests", len(suite.points))

    cold = [
        ([cegis, repair], "cegis", "cegis.cegis", None),
        ([cegis], "search", "cegis.search", None),
        ([cegis], "verify", "cegis.verify", None),
        ([gfile, repair], "desugar", "grammarfile.desugar", None),
        ([grammar, repair], "normalize", "grammar.normalize", rules_built),
        ([gfile, repair], "parse_grammar_file", "grammarfile.parse_grammar_file", None),
        ([gfile, repair], "merge_grammar_files", "grammarfile.merge_grammar_files", None),
        ([repair], "generate_tests", "repair.generate_tests", tests_made),
        ([repair], "localize", "repair.localize", None),
        ([repair], "similar_term_grammar", "repair.similar_term_grammar", None),
        ([corpus, repair], "extract_local_bias", "corpus.extract_local_bias", None),
        ([sexpr], "parse_one", "sexpr.parse_one", None),
        ([sexpr], "parse_all", "sexpr.parse_all", None),
    ]
    hot = [
        ([cegis], "satisfied_count", "cegis.satisfied_count"),
        ([cegis], "partial_eval", "lang.partial_eval"),
        ([cegis, enum, repair], "evaluate", "lang.evaluate"),
        ([enum], "expand", "enumerate.expand"),
    ]
    for mods, attr, name, hook in cold:
        wrapped = t.wrap(getattr(mods[0], attr), name, on_result=hook)
        for m in mods:
            setattr(m, attr, wrapped)
    for mods, attr, name in hot:
        wrapped = t.wrap(getattr(mods[0], attr), name, shared=True)
        for m in mods:
            setattr(m, attr, wrapped)
    for attr in ("rewrite_full", "rewrite_fast"):
        method = getattr(enum.IndistRewriter, attr)
        setattr(enum.IndistRewriter, attr, t.wrap(method, f"enumerate.{attr}", shared=True))
    cegis.make_prune = t.wrap_factory(cegis.make_prune, "cegis.prune")
    cegis.make_score = t.wrap_factory(cegis.make_score, "cegis.score")
    points = t.wrap_generator(cegis.bounded_points, "cegis.bounded_points")
    cegis.bounded_points = repair.bounded_points = points


def per_layer(t: Tracer, totals: dict, passes: int) -> dict:
    """Per-layer metrics per pass. `totals` holds counts summed over the
    run's results: iterations, dequeued, pruned, expanded, pushed,
    dup_dropped, verify_points and attempts."""
    search_s = t.time("cegis.search")
    dequeued = totals["dequeued"]
    m = {
        "cegis.iterations": (totals["iterations"], "count"),
        "cegis.search_s": (search_s, "s"),
        "cegis.pointcheck_s": (
            t.time("cegis.prune", "cegis.score", "cegis.satisfied_count"), "s"),
        "cegis.pointcheck_calls": (
            t.calls_of("cegis.prune", "cegis.score", "cegis.satisfied_count"), "count"),
        "cegis.verify_s": (t.time("cegis.verify"), "s"),
        "cegis.verify_points": (totals["verify_points"], "count"),
        "cegis.domain_s": (t.time("cegis.bounded_points"), "s"),
        "enumerate.expanded": (totals["expanded"], "count"),
        "enumerate.pushed": (totals["pushed"], "count"),
        "enumerate.dup_dropped": (totals["dup_dropped"], "count"),
        "enumerate.expand_s": (t.time("enumerate.expand"), "s"),
        "enumerate.indist_s": (
            t.time("enumerate.rewrite_full", "enumerate.rewrite_fast"), "s"),
        "enumerate.queue_s": (t.self_time("cegis.search"), "s"),
        "lang.partial_eval_s": (t.time("lang.partial_eval"), "s"),
        "lang.partial_eval_calls": (t.calls_of("lang.partial_eval"), "count"),
        "lang.evaluate_s": (t.time("lang.evaluate"), "s"),
        "lang.evaluate_calls": (t.calls_of("lang.evaluate"), "count"),
        "grammar.build_s": (t.time("grammarfile.desugar", "grammar.normalize"), "s"),
        "grammar.builds": (t.calls_of("grammar.normalize"), "count"),
        "grammar.rules": (t.counts.get("grammar.rules", 0), "count"),
        "grammarfile.parse_s": (
            t.time("grammarfile.parse_grammar_file", "grammarfile.merge_grammar_files"), "s"),
        "repair.generate_tests_s": (t.time("repair.generate_tests"), "s"),
        "repair.tests": (t.counts.get("repair.tests", 0), "count"),
        "repair.localize_s": (t.time("repair.localize"), "s"),
        "repair.similar_s": (t.time("repair.similar_term_grammar"), "s"),
        "repair.attempts": (totals["attempts"], "count"),
        "corpus.extract_s": (t.time("corpus.extract_local_bias"), "s"),
        "sexpr.parse_s": (t.time("sexpr.parse_one", "sexpr.parse_all"), "s"),
    }
    out = {
        k: {"value": v / passes if u == "s" else v // passes, "unit": u}
        for k, (v, u) in m.items()
    }
    out["enumerate.useful_ratio"] = {
        "value": (dequeued - totals["pruned"]) / dequeued if dequeued else 0.0,
        "unit": "ratio",
    }
    out["enumerate.dequeues_per_s"] = {
        "value": dequeued / search_s if search_s else 0.0, "unit": "1/s",
    }
    return out
