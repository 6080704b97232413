"""Best-first enumeration of grammar productions in decreasing probability.

A partial production is an expression whose remaining choice points are Hole
nodes tagged with their nonterminals. Expansion replaces the leftmost hole
with every rule of its nonterminal; because each expression has exactly one
derivation, the space is a tree and no reached-set bookkeeping is needed.
Priorities: Dijkstra orders by cost alone (-log probability of the rules used
so far), A* adds the horizon (minimum cost still to be paid for the remaining
holes), and the score mode subtracts a bonus for partial productions already
known to satisfy input points. On top of the plain search sit three optional
devices: a pruning hook consulted at every dequeue, a two-stage
indistinguishability rewriter, and queue-level deduplication by derivation
key.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterator

from .grammar import Pcfg
from .lang import (
    Expr,
    Hole,
    Nonterminal,
    Value,
    children,
    evaluate,
    hole_offsets,
    hole_paths,
    hole_print,
    rebuild,
    to_sexpr,
)

DEFAULT_MAX_DEQUEUES = 500_000


@dataclass(frozen=True)
class PartialProduction:
    """An expression with zero or more holes, plus its search bookkeeping:
    cost is the sum of -log p over rules used, horizon_sum the sum of h(N)
    over remaining holes (0 iff complete), hole_nts the hole nonterminals in
    leftmost-first order, and score the count of input points the expression
    already definitely satisfies. derivation_key is the canonical print of
    the expression (holes shown with their nonterminals); hole_pos and
    hole_paths give each hole's offset in the key and path in the tree.
    Expansion maintains all three incrementally; they are recomputed from
    expr when left unset."""

    expr: Expr
    cost: float
    horizon_sum: float
    hole_nts: tuple[Nonterminal, ...]
    hole_h: tuple[float, ...] = ()  # horizon of each hole, parallel to hole_nts
    score: int = 0
    derivation_key: str = ""
    hole_pos: tuple[int, ...] = ()
    hole_paths: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if not self.derivation_key:
            key = to_sexpr(self.expr)
            object.__setattr__(self, "derivation_key", key)
            object.__setattr__(self, "hole_pos", hole_offsets(key, self.hole_nts))
        if len(self.hole_paths) != len(self.hole_nts):
            object.__setattr__(self, "hole_paths", hole_paths(self.expr))

    @property
    def complete(self) -> bool:
        return not self.hole_nts

    @property
    def probability(self) -> float:
        return math.exp(-self.cost)


@dataclass(frozen=True)
class PriorityMode:
    kind: str  # "dijkstra" | "astar" | "astar-score"
    c: float = 0.0

    def priority(self, pp: PartialProduction) -> float:
        if self.kind == "dijkstra":
            return pp.cost
        pi = pp.cost + pp.horizon_sum
        if self.kind == "astar-score":
            pi -= self.c * math.log1p(pp.score)
        return pi

    def __str__(self) -> str:
        return self.kind if self.kind != "astar-score" else f"astar-score(c={self.c:g})"


DIJKSTRA = PriorityMode("dijkstra")
ASTAR = PriorityMode("astar")


def astar_score(c: float = 1.0) -> PriorityMode:
    if c < 0:
        raise ValueError("score coefficient must be nonnegative")
    return PriorityMode("astar-score", c)


def parse_mode(text: str) -> PriorityMode:
    if text == "dijkstra":
        return DIJKSTRA
    if text == "astar":
        return ASTAR
    if text == "astar-score":
        return astar_score()
    if text.startswith("astar-score:"):
        return astar_score(float(text.split(":", 1)[1]))
    raise ValueError(f"unknown priority mode {text!r}")


def root_pp(g: Pcfg, start: Nonterminal) -> PartialProduction:
    h = g.horizon()[start]
    return PartialProduction(Hole(start), 0.0, h, (start,), (h,))


def expand(pp: PartialProduction, g: Pcfg) -> list[PartialProduction]:
    """One child per rule of the leftmost hole's nonterminal, in rule order."""
    if pp.complete:
        raise ValueError("cannot expand a complete production")
    rule_h = g.rule_hole_horizons()
    rule_key = g.rule_key_parts()
    rule_paths = g.rule_hole_paths()
    nt = pp.hole_nts[0]
    rest_nts = pp.hole_nts[1:]
    rest_h = pp.hole_h[1:]
    rest_paths = pp.hole_paths[1:]
    at_path = pp.hole_paths[0]
    key = pp.derivation_key
    pos = pp.hole_pos
    at = pos[0]
    end = at + len(hole_print(nt))
    # descend to the hole once; each rule then rebuilds along the spine
    spine = []
    node = pp.expr
    for i in at_path:
        kids = children(node)
        spine.append((node, i, kids))
        node = kids[i]
    out = []
    for r in g.rules_for(nt):
        hole_h = rule_h[r.id] + rest_h
        text, offs = rule_key[r.id]
        delta = len(text) - (end - at)
        new = r.template
        for parent, i, kids in reversed(spine):
            # every spine node's constructor takes exactly its children
            new = type(parent)(*kids[:i], new, *kids[i + 1 :])
        out.append(
            PartialProduction(
                expr=new,
                cost=pp.cost + g.cost[r.id],
                horizon_sum=sum(hole_h, 0.0),
                hole_nts=r.child_nts + rest_nts,
                hole_h=hole_h,
                derivation_key=key[:at] + text + key[end:],
                hole_pos=tuple(at + o for o in offs)
                + tuple(q + delta for q in pos[1:]),
                hole_paths=tuple(at_path + rel for rel in rule_paths[r.id])
                + rest_paths,
            )
        )
    return out


class DedupQueue:
    """Min-priority queue keyed on (priority, derivation_key); a production
    whose derivation key was ever pushed before is silently dropped."""

    def __init__(self, priority: Callable[[PartialProduction], float], dedup: bool = True):
        self._priority = priority
        self._dedup = dedup
        self._heap: list[tuple[float, str, int, PartialProduction]] = []
        self._seen: set[str] = set()
        self._seq = itertools.count()

    def push(self, pp: PartialProduction) -> bool:
        key = pp.derivation_key
        if self._dedup:
            if key in self._seen:
                return False
            self._seen.add(key)
        heapq.heappush(self._heap, (self._priority(pp), key, next(self._seq), pp))
        return True

    def is_dup(self, pp: PartialProduction) -> bool:
        return self._dedup and pp.derivation_key in self._seen

    def pop_min(self) -> PartialProduction:
        return heapq.heappop(self._heap)[3]

    def peek_priority(self) -> float:
        return self._heap[0][0]

    def pps(self) -> Iterator[PartialProduction]:
        for _, _, _, pp in self._heap:
            yield pp

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class IndistRewriter:
    """Replaces complete subexpressions by the representative of their
    equivalence class on the input points. The full rewrite evaluates maximal
    complete subexpressions on every point to find their signature; the fast
    variant only consults the expression table filled by earlier full
    rewrites."""

    def __init__(self, envs: list[dict[str, Value]]):
        if not envs:
            raise ValueError("indistinguishability needs at least one input point")
        self.envs = envs
        self.sig_table: dict[tuple[Value, ...], Expr] = {}
        self.expr_table: dict[Expr, Expr] = {}
        self.evals = 0

    def signature(self, e: Expr) -> tuple[Value, ...]:
        self.evals += 1
        return tuple(evaluate(e, env) for env in self.envs)

    def _represent(self, e: Expr) -> Expr:
        rep = self.expr_table.get(e)
        if rep is None:
            rep = self.sig_table.setdefault(self.signature(e), e)
            self.expr_table[e] = rep
        return rep

    def _represent_fast(self, e: Expr) -> Expr:
        return self.expr_table.get(e, e)

    def _walk(self, e: Expr, represent) -> tuple[Expr, bool]:
        """Returns (rewritten, is-complete). Complete subtrees pass up
        untouched; the first incomplete ancestor applies `represent` to them,
        so exactly the maximal complete subexpressions get replaced."""
        kids = children(e)
        if not kids:
            return e, not isinstance(e, Hole)
        out = [self._walk(k, represent) for k in kids]
        if all(c for _, c in out):
            return e, True
        new = tuple(represent(k) if c else k for k, c in out)
        return (e if new == kids else rebuild(e, new)), False

    def _rewrite(self, pp: PartialProduction, represent) -> PartialProduction:
        new, complete = self._walk(pp.expr, represent)
        if complete:
            new = represent(new)
        if new == pp.expr:
            return pp
        # key, offsets and paths are stale for the rewritten tree; recompute
        return replace(pp, expr=new, derivation_key="", hole_pos=(), hole_paths=())

    def rewrite_full(self, pp: PartialProduction) -> PartialProduction:
        return self._rewrite(pp, self._represent)

    def rewrite_fast(self, pp: PartialProduction) -> PartialProduction:
        return self._rewrite(pp, self._represent_fast)


@dataclass
class EnumStats:
    dequeued: int = 0
    emitted: int = 0
    expanded: int = 0
    pushed: int = 0
    pruned: int = 0
    dup_dropped: int = 0
    rewritten: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


class Enumerator:
    """Single-use iterator over the complete productions of a nonterminal.

    With mode Dijkstra or A* and no hooks, the stream contains every
    production of `start` with nonincreasing probability. The prune hook is
    consulted on every dequeue (complete productions failing it are discarded
    rather than emitted); the score hook assigns each pushed production its
    satisfied-point count; the rewriter, when given, canonicalizes
    indistinguishable subexpressions. Ends either by exhausting a finite
    grammar (`exhausted`) or by hitting the dequeue/deadline budget
    (`budget_hit`).
    """

    def __init__(
        self,
        g: Pcfg,
        start: Nonterminal,
        mode: PriorityMode = ASTAR,
        *,
        prune: Callable[[Expr], bool] | None = None,
        score: Callable[[Expr], int] | None = None,
        rewriter: IndistRewriter | None = None,
        max_dequeues: int = DEFAULT_MAX_DEQUEUES,
        deadline: float | None = None,
        dedup: bool = True,
        trace: Callable[[str], None] | None = None,
    ):
        self.g = g
        self.mode = mode
        self.prune = prune
        self.score = score
        self.rewriter = rewriter
        self.max_dequeues = max_dequeues
        self.deadline = deadline
        self.trace = trace
        self.stats = EnumStats()
        self.exhausted = False
        self.budget_hit = False
        self.queue = DedupQueue(mode.priority, dedup=dedup)
        self.queue.push(self._scored(root_pp(g, start)))

    def _scored(self, pp: PartialProduction) -> PartialProduction:
        if self.score is not None:
            # pp is new from expand or the rewriter and not yet shared, so its
            # score is set in place instead of on a copy
            object.__setattr__(pp, "score", self.score(pp.expr))
        return pp

    def _trace(self, event: str, pp: PartialProduction) -> None:
        if self.trace is not None:
            pi = self.mode.priority(pp)
            self.trace(
                f"{event}\t{pi:.6g}\t{pp.cost:.6g}\t{pp.horizon_sum:.6g}"
                f"\t{pp.score}\t{pp.derivation_key}"
            )

    def frontier(self) -> list[PartialProduction]:
        return list(self.queue.pps())

    def __iter__(self) -> Iterator[PartialProduction]:
        while self.queue:
            if self.stats.dequeued >= self.max_dequeues or (
                self.deadline is not None and time.monotonic() > self.deadline
            ):
                self.budget_hit = True
                return
            pp = self.queue.pop_min()
            self.stats.dequeued += 1
            self._trace("DEQ", pp)
            if self.prune is not None and self.prune(pp.expr):
                self.stats.pruned += 1
                self._trace("PRUNE", pp)
                continue
            if pp.complete:
                self.stats.emitted += 1
                self._trace("EMIT", pp)
                yield pp
                continue
            if self.rewriter is not None:
                new = self.rewriter.rewrite_full(pp)
                if new is not pp:
                    self.stats.rewritten += 1
                    self._trace("REWRITE", new)
                    pp = new
            self.stats.expanded += 1
            for child in expand(pp, self.g):
                if self.rewriter is not None:
                    rewritten = self.rewriter.rewrite_fast(child)
                    if rewritten is not child:
                        self.stats.rewritten += 1
                        self._trace("REWRITE", rewritten)
                        child = rewritten
                # dedup before scoring: a dropped key never needs its score
                if self.queue.is_dup(child):
                    self.stats.dup_dropped += 1
                    self._trace("DROP-DUP", child)
                    continue
                child = self._scored(child)
                self.queue.push(child)
                self.stats.pushed += 1
        self.exhausted = True
