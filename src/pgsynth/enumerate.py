"""Best-first enumeration of grammar productions in decreasing probability.

A partial production is an expression whose remaining choice points are Hole
nodes tagged with their nonterminals. Expansion replaces the leftmost hole
with every rule of its nonterminal. An expression may have more than one
derivation: a similar-term grammar's `sim*` production rederives a subtree
that the base rules also derive, and the rewriter can map two productions to
one. So the queue keys each production on its printed expression and keeps
the first-pushed derivation of a key, which need not be the cheaper one.
Priorities: Dijkstra orders by cost alone (-log probability of the rules used
so far), A* adds the horizon (minimum cost still to be paid for the remaining
holes), and the score mode subtracts a bonus for partial productions already
known to satisfy input points. Optional: a pruning hook consulted at every
dequeue, and a two-stage indistinguishability rewriter.

Expansion pays for the spine, not the tree. A child differs from its parent
only on the path from the filled hole to the root; the parent was rewritten
when it was dequeued, so off that path every maximal complete subexpression
is already a representative, and the rewriter descends that path alone.
Expansion reads the leftmost hole off the tree, descending from the root
through the first incomplete child at each node, and splices a child's
derivation key from its parent's as text, finding that hole as the key's
first "(?": keys print holes in preorder, and nothing else prints that pair.
It reads one record per rule (Pcfg.expansions) and passes the spliced key
to the one PartialProduction constructor, which prints a key given none.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterator

from .grammar import Pcfg
from .lang import (
    Expr,
    Hole,
    Nonterminal,
    Value,
    children,
    compile_expr,
    hole_print,
    is_complete,
    rebuild,
    to_sexpr,
)

DEFAULT_MAX_DEQUEUES = 500_000


class PartialProduction:
    """An expression with zero or more holes, plus its search bookkeeping:
    cost is the sum of -log p over rules used, horizon_sum the sum of h(N)
    over remaining holes (0 iff complete), hole_nts the hole nonterminals in
    leftmost-first order, and score the count of input points the expression
    already definitely satisfies. derivation_key is the canonical print of
    the expression (holes shown with their nonterminals): expansion passes
    the key it spliced from the parent's, and every other caller leaves it
    None to have it printed. `spine`, passed by expansion and kept by the
    rewriter, is the path the rewriter descends (see IndistRewriter) and
    whether the node at its end is complete; None means no path is recorded
    and the rewriter walks the whole tree."""

    __slots__ = (
        "expr",
        "cost",
        "horizon_sum",
        "hole_nts",
        "hole_h",
        "score",
        "derivation_key",
        "spine",
    )

    def __init__(
        self,
        expr: Expr,
        cost: float,
        horizon_sum: float,
        hole_nts: tuple[Nonterminal, ...],
        hole_h: tuple[float, ...] = (),  # horizon of each hole, parallel to hole_nts
        score: int = 0,
        derivation_key: str | None = None,
        spine: tuple[tuple[int, ...], bool] | None = None,
    ):
        self.expr = expr
        self.cost = cost
        self.horizon_sum = horizon_sum
        self.hole_nts = hole_nts
        self.hole_h = hole_h
        self.score = score
        self.derivation_key = to_sexpr(expr) if derivation_key is None else derivation_key
        self.spine = spine

    @property
    def complete(self) -> bool:
        return not self.hole_nts

    @property
    def probability(self) -> float:
        return math.exp(-self.cost)

    def __repr__(self) -> str:
        return f"PartialProduction({self.derivation_key!r}, cost={self.cost:.6g})"


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
    # with inf an unscored production's priority is inf * 0, which is nan
    if not math.isfinite(c) or c < 0:
        raise ValueError("score coefficient must be finite and nonnegative")
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
    """One child per rule of the leftmost hole's nonterminal, in rule order.
    The hole is found by descending from the root through the first
    incomplete child at each node. Each child records as its spine the path
    of the hole it filled, or, when the rule's template is complete, that
    path down to the first complete node: just below the deepest node with
    an incomplete child right of the path (where the next hole's path parts
    from it), or the root when no hole is left."""
    if pp.complete:
        raise ValueError("cannot expand a complete production")
    nt = pp.hole_nts[0]
    rest_nts = pp.hole_nts[1:]
    rest_h = pp.hole_h[1:]
    # the key prints holes in preorder, and only a hole prints "(?": every
    # other list opens with an operator tag, and no tag starts with "?"
    key = pp.derivation_key
    at = key.index("(?")
    head = key[:at]
    tail = key[at + len(hole_print(nt)) :]
    # descend to the hole once; each rule then rebuilds along the path. pp
    # is not complete, so every node on the way has an incomplete child
    lineage = []
    node = pp.expr
    while node.__class__ is not Hole:
        kids = children(node)
        i = 0
        while is_complete(kids[i]):
            i += 1
        lineage.append((node, i, kids))
        node = kids[i]
    at_path = tuple(i for _, i, _ in lineage)
    split = 0
    if len(pp.hole_nts) > 1:
        for split in range(len(lineage), 0, -1):
            _, i, kids = lineage[split - 1]
            if not all(map(is_complete, kids[i + 1 :])):
                break
    spine_kept = (at_path, False)
    spine_done = (at_path[:split], True)
    out = []
    for new, cost, child_nts, child_h, text in g.expansions(nt):
        for parent, i, kids in reversed(lineage):
            # every spine node's constructor takes exactly its children
            new = type(parent)(*kids[:i], new, *kids[i + 1 :])
        hole_h = child_h + rest_h
        out.append(PartialProduction(
            new, pp.cost + cost, sum(hole_h, 0.0), child_nts + rest_nts, hole_h, 0,
            head + text + tail, spine_kept if child_nts else spine_done,
        ))
    return out


class DedupQueue:
    """Min-priority queue keyed on (priority, derivation_key); a production
    whose derivation key was ever pushed before is dropped, so ties never
    reach the productions."""

    def __init__(self, priority: Callable[[PartialProduction], float]):
        self._priority = priority
        self._heap: list[tuple[float, str, PartialProduction]] = []
        self._seen: set[str] = set()

    def push(self, pp: PartialProduction) -> bool:
        key = pp.derivation_key
        if key in self._seen:
            return False
        self._seen.add(key)
        heapq.heappush(self._heap, (self._priority(pp), key, pp))
        return True

    def is_dup(self, pp: PartialProduction) -> bool:
        return pp.derivation_key in self._seen

    def pop_min(self) -> PartialProduction:
        return heapq.heappop(self._heap)[2]

    def pps(self) -> Iterator[PartialProduction]:
        for _, _, pp in self._heap:
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
    rewrites.

    A production with a recorded spine is rewritten along it alone. Its
    parent was fully rewritten before it was expanded, so off the spine
    every maximal complete subexpression is already a representative, and a
    representative maps to itself: the result, the table updates and
    `evals` are those of the whole-tree walk. A complete end node is looked
    up once; a template that keeps holes is walked, unless all its children
    are holes."""

    def __init__(self, envs: list[dict[str, Value]]):
        if not envs:
            raise ValueError("indistinguishability needs at least one input point")
        self.envs = envs
        self.sig_table: dict[tuple[Value, ...], Expr] = {}
        self.expr_table: dict[Expr, Expr] = {}
        self.evals = 0

    def signature(self, e: Expr) -> tuple[Value, ...]:
        self.evals += 1
        return tuple(map(compile_expr(e), self.envs))

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

    def _spine(self, e: Expr, path: tuple[int, ...], complete: bool, represent):
        """The tree rewritten along path, or None when nothing changes."""
        lineage = []
        for i in path:
            kids = children(e)
            lineage.append((e, i, kids))
            e = kids[i]
        if complete:
            new = represent(e)
            if new is e or new == e:
                return None
        else:
            kids = children(e)
            if all(k.__class__ is Hole for k in kids):
                return None
            new, _ = self._walk(e, represent)
            if new is e:
                return None
        for parent, i, kids in reversed(lineage):
            new = type(parent)(*kids[:i], new, *kids[i + 1 :])
        return new

    def _rewrite(self, pp: PartialProduction, represent) -> PartialProduction:
        if pp.spine is None:
            new, complete = self._walk(pp.expr, represent)
            if complete:
                new = represent(new)
            if new == pp.expr:
                return pp
        else:
            new = self._spine(pp.expr, *pp.spine, represent)
            if new is None:
                return pp
        # the key is stale for the rewritten tree; leave it to be reprinted
        return PartialProduction(
            new, pp.cost, pp.horizon_sum, pp.hole_nts, pp.hole_h, pp.score, spine=pp.spine
        )

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
    production of `start` with nonincreasing probability, once per
    expression: of an expression's derivations, it keeps the first pushed,
    which need not be the most probable. The prune hook is
    consulted on every dequeue (complete productions failing it are discarded
    rather than emitted); the score hook assigns each pushed production its
    satisfied-point count; the rewriter, when given, canonicalizes
    indistinguishable subexpressions, and a child whose key was pushed before
    is dropped (`dup_dropped`). Ends either by exhausting a finite grammar
    (`exhausted`) or by hitting the dequeue/deadline budget (`budget_hit`).
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
        self.queue = DedupQueue(mode.priority)
        self.queue.push(self._scored(root_pp(g, start)))

    def _scored(self, pp: PartialProduction) -> PartialProduction:
        if self.score is not None:
            # pp is new from expand or the rewriter and not yet shared, so its
            # score is set in place instead of on a copy
            pp.score = self.score(pp.expr)
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
