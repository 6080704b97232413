"""Probabilistic attribute grammars over the object language.

A grammar is a set of production rules, each mapping a nonterminal (base type
plus optional attribute) to an expression template whose holes are the child
slots. Weights are absolute frequencies; `normalize` turns them into per-
nonterminal probabilities and negative-log costs. Transformation passes
(variable instantiation, generic instantiation, the neutral-element and
const-fold axioms) rewrite the rule set and renormalize. One exact pass,
`least_costs`, finds the productive nonterminals and the A* horizons.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

from .lang import (
    Expr,
    Hole,
    Minus,
    Nil,
    Nonterminal,
    Plus,
    Type,
    Var,
    children,
    holes,
    match_type,
    rebuild,
    subst_type,
    to_sexpr,
    type_is_ground,
    type_size,
    type_str,
    type_vars,
)

log = logging.getLogger(__name__)


class GrammarError(Exception):
    pass


@dataclass(frozen=True)
class ProductionRule:
    id: str
    lhs: Nonterminal
    template: Expr
    weight: float
    tags: frozenset[str] = frozenset()
    type_params: tuple[str, ...] = ()
    # set on `variable` builtin rules: stands for any in-scope variable of
    # this type, split into one rule per variable before normalization
    variable_of: Type | None = None

    @cached_property
    def child_nts(self) -> tuple[Nonterminal, ...]:
        return tuple(holes(self.template))

    @property
    def is_generic(self) -> bool:
        return bool(self.type_params)

    def __str__(self) -> str:
        body = f"variable[{type_str(self.variable_of)}]" if self.variable_of else to_sexpr(self.template)
        return f"{self.lhs} ::= {body} (w={self.weight:g})"


@dataclass
class Pcfg:
    """Normalized grammar: rules grouped by nonterminal, with probabilities
    and negative-log costs per rule id."""

    rules: dict[Nonterminal, tuple[ProductionRule, ...]]
    prob: dict[str, float]
    cost: dict[str, float]
    _horizons: dict[Nonterminal, float] | None = field(default=None, repr=False)
    _expansions: dict[Nonterminal, tuple] | None = field(default=None, repr=False)

    def all_rules(self):
        for group in self.rules.values():
            yield from group

    def rules_for(self, nt: Nonterminal) -> tuple[ProductionRule, ...]:
        return self.rules.get(nt, ())

    def start(self, t: Type) -> Nonterminal:
        nt = Nonterminal(t)
        if nt not in self.rules:
            raise GrammarError(f"grammar has no productions for type {type_str(t)}")
        return nt

    def horizon(self) -> dict[Nonterminal, float]:
        if self._horizons is None:
            self._horizons = horizons(self)
        return self._horizons

    def expansions(self, nt: Nonterminal) -> tuple[tuple, ...]:
        """What expansion splices in for each rule of nt, in rules_for
        order: (template, cost, child nonterminals, the horizon of each
        child, the template's printed form). The printed form lets
        expansion splice derivation keys as strings instead of reprinting
        whole trees. Built for every nonterminal on the first call."""
        if self._expansions is None:
            h = self.horizon()
            self._expansions = {
                lhs: tuple(
                    (r.template, self.cost[r.id], r.child_nts,
                     tuple(h[c] for c in r.child_nts), to_sexpr(r.template))
                    for r in group
                )
                for lhs, group in self.rules.items()
            }
        return self._expansions.get(nt, ())


def _rule_groups(rules) -> dict[Nonterminal, list[ProductionRule]]:
    groups: dict[Nonterminal, list[ProductionRule]] = {}
    for r in rules:
        groups.setdefault(r.lhs, []).append(r)
    return groups


def normalize(raw_rules) -> Pcfg:
    """Validate a ground rule set, prune unproductive rules, and compute
    probabilities (weight over same-lhs total) and costs (-log p)."""
    rules = list(raw_rules)
    seen_ids: set[str] = set()
    for r in rules:
        if not math.isfinite(r.weight):
            raise GrammarError(f"rule {r.id}: non-finite weight {r.weight}")
        if r.weight <= 0:
            raise GrammarError(f"rule {r.id}: non-positive weight {r.weight}")
        if r.id in seen_ids:
            raise GrammarError(f"duplicate rule id {r.id}")
        seen_ids.add(r.id)
        if r.is_generic or not type_is_ground(r.lhs.base):
            raise GrammarError(f"rule {r.id} is not ground; instantiate generics first")
        if r.variable_of is not None:
            raise GrammarError(f"rule {r.id}: variable placeholder not instantiated")

    groups = _rule_groups(rules)

    productive = least_costs(groups, lambda r: 0.0)  # those with a derivation

    kept: dict[Nonterminal, list[ProductionRule]] = {}
    for nt, group in groups.items():
        if nt not in productive:
            log.warning("dropping nonterminal %s: no finite production", nt)
            continue
        live = [r for r in group if all(c in productive for c in r.child_nts)]
        for r in group:
            if r not in live:
                log.warning("dropping rule %s: child nonterminal is unproductive", r.id)
        kept[nt] = live

    if not kept:
        raise GrammarError("grammar is empty after pruning")

    prob: dict[str, float] = {}
    cost: dict[str, float] = {}
    for nt, group in kept.items():
        total = sum(r.weight for r in group)
        if not math.isfinite(total):
            raise GrammarError(f"the weights of {nt} sum to {total}")
        for r in group:
            p = r.weight / total
            if p == 0:
                raise GrammarError(f"rule {r.id}: weight {r.weight} underflows against {total}")
            prob[r.id] = p
            cost[r.id] = -math.log(p)

    _reject_zero_cost_cycles(kept, prob)
    return Pcfg({nt: tuple(group) for nt, group in kept.items()}, prob, cost)


def _reject_zero_cost_cycles(groups, prob) -> None:
    # a cycle of probability-1 rules would enumerate forever at cost 0
    edges: dict[Nonterminal, set[Nonterminal]] = {nt: set() for nt in groups}
    for nt, group in groups.items():
        for r in group:
            if prob[r.id] == 1.0:
                edges[nt].update(c for c in r.child_nts if c in groups)
    state: dict[Nonterminal, int] = {}

    def visit(nt: Nonterminal) -> None:
        state[nt] = 1
        for nxt in edges[nt]:
            if state.get(nxt) == 1:
                raise GrammarError(f"cycle of probability-1 rules through {nt}")
            if nxt not in state:
                visit(nxt)
        state[nt] = 2

    for nt in groups:
        if nt not in state:
            visit(nt)


# ---------------------------------------------------------------------------
# Variable instantiation


def split_variable_rules(rules, scope: dict[str, Type]) -> list[ProductionRule]:
    """Replace each `variable` placeholder rule of type T (weight w) with one
    rule per in-scope variable of type T, weight w/k. No variables: dropped."""
    out: list[ProductionRule] = []
    for r in rules:
        if r.variable_of is None:
            out.append(r)
            continue
        names = sorted(n for n, t in scope.items() if t == r.variable_of)
        if not names:
            # routine when the scope has no value of that type: the
            # placeholder simply contributes no rules
            log.info("dropping rule %s: no variable of type %s in scope", r.id, type_str(r.variable_of))
            continue
        w = r.weight / len(names)
        for n in names:
            out.append(
                replace(r, id=f"{r.id}${n}", template=Var(n), weight=w, variable_of=None)
            )
    return out


# ---------------------------------------------------------------------------
# Generic rules


def discover_types(rules, seeds, max_iters: int = 2, max_type_size: int = 3) -> set[Type]:
    """Ground types reachable from the seeds (plus the grammar's own ground
    types) by instantiating generic rules, bounded by structural size."""
    types: set[Type] = {t for t in seeds if type_size(t) <= max_type_size}
    for r in rules:
        ts = [r.lhs.base] + [nt.base for nt in r.child_nts]
        for t in ts:
            if type_is_ground(t) and type_size(t) <= max_type_size:
                types.add(t)
    generic = [r for r in rules if r.is_generic]
    for _ in range(max_iters):
        added = False
        for r in generic:
            slots = [nt.base for nt in r.child_nts]
            for assignment in itertools.product(sorted(types, key=type_str), repeat=len(r.type_params)):
                sub = dict(zip(r.type_params, assignment))
                if any(subst_type(s, sub) not in types for s in slots):
                    continue
                ret = subst_type(r.lhs.base, sub)
                if type_is_ground(ret) and type_size(ret) <= max_type_size and ret not in types:
                    types.add(ret)
                    added = True
        if not added:
            break
    return types


def instantiate_generics(rules, types) -> list[ProductionRule]:
    """Ground every generic rule against the discovered type set; instances
    whose slot types fall outside the set are skipped. Weights are copied."""
    out: list[ProductionRule] = []
    ordered = sorted(types, key=type_str)
    for r in rules:
        if not r.is_generic:
            out.append(r)
            continue
        produced: set[str] = set()
        for target in ordered:
            sub: dict[str, Type] = {}
            if not match_type(r.lhs.base, target, sub):
                continue
            free = [p for p in r.type_params if p not in sub]
            for assignment in itertools.product(ordered, repeat=len(free)):
                full = dict(sub, **dict(zip(free, assignment)))
                inst = _instantiate_rule(r, full, types)
                if inst is not None and inst.id not in produced:
                    produced.add(inst.id)
                    out.append(inst)
    return out


def _instantiate_rule(r: ProductionRule, sub: dict[str, Type], types) -> ProductionRule | None:
    lhs = Nonterminal(subst_type(r.lhs.base, sub), r.lhs.attr)
    if lhs.base not in types:
        return None
    for nt in r.child_nts:
        if type_vars(nt.base) and subst_type(nt.base, sub) not in types:
            return None
    template = _subst_template(r.template, sub)
    suffix = ",".join(type_str(sub[p]) for p in r.type_params)
    return replace(
        r, id=f"{r.id}@{suffix}", lhs=lhs, template=template, type_params=()
    )


def _subst_template(e: Expr, sub: dict[str, Type]) -> Expr:
    match e:
        case Hole(nt):
            return Hole(Nonterminal(subst_type(nt.base, sub), nt.attr))
        case Nil(t):
            return Nil(subst_type(t, sub))
    kids = children(e)
    if not kids:
        return e
    return rebuild(e, tuple(_subst_template(k, sub) for k in kids))


# ---------------------------------------------------------------------------
# Axioms

ARITH_TAGS = frozenset({"plus", "minus", "times"})


def _attr(nt: Nonterminal, suffix: str) -> Nonterminal:
    attr = suffix if nt.attr is None else f"{nt.attr}_{suffix}"
    return Nonterminal(nt.base, attr)


def apply_axioms(g: Pcfg, axioms=("0", "const")) -> Pcfg:
    """Redundancy breaking driven by rule tags.

    "0": the zero rule is kept out of both operands of plus-tagged rules and
    the second operand of minus-tagged rules (neutral element).
    "const": every plus/minus/times-tagged rule over two holes is split so
    that no operand pair derives two const-tagged rules at its top (the fold
    is redundant): `~nc` keeps consts out of the left operand, `~cc` pairs a
    const left operand with a non-const right one.

    No axiom orders the operands of symmetric operators: once both operands
    of `(+ b a)` are complete, the indistinguishability rewriter folds it
    into `(+ a b)`; an axiom that did so as well raised synth seed 1's
    dequeues from 292,657 to 317,094.

    Only tests apply it: no path in cegis, repair or the benchmark does.
    Applied after every normalize, on seed 1 it moves the dequeues of synth,
    lists and repair from 292,657, 2,528 and 3,866 to 284,183, 2,339 and
    3,865 ("0"), 289,705, 2,719 and 3,860 ("const"), and 281,880, 2,315 and
    3,878 (both), with every answer correct.
    """
    rules = list(g.all_rules())
    if "0" in axioms:
        rules = _zero_axiom(rules)
    if "const" in axioms:
        rules = _const_axiom(rules)
    return normalize(rules)


def _zero_axiom(rules: list[ProductionRule]) -> list[ProductionRule]:
    groups = _rule_groups(rules)
    # nonterminals with a zero rule that actually appears in a neutral position
    targets: set[Nonterminal] = set()
    for r in rules:
        positions = _neutral_positions(r)
        for i in positions:
            nt = r.child_nts[i]
            if any("0" in s.tags for s in groups.get(nt, [])):
                targets.add(nt)
    if not targets:
        return rules

    targets = {
        nt
        for nt in targets
        if any("0" not in r.tags for r in groups[nt]) and any("0" in r.tags for r in groups[nt])
    }
    if not targets:
        return rules

    out: list[ProductionRule] = []
    for nt, group in groups.items():
        if nt not in targets:
            out.extend(group)
            continue
        nz, any_ = _attr(nt, "NZ"), _attr(nt, "ANY")
        nonzero_total = 0.0
        for r in group:
            if "0" in r.tags:
                out.append(replace(r, lhs=any_))
            else:
                out.append(replace(r, lhs=nz))
                nonzero_total += r.weight
        out.append(ProductionRule(f"{_ntid(nt)}_nonzero", any_, Hole(nz), nonzero_total))
        out.append(ProductionRule(f"{_ntid(nt)}_any", nt, Hole(any_), 1.0))

    # rewire references to the restructured nonterminals
    rewired: list[ProductionRule] = []
    for r in out:
        if not r.child_nts or not (set(r.child_nts) & targets):
            rewired.append(r)
            continue
        neutral = _neutral_positions(r)
        new_template = _rewire(r.template, targets, neutral)
        rewired.append(replace(r, template=new_template))
    return rewired


def _neutral_positions(r: ProductionRule) -> set[int]:
    """Preorder hole ordinals where a zero operand would be redundant."""
    t = r.template
    out: set[int] = set()
    if "plus" in r.tags and isinstance(t, Plus):
        left, right = children(t)
        if isinstance(left, Hole):
            out.add(0)
        if isinstance(right, Hole):
            out.add(len(holes(left)))
    elif "minus" in r.tags and isinstance(t, Minus):
        left, right = children(t)
        if isinstance(right, Hole):
            out.add(len(holes(left)))
    return out


def _rewire(template: Expr, targets, neutral: set[int]) -> Expr:
    slot = itertools.count()

    def go(e: Expr) -> Expr:
        if isinstance(e, Hole):
            i = next(slot)
            if e.nt in targets:
                return Hole(_attr(e.nt, "NZ" if i in neutral else "ANY"))
            return e
        kids = children(e)
        if not kids:
            return e
        return rebuild(e, tuple(go(k) for k in kids))

    return go(template)


def _ntid(nt: Nonterminal) -> str:
    base = type_str(nt.base).replace(" ", "").replace("(", "").replace(")", "")
    return base if nt.attr is None else f"{base}.{nt.attr}"


def _const_axiom(rules: list[ProductionRule]) -> list[ProductionRule]:
    groups = _rule_groups(rules)
    out: list[ProductionRule] = []
    copies: dict[tuple[Nonterminal, bool], Nonterminal | None] = {}
    extra: list[ProductionRule] = []

    def restricted(nt: Nonterminal, const: bool) -> Nonterminal | None:
        """A copy of nt holding only its const (or only its non-const) rules."""
        key = (nt, const)
        if key not in copies:
            selected = [r for r in groups.get(nt, ()) if ("const" in r.tags) == const]
            suffix = "co" if const else "nc"
            copies[key] = _attr(nt, suffix) if selected else None
            extra.extend(replace(r, id=f"{r.id}.{suffix}", lhs=copies[key]) for r in selected)
        return copies[key]

    for r in rules:
        kids = children(r.template)
        if r.tags & ARITH_TAGS and len(kids) == 2 and all(isinstance(k, Hole) for k in kids):
            left, right = (groups.get(k.nt, ()) for k in kids)
            w_left = sum(x.weight for x in left)
            w_const = sum(x.weight for x in left if "const" in x.tags)
            if w_const and any("const" in x.tags for x in right):
                nc_left = restricted(kids[0].nt, False)
                co_left = restricted(kids[0].nt, True)
                nc_right = restricted(kids[1].nt, False)
                if nc_left is not None:
                    template = rebuild(r.template, (Hole(nc_left), kids[1]))
                    weight = r.weight * (w_left - w_const) / w_left
                    out.append(replace(r, id=f"{r.id}~nc", template=template, weight=weight))
                if nc_right is not None:
                    template = rebuild(r.template, (Hole(co_left), Hole(nc_right)))
                    weight = r.weight * w_const / w_left
                    out.append(replace(r, id=f"{r.id}~cc", template=template, weight=weight))
                if nc_left is None and nc_right is None:
                    log.warning("dropping rule %s: every operand pair is const+const", r.id)
                continue
        out.append(r)
    return out + extra


# ---------------------------------------------------------------------------
# Horizons


def least_costs(groups, cost) -> dict[Nonterminal, float]:
    """Least cost of a complete derivation from each nonterminal of groups
    that has one, a derivation costing the sum of cost(r) >= 0 over its
    rules. Knuth's generalization of Dijkstra's algorithm (IPL 1977): the
    heap settles each nonterminal once, and each rule is summed once, when
    its last child settles, so least[nt] equals the least of its rules'
    sum(children's least costs, cost(r)) exactly, in floats."""
    least: dict[Nonterminal, float] = {}
    heap = []  # (cost, index in groups, lhs): Nonterminal has no order
    waiting: dict[Nonterminal, list[list]] = {}  # child -> [unsettled, i, lhs, rule]
    for i, (nt, group) in enumerate(groups.items()):
        for r in group:
            if r.child_nts:
                entry = [len(r.child_nts), i, nt, r]  # shared by the rule's slots
                for c in r.child_nts:
                    waiting.setdefault(c, []).append(entry)
            else:
                heap.append((cost(r), i, nt))
    heapq.heapify(heap)
    while heap:
        value, _, nt = heapq.heappop(heap)
        if nt in least:
            continue
        least[nt] = value
        for entry in waiting.get(nt, ()):
            entry[0] -= 1
            unsettled, i, lhs, r = entry
            if not unsettled and lhs not in least:
                total = sum(map(least.__getitem__, r.child_nts), cost(r))
                heapq.heappush(heap, (total, i, lhs))
    return least


def horizons(g: Pcfg) -> dict[Nonterminal, float]:
    """The A* heuristic: each nonterminal's least production cost, exact."""
    return least_costs(g.rules, lambda r: g.cost[r.id])
