"""Best-first enumeration: expansion, priority modes, dedup queue, pruning,
and indistinguishability rewriting."""

import itertools
import math
import random
import time

import pytest

from grammars import (
    INT_NT,
    R,
    mixed_template_grammar,
    random_finite_pcfg,
    random_recursive_pcfg,
    two_sort_grammar,
    weight_table_rules,
)
from oracle import derivations, replace_leftmost_hole
from pgsynth.enumerate import (
    ASTAR,
    DIJKSTRA,
    DedupQueue,
    Enumerator,
    IndistRewriter,
    PartialProduction,
    astar_score,
    expand,
    parse_mode,
    root_pp,
)
from pgsynth.grammar import normalize, split_variable_rules
from pgsynth.grammarfile import DEFAULT_GRAMMAR_TEXT, desugar, parse_grammar_file
from pgsynth.lang import (
    FALSE_V,
    INT,
    Eq,
    Hole,
    IntLit,
    IntV,
    Ite,
    Leq,
    ListType,
    ListV,
    Minus,
    Nonterminal,
    Plus,
    Var,
    evaluate,
    get_at,
    hole_paths,
    holes,
    partial_eval,
    to_sexpr,
)


def take(en, n):
    return list(itertools.islice(iter(en), n))


def keys(pps):
    return [pp.derivation_key for pp in pps]


# ---------------------------------------------------------------------------
# expand


def test_expand_root_one_child_per_rule():
    g = two_sort_grammar()
    kids = expand(root_pp(g, INT_NT), g)
    assert keys(kids) == ["0", "1", "x", "(+ (? Int) (? Int))", "(if (? Bool) (? Int) (? Int))"]
    expected_probs = [0.15, 0.3, 0.3, 0.15, 0.1]
    for pp, p in zip(kids, expected_probs):
        assert pp.cost == pytest.approx(-math.log(p))
        assert pp.hole_nts == tuple(holes(pp.expr))
        h = g.horizon()
        assert pp.horizon_sum == pytest.approx(math.fsum(h[n] for n in pp.hole_nts))


def test_expand_x_plus_hole_adds_rule_cost():
    g = two_sort_grammar()
    (plus_pp,) = [pp for pp in expand(root_pp(g, INT_NT), g) if pp.derivation_key == "(+ (? Int) (? Int))"]
    (x_plus,) = [pp for pp in expand(plus_pp, g) if pp.derivation_key == "(+ x (? Int))"]
    (x_plus_1,) = [pp for pp in expand(x_plus, g) if pp.derivation_key == "(+ x 1)"]
    assert x_plus_1.cost == pytest.approx(x_plus.cost - math.log(0.3))
    assert x_plus_1.complete
    assert x_plus_1.horizon_sum == 0.0
    assert x_plus_1.probability == pytest.approx(0.0135, abs=1e-12)


def test_expand_complete_rejected():
    g = two_sort_grammar()
    done = PartialProduction(IntLit(1), -math.log(0.3), 0.0, ())
    with pytest.raises(ValueError):
        expand(done, g)


# ---------------------------------------------------------------------------
# basic enumeration


def test_first_three_emissions():
    first = take(Enumerator(two_sort_grammar(), INT_NT, ASTAR), 3)
    assert set(keys(first[:2])) == {"1", "x"}
    assert first[2].derivation_key == "0"
    assert [pp.probability for pp in first] == pytest.approx([0.3, 0.3, 0.15])


def test_finite_grammar_exhausts():
    g = normalize([R("a", INT_NT, IntLit(0), 1), R("b", INT_NT, IntLit(1), 1)])
    en = Enumerator(g, INT_NT, ASTAR)
    assert sorted(keys(iter(en))) == ["0", "1"]
    assert en.exhausted and not en.budget_hit


def test_x_plus_one_probability():
    en = Enumerator(two_sort_grammar(), INT_NT, ASTAR)
    for pp in take(en, 200):
        if pp.derivation_key == "(+ x 1)":
            assert pp.probability == pytest.approx(0.0135, abs=1e-9)
            return
    raise AssertionError("x + 1 not emitted in the first 200 productions")


def test_budget_markers():
    en = Enumerator(two_sort_grammar(), INT_NT, ASTAR, max_dequeues=5)
    out = list(iter(en))
    assert en.budget_hit and not en.exhausted
    assert en.stats.dequeued == 5 and len(out) <= 5

    en = Enumerator(two_sort_grammar(), INT_NT, ASTAR, deadline=time.monotonic() - 1)
    assert list(iter(en)) == []
    assert en.budget_hit


def test_parse_mode():
    assert parse_mode("dijkstra") is DIJKSTRA
    assert parse_mode("astar") is ASTAR
    assert parse_mode("astar-score").c == 1.0
    assert parse_mode("astar-score:2.5").c == 2.5
    for bad in ("bfs", "astar-score:-1", "astar-score:nan", "astar-score:inf"):
        with pytest.raises(ValueError):
            parse_mode(bad)


# ---------------------------------------------------------------------------
# Dijkstra completeness and monotonicity against brute force


def test_dijkstra_enumerates_every_production_once_in_cost_order():
    for seed in range(10):
        g = random_finite_pcfg(random.Random(seed))
        start = Nonterminal(INT, "F0")
        en = Enumerator(g, start, DIJKSTRA)
        got = list(iter(en))
        assert en.exhausted
        costs = [pp.cost for pp in got]
        assert all(a <= b + 1e-9 for a, b in zip(costs, costs[1:]))
        assert len(set(keys(got))) == len(got)
        oracle = dict(derivations(g, start, max_depth=8))
        assert {pp.expr for pp in got} == set(oracle)
        for pp in got:
            assert pp.cost == pytest.approx(oracle[pp.expr], abs=1e-9)


def _costs_and_dequeues(en, limit=None):
    """Emission costs plus the dequeue count at the time of each emission."""
    costs, deqs = [], []
    for pp in itertools.islice(iter(en), limit):
        costs.append(pp.cost)
        deqs.append(en.stats.dequeued)
    return costs, deqs


def test_astar_matches_dijkstra_costs_with_pointwise_fewer_dequeues():
    # finite grammars: full streams
    for seed in range(10):
        g = random_finite_pcfg(random.Random(seed))
        start = Nonterminal(INT, "F0")
        dij = Enumerator(g, start, DIJKSTRA)
        dcosts, ddeq = _costs_and_dequeues(dij)
        ast = Enumerator(g, start, ASTAR)
        acosts, adeq = _costs_and_dequeues(ast)
        assert acosts == pytest.approx(dcosts, abs=1e-9)
        # dominance holds before each common emission, not just at the end
        assert all(a <= d for a, d in zip(adeq, ddeq, strict=True))
    # recursive grammars: truncated streams
    for seed in range(10):
        g = random_recursive_pcfg(random.Random(seed))
        start = Nonterminal(INT, "R0")
        dij = Enumerator(g, start, DIJKSTRA)
        dcosts, ddeq = _costs_and_dequeues(dij, 500)
        ast = Enumerator(g, start, ASTAR)
        acosts, adeq = _costs_and_dequeues(ast, 500)
        assert len(acosts) == 500
        assert acosts == pytest.approx(dcosts, abs=1e-9)
        assert all(a <= d for a, d in zip(adeq, ddeq, strict=True))


def test_astar_score_with_zero_coefficient_matches_astar():
    g = two_sort_grammar()
    plain = take(Enumerator(g, INT_NT, ASTAR), 100)
    scored = take(
        Enumerator(g, INT_NT, astar_score(0.0), score=lambda e: hash(e) % 5), 100
    )
    assert keys(plain) == keys(scored)


# ---------------------------------------------------------------------------
# admissibility


def _derives(partial, complete):
    if isinstance(partial, Hole):
        return True
    from pgsynth.lang import children

    if type(partial) is not type(complete):
        return False
    ka, kb = children(partial), children(complete)
    if len(ka) != len(kb):
        return False
    if not ka:
        return partial == complete
    return all(_derives(a, b) for a, b in zip(ka, kb))


def test_astar_priority_admissible_along_derivations():
    g = two_sort_grammar()
    for target in take(Enumerator(g, INT_NT, ASTAR), 50):
        pp = root_pp(g, INT_NT)
        while not pp.complete:
            assert ASTAR.priority(pp) <= target.cost + 1e-9
            (pp,) = [c for c in expand(pp, g) if _derives(c.expr, target.expr)]
        assert pp.cost == pytest.approx(target.cost, abs=1e-9)


def test_horizon_consistency_inequality():
    for g in (two_sort_grammar(), random_recursive_pcfg(random.Random(3))):
        h = g.horizon()
        for r in g.all_rules():
            slack = g.cost[r.id] + math.fsum(h[c] for c in r.child_nts) - h[r.lhs]
            assert slack >= -1e-9


# ---------------------------------------------------------------------------
# probability mass invariant (no pruning, no rewriter)


def test_probability_mass_conserved_stepwise():
    g = two_sort_grammar()
    queue = DedupQueue(ASTAR.priority)
    queue.push(root_pp(g, INT_NT))
    emitted_mass = 0.0
    for _ in range(1000):
        pp = queue.pop_min()
        if pp.complete:
            emitted_mass += pp.probability
        else:
            for child in expand(pp, g):
                queue.push(child)
        mass = emitted_mass + math.fsum(p.probability for p in queue.pps())
        assert abs(mass - 1.0) <= 1e-6


def test_probability_mass_conserved_through_enumerator():
    g = two_sort_grammar()
    en = Enumerator(g, INT_NT, ASTAR)
    emitted_mass = 0.0
    for pp in itertools.islice(iter(en), 200):
        emitted_mass += pp.probability
        mass = emitted_mass + math.fsum(p.probability for p in en.frontier())
        assert abs(mass - 1.0) <= 1e-6


# ---------------------------------------------------------------------------
# dedup queue


def test_dedup_queue_contract():
    g = two_sort_grammar()
    q = DedupQueue(DIJKSTRA.priority)
    pp = root_pp(g, INT_NT)
    assert q.push(pp)
    assert not q.push(pp)
    assert len(q) == 1

    q = DedupQueue(DIJKSTRA.priority)
    cheap = PartialProduction(IntLit(1), 0.9, 0.0, ())
    dear = PartialProduction(IntLit(0), 1.2, 0.0, ())
    q.push(dear)
    q.push(cheap)
    assert q.pop_min() is cheap

    q = DedupQueue(DIJKSTRA.priority)
    b = PartialProduction(Var("b"), 1.0, 0.0, ())
    a = PartialProduction(Var("a"), 1.0, 0.0, ())
    q.push(b)
    q.push(a)
    assert q.pop_min() is a  # tie broken by derivation key


def test_dedup_skips_rederived_duplicates_after_rewrite():
    # once x - x is rewritten to 0, pushing the rewritten child again is a dup
    g = two_sort_grammar()
    q = DedupQueue(ASTAR.priority)
    zero = PartialProduction(IntLit(0), 1.0, 0.0, ())
    assert q.push(zero)
    assert not q.push(PartialProduction(IntLit(0), 2.0, 0.0, ()))


# ---------------------------------------------------------------------------
# pruning


def _points_env(a):
    return {"x": IntV(a)}


def _satisfies(e, points):
    return all(evaluate(e, _points_env(a)) == IntV(a + 1) for a in points)


def test_pruning_yields_first_correct_solution_unchanged():
    g = two_sort_grammar()
    points = [2, 5]

    def prune(e):
        return any(
            partial_eval(Eq(e, IntLit(a + 1)), _points_env(a)) == FALSE_V for a in points
        )

    plain = Enumerator(g, INT_NT, ASTAR)
    correct = [pp for pp in take(plain, 3000) if _satisfies(pp.expr, points)]
    pruned = Enumerator(g, INT_NT, ASTAR, prune=prune)
    got = take(pruned, len(correct[:10]))
    assert keys(got) == keys(correct[:10])
    assert pruned.stats.pruned > 0
    assert pruned.stats.dequeued <= plain.stats.dequeued


def test_pruning_discards_hopeless_partial_production():
    # under points {2,5,7} with branch-specific outputs, committing the then
    # branch to x already violates point a=5
    points = {2: 6, 5: 6, 7: 9}
    phi = lambda e, a: Eq(e, IntLit(points[a]))
    pp_expr = Ite(Leq(Var("x"), IntLit(5)), Var("x"), Hole(INT_NT))
    assert any(
        partial_eval(phi(pp_expr, a), _points_env(a)) == FALSE_V for a in points
    )
    assert partial_eval(phi(Hole(INT_NT), 2), _points_env(2)) not in (FALSE_V,)


# ---------------------------------------------------------------------------
# indistinguishability


def _envs(points):
    return [_points_env(a) for a in points]


def test_rewrite_replaces_equal_signature_subexpression():
    rw = IndistRewriter(_envs([2, 5, 7]))
    zero = PartialProduction(IntLit(0), 1.0, 0.0, ())
    assert rw.rewrite_full(zero) is zero  # first occurrence registers
    pp = PartialProduction(
        Ite(Leq(Var("x"), IntLit(5)), Minus(Var("x"), Var("x")), Hole(INT_NT)),
        2.0,
        1.0,
        (INT_NT,),
    )
    out = rw.rewrite_full(pp)
    assert out.expr == Ite(Leq(Var("x"), IntLit(5)), IntLit(0), Hole(INT_NT))
    assert out.cost == pp.cost and out.hole_nts == pp.hole_nts


def test_rewrite_first_occurrence_unchanged_and_registered():
    rw = IndistRewriter(_envs([2, 5, 7]))
    pp = PartialProduction(Plus(Var("x"), IntLit(1)), 1.0, 0.0, ())
    assert rw.rewrite_full(pp) is pp
    sig = (IntV(3), IntV(6), IntV(8))
    assert rw.sig_table[sig] == pp.expr


def test_expr_table_hit_avoids_reevaluation():
    rw = IndistRewriter(_envs([2, 5, 7]))
    first = PartialProduction(Plus(Plus(Var("x"), IntLit(1)), Hole(INT_NT)), 1.0, 1.0, (INT_NT,))
    rw.rewrite_full(first)
    evals_before = rw.evals
    second = PartialProduction(Minus(Plus(Var("x"), IntLit(1)), Hole(INT_NT)), 1.0, 1.0, (INT_NT,))
    rw.rewrite_full(second)
    assert rw.evals == evals_before  # x+1 found in the expression table


def test_fast_rewrite_only_consults_table():
    rw = IndistRewriter(_envs([2, 5, 7]))
    pp = PartialProduction(Plus(Minus(Var("x"), Var("x")), Hole(INT_NT)), 1.0, 1.0, (INT_NT,))
    assert rw.rewrite_fast(pp) is pp  # nothing registered yet, no evaluation
    assert rw.evals == 0
    rw.rewrite_full(PartialProduction(IntLit(0), 0.5, 0.0, ()))
    rw.rewrite_full(pp)
    out = rw.rewrite_fast(pp)
    assert out.expr == Plus(IntLit(0), Hole(INT_NT))


def test_rewriting_stream_finds_equivalent_solution_no_later():
    g = two_sort_grammar()
    points = [2, 5, 7]
    target = tuple(IntV(a + 1) for a in points)

    def sig(e):
        return tuple(evaluate(e, _points_env(a)) for a in points)

    plain = Enumerator(g, INT_NT, ASTAR)
    for pp in iter(plain):
        if sig(pp.expr) == target:
            break
    else:
        raise AssertionError("plain stream never found the target")
    plain_dequeues = plain.stats.dequeued

    fast = Enumerator(g, INT_NT, ASTAR, rewriter=IndistRewriter(_envs(points)))
    for pp in iter(fast):
        if sig(pp.expr) == target:
            break
    else:
        raise AssertionError("rewriting stream never found the target")
    assert sig(pp.expr) == target
    assert fast.stats.dequeued <= plain_dequeues


class _RefereedRewriter(IndistRewriter):
    """Rewrites every production twice under the same table state: along its
    recorded spine, and by the whole-tree walk on a copy without one. The two
    must agree on the result and on what they add to the tables."""

    def __init__(self, envs):
        super().__init__(envs)
        self.changed = {True: 0, False: 0}  # by whether the spine ends complete

    def _refereed(self, method, pp):
        ref = IndistRewriter(self.envs)
        ref.sig_table = dict(self.sig_table)
        ref.expr_table = dict(self.expr_table)
        ref.evals = self.evals
        bare = PartialProduction(pp.expr, pp.cost, pp.horizon_sum, pp.hole_nts, pp.hole_h)
        assert bare.spine is None
        want = getattr(IndistRewriter, method)(ref, bare)
        got = getattr(IndistRewriter, method)(self, pp)
        assert got.expr == want.expr, pp
        assert (got is pp) == (want is bare), pp
        assert self.evals == ref.evals, pp
        assert len(self.sig_table) == len(ref.sig_table), pp
        assert len(self.expr_table) == len(ref.expr_table), pp
        if got is not pp:
            assert got.spine == pp.spine
            if pp.spine is not None:
                self.changed[pp.spine[1]] += 1
        return got

    def rewrite_full(self, pp):
        return self._refereed("rewrite_full", pp)

    def rewrite_fast(self, pp):
        return self._refereed("rewrite_fast", pp)


@pytest.mark.parametrize("grammar", [two_sort_grammar, mixed_template_grammar])
def test_spine_rewrite_matches_whole_tree_walk(grammar):
    rw = _RefereedRewriter(_envs([2, 5, 7]))
    en = Enumerator(grammar(), INT_NT, ASTAR, rewriter=rw, max_dequeues=3000)
    take(en, 3000)
    assert en.stats.dequeued == 3000
    # both spine kinds rewrote something: a complete end node looked up, and
    # a template walked (only the mixed grammar has templates worth walking)
    assert rw.changed[True] > 0
    assert (rw.changed[False] > 0) == (grammar is mixed_template_grammar)


@pytest.mark.parametrize("grammar", [two_sort_grammar, mixed_template_grammar])
def test_bookkeeping_after_rewriting_and_lazy_fill(grammar):
    en = Enumerator(grammar(), INT_NT, ASTAR, rewriter=IndistRewriter(_envs([2, 5, 7])))
    pushed = []
    push = en.queue.push
    en.queue.push = lambda pp: pushed.append(pp) or push(pp)
    take(en, 2000)
    assert en.stats.rewritten > 0 and len(pushed) == en.stats.pushed
    for pp in pushed:
        assert pp.derivation_key == to_sexpr(pp.expr)
        assert pp.hole_nts == tuple(holes(pp.expr))
        fresh = PartialProduction(pp.expr, pp.cost, pp.horizon_sum, pp.hole_nts)
        assert hole_paths(pp.expr) == hole_paths(fresh.expr)


KEY_SCAN_GRAMMAR = """\
label NZ Int
production 10 [] plus (a NZ) (b NZ) -> NZ (+ a b)
production 5 [] minus (a Int) (b NZ) -> NZ (- a b)
production 5 [] one () -> NZ 1
production 20 [] vNZ () -> NZ (variable Int)
production 20 [] vInt () -> Int (variable Int)
production 10 [] nz (a NZ) -> Int (+ a 0)
production 6 [] ite (c Bool) (t Int) (e NZ) -> Int (if c t e)
production 6 [] leq (a NZ) (b Int) -> Bool (<= a b)
production 3 [] neg (a Bool) -> Bool (not a)
"""


@pytest.mark.parametrize(
    "text, scope, marker",
    [
        # a variable whose name starts with "?", printed right after "(+ "
        (DEFAULT_GRAMMAR_TEXT, {"?x": INT, "l": ListType(INT)}, " ?x"),
        (KEY_SCAN_GRAMMAR, {"x": INT}, "(? Int NZ)"),
    ],
    ids=["variable-?x", "attributed-holes"],
)
def test_key_scan_finds_the_leftmost_hole(text, scope, marker):
    g = normalize(desugar(parse_grammar_file(text), scope, seed_types=(INT,)))
    envs = [
        {n: IntV(a) if t == INT else ListV((IntV(a),) * (a % 3)) for n, t in scope.items()}
        for a in (2, 5, 7)
    ]
    en = Enumerator(g, INT_NT, ASTAR, rewriter=IndistRewriter(envs), max_dequeues=2000)
    pushed = []
    push = en.queue.push
    en.queue.push = lambda pp: pushed.append(pp) or push(pp)
    list(en)
    assert en.stats.dequeued == 2000 and en.stats.rewritten > 0
    assert any(marker in pp.derivation_key for pp in pushed if not pp.complete)
    for pp in pushed:
        key = pp.derivation_key
        assert key == to_sexpr(pp.expr)
        if pp.complete:
            assert "(?" not in key
            continue
        # the print up to the leftmost hole, found from the tree
        at = to_sexpr(replace_leftmost_hole(pp.expr, Var("@"))).index("@")
        assert key.index("(?") == at, key
        assert key.startswith(to_sexpr(Hole(pp.hole_nts[0])), at), key


@pytest.mark.parametrize("grammar", [two_sort_grammar, mixed_template_grammar])
def test_expand_spines_match_hole_paths(grammar, monkeypatch):
    g = grammar()
    seen = []

    def recording(pp, g):
        kids = expand(pp, g)
        seen.append((pp, kids))
        return kids

    monkeypatch.setattr("pgsynth.enumerate.expand", recording)
    en = Enumerator(g, INT_NT, ASTAR, rewriter=IndistRewriter(_envs([2, 5, 7])), max_dequeues=2000)
    list(en)
    assert en.stats.expanded == len(seen) and en.stats.rewritten > 0
    shallow = 0
    for pp, kids in seen:
        # the reference: the filled hole's path, and that path down to one
        # step past where it parts from the next hole's path
        paths = hole_paths(pp.expr)
        at = paths[0]
        done = ()
        if len(paths) > 1:
            d = next(d for d, (a, b) in enumerate(zip(at, paths[1])) if a != b)
            done = at[: d + 1]
        shallow += 0 < len(done) < len(at)
        rules = g.rules_for(pp.hole_nts[0])
        assert len(kids) == len(rules)
        for r, child in zip(rules, kids):
            assert child.spine == ((at, False) if r.child_nts else (done, True)), pp
            assert get_at(child.expr, at) == r.template, pp
    assert shallow > 0


# ---------------------------------------------------------------------------
# trace


def test_trace_lines_are_tab_separated_events():
    lines = []
    en = Enumerator(two_sort_grammar(), INT_NT, ASTAR, trace=lines.append)
    take(en, 20)
    assert lines
    events = {"DEQ", "EMIT", "PRUNE", "REWRITE", "DROP-DUP"}
    for line in lines:
        event, pi, cost, hsum, score, key = line.split("\t")
        assert event in events
        float(pi), float(cost), float(hsum), int(score)
        assert key
    assert sum(1 for l in lines if l.startswith("DEQ\t")) == en.stats.dequeued
    assert sum(1 for l in lines if l.startswith("EMIT\t")) == en.stats.emitted


def test_random_walk_invariants():
    g = two_sort_grammar()
    h = g.horizon()
    rng = random.Random(11)
    pp = root_pp(g, INT_NT)
    for _ in range(300):
        if pp.complete:
            assert pp.horizon_sum == 0.0
            pp = root_pp(g, INT_NT)
            continue
        pp = rng.choice(expand(pp, g))
        assert pp.hole_nts == tuple(holes(pp.expr))
        assert pp.horizon_sum == pytest.approx(math.fsum(h[n] for n in pp.hole_nts))
        # incrementally spliced bookkeeping agrees with a fresh reprint
        assert pp.derivation_key == to_sexpr(pp.expr)
        fresh = PartialProduction(pp.expr, pp.cost, pp.horizon_sum, pp.hole_nts)
        assert hole_paths(pp.expr) == hole_paths(fresh.expr)
        for nt, path in zip(pp.hole_nts, hole_paths(pp.expr)):
            assert get_at(pp.expr, path) == Hole(nt)


def _bookkeeping_grammars():
    yield "two_sort", two_sort_grammar(), INT_NT
    yield "mixed", mixed_template_grammar(), INT_NT
    yield "weight_table", normalize(split_variable_rules(weight_table_rules(), {"x": INT})), INT_NT
    for seed in range(4):
        yield f"finite{seed}", random_finite_pcfg(random.Random(seed)), Nonterminal(INT, "F0")
        yield f"recursive{seed}", random_recursive_pcfg(random.Random(seed)), Nonterminal(INT, "R0")


def test_expand_children_carry_exact_bookkeeping():
    """Every child of expand, along seeded random walks, carries exactly the
    bookkeeping a fresh computation gives: the float sums compare with ==,
    since priorities tie-break on them."""
    checked = 0
    for name, g, start in _bookkeeping_grammars():
        h = g.horizon()
        rng = random.Random(name)
        pp = root_pp(g, start)
        for _ in range(200):
            if pp.complete:
                pp = root_pp(g, start)
            kids = expand(pp, g)
            rules = g.rules_for(pp.hole_nts[0])
            assert len(kids) == len(rules)
            for r, child in zip(rules, kids):
                assert child.cost == pp.cost + g.cost[r.id], name
                assert child.hole_nts == tuple(holes(child.expr)), name
                assert child.hole_h == tuple(h[n] for n in child.hole_nts), name
                assert child.horizon_sum == sum(child.hole_h, 0.0), name
                assert child.score == 0, name
                assert child.derivation_key == to_sexpr(child.expr), name
                checked += 1
            pp = rng.choice(kids)
    assert checked > 5000
