import math
import random

import pytest

from pgsynth.grammar import (
    GrammarError,
    Pcfg,
    ProductionRule,
    apply_axioms,
    discover_types,
    horizons,
    instantiate_generics,
    normalize,
    split_variable_rules,
)
from pgsynth.lang import (
    BOOL,
    INT,
    And,
    Cons,
    Head,
    Hole,
    IntLit,
    IntV,
    Ite,
    Leq,
    ListType,
    Minus,
    Nil,
    Nonterminal,
    Plus,
    Size,
    TypeVar,
    Var,
    evaluate,
    type_of,
)
from grammars import (
    BOOL_NT,
    INT_NT,
    R,
    mixed_template_grammar,
    random_finite_pcfg,
    random_recursive_pcfg,
    tags,
    two_sort_grammar,
    weight_table_rules,
)
from oracle import derivations, exprs_by_depth, min_cost_by_depth


# ---------------------------------------------------------------------------
# normalize


def test_normalize_probabilities():
    g = two_sort_grammar()
    assert g.prob["int0"] == pytest.approx(0.15)
    assert g.prob["add"] == pytest.approx(0.15)
    assert g.prob["le"] == pytest.approx(0.8)
    assert g.cost["int1"] == pytest.approx(-math.log(0.3))
    assert g.start(INT) == INT_NT
    with pytest.raises(GrammarError):
        g.start(ListType(INT))


def test_normalize_rejects_bad_weights_and_duplicates():
    with pytest.raises(GrammarError):
        normalize([R("a", INT_NT, IntLit(1), 0)])
    with pytest.raises(GrammarError):
        normalize([R("a", INT_NT, IntLit(1), 1), R("a", INT_NT, IntLit(2), 1)])


@pytest.mark.parametrize(
    "weights, match",
    [
        ((math.nan,), "non-finite weight"),
        ((1.0, math.inf), "non-finite weight"),
        ((1e308, 1e308), "sum to inf"),
        ((5e-324, 1e10), "underflows"),
    ],
)
def test_normalize_rejects_weights_without_a_probability(weights, match):
    # each would leave a NaN or zero probability, whose cost -log p is NaN
    # or a math domain error
    rules = [R(f"r{i}", INT_NT, IntLit(i), w) for i, w in enumerate(weights)]
    with pytest.raises(GrammarError, match=match):
        normalize(rules)


def test_normalize_prunes_unproductive(caplog):
    # loop can never terminate, and sz references it, so both must go
    loop = Nonterminal(INT, "loop")
    rules = [
        R("ok", INT_NT, IntLit(1), 1),
        R("spin", loop, Plus(Hole(loop), Hole(loop)), 1),
        R("sz", INT_NT, Size(Hole(Nonterminal(ListType(INT)))), 1),
    ]
    with caplog.at_level("WARNING"):
        g = normalize(rules)
    assert set(g.prob) == {"ok"}
    assert g.prob["ok"] == 1.0
    assert "spin" in caplog.text or "loop" in caplog.text


def test_normalize_empty_grammar():
    loop = Nonterminal(INT, "loop")
    with pytest.raises(GrammarError):
        normalize([R("spin", loop, Plus(Hole(loop), Hole(loop)), 1)])


def test_sole_rule_probability_one_allowed():
    g = normalize(
        [
            R("start", INT_NT, Hole(Nonterminal(INT, "A")), 1),
            R("leaf", Nonterminal(INT, "A"), IntLit(7), 3),
        ]
    )
    assert g.prob["start"] == 1.0 and g.cost["start"] == 0.0


def test_zero_cost_cycle_rejected():
    a, b = Nonterminal(INT, "A"), Nonterminal(INT, "B")
    rules = [
        R("ab", a, Hole(b), 1),
        R("ba", b, Hole(a), 1),
        R("af", a, IntLit(1), 1),
    ]
    # b's sole rule has p=1 and a->b->a closes a cycle only through p<1 a-rules
    g = normalize(rules)
    assert g.prob["ba"] == 1.0
    with pytest.raises(GrammarError):
        normalize([R("ab", a, Hole(b), 1), R("ba", b, Hole(a), 1)])


# ---------------------------------------------------------------------------
# variable instantiation


def test_variable_split_two_vars():
    rules = weight_table_rules()
    split = split_variable_rules(rules, {"x": INT, "y": INT})
    by_id = {r.id: r for r in split}
    assert by_id["var$x"].weight == pytest.approx(10.0)
    assert by_id["var$y"].weight == pytest.approx(10.0)
    assert by_id["var$x"].template == Var("x")
    g = normalize(split)
    # weights 10/5/5/10/(10+10) over total 50
    assert g.prob["plus"] == pytest.approx(0.2)
    assert g.prob["minus"] == pytest.approx(0.1)
    assert g.prob["one"] == pytest.approx(0.1)
    assert g.prob["zero"] == pytest.approx(0.2)
    assert g.prob["var$x"] == pytest.approx(0.2)
    assert g.prob["var$y"] == pytest.approx(0.2)


def test_variable_split_empty_scope_drops_rule(caplog):
    rules = [
        R("v", BOOL_NT, Var("__v"), 4, variable_of=BOOL),
        R("t", INT_NT, IntLit(1), 1),
    ]
    with caplog.at_level("WARNING"):
        split = split_variable_rules(rules, {"x": INT})
    assert [r.id for r in split] == ["t"]
    g = normalize(split)
    with pytest.raises(GrammarError):
        g.start(BOOL)


# ---------------------------------------------------------------------------
# generics


def single_rule():
    a = TypeVar("A")
    return R(
        "single",
        Nonterminal(ListType(a)),
        Cons(Hole(Nonterminal(a)), Nil(a)),
        5,
        type_params=("A",),
    )


def test_discover_types_iterations():
    assert discover_types([single_rule()], {INT}, max_iters=1) == {INT, ListType(INT)}
    assert discover_types([single_rule()], {INT}, max_iters=2) == {
        INT,
        ListType(INT),
        ListType(ListType(INT)),
    }
    # size bound caps the tower
    assert ListType(ListType(ListType(INT))) not in discover_types(
        [single_rule()], {INT}, max_iters=5, max_type_size=3
    )


def test_instantiate_generics_by_return_type():
    a = TypeVar("A")
    list_a = Nonterminal(ListType(a))
    rules = [
        R("len", INT_NT, Size(Hole(list_a)), 2, type_params=("A",)),
        R("first", Nonterminal(a), Head(Hole(list_a)), 3, type_params=("A",)),
        R("int1", INT_NT, IntLit(1), 1),
        R("nil", Nonterminal(ListType(INT)), Nil(INT), 1),
    ]
    types = {INT, ListType(INT)}
    ground = instantiate_generics(rules, types)
    ids = sorted(r.id for r in ground)
    # both generics instantiate only at A=Int: any other binding would need a
    # slot of type List(List Int), which is outside the set and skipped
    assert ids == ["first@Int", "int1", "len@Int", "nil"]
    by_id = {r.id: r for r in ground}
    assert by_id["len@Int"].weight == 2  # weight copied, not split
    assert by_id["first@Int"].lhs == Nonterminal(INT)
    # every instantiated template type-checks to its lhs base type
    for r in ground:
        assert type_of(r.template, {}) == r.lhs.base


def test_generic_instantiation_pipeline_type_checks():
    rules = [single_rule(), R("int0", INT_NT, IntLit(0), 1)]
    types = discover_types(rules, {INT}, max_iters=2)
    ground = instantiate_generics(rules, types)
    for r in ground:
        assert type_of(r.template, {}) == r.lhs.base
    g = normalize(ground)
    assert g.start(ListType(INT))


# ---------------------------------------------------------------------------
# axioms


def test_zero_axiom_reproduces_restricted_structure():
    split = split_variable_rules(weight_table_rules(), {"x": INT})
    g = apply_axioms(normalize(split), axioms=("0",))
    nz = Nonterminal(INT, "NZ")
    any_ = Nonterminal(INT, "ANY")
    assert set(g.rules) == {INT_NT, nz, any_}

    nz_rules = {r.id: r for r in g.rules_for(nz)}
    assert set(nz_rules) == {"plus", "minus", "one", "var$x"}
    assert g.prob["plus"] == pytest.approx(0.25)
    assert g.prob["minus"] == pytest.approx(0.125)
    assert g.prob["one"] == pytest.approx(0.125)
    assert g.prob["var$x"] == pytest.approx(0.5)
    # plus keeps zero out of both operands, minus only out of the second
    assert nz_rules["plus"].child_nts == (nz, nz)
    assert nz_rules["minus"].child_nts == (any_, nz)

    any_rules = {r.id: r for r in g.rules_for(any_)}
    assert set(any_rules) == {"zero", "Int_nonzero"}
    assert g.prob["zero"] == pytest.approx(0.2)
    assert g.prob["Int_nonzero"] == pytest.approx(0.8)

    (start_rule,) = g.rules_for(INT_NT)
    assert g.prob[start_rule.id] == 1.0
    assert start_rule.child_nts == (any_,)


def arithmetic_grammar():
    # single const, so the const-const exclusion is vacuous and the axiom
    # pass must preserve behaviors exactly
    return normalize(
        [
            R("add", INT_NT, Plus(Hole(INT_NT), Hole(INT_NT)), 4, tags("plus", "commut")),
            R("sub", INT_NT, Minus(Hole(INT_NT), Hole(INT_NT)), 2, tags("minus")),
            R("zero", INT_NT, IntLit(0), 2, tags("const", "0")),
            R("vx", INT_NT, Var("x"), 4, tags("top")),
            R("vy", INT_NT, Var("y"), 2, tags("top")),
        ]
    )


def signature_set(g, nt, depth, envs):
    return {
        tuple(evaluate(e, env) for env in envs) for e in exprs_by_depth(g, nt, depth)
    }


def test_axiom_soundness_behaviors_preserved():
    # symmetry breaking removes only semantic duplicates: the behaviors
    # reachable at expression depth <= 3 are unchanged
    g = arithmetic_grammar()
    rng = random.Random(16)
    envs = [{"x": IntV(rng.randrange(-50, 50)), "y": IntV(rng.randrange(-50, 50))} for _ in range(16)]
    before = signature_set(g, INT_NT, 3, envs)
    after_g = apply_axioms(g)
    after = signature_set(after_g, after_g.start(INT), 3, envs)
    assert before == after


def test_axioms_prune_redundant_trees():
    g = arithmetic_grammar()
    ga = apply_axioms(g)
    before = exprs_by_depth(g, INT_NT, 3)
    after = exprs_by_depth(ga, ga.start(INT), 3)
    assert after < before  # proper subset: 0-operands and mirrored pairs gone
    assert Plus(IntLit(0), Var("x")) in before
    assert Plus(IntLit(0), Var("x")) not in after


def test_const_const_exclusion_splits_minus():
    rules = [
        R("sub", INT_NT, Minus(Hole(INT_NT), Hole(INT_NT)), 2, tags("minus")),
        R("one", INT_NT, IntLit(1), 1, tags("const")),
        R("two", INT_NT, IntLit(2), 1, tags("const")),
        R("vx", INT_NT, Var("x"), 2, tags("top")),
    ]
    g = apply_axioms(normalize(rules), axioms=("const",))
    exprs = {e for e, _ in derivations(g, g.start(INT), 2)}
    # no const-const operand pair survives; const-var pairs do
    assert Minus(IntLit(1), IntLit(2)) not in exprs
    assert Minus(IntLit(1), IntLit(1)) not in exprs
    assert Minus(IntLit(1), Var("x")) in exprs
    assert Minus(Var("x"), IntLit(2)) in exprs
    assert Minus(Var("x"), Var("x")) in exprs

    # a plus rule is split the same way, whatever other tags it carries
    rules[0] = R("add", INT_NT, Plus(Hole(INT_NT), Hole(INT_NT)), 2, tags("plus", "commut"))
    g = apply_axioms(normalize(rules), axioms=("const",))
    exprs = {e for e, _ in derivations(g, g.start(INT), 2)}
    assert Plus(IntLit(1), IntLit(2)) not in exprs
    assert Plus(IntLit(1), IntLit(1)) not in exprs
    assert Plus(IntLit(1), Var("x")) in exprs
    assert Plus(Var("x"), IntLit(2)) in exprs


# ---------------------------------------------------------------------------
# horizons


def test_horizons_two_sort_values():
    g = two_sort_grammar()
    h = horizons(g)
    assert h[INT_NT] == pytest.approx(-math.log(0.3), abs=1e-9)
    assert h[BOOL_NT] == pytest.approx(-math.log(0.8) + 2 * -math.log(0.3), abs=1e-9)
    assert h[INT_NT] == pytest.approx(1.2039728043259361, abs=1e-9)
    assert h[BOOL_NT] == pytest.approx(2.6310891599660815, abs=1e-9)


def test_horizons_match_bounded_brute_force():
    for g in [two_sort_grammar(), arithmetic_grammar(), apply_axioms(arithmetic_grammar())]:
        h = horizons(g)
        for nt in g.rules:
            brute = min_cost_by_depth(g, nt, 4)
            assert brute is not None
            assert h[nt] == pytest.approx(brute, abs=1e-9)


def test_horizons_exact_where_a_tolerance_stops_early():
    # O -> P -> Q -> R -> S by unit rules at cost 0; S ends at cost 1, and P
    # also at 1 + 1e-13. A fixpoint that stops once no value moves by more
    # than 1e-12 settles on h(O) = 1 + 1e-13, above the true least cost
    o, p, q, r, s = (Nonterminal(INT, a) for a in "OPQRS")
    rules = {
        o: (R("o", o, Hole(p), 1),),
        p: (R("p", p, Hole(q), 1), R("pt", p, IntLit(2), 1)),
        q: (R("q", q, Hole(r), 1),),
        r: (R("r", r, Hole(s), 1),),
        s: (R("st", s, IntLit(1), 1),),
    }
    cost = {"o": 0.0, "p": 0.0, "pt": 1 + 1e-13, "q": 0.0, "r": 0.0, "st": 1.0}
    g = Pcfg(rules, {k: math.exp(-c) for k, c in cost.items()}, cost)
    assert horizons(g) == {o: 1.0, p: 1.0, q: 1.0, r: 1.0, s: 1.0}


def _shared_grammars():
    yield two_sort_grammar()
    yield mixed_template_grammar()
    yield normalize(split_variable_rules(weight_table_rules(), {"x": INT, "y": INT}))
    yield apply_axioms(two_sort_grammar())
    for seed in range(30):
        yield random_finite_pcfg(random.Random(seed))
        yield random_recursive_pcfg(random.Random(seed), n_nts=4)


def test_horizons_satisfy_the_bellman_equation_exactly():
    # each horizon is its cheapest rule's cost plus its children's horizons,
    # summed in that order, with no tolerance
    for g in _shared_grammars():
        h = horizons(g)
        assert h.keys() == g.rules.keys()
        for nt, rules in g.rules.items():
            assert h[nt] == min(sum(map(h.get, r.child_nts), g.cost[r.id]) for r in rules)


def test_horizons_cached_on_pcfg():
    g = two_sort_grammar()
    assert g.horizon() is g.horizon()
