import math
import random

import pytest

from pgsynth.enumerate import Enumerator
from pgsynth.grammar import (
    GrammarError,
    Pcfg,
    discover_types,
    horizons,
    instantiate_generics,
    normalize,
    split_variable_rules,
)
from pgsynth.lang import (
    BOOL,
    INT,
    Cons,
    Head,
    Hole,
    IntLit,
    ListType,
    Minus,
    Nil,
    Nonterminal,
    Plus,
    Size,
    TypeVar,
    Var,
    type_of,
)
from grammars import (
    BOOL_NT,
    INT_NT,
    R,
    mixed_template_grammar,
    random_finite_pcfg,
    random_recursive_pcfg,
    two_sort_grammar,
    weight_table_rules,
)
from oracle import min_cost_by_depth


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


def test_probability_one_cycle_rejected():
    # each leaf's weight is lost against 1e20, so ab and ba get p == 1.0
    a, b = Nonterminal(INT, "A"), Nonterminal(INT, "B")
    rules = [
        R("ab", a, Hole(b), 1e20),
        R("ba", b, Hole(a), 1e20),
        R("a1", a, IntLit(1), 1),
        R("b1", b, IntLit(2), 1),
    ]
    with pytest.raises(GrammarError, match="cycle of probability-1"):
        normalize(rules)


def test_long_probability_one_chain_normalizes_and_enumerates():
    # far deeper than Python's recursion limit, and no cycle
    chain = [Nonterminal(INT, f"L{i}") for i in range(2000)]
    rules = [R(f"c{i}", nt, Hole(nxt), 1) for i, (nt, nxt) in enumerate(zip(chain, chain[1:]))]
    g = normalize(rules + [R("leaf", chain[-1], IntLit(1), 1)])
    assert g.cost["c0"] == 0.0
    assert [pp.expr for pp in Enumerator(g, chain[0])] == [IntLit(1)]


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
# horizons


def test_horizons_two_sort_values():
    g = two_sort_grammar()
    h = horizons(g)
    assert h[INT_NT] == pytest.approx(-math.log(0.3), abs=1e-9)
    assert h[BOOL_NT] == pytest.approx(-math.log(0.8) + 2 * -math.log(0.3), abs=1e-9)
    assert h[INT_NT] == pytest.approx(1.2039728043259361, abs=1e-9)
    assert h[BOOL_NT] == pytest.approx(2.6310891599660815, abs=1e-9)


def arithmetic_grammar():
    # Int terms over plus and minus, with one constant and two variables
    return normalize(
        [
            R("add", INT_NT, Plus(Hole(INT_NT), Hole(INT_NT)), 4),
            R("sub", INT_NT, Minus(Hole(INT_NT), Hole(INT_NT)), 2),
            R("zero", INT_NT, IntLit(0), 2),
            R("vx", INT_NT, Var("x"), 4),
            R("vy", INT_NT, Var("y"), 2),
        ]
    )


def test_horizons_match_bounded_brute_force():
    for g in [two_sort_grammar(), arithmetic_grammar()]:
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
