"""Tests for the synthesis driver: problem files, spec assembly, point
checks, bounded verification (gated by the independent oracle), the search
phase, and the full counterexample-guided loop."""

import pytest

from oracle import oracle_eval_expr, oracle_points, oracle_verify, to_py
from pgsynth.cegis import (
    IoExample,
    ProblemError,
    SynthesisProblem,
    bounded_points,
    bounded_values,
    cegis,
    conjoin,
    domain_size,
    load_problem,
    make_prune,
    make_score,
    parse_problem,
    point_outcomes,
    satisfied_count,
    search,
    value_fits,
    verify,
)
from pgsynth.enumerate import ASTAR, DIJKSTRA, Enumerator, IndistRewriter, astar_score
from pgsynth.grammar import GrammarError, normalize
from pgsynth.grammarfile import DEFAULT_GRAMMAR_TEXT, desugar, parse_grammar_file
from pgsynth.lang import (
    BOOL,
    FALSE_V,
    INT,
    TRUE_V,
    UNKNOWN,
    BoolLit,
    BoolV,
    Eq,
    IntLit,
    IntV,
    Ite,
    ListType,
    ListV,
    TypeVar,
    Var,
    evaluate,
    parse_expr,
    partial_eval,
    subst_var,
    to_sexpr,
)
from pgsynth.sexpr import MAX_DEPTH

TRUE = BoolLit(True)


def gram(text, scope):
    return normalize(desugar(parse_grammar_file(text), scope))


# Nested-conditional benchmark: two special points, identity elsewhere.
COND_PROBLEM = parse_problem(
    """
    (problem
      (inputs (a Int))
      (output x Int)
      (spec (if (= a 5) (= x 6) (if (= a 7) (= x 9) (= x a)))))
    """
)

COND_GRAMMAR = gram(
    """
    production 10 [] vInt () -> Int (variable Int)
    production 3 [const] five () -> Int 5
    production 3 [const] six () -> Int 6
    production 3 [const] seven () -> Int 7
    production 3 [const] nine () -> Int 9
    production 15 [] cond (c Bool) (t Int) (e Int) -> Int (if c t e)
    production 1 [eq,commut] eq (u Int) (v Int) -> Bool (= u v)
    """,
    {"a": INT},
)

COND_SOLUTION = parse_expr("(if (= a 5) 6 (if (= a 7) 9 a))")

POINTS_257 = [{"a": IntV(2)}, {"a": IntV(5)}, {"a": IntV(7)}]

# max-of-2 over the default grammar; the example adds a desugared conjunct
MAX2_PROBLEM = parse_problem(
    """
    (problem
      (inputs (a Int) (b Int))
      (output x Int)
      (spec (and (and (<= a x) (<= b x)) (if (= x a) true (= x b))))
      (examples ((a 1) (b 3) => 3)))
    """
)

MAX2_GRAMMAR = gram(DEFAULT_GRAMMAR_TEXT, MAX2_PROBLEM.scope)

MAX2_POINTS = [
    {"a": IntV(a), "b": IntV(b)} for a, b in [(1, 3), (0, 0), (-1, 0), (2, -2), (4, 4)]
]


def nested_not(depth):
    """A Bool expression whose S-expression nests `depth` lists deep."""
    return "(not " * (depth - 1) + "(= x a)" + ")" * (depth - 1)


# ---------------------------------------------------------------------------
# Oracle gate: the fast verifier must agree with the reference scan


def test_verify_agrees_with_oracle():
    with_pc = parse_problem(
        """
        (problem
          (inputs (a Int))
          (output x Int)
          (pc (<= 0 a))
          (spec (<= a x))
          (examples ((a 1) => 4)))
        """
    )
    cases = [
        (COND_PROBLEM, Var("a")),
        (COND_PROBLEM, COND_SOLUTION),
        (COND_PROBLEM, IntLit(6)),
        (COND_PROBLEM, parse_expr("(head (nil Int))")),
        (with_pc, parse_expr("(+ a 1)")),  # fails only the example point
        (with_pc, parse_expr("(if (= a 1) 4 (+ a 1))")),
        (with_pc, Var("a")),
        (with_pc, IntLit(-9)),
    ]
    for problem, t in cases:
        got = verify(problem, t)
        status, env = oracle_verify(problem, t)
        assert got.status == status, to_sexpr(t)
        if status == "counterexample":
            assert {n: to_py(v) for n, v in got.point} == env, to_sexpr(t)


def test_verify_agrees_with_oracle_on_lists():
    problem = parse_problem(
        """
        (problem
          (inputs (l (List Int)))
          (output x Int)
          (pc (not (isEmpty l)))
          (spec (= x (head l))))
        """
    )
    for t in [parse_expr("(head l)"), parse_expr("(size l)"), IntLit(0)]:
        got = verify(problem, t, int_bound=2, list_bound=2)
        status, env = oracle_verify(problem, t, int_bound=2, list_bound=2)
        assert got.status == status, to_sexpr(t)
        if status == "counterexample":
            assert {n: to_py(v) for n, v in got.point} == env, to_sexpr(t)


# ---------------------------------------------------------------------------
# Problem files


def test_parse_problem_full():
    p = parse_problem(
        """
        (problem
          (inputs (a Int) (flag Bool))
          (output x Int)
          (pc true)
          (spec (= x a))
          (examples ((a 2) (flag true) => 2) ((a 0) (flag false) => 0))
          (grammar "g.grammar"))
        """
    )
    assert p.inputs == (("a", INT), ("flag", BOOL))
    assert p.output_name == "x" and p.output_type == INT
    assert p.pc == TRUE
    assert p.spec == Eq(Var("x"), Var("a"))
    assert p.grammar_ref == "g.grammar"
    assert p.examples[0] == IoExample(
        (("a", IntV(2)), ("flag", BoolV(True))), IntV(2)
    )
    assert p.examples[1].expected == IntV(0)


def test_parse_problem_defaults():
    p = parse_problem("(problem (output x Int))")
    assert p.inputs == () and p.examples == () and p.grammar_ref is None
    assert p.pc == TRUE and p.spec == TRUE
    assert p.full_spec == TRUE


def test_parse_list_typed_example_values():
    p = parse_problem(
        """
        (problem
          (inputs (l (List Int)))
          (output x Int)
          (examples ((l (cons 3 (nil Int))) => 3)))
        """
    )
    assert p.examples[0].bindings == (("l", ListV((IntV(3),))),)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("(synth (output x Int))", "expected a (problem"),
        ("(problem (inputs (a Int)))", "missing (output"),
        ("(problem (output x))", "output clause"),
        ("(problem (output x Int) (solve true))", "unknown clause"),
        ("(problem (output x Int) (pc true) (pc true))", "duplicate clause"),
        ("(problem (output x Int) (pc))", "exactly one expression"),
        ("(problem (output x Int) (pc true false))", "exactly one expression"),
        ("(problem (output x Int) (pc 3))", "not Bool"),
        ("(problem (output x Int) (pc (= x 0)))", "path condition"),
        ("(problem (output x Int) (spec x))", "not Bool"),
        ("(problem (output x Int) (spec (= x y)))", "spec"),
        ("(problem (inputs (a Int) (a Int)) (output x Int))", "duplicate input"),
        ("(problem (inputs (x Int)) (output x Int))", "shadows"),
        ("(problem (inputs (a 'T)) (output x Int))", "non-ground"),
        ("(problem (inputs a) (output x Int))", "(name Type)"),
        ("(problem (output x Int) (examples (3)))", "=>"),
        ("(problem (output x Int) (examples (=> 1 2)))", "exactly one expected"),
        ("(problem (inputs (a Int)) (output x Int) (examples ((b 1) => 1)))", "exactly the input names"),
        ("(problem (inputs (a Int) (b Int)) (output x Int) (examples ((a 1) => 1)))", "exactly the input names"),
        ("(problem (inputs (a Int)) (output x Int) (examples ((a true) => 1)))", "does not fit"),
        ("(problem (inputs (a Int)) (output x Int) (examples ((a (? Int)) => 1)))", "hole"),
        ("(problem (inputs (a Int)) (output x Int) (examples ((a b) => 1)))", "bad literal value"),
        ("(problem (inputs (a Int)) (output x Int) (examples ((a (+ 1 2)) => 1)))", "literal"),
        ("(problem (inputs (a Int)) (output x Int) (examples ((a (if true 1 2)) => 1)))", "literal"),
        ("(problem (inputs (a Int)) (output x Int) (examples ((a 1) => (head (nil Int)))))", "not a literal"),
        ("(problem (inputs (a Int)) (output x Int) (pc (<= 1 a)) (examples ((a 0) => 0)))", "violates the path condition"),
        ("(problem (output x Int) (grammar foo))", "(grammar \"path\")"),
        ("(problem (output x Int) (grammar))", "(grammar \"path\")"),
        ("(problem 5 (output x Int))", "bad clause"),
        # the problem and spec forms add two levels to the spec's own nesting
        (f"(problem (output x Int) (spec {nested_not(MAX_DEPTH - 1)}))", "nest deeper"),
    ],
)
def test_parse_problem_errors(text, fragment):
    with pytest.raises(ProblemError) as exc:
        parse_problem(text)
    assert fragment in str(exc.value)


def test_parse_problem_at_nesting_limit():
    depth = MAX_DEPTH - 2  # the problem and spec forms add two levels
    p = parse_problem(
        f"(problem (inputs (a Int)) (output x Int) (spec {nested_not(depth)}))"
    )
    want = depth % 2 == 1  # the spec is (= x a) under depth - 1 nots
    for x, a in [(1, 1), (1, 2)]:
        env = {"x": IntV(x), "a": IntV(a)}
        assert evaluate(p.spec, env) == BoolV(want == (x == a))
        assert oracle_eval_expr(p.spec, {"x": x, "a": a}) is (want == (x == a))
    assert verify(p, Var("a"), int_bound=2).valid is want


def test_load_problem(tmp_path):
    f = tmp_path / "p.problem"
    f.write_text("(problem (inputs (a Int)) (output x Int) (spec (= x a)))")
    assert load_problem(f).inputs == (("a", INT),)


# ---------------------------------------------------------------------------
# Spec assembly


def test_conjoin_and_value_fits():
    assert conjoin([]) == TRUE
    a, b, c = Var("a"), Var("b"), Var("c")
    assert conjoin([a]) == a
    assert to_sexpr(conjoin([a, b, c])) == "(and (and a b) c)"
    assert value_fits(IntV(3), INT) and not value_fits(IntV(3), BOOL)
    assert value_fits(ListV((IntV(1),)), ListType(INT))
    assert not value_fits(ListV((BoolV(True),)), ListType(INT))
    assert not value_fits(ListV((IntV(1),)), INT)


def test_full_spec_desugars_examples():
    p = parse_problem(
        "(problem (inputs (a Int)) (output x Int) (examples ((a 2) => 3)))"
    )
    expected = Ite(Eq(Var("a"), IntLit(2)), Eq(Var("x"), IntLit(3)), TRUE)
    assert p.full_spec == expected
    assert p.implication == Ite(TRUE, expected, TRUE)

    two = parse_problem(
        """
        (problem (inputs (a Int)) (output x Int) (spec (<= 0 x))
                 (examples ((a 2) => 3) ((a 4) => 5)))
        """
    )
    assert to_sexpr(two.full_spec) == (
        "(and (and (<= 0 x) (if (= a 2) (= x 3) true)) (if (= a 4) (= x 5) true))"
    )


# ---------------------------------------------------------------------------
# Point checks


def test_point_outcomes_on_partial_candidate():
    # then-branch answers a=2 correctly, fails a=5, leaves a=7 open
    e = parse_expr("(if (<= a 5) a (? Int))")
    assert list(point_outcomes(COND_PROBLEM, e, POINTS_257)) == [
        TRUE_V,
        FALSE_V,
        UNKNOWN,
    ]
    assert make_prune(COND_PROBLEM, POINTS_257)(e)
    assert make_score(COND_PROBLEM, POINTS_257)(e) == 1
    root = parse_expr("(? Int)")
    assert not make_prune(COND_PROBLEM, POINTS_257)(root)
    assert make_score(COND_PROBLEM, POINTS_257)(root) == 0


def dequeued_exprs(problem, g, points, max_dequeues):
    """Every production dequeued by a search-like enumeration whose prune
    and score hooks share one memo, plus that memo."""
    memo = [{} for _ in points]
    prune = make_prune(problem, points, memo)
    seen = []

    def recording_prune(e):
        seen.append(e)
        return prune(e)

    en = Enumerator(
        g, g.start(problem.output_type), astar_score(),
        prune=recording_prune, score=make_score(problem, points, memo),
        rewriter=IndistRewriter(points), max_dequeues=max_dequeues,
    )
    for _ in en:
        pass
    return seen, memo


@pytest.mark.parametrize(
    "problem, g, points",
    [(COND_PROBLEM, COND_GRAMMAR, POINTS_257), (MAX2_PROBLEM, MAX2_GRAMMAR, MAX2_POINTS)],
    ids=["cond", "max2"],
)
def test_memoized_outcomes_match_direct_substitution(problem, g, points):
    seen, memo = dequeued_exprs(problem, g, points, 3000)
    assert len(seen) == 3000
    x = problem.output_name
    for e in seen:
        direct = Ite(problem.pc, subst_var(problem.full_spec, x, e), TRUE)
        want = [partial_eval(direct, a) for a in points]
        assert list(point_outcomes(problem, e, points, memo)) == want, to_sexpr(e)
        assert make_prune(problem, points)(e) == (FALSE_V in want)
        assert make_score(problem, points)(e) == want.count(TRUE_V)
    # the memo is shared: far fewer distinct values than checked productions
    assert all(len(m) < len(seen) / 10 for m in memo)


def test_satisfied_count_matches_oracle_eval():
    for t in [Var("a"), IntLit(6), COND_SOLUTION]:
        n = satisfied_count(COND_PROBLEM, t, POINTS_257)
        spec = COND_PROBLEM.spec
        manual = 0
        for pt in POINTS_257:
            env = {k: to_py(v) for k, v in pt.items()}
            env["x"] = oracle_eval_expr(t, dict(env))
            manual += oracle_eval_expr(spec, env) is True
        assert n == manual, to_sexpr(t)


# ---------------------------------------------------------------------------
# Bounded domains and scan order


def test_bounded_values_ints_in_magnitude_order():
    vals = bounded_values(INT, 3, 4)
    assert vals == [IntV(i) for i in [0, -1, 1, -2, 2, -3, 3]]
    assert bounded_values(BOOL, 3, 4) == [BoolV(False), BoolV(True)]


def test_bounded_values_lists_prefix():
    vals = bounded_values(ListType(INT), 1, 2)
    as_py = [to_py(v) for v in vals]
    assert as_py[:5] == [(), (0,), (-1,), (0, 0), (1,)]
    assert len(vals) == domain_size(ListType(INT), 1, 2) == 1 + 3 + 9


def test_bounded_points_order_and_oracle_agreement():
    pts = list(bounded_points((("a", INT), ("b", INT)), int_bound=2))
    first_tier = [{k: v.value for k, v in p.items()} for p in pts[:5]]
    assert first_tier == [
        {"a": 0, "b": 0},
        {"a": -1, "b": 0},
        {"a": 0, "b": -1},
        {"a": 0, "b": 1},
        {"a": 1, "b": 0},
    ]
    mixed = (("a", INT), ("flag", BOOL), ("l", ListType(BOOL)))
    got = [
        {n: to_py(v) for n, v in p.items()}
        for p in bounded_points(mixed, int_bound=2, list_bound=2)
    ]
    assert got == oracle_points(mixed, 2, 2)


def test_domain_size_counts():
    assert domain_size(INT, 8, 4) == 17
    assert domain_size(BOOL, 8, 4) == 2
    assert domain_size(ListType(INT), 8, 4) == sum(17**k for k in range(5))
    with pytest.raises(ProblemError):
        bounded_values(TypeVar("T"), 1, 1)
    with pytest.raises(ProblemError):
        domain_size(TypeVar("T"), 1, 1)


# ---------------------------------------------------------------------------
# Verification


def test_verify_identity_counterexample_is_5():
    vr = verify(COND_PROBLEM, Var("a"))
    assert vr.status == "counterexample"
    assert vr.point == (("a", IntV(5)),)
    # scan order 0,-1,1,...,-5,5: eleven points inspected
    assert vr.scanned == 11


def test_verify_correct_solution_valid():
    vr = verify(COND_PROBLEM, COND_SOLUTION)
    assert vr.valid and vr.scanned == 17


def test_verify_vacuous_pc():
    p = parse_problem("(problem (inputs (a Int)) (output x Int) (pc false))")
    vr = verify(p, Var("a"))
    assert vr.valid and vr.scanned == 0


def test_verify_pc_filters_scan():
    p = parse_problem(
        """
        (problem (inputs (a Int)) (output x Int)
                 (pc (and (<= 1 a) (<= a 3))) (spec (= x (+ a 1))))
        """
    )
    vr = verify(p, parse_expr("(+ a 1)"))
    assert vr.valid and vr.scanned == 3


def test_verify_erroring_candidate():
    vr = verify(COND_PROBLEM, parse_expr("(head (nil Int))"))
    assert vr.status == "counterexample"
    assert vr.point == (("a", IntV(0)),)


def test_verify_budget_unknown():
    vr = verify(COND_PROBLEM, Var("a"), max_points=10)
    assert vr.status == "unknown"
    assert "17" in vr.reason and "10" in vr.reason
    big = parse_problem(
        "(problem (inputs (l (List Int)) (m (List Int))) (output x Int))"
    )
    assert verify(big, IntLit(0)).status == "unknown"


def full_spec_scan(problem, t, int_bound, list_bound):
    """Reference for verify: evaluate full_spec on every point satisfying pc."""
    scanned = 0
    for env in bounded_points(problem.inputs, int_bound, list_bound):
        if evaluate(problem.pc, env) != TRUE_V:
            continue
        scanned += 1
        out = {**env, problem.output_name: evaluate(t, env)}
        if evaluate(problem.full_spec, out) != TRUE_V:
            return "counterexample", tuple(env.items()), scanned
    return "valid", None, scanned


LIST_EXAMPLES = """
    (problem (inputs (l (List Int)) (a Int)) (output x Int) {pc}
      (spec (<= a (+ x (size l))))
      (examples ((a 0) (l (cons 1 (cons 2 (nil Int)))) => 3)
                ((l (cons 1 (nil Int))) (a 1) => 2)
                {extra}))
"""


@pytest.mark.parametrize(
    "pc, extra",
    [
        ("", ""),
        ("(pc (not (isEmpty l)))", ""),
        # the same input twice, bound in either order: consistent, then not
        ("", "((a 1) (l (cons 1 (nil Int))) => 2)"),
        ("(pc (not (isEmpty l)))", "((a 1) (l (cons 1 (nil Int))) => 1)"),
    ],
    ids=["lists", "pc", "same-input", "contradicting"],
)
def test_verify_matches_full_spec_scan(pc, extra):
    problem = parse_problem(LIST_EXAMPLES.format(pc=pc, extra=extra))
    candidates = [
        "a",
        "(head l)",  # errors on the empty list, which pc may exclude
        "(+ a (size l))",  # fails only on the example point ([1 2], 0)
        "(if (= l (cons 1 (cons 2 (nil Int)))) 3 (+ a (size l)))",
        "0",
    ]
    for text in candidates:
        t = parse_expr(text)
        got = verify(problem, t, int_bound=2, list_bound=2)
        assert (got.status, got.point, got.scanned) == full_spec_scan(problem, t, 2, 2), text
        status, env = oracle_verify(problem, t, int_bound=2, list_bound=2)
        assert got.status == status, text
        if status == "counterexample":
            assert {n: to_py(v) for n, v in got.point} == env, text


def test_bounded_domain_never_leaks_mutation():
    inputs = (("l", ListType(INT)), ("a", INT))
    want = oracle_points(inputs, 1, 2)
    for p in bounded_points(inputs, 1, 2):
        p["a"] = IntV(99)
        del p["l"]
    got = [{n: to_py(v) for n, v in p.items()} for p in bounded_points(inputs, 1, 2)]
    assert got == want
    vals = bounded_values(INT, 2, 1)
    vals.reverse()
    vals.append(IntV(99))
    assert bounded_values(INT, 2, 1) == [IntV(i) for i in [0, -1, 1, -2, 2]]


def test_many_examples_search_and_verify():
    # 600 examples conjoin balanced, about 10 levels deep, not 600
    examples = " ".join(f"((a {i}) => {i})" for i in range(-300, 300))
    problem = parse_problem(
        f"(problem (inputs (a Int)) (output x Int) (examples {examples}))"
    )
    points = [ex.env() for ex in problem.examples]
    sr = search(problem, COND_GRAMMAR, points, timeout_s=None)
    assert sr.expr == Var("a")
    assert satisfied_count(problem, IntLit(6), points) == 1
    assert verify(problem, Var("a")).valid
    vr = verify(problem, IntLit(6))
    assert vr.point == (("a", IntV(0)),) and vr.scanned == 1


# ---------------------------------------------------------------------------
# Search phase


def test_search_empty_points_returns_first_emission():
    sr = search(COND_PROBLEM, COND_GRAMMAR, [])
    assert sr.expr == Var("a")  # highest-probability production
    assert sr.stats.emitted == 1


def test_search_on_three_points_finds_conditional():
    sr = search(COND_PROBLEM, COND_GRAMMAR, POINTS_257, timeout_s=None)
    assert sr.expr is not None
    assert satisfied_count(COND_PROBLEM, sr.expr, POINTS_257) == 3
    # the reference interpreter agrees point by point
    for pt in POINTS_257:
        env = {k: to_py(v) for k, v in pt.items()}
        out = oracle_eval_expr(sr.expr, env)
        assert oracle_eval_expr(COND_PROBLEM.spec, {**env, "x": out}) is True


def test_search_without_optimizations_still_filters():
    pts = [{"a": IntV(3)}]
    sr = search(
        COND_PROBLEM,
        COND_GRAMMAR,
        pts,
        DIJKSTRA,
        prune=False,
        indist=False,
        dedup=False,
        timeout_s=None,
    )
    assert satisfied_count(COND_PROBLEM, sr.expr, pts) == 1


def test_search_budget_exhaustion():
    sr = search(COND_PROBLEM, COND_GRAMMAR, POINTS_257, max_dequeues=3)
    assert sr.expr is None and sr.budget_hit and not sr.exhausted
    assert sr.stats.dequeued == 3


def test_search_exhausts_finite_grammar_on_unsat_spec():
    p = parse_problem(
        "(problem (inputs (a Int)) (output x Int) (spec (= x (+ x 1))))"
    )
    g = gram(
        """
        production 10 [] vInt () -> Int (variable Int)
        production 5 [const] one () -> Int 1
        """,
        {"a": INT},
    )
    sr = search(p, g, [{"a": IntV(0)}], timeout_s=None)
    assert sr.expr is None and sr.exhausted and not sr.budget_hit
    assert sr.best is None and sr.best_satisfied == 0


def test_search_requires_start_nonterminal():
    p = parse_problem("(problem (inputs (a Int)) (output x Bool))")
    g = gram("production 10 [] vInt () -> Int (variable Int)", {"a": INT})
    with pytest.raises(GrammarError):
        search(p, g, [])


def test_search_deterministic():
    runs = [
        search(COND_PROBLEM, COND_GRAMMAR, POINTS_257, timeout_s=None)
        for _ in range(2)
    ]
    assert runs[0].expr == runs[1].expr
    assert runs[0].stats.as_dict() == runs[1].stats.as_dict()


# ---------------------------------------------------------------------------
# Full loop


def test_cegis_pinned_by_examples_takes_one_iteration():
    p = parse_problem(
        """
        (problem
          (inputs (a Int))
          (output x Int)
          (pc (and (<= 1 a) (<= a 3)))
          (examples ((a 1) => 2) ((a 2) => 3) ((a 3) => 4)))
        """
    )
    g = gram(
        """
        production 10 [] vInt () -> Int (variable Int)
        production 4 [const] one () -> Int 1
        production 6 [plus,commut] add (u Int) (v Int) -> Int (+ u v)
        """,
        {"a": INT},
    )
    res = cegis(p, g, timeout_s=None)
    assert res.success and res.iterations == 1
    assert res.stats.verify_points == 3  # scans only the pc domain
    assert [
        {k: v.value for k, v in pt.items()} for pt in res.points
    ] == [{"a": 1}, {"a": 2}, {"a": 3}]
    assert oracle_verify(p, res.expr) == ("valid", None)


def test_cegis_single_branch_conditional():
    p = parse_problem(
        """
        (problem
          (inputs (a Int))
          (output x Int)
          (spec (if (= a 5) (= x 6) (= x a))))
        """
    )
    res = cegis(p, COND_GRAMMAR, timeout_s=None)
    assert res.success
    assert res.iterations >= 3  # identity, then a constant, then the branch
    assert res.iterations <= 10
    # first counterexample is the first falsifier of the identity candidate
    assert res.points[0] == {"a": IntV(5)}
    assert len(res.points) == res.iterations - 1
    keys = {tuple(sorted(pt.items())) for pt in res.points}
    assert len(keys) == len(res.points)  # progress: each point is new
    assert verify(p, res.expr).valid
    assert oracle_verify(p, res.expr) == ("valid", None)


def test_cegis_nested_conditional_from_empty():
    res = cegis(COND_PROBLEM, COND_GRAMMAR, timeout_s=None)
    assert res.success and res.iterations <= 10
    assert oracle_verify(COND_PROBLEM, res.expr) == ("valid", None)
    assert res.stats.dequeued > 0 and res.stats.wall_time > 0


def test_cegis_examples_seed_points():
    p = parse_problem(
        """
        (problem (inputs (a Int)) (output x Int)
                 (examples ((a 2) => 2) ((a -1) => -1)))
        """
    )
    res = cegis(p, COND_GRAMMAR, timeout_s=None)
    assert res.success and res.iterations == 1
    assert res.expr == Var("a")
    assert res.points[:2] == [{"a": IntV(2)}, {"a": IntV(-1)}]


def test_cegis_unsat_finite_grammar_reports_exhaustion():
    p = parse_problem(
        "(problem (inputs (a Int)) (output x Int) (spec (= x (+ x 1))))"
    )
    g = gram(
        """
        production 10 [] vInt () -> Int (variable Int)
        production 5 [const] one () -> Int 1
        """,
        {"a": INT},
    )
    # iteration 1 returns the vacuous first emission (A is empty), verify
    # refutes it, iteration 2 exhausts the grammar against the new point
    res = cegis(p, g, timeout_s=None)
    assert not res.success and res.expr is None
    assert res.iterations == 2
    assert res.points == [{"a": IntV(0)}]
    assert "grammar exhausted" in res.reason


def test_cegis_unsat_recursive_grammar_hits_budget():
    p = parse_problem(
        """
        (problem (inputs (a Int)) (output x Int) (spec (= x (+ x 1)))
                 (examples ((a 0) => 1)))
        """
    )
    res = cegis(p, COND_GRAMMAR, max_dequeues=200, timeout_s=None)
    assert not res.success
    assert "search budget exhausted" in res.reason
    assert res.stats.dequeued <= 200


def test_cegis_iteration_cap():
    res = cegis(COND_PROBLEM, COND_GRAMMAR, max_iterations=2, timeout_s=None)
    assert not res.success and res.iterations == 2
    assert "2 iterations" in res.reason


def test_cegis_verify_unknown_reports_best_candidate():
    big = parse_problem(
        "(problem (inputs (l (List Int)) (m (List Int))) (output x Int))"
    )
    g = gram(
        """
        production 10 [] vList () -> (List Int) (variable (List Int))
        production 5 [] len (u (List Int)) -> Int (size u)
        """,
        {"l": ListType(INT), "m": ListType(INT)},
    )
    res = cegis(big, g, timeout_s=None)
    assert not res.success
    assert "verification gave up" in res.reason
    assert res.best_candidate is not None


def test_cegis_deterministic():
    runs = [cegis(COND_PROBLEM, COND_GRAMMAR, timeout_s=None) for _ in range(2)]
    assert runs[0].expr == runs[1].expr
    assert runs[0].points == runs[1].points
    assert runs[0].stats.dequeued == runs[1].stats.dequeued


# Answers and exact RunStats counters recorded with point checks that walked
# the whole implication for every production; memoizing must not move them.
PINNED_KEYS = (
    "iterations", "dequeued", "pushed", "pruned", "expanded", "dup_dropped", "rewritten", "emitted",
)


@pytest.mark.parametrize(
    "problem, g, mode, budget, answer, counts",
    [
        (COND_PROBLEM, COND_GRAMMAR, None, 200_000, "(if (= 5 a) 6 (if (= 7 a) 9 a))",
         (4, 1191, 2143, 242, 945, 3432, 1265, 4)),
        (COND_PROBLEM, COND_GRAMMAR, ASTAR, 200_000, "(if (= 5 a) 6 (if (= 7 a) 9 a))",
         (4, 1357, 2211, 279, 1074, 4138, 1391, 4)),
        (COND_PROBLEM, COND_GRAMMAR, DIJKSTRA, 3000, None,
         (4, 4080, 13553, 56, 4021, 4578, 4280, 3)),
        (MAX2_PROBLEM, MAX2_GRAMMAR, None, 200_000, "(if (<= a b) b a)",
         (4, 4500, 13124, 1873, 1878, 1731, 541, 749)),
        (MAX2_PROBLEM, MAX2_GRAMMAR, ASTAR, 200_000, "(if (<= a b) b a)",
         (4, 4532, 13345, 1867, 1916, 2004, 562, 749)),
        (MAX2_PROBLEM, MAX2_GRAMMAR, DIJKSTRA, 3000, None,
         (3, 3405, 27450, 118, 3256, 1880, 857, 31)),
    ],
    ids=["cond-score", "cond-astar", "cond-dijkstra", "max2-score", "max2-astar", "max2-dijkstra"],
)
def test_cegis_counters_pinned(problem, g, mode, budget, answer, counts):
    res = cegis(problem, g, mode, max_dequeues=budget, timeout_s=None)
    assert (None if res.expr is None else to_sexpr(res.expr)) == answer
    stats = res.stats.as_dict()
    assert tuple(stats[k] for k in PINNED_KEYS) == counts


def test_cegis_with_astar_score_coefficient():
    res = cegis(COND_PROBLEM, COND_GRAMMAR, astar_score(2.0), timeout_s=None)
    assert res.success
    assert oracle_verify(COND_PROBLEM, res.expr) == ("valid", None)
