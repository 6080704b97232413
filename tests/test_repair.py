"""Tests for the repair pipeline: task files, contract-driven test
generation, trace-intersection fault localization, the similar-term
grammar, per-location synthesis problems, and the end-to-end loop.
Failing-test classification is gated by the independent evaluator in
oracle.py; repaired programs are re-verified point by point."""

import math
import time

import pytest

from pgsynth.cegis import (
    ProblemError, SynthesisProblem, bounded_points, cegis, parse_problem, verify,
)
from pgsynth.corpus import parse_program, emit_program
from pgsynth.grammar import normalize
from pgsynth.grammarfile import parse_grammar_file, DEFAULT_GRAMMAR_TEXT, desugar
from pgsynth.lang import (
    BOOL,
    INT,
    IntLit,
    ListV,
    ListType,
    Nonterminal,
    TRUE_V,
    BoolV,
    IntV,
    iter_subexprs,
    parse_expr,
    replace_at,
    to_sexpr,
    type_of,
)
from pgsynth.repair import (
    RepairError,
    RepairTask,
    generate_tests,
    load_task,
    localize,
    location_problem,
    parse_task,
    repair,
    similar_term_grammar,
)
from pgsynth import repair as repair_module
from pgsynth.sexpr import MAX_DEPTH
from oracle import oracle_eval_expr, oracle_points, to_py

LIST_INT = ListType(INT)

ABS_BUGGY = """
(def abs ((a Int)) -> Int
  (ensures (and (<= 0 result) (if (= result a) true (= result (- 0 a)))))
  (if (<= 0 a) a a))
"""

ABS_CORRECT = """
(def abs ((a Int)) -> Int
  (ensures (and (<= 0 result) (if (= result a) true (= result (- 0 a)))))
  (if (<= 0 a) a (- 0 a)))
"""


def buggy_abs():
    return parse_program(ABS_BUGGY)


def cons_list(depth):
    """A (List Int) literal whose S-expression nests `depth` lists deep."""
    return "(cons 1 " * (depth - 1) + "(nil Int)" + ")" * (depth - 1)


# ---------------------------------------------------------------------------
# Task files


def write_program(tmp_path, text, name="prog.sexp"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_parse_task_resolves_program_relative_to_dir(tmp_path):
    write_program(tmp_path, ABS_BUGGY)
    task = parse_task('(repair (program "prog.sexp") (function abs))', tmp_path)
    assert task.function == "abs"
    assert task.program.find("abs") is not None
    assert task.tests == ()


def test_parse_task_with_tests(tmp_path):
    write_program(tmp_path, ABS_BUGGY)
    task = parse_task(
        '(repair (program "prog.sexp") (function abs) (tests ((a -3)) ((a 2))))',
        tmp_path,
    )
    assert task.tests == ((("a", IntV(-3)),), (("a", IntV(2)),))
    assert [dict(t) for t in task.tests] == [{"a": IntV(-3)}, {"a": IntV(2)}]


def test_load_task_resolves_relative_to_task_file(tmp_path):
    write_program(tmp_path, ABS_BUGGY)
    task_file = tmp_path / "fix.task"
    task_file.write_text('(repair (program "prog.sexp") (function abs))', encoding="utf-8")
    assert load_task(task_file).function == "abs"


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("(fix (program \"p\") (function f))", "expected a (repair ...) form"),
        ("(repair (function f))", "missing (program ...) clause"),
        ('(repair (program "p"))', "missing (function ...) clause"),
        ('(repair (program "p") (program "q") (function f))', "duplicate clause"),
        ('(repair (program "p") (function f) (budget 3))', "unknown clause"),
        ("(repair (program p) (function f))", 'program clause must be (program "path")'),
        ('(repair (program "p") (function "f"))', "function clause must be (function name)"),
        ('(repair (program "p") (function f) 7)', "bad clause"),
    ],
)
def test_parse_task_shape_errors(text, fragment):
    with pytest.raises(RepairError, match=None) as err:
        parse_task(text)
    assert fragment in str(err.value)


def test_parse_task_unreadable_program(tmp_path):
    with pytest.raises(RepairError, match="cannot read program"):
        parse_task('(repair (program "nope.sexp") (function abs))', tmp_path)
    write_program(tmp_path, "(def abs ((a Int)) -> Int true)")
    with pytest.raises(RepairError, match="has type Bool"):
        parse_task('(repair (program "prog.sexp") (function abs))', tmp_path)


def test_parse_task_missing_function(tmp_path):
    write_program(tmp_path, ABS_BUGGY)
    with pytest.raises(RepairError, match="function foo not found"):
        parse_task('(repair (program "prog.sexp") (function foo))', tmp_path)


@pytest.mark.parametrize(
    "tests,fragment",
    [
        ("(tests 7)", "test must be ((name value) ...)"),
        ("(tests ((a 1 2)))", "test binding must be (name value)"),
        ("(tests ((a 1) (a 2)))", "binds a twice"),
        ("(tests ((b 1)))", "must bind exactly the parameters"),
        ("(tests ())", "must bind exactly the parameters"),
        ("(tests ((a true)))", "does not fit Int"),
        ("(tests ((a (+ 1 2))))", "literal"),
        ("(tests ((a (head (nil Int)))))", "not a literal"),
        # repair, tests, the test and the binding add four levels
        (f"(tests ((a {cons_list(MAX_DEPTH - 3)})))", "nest deeper"),
    ],
)
def test_parse_task_test_errors(tmp_path, tests, fragment):
    write_program(tmp_path, ABS_BUGGY)
    with pytest.raises(RepairError) as err:
        parse_task(f'(repair (program "prog.sexp") (function abs) {tests})', tmp_path)
    assert fragment in str(err.value)


def test_parse_task_at_nesting_limit(tmp_path):
    write_program(
        tmp_path,
        "(def len ((l (List Int))) -> Int (ensures (= result (size l))) (size l))",
    )
    depth = MAX_DEPTH - 4  # repair, tests, the test and the binding
    task = parse_task(
        f'(repair (program "prog.sexp") (function len) (tests ((l {cons_list(depth)}))))',
        tmp_path,
    )
    (user,) = [dict(t) for t in task.tests]
    assert user["l"] == ListV((IntV(1),) * (depth - 1))
    suite = generate_tests(
        task.program.find("len"), [dict(t) for t in task.tests], int_bound=1, list_bound=1
    )
    assert suite.points[0] == user and suite.failing == ()


# ---------------------------------------------------------------------------
# Test generation, classification gated by the independent evaluator


def oracle_failing(fn, int_bound, list_bound):
    """Classify every bounded pre-satisfying point with the reference-free
    evaluator from oracle.py: a point fails iff ensures[result := body(point)]
    is not true (errors fail too)."""
    failing = []
    for env in oracle_points(fn.params, int_bound, list_bound):
        if fn.requires is not None and oracle_eval_expr(fn.requires, env) is not True:
            continue
        out = dict(env)
        out["result"] = oracle_eval_expr(fn.body, env)
        if oracle_eval_expr(fn.ensures, out) is not True:
            failing.append(env)
    return failing


def test_generate_tests_failing_matches_oracle():
    fn = buggy_abs().find("abs")
    suite = generate_tests(fn, int_bound=8, list_bound=4)
    assert len(suite.points) == 17
    oracle = oracle_failing(fn, 8, 4)
    got = [{k: v.value for k, v in p.items()} for p in suite.failing]
    want = oracle
    assert sorted(got, key=lambda e: e["a"]) == sorted(want, key=lambda e: e["a"])
    # buggy abs returns a itself, so exactly the negatives fail
    assert sorted(p["a"].value for p in suite.failing) == list(range(-8, 0))


def test_generate_tests_correct_function_has_no_failures():
    fn = parse_program(ABS_CORRECT).find("abs")
    suite = generate_tests(fn, int_bound=8, list_bound=4)
    assert suite.failing == ()
    assert len(suite.points) - len(suite.failing) == 17


def test_generate_tests_error_values_fail():
    # tail of the empty list is an error value, never a passing result
    fn = parse_program(
        "(def drop ((l (List Int))) -> (List Int)"
        "  (ensures (<= (size result) (size l)))"
        "  (tail l))"
    ).find("drop")
    suite = generate_tests(fn, int_bound=1, list_bound=2)
    assert [p["l"].items for p in suite.failing] == [()]


def test_generate_tests_user_tests_come_first():
    fn = buggy_abs().find("abs")
    suite = generate_tests(fn, [{"a": IntV(-3)}, {"a": IntV(5)}], int_bound=4)
    assert suite.points[0] == {"a": IntV(-3)}
    assert suite.points[1] == {"a": IntV(5)}
    assert len(suite.points) == 10  # dedup against the generated grid
    assert {"a": IntV(-3)} in suite.failing


def test_generate_tests_dedup_ignores_binding_order():
    fn = parse_program(
        "(def f ((a Int) (b Int)) -> Int (ensures (= result (+ a b))) (+ a b))"
    ).find("f")
    user = [{"b": IntV(1), "a": IntV(0)}, {"a": IntV(0), "b": IntV(1)}]
    suite = generate_tests(fn, user, int_bound=1)
    assert suite.points[0] == user[0]
    assert len(suite.points) == 9  # the 3 x 3 grid, the user test among it
    assert len(suite.points) - len(suite.failing) == 9


def test_generate_tests_mutation_does_not_reach_the_domain():
    fn = parse_program(
        "(def f ((l (List Int)) (a Int)) -> Int (ensures (= result a)) a)"
    ).find("f")
    for p in generate_tests(fn, int_bound=1, list_bound=2).points:
        p["a"] = IntV(99)
        del p["l"]
    want = oracle_points(fn.params, 1, 2)
    for points in (bounded_points(fn.params, 1, 2), generate_tests(fn, int_bound=1, list_bound=2).points):
        assert [{n: to_py(v) for n, v in p.items()} for p in points] == want


def test_generate_tests_user_test_must_satisfy_precondition():
    fn = parse_program(
        "(def f ((a Int)) -> Int (requires (<= 0 a)) (ensures (= result a)) a)"
    ).find("f")
    with pytest.raises(RepairError, match="violates the precondition"):
        generate_tests(fn, [{"a": IntV(-1)}], int_bound=4)


@pytest.mark.parametrize(
    "point, fragment",
    [
        ({"a": 5}, "does not fit Int"),
        # (<= 0 a) would run as Python's 0 <= True
        ({"a": BoolV(True)}, "does not fit Int"),
        ({"zz": IntV(1)}, "must bind exactly the parameters of f: a"),
        ({"a": IntV(1), "zz": IntV(1)}, "must bind exactly"),
    ],
)
@pytest.mark.parametrize("entry", ["generate_tests", "repair"])
def test_user_tests_must_bind_exactly_the_parameters(entry, point, fragment):
    prog = parse_program(
        "(def f ((a Int)) -> Int (requires (<= 0 a)) (ensures (= result (+ a 1))) a)"
    )
    with pytest.raises(RepairError, match=fragment):
        if entry == "generate_tests":
            generate_tests(prog.find("f"), [point], int_bound=4)
        else:
            repair(RepairTask(prog, "f", (tuple(point.items()),)), int_bound=4)


@pytest.mark.parametrize("test", [5, None, "ab", (("a",),)])
@pytest.mark.parametrize("entry", ["generate_tests", "repair"])
def test_user_test_that_is_not_pairs_is_rejected(entry, test):
    prog = parse_program(
        "(def f ((a Int)) -> Int (requires (<= 0 a)) (ensures (= result (+ a 1))) a)"
    )
    with pytest.raises(RepairError, match="must bind exactly the parameters of f: a"):
        if entry == "generate_tests":
            generate_tests(prog.find("f"), [test], int_bound=4)
        else:
            repair(RepairTask(prog, "f", (test,)), int_bound=4)


def test_generate_tests_requires_contract():
    fn = parse_program("(def f ((a Int)) -> Int a)").find("f")
    with pytest.raises(RepairError, match="no \\(ensures"):
        generate_tests(fn, int_bound=4)


def test_generate_tests_vacuous_contract():
    fn = parse_program(
        "(def f ((a Int)) -> Int (requires (<= a (- 0 99))) (ensures (= result a)) a)"
    ).find("f")
    with pytest.raises(RepairError, match="vacuous contract"):
        generate_tests(fn, int_bound=8)


def test_generate_tests_domain_budget():
    fn = parse_program(
        "(def f ((a Int) (b Int) (c Int)) -> Int (ensures (= result a)) a)"
    ).find("f")
    with pytest.raises(RepairError, match="over the budget"):
        generate_tests(fn, int_bound=8, max_points=1000)


# ---------------------------------------------------------------------------
# Negative bounds


BOUNDS_PROBLEM = """
(problem (inputs (a Int) (l (List Int))) (output x Int) (spec (= x (+ a (size l)))))
"""
BOUNDS_PROGRAM = """
(def f ((a Int) (l (List Int))) -> Int (ensures (= result (+ a (size l)))) a)
"""


def _bounds_cegis(**bound):
    problem = parse_problem(BOUNDS_PROBLEM)
    g = normalize(desugar(parse_grammar_file(DEFAULT_GRAMMAR_TEXT), problem.scope))
    return cegis(problem, g, **bound)


def _bounds_verify(**bound):
    return verify(parse_problem(BOUNDS_PROBLEM), parse_expr("a"), **bound)


def _bounds_generate_tests(**bound):
    return generate_tests(parse_program(BOUNDS_PROGRAM).find("f"), **bound)


def _bounds_repair(**bound):
    return repair(RepairTask(parse_program(BOUNDS_PROGRAM), "f"), **bound)


@pytest.mark.parametrize(
    "entry, error, bound",
    [
        (_bounds_cegis, ProblemError, "int_bound"),
        (_bounds_cegis, ProblemError, "list_bound"),
        (_bounds_verify, ProblemError, "int_bound"),
        (_bounds_verify, ProblemError, "list_bound"),
        (_bounds_generate_tests, RepairError, "int_bound"),
        (_bounds_generate_tests, RepairError, "list_bound"),
        (_bounds_repair, RepairError, "int_bound"),
        (_bounds_repair, RepairError, "list_bound"),
        (_bounds_repair, RepairError, "max_locations"),
        (_bounds_cegis, ProblemError, "max_dequeues"),
        (_bounds_cegis, ProblemError, "timeout_s"),
        (_bounds_cegis, ProblemError, "max_points"),
        (_bounds_cegis, ProblemError, "max_iterations"),
        (_bounds_verify, ProblemError, "max_points"),
        (_bounds_generate_tests, RepairError, "max_points"),
        (_bounds_repair, RepairError, "max_dequeues"),
        (_bounds_repair, RepairError, "max_points"),
        (_bounds_repair, RepairError, "timeout_s"),
    ],
)
def test_negative_bound_is_rejected(entry, error, bound):
    # an empty domain would verify anything (scanned=0), or, for
    # max_locations, slice off the last location
    with pytest.raises(error, match=f"{bound} must be at least 0, got -1"):
        entry(**{bound: -1})


@pytest.mark.parametrize("entry, error", [(_bounds_cegis, ProblemError), (_bounds_repair, RepairError)])
def test_nan_timeout_is_rejected(entry, error):
    # every comparison with NaN is false, so the search would never time out
    with pytest.raises(error, match="timeout_s must be at least 0, got nan"):
        entry(timeout_s=math.nan)


# ---------------------------------------------------------------------------
# Fault localization


def test_localize_buggy_abs_order():
    # all failing tests are negative, so only the else branch runs: its leaf
    # and the guard leaves precede the guard, the guard precedes the root,
    # and the never-failing then branch comes last
    fn = buggy_abs().find("abs")
    suite = generate_tests(fn, int_bound=8)
    assert localize(fn, suite.failing) == ((0, 0), (0, 1), (2,), (0,), (), (1,))


def test_localize_single_node_body():
    fn = parse_program("(def f ((a Int)) -> Int (ensures (= result 0)) a)").find("f")
    suite = generate_tests(fn, int_bound=2)
    assert localize(fn, suite.failing) == ((),)


def test_localize_branch_split_keeps_only_common_first():
    # failing tests exercise both branches, so neither branch precedes the
    # guard leaves, the guard, or the root
    fn = parse_program(
        "(def f ((a Int)) -> Int (ensures (= result (+ a 1)))"
        "  (if (<= 0 a) (- a 1) (- a 1)))"
    ).find("f")
    suite = generate_tests(fn, int_bound=2)
    taken = {p["a"].value for p in suite.failing}
    assert taken & {0, 1, 2} and taken & {-1, -2}
    order = localize(fn, suite.failing)
    common = {(0, 0), (0, 1), (0,), ()}
    k = len(common)
    assert set(order[:k]) == common
    assert order[k - 1] == ()  # root is the largest common subtree
    assert set(order[k:]) == {(1,), (1, 0), (1, 1), (2,), (2, 0), (2, 1)}


def test_localize_requires_failing_tests():
    fn = buggy_abs().find("abs")
    with pytest.raises(RepairError, match="at least one failing test"):
        localize(fn, ())


# ---------------------------------------------------------------------------
# Similar-term grammar


def test_similar_term_productions_weights_and_types():
    base = parse_grammar_file("production 1 [] vInt () -> Int (variable Int)")
    broken = parse_expr("(+ a 1)")
    gf = similar_term_grammar(broken, base, {"a": INT}, sigma=20.0)
    sims = [p for p in gf.productions if p.name.startswith("sim")]
    assert [(p.name, p.weight, to_sexpr(p.body)) for p in sims] == [
        ("sim0", 20.0, "(+ a 1)"),
        ("sim1", 10.0, "a"),
        ("sim2", 10.0, "1"),
    ]
    assert all(p.rtype == Nonterminal(INT) for p in sims)
    assert all(p.tags == frozenset() and p.params == () for p in sims)
    # the base grammar rides along unchanged
    assert any(p.name == "vInt" for p in gf.productions)


def test_similar_term_subtree_types_follow_the_scope():
    broken = parse_expr("(cons x l)")
    base = parse_grammar_file("production 1 [] vInt () -> Int (variable Int)")
    gf = similar_term_grammar(broken, base, {"x": INT, "l": LIST_INT})
    sims = {p.name: p for p in gf.productions if p.name.startswith("sim")}
    assert sims["sim0"].rtype == Nonterminal(LIST_INT)  # (cons x l)
    assert sims["sim1"].rtype == Nonterminal(INT)  # x
    assert sims["sim2"].rtype == Nonterminal(LIST_INT)  # l
    assert [sims[f"sim{i}"].weight for i in range(3)] == [20.0, 10.0, 10.0]


def test_similar_term_single_variable():
    base = parse_grammar_file("production 1 [] vInt () -> Int (variable Int)")
    gf = similar_term_grammar(parse_expr("a"), base, {"a": INT})
    sims = [p for p in gf.productions if p.name.startswith("sim")]
    assert len(sims) == 1 and sims[0].weight == 20.0


@pytest.mark.parametrize("sigma", [0.0, -1.5, float("nan"), float("inf")])
def test_similar_term_sigma_must_be_positive(sigma):
    base = parse_grammar_file("production 1 [] vInt () -> Int (variable Int)")
    with pytest.raises(RepairError, match="sigma must be positive"):
        similar_term_grammar(parse_expr("a"), base, {"a": INT}, sigma=sigma)


# ---------------------------------------------------------------------------
# Location problems


def test_location_problem_at_root_keeps_ensures():
    fn = buggy_abs().find("abs")
    problem = location_problem(fn, ())
    assert isinstance(problem, SynthesisProblem)
    assert problem.inputs == fn.params
    assert problem.output_name == "result"
    assert problem.output_type == INT
    assert to_sexpr(problem.pc) == "true"
    assert problem.spec == fn.ensures


def test_location_problem_else_branch_negates_guard():
    fn = buggy_abs().find("abs")
    problem = location_problem(fn, (2,))
    assert to_sexpr(problem.pc) == "(not (<= 0 a))"
    want = parse_expr(
        "(and (<= 0 (if (<= 0 a) a result))"
        " (if (= (if (<= 0 a) a result) a) true"
        "  (= (if (<= 0 a) a result) (- 0 a))))"
    )
    assert problem.spec == want


def test_location_problem_then_branch_keeps_guard():
    fn = buggy_abs().find("abs")
    assert to_sexpr(location_problem(fn, (1,)).pc) == "(<= 0 a)"


def test_location_problem_guard_child_adds_no_guard():
    fn = buggy_abs().find("abs")
    problem = location_problem(fn, (0, 0))
    assert to_sexpr(problem.pc) == "true"
    assert problem.output_type == INT  # the literal 0 inside the guard


def test_location_problem_conjoins_requires_and_nested_guards():
    fn = parse_program(
        "(def f ((a Int) (b Int)) -> Int"
        "  (requires (<= 0 a))"
        "  (ensures (<= result b))"
        "  (if (<= a b) (if (= a b) a b) a))"
    ).find("f")
    problem = location_problem(fn, (1, 2))
    assert to_sexpr(problem.pc) == "(and (and (<= 0 a) (<= a b)) (not (= a b)))"
    assert problem.output_type == INT


def test_location_problem_output_type_follows_the_subtree():
    fn = parse_program(
        "(def f ((l (List Int))) -> Int (ensures (<= 0 result))"
        "  (size (tail l)))"
    ).find("f")
    assert location_problem(fn, (0,)).output_type == LIST_INT
    assert location_problem(fn, ()).output_type == INT
    assert to_sexpr(location_problem(fn, (0, 0)).pc) == "true"


def test_location_problem_composes_specs_deeper_than_the_reader_allows():
    # body and ensures each nest about MAX_DEPTH - 10 deep; the spec that
    # substitutes the body for result nests twice as deep and still validates
    n = MAX_DEPTH - 10
    body = "(+ a " * n + "1" + ")" * n
    ensures = "(not " * (n + 3) + "(= result a)" + ")" * (n + 3)
    fn = parse_program(f"(def f ((a Int)) -> Int (ensures {ensures}) {body})").find("f")
    problem = location_problem(fn, (1,) * n)
    assert max(len(path) for path, _ in iter_subexprs(problem.spec)) > 2 * n
    assert problem.output_type == INT


def test_location_problem_deep_spec_prints():
    # the 384-level spec of the test above prints, though the reader would
    # refuse text this deep
    n = MAX_DEPTH - 10
    body = "(+ a " * n + "1" + ")" * n
    ensures = "(not " * (n + 3) + "(= result a)" + ")" * (n + 3)
    fn = parse_program(f"(def f ((a Int)) -> Int (ensures {ensures}) {body})").find("f")
    spec = location_problem(fn, (1,) * n).spec
    assert max(len(path) for path, _ in iter_subexprs(spec)) == 384
    text = to_sexpr(spec)
    assert text.startswith("(not " * (n + 3) + "(= (+ a ")
    assert text.count("(") == text.count(")") == 2 * n + 4


# ---------------------------------------------------------------------------
# End-to-end repair


def check_repaired_abs(res, original):
    fn = res.program.find("abs")
    # the repair touches exactly the reported subtree, nothing else
    assert res.location is not None and res.replacement is not None
    assert fn.body == replace_at(original.find("abs").body, res.location, res.replacement)
    assert generate_tests(fn, int_bound=8).failing == ()
    # bounded-exhaustive equivalence with true abs, via the oracle evaluator
    for env in oracle_points(fn.params, 8, 4):
        assert oracle_eval_expr(fn.body, env) == abs(env["a"])


def test_repair_buggy_abs():
    prog = buggy_abs()
    res = repair(RepairTask(prog, "abs"))
    assert res.success
    assert res.location == (2,)
    assert res.failing == 8 and res.tests == 17
    assert res.synthesis_calls >= 1 and res.dequeued > 0
    assert "repaired at" in res.reason
    check_repaired_abs(res, prog)


def test_repair_generates_tests_once(monkeypatch):
    # the final check classifies the suite's own points against the candidate
    made = []
    real = repair_module.generate_tests

    def counting(fn, *args, **kwargs):
        made.append(fn.name)
        return real(fn, *args, **kwargs)

    monkeypatch.setattr(repair_module, "generate_tests", counting)
    user = ((("a", IntV(-3)),), (("a", IntV(20)),))
    res = repair(RepairTask(buggy_abs(), "abs", user))
    assert res.success and res.location == (2,)
    assert made == ["abs"]
    # the premise: the repaired function keeps the suite's points, all passing
    fixed = real(res.program.find("abs"), [dict(t) for t in user])
    assert not fixed.failing and len(fixed.points) == res.tests == 18


def test_repair_wall_time_covers_the_whole_call():
    # the list domain makes test generation a large share of the call
    prog = parse_program(
        "(def dropcnt ((l (List Int))) -> Int"
        "  (requires (not (isEmpty l)))"
        "  (ensures (= result (size (tail l))))"
        "  (head (tail l)))"
    )
    t0 = time.monotonic()
    res = repair(RepairTask(prog, "dropcnt"), int_bound=3, list_bound=3,
                 max_dequeues=600, timeout_s=None)
    outside = time.monotonic() - t0
    assert res.success
    searches = sum(a.result.stats.wall_time for a in res.attempts if a.result is not None)
    assert searches < res.wall_time <= outside


def test_repair_buggy_abs_plain_grammar_only():
    prog = buggy_abs()
    res = repair(RepairTask(prog, "abs"), use_similar=False)
    assert res.success
    assert all(a.grammar == "plain" for a in res.attempts)
    check_repaired_abs(res, prog)


def test_repair_emits_single_subtree_diff():
    prog = buggy_abs()
    res = repair(RepairTask(prog, "abs"))
    before = emit_program(prog).splitlines()
    after = emit_program(res.program).splitlines()
    assert len(before) == len(after)
    changed = [(b, a) for b, a in zip(before, after) if b != a]
    assert len(changed) == 1
    assert changed[0][0].strip() == "(if (<= 0 a) a a))"


def test_repair_correct_function_is_a_no_op():
    prog = parse_program(ABS_CORRECT)
    res = repair(RepairTask(prog, "abs"))
    assert res.success
    assert res.synthesis_calls == 0 and res.location is None
    assert res.program == prog
    assert res.reason == "every test passes; nothing to repair"


def test_repair_unknown_function():
    with pytest.raises(RepairError, match="function g not found"):
        repair(RepairTask(buggy_abs(), "g"))


def test_repair_unsatisfiable_postcondition_reports_attempts():
    prog = parse_program(
        "(def f ((a Int)) -> Int"
        "  (ensures (and (= result a) (= result (+ a 1))))"
        "  a)"
    )
    res = repair(
        RepairTask(prog, "f"), int_bound=2, max_dequeues=300, timeout_s=2.0
    )
    assert not res.success
    assert res.program == prog and res.replacement is None
    assert res.attempts and all(not a.result.success for a in res.attempts if a.result)
    assert "tried 1 location(s)" in res.reason


def test_repair_max_locations_cuts_the_search():
    # the two guard leaves of buggy abs admit no fix: with only those two
    # locations allowed, repair must give up
    res = repair(
        RepairTask(buggy_abs(), "abs"), max_locations=2, max_dequeues=2000, timeout_s=5.0
    )
    assert not res.success
    assert "tried 2 location(s)" in res.reason
    assert {a.path for a in res.attempts} == {(0, 0), (0, 1)}


def test_repair_searches_each_location_once():
    # the similar-term grammar contains the plain one, so a location whose
    # similar search fails is not searched again with the plain grammar
    res = repair(
        RepairTask(buggy_abs(), "abs"), max_locations=2, max_dequeues=2000, timeout_s=None
    )
    assert not res.success
    assert [(a.path, a.grammar) for a in res.attempts] == [
        ((0, 0), "similar"), ((0, 1), "similar"),
    ]


def test_repair_clamp_inner_fault_one_search_per_location():
    # the fault is in the inner then-branch; the guard leaves tried before
    # it admit no fix and each spend one whole search budget
    prog = parse_program(
        "(def clamp ((a Int) (hi Int)) -> Int"
        "  (ensures (= result (if (<= a 0) 0 (if (<= hi a) hi a))))"
        "  (if (<= a 0) 0 (if (<= hi a) a a)))"
    )
    res = repair(RepairTask(prog, "clamp"), max_dequeues=5000, timeout_s=None)
    assert res.success
    assert res.location == (2, 1) and to_sexpr(res.replacement) == "hi"
    assert len(res.attempts) == 5
    assert all(a.grammar == "similar" for a in res.attempts)


def test_repair_user_tests_ride_along(tmp_path):
    write_program(tmp_path, ABS_BUGGY)
    task = parse_task(
        '(repair (program "prog.sexp") (function abs) (tests ((a -7))))', tmp_path
    )
    res = repair(task)
    assert res.success
    check_repaired_abs(res, task.program)


def test_repair_list_function_with_reduced_bounds():
    prog = parse_program(
        "(def second ((l (List Int))) -> Int"
        "  (requires (= (size l) 2))"
        "  (ensures (= result (head (tail l))))"
        "  (size (tail l)))"
    )
    res = repair(RepairTask(prog, "second"), int_bound=3, list_bound=3,
                 max_dequeues=600, timeout_s=10.0)
    assert res.success
    fn = res.program.find("second")
    assert generate_tests(fn, int_bound=3, list_bound=3).failing == ()
    for env in oracle_points(fn.params, 3, 3):
        if len(env["l"]) == 2:
            assert oracle_eval_expr(fn.body, env) == env["l"][1]


def test_repair_similar_term_beats_plain_on_a_seeded_mutant():
    # single-operator mutant (size for head): the fix reuses the broken
    # expression's own subterms, which only the similar-term grammar boosts
    prog = parse_program(
        "(def dropcnt ((l (List Int))) -> Int"
        "  (requires (not (isEmpty l)))"
        "  (ensures (= result (size (tail l))))"
        "  (head (tail l)))"
    )
    runs = {}
    for flag in (True, False):
        res = repair(RepairTask(prog, "dropcnt"), use_similar=flag,
                     int_bound=3, list_bound=3, max_dequeues=600, timeout_s=10.0)
        assert res.success
        runs[flag] = next(
            a.result.stats.dequeued for a in res.attempts if a.result and a.result.success
        )
    assert runs[True] < runs[False]


def test_repair_is_deterministic():
    first = repair(RepairTask(buggy_abs(), "abs"))
    second = repair(RepairTask(buggy_abs(), "abs"))
    assert first.location == second.location
    assert first.replacement == second.replacement
    assert first.dequeued == second.dequeued
    assert [a.path for a in first.attempts] == [a.path for a in second.attempts]
