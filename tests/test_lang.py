import copy
import dataclasses
import itertools
import pickle
import random

import pytest

from pgsynth.lang import (
    BOOL,
    FALSE_V,
    INT,
    TRUE_V,
    UNKNOWN,
    And,
    BoolLit,
    BoolV,
    Cons,
    Eq,
    ErrV,
    EvalError,
    Expr,
    Head,
    Hole,
    IntLit,
    IntV,
    IsEmpty,
    Ite,
    Leq,
    ListType,
    ListV,
    Minus,
    Nil,
    Nonterminal,
    Not,
    Plus,
    Size,
    Tail,
    Times,
    TypeCheckError,
    Value,
    Var,
    compile_expr,
    compile_trace,
    evaluate,
    expr_size,
    get_at,
    holes,
    is_complete,
    iter_subexprs,
    match_type,
    parse_expr,
    parse_type,
    partial_eval,
    replace_at,
    subst_type,
    subst_var,
    to_sexpr,
    type_of,
    type_size,
    type_str,
    value_to_expr,
)

from oracle import ORACLE_ERR, oracle_eval_expr, replace_leftmost_hole, to_py

X = Var("x")
INT_NT = Nonterminal(INT)
BOOL_NT = Nonterminal(BOOL)


# ---------------------------------------------------------------------------
# Completion universes used as a brute-force oracle for partial evaluation.
# Small closed expression sets of depth <= 3; the Bool set cannot raise a
# runtime error, the Int set can (head of an empty list).

INT_UNIVERSE = [
    IntLit(0),
    IntLit(1),
    X,
    Plus(X, IntLit(1)),
    Minus(IntLit(0), X),
    Head(Nil(INT)),
]
BOOL_UNIVERSE = [
    BoolLit(True),
    BoolLit(False),
    Leq(X, IntLit(0)),
    Not(Leq(IntLit(1), X)),
]
ENV = {"x": IntV(2)}


def completions(e):
    """All ways of replacing every hole with a universe member of its type."""
    hs = holes(e)
    pools = [INT_UNIVERSE if nt.base == INT else BOOL_UNIVERSE for nt in hs]
    for combo in itertools.product(*pools):
        filled = e
        for c in combo:
            filled = replace_leftmost_hole(filled, c)
        yield filled


# ---------------------------------------------------------------------------
# Types


def test_type_parsing_round_trip():
    for text in ["Int", "Bool", "(List Int)", "(List (List Bool))", "'a"]:
        t = parse_type(text)
        assert type_str(t) == text
        assert parse_type(type_str(t)) == t


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("Foo", "unknown type"),
        ("(List)", "malformed type"),
        ('("List" Int)', "malformed type"),  # a quoted string is not a keyword
    ],
)
def test_parse_type_errors(text, fragment):
    with pytest.raises(TypeCheckError, match=fragment):
        parse_type(text)


def test_type_size_and_vars():
    t = parse_type("(List (List Int))")
    assert type_size(t) == 3
    assert subst_type(parse_type("(List 'a)"), {"a": INT}) == ListType(INT)
    sub = {}
    assert match_type(parse_type("(List 'a)"), ListType(BOOL), sub)
    assert sub == {"a": BOOL}
    assert not match_type(parse_type("(List 'a)"), INT, {})


def test_type_of_basics():
    assert type_of(Plus(X, IntLit(1)), {"x": INT}) == INT
    assert type_of(Cons(IntLit(1), Nil(INT)), {}) == ListType(INT)
    # head of an empty list still types as the element type
    assert type_of(Head(Nil(INT)), {}) == INT
    assert type_of(Hole(BOOL_NT), {}) == BOOL


def test_type_errors_carry_offender():
    bad = Plus(BoolLit(True), IntLit(1))
    with pytest.raises(TypeCheckError) as exc:
        type_of(bad, {})
    assert exc.value.offender == BoolLit(True)
    with pytest.raises(TypeCheckError):
        type_of(X, {})
    with pytest.raises(TypeCheckError):
        type_of(Ite(BoolLit(True), IntLit(1), BoolLit(False)), {})
    with pytest.raises(TypeCheckError):
        type_of(Cons(BoolLit(True), Nil(INT)), {})


# ---------------------------------------------------------------------------
# Evaluation


def test_eval_arith_and_compare():
    assert evaluate(Plus(X, IntLit(1)), ENV) == IntV(3)
    assert evaluate(Minus(IntLit(0), X), ENV) == IntV(-2)
    assert evaluate(Times(X, X), ENV) == IntV(4)
    assert evaluate(Leq(X, IntLit(2)), ENV) == TRUE_V
    assert evaluate(Eq(X, IntLit(3)), ENV) == FALSE_V


def test_eval_lists():
    l = Cons(IntLit(1), Cons(IntLit(2), Nil(INT)))
    assert evaluate(l, {}) == ListV((IntV(1), IntV(2)))
    assert evaluate(Head(l), {}) == IntV(1)
    assert evaluate(Tail(l), {}) == ListV((IntV(2),))
    assert evaluate(Size(l), {}) == IntV(2)
    assert evaluate(IsEmpty(l), {}) == FALSE_V
    assert evaluate(IsEmpty(Nil(BOOL)), {}) == TRUE_V
    assert evaluate(Eq(l, l), {}) == TRUE_V


def test_eval_errors_propagate():
    assert evaluate(Head(Nil(INT)), {}) == ErrV("head of empty list")
    assert evaluate(Tail(Nil(INT)), {}) == ErrV("tail of empty list")
    assert evaluate(Plus(Head(Nil(INT)), IntLit(1)), {}) == ErrV("head of empty list")
    assert evaluate(Ite(Leq(Head(Nil(INT)), IntLit(0)), IntLit(1), IntLit(2)), {}) == ErrV(
        "head of empty list"
    )


def test_eval_and_short_circuits():
    err = Leq(Head(Nil(INT)), IntLit(0))
    # a definitely-false left operand hides an error on the right
    assert evaluate(And(BoolLit(False), err), {}) == FALSE_V
    assert evaluate(And(BoolLit(True), err), {}) == ErrV("head of empty list")
    assert evaluate(And(err, BoolLit(False)), {}) == ErrV("head of empty list")


def test_eval_ite_takes_one_branch():
    # the untaken branch may contain an error without affecting the result
    e = Ite(Leq(X, IntLit(5)), X, Head(Nil(INT)))
    assert evaluate(e, ENV) == IntV(2)


# ---------------------------------------------------------------------------
# Partial evaluation


def test_partial_eval_hole_is_unknown():
    assert partial_eval(Plus(Hole(INT_NT), IntLit(1)), {}) is UNKNOWN
    assert partial_eval(Hole(BOOL_NT), {}) is UNKNOWN


def test_partial_eval_literals_are_shared_values():
    # equal literals evaluate to one shared value, not a fresh one per call
    assert partial_eval(IntLit(-7), {}) is partial_eval(IntLit(-7), {}) == IntV(-7)
    assert partial_eval(BoolLit(True), {}) is TRUE_V
    assert partial_eval(BoolLit(False), {}) is FALSE_V


def test_partial_eval_and_short_circuit():
    assert partial_eval(And(BoolLit(False), Hole(BOOL_NT)), {}) == FALSE_V
    # an unknown left operand could still complete to an error, so no verdict
    assert partial_eval(And(Hole(BOOL_NT), BoolLit(False)), {}) is UNKNOWN


def test_partial_eval_ite_same_branch():
    e = Ite(Hole(BOOL_NT), IntLit(5), IntLit(5))
    assert partial_eval(e, {}) == IntV(5)
    # brute-force oracle: every completion of the hole evaluates to 5
    for filled in completions(e):
        assert evaluate(filled, ENV) == IntV(5)


def test_partial_eval_ite_definite_condition_ignores_other_branch():
    e = Ite(BoolLit(True), IntLit(7), Hole(INT_NT))
    assert partial_eval(e, {}) == IntV(7)
    e2 = Ite(Leq(X, IntLit(0)), Hole(INT_NT), X)
    assert partial_eval(e2, ENV) == IntV(2)


def test_partial_eval_error_is_definite():
    # strict operators propagate an error regardless of the unknown operand
    assert partial_eval(Plus(Hole(INT_NT), Head(Nil(INT))), {}) == ErrV("head of empty list")
    assert partial_eval(Ite(Leq(Head(Nil(INT)), IntLit(0)), Hole(INT_NT), IntLit(1)), {}) == ErrV(
        "head of empty list"
    )


def random_partial_expr(rng, depth, want):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return Hole(INT_NT if want == INT else BOOL_NT)
        pool = INT_UNIVERSE if want == INT else BOOL_UNIVERSE
        return rng.choice(pool)
    if want == INT:
        shape = rng.randrange(3)
        if shape == 0:
            return Plus(
                random_partial_expr(rng, depth - 1, INT), random_partial_expr(rng, depth - 1, INT)
            )
        if shape == 1:
            return Ite(
                random_partial_expr(rng, depth - 1, BOOL),
                random_partial_expr(rng, depth - 1, INT),
                random_partial_expr(rng, depth - 1, INT),
            )
        return Times(
            random_partial_expr(rng, depth - 1, INT), random_partial_expr(rng, depth - 1, INT)
        )
    shape = rng.randrange(3)
    if shape == 0:
        return And(
            random_partial_expr(rng, depth - 1, BOOL), random_partial_expr(rng, depth - 1, BOOL)
        )
    if shape == 1:
        return Leq(
            random_partial_expr(rng, depth - 1, INT), random_partial_expr(rng, depth - 1, INT)
        )
    return Not(random_partial_expr(rng, depth - 1, BOOL))


def test_partial_eval_soundness_against_all_completions():
    # a definite value => every completion evaluates to exactly that value; a
    # definite error => every completion errs (the universes' only error is
    # head of an empty list, so here the reason matches too)
    rng = random.Random(7)
    checked_definite = 0
    for _ in range(300):
        e = random_partial_expr(rng, 2, INT if rng.random() < 0.6 else BOOL)
        if len(holes(e)) > 3:
            continue
        r = partial_eval(e, ENV)
        if r is UNKNOWN:
            continue
        checked_definite += 1
        for filled in completions(e):
            assert evaluate(filled, ENV) == r, to_sexpr(e)
    assert checked_definite > 30


def test_partial_eval_definite_error_may_differ_by_reason():
    # a hole left of the error can complete to an expression that errs first
    e = parse_expr("(if (? Bool) (+ (? Int) (head (nil Int))) (head (nil Int)))")
    assert partial_eval(e, {}) == ErrV("head of empty list")
    tail_err = parse_expr("(head (tail (nil Int)))")
    ints = [IntLit(0), X, tail_err, Head(Nil(INT))]
    bools = [BoolLit(True), BoolLit(False), parse_expr("(isEmpty (tail (nil Int)))")]
    reasons = set()
    for b, i in itertools.product(bools, ints):
        v = evaluate(replace_leftmost_hole(replace_leftmost_hole(e, b), i), ENV)
        assert isinstance(v, ErrV), to_sexpr(e)
        reasons.add(v.reason)
    assert reasons == {"head of empty list", "tail of empty list"}
    filled = parse_expr("(if true (+ (head (tail (nil Int))) (head (nil Int))) (head (nil Int)))")
    assert evaluate(filled, {}) == ErrV("tail of empty list")


def test_partial_eval_agrees_with_eval_on_complete_exprs():
    rng = random.Random(11)
    for _ in range(300):
        e = random_partial_expr(rng, 3, INT if rng.random() < 0.6 else BOOL)
        if not is_complete(e):
            continue
        assert partial_eval(e, ENV) == evaluate(e, ENV)


# ---------------------------------------------------------------------------
# Surface syntax


def test_expr_parse_print_round_trip():
    texts = [
        "(+ x 1)",
        "(if (<= x 0) (- 0 x) x)",
        "(cons 1 (nil Int))",
        "(head (tail l))",
        "(and (isEmpty l) (not (= x 2)))",
        "(? Int)",
        "(? Int NZ)",
        "(? (List Int))",
        "(= (size l) 0)",
        "(* -3 x)",
        "true",
        "-17",
    ]
    for text in texts:
        e = parse_expr(text)
        assert to_sexpr(e) == text
        assert parse_expr(to_sexpr(e)) == e


def test_parse_rejects_malformed():
    from pgsynth.sexpr import SexprError

    for bad in ["(+ 1)", "(if true 1)", "(nil)", "(foo 1 2)", "(1 2)", "true false", "(? Int (x y))"]:
        with pytest.raises(SexprError):
            parse_expr(bad)


def test_sexpr_reader_quoted_parens_are_strings():
    from pgsynth.sexpr import Symbol, parse_all

    assert parse_all('("(" ")") x') == [["(", ")"], Symbol("x")]


@pytest.mark.parametrize("word", ["1_0", "+3", "\u0663"])
def test_sexpr_reads_ints_only_from_ascii_digits(word):
    from pgsynth.sexpr import Symbol, parse_one, write

    assert parse_one(word) == Symbol(word)
    assert write(parse_one(word)) == word


def test_sexpr_rejects_an_int_too_long_to_print():
    from pgsynth.sexpr import SexprError

    with pytest.raises(SexprError, match="5000 characters"):
        parse_expr("9" * 5000)


def test_sexpr_write_nests_a_thousand_deep():
    from pgsynth.sexpr import Symbol, write

    assert write([Symbol("f"), "s", [1, [], [-2]], []]) == '(f "s" (1 () (-2)) ())'
    assert write(Symbol("x")) == "x" and write(7) == "7" and write([]) == "()"
    form = [Symbol("x"), 1]
    for _ in range(999):
        form = [Symbol("not"), form]
    assert write(form) == "(not " * 999 + "(x 1)" + ")" * 999


def test_hole_parsing():
    e = parse_expr("(? Int NZ)")
    assert e == Hole(Nonterminal(INT, "NZ"))
    assert parse_expr("(? (List Int))") == Hole(Nonterminal(ListType(INT)))


# ---------------------------------------------------------------------------
# Structural helpers


def test_paths_and_replacement():
    e = parse_expr("(if (<= x 0) (- 0 x) x)")
    assert get_at(e, (0, 1)) == IntLit(0)
    e2 = replace_at(e, (2,), IntLit(9))
    assert to_sexpr(e2) == "(if (<= x 0) (- 0 x) 9)"
    assert expr_size(e) == 8
    paths = [p for p, _ in iter_subexprs(e)]
    assert paths[0] == () and (0,) in paths and (1, 0) in paths


def test_subst_var():
    e = parse_expr("(+ x (* x y))")
    assert to_sexpr(subst_var(e, "x", IntLit(3))) == "(+ 3 (* 3 y))"


def test_replace_leftmost_hole_order():
    e = parse_expr("(+ (? Int) (? Int))")
    e = replace_leftmost_hole(e, IntLit(1))
    assert to_sexpr(e) == "(+ 1 (? Int))"
    assert holes(e) == [INT_NT]


def test_eval_trace_skips_untaken_branch():
    e = parse_expr("(if (<= x 0) (- 0 x) x)")
    v, visited = compile_trace(e)(ENV)
    assert v == IntV(2)
    assert (2,) in visited and (0,) in visited
    assert (1,) not in visited  # then-branch never ran
    v2, visited2 = compile_trace(parse_expr("(and false (<= x 0))"))(ENV)
    assert v2 == FALSE_V and (1,) not in visited2


def test_values():
    v = ListV((IntV(2), IntV(-3)))
    lit = value_to_expr(v, ListType(INT))
    assert evaluate(lit, {}) == v
    assert evaluate(value_to_expr(BoolV(True), BOOL), {}) == TRUE_V


# ---------------------------------------------------------------------------
# Agreement with the independent S-expression interpreter

LIST_INT = ListType(INT)


def random_typed_expr(rng, depth, want):
    """A closed, well-typed expression of type `want` over variables
    i,j : Int, b : Bool, l : List Int."""
    leaf = depth == 0 or rng.random() < 0.3
    if want == INT:
        if leaf:
            return rng.choice([IntLit(rng.randint(-3, 3)), Var("i"), Var("j")])
        cls = rng.choice([Plus, Minus, Times, Head, Size, Ite])
        if cls is Head:
            return Head(random_typed_expr(rng, depth - 1, LIST_INT))
        if cls is Size:
            return Size(random_typed_expr(rng, depth - 1, LIST_INT))
        if cls is Ite:
            return Ite(
                random_typed_expr(rng, depth - 1, BOOL),
                random_typed_expr(rng, depth - 1, INT),
                random_typed_expr(rng, depth - 1, INT),
            )
        return cls(
            random_typed_expr(rng, depth - 1, INT),
            random_typed_expr(rng, depth - 1, INT),
        )
    if want == BOOL:
        if leaf:
            return rng.choice([BoolLit(True), BoolLit(False), Var("b")])
        cls = rng.choice([Leq, Eq, And, Not, IsEmpty, Ite])
        if cls is Not:
            return Not(random_typed_expr(rng, depth - 1, BOOL))
        if cls is IsEmpty:
            return IsEmpty(random_typed_expr(rng, depth - 1, LIST_INT))
        if cls is Ite:
            return Ite(*(random_typed_expr(rng, depth - 1, BOOL) for _ in range(3)))
        if cls is Eq:
            t = rng.choice([INT, BOOL, LIST_INT])
            return Eq(
                random_typed_expr(rng, depth - 1, t),
                random_typed_expr(rng, depth - 1, t),
            )
        arg = INT if cls is Leq else BOOL
        return cls(
            random_typed_expr(rng, depth - 1, arg),
            random_typed_expr(rng, depth - 1, arg),
        )
    assert want == LIST_INT
    if leaf:
        return rng.choice([Nil(INT), Var("l")])
    cls = rng.choice([Cons, Tail, Ite])
    if cls is Cons:
        return Cons(
            random_typed_expr(rng, depth - 1, INT),
            random_typed_expr(rng, depth - 1, LIST_INT),
        )
    if cls is Tail:
        return Tail(random_typed_expr(rng, depth - 1, LIST_INT))
    return Ite(
        random_typed_expr(rng, depth - 1, BOOL),
        random_typed_expr(rng, depth - 1, LIST_INT),
        random_typed_expr(rng, depth - 1, LIST_INT),
    )


def test_eval_agrees_with_sexpr_oracle():
    from oracle import oracle_eval_expr, to_py

    scope = {"i": INT, "j": INT, "b": BOOL, "l": LIST_INT}
    rng = random.Random(23)
    for _ in range(300):
        want = rng.choice([INT, BOOL, LIST_INT])
        e = random_typed_expr(rng, 4, want)
        assert type_of(e, scope) == want
        env = {
            "i": IntV(rng.randint(-4, 4)),
            "j": IntV(rng.randint(-4, 4)),
            "b": BoolV(rng.random() < 0.5),
            "l": ListV(tuple(IntV(rng.randint(-2, 2)) for _ in range(rng.randint(0, 3)))),
        }
        got = to_py(evaluate(e, env))
        want_v = oracle_eval_expr(e, {n: to_py(v) for n, v in env.items()})
        assert got == want_v, to_sexpr(e)


# Int, Bool and (List Int) operands for the oracle check below; the Int and
# list sets each hold an expression that errs
TYPED_UNIVERSES = {
    INT: [IntLit(0), IntLit(1), X, Head(Nil(INT))],
    BOOL: [BoolLit(True), BoolLit(False), Leq(X, IntLit(0))],
    LIST_INT: [Nil(INT), Cons(X, Nil(INT)), Cons(IntLit(1), Cons(X, Nil(INT))), Tail(Nil(INT))],
}
# for each type, the operators that build it, with their operand types
TYPED_SHAPES = {
    INT: [(Plus, INT, INT), (Head, LIST_INT), (Size, LIST_INT), (Ite, BOOL, INT, INT)],
    BOOL: [
        (And, BOOL, BOOL), (Not, BOOL), (IsEmpty, LIST_INT), (Leq, INT, INT),
        (Eq, LIST_INT, LIST_INT), (Ite, BOOL, BOOL, BOOL),
    ],
    LIST_INT: [(Cons, INT, LIST_INT), (Tail, LIST_INT), (Ite, BOOL, LIST_INT, LIST_INT)],
}


def random_typed_partial_expr(rng, depth, want):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.3:
            return Hole(Nonterminal(want))
        return rng.choice(TYPED_UNIVERSES[want])
    cls, *params = rng.choice(TYPED_SHAPES[want])
    return cls(*(random_typed_partial_expr(rng, depth - 1, t) for t in params))


def test_partial_eval_definite_results_agree_with_the_oracle():
    # the referee is oracle.py's own interpreter, not the compiled closures.
    # A definite ErrV means every completion errs (ORACLE_ERR); a definite
    # value is what every completion evaluates to, unless it errs: an if whose
    # condition is unknown yields the value its branches agree on, though a
    # completion of the condition may err, as (if (<= 0 (? Int)) 5 5) does
    # with (head (nil Int))
    rng = random.Random(13)
    values = {INT: 0, BOOL: 0, LIST_INT: 0}
    errors = 0
    for _ in range(2000):
        want = rng.choice(list(TYPED_SHAPES))
        e = random_typed_partial_expr(rng, 3, want)
        hs = holes(e)
        if not hs or len(hs) > 3:
            continue
        r = partial_eval(e, ENV)
        if r is UNKNOWN:
            continue
        if isinstance(r, ErrV):
            errors += 1
        else:
            values[want] += 1
        seen = set()
        for combo in itertools.product(*(TYPED_UNIVERSES[nt.base] for nt in hs)):
            filled = e
            for c in combo:
                filled = replace_leftmost_hole(filled, c)
            got = oracle_eval_expr(filled, {"x": 2})
            assert got is ORACLE_ERR or got == to_py(r), to_sexpr(filled)
            seen.add(got)
        assert to_py(r) in seen, to_sexpr(e)
    assert min(values.values()) > 10 and errors > 100, (values, errors)


def test_type_of_agrees_with_sexpr_oracle():
    from oracle import oracle_type_expr

    scope = {"i": INT, "j": INT, "b": BOOL, "l": LIST_INT}
    printed = {n: type_str(t) for n, t in scope.items()}
    list_bool = ListType(BOOL)
    rng = random.Random(31)

    def agree(e):
        try:
            got = type_str(type_of(e, scope))
        except TypeCheckError:
            got = None
        assert got == oracle_type_expr(e, printed), to_sexpr(e)
        return got

    def term_of(t):
        if t == list_bool:
            return rng.choice([Nil(BOOL), Cons(BoolLit(False), Nil(BOOL))])
        return random_typed_expr(rng, 2, t)

    rejected = 0
    for _ in range(500):
        want = rng.choice([INT, BOOL, LIST_INT])
        e = random_typed_expr(rng, 4, want)
        assert agree(e) == type_str(want)
        # a twin with one proper subterm swapped for a term of another type
        subterms = list(iter_subexprs(e))[1:]
        if not subterms:
            continue
        path, sub = rng.choice(subterms)
        have = oracle_type_expr(sub, printed)
        other = rng.choice([t for t in (INT, BOOL, LIST_INT, list_bool) if type_str(t) != have])
        # some stay well-typed: (size l) with l swapped for a (List Bool)
        rejected += agree(replace_at(e, path, term_of(other))) is None
    assert rejected > 300


def test_one_compiled_closure_serves_many_envs():
    from oracle import oracle_eval_expr, to_py

    rng = random.Random(29)
    envs = [
        {
            "i": IntV(rng.randint(-4, 4)),
            "j": IntV(rng.randint(-4, 4)),
            "b": BoolV(rng.random() < 0.5),
            "l": ListV(tuple(IntV(rng.randint(-2, 2)) for _ in range(rng.randint(0, 3)))),
        }
        for _ in range(24)
    ]
    for _ in range(150):
        e = random_typed_expr(rng, 4, rng.choice([INT, BOOL, LIST_INT]))
        run = compile_expr(e)
        for env in envs:
            want = oracle_eval_expr(e, {n: to_py(v) for n, v in env.items()})
            assert to_py(run(env)) == want, to_sexpr(e)


def test_compiled_holes_and_unbound_variables_raise_only_when_reached():
    for text in [
        "(if true 1 (? Int))",
        "(if (<= x 0) nope x)",
        "(if (isEmpty (nil Int)) x (+ (? Int) nope))",
    ]:
        assert compile_expr(parse_expr(text))(ENV) in (IntV(1), IntV(2)), text
    for text in ["(and false (? Bool))", "(and (<= x 0) (= nope 1))"]:
        assert compile_expr(parse_expr(text))(ENV) == FALSE_V, text
    for text in [
        "(if false 1 (? Int))",
        "(+ nope 1)",
        "(and true (? Bool))",
        "(if (<= nope 0) 1 2)",
        "(? Int)",
    ]:
        run = compile_expr(parse_expr(text))  # compiling never raises
        with pytest.raises(EvalError):
            run(ENV)
    # one closure: the variable is looked up in each env it runs on
    run = compile_expr(parse_expr("(+ y 1)"))
    assert run({"y": IntV(4)}) == IntV(5)
    with pytest.raises(EvalError, match="unbound variable y"):
        run(ENV)


def test_compiled_strict_operator_yields_the_left_error():
    run = compile_expr(parse_expr("(+ (head (nil Int)) (head (tail (nil Int))))"))
    assert run({}) == ErrV("head of empty list")
    run = compile_expr(parse_expr("(+ (head (tail (nil Int))) (head (nil Int)))"))
    assert run({}) == ErrV("tail of empty list")


# ---------------------------------------------------------------------------
# The node contract: immutable, equal by class and fields, dataclass repr


NODE_SAMPLES = [
    IntLit(3),
    BoolLit(True),
    Var("x"),
    Plus(X, IntLit(1)),
    Minus(X, IntLit(1)),
    Times(X, IntLit(1)),
    Leq(X, IntLit(1)),
    Eq(X, IntLit(1)),
    And(BoolLit(True), Leq(X, IntLit(0))),
    Not(BoolLit(False)),
    Ite(BoolLit(True), X, IntLit(0)),
    Nil(INT),
    Cons(IntLit(1), Nil(INT)),
    Head(Nil(INT)),
    Tail(Cons(X, Nil(INT))),
    IsEmpty(Nil(BOOL)),
    Size(Nil(INT)),
    Hole(Nonterminal(INT, "nz")),
    IntV(3),
    BoolV(False),
    ListV((IntV(1), IntV(-2))),
    ErrV("head of empty list"),
]


def _fields(n):
    return tuple(getattr(n, f) for f in n.__match_args__)


def test_node_samples_cover_every_class():
    classes = set(Expr.__subclasses__()) | set(Value.__subclasses__())
    assert {type(n) for n in NODE_SAMPLES} == classes


@pytest.mark.parametrize("node", NODE_SAMPLES, ids=lambda n: type(n).__name__)
def test_node_is_immutable(node):
    for f in node.__match_args__:
        with pytest.raises(AttributeError):
            setattr(node, f, getattr(node, f))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(node, f)
    with pytest.raises(AttributeError):
        node.extra = 1


@pytest.mark.parametrize("node", NODE_SAMPLES, ids=lambda n: type(n).__name__)
def test_node_equality_and_hash(node):
    for twin in (type(node)(*_fields(node)), copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
        assert twin is not node
        assert twin == node and not twin != node
        assert hash(twin) == hash(node) == hash(_fields(node))
    for other in NODE_SAMPLES:
        cls = type(other)
        if cls is not type(node) and cls.__match_args__ == node.__match_args__:
            assert cls(*_fields(node)) != node


@pytest.mark.parametrize("node", NODE_SAMPLES, ids=lambda n: type(n).__name__)
def test_node_repr_is_the_dataclass_form(node):
    cls = type(node)
    ref = dataclasses.make_dataclass(cls.__name__, cls.__match_args__, frozen=True)
    assert repr(node) == repr(ref(*_fields(node)))


def test_node_repr_nests():
    assert repr(Plus(X, IntLit(1))) == "Plus(left=Var(name='x'), right=IntLit(value=1))"


@pytest.mark.parametrize("node", NODE_SAMPLES, ids=lambda n: type(n).__name__)
def test_node_positional_match_binds_fields(node):
    cls = type(node)
    n = len(cls.__match_args__)
    match node:
        case cls(a) if n == 1:
            got = (a,)
        case cls(a, b) if n == 2:
            got = (a, b)
        case cls(a, b, c) if n == 3:
            got = (a, b, c)
        case _:
            got = None
    assert got == _fields(node)
    for other in NODE_SAMPLES:
        match other:
            case cls():
                assert type(other) is cls
