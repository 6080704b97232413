"""Tests for corpus program parsing and the grammar extractor: one rule per
expression kind, weighted by its count, a golden file over every operator,
the search over an extracted grammar, and the scaled local-bias file.
Count invariants are gated by an independent per-node oracle built on
iter_subexprs and the reference typechecker."""

import itertools
import math
import random

import pytest

from pgsynth.corpus import (
    CorpusError,
    CorpusProgram,
    FunctionDef,
    extract_depth1,
    extract_local_bias,
    load_corpus,
    load_program,
    parse_def,
    parse_program,
)
from pgsynth.enumerate import ASTAR, Enumerator
from pgsynth.sexpr import MAX_DEPTH, parse_one
from pgsynth.grammar import normalize
from pgsynth.grammarfile import (
    desugar,
    emit_grammar_file,
    merge_grammar_files,
    parse_grammar_file,
)
from pgsynth.lang import (
    BOOL,
    INT,
    IntLit,
    ListType,
    Nonterminal,
    Times,
    Var,
    iter_subexprs,
    parse_expr,
    to_sexpr,
    type_of,
    type_str,
)
from oracle import derivations
from test_lang import random_typed_expr

LIST_INT = ListType(INT)


# ---------------------------------------------------------------------------
# Independent oracles


def oracle_type_counts(programs):
    """Node count per type over all bodies, typed by the reference
    typechecker one subexpression at a time."""
    counts = {}
    for prog in programs:
        for fn in prog.functions:
            for _, e in iter_subexprs(fn.body):
                t = type_str(type_of(e, fn.scope))
                counts[t] = counts.get(t, 0) + 1
    return counts


def weights_by(productions, key):
    out = {}
    for p in productions:
        k = key(p)
        out[k] = out.get(k, 0.0) + p.weight
    return out


# ---------------------------------------------------------------------------
# Program parsing

ABS_TEXT = """
(def abs ((a Int)) -> Int
  (ensures (and (<= 0 result) (if (= result a) true (= result (- 0 a)))))
  (if (<= 0 a) a (- 0 a)))
(def inc ((a Int)) -> Int (+ a 1))
"""


def test_parse_program_fields():
    prog = parse_program(ABS_TEXT)
    assert [f.name for f in prog.functions] == ["abs", "inc"]
    fn = prog.find("abs")
    assert fn.params == (("a", INT),)
    assert fn.return_type == INT
    assert fn.body == parse_expr("(if (<= 0 a) a (- 0 a))")
    assert fn.requires is None
    assert fn.ensures == parse_expr(
        "(and (<= 0 result) (if (= result a) true (= result (- 0 a))))"
    )
    assert fn.scope == {"a": INT}
    assert prog.find("nope") is None


def test_parse_def_with_both_contracts():
    prog = parse_program(
        "(def f ((l (List Int))) -> Int"
        " (requires (not (isEmpty l))) (ensures (<= 0 result)) (size l))"
    )
    fn = prog.functions[0]
    assert fn.requires == parse_expr("(not (isEmpty l))")
    assert fn.ensures == parse_expr("(<= 0 result)")
    assert fn.body == parse_expr("(size l)")


def test_parse_def_without_params():
    fn = parse_program("(def zero () -> Int 0)").functions[0]
    assert fn.params == ()
    assert fn.body == IntLit(0)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("(problem)", "expected a (def"),
        ("(def f ((a Int)) -> Int)", "truncated def"),
        ("(def if ((a Int)) -> Int a)", "invalid function name"),
        ("(def f (a Int) -> Int a)", "parameter must be (name Type)"),
        ("(def f ((a Int) extra) -> Int a)", "parameter must be (name Type)"),
        ("(def f ((a Int) (a Bool)) -> Int a)", "duplicate parameter"),
        ("(def f ((result Int)) -> Int result)", "reserved for postconditions"),
        ("(def f ((a Int)) = Int a)", "expected -> after"),
        ("(def f ((a Int)) -> Int a b)", "exactly one body"),
        ("(def f ((a Int)) -> Int (requires true) (requires true) a)", "duplicate (requires"),
        ("(def f ((a Int)) -> Int (requires true) (ensures true))", "missing function body"),
        ("(def f ((a Int)) -> Int (requires 1) a)", "requires has type Int"),
        ("(def f ((a Int)) -> Bool a)", "body has type Int"),
        ("(def f ((a Int)) -> Int (? Int))", "body contains a hole"),
        ("(def f ((a Int)) -> Int b)", "body"),
        ('("def" f ((a Int)) -> Int a)', "expected a (def"),
        ("(def f ((l (List 'a))) -> Int (size l))", "non-ground"),
        ("(def f ((a Int)) -> Int (size (nil 'a)))", "uses a type variable"),
        ("(def f ((a Int)) -> Int a) (def f () -> Int 1)", "duplicate function f"),
        # the def form adds one level to the body's nesting
        ("(def f ((a Int)) -> Int " + "(+ 1 " * MAX_DEPTH + "a" + ")" * MAX_DEPTH + ")", "nest deeper"),
    ],
)
def test_parse_program_errors(text, fragment):
    with pytest.raises(CorpusError) as err:
        parse_program(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "text, name",
    [
        ("(def if ((a Int)) -> Int a)", "if"),
        ("(def f (a Int) -> Int a)", "f"),
        ("(def f ((a Foo)) -> Int a)", "f"),
        ("(def f ((a Int)) -> (List) a)", "f"),
        ("(def f ((a Int)) -> Int (requires (foo a)) a)", "f"),
        ("(def f ((a Int)) -> Int (+ a))", "f"),
        ("(def f ((a Int)) -> Int b)", "f"),
        ('(def f ((a Int)) "->" Int a)', "f"),
    ],
)
def test_parse_def_raises_only_corpus_error_naming_the_def_once(text, name):
    with pytest.raises(CorpusError) as err:
        parse_def(parse_one(text))
    message = str(err.value)
    assert message.startswith(f"def {name}: ")
    assert message.count("def ") == 1


def test_load_corpus_directory_sorted(tmp_path):
    (tmp_path / "b.sexp").write_text("(def g ((y Int)) -> Int (* y y))")
    (tmp_path / "a.sexp").write_text("(def f ((x Int)) -> Int (+ x 1))")
    (tmp_path / ".hidden").write_text("not a program")
    programs = load_corpus(tmp_path)
    assert [p.functions[0].name for p in programs] == ["f", "g"]
    assert load_corpus(tmp_path / "a.sexp") == (programs[0],)
    single = load_program(tmp_path / "a.sexp")
    assert single.functions[0].name == "f"
    with pytest.raises(CorpusError, match="no such corpus"):
        load_corpus(tmp_path / "missing")
    with pytest.raises(CorpusError, match="a.sexp"):
        (tmp_path / "a.sexp").write_text("(def broken)")
        load_program(tmp_path / "a.sexp")


# ---------------------------------------------------------------------------
# Depth-1 extraction

TIMES_PROG = parse_program("(def f ((x Int)) -> Int (* x 2))")


def test_depth1_times_corpus_listing():
    gf = extract_depth1([TIMES_PROG])
    assert gf.labels == ()
    lit, times, var = gf.productions
    assert (lit.name, lit.weight, lit.tags) == ("pIntLit2", 1.0, frozenset({"const"}))
    assert (lit.params, lit.body, lit.rtype) == ((), IntLit(2), Nonterminal(INT))
    assert (times.name, times.weight) == ("pIntTimes", 1.0)
    assert times.tags == frozenset({"times"})
    assert times.params == (("v0", Nonterminal(INT)), ("v1", Nonterminal(INT)))
    assert times.body == Times(Var("v0"), Var("v1"))
    assert (var.name, var.weight, var.tags) == ("pIntVariable", 1.0, frozenset({"top"}))
    assert (var.body, var.variable_of) == (None, INT)


def test_depth1_counts_two_functions():
    # (+ x x): plus, x, x; (+ y 1): plus, y, 1 -> plus 2, variables 3, one 1
    prog = parse_program(
        "(def g ((x Int)) -> Int (+ x x)) (def h ((y Int)) -> Int (+ y 1))"
    )
    gf = extract_depth1([prog])
    by_name = {p.name: p.weight for p in gf.productions}
    assert by_name == {"pIntLit1": 1.0, "pIntPlus": 2.0, "pIntVariable": 3.0}
    # the same counts whether the defs share a program or not
    split = [
        parse_program("(def g ((x Int)) -> Int (+ x x))"),
        parse_program("(def h ((y Int)) -> Int (+ y 1))"),
    ]
    assert extract_depth1(split) == gf


def test_depth1_zero_literal_tag():
    gf = extract_depth1([parse_program("(def f ((a Int)) -> Int (+ a 0))")])
    lit = next(p for p in gf.productions if p.name == "pIntLit0")
    assert lit.tags == frozenset({"const", "0"})


def test_depth1_bool_and_is_not_commutative():
    # And short-circuits errors, so it must not be tagged commut
    gf = extract_depth1([parse_program("(def f ((b Bool)) -> Bool (and b true))")])
    by_name = {p.name: p for p in gf.productions}
    assert by_name["pBoolAnd"].tags == frozenset({"and"})
    assert by_name["pBoolLitTrue"].tags == frozenset({"const"})
    assert by_name["pBoolVariable"].tags == frozenset({"top"})


def test_depth1_polymorphic_kinds_keep_instantiation():
    prog = parse_program(
        "(def f ((a Int) (b Bool)) -> Bool (and (= a 1) (= b true)))"
        "(def g ((a Int)) -> (List Int) (cons a (nil Int)))"
    )
    gf = extract_depth1([prog])
    by_name = {p.name: p for p in gf.productions}
    assert by_name["pBoolEqInt"].params == (("v0", Nonterminal(INT)), ("v1", Nonterminal(INT)))
    assert by_name["pBoolEqBool"].params == (("v0", Nonterminal(BOOL)), ("v1", Nonterminal(BOOL)))
    assert by_name["pBoolEqInt"].tags == frozenset({"eq"})
    cons = by_name["pListIntConsInt"]
    assert cons.params == (("v0", Nonterminal(INT)), ("v1", Nonterminal(LIST_INT)))
    assert by_name["pListIntNilInt"].body == parse_expr("(nil Int)")


def test_extraction_ignores_contracts():
    # only bodies are counted; the ensures clauses of ABS_TEXT use `and`,
    # which must not show up as a production
    gf = extract_depth1([parse_program(ABS_TEXT)])
    by_name = {p.name: p.weight for p in gf.productions}
    assert "pBoolAnd" not in by_name
    assert by_name["pIntLit0"] == 2.0
    assert by_name["pIntVariable"] == 4.0
    assert by_name["pIntIteInt"] == 1.0
    assert by_name["pBoolLeq"] == 1.0


def test_depth1_grammar_enumerates_in_cost_order():
    # one rule each for 2, x and *, each at probability 1/3: first 2 and x,
    # then the four products of them, as the oracle derives them to depth 2
    pcfg = normalize(desugar(extract_depth1([TIMES_PROG]), {"x": INT}))
    start = Nonterminal(INT)
    emitted = [
        (to_sexpr(pp.expr), pp.cost)
        for pp in itertools.islice(Enumerator(pcfg, start, ASTAR), 6)
    ]
    got = sorted(emitted)
    want = sorted((to_sexpr(e), cost) for e, cost in derivations(pcfg, start, 2))
    assert [s for s, _ in got] == [s for s, _ in want]
    assert [c for _, c in got] == pytest.approx([c for _, c in want])
    third = math.log(3)
    assert [c for _, c in emitted] == pytest.approx([third] * 2 + [3 * third] * 4)


def test_empty_corpus_gives_empty_file():
    gf = extract_depth1([])
    assert gf.labels == () and gf.productions == ()
    assert emit_grammar_file(gf).strip() == ""
    assert extract_depth1([parse_program("")]) == gf


# all 14 operator classes, a negative literal, both bool literals, and kinds
# at (List Int) and (List (List Int))
EVERY_OPERATOR_TEXT = """
(def f ((i Int) (b Bool) (l (List Int)) (ll (List (List Int)))) -> Int
  (if (and b (not (<= i -3)))
      (+ (- i 1) (* (size l) (head l)))
      (if (= (tail l) (cons 0 (nil Int))) 0 (size (head ll)))))

(def g ((ll (List (List Int))) (b Bool)) -> Bool
  (= (isEmpty ll) (if b (isEmpty (tail ll)) (and true (not (isEmpty ll))))))

(def h ((ll (List (List Int)))) -> (List (List Int))
  (if false (cons (nil Int) (nil (List Int))) (tail ll)))
"""

# sorted by result type, then variables, literals (by value) and operators
EVERY_OPERATOR_GRAMMAR = """\
production 1 [const] pBoolLitFalse () -> Bool false
production 1 [const] pBoolLitTrue () -> Bool true
production 2 [and] pBoolAnd (v0 Bool) (v1 Bool) -> Bool (and v0 v1)
production 1 [eq] pBoolEqBool (v0 Bool) (v1 Bool) -> Bool (= v0 v1)
production 1 [eq] pBoolEqListInt (v0 (List Int)) (v1 (List Int)) -> Bool (= v0 v1)
production 3 [isEmpty] pBoolIsEmptyListInt (v0 (List (List Int))) -> Bool (isEmpty v0)
production 1 [if] pBoolIteBool (v0 Bool) (v1 Bool) (v2 Bool) -> Bool (if v0 v1 v2)
production 1 [leq] pBoolLeq (v0 Int) (v1 Int) -> Bool (<= v0 v1)
production 2 [not] pBoolNot (v0 Bool) -> Bool (not v0)
production 2 [top] pBoolVariable () -> Bool (variable Bool)
production 1 [const] pIntLitm3 () -> Int -3
production 2 [0,const] pIntLit0 () -> Int 0
production 1 [const] pIntLit1 () -> Int 1
production 1 [head] pIntHeadInt (v0 (List Int)) -> Int (head v0)
production 2 [if] pIntIteInt (v0 Bool) (v1 Int) (v2 Int) -> Int (if v0 v1 v2)
production 1 [minus] pIntMinus (v0 Int) (v1 Int) -> Int (- v0 v1)
production 1 [plus] pIntPlus (v0 Int) (v1 Int) -> Int (+ v0 v1)
production 2 [size] pIntSizeInt (v0 (List Int)) -> Int (size v0)
production 1 [times] pIntTimes (v0 Int) (v1 Int) -> Int (* v0 v1)
production 2 [top] pIntVariable () -> Int (variable Int)
production 1 [cons] pListIntConsInt (v0 Int) (v1 (List Int)) -> (List Int) (cons v0 v1)
production 1 [head] pListIntHeadListInt (v0 (List (List Int))) -> (List Int) (head v0)
production 2 [nil] pListIntNilInt () -> (List Int) (nil Int)
production 1 [tail] pListIntTailInt (v0 (List Int)) -> (List Int) (tail v0)
production 3 [top] pListIntVariable () -> (List Int) (variable (List Int))
production 1 [cons] pListListIntConsListInt (v0 (List Int)) (v1 (List (List Int))) \
-> (List (List Int)) (cons v0 v1)
production 1 [if] pListListIntIteListListInt (v0 Bool) (v1 (List (List Int))) \
(v2 (List (List Int))) -> (List (List Int)) (if v0 v1 v2)
production 1 [nil] pListListIntNilListInt () -> (List (List Int)) (nil (List Int))
production 2 [tail] pListListIntTailListInt (v0 (List (List Int))) -> (List (List Int)) (tail v0)
production 5 [top] pListListIntVariable () -> (List (List Int)) (variable (List (List Int)))
"""


def test_extraction_covers_every_operator():
    gf = extract_depth1([parse_program(EVERY_OPERATOR_TEXT)])
    assert emit_grammar_file(gf) == EVERY_OPERATOR_GRAMMAR


# ---------------------------------------------------------------------------
# Invariants over random corpora

CORPUS_PARAMS = (("i", INT), ("j", INT), ("b", BOOL), ("l", LIST_INT))


def random_program(rng, n_funcs=4, depth=3):
    fns = []
    for k in range(n_funcs):
        want = rng.choice([INT, BOOL, LIST_INT])
        body = random_typed_expr(rng, depth, want)
        fns.append(FunctionDef(f"f{k}", CORPUS_PARAMS, want, body).validate())
    return CorpusProgram(tuple(fns))


def test_depth1_count_conservation():
    rng = random.Random(7)
    for _ in range(25):
        programs = [random_program(rng) for _ in range(3)]
        gf = extract_depth1(programs)
        got = weights_by(gf.productions, lambda p: type_str(p.rtype.base))
        assert got == oracle_type_counts(programs)


def test_extraction_is_deterministic():
    rng = random.Random(9)
    programs = [random_program(rng) for _ in range(4)]
    text = emit_grammar_file(extract_depth1(programs))
    assert emit_grammar_file(extract_depth1(list(reversed(programs)))) == text
    assert emit_grammar_file(extract_depth1(list(programs))) == text
    assert parse_grammar_file(text) == extract_depth1(programs)


def test_emitted_files_parse_back():
    prog = parse_program(
        "(def f ((x Int) (l (List Int))) -> Int (if (isEmpty l) x (head l)))"
        "(def g ((x Int)) -> (List Int) (cons x (nil Int)))"
    )
    gf = extract_depth1([prog])
    assert parse_grammar_file(emit_grammar_file(gf)) == gf


# ---------------------------------------------------------------------------
# Local bias


def test_local_bias_scales_weights():
    prog = parse_program("(def f ((a Int)) -> Int (+ a 1))")
    gf = extract_local_bias(prog)
    by_name = {p.name: p.weight for p in gf.productions}
    assert by_name == {"pIntLit1": 5.0, "pIntPlus": 5.0, "pIntVariable": 5.0}
    tags = {p.name: p.tags for p in gf.productions}
    assert tags["pIntPlus"] == frozenset({"plus"})
    custom = extract_local_bias(prog, multiplier=2.5)
    assert {p.weight for p in custom.productions} == {2.5}


def test_local_bias_rejects_bad_config():
    with pytest.raises(CorpusError, match="multiplier must be positive"):
        extract_local_bias(TIMES_PROG, multiplier=0)
    with pytest.raises(CorpusError, match="multiplier must be positive"):
        extract_local_bias(TIMES_PROG, multiplier=-2)
    with pytest.raises(CorpusError, match="multiplier must be positive"):
        extract_local_bias(TIMES_PROG, multiplier=float("nan"))
    with pytest.raises(CorpusError, match="multiplier must be positive"):
        extract_local_bias(TIMES_PROG, multiplier=math.inf)


def test_local_bias_rejects_an_overflowing_weight():
    # pIntVariable counts 2, so 1e308 overflows where 1e300 does not
    prog = parse_program("(def f ((a Int)) -> Int (+ a a))")
    with pytest.raises(CorpusError, match="weight of pIntVariable overflows"):
        extract_local_bias(prog, multiplier=1e308)
    gf = extract_local_bias(prog, multiplier=1e300)
    assert [p.weight for p in gf.productions] == [1e300, 2e300]
    assert parse_grammar_file(emit_grammar_file(gf)) == gf


def test_local_bias_merges_with_corpus_grammar():
    corpus_gf = extract_depth1([TIMES_PROG])
    local = extract_local_bias(parse_program("(def f ((a Int)) -> Int (* a 3))"))
    merged = merge_grammar_files([corpus_gf, local])
    by_name = {p.name: p.weight for p in merged.productions}
    # both files contain the times and variable kinds: weights sum
    assert by_name["pIntTimes"] == 6.0
    assert by_name["pIntVariable"] == 6.0
    assert by_name["pIntLit2"] == 1.0
    assert by_name["pIntLit3"] == 5.0
