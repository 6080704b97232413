"""Grammar file parsing, emission, desugaring, and merging."""

import math

import pytest

from pgsynth.grammar import GrammarError, normalize
from pgsynth.grammarfile import (
    DEFAULT_GRAMMAR_TEXT,
    GrammarFile,
    GrammarFileError,
    desugar,
    emit_grammar_file,
    merge_grammar_files,
    parse_grammar_file,
)
from pgsynth.lang import (
    BOOL,
    INT,
    Hole,
    IntV,
    ListType,
    Nonterminal,
    evaluate,
    type_of,
)
from pgsynth.sexpr import MAX_DEPTH

INT_NT = Nonterminal(INT)


def nested_sum(depth):
    """An Int expression over `a` whose S-expression nests `depth` lists deep."""
    return "(+ 1 " * depth + "a" + ")" * depth

FLAT_FILE = """\
# flat integer arithmetic
production 10 [plus,commut] add (a Int) (b Int) -> Int (+ a b)
production 5 [minus] sub (a Int) (b Int) -> Int (- a b)
production 5 [const,0] zero () -> Int 0
production 10 [const] one () -> Int 1
production 20 [top] vInt () -> Int (variable Int)
"""

LABELED_FILE = """\
label NZ Int
label BI Int

production 10 [] plus (a NZ) (b NZ) -> NZ (+ a b)
production 5 [] minus (a BI) (b NZ) -> NZ (- a b)
production 5 [] one () -> NZ 1
production 10 [] zero () -> BI 0
production 20 [] vInt () -> NZ (variable Int)
production 40 [] nz2bi (a NZ) -> BI a
production 1 [] start (b BI) -> Int b
"""

GENERIC_FILE = """\
production 5 [] single ['A] (a 'A) -> (List 'A) (cons a (nil 'A))
production 3 [] insert ['A] (a 'A) (l (List 'A)) -> (List 'A) (cons a l)
production 2 [] rest ['A] (l (List 'A)) -> (List 'A) (tail l)
production 4 [] count ['A] (l (List 'A)) -> Int (size l)
production 6 [top] vInt () -> Int (variable Int)
"""


def test_parse_flat_file():
    gf = parse_grammar_file(FLAT_FILE)
    assert gf.labels == ()
    assert [p.name for p in gf.productions] == ["add", "sub", "zero", "one", "vInt"]
    assert [p.weight for p in gf.productions] == [10, 5, 5, 10, 20]
    by_name = {p.name: p for p in gf.productions}
    assert by_name["add"].tags == frozenset({"plus", "commut"})
    assert by_name["vInt"].variable_of == INT
    assert by_name["vInt"].body is None
    assert by_name["zero"].params == ()
    assert by_name["add"].rtype == INT_NT


def test_flat_desugar_probability_table():
    gf = parse_grammar_file(FLAT_FILE)
    g = normalize(desugar(gf, {"x": INT, "y": INT}))
    expected = {
        "add": 0.2,
        "sub": 0.1,
        "zero": 0.1,
        "one": 0.2,
        "vInt$x": 0.2,
        "vInt$y": 0.2,
    }
    assert {r.id for r in g.rules_for(INT_NT)} == set(expected)
    for rid, p in expected.items():
        assert g.prob[rid] == pytest.approx(p, abs=1e-12)


def test_labeled_desugar_matches_attribute_grammar():
    gf = parse_grammar_file(LABELED_FILE)
    assert [ld.name for ld in gf.labels] == ["NZ", "BI"]
    assert len(gf.productions) == 7
    g = normalize(desugar(gf, {"x": INT}))

    nz = Nonterminal(INT, "NZ")
    bi = Nonterminal(INT, "BI")
    assert {r.id for r in g.rules_for(nz)} == {"plus", "minus", "one", "vInt$x"}
    assert g.prob["plus"] == pytest.approx(0.25)
    assert g.prob["minus"] == pytest.approx(0.125)
    assert g.prob["vInt$x"] == pytest.approx(0.5)
    assert g.prob["one"] == pytest.approx(0.125)
    assert g.prob["zero"] == pytest.approx(0.2)
    assert g.prob["nz2bi"] == pytest.approx(0.8)
    assert g.prob["start"] == pytest.approx(1.0)

    rules = {r.id: r for r in g.all_rules()}
    assert rules["minus"].child_nts == (bi, nz)
    assert rules["nz2bi"].template == Hole(nz)
    assert rules["start"].template == Hole(bi)
    assert g.start(INT) == INT_NT


def test_child_slots_follow_body_occurrence_order():
    gf = parse_grammar_file("production 1 [] f (a Int) (c Bool) -> Int (if c a 0)\n")
    (rule,) = desugar(gf, {})
    assert rule.child_nts == (Nonterminal(BOOL), INT_NT)


def test_empty_file():
    assert parse_grammar_file("") == GrammarFile((), ())
    assert parse_grammar_file("# nothing here\n\n") == GrammarFile((), ())
    assert desugar(GrammarFile((), ()), {}) == []


def test_variable_only_empty_scope():
    gf = parse_grammar_file("production 1 [] vB () -> Bool (variable Bool)\n")
    assert desugar(gf, {}) == []
    with pytest.raises(GrammarError):
        normalize(desugar(gf, {}))


@pytest.mark.parametrize(
    "text", [FLAT_FILE, LABELED_FILE, GENERIC_FILE, DEFAULT_GRAMMAR_TEXT]
)
def test_emit_parse_round_trip(text):
    gf = parse_grammar_file(text)
    assert parse_grammar_file(emit_grammar_file(gf)) == gf


def test_fractional_weights_round_trip():
    text = "production 2.5 [] half () -> Int 0\n"
    gf = parse_grammar_file(text)
    assert gf.productions[0].weight == 2.5
    assert "2.5" in emit_grammar_file(gf)
    assert parse_grammar_file(emit_grammar_file(gf)) == gf


PARSE_ERRORS = [
    ("production -1 [] p () -> Int 0", "non-positive weight"),
    ("production 0 [] p () -> Int 0", "non-positive weight"),
    ("production x [] p () -> Int 0", "weight"),
    ("production 1 [] p (a NZ) -> Int a", "neither a declared label nor a type"),
    ("production 1 [] p (a Int) -> Int 0", "exactly once"),
    ("production 1 [] p (a Int) -> Int (+ a a)", "exactly once"),
    ("production 1 [] p (a Int) -> Int (+ a b)", "unknown variable b"),
    ("production 1 [] p (a Int) Int (+ a 1)", "parameter or ->"),
    ("production 1 [] p () -> Int (+ 1)", "expects 2 arguments"),
    ("production 1 [] p", "truncated"),
    ("production 1 [] p () -> Int", "return type and body"),
    ("production 1 [] p () -> Int 0 extra", "return type and body"),
    ("production 1 [] v (a Int) -> Int (variable Int)", "no parameters"),
    ("production 1 [] v ['A] () -> 'A (variable 'A)", "cannot be generic"),
    ("production 1 [] p () -> Int (nil 'B)", "undeclared type parameter"),
    ("production 1 [] p (a 'B) -> Int (size a)", "undeclared type parameter"),
    ("label L (List 'A)", "non-ground"),
    ("label if Int", "invalid label name"),
    ("bogus 1 2", "expected `label` or `production`"),
    ("production 1 [] p ((a b) Int) -> Int 0", "invalid parameter name"),
    ("production 1 [] p () -> Int (? Int)", "holes are not allowed"),
    (f"production 1 [] p (a Int) -> Int {nested_sum(MAX_DEPTH + 1)}", "nest deeper"),
    ("production nan [] zero () -> Int 0", "non-finite weight"),
    ("production inf [] zero () -> Int 0", "non-finite weight"),
    ("production " + "9" * 400 + " [] zero () -> Int 0", "non-finite weight"),
    # a quoted string is not a keyword
    ('"label" L Int', "expected `label` or `production`"),
    ('"production" 1 [] one () -> Int 1', "expected `label` or `production`"),
    ('production 1 [] one "->" Int 1', "parameter or ->"),
    ('production 1 [] one () "->" Int 1', "whole parameter list"),
    ('production 1 [] v () -> Int ("variable" Int)', "malformed expression"),
]


@pytest.mark.parametrize("line, match", PARSE_ERRORS)
def test_parse_errors(line, match):
    with pytest.raises(GrammarFileError, match=match):
        parse_grammar_file(line + "\n")


@pytest.mark.parametrize("line, match", PARSE_ERRORS)
def test_parse_error_names_its_line_once(line, match):
    with pytest.raises(GrammarFileError, match=match) as err:
        parse_grammar_file("production 1 [] ok () -> Int 0\n" + line + "\n")
    message = str(err.value)
    assert message.startswith("line 2: ")
    assert "line " not in message[len("line 2: "):]


def test_parse_at_nesting_limit():
    gf = parse_grammar_file(
        f"production 1 [] z () -> Int 0\nproduction 1 [] p (a Int) -> Int {nested_sum(MAX_DEPTH)}\n"
    )
    assert evaluate(gf.productions[1].body, {"a": IntV(1)}) == IntV(MAX_DEPTH + 1)
    g = normalize(desugar(gf, {}))
    assert len(g.rules_for(INT_NT)) == 2


def test_errors_carry_line_numbers():
    text = "# comment\nproduction 1 [] ok () -> Int 0\nproduction -3 [] bad () -> Int 1\n"
    with pytest.raises(GrammarFileError, match="line 3"):
        parse_grammar_file(text)


def test_duplicate_production_name_rejected():
    text = "production 1 [] p () -> Int 0\nproduction 1 [] p () -> Int 1\n"
    with pytest.raises(GrammarFileError, match="duplicate production name"):
        parse_grammar_file(text)


def test_duplicate_label_same_base_deduplicated():
    gf = parse_grammar_file("label NZ Int\nlabel NZ Int\n")
    assert len(gf.labels) == 1
    with pytest.raises(GrammarFileError, match="different base"):
        parse_grammar_file("label NZ Int\nlabel NZ Bool\n")


def test_generic_desugar_instantiates_and_typechecks():
    gf = parse_grammar_file(GENERIC_FILE)
    rules = desugar(gf, {"x": INT})
    ids = {r.id for r in rules}
    assert {"single@Int", "insert@Int", "count@Int", "count@(List Int)", "vInt$x"} <= ids
    for r in rules:
        assert not r.is_generic
        assert type_of(r.template, {"x": INT}) == r.lhs.base
    g = normalize(rules)
    assert math.isfinite(g.horizon()[g.start(ListType(INT))])


def test_merge_sums_same_kind_weights():
    a = parse_grammar_file("production 3 [plus] add (a Int) (b Int) -> Int (+ a b)\n")
    b = parse_grammar_file("production 3 [commut] plus (u Int) (v Int) -> Int (+ u v)\n")
    merged = merge_grammar_files([a, b])
    assert len(merged.productions) == 1
    p = merged.productions[0]
    assert p.name == "add"
    assert p.weight == 6
    assert p.tags == frozenset({"plus", "commut"})


def test_merge_is_identity_with_empty():
    gf = parse_grammar_file(LABELED_FILE)
    empty = GrammarFile((), ())
    assert merge_grammar_files([gf, empty]) == gf
    assert merge_grammar_files([empty, gf]) == gf


def test_merge_rejects_label_conflicts():
    a = parse_grammar_file("label NZ Int\nproduction 1 [] one () -> NZ 1\n")
    b = parse_grammar_file("label NZ Bool\nproduction 1 [] t () -> NZ true\n")
    with pytest.raises(GrammarFileError, match="conflicting base types"):
        merge_grammar_files([a, b])


def test_merge_renames_distinct_rules_with_same_name():
    a = parse_grammar_file("production 1 [] p () -> Int 0\n")
    b = parse_grammar_file("production 1 [] p () -> Int 1\n")
    merged = merge_grammar_files([a, b])
    assert [p.name for p in merged.productions] == ["p", "p_2"]
    assert [p.weight for p in merged.productions] == [1, 1]


def test_default_grammar_builds():
    gf = parse_grammar_file(DEFAULT_GRAMMAR_TEXT)
    scope = {"x": INT, "b": BOOL, "l": ListType(INT)}
    g = normalize(desugar(gf, scope))
    for nt in (INT_NT, Nonterminal(BOOL), Nonterminal(ListType(INT))):
        group = g.rules_for(nt)
        assert group
        assert sum(g.prob[r.id] for r in group) == pytest.approx(1.0)
        assert math.isfinite(g.horizon()[nt])
    assert "ite@Int" in {r.id for r in g.rules_for(INT_NT)}
