"""Property test for the file parsers: on arbitrary text built from the
language's tokens, each parser raises only its own domain error, never
KeyError, AttributeError, RecursionError or another module's error."""

from hypothesis import given, settings
from hypothesis import strategies as st

from pgsynth.cegis import ProblemError, parse_problem
from pgsynth.corpus import CorpusError, parse_program
from pgsynth.grammarfile import GrammarFileError, parse_grammar_file
from pgsynth.repair import RepairError, parse_task
from pgsynth.sexpr import SexprError, parse_all

ATOMS = [
    # expressions
    "true", "false", "if", "nil", "?", "and", "not", "+", "-", "*", "<=", "=",
    "cons", "head", "tail", "isEmpty", "size",
    # types
    "Int", "Bool", "List", "'a", "'",
    # clause and declaration words of the file formats
    "problem", "inputs", "output", "pc", "spec", "examples", "grammar", "=>",
    "def", "->", "requires", "ensures", "result",
    "repair", "program", "function", "tests",
    "label", "production", "variable", "[]", "[plus,commut]", "['A]",
    # names, numbers and strings
    "a", "b", "l", "x", "f", "abs", "0", "1", "-3", "2.5", '"prog.sexp"', '"nope.sexp"', '""',
]
# tokens that unbalance a form, open a string or comment, or end a line
STRAYS = ["(", ")", '"', "#", "\n"]
# heads that steer the text into one format's clauses
HEADS = [
    "", "(problem (inputs (a Int)) (output x Int)", "(def f ((a Int)) -> Int",
    '(repair (program "prog.sexp") (function abs)', "(repair (function abs)",
    "production 1 [] p", "label NZ",
]

# clause words of the problem, corpus and task formats
CLAUSES = [
    "inputs", "output", "pc", "spec", "examples", "grammar", "requires", "ensures",
    "program", "function", "tests",
]


def _paren(words):
    return "(" + " ".join(words) + ")"


forms = st.recursive(
    st.sampled_from(ATOMS), lambda kids: st.lists(kids, max_size=4).map(_paren), max_leaves=16
)
clauses = st.builds(
    lambda word, args: _paren([word, *args]), st.sampled_from(CLAUSES), st.lists(forms, max_size=3)
)
texts = st.builds(
    lambda head, body: head + " " + " ".join(body) + (")" if head.startswith("(") else ""),
    st.sampled_from(HEADS),
    st.lists(st.one_of(clauses, clauses, forms, st.sampled_from(STRAYS)), max_size=5),
)

PROGRAM = """
(def abs ((a Int)) -> Int
  (ensures (<= 0 result))
  (if (<= 0 a) a (- 0 a)))
"""


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(text=texts)
def check_parsers(text, program_dir):
    for parse, error in [
        (parse_all, SexprError),
        (parse_problem, ProblemError),
        (parse_program, CorpusError),
        (parse_grammar_file, GrammarFileError),
        (lambda t: parse_task(t, program_dir), RepairError),
    ]:
        try:
            parse(text)
        except error:
            pass


def test_parsers_raise_only_their_own_error(tmp_path):
    (tmp_path / "prog.sexp").write_text(PROGRAM, encoding="utf-8")
    check_parsers(program_dir=tmp_path)
