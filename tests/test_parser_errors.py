"""Property test for the file parsers: on arbitrary text built from the
language's tokens, each parser raises only its own domain error, never
KeyError, AttributeError, RecursionError or another module's error. The
file loaders keep to the same rule on files they cannot read."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgsynth.cegis import ProblemError, load_problem, parse_problem
from pgsynth.corpus import CorpusError, load_corpus, load_program, parse_program
from pgsynth.grammarfile import GrammarFileError, parse_grammar_file
from pgsynth.repair import RepairError, load_task, parse_task
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


def _task_naming(path):
    # a well-formed task whose program file is the one under test
    return parse_task(f'(repair (program "{path.name}") (function abs))', path.parent)


@pytest.mark.parametrize(
    "load, error",
    [
        (load_problem, ProblemError),
        (load_task, RepairError),
        (load_program, CorpusError),
        (load_corpus, CorpusError),
        (_task_naming, RepairError),
    ],
    ids=["load_problem", "load_task", "load_program", "load_corpus", "parse_task"],
)
@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
def test_loaders_raise_only_their_own_error(tmp_path, load, error, kind):
    # the directory holds a non-UTF-8 file, so that load_corpus, which
    # reads every file in a directory, has one it cannot read
    (tmp_path / "dir").mkdir()
    (tmp_path / "dir" / "bad.sexp").write_bytes(b"\xff\xfe")
    (tmp_path / "bad.sexp").write_bytes(b"\xff\xfe")
    path = {"missing": tmp_path / "nope.sexp", "directory": tmp_path / "dir",
            "not_utf8": tmp_path / "bad.sexp"}[kind]
    with pytest.raises(error):
        load(path)
