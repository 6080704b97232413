"""Grammar extraction from corpora of mini-language programs.

A corpus file holds function definitions, optionally carrying contracts:

    (def inc ((a Int)) -> Int (+ a 1))
    (def safeHead ((l (List Int))) -> Int
      (requires (not (isEmpty l)))
      (ensures (= result (head l)))
      (head l))

One extractor turns occurrence counts of expression kinds into a weighted
grammar file. Each node of a body is read once, into its kind's sort key
and rule; the file holds one rule per kind, with no parent context, tagged
with the roles `grammar.apply_axioms` reads: literals `const` (and `0` for
the integer zero), variables `top`, operators their operator tag.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from . import sexpr
from .grammarfile import GrammarFile, RawProduction
from .lang import (
    A,
    BOOL,
    INT,
    OPERATORS,
    BoolLit,
    Expr,
    IntLit,
    LangError,
    ListType,
    Nil,
    Nonterminal,
    Type,
    Var,
    children,
    expr_from_sexpr,
    identifier,
    is_complete,
    iter_subexprs,
    subst_type,
    to_sexpr,
    type_from_sexpr,
    type_is_ground,
    type_of,
    type_str,
    type_vars,
    typed_name,
)
from .sexpr import SexprError, Symbol


class CorpusError(LangError):
    """Malformed corpus program or invalid extraction configuration."""


# name the function result may be referred to by in (ensures ...) clauses
RESULT_NAME = "result"


@dataclass(frozen=True)
class FunctionDef:
    name: str
    params: tuple[tuple[str, Type], ...]
    return_type: Type
    body: Expr
    requires: Expr | None = None
    ensures: Expr | None = None

    @property
    def scope(self) -> dict[str, Type]:
        return dict(self.params)

    def validate(self) -> "FunctionDef":
        names = [n for n, _ in self.params]
        if len(set(names)) != len(names):
            raise CorpusError(f"def {self.name}: duplicate parameter name")
        if RESULT_NAME in names:
            raise CorpusError(
                f"def {self.name}: parameter {RESULT_NAME} is reserved for postconditions"
            )
        for n, t in list(self.params) + [(self.name, self.return_type)]:
            if not type_is_ground(t):
                raise CorpusError(f"def {self.name}: {n} has non-ground type {type_str(t)}")
        self._check_expr("body", self.body, self.scope, self.return_type)
        if self.requires is not None:
            self._check_expr("requires", self.requires, self.scope, BOOL)
        if self.ensures is not None:
            scope = {**self.scope, RESULT_NAME: self.return_type}
            self._check_expr("ensures", self.ensures, scope, BOOL)
        return self

    def _check_expr(self, what: str, e: Expr, scope: dict[str, Type], want: Type) -> None:
        if not is_complete(e):
            raise CorpusError(f"def {self.name}: {what} contains a hole")
        for _, sub in iter_subexprs(e):
            if isinstance(sub, Nil) and type_vars(sub.elem):
                raise CorpusError(f"def {self.name}: {what} uses a type variable")
        try:
            t = type_of(e, scope)
        except LangError as err:
            raise CorpusError(f"def {self.name}: {what}: {err}") from err
        if t != want:
            raise CorpusError(
                f"def {self.name}: {what} has type {type_str(t)}, expected {type_str(want)}"
            )


@dataclass(frozen=True)
class CorpusProgram:
    functions: tuple[FunctionDef, ...]

    def find(self, name: str) -> FunctionDef | None:
        for fn in self.functions:
            if fn.name == name:
                return fn
        return None


# ---------------------------------------------------------------------------
# Parsing


_CONTRACT_HEADS = ("requires", "ensures")


def _is_contract_clause(form) -> bool:
    return (
        isinstance(form, list)
        and len(form) == 2
        and isinstance(form[0], Symbol)
        and str(form[0]) in _CONTRACT_HEADS
    )


def parse_def(form) -> FunctionDef:
    """Parse one `(def name ((p T) ...) -> T clauses... body)` form, where
    clauses are at most one (requires e) and one (ensures e). A malformed
    form raises CorpusError, which names the def."""
    if not (isinstance(form, list) and form and sexpr.is_symbol(form[0], "def")):
        raise CorpusError(f"expected a (def ...) form, got {sexpr.write(form)}")
    if len(form) < 6:
        raise CorpusError("truncated def: expected (def name ((p T) ...) -> T body)")
    try:
        name = identifier(form[1], "function name")
        if not isinstance(form[2], list):
            raise SexprError("expected a ((p T) ...) parameter list")
        params = tuple(typed_name(p, "parameter") for p in form[2])
        if not sexpr.is_symbol(form[3], "->"):
            raise SexprError("expected -> after the parameter list")
        rtype = type_from_sexpr(form[4])
        contracts: dict[str, Expr] = {}
        rest = form[5:]
        while len(rest) > 1 and _is_contract_clause(rest[0]):
            head = str(rest[0][0])
            if head in contracts:
                raise SexprError(f"duplicate ({head} ...) clause")
            contracts[head] = expr_from_sexpr(rest[0][1])
            rest = rest[1:]
        if len(rest) != 1:
            raise SexprError("expected contract clauses then exactly one body")
        if _is_contract_clause(rest[0]):
            raise SexprError("missing function body")
        body = expr_from_sexpr(rest[0])
    except (SexprError, LangError) as err:
        raise CorpusError(f"def {sexpr.write(form[1])}: {err}") from None
    return FunctionDef(
        name, params, rtype, body, contracts.get("requires"), contracts.get("ensures")
    ).validate()


def parse_program(text: str) -> CorpusProgram:
    try:
        forms = sexpr.parse_all(text)
    except SexprError as err:
        raise CorpusError(str(err)) from None
    fns: list[FunctionDef] = []
    for form in forms:
        fn = parse_def(form)
        if any(fn.name == f.name for f in fns):
            raise CorpusError(f"duplicate function {fn.name}")
        fns.append(fn)
    return CorpusProgram(tuple(fns))


def load_program(path) -> CorpusProgram:
    text = sexpr.read_file(path, CorpusError, "program")
    try:
        return parse_program(text)
    except CorpusError as err:
        raise CorpusError(f"{path}: {err}") from None


def load_corpus(path) -> tuple[CorpusProgram, ...]:
    """Load a corpus: a single program file, or every non-hidden regular file
    in a directory, in sorted filename order so extraction is deterministic."""
    p = Path(path)
    if p.is_dir():
        files = sorted(f for f in p.iterdir() if f.is_file() and not f.name.startswith("."))
        return tuple(load_program(f) for f in files)
    if p.is_file():
        return (load_program(p),)
    raise CorpusError(f"no such corpus: {path}")


# ---------------------------------------------------------------------------
# Emission


def emit_def(fn: FunctionDef) -> str:
    params = " ".join(f"({n} {type_str(t)})" for n, t in fn.params)
    lines = [f"(def {fn.name} ({params}) -> {type_str(fn.return_type)}"]
    if fn.requires is not None:
        lines.append(f"  (requires {to_sexpr(fn.requires)})")
    if fn.ensures is not None:
        lines.append(f"  (ensures {to_sexpr(fn.ensures)})")
    lines.append(f"  {to_sexpr(fn.body)})")
    return "\n".join(lines)


def emit_program(prog: CorpusProgram) -> str:
    return "\n\n".join(emit_def(fn) for fn in prog.functions) + "\n"


def replace_function(prog: CorpusProgram, fn: FunctionDef) -> CorpusProgram:
    if prog.find(fn.name) is None:
        raise CorpusError(f"no function {fn.name} to replace")
    return CorpusProgram(tuple(fn if f.name == fn.name else f for f in prog.functions))


# ---------------------------------------------------------------------------
# Extraction


def _tslug(t: Type) -> str:
    if isinstance(t, ListType):
        return "List" + _tslug(t.elem)
    return type_str(t)


def _kind(e: Expr, kid_types: list[Type], scope: dict[str, Type]) -> tuple[tuple, RawProduction]:
    """The sort key of e's kind, and its rule with weight 0. A kind records
    what must be kept per expression so that the kind plus child
    expressions reconstructs it: a variable keeps only its type, a literal
    its value, an operator its class and the binding of its signature's 'a.
    Keys order kinds by result type, then literals (by value), operators
    (by class) and variables; distinct kinds have distinct keys."""
    cls = e.__class__
    if cls is Var:
        t = scope[e.name]
        ts = _tslug(t)
        top = frozenset({"top"})
        rule = RawProduction(f"p{ts}Variable", 0.0, top, (), (), Nonterminal(t), None, t)
        return (ts, "variable", ()), rule
    if cls is IntLit or cls is BoolLit:
        t, v = (INT if cls is IntLit else BOOL), e.value
        ts = _tslug(t)
        tags = frozenset({"const", "0"} if cls is IntLit and v == 0 else {"const"})
        name = f"p{ts}Lit{str(v).replace('-', 'm')}"
        rule = RawProduction(name, 0.0, tags, (), (), Nonterminal(t), e)
        return (ts, "literal", (ts, int(v))), rule
    op = OPERATORS.get(cls)
    if op is None:
        raise CorpusError(f"cannot extract from {e!r}")
    sub = op.bind(e, kid_types)
    t = subst_type(op.result, sub)
    ts, inst = _tslug(t), _tslug(sub[A.name]) if A.name in sub else ""
    # the axiom vocabulary: the surface tag of a word operator (if, isEmpty,
    # ...), else the class name in lower case (plus, minus, times, leq, eq)
    tag = op.tag if op.tag.isalpha() else cls.__name__.lower()
    params = tuple((f"v{i}", Nonterminal(subst_type(p, sub))) for i, p in enumerate(op.params))
    body = e if cls is Nil else cls(*(Var(v) for v, _ in params))
    name = f"p{ts}{cls.__name__}{inst}"
    rule = RawProduction(name, 0.0, frozenset({tag}), (), params, Nonterminal(t), body)
    return (ts, "operator", (cls.__name__, inst)), rule


def _visit(e: Expr, scope: dict[str, Type], counts: Counter, rules: dict) -> Type:
    """Count the kinds of e's nodes into counts, keep each kind's rule in
    rules, and return e's type."""
    key, rule = _kind(e, [_visit(kid, scope, counts, rules) for kid in children(e)], scope)
    counts[key] += 1
    rules[key] = rule
    return rule.rtype.base


def extract_depth1(programs: Sequence[CorpusProgram]) -> GrammarFile:
    """One production per expression kind of the programs' bodies, weighted
    by its occurrence count and sorted by kind key. All variable occurrences
    of a type collapse into one variable[T] rule."""
    counts: Counter[tuple] = Counter()
    rules: dict[tuple, RawProduction] = {}
    for prog in programs:
        for fn in prog.functions:
            _visit(fn.body, fn.scope, counts, rules)
    prods = tuple(replace(rules[k], weight=float(counts[k])) for k in sorted(counts))
    return GrammarFile((), prods)


# ---------------------------------------------------------------------------
# Local bias


def extract_local_bias(program: CorpusProgram, multiplier: float = 5.0) -> GrammarFile:
    """The depth-1 grammar of the one program under repair, its weights
    scaled by `multiplier` so that, merged with a corpus grammar, local
    habits are favored without drowning out the general model."""
    if not 0 < multiplier < math.inf:
        raise CorpusError(f"local-bias multiplier must be positive and finite, got {multiplier}")
    prods = []
    for p in extract_depth1([program]).productions:
        weight = p.weight * multiplier
        if not math.isfinite(weight):
            raise CorpusError(
                f"local-bias weight of {p.name} overflows: {p.weight:g} * {multiplier:g}"
            )
        prods.append(replace(p, weight=weight))
    return GrammarFile((), tuple(prods))
