"""Textual grammar files: weighted, tagged, possibly generic productions.

One declaration per line, `#` comments, UTF-8:

    label NZ Int
    production 10 [plus] plus (a NZ) (b NZ) -> NZ (+ a b)
    production 20 [] vInt () -> NZ (variable Int)
    production 5 [] single ['A] (a 'A) -> (List 'A) (cons a (nil 'A))

A production line reads: weight, tag list, name, optional type-parameter
list, one `(name type)` list per parameter (a single `()` when there are
none), `->`, return type, body.  A type in parameter or return position is
either a declared label name (the nonterminal is then the label's base type
plus the label as attribute) or a plain type.  The body is an expression
over the parameter names, each used exactly once; the special body
`(variable T)` declares a placeholder production standing for any in-scope
variable of type T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import sexpr
from .grammar import (
    GrammarError,
    ProductionRule,
    discover_types,
    instantiate_generics,
    split_variable_rules,
)
from .lang import (
    RESERVED_WORDS,
    Expr,
    Hole,
    LangError,
    Nil,
    Nonterminal,
    Var,
    expr_from_sexpr,
    expr_to_sexpr,
    iter_subexprs,
    subst_var,
    type_from_sexpr,
    type_is_ground,
    type_str,
    type_to_sexpr,
    type_vars,
)
from .sexpr import SexprError, Symbol


class GrammarFileError(GrammarError):
    """Malformed grammar file or inconsistent declarations."""


@dataclass(frozen=True)
class LabelDecl:
    name: str
    base: "object"  # Type


@dataclass(frozen=True)
class RawProduction:
    name: str
    weight: float
    tags: frozenset[str]
    type_params: tuple[str, ...]
    params: tuple[tuple[str, Nonterminal], ...]
    rtype: Nonterminal
    body: Expr | None  # None iff variable_of is set
    variable_of: "object | None" = None  # Type | None


@dataclass(frozen=True)
class GrammarFile:
    labels: tuple[LabelDecl, ...]
    productions: tuple[RawProduction, ...]


_KEYWORDS = {"label", "production", "variable", "->"}
# words that would collide with expression or type syntax
_TAKEN = _KEYWORDS | {"Int", "Bool", "List"} | RESERVED_WORDS


def _check_ident(word, what: str) -> str:
    if not isinstance(word, Symbol) or word in _TAKEN or word.startswith("'"):
        raise GrammarFileError(f"invalid {what} {sexpr.write(word)}")
    return str(word)


def _parse_tag(t) -> str:
    # tags ("0", "const", "plus", ...) are kept through merge and emission,
    # but the search reads none; ints are fine
    if isinstance(t, (int, Symbol)):
        return str(t)
    raise GrammarFileError(f"invalid tag {sexpr.write(t)}")


def _bracketed(line: str) -> str:
    # tag and type-parameter lists use [a,b]; fold them into plain lists
    return line.replace("[", " ( ").replace("]", " ) ").replace(",", " ")


def parse_grammar_file(text: str) -> GrammarFile:
    """The grammar file the text spells. Every error is a GrammarFileError
    that starts with `line N: `, N the line the error was found on."""
    try:
        lines: list[tuple[int, list]] = []
        for lineno, raw in enumerate(text.splitlines(), 1):
            forms = sexpr.parse_all(_bracketed(raw))
            if forms:
                lines.append((lineno, forms))

        # labels first so productions may reference them regardless of order
        labels: dict[str, LabelDecl] = {}
        for lineno, forms in lines:
            if not sexpr.is_symbol(forms[0], "label"):
                continue
            if len(forms) != 3:
                raise GrammarFileError("expected `label <name> <type>`")
            name = _check_ident(forms[1], "label name")
            base = type_from_sexpr(forms[2])
            if not type_is_ground(base):
                raise GrammarFileError(f"label {name} has non-ground base type")
            prev = labels.get(name)
            if prev is not None and prev.base != base:
                raise GrammarFileError(f"label {name} redeclared with different base type")
            labels.setdefault(name, LabelDecl(name, base))

        prods: list[RawProduction] = []
        names: set[str] = set()
        for lineno, forms in lines:
            if sexpr.is_symbol(forms[0], "label"):
                continue
            if not sexpr.is_symbol(forms[0], "production"):
                raise GrammarFileError(
                    f"expected `label` or `production`, got {sexpr.write(forms[0])}"
                )
            p = _parse_production(forms, labels)
            if p.name in names:
                raise GrammarFileError(f"duplicate production name {p.name}")
            names.add(p.name)
            prods.append(p)
    except (SexprError, LangError, GrammarFileError) as err:
        raise GrammarFileError(f"line {lineno}: {err}") from None
    return GrammarFile(tuple(labels.values()), tuple(prods))


def _parse_weight(form) -> float:
    if not isinstance(form, (int, Symbol)):
        raise GrammarFileError("expected a weight")
    try:
        w = float(str(form))  # an int too large for a float reads as inf
    except ValueError:
        raise GrammarFileError(f"expected a weight, got {form}") from None
    if not math.isfinite(w):
        raise GrammarFileError(f"non-finite weight {form}")
    if w <= 0:
        raise GrammarFileError(f"non-positive weight {form}")
    return w


def _ann_type(form, labels: dict[str, LabelDecl]) -> Nonterminal:
    if isinstance(form, Symbol) and str(form) in labels:
        decl = labels[str(form)]
        return Nonterminal(decl.base, decl.name)
    try:
        return Nonterminal(type_from_sexpr(form))
    except LangError:
        raise GrammarFileError(
            f"{sexpr.write(form)} is neither a declared label nor a type"
        ) from None


def _is_type_param_list(form) -> bool:
    return (
        isinstance(form, list)
        and bool(form)
        and all(isinstance(f, Symbol) and f.startswith("'") and len(f) > 1 for f in form)
    )


def _parse_production(forms: list, labels: dict[str, LabelDecl]) -> RawProduction:
    if len(forms) < 7:
        raise GrammarFileError("truncated production")
    weight = _parse_weight(forms[1])
    if not isinstance(forms[2], list):
        raise GrammarFileError("expected a [tag,...] list")
    tags = frozenset(_parse_tag(t) for t in forms[2])
    name = _check_ident(forms[3], "production name")

    idx = 4
    type_params: tuple[str, ...] = ()
    if _is_type_param_list(forms[idx]):
        type_params = tuple(str(f)[1:] for f in forms[idx])
        if len(set(type_params)) != len(type_params):
            raise GrammarFileError("repeated type parameter")
        idx += 1

    params: list[tuple[str, Nonterminal]] = []
    while idx < len(forms) and not sexpr.is_symbol(forms[idx], "->"):
        f = forms[idx]
        if not isinstance(f, list):
            raise GrammarFileError("expected (name type) parameter or ->")
        if f == [] and not params:
            idx += 1
            if idx < len(forms) and not sexpr.is_symbol(forms[idx], "->"):
                raise GrammarFileError("`()` must be the whole parameter list")
            continue
        if len(f) != 2:
            raise GrammarFileError("parameter must be (name type)")
        pname = _check_ident(f[0], "parameter name")
        if any(pname == q for q, _ in params):
            raise GrammarFileError(f"duplicate parameter {pname}")
        params.append((pname, _ann_type(f[1], labels)))
        idx += 1
    if idx >= len(forms):
        raise GrammarFileError("missing -> in production")
    idx += 1  # skip ->
    if len(forms) - idx != 2:
        raise GrammarFileError("expected return type and body after ->")
    rtype = _ann_type(forms[idx], labels)
    body_form = forms[idx + 1]

    variable_of = None
    body: Expr | None = None
    if isinstance(body_form, list) and body_form and sexpr.is_symbol(body_form[0], "variable"):
        if len(body_form) != 2:
            raise GrammarFileError("variable takes exactly one type")
        variable_of = type_from_sexpr(body_form[1])
        if params:
            raise GrammarFileError("a variable production takes no parameters")
        if type_params or not type_is_ground(variable_of):
            raise GrammarFileError("a variable production cannot be generic")
    else:
        body = expr_from_sexpr(body_form)
        _check_body(body, params, type_params)
    _check_ann_vars((rtype, *(nt for _, nt in params)), type_params)
    return RawProduction(
        name, weight, tags, type_params, tuple(params), rtype, body, variable_of
    )


def _check_body(body: Expr, params, type_params) -> None:
    counts = {pname: 0 for pname, _ in params}
    for _, e in iter_subexprs(body):
        if isinstance(e, Var):
            if e.name not in counts:
                raise GrammarFileError(f"unknown variable {e.name} in body")
            counts[e.name] += 1
        elif isinstance(e, Nil):
            if not type_vars(e.elem) <= set(type_params):
                raise GrammarFileError("undeclared type parameter in body")
        elif isinstance(e, Hole):
            raise GrammarFileError("holes are not allowed in production bodies")
    for pname, n in counts.items():
        if n != 1:
            raise GrammarFileError(f"parameter {pname} must appear exactly once, found {n}")


def _check_ann_vars(nts, type_params) -> None:
    for nt in nts:
        if not type_vars(nt.base) <= set(type_params):
            raise GrammarFileError("undeclared type parameter in signature")


# ---------------------------------------------------------------------------
# Emission


def _fmt_weight(w: float) -> str:
    return str(int(w)) if float(w).is_integer() else repr(w)


def _fmt_ann(nt: Nonterminal) -> str:
    if nt.attr is not None:
        return nt.attr
    return sexpr.write(type_to_sexpr(nt.base))


def emit_production(p: RawProduction) -> str:
    parts = ["production", _fmt_weight(p.weight), "[" + ",".join(sorted(p.tags)) + "]", p.name]
    if p.type_params:
        parts.append("[" + ",".join("'" + tp for tp in p.type_params) + "]")
    if p.params:
        parts.extend(f"({n} {_fmt_ann(nt)})" for n, nt in p.params)
    else:
        parts.append("()")
    parts.extend(["->", _fmt_ann(p.rtype)])
    if p.variable_of is not None:
        parts.append(f"(variable {type_str(p.variable_of)})")
    else:
        parts.append(sexpr.write(expr_to_sexpr(p.body)))
    return " ".join(parts)


def emit_grammar_file(gf: GrammarFile) -> str:
    lines = [f"label {ld.name} {type_str(ld.base)}" for ld in gf.labels]
    lines.extend(emit_production(p) for p in gf.productions)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Desugaring to grammar rules


def desugar(gf: GrammarFile, scope: dict, seed_types=()) -> list[ProductionRule]:
    """Lower a grammar file to ground rules ready for grammar.normalize:
    labels become attributed nonterminals, parameter occurrences become
    holes, generics are instantiated against the types reachable from the
    scope, and variable placeholders are split per in-scope variable."""
    rules: list[ProductionRule] = []
    for p in gf.productions:
        if p.variable_of is not None:
            template: Expr = Var(f"__{p.name}")
        else:
            template = p.body
            for pname, nt in p.params:
                template = subst_var(template, pname, Hole(nt))
        rules.append(
            ProductionRule(
                id=p.name,
                lhs=p.rtype,
                template=template,
                weight=p.weight,
                type_params=p.type_params,
                variable_of=p.variable_of,
            )
        )
    seeds = set(scope.values()) | set(seed_types)
    if any(r.is_generic for r in rules):
        types = discover_types(rules, seeds)
        rules = instantiate_generics(rules, types)
    return split_variable_rules(rules, scope)


# ---------------------------------------------------------------------------
# Merging


def _template_key(p: RawProduction) -> tuple:
    if p.variable_of is not None:
        return ("variable", type_str(p.variable_of))
    body = p.body
    for pname, nt in p.params:
        body = subst_var(body, pname, Hole(nt))
    return ("body", sexpr.write(expr_to_sexpr(body)))


def _kind_key(p: RawProduction) -> tuple:
    return (p.rtype, p.type_params, _template_key(p))


def merge_grammar_files(files) -> GrammarFile:
    """Concatenate grammar files: labels deduplicated by name (conflicting
    base types rejected), productions of the same kind (same return
    nonterminal and template) merged by summing weights."""
    labels: dict[str, LabelDecl] = {}
    for gf in files:
        for ld in gf.labels:
            prev = labels.get(ld.name)
            if prev is None:
                labels[ld.name] = ld
            elif prev.base != ld.base:
                raise GrammarFileError(
                    f"label {ld.name} declared with conflicting base types "
                    f"{type_str(prev.base)} and {type_str(ld.base)}"
                )
    merged: dict[tuple, RawProduction] = {}
    order: list[tuple] = []
    used: set[str] = set()
    for gf in files:
        for p in gf.productions:
            k = _kind_key(p)
            if k in merged:
                q = merged[k]
                merged[k] = replace(q, weight=q.weight + p.weight, tags=q.tags | p.tags)
                continue
            name, i = p.name, 1
            while name in used:
                i += 1
                name = f"{p.name}_{i}"
            used.add(name)
            merged[k] = p if name == p.name else replace(p, name=name)
            order.append(k)
    return GrammarFile(tuple(labels.values()), tuple(merged[k] for k in order))


# ---------------------------------------------------------------------------
# Fallback grammar

# Used when a synthesis problem names no grammar file. The weights are
# heuristic configuration: variables and cheap constants dominate, branching
# and list operations are available but cost more.
DEFAULT_GRAMMAR_TEXT = """\
# integers
production 20 [top]          vInt  ()                  -> Int  (variable Int)
production 10 [const,0]      zero  ()                  -> Int  0
production 8  [const]        one   ()                  -> Int  1
production 10 [plus]         add   (a Int) (b Int)     -> Int  (+ a b)
production 6  [minus]        sub   (a Int) (b Int)     -> Int  (- a b)
production 4  [times]        mul   (a Int) (b Int)     -> Int  (* a b)

# booleans
production 8  [top]          vBool ()                  -> Bool (variable Bool)
production 6  [leq]          leq   (a Int) (b Int)     -> Bool (<= a b)
production 6  [eq]           eq    (a Int) (b Int)     -> Bool (= a b)
production 3  [and]          conj  (a Bool) (b Bool)   -> Bool (and a b)
production 2  [not]          neg   (a Bool)            -> Bool (not a)

# branching, any type
production 6  [if]           ite   ['A] (c Bool) (t 'A) (e 'A) -> 'A (if c t e)

# lists
production 6  [top]          vList ()                  -> (List Int) (variable (List Int))
production 2  []             empt  ['A] ()             -> (List 'A) (nil 'A)
production 3  [cons]         grow  ['A] (a 'A) (l (List 'A)) -> (List 'A) (cons a l)
production 4  [head]         first ['A] (l (List 'A))  -> 'A (head l)
production 3  [tail]         rest  ['A] (l (List 'A))  -> (List 'A) (tail l)
production 4  [size]         count ['A] (l (List 'A))  -> Int (size l)
production 2  [isEmpty]      noneq ['A] (l (List 'A))  -> Bool (isEmpty l)
"""
