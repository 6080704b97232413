"""The object language: a small pure expression language over ints, bools,
and lists, with typed holes.

Evaluation is strict except for `and` (left short-circuit) and `if` (only the
taken branch runs). The only runtime error is head/tail of an empty list; it
is reified as the value ErrV and propagates through strict operators.

Evaluation compiles once and runs many times: `compile_expr` turns an
expression into a closure from environments to values, built from the
operator table `partial_eval` also uses, and a scan over many points
(verification, test generation, indistinguishability signatures) runs one
closure on every point. `evaluate(e, env)` is compile-and-run. Expressions
and values are immutable slotted nodes that cache their hash.

`partial_eval` interprets expressions that still contain holes; search
evaluates each candidate on a few points only, too few to repay compiling.
A definite non-error Value means every type-correct completion of the holes
evaluates to that value. A definite ErrV means every completion errs,
possibly for another reason: a completion of a hole to the left of the error
may err first. Otherwise it returns the UNKNOWN marker.
"""

from __future__ import annotations

import operator
from dataclasses import FrozenInstanceError, dataclass
from typing import Callable

from . import sexpr
from .sexpr import Symbol


class LangError(Exception):
    pass


class TypeCheckError(LangError):
    def __init__(self, message: str, offender: "Expr | None" = None):
        super().__init__(message)
        self.offender = offender


class EvalError(LangError):
    pass


# ---------------------------------------------------------------------------
# Types


class Type:
    __slots__ = ()


@dataclass(frozen=True)
class IntType(Type):
    __slots__ = ()


@dataclass(frozen=True)
class BoolType(Type):
    __slots__ = ()


@dataclass(frozen=True)
class ListType(Type):
    elem: Type


@dataclass(frozen=True)
class TypeVar(Type):
    name: str


INT = IntType()
BOOL = BoolType()


def type_to_sexpr(t: Type):
    match t:
        case IntType():
            return Symbol("Int")
        case BoolType():
            return Symbol("Bool")
        case ListType(elem):
            return [Symbol("List"), type_to_sexpr(elem)]
        case TypeVar(name):
            return Symbol("'" + name)
    raise TypeCheckError(f"unprintable type {t!r}")


def type_from_sexpr(form) -> Type:
    if isinstance(form, Symbol):
        if form == "Int":
            return INT
        if form == "Bool":
            return BOOL
        if form.startswith("'") and len(form) > 1:
            return TypeVar(form[1:])
        raise TypeCheckError(f"unknown type {form}")
    if isinstance(form, list) and len(form) == 2 and form[0] == Symbol("List"):
        return ListType(type_from_sexpr(form[1]))
    raise TypeCheckError(f"malformed type {sexpr.write(form)}")


def parse_type(text: str) -> Type:
    return type_from_sexpr(sexpr.parse_one(text))


def type_str(t: Type) -> str:
    return sexpr.write(type_to_sexpr(t))


def type_size(t: Type) -> int:
    return 1 + type_size(t.elem) if isinstance(t, ListType) else 1


def type_is_ground(t: Type) -> bool:
    match t:
        case TypeVar(_):
            return False
        case ListType(elem):
            return type_is_ground(elem)
    return True


def type_vars(t: Type) -> set[str]:
    match t:
        case TypeVar(name):
            return {name}
        case ListType(elem):
            return type_vars(elem)
    return set()


def subst_type(t: Type, sub: dict[str, Type]) -> Type:
    match t:
        case TypeVar(name):
            return sub.get(name, t)
        case ListType(elem):
            return ListType(subst_type(elem, sub))
    return t


def match_type(pattern: Type, ground: Type, sub: dict[str, Type]) -> bool:
    """One-way unification: bind pattern's type variables to make it `ground`."""
    match pattern:
        case TypeVar(name):
            if name in sub:
                return sub[name] == ground
            sub[name] = ground
            return True
        case ListType(elem):
            return isinstance(ground, ListType) and match_type(elem, ground.elem, sub)
    return pattern == ground


@dataclass(frozen=True)
class Nonterminal:
    """A grammar nonterminal: a base type plus an optional attribute label."""

    base: Type
    attr: str | None = None

    def __str__(self) -> str:
        if self.attr is None:
            return type_str(self.base)
        return f"{type_str(self.base)}{{{self.attr}}}"


# ---------------------------------------------------------------------------
# Immutable nodes
#
# Expressions and values are built, hashed and compared millions of times a
# run, so they are slotted classes instead of frozen dataclasses, made by
# _node with a dataclass's constructor, __match_args__, repr and field
# equality. The hash is the dataclass's (that of the field tuple), computed
# on first use and cached in a slot.


class _Node:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return self.__class__, tuple(getattr(self, f) for f in self.__match_args__)


# fields are set through their slot descriptors, which bypass __setattr__
_NODE_METHODS = """
def __init__(self, {args}):
{sets}    set__hash(self, None)
def __eq__(self, o):
    if self is o:
        return True
    if o.__class__ is not self.__class__:
        return NotImplemented
    return {eq}
def __hash__(self):
    h = self._hash
    if h is None:
        h = hash(({tup},))
        set__hash(self, h)
    return h
"""


def _node(name: str, base: type, *fields: str) -> type:
    cls = type(name, (base,), {
        "__slots__": (*fields, "_hash"), "__match_args__": fields, "__module__": __name__,
    })
    ns = {f"set_{f}": getattr(cls, f).__set__ for f in (*fields, "_hash")}
    exec(_NODE_METHODS.format(
        args=", ".join(fields),
        sets="".join(f"    set_{f}(self, {f})\n" for f in fields),
        eq=" and ".join(f"self.{f} == o.{f}" for f in fields),
        tup=", ".join(f"self.{f}" for f in fields),
    ), ns)
    for method in ("__init__", "__eq__", "__hash__"):
        setattr(cls, method, ns[method])
    return cls


# ---------------------------------------------------------------------------
# Expressions


class Expr(_Node):
    __slots__ = ()


# leaves: an int, a bool, a name, the element Type of an empty list, and the
# Nonterminal a hole stands for
IntLit = _node("IntLit", Expr, "value")
BoolLit = _node("BoolLit", Expr, "value")
Var = _node("Var", Expr, "name")
Nil = _node("Nil", Expr, "elem")
Hole = _node("Hole", Expr, "nt")
# operators: every field is an operand Expr
Plus = _node("Plus", Expr, "left", "right")
Minus = _node("Minus", Expr, "left", "right")
Times = _node("Times", Expr, "left", "right")
Leq = _node("Leq", Expr, "left", "right")
Eq = _node("Eq", Expr, "left", "right")
And = _node("And", Expr, "left", "right")
Not = _node("Not", Expr, "arg")
Ite = _node("Ite", Expr, "cond", "then", "other")
Cons = _node("Cons", Expr, "head", "tail")
Head = _node("Head", Expr, "arg")
Tail = _node("Tail", Expr, "arg")
IsEmpty = _node("IsEmpty", Expr, "arg")
Size = _node("Size", Expr, "arg")


# ast tag per operator class, used for S-expressions and corpus kind keys
_BINOPS = {Plus: "+", Minus: "-", Times: "*", Leq: "<=", Eq: "=", And: "and", Cons: "cons"}
_UNOPS = {Not: "not", Head: "head", Tail: "tail", IsEmpty: "isEmpty", Size: "size"}
_BINOP_BY_TAG = {tag: cls for cls, tag in _BINOPS.items()}
_UNOP_BY_TAG = {tag: cls for cls, tag in _UNOPS.items()}


def ast_tag(e: Expr) -> str:
    cls = type(e)
    if cls in _BINOPS:
        return _BINOPS[cls]
    if cls in _UNOPS:
        return _UNOPS[cls]
    return {IntLit: "int", BoolLit: "bool", Var: "var", Ite: "if", Nil: "nil", Hole: "?"}[cls]


# children is on every hot path (search, evaluation, rewriting), so it
# dispatches on the node class instead of pattern matching
_CHILD_GETTERS: dict[type, Callable[[Expr], tuple[Expr, ...]]] = {
    **{cls: operator.attrgetter(*cls.__match_args__) for cls in (*_BINOPS, Ite)},
    **{cls: (lambda e: (e.arg,)) for cls in _UNOPS},
}


def children(e: Expr) -> tuple[Expr, ...]:
    f = _CHILD_GETTERS.get(e.__class__)
    return f(e) if f is not None else ()


def rebuild(e: Expr, kids: tuple[Expr, ...]) -> Expr:
    """e with its operands replaced by kids; a leaf has none."""
    return e.__class__(*kids) if kids else e


def expr_size(e: Expr) -> int:
    return 1 + sum(expr_size(c) for c in children(e))


def iter_subexprs(e: Expr, path: tuple[int, ...] = ()):
    """Yield (path, subexpression) pairs in depth-first preorder."""
    yield path, e
    for i, c in enumerate(children(e)):
        yield from iter_subexprs(c, path + (i,))


def get_at(e: Expr, path: tuple[int, ...]) -> Expr:
    for i in path:
        e = children(e)[i]
    return e


def replace_at(e: Expr, path: tuple[int, ...], new: Expr) -> Expr:
    if not path:
        return new
    kids = list(children(e))
    kids[path[0]] = replace_at(kids[path[0]], path[1:], new)
    return rebuild(e, tuple(kids))


def subst_var(e: Expr, name: str, replacement: Expr) -> Expr:
    if isinstance(e, Var) and e.name == name:
        return replacement
    kids = children(e)
    if not kids:
        return e
    return rebuild(e, tuple(subst_var(c, name, replacement) for c in kids))


def holes(e: Expr) -> list[Nonterminal]:
    """Hole nonterminals in leftmost (preorder) order."""
    out: list[Nonterminal] = []
    _collect_holes(e, out)
    return out


def hole_paths(e: Expr) -> tuple[tuple[int, ...], ...]:
    """Path (child-index sequence) of each hole, leftmost-first."""
    return tuple(p for p, s in iter_subexprs(e) if isinstance(s, Hole))


def _collect_holes(e: Expr, out: list[Nonterminal]) -> None:
    if isinstance(e, Hole):
        out.append(e.nt)
        return
    for c in children(e):
        _collect_holes(c, out)


def is_complete(e: Expr) -> bool:
    if isinstance(e, Hole):
        return False
    return all(is_complete(c) for c in children(e))


def replace_leftmost_hole(e: Expr, replacement: Expr) -> Expr:
    done, out = _replace_leftmost(e, replacement)
    if not done:
        raise ValueError("expression has no hole")
    return out


def _replace_leftmost(e: Expr, replacement: Expr) -> tuple[bool, Expr]:
    if isinstance(e, Hole):
        return True, replacement
    kids = children(e)
    for i, c in enumerate(kids):
        done, new_c = _replace_leftmost(c, replacement)
        if done:
            new_kids = kids[:i] + (new_c,) + kids[i + 1 :]
            return True, rebuild(e, new_kids)
    return False, e


# ---------------------------------------------------------------------------
# S-expression syntax for expressions


def expr_to_sexpr(e: Expr):
    match e:
        case IntLit(v):
            return v
        case BoolLit(v):
            return Symbol("true" if v else "false")
        case Var(name):
            return Symbol(name)
        case Nil(t):
            return [Symbol("nil"), type_to_sexpr(t)]
        case Ite(c, t, o):
            return [Symbol("if"), expr_to_sexpr(c), expr_to_sexpr(t), expr_to_sexpr(o)]
        case Hole(nt):
            out = [Symbol("?"), type_to_sexpr(nt.base)]
            if nt.attr is not None:
                out.append(Symbol(nt.attr))
            return out
    tag = ast_tag(e)
    return [Symbol(tag)] + [expr_to_sexpr(c) for c in children(e)]


def to_sexpr(e: Expr) -> str:
    return sexpr.write(expr_to_sexpr(e))


_HOLE_PRINT: dict[Nonterminal, str] = {}


def hole_print(nt: Nonterminal) -> str:
    s = _HOLE_PRINT.get(nt)
    if s is None:
        s = _HOLE_PRINT.setdefault(nt, to_sexpr(Hole(nt)))
    return s


def hole_offsets(text: str, nts: tuple[Nonterminal, ...]) -> tuple[int, ...]:
    """Offset of each hole's printed form in `text` (the print of an
    expression whose holes are `nts`, leftmost-first). Valid because printing
    visits subexpressions in the same preorder as the hole list."""
    out = []
    i = 0
    for nt in nts:
        s = hole_print(nt)
        i = text.index(s, i)
        out.append(i)
        i += len(s)
    return tuple(out)


_RESERVED = {"true", "false", "if", "nil", "?", "and", "not"} | set(_BINOP_BY_TAG) | set(_UNOP_BY_TAG)


def expr_from_sexpr(form) -> Expr:
    if isinstance(form, int):
        return IntLit(form)
    if isinstance(form, Symbol):
        if form == "true":
            return BoolLit(True)
        if form == "false":
            return BoolLit(False)
        if form in _RESERVED or form.startswith("'"):
            raise sexpr.SexprError(f"reserved word used as variable: {form}")
        return Var(str(form))
    if not isinstance(form, list) or not form or not isinstance(form[0], Symbol):
        raise sexpr.SexprError(f"malformed expression {sexpr.write(form)}")
    head, *args = form
    if head == "if":
        _arity(form, 3)
        return Ite(*(expr_from_sexpr(a) for a in args))
    if head == "nil":
        _arity(form, 1)
        return Nil(type_from_sexpr(args[0]))
    if head == "?":
        if len(args) == 1:
            return Hole(Nonterminal(type_from_sexpr(args[0])))
        _arity(form, 2)
        return Hole(Nonterminal(type_from_sexpr(args[0]), str(args[1])))
    if str(head) in _BINOP_BY_TAG:
        _arity(form, 2)
        return _BINOP_BY_TAG[str(head)](expr_from_sexpr(args[0]), expr_from_sexpr(args[1]))
    if str(head) in _UNOP_BY_TAG:
        _arity(form, 1)
        return _UNOP_BY_TAG[str(head)](expr_from_sexpr(args[0]))
    raise sexpr.SexprError(f"unknown operator {head}")


def _arity(form: list, n: int) -> None:
    if len(form) != n + 1:
        raise sexpr.SexprError(f"{form[0]} expects {n} arguments: {sexpr.write(form)}")


def parse_expr(text: str) -> Expr:
    return expr_from_sexpr(sexpr.parse_one(text))


# ---------------------------------------------------------------------------
# Values


class Value(_Node):
    __slots__ = ()


IntV = _node("IntV", Value, "value")
BoolV = _node("BoolV", Value, "value")
ListV = _node("ListV", Value, "items")  # a tuple of Values
ErrV = _node("ErrV", Value, "reason")

TRUE_V = BoolV(True)
FALSE_V = BoolV(False)


class _Unknown:
    """Result of partially evaluating an expression whose value depends on holes."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "UNKNOWN"


UNKNOWN = _Unknown()


def value_to_expr(v: Value, t: Type) -> Expr:
    """A literal expression evaluating to v. Errors have no literal form."""
    match v:
        case IntV(n):
            return IntLit(n)
        case BoolV(b):
            return BoolLit(b)
        case ListV(items):
            assert isinstance(t, ListType)
            out: Expr = Nil(t.elem)
            for item in reversed(items):
                out = Cons(value_to_expr(item, t.elem), out)
            return out
    raise EvalError(f"no literal form for {v!r}")


def value_str(v: Value) -> str:
    match v:
        case IntV(n):
            return str(n)
        case BoolV(b):
            return "true" if b else "false"
        case ListV(items):
            return "[" + " ".join(value_str(i) for i in items) + "]"
        case ErrV(reason):
            return f"error:{reason}"
    raise EvalError(f"unprintable value {v!r}")


def type_of_value(v: Value, elem_hint: Type = INT) -> Type:
    match v:
        case IntV(_):
            return INT
        case BoolV(_):
            return BOOL
        case ListV(items):
            return ListType(type_of_value(items[0]) if items else elem_hint)
    raise EvalError(f"error value has no type: {v!r}")


def magnitude(v: Value) -> int:
    """Size measure used to order verification points (small inputs first)."""
    match v:
        case IntV(n):
            return abs(n)
        case BoolV(b):
            return int(b)
        case ListV(items):
            return len(items) + sum(magnitude(i) for i in items)
    raise EvalError(f"no magnitude for {v!r}")


def order_key(v: Value):
    """Deterministic tie-break key among values of one type."""
    match v:
        case IntV(n):
            return n
        case BoolV(b):
            return b
        case ListV(items):
            return tuple(order_key(i) for i in items)
    raise EvalError(f"no order key for {v!r}")


# ---------------------------------------------------------------------------
# Type checking

Scope = dict[str, Type]


def type_of(e: Expr, scope: Scope) -> Type:
    match e:
        case IntLit(_):
            return INT
        case BoolLit(_):
            return BOOL
        case Var(name):
            if name not in scope:
                raise TypeCheckError(f"unbound variable {name}", e)
            return scope[name]
        case Plus(a, b) | Minus(a, b) | Times(a, b):
            _expect(a, INT, scope)
            _expect(b, INT, scope)
            return INT
        case Leq(a, b):
            _expect(a, INT, scope)
            _expect(b, INT, scope)
            return BOOL
        case Eq(a, b):
            ta, tb = type_of(a, scope), type_of(b, scope)
            if ta != tb:
                raise TypeCheckError(f"= applied to {type_str(ta)} and {type_str(tb)}", e)
            return BOOL
        case And(a, b):
            _expect(a, BOOL, scope)
            _expect(b, BOOL, scope)
            return BOOL
        case Not(a):
            _expect(a, BOOL, scope)
            return BOOL
        case Ite(c, t, o):
            _expect(c, BOOL, scope)
            tt, to = type_of(t, scope), type_of(o, scope)
            if tt != to:
                raise TypeCheckError(f"if branches differ: {type_str(tt)} vs {type_str(to)}", e)
            return tt
        case Nil(t):
            return ListType(t)
        case Cons(h, t):
            th = type_of(h, scope)
            tt = type_of(t, scope)
            if tt != ListType(th):
                raise TypeCheckError(f"cons of {type_str(th)} onto {type_str(tt)}", e)
            return tt
        case Head(a):
            return _expect_list(a, scope).elem
        case Tail(a):
            return _expect_list(a, scope)
        case IsEmpty(a):
            _expect_list(a, scope)
            return BOOL
        case Size(a):
            _expect_list(a, scope)
            return INT
        case Hole(nt):
            return nt.base
    raise TypeCheckError(f"unknown expression {e!r}", e)


def _expect(e: Expr, t: Type, scope: Scope) -> None:
    actual = type_of(e, scope)
    if actual != t:
        raise TypeCheckError(f"expected {type_str(t)}, found {type_str(actual)}", e)


def _expect_list(e: Expr, scope: Scope) -> ListType:
    actual = type_of(e, scope)
    if not isinstance(actual, ListType):
        raise TypeCheckError(f"expected a list, found {type_str(actual)}", e)
    return actual


# ---------------------------------------------------------------------------
# Evaluation

Env = dict[str, Value]

_HEAD_EMPTY = ErrV("head of empty list")
_TAIL_EMPTY = ErrV("tail of empty list")


# candidate scoring and the verification scan evaluate millions of nodes;
# both the compiler and partial_eval dispatch on node class through tables

_STRICT_APPLY: dict[type, Callable[..., Value]] = {
    Plus: lambda a, b: IntV(a.value + b.value),
    Minus: lambda a, b: IntV(a.value - b.value),
    Times: lambda a, b: IntV(a.value * b.value),
    Leq: lambda a, b: TRUE_V if a.value <= b.value else FALSE_V,
    Eq: lambda a, b: TRUE_V if a == b else FALSE_V,
    Not: lambda a: FALSE_V if a.value else TRUE_V,
    Cons: lambda a, b: ListV((a,) + b.items),
    Head: lambda a: a.items[0] if a.items else _HEAD_EMPTY,
    Tail: lambda a: ListV(a.items[1:]) if a.items else _TAIL_EMPTY,
    IsEmpty: lambda a: FALSE_V if a.items else TRUE_V,
    Size: lambda a: IntV(len(a.items)),
}


def evaluate(e: Expr, env: Env) -> Value:
    return compile_expr(e)(env)


def compile_expr(e: Expr) -> Callable[[Env], Value]:
    """e as one closure from environments to values, to be run on many: a
    literal folds to one shared Value and each operator becomes a closure
    over its operands' closures. A hole or an unbound variable raises
    EvalError only when the closure reaches it, so an untaken branch or a
    short-circuited operand may hold one."""
    cls = e.__class__
    if cls is IntLit:
        return _c_const(IntV(e.value))
    if cls is BoolLit:
        return _c_const(TRUE_V if e.value else FALSE_V)
    if cls is Nil:
        return _c_const(ListV(()))
    if cls is Var:
        return _c_var(e.name)
    if cls is Hole:
        return _c_hole
    kids = [compile_expr(k) for k in children(e)]
    if cls is And:
        return _c_and(*kids)
    if cls is Ite:
        return _c_ite(*kids)
    apply = _STRICT_APPLY.get(cls)
    if apply is None:
        raise EvalError(f"unknown expression {e!r}")
    return _c_strict2(apply, *kids) if len(kids) == 2 else _c_strict1(apply, *kids)


def _c_const(v: Value):
    return lambda env: v


def _c_var(name: str):
    def run(env):
        try:
            return env[name]
        except KeyError:
            raise EvalError(f"unbound variable {name}") from None

    return run


def _c_hole(env):
    raise EvalError("cannot evaluate an expression with holes")


def _c_strict2(apply, a, b):
    # both operands always run; errors propagate left-first
    def run(env):
        va = a(env)
        vb = b(env)
        if va.__class__ is ErrV:
            return va
        if vb.__class__ is ErrV:
            return vb
        return apply(va, vb)

    return run


def _c_strict1(apply, a):
    def run(env):
        va = a(env)
        return va if va.__class__ is ErrV else apply(va)

    return run


def _c_and(a, b):
    def run(env):
        va = a(env)
        if va.__class__ is ErrV or (va.__class__ is BoolV and not va.value):
            return va
        return b(env)

    return run


def _c_ite(c, t, o):
    def run(env):
        vc = c(env)
        if vc.__class__ is ErrV:
            return vc
        return t(env) if vc.value else o(env)

    return run


def eval_trace(e: Expr, env: Env, path: tuple[int, ...] = (), visited: set | None = None):
    """Like evaluate, but records the path of every subexpression that actually
    ran (untaken if-branches and short-circuited and-operands are skipped)."""
    if visited is None:
        visited = set()
    visited.add(path)
    match e:
        case And(a, b):
            va, _ = eval_trace(a, env, path + (0,), visited)
            if isinstance(va, ErrV) or va == FALSE_V:
                return va, visited
            return eval_trace(b, env, path + (1,), visited)
        case Ite(c, t, o):
            vc, _ = eval_trace(c, env, path + (0,), visited)
            if isinstance(vc, ErrV):
                return vc, visited
            if vc.value:
                return eval_trace(t, env, path + (1,), visited)
            return eval_trace(o, env, path + (2,), visited)
    kids = children(e)
    if not kids:
        return evaluate(e, env), visited
    vals = []
    for i, k in enumerate(kids):
        v, visited = eval_trace(k, env, path + (i,), visited)
        vals.append(v)
    for v in vals:
        if isinstance(v, ErrV):
            return v, visited
    return _STRICT_APPLY[e.__class__](*vals), visited


# ---------------------------------------------------------------------------
# Partial evaluation

PartialEnv = dict[str, "Value | _Unknown"]


def partial_eval(e: Expr, env: PartialEnv) -> "Value | _Unknown":
    """Evaluate under holes. A definite non-error Value means every
    completion of the holes evaluates to it; UNKNOWN means the result still
    depends on them. ErrV counts as definite, since strict operators
    propagate an error whatever the unknown parts turn out to be: every
    completion errs, though possibly for another reason, as a completed
    hole left of the error may err first."""
    f = _PEVAL.get(e.__class__)
    if f is None:
        raise EvalError(f"unknown leaf {e!r}")
    return f(e, env)


def _pe_var(e: Var, env: PartialEnv) -> "Value | _Unknown":
    try:
        return env[e.name]
    except KeyError:
        raise EvalError(f"unbound variable {e.name}") from None


def _pe_binop(apply, get) -> "Callable[[Expr, PartialEnv], Value | _Unknown]":
    def pe(e, env):
        a, b = get(e)
        va = partial_eval(a, env)
        if va.__class__ is ErrV:
            return va
        vb = partial_eval(b, env)
        if vb.__class__ is ErrV:
            return vb
        if va is UNKNOWN or vb is UNKNOWN:
            return UNKNOWN
        return apply(va, vb)

    return pe


def _pe_unop(apply) -> "Callable[[Expr, PartialEnv], Value | _Unknown]":
    def pe(e, env):
        va = partial_eval(e.arg, env)
        if va.__class__ is ErrV:
            return va
        if va is UNKNOWN:
            return UNKNOWN
        return apply(va)

    return pe


def _pe_and(e: And, env: PartialEnv) -> "Value | _Unknown":
    va = partial_eval(e.left, env)
    if va is UNKNOWN:
        return UNKNOWN
    if va.__class__ is ErrV or va == FALSE_V:
        return va
    return partial_eval(e.right, env)


def _pe_ite(e: Ite, env: PartialEnv) -> "Value | _Unknown":
    vc = partial_eval(e.cond, env)
    if vc is UNKNOWN:
        # the branches may still agree on every completion
        vt = partial_eval(e.then, env)
        if vt is UNKNOWN:
            return UNKNOWN
        vo = partial_eval(e.other, env)
        return vt if vt == vo else UNKNOWN
    if vc.__class__ is ErrV:
        return vc
    return partial_eval(e.then, env) if vc.value else partial_eval(e.other, env)


_PEVAL: dict[type, "Callable[[Expr, PartialEnv], Value | _Unknown]"] = {
    Hole: lambda e, env: UNKNOWN,
    IntLit: lambda e, env: IntV(e.value),
    BoolLit: lambda e, env: BoolV(e.value),
    Var: _pe_var,
    And: _pe_and,
    Ite: _pe_ite,
    Nil: lambda e, env: ListV(()),
    **{
        cls: _pe_binop(f, _CHILD_GETTERS[cls])
        for cls, f in _STRICT_APPLY.items()
        if cls in _BINOPS
    },
    **{cls: _pe_unop(f) for cls, f in _STRICT_APPLY.items() if cls in _UNOPS},
}
