"""The object language: a small pure expression language over ints, bools,
and lists, with typed holes.

Every operator is declared once, as an `Operator` record in `OPERATORS`: its
node class and operand fields, its surface tag, its type signature over the
one type variable 'a, and its strict apply (none for the lazy `and` and
`if`). Parsing, printing, the reserved words, `type_of`, `children`,
the compiled evaluators and corpus kinds are all read off that table.

Evaluation is strict except for `and` (left short-circuit) and `if` (only the
taken branch runs). The only runtime error is head/tail of an empty list; it
is reified as the value ErrV and propagates through strict operators.

Evaluation compiles once and runs many times: `compile_expr` turns an
expression into a closure from environments to values, and a scan over many
points (verification, test generation, indistinguishability signatures) runs
one closure on every point. `evaluate(e, env)` is compile-and-run.
Expressions and values are immutable slotted nodes that cache their hash.

The same closures evaluate expressions that still contain holes:
`compile_partial` differs from `compile_expr` only in compiling each hole to
a closure that yields the UNKNOWN marker, and `partial_eval(e, env)` is
compile-and-run; search's point checks compile a candidate once and run it
on each point. A definite non-error Value means every type-correct
completion of the holes evaluates to that value or errs: an `if` whose
condition is unknown yields the value both branches agree on, and a
completion of the condition may err. A definite ErrV means every completion
errs, possibly for another reason: a completion of a hole to the left of the
error may err first. Otherwise the result is UNKNOWN. An error that
evaluation reaches is always the result, so no completion of a definite
false is true, which is what pruning relies on.

The readers that turn S-expression forms into types, expressions and
values live here too, and the file formats share them: `type_from_sexpr`,
`expr_from_sexpr`, `identifier`, `typed_name` for `(name Type)`, `binding`
for `(name value)` and `literal_value`. They raise SexprError or LangError;
each file format's entry point converts those to its own error, once.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from itertools import repeat
from typing import Callable, Iterable, NamedTuple

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
    if isinstance(form, list) and len(form) == 2 and sexpr.is_symbol(form[0], "List"):
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
# Values


class Value(_Node):
    __slots__ = ()


IntV = _node("IntV", Value, "value")
BoolV = _node("BoolV", Value, "value")
ListV = _node("ListV", Value, "items")  # a tuple of Values
ErrV = _node("ErrV", Value, "reason")

TRUE_V = BoolV(True)
FALSE_V = BoolV(False)
_HEAD_EMPTY = ErrV("head of empty list")
_TAIL_EMPTY = ErrV("tail of empty list")


class _Unknown:
    """Result of partially evaluating an expression whose value depends on holes."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "UNKNOWN"


UNKNOWN = _Unknown()


# ---------------------------------------------------------------------------
# Expressions


class Expr(_Node):
    __slots__ = ()


# leaves: an int, a bool, a name, and the Nonterminal a hole stands for
IntLit = _node("IntLit", Expr, "value")
BoolLit = _node("BoolLit", Expr, "value")
Var = _node("Var", Expr, "name")
Hole = _node("Hole", Expr, "nt")


class Operator(NamedTuple):  # not a dataclass, which takes 0.8 ms of each import to define
    """One operator of the language. Its node's fields are the operand
    fields, typed by `params`, then for `nil` only `type_field`, the element
    Type that binds 'a. `apply` maps operand values to the result; it is
    None for the lazy `and` and `if`, which the evaluators spell out."""

    cls: type
    tag: str
    operands: tuple[str, ...]
    params: tuple[Type, ...]
    result: Type
    apply: Callable[..., Value] | None
    type_field: str | None = None

    def bind(self, e: Expr, kid_types: Iterable[Type]) -> dict[str, Type]:
        """The binding of the signature's type variable at node e, whose
        operands have kid_types; TypeCheckError names the first operand
        that does not fit."""
        sub = {} if self.type_field is None else {A.name: getattr(e, self.type_field)}
        for param, kid, t in zip(self.params, children(e), kid_types):
            if not match_type(param, t, sub):
                want = type_str(subst_type(param, sub))
                raise TypeCheckError(f"{self.tag}: expected {want}, found {type_str(t)}", kid)
        return sub


OPERATORS: dict[type, Operator] = {}
OPERATOR_BY_TAG: dict[str, Operator] = {}


def _operator(name, tag, operands, params, result, apply, type_field=None) -> type:
    fields = operands if type_field is None else (*operands, type_field)
    cls = _node(name, Expr, *fields)
    op = Operator(cls, tag, operands, params, result, apply, type_field)
    OPERATORS[cls] = OPERATOR_BY_TAG[tag] = op
    return cls


A = TypeVar("a")
_LIST_A = ListType(A)
_BIN = ("left", "right")
_UN = ("arg",)

# class name, surface tag, operand fields, parameter types, result type, apply
Plus = _operator("Plus", "+", _BIN, (INT, INT), INT, lambda a, b: IntV(a.value + b.value))
Minus = _operator("Minus", "-", _BIN, (INT, INT), INT, lambda a, b: IntV(a.value - b.value))
Times = _operator("Times", "*", _BIN, (INT, INT), INT, lambda a, b: IntV(a.value * b.value))
Leq = _operator(
    "Leq", "<=", _BIN, (INT, INT), BOOL, lambda a, b: TRUE_V if a.value <= b.value else FALSE_V
)
Eq = _operator("Eq", "=", _BIN, (A, A), BOOL, lambda a, b: TRUE_V if a == b else FALSE_V)
And = _operator("And", "and", _BIN, (BOOL, BOOL), BOOL, None)
Not = _operator("Not", "not", _UN, (BOOL,), BOOL, lambda a: FALSE_V if a.value else TRUE_V)
Ite = _operator("Ite", "if", ("cond", "then", "other"), (BOOL, A, A), A, None)
Nil = _operator("Nil", "nil", (), (), _LIST_A, lambda: ListV(()), type_field="elem")
Cons = _operator(
    "Cons", "cons", ("head", "tail"), (A, _LIST_A), _LIST_A, lambda a, b: ListV((a,) + b.items)
)
Head = _operator(
    "Head", "head", _UN, (_LIST_A,), A, lambda a: a.items[0] if a.items else _HEAD_EMPTY
)
Tail = _operator(
    "Tail", "tail", _UN, (_LIST_A,), _LIST_A,
    lambda a: ListV(a.items[1:]) if a.items else _TAIL_EMPTY,
)
IsEmpty = _operator(
    "IsEmpty", "isEmpty", _UN, (_LIST_A,), BOOL, lambda a: FALSE_V if a.items else TRUE_V
)
Size = _operator("Size", "size", _UN, (_LIST_A,), INT, lambda a: IntV(len(a.items)))


def _getter(fields: tuple[str, ...]) -> Callable[[Expr], tuple[Expr, ...]]:
    # read from source, so each field is a plain attribute load
    return eval(f"lambda e: ({''.join(f'e.{f}, ' for f in fields)})")


# children is on every hot path (search, evaluation, rewriting), so it
# dispatches on the node class instead of pattern matching
_CHILD_GETTERS: dict[type, Callable[[Expr], tuple[Expr, ...]]] = {
    cls: _getter(op.operands) for cls, op in OPERATORS.items() if op.operands
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
    # a loop, not all() over a generator: one stack frame per level
    if isinstance(e, Hole):
        return False
    for c in children(e):
        if not is_complete(c):
            return False
    return True


# ---------------------------------------------------------------------------
# S-expression syntax for expressions


def expr_to_sexpr(e: Expr):
    cls = e.__class__
    if cls is IntLit:
        return e.value
    if cls is BoolLit:
        return Symbol("true" if e.value else "false")
    if cls is Var:
        return Symbol(e.name)
    if cls is Hole:
        out = [Symbol("?"), type_to_sexpr(e.nt.base)]
        if e.nt.attr is not None:
            out.append(Symbol(e.nt.attr))
        return out
    op = OPERATORS[cls]
    out = [Symbol(op.tag), *map(expr_to_sexpr, children(e))]  # a frame per level
    if op.type_field is not None:
        out.append(type_to_sexpr(getattr(e, op.type_field)))
    return out


def to_sexpr(e: Expr) -> str:
    return sexpr.write(expr_to_sexpr(e))


_HOLE_PRINT: dict[Nonterminal, str] = {}


def hole_print(nt: Nonterminal) -> str:
    s = _HOLE_PRINT.get(nt)
    if s is None:
        s = _HOLE_PRINT.setdefault(nt, to_sexpr(Hole(nt)))
    return s


# words an expression gives a meaning to, so no variable may take them
RESERVED_WORDS = frozenset({"true", "false", "?", *OPERATOR_BY_TAG})


def identifier(form, what: str = "variable") -> str:
    """The name form spells if it is a symbol a variable may take; otherwise
    SexprError, naming what was wanted."""
    if isinstance(form, Symbol) and form not in RESERVED_WORDS and not form.startswith("'"):
        return str(form)
    raise sexpr.SexprError(f"invalid {what} {sexpr.write(form)}")


def expr_from_sexpr(form) -> Expr:
    if isinstance(form, int):
        return IntLit(form)
    if isinstance(form, Symbol):
        if form == "true":
            return BoolLit(True)
        if form == "false":
            return BoolLit(False)
        return Var(identifier(form))
    if not isinstance(form, list) or not form or not isinstance(form[0], Symbol):
        raise sexpr.SexprError(f"malformed expression {sexpr.write(form)}")
    head, *args = form
    if head == "?":
        if len(args) == 1:
            return Hole(Nonterminal(type_from_sexpr(args[0])))
        _arity(form, 2)
        if not isinstance(args[1], Symbol):
            raise sexpr.SexprError(f"hole attribute must be a symbol: {sexpr.write(form)}")
        return Hole(Nonterminal(type_from_sexpr(args[0]), str(args[1])))
    op = OPERATOR_BY_TAG.get(str(head))
    if op is None:
        raise sexpr.SexprError(f"unknown operator {head}")
    _arity(form, len(op.cls.__match_args__))
    fields = [expr_from_sexpr(a) for a in args[: len(op.operands)]]
    if op.type_field is not None:
        fields.append(type_from_sexpr(args[-1]))
    return op.cls(*fields)


def _arity(form: list, n: int) -> None:
    if len(form) != n + 1:
        raise sexpr.SexprError(f"{form[0]} expects {n} arguments: {sexpr.write(form)}")


def parse_expr(text: str) -> Expr:
    return expr_from_sexpr(sexpr.parse_one(text))


def typed_name(form, what: str) -> tuple[str, Type]:
    """The name and type of a `(name Type)` form; what names the form in
    errors, e.g. "input" or "parameter"."""
    if not (isinstance(form, list) and len(form) == 2):
        raise sexpr.SexprError(f"{what} must be (name Type), got {sexpr.write(form)}")
    return identifier(form[0], f"{what} name"), type_from_sexpr(form[1])


def binding(form, what: str) -> tuple[str, Value]:
    """The name and value of a `(name value)` form, the value a literal (see
    literal_value); what names the form in errors, e.g. "example"."""
    if not (isinstance(form, list) and len(form) == 2):
        raise sexpr.SexprError(f"{what} binding must be (name value), got {sexpr.write(form)}")
    return identifier(form[0], f"{what} binding name"), literal_value(form[1])


def literal_value(form) -> Value:
    """The value of a literal: an int or bool atom, (nil T), or cons of
    literals, the forms value_to_expr writes. Any other expression is
    rejected even when it evaluates to a value, e.g. (+ 1 2) or
    (head (nil Int))."""
    e = expr_from_sexpr(form)
    if not is_complete(e):
        raise LangError(f"value {sexpr.write(form)} contains a hole")
    try:
        type_of(e, {})
    except LangError as err:
        raise LangError(f"bad literal value {sexpr.write(form)}: {err}") from None
    if not _is_literal(e):
        raise LangError(
            f"value {sexpr.write(form)} is not a literal "
            "(an int or bool atom, (nil T), or cons of literals)"
        )
    return evaluate(e, {})


def _is_literal(e: Expr) -> bool:
    while isinstance(e, Cons):
        if not _is_literal(e.head):
            return False
        e = e.tail
    return isinstance(e, (IntLit, BoolLit, Nil))


# ---------------------------------------------------------------------------
# Value helpers


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


# ---------------------------------------------------------------------------
# Type checking

Scope = dict[str, Type]


def type_of(e: Expr, scope: Scope) -> Type:
    """e's type: an operator's operands are typed and matched against its
    signature left to right, and the result is the signature's under the
    binding of 'a."""
    cls = e.__class__
    op = OPERATORS.get(cls)
    if op is not None:
        # bind pulls each operand's type just before matching it
        kid_types = map(type_of, children(e), repeat(scope))
        return subst_type(op.result, op.bind(e, kid_types))
    if cls is IntLit:
        return INT
    if cls is BoolLit:
        return BOOL
    if cls is Hole:
        return e.nt.base
    if cls is Var:
        if e.name not in scope:
            raise TypeCheckError(f"unbound variable {e.name}", e)
        return scope[e.name]
    raise TypeCheckError(f"unknown expression {e!r}", e)


# ---------------------------------------------------------------------------
# Evaluation

Env = dict[str, Value]
PartialEnv = dict[str, "Value | _Unknown"]


def evaluate(e: Expr, env: Env) -> Value:
    return compile_expr(e)(env)


def compile_expr(e: Expr) -> Callable[[Env], Value]:
    """e as one closure from environments to values, to be run on many: a
    literal folds to one shared Value and each operator becomes a closure
    over its operands' closures. A hole or an unbound variable raises
    EvalError only when the closure reaches it, so an untaken branch or a
    short-circuited operand may hold one."""
    return _compile_complete(e)


def partial_eval(e: Expr, env: PartialEnv) -> "Value | _Unknown":
    """Evaluate under holes: a definite Value or ErrV, or UNKNOWN while the
    result depends on them (the module docstring says what a definite
    result promises). The closure of the last expression object is kept, so
    point checks, which evaluate a problem's implication on each memo miss,
    compile it once."""
    global _last_partial
    last, run = _last_partial
    if last is not e:
        run = compile_partial(e)
        _last_partial = e, run
    return run(env)


_last_partial: tuple = (None, None)  # partial_eval's last expression and closure


def compile_partial(e: Expr) -> "Callable[[PartialEnv], Value | _Unknown]":
    """partial_eval compiled once for many environments: compile_expr's
    closures, except that a hole yields UNKNOWN."""
    return _compile_partial(e)


def _compiler(hole: Callable[[Env], Value]) -> Callable[[Expr], Callable[[Env], Value]]:
    """The compiler that compiles each hole to hole. It recurses through
    map, one stack frame per level."""

    def compile(e: Expr) -> Callable[[Env], Value]:
        cls = e.__class__
        get = _CHILD_GETTERS.get(cls)
        if get is not None:
            return _COMPILE[cls](e, *map(compile, get(e)))
        if cls is Hole:
            return hole
        return _COMPILE.get(cls, _c_unknown)(e)

    return compile


def compile_trace(e: Expr) -> Callable[[Env], tuple[Value, set[tuple[int, ...]]]]:
    """Like compile_expr, but the closure also returns the path of every
    subexpression that actually ran (untaken if-branches and short-circuited
    and-operands are skipped): compile_expr's closures, each behind a hook
    that records its node's path."""
    visited: set[tuple[int, ...]] = set()
    run = _compile_traced(e, visited, ())

    def trace(env):
        visited.clear()
        return run(env), set(visited)

    return trace


def _compile_traced(e: Expr, visited: set, path: tuple[int, ...]) -> Callable[[Env], Value]:
    kids = [_compile_traced(k, visited, path + (i,)) for i, k in enumerate(children(e))]
    run = _c_hole if e.__class__ is Hole else _COMPILE.get(e.__class__, _c_unknown)(e, *kids)

    def visit(env):
        visited.add(path)
        return run(env)

    return visit


def _c_unknown(e: Expr):
    raise EvalError(f"unknown expression {e!r}")


def _c_const(v: Value):
    return lambda env: v


_TRUE_RUN, _FALSE_RUN = _c_const(TRUE_V), _c_const(FALSE_V)

# candidates share their leaves, so each integer literal compiles to one
# shared closure (and so one shared IntV) and each variable name to one
# lookup; filled on first use, so importing the module builds none
_INT_CONSTS: dict[int, Callable[[Env], Value]] = {}
_VAR_LOOKUPS: dict[str, Callable[[Env], Value]] = {}


def _c_int(e: IntLit):
    run = _INT_CONSTS.get(e.value)
    if run is None:
        run = _INT_CONSTS[e.value] = _c_const(IntV(e.value))
    return run


def _c_var(e: Var):
    run = _VAR_LOOKUPS.get(e.name)
    if run is None:
        run = _VAR_LOOKUPS[e.name] = _c_lookup(e.name)
    return run


def _c_lookup(name: str):
    def run(env):
        try:
            return env[name]
        except KeyError:
            raise EvalError(f"unbound variable {name}") from None

    return run


def _c_hole(env):
    raise EvalError("cannot evaluate an expression with holes")


def _c_open(env):
    return UNKNOWN


_compile_complete = _compiler(_c_hole)
_compile_partial = _compiler(_c_open)


def _c_strict(op: Operator):
    """The compiler of op's nodes, from its operands' closures."""
    apply = op.apply
    if not op.operands:
        run = _c_const(apply())
        return lambda e: run
    if len(op.operands) == 1:

        def compile1(e, a):
            def run(env):
                va = a(env)
                return va if va.__class__ is ErrV or va is UNKNOWN else apply(va)

            return run

        return compile1

    def compile2(e, a, b):
        # both operands always run; errors propagate left-first, and an
        # error outranks an unknown operand, since every completion errs
        def run(env):
            va = a(env)
            vb = b(env)
            if va.__class__ is ErrV:
                return va
            if vb.__class__ is ErrV:
                return vb
            if va is UNKNOWN or vb is UNKNOWN:
                return UNKNOWN
            return apply(va, vb)

        return run

    return compile2


def _c_and(e: And, a, b):
    # an ErrV, false or UNKNOWN left operand is the result
    def run(env):
        va = a(env)
        if va.__class__ is BoolV and va.value:
            return b(env)
        return va

    return run


def _c_ite(e: Ite, c, t, o):
    def run(env):
        vc = c(env)
        if vc.__class__ is BoolV:
            return t(env) if vc.value else o(env)
        if vc is UNKNOWN:
            # the branches may still agree on every completion
            vt = t(env)
            return vt if vt is not UNKNOWN and vt == o(env) else UNKNOWN
        return vc

    return run


# candidate checks and the verification scan evaluate millions of nodes, so
# the compiler dispatches on node class through a table
_COMPILE: dict[type, Callable[..., Callable[[Env], Value]]] = {
    IntLit: _c_int,
    BoolLit: lambda e: _TRUE_RUN if e.value else _FALSE_RUN,
    Var: _c_var,
    And: _c_and,
    Ite: _c_ite,
    **{cls: _c_strict(op) for cls, op in OPERATORS.items() if op.apply is not None},
}
