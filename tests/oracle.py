"""Brute-force reference implementations that the fast engine is checked
against: exhaustive derivation enumeration straight off the rule sets, plus
an independent interpreter working on raw S-expression forms and python
values, and a reference bounded-exhaustive verifier built on it."""

import itertools
import math

from pgsynth.lang import (
    BoolType,
    BoolV,
    ErrV,
    Hole,
    IntType,
    IntV,
    ListType,
    ListV,
    children,
    rebuild,
    to_sexpr,
)
from pgsynth.sexpr import Symbol, parse_one


def replace_leftmost_hole(e, replacement):
    """e with its leftmost hole (in preorder) replaced."""
    done, out = _replace_leftmost(e, replacement)
    if not done:
        raise ValueError("expression has no hole")
    return out


def _replace_leftmost(e, replacement):
    if isinstance(e, Hole):
        return True, replacement
    kids = children(e)
    for i, c in enumerate(kids):
        done, new_c = _replace_leftmost(c, replacement)
        if done:
            return True, rebuild(e, kids[:i] + (new_c,) + kids[i + 1 :])
    return False, e


def derivations(g, nt, max_depth=None, _memo=None):
    """Every complete production derivable from nt as (expr, cost) pairs,
    by plain recursive expansion. max_depth counts derivation-tree height
    (a single rule application is depth 1). Finite only if the grammar (or
    the depth bound) is."""
    if _memo is None:
        _memo = {}
    key = (nt, max_depth)
    if key in _memo:
        return _memo[key]
    out = []
    for r in g.rules_for(nt):
        if max_depth is not None and max_depth < 1:
            break
        child_depth = None if max_depth is None else max_depth - 1
        pools = [derivations(g, c, child_depth, _memo) for c in r.child_nts]
        if any(not p for p in pools):
            continue
        for combo in itertools.product(*pools):
            expr = r.template
            cost = g.cost[r.id]
            for child_expr, child_cost in combo:
                expr = replace_leftmost_hole(expr, child_expr)
                cost += child_cost
            out.append((expr, cost))
    _memo[key] = out
    return out


def min_cost_by_depth(g, nt, max_depth):
    """Cheapest complete production of derivation depth <= max_depth,
    by dynamic programming over the depth bound (no enumeration)."""
    best = {n: math.inf for n in g.rules}
    for _ in range(max_depth):
        nxt = {}
        for n, group in g.rules.items():
            b = math.inf
            for r in group:
                c = g.cost[r.id]
                for child in r.child_nts:
                    c += best.get(child, math.inf)
                    if math.isinf(c):
                        break
                b = min(b, c)
            nxt[n] = min(b, best[n])
        best = nxt
    return None if math.isinf(best[nt]) else best[nt]


# ---------------------------------------------------------------------------
# Independent interpreter: S-expression forms over python ints/bools/tuples


class _OracleErr:
    def __repr__(self):
        return "ORACLE_ERR"


ORACLE_ERR = _OracleErr()  # stands for any runtime list error


def to_py(v):
    """Engine Value -> raw python value (errors collapse to the marker)."""
    if isinstance(v, IntV):
        return v.value
    if isinstance(v, BoolV):
        return v.value
    if isinstance(v, ListV):
        return tuple(to_py(i) for i in v.items)
    assert isinstance(v, ErrV)
    return ORACLE_ERR


def oracle_eval(form, env):
    """Evaluate a parsed S-expression form over python values, written
    directly from the language rules and sharing nothing with the engine's
    AST or interpreter. env maps names to python values."""
    if isinstance(form, int):  # covers sexpr integer atoms
        return form
    if isinstance(form, Symbol):
        s = str(form)
        if s == "true":
            return True
        if s == "false":
            return False
        return env[s]
    op, *args = form
    op = str(op)
    if op == "if":
        c = oracle_eval(args[0], env)
        if c is ORACLE_ERR:
            return ORACLE_ERR
        return oracle_eval(args[1] if c else args[2], env)
    if op == "and":
        a = oracle_eval(args[0], env)
        if a is ORACLE_ERR or a is False:
            return a
        return oracle_eval(args[1], env)
    if op == "nil":
        return ()
    vals = [oracle_eval(a, env) for a in args]
    for v in vals:
        if v is ORACLE_ERR:
            return ORACLE_ERR
    if op == "+":
        return vals[0] + vals[1]
    if op == "-":
        return vals[0] - vals[1]
    if op == "*":
        return vals[0] * vals[1]
    if op == "<=":
        return bool(vals[0] <= vals[1])
    if op == "=":
        return vals[0] == vals[1]
    if op == "not":
        return not vals[0]
    if op == "cons":
        return (vals[0],) + vals[1]
    if op == "head":
        return vals[0][0] if vals[0] else ORACLE_ERR
    if op == "tail":
        return vals[0][1:] if vals[0] else ORACLE_ERR
    if op == "isEmpty":
        return vals[0] == ()
    if op == "size":
        return len(vals[0])
    raise AssertionError(f"oracle cannot evaluate {op}")


def oracle_eval_expr(e, env):
    """oracle_eval over an engine expression's printed form."""
    return oracle_eval(parse_one(to_sexpr(e)), env)


# ---------------------------------------------------------------------------
# Independent type checker: S-expression forms over python type forms


def oracle_type_form(form):
    """A type S-expression as a python type: "Int", "Bool" or ("List", t)."""
    if form in ("Int", "Bool"):
        return str(form)
    assert isinstance(form, list) and len(form) == 2 and form[0] == "List", form
    return ("List", oracle_type_form(form[1]))


def oracle_type(form, scope):
    """The type of a parsed S-expression form, written directly from the
    language's typing rules and sharing nothing with the engine's type
    checker, or None if the form is ill-typed. scope maps names to python
    types as oracle_type_form returns them."""
    if isinstance(form, int):
        return "Int"
    if isinstance(form, Symbol):
        if form in ("true", "false"):
            return "Bool"
        return scope.get(str(form))
    op, *args = form
    op = str(op)
    if op == "nil":
        return ("List", oracle_type_form(args[0]))
    if op == "?":
        return oracle_type_form(args[0])
    ts = [oracle_type(a, scope) for a in args]
    if None in ts:
        return None
    if op in ("+", "-", "*"):
        return "Int" if ts == ["Int", "Int"] else None
    if op == "<=":
        return "Bool" if ts == ["Int", "Int"] else None
    if op == "=":
        return "Bool" if ts[0] == ts[1] else None
    if op == "and":
        return "Bool" if ts == ["Bool", "Bool"] else None
    if op == "not":
        return "Bool" if ts == ["Bool"] else None
    if op == "if":
        return ts[1] if ts[0] == "Bool" and ts[1] == ts[2] else None
    if op == "cons":
        return ts[1] if ts[1] == ("List", ts[0]) else None
    if not isinstance(ts[0], tuple):  # the rest take one list
        return None
    if op == "head":
        return ts[0][1]
    if op == "tail":
        return ts[0]
    if op == "isEmpty":
        return "Bool"
    if op == "size":
        return "Int"
    raise AssertionError(f"oracle cannot type {op}")


def oracle_type_expr(e, scope):
    """oracle_type over an engine expression's printed form, with scope and
    result as printed type strings."""
    py_scope = {n: oracle_type_form(parse_one(t)) for n, t in scope.items()}
    t = oracle_type(parse_one(to_sexpr(e)), py_scope)
    return None if t is None else _type_text(t)


def _type_text(t):
    return t if isinstance(t, str) else f"(List {_type_text(t[1])})"


# ---------------------------------------------------------------------------
# Reference bounded-exhaustive verification


def oracle_domain(ty, int_bound, list_bound):
    """Unordered python-value domain of a ground type."""
    if isinstance(ty, IntType):
        return list(range(-int_bound, int_bound + 1))
    if isinstance(ty, BoolType):
        return [False, True]
    assert isinstance(ty, ListType)
    elems = oracle_domain(ty.elem, int_bound, list_bound)
    return [
        tup
        for k in range(list_bound + 1)
        for tup in itertools.product(elems, repeat=k)
    ]


def oracle_magnitude(v):
    if isinstance(v, bool):
        return 1 if v else 0
    if isinstance(v, int):
        return abs(v)
    return len(v) + sum(oracle_magnitude(i) for i in v)


def _lex(v):
    if isinstance(v, tuple):
        return tuple(_lex(i) for i in v)
    return v


def oracle_points(inputs, int_bound, list_bound):
    """All input valuations (python values) in increasing total magnitude,
    ties lexicographic across the inputs in order."""
    names = [n for n, _ in inputs]
    doms = [oracle_domain(t, int_bound, list_bound) for _, t in inputs]
    combos = sorted(
        itertools.product(*doms),
        key=lambda vs: (sum(map(oracle_magnitude, vs)), tuple(map(_lex, vs))),
    )
    return [dict(zip(names, vs)) for vs in combos]


def oracle_verify(problem, t, int_bound=8, list_bound=4):
    """Reference verdict: ('valid', None) or ('counterexample', env). Treats
    each io example as its own inputs-match => output-equal constraint
    instead of reusing the engine's desugaring."""
    pc = parse_one(to_sexpr(problem.pc))
    spec = parse_one(to_sexpr(problem.spec))
    body = parse_one(to_sexpr(t))
    examples = [
        ({n: to_py(v) for n, v in ex.bindings}, to_py(ex.expected))
        for ex in problem.examples
    ]
    for env in oracle_points(problem.inputs, int_bound, list_bound):
        if oracle_eval(pc, env) is not True:
            continue
        out = oracle_eval(body, env)
        full = dict(env)
        full[problem.output_name] = out
        ok = oracle_eval(spec, full) is True
        for bindings, expected in examples:
            if bindings == env and out != expected:
                ok = False
        if not ok:
            return ("counterexample", env)
    return ("valid", None)
