"""Answer checks that do not use the program's evaluator.

Answers are run by the reference interpreter in tests/oracle.py, which works
on printed S-expression forms and Python values, and compared with each
problem's Python reference, or judged by its spec text, on every bounded
input that satisfies the precondition. Each check returns None when the
answer is right and a one-line reason when it is wrong.
"""

from __future__ import annotations

import itertools

from oracle import oracle_domain, oracle_eval
from pgsynth.lang import BOOL, INT, ListType, to_sexpr
from pgsynth.sexpr import parse_all, parse_one

from workloads import INT_BOUND, LIST_BOUND, Problem, Task

TYPES = {"Int": INT, "Bool": BOOL, "(List Int)": ListType(INT)}


def inputs_satisfying(params, pre, list_bound: int) -> list[dict]:
    names = [n for n, _ in params]
    doms = [oracle_domain(TYPES[ty], INT_BOUND, list_bound) for _, ty in params]
    return [dict(zip(names, vs)) for vs in itertools.product(*doms) if pre(*vs)]


def _mismatch(form, envs, ref) -> str | None:
    for env in envs:
        got = oracle_eval(form, env)
        want = ref(*env.values())
        if type(got) is not type(want) or got != want:  # True == 1 in Python
            return f"on {env} the answer gives {got!r}, the reference {want!r}"
    return None


def check_synth(p: Problem, examples, answer) -> str | None:
    """`examples` are the drawn example inputs and `answer` the returned
    expression or None. Where the spec admits several answers, the answer
    must satisfy p.spec, read from the workload's own text, on every input,
    and match the reference on the examples."""
    if answer is None:
        return "no answer"
    form = parse_one(to_sexpr(answer))
    envs = inputs_satisfying(p.inputs, p.pre, LIST_BOUND)
    if p.unique:
        return _mismatch(form, envs, p.ref)
    spec = parse_one(p.spec)
    for env in envs:
        got = oracle_eval(form, env)
        if oracle_eval(spec, dict(env, x=got)) is not True:
            return f"on {env} the answer gives {got!r}, which fails the spec"
    return _mismatch(form, examples, p.ref)


def _replace_at(form, path, new):
    """form with the subform at an engine child path replaced: child i of an
    operator form is its argument at index i + 1."""
    if not path:
        return new
    i = path[0] + 1
    return form[:i] + [_replace_at(form[i], path[1:], new)] + form[i + 1 :]


def check_repair(t: Task, before: str, after: str, location, replacement: str | None) -> str | None:
    """`before` and `after` are the program texts and `replacement` the
    printed new subtree. The repair may change only the body of t's
    function, and only at `location`; the repaired body must match the
    reference on every bounded input satisfying the precondition, where the
    unrepaired body must fail at least once."""
    if location is None or replacement is None:
        return "no repair"
    old_defs, new_defs = parse_all(before), parse_all(after)
    if len(old_defs) != len(new_defs):
        return "the number of functions changed"
    old = new = None
    for o, n in zip(old_defs, new_defs):
        if o[1] == t.name:
            if o[:-1] != n[:-1]:
                return "the signature or contract changed"
            old, new = o[-1], n[-1]
        elif o != n:
            return f"function {o[1]} changed"
    if old is None:
        return f"function {t.name} not found"
    if _replace_at(old, tuple(location), parse_one(replacement)) != new:
        return f"the body changed outside location {tuple(location)}"
    envs = inputs_satisfying(t.params, t.pre, t.list_bound)
    if _mismatch(old, envs, t.ref) is None:
        return "the unrepaired body already matches the reference"
    return _mismatch(new, envs, t.ref)
