"""Expression repair: derive failing tests from a function's contract,
localize candidate fault subexpressions, and synthesize a replacement with
a grammar biased toward terms similar to the broken expression and toward
the program's own local habits.

A repair task file names the program, the target function, and optional
user-provided tests:

    (repair (program "abs.sexp") (function abs) (tests ((a -3)) ((a 2))))

Test values are literals: int or bool atoms, (nil T), or cons of literals,
e.g. (l (cons 1 (nil Int))); an expression such as (+ 1 2) is rejected.
The contract lives on the def itself as (requires e) / (ensures e) clauses,
with the function result available as `result` inside ensures.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

from . import sexpr
from .cegis import (
    DEFAULT_INT_BOUND,
    DEFAULT_LIST_BOUND,
    DEFAULT_SEARCH_DEQUEUES,
    DEFAULT_SEARCH_SECONDS,
    DEFAULT_VERIFY_POINTS,
    CegisResult,
    SynthesisProblem,
    bounded_points,
    cegis,
    conjoin,
    domain_size,
    value_fits,
    _clauses,
    _literal_value,
)
from .corpus import (
    RESULT_NAME,
    CorpusProgram,
    FunctionDef,
    extract_local_bias,
    load_program,
    replace_function,
)
from .enumerate import PriorityMode
from .grammar import GrammarError, normalize
from .grammarfile import (
    DEFAULT_GRAMMAR_TEXT,
    GrammarFile,
    RawProduction,
    desugar,
    merge_grammar_files,
    parse_grammar_file,
)
from .lang import (
    TRUE_V,
    Expr,
    Ite,
    LangError,
    Nonterminal,
    Not,
    Value,
    Var,
    children,
    eval_trace,
    evaluate,
    expr_size,
    get_at,
    iter_subexprs,
    replace_at,
    subst_var,
    to_sexpr,
    type_of,
    type_str,
    value_str,
)
from .sexpr import SexprError, Symbol


class RepairError(LangError):
    """Malformed repair task or configuration."""


Point = dict[str, Value]


def _point_key(env: Point) -> frozenset:
    """A hashable key equal for two points iff the dicts are equal."""
    return frozenset(env.items())


@dataclass(frozen=True)
class RepairTask:
    program: CorpusProgram
    function: str
    tests: tuple[tuple[tuple[str, Value], ...], ...] = ()

    def test_envs(self) -> list[Point]:
        return [dict(t) for t in self.tests]


# ---------------------------------------------------------------------------
# Task files


def parse_task(text: str, program_dir=".") -> RepairTask:
    """Parse `(repair (program "path") (function name) (tests ((a -3)) ...))`.
    The program path is resolved relative to program_dir. Test values are
    literals: int or bool atoms, (nil T), or cons of literals."""
    try:
        form = sexpr.parse_one(text)
    except SexprError as err:
        raise RepairError(str(err)) from None
    clauses = _clauses(form, "repair", RepairError)
    unknown = set(clauses) - {"program", "function", "tests"}
    if unknown:
        raise RepairError(f"unknown clause(s): {', '.join(sorted(unknown))}")
    for required in ("program", "function"):
        if required not in clauses:
            raise RepairError(f"missing ({required} ...) clause")
    prog_clause = clauses["program"]
    if (
        len(prog_clause) != 1
        or not isinstance(prog_clause[0], str)
        or isinstance(prog_clause[0], Symbol)
    ):
        raise RepairError('program clause must be (program "path")')
    if len(clauses["function"]) != 1 or not isinstance(clauses["function"][0], Symbol):
        raise RepairError("function clause must be (function name)")
    path = Path(program_dir) / prog_clause[0]
    program = load_program(path)
    function = str(clauses["function"][0])
    fn = program.find(function)
    if fn is None:
        raise RepairError(f"function {function} not found in {path}")
    tests = tuple(_parse_test(t, fn) for t in clauses.get("tests", []))
    return RepairTask(program, function, tests)


def _parse_test(form, fn: FunctionDef) -> tuple[tuple[str, Value], ...]:
    if not isinstance(form, list):
        raise RepairError(f"test must be ((name value) ...), got {sexpr.write(form)}")
    bindings: dict[str, Value] = {}
    for b in form:
        if not (isinstance(b, list) and len(b) == 2 and isinstance(b[0], Symbol)):
            raise RepairError(f"test binding must be (name value), got {sexpr.write(b)}")
        name = str(b[0])
        if name in bindings:
            raise RepairError(f"test binds {name} twice")
        try:
            bindings[name] = _literal_value(b[1])
        except LangError as err:
            raise RepairError(str(err)) from None
    scope = fn.scope
    if set(bindings) != set(scope):
        raise RepairError(
            f"test must bind exactly the parameters of {fn.name}: "
            f"{', '.join(n for n, _ in fn.params) or '(none)'}"
        )
    for name, value in bindings.items():
        if not value_fits(value, scope[name]):
            raise RepairError(f"test value for {name} does not fit {type_str(scope[name])}")
    return tuple((n, bindings[n]) for n, _ in fn.params)


def load_task(path) -> RepairTask:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as err:
        raise RepairError(f"cannot read task {path}: {err}") from None
    return parse_task(text, Path(path).parent)


# ---------------------------------------------------------------------------
# Test generation


@dataclass(frozen=True)
class TestSuite:
    points: tuple[Point, ...]  # user tests first, then generated, all pre-satisfying
    failing: tuple[Point, ...]

    @property
    def passing(self) -> tuple[Point, ...]:
        failing = set(map(_point_key, self.failing))
        return tuple(p for p in self.points if _point_key(p) not in failing)


def _passes(fn: FunctionDef, env: Point) -> bool:
    out = dict(env)
    out[RESULT_NAME] = evaluate(fn.body, env)
    return evaluate(fn.ensures, out) == TRUE_V


def generate_tests(
    fn: FunctionDef,
    user_tests=(),
    int_bound: int = DEFAULT_INT_BOUND,
    list_bound: int = DEFAULT_LIST_BOUND,
    max_points: int = DEFAULT_VERIFY_POINTS,
) -> TestSuite:
    """Bounded-exhaustive inputs satisfying the precondition, classified
    into passing and failing by evaluating the body against the
    postcondition. User tests come first and must satisfy the precondition."""
    if fn.ensures is None:
        raise RepairError(f"def {fn.name} has no (ensures ...) contract")
    pre = fn.requires
    total = math.prod(domain_size(t, int_bound, list_bound) for _, t in fn.params)
    if total > max_points:
        raise RepairError(
            f"test domain for {fn.name} has {total} valuations, over the budget of {max_points}"
        )
    points: list[Point] = []
    user_keys: set[frozenset] = set()
    for raw in user_tests:
        env = dict(raw)
        if pre is not None and evaluate(pre, env) != TRUE_V:
            raise RepairError(
                f"user test {sexpr.write([[n, _value_form(v)] for n, v in env.items()])} "
                f"violates the precondition of {fn.name}"
            )
        key = _point_key(env)
        if key not in user_keys:
            user_keys.add(key)
            points.append(env)
    # bounded_points yields each valuation once: only a user test can repeat one
    for env in bounded_points(fn.params, int_bound, list_bound):
        if pre is not None and evaluate(pre, env) != TRUE_V:
            continue
        if _point_key(env) not in user_keys:
            points.append(env)
    if not points:
        raise RepairError("vacuous contract: no bounded input satisfies the precondition")
    failing = tuple(p for p in points if not _passes(fn, p))
    return TestSuite(tuple(points), failing)


def _value_form(v: Value):
    return Symbol(value_str(v))


# ---------------------------------------------------------------------------
# Fault localization


def localize(fn: FunctionDef, failing) -> tuple[tuple[int, ...], ...]:
    """Candidate fault locations: subexpressions executed on every failing
    test first (branch-aware), smaller subtrees before larger, leftmost on
    ties. Locations never executed on some failing test come last."""
    if not failing:
        raise RepairError("localization needs at least one failing test")
    common: set | None = None
    for env in failing:
        _, visited = eval_trace(fn.body, env)
        common = set(visited) if common is None else common & visited
    nodes = list(iter_subexprs(fn.body))
    nodes.sort(key=lambda pe: (pe[0] not in common, expr_size(pe[1]), pe[0]))
    return tuple(path for path, _ in nodes)


# ---------------------------------------------------------------------------
# Similar-term grammar


def similar_term_grammar(
    broken: Expr, base: GrammarFile, scope: dict, sigma: float = 20.0
) -> GrammarFile:
    """Add one production per subtree of the broken expression, verbatim, at
    the plain nonterminal of its type, weighted sigma * 2^(-depth): the
    enumerator then reaches small variations of the broken term early."""
    if sigma <= 0:
        raise RepairError(f"similar-term weight sigma must be positive, got {sigma}")
    prods = []
    for i, (path, s) in enumerate(iter_subexprs(broken)):
        rtype = Nonterminal(type_of(s, scope))
        weight = sigma * 2.0 ** (-len(path))
        prods.append(RawProduction(f"sim{i}", weight, frozenset(), (), (), rtype, s))
    return merge_grammar_files([base, GrammarFile((), tuple(prods))])


# ---------------------------------------------------------------------------
# Location problems


def location_problem(fn: FunctionDef, path: tuple[int, ...]) -> SynthesisProblem:
    """The synthesis problem for one fault location: inputs are the function
    parameters, the path condition conjoins the precondition with each
    enclosing if-branch guard along the path, and the postcondition is
    rewritten so the function result is the body with the location's
    subexpression replaced by the problem's output variable."""
    if fn.ensures is None:
        raise RepairError(f"def {fn.name} has no (ensures ...) contract")
    guards: list[Expr] = [] if fn.requires is None else [fn.requires]
    node = fn.body
    for idx in path:
        if isinstance(node, Ite) and idx == 1:
            guards.append(node.cond)
        elif isinstance(node, Ite) and idx == 2:
            guards.append(Not(node.cond))
        node = children(node)[idx]
    out_type = type_of(node, fn.scope)
    body_with_out = replace_at(fn.body, path, Var(RESULT_NAME))
    phi = subst_var(fn.ensures, RESULT_NAME, body_with_out)
    return SynthesisProblem(
        fn.params, RESULT_NAME, out_type, conjoin(guards), phi
    ).validate()


# ---------------------------------------------------------------------------
# The repair loop


@dataclass
class RepairAttempt:
    path: tuple[int, ...]
    grammar: str  # "similar" | "plain"
    result: CegisResult | None
    note: str = ""


@dataclass
class RepairResult:
    success: bool
    program: CorpusProgram
    function: str
    location: tuple[int, ...] | None
    replacement: Expr | None
    attempts: tuple[RepairAttempt, ...]
    tests: int
    failing: int
    reason: str
    wall_time: float = 0.0  # seconds for the whole repair call

    @property
    def synthesis_calls(self) -> int:
        return len(self.attempts)

    @property
    def dequeued(self) -> int:
        return sum(a.result.stats.dequeued for a in self.attempts if a.result is not None)


@lru_cache(maxsize=1)
def _builtin_base() -> GrammarFile:
    return parse_grammar_file(DEFAULT_GRAMMAR_TEXT)


def repair(
    task: RepairTask,
    base: GrammarFile | None = None,
    mode: PriorityMode | None = None,
    *,
    use_similar: bool = True,
    bias_depth: int = 1,
    bias_multiplier: float = 5.0,
    sigma: float = 20.0,
    int_bound: int = DEFAULT_INT_BOUND,
    list_bound: int = DEFAULT_LIST_BOUND,
    max_points: int = DEFAULT_VERIFY_POINTS,
    max_dequeues: int = DEFAULT_SEARCH_DEQUEUES,
    timeout_s: float | None = DEFAULT_SEARCH_SECONDS,
    max_locations: int | None = None,
    max_seed_points: int = 8,
    trace=None,
) -> RepairResult:
    """Try fault locations in localization order; at each, synthesize a
    replacement with the similar-term grammar first and the plain grammar on
    failure, splice it in, and accept iff the regenerated tests all pass.
    The plain grammar is the base (built-in when None) merged with a
    local-bias extraction of the program under repair. The result's
    wall_time covers the whole call."""
    t0 = time.monotonic()
    fn = task.program.find(task.function)
    if fn is None:
        raise RepairError(f"function {task.function} not found")
    bounds = dict(int_bound=int_bound, list_bound=list_bound, max_points=max_points)
    suite = generate_tests(fn, task.test_envs(), **bounds)
    attempts: list[RepairAttempt] = []

    def finish(success, program, location, replacement, reason):
        return RepairResult(
            success, program, task.function, location, replacement, tuple(attempts),
            len(suite.points), len(suite.failing), reason, time.monotonic() - t0,
        )

    if not suite.failing:
        return finish(True, task.program, None, None, "every test passes; nothing to repair")

    plain = merge_grammar_files(
        [base if base is not None else _builtin_base(),
         extract_local_bias(task.program, bias_depth, bias_multiplier)]
    )
    locations = localize(fn, suite.failing)
    if max_locations is not None:
        locations = locations[:max_locations]

    for path in locations:
        problem = location_problem(fn, path)
        grammars = []
        if use_similar:
            broken = get_at(fn.body, path)
            grammars.append(("similar", similar_term_grammar(broken, plain, fn.scope, sigma)))
        grammars.append(("plain", plain))
        spliced = None
        for label, gf in grammars:
            try:
                g = normalize(desugar(gf, problem.scope, seed_types=(problem.output_type,)))
                seeds = [
                    a for a in suite.failing if evaluate(problem.pc, a) == TRUE_V
                ][:max_seed_points]
                res = cegis(
                    problem, g, mode,
                    int_bound=int_bound, list_bound=list_bound, max_points=max_points,
                    max_dequeues=max_dequeues, timeout_s=timeout_s,
                    seed_points=seeds, trace=trace,
                )
            except GrammarError as err:
                attempts.append(RepairAttempt(path, label, None, str(err)))
                continue
            attempts.append(RepairAttempt(path, label, res, res.reason))
            if res.success:
                spliced = res.expr
                break
        if spliced is None:
            continue
        candidate = replace(fn, body=replace_at(fn.body, path, spliced))
        if not generate_tests(candidate, task.test_envs(), **bounds).failing:
            return finish(
                True, replace_function(task.program, candidate), path, spliced,
                f"repaired at {path or 'the body root'}: {to_sexpr(spliced)}",
            )
    return finish(
        False, task.program, None, None,
        f"no location yielded a repair passing every test; tried {len(locations)} location(s)",
    )
