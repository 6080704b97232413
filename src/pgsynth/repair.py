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
    Point,
    SynthesisProblem,
    bounded_points,
    cegis,
    check_bounds,
    check_point,
    conjoin,
    domain_size,
)
from .corpus import (
    RESULT_NAME,
    CorpusProgram,
    FunctionDef,
    extract_local_bias,
    load_program,
    replace_function,
)
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
    binding,
    children,
    compile_expr,
    compile_trace,
    expr_size,
    get_at,
    iter_subexprs,
    replace_at,
    subst_var,
    to_sexpr,
    type_of,
    value_str,
)
from .sexpr import SexprError, Symbol


class RepairError(LangError):
    """Malformed repair task or configuration."""


# repair's grammars weigh the broken term's subtrees SIMILAR_SIGMA * 2^(-depth)
# (similar_term_grammar) and scale the program's own kind counts by
# LOCAL_BIAS_MULTIPLIER (extract_local_bias); failing tests seed each search
SIMILAR_SIGMA = 20.0
LOCAL_BIAS_MULTIPLIER = 5.0
MAX_SEED_POINTS = 8


def _point_key(env: Point) -> frozenset:
    """A hashable key equal for two points iff the dicts are equal."""
    return frozenset(env.items())


@dataclass(frozen=True)
class RepairTask:
    program: CorpusProgram
    function: str
    tests: tuple[tuple[tuple[str, Value], ...], ...] = ()


# ---------------------------------------------------------------------------
# Task files


def parse_task(text: str, program_dir=".") -> RepairTask:
    """Parse `(repair (program "path") (function name) (tests ((a -3)) ...))`.
    The program path is resolved relative to program_dir. Test values are
    literals: int or bool atoms, (nil T), or cons of literals."""
    try:
        clauses = sexpr.clauses(
            sexpr.parse_one(text), "repair", ("program", "function"), ("tests",)
        )
        prog_clause = clauses["program"]
        if len(prog_clause) != 1 or not sexpr.is_string(prog_clause[0]):
            raise SexprError('program clause must be (program "path")')
        if len(clauses["function"]) != 1 or not isinstance(clauses["function"][0], Symbol):
            raise SexprError("function clause must be (function name)")
        path = Path(program_dir) / prog_clause[0]
        program = load_program(path)
        function = str(clauses["function"][0])
        fn = program.find(function)
        if fn is None:
            raise RepairError(f"function {function} not found in {path}")
        tests = tuple(_parse_test(t, fn) for t in clauses.get("tests", []))
    except (SexprError, LangError) as err:
        raise RepairError(str(err)) from None
    return RepairTask(program, function, tests)


def _parse_test(form, fn: FunctionDef) -> tuple[tuple[str, Value], ...]:
    if not isinstance(form, list):
        raise SexprError(f"test must be ((name value) ...), got {sexpr.write(form)}")
    bindings: dict[str, Value] = {}
    for b in form:
        name, value = binding(b, "test")
        if name in bindings:
            raise RepairError(f"test binds {name} twice")
        bindings[name] = value
    check_point(RepairError, bindings, fn.params, "test", f"the parameters of {fn.name}")
    return tuple((n, bindings[n]) for n, _ in fn.params)


def load_task(path) -> RepairTask:
    return parse_task(sexpr.read_file(path, RepairError, "task"), Path(path).parent)


# ---------------------------------------------------------------------------
# Test generation


@dataclass(frozen=True)
class TestSuite:
    points: tuple[Point, ...]  # user tests first, then generated, all pre-satisfying
    failing: tuple[Point, ...]


def _failing(fn: FunctionDef, points) -> tuple[Point, ...]:
    """The points on which fn's body breaks its postcondition."""
    body, ensures = compile_expr(fn.body), compile_expr(fn.ensures)
    out = []
    for env in points:
        post = dict(env)
        post[RESULT_NAME] = body(env)
        if ensures(post) != TRUE_V:
            out.append(env)
    return tuple(out)


def generate_tests(
    fn: FunctionDef,
    user_tests=(),
    int_bound: int = DEFAULT_INT_BOUND,
    list_bound: int = DEFAULT_LIST_BOUND,
    max_points: int = DEFAULT_VERIFY_POINTS,
) -> TestSuite:
    """Bounded-exhaustive inputs satisfying the precondition, classified
    into passing and failing by evaluating the body against the
    postcondition. User tests come first; each must bind exactly the
    parameters, with values of their types, and satisfy the precondition."""
    if fn.ensures is None:
        raise RepairError(f"def {fn.name} has no (ensures ...) contract")
    check_bounds(RepairError, int_bound=int_bound, list_bound=list_bound, max_points=max_points)
    pre = None if fn.requires is None else compile_expr(fn.requires)
    total = math.prod(domain_size(t, int_bound, list_bound) for _, t in fn.params)
    if total > max_points:
        raise RepairError(
            f"test domain for {fn.name} has {total} valuations, over the budget of {max_points}"
        )
    points: list[Point] = []
    user_keys: set[frozenset] = set()
    for raw in user_tests:
        env = check_point(RepairError, raw, fn.params, "user test", f"the parameters of {fn.name}")
        if pre is not None and pre(env) != TRUE_V:
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
        if pre is not None and pre(env) != TRUE_V:
            continue
        if _point_key(env) not in user_keys:
            points.append(env)
    if not points:
        raise RepairError("vacuous contract: no bounded input satisfies the precondition")
    return TestSuite(tuple(points), _failing(fn, points))


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
    trace = compile_trace(fn.body)
    for env in failing:
        _, visited = trace(env)
        common = visited if common is None else common & visited
    nodes = list(iter_subexprs(fn.body))
    nodes.sort(key=lambda pe: (pe[0] not in common, expr_size(pe[1]), pe[0]))
    return tuple(path for path, _ in nodes)


# ---------------------------------------------------------------------------
# Similar-term grammar


def similar_term_grammar(
    broken: Expr, base: GrammarFile, scope: dict, sigma: float = SIMILAR_SIGMA
) -> GrammarFile:
    """Add one production per subtree of the broken expression, verbatim, at
    the plain nonterminal of its type, weighted sigma * 2^(-depth): the
    enumerator then reaches small variations of the broken term early."""
    if not 0 < sigma < math.inf:
        raise RepairError(f"similar-term weight sigma must be positive and finite, got {sigma}")
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
    grammar: str  # "similar", or "plain" under use_similar=False
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
    *,
    use_similar: bool = True,
    int_bound: int = DEFAULT_INT_BOUND,
    list_bound: int = DEFAULT_LIST_BOUND,
    max_points: int = DEFAULT_VERIFY_POINTS,
    max_dequeues: int = DEFAULT_SEARCH_DEQUEUES,
    timeout_s: float | None = DEFAULT_SEARCH_SECONDS,
    max_locations: int | None = None,
    trace=None,
) -> RepairResult:
    """Try fault locations in localization order; at each, run one search
    for a replacement, splice it in, and accept iff the result passes every
    test of the suite. The search uses the similar-term grammar, or the
    plain grammar under use_similar=False. The plain grammar is the base
    (built-in when None) merged with a local-bias extraction of the program
    under repair; the similar-term grammar only adds to it, so its language
    contains the plain one. The result's wall_time covers the whole call."""
    t0 = time.monotonic()
    # generate_tests checks the bounds and max_points; the search budgets are
    # checked here, so that cegis's ProblemError does not escape repair
    check_bounds(
        RepairError, max_locations=max_locations, max_dequeues=max_dequeues, timeout_s=timeout_s
    )
    fn = task.program.find(task.function)
    if fn is None:
        raise RepairError(f"function {task.function} not found")
    suite = generate_tests(fn, task.tests, int_bound, list_bound, max_points)
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
         extract_local_bias(task.program, LOCAL_BIAS_MULTIPLIER)]
    )
    locations = localize(fn, suite.failing)
    if max_locations is not None:
        locations = locations[:max_locations]

    for path in locations:
        problem = location_problem(fn, path)
        pc = compile_expr(problem.pc)
        seeds = [a for a in suite.failing if pc(a) == TRUE_V][:MAX_SEED_POINTS]
        label, gf = "plain", plain
        if use_similar:
            label, gf = "similar", similar_term_grammar(get_at(fn.body, path), plain, fn.scope)
        try:
            g = normalize(desugar(gf, problem.scope, seed_types=(problem.output_type,)))
            res = cegis(
                problem, g,
                int_bound=int_bound, list_bound=list_bound, max_points=max_points,
                max_dequeues=max_dequeues, timeout_s=timeout_s,
                seed_points=seeds, trace=trace,
            )
        except GrammarError as err:
            attempts.append(RepairAttempt(path, label, None, str(err)))
            continue
        attempts.append(RepairAttempt(path, label, res, res.reason))
        if not res.success:
            continue
        # the candidate keeps fn's parameters and contract, so generate_tests
        # would make the suite's points for it again
        candidate = replace(fn, body=replace_at(fn.body, path, res.expr))
        if not _failing(candidate, suite.points):
            return finish(
                True, replace_function(task.program, candidate), path, res.expr,
                f"repaired at {path or 'the body root'}: {to_sexpr(res.expr)}",
            )
    return finish(
        False, task.program, None, None,
        f"no location yielded a repair passing every test; tried {len(locations)} location(s)",
    )
