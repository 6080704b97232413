"""Counterexample-guided inductive synthesis.

A synthesis problem asks for an expression t over the inputs such that
pc => spec[x -> t] holds for every input valuation. The driver alternates two
phases over a growing finite point set A: the search phase enumerates grammar
productions best-first and returns the first candidate satisfying the
implication on every point of A; the verification phase checks the candidate
on all bounded inputs satisfying pc and either accepts it or produces a
counterexample point that is added to A.

Verification is bounded-exhaustive: integers range over [-B, B] and lists
over lengths <= L, scanned in increasing total magnitude with a lexicographic
tie-break, so results are deterministic and "valid" means valid within
bounds. Each domain is ordered once per (input types, bounds) per process and
kept for later scans. A is seeded from the problem's input/output examples,
which also become conjuncts of the specification; the scan evaluates those
conjuncts only on the examples' own inputs, where they can be false.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from functools import cached_property

from . import sexpr
from .sexpr import SexprError
from .enumerate import (
    Enumerator,
    EnumStats,
    IndistRewriter,
    PriorityMode,
    astar_score,
)
from .grammar import Pcfg
from .lang import (
    BOOL,
    FALSE_V,
    TRUE_V,
    And,
    BoolLit,
    BoolType,
    BoolV,
    Eq,
    Expr,
    IntType,
    IntV,
    Ite,
    LangError,
    ListType,
    ListV,
    Type,
    Value,
    Var,
    binding,
    compile_expr,
    compile_partial,
    evaluate,
    expr_from_sexpr,
    is_complete,
    literal_value,
    partial_eval,
    type_is_ground,
    type_of,
    type_str,
    typed_name,
    value_str,
    value_to_expr,
)

DEFAULT_SEARCH_DEQUEUES = 200_000
DEFAULT_SEARCH_SECONDS = 10.0
DEFAULT_INT_BOUND = 8
DEFAULT_LIST_BOUND = 4
DEFAULT_VERIFY_POINTS = 200_000

TRUE = BoolLit(True)


class ProblemError(LangError):
    pass


def check_bounds(error: type[LangError], **bounds: float | None) -> None:
    """Raise error naming the first bound below zero or NaN; None is no
    bound. A negative domain bound would make verification scan no point
    and pass, and a negative budget would read as an exhausted one."""
    for name, n in bounds.items():
        if n is not None and not n >= 0:
            raise error(f"{name} must be at least 0, got {n}")


def check_point(error: type[LangError], point, params, what: str, whose: str) -> dict[str, Value]:
    """point as a fresh dict. Raise error, naming the point as what, when it
    is not a mapping (or pairs) that binds exactly the names of params,
    (name, type) pairs listed as whose, or when a value does not fit its
    name's type."""
    try:
        env = dict(point)
    except (TypeError, ValueError):
        env = None
    if env is None or env.keys() != {n for n, _ in params}:
        raise error(
            f"{what} must bind exactly {whose}: {', '.join(n for n, _ in params) or '(none)'}"
        )
    for n, t in params:
        if not value_fits(env[n], t):
            raise error(f"{what} value for {n} does not fit {type_str(t)}")
    return env


def conjoin(exprs) -> Expr:
    """Balanced conjunction, the larger half on the left, so n conjuncts nest
    about log2(n) deep: (and (and a b) c). And yields its first non-true
    operand from the left under any association, so the shape changes no
    value. An empty list is true."""
    exprs = list(exprs)
    if not exprs:
        return TRUE

    def build(lo: int, hi: int) -> Expr:
        if hi - lo == 1:
            return exprs[lo]
        mid = (lo + hi + 1) // 2
        return And(build(lo, mid), build(mid, hi))

    return build(0, len(exprs))


def value_fits(v: Value, t: Type) -> bool:
    match v, t:
        case IntV(_), IntType():
            return True
        case BoolV(_), BoolType():
            return True
        case ListV(items), ListType(elem):
            return all(value_fits(i, elem) for i in items)
    return False


@dataclass(frozen=True)
class IoExample:
    """One input/output example: bindings for every input, expected output."""

    bindings: tuple[tuple[str, Value], ...]
    expected: Value

    def env(self) -> dict[str, Value]:
        return dict(self.bindings)


@dataclass(frozen=True)
class SynthesisProblem:
    inputs: tuple[tuple[str, Type], ...]
    output_name: str
    output_type: Type
    pc: Expr = TRUE
    spec: Expr = TRUE
    examples: tuple[IoExample, ...] = ()
    grammar_ref: str | None = None

    @property
    def scope(self) -> dict[str, Type]:
        return dict(self.inputs)

    @cached_property
    def full_spec(self) -> Expr:
        """spec plus the examples desugared into conjuncts: an example with
        bindings a=2 and expected 2 contributes (a = 2) => (x = 2)."""
        conjuncts = [self.spec] if self.spec != TRUE else []
        for ex in self.examples:
            types = self.scope
            cond = conjoin(
                Eq(Var(n), value_to_expr(v, types[n])) for n, v in ex.bindings
            )
            holds = Eq(Var(self.output_name), value_to_expr(ex.expected, self.output_type))
            conjuncts.append(Ite(cond, holds, TRUE))
        return conjoin(conjuncts)

    @cached_property
    def implication(self) -> Expr:
        """pc => full_spec with the output variable still free."""
        return Ite(self.pc, self.full_spec, TRUE)

    def validate(self) -> "SynthesisProblem":
        names = [n for n, _ in self.inputs]
        if len(set(names)) != len(names):
            raise ProblemError("duplicate input name")
        if self.output_name in names:
            raise ProblemError(f"output {self.output_name} shadows an input")
        for n, t in list(self.inputs) + [(self.output_name, self.output_type)]:
            if not type_is_ground(t):
                raise ProblemError(f"{n} has non-ground type {type_str(t)}")
        for what, e in (("path condition", self.pc), ("spec", self.spec)):
            if not is_complete(e):
                raise ProblemError(f"{what} contains a hole")
        scope = self.scope
        try:
            pc_t = type_of(self.pc, scope)
        except LangError as err:
            raise ProblemError(f"path condition: {err}") from err
        if pc_t != BOOL:
            raise ProblemError(f"path condition has type {type_str(pc_t)}, not Bool")
        try:
            spec_t = type_of(self.spec, {**scope, self.output_name: self.output_type})
        except LangError as err:
            raise ProblemError(f"spec: {err}") from err
        if spec_t != BOOL:
            raise ProblemError(f"spec has type {type_str(spec_t)}, not Bool")
        for ex in self.examples:
            if sorted(n for n, _ in ex.bindings) != sorted(names):
                raise ProblemError("example must bind exactly the input names")
            for n, v in list(ex.bindings) + [(self.output_name, ex.expected)]:
                t = scope.get(n, self.output_type)
                if not value_fits(v, t):
                    raise ProblemError(
                        f"example value {value_str(v)} does not fit {n}: {type_str(t)}"
                    )
            if evaluate(self.pc, ex.env()) != TRUE_V:
                bound = " ".join(f"{n}={value_str(v)}" for n, v in ex.bindings)
                raise ProblemError(f"example ({bound}) violates the path condition")
        return self


# ---------------------------------------------------------------------------
# Problem files


def _example(form) -> IoExample:
    seps = [i for i, f in enumerate(form) if sexpr.is_symbol(f, "=>")] if isinstance(form, list) else []
    if not seps:
        raise SexprError(f"example must be ((name value) ... => expected), got {sexpr.write(form)}")
    if seps[0] != len(form) - 2:
        raise SexprError("example needs exactly one expected value after =>")
    return IoExample(tuple(binding(b, "example") for b in form[: seps[0]]), literal_value(form[-1]))


def parse_problem(text: str) -> SynthesisProblem:
    """Parse `(problem (inputs (a Int) ...) (output x Int) (pc e) (spec e)
    (examples ((a 2) => 2) ...) (grammar "path"))`. pc/spec/examples/grammar
    are optional; the result is validated. Example values are literals: int
    or bool atoms, (nil T), or cons of literals."""
    try:
        clauses = sexpr.clauses(
            sexpr.parse_one(text), "problem", ("output",),
            ("inputs", "pc", "spec", "examples", "grammar"),
        )
        if len(clauses["output"]) != 2:
            raise SexprError("output clause must be (output name Type)")
        for name in ("pc", "spec"):
            if name in clauses and len(clauses[name]) != 1:
                raise SexprError(f"{name} clause takes exactly one expression")
        inputs = tuple(typed_name(f, "input") for f in clauses.get("inputs", []))
        out_name, out_type = typed_name(clauses["output"], "output")
        pc = expr_from_sexpr(clauses["pc"][0]) if "pc" in clauses else TRUE
        spec = expr_from_sexpr(clauses["spec"][0]) if "spec" in clauses else TRUE
        examples = tuple(_example(f) for f in clauses.get("examples", []))
        grammar_ref = None
        if "grammar" in clauses:
            if len(clauses["grammar"]) != 1 or not sexpr.is_string(clauses["grammar"][0]):
                raise SexprError('grammar clause must be (grammar "path")')
            grammar_ref = clauses["grammar"][0]
    except (SexprError, LangError) as err:
        raise ProblemError(str(err)) from None
    return SynthesisProblem(
        inputs, out_name, out_type, pc, spec, examples, grammar_ref
    ).validate()


def load_problem(path) -> SynthesisProblem:
    return parse_problem(sexpr.read_file(path, ProblemError, "problem"))


# ---------------------------------------------------------------------------
# Point checks

Point = dict[str, Value]


def point_outcomes(problem: SynthesisProblem, e: Expr, points, memo=None):
    """Partially evaluate pc => spec[x -> e] on each point; yields a definite
    Value, an ErrV or the UNKNOWN marker per point. Binding x to the
    candidate's partial value is equivalent to substituting the candidate
    for x, so the outcome depends on the candidate only through that value.
    memo holds one dict per point, from the candidate's partial value to the
    outcome: the candidate is compiled once per call and run on each point,
    and the implication is evaluated once per point and distinct value.
    search shares one memo among all its point checks; without one, a fresh
    memo serves this call alone."""
    if memo is None:
        points = list(points)
        memo = [{} for _ in points]
    imp = problem.implication
    x = problem.output_name
    run = compile_partial(e)
    for a, seen in zip(points, memo, strict=True):
        v = run(a)
        out = seen.get(v)
        if out is None:
            env = dict(a)
            env[x] = v
            out = seen[v] = partial_eval(imp, env)
        yield out


def satisfied_count(problem: SynthesisProblem, t: Expr, points, memo=None) -> int:
    """Number of points on which the complete candidate t satisfies the
    implication (an error value from t fails the point unless pc is false).
    memo is as for point_outcomes."""
    return list(point_outcomes(problem, t, points, memo)).count(TRUE_V)


def make_prune(problem: SynthesisProblem, points, memo=None):
    """Discard a (partial) production iff the implication partially evaluates
    to a definite false on some point: no completion can recover. Outcomes
    come from memo, one dict per point keyed by the candidate's partial value
    (see point_outcomes). search passes the memo its other checks share, and
    its own list of points, which the check then reads as it is; without a
    memo the check copies the points and makes a memo of its own."""
    if memo is None:
        points = list(points)
        memo = [{} for _ in points]

    def prune(e: Expr) -> bool:
        return FALSE_V in point_outcomes(problem, e, points, memo)

    return prune


def make_score(problem: SynthesisProblem, points, memo=None):
    """Count the points on which the implication is already definitely true.
    Outcomes come from memo, and points are shared or copied, as for
    make_prune."""
    if memo is None:
        points = list(points)
        memo = [{} for _ in points]

    def score(e: Expr) -> int:
        return list(point_outcomes(problem, e, points, memo)).count(TRUE_V)

    return score


# ---------------------------------------------------------------------------
# Search phase


@dataclass
class SearchResult:
    expr: Expr | None
    stats: EnumStats
    best: Expr | None = None  # most points satisfied among rejected candidates
    best_satisfied: int = 0
    budget_hit: bool = False
    exhausted: bool = False


def search(
    problem: SynthesisProblem,
    g: Pcfg,
    points,
    mode: PriorityMode | None = None,
    *,
    max_dequeues: int = DEFAULT_SEARCH_DEQUEUES,
    timeout_s: float | None = DEFAULT_SEARCH_SECONDS,
    trace=None,
) -> SearchResult:
    """Return the first enumerated complete t satisfying the implication on
    every point, or not-found when the budget ends the stream first. Each
    point binds exactly the inputs, with values of their types, and neither
    budget is negative or NaN. With points it builds the prune hook and the
    rewriter, and in astar-score mode the score hook, all over one list of
    the points and one memo; with none the conjunction is vacuous and the
    first emission wins."""
    check_bounds(ProblemError, max_dequeues=max_dequeues, timeout_s=timeout_s)
    mode = mode if mode is not None else astar_score()
    points = [check_point(ProblemError, a, problem.inputs, "point", "the input names") for a in points]
    memo = [{} for _ in points]  # shared by every point check of this search
    start = g.start(problem.output_type)
    score_fn = make_score(problem, points, memo) if points and mode.kind == "astar-score" else None
    en = Enumerator(
        g, start, mode,
        prune=make_prune(problem, points, memo) if points else None,
        score=score_fn,
        rewriter=IndistRewriter(points) if points else None,
        max_dequeues=max_dequeues,
        deadline=None if timeout_s is None else time.monotonic() + timeout_s,
        trace=trace,
    )
    best, best_n = None, 0
    for pp in en:
        # an emitted production is complete, so its score is its satisfied count
        n = pp.score if score_fn is not None else satisfied_count(problem, pp.expr, points, memo)
        if n == len(points):
            return SearchResult(pp.expr, en.stats, best, best_n)
        if n > best_n:
            best, best_n = pp.expr, n
    return SearchResult(
        None, en.stats, best, best_n, budget_hit=en.budget_hit, exhausted=en.exhausted
    )


# ---------------------------------------------------------------------------
# Verification phase


@dataclass(frozen=True)
class VerifyResult:
    status: str  # "valid" | "counterexample" | "unknown"
    point: tuple[tuple[str, Value], ...] | None = None
    reason: str = ""
    scanned: int = 0

    @property
    def valid(self) -> bool:
        return self.status == "valid"

    def point_env(self) -> Point:
        assert self.point is not None
        return dict(self.point)


def bounded_values(t: Type, int_bound: int, list_bound: int) -> list[Value]:
    """Every value of t with integers in [-B, B] and list lengths <= L,
    ordered by (magnitude, tie-break key). An integer's are (|n|, n), a
    boolean's (b, b), and a list's its length plus its items' magnitudes
    and the tuple of its items' keys."""
    vals, key = _keyed_values(t, int_bound, list_bound)
    vals.sort(key=key)
    return vals


def _keyed_values(t: Type, int_bound: int, list_bound: int):
    """Every bounded value of t, in no set order, and the function giving
    each its (magnitude, tie-break key). A list's key reads its items' from
    one table per item type, so no value is walked recursively. Distinct
    values have distinct keys, so the order they sort to is fixed."""
    match t:
        case IntType():
            ints = [IntV(i) for i in range(-int_bound, int_bound + 1)]
            return ints, lambda v: (abs(v.value), v.value)
        case BoolType():
            return [BoolV(False), BoolV(True)], lambda v: (int(v.value), v.value)
        case ListType(elem):
            elems, elem_key = _keyed_values(elem, int_bound, list_bound)
            mag = {e: elem_key(e)[0] for e in elems}.__getitem__
            tie = {e: elem_key(e)[1] for e in elems}.__getitem__

            def list_key(v):
                items = v.items
                return len(items) + sum(map(mag, items)), tuple(map(tie, items))

            vals = [
                ListV(tup)
                for k in range(list_bound + 1)
                for tup in itertools.product(elems, repeat=k)
            ]
            return vals, list_key
    raise ProblemError(f"cannot enumerate values of {type_str(t)}")


def domain_size(t: Type, int_bound: int, list_bound: int) -> int:
    match t:
        case IntType():
            return 2 * int_bound + 1
        case BoolType():
            return 2
        case ListType(elem):
            n = domain_size(elem, int_bound, list_bound)
            return sum(n**k for k in range(list_bound + 1))
    raise ProblemError(f"cannot enumerate values of {type_str(t)}")


_DOMAIN_CACHE_SIZE = 8  # ordered domains kept per process


@functools.lru_cache(maxsize=_DOMAIN_CACHE_SIZE)
def _ordered_domain(
    types: tuple[Type, ...], int_bound: int, list_bound: int
) -> tuple[tuple[Value, ...], ...]:
    """Every valuation of types over the bounded domains, in bounded_points
    order. Memoized; holds only immutable tuples."""
    if len(types) == 1:
        return tuple((v,) for v in bounded_values(types[0], int_bound, list_bound))
    keyed = []
    for t in types:
        vals, key = _keyed_values(t, int_bound, list_bound)
        keyed.append([(*key(v), v) for v in vals])
    combos = sorted(
        itertools.product(*keyed),
        key=lambda c: (sum(m for m, _, _ in c), tuple(k for _, k, _ in c)),
    )
    return tuple(tuple(v for _, _, v in c) for c in combos)


def bounded_points(
    inputs, int_bound: int = DEFAULT_INT_BOUND, list_bound: int = DEFAULT_LIST_BOUND
):
    """All valuations of the inputs over the bounded domains, in increasing
    total magnitude, ties broken lexicographically across the inputs in
    order. Deterministic, so the first counterexample is reproducible. The
    order is computed once per (types, bounds) per process; each point is a
    fresh dict."""
    names = [n for n, _ in inputs]
    for vs in _ordered_domain(tuple(t for _, t in inputs), int_bound, list_bound):
        yield dict(zip(names, vs))


def verify(
    problem: SynthesisProblem,
    t: Expr,
    int_bound: int = DEFAULT_INT_BOUND,
    list_bound: int = DEFAULT_LIST_BOUND,
    max_points: int = DEFAULT_VERIFY_POINTS,
) -> VerifyResult:
    """Bounded-exhaustive check of t, a complete expression of the output
    type over the inputs, against the problem. Scans every bounded
    valuation satisfying pc; the first falsifying point (in the documented
    order) becomes the counterexample. A domain larger than max_points is not
    scanned and reports unknown. The domain's order is computed once per
    (types, bounds) per process (see bounded_points). An example's conjunct
    is true off the example's inputs, and And yields its first non-true
    operand, so full_spec is evaluated only on example inputs and the spec
    alone elsewhere, with the same verdict on every point."""
    check_bounds(ProblemError, int_bound=int_bound, list_bound=list_bound, max_points=max_points)
    try:
        t_type = type_of(t, problem.scope)
    except LangError as err:
        raise ProblemError(f"candidate: {err}") from err
    if t_type != problem.output_type or not is_complete(t):
        raise ProblemError(f"candidate is not a complete {type_str(problem.output_type)} expression")
    total = math.prod(domain_size(ty, int_bound, list_bound) for _, ty in problem.inputs)
    if total > max_points:
        return VerifyResult(
            "unknown", reason=f"{total} candidate points exceed the budget of {max_points}"
        )
    names = [n for n, _ in problem.inputs]
    example_inputs = {tuple(ex.env()[n] for n in names) for ex in problem.examples}
    x = problem.output_name
    pc, run = compile_expr(problem.pc), compile_expr(t)
    spec, full_spec = compile_expr(problem.spec), compile_expr(problem.full_spec)
    scanned = 0
    # `v.__class__ is not BoolV or not v.value` is `v != TRUE_V` without a
    # Python-level __eq__ call per point
    for env in bounded_points(problem.inputs, int_bound, list_bound):
        v = pc(env)
        if v.__class__ is not BoolV or not v.value:
            continue
        scanned += 1
        # bounded_points binds the inputs in order, each point in a fresh dict
        on_example = example_inputs and tuple(env.values()) in example_inputs
        env[x] = run(env)  # a validated problem's output shadows no input
        v = (full_spec if on_example else spec)(env)
        if v.__class__ is not BoolV or not v.value:
            del env[x]
            return VerifyResult(
                "counterexample", point=tuple(env.items()), scanned=scanned
            )
    return VerifyResult("valid", scanned=scanned)


# ---------------------------------------------------------------------------
# Driver


@dataclass
class RunStats(EnumStats):
    iterations: int = 0
    points: int = 0
    verify_points: int = 0
    wall_time: float = 0.0

    def add_enum(self, st: EnumStats) -> None:
        for key, val in st.as_dict().items():
            setattr(self, key, getattr(self, key) + val)


@dataclass
class CegisResult:
    success: bool
    expr: Expr | None
    points: list[Point]
    stats: RunStats
    reason: str = ""
    best_candidate: Expr | None = None

    @property
    def iterations(self) -> int:
        return self.stats.iterations


def cegis(
    problem: SynthesisProblem,
    g: Pcfg,
    mode: PriorityMode | None = None,
    *,
    max_dequeues: int = DEFAULT_SEARCH_DEQUEUES,
    timeout_s: float | None = DEFAULT_SEARCH_SECONDS,
    int_bound: int = DEFAULT_INT_BOUND,
    list_bound: int = DEFAULT_LIST_BOUND,
    max_points: int = DEFAULT_VERIFY_POINTS,
    max_iterations: int = 100,
    seed_points=(),
    trace=None,
) -> CegisResult:
    """Alternate search and verification, growing the point set with each
    counterexample, until a candidate verifies or a phase gives up. The point
    set starts from the examples' input valuations plus seed_points (extra
    valuations the caller already knows matter, e.g. failing tests; they must
    bind exactly the inputs, and satisfy pc or constrain nothing). Each
    search builds its hooks once the set has a point (see search). Each
    iteration adds a point no previous candidate failed, so the loop is
    finite over the bounded verification domain; max_iterations is a safety
    stop."""
    check_bounds(
        ProblemError, int_bound=int_bound, list_bound=list_bound, max_points=max_points,
        max_dequeues=max_dequeues, timeout_s=timeout_s, max_iterations=max_iterations,
    )
    t0 = time.monotonic()
    stats = RunStats()
    points: list[Point] = [ex.env() for ex in problem.examples]
    for seed in seed_points:
        seed = check_point(ProblemError, seed, problem.inputs, "seed point", "the input names")
        if seed not in points:
            points.append(seed)

    def finish(success, expr, reason="", best=None):
        stats.points = len(points)
        stats.wall_time = time.monotonic() - t0
        return CegisResult(success, expr, points, stats, reason, best)

    for _ in range(max_iterations):
        stats.iterations += 1
        sr = search(
            problem, g, points, mode, max_dequeues=max_dequeues, timeout_s=timeout_s, trace=trace
        )
        stats.add_enum(sr.stats)
        if sr.expr is None:
            why = "grammar exhausted" if sr.exhausted else "search budget exhausted"
            return finish(False, None, f"{why} with {len(points)} point(s)", sr.best)
        vr = verify(problem, sr.expr, int_bound, list_bound, max_points)
        stats.verify_points += vr.scanned
        if vr.valid:
            return finish(True, sr.expr)
        if vr.status == "unknown":
            return finish(False, None, f"verification gave up: {vr.reason}", sr.expr)
        cex = vr.point_env()
        assert cex not in points, "counterexample must be a new point"
        points.append(cex)
    return finish(False, None, f"no verified candidate after {max_iterations} iterations")
