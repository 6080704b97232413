"""The benchmark's workloads: synthesis problems and repair tasks, each with
a Python reference, and the seeded generation of their input text.

The seed draws each problem's two input/output examples, and each repair
task's two user tests, uniformly from the bounded domain the program
verifies over, keeping only draws that satisfy the precondition. Expected
values come from the Python reference, never from the program. The program
receives only the generated text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

PROGRAMS_DIR = Path(__file__).resolve().parent / "programs"

INT_BOUND = 8  # cegis.DEFAULT_INT_BOUND
LIST_BOUND = 4  # cegis.DEFAULT_LIST_BOUND

# The five-constant grammar of the nested-conditional problem in the cegis
# tests; every other synthesis problem uses grammarfile.DEFAULT_GRAMMAR_TEXT.
COND_GRAMMAR_TEXT = """\
production 10 [] vInt () -> Int (variable Int)
production 3 [const] five () -> Int 5
production 3 [const] six () -> Int 6
production 3 [const] seven () -> Int 7
production 3 [const] nine () -> Int 9
production 15 [] cond (c Bool) (t Int) (e Int) -> Int (if c t e)
production 1 [eq,commut] eq (u Int) (v Int) -> Bool (= u v)
"""


def _true(*_args) -> bool:
    return True


@dataclass(frozen=True)
class Problem:
    """A synthesis problem. `inputs` pairs names with type text ("Int",
    "Bool" or "(List Int)"); `pc` is the path condition as text (None for
    true) and `pre` the same condition in Python; `ref` maps input values to
    the expected output. `unique` says whether the spec admits only ref's
    answer; when it does not, an answer is checked against the spec."""

    name: str
    inputs: tuple[tuple[str, str], ...]
    output: str
    spec: str
    ref: Callable
    pc: str | None = None
    pre: Callable = _true
    grammar: str | None = None  # None: the default grammar
    unique: bool = True


@dataclass(frozen=True)
class Task:
    """A repair task: a single-fault function in programs/<name>.sexp, its
    parameters, a Python reference and precondition, and the list bound and
    per-search dequeue budget repair runs with; the integer bound is
    INT_BOUND."""

    name: str
    params: tuple[tuple[str, str], ...]
    ref: Callable
    pre: Callable = _true
    list_bound: int = LIST_BOUND
    max_dequeues: int | None = None  # None: cegis.DEFAULT_SEARCH_DEQUEUES

    @property
    def program_file(self) -> Path:
        return PROGRAMS_DIR / f"{self.name}.sexp"


MAX2_SPEC = "(and (and (<= a x) (<= b x)) (if (= x a) true (= x b)))"
MIN2_SPEC = "(and (and (<= x a) (<= x b)) (if (= x a) true (= x b)))"

SYNTH = (
    Problem("max2", (("a", "Int"), ("b", "Int")), "Int", MAX2_SPEC, max),
    Problem("min2", (("a", "Int"), ("b", "Int")), "Int", MIN2_SPEC, min),
    Problem(
        "abs", (("a", "Int"),), "Int",
        "(and (<= 0 x) (if (= x a) true (= x (- 0 a))))", abs,
    ),
    Problem(
        "clamp0", (("a", "Int"),), "Int",
        "(and (and (<= 0 x) (<= a x)) (if (= x a) true (= x 0)))",
        lambda a: max(a, 0),
    ),
    Problem(
        "inrange", (("a", "Int"), ("hi", "Int")), "Bool",
        "(= x (and (<= 0 a) (<= a hi)))", lambda a, hi: 0 <= a <= hi,
    ),
    Problem(
        "plus1sq", (("a", "Int"),), "Int",
        "(= x (* (+ a 1) (+ a 1)))", lambda a: (a + 1) * (a + 1),
    ),
    Problem(
        "sum3", (("a", "Int"), ("b", "Int"), ("c", "Int")), "Int",
        "(= x (+ (+ a b) c))", lambda a, b, c: a + b + c,
    ),
    Problem(
        "xor", (("p", "Bool"), ("q", "Bool")), "Bool",
        "(= x (not (= p q)))", lambda p, q: p != q,
    ),
    Problem(
        "cond", (("a", "Int"),), "Int",
        "(if (= a 5) (= x 6) (if (= a 7) (= x 9) (= x a)))",
        lambda a: 6 if a == 5 else 9 if a == 7 else a,
        grammar=COND_GRAMMAR_TEXT,
    ),
)

L = (("l", "(List Int)"),)


def _nonempty(l) -> bool:
    return len(l) >= 1


def _two_or_more(l) -> bool:
    return len(l) >= 2


LISTS = (
    Problem("len", L, "Int", "(= x (size l))", len),
    Problem(
        "headz", L, "Int", "(= x (if (isEmpty l) 0 (head l)))",
        lambda l: l[0] if l else 0,
    ),
    Problem(
        "sndz", L, "Int", "(= x (head (tail l)))", lambda l: l[1],
        pc="(<= 2 (size l))", pre=_two_or_more,
    ),
    Problem(
        "sum2", L, "Int", "(= x (+ (head l) (head (tail l))))",
        lambda l: l[0] + l[1], pc="(<= 2 (size l))", pre=_two_or_more,
    ),
    Problem(
        "dropone", L, "(List Int)", "(= (+ (size x) 1) (size l))",
        lambda l: l[1:], pc="(not (isEmpty l))", pre=_nonempty, unique=False,
    ),
    Problem(
        "push0", L, "(List Int)",
        "(and (= (size x) (+ (size l) 1)) (= (head x) 0))",
        lambda l: (0,) + l, unique=False,
    ),
)

REPAIR = (
    Task("abs", (("a", "Int"),), abs),
    Task("max2", (("a", "Int"), ("b", "Int")), max),
    Task(
        "clamp", (("a", "Int"), ("hi", "Int")),
        lambda a, hi: 0 if a <= 0 else hi if hi <= a else a,
        pre=lambda a, hi: hi >= 0,
    ),
    Task("dist", (("a", "Int"), ("b", "Int")), lambda a, b: abs(a - b)),
    # list tasks at the reduced length bound and budget of the repair tests
    Task(
        "second", L, lambda l: l[1], pre=lambda l: len(l) == 2,
        list_bound=3, max_dequeues=600,
    ),
    Task(
        "dropcnt", L, lambda l: len(l) - 1, pre=_nonempty,
        list_bound=3, max_dequeues=600,
    ),
)


# ---------------------------------------------------------------------------
# Values and their text


def domain_size(ty: str, list_bound: int) -> int:
    n = 2 * INT_BOUND + 1
    if ty == "Int":
        return n
    if ty == "Bool":
        return 2
    return sum(n**k for k in range(list_bound + 1))


def draw_value(rng: random.Random, ty: str, list_bound: int):
    """A value drawn uniformly from the bounded domain of ty."""
    if ty == "Int":
        return rng.randint(-INT_BOUND, INT_BOUND)
    if ty == "Bool":
        return rng.random() < 0.5
    n = 2 * INT_BOUND + 1
    k = rng.randrange(domain_size(ty, list_bound))
    length = 0
    while k >= n**length:
        k -= n**length
        length += 1
    return tuple(rng.randint(-INT_BOUND, INT_BOUND) for _ in range(length))


def draw_env(rng, params, pre, list_bound) -> dict:
    """Uniform over the bounded valuations that satisfy pre (by rejection)."""
    while True:
        env = {n: draw_value(rng, ty, list_bound) for n, ty in params}
        if pre(*env.values()):
            return env


def literal(v) -> str:
    """The language's literal text for a Python value."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    out = "(nil Int)"
    for item in reversed(v):
        out = f"(cons {literal(item)} {out})"
    return out


# ---------------------------------------------------------------------------
# Operations


@dataclass(frozen=True)
class Op:
    """One operation: `text` is all the program receives, a problem file or
    a repair task file whose program path is relative to PROGRAMS_DIR.
    `envs` are the drawn inputs of its examples or user tests."""

    name: str
    kind: str  # "synth" | "repair"
    text: str
    spec: Problem | Task
    envs: tuple[dict, ...]


def problem_text(p: Problem, examples) -> str:
    inputs = " ".join(f"({n} {ty})" for n, ty in p.inputs)
    pc = f" (pc {p.pc})" if p.pc else ""
    exs = " ".join(
        "(" + " ".join(f"({n} {literal(v)})" for n, v in env.items())
        + f" => {literal(p.ref(*env.values()))})"
        for env in examples
    )
    return (
        f"(problem (inputs {inputs}) (output x {p.output}){pc}"
        f" (spec {p.spec}) (examples {exs}))"
    )


def task_text(t: Task, tests) -> str:
    tests_text = " ".join(
        "(" + " ".join(f"({n} {literal(v)})" for n, v in env.items()) + ")"
        for env in tests
    )
    return (
        f'(repair (program "{t.program_file.name}") (function {t.name})'
        f" (tests {tests_text}))"
    )


WORKLOADS = {"synth": SYNTH, "lists": LISTS, "repair": REPAIR}

# Draws per problem in one pass. On synth the examples decide how many
# counterexample rounds a problem takes, so one draw per problem leaves the
# pass total at the mercy of the seed; eight draws average that out. On lists
# and repair the effort barely depends on the draw.
DRAWS = {"synth": 8, "lists": 1, "repair": 1}


def make_ops(workload: str, seed: int) -> list[Op]:
    """The operations of one pass, in order; the same seed gives the same
    operations."""
    ops = []
    for k in range(DRAWS[workload]):
        for spec in WORKLOADS[workload]:
            rng = random.Random(f"{workload}:{spec.name}:{seed}:{k}")
            if isinstance(spec, Problem):
                envs = tuple(
                    draw_env(rng, spec.inputs, spec.pre, LIST_BOUND)
                    for _ in range(2)
                )
                text, kind = problem_text(spec, envs), "synth"
            else:
                envs = tuple(
                    draw_env(rng, spec.params, spec.pre, spec.list_bound)
                    for _ in range(2)
                )
                text, kind = task_text(spec, envs), "repair"
            ops.append(Op(f"{spec.name}#{k}", kind, text, spec, envs))
    return ops
