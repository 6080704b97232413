"""Self-test of the benchmark's answer checks and inputs:

    python3 -m pytest -q perfbench

Each checker must reject a wrong answer and accept a right one, and the
Python references and preconditions must agree with the text the program
receives, judged by the reference interpreter."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "tests"), str(HERE)]

import pytest  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from oracle import oracle_eval  # noqa: E402
from pgsynth.lang import parse_expr  # noqa: E402
from pgsynth.sexpr import parse_all, parse_one, write  # noqa: E402


def op_named(workload, name):
    return next(op for op in workloads.make_ops(workload, 1) if op.name == name)


def synth_check(workload, name, answer):
    op = op_named(workload, name)
    return checks.check_synth(op.spec, op.envs, parse_expr(answer))


@pytest.mark.parametrize(
    "workload, name, wrong, right",
    [
        ("synth", "max2#0", "a", "(if (<= a b) b a)"),
        ("synth", "xor#0", "(not p)", "(if p (not q) q)"),
        ("lists", "headz#0", "(head l)", "(if (isEmpty l) 0 (head l))"),
        ("lists", "push0#0", "(cons 1 l)", "(cons 0 l)"),
        ("lists", "dropone#0", "l", "(tail l)"),
    ],
)
def test_synth_check_rejects_wrong_and_accepts_right(workload, name, wrong, right):
    assert synth_check(workload, name, wrong) is not None
    assert synth_check(workload, name, right) is None


def test_synth_check_holds_a_spec_answer_to_the_examples():
    # push0's spec admits (cons 0 (cons 0 (tail l))) on nonempty l; the
    # example (3) => (0 3) does not
    p = next(p for p in workloads.LISTS if p.name == "push0")
    answer = parse_expr("(cons 0 (if (isEmpty l) l (cons 0 (tail l))))")
    assert checks.check_synth(p, ({"l": ()},), answer) is None
    assert "reference" in checks.check_synth(p, ({"l": (3,)},), answer)


def test_synth_check_rejects_no_answer():
    op = op_named("synth", "abs#0")
    assert checks.check_synth(op.spec, op.envs, None) == "no answer"


def body_swapped(text, name, body):
    """The program text with the body of `name` replaced."""
    out = []
    for form in parse_all(text):
        if form[1] == name:
            form = form[:-1] + [parse_one(body)]
        out.append(write(form))
    return "\n".join(out)


def test_repair_check_rejects_the_unrepaired_body():
    t = next(t for t in workloads.REPAIR if t.name == "dropcnt")
    before = t.program_file.read_text(encoding="utf-8")
    why = checks.check_repair(t, before, before, (), "(head (tail l))")
    assert why is not None


def test_repair_check_accepts_a_fix_at_its_location():
    t = next(t for t in workloads.REPAIR if t.name == "dropcnt")
    before = t.program_file.read_text(encoding="utf-8")
    after = body_swapped(before, "dropcnt", "(size (tail l))")
    assert checks.check_repair(t, before, after, (), "(size (tail l))") is None
    # the same fix claimed at a deeper location changes more than that subtree
    assert "outside location" in checks.check_repair(t, before, after, (0,), "(size l)")


def test_repair_check_rejects_a_wrong_fix_and_no_fix():
    t = next(t for t in workloads.REPAIR if t.name == "abs")
    before = t.program_file.read_text(encoding="utf-8")
    after = body_swapped(before, "abs", "(if (<= 0 a) a 0)")
    assert "reference" in checks.check_repair(t, before, after, (2,), "0")
    assert checks.check_repair(t, before, before, None, None) == "no repair"


def test_repair_check_rejects_a_changed_contract():
    t = next(t for t in workloads.REPAIR if t.name == "abs")
    before = t.program_file.read_text(encoding="utf-8")
    form = parse_all(before)[0]
    form[-2] = parse_one("(ensures true)")
    form[-1] = parse_one("(if (<= 0 a) a (- 0 a))")
    why = checks.check_repair(t, before, write(form), (2,), "(- 0 a)")
    assert why == "the signature or contract changed"


@pytest.mark.parametrize("p", workloads.SYNTH + workloads.LISTS, ids=lambda p: p.name)
def test_problem_pre_and_ref_agree_with_pc_and_spec(p):
    pc = parse_one(p.pc) if p.pc else None
    spec = parse_one(p.spec)
    names = [n for n, _ in p.inputs]
    envs = checks.inputs_satisfying(p.inputs, lambda *a: True, workloads.LIST_BOUND)
    for env in envs:
        holds = True if pc is None else oracle_eval(pc, env) is True
        assert holds == p.pre(*(env[n] for n in names)), (p.name, env)
        if holds:
            out = dict(env, x=p.ref(*(env[n] for n in names)))
            assert oracle_eval(spec, out) is True, (p.name, env)


@pytest.mark.parametrize("t", workloads.REPAIR, ids=lambda t: t.name)
def test_task_pre_and_ref_agree_with_requires_and_ensures(t):
    form = parse_all(t.program_file.read_text(encoding="utf-8"))[0]
    clauses = {c[0]: c[1] for c in form[5:-1]}
    envs = checks.inputs_satisfying(t.params, lambda *a: True, t.list_bound)
    for env in envs:
        pre = clauses.get("requires")
        holds = True if pre is None else oracle_eval(pre, env) is True
        assert holds == t.pre(*env.values()), (t.name, env)
        if holds:
            out = dict(env, result=t.ref(*env.values()))
            assert oracle_eval(clauses["ensures"], out) is True, (t.name, env)


def test_same_seed_same_operations():
    for w in workloads.WORKLOADS:
        a = [op.text for op in workloads.make_ops(w, 7)]
        assert a == [op.text for op in workloads.make_ops(w, 7)]
        assert a != [op.text for op in workloads.make_ops(w, 8)]
