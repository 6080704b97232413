"""Run one workload of the pgsynth benchmark and print its metrics.

    python3 perfbench/run.py --workload synth --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout. The run sets up (imports pgsynth and
generates the workload's operations from the seed) several times, then runs
at least one whole pass over the operations, in one process and one
thread, and another as long as it is expected to end within --seconds.
Every pass runs the same operations, so every answer and count is the same
in each. Each operation is timed from outside the program and its answer
checked afterwards by checks.py. One row per operation goes to standard
output, then, as the last line, a JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, and with
--trace 1 the per-layer metrics of a run with spans around pgsynth's
functions (spans.py). Rows, result and spans are also written under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import collections
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import workloads  # noqa: E402  (needs the paths above)

SETUPS = 15  # set-ups per run; setup_s is their median
MODULES = ("cegis", "enumerate", "repair", "grammarfile", "grammar", "corpus", "sexpr", "lang")


def set_up(workload: str, seed: int):
    """Import pgsynth afresh and generate the operations. Returns the
    modules, the operations and the seconds it took."""
    for name in [m for m in sys.modules if m == "pgsynth" or m.startswith("pgsynth.")]:
        del sys.modules[name]
    gc.collect()  # the last set-up's modules, outside the time
    t0 = time.perf_counter()
    pg = {m: importlib.import_module(f"pgsynth.{m}") for m in MODULES}
    ops = workloads.make_ops(workload, seed)
    return pg, ops, time.perf_counter() - t0


def run_op(pg, op: workloads.Op):
    """One operation, from text to result: parse, build the grammar, then
    cegis or repair. Every budget is a dequeue budget (timeout_s=None)."""
    if op.kind == "synth":
        gfile = pg["grammarfile"]
        problem = pg["cegis"].parse_problem(op.text)
        gf = gfile.parse_grammar_file(op.spec.grammar or gfile.DEFAULT_GRAMMAR_TEXT)
        rules = gfile.desugar(gf, problem.scope, seed_types=(problem.output_type,))
        g = pg["grammar"].normalize(rules)
        return pg["cegis"].cegis(problem, g, timeout_s=None)
    t = op.spec
    repair = pg["repair"]
    task = repair.parse_task(op.text, workloads.PROGRAMS_DIR)
    base = pg["grammarfile"].parse_grammar_file(pg["grammarfile"].DEFAULT_GRAMMAR_TEXT)
    budget = {} if t.max_dequeues is None else {"max_dequeues": t.max_dequeues}
    return repair.repair(
        task, base, int_bound=workloads.INT_BOUND, list_bound=t.list_bound,
        timeout_s=None, **budget,
    )


def summary(op: workloads.Op, res) -> dict:
    """The counts of one result, from the result objects: a synth result's
    CegisResult, or those of a repair's attempts."""
    if op.kind == "synth":
        runs, attempts = [res], 0
    else:
        runs = [a.result for a in res.attempts if a.result is not None]
        attempts = res.synthesis_calls
    keys = ("dequeued", "pruned", "expanded", "pushed", "dup_dropped", "verify_points")
    out = {k: sum(getattr(r.stats, k) for r in runs) for k in keys}
    out["iterations"] = sum(r.iterations for r in runs)
    out["attempts"] = attempts
    return out


def check(checks, pg, op: workloads.Op, res) -> str | None:
    if op.kind == "synth":
        return checks.check_synth(op.spec, op.envs, res.expr)
    emit = pg["corpus"].emit_program
    replacement = None if res.replacement is None else pg["lang"].to_sexpr(res.replacement)
    return checks.check_repair(
        op.spec, op.spec.program_file.read_text(encoding="utf-8"),
        emit(res.program), res.location, replacement,
    )


def answer_key(pg, op, res) -> tuple:
    """What must be the same in every pass."""
    to_sexpr = pg["lang"].to_sexpr
    if op.kind == "synth":
        expr = None if res.expr is None else to_sexpr(res.expr)
        return (res.success, expr, res.stats.dequeued, res.iterations)
    rep = None if res.replacement is None else to_sexpr(res.replacement)
    return (res.success, res.location, rep, res.dequeued)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    setups = []
    for _ in range(SETUPS):
        try:
            pg, ops, dt = set_up(args.workload, args.seed)
        except ModuleNotFoundError as err:
            print(f"cannot import pgsynth from {ROOT / 'src'}: {err}", file=sys.stderr)
            return 2
        setups.append(dt)
    if not Path(pg["cegis"].__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"pgsynth was imported from {pg['cegis'].__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    import checks  # binds the modules of the last set-up, untraced

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer, pg)

    # per pass, per operation: (seconds, counts or None when it raised,
    # answer key or error); the first pass's results go to the checks
    passes: list[list[tuple[float, dict | None, tuple]]] = []
    first: list = []
    measured = 0.0
    while not passes or measured * (len(passes) + 1) / len(passes) <= args.seconds:
        rows = []
        for i, op in enumerate(ops):
            gc.collect()
            if tracer is not None:
                tracer.op_id = len(passes) * len(ops) + i
            t0 = time.perf_counter()
            try:
                res = run_op(pg, op)
            except Exception as err:  # a failed operation; the run goes on
                res = None
                error = (type(err).__name__, str(err))
                if not passes:
                    traceback.print_exc()
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.op_id = -1
            measured += dt
            if not passes:
                first.append(res)
            if res is None:
                rows.append((dt, None, error))
            else:
                rows.append((dt, summary(op, res), answer_key(pg, op, res)))
        passes.append(rows)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # checks: the same answer in every pass, and the first pass's answers
    # right by the independent checks
    problems = []
    failed_ops = set()
    for i, op in enumerate(ops):
        keys = {rows[i][2] for rows in passes}
        res = first[i]
        if res is None or not res.success:
            failed_ops.add(i)
            continue
        if len(keys) != 1:
            problems.append(f"{op.name}: answers differ between passes: {sorted(map(str, keys))}")
            continue
        why = check(checks, pg, op, res)
        if why is not None:
            problems.append(f"{op.name}: {why}")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    row_list = []
    for i, op in enumerate(ops):
        _, counts, key = passes[0][i]
        row = {"op": op.name, "success": i not in failed_ops}
        if counts is None:
            row["error"] = ": ".join(key)
        else:
            row.update(
                iterations=counts["iterations"], dequeues=counts["dequeued"],
                verify_points=counts["verify_points"],
            )
        row["seconds"] = statistics.median(rows[i][0] for rows in passes)
        row_list.append(row)
        print(json.dumps(row))
    for p in problems:
        print("CHECK FAILED " + p, file=sys.stderr)

    n_pass = len(passes)
    if tracer is None:
        # each operation's median over the passes, so that a pass slowed by
        # other work on the host moves the figures less
        op_times = [row["seconds"] for row in row_list]
        dequeues = sum(r[1]["dequeued"] for r in passes[0] if r[1] is not None)
        metrics = {
            "wall_s": {"value": sum(op_times), "unit": "s"},
            "op_s_gmean": {"value": statistics.geometric_mean(op_times), "unit": "s"},
            "dequeues": {"value": dequeues, "unit": "count"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        totals = collections.Counter()
        for rows in passes:
            for _, counts, _ in rows:
                totals.update(counts or {})
        metrics = spans.per_layer(tracer, totals, n_pass)
        tracer.dump(out_dir / f"spans-{tag}.json")

    result = {
        "correct": not problems,
        "attempted": len(ops) * n_pass,
        "failed": len(failed_ops) * n_pass,
        "metrics": metrics,
    }
    with open(out_dir / f"run-{tag}.json", "w", encoding="utf-8") as f:
        json.dump({"rows": row_list, "passes": n_pass, "problems": problems, "result": result}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
