"""Benchmark of filippov: one workload per run, every output checked.

    python3 bench/run.py --workload census|sweep|cli --seed N --seconds S --trace 0|1

The run first times its set-up: a fresh interpreter that imports
``filippov`` and builds the workload's inputs (``workloads.py`` run as a
script), several times, median reported as ``setup_s``.  Within the next
``--seconds`` it runs the seed's drawn operations once (none at the default
seed), then repeats the workload's operations round-robin, one at a time in
this process (the ``cli`` workload starts one ``python -m filippov`` child
at a time), and checks every output.  ``fail_rate`` is failed operations
over attempted ones, drawn ones included; ``correct`` is false only when an
output the program reported as successful fails its check.

With ``--trace 0`` it prints the end-to-end metrics.  ``pass_s`` is the
time of one pass over the workload's operations, each at the median of its
samples in the run; the named figures below it are printed by name with
their sample counts:

    census  census_k2_s, census_k3_s, census_k4_s, scan_k1_s
    sweep   null_census_s (the k = 2, 3, 4 null censuses), lyapunov_s
    cli     cli_algebra_s (median over the algebraic commands), cli_cycles_s

With ``--trace 1`` it wraps the layers from outside (``tracer.py``),
alternates traced and untraced passes, prints the per-layer metrics of one
pass, and writes spans and counts to ``bench/_work/``.  The last line of
standard output is always one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(1, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from filippov.errors import FilippovError  # noqa: E402
from filippov import IntegratorConfig, displacement, monodromic_family  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 3
# One algebraic command: the median over the commands' medians.  Other
# figures over several operations (the null censuses) sum the medians.
MEDIAN_OF_OPS = {"cli_algebra_s"}
WORKLOADS = ("census", "sweep", "cli")


def machine() -> dict:
    return {"nproc": os.cpu_count(), "cpu": platform.processor()
            or platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}


def time_setup(workload: str, seed: int, env: dict) -> list:
    """Wall seconds of fresh interpreters building the workload's inputs;
    the first, untimed, fills the bytecode cache."""
    argv = [sys.executable, str(BENCH / "workloads.py"), workload, str(seed)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=BENCH.parent, env=env, check=True,
                       timeout=120)
        if i:
            times.append(time.perf_counter() - t0)
    return times


def fresh_import_s(env: dict) -> float:
    """Import time of ``filippov.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import filippov.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH.parent,
                         env=env, check=True, capture_output=True, text=True,
                         timeout=120)
    return float(out.stdout)


class Tally:
    """Operations attempted and failed, and wrong answers."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0

    def run(self, op):
        """Run and check one operation; returns its wall seconds.  A
        ``FilippovError`` is a failure the program reported; any other
        exception, from the program or from reading its output, counts as
        a wrong answer."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op.run()
            took = time.perf_counter() - t0
            problems, claimed = op.check(out)
        except FilippovError as exc:
            took = time.perf_counter() - t0
            problems, claimed = [f"{type(exc).__name__}: {exc}"], False
        except Exception:
            took = time.perf_counter() - t0
            problems, claimed = [traceback.format_exc()], True
        if problems:
            self.failed += 1
            self.wrong += bool(claimed)
            kind = "WRONG" if claimed else "failed"
            print(f"  {kind} {op.name}: {'; '.join(problems)}",
                  file=sys.stderr)
        return took


def warm_up(workload: str) -> None:
    """Let scipy's lazy set-up finish before timing; a cold cli command
    pays it on every call, so that workload skips this."""
    if workload != "cli":
        displacement(monodromic_family(1, 1.0), 0.02, IntegratorConfig())


def timed_passes(ops, deadline: float, tally: Tally) -> dict:
    """Round-robin until ``deadline``, the first pass always complete;
    returns op name -> wall seconds of each run."""
    samples = {op.name: [] for op in ops}
    first = True
    while first or time.perf_counter() < deadline:
        for op in ops:
            if not first and time.perf_counter() >= deadline:
                break
            samples[op.name].append(tally.run(op))
        first = False
    return samples


def percentile_note(values) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    for q in (99, 95, 90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            cut = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
            return f", p{q} {cut:.4f}"
    return ""


def end_to_end(ops, samples, setup) -> dict:
    """name -> (value, samples it came from)."""
    medians = {name: statistics.median(s) for name, s in samples.items()}
    values = {"setup_s": (statistics.median(setup), setup)}
    for metric in dict.fromkeys(op.metric for op in ops):
        names = list(dict.fromkeys(op.name for op in ops
                                   if op.metric == metric))
        per_op = [medians[name] for name in names]
        values[metric] = (statistics.median(per_op)
                          if metric in MEDIAN_OF_OPS else sum(per_op),
                          [x for name in names for x in samples[name]])
    values["pass_s"] = (sum(medians[op.name] for op in ops), None)
    return values


# -- traced run ------------------------------------------------------------

ARC_FAILURES = ("NotInWindow", "NoReturn", "StepFailure")
COUNT_METRICS = ("poly.eval.calls", "field.sigma_regions.calls", "flow.arcs",
                 "flow.solve_ivp.calls", "flow.rhs_evals", "flow.steps",
                 "flow.dense_evals", "flow.displacement.calls",
                 "cycles.find_cycles_local.calls",
                 "cycles.window_displacements", "cycles.visible_displacements",
                 "cycles.cycles_found", "cycles.failed_samples",
                 *(f"flow.arc_failures.{c}" for c in ARC_FAILURES))
OP_COUNTS = ("flow.displacement.calls", "cycles.window_displacements",
             "cycles.visible_displacements", "cycles.failed_samples",
             "flow.arc.calls", "flow.solve_ivp.calls", "flow.rhs_evals",
             "flow.steps", "flow.dense_evals", "poly.eval.calls")


def layer_metrics(counts, durations, self_s, cli_samples) -> dict:
    def ratio(a, b):
        return counts[a] / counts[b] if counts[b] else 0.0
    return {
        "poly.eval.calls": counts["poly.eval.calls"],
        "poly.eval.s": durations["poly.eval"],
        "field.classify_mts.s": durations["field.classify_mts"],
        "field.sigma_regions.calls": counts["field.sigma_regions.calls"],
        "field.sigma_regions.s": durations["field.sigma_regions"],
        "unfold.build_perturbation.s": durations["unfold.build_perturbation"],
        "unfold.apply_shift.s": durations["unfold.apply_shift"],
        "unfold.lemma1_check.s": durations["unfold.lemma1_check"],
        "unfold.verify_contact_ladder.s":
            durations["unfold.verify_contact_ladder"],
        "unfold.local_V2_limit_check.s":
            durations["unfold.local_V2_limit_check"],
        "flow.arcs": counts["flow.arc.calls"],
        "flow.arc.self_s": self_s["flow.arc"],
        "flow.solve_ivp.calls": counts["flow.solve_ivp.calls"],
        "flow.solve_ivp.s": durations["flow.solve_ivp"],
        "flow.rhs_evals": counts["flow.rhs_evals"],
        "flow.steps": counts["flow.steps"],
        "flow.dense_evals": counts["flow.dense_evals"],
        "flow.solve_ivp_per_arc": ratio("flow.solve_ivp.calls", "flow.arc.calls"),
        "flow.dense_evals_per_arc": ratio("flow.dense_evals", "flow.arc.calls"),
        **{f"flow.arc_failures.{cls}": counts[f"flow.arc_failures.{cls}"]
           for cls in ARC_FAILURES},
        "flow.displacement.calls": counts["flow.displacement.calls"],
        "flow.displacement.s": durations["flow.displacement"],
        "cycles.find_cycles_local.calls":
            counts["cycles.find_cycles_local.calls"],
        "cycles.find_cycles_local.self_s": self_s["cycles.find_cycles_local"],
        "cycles.window_displacements": counts["cycles.window_displacements"],
        "cycles.visible_displacements": counts["cycles.visible_displacements"],
        "cycles.cycles_found": counts["cycles.cycles_found"],
        "cycles.displacements_per_cycle":
            ratio("cycles.window_displacements", "cycles.cycles_found"),
        "cycles.failed_samples": counts["cycles.failed_samples"],
        **cli_samples,
    }


def traced_run(workload, ops, deadline, tally, env):
    """Alternate traced and untraced passes (at least one of each) until
    ``deadline``.  Returns the per-layer metrics and the trace
    document."""
    tracer = Tracer()
    walls = {True: [], False: []}
    pass_ops, imports = [], []
    n = 0
    while n < 2 or time.perf_counter() < deadline:
        traced = n % 2 == 0
        if traced:
            tracer.install()
            names = [f"{op.name}#{n}.{i}" for i, op in enumerate(ops)]
            pass_ops.append(names)
        t0 = time.perf_counter()
        try:
            for i, op in enumerate(ops):
                if traced:
                    tracer.begin_op(names[i])
                tally.run(op)
        finally:
            tracer.remove()
        walls[traced].append(time.perf_counter() - t0)
        if traced and workload == "cli":
            imports.append(fresh_import_s(env))
        n += 1

    summaries = [tracer.pass_summary(names) for names in pass_ops]
    cli_samples = {"cli.import_s": statistics.median(imports) if imports else 0.0}
    for key, span in (("cli.run.s", "cli.run"),
                      ("scenario.load_scenario.s", "scenario.load_scenario")):
        took = [s[2] - s[1] for s in tracer.spans if s[0] == span]
        cli_samples[key] = statistics.median(took) if took else 0.0
    per_pass = [layer_metrics(c, d, s, cli_samples) for c, d, s in summaries]
    metrics = {key: (per_pass[0][key] if key in COUNT_METRICS
                     else statistics.median(p[key] for p in per_pass))
               for key in per_pass[0]}
    repeat = all({k: p[k] for k in COUNT_METRICS}
                 == {k: per_pass[0][k] for k in COUNT_METRICS}
                 for p in per_pass)
    traced_wall = statistics.median(walls[True])
    untraced_wall = statistics.median(walls[False])
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall - 1.0

    first = pass_ops[0]
    op_counts = {}
    for name, op in zip(first, ops):
        counts, _, _ = tracer.pass_summary([name])
        op_counts.setdefault(op.name, {k: counts[k] for k in OP_COUNTS})
    doc = {
        "workload": workload, "machine": machine(),
        "pass_wall_s": {"traced": walls[True], "untraced": walls[False]},
        "counts_repeat_across_passes": repeat,
        "op_counts": op_counts,
        "metrics": metrics,
        "span_fields": ["name", "start", "end", "parent", "op"],
        "spans": tracer.spans,
    }
    return metrics, doc, repeat


def compare_baseline(workload, seed, op_counts) -> str:
    path = BENCH / "baseline.json"
    base = (json.loads(path.read_text())["op_counts"].get(workload)
            if path.exists() else None)
    if seed != workloads.DEFAULT_SEED or base is None:
        return "no baseline for this seed"
    diff = sorted(op for op in set(base) | set(op_counts)
                  if base.get(op) != op_counts.get(op))
    return "equal" if not diff else "differ in " + ", ".join(diff)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = workloads.cli_env()
    setup = time_setup(args.workload, args.seed, env)
    ops, drawn = workloads.build(args.workload, args.seed,
                                 inprocess_cli=bool(args.trace))
    warm_up(args.workload)
    deadline = time.perf_counter() + args.seconds
    tally = Tally()
    for op in drawn:
        took = tally.run(op)
        print(f"drawn {op.name}: {took:.4f} s")

    if args.trace:
        metrics, doc, repeat = traced_run(args.workload, ops, deadline,
                                          tally, env)
        doc["seed"] = args.seed
        doc["baseline"] = compare_baseline(args.workload, args.seed,
                                           doc["op_counts"])
        workloads.WORK.mkdir(parents=True, exist_ok=True)
        out = workloads.WORK / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps(doc))
        for key, value in metrics.items():
            print(f"{key} = {value:.6g}")
        print(f"counts repeat across passes: {repeat}; "
              f"against baseline: {doc['baseline']}; trace written to {out}")
        result = {key: {"value": value, "unit": layer_unit(key)}
                  for key, value in metrics.items()}
        correct = repeat and not tally.wrong
    else:
        samples = timed_passes(ops, deadline, tally)
        values = end_to_end(ops, samples, setup)
        for key, (value, pooled) in values.items():
            n = ("" if pooled is None else
                 f" ({len(pooled)} samples{percentile_note(pooled)})")
            print(f"{key} = {value:.4f} s{n}")
        result = {key: {"value": values[key][0], "unit": "s"}
                  for key in ("setup_s", "pass_s")}
        correct = not tally.wrong
    fail_rate = tally.failed / tally.attempted
    print(f"fail_rate = {fail_rate:.4f} ratio "
          f"({tally.failed} of {tally.attempted} operations)")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": result}))
    return 0


def layer_unit(key: str) -> str:
    if key.endswith("_s") or key.endswith(".s"):
        return "s"
    return "ratio" if key.endswith(("_per_arc", "_per_cycle", "_ratio")) \
        else "count"


if __name__ == "__main__":
    sys.exit(main())
