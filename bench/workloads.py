"""Workloads of the filippov benchmark: seeded inputs, operations, checks.

Each workload is a list of operations that ``run.py`` repeats round-robin.
An operation returns the program's output; its check compares that output
with the acceptance suite's tolerances (``tests/test_acceptance.py``) and
returns ``(problems, claimed_ok)``: the list of failed checks, and whether
the program itself reported success.  A failed check on an output the
program reported as successful is a wrong answer; one the program flagged
(a census that does not pass, a non-zero exit code) is an honest failure.

The default seed (0) reproduces the acceptance-suite parameters.  Any other
seed also draws the family coefficient ``c`` for one extra census (and, on
``sweep``, one extra fit) per run, and the lemma-1 nodes through
``verify-lemma1 --seed``.  Timed operations keep the acceptance parameters,
because the cost of a census depends on ``c`` (up to threefold for k = 4)
and would otherwise swamp the run-to-run comparison.

Operations call the library through module attributes
(``cycles.cycle_census``), so that the tracer's wrappers see the top-level
call as well.

Run as a script (``python3 bench/workloads.py <workload> <seed>`` with
``src`` on ``PYTHONPATH``) to build one workload's inputs in a fresh
interpreter; ``run.py`` times that as ``setup_s``.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import filippov.cli
from filippov import (
    IntegratorConfig,
    UnfoldingParams,
    build_perturbation,
    classify_mts,
    cycle_producing_sign,
    cycles,
    flow,
    monodromic_family,
)
from filippov.scenario import scenario_from_dict

DEFAULT_SEED = 0
ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / "_work"
CFG = IntegratorConfig()

# Acceptance-suite census parameters: k -> (lambda, epsilon, |b|).
CENSUS = {
    2: ((-1.0, 1.0), 0.1, 1e-6),
    3: ((-1.0, 1.0, 2.0, 3.0), 0.05, 1e-8),
    4: ((-1.0, 1.0, 2.0, 3.0, 4.0, 5.0), 0.03, 1e-10),
}
# Criterion 7: magnitudes of b for the k = 1 splitting scan.
SCAN_MAGNITUDES = (1e-5, 1e-4, 1e-3)
FIT_WINDOW = (0.005, 0.05)
# (k, c) of the sweep's fits: three foci, then the two centres.
FITS = ((1, 1.0), (2, 1.0), (3, 1.0), (1, 0.0), (2, 0.0))
# Draw range of the family coefficient for non-default seeds.  For
# |c| >= ~2 the second tangency of the upper field at x = 1/c reaches the
# outer windows and censuses lose cycles; those draws are counted as
# failures, not excluded.
C_RANGE = (0.25, 3.0)
LEMMA1_DRAWS = 50
LEMMA1_GATE = 1e-8


@dataclass(frozen=True)
class Op:
    """One operation: ``run()`` returns the output, ``check(output)``
    returns ``(problems, claimed_ok)``, ``metric`` names the figure its
    time feeds (None for drawn operations, which are not timed)."""

    name: str
    metric: str | None
    run: Callable
    check: Callable


# -- census and sweep ------------------------------------------------------


def _census_op(name, metric, k, c, producing):
    lam, eps, mag = CENSUS[k]
    Z = monodromic_family(k, c)
    data = classify_mts(Z)
    good = cycle_producing_sign(data.delta, data.V2, "minus")
    params = UnfoldingParams(k=k, lam=lam, epsilon=eps,
                             b=(good if producing else -good) * mag,
                             shift_convention="minus")
    want = "stable" if c < 0 else "unstable"  # sign of V2 = 2c/(2k+1)

    def check(rep):
        problems = []
        if producing:
            if not rep.passed:
                problems.append("census did not pass")
            if len(rep.cycles) != k:
                problems.append(f"{len(rep.cycles)} cycles, want {k}")
            if any(cy.stability != want for cy in rep.cycles):
                problems.append(f"a cycle is not {want}")
            if any(cy.enclosed_segment is None for cy in rep.cycles):
                problems.append("a cycle encloses no single sliding segment")
        else:
            if rep.cycles:
                problems.append(f"{len(rep.cycles)} cycles, want none")
            if rep.passed:
                problems.append("null census passed")
        # A null census claims its (empty) cycle list; any cycle is wrong.
        return problems, rep.passed or not producing

    return Op(name, metric, lambda: cycles.cycle_census(Z, params, CFG), check)


def _scan_op():
    Z = monodromic_family(1, 1.0)
    data = classify_mts(Z)
    good = cycle_producing_sign(data.delta, data.V2, "minus")
    producing = [good * m for m in SCAN_MAGNITUDES]
    bs = producing + [-b for b in producing]

    def check(table):
        rows = {r.b: r for r in table.rows}
        problems = []
        for b in producing:
            r = rows[b]
            if r.n_cycles != 1 or r.stability != "unstable":
                problems.append(f"b={b:g}: {r.n_cycles} {r.stability} cycles")
            if not r.sliding_kind.endswith("sliding"):
                problems.append(f"b={b:g}: split pair is {r.sliding_kind}")
        problems += [f"b={-b:g}: {rows[-b].n_cycles} cycles, want none"
                     for b in producing if rows[-b].n_cycles != 0]
        if problems:
            return problems, False
        for b in producing:
            ratio = rows[b].amplitude / math.sqrt(3 * abs(b))
            if abs(b) <= 1e-4 and not 0.9 <= ratio <= 1.1:
                problems.append(f"b={b:g}: amplitude ratio {ratio:.3f}")
        slope = float(np.polyfit(np.log([abs(b) for b in producing]),
                                 np.log([rows[b].amplitude for b in producing]),
                                 1)[0])
        if abs(slope - 0.5) > 0.02:
            problems.append(f"amplitude slope {slope:.4f}, want 0.5 +- 0.02")
        return problems, True

    return Op("scan_k1", "scan_k1_s",
              lambda: cycles.pseudo_hopf_scan(Z, bs, "minus", CFG), check)


def _fits_op(name, metric, fits):
    fields = [(k, c, monodromic_family(k, c)) for k, c in fits]

    def run():
        return [flow.estimate_lyapunov(Z, FIT_WINDOW, CFG) for _, _, Z in fields]

    def check(ests):
        problems = []
        for (k, c, _), est in zip(fields, ests):
            if c == 0.0 and not est.center:
                problems.append(f"k={k} c=0: not detected as a centre")
            if c != 0.0 and (est.center or est.order <= 0 or est.order % 2):
                problems.append(f"k={k} c={c:g}: order {est.order}")
        return problems, True

    return Op(name, metric, run, check)


def _drawn_c(rng) -> float:
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(*C_RANGE))


def census_ops(seed: int) -> tuple:
    """Timed: the k = 2, 3, 4 censuses and the k = 1 scan.  Drawn: one
    census at a seeded (k, c)."""
    timed = [_census_op(f"census_k{k}", f"census_k{k}_s", k, 1.0, True)
             for k in CENSUS]
    timed.append(_scan_op())
    drawn = []
    if seed != DEFAULT_SEED:
        rng = np.random.default_rng(seed)
        k, c = int(rng.integers(2, 5)), _drawn_c(rng)
        drawn.append(_census_op(f"census_k{k}_c{c:.4f}", None, k, c, True))
    return timed, drawn


def sweep_ops(seed: int) -> tuple:
    """Timed: the opposite-sign censuses and the five fits, the fits three
    times per pass so that their short median gets as many samples.
    Drawn: one opposite-sign census and one fit at seeded (k, c)."""
    fits = _fits_op("fits", "lyapunov_s", FITS)
    timed = []
    for k in CENSUS:
        timed += [_census_op(f"null_k{k}", "null_census_s", k, 1.0, False),
                  fits]
    drawn = []
    if seed != DEFAULT_SEED:
        rng = np.random.default_rng(seed)
        k, c = int(rng.integers(2, 5)), _drawn_c(rng)
        drawn.append(_census_op(f"null_k{k}_c{c:.4f}", None, k, c, False))
        k, c = int(rng.integers(1, 4)), _drawn_c(rng)
        drawn.append(_fits_op(f"fit_k{k}_c{c:.4f}", None, [(k, c)]))
    return timed, drawn


# -- cli -------------------------------------------------------------------

ALGEBRA_COMMANDS = ("classify", "unfold", "verify-ladder", "verify-lemma1",
                    "verify-v2-limit")
CLI_SCENARIOS = ("four-fold-c1", "six-fold-c1", "c3-violation")


def write_scenarios() -> Path:
    """Copy the shipped scenarios into the work directory with their
    outputs redirected there; returns the directory."""
    out = WORK / "cli"
    out.mkdir(parents=True, exist_ok=True)
    for name in CLI_SCENARIOS:
        doc = json.loads((ROOT / "scenarios" / f"{name}.json").read_text())
        doc["outputs"] = str(out / "out")
        (out / f"{name}.json").write_text(json.dumps(doc, indent=1))
    return out


def _cli_expectations(scenario: dict, command: str):
    """Check of one command's ``(exit code, report)`` on one scenario."""
    name = scenario["name"]
    if name == "c3-violation":
        def check(code, rep):
            ok = code == 1 and rep["status"] == "error"
            return ([] if ok else [f"exit {code}, status {rep['status']}"],
                    code == 0)
        return check

    unfold = scenario["unfold"]
    k, eps = unfold["k"], unfold["epsilon"]
    upper_y = {(i, j): v for i, j, v in scenario["field"]["upper"]["Y"]}
    c = upper_y.get((2 * k, 0), 0.0)
    V2 = 2.0 * c / (2 * k + 1)

    def payload_problems(p):
        if command == "classify":
            return ([] if abs(p["V2"] - V2) < 1e-10
                    and p["k_plus"] == p["k_minus"] == k
                    else [f"V2={p['V2']!r}, orders {p['k_plus']},{p['k_minus']}"])
        if command == "unfold":
            if k == 2:  # criterion 3's closed form
                want = {"p_plus": [0.0, eps**2, -c * eps**2],
                        "p_minus": [0.0, -eps**2, 0.0]}
            else:
                want = build_perturbation(
                    scenario_from_dict(scenario).field,
                    UnfoldingParams(k=k, lam=tuple(unfold["lambda"]),
                                    epsilon=eps)).to_json_dict()
            bad = [key for key in ("p_plus", "p_minus")
                   if any(abs(a - b) >= 1e-10 for a, b in _pad(p[key], want[key]))]
            return [f"{key} differs from the expected coefficients"
                    for key in bad]
        if command == "verify-ladder":
            invisible = {r["index"] for r in p["contacts"]
                         if r["vis_plus"] == "invisible"}
            ok = (p["ok"] and len(p["contacts"]) == 2 * k - 1
                  and invisible == {1} | set(range(2, 2 * k - 1, 2)))
            return [] if ok else ["contact ladder differs from the prediction"]
        if command == "verify-lemma1":
            ok = p["draws"] == LEMMA1_DRAWS and p["max_residual"] < LEMMA1_GATE
            return [] if ok else [f"max residual {p['max_residual']!r}"]
        if command == "verify-v2-limit":
            problems = []
            if not (p["ok"] and abs(p["limit"] - 2.0 * c / 3.0) < 1e-12):
                problems.append(f"limit {p['limit']!r}")
            if any(r["fitted_order"] < 0.9 for r in p["rows"]):
                problems.append("a fitted order is below 0.9")
            if eps == 0.1 and any(abs(r["values"][-1] / p["limit"] - 1) >= 0.05
                                  for r in p["rows"]):
                problems.append("value at epsilon 0.025 is 5% off the limit")
            return problems
        if command == "cycles":
            ok = (p["pass"] and len(p["cycles"]) == k
                  and all(cy["stability"] == "unstable" for cy in p["cycles"])
                  and all(cy["enclosed_segment"] is not None
                          for cy in p["cycles"]))
            return [] if ok else [f"census: {len(p['cycles'])} cycles"]
        raise ValueError(command)

    def check(code, rep):
        if code != 0 or rep["status"] != "ok":
            return [f"exit {code}, status {rep['status']}"], False
        return payload_problems(rep["payload"]), True
    return check


def _pad(got, want):
    n = max(len(got), len(want))
    return zip(list(got) + [0.0] * (n - len(got)),
               list(want) + [0.0] * (n - len(want)))


@dataclass(frozen=True)
class CliCommand:
    """One command of the cli workload on one scenario file."""

    metric: str
    scenario: Path
    command: str
    check: Callable
    lemma1_seed: int | None = None

    @property
    def label(self) -> str:
        return f"{self.command}:{self.scenario.stem}"

    def argv(self) -> list:
        extra = ([] if self.lemma1_seed is None else
                 ["--draws", str(LEMMA1_DRAWS), "--seed", str(self.lemma1_seed)])
        return [self.command, "--config", str(self.scenario), *extra]


def cli_commands(seed: int, scenario_dir: Path) -> list:
    """One pass of the cli workload: the algebraic commands on both
    unfolded scenarios, ``classify`` on the C3 violation, and ``cycles`` on
    four-fold-c1 twice (start and middle of the pass), so that the slow
    command gets samples as well."""
    def cmd(metric, name, command):
        doc = json.loads((scenario_dir / f"{name}.json").read_text())
        return CliCommand(metric, scenario_dir / f"{name}.json", command,
                          _cli_expectations(doc, command),
                          seed if command == "verify-lemma1" else None)

    algebra = [cmd("cli_algebra_s", name, command)
               for name in ("four-fold-c1", "six-fold-c1")
               for command in ALGEBRA_COMMANDS]
    algebra.append(cmd("cli_algebra_s", "c3-violation", "classify"))
    cycles = cmd("cli_cycles_s", "four-fold-c1", "cycles")
    return [cycles] + algebra[:6] + [cycles] + algebra[6:]


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def _report_path(cmd: CliCommand) -> Path:
    return (cmd.scenario.parent / "out"
            / f"{cmd.scenario.stem}.{cmd.command}.json")


def cold_cli_op(cmd: CliCommand, env: dict) -> Op:
    """One cold ``python -m filippov`` process, checked from its exit code,
    its status line and the report it wrote."""
    def run():
        _report_path(cmd).unlink(missing_ok=True)
        return subprocess.run([sys.executable, "-m", "filippov", *cmd.argv()],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120)

    def check(proc):
        try:
            rep = json.loads(_report_path(cmd).read_text())
        except (OSError, ValueError) as exc:
            return [f"no report: {exc}"], proc.returncode == 0
        problems, claimed = cmd.check(proc.returncode, rep)
        want = f"{cmd.scenario.stem}.{cmd.command}: {rep['status']}"
        if proc.stdout.strip()[-len(want):] != want:
            problems.append(f"status line {proc.stdout.strip()[-80:]!r}")
        return problems, claimed

    return Op(cmd.label, cmd.metric, run, check)


def inprocess_cli_op(cmd: CliCommand) -> Op:
    """The same command through ``filippov.cli.run`` in this process: the
    traced run's view of the cli layer."""
    kwargs = ({} if cmd.lemma1_seed is None else
              {"draws": LEMMA1_DRAWS, "seed": cmd.lemma1_seed})

    def run():
        return filippov.cli.run(str(cmd.scenario), cmd.command, **kwargs)

    return Op(cmd.label, cmd.metric, run, lambda out: cmd.check(*out))


def build(workload: str, seed: int, inprocess_cli: bool = False) -> tuple:
    """Inputs of one workload: ``(timed ops, drawn ops)``.  The cli
    commands run as cold processes, or through ``filippov.cli.run`` in this
    process when ``inprocess_cli`` is set (the traced run)."""
    if workload == "census":
        return census_ops(seed)
    if workload == "sweep":
        return sweep_ops(seed)
    if workload == "cli":
        cmds = cli_commands(seed, write_scenarios())
        if inprocess_cli:
            return [inprocess_cli_op(cmd) for cmd in cmds], []
        env = cli_env()
        return [cold_cli_op(cmd, env) for cmd in cmds], []
    raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    build(sys.argv[1], int(sys.argv[2]))
