"""Command-line driver: scenario ingestion, dispatch, report emission.

Every command reads a scenario file, runs the corresponding library
operation, and writes ``<name>.<command>.json`` (plus CSV/SVG side files
where applicable) into the scenario's output directory.  Exit codes:
0 ok, 1 input error, 2 numerical failure, 3 verification mismatch.

Each command imports the layers it needs when it runs: ``classify``,
``unfold``, ``verify-ladder`` and ``verify-v2-limit`` load neither numpy
nor :mod:`filippov.flow`, :mod:`filippov.cycles` or
:mod:`filippov.portrait`; ``verify-lemma1`` loads numpy but no orbit layer.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import (
    FilippovError,
    InputError,
    NumericalError,
    VerificationMismatch,
    exit_code,
)
from .field import classify_mts
from .record import jsonable
from .scenario import (
    Scenario,
    field_to_dict,
    load_scenario,
    scenario_to_dict,
    with_overrides,
)
from .unfold import (
    build_perturbation,
    build_unfolded,
    lemma1_check,
    local_V2_limit_check,
    unfolded_shifted,
    verify_contact_ladder,
)

LEMMA1_GATE = 1e-8

# Random lemma-1 nodes: drawn from [-span, span), at least min_gap from zero
# and from each other, by rejection.  No more than LAMBDA_CAPACITY such nodes
# fit.  A draw is accepted with probability 0.81 at k = 2, 2.3e-6 at k = 9
# and 2.7e-8 at k = 10; LAMBDA_MAX_TRIES ends the search past k = 9.
LAMBDA_SPAN = 3.0
LAMBDA_MIN_GAP = 0.2
LAMBDA_CAPACITY = 2 * int(LAMBDA_SPAN / LAMBDA_MIN_GAP)
LAMBDA_MAX_TRIES = 10_000_000


def _unfold_params(scenario: Scenario):
    if scenario.unfold is None:
        raise InputError("this command needs an 'unfold' block in the scenario")
    return scenario.unfold


def _delta_grid(scenario: Scenario, n: int):
    import numpy as np

    w = scenario.window
    return scenario.window.center + np.geomspace(
        w.radius / 300.0, w.radius, n)


def _cmd_classify(scenario, args):
    data = classify_mts(scenario.field)
    return data.to_json_dict(), "ok", []


def _cmd_lyapunov(scenario, args):
    from .flow import estimate_lyapunov

    w = scenario.window
    est = estimate_lyapunov(
        scenario.field, (w.radius / 300.0, w.radius), scenario.integrator)
    return est.to_json_dict(), "ok", []


def _cmd_unfold(scenario, args):
    polys = build_perturbation(scenario.field, _unfold_params(scenario))
    Zu = build_unfolded(scenario.field, polys)
    payload = polys.to_json_dict()
    payload["unfolded"] = field_to_dict(Zu)
    return payload, "ok", []


def _cmd_verify_ladder(scenario, args):
    params = _unfold_params(scenario)
    Zu, _ = unfolded_shifted(scenario.field, params)
    report = verify_contact_ladder(Zu, params)
    return report.to_json_dict(), "ok", []


def _cmd_verify_lemma1(scenario, args):
    k = _unfold_params(scenario).k
    gate = args.gate
    if args.seed < 0 or args.draws < 0 or not gate > 0:
        raise InputError(f"--seed {args.seed} and --draws {args.draws} must be "
                         f"non-negative and --gate {gate} positive")
    if args.draws > 0:
        import numpy as np

        rng = np.random.default_rng(args.seed)
        worst = 0.0
        runs = []
        for _ in range(args.draws):
            lam = _random_lambda(rng, k)
            rep = lemma1_check(scenario.field, k, lam)
            worst = max(worst, rep.max_residual())
            runs.append({"lambda": [float(a) for a in lam],
                         "max_residual": rep.max_residual()})
        payload = {"draws": args.draws, "seed": args.seed, "gate": gate,
                   "max_residual": worst, "runs": runs}
        ok = worst < gate
    else:
        rep = lemma1_check(scenario.field, k, list(scenario.unfold.lam))
        payload = rep.to_json_dict()
        payload["gate"] = gate
        ok = rep.max_residual() < gate
    if not ok:
        raise VerificationMismatch(
            f"identity residual exceeds the gate {gate:g}",
            report=payload)
    return payload, "ok", []


def _random_lambda(rng, k: int):
    n = 2 * k - 2
    if n > LAMBDA_CAPACITY:
        raise InputError(
            f"k={k} needs {n} random nodes, but at most {LAMBDA_CAPACITY} "
            f"fit in [-{LAMBDA_SPAN:g}, {LAMBDA_SPAN:g}) at gaps of "
            f"{LAMBDA_MIN_GAP:g}")
    for _ in range(LAMBDA_MAX_TRIES):
        lam = rng.uniform(-LAMBDA_SPAN, LAMBDA_SPAN, size=n)
        ok = all(abs(a) >= LAMBDA_MIN_GAP for a in lam)
        ok = ok and all(abs(lam[i] - lam[j]) >= LAMBDA_MIN_GAP
                        for i in range(n) for j in range(i + 1, n))
        if ok:
            return [float(a) for a in lam]
    raise InputError(
        f"k={k}: no admissible draw of {n} random nodes in "
        f"{LAMBDA_MAX_TRIES} tries")


def _cmd_verify_v2_limit(scenario, args):
    report = local_V2_limit_check(scenario.field, _unfold_params(scenario))
    return report.to_json_dict(), "ok", []


def _cmd_cycles(scenario, args):
    from .cycles import cycle_census

    report = cycle_census(scenario.field, _unfold_params(scenario),
                          scenario.integrator, u_radius=scenario.window.radius)
    status = "ok" if report.passed else "mismatch"
    return report.to_json_dict(), status, list(report.diagnostics)


def _cmd_scan(scenario, args):
    from .cycles import pseudo_hopf_scan

    if args.b_values:
        try:
            b_values = [float(v) for v in args.b_values]
        except ValueError as exc:
            raise InputError(
                f"malformed --b-values {','.join(args.b_values)!r}") from exc
    elif scenario.unfold is not None and scenario.unfold.b != 0:
        mag = abs(scenario.unfold.b)
        b_values = [-mag, mag]
    else:
        b_values = [-1e-4, 1e-4]
    convention = (scenario.unfold.shift_convention
                  if scenario.unfold is not None else "minus")
    table = pseudo_hopf_scan(scenario.field, b_values, convention,
                             scenario.integrator,
                             window_radius=scenario.window.radius)
    csv = _out_dir(scenario) / f"{scenario.name}.scan.csv"
    table.write_csv(csv)
    payload = table.to_json_dict()
    payload["csv"] = str(csv)
    return payload, "ok", []


def _cmd_delta_dump(scenario, args):
    from .flow import displacements, write_delta_csv

    xs = _delta_grid(scenario, 33)
    samples = displacements(scenario.field, xs, scenario.integrator,
                            base_x=scenario.window.center)
    for s in samples:
        if isinstance(s, FilippovError):
            raise s
    csv = _out_dir(scenario) / f"{scenario.name}.delta.csv"
    write_delta_csv(samples, csv)
    payload = {"n_samples": len(samples),
               "x": [s.x for s in samples],
               "delta": [s.delta_value for s in samples],
               "csv": str(csv)}
    return payload, "ok", []


def _cmd_portrait(scenario, args):
    from .cycles import find_cycles_local
    from .portrait import render_portrait

    Z = scenario.field
    cycles = []
    if scenario.unfold is not None:
        params = scenario.unfold
        _, Z = unfolded_shifted(Z, params)
        if params.b != 0:
            diags: list = []
            cycles = find_cycles_local(
                Z, scenario.window.center, scenario.window.radius,
                params.b, scenario.integrator, diags)
    out_dir = _out_dir(scenario)
    svg = out_dir / f"{scenario.name}.portrait.svg"
    csv = out_dir / f"{scenario.name}.portrait.csv"
    summary = render_portrait(
        Z, scenario.window.center, scenario.window.radius,
        scenario.integrator, cycles=cycles, svg_path=svg, csv_path=csv)
    summary["svg"] = str(svg)
    summary["csv"] = str(csv)
    return summary, "ok", []


def _out_dir(scenario: Scenario) -> Path:
    out = Path(scenario.outputs)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"unusable output directory: {exc}") from exc
    return out


_DISPATCH = {
    "classify": _cmd_classify,
    "lyapunov": _cmd_lyapunov,
    "unfold": _cmd_unfold,
    "verify-ladder": _cmd_verify_ladder,
    "verify-lemma1": _cmd_verify_lemma1,
    "verify-v2-limit": _cmd_verify_v2_limit,
    "cycles": _cmd_cycles,
    "scan": _cmd_scan,
    "delta-dump": _cmd_delta_dump,
    "portrait": _cmd_portrait,
}
COMMANDS = tuple(_DISPATCH)


def _write_json(path: Path, doc) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_report(scenario: Scenario, command: str, payload, status,
                  diagnostics) -> Path:
    report = {
        "scenario": scenario.name,
        "command": command,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "tool_version": __version__,
        "status": status,
        "diagnostics": list(diagnostics),
        "payload": jsonable(payload),
    }
    path = _out_dir(scenario) / f"{scenario.name}.{command}.json"
    _write_json(path, report)
    return path


def run(config_path, command: str, b=None, epsilon=None, shift=None,
        out=None, seed: int = 0, gate: float = LEMMA1_GATE, draws: int = 0,
        b_values=None, dump_normalized: bool = False):
    """Programmatic entry point; returns ``(exit_code, report_dict)``."""
    if command not in COMMANDS:
        raise InputError(f"unknown command {command!r}")
    scenario = load_scenario(config_path)
    scenario = with_overrides(scenario, b=b, epsilon=epsilon, shift=shift,
                              out=out)

    if dump_normalized:
        doc = jsonable(scenario_to_dict(scenario))
        _write_json(_out_dir(scenario) / f"{scenario.name}.normalized.json", doc)
        return 0, doc

    args = argparse.Namespace(seed=seed, gate=gate, draws=draws,
                              b_values=b_values)
    handler = _DISPATCH[command]
    try:
        payload, status, diagnostics = handler(scenario, args)
        code = 0 if status == "ok" else 3
    except (InputError, NumericalError, VerificationMismatch) as exc:
        code = exit_code(exc)[0]
        status = "mismatch" if code == 3 else "error"
        payload = getattr(exc, "report", None) or {}
        diagnostics = [str(exc)]

    report_path = _write_report(scenario, command, payload, status, diagnostics)
    with open(report_path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    return code, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="filippov",
        description="Classify tangential singularities of piecewise-smooth "
                    "planar fields and hunt the limit cycles born from "
                    "splitting them.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="scenario JSON file")
    parser.add_argument("--b", type=float, default=None,
                        help="override the shift parameter")
    parser.add_argument("--epsilon", type=float, default=None,
                        help="override the unfolding scale")
    parser.add_argument("--shift", choices=("minus", "plus"), default=None,
                        help="override the shift convention")
    parser.add_argument("--out", default=None, help="override the output dir")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized verification sweeps")
    parser.add_argument("--draws", type=int, default=0,
                        help="verify-lemma1: number of random node draws")
    parser.add_argument("--gate", type=float, default=LEMMA1_GATE,
                        help="verify-lemma1: residual gate")
    parser.add_argument("--b-values", default=None,
                        help="scan: comma-separated shift values "
                             "(for example '-1e-4,1e-4')")
    parser.add_argument("--dump-normalized", action="store_true",
                        help="write the normalized scenario and exit")
    args = parser.parse_args(argv)

    b_values = None
    if args.b_values is not None:
        b_values = [v for v in args.b_values.split(",") if v.strip()]

    try:
        code, report = run(
            args.config, args.command, b=args.b, epsilon=args.epsilon,
            shift=args.shift, out=args.out, seed=args.seed, gate=args.gate,
            draws=args.draws, b_values=b_values,
            dump_normalized=args.dump_normalized)
    except FilippovError as exc:
        code, prefix = exit_code(exc)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code

    if not args.dump_normalized:
        for line in report.get("diagnostics", []):
            print(line, file=sys.stderr)
        print(f"{report['scenario']}.{report['command']}: {report['status']}")
    return code


if __name__ == "__main__":
    sys.exit(main())
