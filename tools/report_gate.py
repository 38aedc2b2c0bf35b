"""Before/after comparison of every CLI report on the shipped scenarios.

    python3 tools/report_gate.py run REPO OUT
    python3 tools/report_gate.py diff A B

``run`` executes each command of the ``filippov`` CLI on every
``REPO/scenarios/*.json`` with ``REPO/src`` first on the import path, one
cold process per run.  It keeps every report and side file under
``OUT/files`` and the exit code, stdout and stderr of each run under
``OUT/runs``.  Reports lose the keys that differ between any two runs by
construction: ``timestamp`` and the payload's ``csv``/``svg`` paths.

``diff`` compares two such trees: it counts the byte-identical files and
prints the largest numeric difference in each differing JSON file, then
the diagnostic lines (a report's ``diagnostics``, a run's stderr) found on
one side only, ``-`` for the first tree and ``+`` for the second.  It
exits 1 when a file exists on one side only, or when an exit code or a
report ``status`` differs; otherwise 0.

Standard library only, so that one copy of the script can be run against
any revision of the package.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

COMMANDS = ("classify", "lyapunov", "unfold", "verify-ladder", "verify-lemma1",
            "verify-v2-limit", "cycles", "scan", "delta-dump", "portrait")
EXTRA_ARGS = {"verify-lemma1": ["--draws", "50", "--seed", "3"]}


def _write_json(path: Path, doc) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _strip_report(path: Path) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.pop("timestamp", None)
    payload = doc.get("payload")
    if isinstance(payload, dict):
        payload.pop("csv", None)
        payload.pop("svg", None)
    _write_json(path, doc)


def run(repo: Path, out: Path) -> int:
    scenarios = sorted((repo / "scenarios").glob("*.json"))
    if not scenarios:
        print(f"no scenarios under {repo / 'scenarios'}", file=sys.stderr)
        return 1
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty; stale files would enter the comparison",
              file=sys.stderr)
        return 1
    files, runs = out / "files", out / "runs"
    files.mkdir(parents=True, exist_ok=True)
    runs.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str((repo / "src").resolve())]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for scenario in scenarios:
        for command in COMMANDS:
            argv = [sys.executable, "-m", "filippov", command,
                    "--config", str(scenario.resolve()),
                    "--out", str(files.resolve()),
                    *EXTRA_ARGS.get(command, [])]
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  env=env, cwd=out)
            _write_json(runs / f"{scenario.stem}.{command}.json", {
                "exit_code": proc.returncode,
                "stdout": proc.stdout,
                "stderr": proc.stderr,
            })
            print(f"{scenario.stem} {command}: exit {proc.returncode}")
    for path in sorted(files.glob("*.json")):
        _strip_report(path)
    n_runs = len(scenarios) * len(COMMANDS)
    n_files = sum(1 for p in files.iterdir() if p.is_file())
    print(f"{n_runs} runs, {n_files} report/side files in {files}")
    return 0


def _max_delta(a, b) -> float:
    """Largest absolute difference between numbers at the same place."""
    if isinstance(a, bool) or isinstance(b, bool):
        return 0.0
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(float(a) - float(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return max((_max_delta(a[k], b[k]) for k in a.keys() & b.keys()),
                   default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        return max((_max_delta(u, v) for u, v in zip(a, b)), default=0.0)
    return 0.0


def _diagnostics(doc) -> dict:
    """A report's diagnostic lines, or a run record's stderr lines, in
    order and without repeats."""
    if not isinstance(doc, dict):
        return {}
    payload = doc.get("payload")
    lines = [*doc.get("diagnostics", []),
             *(payload.get("diagnostics", []) if isinstance(payload, dict) else []),
             *str(doc.get("stderr", "")).splitlines()]
    return dict.fromkeys(str(line) for line in lines)


def diff(a: Path, b: Path) -> int:
    rel_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    rel_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    failed = False
    for rel in sorted(rel_a ^ rel_b):
        print(f"only in {a if rel in rel_a else b}: {rel}")
        failed = True
    same = 0
    for rel in sorted(rel_a & rel_b):
        left, right = (a / rel).read_bytes(), (b / rel).read_bytes()
        if left == right:
            same += 1
            continue
        if rel.suffix != ".json":
            print(f"differs: {rel}")
            continue
        u, v = json.loads(left), json.loads(right)
        line = f"differs: {rel}, largest numeric delta {_max_delta(u, v):.3e}"
        for key in ("exit_code", "status"):
            if u.get(key) != v.get(key):
                line += f"; {key} {u.get(key)!r} -> {v.get(key)!r}"
                failed = True
        print(line)
        left, right = _diagnostics(u), _diagnostics(v)
        for sign, mine, other in (("-", left, right), ("+", right, left)):
            for d in mine:
                if d not in other:
                    print(f"  {sign} {d}")
    print(f"{same} of {len(rel_a | rel_b)} files byte-identical")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    p_run = sub.add_parser("run", help="run every command on every scenario")
    p_run.add_argument("repo", type=Path)
    p_run.add_argument("out", type=Path)
    p_diff = sub.add_parser("diff", help="compare two run trees")
    p_diff.add_argument("a", type=Path)
    p_diff.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.action == "run":
        return run(args.repo, args.out)
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
