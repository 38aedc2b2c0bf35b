"""Before/after comparison of every benchmark operation's outcome and output.

    python3 tools/outcome_gate.py run TREE OUT
    python3 tools/outcome_gate.py diff A B

``run`` imports ``TREE/bench/workloads.py``, with ``TREE/src`` first on
the import path, and runs in this process: every timed operation of each
workload at seed 0 (the cli commands through ``filippov.cli.run``), every
drawn census and sweep operation at seeds 0 to :data:`LAST_SEED`, and the
``verify-lemma1`` commands that the cli workload draws at those seeds.  Per
operation it records the outcome, classified as ``bench/run.py`` counts
it: ``ok``; ``failed``, a failed check on an output the program flagged;
``wrong``, a failed check on an output the program reported as
successful.  It also records the failed checks and the SHA-256 of the
output's ``repr``, from which report keys that differ between any two runs
by construction are removed: ``timestamp``, ``outputs``, ``csv`` and
``svg``.  It writes ``OUT/outcomes.json``.

``diff`` compares two such files.  It lists every operation whose outcome
changed, with its failed checks on both sides, then every operation whose
output changed.  It exits 1 when an outcome changed or an operation ran on
one side only; otherwise 0.

Standard library only, apart from what ``TREE`` itself imports, so that
one copy of the script can be run against any revision of the package.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import sys
import traceback
from pathlib import Path

LAST_SEED = 30
# report keys whose values differ between any two runs by construction
VOLATILE = ("timestamp", "outputs", "csv", "svg")


def _stable(value):
    """``value`` with the :data:`VOLATILE` keys of its dicts removed, at
    any depth of dicts, lists and tuples."""
    if isinstance(value, dict):
        return {k: _stable(v) for k, v in value.items() if k not in VOLATILE}
    if isinstance(value, (list, tuple)):
        return type(value)(_stable(v) for v in value)
    return value


def _record(op, filippov_error) -> dict:
    """Outcome, failed checks and output hash of one operation."""
    try:
        out = op.run()
        problems, claimed = op.check(out)
        digest = hashlib.sha256(repr(_stable(out)).encode()).hexdigest()
    except filippov_error as exc:
        problems, claimed = [f"{type(exc).__name__}: {exc}"], False
        digest = None
    except Exception:
        problems, claimed = [traceback.format_exc(limit=-1).strip()], True
        digest = None
    outcome = "ok" if not problems else "wrong" if claimed else "failed"
    return {"outcome": outcome, "problems": list(problems), "repr_sha256": digest}


def run(tree: Path, out: Path) -> int:
    sys.path.insert(0, str((tree / "src").resolve()))
    spec = importlib.util.spec_from_file_location(
        "workloads", tree / "bench" / "workloads.py")
    workloads = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    from filippov.errors import FilippovError

    ops = {}
    for workload in ("census", "sweep", "cli"):
        timed, _ = workloads.build(workload, 0, inprocess_cli=True)
        for op in timed:
            ops.setdefault(f"{workload}/seed0/{op.name}", op)
    scenarios = workloads.write_scenarios()
    for seed in range(LAST_SEED + 1):
        for workload in ("census", "sweep"):
            for op in workloads.build(workload, seed)[1]:
                ops[f"{workload}/seed{seed}/{op.name}"] = op
        for cmd in workloads.cli_commands(seed, scenarios):
            if cmd.command == "verify-lemma1":
                ops[f"cli/seed{seed}/{cmd.label}"] = workloads.inprocess_cli_op(cmd)
    records = {}
    for name, op in ops.items():
        records[name] = rec = _record(op, FilippovError)
        print(f"{name}: {rec['outcome']}")
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "outcomes.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(records, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{len(records)} operations, "
          f"{sum(r['outcome'] != 'ok' for r in records.values())} not ok")
    return 0


def diff(a: Path, b: Path) -> int:
    left = json.loads((a / "outcomes.json").read_text(encoding="utf-8"))
    right = json.loads((b / "outcomes.json").read_text(encoding="utf-8"))
    failed = False
    for name in sorted(left.keys() ^ right.keys()):
        print(f"only in {a if name in left else b}: {name}")
        failed = True
    common = sorted(left.keys() & right.keys())
    for name in common:
        u, v = left[name], right[name]
        if u["outcome"] != v["outcome"]:
            failed = True
            print(f"outcome: {name}: {u['outcome']} -> {v['outcome']}")
            for sign, rec in (("-", u), ("+", v)):
                for problem in rec["problems"]:
                    print(f"  {sign} {problem}")
    changed = [name for name in common
               if left[name]["repr_sha256"] != right[name]["repr_sha256"]]
    for name in changed:
        print(f"value: {name}")
    print(f"{len(common) - len(changed)} of {len(left.keys() | right.keys())} "
          f"operations with the same outcome and output")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    p_run = sub.add_parser("run", help="run every operation of one tree")
    p_run.add_argument("tree", type=Path)
    p_run.add_argument("out", type=Path)
    p_diff = sub.add_parser("diff", help="compare two outcome files")
    p_diff.add_argument("a", type=Path)
    p_diff.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.action == "run":
        return run(args.tree, args.out)
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
