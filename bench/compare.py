"""Summarize one set of benchmark results, or compare two.

Usage, from the root of a checkout::

    python3 bench/compare.py RESULTS_A [RESULTS_B]

Each argument is a directory of records written by ``bench/run.py``
(``.bench_out/results/`` by default).  For one set it prints, per workload
and metric, the median, the quartiles, the spread (interquartile distance
over the median) and the run count.  For two sets it also prints B's median
as a change against A's, next to the bound fixed in ``BENCHMARK.json``.
Sets whose environments differ (see ``envinfo.COMPARED``) are reported as
not comparable and not compared; the exit code is then 1.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

from envinfo import differences
from stats import quartiles, spread

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))]


def environment_problems(records: list[dict], label: str) -> list[str]:
    first = records[0]["environment"]
    return [f"{label}: {r['workload']} seed {r['seed']} differs in {', '.join(diff)}"
            for r in records[1:] if (diff := differences(first, r["environment"]))]


def values_by_metric(records: list[dict]) -> dict:
    out = defaultdict(list)
    for r in records:
        for name, doc in r["metrics"].items():
            out[(r["workload"], name)].append(doc["value"])
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(Path(a)) for a in argv]
    if not all(sets):
        print("no result records found", file=sys.stderr)
        return 2
    problems = []
    for label, records in zip("AB", sets):
        problems += environment_problems(records, label)
    envs = [records[0]["environment"] for records in sets]
    if len(envs) == 2 and (diff := differences(*envs)):
        problems.append(f"A and B differ in {', '.join(diff)}")
    if problems:
        print("not comparable:\n  " + "\n  ".join(problems))
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    failed = [sum(r["failed"] for r in records) for records in sets]
    print("failed operations: " + ", ".join(f"{l} {f}" for l, f in zip("AB", failed)))
    a_vals = values_by_metric(sets[0])
    b_vals = values_by_metric(sets[1]) if len(sets) == 2 else {}
    for key in sorted(a_vals):
        workload, name = key
        q1, med, q3 = quartiles(a_vals[key])
        line = (f"{workload:18} {name:34} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                f"spread {spread(a_vals[key]):.3f} n {len(a_vals[key])}")
        if key in b_vals:
            b_med = quartiles(b_vals[key])[1]
            change = b_med / med - 1 if med else 0.0
            line += f" | B median {b_med:.6g} change {change:+.3f}"
            if name in bounds:
                bound = bounds[name]["bound"]
                worse = change if bounds[name]["better"] == "lower" else -change
                line += f" bound {bound} {'WORSE' if worse > bound else 'ok'}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
