"""entlab benchmark: wall time to verified results, per workload.

Usage, from the root of a checkout::

    python3 bench/run.py --workload small-ops --seed 1 --seconds 25 --trace 0

One run is one fresh process.  It drives entlab only through
``entlab.cli.main(argv)`` and the ``entlab.selftest`` check functions,
closed loop: each operation starts when the previous one returned.  Passes
over the workload's operations repeat until the next pass would end past
``--seconds`` (the first pass always runs).  The seed fixes the order of
the operations in each pass and the ``--seed`` of the commands whose checks
hold for any seed.

``--trace 0`` reports the end-to-end metrics with no tracing installed.
``--trace 1`` runs the same untraced passes, then one pass with the layer
probes of ``probes.py`` installed and one more untraced pass as the warm
reference for the tracing overhead, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, quartiles, per-operation times, failures, CSV hashes) is
written to ``.bench_out/results/``.  The run exits 2 without a result when
the entlab sources are not in ``src/`` next to ``bench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import envinfo
import probes
from stats import summary
from tracer import Tracer
from workloads import WORKLOADS, Op

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
HASH_FILE = BENCH_DIR / "csv_hashes.json"
REFERENCE_DIR = BENCH_DIR / "reference"
CSV_RTOL, CSV_ATOL = 1e-8, 1e-10
SETUP_REPEATS = 7

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
CLI_COMMANDS = sorted({probes.cli_command(op.argv)
                       for ops in WORKLOADS.values() for op in ops if op.argv})
CRITERIA = sorted({op.criterion for ops in WORKLOADS.values() for op in ops if op.criterion},
                  key=int)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_eff", "_over_solve")) or name == "ops_failed":
        return "ratio"
    return "count"


@dataclass
class Outcome:
    label: str
    ok: bool
    seconds: float = 0.0
    message: str = ""


def describe(exc: BaseException) -> str:
    frames = traceback.extract_tb(exc.__traceback__)
    where = f" (at {Path(frames[-1].filename).name}:{frames[-1].lineno})" if frames else ""
    return f"{type(exc).__name__}: {exc}{where}"


def call_cli(main, argv) -> tuple[bool, str]:
    """Run one command; anything but exit 0 with a JSON document is a failure."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:  # argparse rejects the command line
        return False, f"SystemExit({exc.code}): {err.getvalue().strip()}"
    except Exception as exc:  # an error escaped cli.main: count it, keep going
        return False, describe(exc)
    if code != 0:
        return False, f"exit {code}: {err.getvalue().strip()}"
    try:
        json.loads(out.getvalue())
    except ValueError:
        return False, "output is not one JSON document"
    return True, ""


def call_check(fn) -> tuple[bool, str]:
    try:
        result = fn()
    except Exception as exc:  # a check that raises counts as failed
        return False, describe(exc)
    return bool(result.passed), "" if result.passed else result.line()


def sha256(body: bytes) -> str:
    return hashlib.sha256(body).hexdigest()


def reference_path(label: str) -> Path:
    return REFERENCE_DIR / (re.sub(r"[^A-Za-z0-9]+", "-", label).strip("-") + ".csv")


def csv_mismatch(body: bytes, reference: bytes) -> str:
    """Where ``body`` departs from ``reference``: numeric cells may differ by
    CSV_RTOL/CSV_ATOL, every other cell must be equal.  Empty when they match."""
    rows = list(csv.reader(io.StringIO(body.decode())))
    want = list(csv.reader(io.StringIO(reference.decode())))
    if len(rows) != len(want):
        return f"{len(rows)} rows, reference has {len(want)}"
    for i, (row, ref) in enumerate(zip(rows, want)):
        if len(row) != len(ref):
            return f"row {i}: {len(row)} cells, reference has {len(ref)}"
        for cell, expect in zip(row, ref):
            try:
                close = math.isclose(float(cell), float(expect),
                                     rel_tol=CSV_RTOL, abs_tol=CSV_ATOL)
            except ValueError:
                close = cell == expect
            if not close:
                return f"row {i}: {cell!r} != reference {expect!r}"
    return ""


class Runner:
    """Runs operations and collects their outcomes and CSV hashes."""

    def __init__(self, main, registry, workdir: Path, seed: int, hashes):
        self.main = main
        self.checks = dict(registry)
        self.workdir = workdir
        self.seed = seed
        self.hashes = hashes        # op label -> recorded sha256, or None
        self.tracer = None          # set for the traced pass only
        self.observed: dict[str, bytes] = {}   # op label -> CSV body

    def run(self, op: Op) -> list[Outcome]:
        t0 = time.perf_counter()
        if op.criterion:
            fn = self.checks[op.criterion]
            if self.tracer is not None:
                fn = self.tracer.wrap(f"selftest.c{op.criterion}", fn)
            ok, message = call_check(fn)
            return [Outcome(op.label, ok, time.perf_counter() - t0, message)]
        outdir = self.workdir / hashlib.sha1(op.label.encode()).hexdigest()[:12]
        argv = ["--out", str(outdir)]
        if op.seeded:
            argv += ["--seed", str(self.seed)]
        ok, message = call_cli(self.main, argv + list(op.argv))
        outcomes = [Outcome(op.label, ok, time.perf_counter() - t0, message)]
        if ok and op.csv:
            outcomes.append(self.check_csv(op, outdir / op.csv))
        return outcomes

    def check_csv(self, op: Op, path: Path) -> Outcome:
        """Byte-exact against the recorded hash in a recorded environment;
        elsewhere, where BLAS may round differently, within tolerance of the
        reference body."""
        label = f"csv {op.csv} of {op.label}"
        try:
            body = path.read_bytes()
            self.observed[op.label] = body
            if self.hashes is None:
                message = csv_mismatch(body, reference_path(op.label).read_bytes())
                return Outcome(label, not message, message=message)
        except (OSError, UnicodeDecodeError) as exc:
            return Outcome(label, False, message=describe(exc))
        digest, want = sha256(body), self.hashes.get(op.label)
        ok = digest == want
        return Outcome(label, ok, message="" if ok else f"sha256 {digest} != recorded {want}")


def run_pass(ops, runner: Runner, rng: random.Random) -> tuple[float, float, list[Outcome]]:
    """(wall seconds, CPU seconds, outcomes) of one pass in a seeded order."""
    order = list(ops)
    rng.shuffle(order)
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    outcomes = [o for op in order for o in runner.run(op)]
    return time.perf_counter() - t0, cpu_seconds() - cpu0, outcomes


def measure(ops, runner: Runner, rng: random.Random, seconds: float):
    """Back-to-back passes until the next one would end past ``seconds``."""
    walls, cpus, outcomes = [], [], []
    start = time.perf_counter()
    while True:
        wall, cpu, outs = run_pass(ops, runner, rng)
        walls.append(wall)
        cpus.append(cpu)
        outcomes += outs
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return walls, cpus, outcomes


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def setup_times(repeats: int) -> list[float]:
    """Seconds for a fresh interpreter to import entlab.cli and build the parser."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import entlab.cli as c; c.build_parser()"
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


def hash_table() -> dict:
    return json.loads(HASH_FILE.read_text()) if HASH_FILE.exists() else {}


def load_hashes(key: str):
    return hash_table().get(key)


def record_hashes(key: str, observed: dict) -> None:
    """Add observed hashes for this environment, and reference bodies where
    none exist; never overwrite a recorded one."""
    table = hash_table()
    entry = table.setdefault(key, {})
    for label, body in sorted(observed.items()):
        digest = sha256(body)
        if entry.get(label, digest) != digest:
            raise SystemExit(f"refusing to overwrite the recorded hash of {label!r}")
        entry[label] = digest
        path = reference_path(label)
        if not path.exists():
            path.parent.mkdir(exist_ok=True)
            path.write_bytes(body)
    HASH_FILE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


def load_entlab():
    """Import entlab from this checkout's src/, or exit 2."""
    if not (SRC / "entlab" / "__init__.py").is_file():
        print(f"no entlab sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import entlab.cli
    import entlab.selftest

    if Path(entlab.__file__).resolve().parent != (SRC / "entlab").resolve():
        print(f"entlab was imported from {entlab.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return entlab.cli, entlab.selftest


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-hashes", action="store_true",
                        help="add this run's CSV hashes for an unrecorded environment")
    return parser.parse_args(argv)


def traced_metrics(ops, runner: Runner, rng: random.Random, workers: int, walls):
    """Per-layer metrics from one traced pass, plus the outcomes of that pass
    and of one more untraced pass.  The overhead compares the traced pass with
    the median of ``walls`` and that last pass, all untraced."""
    tracer = runner.tracer = Tracer()
    try:
        with probes.instrument(tracer):
            traced_wall, _, traced = run_pass(ops, runner, rng)
    finally:
        runner.tracer = None
    last_wall, ref_cpu, reference = run_pass(ops, runner, rng)
    ref_wall = statistics.median([*walls, last_wall])
    metrics = probes.layer_metrics(tracer.spans, workers, CLI_COMMANDS, CRITERIA)
    metrics["process.cpu_s"] = ref_cpu
    metrics["process.tracing_overhead_frac"] = traced_wall / ref_wall - 1
    extra = {"traced_wall_s": traced_wall, "reference_wall_s": ref_wall,
             "spans": len(tracer.spans)}
    return metrics, traced + reference, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    cli, selftest = load_entlab()
    workers = cli.build_parser().get_default("workers")
    env = envinfo.environment(ROOT, workers)
    key = envinfo.hash_key(env)
    hashes = load_hashes(key)
    ops = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env}
    runner = Runner(cli.main, selftest.REGISTRY, workdir, args.seed, hashes)
    try:
        setup = setup_times(SETUP_REPEATS) if args.trace == 0 else []
        walls, cpus, outcomes = measure(ops, runner, rng, args.seconds)
        if args.trace == 0:
            metrics = {"wall_s": statistics.median(walls),
                       "setup_s": statistics.median(setup),
                       "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
            units = END_TO_END
            record["setup_s"] = summary(setup)
        else:
            metrics, more, extra = traced_metrics(ops, runner, rng, workers, walls)
            outcomes += more
            metrics["ops_failed"] = sum(not o.ok for o in outcomes) / len(outcomes)
            units = {name: unit_of(name) for name in metrics}
            record.update(extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [o for o in outcomes if not o.ok]
    per_op = {}
    for o in outcomes:
        per_op.setdefault(o.label, []).append(o.seconds)
    record.update({
        "pass_wall_s": walls,
        "wall_s": summary(walls),
        "cpu_s": summary(cpus),
        "attempted": len(outcomes),
        "failed": len(failures),
        "ops_failed": {"value": len(failures) / len(outcomes), "base": len(outcomes)},
        "failures": [{"op": o.label, "message": o.message} for o in failures],
        "op_seconds": {label: summary(times) for label, times in per_op.items()},
        "csv_hashes": {"key": key, "check": "exact" if hashes is not None else "tolerance",
                       "observed": {k: sha256(v) for k, v in runner.observed.items()}},
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    })
    if args.record_hashes:
        record_hashes(key, runner.observed)
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    if hashes is None:
        print(f"no CSV hashes recorded for environment {key!r}: "
              f"CSV bodies compared with {REFERENCE_DIR.name}/ within tolerance")
    for o in failures:
        print(f"FAILED {o.label}: {o.message}")
    for name, doc in record["metrics"].items():
        print(f"{name} {doc['value']:.6g} {doc['unit']}")
    print(f"record: {path}")
    print(json.dumps({"correct": not failures, "attempted": len(outcomes),
                      "failed": len(failures), "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
