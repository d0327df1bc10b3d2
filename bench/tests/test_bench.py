"""Tests of the benchmark's own logic: span arithmetic, failure counting,
the CSV gate, order statistics, and the probes' install/restore cycle.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import json
import random
import statistics
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy
import pytest

import probes
import run
from stats import quartiles, spread
from tracer import Span, Tracer, children_map, outermost, self_time, union_length
from workloads import Op, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


# --- spans and self time ----------------------------------------------------

def make(kind, parent, start, end):
    span = Span(kind, parent, start)
    span.end = end
    return span


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 4), (1, 2), (3, 6), (8, 9)]) == 7.0


def test_self_time_subtracts_union_of_overlapping_thread_children():
    root = make("scan", None, 0.0, 10.0)
    a = make("task", root, 1.0, 4.0)
    b = make("task", root, 3.0, 6.0)   # overlaps a: it ran on another thread
    c = make("task", root, 8.0, 9.0)
    inner = make("solve", a, 1.5, 3.5)
    spans = [root, a, b, c, inner]
    kids = children_map(spans)
    # children cover [1, 6] and [8, 9]: 6 s, not the 7 s their durations sum to
    assert self_time(root, kids) == pytest.approx(4.0)
    assert self_time(a, kids) == pytest.approx(1.0)
    assert self_time(inner, kids) == pytest.approx(2.0)


def test_self_time_clips_children_to_the_parent():
    root = make("op", None, 0.0, 2.0)
    late = make("task", root, 1.5, 5.0)  # outlives its submitter
    assert self_time(root, children_map([root, late])) == pytest.approx(1.5)


def test_outermost_counts_nested_calls_of_a_layer_once():
    root = make("linalg.svd", None, 0.0, 2.0)
    inner = make("linalg.svd", root, 0.5, 1.5)
    other = make("linalg.svd", None, 3.0, 4.0)
    assert outermost([root, inner, other], ["linalg.svd"]) == [root, other]


def test_pool_tasks_attach_to_the_submitting_span():
    tracer = Tracer()
    executor = tracer.executor_class(ThreadPoolExecutor)
    work = tracer.wrap("work", lambda x: threading.get_ident())
    outer = tracer.wrap("scan", lambda: list(executor(max_workers=2).map(work, range(4))))
    outer()
    (scan,) = [s for s in tracer.spans if s.kind == "scan"]
    tasks = [s for s in tracer.spans if s.kind == "pool.task"]
    works = [s for s in tracer.spans if s.kind == "work"]
    assert len(tasks) == 4 and all(t.parent is scan for t in tasks)
    assert len(works) == 4 and all(w.parent in tasks for w in works)
    assert tracer.current() is None


# --- failures are counted, not fatal ----------------------------------------

def fake_main(behaviour):
    def main(argv):
        if behaviour == "raise":
            raise RuntimeError("Lanczos did not converge")
        if behaviour == "zero":
            return 1 / 0
        if behaviour == "argparse":
            raise SystemExit(2)
        if behaviour == "fail":
            return 1
        print(json.dumps({"ok": True}))
        return 0
    return main


@pytest.mark.parametrize("behaviour, needle", [
    ("raise", "RuntimeError: Lanczos did not converge"),
    ("zero", "ZeroDivisionError"),
    ("argparse", "SystemExit(2)"),
    ("fail", "exit 1"),
])
def test_a_failing_command_counts_as_one_failed_op(tmp_path, behaviour, needle):
    runner = run.Runner(fake_main(behaviour), [], tmp_path, seed=0, hashes={})
    (outcome,) = runner.run(Op("cmd", ("measures", "bell")))
    assert not outcome.ok and needle in outcome.message


def test_a_failing_op_does_not_stop_the_pass(tmp_path):
    calls = []

    def main(argv):
        calls.append(argv[-1])
        if argv[-1] == "bad":
            raise RuntimeError("boom")
        print("{}")
        return 0

    ops = [Op("a", ("x", "good")), Op("b", ("x", "bad")), Op("c", ("x", "good2"))]
    runner = run.Runner(main, [], tmp_path, seed=0, hashes={})
    _, _, outcomes = run.run_pass(ops, runner, random.Random(0))
    assert sorted(calls) == ["bad", "good", "good2"]
    assert [o.ok for o in outcomes].count(False) == 1


def test_selftest_fail_and_raise_count_as_failed(tmp_path):
    failing = lambda: SimpleNamespace(passed=False, line=lambda: "FAIL x")  # noqa: E731

    def raising():
        raise ValueError("bad input")

    runner = run.Runner(None, [("1", failing), ("2", raising)], tmp_path, seed=0, hashes={})
    (a,) = runner.run(Op("selftest 1", criterion="1"))
    (b,) = runner.run(Op("selftest 2", criterion="2"))
    assert (a.ok, a.message) == (False, "FAIL x")
    assert not b.ok and "ValueError: bad input" in b.message


# --- CSV invariance gate ------------------------------------------------------

def test_a_flipped_csv_byte_is_detected(tmp_path):
    path = tmp_path / "arealaw.csv"
    path.write_bytes(b"model,N\nxy,128\n")
    op = Op("arealaw", csv="arealaw.csv")
    runner = run.Runner(None, [], tmp_path, seed=0,
                        hashes={"arealaw": run.sha256(path.read_bytes())})
    assert runner.check_csv(op, path).ok
    body = bytearray(path.read_bytes())
    body[-2] ^= 1
    path.write_bytes(bytes(body))
    outcome = runner.check_csv(op, path)
    assert not outcome.ok and "!= recorded" in outcome.message


def test_a_missing_csv_counts_as_failed(tmp_path):
    runner = run.Runner(None, [], tmp_path, seed=0, hashes=None)
    outcome = runner.check_csv(Op("x", csv="x.csv"), tmp_path / "x.csv")
    assert not outcome.ok and "FileNotFoundError" in outcome.message


@pytest.mark.parametrize("value, ok", [
    (b"0.1250000000001", True),    # last-digit BLAS rounding
    (b"0.1250001", False),
    (b"nan", False),
])
def test_unrecorded_environment_compares_within_tolerance(tmp_path, monkeypatch, value, ok):
    monkeypatch.setattr(run, "REFERENCE_DIR", tmp_path / "reference")
    op = Op("arealaw --sites 8", csv="arealaw.csv")
    reference = run.reference_path(op.label)
    reference.parent.mkdir()
    reference.write_bytes(b"model,N,S\nxy,8,0.125\n")
    path = tmp_path / "arealaw.csv"
    path.write_bytes(b"model,N,S\nxy,8," + value + b"\n")
    runner = run.Runner(None, [], tmp_path, seed=0, hashes=None)
    outcome = runner.check_csv(op, path)
    assert outcome.ok is ok and runner.observed == {op.label: path.read_bytes()}
    path.write_bytes(b"model,N,S\nzz,8,0.125\n")
    assert not runner.check_csv(op, path).ok


def test_recorded_hashes_and_references_cover_every_gated_csv():
    table = json.loads(run.HASH_FILE.read_text())
    gated = {op.label for ops in WORKLOADS.values() for op in ops if op.csv}
    assert len(gated) == 5
    for entry in table.values():
        assert set(entry) == gated
    references = {label: run.sha256(run.reference_path(label).read_bytes())
                  for label in gated}
    assert references in table.values()


# --- order statistics ---------------------------------------------------------

def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
    q1, med, q3 = quartiles(values)
    assert (q1, q3) == tuple(statistics.quantiles(values, n=4)[::2])
    assert med == 5.5
    assert quartiles([4.2]) == (4.2, 4.2, 4.2)
    assert spread(values) == pytest.approx((q3 - q1) / 5.5)


# --- probes -------------------------------------------------------------------

def test_instrument_rebinds_every_importer_and_restores():
    from entlab import chains, kinetic, linalg, selftest, states

    original = linalg.lanczos_lowest
    tracer = Tracer()
    with probes.instrument(tracer):
        assert chains.lanczos_lowest is kinetic.lanczos_lowest is selftest.lanczos_lowest
        assert chains.lanczos_lowest is not original
        ham = chains.build_xy(1.0, 1.0, 4)
        chains.thermal_state(ham, 0.5)
    assert chains.lanczos_lowest is original and selftest.lanczos_lowest is original
    assert states.np is numpy and chains.np.linalg.eigh is numpy.linalg.eigh
    kinds = {s.kind for s in tracer.spans}
    assert {"chains.thermal", "chains.assembly", "linalg.eigh", "states.density_init"} <= kinds
    metrics = probes.layer_metrics(tracer.spans, 1, [], [])
    assert metrics["chains.assembly_calls"] == 1
    assert metrics["linalg.eigh_n3"] == 2 * 16 ** 3     # thermal eigh + validation
    assert metrics["linalg.eigh_n3_validation_frac"] == 0.5


def test_cli_command_names_follow_the_cmd_functions():
    assert probes.cli_command(["--seed", "7", "page", "--m", "2"]) == "page"
    assert probes.cli_command(["kinetic", "detailed-balance"]) == "kinetic_detailed_balance"
    assert probes.cli_command(["classical-superposition"]) == "classical_superposition"


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer = probes.layer_metrics([], 1, run.CLI_COMMANDS, run.CRITERIA)
    layer.update({"process.cpu_s": 1.0, "process.tracing_overhead_frac": 0.0,
                  "ops_failed": 0.0})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.unit_of(name) for name in layer}


def test_record_hashes_adds_but_never_overwrites(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "HASH_FILE", tmp_path / "hashes.json")
    monkeypatch.setattr(run, "REFERENCE_DIR", tmp_path / "reference")
    run.record_hashes("env", {"a": b"1"})
    run.record_hashes("env", {"a": b"1", "b": b"2"})
    assert run.load_hashes("env") == {"a": run.sha256(b"1"), "b": run.sha256(b"2")}
    with pytest.raises(SystemExit):
        run.record_hashes("env", {"a": b"9"})
    run.record_hashes("other", {"b": b"3"})      # keeps the first reference body
    assert run.reference_path("b").read_bytes() == b"2"
    assert run.load_hashes("unrecorded") is None


# --- environment record -------------------------------------------------------

def write_record(directory, workload, env, wall):
    directory.mkdir(exist_ok=True)
    doc = {"workload": workload, "seed": 1, "environment": env, "failed": 0,
           "metrics": {"wall_s": {"value": wall, "unit": "s"}}}
    (directory / f"{workload}-{wall}.json").write_text(json.dumps(doc))


def test_results_from_different_environments_are_not_compared(tmp_path, capsys):
    import compare

    env = {"git_rev": "a", "python": "3.11", "numpy": "2.4.6", "scipy": "1.17.1",
           "blas": {}, "thread_env": {}, "cpu_count": 2, "workers": 2}
    write_record(tmp_path / "a", "dense-ed", env, 1.0)
    write_record(tmp_path / "b", "dense-ed", {**env, "git_rev": "b"}, 1.1)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert "change +0.100" in capsys.readouterr().out
    write_record(tmp_path / "c", "dense-ed", {**env, "numpy": "2.0.0"}, 1.1)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "c")]) == 1
    assert "not comparable" in capsys.readouterr().out
