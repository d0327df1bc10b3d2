"""The CSV bodies the benchmark gates, checked here by the benchmark's own rule.

Each command whose CSV ``bench/run.py`` gates runs once through
``bench/run.py``'s ``Runner``.  In an environment with recorded hashes in
``bench/csv_hashes.json`` the body must equal its reference file in
``bench/reference/`` byte for byte; elsewhere, where BLAS may round
differently, every numeric cell must agree within the benchmark's CSV
tolerance.  A change to a gated body shows up here, not only in a bench run.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import envinfo  # noqa: E402
import run as bench_run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from entlab import cli, selftest  # noqa: E402

GATED = sorted({op.label: op for ops in WORKLOADS.values() for op in ops if op.csv}.values(),
               key=lambda op: op.label)


@pytest.fixture(scope="module")
def hashes():
    workers = cli.build_parser().get_default("workers")
    return bench_run.load_hashes(envinfo.hash_key(envinfo.environment(bench_run.ROOT, workers)))


def test_five_bodies_are_gated():
    assert len(GATED) == 5


@pytest.mark.parametrize("op", GATED, ids=[op.label for op in GATED])
def test_gated_csv_body_matches_reference(op, hashes, tmp_path):
    runner = bench_run.Runner(cli.main, selftest.REGISTRY, tmp_path, seed=0, hashes=hashes)
    outcomes = runner.run(op)
    assert [(o.label, o.message) for o in outcomes if not o.ok] == []
    assert len(outcomes) == 2  # the command, then the check of its CSV
    body = runner.observed[op.label]
    reference = bench_run.reference_path(op.label).read_bytes()
    if hashes is not None:
        assert body == reference
    else:
        assert bench_run.csv_mismatch(body, reference) == ""
