import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from entlab.cli import build_parser, main
from entlab.selftest import CheckResult, Outcome


def run(tmp_path, *argv):
    return main(["--out", str(tmp_path), *argv])


def test_measures_bell(tmp_path, capsys):
    assert run(tmp_path, "measures", "bell") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["negativity"] == pytest.approx(0.5)
    assert doc["log_negativity"] == pytest.approx(1.0)
    assert doc["concurrence"] == pytest.approx(1.0)
    assert doc["eof"] == pytest.approx(1.0)
    assert (tmp_path / "measures_manifest.json").exists()


def test_measures_maxent_d4(tmp_path, capsys):
    assert run(tmp_path, "measures", "maxent", "--d", "4") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["negativity"] == pytest.approx(1.5)
    assert doc["log_negativity"] == pytest.approx(2.0)


def test_invalid_config_exit_code(tmp_path):
    assert run(tmp_path, "measures", "maxent", "--d", "1") == 2
    assert run(tmp_path, "witness", "--p", "0.2") == 2


def test_resource_limit_exit_code(tmp_path, capsys):
    assert run(tmp_path, "kinetic", "evolve", "--sites", "9") == 3
    # arrays of tens to hundreds of GiB: the limit is checked before allocating them
    for argv in (("measures", "maxent", "--d", "300"), ("maps", "--d", "300"),
                 ("arealaw", "--gamma", "1", "--h", "1", "--sites", "100000"),
                 ("lubkin", "--m", "3000", "--n", "3000")):
        capsys.readouterr()
        assert run(tmp_path, *argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("resource limit: ") and err.count("\n") == 1


def test_long_kinetic_evolution_is_a_resource_limit(tmp_path, capsys):
    # |t| |gen|_1 = 1.3e7: expm_multiply would run for many minutes
    start = time.perf_counter()
    assert run(tmp_path, "kinetic", "evolve", "--sites", "4", "--initial-states", "1",
               "--t", "1e6") == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("resource limit: ") and err.count("\n") == 1
    assert "evolve_max_norm_time" in err


def test_page_checks_its_budget_before_the_closed_form(tmp_path, capsys):
    # the closed form's harmonic sum would have m n = 1e10 terms
    start = time.perf_counter()
    assert run(tmp_path, "page", "--m", "100000", "--n", "100000", "--samples", "100") == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("resource limit: ") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_out_of_memory_exits_3(tmp_path, capsys, monkeypatch):
    from entlab import selftest

    # numpy's _ArrayMemoryError is a MemoryError; a bare one has no message
    for exc in (MemoryError("Unable to allocate 1.00 GiB for an array"), MemoryError()):
        def refuse(*args, exc=exc):
            raise exc

        monkeypatch.setattr(selftest, "maxent_measures", refuse)
        assert run(tmp_path, "measures", "maxent", "--d", "90") == 3
        err = capsys.readouterr().err
        assert err.startswith("resource limit: ") and err.count("\n") == 1
        assert "Traceback" not in err
    assert err == "resource limit: out of memory\n"
    assert not (tmp_path / "measures_manifest.json").exists()


def test_page_command(tmp_path, capsys):
    assert run(tmp_path, "--seed", "7", "page", "--m", "2", "--n", "2",
               "--samples", "2000") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exact_nats"] == pytest.approx(1 / 3)
    assert doc["z"] <= 3.0


def test_lubkin_command(tmp_path, capsys):
    assert run(tmp_path, "lubkin", "--m", "2", "--n", "2", "--samples", "2000") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exact"] == pytest.approx(0.8)


def test_witness_and_maps(tmp_path, capsys):
    assert run(tmp_path, "witness", "--p", "0.9", "--samples", "100") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value_on_target"] < 0
    assert run(tmp_path, "maps", "--d", "3") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["reduction_detection_min_eig"] == pytest.approx(-2 / 3, abs=1e-9)


def test_mps_commands(tmp_path, capsys):
    assert run(tmp_path, "mps", "roundtrip", "--sites", "6") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fidelity"] >= 1 - 1e-10

    save = tmp_path / "ghz.json"
    assert run(tmp_path, "mps", "named", "--state", "ghz", "--sites", "6",
               "--save", str(save)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dense_form_deviation"] <= 1e-10
    from entlab.mps import load_mps

    state = load_mps(save)
    assert state.nsites == 6

    from entlab.selftest import TOLERANCES

    assert run(tmp_path, "mps", "named", "--state", "af-ghz", "--sites", "6") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dense_form_deviation"] <= TOLERANCES["named_state_dense_form"]

    # a capped bond: the round trip truncates to --dmax
    assert run(tmp_path, "mps", "roundtrip", "--sites", "8", "--dmax", "2") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fidelity"] < 1 and max(doc["bond_dims"]) <= 2

    assert run(tmp_path, "mps", "named", "--state", "mg", "--sites", "6") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["eigen_residual"] <= 1e-8
    assert doc["ground_energy"] == pytest.approx(-18.0)

    assert run(tmp_path, "mps", "named", "--state", "cluster", "--sites", "5") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stabilizer_sign"] == -1

    assert run(tmp_path, "mps", "truncate", "--sites", "6", "--dmax", "2") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["distance_sq"] <= doc["bound"] + 1e-10
    body = (tmp_path / "mps_truncate.csv").read_text()
    assert body.splitlines()[0] == "cut,discarded_weight"


def test_classical_superposition_command(tmp_path, capsys):
    assert run(tmp_path, "classical-superposition", "--sites", "6",
               "--beta", "0.3") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kernel_overlap"] >= 1 - 1e-10


@pytest.mark.parametrize("sites", ["14", "16"])
def test_classical_superposition_reaches_the_mps_budget(tmp_path, capsys, sites):
    # dense eigh up to dimension 1024, Lanczos above; 2^16 amplitudes is the MPS budget
    assert run(tmp_path, "classical-superposition", "--sites", sites) == 0
    assert json.loads(capsys.readouterr().out)["kernel_overlap"] >= 1 - 1e-10


def test_arealaw_command_deterministic(tmp_path, capsys):
    args = ["arealaw", "--gamma", "1.0", "--h", "1.0", "--sites", "32",
            "--nmin", "4", "--nmax", "16"]
    assert run(tmp_path, *args) == 0
    body1 = (tmp_path / "arealaw.csv").read_bytes()
    capsys.readouterr()
    assert run(tmp_path, *args) == 0
    body2 = (tmp_path / "arealaw.csv").read_bytes()
    assert body1 == body2
    assert body1.splitlines()[0] == b"model,N,gamma,h,n,S_bits"


def test_arealaw_slope_assertion(tmp_path, capsys):
    assert run(tmp_path, "arealaw", "--gamma", "0.0", "--h", "0.0", "--sites", "64",
               "--nmin", "4", "--nmax", "32", "--expect-slope", str(1 / 3),
               "--slope-tol", "0.03") == 0
    capsys.readouterr()
    # an impossible expectation must fail with exit 1
    assert run(tmp_path, "arealaw", "--gamma", "0.0", "--h", "0.0", "--sites", "64",
               "--nmin", "4", "--nmax", "32", "--expect-slope", "0.9",
               "--slope-tol", "0.01") == 1


def test_arealaw_open_chain_end_block_has_half_the_periodic_slope(tmp_path, capsys):
    # tests/test_freefermion.py::test_open_chain_end_block_scaling_is_half, through the command
    slopes = {}
    for bc in ("periodic", "open"):
        assert run(tmp_path, "arealaw", "--gamma", "0", "--h", "0", "--sites", "256",
                   "--nmin", "8", "--nmax", "32", "--abscissa", "log2n", "--bc", bc) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["bc"], doc["abscissa"]) == (bc, "log2n")
        params = json.loads((tmp_path / "arealaw_manifest.json").read_text())["params"]
        assert (params["bc"], params["abscissa"]) == (bc, "log2n")
        slopes[bc] = doc["slope"]
    assert slopes["periodic"] / slopes["open"] == pytest.approx(2.0, abs=0.25)


def test_without_out_the_files_go_to_entlab_outdir(tmp_path, monkeypatch, capsys):
    outdir = tmp_path / "from-env"
    monkeypatch.setenv("ENTLAB_OUTDIR", str(outdir))
    monkeypatch.chdir(tmp_path)
    assert main(["arealaw", "--gamma", "1", "--h", "1", "--sites", "16",
                 "--nmin", "2", "--nmax", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["csv"] == str(outdir / "arealaw.csv")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["from-env"]
    assert sorted(p.name for p in outdir.iterdir()) == ["arealaw.csv", "arealaw_manifest.json"]


def test_mutualinfo_commands(tmp_path, capsys):
    assert run(tmp_path, "mutualinfo", "quantum", "--sites", "8", "--beta", "0.5",
               "--cut", "4") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["I_nats"] <= doc["boundary_bound_nats"] + 1e-9
    assert run(tmp_path, "mutualinfo", "classical", "--sites", "10", "--beta", "0.5",
               "--cut", "5") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["I_bits"] <= doc["area_bound_bits"]


def test_kinetic_commands(tmp_path, capsys):
    assert run(tmp_path, "kinetic", "detailed-balance", "--model", "two-flip",
               "--sites", "6", "--beta", "0.4") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passes"]

    assert run(tmp_path, "kinetic", "evolve", "--sites", "4", "--beta", "0.3",
               "--t", "0.5", "--initial-states", "2") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_trace_distance"] <= 1e-8

    assert run(tmp_path, "kinetic", "spectra", "--model", "two-flip", "--sites", "8",
               "--tau-pattern", "pair-up", "single-up", "--phi-grid", "3",
               "--levels", "2") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pair_up_max_ground_split"] <= 1e-8
    header = (tmp_path / "kinetic_spectra.csv").read_text().splitlines()[0]
    assert header == "model,N,tau_code,tau_pattern,phi_or_gamma,level_index,eigenvalue"


def test_detailed_balance_passes_is_a_json_boolean(tmp_path, capsys):
    # violation exactly 0 at 5 sites, a nonzero numpy float at 8
    for sites in ("5", "8"):
        assert run(tmp_path, "kinetic", "detailed-balance", "--model", "single-flip",
                   "--sites", sites, "--beta", "0.4") == 0
        out = capsys.readouterr().out
        assert '"passes": true' in out and json.loads(out)["passes"] is True


def test_tolerance_override_logged(tmp_path, capsys):
    from entlab.selftest import TOLERANCES

    defaults = dict(TOLERANCES)
    assert run(tmp_path, "--tol", "maxent_measures=1e-9", "--tol", "haar_sigma=4",
               "measures", "bell") == 0
    manifest = json.loads((tmp_path / "measures_manifest.json").read_text())
    assert manifest["tolerances"] == {**defaults, "maxent_measures": 1e-9, "haar_sigma": 4.0}
    # a second run in the same process starts from the defaults again
    assert run(tmp_path, "measures", "bell") == 0
    manifest = json.loads((tmp_path / "measures_manifest.json").read_text())
    assert manifest["tolerances"] == defaults == dict(TOLERANCES)
    with pytest.raises(TypeError):
        TOLERANCES["maxent_measures"] = 1.0
    assert run(tmp_path, "--tol", "not_a_tolerance=1", "measures", "bell") == 2


@pytest.mark.parametrize("value", ["-1", "nan", "inf", "-inf", "abc", ""])
def test_tolerance_value_must_be_finite_and_nonnegative(tmp_path, capsys, value):
    assert run(tmp_path, "--tol", f"maxent_measures={value}", "measures", "bell") == 2
    assert "maxent_measures" in capsys.readouterr().err
    assert not (tmp_path / "measures_manifest.json").exists()


def test_commands_read_thresholds_from_the_table(tmp_path, capsys):
    # the MG residual is about 1e-14: it passes the default and fails 1e-30
    assert run(tmp_path, "--tol", "named_state_residual=1e-30",
               "mps", "named", "--state", "mg", "--sites", "6") == 1
    assert "named-state-residual" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "mps_manifest.json").read_text())
    assert manifest["tolerances"]["named_state_residual"] == 1e-30
    assert run(tmp_path, "--tol", "maxent_measures=0", "measures", "maxent", "--d", "3") == 1
    assert run(tmp_path, "--tol", "classical_superposition=0",
               "classical-superposition", "--sites", "4") == 1
    assert run(tmp_path, "--tol", "evolution_trace_distance=0", "kinetic", "evolve",
               "--sites", "4", "--initial-states", "1") == 1
    assert json.loads((tmp_path / "kinetic_evolve_manifest.json").read_text())[
        "command"] == "kinetic-evolve"


def test_thresholds_named_in_the_table(tmp_path, capsys):
    # the GHZ dense-form deviation is about 1e-16: it passes the default and fails 0
    assert run(tmp_path, "--tol", "named_state_dense_form=0",
               "mps", "named", "--state", "ghz", "--sites", "8") == 1
    assert "named-state-dense-form" in capsys.readouterr().err
    for name, argv in (("witness_separable", ["witness", "--samples", "10"]),
                       ("mps_truncation_slack", ["mps", "truncate", "--dmax", "2"]),
                       ("cluster_stabilizers", ["mps", "named", "--state", "cluster"])):
        assert run(tmp_path, "--tol", f"{name}=0.5", *argv) == 0, name
        manifest = json.loads((tmp_path / f"{argv[0]}_manifest.json").read_text())
        assert manifest["tolerances"][name] == 0.5


def test_selftest_stops_at_first_failure(tmp_path, capsys):
    assert run(tmp_path, "--tol", "two_qubit_consistency=1e-30",
               "selftest", "--only", "2,3") == 1
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1 and "FAIL two-qubit-measures" in out
    assert (tmp_path / "selftest_report.txt").read_text() == out
    assert (tmp_path / "selftest_manifest.json").exists()


def test_unknown_selftest_criterion_is_rejected(capsys):
    for value in ("99", "1,99", ""):
        with pytest.raises(SystemExit) as exc:
            main(["selftest", "--only", value])
        assert exc.value.code == 2
        assert "--only" in capsys.readouterr().err


def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    import numpy as np
    import scipy.sparse.linalg

    import entlab.chains as chains
    from entlab.linalg import NumericalError

    # low temperature keeps the evolved state within its 1e-8 checks
    assert run(tmp_path, "kinetic", "evolve", "--sites", "6", "--beta", "6", "--t", "3") == 0
    assert json.loads(capsys.readouterr().out)["max_trace_distance"] <= 1e-8
    # an integrator result that fails those checks is a numerical failure
    with monkeypatch.context() as patched:
        patched.setattr(scipy.sparse.linalg, "expm_multiply", lambda op, vec: vec + 1e-6j)
        assert run(tmp_path, "kinetic", "evolve", "--sites", "6", "--beta", "6", "--t", "3") == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: evolved state") and err.count("\n") == 1

    def not_converged(*args, **kwargs):
        raise NumericalError("Lanczos did not converge within 1 iterations")

    def lapack_failure(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(chains, "lanczos_lowest", not_converged)
    assert run(tmp_path, "mps", "named", "--state", "aklt", "--sites", "8") == 4
    assert "did not converge" in capsys.readouterr().err
    monkeypatch.setattr(np.linalg, "eigh", lapack_failure)
    assert run(tmp_path, "classical-superposition", "--sites", "4") == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure") and "Traceback" not in err
    assert not (tmp_path / "classical_superposition_manifest.json").exists()


def test_mps_truncate_without_dmax_is_rejected(tmp_path, capsys):
    assert run(tmp_path, "mps", "truncate", "--sites", "6") == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration") and "--dmax" in err
    assert not list(tmp_path.iterdir())


def test_arealaw_block_size_below_one_is_rejected(tmp_path, capsys):
    for nmin in ("0", "-2"):
        assert run(tmp_path, "arealaw", "--gamma", "1", "--h", "1", "--nmin", nmin) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration") and "nmin" in err
    assert not list(tmp_path.iterdir())


def test_arealaw_single_block_size_is_rejected(tmp_path, capsys):
    # one block size leaves no slope to fit, with or without an expectation
    for extra in ((), ("--expect-slope", "0.1667")):
        assert run(tmp_path, "arealaw", "--gamma", "1", "--h", "1", "--sites", "16",
                   "--nmin", "2", "--nmax", "2", *extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration") and "two block sizes" in err
    assert not list(tmp_path.iterdir())


def test_levels_below_one_are_rejected(tmp_path, capsys):
    for value in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "kinetic", "spectra", "--sites", "6", "--levels", value)
        assert exc.value.code == 2
        assert "--levels" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_workers_below_one_are_rejected(tmp_path, capsys):
    for value in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "--workers", value, "measures", "bell")
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_selftest_subset(tmp_path, capsys):
    assert run(tmp_path, "selftest", "--only", "1,2") == 0
    out = capsys.readouterr().out
    assert "PASS maxent-measures" in out
    assert "PASS two-qubit-measures" in out
    assert (tmp_path / "selftest_report.txt").exists()


def test_phi_grid_below_two_is_rejected(capsys):
    for value in ("1", "0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["kinetic", "spectra", "--sites", "4", "--phi-grid", value])
        assert exc.value.code == 2
        assert "--phi-grid" in capsys.readouterr().err
    args = build_parser().parse_args(["kinetic", "spectra", "--phi-grid", "2"])
    assert args.phi_grid == 2


@pytest.mark.parametrize("value", ["0.5,x", "", "0.5,", ",", "1.5", "-0.1", "nan", "inf",
                                   "0.9;0.99"])
def test_gamma_grid_is_checked_at_parse_time(tmp_path, capsys, value):
    # checked for either model, although only single-flip scans it
    for model in ("two-flip", "single-flip"):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "kinetic", "spectra", "--model", model, "--sites", "4",
                "--gamma-grid", value)
        assert exc.value.code == 2
        assert "--gamma-grid" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_valid_gamma_grid_reaches_the_manifest_as_given(tmp_path, capsys):
    assert build_parser().parse_args(["kinetic", "spectra", "--gamma-grid", "0,1"]).gamma_grid \
        == "0,1"
    assert run(tmp_path, "kinetic", "spectra", "--model", "single-flip", "--sites", "4",
               "--tau-pattern", "uniform-down", "--gamma-grid", "0.5,0.9", "--levels", "1") == 0
    manifest = json.loads((tmp_path / "kinetic_spectra_manifest.json").read_text())
    assert manifest["params"]["gamma_grid"] == "0.5,0.9"
    rows = (tmp_path / "kinetic_spectra.csv").read_text().splitlines()[1:]
    assert [row.split(",")[4] for row in rows] == ["0.5", "0.9"]


@pytest.mark.parametrize("state, sites", [("ghz", "600"), ("aklt", "700"), ("cluster", "2000")])
def test_mps_norm_overflow_exits_4(tmp_path, capsys, state, sites):
    # before, these warned of overflow and then exited 3 (ghz, aklt) or 1 (cluster)
    assert run(tmp_path, "mps", "named", "--state", state, "--sites", sites) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure") and len(err.splitlines()) == 1
    assert not list(tmp_path.iterdir())


def fresh_python(*argv):
    """Run a new interpreter that imports entlab from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          check=True, timeout=120)


def test_cli_import_loads_no_scipy_submodule(tmp_path):
    # cold start: entlab modules reach scipy.linalg and scipy.sparse through
    # the top-level package on first use, so commands that need neither skip
    # their import
    loaded = ("print(sorted(m for m in sys.modules if m in "
              "('scipy.linalg', 'scipy.sparse', 'scipy.sparse.linalg')))")
    out = fresh_python("-c", "import sys, entlab.cli; entlab.cli.build_parser(); " + loaded)
    assert out.stdout.strip() == "[]"
    # the dense side of the eigensolver crossover: AKLT at 3^6 needs numpy only
    argv = ["--out", str(tmp_path), "mps", "named", "--state", "aklt", "--sites", "6"]
    out = fresh_python("-c", f"import sys, entlab.cli; assert entlab.cli.main({argv!r}) == 0; "
                             + loaded)
    assert out.stdout.splitlines()[-1] == "[]"


def test_outputs_do_not_depend_on_workers(tmp_path, capsys):
    # the README promises that --workers leaves results unchanged: page runs
    # its Haar blocks on that many threads, and kinetic spectra (at 11 sites
    # every sector solve builds a sparse matrix and runs Lanczos) ignores it
    bodies, pages = [], []
    for workers in ("1", "3"):
        out = tmp_path / workers
        assert main(["--out", str(out), "--workers", workers, "kinetic", "spectra",
                     "--model", "two-flip", "--sites", "11"]) == 0
        bodies.append((out / "kinetic_spectra.csv").read_bytes())
        capsys.readouterr()
        assert main(["--out", str(out), "--workers", workers, "--seed", "7", "page",
                     "--m", "2", "--n", "3", "--samples", "3000"]) == 0
        pages.append(capsys.readouterr().out)
    assert bodies[0] == bodies[1]
    assert len(bodies[0].splitlines()) == 1 + 9 * 4
    assert pages[0] == pages[1]
    assert json.loads(pages[0])["samples"] == 3000


def readme_commands():
    """Every `entlab ...` command in the README's sh blocks, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("entlab "):
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_readme_examples_parse():
    commands = readme_commands()
    assert len(commands) >= 17
    assert ["--seed", "7", "page", "--m", "2", "--n", "2", "--samples", "10000"] in commands
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert callable(args.fn), argv


@pytest.mark.parametrize("argv", [
    ("page", "--m", "2", "--n", "2", "--samples", "99"),
    ("page", "--m", "2", "--n", "2", "--samples", "50"),
    ("lubkin", "--m", "2", "--n", "2", "--samples", "1"),
    ("lubkin", "--m", "2", "--n", "2", "--samples", "0"),
    ("witness", "--samples", "0"),
    ("witness", "--samples", "-5"),
])
def test_sample_counts_without_a_statistic_are_rejected(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *argv)
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_sample_count_floors_are_accepted():
    parser = build_parser()
    assert parser.parse_args(["page", "--m", "2", "--n", "2", "--samples", "100"]).samples == 100
    assert parser.parse_args(["lubkin", "--m", "2", "--n", "2", "--samples", "100"]).samples == 100
    assert parser.parse_args(["witness", "--samples", "1"]).samples == 1


def test_named_state_oracle_reaches_the_dense_budget(tmp_path, capsys):
    # 3^10 = 59049 amplitudes: sparse Lanczos oracle, inside 2^16
    assert run(tmp_path, "mps", "named", "--state", "aklt", "--sites", "10") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["eigen_residual"] <= 1e-8
    assert doc["ground_energy"] == pytest.approx(-2 / 3 * 10)
    # 3^11 amplitudes exceed the budget: a resource limit, not an unverified pass
    assert run(tmp_path, "mps", "named", "--state", "aklt", "--sites", "11") == 3
    assert "dense budget" in capsys.readouterr().err


# -- every README example against its JSON body before experiments moved into selftest --

GOLDEN = Path(__file__).with_name("cli_golden.json")


def readme_examples(out):
    """The README examples but ``selftest``, as the benchmark runs them:
    ``kinetic spectra`` at 13 sites, and ``--save`` into ``out``."""
    for argv in readme_commands():
        if argv[0] == "selftest":
            continue
        if argv[:2] == ["kinetic", "spectra"]:
            argv[argv.index("--sites") + 1] = "13"
        if "--save" in argv:
            argv[argv.index("--save") + 1] = str(out / argv[argv.index("--save") + 1])
        yield argv


def assert_same_body(got, want, out):
    """Same keys in the same order; floats within the CSV gate's tolerance,
    every other value equal and of the same type, paths after ``$OUT``."""
    assert list(got) == list(want)
    for key, value in want.items():
        mine = got[key]
        assert type(mine) is type(value), key
        if isinstance(value, float):
            assert mine == pytest.approx(value, rel=1e-8, abs=1e-10), key
        elif isinstance(value, str):
            assert mine.replace(str(out), "$OUT") == value, key
        else:
            assert mine == value, key


def strict_json(text):
    """``json.loads`` that rejects the non-standard ``NaN`` and ``Infinity``."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_readme_examples_print_their_recorded_json(tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text())
    seen = []
    for argv in readme_examples(tmp_path):
        assert main(["--out", str(tmp_path), *argv]) == 0, argv
        key = " ".join(argv).replace(str(tmp_path), "$OUT")
        assert_same_body(strict_json(capsys.readouterr().out), golden[key], tmp_path)
        seen.append(key)
    assert seen == list(golden)


def test_main_calls_the_command_global_once(tmp_path, monkeypatch, capsys):
    # the benchmark times each command by rebinding cli.cmd_<name> in place
    import sys

    import entlab.cli as cli
    from entlab.selftest import Outcome

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    from probes import cli_command

    commands = readme_commands()
    for argv in commands:
        calls = []
        name = "cmd_" + cli_command(argv)
        monkeypatch.setattr(cli, name, lambda *a, _calls=calls: _calls.append(a) or Outcome({}, []))
        assert main(["--out", str(tmp_path), *argv]) == 0, argv
        assert len(calls) == 1, argv
        monkeypatch.undo()
    assert {cli_command(argv) for argv in commands} == {
        name[4:] for name in vars(cli) if name.startswith("cmd_")}


@pytest.mark.parametrize("argv,key", [
    (("mutualinfo", "quantum", "--sites", "4", "--cut", "2", "--beta", "1e308"),
     "simple_bound_nats"),
    (("mutualinfo", "classical", "--sites", "6", "--cut", "3", "--coupling", "1e308",
      "--beta", "10"), "Ising ring energies"),
    (("kinetic", "evolve", "--sites", "4", "--initial-states", "1", "--t", "1e308"),
     "the generator times t = 1e+308 is not finite"),
])
def test_an_overflowing_result_is_a_numerical_failure(tmp_path, capsys, argv, key):
    assert run(tmp_path, *argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: ") and key in lines[0]
    assert not list(tmp_path.iterdir())


def test_negative_symmetrized_spectrum_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    # a negated Pauli-form operator: a lowest level far below zero is a solver
    # failure (exit 4), not a failed kernel-eigenvalue check (exit 1)
    from entlab import kinetic
    from entlab.chains import SpinHamiltonian

    original = kinetic.build_h_beta_single_flip

    def negated(model):
        ham = original(model)
        return SpinHamiltonian(ham.nsites, ham.local_dim, [(-c, f) for c, f in ham.terms])

    monkeypatch.setattr(kinetic, "build_h_beta_single_flip", negated)
    assert run(tmp_path, "classical-superposition", "--sites", "4") == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure") and "negative eigenvalue" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "classical_superposition_manifest.json").exists()


def test_an_inexact_kernel_vector_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    # lowest_levels checks the residual of every eigenpair it returns
    original = np.linalg.eigh

    def perturbed(a, *args, **kwargs):
        w, v = original(a, *args, **kwargs)
        if a.shape[0] == 2 ** 6:  # the kernel solve, not the MPS's 2 x 2 transfer root
            v = v.copy()
            v[0, 0] += 1e-4
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    assert run(tmp_path, "classical-superposition", "--sites", "6") == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure") and "eigenpair residual" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("kind,sites,cut", [
    ("quantum", 4, 0), ("quantum", 4, 4),
    ("classical", 4, 0), ("classical", 4, 4), ("classical", 1, 1), ("quantum", 1, 1),
])
def test_mutualinfo_cut_outside_the_chain_is_rejected(tmp_path, capsys, kind, sites, cut):
    assert run(tmp_path, "mutualinfo", kind, "--sites", str(sites), "--cut", str(cut)) == 2
    assert "1 <= cut < sites" in capsys.readouterr().err
    assert not (tmp_path / "mutualinfo_manifest.json").exists()


@pytest.mark.parametrize("argv,option", [
    (("classical-superposition", "--sites", "0"), "--sites"),
    (("mps", "roundtrip", "--sites", "0"), "--sites"),
    (("kinetic", "spectra", "--sites", "0"), "--sites"),
    (("kinetic", "evolve", "--sites", "0"), "--sites"),
    (("kinetic", "evolve", "--initial-states", "0"), "--initial-states"),
    (("kinetic", "detailed-balance", "--beta", "inf"), "--beta"),
    (("mutualinfo", "classical", "--sites", "4", "--cut", "2", "--beta", "nan"), "--beta"),
    (("mutualinfo", "classical", "--sites", "4", "--cut", "2", "--beta", "inf"), "--beta"),
    (("arealaw", "--gamma", "1", "--h", "1", "--expect-slope", "nan"), "--expect-slope"),
    (("arealaw", "--gamma=-inf", "--h", "1"), "--gamma"),
    (("witness", "--p", "nan"), "--p"),
    (("kinetic", "evolve", "--t", "-1"), "--t"),
    (("arealaw", "--gamma", "1", "--h", "1", "--slope-tol", "-0.5"), "--slope-tol"),
])
def test_bad_counts_and_non_finite_numbers_exit_2_at_parse_time(tmp_path, capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *argv)
    assert exc.value.code == 2
    assert option in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv,rule", [
    (("kinetic", "spectra", "--sites", "2"), "at least 4 sites"),
    (("kinetic", "spectra", "--sites", "3"), "at least 4 sites"),
    (("kinetic", "spectra", "--model", "single-flip", "--sites", "2"), "at least 3 sites"),
    (("kinetic", "evolve", "--sites", "3"), "at least 4 sites"),
    (("kinetic", "detailed-balance", "--model", "two-flip", "--sites", "6", "--delta", "0.5"),
     "delta"),
    (("kinetic", "spectra", "--model", "two-flip", "--delta", "0.7"), "delta"),
    (("classical-superposition", "--sites", "2"), "at least 3 sites"),
])
def test_short_rings_and_two_flip_delta_are_invalid_configurations(tmp_path, capsys, argv,
                                                                    rule):
    assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration:") and err.count("\n") == 1
    assert rule in err
    assert not list(tmp_path.iterdir())


# the one stderr line of a thermal command at a temperature KineticModel.beta rejects
NO_FINITE_BETA = "invalid configuration: needs a finite-temperature parametrization"


@pytest.mark.parametrize("argv,rule", [
    # the boundary bounds are derived for beta >= 0
    (("mutualinfo", "quantum", "--sites", "4", "--cut", "2", "--beta", "-1"), "beta >= 0"),
    # criterion 9 checks the free fermions against the dense route on [0, 1] only
    (("arealaw", "--gamma", "1.5", "--h", "1", "--sites", "16", "--nmin", "2", "--nmax", "4"),
     "anisotropy must lie in [0, 1]"),
    (("mutualinfo", "quantum", "--sites", "4", "--cut", "2", "--gamma", "1.5"),
     "anisotropy must lie in [0, 1]"),
    # the thermal map gamma = tanh(2 beta J) of the kinetic models
    (("kinetic", "detailed-balance", "--model", "single-flip", "--sites", "6", "--beta", "-0.3"),
     "beta must be non-negative, got beta -0.3"),
    # gamma = tanh(2 beta) rounds to 1 from beta of about 9.7 at J = 1
    (("classical-superposition", "--sites", "8", "--beta", "10"), NO_FINITE_BETA),
    (("kinetic", "detailed-balance", "--sites", "8", "--beta", "10"), NO_FINITE_BETA),
    (("kinetic", "evolve", "--sites", "6", "--beta", "10"), NO_FINITE_BETA),
    # checked before the MPS weights exp(beta J / 2), which overflow from beta J > 1419
    (("classical-superposition", "--sites", "8", "--beta", "1500"), NO_FINITE_BETA),
    (("classical-superposition", "--sites", "8", "--beta", "1", "--coupling", "1e308"),
     NO_FINITE_BETA),
    # at N = 2b + 1 the chord abscissae of blocks b and b + 1 coincide
    (("arealaw", "--gamma", "1", "--h", "1", "--sites", "7", "--nmin", "3", "--nmax", "4"),
     "a slope fit needs at least two distinct abscissae"),
    # checked before the budget and before any draw
    (("page", "--m", "-1", "--n", "2"), "m, n must be positive"),
])
def test_inputs_outside_the_derivations_are_invalid_configurations(tmp_path, capsys, argv,
                                                                    rule):
    assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration:") and err.count("\n") == 1
    assert rule in err
    assert not list(tmp_path.iterdir())


def test_unwritable_output_paths_exit_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["--out", str(taken), "measures", "bell"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration") and err.count("\n") == 1
    missing = tmp_path / "missing" / "x.json"
    assert run(tmp_path, "mps", "named", "--state", "aklt", "--sites", "6",
               "--save", str(missing)) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration") and err.count("\n") == 1
    assert not missing.parent.exists()


def reload_off_by_one_ulp(load):
    def perturbed(path):
        state = load(path)
        state.tensors[0] = np.nextafter(state.tensors[0].real, np.inf) + 1j * state.tensors[0].imag
        return state
    return perturbed


@pytest.mark.parametrize("argv, target, disagree, check, tolerance", [
    (("maps", "--d", "3"), "measures.kraus_operators",
     lambda f: lambda qmap: [1.001 * k for k in f(qmap)],
     "kraus-reconstruction", "kraus_reconstruction"),
    (("mps", "truncate", "--sites", "8", "--dmax", "2"), "mps.renyi_truncation_bound",
     lambda f: lambda *a: f(*a) - 10.0, "renyi-truncation-bound", "renyi_truncation_slack"),
    (("mps", "named", "--state", "aklt", "--sites", "6", "--save", "aklt.json"), "mps.load_mps",
     reload_off_by_one_ulp, "mps-reload", "mps_reload"),
    (("mutualinfo", "classical", "--sites", "12", "--beta", "0.5", "--cut", "6"),
     "chains.markov_violation", lambda f: lambda *a: f(*a) + 1e-9,
     "markov-identity", "markov_identity"),
    (("kinetic", "evolve", "--sites", "6"), "kinetic.classical_evolve",
     lambda f: lambda *a: f(*a) + 1e-6, "sector-vs-classical", "classical_evolution"),
])
def test_cross_checks_fail_when_their_oracle_disagrees(tmp_path, capsys, monkeypatch, argv,
                                                       target, disagree, check, tolerance):
    import importlib

    from entlab.selftest import TOLERANCES

    module, name = target.split(".")
    module = importlib.import_module(f"entlab.{module}")
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    assert run(tmp_path, *argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(module, name, disagree(getattr(module, name)))
    assert run(tmp_path, *argv) == 1
    assert capsys.readouterr().err.startswith(f"FAIL {check}:")
    manifest = next(tmp_path.glob("*_manifest.json"))
    assert json.loads(manifest.read_text())["tolerances"][tolerance] == TOLERANCES[tolerance]


# -- each action accepts only the options its cmd_* reads --

# every command that runs, as its argv words, in declaration order
LEAVES = ["measures bell", "measures maxent", "witness", "maps", "page", "lubkin",
          "mps roundtrip", "mps named", "mps truncate", "classical-superposition", "arealaw",
          "mutualinfo quantum", "mutualinfo classical", "kinetic spectra", "kinetic evolve",
          "kinetic detailed-balance", "selftest"]


def _subcommands(parser):
    """The parser's subcommand group, or None."""
    return next((a for a in parser._actions if isinstance(a, argparse._SubParsersAction)), None)


def leaves(parser, words=()):
    """The argv words of each command that runs, in declaration order."""
    group = _subcommands(parser)
    if group is None:
        yield " ".join(words)
        return
    for name, child in group.choices.items():
        yield from leaves(child, (*words, name))


class ReadRecorder:
    """Stands in for a parsed Namespace and records each attribute read."""

    def __init__(self, args):
        self.args, self.read = args, set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self.args, name)


def option_reads(parser, words, outdir):
    """(options the command at ``words`` reads, options it accepts).

    Accepted are the options of the subcommands along ``words`` and the values
    they set by ``set_defaults``, other than ``fn``.  Reads of the global
    options and of the names that route to the command (``command``, ``state``,
    ...) are left out.  A required option is given the value ``2``."""
    chain = [parser]
    for word in words:
        group = _subcommands(chain[-1])
        if group is None or word not in group.choices:
            break  # a positional choice rather than a subcommand
        chain.append(group.choices[word])
    accepted = {a.dest for p in chain[1:] for a in p._actions if a.option_strings} - {"help"}
    accepted |= {key for p in chain[1:] for key in p._defaults if key != "fn"}
    left_out = {a.dest for p in chain for a in p._actions if not a.option_strings}
    left_out |= {a.dest for a in parser._actions}
    required = [x for a in chain[-1]._actions if a.required and a.option_strings
                for x in (a.option_strings[0], "2")]
    args = parser.parse_args([*words, *required])
    recorder = ReadRecorder(args)
    args.fn(recorder, outdir, {})
    return recorder.read - left_out, accepted


class StubExperiments:
    """Stands in for :mod:`entlab.selftest`: one criterion, and every experiment passes."""

    REGISTRY = (("1", lambda tol: CheckResult("stub", True, "")),)

    def __getattr__(self, name):
        return lambda *args, **kwargs: Outcome({}, [])


def test_every_command_that_runs_is_listed():
    assert list(leaves(build_parser())) == LEAVES


@pytest.mark.parametrize("command", LEAVES)
def test_each_command_reads_exactly_the_options_it_accepts(tmp_path, monkeypatch, command):
    import entlab.cli as cli

    parser = build_parser()
    monkeypatch.setattr(cli, "selftest", StubExperiments())
    read, accepted = option_reads(parser, command.split(), tmp_path)
    assert read == accepted


def test_an_accepted_option_that_is_not_read_is_reported(tmp_path):
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("action", choices=["fast", "slow"])
    p.add_argument("--used", type=int, required=True)
    p.add_argument("--ignored", default=None)
    p.set_defaults(fn=lambda args, outdir, tol: (args.action, args.used, args.seed))
    assert list(leaves(parser)) == ["run"]
    assert option_reads(parser, ["run", "fast"], tmp_path) == ({"used"}, {"used", "ignored"})


@pytest.mark.parametrize("argv,option", [
    ("measures bell --d 3", "--d"),
    ("mps named --dmax 2", "--dmax"),
    ("mps roundtrip --save x.json", "--save"),
    ("mps truncate --state aklt", "--state"),
    ("mutualinfo classical --gamma 0.5", "--gamma"),
    ("mutualinfo quantum --coupling 2", "--coupling"),
    ("mps named --state foo", "--state"),
])
def test_an_option_the_action_does_not_read_exits_2(tmp_path, capsys, monkeypatch, argv,
                                                    option):
    monkeypatch.chdir(tmp_path)  # a relative --save would land here
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *argv.split())
    assert exc.value.code == 2
    assert option in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_manifests_record_the_options_that_were_used(tmp_path, capsys):
    assert run(tmp_path, "measures", "bell") == 0
    params = json.loads((tmp_path / "measures_manifest.json").read_text())["params"]
    assert (params["state"], params["d"]) == ("bell", 2)
    assert run(tmp_path, "mutualinfo", "classical", "--sites", "6", "--cut", "3") == 0
    params = json.loads((tmp_path / "mutualinfo_manifest.json").read_text())["params"]
    assert params["kind"] == "classical" and params["coupling"] == 1.0
    assert not {"gamma", "h"} & set(params)
    assert run(tmp_path, "mps", "named", "--state", "aklt", "--sites", "6") == 0
    params = json.loads((tmp_path / "mps_manifest.json").read_text())["params"]
    assert params["action"] == "named" and "dmax" not in params
