import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from entlab.cli import build_parser, main


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


def test_resource_limit_exit_code(tmp_path):
    assert run(tmp_path, "kinetic", "evolve", "--sites", "9") == 3


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

    import entlab.chains as chains
    from entlab.linalg import NumericalError

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


def test_levels_below_one_are_rejected(tmp_path, capsys):
    for value in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "kinetic", "spectra", "--sites", "6", "--levels", value)
        assert exc.value.code == 2
        assert "--levels" in capsys.readouterr().err
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


def test_first_scipy_use_in_pool_threads_matches_serial(tmp_path):
    # at 11 sites every sector solve builds a sparse matrix and runs Lanczos,
    # so with two workers the first scipy.sparse and scipy.linalg lookups
    # race between pool threads
    bodies = []
    for workers in ("1", "2"):
        fresh_python("-m", "entlab.cli", "--out", str(tmp_path / workers), "--workers", workers,
                     "kinetic", "spectra", "--model", "two-flip", "--sites", "11")
        bodies.append((tmp_path / workers / "kinetic_spectra.csv").read_bytes())
    assert bodies[0] == bodies[1]
    assert len(bodies[0].splitlines()) == 1 + 9 * 4


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


def test_readme_examples_print_their_recorded_json(tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text())
    seen = []
    for argv in readme_examples(tmp_path):
        assert main(["--out", str(tmp_path), *argv]) == 0, argv
        key = " ".join(argv).replace(str(tmp_path), "$OUT")
        assert_same_body(json.loads(capsys.readouterr().out), golden[key], tmp_path)
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


def test_negative_symmetrized_spectrum_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    from entlab import kinetic

    original = kinetic.symmetrize
    monkeypatch.setattr(kinetic, "symmetrize", lambda model: -original(model))
    assert run(tmp_path, "classical-superposition", "--sites", "4") == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure") and "negative eigenvalue" in err
    assert not (tmp_path / "classical_superposition_manifest.json").exists()
