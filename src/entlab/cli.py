"""Command-line reproduction driver.

Every subcommand maps one experiment to machine-readable output: tabular
data goes to CSV (header row, LF endings, full double precision through
``repr``), scalars and run metadata to JSON.  Identical (config, seed) pairs
produce byte-identical CSV bodies.

:func:`main` builds the tolerance table once, the defaults of
:data:`entlab.selftest.TOLERANCES` with the ``--tol`` overrides applied, and
passes it to the subcommand, which reads its thresholds from it.  Whenever
the subcommand reaches a verdict (exit 0 or 1), ``main`` writes the run's
manifest JSON from that same table; only its timestamp differs between
identical runs.  The experiments that are also acceptance criteria (named
states, the classical superposition kernel, sector-split evolution) are
defined once, in :mod:`entlab.selftest`.

Exit codes: 0 all embedded assertions passed; 1 an assertion failed (the
first failing check is named on stderr); 2 invalid configuration;
3 resource limit exceeded; 4 numerical failure (a solver did not converge).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import __version__, chains, haar, kinetic, measures, mps, selftest, states
from .kinetic import KineticModel, TauSector
from .linalg import NumericalError, ResourceLimitError


class CheckFailure(RuntimeError):
    """An embedded assertion failed; carries the name of the first check."""


class ConfigError(ValueError):
    pass


TAU_PATTERNS = {
    "uniform-up": TauSector.uniform_up,
    "uniform-down": TauSector.uniform_down,
    "single-up": TauSector.single_up,
    "pair-up": TauSector.adjacent_pair_up,
    "half-up": TauSector.half_up,
}


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


# manifest file names that do not follow from the command name
MANIFEST_NAMES = {"kinetic-detailed-balance": "kinetic_db_manifest.json"}


def write_manifest(path: Path, command: str, args, tol) -> None:
    params = {k: v for k, v in vars(args).items()
              if k not in ("fn", "command", "kinetic_command") and not callable(v)}
    doc = {
        "command": command,
        "params": params,
        "seed": args.seed,
        "workers": args.workers,
        "tolerances": dict(tol),
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)


def emit_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2, default=float))


def require(condition: bool, name: str, detail: str = "") -> None:
    if not condition:
        raise CheckFailure(f"{name}: {detail}" if detail else name)


def require_none(failed: list[str]) -> None:
    """Raise for the first failed check a shared experiment reported."""
    if failed:
        raise CheckFailure(failed[0])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_measures(args, outdir: Path, tol) -> dict:
    if args.state == "bell":
        d = 2
    else:
        d = args.d
        if d < 2:
            raise ConfigError("dimension must be at least 2")
    psi = states.max_entangled(d)
    rho = psi.projector()
    doc = {
        "state": f"maximally entangled d={d}",
        "negativity": measures.negativity(rho),
        "log_negativity": measures.log_negativity(rho),
        "concurrence": measures.concurrence_pure(psi),
    }
    limit = tol["maxent_measures"]
    require(abs(doc["negativity"] - (d - 1) / 2) <= limit, "negativity")
    require(abs(doc["log_negativity"] - math.log2(d)) <= limit, "log-negativity")
    require(abs(doc["concurrence"] - math.sqrt(2 * (1 - 1 / d))) <= limit, "concurrence")
    if d == 2:
        doc["eof"] = measures.eof_2q(rho)
        require(abs(doc["eof"] - 1.0) <= limit, "eof")
    return doc


def cmd_witness(args, outdir: Path, tol) -> dict:
    rho = states.DensityMatrix(
        (2, 2),
        args.p * states.max_entangled(2).projector().matrix + (1 - args.p) * np.eye(4) / 4,
    )
    if args.p <= 1 / 3:
        raise ConfigError("the target state is separable for p <= 1/3")
    wit = measures.witness_from_npt(rho)
    value = measures.witness_value(wit, rho)
    rng = np.random.default_rng(args.seed)
    minimum = min(
        measures.witness_value(wit, states.random_separable(2, 2, rng))
        for _ in range(args.samples)
    )
    doc = {"p": args.p, "value_on_target": value, "min_on_separable_samples": minimum,
           "samples": args.samples}
    require(value < 0, "witness-detects-target", f"value {value}")
    require(minimum >= -1e-9, "witness-separable-positivity", f"min {minimum}")
    return doc


def cmd_maps(args, outdir: Path, tol) -> dict:
    d = args.d
    if d < 2:
        raise ConfigError("dimension must be at least 2")
    red = measures.reduction_map(d)
    out = measures.apply_map(red, states.max_entangled(d).projector(), "B")
    detect = float(np.linalg.eigvalsh(out)[0])
    choi_red = float(np.linalg.eigvalsh(measures.choi_matrix(red))[0])
    rng = np.random.default_rng(args.seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    u, _ = np.linalg.qr(g)
    choi_uni = float(np.linalg.eigvalsh(
        measures.choi_matrix(measures.unitary_conjugation_map(u))
    )[0])
    doc = {
        "d": d,
        "reduction_detection_min_eig": detect,
        "choi_reduction_min_eig": choi_red,
        "choi_unitary_min_eig": choi_uni,
        "transposition_cp": measures.is_completely_positive(measures.transposition_map(d)),
        "reduction_cp": measures.is_completely_positive(red),
    }
    psd = tol["choi_psd"]
    require(detect < -psd, "reduction-detects-entanglement")
    require(choi_red < -psd, "reduction-choi-not-psd")
    require(choi_uni >= -psd, "unitary-choi-psd")
    require(not doc["transposition_cp"], "transposition-not-cp")
    return doc


def cmd_page(args, outdir: Path, tol) -> dict:
    if args.m > args.n:
        raise ConfigError("requires m <= n")
    exact = haar.mean_entropy_exact(args.m, args.n)
    mean, err = haar.mean_entropy_mc(args.m, args.n, args.samples, seed=args.seed,
                                     workers=args.workers)
    z = abs(mean - exact) / err if err > 0 else 0.0
    doc = {
        "m": args.m, "n": args.n, "samples": args.samples,
        "exact_nats": exact, "exact_bits": haar.nats_to_bits(exact),
        "approx_nats": haar.mean_entropy_approx(args.m, args.n),
        "mc_mean_nats": mean, "mc_stderr_nats": err, "z": z,
    }
    require(z <= tol["haar_sigma"], "page-mc-consistency", f"z = {z:.2f}")
    return doc


def cmd_lubkin(args, outdir: Path, tol) -> dict:
    exact = haar.mean_purity_exact(args.m, args.n)
    mean, err = haar.mean_purity_mc(args.m, args.n, args.samples, seed=args.seed)
    z = abs(mean - exact) / err if err > 0 else 0.0
    doc = {"m": args.m, "n": args.n, "samples": args.samples,
           "exact": exact, "mc_mean": mean, "mc_stderr": err, "z": z}
    require(z <= tol["haar_sigma"], "lubkin-mc-consistency", f"z = {z:.2f}")
    return doc


def cmd_mps(args, outdir: Path, tol) -> dict:
    rng = np.random.default_rng(args.seed)
    if args.action == "roundtrip":
        psi = states.random_pure((2,) * args.sites, rng)
        state, _ = mps.from_dense(psi, dmax=args.dmax)
        back, _ = state.to_dense()
        fidelity = abs(np.vdot(psi.amplitudes, back.amplitudes))
        defects = mps.canonical_defects(state) if state.canonical else {}
        doc = {"sites": args.sites, "dmax": args.dmax, "fidelity": fidelity,
               "bond_dims": state.bond_dims, **defects}
        if args.dmax is None or args.dmax >= 2 ** (args.sites // 2):
            require(fidelity >= 1 - tol["mps_roundtrip"], "roundtrip-fidelity", f"{fidelity}")
        return doc
    if args.action == "truncate":
        psi = states.random_pure((2,) * args.sites, rng)
        full, _ = mps.from_dense(psi)
        cut, report = mps.truncate(full, args.dmax)
        actual = float(np.linalg.norm(psi.amplitudes - cut.dense_amplitudes()) ** 2)
        rows = [(k + 1, eps) for k, eps in enumerate(report.discarded)]
        write_csv(outdir / "mps_truncate.csv", ["cut", "discarded_weight"], rows)
        doc = {"sites": args.sites, "dmax": args.dmax, "bound": report.bound,
               "distance_sq": actual, "csv": str(outdir / "mps_truncate.csv")}
        require(actual <= report.bound + 1e-10, "truncation-bound", f"{actual} > {report.bound}")
        return doc
    # named states: build, verify the defining property, optionally save
    if args.state not in selftest.NAMED_STATES:
        raise ConfigError(f"unknown state {args.state}")
    state = selftest.NAMED_STATES[args.state](args.sites)
    values, failed = selftest.verify_named_state(args.state, state, tol)
    doc = {"state": args.state, "sites": args.sites, "bond_dims": state.bond_dims,
           "scale": abs(state.scale), **values}
    require_none(failed)
    if args.save:
        mps.save_mps(state, args.save)
        doc["saved"] = args.save
    return doc


def cmd_classical_superposition(args, outdir: Path, tol) -> dict:
    values, failed = selftest.classical_superposition(args.sites, args.beta, args.coupling, tol)
    doc = {"sites": args.sites, "beta": args.beta, "coupling": args.coupling, **values}
    require_none(failed)
    return doc


def cmd_arealaw(args, outdir: Path, tol) -> dict:
    blocks = list(range(args.nmin, args.nmax + 1))
    if not blocks or blocks[-1] >= args.sites:
        raise ConfigError("block range must fit inside the chain")
    scan = chains.free_fermion_entropy_scan(args.gamma, args.h, args.sites, blocks,
                                            bc=args.bc, abscissa=args.abscissa)
    rows = [("xy", args.sites, args.gamma, args.h, b, s)
            for b, s in zip(scan.block_sizes, scan.entropies_bits)]
    write_csv(outdir / "arealaw.csv",
              ["model", "N", "gamma", "h", "n", "S_bits"], rows)
    doc = {"sites": args.sites, "gamma": args.gamma, "h": args.h, "bc": args.bc,
           "abscissa": scan.abscissa, "slope": scan.slope,
           "intercept": scan.intercept, "fit_residual": scan.residual,
           "csv": str(outdir / "arealaw.csv")}
    if args.expect_slope is not None:
        require(abs(scan.slope - args.expect_slope) <= args.slope_tol,
                "slope", f"{scan.slope:.4f} vs {args.expect_slope} +- {args.slope_tol}")
    return doc


def cmd_mutualinfo(args, outdir: Path, tol) -> dict:
    slack = tol["mutual_info_slack"]
    if args.kind == "quantum":
        ham = chains.build_xy(args.gamma, args.h, args.sites)
        info, boundary, simple = chains.mutual_info_area_check(ham, args.beta, args.cut)
        rows = [("xy", args.sites, args.gamma, args.h, args.beta, args.cut,
                 info, boundary, simple)]
        write_csv(outdir / "mutualinfo.csv",
                  ["model", "N", "gamma", "h", "beta", "cut",
                   "I_nats", "boundary_bound_nats", "simple_bound_nats"], rows)
        doc = {"I_nats": info, "boundary_bound_nats": boundary,
               "simple_bound_nats": simple, "csv": str(outdir / "mutualinfo.csv")}
        require(info <= boundary + slack, "mutual-info-boundary-bound")
        require(boundary <= simple + slack, "boundary-vs-simple-bound")
    else:
        info, bound, gap = chains.classical_gibbs_mutual_info(
            lambda a, b: -args.coupling * a * b, args.beta, args.sites, args.cut)
        rows = [("ising-ring", args.sites, args.coupling, args.beta, args.cut,
                 info, bound, gap)]
        write_csv(outdir / "mutualinfo.csv",
                  ["model", "N", "J", "beta", "cut", "I_bits", "area_bound_bits",
                   "boundary_identity_gap"], rows)
        doc = {"I_bits": info, "area_bound_bits": bound,
               "boundary_identity_gap": gap, "csv": str(outdir / "mutualinfo.csv")}
        require(info <= bound + slack, "classical-area-bound")
        require(gap <= slack, "boundary-identity")
    return doc


def cmd_kinetic_spectra(args, outdir: Path, tol) -> dict:
    n = args.sites
    sectors = [TAU_PATTERNS[p](n) for p in args.tau_pattern]
    if args.model == "two-flip":
        values = [i * (math.pi / 4) / (args.phi_grid - 1) for i in range(args.phi_grid)]
    else:
        values = [float(x) for x in args.gamma_grid.split(",")]
    rows = kinetic.sector_spectra_scan(args.model, n, sectors, values,
                                       k=args.levels, delta=args.delta,
                                       workers=args.workers, seed=args.seed)
    write_csv(outdir / "kinetic_spectra.csv",
              ["model", "N", "tau_code", "tau_pattern", "phi_or_gamma",
               "level_index", "eigenvalue"],
              [(r["model"], r["N"], r["tau_code"], r["tau_pattern"],
                r["phi_or_gamma"], r["level_index"], r["eigenvalue"]) for r in rows])
    doc = {"rows": len(rows), "csv": str(outdir / "kinetic_spectra.csv")}
    if args.model == "two-flip" and "pair-up" in args.tau_pattern and args.levels >= 2:
        pair_code = TauSector.adjacent_pair_up(n).code
        by_phi = {}
        for r in rows:
            if r["tau_code"] == pair_code:
                by_phi.setdefault(r["phi_or_gamma"], {})[r["level_index"]] = r["eigenvalue"]
        worst = max(levels[1] - levels[0] for levels in by_phi.values())
        doc["pair_up_max_ground_split"] = worst
        # the exact double degeneracy of this sector is protected only when
        # the ring length is a multiple of four (it splits at N = 10, 14, ...)
        if n % 4 == 0:
            require(worst <= tol["pair_sector_gap"], "pair-up-degeneracy",
                    f"ground split {worst:.1e}")
    return doc


def cmd_kinetic_evolve(args, outdir: Path, tol) -> dict:
    values, failed = selftest.sector_evolution(args.sites, args.beta, (args.t,),
                                               args.initial_states, args.seed, tol)
    doc = {"sites": args.sites, "beta": args.beta, "t": args.t,
           "initial_states": args.initial_states, **values}
    require_none(failed)
    return doc


def cmd_kinetic_detailed_balance(args, outdir: Path, tol) -> dict:
    if args.model == "two-flip":
        model = KineticModel.two_flip(args.sites, beta=args.beta)
    else:
        model = KineticModel.single_flip(args.sites, beta=args.beta, delta=args.delta)
    ok, worst = kinetic.check_detailed_balance(model, tol["detailed_balance"])
    doc = {"model": args.model, "sites": args.sites, "beta": args.beta,
           "passes": ok, "max_violation": worst}
    require(ok, "detailed-balance", f"violation {worst:.1e}")
    return doc


def cmd_selftest(args, outdir: Path, tol) -> dict:
    only = args.only.split(",") if args.only else None
    lines = []
    failure = None
    for key, fn in selftest.REGISTRY:
        if only and key not in only:
            continue
        res = fn(tol)
        lines.append(f"[{key:>2}] {res.line()}")
        print(lines[-1])
        if not res.passed:
            failure = f"criterion {key}: {res.details}"
            break  # fail loudly on the first violation
    with open(outdir / "selftest_report.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    if failure:
        raise CheckFailure(failure)
    return {"checks": len(lines), "report": str(outdir / "selftest_report.txt")}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _int_at_least(floor: int, unit: str):
    """argparse type for an integer count of ``unit`` no smaller than ``floor``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < floor:
            raise argparse.ArgumentTypeError(f"needs at least {floor} {unit}, got {value}")
        return value
    return parse


def _criteria(text: str) -> str:
    known = [key for key, _ in selftest.REGISTRY]
    unknown = [key for key in text.split(",") if key not in known]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown criteria {','.join(unknown)}; known: {','.join(known)}")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entlab",
        description="entanglement measures, matrix product states, area laws, "
                    "and kinetic Ising models",
    )
    parser.add_argument("--out", default=None,
                        help="output directory (default: $ENTLAB_OUTDIR or '.')")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    parser.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                        help="override a named tolerance; logged in the manifest")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measures", help="closed-form entanglement measures")
    p.add_argument("state", choices=["bell", "maxent"])
    p.add_argument("--d", type=int, default=3)
    p.set_defaults(fn=cmd_measures)

    p = sub.add_parser("witness", help="witness from a partial transpose")
    p.add_argument("--p", type=float, default=1.0, help="mixing weight of the target")
    p.add_argument("--samples", type=_int_at_least(1, "samples"), default=1000)
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("maps", help="positive-map and Choi-matrix checks")
    p.add_argument("--d", type=int, default=3)
    p.set_defaults(fn=cmd_maps)

    p = sub.add_parser("page", help="mean entanglement entropy of random states")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=_int_at_least(haar.MIN_SAMPLES, "samples"),
                   default=10_000)
    p.set_defaults(fn=cmd_page)

    p = sub.add_parser("lubkin", help="mean reduced purity of random states")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=_int_at_least(haar.MIN_SAMPLES, "samples"),
                   default=10_000)
    p.set_defaults(fn=cmd_lubkin)

    p = sub.add_parser("mps", help="matrix product state engine")
    p.add_argument("action", choices=["roundtrip", "named", "truncate"])
    p.add_argument("--sites", type=int, default=8)
    p.add_argument("--dmax", type=int, default=None)
    p.add_argument("--state", default="ghz")
    p.add_argument("--save", default=None, help="write the MPS as JSON")
    p.set_defaults(fn=cmd_mps)

    p = sub.add_parser("classical-superposition",
                       help="thermal superposition state and its parent kernel")
    p.add_argument("--sites", type=int, default=8)
    p.add_argument("--beta", type=float, default=0.6)
    p.add_argument("--coupling", type=float, default=1.0)
    p.set_defaults(fn=cmd_classical_superposition)

    p = sub.add_parser("arealaw", help="block-entropy scaling of the XY chain")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--sites", type=int, default=128)
    p.add_argument("--nmin", type=int, default=8)
    p.add_argument("--nmax", type=int, default=64)
    p.add_argument("--bc", choices=["periodic", "open"], default="periodic")
    p.add_argument("--abscissa", choices=["chord", "log2n"], default="chord")
    p.add_argument("--expect-slope", type=float, default=None)
    p.add_argument("--slope-tol", type=float, default=0.03)
    p.set_defaults(fn=cmd_arealaw)

    p = sub.add_parser("mutualinfo", help="mutual-information area laws")
    p.add_argument("kind", choices=["quantum", "classical"])
    p.add_argument("--sites", type=int, default=10)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--cut", type=int, default=5)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--h", type=float, default=1.0)
    p.add_argument("--coupling", type=float, default=1.0)
    p.set_defaults(fn=cmd_mutualinfo)

    pk = sub.add_parser("kinetic", help="kinetic Ising models")
    ksub = pk.add_subparsers(dest="kinetic_command", required=True)

    p = ksub.add_parser("spectra", help="sector spectra scan")
    p.add_argument("--model", choices=["two-flip", "single-flip"], default="two-flip")
    p.add_argument("--sites", type=int, default=16)
    p.add_argument("--tau-pattern", nargs="+", choices=sorted(TAU_PATTERNS),
                   default=["pair-up"])
    p.add_argument("--phi-grid", type=_int_at_least(2, "points"), default=9,
                   help="number of phi values on [0, pi/4], at least 2")
    p.add_argument("--gamma-grid", default="0.9,0.99,0.999")
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--delta", type=float, default=0.0)
    p.set_defaults(fn=cmd_kinetic_spectra)

    p = ksub.add_parser("evolve", help="sector-split evolution against the oracle")
    p.add_argument("--sites", type=int, default=6)
    p.add_argument("--beta", type=float, default=0.4)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--initial-states", type=int, default=3)
    p.set_defaults(fn=cmd_kinetic_evolve)

    p = ksub.add_parser("detailed-balance", help="rate/Boltzmann symmetry check")
    p.add_argument("--model", choices=["two-flip", "single-flip"], default="single-flip")
    p.add_argument("--sites", type=int, default=8)
    p.add_argument("--beta", type=float, default=0.4)
    p.add_argument("--delta", type=float, default=0.0)
    p.set_defaults(fn=cmd_kinetic_detailed_balance)

    p = sub.add_parser("selftest", help="run every acceptance criterion")
    p.add_argument("--only", type=_criteria, default=None,
                   help="comma-separated criterion numbers")
    p.set_defaults(fn=cmd_selftest)

    return parser


def tolerance_table(entries) -> MappingProxyType:
    """The default tolerances with each ``NAME=VALUE`` override applied."""
    table = dict(selftest.TOLERANCES)
    for entry in entries:
        name, _, text = entry.partition("=")
        if name not in table:
            known = ", ".join(sorted(table))
            raise ConfigError(f"unknown tolerance {name!r}; known: {known}")
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not 0.0 <= value < math.inf:
            raise ConfigError(f"tolerance {name} must be a finite number >= 0, got {text!r}")
        table[name] = value
    return MappingProxyType(table)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    outdir = Path(args.out or os.environ.get("ENTLAB_OUTDIR", "."))
    command = args.command
    if command == "kinetic":
        command += "-" + args.kinetic_command
    manifest = outdir / MANIFEST_NAMES.get(command, command.replace("-", "_") + "_manifest.json")
    try:
        tol = tolerance_table(args.tol)
        outdir.mkdir(parents=True, exist_ok=True)
        try:
            doc = args.fn(args, outdir, tol)
        except CheckFailure as exc:
            doc = None
            print(f"FAIL {exc}", file=sys.stderr)
        write_manifest(manifest, command, args, tol)
        if doc is None:
            return 1
        emit_json(doc)
        return 0
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:  # ConfigError included
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
