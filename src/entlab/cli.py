"""Command-line reproduction driver.

Every subcommand but ``selftest`` maps its arguments onto one experiment of
:mod:`entlab.selftest`, which returns an :class:`~entlab.selftest.Outcome`
(values, failed checks, CSV table).  :func:`main` is the one driver: it
writes the CSV table (header row, LF endings, full double precision through
``repr``) to the file the ``csv`` value names and puts its path there, names
the first failed check on stderr, writes the run's manifest JSON whenever a
verdict was reached, and prints the values as JSON when nothing failed.
Identical (config, seed) pairs produce byte-identical CSV bodies.

A command with actions (``measures``, ``mps``, ``mutualinfo``, ``kinetic``)
declares each action as a nested subcommand that accepts only the options
its experiment reads; any other option exits 2 at parse time.

``main`` builds the tolerance table once, the defaults of
:data:`entlab.selftest.TOLERANCES` with the ``--tol`` overrides applied; the
experiment reads its thresholds from it and the manifest records it, so only
the manifest's timestamp differs between identical runs.

Exit codes: 0 all embedded assertions passed; 1 an assertion failed (the
first failing check is named on stderr); 2 invalid configuration;
3 resource limit exceeded (a ``BUDGET`` entry, or an allocation that failed);
4 numerical failure (a solver did not converge, or a value or CSV cell is not
finite; nothing is written then).
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

from . import __version__, haar, kinetic, selftest
from .linalg import NumericalError, ResourceLimitError
from .selftest import Outcome


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


def require_finite(outcome: Outcome) -> None:
    """Raise :class:`NumericalError` naming the first value or CSV column that
    holds a non-finite float: an overflow is a numerical failure, not a result."""
    header, rows = outcome.table or ((), ())
    for key, value in [*outcome.values.items(), *(c for row in rows for c in zip(header, row))]:
        for x in value if isinstance(value, (list, tuple)) else (value,):
            if isinstance(x, (float, np.floating)) and not math.isfinite(x):
                raise NumericalError(f"{key} is {x}, not a finite number")


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


# ---------------------------------------------------------------------------
# subcommands: each maps its arguments onto one experiment
# ---------------------------------------------------------------------------

def cmd_measures(args, outdir: Path, tol) -> Outcome:
    return selftest.maxent_measures(args.d, tol)


def cmd_witness(args, outdir: Path, tol) -> Outcome:
    return selftest.witness(args.p, args.samples, args.seed, tol)


def cmd_maps(args, outdir: Path, tol) -> Outcome:
    return selftest.positive_maps(args.d, args.seed, tol)


def cmd_page(args, outdir: Path, tol) -> Outcome:
    return selftest.page(args.m, args.n, args.samples, args.seed, args.workers, tol)


def cmd_lubkin(args, outdir: Path, tol) -> Outcome:
    return selftest.lubkin(args.m, args.n, args.samples, args.seed, tol)


def cmd_mps(args, outdir: Path, tol) -> Outcome:
    if args.action == "named":
        return selftest.named_state(args.state, args.sites, tol, save=args.save)
    run = selftest.mps_roundtrip if args.action == "roundtrip" else selftest.mps_truncate
    return run(args.sites, args.dmax, args.seed, tol)


def cmd_classical_superposition(args, outdir: Path, tol) -> Outcome:
    return selftest.classical_superposition(args.sites, args.beta, args.coupling, tol)


def cmd_arealaw(args, outdir: Path, tol) -> Outcome:
    return selftest.arealaw(args.sites, args.gamma, args.h, args.nmin, args.nmax, args.bc,
                            args.abscissa, args.expect_slope, args.slope_tol)


def cmd_mutualinfo(args, outdir: Path, tol) -> Outcome:
    if args.kind == "quantum":
        return selftest.mutualinfo_quantum(args.sites, args.beta, args.cut, args.gamma,
                                           args.h, tol)
    return selftest.mutualinfo_classical(args.sites, args.beta, args.cut, args.coupling, tol)


def cmd_kinetic_spectra(args, outdir: Path, tol) -> Outcome:
    return selftest.kinetic_spectra(args.model, args.sites, args.tau_pattern, args.phi_grid,
                                    args.gamma_grid, args.levels, args.delta, args.seed,
                                    tol)


def cmd_kinetic_evolve(args, outdir: Path, tol) -> Outcome:
    return selftest.sector_evolution(args.sites, args.beta, args.t, args.initial_states,
                                     args.seed, tol)


def cmd_kinetic_detailed_balance(args, outdir: Path, tol) -> Outcome:
    return selftest.detailed_balance(args.model, args.sites, args.beta, args.delta, tol)


def cmd_selftest(args, outdir: Path, tol) -> Outcome:
    lines = []
    failed = []
    for key, fn in selftest.REGISTRY:
        if args.only and key not in args.only.split(","):
            continue
        res = fn(tol)
        lines.append(f"[{key:>2}] {res.line()}")
        print(lines[-1])
        if not res.passed:
            failed.append(f"criterion {key}: {res.details}")
            break  # fail loudly on the first violation
    with open(outdir / "selftest_report.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return Outcome({"checks": len(lines), "report": str(outdir / "selftest_report.txt")}, failed)


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


def _finite_float(text: str) -> float:
    """argparse type for a finite float; NaN and infinities are rejected."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"needs a finite number, got {text!r}")
    return value


def _nonnegative(what: str):
    """argparse type for a finite float >= 0, ``what`` naming it in the message."""
    def parse(text: str) -> float:
        value = _finite_float(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"needs {what} >= 0, got {text!r}")
        return value
    return parse


def _gamma_grid(text: str) -> str:
    """argparse type for one or more comma-separated finite floats in [0, 1]."""
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid grid {text!r}: needs comma-separated numbers") from None
    if not all(0.0 <= v <= 1.0 for v in values):
        raise argparse.ArgumentTypeError(f"grid values must lie in [0, 1], got {text!r}")
    return text


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
    parser.add_argument("--workers", type=_int_at_least(1, "workers"),
                        default=os.cpu_count() or 1)
    parser.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                        help="override a named tolerance; logged in the manifest")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measures", help="closed-form entanglement measures")
    p.set_defaults(fn=cmd_measures)
    states = p.add_subparsers(dest="state", required=True)
    states.add_parser("bell", help="the two-qubit Bell state").set_defaults(d=2)
    p = states.add_parser("maxent", help="the maximally entangled state of two qudits")
    p.add_argument("--d", type=int, default=3)

    p = sub.add_parser("witness", help="witness from a partial transpose")
    p.add_argument("--p", type=_finite_float, default=1.0, help="mixing weight of the target")
    p.add_argument("--samples", type=_int_at_least(1, "samples"), default=1000)
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("maps", help="positive-map and Choi-matrix checks")
    p.add_argument("--d", type=int, default=3)
    p.set_defaults(fn=cmd_maps)

    for name, fn, mean in (("page", cmd_page, "entanglement entropy"),
                           ("lubkin", cmd_lubkin, "reduced purity")):
        p = sub.add_parser(name, help=f"mean {mean} of random states")
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--samples", type=_int_at_least(haar.MIN_SAMPLES, "samples"),
                       default=10_000)
        p.set_defaults(fn=fn)

    p = sub.add_parser("mps", help="matrix product state engine")
    p.set_defaults(fn=cmd_mps)
    actions = p.add_subparsers(dest="action", required=True)
    roundtrip = actions.add_parser("roundtrip", help="random state to MPS and back")
    named = actions.add_parser("named", help="named state checked by its defining property")
    truncate = actions.add_parser("truncate", help="random state's MPS truncated to --dmax")
    for p in (roundtrip, named, truncate):
        p.add_argument("--sites", type=_int_at_least(1, "sites"), default=8)
    for p in (roundtrip, truncate):
        p.add_argument("--dmax", type=int, default=None)
    named.add_argument("--state", choices=sorted(selftest.NAMED_STATES), default="ghz")
    named.add_argument("--save", default=None, help="write the MPS as JSON")

    p = sub.add_parser("classical-superposition",
                       help="thermal superposition state and its parent kernel")
    p.add_argument("--sites", type=_int_at_least(1, "sites"), default=8)
    p.add_argument("--beta", type=_finite_float, default=0.6)
    p.add_argument("--coupling", type=_finite_float, default=1.0)
    p.set_defaults(fn=cmd_classical_superposition)

    p = sub.add_parser("arealaw", help="block-entropy scaling of the XY chain")
    p.add_argument("--gamma", type=_finite_float, required=True)
    p.add_argument("--h", type=_finite_float, required=True)
    p.add_argument("--sites", type=_int_at_least(1, "sites"), default=128)
    p.add_argument("--nmin", type=int, default=8)
    p.add_argument("--nmax", type=int, default=64)
    p.add_argument("--bc", choices=["periodic", "open"], default="periodic")
    p.add_argument("--abscissa", choices=["chord", "log2n"], default="chord")
    p.add_argument("--expect-slope", type=_finite_float, default=None)
    p.add_argument("--slope-tol", type=_nonnegative("a tolerance"), default=0.03)
    p.set_defaults(fn=cmd_arealaw)

    p = sub.add_parser("mutualinfo", help="mutual-information area laws")
    p.set_defaults(fn=cmd_mutualinfo)
    kinds = p.add_subparsers(dest="kind", required=True)
    quantum = kinds.add_parser("quantum", help="thermal XY chain against its boundary bounds")
    classical = kinds.add_parser("classical", help="Gibbs Ising ring against its area bound")
    for p in (quantum, classical):
        p.add_argument("--sites", type=_int_at_least(1, "sites"), default=10)
        p.add_argument("--beta", type=_finite_float, default=1.0)
        p.add_argument("--cut", type=int, default=5)
    quantum.add_argument("--gamma", type=_finite_float, default=1.0)
    quantum.add_argument("--h", type=_finite_float, default=1.0)
    classical.add_argument("--coupling", type=_finite_float, default=1.0)

    pk = sub.add_parser("kinetic", help="kinetic Ising models")
    ksub = pk.add_subparsers(dest="kinetic_command", required=True)

    p = ksub.add_parser("spectra", help="sector spectra scan")
    p.add_argument("--model", choices=kinetic.FAMILIES, default="two-flip")
    p.add_argument("--sites", type=_int_at_least(1, "sites"), default=16)
    p.add_argument("--tau-pattern", nargs="+", choices=sorted(kinetic.TAU_PATTERNS),
                   default=["pair-up"])
    p.add_argument("--phi-grid", type=_int_at_least(2, "points"), default=9,
                   help="number of phi values on [0, pi/4], at least 2")
    p.add_argument("--gamma-grid", type=_gamma_grid, default="0.9,0.99,0.999",
                   help="comma-separated gamma values in [0, 1] (single-flip)")
    p.add_argument("--levels", type=_int_at_least(1, "levels"), default=4)
    p.add_argument("--delta", type=_finite_float, default=0.0)
    p.set_defaults(fn=cmd_kinetic_spectra)

    p = ksub.add_parser("evolve", help="sector-split evolution against the oracle")
    p.add_argument("--sites", type=_int_at_least(1, "sites"), default=6)
    p.add_argument("--beta", type=_finite_float, default=0.4)
    p.add_argument("--t", type=_nonnegative("a time"), default=1.0)
    p.add_argument("--initial-states", type=_int_at_least(1, "initial states"), default=3)
    p.set_defaults(fn=cmd_kinetic_evolve)

    p = ksub.add_parser("detailed-balance", help="rate/Boltzmann symmetry check")
    p.add_argument("--model", choices=kinetic.FAMILIES, default="single-flip")
    p.add_argument("--sites", type=_int_at_least(1, "sites"), default=8)
    p.add_argument("--beta", type=_finite_float, default=0.4)
    p.add_argument("--delta", type=_finite_float, default=0.0)
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
            raise ValueError(f"unknown tolerance {name!r}; known: {known}")
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not 0.0 <= value < math.inf:
            raise ValueError(f"tolerance {name} must be a finite number >= 0, got {text!r}")
        table[name] = value
    return MappingProxyType(table)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    outdir = Path(args.out or os.environ.get("ENTLAB_OUTDIR", "."))
    command = args.command
    if command == "kinetic":
        command += "-" + args.kinetic_command
    manifest = outdir / MANIFEST_NAMES.get(command, command.replace("-", "_") + "_manifest.json")
    try:
        tol = tolerance_table(args.tol)
        outdir.mkdir(parents=True, exist_ok=True)
        outcome = args.fn(args, outdir, tol)
        require_finite(outcome)
        doc = outcome.values
        if outcome.table is not None:
            doc["csv"] = str(outdir / doc["csv"])
            write_csv(Path(doc["csv"]), *outcome.table)
        if outcome.failed:
            print(f"FAIL {outcome.failed[0]}", file=sys.stderr)
        write_manifest(manifest, command, args, tol)
        if outcome.failed:
            return 1
        print(json.dumps(doc, indent=2, default=float))
        return 0
    except (ResourceLimitError, MemoryError) as exc:  # MemoryError: the machine refused
        print(f"resource limit: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (NumericalError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:  # OSError: an output path that cannot be written
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
