"""The three workloads: which commands and selftest criteria one pass runs.

Every command is a README example, two of them at a smaller size (see the
comments below), with the CLI defaults a README user gets (no ``--workers``,
no ``--tol``).  Commands marked ``seeded`` have exact
checks that hold for any seed; they receive the run's ``--seed`` as the
global option.  The others keep their README seed: their CSV bodies are
gated by recorded hashes, or their check is statistical (``page``,
``lubkin``) and would fail at random for a share of seeds.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    """One operation: a CLI command or one selftest criterion."""

    label: str
    argv: tuple = ()
    criterion: str = ""
    csv: str = ""          # CSV file the command writes, gated by its hash
    seeded: bool = False   # receives the run's seed as the global --seed


def cli(line: str, csv: str = "", seeded: bool = False) -> Op:
    return Op(line, tuple(line.split()), csv=csv, seeded=seeded)


def criterion(key: str) -> Op:
    return Op(f"selftest {key}", criterion=key)


WORKLOADS = {
    # The README runs --sites 16: one pass of 20-30 s, so a run held one
    # sample and two sets of ten runs differed by up to 47%.  At 13 sites the
    # dimension 2**13 is still above the scan's dense cutoff of 1024, so it
    # takes the same sparse assembly, Lanczos and thread-pool path, in about
    # 3 s per pass.
    "sectors-sparse": [
        cli("kinetic spectra --model two-flip --sites 13 --tau-pattern pair-up "
            "--phi-grid 9 --levels 4", csv="kinetic_spectra.csv"),
    ],
    # Criterion 11 (768 dense builds at dim 256) is left out: one run of it
    # took 22 s or 36-39 s at random on a shared 2-core host, dominated by
    # 11 million page faults, which made the workload's spread 0.37.
    "dense-ed": [
        cli("mutualinfo quantum --sites 10 --beta 1.0 --cut 5", csv="mutualinfo.csv"),
        cli("mps named --state aklt --sites 6"),
        cli("kinetic evolve --sites 6 --beta 0.4 --t 1.0", seeded=True),
        cli("classical-superposition --sites 8 --beta 0.6"),
    ],
    "small-ops": [
        cli("measures bell"),
        cli("measures maxent --d 5"),
        cli("witness --p 0.8 --samples 1000", seeded=True),
        cli("maps --d 3", seeded=True),
        # --seed is a global option: the README's trailing "--seed 7" exits 2
        cli("--seed 7 page --m 2 --n 2 --samples 10000"),
        cli("lubkin --m 4 --n 4 --samples 10000"),
        cli("mps roundtrip --sites 8", seeded=True),
        cli("mps truncate --sites 8 --dmax 2", csv="mps_truncate.csv"),
        cli("arealaw --gamma 1 --h 1 --sites 128 --nmin 8 --nmax 64 "
            "--expect-slope 0.1667 --slope-tol 0.02", csv="arealaw.csv"),
        cli("mutualinfo classical --sites 12 --beta 0.5 --cut 6", csv="mutualinfo.csv"),
        cli("kinetic detailed-balance --model single-flip --sites 8 --beta 0.4"),
        criterion("2"),
        criterion("3"),
        criterion("5"),
        criterion("6"),
    ],
}
