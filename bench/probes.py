"""Where the traced run puts its spans, and how spans become layer metrics.

:func:`instrument` wraps the public entry points of each entlab module at
run time and rebinds every module namespace that imported them by name
(``lanczos_lowest`` lives in ``linalg`` but is also a global of ``chains``,
``kinetic`` and ``selftest``).  numpy's ``eigh``/``eigvalsh``/``svd`` and
scipy's ``schur`` are wrapped as entlab calls them: each entlab module's
``np``/``scipy`` global is swapped for a copy of the package whose
``linalg`` holds the wrappers, so calls from numpy or scipy internals stay
untraced.  Everything is restored when the context exits.
"""

from __future__ import annotations

import concurrent.futures
import concurrent.futures.thread
import contextlib
import importlib
import inspect
import sys
import types
from collections import Counter, defaultdict

import numpy
import scipy
import scipy.linalg

from tracer import Tracer, children_map, outermost, self_time


def _n_cubed(args, kwargs, result):
    return float(numpy.shape(args[0])[0]) ** 3


def _nnz(args, kwargs, result):
    return result.nnz if hasattr(result, "nnz") else numpy.count_nonzero(result)


# (span kind, module, function name[, amount]) for plain functions
FUNCTIONS = [
    ("linalg.lanczos", "linalg", "lanczos_lowest"),
    ("linalg.svd", "linalg", "svd"),
    ("linalg.check_hermitian", "linalg", "check_hermitian"),
    ("states.partial_trace", "states", "partial_trace"),
    ("states.partial_trace", "states", "partial_trace_pure"),
    ("states.entropy", "states", "von_neumann_entropy"),
    ("states.entropy", "states", "renyi_entropy"),
    ("states.entropy", "states", "mutual_information"),
    ("states.random_state", "states", "random_pure"),
    ("states.random_state", "states", "random_density"),
    ("states.random_state", "states", "random_separable"),
    ("states.random_state", "states", "random_schmidt_rank_state"),
    ("haar.mc", "haar", "mean_entropy_mc"),
    ("haar.mc", "haar", "mean_purity_mc"),
    ("haar.mc", "haar", "haar_pure"),
    # criterion 5 samples through this helper directly, not through *_mc
    ("haar.sample", "haar", "_reduced_spectrum"),
    ("mps.from_dense", "mps", "from_dense"),
    ("mps.canonicalize", "mps", "canonicalize"),
    ("mps.truncate", "mps", "truncate"),
    ("mps.expectation", "mps", "expectation"),
    ("freefermion.covariance", "freefermion", "ground_covariance"),
    ("freefermion.block_entropy", "freefermion", "block_entropy_bits"),
    ("chains.thermal", "chains", "thermal_state"),
    ("kinetic.sector_build", "kinetic", "build_h_tau_two_flip"),
    ("kinetic.sector_build", "kinetic", "build_h_tau_single_flip"),
    ("kinetic.sector_build", "kinetic", "build_h_beta_single_flip"),
    ("kinetic.generator", "kinetic", "build_generator"),
    ("kinetic.generator", "kinetic", "vectorized_generator"),
    ("kinetic.generator", "kinetic", "symmetrize"),
    ("kinetic.evolve", "kinetic", "sector_split_evolve"),
    ("kinetic.evolve", "kinetic", "direct_evolve"),
    ("kinetic.evolve", "kinetic", "classical_evolve"),
    ("kinetic.scan", "kinetic", "sector_spectra_scan"),
    ("cli.io", "cli", "write_csv"),
    ("cli.io", "cli", "write_manifest"),
]

# (span kind, module, class, method, amount)
METHODS = [
    ("chains.assembly", "chains", "SpinHamiltonian", "dense", _nnz),
    ("chains.assembly", "chains", "SpinHamiltonian", "sparse", _nnz),
    ("states.density_init", "states", "DensityMatrix", "__init__", None),
    ("mps.to_dense", "mps", "MatrixProductState", "to_dense", None),
    ("mps.to_dense", "mps", "MatrixProductState", "dense_amplitudes", None),
]


LAYERS = ("linalg", "states", "measures", "haar", "mps", "chains", "freefermion",
          "kinetic", "selftest", "cli")


def _entlab_modules() -> list[types.ModuleType]:
    for layer in LAYERS:
        importlib.import_module(f"entlab.{layer}")
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "entlab" or name.startswith("entlab."))]


def _package_copy(module, name, **overrides) -> types.ModuleType:
    copy = types.ModuleType(name)
    copy.__dict__.update(vars(module))
    copy.__dict__.update(overrides)
    return copy


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap entlab's layer entry points for the duration of the block."""
    modules = _entlab_modules()
    mod = {m.__name__.split(".")[-1]: m for m in modules}
    saved = []

    def patch(obj, attr, value):
        saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def rebind(original, wrapper):
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is original:
                    patch(m, name, wrapper)

    try:
        entries = [(kind, mod[module], name, None) for kind, module, name in FUNCTIONS]
        entries += [("measures", mod["measures"], name, None)
                    for name, fn in vars(mod["measures"]).items()
                    if inspect.isfunction(fn) and fn.__module__ == "entlab.measures"
                    and not name.startswith("_")]
        entries += [("cli." + name[4:], mod["cli"], name, None)
                    for name in vars(mod["cli"]) if name.startswith("cmd_")]
        for kind, module, name, amount in entries:
            original = getattr(module, name)
            rebind(original, tracer.wrap(kind, original, amount))
        for kind, module, cls, name, amount in METHODS:
            klass = getattr(mod[module], cls)
            patch(klass, name, tracer.wrap(kind, getattr(klass, name), amount))

        np_linalg = _package_copy(
            numpy.linalg, "numpy.linalg",
            eigh=tracer.wrap("linalg.eigh", numpy.linalg.eigh, _n_cubed),
            eigvalsh=tracer.wrap("linalg.eigh", numpy.linalg.eigvalsh, _n_cubed),
            svd=tracer.wrap("linalg.svd", numpy.linalg.svd))
        np_copy = _package_copy(numpy, "numpy", linalg=np_linalg)
        sp_linalg = _package_copy(
            scipy.linalg, "scipy.linalg",
            schur=tracer.wrap("linalg.schur", scipy.linalg.schur))
        sp_copy = _package_copy(scipy, "scipy", linalg=sp_linalg)
        base = concurrent.futures.thread.ThreadPoolExecutor
        executor = tracer.executor_class(base)
        for m in modules:
            if vars(m).get("np") is numpy:
                patch(m, "np", np_copy)
            if vars(m).get("scipy") is scipy:
                patch(m, "scipy", sp_copy)
            if vars(m).get("ThreadPoolExecutor") is base:
                patch(m, "ThreadPoolExecutor", executor)
        # haar imports the executor inside the function, from the package
        patch(concurrent.futures, "ThreadPoolExecutor", executor)
        yield tracer
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


def cli_command(argv) -> str:
    """Name of the ``cmd_*`` function an argv reaches, e.g. ``kinetic_spectra``."""
    words = list(argv)
    while words and words[0].startswith("--"):
        words = words[2:]
    name = words[0]
    if name == "kinetic":
        name += "_" + words[1]
    return name.replace("-", "_")


def layer_metrics(spans, workers: int, cli_commands, criteria) -> dict[str, float]:
    """Per-layer metrics of one traced pass; zero where a layer was not called."""
    by_kind = defaultdict(list)
    for s in spans:
        by_kind[s.kind].append(s)
    counts = Counter({k: len(v) for k, v in by_kind.items()})

    def busy(*kinds):
        subset = [s for k in kinds for s in by_kind[k]]
        return sum(s.duration for s in outermost(subset, kinds))

    def amount(kind):
        return sum(s.amount for s in by_kind[kind])

    eigh = by_kind["linalg.eigh"]
    n3 = sum(s.amount for s in eigh)
    n3_validation = sum(s.amount for s in eigh if any(
        a.kind == "states.density_init" for a in s.ancestors()))
    children = children_map(spans)
    assembly_s = busy("chains.assembly")
    lanczos_s, eigh_s = busy("linalg.lanczos"), busy("linalg.eigh")
    haar_s, samples = busy("haar.mc", "haar.sample"), counts["haar.sample"]
    scan_s = busy("kinetic.scan")
    scan_tasks = sum(s.duration for s in by_kind["pool.task"]
                     if any(a.kind == "kinetic.scan" for a in s.ancestors()))

    out = {
        "chains.assembly_s": assembly_s,
        "chains.assembly_calls": counts["chains.assembly"],
        "chains.assembly_nnz": amount("chains.assembly"),
        "chains.assembly_over_solve": (assembly_s / (lanczos_s + eigh_s)
                                       if lanczos_s + eigh_s else 0.0),
        "chains.thermal_s": busy("chains.thermal"),
        "linalg.lanczos_s": lanczos_s,
        "linalg.lanczos_calls": counts["linalg.lanczos"],
        "linalg.eigh_s": eigh_s,
        "linalg.eigh_calls": counts["linalg.eigh"],
        "linalg.eigh_n3": n3,
        "linalg.eigh_n3_validation_frac": n3_validation / n3 if n3 else 0.0,
        "linalg.svd_s": busy("linalg.svd"),
        "linalg.svd_calls": len(outermost(by_kind["linalg.svd"], ["linalg.svd"])),
        "linalg.schur_s": busy("linalg.schur"),
        "linalg.check_hermitian_s": busy("linalg.check_hermitian"),
        "states.density_init_s": busy("states.density_init"),
        "states.density_init_calls": counts["states.density_init"],
        "states.partial_trace_s": busy("states.partial_trace"),
        "states.entropy_s": busy("states.entropy"),
        "states.random_state_s": busy("states.random_state"),
        "measures.self_s": sum(self_time(s, children) for s in by_kind["measures"]),
        "measures.calls": counts["measures"],
        "haar.mc_s": haar_s,
        "haar.samples": samples,
        "haar.samples_per_s": samples / haar_s if haar_s else 0.0,
        "mps.from_dense_s": busy("mps.from_dense"),
        "mps.canonicalize_s": busy("mps.canonicalize"),
        "mps.truncate_s": busy("mps.truncate"),
        "mps.to_dense_s": busy("mps.to_dense"),
        "mps.expectation_s": busy("mps.expectation"),
        "freefermion.covariance_s": busy("freefermion.covariance"),
        "freefermion.covariance_calls": counts["freefermion.covariance"],
        "freefermion.block_entropy_s": busy("freefermion.block_entropy"),
        "kinetic.sector_build_s": busy("kinetic.sector_build"),
        "kinetic.generator_s": busy("kinetic.generator"),
        "kinetic.evolve_s": busy("kinetic.evolve"),
        "kinetic.scan_s": scan_s,
        "kinetic.scan_parallel_eff": scan_tasks / (scan_s * workers) if scan_s else 0.0,
        "cli.io_s": busy("cli.io"),
    }
    for name in cli_commands:
        out[f"cli.{name}_s"] = busy(f"cli.{name}")
    for key in criteria:
        out[f"selftest.c{key}_s"] = busy(f"selftest.c{key}")
    return {k: float(v) for k, v in out.items()}
