"""Experiments and acceptance criteria, each defined once.

An experiment takes its inputs and returns an :class:`Outcome`: its values,
in the order the CLI prints them; the checks that failed, as ``"name:
detail"`` strings; and its CSV table ``(header, rows)`` if it writes one, to
the file named by its ``csv`` value.  It raises ``ValueError`` on an invalid
configuration, ``ResourceLimitError`` beyond its :data:`~entlab.linalg.BUDGET`
entry and ``NumericalError`` when a solver fails, never on a physics failure.
Each CLI command but ``selftest`` maps its arguments onto one experiment.

The acceptance criteria run the same experiments over their own grids and
random streams, beside checks no command makes, and return the checks that
failed with a summary; :func:`_criterion` times each into a
:class:`CheckResult` and lists it in :data:`REGISTRY`, which ``entlab
selftest`` and the acceptance tests iterate.

Tolerances are pinned in the read-only :data:`TOLERANCES`.  Experiments and
criteria take the table as ``tol``, defaulting to the pinned one; the CLI
passes it with its ``--tol`` overrides applied.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import chains, freefermion, haar, kinetic, measures, mps, states
from .kinetic import KineticModel, TauSector
from .linalg import PAULI_X, PAULI_Z, NumericalError, check_budget, kron, trace_norm
from .linalg import lanczos_lowest  # noqa: F401  # a global here for the benchmark's probes

TOLERANCES = MappingProxyType({
    "maxent_measures": 1e-10,
    "two_qubit_consistency": 1e-8,
    "ppt_negative_eigenvalue": 1e-10,
    "witness_separable": 1e-9,
    "choi_psd": 1e-9,
    "kraus_reconstruction": 1e-10,
    "haar_sigma": 3.0,
    "haar_approx_rel": 0.02,
    "mps_roundtrip": 1e-10,
    "mps_canonical": 1e-8,
    "mps_truncation_slack": 1e-10,
    "renyi_truncation_slack": 1e-10,
    "mps_reload": 0.0,
    "named_state_residual": 1e-8,
    "named_state_dense_form": 1e-12,
    "cluster_stabilizers": 1e-10,
    "classical_superposition": 1e-10,
    "slope_ising": 0.02,
    "slope_xx": 0.03,
    "free_fermion_vs_dense": 1e-6,
    "free_fermion_energy": 1e-10,
    "mutual_info_slack": 1e-9,
    "markov_identity": 1e-12,
    "detailed_balance": 1e-10,
    "sector_positivity": 1e-10,
    "block_formula": 1e-12,
    "uniform_sector_match": 1e-12,
    "evolution_trace_distance": 1e-8,
    "classical_evolution": 1e-8,
    "pair_sector_gap": 1e-8,
    "single_up_gap": 1e-4,
})


@dataclass
class Outcome:
    """Values in output order, failed checks, and the CSV ``(header, rows)``."""

    values: dict
    failed: list[str]
    table: tuple | None = None


def _failed(*checks) -> list[str]:
    """``name: detail`` of each ``(passed, name, detail)`` check that failed."""
    return [f"{name}: {detail}" for passed, name, detail in checks if not passed]


def _grid(value) -> tuple:
    """The points of a grid parameter given as one value or a tuple."""
    return value if isinstance(value, tuple) else (value,)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def maxent_measures(d: int, tol=TOLERANCES) -> Outcome:
    """Entanglement measures of the maximally entangled state in closed form."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    check_budget("full_spectrum_max_dim", d * d, "maximally entangled state dimension")
    psi = states.max_entangled(d)
    rho = psi.projector()
    values = {
        "state": f"maximally entangled d={d}",
        "negativity": measures.negativity(rho),
        "log_negativity": measures.log_negativity(rho),
        "concurrence": measures.concurrence_pure(psi),
    }
    exact = {"negativity": (d - 1) / 2, "log_negativity": math.log2(d),
             "concurrence": math.sqrt(2 * (1 - 1 / d))}
    if d == 2:
        values["eof"] = measures.eof_2q(rho)
        exact["eof"] = 1.0
    limit = tol["maxent_measures"]
    return Outcome(values, _failed(*(
        (abs(values[key] - want) <= limit, key.replace("_", "-"), f"{values[key]!r} vs {want!r}")
        for key, want in exact.items())))


def witness(p: float, samples: int, seed, tol=TOLERANCES) -> Outcome:
    """A witness of the weight-``p`` isotropic state, nonnegative on separable ones."""
    rho = states.DensityMatrix(
        (2, 2), p * states.max_entangled(2).projector().matrix + (1 - p) * np.eye(4) / 4)
    if p <= 1 / 3:
        raise ValueError("the target state is separable for p <= 1/3")
    wit = measures.witness_from_npt(rho)
    value = measures.witness_value(wit, rho)
    rng = np.random.default_rng(seed)
    # stacks of at most MC_BLOCK states: memory does not grow with samples
    minimum = float(min(
        measures.witness_value(wit, states.random_separable(2, 2, rng, count)).min()
        for count in haar.block_counts(samples)))
    return Outcome(
        {"p": p, "value_on_target": value, "min_on_separable_samples": minimum,
         "samples": samples},
        _failed((value < 0, "witness-detects-target", f"value {value}"),
                (minimum >= -tol["witness_separable"], "witness-separable-positivity",
                 f"min {minimum}")))


def positive_maps(d: int, seed, tol=TOLERANCES) -> Outcome:
    """Reduction map detection; Choi-matrix CP tests of it, a random unitary
    conjugation drawn from ``seed``, and the transposition; the unitary's
    Kraus operators reproduce it on the maximally entangled projector."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    check_budget("full_spectrum_max_dim", d * d, "Choi matrix dimension")
    psd = tol["choi_psd"]
    red = measures.reduction_map(d)
    plus = states.max_entangled(d).projector()
    detect = float(np.linalg.eigvalsh(red(plus.matrix))[0])
    choi_red = float(red.choi_spectrum[0])
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    u, _ = np.linalg.qr(g)
    uni = measures.unitary_conjugation_map(u)
    choi_uni = float(uni.choi_spectrum[0])
    lifted = [kron(np.eye(d), k) for k in measures.kraus_operators(uni)]
    via_kraus = sum(k @ plus.matrix @ k.conj().T for k in lifted)
    kraus_dev = float(np.abs(via_kraus - uni(plus.matrix)).max())
    values = {
        "d": d,
        "reduction_detection_min_eig": detect,
        "choi_reduction_min_eig": choi_red,
        "choi_unitary_min_eig": choi_uni,
        "transposition_cp": measures.is_completely_positive(measures.transposition_map(d), psd),
        "reduction_cp": measures.is_completely_positive(red, psd),
        "kraus_deviation": kraus_dev,
    }
    return Outcome(values, _failed(
        (detect < -psd, "reduction-detects-entanglement", f"min eigenvalue {detect:.1e}"),
        (choi_red < -psd, "reduction-choi-not-psd", f"min eigenvalue {choi_red:.1e}"),
        (choi_uni >= -psd, "unitary-choi-psd", f"min eigenvalue {choi_uni:.1e}"),
        (not values["transposition_cp"], "transposition-not-cp", "Choi matrix is PSD"),
        (not values["reduction_cp"], "reduction-not-cp", "Choi matrix is PSD"),
        (kraus_dev <= tol["kraus_reconstruction"], "kraus-reconstruction",
         f"deviation {kraus_dev:.1e}")))


def _mc_consistency(name: str, mean: float, err: float, exact: float, tol):
    """z-score of a Monte Carlo mean against its closed form, and its check."""
    z = abs(mean - exact) / err if err > 0 else 0.0
    return z, _failed((z <= tol["haar_sigma"], name, f"z = {z:.2f}"))


def page(m: int, n: int, samples: int, seed, workers: int = 1, tol=TOLERANCES) -> Outcome:
    """Monte Carlo mean entropy of Haar-random states against Page's formula."""
    if m > n:
        raise ValueError("requires m <= n")
    # the Monte Carlo checks the budget before the O(mn) closed form runs
    mean, err = haar.mean_entropy_mc(m, n, samples, seed=seed, workers=workers)
    exact = haar.mean_entropy_exact(m, n)
    z, failed = _mc_consistency("page-mc-consistency", mean, err, exact, tol)
    return Outcome({"m": m, "n": n, "samples": samples,
                    "exact_nats": exact, "exact_bits": haar.nats_to_bits(exact),
                    "approx_nats": haar.mean_entropy_approx(m, n),
                    "mc_mean_nats": mean, "mc_stderr_nats": err, "z": z}, failed)


def lubkin(m: int, n: int, samples: int, seed, tol=TOLERANCES) -> Outcome:
    """Monte Carlo mean reduced purity against Lubkin's (m + n)/(mn + 1)."""
    exact = haar.mean_purity_exact(m, n)
    mean, err = haar.mean_purity_mc(m, n, samples, seed=seed)
    z, failed = _mc_consistency("lubkin-mc-consistency", mean, err, exact, tol)
    return Outcome({"m": m, "n": n, "samples": samples,
                    "exact": exact, "mc_mean": mean, "mc_stderr": err, "z": z}, failed)


def _random_qubits(sites: int, seed) -> states.PureState:
    """A random state of ``sites`` qubits, drawn only within the dense MPS budget."""
    check_budget("mps_dense_max_amplitudes", 2 ** sites, f"2^{sites} amplitudes")
    return states.random_pure((2,) * sites, np.random.default_rng(seed))


def mps_roundtrip(sites: int, dmax, seed, tol=TOLERANCES) -> Outcome:
    """Random state to MPS, truncated to ``dmax`` if given, and back; the
    fidelity counts where ``dmax`` is exact."""
    psi = _random_qubits(sites, seed)
    state = mps.from_dense(psi)
    if dmax is not None:
        state, _ = mps.truncate(state, dmax)
    back = state.to_dense()
    fidelity = abs(np.vdot(psi.amplitudes, back.amplitudes))
    defects = mps.canonical_defects(state) if state.canonical else {}
    exact = dmax is None or dmax >= 2 ** (sites // 2)
    return Outcome(
        {"sites": sites, "dmax": dmax, "fidelity": fidelity, "bond_dims": state.bond_dims,
         **defects},
        _failed((not exact or fidelity >= 1 - tol["mps_roundtrip"], "roundtrip-fidelity",
                 f"{fidelity}")))


def mps_truncate(sites: int, dmax, seed, tol=TOLERANCES) -> Outcome:
    """Canonical MPS of a random state truncated to each ``dmax`` (one or a
    tuple) within its discarded-weight bound and, at each cut that discards
    weight, the order-1/2 Renyi bound on ``log eps``; values and CSV of the
    last, ``renyi_bound_margin`` the least ``bound - log eps`` (None if no
    cut discards weight)."""
    if dmax is None:
        raise ValueError("truncation needs a bond dimension (--dmax)")
    psi = _random_qubits(sites, seed)
    full = mps.from_dense(psi)
    defect = max(mps.canonical_defects(full).values())
    failed = _failed((defect <= tol["mps_canonical"], "canonical-form", f"defect {defect:.1e}"))
    renyi = [states.renyi_entropy_from_spectrum(lam, 0.5, "e") for lam in full.lambdas]
    for bond in _grid(dmax):
        cut, report = mps.truncate(full, bond)
        actual = float(np.linalg.norm(psi.amplitudes - cut.dense_amplitudes()) ** 2)
        failed += _failed((actual <= report.bound + tol["mps_truncation_slack"],
                           "truncation-bound", f"{actual} > {report.bound}"))
        margin = min((mps.renyi_truncation_bound(h, 0.5, bond) - math.log(eps)
                      for h, eps in zip(renyi, report.discarded) if eps > 0), default=None)
        failed += _failed((margin is None or margin >= -tol["renyi_truncation_slack"],
                           "renyi-truncation-bound", f"margin {margin}"))
    return Outcome(
        {"sites": sites, "dmax": dmax, "bound": report.bound, "distance_sq": actual,
         "csv": "mps_truncate.csv", "renyi_bound_margin": margin},
        failed,
        (["cut", "discarded_weight"], [(k + 1, eps) for k, eps in enumerate(report.discarded)]))


NAMED_STATES = {
    "ghz": mps.ghz_mps, "af-ghz": mps.antiferro_ghz_mps, "aklt": mps.aklt_mps,
    "mg": mps.majumdar_ghosh_mps, "cluster": mps.cluster_mps,
}


def named_state(name: str, sites: int, tol=TOLERANCES, save=None) -> Outcome:
    """A named MPS checked by its defining property; saved once it passed,
    and read back to the same tensors and scale."""
    if name not in NAMED_STATES:
        raise ValueError(f"unknown state {name}")
    state = NAMED_STATES[name](sites)
    n = state.nsites
    values = {"state": name, "sites": sites, "bond_dims": state.bond_dims,
              "scale": abs(state.scale)}
    if name in ("ghz", "af-ghz"):
        psi = state.to_dense()
        target = np.zeros(2 ** n, dtype=complex)
        if name == "ghz":
            target[0] = target[-1] = 1 / math.sqrt(2)
        else:
            odd = int("01" * (n // 2), 2)
            even = int("10" * (n // 2), 2)
            target[odd] = target[even] = 1 / math.sqrt(2)
        dev = float(min(np.linalg.norm(psi.amplitudes - target),
                        np.linalg.norm(psi.amplitudes + target)))
        values["dense_form_deviation"] = dev
        check = (dev <= tol["named_state_dense_form"], "named-state-dense-form",
                 f"deviation {dev:.1e}")
    elif name == "cluster":
        vals = [mps.expectation(state, {(i - 1) % n: PAULI_Z, i: PAULI_X,
                                        (i + 1) % n: PAULI_Z}).real
                for i in range(n)]
        dev = float(np.abs(np.asarray(vals) - mps.CLUSTER_STABILIZER_SIGN).max())
        values.update(stabilizer_sign=mps.CLUSTER_STABILIZER_SIGN, stabilizer_deviation=dev)
        check = (dev <= tol["cluster_stabilizers"], "cluster-stabilizers",
                 f"deviation {dev:.1e}")
    else:
        # aklt / mg: ground-state residual against exact diagonalization; it
        # also bounds the energy gap, |<psi|H - E0|psi>| <= ||(H - E0) psi||.
        # The dense MPS budget is the oracle's reach: to_dense raises
        # ResourceLimitError beyond it.
        psi = state.to_dense()
        op = (chains.build_aklt if name == "aklt" else chains.build_mg)(n).operator()
        e0 = float(chains.lowest_levels(op)[0])
        resid = float(np.linalg.norm(op @ psi.amplitudes - e0 * psi.amplitudes))
        values.update(ground_energy=e0, eigen_residual=resid)
        check = (resid <= tol["named_state_residual"], "named-state-residual",
                 f"residual {resid:.1e}")
    failed = _failed(check)
    if save and not failed:
        mps.save_mps(state, save)
        values["saved"] = save
        back = mps.load_mps(save)
        dev = math.inf
        if (back.boundary, back.bond_dims) == (state.boundary, state.bond_dims):
            dev = max(float(np.abs(a - b).max())
                      for a, b in zip([back.scale, *back.tensors], [state.scale, *state.tensors]))
        values["reload_max_deviation"] = dev
        failed = _failed((dev <= tol["mps_reload"], "mps-reload", f"deviation {dev:.1e}"))
    return Outcome(values, failed)


def classical_superposition(n: int, beta: float, coupling: float,
                            tol=TOLERANCES) -> Outcome:
    """Thermal superposition amplitudes against the Gibbs weights, and the
    kernel of the symmetrized Glauber generator against the same vector."""
    limit = tol["classical_superposition"]
    model = KineticModel.thermal("single-flip", n, beta, coupling=coupling)
    # ValueError where gamma rounds to 1: the zero-temperature kernel is
    # degenerate there, and the MPS weights overflow from beta J > 1419 on
    model.beta
    state = mps.classical_superposition_mps(coupling, beta, n)
    psi = state.to_dense()
    energies = kinetic.ising_energies(n, coupling)
    target = np.exp(-0.5 * beta * (energies - energies.min()))
    target /= np.linalg.norm(target)
    amp = psi.amplitudes
    phase = amp[np.argmax(np.abs(amp))] / target[np.argmax(np.abs(amp))]
    deviation = float(np.abs(amp - phase * target).max())
    op = kinetic.build_h_beta_single_flip(model).operator()
    w, v = chains.lowest_levels(op, vectors=True)
    # PSD in exact arithmetic; the largest absolute row sum bounds the spectrum
    if w[0] < -1e-10 * max(1.0, float(abs(op).sum(axis=1).max())):
        raise NumericalError(f"symmetrized generator has negative eigenvalue {w[0]:.2e}")
    overlap = float(abs(np.vdot(v[:, 0], target)))
    values = {"sites": n, "beta": beta, "coupling": coupling, "amplitude_deviation": deviation,
              "ground_energy": float(w[0]), "kernel_overlap": overlap}
    return Outcome(values, _failed(
        (deviation <= limit, "gibbs-amplitudes", f"deviation {deviation:.1e}"),
        (abs(w[0]) <= limit, "kernel-eigenvalue", f"ground energy {w[0]:.1e}"),
        (overlap >= 1 - limit, "kernel-overlap", f"overlap 1-{1 - overlap:.1e}")))


def arealaw(sites: int, gamma: float, h: float, nmin: int, nmax: int, bc: str = "periodic",
            abscissa: str = "chord", expect_slope=None, slope_tol: float = 0.03) -> Outcome:
    """Free-fermion block entropies of the XY ground state and their slope."""
    if not 1 <= nmin <= nmax < sites:
        raise ValueError(f"block sizes must satisfy 1 <= nmin <= nmax < sites, got "
                         f"{nmin}..{nmax} in {sites} sites")
    blocks = list(range(nmin, nmax + 1))
    scan = chains.free_fermion_entropy_scan(gamma, h, sites, blocks, bc=bc, abscissa=abscissa)
    return Outcome(
        {"sites": sites, "gamma": gamma, "h": h, "bc": bc, "abscissa": scan.abscissa,
         "slope": scan.slope, "intercept": scan.intercept, "fit_residual": scan.residual,
         "csv": "arealaw.csv"},
        _failed((expect_slope is None or abs(scan.slope - expect_slope) <= slope_tol, "slope",
                 f"{scan.slope:.4f} vs {expect_slope} +- {slope_tol}")),
        (["model", "N", "gamma", "h", "n", "S_bits"],
         [("xy", sites, gamma, h, b, s) for b, s in zip(scan.block_sizes, scan.entropies_bits)]))


def mutualinfo_quantum(sites: int, beta, cut: int, gamma: float, h: float,
                       tol=TOLERANCES) -> Outcome:
    """Thermal XY mutual information against its two area bounds (nats), for
    one Hamiltonian at each ``beta`` (one or a tuple); values of the last."""
    slack = tol["mutual_info_slack"]
    chains.check_cut(cut, sites)
    ham = chains.build_xy(gamma, h, sites)
    rows, failed = [], []
    for b in _grid(beta):
        info, boundary, simple = chains.mutual_info_area_check(ham, b, cut)
        rows.append(("xy", sites, gamma, h, b, cut, info, boundary, simple))
        failed += _failed(
            (info <= boundary + slack, "mutual-info-boundary-bound",
             f"I {info:.6g} > {boundary:.6g} at beta {b}"),
            (boundary <= simple + slack, "boundary-vs-simple-bound",
             f"{boundary:.6g} > {simple:.6g} at beta {b}"))
    return Outcome(
        {"I_nats": info, "boundary_bound_nats": boundary, "simple_bound_nats": simple,
         "csv": "mutualinfo.csv"},
        failed,
        (["model", "N", "gamma", "h", "beta", "cut",
          "I_nats", "boundary_bound_nats", "simple_bound_nats"], rows))


def mutualinfo_classical(sites: int, beta: float, cut: int, coupling: float,
                         tol=TOLERANCES) -> Outcome:
    """Classical Ising-ring mutual information, area bound, boundary identity,
    and the Markov identity behind them with sites 0 and ``cut`` as separator."""
    slack = tol["mutual_info_slack"]
    info, bound, gap = chains.classical_gibbs_mutual_info(coupling, beta, sites, cut)
    markov = chains.markov_violation(coupling, beta, sites, 0, cut)
    return Outcome(
        {"I_bits": info, "area_bound_bits": bound, "boundary_identity_gap": gap,
         "csv": "mutualinfo.csv", "markov_violation": markov},
        _failed((info <= bound + slack, "classical-area-bound", f"I {info:.6g} > {bound}"),
                (gap <= slack, "boundary-identity", f"gap {gap:.1e}"),
                (markov <= tol["markov_identity"], "markov-identity",
                 f"violation {markov:.1e}")),
        (["model", "N", "J", "beta", "cut", "I_bits", "area_bound_bits",
          "boundary_identity_gap"],
         [("ising-ring", sites, coupling, beta, cut, info, bound, gap)]))


def kinetic_spectra(model: str, n: int, patterns, phi_grid: int = 9,
                    gamma_grid: str = "0.9,0.99,0.999", levels: int = 4, delta: float = 0.0,
                    seed: int = 0, tol=TOLERANCES) -> Outcome:
    """Lowest levels of tau sectors over ``phi_grid`` points of [0, pi/4]
    (two-flip) or ``gamma_grid`` (single-flip), and the pair-up splitting;
    the scan solves them in turn and rejects a short ring or two-flip delta."""
    sectors = [TauSector.named(p, n) for p in patterns]
    if model == "two-flip":
        values = [i * (math.pi / 4) / (phi_grid - 1) for i in range(phi_grid)]
    else:
        values = [float(x) for x in gamma_grid.split(",")]
    spectra = kinetic.sector_spectra_scan(model, n, sectors, values, k=levels, delta=delta,
                                          seed=seed)
    header = ["model", "N", "tau_code", "tau_pattern", "phi_or_gamma", "level_index",
              "eigenvalue"]
    # ordered by (tau_code, phi_or_gamma, level_index), repeats in input order
    rows = sorted(([model, n, tau.code, tau.pattern, value, idx, float(e)]
                   for tau, by_value in zip(sectors, spectra)
                   for value, by_level in zip(values, by_value)
                   for idx, e in enumerate(by_level)),
                  key=lambda row: (row[2], row[4], row[5]))
    out = {"rows": len(rows), "csv": "kinetic_spectra.csv"}
    failed = []
    if model == "two-flip" and "pair-up" in patterns and levels >= 2:
        pair = spectra[patterns.index("pair-up")]
        worst = float((pair[:, 1] - pair[:, 0]).max())
        out["pair_up_max_ground_split"] = worst
        # the exact double degeneracy of this sector is protected only when
        # the ring length is a multiple of four (it splits at N = 10, 14, ...)
        if n % 4 == 0:
            failed = _failed((worst <= tol["pair_sector_gap"], "pair-up-degeneracy",
                              f"ground split {worst:.1e}"))
    return Outcome(out, failed, (header, rows))


def sector_evolution(n: int, beta: float, t, initial_states: int, seed: int,
                     tol=TOLERANCES) -> Outcome:
    """Largest trace distance between sector-split and direct evolution of the
    two-flip model at each time of ``t`` (one or a tuple), over random
    initial states drawn first from ``seed``; the diagonal of the first one
    evolves through the sectors as under the classical master equation.

    The sector generator and the vectorized generator depend on the model
    only; they are built once per call and shared by every (state, time)."""
    model = KineticModel.thermal("two-flip", n, beta)
    # the oracle's generator first: it checks direct_evolve's limit
    generator = kinetic.vectorized_generator(model)
    sector_gen = kinetic.sector_generator(model)
    rng = np.random.default_rng(seed)
    starts = [states.random_density((2,) * n, rng) for _ in range(initial_states)]
    worst = 0.0
    for rho0 in starts:
        for at in _grid(t):
            a = kinetic.sector_split_evolve(rho0, model, at, sector_gen)
            b = kinetic.direct_evolve(rho0, model, at, generator)
            dist = 0.5 * trace_norm(a.matrix - b.matrix)
            worst = max(worst, dist)
    # a diagonal start stays diagonal, and its diagonal follows classical_evolve
    p0 = starts[0].matrix.diagonal().real
    diagonal = states.DensityMatrix((2,) * n, np.diag(p0))
    classical = 0.0
    for at in _grid(t):
        rho_t = kinetic.sector_split_evolve(diagonal, model, at, sector_gen).matrix
        p_t = kinetic.classical_evolve(p0, model, at)
        classical = max(classical, float(np.abs(rho_t - np.diag(p_t)).max()))
    return Outcome({"sites": n, "beta": beta, "t": t, "initial_states": initial_states,
                    "max_trace_distance": worst, "classical_max_deviation": classical},
                   _failed((worst <= tol["evolution_trace_distance"], "sector-vs-direct",
                            f"trace distance {worst:.1e}"),
                           (classical <= tol["classical_evolution"], "sector-vs-classical",
                            f"deviation {classical:.1e}")))


def detailed_balance(model: str, sites: int, beta: float, delta: float = 0.0,
                     tol=TOLERANCES) -> Outcome:
    """Detailed balance of the thermal rates of the single- or two-flip model
    (``delta`` of the single-flip model only)."""
    rates = KineticModel.thermal(model, sites, beta, delta)
    ok, worst = kinetic.check_detailed_balance(rates, tol["detailed_balance"])
    return Outcome({"model": model, "sites": sites, "beta": beta, "passes": ok,
                    "max_violation": worst},
                   _failed((ok, "detailed-balance", f"violation {worst:.1e}")))


# ---------------------------------------------------------------------------
# acceptance criteria
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    details: str
    seconds: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} ({self.seconds:.1f}s): {self.details}"


REGISTRY: list = []


def _criterion(key: str, name: str):
    """Register a check returning ``(failed, summary)`` as timed criterion ``key``."""
    def register(check):
        @functools.wraps(check)
        def run(tol=TOLERANCES) -> CheckResult:
            t0 = time.perf_counter()
            failed, summary = check(tol)
            return CheckResult(name, not failed, "; ".join(failed) or summary,
                               time.perf_counter() - t0)
        REGISTRY.append((key, run))
        return run
    return register


@_criterion("1", "maxent-measures")
def check_maxent_measures(tol):
    """Closed-form measures of the maximally entangled states, d = 2..6."""
    failed = [f"d={d}: {f}" for d in range(2, 7) for f in maxent_measures(d, tol).failed]
    return failed, (f"negativity, log-negativity, concurrence and EoF within "
                    f"{tol['maxent_measures']} for d = 2..6")


@_criterion("2", "two-qubit-measures")
def check_two_qubit_measures(tol):
    """Bell EoF, concurrence route agreement, and EoF = S(rho_A) on pure states."""
    limit = tol["two_qubit_consistency"]
    bell = states.bell_state().projector()
    psi = states.random_pure((2, 2), np.random.default_rng(20), 500)
    rho = psi.projector()
    s_a = states.von_neumann_entropy(states.partial_trace_pure(psi, 1))
    worst = max(abs(measures.eof_2q(bell) - 1.0),
                float(np.abs(measures.concurrence_2q(rho) - measures.concurrence_pure(psi)).max()),
                float(np.abs(measures.eof_2q(rho) - s_a).max()))
    detail = f"max deviation {worst:.2e} over 500 states (tol {limit})"
    return _failed((worst <= limit, "two-qubit-consistency", detail)), detail


@_criterion("3", "ppt-structure")
def check_ppt_negative_counts(tol):
    """Partial transpose of rank-r pure states has exactly r(r-1)/2 negatives."""
    negative = tol["ppt_negative_eigenvalue"]
    rng = np.random.default_rng(21)
    bad = 0
    for rank in (2, 3, 4):
        psi = states.random_schmidt_rank_state(4, 4, rank, rng, 200)
        w = np.linalg.eigvalsh(states.partial_transpose(psi.projector()))
        bad += int(((w < -negative).sum(axis=1) != rank * (rank - 1) // 2).sum())
    detail = f"{bad} miscounted spectra out of 600"
    return _failed((bad == 0, "negative-eigenvalue-count", detail)), detail


@_criterion("4", "positive-maps")
def check_positive_map_detection(tol):
    """Reduction map positive and detecting maximal entanglement; Choi PSD iff CP."""
    psd = tol["choi_psd"]
    rng = np.random.default_rng(22)
    red = measures.reduction_map(4)
    worst = 0.0
    for _ in range(500):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        x = g @ g.conj().T
        worst = min(worst, np.linalg.eigvalsh(red(x))[0] / np.abs(x).max())
    failed = _failed((worst >= -psd, "reduction-map-positive",
                      f"min eigenvalue {worst:.1e} of the scale on a PSD input"))
    failed += [f"d={d}: {f}" for d in range(2, 6) for f in positive_maps(d, rng, tol).failed]
    return failed, ("reduction map positive on 500 PSD inputs and detects maximal "
                    "entanglement for d = 2..5; Choi PSD test consistent")


@_criterion("5", "haar-statistics")
def check_haar_statistics(tol):
    """Monte Carlo purity and entropy against the closed forms."""
    failed, msgs = [], []
    for m, n in ((2, 2), (2, 8), (4, 4)):
        purity, entropy = haar.sample_moments(m, n, 10_000, 1000 + m * 10 + n)
        for label, (mean, err), exact in (
            ("purity", purity, haar.mean_purity_exact(m, n)),
            ("entropy", entropy, haar.mean_entropy_exact(m, n)),
        ):
            z, bad = _mc_consistency(f"({m},{n}) {label}", mean, err, exact, tol)
            failed += bad
            msgs.append(f"({m},{n}) {label} z={z:.2f}")
    rel = abs(haar.mean_entropy_exact(8, 512) - haar.mean_entropy_approx(8, 512)) / math.log(8)
    failed += _failed((rel <= tol["haar_approx_rel"], "(8,512) approximation",
                       f"rel err {rel:.4f}"))
    msgs.append(f"(8,512) approximation rel err {rel:.4f}")
    return failed, "; ".join(msgs)


@_criterion("6", "mps-engine")
def check_mps_engine(tol):
    """Round trip, canonical conditions, and the truncation bound."""
    rng = np.random.default_rng(23)
    trip = mps_roundtrip(8, 16, rng, tol)
    failed = trip.failed + [f for _ in range(100)
                            for f in mps_truncate(8, (1, 2, 4), rng, tol).failed]
    return failed, (f"fidelity 1-{1 - trip.values['fidelity']:.1e}; canonical form and "
                    "truncation bound held for 100 states at dmax 1, 2, 4")


@_criterion("7", "named-states")
def check_named_states(tol):
    """GHZ dense form, AKLT and MG ground-state residuals, cluster stabilizers."""
    cases = (("ghz", 4), ("aklt", 6), ("aklt", 8), ("mg", 6), ("cluster", 6))
    failed = [f"{name} N={n}: {f}" for name, n in cases for f in named_state(name, n, tol).failed]
    return failed, "GHZ, AKLT(6,8), MG(6), cluster(6) verified"


@_criterion("8", "classical-superposition")
def check_classical_superposition(tol):
    """Thermal superposition amplitudes and the kinetic kernel vector."""
    failed = [f"beta={beta}: {f}" for beta in (0.0, 0.3, 0.6)
              for f in classical_superposition(8, beta, 1.0, tol).failed]
    return failed, "amplitudes and kernel verified at beta 0, 0.3, 0.6"


# (sites, [(gamma, h), ...]) where criterion 9 checks free fermions against ED
XY_DENSE_GRID = ((10, [(g, h) for g in (0.0, 0.5, 1.0) for h in (0.25, 0.8, 1.5)]),
                 (12, [(1.0, 1.0), (0.5, 1.2)]))


@_criterion("9", "area-law-slopes")
def check_area_law_slopes(tol):
    """Critical XY slopes at N=128 and agreement with the dense route."""
    ising = arealaw(128, 1.0, 1.0, 8, 64, expect_slope=1 / 6, slope_tol=tol["slope_ising"])
    xx = arealaw(128, 0.0, 0.0, 8, 64, expect_slope=1 / 3, slope_tol=tol["slope_xx"])
    worst = energy = 0.0
    for n, grid in XY_DENSE_GRID:
        for gamma, h in grid:
            ham = chains.build_xy(gamma, h, n)
            w, v = chains.ground_state(ham)  # dense at 10 sites, Lanczos at 12
            ff_energy, cov = freefermion.xy_ground_covariance(gamma, h, n)
            energy = max(energy, abs(w[0] - ff_energy))
            psi = states.PureState((2,) * n, v[:, 0])
            dense_s = chains.block_entropy_scan(psi, [n // 4, n // 2]).entropies_bits
            ff_s = [freefermion.block_entropy_bits(cov, b) for b in (n // 4, n // 2)]
            worst = max(worst, float(np.abs(np.array(dense_s) - np.array(ff_s)).max()))
    failed = ([f"critical Ising {f}" for f in ising.failed] + [f"XX {f}" for f in xx.failed]
              + _failed((worst <= tol["free_fermion_vs_dense"], "free-fermion-vs-dense",
                         f"deviation {worst:.1e}"),
                        (energy <= tol["free_fermion_energy"], "free-fermion-energy",
                         f"deviation {energy:.1e}")))
    return failed, (f"slopes {ising.values['slope']:.4f} and {xx.values['slope']:.4f}; "
                    f"dense agreement {worst:.1e}, ground energies {energy:.1e}")


@_criterion("10", "mutual-information")
def check_mutual_information_area_laws(tol):
    """Thermal and classical mutual-information bounds."""
    quantum = mutualinfo_quantum(10, (0.1, 1.0), 5, 1.0, 1.0, tol)
    classical = mutualinfo_classical(12, 0.5, 6, 1.0, tol)
    values = classical.values
    return quantum.failed + classical.failed, (
        f"quantum bounds hold at beta 0.1 and 1; classical I={values['I_bits']:.4f} <= "
        f"{values['area_bound_bits']}, boundary identity gap "
        f"{values['boundary_identity_gap']:.1e}")


@_criterion("11", "kinetic-sectors")
def check_kinetic_sector_structure(tol):
    """Detailed balance, sector positivity, block formula, uniform reduction."""
    n = 8
    failed = [f"{model}: {f}" for model, delta in (("single-flip", 0.3), ("two-flip", 0.0))
              for f in detailed_balance(model, n, 0.4, delta, tol).failed]
    min_seen = float(kinetic.sector_spectra_scan(
        "two-flip", n, [TauSector(code, n) for code in range(2 ** n)],
        (0.0, math.pi / 8, math.pi / 4), k=1).min())
    block_dev = 0.0
    for phi in (0.1, 0.4, math.pi / 4):
        z2z3 = kron(np.eye(2), PAULI_Z, PAULI_Z).real
        x1x2 = kron(PAULI_X, PAULI_X, np.eye(2)).real
        block = (np.eye(8) - 0.5 * math.sin(2 * phi) * z2z3
                 - math.sqrt(math.cos(2 * phi)) * x1x2)
        got = chains.lowest_levels(block)[0]
        block_dev = max(block_dev, abs(got - kinetic.mixed_block_min_eigenvalue(phi)))
    model = KineticModel("single-flip", n, 0.55, 0.35)
    reference = kinetic.symmetrize(model)
    uniform_dev = max(
        np.abs(kinetic.build_h_tau_single_flip(tau, model).dense() - reference).max()
        for tau in (TauSector.named("uniform-down", n), TauSector.named("uniform-up", n)))
    failed += _failed(
        (min_seen >= -tol["sector_positivity"], "sector-positivity",
         f"negative sector energy {min_seen:.1e}"),
        (block_dev <= tol["block_formula"], "block-formula", f"off by {block_dev:.1e}"),
        (uniform_dev <= tol["uniform_sector_match"], "uniform-sector",
         f"differs by {uniform_dev:.1e}"))
    return failed, (f"detailed balance, positivity (min eig {min_seen:.1e}), block formula, "
                    "uniform reduction all verified")


@_criterion("12", "sector-evolution")
def check_sector_evolution_oracle(tol):
    """Sector-split evolution equals direct integration of the master equation."""
    result = sector_evolution(6, 0.4, (0.1, 1.0), 5, seed=24, tol=tol)
    return result.failed, (f"max trace distance {result.values['max_trace_distance']:.2e} "
                           f"over 10 evolutions (tol {tol['evolution_trace_distance']})")


@_criterion("13", "figure-degeneracies")
def check_figure_degeneracies(tol):
    """Sector spectra structure at N=16: degeneracy patterns across the grids."""
    n = 16
    failed = kinetic_spectra("two-flip", n, ("pair-up",), phi_grid=9, levels=2, seed=3,
                             tol=tol).failed
    w = kinetic.sector_spectra_scan("two-flip", n, [TauSector.named("single-up", n)],
                                    (math.pi / 4,), k=2, seed=4)[0, 0]
    gap = float(w[1] - w[0])
    failed += _failed((gap > tol["single_up_gap"], "single-up-gap",
                       f"degenerate at phi=pi/4: gap {gap:.1e}"))
    names = ("half-up", "single-up", "pair-up")
    spectra = kinetic.sector_spectra_scan("single-flip", n,
                                          [TauSector.named(p, n) for p in names],
                                          (0.9, 0.99, 0.999), k=2, seed=5)
    gap_report = []
    for name, w in zip(names, spectra):
        gaps = [float(g) for g in w[:, 1] - w[:, 0]]  # ascending gamma
        failed += _failed((gaps[0] > gaps[1] > gaps[2] > 0, f"single-flip {name} gaps",
                           f"not closing monotonically: {gaps}"))
        gap_report.append(f"{name} {gaps[-1]:.1e}")
    return failed, ("pair-up degenerate across 9 phis; single-up gap at pi/4 OK; "
                    "single-flip gaps close monotonically "
                    f"(at gamma=0.999: {', '.join(gap_report)})")
