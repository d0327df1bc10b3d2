"""Acceptance checks: one function per reproduction target, with tolerances.

Each check returns a :class:`CheckResult` and never raises on a physics
failure; the CLI ``selftest`` subcommand and the acceptance test module both
iterate the :data:`REGISTRY`.

Three experiments are also CLI commands and are defined once, here:
:func:`verify_named_state` (``mps named``, criterion 7),
:func:`classical_superposition` (``classical-superposition``, criterion 8)
and :func:`sector_evolution` (``kinetic evolve``, criterion 12).  Each
returns its measured values and the checks that failed, as ``"name: detail"``
strings; the criterion and the command only choose the parameters and report.

Tolerances are pinned in the read-only :data:`TOLERANCES`.  Every check and
shared experiment takes the table as its ``tol`` argument, defaulting to the
pinned one, so the registry entries stay zero-argument callables; the CLI
passes the table with its ``--tol`` overrides applied.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import chains, freefermion, haar, kinetic, measures, mps, states
from .kinetic import KineticModel, TauSector
from .linalg import PAULI_X, PAULI_Z, ResourceLimitError, kron, lanczos_lowest

TOLERANCES = MappingProxyType({
    "maxent_measures": 1e-10,
    "two_qubit_consistency": 1e-8,
    "ppt_negative_eigenvalue": 1e-10,
    "choi_psd": 1e-9,
    "haar_sigma": 3.0,
    "haar_approx_rel": 0.02,
    "mps_roundtrip": 1e-10,
    "mps_canonical": 1e-8,
    "named_state_residual": 1e-8,
    "classical_superposition": 1e-10,
    "slope_ising": 0.02,
    "slope_xx": 0.03,
    "free_fermion_vs_dense": 1e-6,
    "mutual_info_slack": 1e-9,
    "detailed_balance": 1e-10,
    "sector_positivity": 1e-10,
    "block_formula": 1e-12,
    "uniform_sector_match": 1e-12,
    "evolution_trace_distance": 1e-8,
    "pair_sector_gap": 1e-8,
    "single_up_gap": 1e-4,
})


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: str
    seconds: float = field(default=0.0)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} ({self.seconds:.1f}s): {self.details}"


def _result(name, passed, details, t0):
    return CheckResult(name, bool(passed), details, time.perf_counter() - t0)


def _failed(*checks) -> list[str]:
    """``name: detail`` of each ``(passed, name, detail)`` check that failed."""
    return [f"{name}: {detail}" for passed, name, detail in checks if not passed]


# ---------------------------------------------------------------------------
# experiments shared with the CLI
# ---------------------------------------------------------------------------

NAMED_STATES = {
    "ghz": mps.ghz_mps, "af-ghz": mps.antiferro_ghz_mps, "aklt": mps.aklt_mps,
    "mg": mps.majumdar_ghosh_mps, "cluster": mps.cluster_mps,
}


def verify_named_state(name: str, state, tol=TOLERANCES) -> tuple[dict, list[str]]:
    """Check the property that defines each example state, where feasible."""
    n = state.nsites
    if name in ("ghz", "af-ghz"):
        psi, _ = state.to_dense()
        target = np.zeros(2 ** n, dtype=complex)
        if name == "ghz":
            target[0] = target[-1] = 1 / math.sqrt(2)
        else:
            odd = int("01" * (n // 2), 2)
            even = int("10" * (n // 2), 2)
            target[odd] = target[even] = 1 / math.sqrt(2)
        dev = float(min(np.linalg.norm(psi.amplitudes - target),
                        np.linalg.norm(psi.amplitudes + target)))
        return ({"dense_form_deviation": dev},
                _failed((dev <= 1e-12, "named-state-dense-form", f"deviation {dev:.1e}")))
    if name == "cluster":
        vals = [mps.expectation(state, {(i - 1) % n: PAULI_Z, i: PAULI_X,
                                        (i + 1) % n: PAULI_Z}).real
                for i in range(n)]
        dev = float(np.abs(np.asarray(vals) - mps.CLUSTER_STABILIZER_SIGN).max())
        return ({"stabilizer_sign": mps.CLUSTER_STABILIZER_SIGN, "stabilizer_deviation": dev},
                _failed((dev <= 1e-10, "cluster-stabilizers", f"deviation {dev:.1e}")))
    # aklt / mg: ground-state residual against exact diagonalization; it also
    # bounds the energy gap, |<psi|H - E0|psi>| <= ||(H - E0) psi||.  The
    # dense MPS budget (2^DENSE_SITE_LIMIT amplitudes) is the oracle's reach:
    # to_dense raises ResourceLimitError beyond it.
    psi, _ = state.to_dense()
    ham = (chains.build_aklt if name == "aklt" else chains.build_mg)(n)
    if psi.dim <= 2048:
        op = ham.dense()
        e0 = float(np.linalg.eigvalsh(op)[0])
    else:
        op = ham.sparse()
        e0 = float(lanczos_lowest(op, k=1, seed=0)[0])
    resid = float(np.linalg.norm(op @ psi.amplitudes - e0 * psi.amplitudes))
    return ({"ground_energy": e0, "eigen_residual": resid},
            _failed((resid <= tol["named_state_residual"], "named-state-residual",
                     f"residual {resid:.1e}")))


def classical_superposition(n: int, beta: float, coupling: float,
                            tol=TOLERANCES) -> tuple[dict, list[str]]:
    """Thermal superposition amplitudes against the Gibbs weights, and the
    kernel of the symmetrized Glauber generator against the same vector."""
    limit = tol["classical_superposition"]
    state = mps.classical_superposition_mps(lambda a, b: -coupling * a * b, beta, n)
    psi, _ = state.to_dense()
    energies = kinetic.ising_energies(n, coupling)
    target = np.exp(-0.5 * beta * (energies - energies.min()))
    target /= np.linalg.norm(target)
    amp = psi.amplitudes
    phase = amp[np.argmax(np.abs(amp))] / target[np.argmax(np.abs(amp))]
    deviation = float(np.abs(amp - phase * target).max())
    model = KineticModel.single_flip(n, gamma=math.tanh(2 * beta * coupling),
                                     delta=0.0, coupling=coupling)
    w, v = np.linalg.eigh(kinetic.symmetrize(model))
    overlap = float(abs(np.vdot(v[:, 0], target)))
    values = {"amplitude_deviation": deviation, "ground_energy": float(w[0]),
              "kernel_overlap": overlap}
    return values, _failed(
        (deviation <= limit, "gibbs-amplitudes", f"deviation {deviation:.1e}"),
        (abs(w[0]) <= limit, "kernel-eigenvalue", f"ground energy {w[0]:.1e}"),
        (overlap >= 1 - limit, "kernel-overlap", f"overlap 1-{1 - overlap:.1e}"))


def sector_evolution(n: int, beta: float, times, initial_states: int, seed: int,
                     tol=TOLERANCES) -> tuple[dict, list[str]]:
    """Largest trace distance between sector-split and direct evolution of the
    two-flip model, over random initial states drawn first from ``seed``."""
    if n > 7:
        raise ResourceLimitError("the oracle comparison is limited to 7 sites")
    model = KineticModel.two_flip(n, beta=beta)
    rng = np.random.default_rng(seed)
    starts = [states.random_density((2,) * n, rng) for _ in range(initial_states)]
    worst = 0.0
    for rho0 in starts:
        for t in times:
            a = kinetic.sector_split_evolve(rho0, model, t)
            b = kinetic.direct_evolve(rho0, model, t)
            dist = 0.5 * float(np.abs(np.linalg.svd(a.matrix - b.matrix,
                                                    compute_uv=False)).sum())
            worst = max(worst, dist)
    return ({"max_trace_distance": worst},
            _failed((worst <= tol["evolution_trace_distance"], "sector-vs-direct",
                     f"trace distance {worst:.1e}")))


# ---------------------------------------------------------------------------
# acceptance criteria
# ---------------------------------------------------------------------------

def check_maxent_measures(tol=TOLERANCES) -> CheckResult:
    """Negativity (d-1)/2 and log-negativity log2(d) of maximally entangled states."""
    t0 = time.perf_counter()
    limit = tol["maxent_measures"]
    worst = 0.0
    for d in range(2, 7):
        rho = states.max_entangled(d).projector()
        worst = max(worst, abs(measures.negativity(rho) - (d - 1) / 2))
        worst = max(worst, abs(measures.log_negativity(rho) - math.log2(d)))
    return _result("maxent-measures", worst <= limit,
                   f"max deviation {worst:.2e} (tol {limit})", t0)


def check_two_qubit_measures(tol=TOLERANCES) -> CheckResult:
    """Bell EoF, concurrence route agreement, and EoF = S(rho_A) on pure states."""
    t0 = time.perf_counter()
    limit = tol["two_qubit_consistency"]
    bell = states.bell_state().projector()
    worst = abs(measures.eof_2q(bell) - 1.0)
    rng = np.random.default_rng(20)
    for _ in range(500):
        psi = states.random_pure((2, 2), rng)
        rho = psi.projector()
        worst = max(worst, abs(measures.concurrence_2q(rho) - measures.concurrence_pure(psi)))
        s_a = states.von_neumann_entropy(states.partial_trace_pure(psi, 1, "A"))
        worst = max(worst, abs(measures.eof_2q(rho) - s_a))
    return _result("two-qubit-measures", worst <= limit,
                   f"max deviation {worst:.2e} over 500 states (tol {limit})", t0)


def check_ppt_negative_counts(tol=TOLERANCES) -> CheckResult:
    """Partial transpose of rank-r pure states has exactly r(r-1)/2 negatives."""
    t0 = time.perf_counter()
    negative = tol["ppt_negative_eigenvalue"]
    rng = np.random.default_rng(21)
    bad = 0
    for rank in (2, 3, 4):
        for _ in range(200):
            psi = states.random_schmidt_rank_state(4, 4, rank, rng)
            w = np.linalg.eigvalsh(states.partial_transpose(psi.projector(), "A"))
            if int((w < -negative).sum()) != rank * (rank - 1) // 2:
                bad += 1
    return _result("ppt-structure", bad == 0,
                   f"{bad} miscounted spectra out of 600", t0)


def check_positive_map_detection(tol=TOLERANCES) -> CheckResult:
    """Reduction map detects maximal entanglement; Choi PSD iff CP."""
    t0 = time.perf_counter()
    psd = tol["choi_psd"]
    problems = []
    for d in range(2, 6):
        out = measures.apply_map(measures.reduction_map(d),
                                 states.max_entangled(d).projector(), "B")
        if np.linalg.eigvalsh(out)[0] >= -psd:
            problems.append(f"reduction map missed entanglement at d={d}")
    rng = np.random.default_rng(22)
    red = measures.reduction_map(4)
    for _ in range(500):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        x = g @ g.conj().T
        if np.linalg.eigvalsh(red(x))[0] < -psd * np.abs(x).max():
            problems.append("reduction map not positive on a PSD input")
            break
    if measures.is_completely_positive(measures.reduction_map(3), psd):
        problems.append("reduction map claimed CP")
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    if not measures.is_completely_positive(measures.unitary_conjugation_map(u), psd):
        problems.append("unitary conjugation claimed non-CP")
    return _result("positive-maps", not problems, "; ".join(problems) or
                   "reduction map positive, detects max entanglement; Choi PSD test consistent", t0)


def check_haar_statistics(tol=TOLERANCES) -> CheckResult:
    """Monte Carlo purity and entropy against the closed forms."""
    t0 = time.perf_counter()
    nsig = tol["haar_sigma"]
    msgs = []
    ok = True
    for m, n in ((2, 2), (2, 8), (4, 4)):
        rng = np.random.default_rng(1000 + m * 10 + n)
        purities, entropies = haar.sample_statistics(m, n, 10_000, rng)
        for label, vals, exact in (
            ("purity", purities, haar.mean_purity_exact(m, n)),
            ("entropy", entropies, haar.mean_entropy_exact(m, n)),
        ):
            err = vals.std(ddof=1) / math.sqrt(vals.size)
            z = abs(vals.mean() - exact) / err
            ok &= z <= nsig
            msgs.append(f"({m},{n}) {label} z={z:.2f}")
    rel = abs(haar.mean_entropy_exact(8, 512) - haar.mean_entropy_approx(8, 512)) / math.log(8)
    ok &= rel <= tol["haar_approx_rel"]
    msgs.append(f"(8,512) approximation rel err {rel:.4f}")
    return _result("haar-statistics", ok, "; ".join(msgs), t0)


def check_mps_engine(tol=TOLERANCES) -> CheckResult:
    """Round trip, truncation bound, and canonical conditions."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(23)
    problems = []
    psi = states.random_pure((2,) * 8, rng)
    m, _ = mps.from_dense(psi, dmax=16)
    back, _ = m.to_dense()
    fid = abs(np.vdot(psi.amplitudes, back.amplitudes))
    if fid < 1 - tol["mps_roundtrip"]:
        problems.append(f"roundtrip fidelity {fid}")
    worst_defect = 0.0
    violations = 0
    for _ in range(100):
        psi = states.random_pure((2,) * 8, rng)
        full, _ = mps.from_dense(psi)
        worst_defect = max(worst_defect, max(mps.canonical_defects(full).values()))
        for dmax in (1, 2, 4):
            cut, report = mps.truncate(full, dmax)
            dist = np.linalg.norm(psi.amplitudes - cut.dense_amplitudes()) ** 2
            if dist > report.bound + 1e-10:
                violations += 1
    if worst_defect > tol["mps_canonical"]:
        problems.append(f"canonical defect {worst_defect:.2e}")
    if violations:
        problems.append(f"{violations} truncation-bound violations")
    detail = "; ".join(problems) or (
        f"fidelity 1-{1 - fid:.1e}, worst canonical defect {worst_defect:.1e}, "
        "bound held for 300 truncations")
    return _result("mps-engine", not problems, detail, t0)


def check_named_states(tol=TOLERANCES) -> CheckResult:
    """GHZ dense form, AKLT and MG ground-state residuals, cluster stabilizers."""
    t0 = time.perf_counter()
    cases = (("ghz", 4), ("aklt", 6), ("aklt", 8), ("mg", 6), ("cluster", 6))
    problems = [f"{name} N={n}: {failure}" for name, n in cases
                for failure in verify_named_state(name, NAMED_STATES[name](n), tol)[1]]
    return _result("named-states", not problems,
                   "; ".join(problems) or "GHZ, AKLT(6,8), MG(6), cluster(6) verified", t0)


def check_classical_superposition(tol=TOLERANCES) -> CheckResult:
    """Thermal superposition amplitudes and the kinetic kernel vector."""
    t0 = time.perf_counter()
    problems = [f"beta={beta}: {failure}" for beta in (0.0, 0.3, 0.6)
                for failure in classical_superposition(8, beta, 1.0, tol)[1]]
    return _result("classical-superposition", not problems,
                   "; ".join(problems) or "amplitudes and kernel verified at beta 0, 0.3, 0.6", t0)


def check_area_law_slopes(tol=TOLERANCES) -> CheckResult:
    """Critical XY slopes at N=128 and agreement with the dense route."""
    t0 = time.perf_counter()
    problems = []
    scan = chains.free_fermion_entropy_scan(1.0, 1.0, 128, range(8, 65), abscissa="chord")
    if abs(scan.slope - 1 / 6) > tol["slope_ising"]:
        problems.append(f"critical Ising slope {scan.slope:.4f}")
    ising_slope = scan.slope
    scan = chains.free_fermion_entropy_scan(0.0, 0.0, 128, range(8, 65), abscissa="chord")
    if abs(scan.slope - 1 / 3) > tol["slope_xx"]:
        problems.append(f"XX slope {scan.slope:.4f}")
    xx_slope = scan.slope
    worst = 0.0
    for n, grid in ((10, [(g, h) for g in (0.0, 0.5, 1.0) for h in (0.25, 0.8, 1.5)]),
                    (12, [(1.0, 1.0), (0.5, 1.2)])):
        for gamma, h in grid:
            ham = chains.build_xy(gamma, h, n)
            method = "dense" if n <= 10 else "lanczos"
            _, v = chains.ground_state(ham, k=1, method=method)
            psi = states.PureState((2,) * n, v[:, 0])
            dense_s = chains.block_entropy_scan(psi, [n // 4, n // 2]).entropies_bits
            ff_s = freefermion.xy_entropy_free_fermion(gamma, h, n, [n // 4, n // 2])
            worst = max(worst, float(np.abs(np.array(dense_s) - np.array(ff_s)).max()))
    if worst > tol["free_fermion_vs_dense"]:
        problems.append(f"free-fermion vs dense deviation {worst:.1e}")
    detail = "; ".join(problems) or (
        f"slopes {ising_slope:.4f} and {xx_slope:.4f}; dense agreement {worst:.1e}")
    return _result("area-law-slopes", not problems, detail, t0)


def check_mutual_information_area_laws(tol=TOLERANCES) -> CheckResult:
    """Thermal and classical mutual-information bounds."""
    t0 = time.perf_counter()
    slack = tol["mutual_info_slack"]
    problems = []
    ham = chains.build_xy(1.0, 1.0, 10)
    for beta in (0.1, 1.0):
        info, boundary, simple = chains.mutual_info_area_check(ham, beta, 5)
        if not (info <= boundary + slack and boundary <= simple + slack):
            problems.append(f"quantum bound chain broken at beta={beta}: "
                            f"{info:.4f}, {boundary:.4f}, {simple:.4f}")
    info, bound, gap = chains.classical_gibbs_mutual_info(lambda a, b: -a * b, 0.5, 12, 6)
    if info > bound + slack:
        problems.append(f"classical bound broken: {info:.4f} > {bound}")
    if gap > slack:
        problems.append(f"boundary identity violated by {gap:.1e}")
    return _result("mutual-information", not problems,
                   "; ".join(problems) or
                   f"quantum bounds hold at beta 0.1 and 1; classical I={info:.4f} <= {bound}, "
                   f"boundary identity gap {gap:.1e}", t0)


def check_kinetic_sector_structure(tol=TOLERANCES) -> CheckResult:
    """Detailed balance, sector positivity, block formula, uniform reduction."""
    t0 = time.perf_counter()
    problems = []
    n = 8
    for model in (KineticModel.single_flip(n, beta=0.4, delta=0.3),
                  KineticModel.two_flip(n, beta=0.4)):
        ok, worst = kinetic.check_detailed_balance(model, tol["detailed_balance"])
        if not ok:
            problems.append(f"{model.flip} detailed balance violated at {worst:.1e}")
    postol = tol["sector_positivity"]
    min_seen = math.inf
    for phi in (0.0, math.pi / 8, math.pi / 4):
        for code in range(2 ** n):
            ham = kinetic.build_h_tau_two_flip(TauSector(code, n), phi, n)
            w0 = float(np.linalg.eigvalsh(ham.dense())[0])
            min_seen = min(min_seen, w0)
            if w0 < -postol:
                problems.append(f"negative sector energy {w0:.1e} at phi={phi:.3f}, tau={code}")
                break
    btol = tol["block_formula"]
    for phi in (0.1, 0.4, math.pi / 4):
        z2z3 = kron(np.eye(2), PAULI_Z, PAULI_Z).real
        x1x2 = kron(PAULI_X, PAULI_X, np.eye(2)).real
        block = (np.eye(8) - 0.5 * math.sin(2 * phi) * z2z3
                 - math.sqrt(math.cos(2 * phi)) * x1x2)
        got = np.linalg.eigvalsh(block)[0]
        want = kinetic.mixed_block_min_eigenvalue(phi)
        if abs(got - want) > btol:
            problems.append(f"block formula off by {abs(got - want):.1e} at phi={phi:.3f}")
    utol = tol["uniform_sector_match"]
    model = KineticModel.single_flip(n, gamma=0.55, delta=0.35)
    reference = kinetic.build_h_beta_single_flip(model).dense()
    for tau in (TauSector.uniform_down(n), TauSector.uniform_up(n)):
        diff = np.abs(kinetic.build_h_tau_single_flip(tau, model).dense() - reference).max()
        if diff > utol:
            problems.append(f"uniform sector differs by {diff:.1e}")
    return _result("kinetic-sectors", not problems,
                   "; ".join(problems) or
                   f"detailed balance, positivity (min eig {min_seen:.1e}), block formula, "
                   "uniform reduction all verified", t0)


def check_sector_evolution_oracle(tol=TOLERANCES) -> CheckResult:
    """Sector-split evolution equals direct integration of the master equation."""
    t0 = time.perf_counter()
    values, failed = sector_evolution(6, 0.4, (0.1, 1.0), 5, seed=24, tol=tol)
    return _result("sector-evolution", not failed,
                   f"max trace distance {values['max_trace_distance']:.2e} over 10 evolutions "
                   f"(tol {tol['evolution_trace_distance']})", t0)


def check_figure_degeneracies(tol=TOLERANCES) -> CheckResult:
    """Sector spectra structure at N=16: degeneracy patterns across the grids."""
    t0 = time.perf_counter()
    problems = []
    n = 16
    pair_tol = tol["pair_sector_gap"]
    phis = [i * math.pi / 32 for i in range(9)]  # 9 points spanning [0, pi/4]
    pair = TauSector.adjacent_pair_up(n)
    for phi in phis:
        ham = kinetic.build_h_tau_two_flip(pair, phi, n)
        w = lanczos_lowest(ham.sparse(), k=2, seed=3)
        if w[1] - w[0] > pair_tol:
            problems.append(f"pair-up sector split {w[1] - w[0]:.1e} at phi={phi:.3f}")
    single = TauSector.single_up(n)
    ham = kinetic.build_h_tau_two_flip(single, math.pi / 4, n)
    w = lanczos_lowest(ham.sparse(), k=2, seed=4)
    if w[1] - w[0] <= tol["single_up_gap"]:
        problems.append(f"single-up sector degenerate at phi=pi/4: gap {w[1] - w[0]:.1e}")
    gap_report = []
    for name, tau in (("half-up", TauSector.half_up(n)),
                      ("single-up", TauSector.single_up(n)),
                      ("pair-up", TauSector.adjacent_pair_up(n))):
        gaps = []
        for gamma in (0.9, 0.99, 0.999):
            model = KineticModel.single_flip(n, gamma=gamma, delta=0.0)
            ham = kinetic.build_h_tau_single_flip(tau, model)
            w = lanczos_lowest(ham.sparse(), k=2, seed=5)
            gaps.append(w[1] - w[0])
        if not (gaps[0] > gaps[1] > gaps[2] > 0):
            problems.append(f"single-flip {name} gaps not closing monotonically: {gaps}")
        gap_report.append(f"{name} {gaps[-1]:.1e}")
    return _result("figure-degeneracies", not problems,
                   "; ".join(problems) or
                   "pair-up degenerate across 9 phis; single-up gap at pi/4 OK; "
                   "single-flip gaps close monotonically "
                   f"(at gamma=0.999: {', '.join(gap_report)})", t0)


REGISTRY = [
    ("1", check_maxent_measures),
    ("2", check_two_qubit_measures),
    ("3", check_ppt_negative_counts),
    ("4", check_positive_map_detection),
    ("5", check_haar_statistics),
    ("6", check_mps_engine),
    ("7", check_named_states),
    ("8", check_classical_superposition),
    ("9", check_area_law_slopes),
    ("10", check_mutual_information_area_laws),
    ("11", check_kinetic_sector_structure),
    ("12", check_sector_evolution_oracle),
    ("13", check_figure_degeneracies),
]

