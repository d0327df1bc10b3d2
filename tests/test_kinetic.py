import math

import numpy as np
import pytest
from scipy.sparse.linalg import expm_multiply

from entlab import kinetic, selftest
from entlab.kinetic import (
    KineticModel,
    TauSector,
    build_generator,
    build_h_beta_single_flip,
    build_h_tau_single_flip,
    build_h_tau_two_flip,
    check_detailed_balance,
    classical_evolve,
    config_spins,
    conserved_tau_diagonals,
    detailed_balance_violation,
    direct_evolve,
    gibbs_sqrt_vector,
    glauber_rate,
    ising_energies,
    mixed_block_min_eigenvalue,
    sector_eigensystems,
    sector_spectra_scan,
    sector_split_evolve,
    single_flip_coefficients,
    symmetrize,
    two_flip_rate,
    vectorized_generator,
)
from entlab.linalg import PAULI_X, kron, trace_norm
from entlab.states import DensityMatrix, random_density


def trace_distance(a, b):
    return 0.5 * trace_norm(a - b)


def test_model_validation():
    with pytest.raises(ValueError):
        KineticModel.single_flip(4, gamma=1.5)
    with pytest.raises(ValueError):
        KineticModel.single_flip(4)
    with pytest.raises(ValueError):
        KineticModel.two_flip(4, phi=1.0)
    m = KineticModel.single_flip(6, gamma=0.5, delta=0.5 / 1.5)
    assert m.on_special_dynamics_line
    m2 = KineticModel.two_flip(6, beta=0.3)
    assert m2.phi == pytest.approx(math.atan(math.tanh(0.3)))
    assert math.sin(2 * m2.phi) == pytest.approx(m2.gamma)


def test_model_rejects_pair_with_delta():
    with pytest.raises(ValueError):
        KineticModel("pair", 6, 1.0, 0.4, delta=0.2)


def test_tau_sector_code_range():
    with pytest.raises(ValueError):
        TauSector(1 << 6, 6)
    with pytest.raises(ValueError):
        TauSector(-1, 6)


def test_tau_sector_codes():
    n = 16
    assert TauSector.uniform_up(n).code == 2 ** n - 1
    assert TauSector.uniform_down(n).code == 0
    assert TauSector.single_up(n).code == 2 ** 8
    assert TauSector.adjacent_pair_up(n).code == 2 ** 8 + 2 ** 9
    assert TauSector.half_up(n).code == 2 ** 8 - 1
    t = TauSector.half_up(n)
    assert t.spins[:8].tolist() == [1] * 8
    assert t.spins[8:].tolist() == [-1] * 8
    assert TauSector.from_spins(t.spins).code == t.code


def test_glauber_rate_values():
    n = 8
    flat = KineticModel.single_flip(n, gamma=0.0, delta=0.0, rate_scale=1.3)
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = rng.choice([-1, 1], size=n)
        assert glauber_rate(s, int(rng.integers(n)), flat) == pytest.approx(1.3)

    model = KineticModel.single_flip(n, gamma=0.6, delta=0.25)
    up = np.ones(n)
    assert glauber_rate(up, 3, model) == pytest.approx((1 + 0.25) * (1 - 0.6))
    wall = np.array([1, 1, 1, 1, -1, -1, -1, -1])
    # flipping at the wall: neighbors cancel, only the delta factor remains
    assert glauber_rate(wall, 4, model) == pytest.approx(1 + 0.25 * wall[3] * wall[5])


def test_two_flip_rate_values():
    n = 8
    hot = KineticModel.two_flip(n, beta=0.0)
    rng = np.random.default_rng(1)
    for _ in range(20):
        s = rng.choice([-1, 1], size=n)
        assert two_flip_rate(s, int(rng.integers(n)), hot) == pytest.approx(1.0)
    model = KineticModel.two_flip(n, beta=0.4)
    gamma = model.gamma
    assert two_flip_rate(np.ones(n), 2, model) == pytest.approx(1 - gamma)
    s = np.array([1, 1, 1, -1, 1, 1, 1, 1])  # bond pairs cancel around i=4
    assert s[3] * s[4] == -s[5] * s[6]
    assert two_flip_rate(s, 4, model) == pytest.approx(1.0)


def test_generator_columns_and_uniform_gap():
    model = KineticModel.single_flip(3, gamma=0.0, delta=0.0, rate_scale=0.7)
    gen = build_generator(model)
    assert np.abs(np.asarray(gen.sum(axis=0))).max() <= 1e-12
    w = np.linalg.eigvalsh(gen.toarray())
    assert w[-1] == pytest.approx(0.0, abs=1e-12)
    assert w[-2] == pytest.approx(-2 * 0.7, abs=1e-10)


def test_generator_stationary_gibbs():
    for model in (
        KineticModel.single_flip(8, beta=0.45, delta=0.3),
        KineticModel.two_flip(8, beta=0.45),
    ):
        gen = build_generator(model)
        energies = ising_energies(8, model.coupling)
        p = np.exp(-model.beta * (energies - energies.min()))
        p /= p.sum()
        assert np.abs(gen @ p).max() <= 1e-12


def test_detailed_balance():
    for model in (
        KineticModel.single_flip(8, gamma=0.7, delta=0.4),
        KineticModel.two_flip(8, beta=0.35),
    ):
        ok, worst = check_detailed_balance(model)
        assert ok
        assert worst <= 1e-10


def test_detailed_balance_negative_control():
    model = KineticModel.single_flip(5, gamma=0.5, delta=0.0)
    gen = build_generator(model).tolil()
    gen[1, 0] *= 1.01  # corrupt one rate
    worst, pair = detailed_balance_violation(
        gen.tocsr(), ising_energies(5), model.beta
    )
    assert worst > 1e-3
    assert set(pair) == {0, 1}


def detailed_balance_reference(gen, energies, beta):
    """Entry-by-entry form of detailed_balance_violation, over a dict of rates."""
    coo = gen.tocoo()
    boltz = np.exp(-beta * (energies - energies.min()))
    worst, worst_pair = 0.0, (0, 0)
    lhs_all = {}
    for r, c, v in zip(coo.row, coo.col, coo.data):
        if r != c:
            lhs_all[(r, c)] = v
    for (t, s), w_ts in lhs_all.items():
        w_st = lhs_all.get((s, t), 0.0)
        lhs = w_ts * boltz[s]
        rhs = w_st * boltz[t]
        scale = max(abs(lhs), abs(rhs), 1e-300)
        rel = abs(lhs - rhs) / scale
        if rel > worst:
            worst, worst_pair = rel, (int(s), int(t))
    return worst, worst_pair


def test_detailed_balance_matches_the_entrywise_reference():
    cases = []
    for n in (5, 8, 12):
        for model in (KineticModel.single_flip(n, beta=0.4, delta=0.3),
                      KineticModel.two_flip(n, beta=0.4)):
            cases.append((build_generator(model), ising_energies(n), model.beta))
    model = KineticModel.single_flip(5, gamma=0.5)
    corrupted = build_generator(model).tolil()
    corrupted[1, 0] *= 1.01
    cases.append((corrupted.tocsr(), ising_energies(5), model.beta))
    # rates of the wrong temperature violate every reversible pair
    cases.append((build_generator(model), ising_energies(5), 0.7 * model.beta))
    for gen, energies, beta in cases:
        worst, pair = detailed_balance_violation(gen, energies, beta)
        want, want_pair = detailed_balance_reference(gen, energies, beta)
        assert type(worst) is type(want) and repr(worst) == repr(want) and pair == want_pair
    assert detailed_balance_violation(*cases[-2])[0] > 1e-3


def test_symmetrize_structure():
    for delta in (0.0, 0.2):
        model = KineticModel.single_flip(6, gamma=0.6, delta=delta)
        h = symmetrize(model)
        w = np.linalg.eigvalsh(h)
        assert abs(w[0]) <= 1e-10
        kernel = gibbs_sqrt_vector(model)
        assert np.linalg.norm(h @ kernel) <= 1e-10
        assert w[1] > 1e-6  # gapped at finite temperature


def test_symmetrize_infinite_temperature():
    n = 5
    model = KineticModel.single_flip(n, gamma=0.0, delta=0.0, rate_scale=1.4)
    h = symmetrize(model)
    target = np.zeros_like(h)
    for i in range(n):
        mats = [np.eye(2)] * n
        target += 1.4 * np.eye(2 ** n)
        mats[i] = PAULI_X.real
        op = mats[0]
        for m in mats[1:]:
            op = np.kron(op, m)
        target -= 1.4 * op
    assert np.abs(h - target).max() <= 1e-12


def test_h_beta_matches_symmetrize():
    for delta, gamma in ((0.0, 0.5), (0.5, 0.6), (-0.3, 0.8)):
        model = KineticModel.single_flip(8, gamma=gamma, delta=delta)
        dense = build_h_beta_single_flip(model).dense()
        assert np.abs(dense - symmetrize(model)).max() <= 1e-9


def test_single_flip_coefficient_limits():
    a0, b0 = single_flip_coefficients(0.0, 0.4)
    assert a0 == pytest.approx(1.0)
    assert b0 == pytest.approx(-0.4)
    # the unstable form gamma^2/(1 - sqrt(1-gamma^2)) agrees away from 0
    for gamma in (0.3, 0.9):
        for delta in (-0.5, 0.0, 0.7):
            a, b = single_flip_coefficients(gamma, delta)
            raw = (1 + delta) * gamma ** 2 / (2 * (1 - math.sqrt(1 - gamma ** 2))) - delta
            assert a == pytest.approx(raw, rel=1e-12)
            assert b == pytest.approx(1 - raw - delta, rel=1e-9, abs=1e-12)


def test_h_tau_uniform_sectors_reduce():
    n = 8
    model = KineticModel.single_flip(n, gamma=0.55, delta=0.35)
    reference = build_h_beta_single_flip(model).dense()
    for tau in (TauSector.uniform_up(n), TauSector.uniform_down(n)):
        dense = build_h_tau_single_flip(tau, model).dense()
        assert np.abs(dense - reference).max() <= 1e-12


def test_h_tau_single_flip_mixed_branch():
    # a mixed neighborhood replaces (A, B) by (sqrt(1-d^2)(1-g^2)^(1/4), 0)
    n = 6
    gamma, delta = 0.6, 0.4
    model = KineticModel.single_flip(n, gamma=gamma, delta=delta)
    tau = TauSector.single_up(n, 2)
    ham = build_h_tau_single_flip(tau, model)
    a_mix = math.sqrt(1 - delta ** 2) * (1 - gamma ** 2) ** 0.25
    x_coeffs = {}
    for coeff, factors in ham.terms:
        if len(factors) == 1 and np.allclose(factors[0][1], PAULI_X):
            x_coeffs[factors[0][0]] = -coeff.real
    # neighbors of site 2: tau_1 != tau_3, likewise sites 1 and 3 themselves
    assert x_coeffs[1] == pytest.approx(a_mix)
    assert x_coeffs[3] == pytest.approx(a_mix)
    a_uni, _ = single_flip_coefficients(gamma, delta)
    assert x_coeffs[0] == pytest.approx(a_uni)


def test_h_tau_two_flip_phi_zero_is_tau_independent():
    n = 6
    rng = np.random.default_rng(2)
    target = None
    for _ in range(4):
        tau = TauSector(int(rng.integers(2 ** n)), n)
        dense = build_h_tau_two_flip(tau, 0.0, n).dense()
        if target is None:
            target = dense
        assert np.abs(dense - target).max() <= 1e-14
    # phi = 0: H = sum_i (1 - X_i X_{i+1}), doubly degenerate zero ground level
    w = np.linalg.eigvalsh(target)
    assert abs(w[0]) <= 1e-12 and abs(w[1]) <= 1e-12 and w[2] > 0.1


def test_lanczos_finds_degenerate_zero_pair_at_phi_zero():
    from entlab.linalg import lanczos_lowest

    n = 8
    ham = build_h_tau_two_flip(TauSector.single_up(n), 0.0, n)
    w = lanczos_lowest(ham.sparse(), k=2, seed=0)
    assert np.allclose(w, [0.0, 0.0], atol=1e-9)


def test_h_tau_two_flip_positivity_exhaustive():
    n = 6
    for phi in (0.0, math.pi / 16, math.pi / 8, math.pi / 4):
        for code in range(2 ** n):
            ham = build_h_tau_two_flip(TauSector(code, n), phi, n)
            w0 = np.linalg.eigvalsh(ham.dense())[0]
            assert w0 >= -1e-10


def test_h_tau_two_flip_mixed_gap():
    # mixed tau patterns have strictly positive ground energy for phi > 0
    n = 6
    for phi in (math.pi / 16, math.pi / 8, math.pi / 4):
        for tau in (TauSector.single_up(n), TauSector.half_up(n)):
            w0 = np.linalg.eigvalsh(build_h_tau_two_flip(tau, phi, n).dense())[0]
            assert w0 > 1e-6


def test_h_tau_two_flip_uniform_zero_modes():
    # the all-up sector carries the stationary (Gibbs) zero mode, doubly
    # degenerate; the all-down sector is positive for phi > 0, so its
    # coherences decay
    n = 6
    for phi in (0.1, 0.5, math.pi / 4):
        w_up = np.linalg.eigvalsh(
            build_h_tau_two_flip(TauSector.uniform_up(n), phi, n).dense()
        )
        assert abs(w_up[0]) <= 1e-10 and abs(w_up[1]) <= 1e-10
        w_down = np.linalg.eigvalsh(
            build_h_tau_two_flip(TauSector.uniform_down(n), phi, n).dense()
        )
        assert w_down[0] > 1e-3


def test_uniform_down_two_flip_printed_form():
    # all tau spins down: f terms vanish, diagonal is the site count
    n = 6
    phi = 0.3
    ham = build_h_tau_two_flip(TauSector.uniform_down(n), phi, n)
    dense = ham.dense()
    assert np.allclose(np.diag(dense), n)


def test_mixed_block_min_eigenvalue_formula():
    from entlab.linalg import PAULI_Z

    id2 = np.eye(2)
    for phi in (0.05, 0.3, math.pi / 4):
        z2z3 = kron(id2, PAULI_Z, PAULI_Z).real
        x1x2 = kron(PAULI_X, PAULI_X, id2).real
        block = (np.eye(8) - 0.5 * math.sin(2 * phi) * z2z3
                 - math.sqrt(math.cos(2 * phi)) * x1x2)
        w0 = np.linalg.eigvalsh(block)[0]
        assert w0 == pytest.approx(mixed_block_min_eigenvalue(phi), abs=1e-12)


def test_conserved_quantities_commute():
    model = KineticModel.two_flip(5, beta=0.4)
    gen = vectorized_generator(model)
    coo = gen.tocoo()
    for diag in conserved_tau_diagonals(5):
        comm = np.abs(coo.data * (diag[coo.col] - diag[coo.row]))
        assert comm.max() <= 1e-10


def _transformed_sector_blocks(model):
    """Exhaustive oracle: every conserved-sector block of the transformed
    vectorized generator, labelled by the per-site conserved products."""
    n = model.nsites
    dim = 2 ** n
    gen = vectorized_generator(model).toarray()
    energies = ising_energies(n, model.coupling)
    centered = energies - energies.mean()
    scal = np.exp(0.25 * model.beta * (centered[:, None] + centered[None, :])).reshape(-1)
    transformed = scal[:, None] * gen * (1.0 / scal)[None, :]
    codes = np.arange(dim)
    for mu_code in range(dim):
        idx = codes * dim + (codes ^ mu_code)
        bits = (mu_code >> (n - 1 - np.arange(n))) & 1
        mu_spins = 1 - 2 * bits
        yield mu_spins, transformed[np.ix_(idx, idx)]


def test_single_flip_sectors_match_master_equation():
    # every sector block of the transformed single-flip generator must equal
    # minus the branch-form sector Hamiltonian (mu spins are the tau labels)
    n = 5
    model = KineticModel.single_flip(n, gamma=0.62, delta=0.37)
    worst = 0.0
    for mu_spins, block in _transformed_sector_blocks(model):
        ham = build_h_tau_single_flip(TauSector.from_spins(mu_spins), model)
        worst = max(worst, float(np.abs(block + ham.dense()).max()))
    assert worst <= 1e-12


def test_two_flip_sectors_match_master_equation():
    # pair model: tau labels are neighboring products of the conserved mu spins
    n = 5
    model = KineticModel.two_flip(n, beta=0.37)
    worst = 0.0
    for mu_spins, block in _transformed_sector_blocks(model):
        tau = mu_spins * np.roll(mu_spins, -1)
        ham = build_h_tau_two_flip(TauSector.from_spins(tau), model.phi, n)
        worst = max(worst, float(np.abs(block + ham.dense()).max()))
    assert worst <= 1e-12


def test_sector_evolution_t0_identity():
    model = KineticModel.two_flip(4, beta=0.3)
    rho0 = random_density((2,) * 4, np.random.default_rng(3))
    out = sector_split_evolve(rho0, model, 0.0)
    assert trace_distance(out.matrix, rho0.matrix) <= 1e-10


def test_sector_evolution_diagonal_is_classical():
    n = 6
    model = KineticModel.two_flip(n, beta=0.4)
    rng = np.random.default_rng(4)
    p0 = rng.dirichlet(np.ones(2 ** n))
    rho0 = DensityMatrix((2,) * n, np.diag(p0))
    for t in (0.2, 1.0):
        rho_t = sector_split_evolve(rho0, model, t)
        p_t = classical_evolve(p0, model, t)
        assert np.abs(np.diag(rho_t.matrix).real - p_t).max() <= 1e-8
        off = rho_t.matrix - np.diag(np.diag(rho_t.matrix))
        assert np.abs(off).max() <= 1e-10


def test_sector_evolution_matches_direct_integration():
    n = 5
    model = KineticModel.two_flip(n, beta=0.4)
    rng = np.random.default_rng(5)
    for _ in range(3):
        rho0 = random_density((2,) * n, rng)
        for t in (0.1, 1.0):
            a = sector_split_evolve(rho0, model, t)
            b = direct_evolve(rho0, model, t)
            assert trace_distance(a.matrix, b.matrix) <= 1e-8


def test_late_time_diagonal_is_parity_resolved_gibbs():
    # pair flips conserve total spin parity, so the chain is ergodic within
    # each parity sector and the diagonal relaxes to the sector-wise Gibbs
    # mixture weighted by the initial parity populations
    n = 4
    model = KineticModel.two_flip(n, beta=0.5)
    rho0 = random_density((2,) * n, np.random.default_rng(6))
    late = sector_split_evolve(rho0, model, 120.0)
    assert np.trace(late.matrix).real == pytest.approx(1.0, abs=1e-9)
    p = np.diag(late.matrix).real
    parity = config_spins(n).prod(axis=1)
    energies = ising_energies(n)
    boltz = np.exp(-model.beta * (energies - energies.min()))
    p0 = np.diag(rho0.matrix).real
    target = np.zeros_like(boltz)
    for sector in (+1, -1):
        mask = parity == sector
        target[mask] = boltz[mask] / boltz[mask].sum() * p0[mask].sum()
    assert np.abs(p - target).max() <= 1e-8


def test_sector_spectra_scan_smoke():
    n = 8
    rows = sector_spectra_scan(
        "two-flip", n,
        [TauSector.adjacent_pair_up(n), TauSector.single_up(n)],
        [0.2, math.pi / 4], k=2,
    )
    assert len(rows) == 2 * 2 * 2
    by_key = {(r["tau_code"], r["phi_or_gamma"], r["level_index"]): r["eigenvalue"]
              for r in rows}
    pair = TauSector.adjacent_pair_up(n).code
    single = TauSector.single_up(n).code
    for phi in (0.2, math.pi / 4):
        assert abs(by_key[(pair, phi, 0)] - by_key[(pair, phi, 1)]) <= 1e-8
    assert by_key[(single, math.pi / 4, 1)] - by_key[(single, math.pi / 4, 0)] > 1e-4


def test_sector_spectra_scan_single_flip_gap_closes():
    n = 8
    tau = TauSector.half_up(n)
    rows = sector_spectra_scan("single-flip", n, [tau], [0.9, 0.99], k=2)
    gaps = {}
    for r in rows:
        gaps.setdefault(r["phi_or_gamma"], {})[r["level_index"]] = r["eigenvalue"]
    g1 = gaps[0.9][1] - gaps[0.9][0]
    g2 = gaps[0.99][1] - gaps[0.99][0]
    assert g1 > g2 > 1e-8


def test_sector_scan_workers_match_serial():
    n = 6
    sectors = [TauSector.uniform_up(n), TauSector.single_up(n)]
    serial = sector_spectra_scan("two-flip", n, sectors, [0.1, 0.4], k=2, workers=1)
    threaded = sector_spectra_scan("two-flip", n, sectors, [0.1, 0.4], k=2, workers=2)
    assert serial == threaded


@pytest.mark.slow
def test_two_flip_uniform_first_excited_merges_at_zero_temperature():
    n = 14
    from entlab.linalg import lanczos_lowest

    tau = TauSector.uniform_up(n)
    spectra = {}
    for phi in (0.55, math.pi / 4):
        ham = build_h_tau_two_flip(tau, phi, n)
        spectra[phi] = lanczos_lowest(ham.sparse(), k=3, seed=1)
    w_mid = spectra[0.55]
    assert w_mid[1] - w_mid[0] <= 1e-8  # doubly degenerate ground pair
    assert w_mid[2] - w_mid[0] > 1e-3   # first excited level separated
    w_cold = spectra[math.pi / 4]
    assert w_cold[2] - w_cold[0] <= 1e-3  # merges with the ground level


# -- per-call evolution, each call building its own operands, kept as the
# bitwise reference for the shared-operand path --

def reference_sector_split_evolve(rho0, model, t):
    n = model.nsites
    dim = 2 ** n
    energies = ising_energies(n, model.coupling)
    scaling = np.exp(0.25 * model.beta * (energies - energies.mean()))
    psi = (scaling[:, None] * rho0.matrix * scaling[None, :]).astype(complex)
    out = np.empty_like(psi)
    codes = np.arange(dim)
    cache = {}
    for mu_code in range(dim):
        tilde = codes ^ mu_code
        bits = (mu_code >> (n - 1 - np.arange(n))) & 1
        tau_spins = np.where(bits == np.roll(bits, -1), 1, -1)
        key = tuple(tau_spins)
        if key not in cache:
            ham = build_h_tau_two_flip(TauSector.from_spins(tau_spins), model.phi,
                                       n, model.rate_scale)
            cache[key] = np.linalg.eigh(ham.dense())
        w, v = cache[key]
        out[codes, tilde] = v @ (np.exp(-w * t) * (v.conj().T @ psi[codes, tilde]))
    rho_t = out / scaling[:, None] / scaling[None, :]
    return DensityMatrix((2,) * n, rho_t, tol=1e-8)


def reference_direct_evolve(rho0, model, t):
    n = model.nsites
    out = expm_multiply(vectorized_generator(model) * t, rho0.matrix.reshape(-1))
    return DensityMatrix((2,) * n, out.reshape(2 ** n, 2 ** n), tol=1e-8)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_shared_operand_evolution_matches_per_call_reference(n):
    model = KineticModel.two_flip(n, beta=0.4)
    rng = np.random.default_rng(n)
    eigensystems = sector_eigensystems(model)
    generator = vectorized_generator(model)
    assert len(eigensystems) == 2 ** n
    for rho0 in [random_density((2,) * n, rng) for _ in range(3)]:
        for t in (0.0, 0.1, 1.0):
            ref = reference_sector_split_evolve(rho0, model, t)
            assert np.array_equal(sector_split_evolve(rho0, model, t, eigensystems).matrix,
                                  ref.matrix)
            assert np.array_equal(sector_split_evolve(rho0, model, t).matrix, ref.matrix)
            ref = reference_direct_evolve(rho0, model, t)
            assert np.array_equal(direct_evolve(rho0, model, t, generator).matrix, ref.matrix)
            assert np.array_equal(direct_evolve(rho0, model, t).matrix, ref.matrix)


def test_sector_evolution_builds_model_operands_once_per_call(monkeypatch):
    calls = {"build_h_tau_two_flip": 0, "vectorized_generator": 0}
    for name in calls:
        original = getattr(kinetic, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(kinetic, name, counted)
    first = selftest.sector_evolution(6, 0.4, (0.1, 1.0), 5, seed=24)
    assert calls == {"build_h_tau_two_flip": 32, "vectorized_generator": 1}
    # nothing is kept between calls: a second call builds everything again
    assert selftest.sector_evolution(6, 0.4, (0.1, 1.0), 5, seed=24) == first
    assert calls == {"build_h_tau_two_flip": 64, "vectorized_generator": 2}


def test_symmetrize_builds_the_generator_once(monkeypatch):
    built = []
    original = kinetic.build_generator
    monkeypatch.setattr(kinetic, "build_generator", lambda m: built.append(m) or original(m))
    model = KineticModel.single_flip(6, beta=0.4)
    symmetrize(model)
    assert built == [model]


def test_classical_superposition_diagonalizes_the_generator_once(monkeypatch):
    # the PSD check reads the spectrum of the eigh the experiment uses
    solves = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *args, _f=original, _n=name, **kw:
                            solves.append((_n, np.shape(a)[0])) or _f(a, *args, **kw))
    outcome = selftest.classical_superposition(8, 0.6, 1.0)
    assert [s for s in solves if s[1] == 256] == [("eigh", 256)]
    assert outcome.failed == []
