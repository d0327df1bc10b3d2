import math

import numpy as np
import pytest
import scipy.sparse
from scipy.sparse.linalg import expm_multiply

from entlab import kinetic, selftest
from entlab.chains import lowest_levels
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
    detailed_balance_violation,
    direct_evolve,
    glauber_rate,
    ising_energies,
    mixed_block_min_eigenvalue,
    sector_generator,
    sector_spectra_scan,
    sector_split_evolve,
    single_flip_coefficients,
    symmetrize,
    two_flip_rate,
    vectorized_generator,
)
from entlab.linalg import PAULI_X, kron, trace_norm
from entlab.states import DensityMatrix, random_density

from peakmem import BOOKKEEPING, traced_peak


def trace_distance(a, b):
    return 0.5 * trace_norm(a - b)


def test_model_validation():
    with pytest.raises(ValueError):
        KineticModel("single-flip", 4, 1.5)
    with pytest.raises(ValueError, match="flip must be one of single-flip, two-flip"):
        KineticModel("pair", 4, 0.5)
    assert kinetic.FAMILIES == ("single-flip", "two-flip")
    m1 = KineticModel.thermal("single-flip", 6, 0.3, 0.2, coupling=0.7)
    assert (m1.gamma, m1.delta, m1.coupling) == (math.tanh(2.0 * 0.3 * 0.7), 0.2, 0.7)
    m2 = KineticModel.thermal("two-flip", 6, 0.3)
    assert m2.gamma == math.tanh(2.0 * 0.3)
    assert m2.phi == pytest.approx(math.atan(math.tanh(0.3)))
    assert math.sin(2 * m2.phi) == pytest.approx(m2.gamma)
    for beta in (-0.3, math.nan):
        with pytest.raises(ValueError, match="^beta must be non-negative"):
            KineticModel.thermal("single-flip", 6, beta)


def test_model_rejects_pair_with_delta():
    # the family rule comes before the range checks, with the message the CLI prints
    for gamma, delta in ((0.4, 0.2), (1.5, 0.5), (0.4, 1.5)):
        with pytest.raises(ValueError,
                           match=f"^the two-flip model has no delta parameter, got {delta}$"):
            KineticModel("two-flip", 6, gamma, delta)


def test_tau_sector_code_range():
    with pytest.raises(ValueError):
        TauSector(1 << 6, 6)
    with pytest.raises(ValueError):
        TauSector(-1, 6)


def test_tau_sector_codes():
    n = 16
    assert sorted(kinetic.TAU_PATTERNS) == ["half-up", "pair-up", "single-up", "uniform-down",
                                            "uniform-up"]
    assert TauSector.named("uniform-up", n).code == 2 ** n - 1
    assert TauSector.named("uniform-down", n).code == 0
    assert TauSector.named("single-up", n).code == 2 ** 8
    assert TauSector.named("pair-up", n).code == 2 ** 8 + 2 ** 9
    assert TauSector.named("half-up", n).code == 2 ** 8 - 1
    t = TauSector.named("half-up", n)
    assert t.spins[:8].tolist() == [1] * 8
    assert t.spins[8:].tolist() == [-1] * 8
    assert TauSector.from_spins(t.spins).code == t.code
    for n in (64, 1000):  # codes past int64
        for name in kinetic.TAU_PATTERNS:
            t = TauSector.named(name, n)
            assert TauSector.from_spins(t.spins) == t
            assert t.spins.tolist() == [1 if c == "+" else -1 for c in t.pattern]
        assert TauSector.named("pair-up", n).pattern.count("+") == 2


def test_glauber_rate_values():
    n = 8
    flat = KineticModel("single-flip", n, 0.0, 0.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = rng.choice([-1, 1], size=n)
        assert glauber_rate(s, int(rng.integers(n)), flat) == pytest.approx(1.0)

    model = KineticModel("single-flip", n, 0.6, 0.25)
    up = np.ones(n)
    assert glauber_rate(up, 3, model) == pytest.approx((1 + 0.25) * (1 - 0.6))
    wall = np.array([1, 1, 1, 1, -1, -1, -1, -1])
    # flipping at the wall: neighbors cancel, only the delta factor remains
    assert glauber_rate(wall, 4, model) == pytest.approx(1 + 0.25 * wall[3] * wall[5])


def test_two_flip_rate_values():
    n = 8
    hot = KineticModel.thermal("two-flip", n, 0.0)
    rng = np.random.default_rng(1)
    for _ in range(20):
        s = rng.choice([-1, 1], size=n)
        assert two_flip_rate(s, int(rng.integers(n)), hot) == pytest.approx(1.0)
    model = KineticModel.thermal("two-flip", n, 0.4)
    gamma = model.gamma
    assert two_flip_rate(np.ones(n), 2, model) == pytest.approx(1 - gamma)
    s = np.array([1, 1, 1, -1, 1, 1, 1, 1])  # bond pairs cancel around i=4
    assert s[3] * s[4] == -s[5] * s[6]
    assert two_flip_rate(s, 4, model) == pytest.approx(1.0)


def test_generator_columns_and_uniform_gap():
    model = KineticModel("single-flip", 3, 0.0, 0.0)
    gen = build_generator(model)
    assert np.abs(np.asarray(gen.sum(axis=0))).max() <= 1e-12
    w = np.linalg.eigvalsh(gen.toarray())
    assert w[-1] == pytest.approx(0.0, abs=1e-12)
    assert w[-2] == pytest.approx(-2.0, abs=1e-10)


def test_generator_stationary_gibbs():
    for model in (
        KineticModel.thermal("single-flip", 8, 0.45, 0.3),
        KineticModel.thermal("two-flip", 8, 0.45),
    ):
        gen = build_generator(model)
        energies = ising_energies(8, model.coupling)
        p = np.exp(-model.beta * (energies - energies.min()))
        p /= p.sum()
        assert np.abs(gen @ p).max() <= 1e-12


def test_detailed_balance():
    for model in (
        KineticModel("single-flip", 8, 0.7, 0.4),
        KineticModel.thermal("two-flip", 8, 0.35),
    ):
        ok, worst = check_detailed_balance(model)
        assert ok
        assert worst <= 1e-10


def test_detailed_balance_negative_control():
    model = KineticModel("single-flip", 5, 0.5, 0.0)
    gen = build_generator(model).tolil()
    gen[1, 0] *= 1.01  # corrupt one rate
    worst = detailed_balance_violation(gen.tocsr(), ising_energies(5), model.beta)
    assert worst > 1e-3


def detailed_balance_reference(gen, energies, beta):
    """Entry-by-entry form of detailed_balance_violation, over a dict of rates."""
    coo = gen.tocoo()
    boltz = np.exp(-beta * (energies - energies.min()))
    worst = 0.0
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
        worst = max(worst, float(rel))
    return worst


def test_detailed_balance_matches_the_entrywise_reference():
    cases = []
    for n in (5, 8, 12):
        for model in (KineticModel.thermal("single-flip", n, 0.4, 0.3),
                      KineticModel.thermal("two-flip", n, 0.4)):
            cases.append((build_generator(model), ising_energies(n), model.beta))
    model = KineticModel("single-flip", 5, 0.5)
    corrupted = build_generator(model).tolil()
    corrupted[1, 0] *= 1.01
    cases.append((corrupted.tocsr(), ising_energies(5), model.beta))
    # rates of the wrong temperature violate every reversible pair
    cases.append((build_generator(model), ising_energies(5), 0.7 * model.beta))
    for gen, energies, beta in cases:
        worst = detailed_balance_violation(gen, energies, beta)
        want = detailed_balance_reference(gen, energies, beta)
        assert type(worst) is float and repr(worst) == repr(want)
    assert detailed_balance_violation(*cases[-2]) > 1e-3


def test_symmetrize_structure():
    for delta in (0.0, 0.2):
        model = KineticModel("single-flip", 6, 0.6, delta)
        h = symmetrize(model)
        w = np.linalg.eigvalsh(h)
        assert abs(w[0]) <= 1e-10
        kernel = np.exp(-0.5 * model.beta * ising_energies(6))  # sqrt of the Gibbs weights
        kernel /= np.linalg.norm(kernel)
        assert np.linalg.norm(h @ kernel) <= 1e-10
        assert w[1] > 1e-6  # gapped at finite temperature


def test_symmetrize_infinite_temperature():
    n = 5
    model = KineticModel("single-flip", n, 0.0, 0.0)
    h = symmetrize(model)
    target = np.zeros_like(h)
    for i in range(n):
        mats = [np.eye(2)] * n
        target += np.eye(2 ** n)
        mats[i] = PAULI_X.real
        op = mats[0]
        for m in mats[1:]:
            op = np.kron(op, m)
        target -= op
    assert np.abs(h - target).max() <= 1e-12


def test_h_beta_matches_symmetrize():
    for delta, gamma in ((0.0, 0.5), (0.5, 0.6), (-0.3, 0.8)):
        model = KineticModel("single-flip", 8, gamma, delta)
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
    # both uniform patterns give the generator symmetrized from the rates
    n = 8
    model = KineticModel("single-flip", n, 0.55, 0.35)
    reference = symmetrize(model)
    for tau in (TauSector.named("uniform-up", n), TauSector.named("uniform-down", n)):
        dense = build_h_tau_single_flip(tau, model).dense()
        assert np.abs(dense - reference).max() <= 1e-12


def test_h_tau_single_flip_mixed_branch():
    # a mixed neighborhood replaces (A, B) by (sqrt(1-d^2)(1-g^2)^(1/4), 0)
    n = 6
    gamma, delta = 0.6, 0.4
    model = KineticModel("single-flip", n, gamma, delta)
    tau = TauSector.named("single-up", n)  # tau up at site n // 2 = 3 only
    ham = build_h_tau_single_flip(tau, model)
    a_mix = math.sqrt(1 - delta ** 2) * (1 - gamma ** 2) ** 0.25
    x_coeffs = {}
    for coeff, factors in ham.terms:
        if len(factors) == 1 and np.allclose(factors[0][1], PAULI_X):
            x_coeffs[factors[0][0]] = -coeff.real
    # the neighbors i = 2, 4 of site 3 see tau_{i-1} != tau_{i+1}
    assert x_coeffs[2] == pytest.approx(a_mix)
    assert x_coeffs[4] == pytest.approx(a_mix)
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
    ham = build_h_tau_two_flip(TauSector.named("single-up", n), 0.0, n)
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
        for tau in (TauSector.named("single-up", n), TauSector.named("half-up", n)):
            w0 = np.linalg.eigvalsh(build_h_tau_two_flip(tau, phi, n).dense())[0]
            assert w0 > 1e-6


def test_h_tau_two_flip_uniform_zero_modes():
    # the all-up sector carries the stationary (Gibbs) zero mode, doubly
    # degenerate; the all-down sector is positive for phi > 0, so its
    # coherences decay
    n = 6
    for phi in (0.1, 0.5, math.pi / 4):
        w_up = np.linalg.eigvalsh(
            build_h_tau_two_flip(TauSector.named("uniform-up", n), phi, n).dense()
        )
        assert abs(w_up[0]) <= 1e-10 and abs(w_up[1]) <= 1e-10
        w_down = np.linalg.eigvalsh(
            build_h_tau_two_flip(TauSector.named("uniform-down", n), phi, n).dense()
        )
        assert w_down[0] > 1e-3


def test_uniform_down_two_flip_printed_form():
    # all tau spins down: f terms vanish, diagonal is the site count
    n = 6
    phi = 0.3
    ham = build_h_tau_two_flip(TauSector.named("uniform-down", n), phi, n)
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
    model = KineticModel.thermal("two-flip", 5, 0.4)
    gen = vectorized_generator(model)
    coo = gen.tocoo()
    s = config_spins(5)
    for i in range(5):
        zz = s[:, i] * s[:, (i + 1) % 5]
        diag = np.kron(zz, zz).astype(float)  # Z_i Z_{i+1} Ztilde_i Ztilde_{i+1}
        comm = np.abs(coo.data * (diag[coo.col] - diag[coo.row]))
        assert comm.max() <= 1e-10


def kron_vectorized_generator(model):
    """Reference: the vectorized generator summed site by site with scipy.sparse.kron."""
    dim = 2 ** model.nsites
    rates, masks = kinetic._rate_table(model)
    ident = scipy.sparse.identity(dim, format="csr")
    out = scipy.sparse.csr_matrix((dim * dim, dim * dim))
    codes = np.arange(dim)
    for rate, mask in zip(rates, masks):
        jump = scipy.sparse.coo_matrix((np.sqrt(rate), (codes ^ mask, codes)),
                                       shape=(dim, dim)).tocsr()
        wdiag = scipy.sparse.diags(rate).tocsr()
        out = out + scipy.sparse.kron(jump, jump, format="csr")
        out = out - 0.5 * (scipy.sparse.kron(wdiag, ident, format="csr")
                           + scipy.sparse.kron(ident, wdiag, format="csr"))
    return out.tocsr()


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_vectorized_generator_equals_the_kron_build(n):
    for model in (KineticModel("single-flip", n, 0.7, 0.3),
                  KineticModel.thermal("two-flip", n, 0.4)):
        got, want = vectorized_generator(model), kron_vectorized_generator(model)
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr)), (model.flip, attr)


def test_build_generator_matches_the_rates_entrywise():
    for model in (KineticModel("single-flip", 5, 0.7, 0.3),
                  KineticModel.thermal("two-flip", 5, 0.4)):
        n, gen = model.nsites, build_generator(model).toarray()
        spins = config_spins(n)
        want = np.zeros((2 ** n, 2 ** n))
        for code in range(2 ** n):
            for i in range(n):
                if model.flip == "single-flip":
                    rate, flipped = glauber_rate(spins[code], i, model), [i]
                else:
                    rate, flipped = two_flip_rate(spins[code], i, model), [i, (i + 1) % n]
                target = code ^ sum(1 << (n - 1 - j) for j in flipped)
                want[target, code] += rate
                want[code, code] -= rate
        assert np.abs(gen - want).max() <= 1e-14


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
    model = KineticModel("single-flip", n, 0.62, 0.37)
    worst = 0.0
    for mu_spins, block in _transformed_sector_blocks(model):
        ham = build_h_tau_single_flip(TauSector.from_spins(mu_spins), model)
        worst = max(worst, float(np.abs(block + ham.dense()).max()))
    assert worst <= 1e-12


def test_two_flip_sectors_match_master_equation():
    # pair model: tau labels are neighboring products of the conserved mu spins
    n = 5
    model = KineticModel.thermal("two-flip", n, 0.37)
    worst = 0.0
    for mu_spins, block in _transformed_sector_blocks(model):
        tau = mu_spins * np.roll(mu_spins, -1)
        ham = build_h_tau_two_flip(TauSector.from_spins(tau), model.phi, n)
        worst = max(worst, float(np.abs(block + ham.dense()).max()))
    assert worst <= 1e-12


def test_sector_evolution_t0_identity():
    model = KineticModel.thermal("two-flip", 4, 0.3)
    rho0 = random_density((2,) * 4, np.random.default_rng(3))
    out = sector_split_evolve(rho0, model, 0.0)
    assert trace_distance(out.matrix, rho0.matrix) <= 1e-10


def test_sector_evolution_diagonal_is_classical():
    n = 6
    model = KineticModel.thermal("two-flip", n, 0.4)
    rng = np.random.default_rng(4)
    p0 = rng.dirichlet(np.ones(2 ** n))
    rho0 = DensityMatrix((2,) * n, np.diag(p0))
    for t in (0.2, 1.0):
        rho_t = sector_split_evolve(rho0, model, t)
        p_t = classical_evolve(p0, model, t)
        assert np.abs(np.diag(rho_t.matrix).real - p_t).max() <= 1e-8
        off = rho_t.matrix - np.diag(np.diag(rho_t.matrix))
        assert np.abs(off).max() <= 1e-10


# beta 6 and 8: the sector generator is written in the original frame, so no
# exp(+-beta E / 4) round trip amplifies roundoff at low temperature
@pytest.mark.parametrize("n,beta", [(5, 0.4), (4, 6.0), (6, 6.0), (7, 6.0),
                                    (4, 8.0), (6, 8.0), (7, 8.0)])
def test_sector_evolution_matches_direct_integration(n, beta):
    model = KineticModel.thermal("two-flip", n, beta)
    sectors, generator = sector_generator(model), vectorized_generator(model)
    rng = np.random.default_rng(5)
    for _ in range(3):
        rho0 = random_density((2,) * n, rng)
        assert np.array_equal(sector_split_evolve(rho0, model, 0.0, sectors).matrix, rho0.matrix)
        for t in (0.1, 1.0, 3.0):
            a = sector_split_evolve(rho0, model, t, sectors)
            b = direct_evolve(rho0, model, t, generator)
            assert trace_distance(a.matrix, b.matrix) <= \
                selftest.TOLERANCES["evolution_trace_distance"]


def test_sector_generator_equals_the_vectorized_generator():
    # two routes to one matrix: the H_tau formula and the rate table
    model = KineticModel.thermal("two-flip", 5, 0.37)
    got, want = sector_generator(model).toarray(), vectorized_generator(model).toarray()
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_late_time_diagonal_is_parity_resolved_gibbs():
    # pair flips conserve total spin parity, so the chain is ergodic within
    # each parity sector and the diagonal relaxes to the sector-wise Gibbs
    # mixture weighted by the initial parity populations
    n = 4
    model = KineticModel.thermal("two-flip", n, 0.5)
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
    levels = sector_spectra_scan(
        "two-flip", n,
        [TauSector.named("pair-up", n), TauSector.named("single-up", n)],
        [0.2, math.pi / 4], k=2,
    )
    assert levels.shape == (2, 2, 2)
    pair, single = levels
    assert np.abs(pair[:, 1] - pair[:, 0]).max() <= 1e-8
    assert single[1, 1] - single[1, 0] > 1e-4


def test_sector_spectra_scan_single_flip_gap_closes():
    n = 8
    tau = TauSector.named("half-up", n)
    levels = sector_spectra_scan("single-flip", n, [tau], [0.9, 0.99], k=2)
    g1, g2 = levels[0, :, 1] - levels[0, :, 0]
    assert g1 > g2 > 1e-8


def test_two_flip_delta_is_rejected():
    n = 6
    with pytest.raises(ValueError, match="delta"):
        sector_spectra_scan("two-flip", n, [TauSector.named("half-up", n)], [0.3], k=2,
                            delta=0.5)
    with pytest.raises(ValueError, match="delta"):
        selftest.detailed_balance("two-flip", n, 0.4, delta=0.5)


@pytest.mark.parametrize("kind,minimum", [("two-flip", 4), ("single-flip", 3)])
def test_sector_scan_rejects_rings_too_short_for_the_terms(kind, minimum):
    n = minimum - 1
    value = 0.3 if kind == "two-flip" else 0.9
    with pytest.raises(ValueError, match=f"at least {minimum} sites"):
        sector_spectra_scan(kind, n, [TauSector.named("half-up", n)], [value], k=1)
    sector_spectra_scan(kind, minimum, [TauSector.named("half-up", minimum)], [value], k=1)


@pytest.mark.parametrize("length", [10, 6])
def test_a_tau_pattern_of_another_length_is_rejected(length):
    # single-flip used to build from the first 8 spins of a 10-site pattern and
    # raise IndexError on a 6-site one; two-flip always raised this
    tau, mismatch = TauSector(5, length), "tau pattern length does not match the chain"
    with pytest.raises(ValueError, match=mismatch):
        build_h_tau_single_flip(tau, KineticModel("single-flip", 8, 0.9))
    with pytest.raises(ValueError, match=mismatch):
        sector_spectra_scan("single-flip", 8, [tau], [0.9], k=1)
    with pytest.raises(ValueError, match=mismatch):
        build_h_tau_two_flip(tau, 0.3, 8)


def test_sector_evolution_rejects_a_three_site_ring():
    with pytest.raises(ValueError, match="at least 4 sites"):
        sector_generator(KineticModel.thermal("two-flip", 3, 0.4))


@pytest.mark.parametrize("kind", ["two-flip", "single-flip"])
def test_sector_scan_levels_equal_per_task_solves(kind):
    n = 6
    sectors = [TauSector.named(p, n) for p in ("half-up", "uniform-down", "pair-up")]
    values, delta = ([0.3, 0.1], 0.0) if kind == "two-flip" else ([0.99, 0.5], 0.2)
    levels = sector_spectra_scan(kind, n, sectors, values, k=3, delta=delta, seed=2)
    assert levels.shape == (3, 2, 3)
    for s, tau in enumerate(sectors):
        for v, value in enumerate(values):
            if kind == "two-flip":
                ham = build_h_tau_two_flip(tau, value, n)
            else:
                model = KineticModel("single-flip", n, value, delta)
                ham = build_h_tau_single_flip(tau, model)
            assert np.array_equal(levels[s, v], lowest_levels(ham.operator(), k=3, seed=2))


def test_repeated_pair_up_pattern_reports_the_single_pattern_split():
    # N = 10: the pair-up ground pair splits, so a split read across repeats shows 0
    def split(patterns):
        return selftest.kinetic_spectra("two-flip", 10, patterns, phi_grid=3,
                                        levels=2).values["pair_up_max_ground_split"]

    once = split(["pair-up"])
    assert once > 1e-2
    assert split(["pair-up", "pair-up"]) == once
    assert split(["single-up", "pair-up"]) == once


@pytest.mark.slow
def test_two_flip_uniform_first_excited_merges_at_zero_temperature():
    n = 14
    from entlab.linalg import lanczos_lowest

    tau = TauSector.named("uniform-up", n)
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

def reference_direct_evolve(rho0, model, t):
    n = model.nsites
    out = expm_multiply(vectorized_generator(model) * t, rho0.matrix.reshape(-1))
    return DensityMatrix((2,) * n, out.reshape(2 ** n, 2 ** n), tol=1e-8)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_shared_operand_evolution_matches_per_call_reference(n):
    model = KineticModel.thermal("two-flip", n, 0.4)
    rng = np.random.default_rng(n)
    sectors = sector_generator(model)
    generator = vectorized_generator(model)
    assert sectors.shape == (4 ** n, 4 ** n)
    for rho0 in [random_density((2,) * n, rng) for _ in range(3)]:
        for t in (0.0, 0.1, 1.0):
            assert np.array_equal(sector_split_evolve(rho0, model, t, sectors).matrix,
                                  sector_split_evolve(rho0, model, t).matrix)
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


def test_symmetrize_scales_the_generator_in_place():
    # the dense generator and check_hermitian's output, with no full |A| or |A - A^T|
    full = 2 ** 22 * 8
    peak = traced_peak(symmetrize, KineticModel.thermal("single-flip", 11, 0.4))
    assert peak <= 2 * full + BOOKKEEPING


def test_symmetrize_builds_the_generator_once(monkeypatch):
    built = []
    original = kinetic.build_generator
    monkeypatch.setattr(kinetic, "build_generator", lambda m: built.append(m) or original(m))
    model = KineticModel.thermal("single-flip", 6, 0.4)
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
