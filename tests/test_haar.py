import math

import numpy as np
import pytest
from scipy.integrate import quad

from entlab.haar import (
    MC_BLOCK,
    _entropies,
    _reduced_spectrum,
    haar_pure,
    mean_entropy_approx,
    mean_entropy_exact,
    mean_entropy_mc,
    mean_purity_exact,
    mean_purity_mc,
    nats_to_bits,
    sample_moments,
    spectral_density,
)
from entlab.states import partial_trace_pure, von_neumann_entropy


def test_haar_pure_deterministic_and_normalized():
    a = haar_pure(3, 5, 42)
    b = haar_pure(3, 5, 42)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert np.linalg.norm(a.amplitudes) == pytest.approx(1.0)


def test_haar_pure_equals_the_matrix_draw():
    # reference: one (m, n) real and one (m, n) imaginary draw, normalized in place
    for m, n in ((1, 1), (2, 2), (2, 3), (3, 5), (4, 4)):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            g = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            g /= np.linalg.norm(g)
            assert np.array_equal(haar_pure(m, n, seed).amplitudes, g.ravel())
    rng, ref = np.random.default_rng(7), np.random.default_rng(7)
    g = ref.standard_normal((2, 3)) + 1j * ref.standard_normal((2, 3))
    assert np.array_equal(haar_pure(2, 3, rng).amplitudes, (g / np.linalg.norm(g)).ravel())
    assert rng.standard_normal() == ref.standard_normal()


def test_single_dim_state_has_zero_entropy():
    psi = haar_pure(1, 1, 0)
    assert abs(psi.amplitudes[0]) == pytest.approx(1.0)
    assert mean_entropy_exact(1, 7) == 0.0
    assert mean_purity_exact(1, 7) == pytest.approx(1.0)


def test_mean_purity_exact_values():
    assert mean_purity_exact(2, 2) == pytest.approx(4 / 5)
    assert mean_purity_exact(4, 4) == pytest.approx(8 / 17)


def test_mean_entropy_exact_values():
    # harmonic-sum evaluation: (2,2) gives exactly 1/3 nats
    assert mean_entropy_exact(2, 2) == pytest.approx(1 / 3, abs=1e-15)
    expected_28 = sum(1 / k for k in range(9, 17)) - 1 / 16
    assert mean_entropy_exact(2, 8) == pytest.approx(expected_28, abs=1e-15)
    with pytest.raises(ValueError):
        mean_entropy_exact(4, 2)


def test_mean_entropy_matches_digamma():
    from scipy.special import digamma

    for m, n in ((2, 2), (3, 7), (8, 512)):
        ref = digamma(m * n + 1) - digamma(n + 1) - (m - 1) / (2 * n)
        assert mean_entropy_exact(m, n) == pytest.approx(float(ref), rel=1e-12)


def test_approximation_accuracy_at_large_n():
    m, n = 8, 512
    exact = mean_entropy_exact(m, n)
    approx = mean_entropy_approx(m, n)
    assert abs(exact - approx) / math.log(m) <= 0.02


def test_trace_of_reduction_is_one():
    rng = np.random.default_rng(1)
    for _ in range(100):
        psi = haar_pure(2, 3, rng)
        ra = partial_trace_pure(psi, 1)
        assert np.trace(ra.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_gaussian_relaxation_mean_trace():
    # dropping the normalization constraint: mn independent complex Gaussians
    # with variance 1/(mn) give <tr rho_A> = 1 on average
    m, n, draws = 2, 4, 10_000
    rng = np.random.default_rng(2)
    traces = np.empty(draws)
    for i in range(draws):
        g = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / math.sqrt(2 * m * n)
        traces[i] = np.trace(g @ g.conj().T).real
    err = traces.std(ddof=1) / math.sqrt(draws)
    assert abs(traces.mean() - 1.0) <= 3 * err


def test_mc_purity_matches_lubkin():
    mean, err = mean_purity_mc(2, 2, 10_000, seed=7)
    assert abs(mean - mean_purity_exact(2, 2)) <= 3 * err


def test_mc_entropy_matches_exact():
    for m, n in ((2, 2), (2, 8), (4, 4)):
        mean, err = mean_entropy_mc(m, n, 4000, seed=11)
        assert abs(mean - mean_entropy_exact(m, n)) <= 3 * err


def test_mc_estimate_independent_of_worker_count():
    purity, entropy = zip(*(sample_moments(2, 2, 500, 3, workers) for workers in (1, 2, 4)))
    assert purity[0] == purity[1] == purity[2]
    assert entropy[0] == entropy[1] == entropy[2]
    assert mean_entropy_mc(2, 2, 500, seed=3, workers=4) == entropy[0]
    with pytest.raises(ValueError):
        mean_entropy_mc(2, 2, 50)


def test_page_estimate_keeps_its_recorded_value():
    # the README page example: one substream per block, population-variance error
    assert mean_entropy_mc(2, 2, 10_000, seed=7) == (0.3320473219660983, 0.0017890384413026114)


def test_entropy_deficiency_shrinks_with_n():
    m = 2
    prev = math.inf
    for n in (2, 4, 8, 16):
        mean, err = mean_entropy_mc(m, n, 3000, seed=5)
        assert 0.0 <= mean <= math.log(m) + 3 * err
        deficiency = math.log(m) - mean
        assert deficiency < prev + 3 * err
        prev = deficiency
    # strict monotonicity of the exact deficiency
    exact = [math.log(m) - mean_entropy_exact(m, n) for n in (2, 4, 8, 16)]
    assert all(a > b for a, b in zip(exact, exact[1:]))
    assert all(mean_entropy_exact(m, n) < math.log(m) for n in (2, 4, 8))


def test_unitary_invariance_ks():
    # distribution of S(rho_A) is unchanged under a fixed global unitary
    m, n = 2, 4
    rng = np.random.default_rng(17)
    g = rng.standard_normal((m * n, m * n)) + 1j * rng.standard_normal((m * n, m * n))
    u, _ = np.linalg.qr(g)
    nsamp = 10_000
    s_plain = np.empty(nsamp)
    s_rot = np.empty(nsamp)
    for i in range(nsamp):
        psi = haar_pure(m, n, rng)
        s_plain[i] = von_neumann_entropy(partial_trace_pure(psi, 1))
        rot = u @ haar_pure(m, n, rng).amplitudes
        from entlab.states import PureState

        s_rot[i] = von_neumann_entropy(
            partial_trace_pure(PureState((m, n), rot), 1)
        )
    allv = np.sort(np.concatenate([s_plain, s_rot]))
    f1 = np.searchsorted(np.sort(s_plain), allv, side="right") / nsamp
    f2 = np.searchsorted(np.sort(s_rot), allv, side="right") / nsamp
    ks = np.abs(f1 - f2).max()
    critical = 1.628 * math.sqrt(2 / nsamp)  # 1% level
    assert ks < critical


def test_spectral_density_zero_on_coincident():
    assert spectral_density(2, 2, [0.5, 0.5]) == 0.0
    assert spectral_density(3, 3, [0.4, 0.4, 0.2]) == 0.0


def test_spectral_density_normalization_2x2():
    val, err = quad(lambda x: spectral_density(2, 2, [x, 1 - x]), 0, 1)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_spectral_density_reproduces_purity_2x2():
    val, _ = quad(
        lambda x: (x * x + (1 - x) ** 2) * spectral_density(2, 2, [x, 1 - x]), 0, 1
    )
    assert val == pytest.approx(mean_purity_exact(2, 2), abs=1e-6)


def test_spectral_density_large_mn_no_overflow():
    # Gamma(mn) alone would overflow; the log-space route must not
    v = spectral_density(8, 64, np.linspace(0.05, 0.2, 8) / sum(np.linspace(0.05, 0.2, 8)))
    assert np.isfinite(v) and v >= 0


def test_nats_bits_roundtrip():
    assert nats_to_bits(math.log(2)) == pytest.approx(1.0)
    assert nats_to_bits(mean_entropy_exact(2, 2)) == pytest.approx(1 / (3 * math.log(2)))


# -- per-sample loops the block sampler replaces, kept as bitwise references --

def reference_reduced_spectrum(m, n, rng):
    g = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    s = np.linalg.svd(g, compute_uv=False)
    p = s * s
    return p / p.sum()


def reference_entropy(p):
    q = p[p > 0]
    return float(-(q * np.log(q)).sum())


def reference_sample_moments(m, n, samples, seed):
    """((purity mean, stderr), (entropy mean, stderr)), one draw at a time, block b
    from substream b, with scalar running sums and the population variance."""
    partials = []
    for b, stream in enumerate(np.random.SeedSequence(seed).spawn(-(-samples // MC_BLOCK))):
        rng = np.random.default_rng(stream)
        sums = [[0.0, 0.0], [0.0, 0.0]]
        for _ in range(min(MC_BLOCK, samples - b * MC_BLOCK)):
            p = reference_reduced_spectrum(m, n, rng)
            for acc, x in zip(sums, (float((p * p).sum()), reference_entropy(p))):
                acc[0] += x
                acc[1] += x * x
        partials.append(sums)
    out = []
    for i in range(2):
        mean = sum(p[i][0] for p in partials) / samples
        var = max(sum(p[i][1] for p in partials) / samples - mean * mean, 0.0)
        out.append((mean, math.sqrt(var / samples)))
    return tuple(out)


@pytest.mark.parametrize("m, n", [(2, 2), (2, 8), (4, 4), (3, 5), (5, 3), (9, 12)])
@pytest.mark.parametrize("count", [1, 7, MC_BLOCK])
def test_reduced_spectrum_block_matches_per_draw_loop(m, n, count):
    rng, ref_rng = np.random.default_rng(m * 100 + n), np.random.default_rng(m * 100 + n)
    block = _reduced_spectrum(m, n, rng, count)
    ref = np.array([reference_reduced_spectrum(m, n, ref_rng) for _ in range(count)])
    assert block.shape == (count, min(m, n))
    assert np.array_equal(block, ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("samples", [100, 257, 1000])
@pytest.mark.parametrize("m, n", [(2, 2), (2, 8), (4, 4)])
def test_mc_estimates_match_per_sample_loops(m, n, samples):
    purity, entropy = reference_sample_moments(m, n, samples, seed=samples)
    assert sample_moments(m, n, samples, samples) == (purity, entropy)
    assert mean_purity_mc(m, n, samples, seed=samples) == purity
    assert mean_entropy_mc(m, n, samples, seed=samples) == entropy


def test_entropy_counts_zero_eigenvalues_as_zero():
    p = np.array([[1.0, 0.0], [0.6, 0.4], [0.5, 0.5]])
    assert np.array_equal(_entropies(p), [reference_entropy(row) for row in p])


def test_mc_estimates_need_minimum_samples():
    for samples in (99, 1, 0):
        with pytest.raises(ValueError):
            mean_purity_mc(2, 2, samples)
        with pytest.raises(ValueError):
            mean_entropy_mc(2, 2, samples)
