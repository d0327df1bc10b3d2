import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from entlab.linalg import (
    NotHermitianError,
    PAULI_X,
    PAULI_Z,
    check_hermitian,
    hermitian_eig,
    kron,
    lanczos_lowest,
    matrix_function,
    matrix_sqrt_psd,
    svd,
    trace_norm,
)


def test_kron_identities():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))
    assert np.allclose(kron(PAULI_Z, PAULI_Z), np.diag([1, -1, -1, 1]))


def test_kron_bit_flip():
    psi00 = np.array([1, 0, 0, 0], dtype=complex)
    psi11 = np.array([0, 0, 0, 1], dtype=complex)
    assert np.allclose(kron(PAULI_X, PAULI_X) @ psi00, psi11)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(0, 10_000))
def test_kron_associativity(da, db, dc, seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
               for d in (da, db, dc))
    assert np.allclose(kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-12)


def test_svd_trivial():
    _, s, _ = svd(np.eye(3))
    assert np.allclose(s, [1, 1, 1])
    _, s, _ = svd(np.diag([3.0, 0.0]))
    assert np.allclose(s, [3, 0])


def test_svd_bell_amplitudes():
    # (|00> + |11>)/sqrt2 has all Schmidt coefficients equal
    amp = np.diag([1.0, 1.0]) / np.sqrt(2)
    _, s, _ = svd(amp)
    assert np.allclose(s, [1 / np.sqrt(2)] * 2, atol=1e-14)


def test_svd_reconstruction_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m, n = rng.integers(1, 65, size=2)
        a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        u, s, vh = svd(a)
        err = np.linalg.norm(a - (u * s) @ vh) / np.linalg.norm(a)
        assert err <= 1e-10
        assert np.all(np.diff(s) <= 1e-12)


def test_hermitian_eig_paulis():
    w, _ = hermitian_eig(PAULI_Z)
    assert np.allclose(w, [-1, 1])
    w, _ = hermitian_eig(PAULI_X)
    assert np.allclose(w, [-1, 1])


def test_hermitian_eig_trace_and_gram():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = rng.integers(2, 40)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = a + a.conj().T
        w, v = hermitian_eig(a)
        assert abs(w.sum() - np.trace(a).real) <= 1e-10 * max(1, abs(np.trace(a)))
        assert np.abs(v.conj().T @ v - np.eye(n)).max() <= 1e-10
        assert np.abs(a @ v - v * w).max() <= 1e-9 * max(1.0, np.abs(w).max())


def test_hermitian_eig_rejects_asymmetric():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitianError) as exc:
        hermitian_eig(a)
    assert exc.value.asymmetry == pytest.approx(1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_hermitian_rejects_non_finite(bad):
    for a in (np.array([[bad, 0.0], [0.0, 1.0]]),
              np.array([[1.0, bad], [bad, 1.0]]),
              np.array([[0.5, complex(0.0, bad)], [complex(0.0, -bad), 0.5]])):
        with pytest.raises(NotHermitianError):
            check_hermitian(a)


def test_check_hermitian_symmetrizes_bitwise_as_definition():
    rng = np.random.default_rng(11)
    for n in (1, 7, 64):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = g + g.conj().T + 1e-13 * rng.standard_normal((n, n))
        assert np.array_equal(check_hermitian(a), (a + a.conj().T) / 2)
        real = a.real
        assert np.array_equal(check_hermitian(real), (real + real.conj().T) / 2)


def test_hermitian_eig_bell_partial_transpose():
    # partial transpose of the 2x2 maximally entangled projector is SWAP/2
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
    w, _ = hermitian_eig(swap / 2)
    assert np.allclose(np.sort(w), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_trace_norm():
    assert trace_norm(PAULI_Z) == pytest.approx(2.0)
    rng = np.random.default_rng(11)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    assert trace_norm(rho) == pytest.approx(1.0, abs=1e-12)
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
    assert trace_norm(swap / 2) == pytest.approx(2.0, abs=1e-12)


def test_matrix_function():
    assert np.allclose(matrix_function(np.zeros((3, 3)), np.exp), np.eye(3))
    assert np.allclose(matrix_function(PAULI_Z, lambda x: x ** 2), np.eye(2))
    gibbs = matrix_function(-PAULI_Z.real, lambda x: np.exp(-x))
    gibbs = gibbs / np.trace(gibbs)
    z = np.exp(1) + np.exp(-1)
    assert np.allclose(gibbs, np.diag([np.exp(1) / z, np.exp(-1) / z]))


def test_matrix_sqrt_psd():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    p = a @ a.conj().T
    r = matrix_sqrt_psd(p)
    assert np.abs(r @ r - p).max() <= 1e-9 * np.abs(p).max()


def test_lanczos_diag():
    h = scipy.sparse.diags(np.arange(8.0)).tocsr()
    w = lanczos_lowest(h, k=2, seed=1)
    assert np.allclose(w, [0.0, 1.0], atol=1e-10)


def test_lanczos_matches_dense_random():
    rng = np.random.default_rng(19)
    for dim in (64, 256):
        a = rng.standard_normal((dim, dim))
        a = (a + a.T) / 2
        exact = np.linalg.eigvalsh(a)
        w = lanczos_lowest(scipy.sparse.csr_matrix(a), k=4, seed=2)
        assert np.abs(w - exact[:4]).max() <= 1e-10 * max(1, np.abs(exact).max())


def test_lanczos_complex_hermitian():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
    a = (a + a.conj().T) / 2
    exact = np.linalg.eigvalsh(a)
    w, v = lanczos_lowest(a, k=3, seed=0, return_vectors=True)
    assert np.abs(w - exact[:3]).max() <= 1e-9
    res = np.abs(a @ v - v * w).max()
    assert res <= 1e-8 * np.abs(exact).max()


def test_lanczos_reports_nonconvergence():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((300, 300))
    a = (a + a.T) / 2
    with pytest.raises(RuntimeError, match="did not converge"):
        lanczos_lowest(a, k=1, seed=0, maxiter=3)


def test_lanczos_resolves_degeneracy():
    # doubly degenerate ground level must appear twice
    d = np.array([0.0, 0.0, 1.0, 2.0, 3.0] + list(np.arange(4.0, 40.0)))
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((d.size, d.size)))
    a = (q * d) @ q.T
    w = lanczos_lowest(a, k=3, seed=8)
    assert np.allclose(w, [0.0, 0.0, 1.0], atol=1e-9)


@pytest.mark.slow
def test_lanczos_dim2048_matches_dense_eig():
    a = scipy.sparse.random(2048, 2048, density=4e-3, random_state=53, format="csr")
    a = (a + a.T) / 2
    exact = np.linalg.eigvalsh(a.toarray())[:3]
    w = lanczos_lowest(a, k=3, seed=9)
    assert np.abs(np.sort(w) - exact).max() <= 1e-9


@pytest.mark.slow
def test_lanczos_dim4096_matches_arpack():
    a = scipy.sparse.random(4096, 4096, density=2e-3, random_state=117, format="csr")
    a = (a + a.T) / 2
    exact = scipy.sparse.linalg.eigsh(a, k=2, which="SA", tol=1e-12)[0]
    w = lanczos_lowest(a, k=2, seed=3)
    assert np.abs(np.sort(w) - np.sort(exact)).max() <= 1e-9


# -- the size budget: each limit passes at its value and raises one above --

def test_budget_is_read_only():
    from entlab.linalg import BUDGET

    with pytest.raises(TypeError):
        BUDGET["direct_evolve_max_sites"] = 8


def _over_budget_cases():
    from entlab import chains, kinetic, mps, selftest, states
    from entlab.kinetic import KineticModel

    rho8 = states.random_density((2,) * 8, np.random.default_rng(0))
    return {
        "lanczos_max_dim": lambda: chains.ground_state(chains.build_xy(1, 1, 21)),
        "thermal_state_max_dim": lambda: chains.thermal_state(chains.build_xy(1, 1, 14), 1.0),
        "classical_ring_max_sites": lambda: chains.classical_gibbs_mutual_info(
            lambda a, b: -a * b, 0.5, 21, 10),
        "generator_max_sites": lambda: kinetic.build_generator(
            KineticModel.single_flip(21, beta=0.4)),
        "direct_evolve_max_sites": lambda: kinetic.direct_evolve(
            rho8, KineticModel.two_flip(8, beta=0.4), 0.1),
        "direct_evolve_max_sites (kinetic evolve)": lambda: selftest.sector_evolution(
            8, 0.4, 0.1, 1, seed=0),
        "sector_evolve_max_sites": lambda: kinetic.sector_eigensystems(
            KineticModel.two_flip(11, beta=0.4)),
        "spectra_scan_max_sites": lambda: kinetic.sector_spectra_scan(
            "two-flip", 18, [kinetic.TauSector.adjacent_pair_up(18)], [0.1]),
        "mps_dense_max_amplitudes": lambda: mps.ghz_mps(17).to_dense(),
        "mps_dense_max_amplitudes (spin 1)": lambda: mps.aklt_mps(11).to_dense(),
    }


@pytest.mark.parametrize("name", list(_over_budget_cases()))
def test_one_above_each_limit_raises(name):
    from entlab.linalg import ResourceLimitError

    with pytest.raises(ResourceLimitError):
        _over_budget_cases()[name]()


def test_cheap_limits_pass_at_their_value():
    from entlab import kinetic, mps, states
    from entlab.kinetic import KineticModel
    from entlab.linalg import BUDGET

    assert BUDGET["direct_evolve_max_sites"] == 7
    rho7 = states.random_density((2,) * 7, np.random.default_rng(0))
    assert kinetic.direct_evolve(rho7, KineticModel.two_flip(7, beta=0.4), 0.1).dims == (2,) * 7
    assert mps.ghz_mps(16).to_dense()[0].dim == 2 ** 16
    assert mps.aklt_mps(10).to_dense()[0].dim == 3 ** 10


def test_one_crossover_is_dense_up_to_1024(monkeypatch):
    from entlab import chains, kinetic, selftest

    calls = []
    original = chains.lanczos_lowest
    monkeypatch.setattr(chains, "lanczos_lowest",
                        lambda op, **k: calls.append(op.shape[0]) or original(op, **k))
    # named-state oracle: Majumdar-Ghosh at 2^10 is dense; no named state has
    # dimension 2048 (MG needs an even N, AKLT is 3^N), so AKLT at 3^7 is the
    # first one above the crossover
    selftest.named_state("mg", 10)
    selftest.named_state("aklt", 7)
    for n in (10, 11):
        kinetic.sector_spectra_scan("two-flip", n, [kinetic.TauSector.adjacent_pair_up(n)],
                                    [0.1], k=2)
    for n in (10, 11):
        chains.ground_state(chains.build_xy(1.0, 1.0, n))
    assert calls == [3 ** 7, 2 ** 11, 2 ** 11]
