import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from entlab.kinetic import TauSector, build_h_tau_two_flip
from entlab.linalg import (
    NotHermitianError,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    check_hermitian,
    kron,
    lanczos_lowest,
    require_hermitian,
    svd,
    trace_norm,
)

from peakmem import BOOKKEEPING, traced_peak


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


def test_check_hermitian_rejects_asymmetric():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitianError) as exc:
        check_hermitian(a)
    assert exc.value.asymmetry == pytest.approx(1.0)
    a = np.random.default_rng(3).standard_normal((9, 18)).view(complex)
    kept = a.copy()
    with pytest.raises(NotHermitianError) as exc:
        check_hermitian(a)
    assert exc.value.asymmetry == float(np.abs(a - a.conj().T).max())
    assert np.array_equal(a, kept)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_hermitian_rejects_non_finite(bad):
    for a in (np.array([[bad, 0.0], [0.0, 1.0]]),
              np.array([[1.0, bad], [bad, 1.0]]),
              np.array([[0.5, complex(0.0, bad)], [complex(0.0, -bad), 0.5]])):
        with pytest.raises(NotHermitianError):
            check_hermitian(a)


def same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def test_check_hermitian_symmetrizes_bitwise_as_definition():
    rng = np.random.default_rng(11)
    for n in (1, 7, 64):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = g + g.conj().T + 1e-13 * rng.standard_normal((n, n))
        i, j = np.indices((n, n))
        a.real[(i + j) % 3 == 0] = -0.0  # signed zeros come out as the definition's
        a.imag[(i * j) % 4 == 1] = -0.0
        padded = np.zeros((n + 3, n + 5), dtype=complex)
        padded[1:n + 1, 2:n + 2] = a
        layouts = (a, np.asfortranarray(a), a.T, padded[1:n + 1, 2:n + 2])
        for x in layouts + tuple(y.real for y in layouts):
            kept = x.copy()
            out = check_hermitian(x)
            assert same_bits(out, (x + x.conj().T) / 2)
            assert out.flags.c_contiguous and not np.shares_memory(out, x)
            assert same_bits(x, kept)


def test_check_hermitian_holds_only_its_output():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((1024, 1024)) + 1j * rng.standard_normal((1024, 1024))
    a = g + g.conj().T
    del g
    # the output, which holds A^dag while the test reads it in row blocks; a full
    # |A| or |A - A^dag| would add 0.5, a conjugated copy 1.0
    assert traced_peak(check_hermitian, a) <= a.nbytes + BOOKKEEPING


def test_require_hermitian_applies_the_check_hermitian_test_without_a_copy():
    rng = np.random.default_rng(29)
    g = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
    a = g + g.conj().T + 1e-11 * rng.standard_normal((300, 300))
    for x in (a, a.real, scipy.sparse.csr_matrix(a)):
        assert require_hermitian(x) is x
    for x in (g, g.real, scipy.sparse.csr_matrix(g)):
        dense = x.toarray() if scipy.sparse.issparse(x) else x
        for check in (require_hermitian, check_hermitian):
            with pytest.raises(NotHermitianError) as exc:
                check(x if check is require_hermitian else dense)
            assert exc.value.asymmetry == float(np.abs(dense - dense.conj().T).max())
    for bad in (np.nan, np.inf):
        x = np.eye(3)
        x[0, 1] = x[1, 0] = bad
        for y in (x, scipy.sparse.csr_matrix(x)):
            with pytest.raises(NotHermitianError):
                require_hermitian(y)


def test_require_hermitian_holds_no_full_temporary():
    rng = np.random.default_rng(31)
    g = rng.standard_normal((1024, 1024))
    a = g + g.T
    del g
    assert traced_peak(require_hermitian, a) <= a.nbytes / 4


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


def reference_lanczos_lowest(op, k, seed, return_vectors=False, maxiter=1200):
    """``lanczos_lowest`` written with a fresh basis per round and a fresh vector
    per update: the arithmetic the in-place version must repeat bit for bit."""
    dim = op.shape[0]
    rng = np.random.default_rng(seed)
    dtype = complex if np.iscomplexobj(op) else float
    found_vals, found_vecs = [], []

    def project_out(x):
        for u in found_vecs:
            x = x - u * (u.conj() @ x)
        return x

    for _ in range(k):
        v0 = rng.standard_normal(dim)
        if dtype is complex:
            v0 = v0 + 1j * rng.standard_normal(dim)
        v0 = project_out(v0.astype(dtype))
        v0 /= np.linalg.norm(v0)
        cap = min(maxiter + 1, dim + 1)
        basis = np.empty((min(cap, 128), dim), dtype=dtype)
        basis[0] = v0
        m, alphas, betas, scale, converged = 1, [], [], 1.0, False
        for it in range(min(maxiter, dim)):
            w_vec = op @ basis[m - 1]
            scale = max(scale, float(np.linalg.norm(w_vec)))
            alphas.append(float(np.real(basis[m - 1].conj() @ w_vec)))
            w_vec = w_vec - alphas[-1] * basis[m - 1]
            if m > 1:
                w_vec = w_vec - betas[-1] * basis[m - 2]
            w_vec = project_out(w_vec)
            w_vec = w_vec - basis[:m].T @ (basis[:m].conj() @ w_vec)
            beta = float(np.linalg.norm(w_vec))
            spanned = beta < 1e-13 * scale
            out_of_room = m >= cap - 1
            if (it + 1) % 10 == 0 or spanned or out_of_room:
                tri_w, tri_v = scipy.linalg.eigh_tridiagonal(alphas, betas)
                value = tri_w[0]
                vector = basis[:m].T @ tri_v[:, 0]
                resid = float(np.linalg.norm(op @ vector - value * vector))
                if resid <= 1e-11 * scale or spanned:
                    converged = True
                    break
            if out_of_room:
                break
            betas.append(beta)
            if m == basis.shape[0]:
                grown = np.empty((min(2 * m, cap), dim), dtype=dtype)
                grown[:m] = basis
                basis = grown
            basis[m] = w_vec / beta
            m += 1
        assert converged
        vector = project_out(vector)
        vector /= np.linalg.norm(vector)
        found_vals.append(float(value))
        found_vecs.append(vector)
    order = np.argsort(found_vals)
    vals = np.asarray(found_vals)[order]
    if return_vectors:
        return vals, np.column_stack([found_vecs[i] for i in order])
    return vals


def _complex_chain():
    ham = build_h_tau_two_flip(TauSector.named("single-up", 10), 0.3, 10)
    ham.add(0.2, [(3, PAULI_Y)])
    return ham.sparse()


LANCZOS_CASES = {
    **{f"pair-up-13-phi{phi:.3f}": (lambda phi=phi: build_h_tau_two_flip(
        TauSector.named("pair-up", 13), phi, 13).sparse(), 4, False)
       for phi in (0.0, 0.3, math.pi / 4)},
    "complex-vectors": (_complex_chain, 3, True),
    # 270 and 260 steps: the basis grows past its first 128 rows and stays grown
    "diagonal-1500": (lambda: scipy.sparse.diags(np.arange(1500.0)), 2, False),
}


@pytest.mark.parametrize("name", sorted(LANCZOS_CASES))
def test_lanczos_is_bitwise_the_reference(name):
    build, k, vectors = LANCZOS_CASES[name]
    op = build()
    got = lanczos_lowest(op, k=k, seed=0, return_vectors=vectors)
    ref = reference_lanczos_lowest(op, k=k, seed=0, return_vectors=vectors)
    if not vectors:
        got, ref = (got,), (ref,)
    assert all(same_bits(x, y) for x, y in zip(got, ref))
    if vectors:
        assert got[1].dtype == complex


def test_lanczos_holds_one_basis():
    op = build_h_tau_two_flip(TauSector.named("pair-up", 14), 0.3, 14).sparse()
    lanczos_lowest(op[:64, :64], k=1)  # scipy.linalg's first import is not the solver's
    basis = 128 * op.shape[0] * 8
    # one basis shared by the four rounds, and a few length-dim vectors beside it
    assert traced_peak(lanczos_lowest, op, k=4) <= 1.25 * basis + BOOKKEEPING
    # a complex operator too: the re-orthogonalization conjugates a vector, not the basis
    ham = build_h_tau_two_flip(TauSector.named("pair-up", 13), 0.3, 13)
    ham.add(0.2, [(3, PAULI_Y)])
    op = ham.sparse()
    assert op.dtype == complex
    basis = 128 * op.shape[0] * 16
    assert traced_peak(lanczos_lowest, op, k=2) <= 1.25 * basis + BOOKKEEPING


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
        "full_spectrum_max_dim": lambda: chains.thermal_state(chains.build_xy(1, 1, 14), 1.0),
        # the dense amplitudes of the Gibbs oracle are checked before the kernel solve
        "mps_dense_max_amplitudes (classical-superposition)": lambda: (
            selftest.classical_superposition(17, 0.6, 1.0)),
        "classical_ring_max_sites": lambda: chains.classical_gibbs_mutual_info(
            1.0, 0.5, 21, 10),
        "classical_ring_max_sites (markov_violation)": lambda: chains.markov_violation(
            1.0, 0.5, 21, 0, 10),
        "generator_max_sites": lambda: kinetic.build_generator(
            KineticModel.thermal("single-flip", 21, 0.4)),
        "direct_evolve_max_sites": lambda: kinetic.direct_evolve(
            rho8, KineticModel.thermal("two-flip", 8, 0.4), 0.1),
        "direct_evolve_max_sites (kinetic evolve)": lambda: selftest.sector_evolution(
            8, 0.4, 0.1, 1, seed=0),
        "direct_evolve_max_sites (vectorized_generator)": lambda: kinetic.vectorized_generator(
            KineticModel.thermal("two-flip", 8, 0.4)),
        "sector_evolve_max_sites": lambda: kinetic.sector_generator(
            KineticModel.thermal("two-flip", 11, 0.4)),
        # |t| |gen|_1 = 1e6 * 13.3 at four sites, checked before expm_multiply runs
        "evolve_max_norm_time": lambda: kinetic.classical_evolve(
            np.full(16, 1 / 16), KineticModel.thermal("two-flip", 4, 0.4), 1e6),
        "evolve_max_norm_time (kinetic evolve)": lambda: selftest.sector_evolution(
            4, 0.4, 1e6, 1, seed=0),
        "spectra_scan_max_sites": lambda: kinetic.sector_spectra_scan(
            "two-flip", 18, [kinetic.TauSector.named("pair-up", 18)], [0.1]),
        "mps_dense_max_amplitudes": lambda: mps.ghz_mps(17).to_dense(),
        "mps_dense_max_amplitudes (spin 1)": lambda: mps.aklt_mps(11).to_dense(),
        # the limit is checked before the random state is drawn
        "mps_dense_max_amplitudes (mps roundtrip)": lambda: selftest.mps_roundtrip(17, None, 0),
        "mps_dense_max_amplitudes (mps truncate)": lambda: selftest.mps_truncate(17, 2, 0),
        # d^2 = 8281 and 2N = 8194 are the first dimensions above 8192
        "full_spectrum_max_dim (measures maxent)": lambda: selftest.maxent_measures(91),
        "full_spectrum_max_dim (maps)": lambda: selftest.positive_maps(91, 0),
        "full_spectrum_max_dim (arealaw)": lambda: selftest.arealaw(4097, 1.0, 1.0, 8, 64),
        "haar_max_amplitudes (lubkin)": lambda: selftest.lubkin(128, 129, 100, 0),
        "haar_max_amplitudes (page)": lambda: selftest.page(128, 129, 100, 0),
    }


@pytest.mark.parametrize("name", list(_over_budget_cases()))
def test_one_above_each_limit_raises(name, monkeypatch):
    from entlab import chains, kinetic, states
    from entlab.linalg import ResourceLimitError

    cases = _over_budget_cases()

    def no_draw(*args):
        raise AssertionError("a random state was drawn before the budget check")

    def no_solve(*args, **kwargs):
        raise AssertionError("an eigensolve ran before the budget check")

    monkeypatch.setattr(states, "random_pure", no_draw)
    for module in (chains, kinetic):
        monkeypatch.setattr(module, "lowest_levels", no_solve)
    with pytest.raises(ResourceLimitError):
        cases[name]()


def test_every_limit_has_an_over_budget_case():
    from entlab.linalg import BUDGET

    covered = {name.split(" (")[0] for name in _over_budget_cases()}
    assert covered == set(BUDGET) - {"dense_dim"}


def test_cheap_limits_pass_at_their_value():
    from entlab import kinetic, mps, selftest, states
    from entlab.kinetic import KineticModel
    from entlab.linalg import BUDGET

    assert BUDGET["direct_evolve_max_sites"] == 7
    rho7 = states.random_density((2,) * 7, np.random.default_rng(0))
    model7 = KineticModel.thermal("two-flip", 7, 0.4)
    assert kinetic.direct_evolve(rho7, model7, 0.1).dims == (2,) * 7
    assert mps.ghz_mps(16).to_dense().dim == 2 ** 16
    assert mps.aklt_mps(10).to_dense().dim == 3 ** 10
    assert BUDGET["haar_max_amplitudes"] == 128 * 128
    assert selftest.lubkin(128, 128, 100, 0).values["samples"] == 100


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
        kinetic.sector_spectra_scan("two-flip", n, [kinetic.TauSector.named("pair-up", n)],
                                    [0.1], k=2)
    for n in (10, 11):
        chains.ground_state(chains.build_xy(1.0, 1.0, n))
    assert calls == [3 ** 7, 2 ** 11, 2 ** 11]
