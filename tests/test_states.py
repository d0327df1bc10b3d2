import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entlab.linalg import kron
from entlab.states import (
    DensityMatrix,
    PureState,
    bell_state,
    is_ppt,
    max_entangled,
    mutual_information,
    partial_trace,
    partial_trace_pure,
    partial_transpose,
    partial_transpose_matrix,
    random_density,
    random_pure,
    random_schmidt_rank_state,
    random_separable,
    renyi_entropy,
    renyi_entropy_from_spectrum,
    schmidt,
    von_neumann_entropy,
)


def product_state(*locals_):
    amp = locals_[0]
    for v in locals_[1:]:
        amp = np.kron(amp, v)
    return PureState(tuple(len(v) for v in locals_), amp)


def test_purestate_validation():
    with pytest.raises(ValueError):
        PureState((2, 2), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        PureState((2,), np.array([1.0, 1.0]))


def test_density_validation():
    with pytest.raises(ValueError):
        DensityMatrix((2,), np.array([[1.0, 0.5], [0.2, 0.0]]))
    with pytest.raises(ValueError):
        DensityMatrix((2,), np.diag([0.75, 0.75]))


def test_schmidt_product_state():
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    zero = np.array([1.0, 0.0])
    sd = schmidt(product_state(zero, plus))
    assert sd.rank == 1
    assert np.allclose(sd.coefficients, [1.0])


def test_schmidt_max_entangled():
    for d in (2, 3, 5):
        sd = schmidt(max_entangled(d))
        assert sd.rank == d
        assert np.allclose(sd.coefficients, np.full(d, 1 / np.sqrt(d)), atol=1e-12)


def test_schmidt_rank_bound_and_normalization():
    rng = np.random.default_rng(0)
    psi = random_pure((3, 5), rng)
    sd = schmidt(psi)
    assert sd.rank <= 3
    assert np.isclose((sd.coefficients ** 2).sum(), 1.0, atol=1e-12)


def test_schmidt_reconstruction_fidelity():
    rng = np.random.default_rng(1)
    for _ in range(500):
        da, db = rng.integers(2, 9, size=2)
        psi = random_pure((da, db), rng)
        rec = schmidt(psi).reconstruct()
        assert abs(np.vdot(psi.amplitudes, rec)) >= 1 - 1e-10


def test_partial_trace_max_entangled_is_maximally_mixed():
    rho = max_entangled(2).projector()
    ra = partial_trace(rho, [0])
    assert np.allclose(ra.matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product():
    rng = np.random.default_rng(2)
    ra = random_density((2,), rng)
    rb = random_density((3,), rng)
    rho = DensityMatrix((2, 3), kron(ra.matrix, rb.matrix))
    out = partial_trace(rho, [0])
    assert np.allclose(out.matrix, ra.matrix, atol=1e-12)
    out_b = partial_trace(rho, [1])
    assert np.allclose(out_b.matrix, rb.matrix, atol=1e-12)


def test_partial_trace_noncontiguous():
    rng = np.random.default_rng(8)
    parts = [random_density((2,), rng) for _ in range(3)]
    rho = DensityMatrix((2, 2, 2), kron(parts[0].matrix, parts[1].matrix, parts[2].matrix))
    out = partial_trace(rho, [0, 2])
    assert np.allclose(out.matrix, kron(parts[0].matrix, parts[2].matrix), atol=1e-12)


def test_reductions_share_spectrum():
    rng = np.random.default_rng(3)
    for _ in range(50):
        psi = random_pure((4, 6), rng)
        wa = partial_trace_pure(psi, 1, "A").eigenvalues()
        wb = partial_trace_pure(psi, 1, "B").eigenvalues()
        lam2 = np.sort(schmidt(psi).coefficients ** 2)
        assert np.allclose(np.sort(wa)[-lam2.size:], lam2, atol=1e-10)
        assert np.allclose(np.sort(wb)[-lam2.size:], lam2, atol=1e-10)


def test_partial_transpose_entry_rule():
    rho = random_density((2, 2), np.random.default_rng(4))
    pt = partial_transpose(rho, "A")
    t = rho.matrix.reshape(2, 2, 2, 2)
    for i in range(2):
        for j in range(2):
            for mu in range(2):
                for nu in range(2):
                    assert pt.reshape(2, 2, 2, 2)[j, mu, i, nu] == pytest.approx(
                        t[i, mu, j, nu]
                    )


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 10_000))
def test_partial_transpose_involution_and_relation(da, db, seed):
    rng = np.random.default_rng(seed)
    rho = random_density((da, db), rng)
    pta = partial_transpose(rho, "A")
    assert np.allclose(partial_transpose_matrix(pta, da, db, "A"), rho.matrix, atol=1e-12)
    ptb = partial_transpose(rho, "B")
    assert np.allclose(ptb, pta.T, atol=1e-12)


def test_partial_transpose_basis_independent_spectrum():
    rng = np.random.default_rng(6)
    rho = random_density((2, 3), rng)
    ua, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    ub, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    u = kron(ua, ub)
    rot = DensityMatrix((2, 3), u @ rho.matrix @ u.conj().T)
    w1 = np.sort(np.linalg.eigvalsh(partial_transpose(rho, "A")))
    w2 = np.sort(np.linalg.eigvalsh(partial_transpose(rot, "A")))
    assert np.abs(w1 - w2).max() <= 1e-10


def test_ppt_bell_and_product():
    ok, mineig = is_ppt(bell_state().projector())
    assert not ok
    assert mineig == pytest.approx(-0.5, abs=1e-12)
    rng = np.random.default_rng(7)
    a, b = random_pure((2,), rng), random_pure((3,), rng)
    prod = PureState((2, 3), np.kron(a.amplitudes, b.amplitudes)).projector()
    ok, _ = is_ppt(prod)
    assert ok


def test_ppt_negative_count_matches_schmidt_rank():
    rng = np.random.default_rng(9)
    for r in (2, 3, 4):
        for _ in range(30):
            psi = random_schmidt_rank_state(4, 4, r, rng)
            w = np.linalg.eigvalsh(partial_transpose(psi.projector(), "A"))
            assert int((w < -1e-10).sum()) == r * (r - 1) // 2


def test_ppt_separable_mixtures_always_pass():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        rho = random_separable(2, 2, rng)
        ok, _ = is_ppt(rho, tol=1e-9)
        assert ok


def test_von_neumann_entropy_values():
    psi = bell_state()
    assert von_neumann_entropy(psi.projector()) == pytest.approx(0.0, abs=1e-10)
    for d in (2, 3, 8):
        mixed = DensityMatrix((d,), np.eye(d) / d)
        assert von_neumann_entropy(mixed) == pytest.approx(np.log2(d))
    red = partial_trace_pure(max_entangled(4), 1, "A")
    assert von_neumann_entropy(red) == pytest.approx(2.0)
    assert von_neumann_entropy(red, base="e") == pytest.approx(np.log(4))


def test_renyi_entropy_limits():
    rng = np.random.default_rng(11)
    rho = random_density((4,), rng, rank=3)
    assert renyi_entropy(rho, 0) == pytest.approx(np.log2(3), abs=1e-8)
    w = np.array([0.7, 0.3])
    assert renyi_entropy_from_spectrum(w, np.inf) == pytest.approx(-np.log2(0.7))
    assert renyi_entropy_from_spectrum(w, 1.0) == pytest.approx(
        -(0.7 * np.log2(0.7) + 0.3 * np.log2(0.3))
    )


def test_renyi_monotone_in_alpha():
    rng = np.random.default_rng(12)
    alphas = [0.25, 0.5, 0.9, 1.0, 1.5, 2.0, 4.0, np.inf]
    for _ in range(100):
        w = rng.dirichlet(np.ones(6))
        vals = [renyi_entropy_from_spectrum(w, a) for a in alphas]
        assert all(vals[i] >= vals[i + 1] - 1e-10 for i in range(len(vals) - 1))


def test_mutual_information_nonnegative():
    rng = np.random.default_rng(14)
    for _ in range(50):
        rho = random_density((2, 3), rng)
        assert mutual_information(rho) >= -1e-9


def test_mutual_information():
    rng = np.random.default_rng(13)
    ra, rb = random_density((2,), rng), random_density((2,), rng)
    prod = DensityMatrix((2, 2), kron(ra.matrix, rb.matrix))
    assert mutual_information(prod) == pytest.approx(0.0, abs=1e-9)
    # pure state: twice the entanglement entropy
    psi = random_pure((2, 4), rng)
    expected = 2 * von_neumann_entropy(partial_trace_pure(psi, 1, "A"))
    assert mutual_information(psi.projector()) == pytest.approx(expected, abs=1e-9)
    assert mutual_information(bell_state().projector()) == pytest.approx(2.0, abs=1e-9)


def reference_random_separable(da, db, rng, nterms=None):
    """The per-term loop the block draw replaces: each factor from random_pure."""
    kmax = (da * db) ** 2
    k = int(rng.integers(1, kmax + 1)) if nterms is None else min(nterms, kmax)
    weights = rng.dirichlet(np.ones(k))
    out = np.zeros((da * db, da * db), dtype=complex)
    for w in weights:
        a = random_pure((da,), rng).amplitudes
        b = random_pure((db,), rng).amplitudes
        v = np.kron(a, b)
        out += w * np.outer(v, v.conj())
    return DensityMatrix((da, db), out)


@pytest.mark.parametrize("da, db", [(2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("nterms", [None, 1, 5, 100])
def test_random_separable_matches_per_term_reference(da, db, nterms):
    for seed in range(12):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        rho = random_separable(da, db, rng, nterms)
        ref = reference_random_separable(da, db, ref_rng, nterms)
        assert rho.matrix.dtype == ref.matrix.dtype
        assert np.array_equal(rho.matrix.view(np.uint8), ref.matrix.view(np.uint8))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
