import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entlab.chains import block_entropy_scan, build_xy, thermal_state
from entlab.kinetic import KineticModel, direct_evolve
from entlab.linalg import NotHermitianError, kron
from entlab.measures import log_negativity, negativity, witness_from_npt
from entlab.mps import from_dense
from entlab.states import (
    DensityMatrix,
    PureState,
    _unit_rows,
    bell_state,
    entropy_from_probabilities,
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

from peakmem import BOOKKEEPING, traced_peak


def product_state(*locals_):
    amp = locals_[0]
    for v in locals_[1:]:
        amp = np.kron(amp, v)
    return PureState(tuple(len(v) for v in locals_), amp)


def test_purestate_validation():
    with pytest.raises(ValueError):
        PureState((2, 2), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError) as single:
        PureState((2,), np.array([1.0, 1.0]))
    # a stack with one unnormalized row raises what that row alone raises
    with pytest.raises(ValueError) as stacked:
        PureState((2,), np.array([[1.0, 0.0], [1.0, 1.0]]))
    assert str(stacked.value) == str(single.value)


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
        sd = schmidt(psi)
        rec = ((sd.left * sd.coefficients) @ sd.right.conj().T).ravel()
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
        wa = partial_trace_pure(psi, 1).eigenvalues()
        wb = partial_trace(psi.projector(), [1]).eigenvalues()
        lam2 = np.sort(schmidt(psi).coefficients ** 2)
        assert np.allclose(np.sort(wa)[-lam2.size:], lam2, atol=1e-10)
        assert np.allclose(np.sort(wb)[-lam2.size:], lam2, atol=1e-10)


def test_partial_transpose_entry_rule():
    rho = random_density((2, 3), np.random.default_rng(4))
    pt = partial_transpose(rho).reshape(2, 3, 2, 3)
    t = rho.matrix.reshape(2, 3, 2, 3)
    for i in range(2):
        for j in range(2):
            for mu in range(3):
                for nu in range(3):
                    assert pt[i, nu, j, mu] == pytest.approx(t[i, mu, j, nu])


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 10_000))
def test_partial_transpose_involution_and_relation(da, db, seed):
    rng = np.random.default_rng(seed)
    rho = random_density((da, db), rng)
    ptb = partial_transpose(rho)
    assert np.allclose(partial_transpose_matrix(ptb, da, db), rho.matrix, atol=1e-12)
    # transposing the first side instead gives the full transpose, with the same spectrum
    pta = rho.matrix.reshape(da, db, da, db).transpose(2, 1, 0, 3).reshape(da * db, da * db)
    assert np.allclose(ptb.T, pta, atol=1e-12)
    assert np.allclose(np.linalg.eigvalsh(ptb), np.linalg.eigvalsh(pta), atol=1e-12)


def test_partial_transpose_basis_independent_spectrum():
    rng = np.random.default_rng(6)
    rho = random_density((2, 3), rng)
    ua, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    ub, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    u = kron(ua, ub)
    rot = DensityMatrix((2, 3), u @ rho.matrix @ u.conj().T)
    w1 = np.sort(np.linalg.eigvalsh(partial_transpose(rho)))
    w2 = np.sort(np.linalg.eigvalsh(partial_transpose(rot)))
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
            w = np.linalg.eigvalsh(partial_transpose(psi.projector()))
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
    red = partial_trace_pure(max_entangled(4), 1)
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


def test_renyi_entropy_of_nan_order_is_rejected():
    rho = random_density((4,), np.random.default_rng(11))
    with pytest.raises(ValueError, match="alpha must be nonnegative"):
        renyi_entropy(rho, float("nan"))


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
    expected = 2 * von_neumann_entropy(partial_trace_pure(psi, 1))
    assert mutual_information(psi.projector()) == pytest.approx(expected, abs=1e-9)
    assert mutual_information(bell_state().projector()) == pytest.approx(2.0, abs=1e-9)


def reference_random_separable(da, db, rng):
    """The per-term loop the block draw replaces: each factor from random_pure."""
    kmax = (da * db) ** 2
    k = int(rng.integers(1, kmax + 1))
    weights = rng.dirichlet(np.ones(k))
    out = np.zeros((da * db, da * db), dtype=complex)
    for w in weights:
        a = random_pure((da,), rng).amplitudes
        b = random_pure((db,), rng).amplitudes
        v = np.kron(a, b)
        out += w * np.outer(v, v.conj())
    return DensityMatrix((da, db), out)


def seeds_drawing(nterms, da, db, count=12):
    """The first ``count`` seeds whose random_separable mixes ``nterms`` terms
    (clamped to the Caratheodory bound; None: any number)."""
    kmax = (da * db) ** 2
    want = None if nterms is None else min(nterms, kmax)
    seeds = (s for s in itertools.count()
             if want in (None, np.random.default_rng(s).integers(1, kmax + 1)))
    return list(itertools.islice(seeds, count))


@pytest.mark.parametrize("da, db", [(2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("nterms", [None, 1, 5, 100])
def test_random_separable_matches_per_term_reference(da, db, nterms):
    for seed in seeds_drawing(nterms, da, db):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        rho = random_separable(da, db, rng)
        ref = reference_random_separable(da, db, ref_rng)
        assert rho.matrix.dtype == ref.matrix.dtype
        assert np.array_equal(rho.matrix.view(np.uint8), ref.matrix.view(np.uint8))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert nterms != 1 or np.linalg.matrix_rank(rho.matrix) == 1
    # a stack: row i is the i-th of successive per-term draws
    seed = seeds_drawing(nterms, da, db)[0]
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    stack = random_separable(da, db, rng, 9)
    assert stack.count == 9 and stack.matrix.shape == (9, da * db, da * db)
    for row in stack.matrix:
        ref = reference_random_separable(da, db, ref_rng)
        assert np.array_equal(row.view(np.uint8), ref.matrix.view(np.uint8))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def reference_random_pure(dims, rng):
    """One Gaussian draw per part, divided by np.linalg.norm."""
    d = int(np.prod(dims))
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def reference_random_schmidt_rank_state(da, db, rank, rng):
    """The per-state draws and factorizations of one Schmidt-rank state."""
    lam = rng.uniform(0.2, 1.0, size=rank)
    lam /= np.linalg.norm(lam)
    ga = rng.standard_normal((da, rank)) + 1j * rng.standard_normal((da, rank))
    gb = rng.standard_normal((db, rank)) + 1j * rng.standard_normal((db, rank))
    qa, _ = np.linalg.qr(ga)
    qb, _ = np.linalg.qr(gb)
    return ((qa * lam) @ qb.T).ravel()


@pytest.mark.parametrize("dims", [(2,), (2, 2), (3, 4), (2,) * 8, (2,) * 16])
def test_random_pure_stack_rows_are_successive_draws(dims):
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    one = random_pure(dims, rng)
    assert one.count is None
    assert np.array_equal(one.amplitudes.view(np.uint8),
                          reference_random_pure(dims, ref_rng).view(np.uint8))
    stack = random_pure(dims, rng, 5)
    assert stack.amplitudes.shape == (5, int(np.prod(dims)))
    for row in stack.amplitudes:
        ref = reference_random_pure(dims, ref_rng)
        assert np.array_equal(row.view(np.uint8), ref.view(np.uint8))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("da, db, rank", [(2, 2, 1), (2, 2, 2), (4, 4, 3), (3, 5, 3)])
def test_random_schmidt_rank_stack_rows_are_successive_draws(da, db, rank):
    rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
    one = random_schmidt_rank_state(da, db, rank, rng)
    ref = reference_random_schmidt_rank_state(da, db, rank, ref_rng)
    assert np.array_equal(one.amplitudes.view(np.uint8), ref.view(np.uint8))
    stack = random_schmidt_rank_state(da, db, rank, rng, 6)
    assert stack.count == 6
    for row in stack.amplitudes:
        ref = reference_random_schmidt_rank_state(da, db, rank, ref_rng)
        assert np.array_equal(row.view(np.uint8), ref.view(np.uint8))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("bad", [
    np.array([[0.5, 0.1], [0.3, 0.5]]),  # not Hermitian
    np.eye(2),                            # trace 2
    np.diag([1.5, -0.5]),                 # a negative eigenvalue
])
def test_a_stack_with_one_bad_row_raises_what_the_row_raises(bad):
    good = random_density((2,), np.random.default_rng(7)).matrix
    with pytest.raises(ValueError) as single:
        DensityMatrix((2,), bad)
    with pytest.raises(ValueError) as stacked:
        DensityMatrix((2,), np.stack([good, good, bad.astype(complex), good]))
    assert type(stacked.value) is type(single.value)
    assert str(stacked.value) == str(single.value)


def test_stack_rows_are_checked_on_their_own_scale():
    # an asymmetry of 1e-6 is within 1e-10 of a 1e5 scale, not of the unit one
    big = np.diag([1e5, 1.0 - 1e5]).astype(complex)
    small = np.eye(2, dtype=complex) / 2
    small[0, 1] = 1e-6
    with pytest.raises(NotHermitianError):
        DensityMatrix((2,), np.stack([big, small]))


@pytest.mark.parametrize("call", [
    lambda psi: partial_trace(psi.projector(), [0]),
    lambda psi: is_ppt(psi.projector()),
    lambda psi: renyi_entropy(psi.projector(), 2),
    lambda psi: mutual_information(psi.projector()),
    lambda psi: schmidt(psi),
    lambda psi: from_dense(psi),
    lambda psi: block_entropy_scan(psi, [1]),
    lambda psi: direct_evolve(psi.projector(), KineticModel.thermal("two-flip", 2, 0.4), 0.1,
                              generator=np.eye(16)),
    lambda psi: negativity(psi.projector()),
    lambda psi: log_negativity(psi.projector()),
    lambda psi: witness_from_npt(psi.projector()),
])
def test_single_state_functions_reject_a_stack(call):
    stack = random_pure((2, 2), np.random.default_rng(8), 3)
    with pytest.raises(ValueError, match="stack of 3"):
        call(stack)


def test_validation_rejects_nan():
    nan = float("nan")
    with pytest.raises(ValueError):
        PureState((2,), [nan, 0.0])
    with pytest.raises(ValueError):
        PureState((2,), [1.0, nan])
    with pytest.raises(NotHermitianError):
        DensityMatrix((2,), [[nan, 0.0], [0.0, nan]])
    with pytest.raises(NotHermitianError):
        DensityMatrix((2,), [[0.5, nan], [nan, 0.5]])
    with pytest.raises(ValueError):
        _unit_rows(np.array([[1.0, 0.0], [nan, 1.0]], dtype=complex))


# -- the spectrum a DensityMatrix carries against a fresh eigensolve --

def reference_von_neumann_entropy(rho, base=2):
    return entropy_from_probabilities(np.clip(np.linalg.eigvalsh(rho.matrix), 0.0, None), base)


def _spectrum_cases():
    rng = np.random.default_rng(17)
    for dims in ((2,), (2, 3), (4, 4, 4), (2,) * 10):
        yield random_density(dims, rng)
    yield random_density((2, 3), rng, rank=2)
    yield thermal_state(build_xy(1.0, 1.0, 10), 1.0)


def test_density_matrix_spectrum_is_fresh_eigvalsh():
    for rho in _spectrum_cases():
        fresh = np.linalg.eigvalsh(rho.matrix)
        assert np.array_equal(rho.eigenvalues(), fresh)
        for base in (2, "e"):
            assert von_neumann_entropy(rho, base) == \
                entropy_from_probabilities(np.clip(fresh, 0.0, None), base)
        for alpha in (0, 0.5, 2, np.inf):
            assert renyi_entropy(rho, alpha) == renyi_entropy_from_spectrum(fresh, alpha)
        n = len(rho.dims)
        if n > 1:
            cut = n // 2
            ref = (reference_von_neumann_entropy(partial_trace(rho, range(cut)))
                   + reference_von_neumann_entropy(partial_trace(rho, range(cut, n)))
                   - entropy_from_probabilities(np.clip(fresh, 0.0, None)))
            assert mutual_information(rho, cut) == ref


def test_density_matrix_arrays_are_read_only():
    source = np.diag([0.25, 0.75]).astype(complex)
    rho = DensityMatrix((2,), source)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 1.0
    with pytest.raises(ValueError):
        rho.eigenvalues()[0] = 1.0
    source[0, 0] = 1.0  # the caller's array is copied, not frozen
    assert rho.matrix[0, 0] == 0.25


def test_a_real_input_and_its_complex_cast_give_the_same_state():
    # float64 is symmetrized in float64, other dtypes as complex; the imaginary
    # parts come out +0.0 either way, so matrix and spectrum keep their bits
    rng = np.random.default_rng(43)
    cases = []
    for dims in ((2,), (2, 3), (2,) * 6):
        d = int(np.prod(dims))
        g = rng.standard_normal((d, d))
        a = np.eye(d) + 0.1 / d * (g @ g.T) + 1e-13 * rng.standard_normal((d, d))
        i, j = np.indices((d, d))
        a[(i != j) & ((i + j) % 5 == 1)] = -0.0  # diagonally dominant, so still PSD
        cases.append((dims, a / np.trace(a)))
    cases.append(((2,) * 8, thermal_state(build_xy(1.0, 1.0, 8), 1.0).matrix.real.copy()))
    cases.append(((2,), np.array([[1, 0], [0, 0]])))
    cases.append(((2,), np.array([[0.25, 0.1], [0.1, 0.75]], dtype=np.float32)))
    for dims, a in cases:
        real, cast = DensityMatrix(dims, a), DensityMatrix(dims, a.astype(complex))
        assert real.matrix.dtype == complex
        assert real.matrix.tobytes() == cast.matrix.tobytes()
        assert real.eigenvalues().tobytes() == cast.eigenvalues().tobytes()


def test_density_matrix_holds_three_real_arrays_for_a_real_input():
    # the symmetrized float64 copy and its complex cast; a complex copy of the input
    # made first, and a full |A| or |A - A^dag| beside it, would add 2.0 more
    rng = np.random.default_rng(47)
    g = rng.standard_normal((1024, 1024))
    a = g @ g.T
    del g
    a /= np.trace(a)
    assert traced_peak(DensityMatrix, (2,) * 10, a) <= 3 * a.nbytes + BOOKKEEPING


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_input_raises_the_documented_error_without_a_warning(bad):
    import warnings

    from entlab.linalg import check_hermitian

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotHermitianError):
            check_hermitian(np.array([[1.0, bad], [bad, 1.0]]))
        with pytest.raises(NotHermitianError):
            DensityMatrix((2,), [[0.5, complex(0.0, bad)], [complex(0.0, -bad), 0.5]])
        with pytest.raises(ValueError):
            _unit_rows(np.array([[1.0, 0.0], [bad, 1.0]], dtype=complex))
