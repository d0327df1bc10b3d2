import math

import numpy as np
import pytest

from entlab.linalg import PAULI_X, PAULI_Z, NumericalError, ResourceLimitError
from entlab.mps import (
    CLUSTER_STABILIZER_SIGN,
    MatrixProductState,
    aklt_mps,
    antiferro_ghz_mps,
    block_entropy,
    canonical_defects,
    canonicalize,
    classical_superposition_mps,
    cluster_mps,
    expectation,
    from_dense,
    from_json_dict,
    ghz_mps,
    majumdar_ghosh_mps,
    overlap,
    renyi_truncation_bound,
    to_json_dict,
    truncate,
)
from entlab.states import (
    PureState,
    partial_trace_pure,
    random_pure,
    von_neumann_entropy,
)


def dense_ghz(n):
    amps = np.zeros(2 ** n, dtype=complex)
    amps[0] = amps[-1] = 1 / math.sqrt(2)
    return PureState((2,) * n, amps)


def random_mps(n, d, dmax, rng):
    tensors = []
    dl = 1
    for k in range(n):
        dr = 1 if k == n - 1 else min(dmax, d ** min(k + 1, n - k - 1), 6)
        t = rng.standard_normal((d, dl, dr)) + 1j * rng.standard_normal((d, dl, dr))
        tensors.append(t)
        dl = dr
    return MatrixProductState(tensors, boundary="open")


def test_from_dense_product_state():
    rng = np.random.default_rng(0)
    locals_ = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(5)]
    amp = locals_[0]
    for v in locals_[1:]:
        amp = np.kron(amp, v)
    amp /= np.linalg.norm(amp)
    mps, report = from_dense(PureState((2,) * 5, amp))
    assert max(mps.bond_dims) == 1
    assert report.bound == 0.0


def test_from_dense_bell_pair():
    mps, _ = from_dense(dense_ghz(2))
    assert mps.bond_dims == [1, 2, 1]
    assert np.allclose(np.sort(mps.lambdas[0]), [0.5, 0.5], atol=1e-12)


def test_from_dense_roundtrip_full_rank():
    rng = np.random.default_rng(1)
    psi = random_pure((2,) * 8, rng)
    mps, report = from_dense(psi, dmax=16)
    assert report.bound == 0.0
    back, norm = mps.to_dense()
    assert abs(np.vdot(psi.amplitudes, back.amplitudes)) >= 1 - 1e-10
    assert norm == pytest.approx(1.0, abs=1e-10)


def test_canonicalize_gauge_invariance_ghz():
    mps, _ = from_dense(dense_ghz(6))
    # scramble the gauge with random invertible bond transformations
    rng = np.random.default_rng(2)
    tensors = [t.copy() for t in mps.tensors]
    for k in range(len(tensors) - 1):
        d = tensors[k].shape[2]
        x = rng.standard_normal((d, d)) + 0.5 * np.eye(d)
        xinv = np.linalg.inv(x)
        tensors[k] = np.einsum("iab,bc->iac", tensors[k], x)
        tensors[k + 1] = np.einsum("ab,ibc->iac", xinv, tensors[k + 1])
    scrambled = MatrixProductState(tensors, boundary="open", scale=mps.scale)
    canon = canonicalize(scrambled)
    for lam in canon.lambdas:
        assert np.allclose(np.sort(lam), [0.5, 0.5], atol=1e-10)
    orig, _ = mps.to_dense()
    new, _ = canon.to_dense()
    assert abs(np.vdot(orig.amplitudes, new.amplitudes)) >= 1 - 1e-10


def test_canonicalize_rejects_periodic():
    with pytest.raises(ValueError):
        canonicalize(ghz_mps(4))


def test_canonical_conditions_random_mps():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(3, 9))
        raw = random_mps(n, 2, 4, rng)
        canon = canonicalize(raw)
        defects = canonical_defects(canon)
        assert max(defects.values()) <= 1e-8
        a, _ = raw.to_dense()
        b, _ = canon.to_dense()
        assert abs(np.vdot(a.amplitudes, b.amplitudes)) >= 1 - 1e-10


def test_canonicalize_preserves_norm_in_scale():
    rng = np.random.default_rng(4)
    raw = random_mps(6, 2, 4, rng)
    raw_dense = raw.dense_amplitudes()
    canon = canonicalize(raw)
    assert abs(canon.scale) == pytest.approx(np.linalg.norm(raw_dense), rel=1e-10)
    assert overlap(canon, canon).real == pytest.approx(abs(canon.scale) ** 2, rel=1e-10)


def test_from_dense_requires_uniform_dims():
    amp = np.zeros(6, dtype=complex)
    amp[0] = 1.0
    with pytest.raises(ValueError, match="uniform"):
        from_dense(PureState((2, 3), amp))


def test_truncate_requires_canonical():
    rng = np.random.default_rng(17)
    raw = random_mps(5, 2, 4, rng)
    with pytest.raises(ValueError, match="canonical"):
        truncate(raw, 2)


def test_truncate_identity_when_d_large():
    mps, _ = from_dense(dense_ghz(6))
    out, report = truncate(mps, 2)
    assert report.bound == 0.0
    assert out.bond_dims == mps.bond_dims


def test_truncate_ghz_to_product():
    n = 6
    mps, _ = from_dense(dense_ghz(n))
    out, report = truncate(mps, 1)
    assert np.allclose(report.discarded, [0.5] * (n - 1))
    assert report.bound == pytest.approx(n - 1.0)
    psi = dense_ghz(n).amplitudes
    psi_d = out.dense_amplitudes()
    assert np.linalg.norm(psi - psi_d) ** 2 <= report.bound + 1e-12


def test_truncation_bound_random_states():
    rng = np.random.default_rng(5)
    for trial in range(100):
        psi = random_pure((2,) * 8, rng)
        full, _ = from_dense(psi)
        for dmax in (1, 2, 4):
            out, report = truncate(full, dmax)
            dist_sq = np.linalg.norm(psi.amplitudes - out.dense_amplitudes()) ** 2
            assert dist_sq <= report.bound + 1e-10


def test_renyi_truncation_bound():
    rng = np.random.default_rng(6)
    alpha = 0.5
    for _ in range(100):
        lam = np.sort(rng.dirichlet(np.ones(32)))[::-1]
        s_alpha = math.log((lam ** alpha).sum()) / (1 - alpha)
        for dmax in (2, 4, 8):
            eps = lam[dmax:].sum()
            bound = renyi_truncation_bound(s_alpha, alpha, dmax)
            if eps > 0:
                assert math.log(eps) <= bound + 1e-12
    # flat spectrum fully kept: nothing discarded, bound stays finite
    lam = np.full(4, 0.25)
    s_alpha = math.log((lam ** alpha).sum()) / (1 - alpha)
    assert lam[8:].sum() == 0.0
    assert np.isfinite(renyi_truncation_bound(s_alpha, alpha, 8))
    # bound is increasing in the entropy at fixed D
    assert renyi_truncation_bound(1.0, alpha, 4) < renyi_truncation_bound(2.0, alpha, 4)
    with pytest.raises(ValueError):
        renyi_truncation_bound(1.0, 1.5, 4)


def test_lambdas_are_squared_schmidt_coefficients():
    from entlab.states import schmidt

    rng = np.random.default_rng(14)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        psi = random_pure((2,) * n, rng)
        canon, _ = from_dense(psi)
        for cut in range(1, n):
            lam2 = np.sort(schmidt(psi, cut).coefficients ** 2)
            stored = np.sort(canon.lambdas[cut - 1])
            assert stored.size == lam2.size
            assert np.abs(stored - lam2).max() <= 1e-8


def test_canonicalize_idempotent():
    rng = np.random.default_rng(15)
    canon = canonicalize(random_mps(6, 2, 4, rng))
    again = canonicalize(canon)
    assert max(canonical_defects(again).values()) <= 1e-10
    for a, b in zip(canon.lambdas, again.lambdas):
        assert np.abs(np.sort(a) - np.sort(b)).max() <= 1e-12
    assert abs(abs(again.scale) - abs(canon.scale)) <= 1e-12


def test_block_entropy_matches_dense():
    rng = np.random.default_rng(7)
    psi = random_pure((2,) * 8, rng)
    mps, _ = from_dense(psi)
    for cut in range(1, 8):
        s_mps = block_entropy(mps, cut)
        s_dense = von_neumann_entropy(partial_trace_pure(psi, cut, "A"))
        assert s_mps == pytest.approx(s_dense, abs=1e-8)


def test_ghz_mps_dense_form():
    psi, _ = ghz_mps(4).to_dense()
    target = dense_ghz(4).amplitudes
    assert min(np.linalg.norm(psi.amplitudes - target),
               np.linalg.norm(psi.amplitudes + target)) <= 1e-12


def test_antiferro_ghz_dense_form():
    psi, _ = antiferro_ghz_mps(4).to_dense()
    target = np.zeros(16, dtype=complex)
    target[int("0101", 2)] = target[int("1010", 2)] = 1 / math.sqrt(2)
    assert min(np.linalg.norm(psi.amplitudes - target),
               np.linalg.norm(psi.amplitudes + target)) <= 1e-12


def test_expectation_matches_dense():
    rng = np.random.default_rng(16)
    # open random state via canonical form
    psi = random_pure((2,) * 8, rng)
    state, _ = from_dense(psi)
    ops = {}
    full = np.array([[1.0 + 0j]])
    for site in range(8):
        if site in (1, 4, 6):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            ops[site] = g + g.conj().T
            full = np.kron(full, ops[site])
        else:
            full = np.kron(full, np.eye(2))
    dense_val = np.vdot(psi.amplitudes, full @ psi.amplitudes)
    assert expectation(state, ops) == pytest.approx(dense_val, abs=1e-9)
    # periodic constructor against its dense form
    aklt = aklt_mps6 = None
    from entlab.mps import aklt_mps

    aklt = aklt_mps(6)
    dense_state, _ = aklt.to_dense()
    sz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    op = np.array([[1.0 + 0j]])
    for site in range(6):
        op = np.kron(op, sz if site in (0, 3) else np.eye(3))
    dense_val = np.vdot(dense_state.amplitudes, op @ dense_state.amplitudes)
    assert expectation(aklt, {0: sz, 3: sz}) == pytest.approx(dense_val, abs=1e-9)


def test_ghz_correlations():
    mps = ghz_mps(6)
    for k in range(1, 6):
        val = expectation(mps, {0: PAULI_Z, k: PAULI_Z})
        assert val.real == pytest.approx(1.0, abs=1e-10)
    assert expectation(mps, {}).real == pytest.approx(1.0)


def test_cluster_stabilizers_single_sign():
    for n in (5, 6, 8):
        mps = cluster_mps(n)
        psi, _ = mps.to_dense()
        vals = []
        for i in range(n):
            ops = {(i - 1) % n: PAULI_Z, i: PAULI_X, (i + 1) % n: PAULI_Z}
            vals.append(expectation(mps, ops).real)
        assert np.allclose(vals, CLUSTER_STABILIZER_SIGN, atol=1e-10)
        # cross-check one stabilizer on the dense vector
        from entlab.linalg import kron

        mats = [np.eye(2)] * n
        mats[0], mats[1], mats[2] = PAULI_Z, PAULI_X, PAULI_Z
        op = mats[0]
        for m in mats[1:]:
            op = kron(op, m)
        dense_val = np.real(psi.amplitudes.conj() @ op @ psi.amplitudes)
        assert dense_val == pytest.approx(CLUSTER_STABILIZER_SIGN, abs=1e-10)


def test_majumdar_ghosh_even_only():
    with pytest.raises(ValueError):
        majumdar_ghosh_mps(5)


def test_classical_superposition_infinite_temperature():
    mps = classical_superposition_mps(lambda a, b: -a * b, 0.0, 6)
    psi, _ = mps.to_dense()
    assert np.allclose(np.abs(psi.amplitudes), 2 ** -3, atol=1e-12)


def test_classical_superposition_matches_gibbs():
    n, beta, jcoup = 8, 0.6, 1.0
    mps = classical_superposition_mps(lambda a, b: -jcoup * a * b, beta, n)
    psi, _ = mps.to_dense()
    spins = 1 - 2 * ((np.arange(2 ** n)[:, None] >> np.arange(n)[None, :]) & 1)
    energy = -jcoup * (spins * np.roll(spins, -1, axis=1)).sum(axis=1)
    target = np.exp(-beta * energy / 2)
    target /= np.linalg.norm(target)
    phase = psi.amplitudes[0] / target[0]
    assert np.abs(psi.amplitudes - phase * target).max() <= 1e-10


def test_classical_superposition_ground_state_limit():
    mps = classical_superposition_mps(lambda a, b: -a * b, 6.0, 6)
    psi, _ = mps.to_dense()
    p = np.abs(psi.amplitudes) ** 2
    assert p[0] + p[-1] >= 0.99


def test_classical_superposition_rejects_nonpsd():
    with pytest.raises(ValueError, match="negative eigenvalue"):
        classical_superposition_mps(lambda a, b: +a * b, 1.0, 6)


def test_classical_superposition_area_law():
    # block entropy of the thermal superposition is bounded by log2 D = 1 bit
    for n in (6, 8, 10):
        mps = classical_superposition_mps(lambda a, b: -a * b, 0.7, n)
        psi, _ = mps.to_dense()
        canon, _ = from_dense(psi)
        for cut in range(1, n):
            assert block_entropy(canon, cut) <= 1.0 + 1e-9
        assert np.abs(psi.amplitudes.imag).max() <= 1e-12


def test_dense_limit_guard():
    mps = ghz_mps(18)
    with pytest.raises(ResourceLimitError):
        mps.to_dense()


@pytest.mark.parametrize("build, last, first", [
    (ghz_mps, 511, 512), (aklt_mps, 646, 647), (cluster_mps, 1023, 1024),
    (majumdar_ghosh_mps, 2044, 2046),
])
def test_norm_overflow_is_a_numerical_error(build, last, first):
    # the squared norm grows geometrically with the chain; past the float
    # range it is inf or nan, which must neither warn nor become a scale of 0
    assert 0 < abs(build(last).scale) < math.inf
    with pytest.raises(NumericalError, match="float range"):
        build(first)


def test_periodic_contraction_outside_the_float_range_is_a_numerical_error():
    huge = MatrixProductState([np.full((2, 2, 2), 1e200)] * 4, boundary="periodic")
    with pytest.raises(NumericalError):
        overlap(huge, huge)
    with pytest.raises(NumericalError):
        expectation(huge, {0: PAULI_Z})
    zero = MatrixProductState([np.zeros((2, 2, 2))] * 4, boundary="periodic")
    with pytest.raises(NumericalError):
        expectation(zero, {})


def test_json_roundtrip_lossless():
    rng = np.random.default_rng(8)
    mps = canonicalize(random_mps(5, 2, 4, rng))
    doc = to_json_dict(mps)
    import json

    back = from_json_dict(json.loads(json.dumps(doc)))
    assert back.boundary == mps.boundary
    assert back.scale == mps.scale
    for a, b in zip(back.tensors, mps.tensors):
        assert np.array_equal(a, b)
    for a, b in zip(back.lambdas, mps.lambdas):
        assert np.array_equal(a, b)

