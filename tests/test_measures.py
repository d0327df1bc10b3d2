from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from entlab import selftest
from entlab.linalg import check_hermitian, kron, trace_norm
from entlab.measures import (
    QuantumMap,
    Witness,
    binary_entropy,
    concurrence_2q,
    concurrence_pure,
    eof_2q,
    is_completely_positive,
    kraus_operators,
    log_negativity,
    negativity,
    reduction_map,
    swap_operator,
    transposition_map,
    unitary_conjugation_map,
    witness_from_npt,
    witness_value,
)
from entlab.states import (
    DensityMatrix,
    PureState,
    bell_state,
    is_ppt,
    max_entangled,
    partial_trace_pure,
    partial_transpose,
    partial_transpose_matrix,
    random_density,
    random_pure,
    random_separable,
    von_neumann_entropy,
)


def werner_like(p: float) -> DensityMatrix:
    m = p * max_entangled(2).projector().matrix + (1 - p) * np.eye(4) / 4
    return DensityMatrix((2, 2), m)


def random_psd(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g @ g.conj().T


def test_negativity_maximally_entangled():
    for d in range(2, 7):
        rho = max_entangled(d).projector()
        assert negativity(rho) == pytest.approx((d - 1) / 2, abs=1e-10)
        assert log_negativity(rho) == pytest.approx(np.log2(d), abs=1e-10)


def test_negativity_separable_and_ppt():
    rng = np.random.default_rng(0)
    for _ in range(50):
        sep = random_separable(2, 2, rng)
        assert negativity(sep) <= 1e-10
    # any PPT state has zero negativity
    for _ in range(200):
        rho = random_density((2, 2), rng)
        if is_ppt(rho)[0]:
            assert negativity(rho) <= 1e-9


def test_log_negativity_relation_and_additivity():
    rng = np.random.default_rng(1)
    for _ in range(50):
        rho = random_density((2, 3), rng)
        assert log_negativity(rho) == pytest.approx(
            np.log2(2 * negativity(rho) + 1), abs=1e-10
        )
    # additivity across a tensor product of two 2x2 pairs (cut groups A = {0, 2})
    r1 = werner_like(0.9)
    r2 = werner_like(0.7)
    big = kron(r1.matrix, r2.matrix).reshape(2, 2, 2, 2, 2, 2, 2, 2)
    # reorder from (a1 b1 a2 b2) to (a1 a2 b1 b2)
    big = big.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)
    joint = DensityMatrix((4, 4), big)
    assert log_negativity(joint) == pytest.approx(
        log_negativity(r1) + log_negativity(r2), abs=1e-9
    )


def test_log_negativity_bounds_entropy():
    rng = np.random.default_rng(2)
    for _ in range(100):
        psi = random_pure((3, 4), rng)
        s = von_neumann_entropy(partial_trace_pure(psi, 1))
        assert s <= log_negativity(psi.projector()) + 1e-9


def test_concurrence_pure():
    rng = np.random.default_rng(3)
    a, b = random_pure((2,), rng), random_pure((5,), rng)
    prod = PureState((2, 5), np.kron(a.amplitudes, b.amplitudes))
    assert concurrence_pure(prod) == pytest.approx(0.0, abs=1e-10)
    for d in (2, 3, 4):
        assert concurrence_pure(max_entangled(d)) == pytest.approx(
            np.sqrt(2 * (1 - 1 / d)), abs=1e-12
        )
    assert concurrence_pure(bell_state()) == pytest.approx(1.0)


def test_concurrence_2q_reference_states():
    assert concurrence_2q(bell_state().projector()) == pytest.approx(1.0, abs=1e-10)
    rng = np.random.default_rng(4)
    for _ in range(50):
        sep = random_separable(2, 2, rng)
        assert concurrence_2q(sep) <= 1e-8
    assert concurrence_2q(DensityMatrix((2, 2), np.eye(4) / 4)) == pytest.approx(0.0)


def test_concurrence_2q_matches_pure_formula():
    rng = np.random.default_rng(5)
    for _ in range(500):
        psi = random_pure((2, 2), rng)
        assert concurrence_2q(psi.projector()) == pytest.approx(
            concurrence_pure(psi), abs=1e-8
        )


def test_eof_values():
    assert eof_2q(bell_state().projector()) == pytest.approx(1.0, abs=1e-10)
    rng = np.random.default_rng(6)
    sep = random_separable(2, 2, rng)
    assert eof_2q(sep) == pytest.approx(0.0, abs=1e-7)
    assert binary_entropy(0.5) == pytest.approx(1.0)
    assert binary_entropy(0.0) == 0.0


def test_eof_equals_reduction_entropy_on_pure():
    rng = np.random.default_rng(7)
    for _ in range(200):
        psi = random_pure((2, 2), rng)
        assert eof_2q(psi.projector()) == pytest.approx(
            von_neumann_entropy(partial_trace_pure(psi, 1)), abs=1e-8
        )


def test_eof_monotone_in_concurrence_werner_sweep():
    vals = []
    for p in np.linspace(0, 1, 21):
        rho = werner_like(p)
        vals.append((concurrence_2q(rho), eof_2q(rho)))
    vals.sort()
    eofs = [v[1] for v in vals]
    assert all(eofs[i] <= eofs[i + 1] + 1e-12 for i in range(len(eofs) - 1))


def test_witness_requires_negative_eigenvalue():
    with pytest.raises(ValueError):
        Witness(np.eye(4), (2, 2))


def test_witness_checks_its_shape_before_hermiticity():
    # a non-square operator would reach the Hermiticity test and fail to broadcast there
    for op in (np.ones((4, 2)), np.ones(4), np.eye(6)):
        with pytest.raises(ValueError, match="operator shape does not match dims"):
            Witness(op, (2, 2))


def test_witness_from_npt_bell():
    rho = bell_state().projector()
    w = witness_from_npt(rho)
    assert witness_value(w, rho) == pytest.approx(-0.5, abs=1e-10)
    rng = np.random.default_rng(8)
    for _ in range(1000):
        sigma = random_separable(2, 2, rng)
        assert witness_value(w, sigma) >= -1e-9


def test_witness_from_npt_werner_family():
    for p in (0.5, 0.8, 1.0):
        rho = werner_like(p)
        w = np.linalg.eigvalsh(partial_transpose(rho))
        assert w[0] == pytest.approx((1 - 3 * p) / 4, abs=1e-12)
        wit = witness_from_npt(rho)
        assert witness_value(wit, rho) == pytest.approx((1 - 3 * p) / 4, abs=1e-10)
    with pytest.raises(ValueError):
        witness_from_npt(werner_like(0.2))


def same_float(x, y):
    return np.float64(x).tobytes() == np.float64(y).tobytes()


def checked_measures(rho):
    """negativity, log_negativity, is_ppt, concurrence_2q, eof_2q and the
    witness_from_npt operator with every derived matrix passed through
    check_hermitian before its eigensolve."""
    da = rho.dims[0]
    pt_b = check_hermitian(partial_transpose(rho))
    w_b = np.linalg.eigvalsh(pt_b)
    out = {"negativity": float(-w_b[w_b < 0].sum()),
           "log_negativity": float(np.log2(trace_norm(partial_transpose(rho)))),
           "is_ppt": (bool(w_b[0] >= -1e-10), float(w_b[0]))}
    w, v = np.linalg.eigh(pt_b)
    if w[0] < -1e-10:
        op = partial_transpose_matrix(np.outer(v[:, 0], v[:, 0].conj()), da, rho.dim // da)
        out["witness"] = check_hermitian(np.asarray(op, dtype=complex))
    if rho.dims == (2, 2):
        sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        yy = kron(sy, sy)
        w, v = np.linalg.eigh(check_hermitian(rho.matrix))
        keep = w > 1e-14 * w[-1]
        a = v[:, keep] * np.sqrt(np.clip(w[keep], 0.0, None))
        lam = np.zeros(4)
        sv = np.linalg.svd(a.T @ yy @ a, compute_uv=False)
        lam[: sv.size] = sv
        lam.sort()
        lam = lam[::-1]
        c = float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))
        out["concurrence_2q"] = c
        out["eof_2q"] = binary_entropy((1.0 + np.sqrt(max(1.0 - c * c, 0.0))) / 2.0)
    return out


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (4, 4)])
def test_measures_are_bitwise_those_of_rechecked_partial_transposes(dims):
    rng = np.random.default_rng(40 + dims[0] * dims[1])
    states = [random_density(dims, rng) for _ in range(20)]
    states += [random_density(dims, rng, rank=1) for _ in range(10)]
    states += [random_pure(dims, rng).projector() for _ in range(10)]
    states += [random_separable(*dims, rng) for _ in range(10)]
    witnesses = 0
    for rho in states:
        ref = checked_measures(rho)
        assert same_float(negativity(rho), ref["negativity"])
        assert same_float(log_negativity(rho), ref["log_negativity"])
        verdict, low = is_ppt(rho)
        assert verdict == ref["is_ppt"][0] and same_float(low, ref["is_ppt"][1])
        if "witness" in ref:
            op = witness_from_npt(rho).operator
            assert op.tobytes() == ref["witness"].tobytes()
            witnesses += 1
        else:
            with pytest.raises(ValueError):
                witness_from_npt(rho)
        if dims == (2, 2):
            assert same_float(concurrence_2q(rho), ref["concurrence_2q"])
            assert same_float(eof_2q(rho), ref["eof_2q"])
    assert witnesses >= 20  # the pure and rank-one states are NPT
    # one stacked call: every row is the single call's value, bit for bit
    stack = DensityMatrix(dims, np.stack([rho.matrix for rho in states]))
    assert stack.count == len(states)
    wit = witness_from_npt(states[-15])  # a pure state: NPT
    values = witness_value(wit, stack)
    assert [v.tobytes() for v in values] == [
        np.float64(witness_value(wit, rho)).tobytes() for rho in states]
    if dims == (2, 2):
        for measure in (concurrence_2q, eof_2q):
            assert [v.tobytes() for v in measure(stack)] == [
                np.float64(measure(rho)).tobytes() for rho in states]


def test_witness_samples_in_blocks_are_the_per_sample_minimum():
    # 300 samples: one block of MC_BLOCK = 256 and one of 44
    wit = witness_from_npt(werner_like(0.8))
    rng = np.random.default_rng(9)
    want = min(witness_value(wit, random_separable(2, 2, rng)) for _ in range(300))
    got = selftest.witness(0.8, 300, 9).values["min_on_separable_samples"]
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_pure_stacks_give_the_single_measures_bit_for_bit():
    rng = np.random.default_rng(43)
    for dims in ((2, 2), (2, 3), (3, 3)):
        psi = random_pure(dims, rng, 40)
        singles = [PureState(dims, row) for row in psi.amplitudes]
        assert [v.tobytes() for v in concurrence_pure(psi)] == [
            np.float64(concurrence_pure(one)).tobytes() for one in singles]
        entropies = von_neumann_entropy(partial_trace_pure(psi, 1))
        assert [v.tobytes() for v in entropies] == [
            np.float64(von_neumann_entropy(partial_trace_pure(one, 1))).tobytes()
            for one in singles]


def test_scaled_witness_value_is_real_and_scales():
    rng = np.random.default_rng(41)
    psi = random_pure((2, 3), rng)
    w = witness_from_npt(psi.projector())
    scaled = Witness(1e8 * w.operator, (2, 3))
    for _ in range(200):
        rho = random_density((2, 3), rng)
        value = witness_value(scaled, rho)
        assert type(value) is float
        assert value == pytest.approx(1e8 * witness_value(w, rho), rel=1e-12)


def test_swap_witness_misses_max_entangled():
    v = swap_operator(2)
    w = Witness(v, (2, 2))
    assert witness_value(w, max_entangled(2).projector()) >= 0


def test_apply_map_identity_and_transposition():
    rng = np.random.default_rng(9)
    rho = random_density((2, 3), rng)
    ident = unitary_conjugation_map(np.eye(3))
    assert np.allclose(ident(rho.matrix), rho.matrix, atol=1e-12)
    t = transposition_map(3)
    assert np.allclose(t(rho.matrix), partial_transpose(rho), atol=1e-12)


def test_reduction_map_detects_max_entangled():
    for d in range(2, 6):
        out = reduction_map(d)(max_entangled(d).projector().matrix)
        w = np.linalg.eigvalsh(out)
        assert w[0] == pytest.approx((1 - d) / d, abs=1e-10)
        assert w[0] < 0


def test_reduction_map_positive_on_psd():
    rng = np.random.default_rng(10)
    red = reduction_map(4)
    for _ in range(500):
        x = random_psd(4, rng)
        w = np.linalg.eigvalsh(red(x))
        assert w[0] >= -1e-10 * max(1.0, np.abs(x).max())


def test_reduction_map_identity_value():
    for d in (2, 3, 5):
        red = reduction_map(d)
        assert np.allclose(red(np.eye(d)), (d - 1) * np.eye(d), atol=1e-12)


def test_reduction_equals_cp_compose_transpose():
    d = 3
    red = reduction_map(d)
    basis = np.eye(d)
    # V_kl = |k><l| - |l><k|, the Kraus operators of the CP part of Lambda_r o T
    vs = [np.outer(basis[k], basis[l]) - np.outer(basis[l], basis[k])
          for k in range(d) for l in range(k + 1, d)]
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        via_kraus = sum(v @ x.T @ v.conj().T for v in vs)
        assert np.allclose(via_kraus, red(x), atol=1e-12)


def test_choi_normalization_and_roundtrip():
    d = 3
    ident = unitary_conjugation_map(np.eye(d))
    assert np.allclose(ident.choi, d * max_entangled(d).projector().matrix, atol=1e-12)
    assert np.trace(ident.choi).real == pytest.approx(d)

    rng = np.random.default_rng(13)
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    cases = ((unitary_conjugation_map(u), lambda e: u @ e @ u.conj().T),
             (reduction_map(d), lambda e: np.trace(e) * np.eye(d) - e),
             (transposition_map(d), lambda e: e.T))
    for qmap, action in cases:
        rebuilt = QuantumMap(d, d, choi=qmap.choi)
        for i in range(d):
            for j in range(d):
                e = np.zeros((d, d), dtype=complex)
                e[i, j] = 1.0
                assert np.abs(qmap(e) - action(e)).max() <= 1e-12
                assert np.array_equal(rebuilt(e), qmap(e))


def blockwise_choi(dim_in, action):
    """Reference Choi matrix sum_ij |i><j| (x) action(|i><j|), block by block."""
    blocks = [[action(np.outer(np.eye(dim_in)[i], np.eye(dim_in)[j])) for j in range(dim_in)]
              for i in range(dim_in)]
    return np.block(blocks)


def test_kraus_pairs_become_the_choi_of_their_sum():
    rng = np.random.default_rng(30)
    d_in, d_out = 3, 2
    pairs = [(eta, rng.standard_normal((d_out, d_in)) + 1j * rng.standard_normal((d_out, d_in)))
             for eta in (0.5, -1.25, 2.0)]
    qmap = QuantumMap(d_in, d_out, kraus_pairs=pairs)
    kraus_sum = lambda x: sum(eta * v @ x @ v.conj().T for eta, v in pairs)
    assert np.abs(qmap.choi - blockwise_choi(d_in, kraus_sum)).max() <= 1e-12
    for _ in range(5):
        x = rng.standard_normal((d_in, d_in)) + 1j * rng.standard_normal((d_in, d_in))
        assert np.abs(qmap(x) - kraus_sum(x)).max() <= 1e-12
    with pytest.raises(ValueError):
        QuantumMap(d_in, d_out, kraus_pairs=[(1.0, np.eye(d_in))])
    with pytest.raises(ValueError):
        QuantumMap(d_in, d_out)


def test_closed_form_chois_equal_their_constructions():
    for d in (2, 3, 4, 5):
        units = [(1.0, np.outer(np.eye(d)[k], np.eye(d)[l])) for k in range(d) for l in range(d)]
        kraus = QuantumMap(d, d, kraus_pairs=units + [(-1.0, np.eye(d))])
        assert np.array_equal(reduction_map(d).choi, kraus.choi)
        assert np.array_equal(transposition_map(d).choi, blockwise_choi(d, lambda e: e.T))
        swap = swap_operator(d)
        assert np.array_equal(swap, blockwise_choi(d, lambda e: e.T))
        via_pt = partial_transpose_matrix(d * max_entangled(d).projector().matrix, d, d)
        assert np.abs(swap - via_pt).max() <= 1e-15


def test_choi_is_read_only_and_hermitian():
    qmap = reduction_map(3)
    with pytest.raises(ValueError):
        qmap.choi[0, 0] = 2.0
    assert np.array_equal(qmap.choi, qmap.choi.conj().T)


def test_apply_map_equals_the_blockwise_loop():
    rng = np.random.default_rng(31)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    for da, db in ((1, 2), (2, 2), (3, 2), (2, 3), (4, 3), (2, 5)):
        rho = random_density((da, db), rng)
        t = rho.matrix.reshape(da, db, da, db)
        maps = [reduction_map(db), transposition_map(db)]
        if db == 3:
            maps.append(unitary_conjugation_map(u))
        for qmap in maps:
            # Lambda(X) on one block by its own einsum, a second route frozen here
            c = qmap.choi.reshape(db, db, db, db)
            loop = np.zeros((da, db, da, db), dtype=complex)
            for i in range(da):
                for j in range(da):
                    loop[i, :, j, :] = np.einsum("iajb,ij->ab", c, t[i, :, j, :])
            assert np.array_equal(qmap(rho.matrix), loop.reshape(da * db, da * db))


def test_a_map_rejects_an_input_whose_side_is_no_multiple_of_dim_in():
    qmap = reduction_map(3)
    for x in (np.array(1.0), np.ones(9), np.ones((3, 6)), np.ones((4, 4)), np.ones((3, 3, 3))):
        with pytest.raises(ValueError, match="multiple of dim_in"):
            qmap(x)


def test_choi_spectrum_is_read_only_and_the_eigvalsh_of_choi():
    rng = np.random.default_rng(32)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    pairs = [(eta, rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
             for eta in (0.5, -1.25)]
    for qmap in (reduction_map(3), transposition_map(4), unitary_conjugation_map(u),
                 QuantumMap(3, 2, kraus_pairs=pairs)):
        assert np.array_equal(qmap.choi_spectrum, np.linalg.eigvalsh(qmap.choi))
        with pytest.raises(ValueError):
            qmap.choi_spectrum[0] = 0.0
        with pytest.raises(FrozenInstanceError):
            qmap.choi_spectrum = np.zeros(qmap.choi.shape[0])


def frozen_map_application(qmap, rho):
    """(1 (x) Lambda)(rho) by the blockwise einsum over rho's first factor, a fixed reference."""
    da = rho.dims[0]
    db = rho.dim // da
    c = qmap.choi.reshape(db, qmap.dim_out, db, qmap.dim_out)
    out = np.einsum("kalb,ikjl->iajb", c, rho.matrix.reshape(da, db, da, db))
    return out.reshape(da * qmap.dim_out, da * qmap.dim_out)


def reference_positive_map_values(d, seed):
    """The values of selftest.positive_maps, each Choi matrix diagonalized by its own eigvalsh."""
    psd = selftest.TOLERANCES["choi_psd"]

    def cp(qmap):
        scale = max(abs(np.trace(qmap.choi).real), 1.0)
        return bool(np.linalg.eigvalsh(qmap.choi)[0] >= -psd * scale)

    red = reduction_map(d)
    plus = max_entangled(d).projector()
    detect = float(np.linalg.eigvalsh(frozen_map_application(red, plus))[0])
    choi_red = float(np.linalg.eigvalsh(red.choi)[0])
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    uni = unitary_conjugation_map(u)
    choi_uni = float(np.linalg.eigvalsh(uni.choi)[0])
    lifted = [kron(np.eye(d), k) for k in kraus_operators(uni)]
    via_kraus = sum(k @ plus.matrix @ k.conj().T for k in lifted)
    return {"d": d, "reduction_detection_min_eig": detect, "choi_reduction_min_eig": choi_red,
            "choi_unitary_min_eig": choi_uni, "transposition_cp": cp(transposition_map(d)),
            "reduction_cp": cp(red),
            "kraus_deviation": float(np.abs(via_kraus - frozen_map_application(uni, plus)).max())}


def test_positive_maps_values_are_bitwise_those_of_the_reference():
    for d in range(2, 7):
        for seed in range(3):
            assert repr(selftest.positive_maps(d, seed).values) == \
                repr(reference_positive_map_values(d, seed))


def test_positive_maps_diagonalizes_each_matrix_once(monkeypatch):
    # the state's validation, the detection spectrum, one eigvalsh per map at
    # construction (reduction, unitary, transposition) and the Kraus eigh
    solves = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *args, _f=original, _n=name, **kw:
                            solves.append(_n) or _f(a, *args, **kw))
    for seed in range(3):
        solves.clear()
        selftest.positive_maps(3, seed)
        assert sorted(solves) == ["eigh"] + ["eigvalsh"] * 5


def test_choi_psd_iff_cp():
    d = 3
    rng = np.random.default_rng(14)
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    assert is_completely_positive(unitary_conjugation_map(u))
    assert not is_completely_positive(transposition_map(d))
    assert not is_completely_positive(reduction_map(d))
    assert np.linalg.eigvalsh(transposition_map(d).choi)[0] < -1e-3
    assert np.linalg.eigvalsh(reduction_map(d).choi)[0] < -1e-3


def test_kraus_extraction():
    rng = np.random.default_rng(15)
    d = 3
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    # CP map with two Kraus branches
    qmap = QuantumMap(d, d, kraus_pairs=[(0.25, np.eye(d)), (0.75, u)])
    ops = kraus_operators(qmap)
    for a in range(len(ops)):
        for b in range(len(ops)):
            hs = np.trace(ops[a].conj().T @ ops[b])
            if a != b:
                assert abs(hs) <= 1e-8
    x = random_psd(d, rng)
    rebuilt = sum(k @ x @ k.conj().T for k in ops)
    assert np.abs(rebuilt - qmap(x)).max() <= 1e-9 * np.abs(x).max()
    with pytest.raises(ValueError):
        kraus_operators(transposition_map(d))


def test_map_from_witness_consistency():
    # the swap witness maps back to the transposition map
    v = swap_operator(2)
    w = Witness(v, (2, 2))
    qmap = QuantumMap(w.dims[0], w.dims[1], choi=w.operator)  # the witness as a Choi matrix
    rng = np.random.default_rng(16)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.allclose(qmap(x), x.T, atol=1e-12)


def test_decomposable_witness_blind_to_ppt():
    rng = np.random.default_rng(17)
    witnesses = []
    for _ in range(4):
        p = random_psd(4, rng)
        q = random_psd(4, rng)
        witnesses.append(p / np.trace(p).real
                         + partial_transpose_matrix(q / np.trace(q).real, 2, 2))
    ppt_states = []
    trial = 0
    while len(ppt_states) < 200:
        rho = random_density((2, 2), np.random.default_rng(1000 + trial))
        trial += 1
        if is_ppt(rho)[0]:
            ppt_states.append(rho)
    for w in witnesses:
        for rho in ppt_states:
            assert np.trace(w @ rho.matrix).real >= -1e-9
