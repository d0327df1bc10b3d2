import math

import numpy as np
import pytest
import scipy.sparse

from entlab.chains import (
    SpinHamiltonian,
    build_aklt,
    build_cluster,
    build_mg,
    build_xy,
    block_entropy_scan,
    classical_gibbs_mutual_info,
    free_energy,
    free_fermion_entropy_scan,
    ground_state,
    lowest_levels,
    markov_violation,
    mutual_info_area_check,
    spin1_matrices,
    thermal_state,
)
from entlab.kinetic import (
    KineticModel,
    TauSector,
    build_h_beta_single_flip,
    build_h_tau_single_flip,
    build_h_tau_two_flip,
)
from entlab.linalg import PAULI_X, PAULI_Y, PAULI_Z, kron, lanczos_lowest
from entlab.mps import aklt_mps, cluster_mps, majumdar_ghosh_mps
from entlab.states import DensityMatrix, PureState, random_density


def test_builders_are_hermitian():
    for ham in (build_xy(0.7, 0.9, 6), build_aklt(4), build_mg(6), build_cluster(-1, 6)):
        h = ham.dense()
        assert np.abs(h - h.conj().T).max() <= 1e-12


def test_build_xy_two_site_matrix():
    ham = build_xy(1.0, 0.0, 2, bc="open")
    target = -0.5 * kron(PAULI_X, PAULI_X).real
    assert np.allclose(ham.dense(), target, atol=1e-14)


def test_build_xy_xx_model_has_no_xx_anisotropy():
    # gamma = 0: XX and YY enter with equal weight, U(1) symmetric
    ham = build_xy(0.0, 0.3, 6)
    total_z = sum(
        kron(*[PAULI_Z if i == j else np.eye(2) for i in range(6)]) for j in range(6)
    )
    h = ham.dense()
    assert np.abs(h @ total_z - total_z @ h).max() <= 1e-12


def test_xy_field_reversal_symmetry():
    # global spin flip conjugates h into -h, so the spectra coincide
    n = 8
    h_plus = build_xy(0.6, 0.8, n).dense()
    h_minus = build_xy(0.6, -0.8, n).dense()
    flip = kron(*([PAULI_X.real] * n))
    assert np.abs(flip @ h_plus @ flip - h_minus).max() <= 1e-12
    w_plus = np.linalg.eigvalsh(h_plus)
    w_minus = np.linalg.eigvalsh(h_minus)
    assert np.abs(np.sort(w_plus) - np.sort(w_minus)).max() <= 1e-10


def test_ground_state_polarized():
    n = 6
    ham = build_xy(0.0, 0.0, n)
    ham.terms.clear()
    for i in range(n):
        ham.add(-1.0, [(i, PAULI_Z)])
    w, v = ground_state(ham)
    assert w[0] == pytest.approx(-n)
    assert abs(v[0, 0]) == pytest.approx(1.0)


def test_ground_state_dense_vs_lanczos():
    ham = build_xy(1.0, 1.0, 10)
    wd, _ = ground_state(ham, k=2)  # dense at dimension 1024
    wl = lanczos_lowest(ham.sparse(), k=2, seed=0)
    assert np.abs(wd - wl).max() <= 1e-9


def test_lowest_levels_reject_more_levels_than_the_dimension():
    ham = build_xy(1.0, 1.0, 4)
    for op in (ham.dense(), ham.sparse()):
        assert lowest_levels(op, k=16).shape == (16,)
        with pytest.raises(ValueError, match="exceeds"):
            lowest_levels(op, k=17)


def test_sparse_matches_dense():
    for ham in (build_xy(0.4, 1.2, 6), build_mg(6), build_aklt(4)):
        assert np.abs(ham.sparse().toarray() - ham.dense()).max() <= 1e-12


def test_aklt_ground_energy_and_gap():
    for n in (4, 6):
        ham = build_aklt(n)
        w, _ = ground_state(ham, k=2)
        assert w[0] == pytest.approx(-2 * n / 3, abs=1e-8)
        assert w[1] - w[0] > 0.1


def test_aklt_mps_is_exact_ground_state():
    n = 6
    ham = build_aklt(n)
    h = ham.dense()
    psi, _ = aklt_mps(n).to_dense()
    e = float(np.real(psi.amplitudes.conj() @ h @ psi.amplitudes))
    w, _ = ground_state(ham, k=1)
    assert e == pytest.approx(w[0], abs=1e-8)
    assert np.linalg.norm(h @ psi.amplitudes - w[0] * psi.amplitudes) <= 1e-8


def test_mg_mps_is_exact_ground_state():
    n = 6
    ham = build_mg(n)
    h = ham.dense()
    w = np.linalg.eigvalsh(h)
    psi, _ = majumdar_ghosh_mps(n).to_dense()
    resid = np.linalg.norm(h @ psi.amplitudes - w[0] * psi.amplitudes)
    assert resid <= 1e-8
    assert w[0] == pytest.approx(-3 * n, abs=1e-10)


def test_cluster_mps_matches_stabilizer_hamiltonian():
    from entlab.mps import CLUSTER_STABILIZER_SIGN

    n = 6
    sign = CLUSTER_STABILIZER_SIGN
    ham = build_cluster(sign, n)
    psi, _ = cluster_mps(n).to_dense()
    e = float(np.real(psi.amplitudes.conj() @ ham.dense() @ psi.amplitudes))
    # the state is the sign-eigenstate of every term, so the energy is sign^2 * n
    assert e == pytest.approx(sign * sign * n, abs=1e-9)
    w, _ = ground_state(build_cluster(-sign, n), k=1)
    assert w[0] == pytest.approx(-n, abs=1e-8)


def test_block_entropy_scan_product_and_ghz():
    n = 8
    amp = np.zeros(2 ** n, dtype=complex)
    amp[0] = 1.0
    scan = block_entropy_scan(PureState((2,) * n, amp), range(1, n))
    assert max(scan.entropies_bits) <= 1e-10
    assert scan.slope == pytest.approx(0.0, abs=1e-10)

    amp[-1] = 1 / math.sqrt(2)
    amp[0] = 1 / math.sqrt(2)
    scan = block_entropy_scan(PureState((2,) * n, amp), range(1, n))
    assert np.allclose(scan.entropies_bits, 1.0, atol=1e-10)
    assert scan.slope == pytest.approx(0.0, abs=1e-10)


def test_block_entropy_complement_symmetry():
    # S(first n) equals S(complement) for pure states
    rng = np.random.default_rng(0)
    from entlab.states import partial_trace_pure, random_pure, von_neumann_entropy

    psi = random_pure((2,) * 8, rng)
    scan = block_entropy_scan(psi, range(1, 8))
    for n_block in range(1, 8):
        s_right = von_neumann_entropy(partial_trace_pure(psi, n_block, "B"))
        assert scan.entropies_bits[n_block - 1] == pytest.approx(s_right, abs=1e-9)


def test_free_fermion_matches_dense_grid():
    n = 10
    for gamma in (0.0, 0.5, 1.0):
        for h in (0.25, 0.8, 1.5):
            ham = build_xy(gamma, h, n)
            _, v = ground_state(ham, k=1)  # dense at dimension 1024
            psi = PureState((2,) * n, v[:, 0])
            dense_scan = block_entropy_scan(psi, [2, 3, 5])
            ff_scan = free_fermion_entropy_scan(gamma, h, n, [2, 3, 5], abscissa="log2n")
            assert np.abs(
                np.array(dense_scan.entropies_bits) - np.array(ff_scan.entropies_bits)
            ).max() <= 1e-6


def test_free_fermion_matches_dense_n12():
    # gapped points so the sparse eigensolver's vector is clean
    n = 12
    for gamma, h in ((1.0, 1.0), (0.5, 1.2)):
        ham = build_xy(gamma, h, n)
        _, v = ground_state(ham, k=1)  # Lanczos at dimension 4096
        psi = PureState((2,) * n, v[:, 0])
        dense_scan = block_entropy_scan(psi, [3, 6])
        ff_scan = free_fermion_entropy_scan(gamma, h, n, [3, 6], abscissa="log2n")
        assert np.abs(
            np.array(dense_scan.entropies_bits) - np.array(ff_scan.entropies_bits)
        ).max() <= 1e-6


def test_free_fermion_open_boundary():
    from entlab.freefermion import xy_ground_energy_free_fermion

    n = 8
    ham = build_xy(0.9, 0.7, n, bc="open")
    w, _ = ground_state(ham, k=1)
    assert xy_ground_energy_free_fermion(0.9, 0.7, n, bc="open") == pytest.approx(
        w[0], abs=1e-10
    )


def test_deep_paramagnet_is_nearly_product():
    s = free_fermion_entropy_scan(1.0, 20.0, 32, [4, 8, 16])
    assert max(s.entropies_bits) <= 0.01
    # saturated: block-size independent to high accuracy
    assert max(s.entropies_bits) - min(s.entropies_bits) <= 1e-8
    s = free_fermion_entropy_scan(1.0, 100.0, 32, [4, 8, 16])
    assert max(s.entropies_bits) <= 3e-4


@pytest.mark.slow
def test_critical_slopes_n128():
    scan = free_fermion_entropy_scan(1.0, 1.0, 128, range(8, 65), abscissa="chord")
    assert abs(scan.slope - 1 / 6) <= 0.02
    scan = free_fermion_entropy_scan(0.0, 0.0, 128, range(8, 65), abscissa="chord")
    assert abs(scan.slope - 1 / 3) <= 0.03


def test_thermal_state_limits():
    ham = build_xy(1.0, 1.5, 4)  # gapped point
    rho0 = thermal_state(ham, 0.0)
    assert np.allclose(rho0.matrix, np.eye(16) / 16, atol=1e-12)
    rho_cold = thermal_state(ham, 60.0)
    w, v = np.linalg.eigh(ham.dense())
    degeneracy = int((w < w[0] + 1e-10).sum())
    projector = v[:, :degeneracy] @ v[:, :degeneracy].conj().T
    assert np.abs(rho_cold.matrix - projector / degeneracy).max() <= 1e-6


def test_thermal_state_minimizes_free_energy():
    rng = np.random.default_rng(1)
    ham = build_xy(0.8, 0.6, 4)
    beta = 0.9
    rho_beta = thermal_state(ham, beta)
    f_star = free_energy(ham, rho_beta, beta)
    for _ in range(20):
        ra = random_density((2, 2), rng)
        rb = random_density((2, 2), rng)
        product = DensityMatrix((2,) * 4, np.kron(ra.matrix, rb.matrix))
        assert f_star <= free_energy(ham, product, beta) + 1e-10


def test_mutual_info_area_check():
    ham = build_xy(1.0, 1.0, 8)
    for beta in (0.1, 1.0):
        info, boundary, simple = mutual_info_area_check(ham, beta, 4)
        assert info >= -1e-9
        assert info <= boundary + 1e-9
        assert boundary <= simple + 1e-9
    info0, boundary0, _ = mutual_info_area_check(ham, 1e-12, 4)
    assert info0 == pytest.approx(0.0, abs=1e-8)
    assert boundary0 == pytest.approx(0.0, abs=1e-8)


def test_mutual_info_area_check_values_are_unchanged():
    # the row of mutualinfo.csv for `mutualinfo quantum --sites 10 --beta 1.0 --cut 5`
    assert mutual_info_area_check(build_xy(1.0, 1.0, 10), 1.0, 5) == \
        (0.19449310394059172, 0.40624782303664864, 2.0)


def test_mutual_info_area_check_diagonalizes_the_full_state_twice(monkeypatch):
    # eigh of H for the Gibbs weights and the validating eigvalsh of the Gibbs
    # state; the entropy of the state reuses that validated spectrum
    full_dim = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, _name=name, **kwargs):
            if np.shape(a)[0] == 1024:
                full_dim.append(_name)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    mutual_info_area_check(build_xy(1.0, 1.0, 10), 1.0, 5)
    assert full_dim == ["eigh", "eigvalsh"]


def test_mutual_info_product_hamiltonian():
    # no crossing terms: thermal state factorizes and I = 0
    n = 6
    ham = build_xy(0.0, 0.0, n, bc="open")
    ham.terms.clear()
    for i in range(n):
        ham.add(-0.7, [(i, PAULI_Z)])
        if i + 1 < n and (i + 1) != 3:
            ham.add(-0.4, [(i, PAULI_X), ((i + 1), PAULI_X)])
    info, boundary, simple = mutual_info_area_check(ham, 1.0, 3)
    assert info == pytest.approx(0.0, abs=1e-10)
    assert boundary == pytest.approx(0.0, abs=1e-10)
    assert simple == 0.0


def test_classical_gibbs_mutual_info():
    coupling = lambda a, b: -a * b
    info, bound, boundary_gap = classical_gibbs_mutual_info(coupling, 0.5, 12, 6)
    assert info <= bound + 1e-12
    assert bound == pytest.approx(2.0)
    assert boundary_gap <= 1e-9
    info0, _, gap0 = classical_gibbs_mutual_info(coupling, 0.0, 10, 5)
    assert info0 == pytest.approx(0.0, abs=1e-12)
    assert gap0 <= 1e-12


def test_markov_factorization():
    coupling = lambda a, b: -a * b
    assert markov_violation(coupling, 0.7, 10, 0, 5) <= 1e-12
    assert markov_violation(coupling, 1.3, 8, 2, 6) <= 1e-12


def test_spin1_algebra():
    s = spin1_matrices()
    comm = s["x"] @ s["y"] - s["y"] @ s["x"]
    assert np.abs(comm - 1j * s["z"]).max() <= 1e-12
    casimir = s["x"] @ s["x"] + s["y"] @ s["y"] + s["z"] @ s["z"]
    assert np.allclose(casimir, 2 * np.eye(3), atol=1e-12)


# ---------------------------------------------------------------------------
# assembly against the Kronecker-chain definition
# ---------------------------------------------------------------------------

def _kron_chain(ham, factors, kron_fn, identity):
    mats = dict(factors)
    out = None
    for s in range(ham.nsites):
        m = mats.get(s, identity)
        out = m if out is None else kron_fn(out, m)
    return out


def kron_reference_dense(ham):
    """Sum of coeff * (x)_s factor_s over the terms, real when imag <= 1e-14 relative."""
    dim = ham.local_dim ** ham.nsites
    out = np.zeros((dim, dim), dtype=complex)
    ident = np.eye(ham.local_dim, dtype=complex)
    for coeff, factors in ham.terms:
        out += coeff * _kron_chain(ham, factors, np.kron, ident)
    if np.abs(out.imag).max() <= 1e-14 * max(np.abs(out.real).max(), 1.0):
        return np.ascontiguousarray(out.real)
    return out


def kron_reference_sparse(ham):
    """The same sum with scipy.sparse.kron, real when imag <= 1e-14 absolute."""
    dim = ham.local_dim ** ham.nsites
    ident = scipy.sparse.identity(ham.local_dim, dtype=complex, format="coo")
    out = scipy.sparse.csr_matrix((dim, dim), dtype=complex)
    for coeff, factors in ham.terms:
        sparse_factors = [(s, scipy.sparse.coo_matrix(m)) for s, m in factors]
        chain = _kron_chain(ham, sparse_factors,
                            lambda a, b: scipy.sparse.kron(a, b, format="coo"), ident)
        out = out + coeff * chain.tocsr()
    imag_max = np.abs(out.imag.tocoo().data).max() if out.imag.nnz else 0.0
    if imag_max <= 1e-14:
        out = out.real
    return out.tocsr()


def same_bytes(x, y):
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return (x.dtype == y.dtype and x.shape == y.shape
            and np.array_equal(x.view(np.uint8), y.view(np.uint8)))


def assert_matches_reference(ham, dense=True):
    mat, ref = ham.sparse(), kron_reference_sparse(ham)
    assert isinstance(mat, scipy.sparse.csr_matrix)
    assert mat.has_sorted_indices
    assert np.count_nonzero(mat.data == 0) == 0
    assert mat.nnz == ref.nnz
    assert same_bytes(mat.indptr, ref.indptr)
    assert same_bytes(mat.indices, ref.indices)
    assert same_bytes(mat.data, ref.data)
    if dense:
        assert same_bytes(ham.dense(), kron_reference_dense(ham))


def _single_flip_model(n):
    return KineticModel.single_flip(n, gamma=0.7, delta=0.2)


ORACLE_BUILDERS = {
    "xy-gamma-0.5": lambda: build_xy(0.5, 0.8, 8),
    "xy-gamma-1": lambda: build_xy(1.0, 1.0, 8),
    "aklt-periodic": lambda: build_aklt(5),
    "aklt-open": lambda: build_aklt(5, "open"),
    "mg": lambda: build_mg(8),
    "cluster": lambda: build_cluster(-1, 7),
    "tau-two-flip-6": lambda: build_h_tau_two_flip(TauSector.adjacent_pair_up(6), 0.4, 6),
    "tau-two-flip-13": lambda: build_h_tau_two_flip(TauSector.adjacent_pair_up(13), 0.3, 13),
    "tau-single-flip": lambda: build_h_tau_single_flip(TauSector.single_up(6),
                                                       _single_flip_model(6)),
    "beta-single-flip": lambda: build_h_beta_single_flip(_single_flip_model(6)),
}


@pytest.mark.parametrize("name", sorted(ORACLE_BUILDERS))
def test_assembly_is_bitwise_kronecker(name):
    ham = ORACLE_BUILDERS[name]()
    # dense references above dim 1024 cost gigabytes; the sparse one is exact there too
    assert_matches_reference(ham, dense=ham.local_dim ** ham.nsites <= 1024)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_assembly_random_terms_bitwise(d):
    rng = np.random.default_rng(d)
    n = 4
    ham = SpinHamiltonian(n, d, [], "open")
    for _ in range(6):
        sites = rng.choice(n, size=rng.integers(0, n + 1), replace=False)
        factors = []
        for s in sites:
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            factors.append((s, m * (rng.random((d, d)) < 0.6)))
        ham.add(rng.normal(), factors)
    assert_matches_reference(ham)
    # a complex coefficient: the dense reference multiplies coeff * product too
    ham.add(0.3 - 1.1j, [(1, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))])
    assert same_bytes(ham.dense(), kron_reference_dense(ham))


def test_assembly_constant_term():
    ham = SpinHamiltonian(3, 2, [])
    ham.add(2.5, [])
    assert same_bytes(ham.dense(), 2.5 * np.eye(8))
    ham.add(-0.5, [(1, PAULI_Z)])
    assert_matches_reference(ham)
    assert np.array_equal(np.diag(ham.dense()), 2.5 - 0.5 * np.array([1, 1, -1, -1] * 2))


def test_assembly_wraps_periodic_boundary():
    n = 5
    ham = SpinHamiltonian(n, 2, [], "periodic")
    ham.add(0.75, [(n - 1, PAULI_X), (n, PAULI_Z)])  # site n is site 0
    target = 0.75 * kron(PAULI_Z, np.eye(8), PAULI_X).real
    assert np.array_equal(ham.dense(), target)
    assert np.array_equal(ham.sparse().toarray(), target)
    assert_matches_reference(ham)


def test_assembly_spin1_products():
    s = spin1_matrices()
    xy = s["x"] @ s["y"]
    assert (np.count_nonzero(xy, axis=0) > 1).any()
    ham = SpinHamiltonian(3, 3, [], "open")
    ham.add(1.0 / 3.0, [(0, xy), (2, xy)])
    ham.add(1.0 / 3.0, [(1, s["x"] @ s["x"]), (2, s["x"] @ s["x"])])
    target = (kron(xy, np.eye(3), xy) + kron(np.eye(3), s["x"] @ s["x"], s["x"] @ s["x"])) / 3
    assert np.abs(ham.dense() - target).max() <= 1e-15
    assert_matches_reference(ham)


def test_assembly_lone_y_stays_complex():
    ham = SpinHamiltonian(3, 2, [])
    ham.add(0.5, [(1, PAULI_Y)])
    target = 0.5 * kron(np.eye(2), PAULI_Y, np.eye(2))
    assert ham.dense().dtype == complex and ham.sparse().dtype == complex
    assert np.array_equal(ham.dense(), target)
    assert np.array_equal(ham.sparse().toarray(), target)
    assert_matches_reference(ham)
    # dense drops an imaginary part relative to the real scale, sparse only below 1e-14
    ham = SpinHamiltonian(3, 2, [])
    ham.add(100.0, [(0, PAULI_Z)])
    ham.add(1e-13, [(1, PAULI_Y)])
    assert ham.dense().dtype == float
    assert ham.sparse().dtype == complex
    assert_matches_reference(ham)
    # a negligible lone Y: both turn real, and sparse stores none of the zeros
    # the dropped imaginary parts leave behind (the Kronecker sum kept them)
    ham = SpinHamiltonian(3, 2, [])
    ham.add(1.0, [(0, PAULI_Z)])
    ham.add(1e-16, [(1, PAULI_Y)])
    mat, ref = ham.sparse(), kron_reference_sparse(ham)
    assert mat.dtype == float and mat.nnz == 8 and np.count_nonzero(ref.data == 0) == 8
    ref.eliminate_zeros()
    assert same_bytes(mat.indptr, ref.indptr) and same_bytes(mat.indices, ref.indices)
    assert same_bytes(mat.data, ref.data)
    assert same_bytes(mat.toarray(), ham.dense())


def test_assembly_single_site():
    s = spin1_matrices()
    ham = SpinHamiltonian(1, 3, [])
    ham.add(0.5, [(0, s["x"] @ s["y"])])
    ham.add(2.0, [])
    ham.add(-1.0, [(0, s["z"])])
    target = 0.5 * s["x"] @ s["y"] + 2.0 * np.eye(3) - s["z"]
    assert np.abs(ham.dense() - target).max() <= 1e-15
    assert_matches_reference(ham)
