"""Entanglement measures, witnesses, and positive-map machinery.

Measures
--------
Negativity and logarithmic negativity are computed from the partial
transpose by two independent routes (eigenvalue sum vs trace norm), the
two-qubit concurrence by the spin-flip construction, and the entanglement of
formation from concurrence through the binary entropy function.

Witnesses and maps
------------------
A :class:`Witness` is a Hermitian block observable that is nonnegative on
separable states and negative on at least one entangled state.  Linear maps
on operators are represented either by weighted Kraus pairs
``Lambda(X) = sum_i eta_i V_i X V_i^dag`` or by their Choi matrix; the Choi
normalization used throughout is

    choi(Lambda) = (I (x) Lambda)(d * P_plus)  =  sum_ij |i><j| (x) Lambda(|i><j|)

so that the Choi matrix of the identity map has trace d and Kraus extraction
from the Choi eigendecomposition needs no extra scalars.  Complete positivity
is equivalent to a PSD Choi matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import check_hermitian, hermitian_eig, kron, trace_norm
from .states import (
    DensityMatrix,
    PureState,
    binary_entropy,
    max_entangled,
    partial_transpose,
    partial_transpose_matrix,
    random_separable,
    schmidt,
)


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

def negativity(rho: DensityMatrix, cut: int = 1) -> float:
    """Sum of |negative eigenvalues| of the partial transpose."""
    w = np.linalg.eigvalsh(check_hermitian(partial_transpose(rho, "B", cut)))
    return float(-w[w < 0].sum())


def log_negativity(rho: DensityMatrix, cut: int = 1) -> float:
    """log2 of the trace norm of the partial transpose.

    Computed from the singular values, independently of :func:`negativity`;
    the two are related by ``E_N = log2(2 N + 1)``.
    """
    return float(np.log2(trace_norm(partial_transpose(rho, "B", cut))))


def concurrence_pure(psi: PureState, cut: int = 1) -> float:
    """sqrt(2 (1 - tr rho_r^2)) for a bipartite pure state.

    The value does not depend on which reduction is used.
    """
    lam2 = schmidt(psi, cut).coefficients ** 2
    return float(np.sqrt(max(2.0 * (1.0 - (lam2 ** 2).sum()), 0.0)))


def concurrence_2q(rho: DensityMatrix) -> float:
    """Two-qubit concurrence max{0, l1 - l2 - l3 - l4}.

    The l_i are the decreasing eigenvalues of
    ``sqrt(sqrt(rho) rho~ sqrt(rho))`` with the spin-flipped state
    ``rho~ = (sy (x) sy) rho* (sy (x) sy)``, conjugation taken in the
    sigma_z product basis.
    """
    if rho.dims != (2, 2):
        raise ValueError("concurrence_2q requires a 2 x 2 bipartite state")
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    yy = kron(sy, sy)
    # The l_i equal the singular values of A^T (sy x sy) A where rho = A A^dag
    # and A = V sqrt(D) comes from the clamped Hermitian eigendecomposition.
    # This is the same multiset as the nested-square-root formula but does not
    # amplify rank-deficiency noise through sqrt(0).
    w, v = hermitian_eig(rho.matrix)
    keep = w > 1e-14 * w[-1]
    a = v[:, keep] * np.sqrt(np.clip(w[keep], 0.0, None))
    s = a.T @ yy @ a
    lam = np.zeros(4)
    sv = np.linalg.svd(s, compute_uv=False)
    lam[: sv.size] = sv
    lam.sort()
    lam = lam[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def eof_2q(rho: DensityMatrix) -> float:
    """Two-qubit entanglement of formation in ebits."""
    c = concurrence_2q(rho)
    return binary_entropy((1.0 + np.sqrt(max(1.0 - c * c, 0.0))) / 2.0)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    """Hermitian observable detecting entanglement by a negative mean value.

    Construction verifies the operator is Hermitian and has at least one
    negative eigenvalue, and spot-checks nonnegativity on a sample of random
    separable states (a sanity check, not a proof of witness-hood).
    """

    operator: np.ndarray
    dims: tuple[int, int]

    def __init__(self, operator, dims, spot_check: int = 50, seed: int = 0):
        operator = check_hermitian(np.asarray(operator, dtype=complex))
        dims = (int(dims[0]), int(dims[1]))
        if operator.shape[0] != dims[0] * dims[1]:
            raise ValueError("operator shape does not match dims")
        w = np.linalg.eigvalsh(operator)
        if w[0] >= -1e-12:
            raise ValueError("a witness must have a negative eigenvalue")
        rng = np.random.default_rng(seed)
        for _ in range(spot_check):
            sigma = random_separable(dims[0], dims[1], rng)
            val = np.trace(operator @ sigma.matrix).real
            if val < -1e-9:
                raise ValueError(f"negative on a separable sample: {val:.3e}")
        object.__setattr__(self, "operator", operator)
        object.__setattr__(self, "dims", dims)


def witness_value(w: Witness, rho: DensityMatrix) -> float:
    """tr(W rho); real for Hermitian W."""
    if rho.dim != w.operator.shape[0]:
        raise ValueError("dimension mismatch")
    val = complex(np.trace(w.operator @ rho.matrix))
    if abs(val.imag) > 1e-10:
        raise ValueError("witness value came out complex")
    return float(val.real)


def witness_from_npt(rho: DensityMatrix, cut: int = 1) -> Witness:
    """Witness |psi><psi|^T_B from a negative-eigenvalue eigenvector of rho^T_B.

    Satisfies tr(W rho) = lambda_min < 0 by construction.  Raises on PPT
    input, where no such witness is derivable.
    """
    pt = check_hermitian(partial_transpose(rho, "B", cut))
    w, v = np.linalg.eigh(pt)
    if w[0] >= -1e-10:
        raise ValueError("no NPT witness derivable: state has PPT")
    vec = v[:, 0]
    da = int(np.prod(rho.dims[:cut]))
    db = rho.dim // da
    op = partial_transpose_matrix(np.outer(vec, vec.conj()), da, db, "B")
    return Witness(op, (da, db))


def swap_operator(d: int) -> np.ndarray:
    """The swap V = d * P_plus^T_B on d x d; the witness of the transposition map."""
    p = max_entangled(d).projector().matrix
    return partial_transpose_matrix(d * p, d, d, "B")


# ---------------------------------------------------------------------------
# linear maps on operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuantumMap:
    """Hermiticity-preserving linear map on operators.

    Either ``kraus_pairs`` (a list of ``(eta, V)`` with real weights) or a
    ``choi`` matrix must be given, together with input/output dimensions.
    """

    dim_in: int
    dim_out: int
    kraus_pairs: tuple | None = None
    choi: np.ndarray | None = None

    def __init__(self, dim_in, dim_out, kraus_pairs=None, choi=None):
        if (kraus_pairs is None) == (choi is None):
            raise ValueError("give exactly one of kraus_pairs or choi")
        if kraus_pairs is not None:
            kraus_pairs = tuple(
                (float(eta), np.asarray(v, dtype=complex)) for eta, v in kraus_pairs
            )
            for _, v in kraus_pairs:
                if v.shape != (dim_out, dim_in):
                    raise ValueError("Kraus operator shape must be (dim_out, dim_in)")
        if choi is not None:
            choi = np.asarray(choi, dtype=complex)
            if choi.shape[0] != dim_in * dim_out:
                raise ValueError("Choi matrix has wrong dimension")
            check_hermitian(choi)  # Hermiticity-preserving maps only
        object.__setattr__(self, "dim_in", int(dim_in))
        object.__setattr__(self, "dim_out", int(dim_out))
        object.__setattr__(self, "kraus_pairs", kraus_pairs)
        object.__setattr__(self, "choi", choi)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.dim_in, self.dim_in):
            raise ValueError("input operator has wrong dimension")
        if self.kraus_pairs is not None:
            out = np.zeros((self.dim_out, self.dim_out), dtype=complex)
            for eta, v in self.kraus_pairs:
                out += eta * (v @ x @ v.conj().T)
            return out
        # choi route: Lambda(X) = tr_in[ choi (X^T (x) 1_out) ]
        c = self.choi.reshape(self.dim_in, self.dim_out, self.dim_in, self.dim_out)
        return np.einsum("iajb,ij->ab", c, x)


def transposition_map(d: int) -> QuantumMap:
    """The transposition map X -> X^T as a Choi-represented map."""
    choi = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            choi[i * d:(i + 1) * d, j * d:(j + 1) * d] = e.T
    return QuantumMap(d, d, choi=choi)


def unitary_conjugation_map(u: np.ndarray) -> QuantumMap:
    """X -> U X U^dag."""
    u = np.asarray(u, dtype=complex)
    return QuantumMap(u.shape[0], u.shape[0], kraus_pairs=[(1.0, u)])


def reduction_map(d: int) -> QuantumMap:
    """X -> tr(X) 1_d - X; positive but not completely positive."""
    pairs = [(1.0, _basis_unit(d, k, l)) for k in range(d) for l in range(d)]
    pairs.append((-1.0, np.eye(d, dtype=complex)))
    return QuantumMap(d, d, kraus_pairs=pairs)


def extended_reduction_map(u: np.ndarray, d: int) -> QuantumMap:
    """X -> tr(X) 1_d - X - U X^T U^dag with U antisymmetric, U^dag U <= 1.

    An indecomposable positive map; unlike the plain reduction map it can
    detect PPT entanglement.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (d, d):
        raise ValueError("U has wrong shape")
    if np.abs(u + u.T).max() > 1e-10:
        raise ValueError("U must satisfy U^T = -U")
    w = np.linalg.eigvalsh(u.conj().T @ u)
    if w[-1] > 1.0 + 1e-10:
        raise ValueError("U must satisfy U^dag U <= 1")
    red = choi_matrix(reduction_map(d))
    # Choi of X -> U X^T U^dag equals (1 (x) U) Choi(T) (1 (x) U)^dag
    t_choi = choi_matrix(transposition_map(d))
    lift = kron(np.eye(d), u)
    return QuantumMap(d, d, choi=red - lift @ t_choi @ lift.conj().T)


def _basis_unit(d: int, k: int, l: int) -> np.ndarray:
    e = np.zeros((d, d), dtype=complex)
    e[k, l] = 1.0
    return e


def reduction_map_kraus_decomposition(d: int) -> list[np.ndarray]:
    """Kraus operators V_kl = |k><l| - |l><k| of the CP part of Lambda_r o T.

    The reduction map factors as a completely positive map composed with
    transposition, which is what makes it decomposable.
    """
    return [
        _basis_unit(d, k, l) - _basis_unit(d, l, k)
        for k in range(d)
        for l in range(k + 1, d)
    ]


def apply_map(qmap: QuantumMap, rho: DensityMatrix, cut: int = 1) -> np.ndarray:
    """(I (x) Lambda)(rho), with Lambda acting on B, the subsystems from ``cut`` on."""
    da = int(np.prod(rho.dims[:cut]))
    db = rho.dim // da
    if qmap.dim_in != db:
        raise ValueError("map input dimension does not match subsystem B")
    t = rho.matrix.reshape(da, db, da, db)
    out = np.zeros((da, qmap.dim_out, da, qmap.dim_out), dtype=complex)
    for i in range(da):
        for j in range(da):
            out[i, :, j, :] = qmap(t[i, :, j, :])
    return out.reshape(da * qmap.dim_out, da * qmap.dim_out)


def choi_matrix(qmap: QuantumMap) -> np.ndarray:
    """Choi matrix (I (x) Lambda)(d * P_plus) = sum_ij |i><j| (x) Lambda(|i><j|)."""
    if qmap.choi is not None:
        return qmap.choi.copy()
    d = qmap.dim_in
    out = np.zeros((d * qmap.dim_out, d * qmap.dim_out), dtype=complex)
    for i in range(d):
        for j in range(d):
            blk = qmap(_basis_unit(d, i, j))
            out[i * qmap.dim_out:(i + 1) * qmap.dim_out,
                j * qmap.dim_out:(j + 1) * qmap.dim_out] = blk
    return out


def map_from_choi(choi: np.ndarray, dim_in: int, dim_out: int) -> QuantumMap:
    """Inverse of :func:`choi_matrix` under the trace-d normalization."""
    return QuantumMap(dim_in, dim_out, choi=choi)


def map_from_witness(w: Witness) -> QuantumMap:
    """Map Lambda_W(X) = tr_in[W (X^T (x) 1)] associated with a witness.

    Under the Choi normalization used here this treats the witness operator
    itself as a Choi matrix, so W >= 0 iff the map is completely positive.
    """
    return QuantumMap(w.dims[0], w.dims[1], choi=w.operator)


def is_completely_positive(qmap: QuantumMap, tol: float = 1e-9) -> bool:
    """Choi-PSD test; the threshold scales with the Choi trace."""
    c = choi_matrix(qmap)
    w = np.linalg.eigvalsh(check_hermitian(c))
    scale = max(abs(np.trace(c).real), 1.0)
    return bool(w[0] >= -tol * scale)


def kraus_operators(qmap: QuantumMap, tol: float = 1e-12) -> list[np.ndarray]:
    """Kraus form of a completely positive map from its Choi eigenvectors.

    The returned operators are mutually orthogonal in the Hilbert-Schmidt
    inner product.  Raises if the map is not CP.
    """
    if not is_completely_positive(qmap):
        raise ValueError("map is not completely positive")
    c = choi_matrix(qmap)
    w, v = hermitian_eig(c)
    ops = []
    for val, vec in zip(w, v.T):
        if val > tol:
            ops.append(np.sqrt(val) * vec.reshape(qmap.dim_in, qmap.dim_out).T)
    return ops


def dual_map(qmap: QuantumMap) -> QuantumMap:
    """Hilbert-Schmidt dual: tr[Lambda(X)^dag Y] = tr[X^dag dual(Y)]."""
    if qmap.kraus_pairs is not None:
        pairs = [(eta, v.conj().T) for eta, v in qmap.kraus_pairs]
        return QuantumMap(qmap.dim_out, qmap.dim_in, kraus_pairs=pairs)
    c = qmap.choi.reshape(qmap.dim_in, qmap.dim_out, qmap.dim_in, qmap.dim_out)
    cd = c.transpose(1, 0, 3, 2).conj()
    # dual Choi: swap in/out factors and conjugate
    return QuantumMap(qmap.dim_out, qmap.dim_in,
                      choi=cd.reshape(qmap.dim_in * qmap.dim_out, -1))
