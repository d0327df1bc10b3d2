"""Entanglement measures, witnesses, and positive-map machinery.

Measures
--------
Negativity and logarithmic negativity are computed from the partial
transpose by two independent routes (eigenvalue sum vs trace norm), the
two-qubit concurrence by the spin-flip construction, and the entanglement of
formation from concurrence through the binary entropy function.  Every
bipartite measure acts on the split after the first subsystem.
:func:`concurrence_pure`, :func:`concurrence_2q`, :func:`eof_2q` and
:func:`witness_value` also take a stack of states and return an array with
one value per row, each bitwise the value of that state alone; the other
functions take one state.

Witnesses and maps
------------------
A :class:`Witness` is a Hermitian block observable that is nonnegative on
separable states and negative on at least one entangled state.  Linear maps
on operators are held as their Choi matrix, which represents any linear map
completely (weighted Kraus pairs ``Lambda(X) = sum_i eta_i V_i X V_i^dag``
are converted on construction); the Choi normalization used throughout is

    choi(Lambda) = (I (x) Lambda)(d * P_plus)  =  sum_ij |i><j| (x) Lambda(|i><j|)

so that the Choi matrix of the identity map has trace d and Kraus extraction
from the Choi eigendecomposition needs no extra scalars.  A map is applied as
1 (x) Lambda by calling it.  Complete positivity is equivalent to a PSD Choi
matrix, tested on the Choi spectrum each map keeps from its construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import check_hermitian, kron, svd, trace_norm
from .states import (
    SCHMIDT_CUTOFF,
    DensityMatrix,
    PureState,
    binary_entropy,
    partial_transpose,
    partial_transpose_matrix,
    random_separable,
    require_single,
)


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

def _per_state(state, values: np.ndarray):
    """``values``, one per row, for a stack; the one value as a float for one state."""
    return values if state.count is not None else float(values[0])


def negativity(rho: DensityMatrix) -> float:
    """Sum of |negative eigenvalues| of the partial transpose."""
    w = np.linalg.eigvalsh(partial_transpose(require_single(rho)))
    return float(-w[w < 0].sum())


def log_negativity(rho: DensityMatrix) -> float:
    """log2 of the trace norm of the partial transpose.

    Computed from the singular values, independently of :func:`negativity`;
    the two are related by ``E_N = log2(2 N + 1)``.
    """
    return float(np.log2(trace_norm(partial_transpose(require_single(rho)))))


def concurrence_pure(psi: PureState):
    """sqrt(2 (1 - tr rho_r^2)) for a bipartite pure state, from its Schmidt
    coefficients above ``SCHMIDT_CUTOFF``.

    The value does not depend on which reduction is used.
    """
    if len(psi.dims) < 2:
        raise ValueError("concurrence_pure requires a bipartite state")
    da = psi.dims[0]
    # the full SVD that schmidt takes: a values-only one can differ in the last bits
    s = svd(psi.amplitudes.reshape(-1, da, psi.dim // da))[1]
    kept = np.count_nonzero(s > SCHMIDT_CUTOFF, axis=1)  # descending: a leading run
    purity = np.empty(len(s))
    for k in np.unique(kept):
        rows = kept == k
        purity[rows] = ((s[rows, :k] ** 2) ** 2).sum(axis=1)
    x = 2.0 * (1.0 - purity)
    return _per_state(psi, np.sqrt(np.where(0.0 > x, 0.0, x)))


def concurrence_2q(rho: DensityMatrix):
    """Two-qubit concurrence max{0, l1 - l2 - l3 - l4}.

    The l_i are the decreasing eigenvalues of
    ``sqrt(sqrt(rho) rho~ sqrt(rho))`` with the spin-flipped state
    ``rho~ = (sy (x) sy) rho* (sy (x) sy)``, conjugation taken in the
    sigma_z product basis.  Rows of a stack are grouped by the rank kept
    below, so each gets the SVD of its own ``rank x rank`` matrix.
    """
    if rho.dims != (2, 2):
        raise ValueError("concurrence_2q requires a 2 x 2 bipartite state")
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    yy = kron(sy, sy)
    # The l_i equal the singular values of A^T (sy x sy) A where rho = A A^dag
    # and A = V sqrt(D) comes from the clamped Hermitian eigendecomposition.
    # This is the same multiset as the nested-square-root formula but does not
    # amplify rank-deficiency noise through sqrt(0).
    w, v = np.linalg.eigh(rho.matrix.reshape(-1, 4, 4))
    rank = np.count_nonzero(w > 1e-14 * w[:, -1:], axis=1)  # ascending: a trailing run
    lam = np.zeros((len(w), 4))
    for r in np.unique(rank):
        rows = rank == r
        a = v[rows, :, 4 - r:] * np.sqrt(np.clip(w[rows, None, 4 - r:], 0.0, None))
        lam[rows, :r] = np.linalg.svd(np.swapaxes(a, 1, 2) @ yy @ a, compute_uv=False)
    lam.sort(axis=1)
    lam = lam[:, ::-1]
    c = lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3]
    return _per_state(rho, np.where(c > 0.0, c, 0.0))


def eof_2q(rho: DensityMatrix):
    """Two-qubit entanglement of formation in ebits."""
    c = np.atleast_1d(concurrence_2q(rho))
    x = 1.0 - c * c
    h = (1.0 + np.sqrt(np.where(0.0 > x, 0.0, x))) / 2.0
    return _per_state(rho, np.array([binary_entropy(v) for v in h]))


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    """Hermitian observable detecting entanglement by a negative mean value.

    Construction verifies the operator's shape, that it is Hermitian and has at
    least one negative eigenvalue, and spot-checks nonnegativity on the same 50
    random separable states, drawn from seed 0 as one stack, for every witness
    (a sanity check, not a proof of witness-hood).
    """

    operator: np.ndarray
    dims: tuple[int, int]

    def __init__(self, operator, dims):
        operator = np.asarray(operator, dtype=complex)
        dims = (int(dims[0]), int(dims[1]))
        if operator.shape != (dims[0] * dims[1],) * 2:
            raise ValueError("operator shape does not match dims")
        operator = check_hermitian(operator)
        w = np.linalg.eigvalsh(operator)
        if w[0] >= -1e-12:
            raise ValueError("a witness must have a negative eigenvalue")
        object.__setattr__(self, "operator", operator)
        object.__setattr__(self, "dims", dims)
        values = witness_value(self, random_separable(*dims, np.random.default_rng(0), 50))
        negative = np.flatnonzero(values < -1e-9)
        if negative.size:
            raise ValueError(f"negative on a separable sample: {values[negative[0]]:.3e}")


def witness_value(w: Witness, rho: DensityMatrix):
    """tr(W rho), one per row for a stack; W and rho were verified Hermitian, so
    its imaginary part is roundoff."""
    if rho.dim != w.operator.shape[0]:
        raise ValueError("dimension mismatch")
    products = w.operator @ rho.matrix.reshape(-1, rho.dim, rho.dim)
    return _per_state(rho, np.trace(products, axis1=1, axis2=2).real)


def witness_from_npt(rho: DensityMatrix) -> Witness:
    """Witness |psi><psi|^T_B from a negative-eigenvalue eigenvector of rho^T_B.

    Satisfies tr(W rho) = lambda_min < 0 by construction.  Raises on PPT
    input, where no such witness is derivable.
    """
    w, v = np.linalg.eigh(partial_transpose(require_single(rho)))
    if w[0] >= -1e-10:
        raise ValueError("no NPT witness derivable: state has PPT")
    vec = v[:, 0]
    dims = (rho.dims[0], rho.dim // rho.dims[0])
    return Witness(partial_transpose_matrix(np.outer(vec, vec.conj()), *dims), dims)


def swap_operator(d: int) -> np.ndarray:
    """The swap V = d * P_plus^T_B on d x d; the witness of the transposition map.

    Exact: d * P_plus = |e><e| with e = sum_i |ii> has integer entries.
    """
    e = np.eye(d, dtype=complex).ravel()
    return partial_transpose_matrix(np.outer(e, e), d, d)


# ---------------------------------------------------------------------------
# linear maps on operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuantumMap:
    """Hermiticity-preserving linear map on operators, held as its Choi matrix.

    Give exactly one of ``kraus_pairs`` (a list of ``(eta, V)`` with real
    weights) or a ``choi`` matrix, together with input/output dimensions.
    Kraus pairs are converted once, ``choi = sum_i eta_i |v_i><v_i|`` with
    ``v_i = V_i^T`` flattened.  ``choi`` is the symmetrized matrix of the
    Hermiticity check, ``choi_spectrum`` its ascending eigenvalues from one
    ``eigvalsh``, both read-only.  Calling the map applies 1 (x) Lambda.
    """

    dim_in: int
    dim_out: int
    choi: np.ndarray
    choi_spectrum: np.ndarray

    def __init__(self, dim_in, dim_out, kraus_pairs=None, choi=None):
        if (kraus_pairs is None) == (choi is None):
            raise ValueError("give exactly one of kraus_pairs or choi")
        dim_in, dim_out = int(dim_in), int(dim_out)
        if kraus_pairs is not None:
            choi = np.zeros((dim_in * dim_out, dim_in * dim_out), dtype=complex)
            for eta, v in kraus_pairs:
                v = np.asarray(v, dtype=complex)
                if v.shape != (dim_out, dim_in):
                    raise ValueError("Kraus operator shape must be (dim_out, dim_in)")
                vec = v.T.ravel()
                choi += float(eta) * np.outer(vec, vec.conj())
        choi = np.asarray(choi, dtype=complex)
        if choi.shape != (dim_in * dim_out, dim_in * dim_out):
            raise ValueError("Choi matrix has wrong dimension")
        choi = check_hermitian(choi)  # Hermiticity-preserving maps only
        w = np.linalg.eigvalsh(choi)
        choi.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "dim_in", dim_in)
        object.__setattr__(self, "dim_out", dim_out)
        object.__setattr__(self, "choi", choi)
        object.__setattr__(self, "choi_spectrum", w)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """(1 (x) Lambda)(X) for X on C^da (x) C^dim_in; Lambda(X) at da = 1."""
        x = np.asarray(x, dtype=complex)
        n = self.dim_in
        if x.ndim != 2 or x.shape[0] != x.shape[1] or x.shape[0] % n:
            raise ValueError("input operator side must be a multiple of dim_in")
        da = x.shape[0] // n
        c = self.choi.reshape(n, self.dim_out, n, self.dim_out)
        out = np.einsum("kalb,ikjl->iajb", c, x.reshape(da, n, da, n))
        return out.reshape(da * self.dim_out, da * self.dim_out)


def transposition_map(d: int) -> QuantumMap:
    """The transposition map X -> X^T; its Choi matrix is the swap."""
    return QuantumMap(d, d, choi=swap_operator(d))


def unitary_conjugation_map(u: np.ndarray) -> QuantumMap:
    """X -> U X U^dag."""
    u = np.asarray(u, dtype=complex)
    return QuantumMap(u.shape[0], u.shape[0], kraus_pairs=[(1.0, u)])


def reduction_map(d: int) -> QuantumMap:
    """X -> tr(X) 1_d - X; positive but not completely positive.

    Choi matrix 1 - d P_plus = 1 - |e><e| with e = sum_i |ii>, exact in integers.
    """
    e = np.eye(d).ravel()
    return QuantumMap(d, d, choi=np.eye(d * d) - np.outer(e, e))


def is_completely_positive(qmap: QuantumMap, tol: float = 1e-9) -> bool:
    """Choi-PSD test on the kept spectrum; the threshold scales with the Choi trace."""
    scale = max(abs(np.trace(qmap.choi).real), 1.0)
    return bool(qmap.choi_spectrum[0] >= -tol * scale)


def kraus_operators(qmap: QuantumMap) -> list[np.ndarray]:
    """Kraus form of a completely positive map from its Choi eigenvectors.

    The returned operators are mutually orthogonal in the Hilbert-Schmidt
    inner product; Choi eigenvalues at or below 1e-12 give none.  Raises if
    the map is not CP.
    """
    if not is_completely_positive(qmap):
        raise ValueError("map is not completely positive")
    w, v = np.linalg.eigh(qmap.choi)
    ops = []
    for val, vec in zip(w, v.T):
        if val > 1e-12:
            ops.append(np.sqrt(val) * vec.reshape(qmap.dim_in, qmap.dim_out).T)
    return ops

