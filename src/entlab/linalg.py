"""Dense and sparse complex linear algebra primitives.

Everything downstream (states, measures, spin chains, kinetic models) is built
on plain numpy arrays for dense operators and state vectors, and scipy sparse
matrices for large Hamiltonians.  This module collects the small set of
numerical kernels they all share: Kronecker products, SVD, Hermitian
eigensolves with a symmetrization guard, trace norms, matrix functions, and a
deflated Lanczos solver with full re-orthogonalization for the lowest part of
large sparse spectra.

Conventions
-----------
* Dense operators are 2-d ``numpy.ndarray`` (row-major), state vectors 1-d.
* Hermitian inputs are checked against ``TOL_HERM`` relative to the matrix
  norm and then symmetrized, so downstream eigensolves see exactly Hermitian
  matrices.
* Eigenvalues are returned ascending; within a degenerate cluster the
  eigenvector basis is arbitrary and nothing may rely on it.
* entlab modules import only the top-level ``scipy`` package and reach its
  submodules by attribute (``scipy.linalg.schur``,
  ``scipy.sparse.linalg.expm_multiply``).  SciPy imports a submodule the
  first time it is read, so commands that never call SciPy skip the cost of
  loading it.  A local ``import scipy.linalg`` would rebind the module global
  that the benchmark's tracer swaps out.
"""

from __future__ import annotations

import math
from types import MappingProxyType

import numpy as np
import scipy

TOL_HERM = 1e-10

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)

# Every size limit and the dense/sparse crossover, read by name.  A ``max``
# entry is a limit: beyond it check_budget raises ResourceLimitError.
# ``dense_dim`` is the crossover of every lowest-level solve
# (``chains.lowest_levels``): up to that dimension it is dense
# (``eigh``/``eigvalsh``), above it sparse (``lanczos_lowest``).  Moving it
# moves commands onto the other solver and changes the last bits of their
# output.
BUDGET = MappingProxyType({
    "dense_dim": 1024,                     # SpinHamiltonian.operator
    "lanczos_max_dim": 2 ** 20,            # SpinHamiltonian.operator
    "thermal_state_max_dim": 2 * 4096,     # chains.thermal_state
    "classical_ring_max_sites": 20,        # chains.classical_gibbs_mutual_info
    "generator_max_sites": 20,             # kinetic.build_generator
    "direct_evolve_max_sites": 7,          # kinetic.direct_evolve, kinetic evolve
    "sector_evolve_max_sites": 10,         # kinetic sector evolution
    "spectra_scan_max_sites": 17,          # kinetic.sector_spectra_scan
    "mps_dense_max_amplitudes": 2 ** 16,   # MatrixProductState.to_dense
})


class ResourceLimitError(RuntimeError):
    """Requested computation exceeds its configured size budget."""


def check_budget(name: str, size: int, what: str) -> None:
    """Raise :class:`ResourceLimitError` if ``size`` exceeds ``BUDGET[name]``."""
    if size > BUDGET[name]:
        raise ResourceLimitError(f"{what}: {size} > BUDGET[{name!r}] = {BUDGET[name]}")


class NumericalError(RuntimeError):
    """A solver failed numerically: no convergence or a residual too large."""


class NotHermitianError(ValueError):
    """Input failed the Hermiticity check; carries the max asymmetry."""

    def __init__(self, asymmetry: float, tol: float):
        self.asymmetry = asymmetry
        super().__init__(
            f"matrix is not Hermitian within tolerance: max |A - A^dag| = "
            f"{asymmetry:.3e} exceeds {tol:.3e}"
        )


def kron(a: np.ndarray, b: np.ndarray, *rest: np.ndarray) -> np.ndarray:
    """Kronecker product of two or more operators.

    ``kron(a, b)[(i mu), (j nu)] = a[i, j] * b[mu, nu]`` with the row index of
    ``a`` the most significant one.
    """
    out = np.kron(np.asarray(a), np.asarray(b))
    for c in rest:
        out = np.kron(out, np.asarray(c))
    return out


def svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD, ``a = U @ diag(s) @ Vh`` with singular values descending.

    Falls back to the slower but more robust LAPACK gesvd driver if the
    default divide-and-conquer driver fails to converge.
    """
    a = np.asarray(a)
    if not np.all(np.isfinite(a)):
        raise ValueError("svd requires finite entries")
    try:
        return np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError:
        return scipy.linalg.svd(a, full_matrices=False, lapack_driver="gesvd")


def check_hermitian(a: np.ndarray, tol: float = TOL_HERM) -> np.ndarray:
    """Verify Hermiticity relative to the matrix scale, then symmetrize.

    Returns ``(a + a^dag)/2``, which stabilizes downstream eigensolves.
    Raises :class:`NotHermitianError` with the max asymmetry otherwise,
    including for any non-finite entry.
    """
    a = np.asarray(a)
    if not np.isfinite(a).all():
        raise NotHermitianError(math.nan, tol)
    scale = max(np.abs(a).max() if a.size else 0.0, 1.0)
    ah = a.conj().T
    asym = float(np.abs(a - ah).max())
    if not asym <= tol * scale:  # NaN fails too
        raise NotHermitianError(asym, tol * scale)
    return (a + ah) / 2


def hermitian_eig(a: np.ndarray, tol: float = TOL_HERM) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, V)`` with eigenvalues ascending and orthonormal eigenvector
    columns, after the Hermiticity check of :func:`check_hermitian`.
    """
    return np.linalg.eigh(check_hermitian(a, tol))


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values of a square matrix."""
    a = np.asarray(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("trace norm expects a square matrix")
    return float(svd(a)[1].sum())


def matrix_function(a: np.ndarray, f, tol: float = TOL_HERM) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its eigenbasis."""
    w, v = hermitian_eig(a, tol)
    fw = np.asarray([f(x) for x in w], dtype=complex)
    out = (v * fw) @ v.conj().T
    if np.abs(out.imag).max() < 1e-14 * max(1.0, np.abs(out.real).max()):
        return out.real if np.isrealobj(a) else out
    return out


def matrix_sqrt_psd(a: np.ndarray, tol: float = TOL_HERM) -> np.ndarray:
    """Principal square root of a PSD matrix, clamping roundoff negatives to 0."""
    w, v = hermitian_eig(a, tol)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def lanczos_lowest(
    op,
    k: int = 1,
    seed: int = 0,
    tol: float = 1e-11,
    maxiter: int = 1200,
    return_vectors: bool = False,
):
    """Lowest ``k`` eigenvalues of a large Hermitian operator.

    Deflated Lanczos with full re-orthogonalization: eigenpairs are extracted
    one at a time, each run restricted to the orthogonal complement of the
    converged eigenvectors.  Full re-orthogonalization keeps the Krylov basis
    numerically orthogonal, and the deflation resolves exact degeneracies
    (a single Krylov sequence only ever sees one vector per eigenspace).

    Parameters
    ----------
    op : ndarray, sparse matrix or LinearOperator
        Hermitian operator (real symmetric or complex Hermitian).
    k : int
        Number of lowest eigenvalues.
    seed : int
        Seed for the random start vectors; fixed seed gives a fixed result.
    tol : float
        Convergence threshold on the residual norm ``|H v - w v|`` relative
        to the operator scale.
    maxiter : int
        Hard cap on Lanczos steps per deflation round.

    Returns
    -------
    w : ndarray
        The ``k`` lowest eigenvalues, ascending.
    v : ndarray, optional
        Matching orthonormal eigenvectors as columns, if requested.
    """
    dim = op.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > dim:
        raise ValueError("k exceeds operator dimension")
    rng = np.random.default_rng(seed)
    dtype = (complex if np.iscomplexobj(op) or isinstance(op, scipy.sparse.linalg.LinearOperator)
             else float)

    found_vals: list[float] = []
    found_vecs: list[np.ndarray] = []

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
        m = 1
        alphas: list[float] = []
        betas: list[float] = []
        scale = 1.0
        value = None
        vector = None
        converged = False
        for it in range(min(maxiter, dim)):
            w_vec = op @ basis[m - 1]
            scale = max(scale, float(np.linalg.norm(w_vec)))
            alphas.append(float(np.real(basis[m - 1].conj() @ w_vec)))
            w_vec = w_vec - alphas[-1] * basis[m - 1]
            if m > 1:
                w_vec = w_vec - betas[-1] * basis[m - 2]
            w_vec = project_out(w_vec)
            # full re-orthogonalization against the whole Krylov basis
            w_vec = w_vec - basis[:m].T @ (basis[:m].conj() @ w_vec)
            beta = float(np.linalg.norm(w_vec))

            spanned = beta < 1e-13 * scale  # Krylov space exhausted: exact
            out_of_room = m >= cap - 1
            check_now = (it + 1) % 10 == 0 or spanned or out_of_room
            if check_now:
                tri_w, tri_v = scipy.linalg.eigh_tridiagonal(alphas, betas)
                value = tri_w[0]
                vector = basis[:m].T @ tri_v[:, 0]
                resid = float(np.linalg.norm(op @ vector - value * vector))
                if resid <= tol * scale or spanned:
                    converged = True
                    break
            if spanned:
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

        if not converged:
            raise NumericalError(
                f"Lanczos did not converge within {maxiter} iterations "
                f"(last residual above {tol:g} * scale)"
            )
        vector = project_out(vector)
        vector /= np.linalg.norm(vector)
        found_vals.append(float(value))
        found_vecs.append(vector)

    order = np.argsort(found_vals)
    vals = np.asarray(found_vals)[order]
    if return_vectors:
        vecs = np.column_stack([found_vecs[i] for i in order])
        return vals, vecs
    return vals
