"""Dense and sparse complex linear algebra primitives.

Everything downstream (states, measures, spin chains, kinetic models) is built
on plain numpy arrays for dense operators and state vectors, and scipy sparse
matrices for large Hamiltonians.  This module collects the small set of
numerical kernels they all share: Kronecker products, SVD, the Hermiticity
check, trace norms, and a deflated Lanczos solver with full
re-orthogonalization for the lowest part of large sparse spectra.

Conventions
-----------
* Dense operators are 2-d ``numpy.ndarray`` (row-major), state vectors 1-d.
* Hermitian inputs are checked against ``TOL_HERM`` relative to the matrix
  norm and then symmetrized, so downstream eigensolves see exactly Hermitian
  matrices.  The one test reads a dense matrix in blocks of 2^15 entries.
  ``check_hermitian`` allocates one array, its C-ordered result in the
  input's dtype, which holds ``A^dag`` while the test reads it; it never
  writes to its input.
* Dense eigensolves stay on ``numpy.linalg``: numpy and scipy each bundle
  their own OpenBLAS and thread pool, and at dim 1024 on a shared 2-core
  x86-64 host a ``scipy.linalg.eigh`` right after a numpy matrix product took
  0.33-0.34 s against 0.22-0.23 s for ``numpy.linalg.eigh`` (medians of 7).
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
    # chains.thermal_state, kinetic.symmetrize, freefermion.xy_ground_covariance
    # (2N Majoranas), the measures and maps experiments (d^2)
    "full_spectrum_max_dim": 2 * 4096,
    "classical_ring_max_sites": 20,        # chains._ring_probabilities
    "generator_max_sites": 20,             # kinetic.build_generator
    "direct_evolve_max_sites": 7,          # kinetic.vectorized_generator
    "sector_evolve_max_sites": 10,         # kinetic.sector_generator
    "spectra_scan_max_sites": 17,          # kinetic.sector_spectra_scan
    # |t| times the 1-norm of the generator, which sets expm_multiply's step count
    "evolve_max_norm_time": 1e4,           # kinetic._propagate
    "mps_dense_max_amplitudes": 2 ** 16,   # MatrixProductState.to_dense
    "haar_max_amplitudes": 2 ** 14,        # m n of each Haar draw (haar.sample_moments)
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


def svd(a: np.ndarray, compute_uv: bool = True):
    """Thin SVD, ``a = U @ diag(s) @ Vh`` with singular values descending;
    only ``s`` if not ``compute_uv``.  A stack of matrices gives stacked factors.

    Falls back to the slower but more robust LAPACK gesvd driver if the
    default divide-and-conquer driver fails to converge.
    """
    a = np.asarray(a)
    if not np.all(np.isfinite(a)):
        raise ValueError("svd requires finite entries")
    try:
        return np.linalg.svd(a, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        return scipy.linalg.svd(a, full_matrices=False, compute_uv=compute_uv,
                                lapack_driver="gesvd")


def check_hermitian(a: np.ndarray, tol: float = TOL_HERM) -> np.ndarray:
    """Verify Hermiticity relative to the matrix scale, then symmetrize.

    Returns ``(a + a^dag)/2`` in ``a``'s dtype (float64 for integers), which
    stabilizes downstream eigensolves.  Raises :class:`NotHermitianError` with
    the max asymmetry otherwise, including for any non-finite entry.  A 3-d
    ``a`` is a stack: each matrix is tested against its own scale.
    """
    a = np.asarray(a)
    # one fresh C-ordered array holds A^dag, which the test reads by rows, and then
    # the result: the elementwise arithmetic of (A + A^dag)/2 without a conjugated copy
    out = np.conjugate(np.swapaxes(a, -1, -2), order="C", dtype=np.result_type(a, 0.5))
    _hermitian_test(a, tol, out)
    np.add(a, out, out=out)
    out /= 2
    return out


def require_hermitian(a):
    """Return ``a`` if it passes the test of :func:`check_hermitian`, else raise the same error."""
    _hermitian_test(a, TOL_HERM)
    return a


def _hermitian_test(a, tol: float, adjoint=None) -> None:
    """Raise :class:`NotHermitianError` unless max |A - A^dag| <= tol max(max |A|, 1).

    Reads a dense ``a`` in blocks of rows of about 2^15 entries, against the
    same rows of ``adjoint`` (A^dag) if given, and a sparse one through its
    stored entries.  A stack of small matrices is read whole, each matrix
    against its own scale; the error names the first that fails.
    """
    if isinstance(a, np.ndarray) and a.ndim == 3:
        scale = np.abs(a).max(axis=(1, 2), initial=0.0)
        if not np.isfinite(scale).all():  # raised before A - A^dag is formed
            raise NotHermitianError(math.nan, tol)
        if adjoint is None:
            adjoint = np.conjugate(np.swapaxes(a, 1, 2))
        asym = np.abs(a - adjoint).max(axis=(1, 2), initial=0.0)
        bound = tol * np.maximum(scale, 1.0)
        failed = ~(asym <= bound)
        if failed.any():
            first = np.argmax(failed)
            raise NotHermitianError(float(asym[first]), float(bound[first]))
        return
    if isinstance(a, np.ndarray):  # not scipy.sparse.issparse: it would import scipy.sparse
        scale = asym = 0.0
        step = 2 ** 15 // (a.shape[1] or 1) or 1
        # np.maximum.reduce is ndarray.max without its Python wrapper, which costs
        # several percent of a call at dim 4 or 16
        for i in range(0, a.shape[0], step):
            rows = a[i:i + step]
            top = np.maximum.reduce(np.abs(rows), None)
            if not math.isfinite(top):  # raised before rows - A^dag is formed: inf - inf warns
                raise NotHermitianError(math.nan, tol)
            scale = max(scale, top)
            adj = a[:, i:i + step].conj().T if adjoint is None else adjoint[i:i + step]
            asym = max(asym, np.maximum.reduce(np.abs(rows - adj), None))
    else:
        scale = np.abs(a.data).max(initial=0.0)
        if not math.isfinite(scale):
            raise NotHermitianError(math.nan, tol)
        asym = np.abs((a - a.conj().T).data).max(initial=0.0)
    if not asym <= tol * max(scale, 1.0):
        raise NotHermitianError(float(asym), tol * max(scale, 1.0))


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values of a square matrix, from a values-only SVD."""
    a = np.asarray(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("trace norm expects a square matrix")
    return float(svd(a, compute_uv=False).sum())


def lanczos_lowest(
    op,
    k: int = 1,
    seed: int = 0,
    maxiter: int = 1200,
    return_vectors: bool = False,
):
    """Lowest ``k`` eigenvalues of a large Hermitian operator.

    Deflated Lanczos with full re-orthogonalization: eigenpairs are extracted
    one at a time, each run restricted to the orthogonal complement of the
    converged eigenvectors; a run has converged once the residual
    ``|H v - w v|`` is at most 1e-11 of the operator scale.  Full
    re-orthogonalization keeps the Krylov basis numerically orthogonal, and
    the deflation resolves exact degeneracies (a single Krylov sequence only
    ever sees one vector per eigenspace).

    Memory: one Krylov basis of ``min(128, steps) x dim`` entries, allocated
    once and shared by all ``k`` rounds; it doubles when a round needs more
    steps and keeps that size for the later rounds.  Beside it the call holds
    the ``k`` eigenvectors and a few length-dim vectors; the iteration updates
    its vector in place.

    Parameters
    ----------
    op : ndarray or sparse matrix
        Hermitian operator (real symmetric or complex Hermitian).
    k : int
        Number of lowest eigenvalues.
    seed : int
        Seed for the random start vectors; fixed seed gives a fixed result.
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
    dtype = complex if np.iscomplexobj(op) else float

    found_vals: list[float] = []
    found_vecs: list[np.ndarray] = []

    def project_out(x):  # in place
        for u in found_vecs:
            x -= u * (u.conj() @ x)
        return x

    cap = min(maxiter + 1, dim + 1)
    basis = np.empty((min(cap, 128), dim), dtype=dtype)
    for _ in range(k):
        v0 = rng.standard_normal(dim)
        if dtype is complex:
            v0 = v0 + 1j * rng.standard_normal(dim)
        v0 = project_out(v0.astype(dtype))
        v0 /= np.linalg.norm(v0)

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
            w_vec -= alphas[-1] * basis[m - 1]
            if m > 1:
                w_vec -= betas[-1] * basis[m - 2]
            project_out(w_vec)
            # full re-orthogonalization against the whole Krylov basis; conj(B) w is
            # formed as conj(B conj(w)), which copies a vector, not the basis
            w_vec -= basis[:m].T @ (basis[:m] @ w_vec.conj()).conj()
            beta = float(np.linalg.norm(w_vec))

            spanned = beta < 1e-13 * scale  # Krylov space exhausted: exact
            out_of_room = m >= cap - 1
            check_now = (it + 1) % 10 == 0 or spanned or out_of_room
            if check_now:
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
            np.divide(w_vec, beta, out=basis[m])
            m += 1

        if not converged:
            raise NumericalError(
                f"Lanczos did not converge within {maxiter} iterations "
                "(last residual above 1e-11 * scale)"
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
