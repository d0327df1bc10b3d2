"""Pure and mixed multipartite states and their entanglement structure.

States carry their local dimensions explicitly: a :class:`PureState` is a
normalized amplitude vector over ``prod(dims)`` basis states, a
:class:`DensityMatrix` the matching Hermitian, PSD, trace-one matrix.  Site
ordering follows the Kronecker convention of :mod:`entlab.linalg`: the first
subsystem is the most significant index.

The operations here are the exact (dense) route used everywhere else as an
oracle: Schmidt decomposition through SVD, partial trace and partial
transposition by index reshuffling, and von Neumann / Renyi entropies from
eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import check_hermitian, svd

SCHMIDT_CUTOFF = 1e-12
_LOG_BASE = {2: np.log2, "e": np.log, 2.0: np.log2}


def _log(base):
    try:
        return _LOG_BASE[base]
    except (KeyError, TypeError):
        raise ValueError("entropy base must be 2 or 'e'") from None


@dataclass(frozen=True)
class PureState:
    """Normalized pure state on a tensor product of finite subsystems."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __init__(self, dims, amplitudes):
        dims = tuple(int(d) for d in dims)
        amplitudes = np.asarray(amplitudes, dtype=complex).ravel()
        if int(np.prod(dims)) != amplitudes.size:
            raise ValueError("product of local dims must equal amplitude length")
        norm = np.linalg.norm(amplitudes)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state is not normalized: |psi| = {norm}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amplitudes)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def projector(self) -> DensityMatrix:
        """Rank-one density matrix |psi><psi|."""
        return DensityMatrix(self.dims, np.outer(self.amplitudes, self.amplitudes.conj()))

    def overlap(self, other: "PureState") -> complex:
        return complex(self.amplitudes.conj() @ other.amplitudes)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, trace-one operator with local dims."""

    dims: tuple[int, ...]
    matrix: np.ndarray

    def __init__(self, dims, matrix, tol: float = 1e-10):
        dims = tuple(int(d) for d in dims)
        matrix = np.asarray(matrix, dtype=complex)
        d = int(np.prod(dims))
        if matrix.shape != (d, d):
            raise ValueError("matrix shape does not match local dims")
        matrix = check_hermitian(matrix, tol)
        tr = np.trace(matrix).real
        if abs(tr - 1.0) > tol:
            raise ValueError(f"trace must be one, got {tr}")
        w = np.linalg.eigvalsh(matrix)
        if w[0] < -tol:
            raise ValueError(f"negative eigenvalue {w[0]:.3e}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Schmidt data of a bipartite pure state.

    ``coefficients`` are the positive Schmidt coefficients in descending
    order (squares sum to one), ``rank`` their count after the numerical
    cutoff, and ``left``/``right`` hold the orthonormal Schmidt vectors as
    columns.
    """

    coefficients: np.ndarray
    rank: int
    left: np.ndarray
    right: np.ndarray
    cut_dims: tuple[int, int] = field(default=(0, 0))

    def reconstruct(self) -> np.ndarray:
        """Amplitude vector of sum_i lambda_i |e_i>|f_i>."""
        mat = (self.left * self.coefficients) @ self.right.conj().T
        return mat.ravel()


def _split_dims(dims: tuple[int, ...], cut: int) -> tuple[int, int]:
    if not 1 <= cut <= len(dims) - 1:
        raise ValueError("cut must split the sites into two nonempty groups")
    da = int(np.prod(dims[:cut]))
    db = int(np.prod(dims[cut:]))
    return da, db


def schmidt(psi: PureState, cut: int = 1, cutoff: float = SCHMIDT_CUTOFF) -> SchmidtDecomposition:
    """Schmidt decomposition across the contiguous cut ``[0:cut) | [cut:N)``.

    Coefficients below ``cutoff`` are discarded; they are numerical noise and
    do not affect entropies at the tolerances used here.
    """
    da, db = _split_dims(psi.dims, cut)
    mat = psi.amplitudes.reshape(da, db)
    u, s, vh = svd(mat)
    keep = s > cutoff
    s, u, vh = s[keep], u[:, keep], vh[keep, :]
    return SchmidtDecomposition(
        coefficients=s, rank=int(s.size), left=u, right=vh.conj().T, cut_dims=(da, db)
    )


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every subsystem not listed in ``keep`` (site indices)."""
    keep = sorted(set(int(k) for k in keep))
    n = len(rho.dims)
    if not keep:
        raise ValueError("keep must be a nonempty set of sites")
    if any(k < 0 or k >= n for k in keep):
        raise ValueError("keep indices out of range")
    dims = rho.dims
    tensor = rho.matrix.reshape(dims + dims)
    traced = [k for k in range(n) if k not in keep]
    for offset, k in enumerate(traced):
        ax = k - offset
        nleft = n - offset
        tensor = np.trace(tensor, axis1=ax, axis2=ax + nleft)
    d_keep = int(np.prod([dims[k] for k in keep]))
    out = tensor.reshape(d_keep, d_keep)
    return DensityMatrix(tuple(dims[k] for k in keep), out)


def partial_trace_pure(psi: PureState, cut: int, which: str = "A") -> DensityMatrix:
    """Reduced state of the left (``A``) or right (``B``) block of a pure state."""
    da, db = _split_dims(psi.dims, cut)
    mat = psi.amplitudes.reshape(da, db)
    if which == "A":
        return DensityMatrix(psi.dims[:cut], mat @ mat.conj().T)
    if which == "B":
        return DensityMatrix(psi.dims[cut:], mat.T @ mat.conj())
    raise ValueError("which must be 'A' or 'B'")


def partial_transpose_matrix(mat: np.ndarray, da: int, db: int, subsystem: str = "A") -> np.ndarray:
    """Partial transpose of a raw ``(da*db, da*db)`` matrix."""
    t = np.asarray(mat).reshape(da, db, da, db)
    if subsystem == "A":
        t = t.transpose(2, 1, 0, 3)
    elif subsystem == "B":
        t = t.transpose(0, 3, 2, 1)
    else:
        raise ValueError("subsystem must be 'A' or 'B'")
    return t.reshape(da * db, da * db)


def partial_transpose(rho: DensityMatrix, subsystem: str = "A", cut: int = 1) -> np.ndarray:
    """Transpose one side of a bipartition, leaving the other untouched.

    For ``subsystem='A'`` the entry rule is
    ``rho_pt[(j, mu), (i, nu)] = rho[(i, mu), (j, nu)]``.
    Returns a plain Hermitian matrix; it is generally not PSD.
    """
    da, db = _split_dims(rho.dims, cut)
    return partial_transpose_matrix(rho.matrix, da, db, subsystem)


def is_ppt(rho: DensityMatrix, tol: float = 1e-10, cut: int = 1) -> tuple[bool, float]:
    """Positive-partial-transpose test; returns (verdict, min eigenvalue)."""
    w = np.linalg.eigvalsh(check_hermitian(partial_transpose(rho, "A", cut)))
    return bool(w[0] >= -tol), float(w[0])


def entropy_from_probabilities(p: np.ndarray, base=2) -> float:
    """Shannon entropy of a probability vector with 0 log 0 = 0, clamped at 0."""
    log = _log(base)
    p = np.asarray(p, dtype=float)
    p = p[p > 0]
    return max(float(-(p * log(p)).sum()), 0.0)


def binary_entropy(x: float) -> float:
    """H(x) = -x log2 x - (1-x) log2 (1-x) in bits; terms below 1e-14 count as 0."""
    out = 0.0
    for v in (x, 1.0 - x):
        if v > 1e-14:
            out -= v * math.log2(v)
    return out


def von_neumann_entropy(rho: DensityMatrix, base=2) -> float:
    """Entropy -tr(rho log rho), in bits by default."""
    w = rho.eigenvalues()
    return entropy_from_probabilities(np.clip(w, 0.0, None), base)


def renyi_entropy_from_spectrum(w: np.ndarray, alpha: float, base=2,
                                cutoff: float = SCHMIDT_CUTOFF) -> float:
    log = _log(base)
    w = np.clip(np.asarray(w, dtype=float), 0.0, None)
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if alpha == 0:
        return float(log(np.count_nonzero(w > cutoff)))
    if alpha == 1:
        return entropy_from_probabilities(w, base)
    if np.isinf(alpha):
        return float(-log(w.max()))
    w = w[w > 0]
    return float(log((w ** alpha).sum()) / (1.0 - alpha))


def renyi_entropy(rho: DensityMatrix, alpha: float, base=2) -> float:
    """Renyi entropy of order alpha; alpha = 0, 1, inf handled as limits."""
    return renyi_entropy_from_spectrum(rho.eigenvalues(), alpha, base)


def mutual_information(rho: DensityMatrix, cut: int = 1, base=2) -> float:
    """S(A) + S(B) - S(AB) across a contiguous bipartition."""
    n = len(rho.dims)
    sa = von_neumann_entropy(partial_trace(rho, range(cut)), base)
    sb = von_neumann_entropy(partial_trace(rho, range(cut, n)), base)
    sab = von_neumann_entropy(rho, base)
    return sa + sb - sab


# ---------------------------------------------------------------------------
# random-state samplers (used by tests and by witness spot checks)
# ---------------------------------------------------------------------------

def random_pure(dims, rng) -> PureState:
    """Haar-distributed pure state: normalized complex Gaussian amplitudes."""
    d = int(np.prod(dims))
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(dims, v / np.linalg.norm(v))


def random_density(dims, rng, rank: int | None = None) -> DensityMatrix:
    """Wishart-type random mixed state of the given rank (full rank default)."""
    d = int(np.prod(dims))
    rank = d if rank is None else rank
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return DensityMatrix(dims, m / np.trace(m).real)


def random_schmidt_rank_state(da: int, db: int, rank: int, rng,
                              coeff_low: float = 0.2) -> PureState:
    """Pure state with exactly the requested Schmidt rank.

    Schmidt coefficients are drawn in ``[coeff_low, 1]`` before normalization
    so none of them degenerates to numerical noise.
    """
    if rank > min(da, db):
        raise ValueError("rank cannot exceed min(da, db)")
    lam = rng.uniform(coeff_low, 1.0, size=rank)
    lam /= np.linalg.norm(lam)
    ga = rng.standard_normal((da, rank)) + 1j * rng.standard_normal((da, rank))
    gb = rng.standard_normal((db, rank)) + 1j * rng.standard_normal((db, rank))
    qa, _ = np.linalg.qr(ga)
    qb, _ = np.linalg.qr(gb)
    mat = (qa * lam) @ qb.T
    return PureState((da, db), mat.ravel())


def _unit_rows(z: np.ndarray) -> np.ndarray:
    """Each row of the complex ``z`` divided by its norm.

    The norm is ``sqrt(re . re + im . im)`` with one BLAS dot product per
    part, the arithmetic of ``np.linalg.norm`` on a vector, so each row equals
    ``v / np.linalg.norm(v)`` bit for bit; rows that are not unit vectors
    after the division fail the check :class:`PureState` applies.
    """
    def norms(x):
        re, im = x.real[:, None, :], x.imag[:, None, :]
        dots = re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1)
        return np.sqrt(dots[:, 0, 0])

    out = z / norms(z)[:, None]
    worst = float(np.abs(norms(out) - 1.0).max())
    if worst > 1e-10:
        raise ValueError(f"state is not normalized: ||psi| - 1| = {worst}")
    return out


def random_separable(da: int, db: int, rng, nterms: int | None = None) -> DensityMatrix:
    """Random mixture of product projectors with Dirichlet weights.

    The number of terms respects the Caratheodory bound (da*db)^2.  This is a
    sampler of separable states, not a separability oracle.  The normals of
    all terms come from one draw, each term taking its factors' real and
    imaginary parts in the order a-real, a-imag, b-real, b-imag; the result
    equals drawing each factor with :func:`random_pure` in turn.
    """
    kmax = (da * db) ** 2
    k = int(rng.integers(1, kmax + 1)) if nterms is None else min(nterms, kmax)
    weights = rng.dirichlet(np.ones(k))
    z = rng.standard_normal((k, 2 * da + 2 * db))
    a = _unit_rows(z[:, :da] + 1j * z[:, da:2 * da])
    b = _unit_rows(z[:, 2 * da:2 * da + db] + 1j * z[:, 2 * da + db:])
    v = (a[:, :, None] * b[:, None, :]).reshape(k, da * db)
    terms = weights[:, None, None] * (v[:, :, None] * v.conj()[:, None, :])
    out = np.zeros((da * db, da * db), dtype=complex)
    for term in terms:
        out += term
    return DensityMatrix((da, db), out)


def max_entangled(d: int) -> PureState:
    """The maximally entangled state sum_i |ii>/sqrt(d) on d x d."""
    amp = np.eye(d, dtype=complex).ravel() / np.sqrt(d)
    return PureState((d, d), amp)


def bell_state() -> PureState:
    return max_entangled(2)
