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

A :class:`DensityMatrix` computes its spectrum once, in the ``eigvalsh``
that validates it, and keeps it: entropies and mutual information read that
spectrum instead of diagonalizing again.  Both the matrix and the spectrum
are read-only arrays, so the spectrum cannot go stale.

Both classes also hold a stack of states on a leading axis (``count``; None
for one state), each row checked as one state is.  A function that acts row
by row returns for row i bitwise what it returns for that state alone; a
sampler given ``count`` returns the rows of ``count`` successive single
draws.  Every other function raises ``ValueError`` on a stack
(:func:`require_single`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import check_hermitian, svd

SCHMIDT_CUTOFF = 1e-12
_LOG_BASE = {2: np.log2, "e": np.log}


def _log(base):
    try:
        return _LOG_BASE[base]
    except (KeyError, TypeError):
        raise ValueError("entropy base must be 2 or 'e'") from None


@dataclass(frozen=True)
class PureState:
    """Normalized pure state on a tensor product of finite subsystems.

    ``amplitudes`` is one state (any shape, raveled) or, as a 2-d array, a
    stack of states, one per row, each with unit norm.
    """

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __init__(self, dims, amplitudes):
        dims = tuple(int(d) for d in dims)
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.ndim != 2:
            amplitudes = amplitudes.ravel()
        if math.prod(dims) != amplitudes.shape[-1]:
            raise ValueError("product of local dims must equal amplitude length")
        norm = np.linalg.norm(amplitudes, axis=-1)
        _require(abs(norm - 1.0) <= 1e-10, norm, "state is not normalized: |psi| = {}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amplitudes)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[-1]

    @property
    def count(self) -> int | None:
        """Number of stacked states; None for one state."""
        return len(self.amplitudes) if self.amplitudes.ndim == 2 else None

    def projector(self) -> DensityMatrix:
        """Rank-one density matrix |psi><psi| (one per row of a stack)."""
        a = self.amplitudes
        return DensityMatrix(self.dims, a[..., :, None] * a.conj()[..., None, :])


def _require(passed, values, message: str) -> None:
    """Raise ValueError with ``message`` formatted by the value of the first
    row of ``values`` where ``passed`` is False (a NaN comparison fails)."""
    passed = np.asarray(passed)
    if not passed.all():
        raise ValueError(message.format(np.ravel(values)[np.argmin(passed)]))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, trace-one operator with local dims.

    Construction symmetrizes ``matrix`` into a fresh array and validates it
    with one ``eigvalsh``, whose ascending eigenvalues the state keeps and
    :meth:`eigenvalues` returns.  A float64 input is validated in float64 and
    only then cast, to the bits its complex cast gives; other dtypes are cast
    first.  ``matrix`` (complex) and the spectrum are read-only; the caller's
    input array is never modified.  A 3-d ``matrix`` is a stack of states:
    each is checked against its own scale, trace and smallest eigenvalue, by
    one stacked call per step.
    """

    dims: tuple[int, ...]
    matrix: np.ndarray
    _spectrum: np.ndarray = field(init=False, compare=False, repr=False)

    def __init__(self, dims, matrix, tol: float = 1e-10):
        dims = tuple(int(d) for d in dims)
        matrix = np.asarray(matrix)
        d = math.prod(dims)
        if matrix.ndim not in (2, 3) or matrix.shape[-2:] != (d, d):
            raise ValueError("matrix shape does not match local dims")
        if matrix.dtype == float:  # symmetrized in float64, then cast: the complex path's bits
            # allocated before the float64 copy: glibc malloc puts that copy above it, and
            # once freed its space joins the end of the heap, where eigvalsh copies to
            cast = np.empty(matrix.shape, complex)
            matrix = check_hermitian(matrix, tol)
            matrix += 0.0  # a -0.0 sum becomes +0.0, as in the complex division by 2
            cast[...] = matrix
            matrix = cast
        else:
            matrix = check_hermitian(matrix.astype(complex, copy=False), tol)
        tr = np.trace(matrix, axis1=-2, axis2=-1).real
        _require(abs(tr - 1.0) <= tol, tr, "trace must be one, got {}")
        w = np.linalg.eigvalsh(matrix)
        _require(w[..., 0] >= -tol, w[..., 0], "negative eigenvalue {:.3e}")
        matrix.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_spectrum", w)

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    @property
    def count(self) -> int | None:
        """Number of stacked states; None for one state."""
        return len(self.matrix) if self.matrix.ndim == 3 else None

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues (one row per stacked state), computed once at
        validation (read-only)."""
        return self._spectrum


def require_single(state):
    """``state`` if it is one state; ``ValueError`` if it is a stack."""
    if state.count is not None:
        raise ValueError(f"expected one state, got a stack of {state.count}")
    return state


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


def _split_dims(dims: tuple[int, ...], cut: int) -> tuple[int, int]:
    if not 1 <= cut <= len(dims) - 1:
        raise ValueError("cut must split the sites into two nonempty groups")
    da = math.prod(dims[:cut])
    db = math.prod(dims[cut:])
    return da, db


def schmidt(psi: PureState, cut: int = 1) -> SchmidtDecomposition:
    """Schmidt decomposition across the contiguous cut ``[0:cut) | [cut:N)``.

    Coefficients at or below ``SCHMIDT_CUTOFF`` are discarded; they are
    numerical noise and do not affect entropies at the tolerances used here.
    Public API that no command calls.
    """
    da, db = _split_dims(require_single(psi).dims, cut)
    mat = psi.amplitudes.reshape(da, db)
    u, s, vh = svd(mat)
    keep = s > SCHMIDT_CUTOFF
    s, u, vh = s[keep], u[:, keep], vh[keep, :]
    return SchmidtDecomposition(coefficients=s, rank=int(s.size), left=u, right=vh.conj().T)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every subsystem not listed in ``keep`` (site indices)."""
    keep = sorted(set(int(k) for k in keep))
    n = len(require_single(rho).dims)
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
    d_keep = math.prod(dims[k] for k in keep)
    out = tensor.reshape(d_keep, d_keep)
    return DensityMatrix(tuple(dims[k] for k in keep), out)


def partial_trace_pure(psi: PureState, cut: int) -> DensityMatrix:
    """Reduced state of the left block, the first ``cut`` subsystems, of a pure
    state (one per row of a stack)."""
    da, db = _split_dims(psi.dims, cut)
    mat = psi.amplitudes.reshape(psi.amplitudes.shape[:-1] + (da, db))
    return DensityMatrix(psi.dims[:cut], mat @ np.swapaxes(mat.conj(), -1, -2))


def partial_transpose_matrix(mat: np.ndarray, da: int, db: int) -> np.ndarray:
    """Partial transpose of a raw ``(da*db, da*db)`` matrix, or of each in a
    stack, on its second (``db``-dimensional) factor."""
    mat = np.asarray(mat)
    lead = mat.shape[:-2]
    t = mat.reshape(lead + (da, db, da, db)).swapaxes(-3, -1)
    return t.reshape(lead + (da * db, da * db))


def partial_transpose(rho: DensityMatrix) -> np.ndarray:
    """Transpose the side after the first subsystem, leaving the first untouched:
    ``rho_pt[(i, nu), (j, mu)] = rho[(i, mu), (j, nu)]``.

    The other side's transpose is the full transpose of this one, with the
    same spectrum.  Returns a plain Hermitian matrix (a stack of them for a
    stack); it is generally not PSD.
    """
    return partial_transpose_matrix(rho.matrix, *_split_dims(rho.dims, 1))


def is_ppt(rho: DensityMatrix, tol: float = 1e-10) -> tuple[bool, float]:
    """PPT test across the split after the first subsystem; returns
    (verdict, min eigenvalue).  Public API that no command calls."""
    w = np.linalg.eigvalsh(partial_transpose(require_single(rho)))
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


def von_neumann_entropy(rho: DensityMatrix, base=2):
    """Entropy -tr(rho log rho), in bits by default; an array of one entropy
    per row for a stack.

    A row's spectrum is ascending, so its positive entries end it: rows with
    the same number of them are summed together, each as
    :func:`entropy_from_probabilities` sums one spectrum.
    """
    log = _log(base)
    w = np.clip(rho.eigenvalues(), 0.0, None).reshape(-1, rho.dim)
    positive = np.count_nonzero(w > 0, axis=1)
    out = np.empty(len(w))
    for k in np.unique(positive):
        rows = positive == k
        p = w[rows, w.shape[1] - k:]
        out[rows] = -(p * log(p)).sum(axis=1)
    out = np.where(0.0 > out, 0.0, out)  # max(S, 0.0), keeping a -0.0 as max keeps it
    return out if rho.count is not None else float(out[0])


def renyi_entropy_from_spectrum(w: np.ndarray, alpha: float, base=2) -> float:
    log = _log(base)
    w = np.clip(np.asarray(w, dtype=float), 0.0, None)
    if not alpha >= 0:  # NaN fails too
        raise ValueError("alpha must be nonnegative")
    if alpha == 0:
        return float(log(np.count_nonzero(w > SCHMIDT_CUTOFF)))
    if alpha == 1:
        return entropy_from_probabilities(w, base)
    if np.isinf(alpha):
        return float(-log(w.max()))
    w = w[w > 0]
    return float(log((w ** alpha).sum()) / (1.0 - alpha))


def renyi_entropy(rho: DensityMatrix, alpha: float) -> float:
    """Renyi entropy of order alpha in bits; alpha = 0, 1, inf handled as
    limits.  Public API that no command calls."""
    return renyi_entropy_from_spectrum(require_single(rho).eigenvalues(), alpha)


def mutual_information(rho: DensityMatrix, cut: int = 1) -> float:
    """S(A) + S(B) - S(AB) in bits across a contiguous bipartition.
    Public API that no command calls."""
    n = len(rho.dims)
    sa = von_neumann_entropy(partial_trace(rho, range(cut)))
    sb = von_neumann_entropy(partial_trace(rho, range(cut, n)))
    sab = von_neumann_entropy(rho)
    return sa + sb - sab


# ---------------------------------------------------------------------------
# random-state samplers (used by tests and by witness spot checks)
# ---------------------------------------------------------------------------

def random_pure(dims, rng, count: int | None = None) -> PureState:
    """Haar-distributed pure state: normalized complex Gaussian amplitudes; a
    stack of ``count`` of them if given."""
    d = math.prod(dims)
    z = rng.standard_normal((1 if count is None else count, 2, d))
    amplitudes = _unit_rows(z[:, 0] + 1j * z[:, 1])
    return PureState(dims, amplitudes if count is not None else amplitudes[0])


def random_density(dims, rng, rank: int | None = None) -> DensityMatrix:
    """Wishart-type random mixed state of the given rank (full rank default)."""
    d = math.prod(dims)
    rank = d if rank is None else rank
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return DensityMatrix(dims, m / np.trace(m).real)


def random_schmidt_rank_state(da: int, db: int, rank: int, rng,
                              count: int | None = None) -> PureState:
    """Pure state with exactly the requested Schmidt rank; a stack of ``count``
    of them if given.

    Schmidt coefficients are drawn in ``[0.2, 1]`` before normalization so
    none of them degenerates to numerical noise.  Each state draws its
    coefficients, then the normals of its two factors (real, imaginary), in
    one loop; the QR factorizations and products act on the whole stack.
    """
    if rank > min(da, db):
        raise ValueError("rank cannot exceed min(da, db)")
    n = 1 if count is None else count
    lam = np.empty((n, rank))
    z = np.empty((n, 2 * (da + db), rank))
    for i in range(n):
        lam[i] = rng.uniform(0.2, 1.0, size=rank)
        rng.standard_normal(out=z[i])
    lam = _unit_rows(lam)
    ga = z[:, :da] + 1j * z[:, da:2 * da]
    gb = z[:, 2 * da:2 * da + db] + 1j * z[:, 2 * da + db:]
    qa, _ = np.linalg.qr(ga)
    qb, _ = np.linalg.qr(gb)
    mat = (qa * lam[:, None, :]) @ np.swapaxes(qb, 1, 2)
    amplitudes = mat.reshape(n, da * db)
    return PureState((da, db), amplitudes if count is not None else amplitudes[0])


def _unit_rows(z: np.ndarray) -> np.ndarray:
    """Each row of the real or complex ``z`` divided by its norm.

    The norm is ``sqrt(re . re + im . im)`` with one BLAS dot product per
    part, the arithmetic of ``np.linalg.norm`` on a vector, so each row equals
    ``v / np.linalg.norm(v)`` bit for bit; rows that are not unit vectors
    after the division fail the check :class:`PureState` applies.
    """
    def norms(x):
        re, im = x.real[:, None, :], x.imag[:, None, :]
        dots = re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1)
        return np.sqrt(dots[:, 0, 0])

    if not np.isfinite(z).all():
        raise ValueError("state has non-finite amplitudes")
    out = z / norms(z)[:, None]
    worst = float(np.abs(norms(out) - 1.0).max())
    if not worst <= 1e-10:  # NaN fails too
        raise ValueError(f"state is not normalized: ||psi| - 1| = {worst}")
    return out


def random_separable(da: int, db: int, rng, count: int | None = None) -> DensityMatrix:
    """Random mixture of product projectors with Dirichlet weights; a stack of
    ``count`` of them if given.

    The number of terms is drawn uniformly from 1 to the Caratheodory bound
    (da*db)^2.  This is a sampler of separable states, not a separability
    oracle.  Each state draws its term count, its weights and the normals of
    all its terms, each term taking its factors' real and imaginary parts in
    the order a-real, a-imag, b-real, b-imag; the result equals drawing each
    factor with :func:`random_pure` in turn.  Term j of every state is added
    in turn, so each state's terms are summed in their drawn order.
    """
    kmax = (da * db) ** 2
    n = 1 if count is None else count
    terms, weights, z = np.empty(n, dtype=int), [], []
    for i in range(n):
        terms[i] = rng.integers(1, kmax + 1)
        weights.append(rng.dirichlet(np.ones(terms[i])))
        z.append(rng.standard_normal((terms[i], 2 * da + 2 * db)))
    weights, z = np.concatenate(weights), np.concatenate(z)
    a = _unit_rows(z[:, :da] + 1j * z[:, da:2 * da])
    b = _unit_rows(z[:, 2 * da:2 * da + db] + 1j * z[:, 2 * da + db:])
    v = (a[:, :, None] * b[:, None, :]).reshape(len(z), da * db)
    first = np.cumsum(terms) - terms  # row of each state's first term
    out = np.zeros((n, da * db, da * db), dtype=complex)
    for j in range(terms.max()):
        live = np.flatnonzero(terms > j)
        rows = first[live] + j
        t = v[rows]
        out[live] += weights[rows, None, None] * (t[:, :, None] * t.conj()[:, None, :])
    return DensityMatrix((da, db), out if count is not None else out[0])


def max_entangled(d: int) -> PureState:
    """The maximally entangled state sum_i |ii>/sqrt(d) on d x d."""
    amp = np.eye(d, dtype=complex).ravel() / np.sqrt(d)
    return PureState((d, d), amp)


def bell_state() -> PureState:
    return max_entangled(2)
