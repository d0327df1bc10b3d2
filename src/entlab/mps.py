"""Matrix product states: construction, canonical form, truncation, examples.

A :class:`MatrixProductState` stores one tensor per site with shape
``(d, D_left, D_right)``; the represented state is ``scale`` times the
contraction of the tensors (open chains contract to a scalar through
trivial edge bonds, periodic chains through a trace).  Example states whose
site matrices are part of the public contract (GHZ, AKLT, Majumdar-Ghosh,
cluster, classical thermal superpositions) keep their matrices verbatim and
carry the numerical normalization in ``scale``, so both the matrices and the
normalized physics are testable.

Canonical form (open chains)
----------------------------
``canonicalize`` produces right-normalized tensors ``B`` together with the
positive diagonal matrices ``Lambda[k]`` (trace one) listing the squared
Schmidt coefficients of the cut after site k+1.  The three defining
conditions, checked by :func:`canonical_defects`, are

* ``sum_i B[k]_i B[k]_i^dag = 1``            (right normalization)
* ``sum_i B[k]_i^dag Lambda[k-1] B[k]_i = Lambda[k]``
* ``Lambda`` positive diagonal with unit trace, trivial at both ends.

Truncation to bond dimension D discards the smallest Schmidt weights at
every cut (projector semantics).  The resulting error obeys

    || psi - psi_D ||^2  <=  2 * sum_cuts eps_cut(D),

with ``eps_cut(D)`` the discarded weight at that cut; :func:`truncate`
reports each ``eps`` and the bound.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import PAULI_Z, SIGMA_MINUS, SIGMA_PLUS, NumericalError, check_budget, svd
from .states import SCHMIDT_CUTOFF, PureState, require_single

# sign of <Z X Z> on the cluster-state matrices below, fixed by measurement
CLUSTER_STABILIZER_SIGN = -1


@dataclass
class MatrixProductState:
    """Chain of site tensors ``(d, D_left, D_right)`` with a global scale."""

    tensors: list
    boundary: str = "open"
    scale: complex = 1.0
    lambdas: list | None = None
    canonical: bool = False

    def __post_init__(self):
        if self.boundary not in ("open", "periodic"):
            raise ValueError("boundary must be 'open' or 'periodic'")
        self.tensors = [np.asarray(t, dtype=complex) for t in self.tensors]
        for t in self.tensors:
            if t.ndim != 3:
                raise ValueError("site tensors must have shape (d, Dl, Dr)")
        for a, b in zip(self.tensors, self.tensors[1:]):
            if a.shape[2] != b.shape[1]:
                raise ValueError("bond dimensions do not chain")
        if self.boundary == "open":
            if self.tensors[0].shape[1] != 1 or self.tensors[-1].shape[2] != 1:
                raise ValueError("open boundary requires trivial edge bonds")
        else:
            if self.tensors[0].shape[1] != self.tensors[-1].shape[2]:
                raise ValueError("periodic boundary requires matching edge bonds")

    @property
    def nsites(self) -> int:
        return len(self.tensors)

    @property
    def local_dim(self) -> int:
        return self.tensors[0].shape[0]

    @property
    def bond_dims(self) -> list[int]:
        return [t.shape[1] for t in self.tensors] + [self.tensors[-1].shape[2]]

    def dense_amplitudes(self) -> np.ndarray:
        """Raw contraction times scale (no normalization)."""
        n = self.nsites
        check_budget("mps_dense_max_amplitudes", self.local_dim ** n,
                     f"{self.local_dim}^{n} amplitudes over the dense budget")
        acc = None
        for t in self.tensors:
            if acc is None:
                acc = t[:, :, :]
            else:
                acc = np.einsum("sab,ibc->siac", acc, t).reshape(-1, acc.shape[1], t.shape[2])
        if self.boundary == "open":
            amps = acc[:, 0, 0]
        else:
            amps = np.trace(acc, axis1=1, axis2=2)
        return self.scale * amps

    def to_dense(self) -> PureState:
        """The represented state as a normalized dense vector."""
        amps = self.dense_amplitudes()
        norm = float(np.linalg.norm(amps))
        if norm == 0.0:
            raise ValueError("null state")
        return PureState((self.local_dim,) * self.nsites, amps / norm)


@dataclass(frozen=True)
class TruncationReport:
    """Discarded Schmidt weight per cut and the distance-squared bound."""

    discarded: tuple
    bound: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "bound", 2.0 * float(sum(self.discarded)))


# ---------------------------------------------------------------------------
# construction and gauges
# ---------------------------------------------------------------------------

def from_dense(psi: PureState) -> MatrixProductState:
    """Exact open-boundary MPS of a dense state by sequential SVD, in canonical form.

    Requires a uniform local dimension.  Every singular value above
    ``SCHMIDT_CUTOFF`` is kept; :func:`truncate` caps the bonds.
    """
    dims = set(require_single(psi).dims)
    if len(dims) != 1:
        raise ValueError("from_dense requires a uniform local dimension")
    d = dims.pop()
    n = len(psi.dims)
    tensors = []
    v = psi.amplitudes.reshape(1, -1)
    left = 1
    for _ in range(n - 1):
        m = v.reshape(left * d, -1)
        u, s, vh = svd(m)
        keep = int((s > SCHMIDT_CUTOFF).sum()) or 1
        u, s, vh = u[:, :keep], s[:keep], vh[:keep, :]
        tensors.append(u.reshape(left, d, keep).transpose(1, 0, 2))
        v = (s[:, None] * vh)
        left = keep
    tensors.append(v.reshape(left, d, 1).transpose(1, 0, 2))
    return canonicalize(MatrixProductState(tensors, boundary="open"))


def canonicalize(mps: MatrixProductState) -> MatrixProductState:
    """Right-canonical gauge with Schmidt data, for open chains.

    The physical state is unchanged up to the stored scale; the returned
    tensors are right-normalized and ``lambdas[k]`` holds the squared Schmidt
    coefficients above ``SCHMIDT_CUTOFF`` of cut k+1 in descending order.
    """
    if mps.boundary != "open":
        raise ValueError("canonical form is defined for open chains")
    n = mps.nsites
    tensors = [t.copy() for t in mps.tensors]
    scale = complex(mps.scale)

    # left-to-right QR sweep: left-orthonormalize, push the norm to the right
    for k in range(n):
        d, dl, dr = tensors[k].shape
        m = tensors[k].transpose(1, 0, 2).reshape(dl * d, dr)
        q, r = np.linalg.qr(m)
        newd = q.shape[1]
        tensors[k] = q.reshape(dl, d, newd).transpose(1, 0, 2)
        if k + 1 < n:
            tensors[k + 1] = np.einsum("ab,ibc->iac", r, tensors[k + 1])
        else:
            scale = scale * r[0, 0]

    # right-to-left SVD sweep: right-normalize and collect Schmidt spectra
    lambdas: list[np.ndarray] = [None] * (n - 1)
    for k in range(n - 1, 0, -1):
        d, dl, dr = tensors[k].shape
        m = tensors[k].transpose(1, 0, 2).reshape(dl, d * dr)
        u, s, vh = svd(m)
        keep = int((s > SCHMIDT_CUTOFF).sum()) or 1
        u, s, vh = u[:, :keep], s[:keep], vh[:keep, :]
        tensors[k] = vh.reshape(keep, d, dr).transpose(1, 0, 2)
        carry = u * s
        tensors[k - 1] = np.einsum("iab,bc->iac", tensors[k - 1], carry)
        lambdas[k - 1] = s ** 2
    # absorb the residual norm and phase of the first site into the scale
    d, dl, dr = tensors[0].shape
    m = tensors[0].transpose(1, 0, 2).reshape(dl, d * dr)
    u, s, vh = svd(m)
    tensors[0] = vh.reshape(s.size, d, dr).transpose(1, 0, 2)
    scale = scale * (u[0, 0] * s[0])
    return MatrixProductState(tensors, boundary="open", scale=scale,
                              lambdas=lambdas, canonical=True)


def canonical_defects(mps: MatrixProductState) -> dict[str, float]:
    """Max violations of the three canonical-form conditions."""
    if not mps.canonical or mps.lambdas is None:
        raise ValueError("state is not flagged canonical")
    n = mps.nsites
    right, transfer, lam = 0.0, 0.0, 0.0
    lam_ext = [np.array([1.0])] + list(mps.lambdas) + [np.array([1.0])]
    for k in range(n):
        b = mps.tensors[k]
        d, left, _ = b.shape
        # sum_i B_i B_i^dag and sum_i B_i^dag diag(lambda) B_i, one product each:
        # the physical index joins the right bond, then the left one
        rows = b.transpose(1, 0, 2).reshape(left, -1)
        right = max(right, float(np.abs(rows @ rows.conj().T - np.eye(left)).max()))
        weighted = (b * lam_ext[k][:, None]).reshape(d * left, -1)
        moved = weighted.conj().T @ b.reshape(d * left, -1)
        transfer = max(transfer, float(np.abs(moved - np.diag(lam_ext[k + 1])).max()))
    for l in mps.lambdas:
        lam = max(lam, abs(float(l.sum()) - 1.0))
        if np.any(l <= 0):
            lam = math.inf
    return {"right_normalization": right, "lambda_transfer": transfer, "lambda_trace": lam}


def truncate(mps: MatrixProductState, dmax: int) -> tuple[MatrixProductState, TruncationReport]:
    """Cap every bond at ``dmax``, discarding the smallest Schmidt weights.

    Requires canonical input.  Projector semantics: the returned state is the
    input with every bond projected onto its ``dmax`` leading Schmidt vectors
    (no renormalization), so the reported bound ``2 sum eps`` applies to the
    raw distance squared.  It stays canonical if no bond exceeded ``dmax``.
    """
    if dmax < 1:
        raise ValueError("bond dimension must be at least 1")
    if not mps.canonical or mps.lambdas is None:
        raise ValueError("truncate requires a canonical state")
    n = mps.nsites
    eps = []
    for l in mps.lambdas:
        eps.append(float(l[dmax:].sum()) if l.size > dmax else 0.0)
    tensors = []
    for k, t in enumerate(mps.tensors):
        dl = min(t.shape[1], dmax) if k > 0 else t.shape[1]
        dr = min(t.shape[2], dmax) if k < n - 1 else t.shape[2]
        tensors.append(t[:, :dl, :dr].copy())
    lambdas = [l[:dmax].copy() for l in mps.lambdas]
    return (
        MatrixProductState(tensors, boundary="open", scale=mps.scale, lambdas=lambdas,
                           canonical=max(mps.bond_dims) <= dmax),
        TruncationReport(tuple(eps)),
    )


def renyi_truncation_bound(s_alpha: float, alpha: float, dmax: int) -> float:
    """Upper bound on log eps(D) from a Renyi entropy of order 0 < alpha < 1.

    Natural-log units on both sides:
    log eps(D) <= ((1 - alpha)/alpha) * (S_alpha - log(D / (1 - alpha))).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    return ((1.0 - alpha) / alpha) * (s_alpha - math.log(dmax / (1.0 - alpha)))


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------

def _transfer(t: np.ndarray, op: np.ndarray | None = None) -> np.ndarray:
    """Transfer matrix of one site, ``sum_ij op[j, i] conj(t[j]) (x) t[i]``.

    Rows pair the left bonds of the bra and the ket, columns their right
    bonds; without ``op`` the physical index is contracted directly.
    """
    if op is None:
        step = np.einsum("ixa,iyb->xyab", t.conj(), t)
    else:
        step = np.einsum("ji,jxa,iyb->xyab", op, t.conj(), t)
    return step.reshape(t.shape[1] ** 2, t.shape[2] ** 2)


def _contract(steps, boundary: str) -> complex:
    """Product of the transfer matrices, closed by the boundary: ``[0, 0]``
    of an open chain's trivial edge bonds, the trace of a periodic one."""
    prod = functools.reduce(np.matmul, steps)
    return prod[0, 0] if boundary == "open" else np.trace(prod)


def expectation(mps: MatrixProductState, ops: dict[int, np.ndarray]) -> complex:
    """Normalized expectation value of a product of single-site operators.

    ``ops`` maps site index to a local operator matrix; missing sites get
    the identity.  Raises ``ValueError`` for a site outside ``0..N-1`` or an
    operator that is not ``(d, d)``, and :class:`~entlab.linalg.NumericalError`
    if the numerator or the norm leaves the float range or the norm is zero.
    """
    d = mps.local_dim
    for site, op in ops.items():
        if site not in range(mps.nsites):
            raise ValueError(f"site {site!r} is not one of the sites 0..{mps.nsites - 1}")
        if np.shape(op) != (d, d):
            raise ValueError(f"operator at site {site} has shape {np.shape(op)}, not ({d}, {d})")
    ident = np.eye(d, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        num = _contract((_transfer(t, np.asarray(ops.get(k, ident), dtype=complex))
                         for k, t in enumerate(mps.tensors)), mps.boundary)
        den = _contract((_transfer(t) for t in mps.tensors), mps.boundary)
        value = num / den
    if not np.isfinite([num, den, value]).all():
        raise NumericalError(f"expectation: the contraction {num} / {den} is not a finite ratio")
    return complex(value)


# ---------------------------------------------------------------------------
# named example states (site matrices are part of the contract)
# ---------------------------------------------------------------------------

def _uniform_pbc(matrices: list[np.ndarray], n: int) -> MatrixProductState:
    """Translation-invariant periodic MPS with numerically computed norm.

    Raises :class:`~entlab.linalg.NumericalError` if the norm is not a
    finite positive float, as on long chains whose transfer matrix has a
    leading eigenvalue far from 1.
    """
    site = np.stack([np.asarray(m, dtype=complex) for m in matrices])
    transfer = _transfer(site)
    with np.errstate(over="ignore", invalid="ignore"):
        norm_sq = complex(_contract([transfer] * n, "periodic")).real
    if not 0.0 < norm_sq < math.inf:
        raise NumericalError(f"the squared norm of the {n}-site periodic MPS is {norm_sq}, "
                             "outside the float range")
    mps = MatrixProductState([site.copy() for _ in range(n)], boundary="periodic",
                             scale=1.0 / math.sqrt(norm_sq))
    return mps


def ghz_mps(n: int) -> MatrixProductState:
    """(|0...0> + |1...1>)/sqrt(2) with site matrices 1 +- sigma_z."""
    if n < 2:
        raise ValueError("need at least 2 sites")
    return _uniform_pbc([np.eye(2) + PAULI_Z, np.eye(2) - PAULI_Z], n)


def antiferro_ghz_mps(n: int) -> MatrixProductState:
    """(|0101...> + |1010...>)/sqrt(2) with site matrices sigma^+-; even n."""
    if n < 2 or n % 2:
        raise ValueError("need an even number of sites")
    return _uniform_pbc([SIGMA_PLUS, SIGMA_MINUS], n)


def aklt_mps(n: int) -> MatrixProductState:
    """Spin-1 AKLT ground state (periodic), bond dimension 2.

    Site matrices in the S^z basis ordered (+1, 0, -1):
    A_{+1} = -sqrt(2) sigma^+, A_0 = sigma_z, A_{-1} = sqrt(2) sigma^-.
    """
    if n < 3:
        raise ValueError("need at least 3 sites")
    mats = [-math.sqrt(2) * SIGMA_PLUS, PAULI_Z.copy(), math.sqrt(2) * SIGMA_MINUS]
    return _uniform_pbc(mats, n)


def majumdar_ghosh_mps(n: int) -> MatrixProductState:
    """Translation-invariant dimer ground state of the Majumdar-Ghosh chain.

    Bond dimension 3; requires an even periodic chain.
    """
    if n < 4 or n % 2:
        raise ValueError("need an even chain of at least 4 sites")
    a0 = np.array([[0, 1, 0], [0, 0, -1], [0, 0, 0]], dtype=complex)
    a1 = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=complex)
    return _uniform_pbc([a0, a1], n)


def cluster_mps(n: int) -> MatrixProductState:
    """One-dimensional cluster state (periodic), bond dimension 2.

    Every stabilizer expectation <Z X Z> equals
    ``CLUSTER_STABILIZER_SIGN`` (the same sign on all sites).
    """
    if n < 3:
        raise ValueError("need at least 3 sites")
    a0 = np.array([[0, 0], [1, 1]], dtype=complex)
    a1 = np.array([[1, -1], [0, 0]], dtype=complex)
    return _uniform_pbc([a0, a1], n)


def classical_superposition_mps(coupling: float, beta: float, n: int) -> MatrixProductState:
    """Thermal superposition state of the Ising ring ``H(s) = -J sum_i s_i s_{i+1}``.

    ``coupling`` is J.  The amplitudes of the produced periodic MPS are
    proportional to ``exp(-beta H(s) / 2)`` over spins ``s_i`` in (1, -1),
    site digit 0 for 1.  The construction needs the symmetric matrix
    ``M[s, s'] = exp(beta J s s' / 2)`` to be positive semidefinite, which
    holds for beta J >= 0; its principal square root provides the local frame.
    """
    spins = (1.0, -1.0)
    d = len(spins)
    m = np.empty((d, d))
    for a, sa in enumerate(spins):
        for b, sb in enumerate(spins):
            m[a, b] = math.exp(-0.5 * beta * (-coupling * sa * sb))
    w, v = np.linalg.eigh(m)
    if w[0] < -1e-12 * max(abs(w[-1]), 1.0):
        raise ValueError(
            f"exp(-beta h / 2) has negative eigenvalue {w[0]:.3e}; "
            "no real rank-d frame exists for this coupling"
        )
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    mats = [np.outer(root[s], root[s]) for s in range(d)]
    return _uniform_pbc(mats, n)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def to_json_dict(mps: MatrixProductState) -> dict:
    """JSON-ready document; field names are part of the file contract."""
    return {
        "N": mps.nsites,
        "d": mps.local_dim,
        "boundary": mps.boundary,
        "bonds": mps.bond_dims,
        "tensors": [
            {"re": t.real.tolist(), "im": t.imag.tolist()} for t in mps.tensors
        ],
        "lambdas": None if mps.lambdas is None else [l.tolist() for l in mps.lambdas],
        "scale": [complex(mps.scale).real, complex(mps.scale).imag],
        "canonical": bool(mps.canonical),
    }


def from_json_dict(doc: dict) -> MatrixProductState:
    tensors = [
        np.asarray(t["re"], dtype=float) + 1j * np.asarray(t["im"], dtype=float)
        for t in doc["tensors"]
    ]
    lambdas = doc.get("lambdas")
    return MatrixProductState(
        tensors,
        boundary=doc["boundary"],
        scale=complex(doc["scale"][0], doc["scale"][1]),
        lambdas=None if lambdas is None else [np.asarray(l, dtype=float) for l in lambdas],
        canonical=bool(doc.get("canonical", False)),
    )


def save_mps(mps: MatrixProductState, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(mps), fh)


def load_mps(path) -> MatrixProductState:
    with open(path, encoding="utf-8") as fh:
        return from_json_dict(json.load(fh))
