"""Quadratic-fermion ground states of the XY chain and their block entropies.

The anisotropic XY chain in a transverse field,

    H = -(1/2) sum_i [ (1+g)/2 X_i X_{i+1} + (1-g)/2 Y_i Y_{i+1} ]
        - (h/2) sum_i Z_i,

maps under the Jordan-Wigner transformation onto free fermions, so ground
states and reduced entropies of blocks ``{1, ..., n}`` follow from a
2N x 2N Majorana problem instead of the 2^N many-body one.  This is the
route to block-entropy scaling at sizes far beyond exact diagonalization;
the dense path remains the oracle at small N.

Bookkeeping
-----------
Majoranas are ``a_{2l} = (string) X_l`` and ``a_{2l+1} = (string) Y_l`` for
site l (0-based), giving ``Z_l = -i a_{2l} a_{2l+1}``.  The Hamiltonian is
``H = (i/4) sum K_mn a_m a_n`` with K real antisymmetric.  For periodic
chains the fermion boundary term carries a minus sign times the spin-flip
parity P, so each parity sector is solved with its own boundary sign and the
Gaussian state is fixed to the matching parity before the sector energies
are compared.  The ground covariance ``G_mn = (i/2) <[a_m, a_n]>`` restricted
to a block yields the entropy through its Williamson spectrum.
"""

from __future__ import annotations

import numpy as np
import scipy

from .states import binary_entropy


def majorana_quadratic(gamma: float, h: float, n: int, boundary_sign: float) -> np.ndarray:
    """Antisymmetric K of the XY chain; boundary terms scaled by boundary_sign.

    ``boundary_sign = 0`` gives the open chain, ``-1``/``+1`` the periodic
    chain in the even/odd spin-parity sector.
    """
    k = np.zeros((2 * n, 2 * n))

    def add(p, q, c):
        k[p, q] += 2 * c
        k[q, p] -= 2 * c

    for l in range(n):
        add(2 * l, 2 * l + 1, h / 2)  # -(h/2) Z_l
    couplings = [(l, l + 1, 1.0) for l in range(n - 1)]
    if boundary_sign != 0.0:
        couplings.append((n - 1, 0, float(boundary_sign)))
    for l, m, sign in couplings:
        add(2 * l + 1, 2 * m, sign * (1 + gamma) / 4)   # XX
        add(2 * l, 2 * m + 1, -sign * (1 - gamma) / 4)  # YY
    return k


def _normal_modes(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real Schur form K = O (sum_k eps_k J) O^T with eps_k >= 0."""
    t, o = scipy.linalg.schur(k, output="real")
    n = k.shape[0] // 2
    eps = np.empty(n)
    o = o.copy()
    for m in range(n):
        w = t[2 * m, 2 * m + 1]
        if w < 0:
            o[:, [2 * m, 2 * m + 1]] = o[:, [2 * m + 1, 2 * m]]
            w = -w
        eps[m] = w
    return eps, o


def ground_covariance(k: np.ndarray, parity: int | None = None) -> tuple[float, np.ndarray, int]:
    """Minimal-energy Gaussian state of (i/4) K a a, optionally parity-fixed.

    Returns (energy, covariance, parity).  The parity of the Gaussian state
    is det(O); if a parity constraint is requested and the vacuum violates
    it, the cheapest mode is occupied instead.
    """
    eps, o = _normal_modes(k)
    n = eps.size
    occupied = np.zeros(n, dtype=bool)
    state_parity = 1 if np.linalg.det(o) > 0 else -1
    energy = -0.5 * eps.sum()
    if parity is not None and state_parity != parity:
        flip = int(np.argmin(eps))
        occupied[flip] = True
        energy += eps[flip]
        state_parity = -state_parity
    blocks = np.zeros((2 * n, 2 * n))
    for m in range(n):
        s = 1.0 if occupied[m] else -1.0
        blocks[2 * m, 2 * m + 1] = s
        blocks[2 * m + 1, 2 * m] = -s
    cov = o @ blocks @ o.T
    return float(energy), cov, state_parity


def xy_ground_covariance(gamma: float, h: float, n: int,
                         bc: str = "periodic") -> tuple[float, np.ndarray]:
    """Ground energy and Majorana covariance of the spin chain's ground state."""
    if bc == "open":
        e, cov, _ = ground_covariance(majorana_quadratic(gamma, h, n, 0.0))
        return e, cov
    if bc != "periodic":
        raise ValueError("bc must be 'open' or 'periodic'")
    # even spin parity pairs with antiperiodic fermions, odd with periodic
    e_even, cov_even, _ = ground_covariance(majorana_quadratic(gamma, h, n, -1.0), parity=+1)
    e_odd, cov_odd, _ = ground_covariance(majorana_quadratic(gamma, h, n, +1.0), parity=-1)
    if e_even <= e_odd:
        return e_even, cov_even
    return e_odd, cov_odd


def block_entropy_bits(cov: np.ndarray, n_block: int) -> float:
    """Entropy (bits) of the first ``n_block`` sites of a Gaussian state."""
    sub = cov[: 2 * n_block, : 2 * n_block]
    w = np.linalg.eigvalsh(1j * sub).real
    # eigenvalues come in +-nu pairs; summing H((1+w)/2) over all of them
    # counts every pair exactly once
    return 0.5 * float(sum(binary_entropy((1.0 + v) / 2.0) for v in np.clip(w, -1, 1)))


def xy_entropy_free_fermion(gamma: float, h: float, n: int, blocks,
                            bc: str = "periodic"):
    """Block entropies S({1..n_b}) in bits for one or many block sizes."""
    _, cov = xy_ground_covariance(gamma, h, n, bc)
    if np.isscalar(blocks):
        return block_entropy_bits(cov, int(blocks))
    return [block_entropy_bits(cov, int(b)) for b in blocks]


def xy_ground_energy_free_fermion(gamma: float, h: float, n: int,
                                  bc: str = "periodic") -> float:
    return xy_ground_covariance(gamma, h, n, bc)[0]
