"""Haar-random bipartite pure states and their average entanglement.

A random pure state on C^m (x) C^n (m <= n) is sampled as a vector of mn
independent standard complex Gaussians, normalized; this realizes the
unitarily invariant measure.  The closed forms implemented here:

* mean reduced purity  <tr rho_A^2> = (m + n) / (m n + 1)
* mean reduced entropy <S(rho_A)>  = Psi(mn + 1) - Psi(n + 1) - (m - 1) / 2n
  in nats, evaluated through the digamma recurrence Psi(z + 1) = Psi(z) + 1/z
  over integer arguments, so only finite harmonic sums appear and the Euler
  constant cancels,
* the large-n approximation <S> ~ ln m - m / 2n,
* the joint eigenvalue density of the reduced state,
  C_mn * prod_i l_i^(n-m) * prod_{i<j} (l_i - l_j)^2 on the simplex.

Typical states are almost maximally entangled: the entropy deficiency
ln m - <S> decays like m/2n.

Units: closed forms are natural-log (nats); ``nats_to_bits`` converts.
One Monte Carlo estimator, ``sample_moments``, serves every caller: draws
are made in blocks of up to ``MC_BLOCK``, block b from substream b of
``SeedSequence(seed).spawn``, with one normal draw and one stacked SVD per
block.  Within a block every per-draw value equals drawing one sample at a
time from that substream, so the estimates depend on (m, n, samples, seed)
and on ``MC_BLOCK``, which sets the number of substreams, but not on the
worker count.  Each draw yields both the purity and the entropy; a mean's
standard error is sqrt(var / N) with the population variance
E[x^2] - mean^2 of the N draws.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .linalg import check_budget
from .states import PureState, random_pure

LN2 = math.log(2.0)

# draws per sampling block; bounds the memory of one block's normals and SVD
MC_BLOCK = 256
# fewest draws for which a Monte Carlo mean and its standard error are reported
MIN_SAMPLES = 100


def nats_to_bits(x: float) -> float:
    return x / LN2


def haar_pure(m: int, n: int, seed_or_rng) -> PureState:
    """One Haar-random pure state on C^m (x) C^n.

    Accepts a seed or an existing ``numpy.random.Generator``, which
    ``default_rng`` returns unchanged.  Public API that no command calls.
    """
    return random_pure((m, n), np.random.default_rng(seed_or_rng))


def _reduced_spectrum(m: int, n: int, rng, count: int = 1) -> np.ndarray:
    """Eigenvalues of rho_A for ``count`` Haar draws, one row per draw.

    One ``(count, 2, m, n)`` normal draw yields the same numbers in the same
    order as ``count`` successive real and imaginary ``(m, n)`` draws, and the
    stacked SVD runs the same LAPACK routine on each matrix, so every row
    equals the spectrum of the corresponding single draw bit for bit.
    """
    z = rng.standard_normal((count, 2, m, n))
    g = z[:, 0] + 1j * z[:, 1]
    s = np.linalg.svd(g, compute_uv=False)
    p = s * s
    return p / p.sum(axis=1, keepdims=True)


def block_counts(samples: int) -> list[int]:
    """Draws per block: MC_BLOCK each, the last block takes the remainder."""
    return [min(MC_BLOCK, samples - start) for start in range(0, samples, MC_BLOCK)]


def _entropies(p: np.ndarray) -> np.ndarray:
    """Entropy in nats of each row of ``p``, with 0 log 0 = 0."""
    return -(p * np.log(np.where(p > 0, p, 1.0))).sum(axis=1)


def mean_purity_exact(m: int, n: int) -> float:
    """Lubkin's average purity (m + n) / (m n + 1)."""
    if m < 1 or n < 1:
        raise ValueError("m, n must be positive")
    return (m + n) / (m * n + 1)


def mean_entropy_exact(m: int, n: int) -> float:
    """Average entropy of the smaller reduction, in nats.

    Requires m <= n.  Evaluated as sum_{k=n+1}^{mn} 1/k - (m - 1)/(2 n),
    which is the digamma expression with the Euler constant cancelled.
    """
    if m < 1 or n < 1:
        raise ValueError("m, n must be positive")
    if m > n:
        raise ValueError("requires m <= n")
    harmonic = sum(1.0 / k for k in range(n + 1, m * n + 1))
    return harmonic - (m - 1) / (2.0 * n)


def mean_entropy_approx(m: int, n: int) -> float:
    """Large-n approximation ln m - m / 2n, in nats."""
    return math.log(m) - m / (2.0 * n)


def sample_moments(m: int, n: int, samples: int, seed,
                   workers: int = 1) -> tuple[tuple[float, float], tuple[float, float]]:
    """Monte Carlo ((<tr rho_A^2>, stderr), (<S(rho_A)> in nats, stderr)) from one set of draws.

    Block b draws from substream b of the seed; ``workers`` only decides
    which blocks run concurrently, so it cannot change the estimates.
    """
    if samples < MIN_SAMPLES:
        raise ValueError(f"use at least {MIN_SAMPLES} samples")
    if m < 1 or n < 1:
        raise ValueError("m, n must be positive")
    check_budget("haar_max_amplitudes", m * n, "Haar state amplitudes m n")
    counts = block_counts(samples)
    streams = np.random.SeedSequence(seed).spawn(len(counts))

    def run_block(task):
        count, stream = task
        p = _reduced_spectrum(m, n, np.random.default_rng(stream), count)
        # running sums in draw order, as a scalar loop would add them
        return [(float(np.cumsum(x)[-1]), float(np.cumsum(x * x)[-1]))
                for x in ((p * p).sum(axis=1), _entropies(p))]

    with ThreadPoolExecutor(max_workers=workers) as pool:
        partials = list(pool.map(run_block, zip(counts, streams)))
    out = []
    for sums in zip(*partials):  # purity, then entropy; block totals added in block order
        mean = sum(p[0] for p in sums) / samples
        var = max(sum(p[1] for p in sums) / samples - mean * mean, 0.0)
        out.append((mean, math.sqrt(var / samples)))
    return tuple(out)


def mean_entropy_mc(m: int, n: int, samples: int, seed: int = 0,
                    workers: int = 1) -> tuple[float, float]:
    """Monte Carlo estimate of <S(rho_A)> in nats, with its standard error."""
    return sample_moments(m, n, samples, seed, workers)[1]


def mean_purity_mc(m: int, n: int, samples: int, seed: int = 0) -> tuple[float, float]:
    """Monte Carlo estimate of <tr rho_A^2> with its standard error."""
    return sample_moments(m, n, samples, seed)[0]


def log_density_constant(m: int, n: int) -> float:
    """log C_mn with C_mn = Gamma(mn) / prod_{i=0}^{m-1} Gamma(n-i) Gamma(m-i+1).
    Public API that no command calls."""
    out = math.lgamma(m * n)
    for i in range(m):
        out -= math.lgamma(n - i) + math.lgamma(m - i + 1)
    return out


def spectral_density(m: int, n: int, lambdas) -> float:
    """Joint eigenvalue density of the reduced state on the simplex.

    Evaluates C_mn * prod_i l_i^(n-m) * prod_{i<j} (l_i - l_j)^2 in log space
    (the Gamma(mn) prefactor overflows beyond mn ~ 170 otherwise).  The delta
    function enforcing sum(l) = 1 is the caller's parametrization; coincident
    eigenvalues give exactly zero.  Public API that no command calls.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.size != m:
        raise ValueError("need exactly m eigenvalues")
    if np.any(lam < 0):
        raise ValueError("eigenvalues must be nonnegative")
    log_p = log_density_constant(m, n)
    if n > m:
        if np.any(lam == 0.0):
            return 0.0
        log_p += (n - m) * np.log(lam).sum()
    for i in range(m):
        for j in range(i + 1, m):
            diff = abs(lam[i] - lam[j])
            if diff == 0.0:
                return 0.0
            log_p += 2.0 * math.log(diff)
    return math.exp(log_p)
