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
Sampling is seed-deterministic, and Monte Carlo runs can be split across
independent substreams derived from (seed, worker index).  Draws are made
and decomposed in blocks of up to ``MC_BLOCK``: one normal draw and one
stacked SVD per block.  The stream and every per-draw value are identical
to drawing one sample at a time, so results do not depend on the block size.
"""

from __future__ import annotations

import math

import numpy as np

from .states import PureState

LN2 = math.log(2.0)

# draws per sampling block; bounds the memory of one block's normals and SVD
MC_BLOCK = 256
# fewest draws for which a Monte Carlo mean and its standard error are reported
MIN_SAMPLES = 100


def nats_to_bits(x: float) -> float:
    return x / LN2


def bits_to_nats(x: float) -> float:
    return x * LN2


def haar_pure(m: int, n: int, seed_or_rng) -> PureState:
    """One Haar-random pure state on C^m (x) C^n.

    Accepts a seed or an existing ``numpy.random.Generator``.
    """
    rng = np.random.default_rng(seed_or_rng) if not isinstance(
        seed_or_rng, np.random.Generator) else seed_or_rng
    g = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    g /= np.linalg.norm(g)
    return PureState((m, n), g.ravel())


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


def _block_counts(samples: int) -> list[int]:
    """Draws per block: MC_BLOCK each, the last block takes the remainder."""
    return [min(MC_BLOCK, samples - start) for start in range(0, samples, MC_BLOCK)]


def _spectrum_blocks(m: int, n: int, rng, samples: int) -> list[np.ndarray]:
    """Reduced spectra of ``samples`` successive draws from ``rng``, one array per block."""
    return [_reduced_spectrum(m, n, rng, count) for count in _block_counts(samples)]


def _entropies(p: np.ndarray) -> np.ndarray:
    """Entropy in nats of each row of ``p``, with 0 log 0 = 0."""
    return -(p * np.log(np.where(p > 0, p, 1.0))).sum(axis=1)


def _purities(p: np.ndarray) -> np.ndarray:
    return (p * p).sum(axis=1)


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


def mean_entropy_mc(m: int, n: int, samples: int, seed: int = 0,
                    workers: int = 1) -> tuple[float, float]:
    """Monte Carlo estimate of <S(rho_A)> in nats, with its standard error.

    Sampling is organized in fixed-size blocks, each drawing from its own
    substream spawned from the seed; workers only decide which blocks run
    concurrently.  The estimate therefore depends on (m, n, samples, seed)
    alone, not on the worker count or the scheduling.
    """
    if samples < MIN_SAMPLES:
        raise ValueError(f"use at least {MIN_SAMPLES} samples")
    counts = _block_counts(samples)
    streams = np.random.SeedSequence(seed).spawn(len(counts))

    def run_block(task):
        count, stream = task
        s = _entropies(_reduced_spectrum(m, n, np.random.default_rng(stream), count))
        # running sums in draw order, as a scalar loop would add them
        return float(np.cumsum(s)[-1]), float(np.cumsum(s * s)[-1])

    tasks = list(zip(counts, streams))
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(run_block, tasks))
    else:
        partials = [run_block(task) for task in tasks]
    total = sum(p[0] for p in partials)
    total_sq = sum(p[1] for p in partials)
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    stderr = math.sqrt(var / samples)
    return mean, stderr


def mean_purity_mc(m: int, n: int, samples: int, seed: int = 0) -> tuple[float, float]:
    """Monte Carlo estimate of <tr rho_A^2> with its standard error."""
    if samples < MIN_SAMPLES:
        raise ValueError(f"use at least {MIN_SAMPLES} samples")
    rng = np.random.default_rng(seed)
    vals = np.concatenate([_purities(p) for p in _spectrum_blocks(m, n, rng, samples)])
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))


def sample_statistics(m: int, n: int, samples: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Purity and entropy (nats) of each of ``samples`` draws from one stream."""
    blocks = _spectrum_blocks(m, n, rng, samples)
    return (np.concatenate([_purities(p) for p in blocks]),
            np.concatenate([_entropies(p) for p in blocks]))


def log_density_constant(m: int, n: int) -> float:
    """log C_mn with C_mn = Gamma(mn) / prod_{i=0}^{m-1} Gamma(n-i) Gamma(m-i+1)."""
    out = math.lgamma(m * n)
    for i in range(m):
        out -= math.lgamma(n - i) + math.lgamma(m - i + 1)
    return out


def spectral_density(m: int, n: int, lambdas) -> float:
    """Joint eigenvalue density of the reduced state on the simplex.

    Evaluates C_mn * prod_i l_i^(n-m) * prod_{i<j} (l_i - l_j)^2 in log space
    (the Gamma(mn) prefactor overflows beyond mn ~ 170 otherwise).  The delta
    function enforcing sum(l) = 1 is the caller's parametrization; coincident
    eigenvalues give exactly zero.
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
