"""Kinetic Ising models, classical and quantum, on periodic chains.

Classical side
--------------
Single-spin-flip (Glauber) and two-spin-flip stochastic dynamics with heat
bath rates, in units of the rate prefactor (which only sets the unit of time)

    single-flip:  w_i = (1 + delta s_{i-1} s_{i+1}) (1 - (gamma/2) s_i (s_{i-1} + s_{i+1}))
    two-flip:     w_i = 1 - (gamma/2) (s_{i-1} s_i + s_{i+1} s_{i+2})

which satisfy detailed balance for the ferromagnetic Ising ring
``H = -J sum s_i s_{i+1}`` exactly when ``gamma = tanh(2 beta J)``.  The
master-equation generator then symmetrizes, through ``exp(beta H / 2)``
similarity, into a Hermitian positive semidefinite Hamiltonian whose kernel
is the square-root-Gibbs vector (the classical thermal superposition state).

Quantum side
------------
Promoting the flip dynamics to a density-matrix master equation with jump
operators ``F_i sqrt(w_i)`` (``F_i = X_i`` for single flips,
``X_i X_{i+1}`` for two flips) leaves a macroscopic set of doubled-chain
operators conserved: the products ``Z_i Z_{i+1} Ztilde_i Ztilde_{i+1}`` for
the two-flip model and the per-site ``Z_i Ztilde_i`` for the single-flip
model.  The evolution therefore splits into 2^N sectors labelled by tau
patterns, each governed by its own N-spin Hermitian Hamiltonian built by
:func:`build_h_tau_single_flip` / :func:`build_h_tau_two_flip`;
:func:`sector_split_evolve` runs that decomposition for the two-flip model
and :func:`direct_evolve` integrates the full vectorized generator as an
independent oracle.  Both integrate one sparse generator by one integrator:
the tau-sector blocks assembled by :func:`sector_generator` and the
rate-built :func:`vectorized_generator`, which a caller evolving many
states builds once and passes in.

Sector Hamiltonians use the temperature angle ``phi`` with
``cos(phi) = cosh(bJ) / sqrt(cosh(bJ)^2 + sinh(bJ)^2)``; phi runs from 0
(infinite temperature) to pi/4 (zero temperature) and ``gamma = sin(2 phi)``.

Conventions
-----------
The model vocabulary is defined here once: the family names :data:`FAMILIES`,
the tau-pattern names :data:`TAU_PATTERNS` and the thermal map
:meth:`KineticModel.thermal`; :class:`KineticModel` alone checks a model.

Spin configurations are encoded in the computational-basis order of the
dense operators: site i (0-based) of an N-site ring is bit N-1-i of a
configuration code, so site 0 is the most significant bit, and a set bit
means spin down (s = -1), matching ``sigma_z = diag(1, -1)``.  Tau sectors
use the opposite, documented mapping: bit b of a tau code set means
``tau_{b+1} = +1``, so figure-style sector labels are written by pattern, not
raw integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

from .chains import SpinHamiltonian, lowest_levels
from .linalg import PAULI_X, PAULI_Z, NumericalError, check_budget, check_hermitian
from .linalg import lanczos_lowest  # noqa: F401  # a global here for the benchmark's probes
from .states import DensityMatrix, require_single


FAMILIES = ("single-flip", "two-flip")

# tau-pattern name -> its code on an n-site ring (bit b set: tau_{b+1} = +1)
TAU_PATTERNS = {
    "uniform-up": lambda n: 2 ** n - 1,
    "uniform-down": lambda n: 0,
    "single-up": lambda n: 1 << (n // 2),
    "pair-up": lambda n: (1 << (n // 2)) | (1 << ((n // 2 + 1) % n)),
    "half-up": lambda n: 2 ** (n // 2) - 1,
}


@dataclass(frozen=True)
class KineticModel:
    """Spin-rate family ``flip``, one of :data:`FAMILIES`, of a kinetic Ising ring."""

    flip: str
    nsites: int
    gamma: float         # tanh(2 beta J) under the thermal parametrization
    delta: float = 0.0   # second kinetic parameter (single flip only)
    coupling: float = 1.0

    def __post_init__(self):
        if self.flip not in FAMILIES:
            raise ValueError(f"flip must be one of {', '.join(FAMILIES)}, got {self.flip!r}")
        if self.flip == "two-flip" and self.delta != 0.0:
            raise ValueError(f"the two-flip model has no delta parameter, got {self.delta}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if not -1.0 <= self.delta <= 1.0:
            raise ValueError("delta must lie in [-1, 1]")
        if self.coupling <= 0:
            raise ValueError("coupling must be positive")

    @classmethod
    def thermal(cls, flip: str, n: int, beta: float, delta: float = 0.0,
                coupling: float = 1.0) -> "KineticModel":
        """The model at inverse temperature ``beta >= 0``: gamma = tanh(2 beta J)."""
        if not beta >= 0:
            raise ValueError(f"beta must be non-negative, got beta {beta}")
        return cls(flip, n, math.tanh(2.0 * beta * coupling), delta, coupling)

    @property
    def beta(self) -> float:
        """Inverse temperature fixed by gamma = tanh(2 beta J); ``ValueError``
        at gamma = 1, where no finite beta gives the rates."""
        if self.gamma >= 1.0:
            raise ValueError("needs a finite-temperature parametrization")
        return math.atanh(self.gamma) / (2.0 * self.coupling)

    @property
    def phi(self) -> float:
        """Temperature angle in [0, pi/4]; gamma = sin(2 phi)."""
        return 0.5 * math.asin(self.gamma)


@dataclass(frozen=True)
class TauSector:
    """Configuration of the conserved tau spins, tau in {+-1}^N.

    Integer code convention: bit b (LSB = site 1) set means tau_{b+1} = +1.
    :meth:`named` builds the sector of a :data:`TAU_PATTERNS` name.
    """

    code: int
    nsites: int

    def __post_init__(self):
        if not 0 <= self.code < 2 ** self.nsites:
            raise ValueError("tau code out of range")

    @property
    def spins(self) -> np.ndarray:
        # Python-int shifts: a code of 64 or more sites overflows int64
        return np.array([2 * ((self.code >> b) & 1) - 1 for b in range(self.nsites)], dtype=int)

    @staticmethod
    def from_spins(spins) -> "TauSector":
        spins = list(spins)
        code = sum(1 << i for i, s in enumerate(spins) if s > 0)
        return TauSector(code, len(spins))

    @staticmethod
    def named(name: str, n: int) -> "TauSector":
        return TauSector(TAU_PATTERNS[name](n), n)

    @property
    def pattern(self) -> str:
        return "".join("+" if s > 0 else "-" for s in self.spins)


# ---------------------------------------------------------------------------
# configurations, energies, rates
# ---------------------------------------------------------------------------

def config_spins(n: int) -> np.ndarray:
    """(2^n, n) array of spin values; a set bit means spin down.

    Basis codes follow the Kronecker convention of the rest of the package:
    site i sits at bit (n-1-i), so site 0 is the most significant digit and
    configuration vectors line up entrywise with dense operators built from
    site-ordered Kronecker products.
    """
    codes = np.arange(2 ** n)
    shifts = n - 1 - np.arange(n)
    return 1 - 2 * ((codes[:, None] >> shifts[None, :]) & 1)


def _site_mask(n: int, *sites: int) -> int:
    mask = 0
    for s in sites:
        mask |= 1 << (n - 1 - (s % n))
    return mask


def ising_energies(n: int, coupling: float = 1.0) -> np.ndarray:
    """E(s) = -J sum_i s_i s_{i+1} on the ring, for every configuration."""
    s = config_spins(n)
    return -coupling * (s * np.roll(s, -1, axis=1)).sum(axis=1)


def glauber_rate(spins, i: int, model: KineticModel) -> float | np.ndarray:
    """Single-flip rate for flipping site i.

    ``spins[j]`` holds site j: a single spin gives the rate of one
    configuration, a row of spins (``config_spins(n).T``) the rate of each.
    :func:`_rate_table` picks this rate or :func:`two_flip_rate` by family.
    """
    s = np.asarray(spins)
    n = model.nsites
    left, right = s[(i - 1) % n], s[(i + 1) % n]
    return (1.0 + model.delta * left * right) * (1.0 - 0.5 * model.gamma * s[i] * (left + right))


def two_flip_rate(spins, i: int, model: KineticModel) -> float | np.ndarray:
    """Two-flip rate for flipping sites (i, i+1); ``spins`` as in :func:`glauber_rate`."""
    s = np.asarray(spins)
    n = model.nsites
    return 1.0 - 0.5 * model.gamma * (s[(i - 1) % n] * s[i] + s[(i + 1) % n] * s[(i + 2) % n])


def _rate_table(model: KineticModel) -> tuple[np.ndarray, list[int]]:
    """Rates for every (configuration, move) pair plus the move flip masks."""
    n = model.nsites
    s = config_spins(n).T
    rate, width = (glauber_rate, 1) if model.flip == "single-flip" else (two_flip_rate, 2)
    rates = np.array([rate(s, i, model) for i in range(n)])
    return rates, [_site_mask(n, *range(i, i + width)) for i in range(n)]


def _flip_matrix(masks, off, diag) -> scipy.sparse.csr_matrix:
    """CSR matrix with ``off[i][c]`` at ``(c ^ masks[i], c)`` and ``diag`` on the diagonal.

    The flip structure shared by both master-equation generators: columns
    are source codes and move i flips the bits of ``masks[i]``.
    """
    dim = len(diag)
    codes = np.arange(dim)
    rows = [codes ^ mask for mask in masks] + [codes]
    return scipy.sparse.coo_matrix(
        (np.concatenate([*off, diag]), (np.concatenate(rows), np.tile(codes, len(rows)))),
        shape=(dim, dim),
    ).tocsr()


def build_generator(model: KineticModel) -> scipy.sparse.csr_matrix:
    """Master-equation generator; columns are source configurations.

    Column sums vanish (probability conservation) and all off-diagonal
    entries are the nonnegative rates.
    """
    check_budget("generator_max_sites", model.nsites, "generator sites")
    rates, masks = _rate_table(model)
    return _flip_matrix(masks, rates, -rates.sum(axis=0))


def detailed_balance_violation(gen: scipy.sparse.csr_matrix, energies: np.ndarray,
                               beta: float):
    """Max relative violation of W(t,s) e^{-bE(s)} = W(s,t) e^{-bE(t)}.

    Every stored off-diagonal W(t,s) is checked against W(s,t), which is 0
    where it is not stored; 0.0 if there is no transition.
    """
    coo = gen.tocoo()
    off = coo.row != coo.col
    t, s, w_ts = coo.row[off], coo.col[off], coo.data[off]
    w_st = np.asarray(gen.tocsr()[s, t]).ravel()
    boltz = np.exp(-beta * (energies - energies.min()))
    lhs = w_ts * boltz[s]
    rhs = w_st * boltz[t]
    rel = np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
    return float(rel.max(initial=0.0))


def _generator_balance(model: KineticModel):
    """(generator, energies, max detailed-balance violation) of the model."""
    beta = model.beta  # raises before the build at gamma = 1
    gen = build_generator(model)
    energies = ising_energies(model.nsites, model.coupling)
    return gen, energies, detailed_balance_violation(gen, energies, beta)


def check_detailed_balance(model: KineticModel, tol: float = 1e-10):
    """(passes, max relative violation) for the model's thermal rates."""
    worst = _generator_balance(model)[2]
    return bool(worst <= tol), worst


def symmetrize(model: KineticModel) -> np.ndarray:
    """Hermitian PSD Hamiltonian from the generator, via exp(beta H/2) scaling.

    H(s, s') = delta_{ss'} sum_t W(t, s) - e^{b E(s)/2} W(s, s') e^{-b E(s')/2};
    its kernel vector is proportional to e^{-b E(s)/2}.  The generator that
    passed the detailed-balance check is the one scaled.  H is PSD in exact
    arithmetic; :func:`build_h_beta_single_flip` builds the same matrix from
    Pauli terms.
    """
    check_budget("full_spectrum_max_dim", 2 ** model.nsites, "symmetrized generator dimension")
    gen, energies, worst = _generator_balance(model)
    if not worst <= 1e-10:
        raise ValueError(f"detailed balance violated at {worst:.2e}")
    h = gen.toarray()
    del gen  # not held while h is symmetrized
    centered = energies - energies.mean()
    d = np.exp(0.5 * model.beta * centered)
    # -(d[:, None] * gen * (1.0 / d)[None, :]) in place, in the same order
    h *= d[:, None]
    h *= (1.0 / d)[None, :]
    np.negative(h, out=h)
    return check_hermitian(h)


# ---------------------------------------------------------------------------
# sector Hamiltonians
# ---------------------------------------------------------------------------

def single_flip_coefficients(gamma: float, delta: float) -> tuple[float, float]:
    """Transverse-field coefficients (A, B) of the uniform-sector Hamiltonian.

    A uses the algebraically equivalent stable form
    (1+delta)(1+sqrt(1-gamma^2))/2 - delta, which removes the 0/0 of
    gamma^2 / (1 - sqrt(1-gamma^2)) at gamma = 0; B = 1 - A - delta.
    """
    root = math.sqrt(max(1.0 - gamma * gamma, 0.0))
    a = (1.0 + delta) * (1.0 + root) / 2.0 - delta
    return a, 1.0 - a - delta


def build_h_beta_single_flip(model: KineticModel) -> SpinHamiltonian:
    """Uniform-sector Hamiltonian of the single-flip model, operator form:
    :func:`build_h_tau_single_flip` at uniform tau,

    -sum_i [ (A - B Z_{i-1} Z_{i+1}) X_i
             - (1 + delta Z_{i-1} Z_{i+1}) (1 - (gamma/2) Z_i (Z_{i-1}+Z_{i+1})) ]

    Its kernel is the square-root-Gibbs vector; :func:`symmetrize` builds the
    same matrix from the rates.
    """
    return build_h_tau_single_flip(TauSector.named("uniform-up", model.nsites), model)


def _f(x: float) -> float:
    return 0.5 * (1.0 + x)


def build_h_tau_single_flip(tau: TauSector, model: KineticModel) -> SpinHamiltonian:
    """Sector Hamiltonian of the quantum single-flip model for one tau pattern.

    The transverse coefficient takes the uniform-sector (A, B) values where
    tau_{i-1} = tau_{i+1} and the branch value
    sqrt(1-delta^2) (1-gamma^2)^(1/4) with no three-site term otherwise; both
    uniform patterns give the uniform-sector Hamiltonian,
    :func:`build_h_beta_single_flip`.
    """
    if model.flip != "single-flip":
        raise ValueError("model is not a single-flip family")
    n, gamma, delta = model.nsites, model.gamma, model.delta
    if tau.nsites != n:
        raise ValueError("tau pattern length does not match the chain")
    if n < 3:  # a term reaches sites i-1..i+1
        raise ValueError(f"the single-flip model needs at least 3 sites, got {n}")
    t = tau.spins
    a_uni, b_uni = single_flip_coefficients(gamma, delta)
    a_mix = math.sqrt(max(1.0 - delta * delta, 0.0)) * (max(1.0 - gamma * gamma, 0.0)) ** 0.25
    ham = SpinHamiltonian(n, 2, [])
    for i in range(n):
        im1, ip1 = (i - 1) % n, (i + 1) % n
        if t[im1] == t[ip1]:
            a_i, b_i = a_uni, b_uni
        else:
            a_i, b_i = a_mix, 0.0
        ham.add(-a_i, [(i, PAULI_X)])
        if b_i != 0.0:
            ham.add(b_i, [(im1, PAULI_Z), (i, PAULI_X), (ip1, PAULI_Z)])
        ham.add(1.0, [])
        coeff = -0.5 * gamma * (1 + delta)
        if _f(t[im1] * t[i]) != 0.0:
            ham.add(coeff * _f(t[im1] * t[i]), [(im1, PAULI_Z), (i, PAULI_Z)])
        if _f(t[i] * t[ip1]) != 0.0:
            ham.add(coeff * _f(t[i] * t[ip1]), [(i, PAULI_Z), (ip1, PAULI_Z)])
        if _f(t[im1] * t[ip1]) != 0.0:
            ham.add(delta * _f(t[im1] * t[ip1]), [(im1, PAULI_Z), (ip1, PAULI_Z)])
    return ham


def build_h_tau_two_flip(tau: TauSector, phi: float, n: int) -> SpinHamiltonian:
    """Sector Hamiltonian of the quantum two-flip model for one tau pattern.

    Per site, with gamma = sin(2 phi) and f(x) = (1+x)/2:

        (A_i - B_i Z_{i-1} Z_i Z_{i+1} Z_{i+2}) X_i X_{i+1}  taken negatively,
        + 1 - (gamma/2) [ f(tau_{i-1}) Z_{i-1} Z_i + f(tau_{i+1}) Z_{i+1} Z_{i+2} ]

    where (A_i, B_i) = (cos^2 phi, sin^2 phi) if tau_{i-1} tau_{i+1} = +1 and
    (sqrt(cos 2 phi), 0) otherwise.  These operators are positive; mixed tau
    patterns are gapped away from zero for every phi > 0, while at phi = 0
    the tau dependence disappears entirely.
    """
    if not 0.0 <= phi <= math.pi / 4 + 1e-15:
        raise ValueError("phi must lie in [0, pi/4]")
    if tau.nsites != n:
        raise ValueError("tau pattern length does not match the chain")
    if n < 4:  # a term reaches sites i-1..i+2
        raise ValueError(f"the two-flip model needs at least 4 sites, got {n}")
    gamma = math.sin(2.0 * phi)
    cos2, sin2 = math.cos(phi) ** 2, math.sin(phi) ** 2
    sqrt_c2 = math.sqrt(max(math.cos(2.0 * phi), 0.0))
    zx = PAULI_Z @ PAULI_X
    t = tau.spins
    ham = SpinHamiltonian(n, 2, [])
    for i in range(n):
        im1, ip1, ip2 = (i - 1) % n, (i + 1) % n, (i + 2) % n
        if t[im1] * t[ip1] == 1:
            a_i, b_i = cos2, sin2
        else:
            a_i, b_i = sqrt_c2, 0.0
        ham.add(-a_i, [(i, PAULI_X), (ip1, PAULI_X)])
        if b_i != 0.0:
            # Z_{i-1} Z_i Z_{i+1} Z_{i+2} X_i X_{i+1}, same-site products merged
            ham.add(b_i, [(im1, PAULI_Z), (i, zx), (ip1, zx), (ip2, PAULI_Z)])
        ham.add(1.0, [])
        if _f(t[im1]) != 0.0:
            ham.add(-0.5 * gamma * _f(t[im1]), [(im1, PAULI_Z), (i, PAULI_Z)])
        if _f(t[ip1]) != 0.0:
            ham.add(-0.5 * gamma * _f(t[ip1]), [(ip1, PAULI_Z), (ip2, PAULI_Z)])
    return ham


def mixed_block_min_eigenvalue(phi: float) -> float:
    """Closed form 1 - (1/2) sqrt(4 cos 2 phi + sin^2 2 phi).

    Minimal eigenvalue of one mixed-neighborhood term restricted to its
    three-site support; nonnegative on [0, pi/4] and zero only at phi = 0.
    """
    c2, s2 = math.cos(2.0 * phi), math.sin(2.0 * phi)
    return 1.0 - 0.5 * math.sqrt(4.0 * c2 + s2 * s2)


# ---------------------------------------------------------------------------
# vectorized quantum master equation
# ---------------------------------------------------------------------------

def vectorized_generator(model: KineticModel) -> scipy.sparse.csr_matrix:
    """Generator of the quantum kinetic master equation on the doubled chain.

    Vectorization is row-major: rho -> |rho> with index sigma * 2^N + tilde.
    Each site contributes ``kron(A_i, A_i) - (1/2)[kron(w_i, 1) + kron(1, w_i)]``
    with jump ``A_i = F_i sqrt(w_i(Z))``, the flip F_i acting on one site
    (single-flip family) or on the pair (i, i+1): the flip of both halves of
    the doubled code with value ``sqrt(w_i(sigma) w_i(tilde))``.
    """
    check_budget("direct_evolve_max_sites", model.nsites, "direct integration sites")
    dim = 2 ** model.nsites
    rates, masks = _rate_table(model)
    diag = np.zeros(dim * dim)
    for r in rates:
        diag = diag - 0.5 * (r[:, None] + r[None, :]).ravel()
    roots = np.sqrt(rates)
    return _flip_matrix([mask * dim + mask for mask in masks],
                        [np.outer(root, root).ravel() for root in roots], diag)


def _propagate(gen: scipy.sparse.csr_matrix, t: float, v: np.ndarray) -> np.ndarray:
    """exp(gen t) v; a product ``gen t`` outside the float range is a :class:`NumericalError`.

    ``expm_multiply`` takes a number of steps that grows with the 1-norm of
    ``gen t``, so that norm is checked against its budget before it runs.
    """
    with np.errstate(over="ignore"):
        scaled = gen * t
    if not np.isfinite(scaled.data).all():
        raise NumericalError(f"the generator times t = {t} is not finite")
    check_budget("evolve_max_norm_time", float(abs(scaled).sum(axis=0).max()),
                 f"|t| * |generator|_1 at t = {t}")
    return scipy.sparse.linalg.expm_multiply(scaled, v)


def _integrate(gen: scipy.sparse.csr_matrix, rho0: DensityMatrix, t: float) -> DensityMatrix:
    """exp(gen t) applied to the row-major vectorized ``rho0``, as a state; exact
    evolution keeps it valid, so failing the 1e-8 checks is a :class:`NumericalError`."""
    dim = require_single(rho0).dim
    out = _propagate(gen, t, rho0.matrix.reshape(-1))
    try:
        return DensityMatrix(rho0.dims, out.reshape(dim, dim), tol=1e-8)
    except ValueError as exc:
        raise NumericalError(f"evolved state: {exc}") from exc


def direct_evolve(rho0: DensityMatrix, model: KineticModel, t: float,
                  generator: scipy.sparse.csr_matrix | None = None) -> DensityMatrix:
    """Oracle evolution: integrate the full vectorized generator.

    ``generator`` is :func:`vectorized_generator` of ``model``; pass it to
    evolve several states or times with one build, or leave it None to
    build it here.
    """
    gen = vectorized_generator(model) if generator is None else generator
    return _integrate(gen, rho0, t)


def sector_generator(model: KineticModel) -> scipy.sparse.csr_matrix:
    """The two-flip vectorized generator assembled from its tau sectors.

    The doubled-basis offset ``mu`` (the pairs ``(sigma, sigma ^ mu)``) has
    the conserved products ``tau_i = mu_i mu_{i+1}`` and, scaled by
    ``D = exp(beta (E - mean E) / 4)`` on both sides, evolves by -H_tau.  Its
    block is written in the original frame, with no product by D and 1/D:

        L_mu(a, b) = -H_tau(a, b) D_mu(b) / D_mu(a),  D_mu(s) = D(s) D(s ^ mu),

    at row ``a 2^N + (a ^ mu)`` and column ``b 2^N + (b ^ mu)``.  Each of the
    2^(N-1) distinct sectors, shared by ``mu`` and ``~mu``, is built once by
    :func:`build_h_tau_two_flip`: a route to :func:`vectorized_generator`
    independent of the rates.
    """
    if model.flip != "two-flip":
        raise ValueError("sector evolution is defined for the two-flip model")
    n = model.nsites
    check_budget("sector_evolve_max_sites", n, "sector evolution sites")
    dim = 2 ** n
    energies = ising_energies(n, model.coupling)
    scaling = np.exp(0.25 * model.beta * (energies - energies.mean()))
    sectors = {}
    rows, cols, vals = [], [], []
    for mu_code in range(dim):
        # tau_i = mu_i mu_{i+1}: +1 where neighboring mu bits agree
        bits = (mu_code >> (n - 1 - np.arange(n))) & 1
        tau_spins = np.where(bits == np.roll(bits, -1), 1, -1)
        key = tuple(tau_spins)
        if key not in sectors:
            h = build_h_tau_two_flip(TauSector.from_spins(tau_spins), model.phi, n).dense()
            a, b = np.nonzero(h)
            sectors[key] = a, b, h[a, b]
        a, b, h_ab = sectors[key]
        d_mu = scaling * scaling[np.arange(dim) ^ mu_code]
        rows.append(a * dim + (a ^ mu_code))
        cols.append(b * dim + (b ^ mu_code))
        vals.append(-h_ab * d_mu[b] / d_mu[a])
    return scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim * dim, dim * dim),
    ).tocsr()


def sector_split_evolve(rho0: DensityMatrix, model: KineticModel, t: float,
                        generator: scipy.sparse.csr_matrix | None = None) -> DensityMatrix:
    """Evolve the two-flip model through its tau sectors: :func:`direct_evolve`'s
    integrator on :func:`sector_generator`, passed as ``generator`` to share
    one build between states and times, or built here if None."""
    gen = sector_generator(model) if generator is None else generator
    return _integrate(gen, rho0, t)


def classical_evolve(p0: np.ndarray, model: KineticModel, t: float) -> np.ndarray:
    """Classical master-equation propagation of a probability vector."""
    gen = build_generator(model)
    return _propagate(gen, t, np.asarray(p0, dtype=float))


# ---------------------------------------------------------------------------
# spectra scans
# ---------------------------------------------------------------------------

def sector_spectra_scan(kind: str, n: int, sectors, values, k: int = 4,
                        delta: float = 0.0, seed: int = 0) -> np.ndarray:
    """Lowest-k levels of sector Hamiltonians over a parameter grid.

    ``kind`` is one of :data:`FAMILIES`: "two-flip" scans the temperature
    angle phi, "single-flip" scans gamma at ``delta``.  Solves one sector and
    value after another, so a ring too short for the sector builder raises
    before any solve; returns ``levels`` of shape
    ``(len(sectors), len(values), k)`` in input order, each ascending.
    """
    KineticModel(kind, n, 0.0, delta)
    check_budget("spectra_scan_max_sites", n, "spectra scan sites")
    levels = np.empty((len(sectors), len(values), k))
    for s, tau in enumerate(sectors):
        for v, value in enumerate(values):
            if kind == "two-flip":
                ham = build_h_tau_two_flip(tau, float(value), n)
            else:
                ham = build_h_tau_single_flip(tau, KineticModel(kind, n, float(value), delta))
            levels[s, v] = lowest_levels(ham.operator(), k=k, seed=seed)
    return levels
