"""Kinetic Ising models, classical and quantum, on periodic chains.

Classical side
--------------
Single-spin-flip (Glauber) and two-spin-flip stochastic dynamics with heat
bath rates

    single:  w_i = G (1 + delta s_{i-1} s_{i+1}) (1 - (gamma/2) s_i (s_{i-1} + s_{i+1}))
    pair:    w_i = G (1 - (gamma/2) (s_{i-1} s_i + s_{i+1} s_{i+2}))

which satisfy detailed balance for the ferromagnetic Ising ring
``H = -J sum s_i s_{i+1}`` exactly when ``gamma = tanh(2 beta J)``.  The
master-equation generator then symmetrizes, through ``exp(beta H / 2)``
similarity, into a Hermitian positive semidefinite Hamiltonian whose kernel
is the square-root-Gibbs vector (the classical thermal superposition state).

Quantum side
------------
Promoting the flip dynamics to a density-matrix master equation with jump
operators ``F_i sqrt(w_i)`` (``F_i = X_i`` for single flips,
``X_i X_{i+1}`` for pair flips) leaves a macroscopic set of doubled-chain
operators conserved: the products ``Z_i Z_{i+1} Ztilde_i Ztilde_{i+1}`` for
the pair model and the per-site ``Z_i Ztilde_i`` for the single-flip model.
The evolution therefore splits into 2^N sectors labelled by tau patterns,
each governed by its own N-spin Hermitian Hamiltonian built by
:func:`build_h_tau_single_flip` / :func:`build_h_tau_two_flip`;
:func:`sector_split_evolve` runs that decomposition for the pair model and
:func:`direct_evolve` integrates the full vectorized generator as an
independent oracle.  Both depend on the model through one operand each, the
sector eigensystems (:func:`sector_eigensystems`) and the vectorized
generator, which a caller evolving many states builds once and passes in.

Sector Hamiltonians use the temperature angle ``phi`` with
``cos(phi) = cosh(bJ) / sqrt(cosh(bJ)^2 + sinh(bJ)^2)``; phi runs from 0
(infinite temperature) to pi/4 (zero temperature) and ``gamma = sin(2 phi)``.

Conventions
-----------
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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy

from .chains import SpinHamiltonian, lowest_levels
from .linalg import PAULI_X, PAULI_Z, NumericalError, check_budget, check_hermitian
from .linalg import lanczos_lowest  # noqa: F401  # a global here for the benchmark's probes
from .states import DensityMatrix


@dataclass(frozen=True)
class KineticModel:
    """Spin-rate family of a kinetic Ising ring."""

    flip: str            # "single" or "pair"
    nsites: int
    rate_scale: float    # overall rate G > 0
    gamma: float         # tanh(2 beta J) under the thermal parametrization
    delta: float = 0.0   # second kinetic parameter (single flip only)
    coupling: float = 1.0

    def __post_init__(self):
        if self.flip not in ("single", "pair"):
            raise ValueError("flip must be 'single' or 'pair'")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if not -1.0 <= self.delta <= 1.0:
            raise ValueError("delta must lie in [-1, 1]")
        if self.rate_scale <= 0 or self.coupling <= 0:
            raise ValueError("rate scale and coupling must be positive")
        if self.flip == "pair" and self.delta != 0.0:
            raise ValueError("the pair-flip family has no delta parameter")

    @property
    def beta(self) -> float:
        """Inverse temperature fixed by gamma = tanh(2 beta J)."""
        if self.gamma >= 1.0:
            return math.inf
        return math.atanh(self.gamma) / (2.0 * self.coupling)

    @property
    def phi(self) -> float:
        """Temperature angle in [0, pi/4]; gamma = sin(2 phi)."""
        return 0.5 * math.asin(min(self.gamma, 1.0))

    @property
    def on_special_dynamics_line(self) -> bool:
        """True on the delta = gamma / (2 - gamma) line of the single-flip family."""
        return self.flip == "single" and abs(
            self.delta - self.gamma / (2.0 - self.gamma)
        ) <= 1e-12

    @staticmethod
    def single_flip(n: int, gamma: float | None = None, beta: float | None = None,
                    delta: float = 0.0, rate_scale: float = 1.0,
                    coupling: float = 1.0) -> "KineticModel":
        if (gamma is None) == (beta is None):
            raise ValueError("give exactly one of gamma or beta")
        if gamma is None:
            gamma = math.tanh(2.0 * beta * coupling)
        return KineticModel("single", n, rate_scale, gamma, delta, coupling)

    @staticmethod
    def two_flip(n: int, beta: float | None = None, phi: float | None = None,
                 rate_scale: float = 1.0, coupling: float = 1.0) -> "KineticModel":
        if (beta is None) == (phi is None):
            raise ValueError("give exactly one of beta or phi")
        if beta is not None:
            gamma = math.tanh(2.0 * beta * coupling)
        elif 0.0 <= phi <= math.pi / 4 + 1e-15:
            gamma = math.sin(2.0 * phi)
        else:
            raise ValueError("phi must lie in [0, pi/4]")
        return KineticModel("pair", n, rate_scale, gamma, 0.0, coupling)


@dataclass(frozen=True)
class TauSector:
    """Configuration of the conserved tau spins, tau in {+-1}^N.

    Integer code convention: bit b (LSB = site 1) set means tau_{b+1} = +1.
    """

    code: int
    nsites: int

    def __post_init__(self):
        if not 0 <= self.code < 2 ** self.nsites:
            raise ValueError("tau code out of range")

    @property
    def spins(self) -> np.ndarray:
        bits = (self.code >> np.arange(self.nsites)) & 1
        return (2 * bits - 1).astype(int)

    @staticmethod
    def from_spins(spins) -> "TauSector":
        spins = list(spins)
        code = sum(1 << i for i, s in enumerate(spins) if s > 0)
        return TauSector(code, len(spins))

    @staticmethod
    def uniform_up(n: int) -> "TauSector":
        return TauSector(2 ** n - 1, n)

    @staticmethod
    def uniform_down(n: int) -> "TauSector":
        return TauSector(0, n)

    @staticmethod
    def single_up(n: int, site: int | None = None) -> "TauSector":
        site = n // 2 if site is None else site % n
        return TauSector(1 << site, n)

    @staticmethod
    def adjacent_pair_up(n: int, site: int | None = None) -> "TauSector":
        site = n // 2 if site is None else site % n
        return TauSector((1 << site) | (1 << ((site + 1) % n)), n)

    @staticmethod
    def half_up(n: int) -> "TauSector":
        return TauSector(2 ** (n // 2) - 1, n)

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


def glauber_rate(spins, i: int, model: KineticModel) -> float:
    """Single-flip rate for flipping site i of the given configuration."""
    if model.flip != "single":
        raise ValueError("model is not a single-flip family")
    s = np.asarray(spins)
    n = model.nsites
    left, right = s[(i - 1) % n], s[(i + 1) % n]
    return model.rate_scale * (1.0 + model.delta * left * right) * (
        1.0 - 0.5 * model.gamma * s[i] * (left + right)
    )


def two_flip_rate(spins, i: int, model: KineticModel) -> float:
    """Pair-flip rate for flipping sites (i, i+1)."""
    if model.flip != "pair":
        raise ValueError("model is not a pair-flip family")
    s = np.asarray(spins)
    n = model.nsites
    return model.rate_scale * (
        1.0 - 0.5 * model.gamma * (s[(i - 1) % n] * s[i] + s[(i + 1) % n] * s[(i + 2) % n])
    )


def _rate_table(model: KineticModel) -> tuple[np.ndarray, list[int]]:
    """Rates for every (configuration, move) pair plus the move flip masks."""
    n = model.nsites
    s = config_spins(n)
    rates = np.empty((n, 2 ** n))
    masks = []
    for i in range(n):
        if model.flip == "single":
            left, right = s[:, (i - 1) % n], s[:, (i + 1) % n]
            rates[i] = model.rate_scale * (1.0 + model.delta * left * right) * (
                1.0 - 0.5 * model.gamma * s[:, i] * (left + right)
            )
            masks.append(_site_mask(n, i))
        else:
            a = s[:, (i - 1) % n] * s[:, i]
            b = s[:, (i + 1) % n] * s[:, (i + 2) % n]
            rates[i] = model.rate_scale * (1.0 - 0.5 * model.gamma * (a + b))
            masks.append(_site_mask(n, i, i + 1))
    return rates, masks


def build_generator(model: KineticModel) -> scipy.sparse.csr_matrix:
    """Master-equation generator; columns are source configurations.

    Column sums vanish (probability conservation) and all off-diagonal
    entries are the nonnegative rates.
    """
    n = model.nsites
    check_budget("generator_max_sites", n, "generator sites")
    dim = 2 ** n
    rates, masks = _rate_table(model)
    rows, cols, vals = [], [], []
    codes = np.arange(dim)
    for i in range(n):
        rows.append(codes ^ masks[i])
        cols.append(codes)
        vals.append(rates[i])
    rows.append(codes)
    cols.append(codes)
    vals.append(-rates.sum(axis=0))
    gen = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    )
    return gen.tocsr()


def detailed_balance_violation(gen: scipy.sparse.csr_matrix, energies: np.ndarray,
                               beta: float):
    """Max relative violation of W(t,s) e^{-bE(s)} = W(s,t) e^{-bE(t)}.

    Every stored off-diagonal W(t,s) is checked against W(s,t), which is 0
    where it is not stored.  Returns (max violation, (source, target) of the
    first worst transition in storage order), or (0.0, (0, 0)) if none violates.
    """
    coo = gen.tocoo()
    off = coo.row != coo.col
    t, s, w_ts = coo.row[off], coo.col[off], coo.data[off]
    w_st = np.asarray(gen.tocsr()[s, t]).ravel()
    boltz = np.exp(-beta * (energies - energies.min()))
    lhs = w_ts * boltz[s]
    rhs = w_st * boltz[t]
    rel = np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
    if not (rel > 0.0).any():
        return 0.0, (0, 0)
    i = int(np.argmax(rel))
    return rel[i], (int(s[i]), int(t[i]))


def _generator_balance(model: KineticModel):
    """(generator, energies, max detailed-balance violation) of the model."""
    if model.gamma >= 1.0:
        raise ValueError("detailed balance needs a finite temperature (gamma < 1)")
    gen = build_generator(model)
    energies = ising_energies(model.nsites, model.coupling)
    worst, _ = detailed_balance_violation(gen, energies, model.beta)
    return gen, energies, worst


def check_detailed_balance(model: KineticModel, tol: float = 1e-10):
    """(passes, max relative violation) for the model's thermal rates."""
    worst = _generator_balance(model)[2]
    return worst <= tol, worst


def symmetrize(model: KineticModel) -> np.ndarray:
    """Hermitian PSD Hamiltonian from the generator, via exp(beta H/2) scaling.

    H(s, s') = delta_{ss'} sum_t W(t, s) - e^{b E(s)/2} W(s, s') e^{-b E(s')/2};
    its kernel vector is proportional to e^{-b E(s)/2}.  The generator that
    passed the detailed-balance check is the one scaled.  H is PSD in exact
    arithmetic; :func:`symmetrized_eigh` diagonalizes it and checks that.
    """
    gen, energies, worst = _generator_balance(model)
    if not worst <= 1e-10:
        raise ValueError(f"detailed balance violated at {worst:.2e}")
    gen = gen.toarray()
    centered = energies - energies.mean()
    d = np.exp(0.5 * model.beta * centered)
    h = -(d[:, None] * gen * (1.0 / d)[None, :])
    return check_hermitian(h)


def symmetrized_eigh(model: KineticModel) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem ``(w, V)`` of :func:`symmetrize`, ascending, from one ``eigh``.

    Raises :class:`NumericalError` if the spectrum is not PSD to 1e-10 of its
    scale.
    """
    w, v = np.linalg.eigh(symmetrize(model))
    if w[0] < -1e-10 * max(1.0, abs(w[-1])):
        raise NumericalError(f"symmetrized generator has negative eigenvalue {w[0]:.2e}")
    return w, v


def gibbs_sqrt_vector(model: KineticModel) -> np.ndarray:
    """Normalized kernel vector e^{-beta E(s)/2} of the symmetrized generator."""
    energies = ising_energies(model.nsites, model.coupling)
    v = np.exp(-0.5 * model.beta * (energies - energies.min()))
    return v / np.linalg.norm(v)


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
    """Uniform-sector Hamiltonian of the single-flip model, operator form.

    -G sum_i [ (A - B Z_{i-1} Z_{i+1}) X_i
               - (1 + delta Z_{i-1} Z_{i+1}) (1 - (gamma/2) Z_i (Z_{i-1}+Z_{i+1})) ]

    The dense matrix coincides with :func:`symmetrize` of the same model.
    """
    if model.flip != "single":
        raise ValueError("model is not a single-flip family")
    n, g = model.nsites, model.rate_scale
    gamma, delta = model.gamma, model.delta
    a, b = single_flip_coefficients(gamma, delta)
    ham = SpinHamiltonian(n, 2, [], "periodic")
    for i in range(n):
        im1, ip1 = (i - 1) % n, (i + 1) % n
        ham.add(-g * a, [(i, PAULI_X)])
        ham.add(g * b, [(im1, PAULI_Z), (i, PAULI_X), (ip1, PAULI_Z)])
        # expanded diagonal product (1 + d ZZ)(1 - (gamma/2) Z(Z+Z)):
        # Z^2 = 1 collapses the cross terms onto the nearest-neighbor bonds
        ham.add(g, [])
        ham.add(-g * 0.5 * gamma * (1 + delta), [(im1, PAULI_Z), (i, PAULI_Z)])
        ham.add(-g * 0.5 * gamma * (1 + delta), [(i, PAULI_Z), (ip1, PAULI_Z)])
        ham.add(g * delta, [(im1, PAULI_Z), (ip1, PAULI_Z)])
    return ham


def _f(x: float) -> float:
    return 0.5 * (1.0 + x)


def build_h_tau_single_flip(tau: TauSector, model: KineticModel) -> SpinHamiltonian:
    """Sector Hamiltonian of the quantum single-flip model for one tau pattern.

    The transverse coefficient takes the uniform-sector (A, B) values where
    tau_{i-1} = tau_{i+1} and the branch value
    sqrt(1-delta^2) (1-gamma^2)^(1/4) with no three-site term otherwise; for
    uniform tau the Hamiltonian reduces to :func:`build_h_beta_single_flip`.
    """
    if model.flip != "single":
        raise ValueError("model is not a single-flip family")
    n, g = model.nsites, model.rate_scale
    gamma, delta = model.gamma, model.delta
    t = tau.spins
    a_uni, b_uni = single_flip_coefficients(gamma, delta)
    a_mix = math.sqrt(max(1.0 - delta * delta, 0.0)) * (max(1.0 - gamma * gamma, 0.0)) ** 0.25
    ham = SpinHamiltonian(n, 2, [], "periodic")
    for i in range(n):
        im1, ip1 = (i - 1) % n, (i + 1) % n
        if t[im1] == t[ip1]:
            a_i, b_i = a_uni, b_uni
        else:
            a_i, b_i = a_mix, 0.0
        ham.add(-g * a_i, [(i, PAULI_X)])
        if b_i != 0.0:
            ham.add(g * b_i, [(im1, PAULI_Z), (i, PAULI_X), (ip1, PAULI_Z)])
        ham.add(g, [])
        coeff = -g * 0.5 * gamma * (1 + delta)
        if _f(t[im1] * t[i]) != 0.0:
            ham.add(coeff * _f(t[im1] * t[i]), [(im1, PAULI_Z), (i, PAULI_Z)])
        if _f(t[i] * t[ip1]) != 0.0:
            ham.add(coeff * _f(t[i] * t[ip1]), [(i, PAULI_Z), (ip1, PAULI_Z)])
        if _f(t[im1] * t[ip1]) != 0.0:
            ham.add(g * delta * _f(t[im1] * t[ip1]), [(im1, PAULI_Z), (ip1, PAULI_Z)])
    return ham


def build_h_tau_two_flip(tau: TauSector, phi: float, n: int,
                         rate_scale: float = 1.0) -> SpinHamiltonian:
    """Sector Hamiltonian of the quantum pair-flip model for one tau pattern.

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
    g = rate_scale
    gamma = math.sin(2.0 * phi)
    cos2, sin2 = math.cos(phi) ** 2, math.sin(phi) ** 2
    sqrt_c2 = math.sqrt(max(math.cos(2.0 * phi), 0.0))
    zx = PAULI_Z @ PAULI_X
    t = tau.spins
    ham = SpinHamiltonian(n, 2, [], "periodic")
    for i in range(n):
        im1, ip1, ip2 = (i - 1) % n, (i + 1) % n, (i + 2) % n
        if t[im1] * t[ip1] == 1:
            a_i, b_i = cos2, sin2
        else:
            a_i, b_i = sqrt_c2, 0.0
        ham.add(-g * a_i, [(i, PAULI_X), (ip1, PAULI_X)])
        if b_i != 0.0:
            # Z_{i-1} Z_i Z_{i+1} Z_{i+2} X_i X_{i+1}, same-site products merged
            ham.add(g * b_i, [(im1, PAULI_Z), (i, zx), (ip1, zx), (ip2, PAULI_Z)])
        ham.add(g, [])
        if _f(t[im1]) != 0.0:
            ham.add(-g * 0.5 * gamma * _f(t[im1]), [(im1, PAULI_Z), (i, PAULI_Z)])
        if _f(t[ip1]) != 0.0:
            ham.add(-g * 0.5 * gamma * _f(t[ip1]), [(ip1, PAULI_Z), (ip2, PAULI_Z)])
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
    (single-flip family) or on the pair (i, i+1).
    """
    n = model.nsites
    dim = 2 ** n
    rates, masks = _rate_table(model)
    ident = scipy.sparse.identity(dim, format="csr")
    out = scipy.sparse.csr_matrix((dim * dim, dim * dim))
    codes = np.arange(dim)
    for i in range(n):
        jump = scipy.sparse.coo_matrix(
            (np.sqrt(rates[i]), (codes ^ masks[i], codes)), shape=(dim, dim)
        ).tocsr()
        wdiag = scipy.sparse.diags(rates[i]).tocsr()
        out = out + scipy.sparse.kron(jump, jump, format="csr")
        out = out - 0.5 * (scipy.sparse.kron(wdiag, ident, format="csr")
                           + scipy.sparse.kron(ident, wdiag, format="csr"))
    return out.tocsr()


def conserved_tau_diagonals(n: int) -> list[np.ndarray]:
    """Diagonals of Z_i Z_{i+1} Ztilde_i Ztilde_{i+1} on the doubled chain."""
    s = config_spins(n)
    out = []
    for i in range(n):
        zz = s[:, i] * s[:, (i + 1) % n]
        out.append(np.kron(zz, zz).astype(float))
    return out


def direct_evolve(rho0: DensityMatrix, model: KineticModel, t: float,
                  generator: scipy.sparse.csr_matrix | None = None) -> DensityMatrix:
    """Oracle evolution: integrate the full vectorized generator.

    ``generator`` is :func:`vectorized_generator` of ``model``; pass it to
    evolve several states or times with one build, or leave it None to
    build it here.
    """
    n = model.nsites
    check_budget("direct_evolve_max_sites", n, "direct integration sites")
    gen = vectorized_generator(model) if generator is None else generator
    vec = rho0.matrix.reshape(-1)
    out = scipy.sparse.linalg.expm_multiply(gen * t, vec)
    return DensityMatrix((2,) * n, out.reshape(2 ** n, 2 ** n), tol=1e-8)


def _check_sector_model(model: KineticModel) -> None:
    if model.flip != "pair":
        raise ValueError("sector evolution is defined for the pair model")
    if model.gamma >= 1.0:
        raise ValueError("needs a finite-temperature parametrization")
    check_budget("sector_evolve_max_sites", model.nsites, "sector evolution sites")


def sector_eigensystems(model: KineticModel) -> list[tuple[np.ndarray, np.ndarray]]:
    """Dense eigensystems ``(w, V)`` of the tau sectors of the pair model.

    Entry ``mu`` belongs to the doubled-basis offset ``mu`` (the pairs
    ``(sigma, sigma ^ mu)``), whose conserved products are
    ``tau_i = mu_i mu_{i+1}``.  Each of the 2^(N-1) distinct sectors is
    built by :func:`build_h_tau_two_flip` and diagonalized once, in order of
    first appearance, and shared by the two offsets ``mu`` and ``~mu`` that
    map to it.  The list depends on the model only: build it once and pass
    it to :func:`sector_split_evolve` for every state and time.
    """
    _check_sector_model(model)
    n = model.nsites
    solved: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
    out = []
    for mu_code in range(2 ** n):
        # tau_i = mu_i mu_{i+1}: +1 where neighboring mu bits agree
        bits = (mu_code >> (n - 1 - np.arange(n))) & 1
        tau_spins = np.where(bits == np.roll(bits, -1), 1, -1)
        key = tuple(tau_spins)
        if key not in solved:
            ham = build_h_tau_two_flip(TauSector.from_spins(tau_spins), model.phi,
                                       n, model.rate_scale)
            solved[key] = np.linalg.eigh(ham.dense())
        out.append(solved[key])
    return out


def sector_split_evolve(rho0: DensityMatrix, model: KineticModel, t: float,
                        eigensystems: list | None = None) -> DensityMatrix:
    """Evolve by splitting the transformed master equation into tau sectors.

    Steps: vectorize rho, apply the exp(+(beta/4)(H + Htilde)) scaling, split
    the doubled basis along the conserved tau products, evolve each sector by
    exp(-H_tau t), and undo the scaling.  Equivalent to :func:`direct_evolve`
    but exposes the sector structure.  ``eigensystems`` is
    :func:`sector_eigensystems` of ``model``; pass it to evolve several
    states or times with one set of sector diagonalizations, or leave it
    None to compute it here.
    """
    _check_sector_model(model)
    if eigensystems is None:
        eigensystems = sector_eigensystems(model)
    n = model.nsites
    dim = 2 ** n
    energies = ising_energies(n, model.coupling)
    centered = energies - energies.mean()
    scaling = np.exp(0.25 * model.beta * centered)

    psi = (scaling[:, None] * rho0.matrix * scaling[None, :]).astype(complex)
    out = np.empty_like(psi)
    codes = np.arange(dim)
    for mu_code, (w, v) in enumerate(eigensystems):
        tilde = codes ^ mu_code
        u = psi[codes, tilde]
        out[codes, tilde] = v @ (np.exp(-w * t) * (v.conj().T @ u))
    rho_t = out / scaling[:, None] / scaling[None, :]
    return DensityMatrix((2,) * n, rho_t, tol=1e-8)


def classical_evolve(p0: np.ndarray, model: KineticModel, t: float) -> np.ndarray:
    """Classical master-equation propagation of a probability vector."""
    gen = build_generator(model)
    return scipy.sparse.linalg.expm_multiply(gen * t, np.asarray(p0, dtype=float))


# ---------------------------------------------------------------------------
# spectra scans
# ---------------------------------------------------------------------------

def sector_spectra_scan(kind: str, n: int, sectors, values, k: int = 4,
                        delta: float = 0.0, rate_scale: float = 1.0,
                        workers: int = 1, seed: int = 0) -> list[dict]:
    """Lowest-k levels of sector Hamiltonians over a parameter grid.

    ``kind`` selects the family: "two-flip" scans the temperature angle phi,
    "single-flip" scans gamma.  Returns one record per (sector, value, level)
    with deterministic ordering; sector diagonalizations are independent
    tasks and can run on a thread pool.
    """
    if kind not in ("two-flip", "single-flip"):
        raise ValueError("kind must be 'two-flip' or 'single-flip'")
    check_budget("spectra_scan_max_sites", n, "spectra scan sites")

    tasks = [(tau, float(v)) for tau in sectors for v in values]

    def solve(task):
        tau, value = task
        if kind == "two-flip":
            ham = build_h_tau_two_flip(tau, value, n, rate_scale)
        else:
            model = KineticModel.single_flip(n, gamma=value, delta=delta,
                                             rate_scale=rate_scale)
            ham = build_h_tau_single_flip(tau, model)
        w = lowest_levels(ham.operator(), k=k, seed=seed)
        return [
            {
                "model": kind,
                "N": n,
                "tau_code": tau.code,
                "tau_pattern": tau.pattern,
                "phi_or_gamma": value,
                "level_index": idx,
                "eigenvalue": float(val),
            }
            for idx, val in enumerate(w)
        ]

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(solve, tasks))
    else:
        chunks = [solve(task) for task in tasks]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r["tau_code"], r["phi_or_gamma"], r["level_index"]))
    return rows
