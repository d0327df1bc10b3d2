"""Spin-chain Hamiltonians, exact diagonalization, and area-law experiments.

Hamiltonians are term lists: each term is a coefficient times a product of
single-site operators, which assembles equally well into a dense matrix (for
oracles) or a sparse one (for Lanczos at larger N).  Both come from one kernel
working on basis codes (site 0 the most significant base-d digit) instead of
Kronecker products.  Picking one nonzero ``m[a, b]`` of every factor of a
term selects the columns whose digit at each factor site is ``b``, and sends
each of them to the row reached by adding ``(a - b) mod d`` to that digit
(an XOR mask for spin 1/2); the value is the product of the picked entries in
site order.  Each such row map owns one length-d^N vector indexed by column,
and the terms are added into these vectors in term order.  Every matrix entry
therefore receives the same products, summed in the same order, as the
Kronecker definition ``sum_t c_t (x)_s m_{t,s}``, so the result is bitwise
identical to it.

The builders cover the anisotropic XY chain in a transverse field, the spin-1
AKLT chain, the Majumdar-Ghosh chain (Pauli convention), and the
cluster-state Hamiltonian.

Entropy scans slice a pure state into blocks {1..n} and fit S against a
logarithmic abscissa.  For periodic critical chains the fit abscissa is the
conformal chord ``log2[(N/pi) sin(pi n / N)]``, which removes the finite-size
saturation near n = N/2; at fixed n it reduces to ``log2 n`` as N grows.

Thermal-state checks: quantum mutual information across a cut is compared
against the boundary-energy bound ``beta tr[H_b (rho_A x rho_B - rho)]`` and
its looser nearest-neighbor form ``2 beta |h| |dA|`` (all in nats, matching
the free-energy argument behind the bound); classical Gibbs rings are
checked against ``|dA| log2 d`` and the boundary-reduction identity
``I(A:B) = I(dA:dB)`` implied by the Markov property.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy

from .linalg import (BUDGET, PAULI_X, PAULI_Y, PAULI_Z, NumericalError, check_budget,
                     lanczos_lowest)
from .states import (
    DensityMatrix,
    PureState,
    entropy_from_probabilities,
    partial_trace,
    partial_trace_pure,
    von_neumann_entropy,
)


def spin1_matrices() -> dict[str, np.ndarray]:
    """Spin-1 operators in the S^z basis ordered (+1, 0, -1), hbar = 1."""
    sp = math.sqrt(2) * np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
    sm = sp.conj().T
    return {
        "x": (sp + sm) / 2,
        "y": (sp - sm) / 2j,
        "z": np.diag([1.0, 0.0, -1.0]).astype(complex),
        "+": sp,
        "-": sm,
    }


@dataclass
class SpinHamiltonian:
    """Sum of products of single-site operators on a chain."""

    nsites: int
    local_dim: int
    terms: list  # (coeff, ((site, matrix), ...)) with sites strictly increasing
    boundary: str = "periodic"

    def add(self, coeff: float, factors) -> None:
        factors = tuple(sorted(((int(s) % self.nsites, np.asarray(m, dtype=complex))
                                for s, m in factors), key=lambda f: f[0]))
        sites = [s for s, _ in factors]
        if len(set(sites)) != len(sites):
            raise ValueError("repeated site in a term; multiply the matrices first")
        self.terms.append((complex(coeff), factors))

    def _accumulate(self) -> tuple[np.ndarray, np.ndarray]:
        """Sum the terms into one length-dim vector per row map.

        Returns (rows, acc), both (row maps, dim): ``acc[i, c]`` is the matrix
        entry at column c and row ``rows[i, c]``.  Terms are added in term order.
        """
        d, n = self.local_dim, self.nsites
        places = d ** np.arange(n - 1, -1, -1)  # site 0 is the most significant digit
        slots: dict[int, int] = {}  # basis code of the per-site digit shifts -> row of acc
        updates = []
        for coeff, factors in self.terms:
            # one combination per choice of a nonzero m[a, b] in every factor: its
            # value is the entries multiplied in site order, its columns have digit b
            nonzeros = [np.nonzero(m) for _, m in factors]
            combos = list(itertools.product(*(range(len(a)) for a, _ in nonzeros)))
            combos = np.array(combos, dtype=int).reshape(len(combos), len(factors))
            vals = np.ones(len(combos), dtype=complex)
            shifts = np.zeros(len(combos), dtype=int)
            index = [None] + [slice(None)] * n
            for (s, m), (a, b), pick in zip(factors, nonzeros, combos.T):
                a, b = a[pick], b[pick]
                vals = vals * m[a, b]
                shifts += (a - b) % d * places[s]
                index[1 + s] = b
            index[0] = np.array([slots.setdefault(k, len(slots)) for k in shifts.tolist()],
                                dtype=int)
            # the selection has the combination axis first, then one axis per free site
            vals = (coeff * vals).reshape((-1,) + (1,) * (n - len(factors)))
            updates.append((tuple(index), vals))
        acc = np.zeros((len(slots),) + (d,) * n, dtype=complex)
        for index, vals in updates:
            acc[index] += vals
        codes = np.arange(d ** n).reshape((d,) * n)
        rows = np.empty((len(slots), d ** n), dtype=int)
        for i, shift in enumerate(slots):
            row = codes
            for axis in reversed(range(n)):
                shift, step = divmod(shift, d)
                # the entry at digit j of this site becomes the code with digit j + step
                row = np.roll(row, -step, axis=axis) if step else row
            rows[i] = row.reshape(-1)
        return rows, acc.reshape(len(slots), d ** n)

    def dense(self) -> np.ndarray:
        dim = self.local_dim ** self.nsites
        rows, acc = self._accumulate()
        # every nonzero entry of the matrix is an entry of acc
        imag_max = np.abs(acc.imag).max(initial=0.0)
        is_real = imag_max <= 1e-14 * max(np.abs(acc.real).max(initial=0.0), 1.0)
        out = np.zeros((dim, dim), dtype=float if is_real else complex)
        out[rows, np.arange(dim)] = acc.real if is_real else acc
        return out

    def sparse(self) -> scipy.sparse.csr_matrix:
        dim = self.local_dim ** self.nsites
        rows, acc = self._accumulate()
        slot, cols = np.nonzero(acc)
        rows, data = rows[slot, cols], acc[slot, cols]
        if np.abs(data.imag).max(initial=0.0) <= 1e-14:
            data = data.real
            keep = data != 0
            rows, cols, data = rows[keep], cols[keep], data[keep]
        return scipy.sparse.csr_matrix((data, (rows, cols)), shape=(dim, dim))

    def operator(self):
        """:meth:`dense` up to ``BUDGET["dense_dim"]``, :meth:`sparse` above."""
        dim = self.local_dim ** self.nsites
        check_budget("lanczos_max_dim", dim, "sparse diagonalization dimension")
        return self.dense() if dim <= BUDGET["dense_dim"] else self.sparse()

    def classify_terms(self, cut: int):
        """Split terms into (inside A, crossing, inside B) for A = sites [0, cut)."""
        inside_a, crossing, inside_b = [], [], []
        for term in self.terms:
            sites = {s for s, _ in term[1]}
            in_a = any(s < cut for s in sites)
            in_b = any(s >= cut for s in sites)
            if in_a and in_b:
                crossing.append(term)
            elif in_a:
                inside_a.append(term)
            else:
                inside_b.append(term)
        return inside_a, crossing, inside_b

    def subset(self, terms) -> "SpinHamiltonian":
        return SpinHamiltonian(self.nsites, self.local_dim, list(terms), self.boundary)


def _bonds(n: int, bc: str, reach: int = 1):
    last = n if bc == "periodic" else n - reach
    return [(i, (i + reach) % n) for i in range(last)]


def build_xy(gamma: float, h: float, n: int, bc: str = "periodic") -> SpinHamiltonian:
    """Anisotropic XY chain in a transverse field.

    H = -(1/2) sum [ (1+gamma)/2 XX + (1-gamma)/2 YY ] - (h/2) sum Z.
    gamma = 1 is the transverse-field Ising chain, gamma = 0 the XX chain.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("anisotropy must lie in [0, 1]")
    ham = SpinHamiltonian(n, 2, [], bc)
    for i, j in _bonds(n, bc):
        ham.add(-0.5 * (1 + gamma) / 2, [(i, PAULI_X), (j, PAULI_X)])
        ham.add(-0.5 * (1 - gamma) / 2, [(i, PAULI_Y), (j, PAULI_Y)])
    for i in range(n):
        ham.add(-h / 2, [(i, PAULI_Z)])
    return ham


def build_aklt(n: int, bc: str = "periodic") -> SpinHamiltonian:
    """Spin-1 chain H = sum_i S_i.S_{i+1} + (1/3)(S_i.S_{i+1})^2."""
    s = spin1_matrices()
    axes = [s["x"], s["y"], s["z"]]
    ham = SpinHamiltonian(n, 3, [], bc)
    for i, j in _bonds(n, bc):
        for a in axes:
            ham.add(1.0, [(i, a), (j, a)])
        for a in axes:
            for b in axes:
                ham.add(1.0 / 3.0, [(i, a @ b), (j, a @ b)])
    return ham


def build_mg(n: int, bc: str = "periodic") -> SpinHamiltonian:
    """Majumdar-Ghosh chain H = sum_i 2 s_i.s_{i+1} + s_i.s_{i+2}, Pauli matrices."""
    if bc == "periodic" and n < 4 or bc == "open" and n < 3:
        raise ValueError("chain too short for next-nearest-neighbor terms")
    ham = SpinHamiltonian(n, 2, [], bc)
    paulis = [PAULI_X, PAULI_Y, PAULI_Z]
    for reach, coeff in ((1, 2.0), (2, 1.0)):
        for i, j in _bonds(n, bc, reach):
            for a in paulis:
                ham.add(coeff, [(i, a), (j, a)])
    return ham


def build_cluster(sign: int, n: int, bc: str = "periodic") -> SpinHamiltonian:
    """Cluster Hamiltonian sign * sum_i Z_{i-1} X_i Z_{i+1}."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if n < 3:
        raise ValueError("need at least 3 sites")
    ham = SpinHamiltonian(n, 2, [], bc)
    rng = range(n) if bc == "periodic" else range(1, n - 1)
    for i in rng:
        ham.add(float(sign), [((i - 1) % n, PAULI_Z), (i, PAULI_X), ((i + 1) % n, PAULI_Z)])
    return ham


def lowest_levels(op, k: int = 1, seed: int = 0, vectors: bool = False):
    """Lowest ``k`` eigenvalues of a Hermitian operator, ascending.

    The one place that picks the eigensolver: ``eigvalsh`` (``eigh`` with
    ``vectors``) for a dense ``op``, ``lanczos_lowest`` for a sparse one, as
    :meth:`SpinHamiltonian.operator` builds them.  With ``vectors`` it returns
    (energies, eigenvector columns) after verifying their residuals.
    """
    if k > op.shape[0]:  # lanczos_lowest raises the same; eigvalsh would return fewer
        raise ValueError("k exceeds operator dimension")
    if isinstance(op, np.ndarray):
        if not vectors:
            return np.linalg.eigvalsh(op)[:k]
        w, v = np.linalg.eigh(op)
        w, v = w[:k], v[:, :k]
    elif not vectors:
        return lanczos_lowest(op, k=k, seed=seed)
    else:
        w, v = lanczos_lowest(op, k=k, seed=seed, return_vectors=True)
    resid = float(np.linalg.norm(op @ v - v * w, axis=0).max())
    if resid > 1e-8 * max(1.0, float(np.abs(w).max())):
        raise NumericalError(f"eigenpair residual {resid:.2e} too large")
    return w, v


def ground_state(ham: SpinHamiltonian, k: int = 1,
                 seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Lowest-k eigenpairs (energies ascending, eigenvector columns), verified."""
    return lowest_levels(ham.operator(), k, seed, vectors=True)


@dataclass(frozen=True)
class EntropyScan:
    """Block entropies with a least-squares logarithmic fit."""

    block_sizes: tuple
    entropies_bits: tuple
    slope: float
    intercept: float
    residual: float
    abscissa: str = "log2n"


def _fit_scan(sizes, entropies, abscissa: str, nsites: int) -> EntropyScan:
    sizes = tuple(int(x) for x in sizes)
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("block sizes must be strictly increasing")
    if abscissa == "log2n":
        xs = np.log2(np.asarray(sizes, dtype=float))
    elif abscissa == "chord":
        xs = np.log2((nsites / math.pi) * np.sin(math.pi * np.asarray(sizes) / nsites))
    else:
        raise ValueError("abscissa must be 'log2n' or 'chord'")
    ys = np.asarray(entropies, dtype=float)
    design = np.vstack([xs, np.ones_like(xs)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, ys, rcond=None)
    residual = float(np.sqrt(np.mean((design @ [slope, intercept] - ys) ** 2)))
    return EntropyScan(sizes, tuple(float(y) for y in ys), float(slope),
                       float(intercept), residual, abscissa)


def block_entropy_scan(psi: PureState, block_sizes, abscissa: str = "log2n") -> EntropyScan:
    """Entropies of blocks {1..n} of a pure chain state, with a log fit."""
    n = len(psi.dims)
    entropies = []
    for b in block_sizes:
        if not 1 <= b < n:
            raise ValueError("block sizes must satisfy 1 <= n < N")
        entropies.append(von_neumann_entropy(partial_trace_pure(psi, int(b), "A")))
    return _fit_scan(block_sizes, entropies, abscissa, n)


def free_fermion_entropy_scan(gamma: float, h: float, n: int, block_sizes,
                              bc: str = "periodic",
                              abscissa: str = "chord") -> EntropyScan:
    """Block-entropy scan of the XY ground state via the fermion covariance."""
    from .freefermion import xy_entropy_free_fermion

    entropies = xy_entropy_free_fermion(gamma, h, n, list(block_sizes), bc)
    return _fit_scan(block_sizes, entropies, abscissa, n)


def thermal_state(ham: SpinHamiltonian, beta: float) -> DensityMatrix:
    """Gibbs state exp(-beta H)/Z by dense eigendecomposition."""
    dim = ham.local_dim ** ham.nsites
    check_budget("thermal_state_max_dim", dim, "thermal state dimension")
    w, v = np.linalg.eigh(ham.dense())
    boltz = np.exp(-beta * (w - w.min()))
    boltz /= boltz.sum()
    rho = (v * boltz) @ v.conj().T
    return DensityMatrix((ham.local_dim,) * ham.nsites, rho)


def free_energy(ham: SpinHamiltonian, rho: DensityMatrix, beta: float) -> float:
    """F = tr(H rho) - S(rho)/beta, entropy in nats."""
    energy = float(np.trace(ham.dense() @ rho.matrix).real)
    return energy - von_neumann_entropy(rho, base="e") / beta


def mutual_info_area_check(ham: SpinHamiltonian, beta: float, cut: int):
    """Thermal mutual information against its boundary bounds (all nats).

    Returns (I, boundary-energy bound, nearest-neighbor bound) for the
    bipartition A = sites [0, cut).  Raises if any term has empty support.
    """
    rho = thermal_state(ham, beta)
    n = ham.nsites
    rho_a = partial_trace(rho, range(cut))
    rho_b = partial_trace(rho, range(cut, n))
    info = (von_neumann_entropy(rho_a, "e") + von_neumann_entropy(rho_b, "e")
            - von_neumann_entropy(rho, "e"))
    _, crossing, _ = ham.classify_terms(cut)
    h_boundary = ham.subset(crossing).dense()
    product = np.kron(rho_a.matrix, rho_b.matrix)
    boundary_bound = beta * float(np.trace(h_boundary @ (product - rho.matrix)).real)
    # loose form: 2 beta |h| per boundary site, |h| the largest crossing-term norm
    norms = []
    boundary_sites = set()
    for coeff, factors in crossing:
        block = np.array([[1.0 + 0j]])
        for _, m in factors:
            block = np.kron(block, m)
        norms.append(abs(coeff) * float(np.linalg.norm(block, 2)))
        boundary_sites.update(s for s, _ in factors if s < cut)
    simple_bound = 2.0 * beta * max(norms, default=0.0) * len(boundary_sites)
    return float(info), boundary_bound, simple_bound


# ---------------------------------------------------------------------------
# classical Gibbs rings
# ---------------------------------------------------------------------------

def _ring_probabilities(coupling, beta: float, n: int, values) -> np.ndarray:
    d = len(values)
    codes = np.arange(d ** n)
    digits = (codes[:, None] // d ** np.arange(n)[None, :]) % d
    table = np.array([[coupling(a, b) for b in values] for a in values], dtype=float)
    energy = np.zeros(len(codes))
    for i in range(n):
        energy += table[digits[:, i], digits[:, (i + 1) % n]]
    weights = np.exp(-beta * (energy - energy.min()))
    return weights / weights.sum(), digits


def _marginal(p: np.ndarray, digits: np.ndarray, sites, d: int):
    """(marginal key of every configuration, marginal distribution) on ``sites``."""
    sites = sorted(sites)
    key = np.zeros(len(p), dtype=np.int64)
    for rank, s in enumerate(sites):
        key += digits[:, s] * d ** rank
    return key, np.bincount(key, weights=p, minlength=d ** len(sites))


def _marginal_entropy_bits(p: np.ndarray, digits: np.ndarray, sites, d: int) -> float:
    return entropy_from_probabilities(_marginal(p, digits, sites, d)[1], 2)


def classical_gibbs_mutual_info(coupling, beta: float, n: int, cut: int,
                                values=(1.0, -1.0)):
    """Shannon mutual information of a classical Gibbs ring across a cut.

    Returns (I bits, area bound |dA| log2 d, boundary identity violation)
    where the last entry is |I(A:B) - I(dA:dB)|, which the nearest-neighbor
    Markov property forces to vanish.
    """
    check_budget("classical_ring_max_sites", n, "classical enumeration sites")
    d = len(values)
    p, digits = _ring_probabilities(coupling, beta, n, values)
    a = list(range(cut))
    b = list(range(cut, n))
    info = (_marginal_entropy_bits(p, digits, a, d)
            + _marginal_entropy_bits(p, digits, b, d)
            - _marginal_entropy_bits(p, digits, range(n), d))
    boundary_a = [0, cut - 1] if cut > 1 else [0]
    boundary_b = [cut, n - 1] if cut < n - 1 else [cut]
    info_boundary = (_marginal_entropy_bits(p, digits, boundary_a, d)
                     + _marginal_entropy_bits(p, digits, boundary_b, d)
                     - _marginal_entropy_bits(p, digits, set(boundary_a) | set(boundary_b), d))
    bound = len(boundary_a) * math.log2(d)
    return float(info), float(bound), abs(float(info) - float(info_boundary))


def markov_violation(coupling, beta: float, n: int, site_c1: int, site_c2: int,
                     values=(1.0, -1.0)) -> float:
    """Max violation of p(A,B,C) = p(A,C) p(B,C) / p(C) on a Gibbs ring.

    C = {site_c1, site_c2} separates the ring into two arcs A and B.
    """
    d = len(values)
    p, digits = _ring_probabilities(coupling, beta, n, values)
    c = sorted({site_c1 % n, site_c2 % n})
    if len(c) != 2:
        raise ValueError("need two distinct separator sites")
    arc_a = [s for s in range(c[0] + 1, c[1])]
    arc_b = [s for s in list(range(c[1] + 1, n)) + list(range(0, c[0]))]
    key_ac, p_ac = _marginal(p, digits, arc_a + c, d)
    key_bc, p_bc = _marginal(p, digits, arc_b + c, d)
    key_c, p_c = _marginal(p, digits, c, d)
    pc = p_c[key_c]
    valid = pc > 0
    rhs = np.zeros_like(p)
    rhs[valid] = p_ac[key_ac][valid] * p_bc[key_bc][valid] / pc[valid]
    return float(np.abs(p - rhs)[valid].max())
