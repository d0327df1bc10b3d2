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
identical to it.  The sparse matrix is built in CSC form straight from these
vectors: column c holds its vector entries at their rows, in row-map order, so
the transposed (row maps, dim) arrays with their zeros masked out are the CSC
data and row indices, and one conversion gives the canonical CSR (sorted
columns in every row, no stored zeros).  The working set is the accumulator,
its int32 rows and one copy of the nonzero entries with their indices.

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
from dataclasses import dataclass

import numpy as np
import scipy

from .freefermion import block_entropy_bits, check_anisotropy, xy_ground_covariance
from .linalg import (BUDGET, PAULI_X, PAULI_Y, PAULI_Z, NumericalError, check_budget,
                     lanczos_lowest, require_hermitian)
from .states import (
    DensityMatrix,
    PureState,
    entropy_from_probabilities,
    partial_trace,
    partial_trace_pure,
    require_single,
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
        ``acc`` is the real part of the complex sums when their largest
        imaginary part is at most 1e-14 of max(largest real part, 1), the one
        real-or-complex rule of :meth:`dense` and :meth:`sparse`.
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
        rows = np.empty((len(slots), d ** n), dtype=np.int32)  # the index type of the CSR
        for i, shift in enumerate(slots):
            row = codes
            for axis in reversed(range(n)):
                shift, step = divmod(shift, d)
                # the entry at digit j of this site becomes the code with digit j + step
                row = np.roll(row, -step, axis=axis) if step else row
            rows[i] = row.reshape(-1)
        acc = acc.reshape(len(slots), d ** n)
        # every nonzero entry of the matrix is an entry of acc
        imag_max = np.abs(acc.imag).max(initial=0.0)
        if imag_max <= 1e-14 * max(np.abs(acc.real).max(initial=0.0), 1.0):
            acc = acc.real
        return rows, acc

    def dense(self) -> np.ndarray:
        dim = self.local_dim ** self.nsites
        rows, acc = self._accumulate()
        out = np.zeros((dim, dim), dtype=acc.dtype)
        out[rows, np.arange(dim)] = acc
        return out

    def sparse(self) -> scipy.sparse.csr_matrix:
        dim = self.local_dim ** self.nsites
        rows, acc = self._accumulate()
        # the transposes list every column's entries in row-map order: CSC order
        keep = acc.T != 0
        indptr = np.zeros(dim + 1, dtype=np.int32)
        np.cumsum(keep.sum(axis=1), out=indptr[1:])
        csc = scipy.sparse.csc_matrix((acc.T[keep], rows.T[keep], indptr), shape=(dim, dim))
        del rows, acc, keep  # freed before the conversion allocates the CSR
        return csc.tocsr()

    def operator(self):
        """:meth:`dense` up to ``BUDGET["dense_dim"]``, :meth:`sparse` above.

        Raises :class:`~entlab.linalg.NotHermitianError` for a non-Hermitian
        term list, which an eigensolver would read as a wrong Hermitian matrix.
        """
        dim = self.local_dim ** self.nsites
        check_budget("lanczos_max_dim", dim, "sparse diagonalization dimension")
        return require_hermitian(self.dense() if dim <= BUDGET["dense_dim"] else self.sparse())


def _bonds(n: int, bc: str, reach: int = 1):
    last = n if bc == "periodic" else n - reach
    return [(i, (i + reach) % n) for i in range(last)]


def build_xy(gamma: float, h: float, n: int, bc: str = "periodic") -> SpinHamiltonian:
    """Anisotropic XY chain in a transverse field.

    H = -(1/2) sum [ (1+gamma)/2 XX + (1-gamma)/2 YY ] - (h/2) sum Z.
    gamma = 1 is the transverse-field Ising chain, gamma = 0 the XX chain.
    """
    check_anisotropy(gamma)
    ham = SpinHamiltonian(n, 2, [])
    for i, j in _bonds(n, bc):
        ham.add(-0.5 * (1 + gamma) / 2, [(i, PAULI_X), (j, PAULI_X)])
        ham.add(-0.5 * (1 - gamma) / 2, [(i, PAULI_Y), (j, PAULI_Y)])
    for i in range(n):
        ham.add(-h / 2, [(i, PAULI_Z)])
    return ham


def build_aklt(n: int) -> SpinHamiltonian:
    """Periodic spin-1 chain H = sum_i S_i.S_{i+1} + (1/3)(S_i.S_{i+1})^2."""
    s = spin1_matrices()
    axes = [s["x"], s["y"], s["z"]]
    ham = SpinHamiltonian(n, 3, [])
    for i, j in _bonds(n, "periodic"):
        for a in axes:
            ham.add(1.0, [(i, a), (j, a)])
        for a in axes:
            for b in axes:
                ham.add(1.0 / 3.0, [(i, a @ b), (j, a @ b)])
    return ham


def build_mg(n: int) -> SpinHamiltonian:
    """Periodic Majumdar-Ghosh chain H = sum_i 2 s_i.s_{i+1} + s_i.s_{i+2}, Pauli matrices."""
    if n < 4:
        raise ValueError("chain too short for next-nearest-neighbor terms")
    ham = SpinHamiltonian(n, 2, [])
    paulis = [PAULI_X, PAULI_Y, PAULI_Z]
    for reach, coeff in ((1, 2.0), (2, 1.0)):
        for i, j in _bonds(n, "periodic", reach):
            for a in paulis:
                ham.add(coeff, [(i, a), (j, a)])
    return ham


def build_cluster(sign: int, n: int) -> SpinHamiltonian:
    """Periodic cluster Hamiltonian sign * sum_i Z_{i-1} X_i Z_{i+1}.
    Public API that no command calls."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if n < 3:
        raise ValueError("need at least 3 sites")
    ham = SpinHamiltonian(n, 2, [])
    for i in range(n):
        ham.add(float(sign), [((i - 1) % n, PAULI_Z), (i, PAULI_X), ((i + 1) % n, PAULI_Z)])
    return ham


def lowest_levels(op, k: int = 1, seed: int = 0, vectors: bool = False):
    """Lowest ``k`` eigenvalues of a Hermitian operator, ascending.

    The one place that picks the eigensolver: ``eigvalsh`` (``eigh`` with
    ``vectors``) for a dense ``op``, ``lanczos_lowest`` for a sparse one, as
    :meth:`SpinHamiltonian.operator` builds them.  With ``vectors`` it returns
    (energies, eigenvector columns) after verifying their residuals.
    """
    if not 1 <= k <= op.shape[0]:  # as lanczos_lowest; eigvalsh(op)[:k] would slice silently
        raise ValueError("k must be >= 1" if k < 1 else "k exceeds operator dimension")
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


def ground_state(ham: SpinHamiltonian, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Lowest-k eigenpairs (energies ascending, eigenvector columns), verified;
    a Lanczos solve starts from seed 0."""
    return lowest_levels(ham.operator(), k, vectors=True)


@dataclass(frozen=True)
class EntropyScan:
    """Block entropies with a least-squares logarithmic fit."""

    block_sizes: tuple
    entropies_bits: tuple
    slope: float
    intercept: float
    residual: float
    abscissa: str


def _fit_scan(sizes, entropies, abscissa: str, nsites: int) -> EntropyScan:
    sizes = tuple(int(x) for x in sizes)
    if len(sizes) < 2:
        raise ValueError(f"a slope fit needs at least two block sizes, got {len(sizes)}")
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
    (slope, intercept), _, rank, _ = np.linalg.lstsq(design, ys, rcond=None)
    if rank < 2:  # the chord abscissae of b and N - b coincide
        raise ValueError("a slope fit needs at least two distinct abscissae")
    residual = float(np.sqrt(np.mean((design @ [slope, intercept] - ys) ** 2)))
    return EntropyScan(sizes, tuple(float(y) for y in ys), float(slope),
                       float(intercept), residual, abscissa)


def block_entropy_scan(psi: PureState, block_sizes) -> EntropyScan:
    """Entropies of blocks {1..n} of a pure chain state, fit against log2 n."""
    n = len(require_single(psi).dims)
    entropies = []
    for b in block_sizes:
        if not 1 <= b < n:
            raise ValueError("block sizes must satisfy 1 <= n < N")
        entropies.append(von_neumann_entropy(partial_trace_pure(psi, int(b))))
    return _fit_scan(block_sizes, entropies, "log2n", n)


def free_fermion_entropy_scan(gamma: float, h: float, n: int, block_sizes,
                              bc: str = "periodic",
                              abscissa: str = "chord") -> EntropyScan:
    """Block-entropy scan of the XY ground state via the fermion covariance."""
    _, cov = xy_ground_covariance(gamma, h, n, bc)
    entropies = [block_entropy_bits(cov, int(b)) for b in block_sizes]
    return _fit_scan(block_sizes, entropies, abscissa, n)


def thermal_state(ham: SpinHamiltonian, beta: float) -> DensityMatrix:
    """Gibbs state exp(-beta H)/Z by dense eigendecomposition.

    Raises :class:`~entlab.linalg.NotHermitianError` for a non-Hermitian ``ham``.
    """
    dim = ham.local_dim ** ham.nsites
    check_budget("full_spectrum_max_dim", dim, "thermal state dimension")
    w, v = np.linalg.eigh(require_hermitian(ham.dense()))
    with np.errstate(over="ignore"):  # exp(-inf) = 0 is the right weight of a far level
        boltz = np.exp(-beta * (w - w.min()))
    boltz /= boltz.sum()
    rho = (v * boltz) @ v.conj().T
    del v  # not held while the state is validated
    return DensityMatrix((ham.local_dim,) * ham.nsites, rho)


def check_cut(cut: int, n: int) -> None:
    """A bipartition of ``n`` sites at ``cut`` leaves both parts nonempty."""
    if not 1 <= cut < n:
        raise ValueError(f"cut must satisfy 1 <= cut < sites, got cut {cut} of {n} sites")


def mutual_info_area_check(ham: SpinHamiltonian, beta: float, cut: int):
    """Thermal mutual information against its boundary bounds (all nats).

    Returns (I, boundary-energy bound, nearest-neighbor bound) for the
    bipartition A = sites [0, cut); a term crosses the cut when its first
    site lies in A and its last in B.  Both bounds are derived for
    ``beta >= 0``; a negative ``beta`` raises ``ValueError``.
    """
    n = ham.nsites
    check_cut(cut, n)
    if beta < 0:
        raise ValueError(f"the boundary bounds need beta >= 0, got beta {beta}")
    rho = thermal_state(ham, beta)
    rho_a = partial_trace(rho, range(cut))
    rho_b = partial_trace(rho, range(cut, n))
    info = (von_neumann_entropy(rho_a, "e") + von_neumann_entropy(rho_b, "e")
            - von_neumann_entropy(rho, "e"))
    crossing = [(c, f) for c, f in ham.terms if f and f[0][0] < cut <= f[-1][0]]
    # tr(h_boundary @ (kron - rho)) holding two dim^2 arrays: the difference is
    # formed in place and rho released; the diagonal of the complex product is
    # taken 64 rows at a time and summed as np.trace sums it, to the same bits
    product = np.kron(rho_a.matrix, rho_b.matrix)
    product -= rho.matrix
    del rho
    h_boundary = SpinHamiltonian(n, ham.local_dim, crossing).dense()
    diagonal = np.empty(len(product), complex)
    for i in range(0, len(product), 64):
        diagonal[i:i + 64] = np.diagonal(h_boundary[i:i + 64].astype(complex) @ product, i)
    boundary_bound = beta * float(diagonal.sum().real)
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

SPINS = (1.0, -1.0)  # the site values of a classical ring, in digit order


def _ring_probabilities(coupling: float, beta: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(p, digits)`` of the Ising ring ``E = -J sum s_i s_{i+1}``, ``J = coupling``: the
    Gibbs weight of each configuration c, and ``digits[c, i]``, the :data:`SPINS` index of
    site i, digit i of c (site 0 least significant, unlike the Kronecker order elsewhere).

    Raises :class:`~entlab.linalg.NumericalError` if an energy or the sum of
    the weights is not finite.
    """
    check_budget("classical_ring_max_sites", n, "classical enumeration sites")
    d = len(SPINS)
    codes = np.arange(d ** n)
    digits = (codes[:, None] // d ** np.arange(n)[None, :]) % d
    table = np.array([[-coupling * a * b for b in SPINS] for a in SPINS], dtype=float)
    energy = np.zeros(len(codes))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
        for i in range(n):
            energy += table[digits[:, i], digits[:, (i + 1) % n]]
        # exp(-inf) = 0 is the right weight of a configuration far above the minimum
        weights = np.exp(-beta * (energy - energy.min()))
        total = weights.sum()
    if not (np.isfinite(energy).all() and math.isfinite(total)):
        raise NumericalError(f"Ising ring energies or Gibbs weights are not finite "
                             f"at J = {coupling}, beta = {beta}")
    return weights / total, digits


def _marginal(p: np.ndarray, digits: np.ndarray, sites, d: int):
    """(marginal key of every configuration, marginal distribution) on ``sites``."""
    sites = sorted(sites)
    key = np.zeros(len(p), dtype=np.int64)
    for rank, s in enumerate(sites):
        key += digits[:, s] * d ** rank
    return key, np.bincount(key, weights=p, minlength=d ** len(sites))


def _marginal_entropy_bits(p: np.ndarray, digits: np.ndarray, sites, d: int) -> float:
    return entropy_from_probabilities(_marginal(p, digits, sites, d)[1], 2)


def classical_gibbs_mutual_info(coupling: float, beta: float, n: int, cut: int):
    """Shannon mutual information of the classical Ising ring across a cut.

    Returns (I bits, area bound |dA| log2 d, boundary identity violation)
    where the last entry is |I(A:B) - I(dA:dB)|, which the nearest-neighbor
    Markov property forces to vanish.
    """
    check_cut(cut, n)
    d = len(SPINS)
    p, digits = _ring_probabilities(coupling, beta, n)
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


def markov_violation(coupling: float, beta: float, n: int, site_c1: int, site_c2: int) -> float:
    """Max violation of p(A,B,C) = p(A,C) p(B,C) / p(C) on the Ising ring.

    C = {site_c1, site_c2} separates the ring into two arcs A and B.
    """
    d = len(SPINS)
    p, digits = _ring_probabilities(coupling, beta, n)
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
