"""Model parameters, truncated product bases, and Hamiltonian builders.

Conventions used throughout the package (hbar = 1):

* The product basis is photon-major: basis index = n * matter_dim + k with
  photon occupation n = 0..photon_cutoff outermost and matter index k
  innermost.
* The matter index k counts excitations above the collective ground state.
  For the pseudo-spin ladder of N two-level dipoles (total spin j = N/2,
  the maximal cooperation sector) this means k = m + j, so k = 0 is the
  fully de-excited state m = -j.
* All diagonal energies are reported relative to the uncoupled vacuum
  (n = 0, k = 0); equivalently the builders normal order the free parts.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError

HERMITICITY_TOL = 1e-12
NORM_TOL = 1e-12
# a lower bound on what assembling an operator costs per basis state; the
# builders peak at 43-123 B per state under tracemalloc near dimension 10^5
BUILD_BYTES_PER_STATE = 40


@dataclass(frozen=True)
class ModelParams:
    """Frequencies and coupling of the N-dipole cavity model.

    omega_a is the cavity frequency, omega_b the dipole transition
    frequency, g the single-dipole vacuum Rabi frequency and n_atoms the
    number of dipoles.  The collective coupling g * sqrt(n_atoms) is the
    quantity held fixed when comparing against the many-dipole limit.
    """

    omega_a: float
    omega_b: float
    g: float
    n_atoms: int

    def __post_init__(self):
        values = (self.omega_a, self.omega_b, self.g, self.n_atoms)
        if not all(math.isfinite(v) for v in values):
            raise DomainError(f"model parameters must be finite, got {values}")
        if not (self.omega_a > 0.0 and self.omega_b > 0.0):
            raise DomainError(
                f"mode frequencies must be positive, got omega_a={self.omega_a}, "
                f"omega_b={self.omega_b}"
            )
        if self.g < 0.0:
            raise DomainError(f"coupling g must be non-negative, got {self.g}")
        if int(self.n_atoms) != self.n_atoms or self.n_atoms < 1:
            raise DomainError(f"n_atoms must be a positive integer, got {self.n_atoms}")

    @classmethod
    def from_collective(cls, omega_a, omega_b, collective_coupling, n_atoms=1):
        """Build params from the collective coupling lambda = g * sqrt(N)."""
        if collective_coupling < 0.0:
            raise DomainError(
                f"collective coupling must be non-negative, got {collective_coupling}"
            )
        g = collective_coupling / math.sqrt(n_atoms)
        return cls(omega_a=omega_a, omega_b=omega_b, g=g, n_atoms=n_atoms)

    @property
    def collective_coupling(self) -> float:
        return self.g * math.sqrt(self.n_atoms)

    def _coupling_ratio(self) -> float:
        """4 lambda^2 / (wa*wb); the bilinear model is stable below 1.

        Each factor is split as m 2^e and the powers of two are moved to one
        side, which is exact, so the products neither underflow nor overflow,
        and ratio < 1 decides as 4 lambda^2 < wa*wb wherever both are finite.
        A ratio beyond the float range is returned as inf, which is >= 1."""
        (m_lam, e_lam), (m_a, e_a), (m_b, e_b) = (
            math.frexp(v) for v in (self.collective_coupling, self.omega_a, self.omega_b)
        )
        try:
            return math.ldexp(4.0 * m_lam * m_lam, 2 * e_lam - e_a - e_b) / (m_a * m_b)
        except OverflowError:
            return math.inf

    def bilinear_stable(self) -> bool:
        """Normal-phase condition of the bilinear model: 4 lambda^2 < wa*wb."""
        return self._coupling_ratio() < 1.0

    def require_bilinear_stable(self) -> None:
        ratio = self._coupling_ratio()
        if not ratio < 1.0:
            shown = f"= {ratio:.12g}" if math.isfinite(ratio) else "is beyond the float range, so"
            raise DomainError(
                f"bilinear model unstable: 4*lambda^2/(omega_a*omega_b) {shown} >= 1; "
                "require 4*lambda^2 < omega_a*omega_b"
            )


@dataclass(frozen=True)
class HilbertSpec:
    """Truncation of the product space: photon Fock levels 0..photon_cutoff
    tensor a matter block of matter_dim levels."""

    photon_cutoff: int
    matter_dim: int

    def __post_init__(self):
        if int(self.photon_cutoff) != self.photon_cutoff or self.photon_cutoff < 1:
            raise ConfigurationError(
                f"photon_cutoff must be an integer >= 1, got {self.photon_cutoff}"
            )
        if int(self.matter_dim) != self.matter_dim or self.matter_dim < 2:
            raise ConfigurationError(
                f"matter_dim must be an integer >= 2, got {self.matter_dim}"
            )

    @property
    def photon_dim(self) -> int:
        return self.photon_cutoff + 1

    @property
    def dimension(self) -> int:
        return self.photon_dim * self.matter_dim

    def index(self, n_photon: int, k_matter: int) -> int:
        """Flat index of |n_photon> tensor |k_matter> (photon-major)."""
        if not (0 <= n_photon < self.photon_dim):
            raise ConfigurationError(
                f"photon occupation {n_photon} outside 0..{self.photon_cutoff}"
            )
        if not (0 <= k_matter < self.matter_dim):
            raise ConfigurationError(
                f"matter index {k_matter} outside 0..{self.matter_dim - 1}"
            )
        return n_photon * self.matter_dim + k_matter


class HermitianOperator:
    """Hermitian matrix stored as its upper triangle.

    Only entries with row <= col are kept; the lower triangle is implied by
    conjugate transposition, so hermiticity holds by construction.  Diagonal
    entries are stored with zero imaginary part.
    """

    __slots__ = ("dim", "rows", "cols", "values")

    def __init__(self, dim, rows, cols, values):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values)
        if rows.shape != cols.shape or rows.shape != values.shape:
            raise ConfigurationError("rows, cols and values must have equal length")
        if rows.size and (rows.min() < 0 or cols.max() >= dim):
            raise ConfigurationError("entry index outside the operator dimension")
        if np.any(rows > cols):
            raise ConfigurationError("only upper-triangle entries may be stored")
        if np.iscomplexobj(values) and np.any(values[rows == cols].imag != 0.0):
            raise ConfigurationError("diagonal entries must be real")
        self.dim = int(dim)
        self.rows = rows
        self.cols = cols
        self.values = values

    @classmethod
    def from_dense(cls, matrix):
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ConfigurationError(f"expected a square matrix, got {matrix.shape}")
        scale = float(np.max(np.abs(matrix))) if matrix.size else 0.0
        dev = float(np.max(np.abs(matrix - matrix.conj().T))) if matrix.size else 0.0
        if dev > HERMITICITY_TOL * max(1.0, scale):
            raise ConfigurationError(
                f"matrix is not Hermitian: max |H - H^dag| = {dev:.3e}"
            )
        dim = matrix.shape[0]
        # symmetrize before extraction so rounding asymmetry cannot leak in
        sym = 0.5 * (matrix + matrix.conj().T)
        iu = np.triu_indices(dim)
        vals = sym[iu]
        keep = vals != 0.0
        rows, cols = iu[0][keep], iu[1][keep]
        vals = vals[keep]
        diag = rows == cols
        if np.iscomplexobj(vals):
            vals = vals.copy()
            vals[diag] = vals[diag].real
        return cls(dim, rows, cols, vals)

    def to_dense(self) -> np.ndarray:
        dtype = complex if np.iscomplexobj(self.values) else float
        out = np.zeros((self.dim, self.dim), dtype=dtype)
        out[self.rows, self.cols] = self.values
        off = self.rows != self.cols
        out[self.cols[off], self.rows[off]] = np.conj(self.values[off])
        return out

    def to_sparse(self):
        from scipy.sparse import coo_matrix

        off = self.rows != self.cols
        rows = np.concatenate([self.rows, self.cols[off]])
        cols = np.concatenate([self.cols, self.rows[off]])
        vals = np.concatenate([self.values, np.conj(self.values[off])])
        return coo_matrix((vals, (rows, cols)), shape=(self.dim, self.dim)).tocsr()

    def frobenius_norm(self) -> float:
        """|H|_F over both triangles.  The values are first scaled by a power
        of two near 1/max|H_ij|, which is exact and keeps their squares from
        overflowing at any finite scale."""
        off = self.rows != self.cols
        magnitude = np.abs(self.values)
        unit = np.ldexp(1.0, -np.frexp(magnitude.max())[1]) if magnitude.size else 1.0
        sq = (magnitude * unit) ** 2
        return float(math.sqrt(np.sum(sq) + np.sum(sq[off])) / unit)


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state on a truncated basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size < 1:
            raise ConfigurationError("state amplitudes must form a non-empty vector")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise ConfigurationError(
                f"state not normalized: |norm - 1| = {abs(norm - 1.0):.3e}"
            )
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @classmethod
    def product_fock(cls, spec: HilbertSpec, n_photon: int, k_matter: int) -> "StateVector":
        amps = np.zeros(spec.dimension, dtype=complex)
        amps[spec.index(n_photon, k_matter)] = 1.0
        return cls(amps)


def _boson_ladder(dim: int):
    """sqrt(1), ..., sqrt(dim - 1), the entries a|n> = sqrt(n)|n-1>, and the
    diagonal of a^dag a as the matrix product forms it: sqrt(n) sqrt(n),
    which is not always n."""
    roots = np.sqrt(np.arange(1, dim, dtype=float))
    return roots, np.r_[0.0, roots * roots]


def _spin_ladder(n_atoms: int, k):
    """J_plus amplitudes of the j = N/2 ladder at rungs k = m + j, that is
    sqrt(j(j+1) - m(m+1)) in its integer form sqrt((N - k)(k + 1)).  The
    argument is an exact integer below 2^53, so each amplitude is one
    correctly rounded sqrt; the products m(m+1) of the m-form are exact only
    while N(N+2) < 2^53, i.e. N <= 94906264."""
    return np.sqrt((n_atoms - k) * (k + 1.0))


def _refuse_unbuildable(spec: HilbertSpec) -> None:
    """scipy's graph kernels (connected components, reverse Cuthill-McKee)
    and its LAPACK routines index with C int, so a larger product dimension
    could never be solved; it is refused as the failed allocation it would
    become.  So is one whose lower-bound cost exceeds the physical memory.
    Each builder calls this before it allocates anything."""
    if spec.dimension > np.iinfo(np.intc).max:
        raise MemoryError(
            f"cannot index a Hamiltonian of dimension {spec.photon_dim:.6g} x "
            f"{spec.matter_dim:.6g} with C int"
        )
    need = spec.dimension * BUILD_BYTES_PER_STATE
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > memory:
        raise MemoryError(f"a Hamiltonian of dimension {spec.dimension} needs at least {need:.3g} "
                          f"bytes, more than the {memory:.3g} bytes of physical memory")


def _spin_factors(n_atoms: int, matter_dim: int):
    """The J_plus amplitudes <k+1|J_plus|k> and the diagonal k of J_z + j;
    the matter block must be the full j = N/2 ladder."""
    if matter_dim != n_atoms + 1:
        raise ConfigurationError(
            f"matter block needs matter_dim = n_atoms + 1 = "
            f"{n_atoms + 1}, got {matter_dim}"
        )
    k = np.arange(matter_dim, dtype=float)
    return _spin_ladder(n_atoms, k[:-1]), k


def _identities(spec: HilbertSpec):
    """The photon and matter identities as one-diagonal factors."""
    return [(0, np.ones(spec.photon_dim))], [(0, np.ones(spec.matter_dim))]


def _kron_sum(terms) -> HermitianOperator:
    """Upper triangle of sum(coef * kron(P, M)) over the terms (coef, P, M),
    each factor a list of (offset, values) diagonals, offset d holding the
    entries (i, i + d) in ascending i.  Photon offset dp and matter offset dm land on product
    diagonal dp * matter_dim + dm, an upper one iff (dp, dm) >= (0, 0), and
    a term adds coef * (vp[:, None] * vm) there.  Added in term order, these
    are the bits scipy.sparse's kron, scaling and sum give.  The diagonals
    are stacked as a (dim, n_offsets) array in ascending offset order, so
    np.nonzero yields the entries row-major, the order from_dense stores,
    with exact zeros dropped; no dim x dim matrix is formed."""
    blocks = [(coef, dp, vp, dm, vm) for coef, ph, mat in terms
              for dp, vp in ph for dm, vm in mat if (dp, dm) >= (0, 0)]
    _, dp, vp, dm, vm = blocks[0]
    p, m = len(vp) + dp, len(vm) + abs(dm)  # a diagonal gives its factor's size
    pairs = sorted({(dp, dm) for _, dp, _, dm, _ in blocks})
    stack = np.zeros((p, m, len(pairs)))
    for coef, dp, vp, dm, vm in blocks:
        first = max(-dm, 0)
        stack[:len(vp), first:first + len(vm), pairs.index((dp, dm))] += coef * (vp[:, None] * vm)
    stack = stack.reshape(p * m, len(pairs))
    rows, slot = np.nonzero(stack)
    offsets = np.array([dp * m + dm for dp, dm in pairs])
    return HermitianOperator(p * m, rows, rows + offsets[slot], stack[rows, slot])


def build_dicke_hamiltonian(params: ModelParams, spec: HilbertSpec) -> HermitianOperator:
    """Cavity mode coupled to the collective pseudo-spin, counter-rotating
    terms retained:

        H = wa a^dag a + wb (J_z + j) + g (a + a^dag)(J_plus + J_minus)

    The J_z + j shift puts the uncoupled vacuum at energy zero.  Requires
    matter_dim == n_atoms + 1 (the full maximal-j ladder).
    """
    _refuse_unbuildable(spec)
    jp, excitation = _spin_factors(params.n_atoms, spec.matter_dim)
    eye_p, eye_m = _identities(spec)
    a, number = _boson_ladder(spec.photon_dim)
    return _kron_sum([(params.omega_a, [(0, number)], eye_m),
                      (params.omega_b, eye_p, [(0, excitation)]),
                      (params.g, [(1, a), (-1, a)], [(-1, jp), (1, jp)])])


def build_bilinear_hamiltonian(params: ModelParams, spec: HilbertSpec) -> HermitianOperator:
    """Two coupled truncated oscillators, the many-dipole limit of the model:

        H = wa a^dag a + wb b^dag b + lambda (a + a^dag)(b + b^dag)

    with lambda = g sqrt(N).  Energies are relative to the uncoupled vacuum.
    Rejects parameters outside the normal-phase stability region.
    """
    params.require_bilinear_stable()
    _refuse_unbuildable(spec)
    eye_p, eye_m = _identities(spec)
    (a, number_a), (b, number_b) = _boson_ladder(spec.photon_dim), _boson_ladder(spec.matter_dim)
    return _kron_sum([(params.omega_a, [(0, number_a)], eye_m),
                      (params.omega_b, eye_p, [(0, number_b)]),
                      (params.collective_coupling, [(1, a), (-1, a)], [(1, b), (-1, b)])])


def build_jc_rwa_hamiltonian(params: ModelParams, spec: HilbertSpec) -> HermitianOperator:
    """Rotating-wave counterpart of the Dicke builder:

        H = wa a^dag a + wb (J_z + j) + g (a^dag J_minus + a J_plus)

    Conserves the total excitation number a^dag a + J_z + j.
    """
    _refuse_unbuildable(spec)
    jp, excitation = _spin_factors(params.n_atoms, spec.matter_dim)
    eye_p, eye_m = _identities(spec)
    a, number = _boson_ladder(spec.photon_dim)
    return _kron_sum([(params.omega_a, [(0, number)], eye_m),
                      (params.omega_b, eye_p, [(0, excitation)]),
                      (params.g, [(-1, a)], [(1, jp)]),  # a^dag J_minus
                      (params.g, [(1, a)], [(-1, jp)])])  # a J_plus


BUILDERS = {
    "bilinear": build_bilinear_hamiltonian,
    "dicke": build_dicke_hamiltonian,
    "jc-rwa": build_jc_rwa_hamiltonian,
}


def default_spec(model: str, params: ModelParams, photon_cutoff: int) -> HilbertSpec:
    """Truncation at the given photon cutoff: the bilinear matter oscillator
    keeps photon_cutoff + 1 levels like the photon mode, the spin models
    their full n_atoms + 1 ladder."""
    if model not in BUILDERS:
        raise ConfigurationError(
            f"unknown model '{model}', expected one of {sorted(BUILDERS)}"
        )
    matter_dim = photon_cutoff + 1 if model == "bilinear" else params.n_atoms + 1
    return HilbertSpec(photon_cutoff=photon_cutoff, matter_dim=matter_dim)


def total_excitation_operator(params: ModelParams, spec: HilbertSpec) -> HermitianOperator:
    """a^dag a + J_z + j, the quantity conserved by the rotating-wave model."""
    _refuse_unbuildable(spec)
    _, excitation = _spin_factors(params.n_atoms, spec.matter_dim)
    eye_p, eye_m = _identities(spec)
    number = np.arange(spec.photon_dim, dtype=float)  # exact, unlike a^dag a
    return _kron_sum([(1.0, [(0, number)], eye_m), (1.0, eye_p, [(0, excitation)])])


def expectation(op: HermitianOperator, state: StateVector) -> float:
    """<psi|H|psi> read from the stored triangle: the sum of
    Re(h_ij conj(psi_i) psi_j) over the stored entries, each off-diagonal
    one counted twice for its conjugate partner, so the value is real by
    construction."""
    if op.dim != state.dim:
        raise ConfigurationError(
            f"operator dimension {op.dim} != state dimension {state.dim}"
        )
    psi = state.amplitudes
    terms = (op.values * (psi[op.rows].conj() * psi[op.cols])).real
    return float(np.sum(terms) + np.sum(terms[op.rows != op.cols]))
