"""Exact bosonization of the pseudo-spin ladder and its linearization.

The spin-to-boson map used here is

    J_plus  = sqrt(2j) * sqrt(1 - b^dag b / 2j) * b
    J_minus = sqrt(2j) * b^dag * sqrt(1 - b^dag b / 2j)
    J_z     = j - b^dag b

evaluated as exact matrices on the (2j+1)-dimensional boson space
n = 0..2j.  The boson occupation n counts steps below the maximal
projection, |n> = |j, m = j - n>, so raising m lowers n.  The square root
factor is diagonal; its argument vanishes at n = 2j, which clamps the top
level instead of extending the space.  On this truncated space the map is
exact, not approximate: sqrt(2j - (n-1)) * sqrt(n) = sqrt(n(2j - n + 1))
reproduces the angular momentum ladder amplitudes identically.

Note the orientation differs from the model builders, which count matter
excitations upward from the collective ground state.  Spectra and gaps are
unaffected; only the basis ordering is mirrored.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .model import (
    ModelParams,
    annihilation_matrix,
    build_dicke_hamiltonian,
    default_spec,
    spin_ladder_matrices,
)
from .spectral import DEFAULT_SEED, eigendecompose, normal_modes


@dataclass(frozen=True)
class SpinRep:
    """Total spin j; 2j must be a non-negative integer."""

    j: float

    def __post_init__(self):
        two_j = 2.0 * self.j
        if two_j < 1.0 or round(two_j) != two_j:
            raise DomainError(f"j must be a positive half-integer, got {self.j}")

    @property
    def two_j(self) -> int:
        return int(round(2.0 * self.j))

    @property
    def dimension(self) -> int:
        return self.two_j + 1


def hp_operators(rep: SpinRep):
    """(J_plus, J_minus, J_z) on the boson space n = 0..2j.

    The sqrt arguments n(2j - n + 1) are exact integers, so the matrices are
    accurate to one rounding of sqrt each.
    """
    dim = rep.dimension
    n = np.arange(1, dim)
    # <n-1| J_plus |n> = sqrt(2j - (n-1)) * sqrt(n) = sqrt(n (2j - n + 1))
    amp = np.sqrt((n * (rep.two_j - n + 1)).astype(float))
    return np.diag(amp, 1), np.diag(amp, -1), np.diag(rep.j - np.arange(dim).astype(float))


def ladder_reference(rep: SpinRep):
    """The ladder the Dicke builders use, sqrt(j(j+1) - m(m+1)) from
    spin_ladder_matrices, reversed on both axes into this ordering (m = j - n
    descending with n).  Used as the independent comparison."""
    return tuple(op[::-1, ::-1] for op in spin_ladder_matrices(rep.two_j))


def hp_exactness_error(rep: SpinRep) -> float:
    """Max element-wise deviation between the bosonized operators and the
    ladder matrices; zero up to sqrt rounding for any j."""
    built = hp_operators(rep)
    ref = ladder_reference(rep)
    return float(max(np.max(np.abs(b - r)) for b, r in zip(built, ref)))


def commutator_residual(rep: SpinRep) -> float:
    """Max deviation of [J_plus, J_minus] = 2 J_z and [J_z, J_pm] = pm J_pm."""
    j_plus, j_minus, j_z = hp_operators(rep)
    r1 = np.max(np.abs(j_plus @ j_minus - j_minus @ j_plus - 2.0 * j_z))
    r2 = np.max(np.abs(j_z @ j_plus - j_plus @ j_z - j_plus))
    r3 = np.max(np.abs(j_z @ j_minus - j_minus @ j_z + j_minus))
    return float(max(r1, r2, r3))


def linearization_error(rep: SpinRep, n_low: int) -> float:
    """Relative error of the bilinear replacement J_plus -> sqrt(2j) b,
    J_minus -> sqrt(2j) b^dag on the low-excitation block.

    Retained matrix elements are those landing on target states n <= n_low.
    The worst deviation is 1 - sqrt(1 - n_low/2j), which scales as
    O(n_low / 2j): doubling j halves the error asymptotically.
    """
    if int(n_low) != n_low or n_low < 0 or n_low > rep.two_j:
        raise ConfigurationError(
            f"n_low must be an integer in 0..{rep.two_j}, got {n_low}"
        )
    n_low = int(n_low)
    j_plus, j_minus, _ = hp_operators(rep)
    root = math.sqrt(rep.two_j)
    b = annihilation_matrix(rep.dimension)
    lin_plus = root * b
    lin_minus = root * b.T
    worst = 0.0
    for exact, lin in ((j_plus, lin_plus), (j_minus, lin_minus)):
        rows_e = exact[: n_low + 1]
        rows_l = lin[: n_low + 1]
        mask = rows_l != 0.0
        if np.any(mask):
            dev = np.abs(rows_l[mask] - rows_e[mask]) / np.abs(rows_l[mask])
            worst = max(worst, float(dev.max()))
    return worst


@dataclass(frozen=True)
class GapComparison:
    """Relative deviation of the first excitation gap, finite ladder versus
    bosonic limit, along an N sweep at fixed collective coupling."""

    dicke_gaps: tuple
    bilinear_gap: float
    relative_errors: tuple

    @property
    def final_error(self) -> float:
        return self.relative_errors[-1]


def dicke_vs_bilinear_gap(
    params: ModelParams,
    n_values,
    *,
    seed: int = DEFAULT_SEED,
) -> GapComparison:
    """Compare first excitation gaps of the finite-N ladder model, at photon
    cutoff 8, and the bilinear model at matched collective coupling.

    params supplies the frequencies and the fixed lambda = g sqrt(N); each
    sweep point N rebuilds the ladder model with g_N = lambda / sqrt(N).  The
    bilinear gap is the exact lower normal mode, so no truncation of the
    reference sets a floor under the errors.
    """
    n_values = tuple(int(n) for n in n_values)
    if not n_values or any(n < 1 for n in n_values):
        raise ConfigurationError(f"N sweep must contain positive integers, got {n_values}")
    bilinear_gap = normal_modes(params).omega_minus
    lam = params.collective_coupling

    gaps = []
    errors = []
    for n in n_values:
        dparams = ModelParams.from_collective(
            params.omega_a, params.omega_b, lam, n_atoms=n
        )
        dspec = default_spec("dicke", dparams, 8)
        ddec = eigendecompose(build_dicke_hamiltonian(dparams, dspec), 2, seed=seed)
        gap = float(ddec.eigenvalues[1] - ddec.eigenvalues[0])
        gaps.append(gap)
        errors.append(abs(gap - bilinear_gap) / bilinear_gap)
    return GapComparison(
        dicke_gaps=tuple(gaps),
        bilinear_gap=bilinear_gap,
        relative_errors=tuple(errors),
    )
