"""Exact bosonization of the pseudo-spin ladder and its bosonic limit.

The spin-to-boson map used here is

    J_plus  = sqrt(2j) * sqrt(1 - b^dag b / 2j) * b
    J_minus = sqrt(2j) * b^dag * sqrt(1 - b^dag b / 2j)
    J_z     = j - b^dag b

evaluated on the (2j+1)-dimensional boson space n = 0..2j.  The boson
occupation n counts steps below the maximal projection,
|n> = |j, m = j - n>, so raising m lowers n.  The square root factor is
diagonal; its argument vanishes at n = 2j, which clamps the top level
instead of extending the space.  On this truncated space the map is exact,
not approximate: sqrt(2j - (n-1)) * sqrt(n) = sqrt(n(2j - n + 1))
reproduces the angular momentum ladder amplitudes identically.  Each
operator is kept as its amplitude vector, and a product of two as a
shifted elementwise product of their vectors.

Note the orientation differs from the model builders, which count matter
excitations upward from the collective ground state.  Spectra and gaps are
unaffected; only the basis ordering is mirrored.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .model import ModelParams, _spin_ladder, build_dicke_hamiltonian, default_spec
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
    """(amplitudes, j_z) on the boson space n = 0..2j: the entries
    <n-1| J_plus |n> = sqrt(n (2j - n + 1)) for n = 1..2j, the builders'
    amplitudes mirrored, each one rounding of the sqrt of an exact integer;
    and the diagonal of J_z."""
    amp = _spin_ladder(rep.two_j, np.arange(rep.two_j))[::-1]
    return amp, rep.j - np.arange(rep.dimension).astype(float)


def ladder_reference(rep: SpinRep):
    """(amplitudes, m) in this ordering (m = j - n descending with n) from the
    angular momentum formula sqrt(j(j+1) - m(m+1)) itself.  Used as the
    independent comparison: hp_operators and the model builders both use
    the integer form of the amplitudes."""
    j = rep.two_j / 2.0
    m = j - np.arange(rep.dimension)
    return np.sqrt(j * (j + 1.0) - m[1:] * (m[1:] + 1.0)), m


def hp_exactness_error(rep: SpinRep) -> float:
    """Max deviation between the bosonized amplitudes and J_z diagonal and
    the angular momentum ones; zero up to sqrt rounding for any j."""
    built = hp_operators(rep)
    ref = ladder_reference(rep)
    return float(max(np.max(np.abs(b - r)) for b, r in zip(built, ref)))


def commutator_residual(rep: SpinRep) -> float:
    """Max deviation of [J_plus, J_minus] = 2 J_z and [J_z, J_pm] = pm J_pm,
    each commutator's one diagonal rounded as the dense products round it."""
    amp, j_z = hp_operators(rep)
    square = amp * amp
    r1 = np.max(np.abs(np.r_[square, 0.0] - np.r_[0.0, square] - 2.0 * j_z))
    r2 = np.max(np.abs(j_z[:-1] * amp - amp * j_z[1:] - amp))
    r3 = np.max(np.abs(j_z[1:] * amp - amp * j_z[:-1] + amp))
    return float(max(r1, r2, r3))


@dataclass(frozen=True)
class GapComparison:
    """Relative deviation of the first excitation gap, finite ladder versus
    bosonic limit, along an N sweep at fixed collective coupling."""

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

    errors = []
    for n in n_values:
        dparams = ModelParams.from_collective(
            params.omega_a, params.omega_b, lam, n_atoms=n
        )
        dspec = default_spec("dicke", dparams, 8)
        ddec = eigendecompose(build_dicke_hamiltonian(dparams, dspec), 2, seed=seed)
        gap = float(ddec.eigenvalues[1] - ddec.eigenvalues[0])
        errors.append(abs(gap - bilinear_gap) / bilinear_gap)
    return GapComparison(bilinear_gap=bilinear_gap, relative_errors=tuple(errors))
