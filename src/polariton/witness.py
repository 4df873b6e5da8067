"""Energy-based entanglement witness, reduced states, and linear entropy.

The witness rests on the fact that on resonance (omega_a = omega_b) every
separable state of the two coupled oscillators has non-negative mean energy
under the normal-ordered bilinear Hamiltonian, while the true ground state
sits strictly below zero inside the stability region.  A measured mean
energy below zero therefore certifies entanglement.

Linear entropy of a reduced mode is computed along two independent routes,
a Fock-basis partial trace of the exact ground state and a Gaussian
covariance calculation, and the two are required to agree.  The closed-form
prediction (lambda/omega)^2 published for this quantity is exposed
separately and is deliberately never blended with the computed values; its
coefficient differs from the computed small-coupling behavior by a factor
of two, and the package reports both so the discrepancy stays visible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .model import HermitianOperator, HilbertSpec, ModelParams, StateVector, expectation
from .spectral import normal_modes

WITNESS_TOL = 1e-9
RESONANCE_TOL = 1e-12
# half-width and points per axis of separable_bound_scan's amplitude grid
SCAN_RADIUS = 2.0
SCAN_POINTS = 41

# symplectic form for the quadrature ordering (x_a, p_a, x_b, p_b)
_SYMPLECTIC = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)


@dataclass(frozen=True)
class WitnessVerdict:
    """Outcome of one witness evaluation.

    value is the measured mean energy, separable_floor the bound it is
    compared against (zero on resonance), and verdict either "entangled"
    (value below -WITNESS_TOL max(omega_a, omega_b)) or "inconclusive"."""

    value: float
    separable_floor: float
    verdict: str


@dataclass(frozen=True)
class SeparableScan:
    """Minimum of the mean energy over a grid of product coherent states."""

    minimum: float


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive semidefinite (within tolerance)."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ConfigurationError(f"density matrix must be square, got {mat.shape}")
        herm = float(np.max(np.abs(mat - mat.conj().T)))
        if herm > 1e-12:
            raise ConfigurationError(f"density matrix not Hermitian: {herm:.3e}")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > 1e-10:
            raise ConfigurationError(f"density matrix trace {tr} != 1")
        lowest = float(np.linalg.eigvalsh(mat).min())
        if lowest < -1e-10:
            raise ConfigurationError(f"density matrix has eigenvalue {lowest:.3e} < 0")
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.real(np.sum(np.abs(self.matrix) ** 2)))


@dataclass(frozen=True)
class GaussianState:
    """Two-mode Gaussian state: quadrature means and 4x4 covariance in the
    ordering (x_a, p_a, x_b, p_b) with vacuum covariance identity/2."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        if mean.shape != (4,) or cov.shape != (4, 4):
            raise ConfigurationError("mean must be length 4 and covariance 4x4")
        if np.max(np.abs(cov - cov.T)) > 1e-12:
            raise ConfigurationError("covariance must be symmetric")
        # uncertainty relation: sigma + (i/2) Omega >= 0
        lowest = float(np.linalg.eigvalsh(cov + 0.5j * _SYMPLECTIC).min())
        if lowest < -1e-10:
            raise ConfigurationError(
                f"covariance violates the uncertainty relation ({lowest:.3e})"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    def purity(self) -> float:
        det = float(np.linalg.det(self.covariance))
        return 1.0 / (4.0 * math.sqrt(det))

    def reduced_covariance(self, keep: str) -> np.ndarray:
        if keep == "photon":
            return self.covariance[:2, :2].copy()
        if keep == "matter":
            return self.covariance[2:, 2:].copy()
        raise ConfigurationError(f"keep must be 'photon' or 'matter', got '{keep}'")


def _require_resonance(params: ModelParams, what: str) -> None:
    scale = max(params.omega_a, params.omega_b)
    if abs(params.omega_a - params.omega_b) > RESONANCE_TOL * scale:
        raise DomainError(
            f"{what} holds only on resonance (omega_a = omega_b); got "
            f"omega_a={params.omega_a:.12g}, omega_b={params.omega_b:.12g}"
        )


def witness_evaluate(
    h: HermitianOperator,
    state: StateVector,
    params: ModelParams,
) -> WitnessVerdict:
    """Mean energy of the state against the separable floor of zero.

    params is needed to certify the resonance precondition of the floor;
    detuned parameters are refused rather than silently compared against an
    invalid bound."""
    _require_resonance(params, "the separable energy floor")
    params.require_bilinear_stable()
    value = expectation(h, state)
    scale = max(params.omega_a, params.omega_b)
    verdict = "entangled" if value < -WITNESS_TOL * scale else "inconclusive"
    return WitnessVerdict(value=value, separable_floor=0.0, verdict=verdict)


def separable_bound_scan(params: ModelParams) -> SeparableScan:
    """Minimize the mean bilinear energy over product coherent states.

    For coherent amplitudes the mean energy is
        wa |alpha|^2 + wb |beta|^2 + 4 lambda Re(alpha) Re(beta),
    so imaginary parts only ever add energy; scanning real amplitudes of
    both signs covers the minimizing family.  Inside the stability region
    the minimum is zero, reached at the origin.
    """
    params.require_bilinear_stable()
    lam = params.collective_coupling
    grid = np.linspace(-SCAN_RADIUS, SCAN_RADIUS, SCAN_POINTS)
    alpha, beta = np.meshgrid(grid, grid, indexing="ij")
    energy = (
        params.omega_a * alpha**2
        + params.omega_b * beta**2
        + 4.0 * lam * alpha * beta
    )
    return SeparableScan(minimum=float(energy.min()))


def reduced_density(state: StateVector, spec: HilbertSpec, keep: str) -> DensityMatrix:
    """Partial trace of a pure product-basis state down to one subsystem."""
    if state.dim != spec.dimension:
        raise ConfigurationError(
            f"state dimension {state.dim} does not match the basis "
            f"{spec.photon_dim} x {spec.matter_dim} = {spec.dimension}"
        )
    psi = state.amplitudes.reshape(spec.photon_dim, spec.matter_dim)
    if keep == "photon":
        return DensityMatrix(psi @ psi.conj().T)
    if keep == "matter":
        return DensityMatrix(psi.T @ psi.conj())
    raise ConfigurationError(f"keep must be 'photon' or 'matter', got '{keep}'")


def _floored(value: float) -> float:
    """A linear entropy with rounding below zero set to zero; one below
    -1e-12 means a purity above one and is refused."""
    if value < -1e-12:
        raise ConfigurationError(f"purity above one ({value:.3e}); invalid state")
    return max(value, 0.0)


def linear_entropy(rho: DensityMatrix) -> float:
    """1 - Tr(rho^2); zero for pure states, at most 1 - 1/dim."""
    return _floored(1.0 - rho.purity())


def linear_entropy_predicted(params: ModelParams) -> float:
    """Closed-form prediction (lambda/omega)^2 for the resonant ground
    state.  Reported verbatim next to the computed values; the measured
    small-coupling coefficient is 1/2 of this, and the two are intentionally
    kept side by side rather than reconciled."""
    _require_resonance(params, "the closed-form entropy prediction")
    lam = params.collective_coupling
    if lam >= params.omega_a:
        raise DomainError(
            f"prediction requires lambda < omega, got lambda={lam:.12g}, "
            f"omega={params.omega_a:.12g}"
        )
    ratio = lam / params.omega_a
    return ratio * ratio


def gaussian_ground_state(params: ModelParams) -> GaussianState:
    """Exact two-mode Gaussian ground state of the bilinear model.

    The quadratic form is diagonalized by an orthogonal mode matrix R; each
    normal mode q_i carries vacuum variances <q_i^2> = 1/(2 Omega_i) and
    <p_i^2> = Omega_i / 2 in mass-weighted coordinates, which are then
    rescaled to the dimensionless quadratures (vacuum covariance 1/2).
    """
    modes = normal_modes(params)
    r = modes.mode_matrix
    omegas = np.array([modes.omega_minus, modes.omega_plus])
    vx = (r * (0.5 / omegas)) @ r.T
    vp = (r * (0.5 * omegas)) @ r.T
    scale = np.array([math.sqrt(params.omega_a), math.sqrt(params.omega_b)])
    inv = np.array([1.0 / math.sqrt(params.omega_a), 1.0 / math.sqrt(params.omega_b)])
    xx = scale[:, None] * vx * scale
    pp = inv[:, None] * vp * inv
    cov = np.zeros((4, 4))
    cov[np.ix_((0, 2), (0, 2))] = xx
    cov[np.ix_((1, 3), (1, 3))] = pp
    return GaussianState(mean=np.zeros(4), covariance=cov)


def gaussian_linear_entropy(state: GaussianState, keep: str) -> float:
    """Linear entropy of one mode from its 2x2 covariance block:
    1 - 1/(2 sqrt(det sigma_keep))."""
    block = state.reduced_covariance(keep)
    det = float(np.linalg.det(block))
    if det <= 0.0:
        raise ConfigurationError(f"reduced covariance not positive (det = {det:.3e})")
    return _floored(1.0 - 1.0 / (2.0 * math.sqrt(det)))


def thermal_occupation(omega: float, temperature: float) -> float:
    """Bose occupation 1/(exp(omega/kT) - 1) with k folded into the
    temperature; returns 0 at zero temperature."""
    if not (omega > 0.0):
        raise DomainError(f"omega must be positive, got {omega}")
    if temperature < 0.0:
        raise DomainError(f"temperature must be non-negative, got {temperature}")
    if temperature == 0.0:
        return 0.0
    # exp(-x) / (1 - exp(-x)) underflows to 0 where 1 / expm1(x) would overflow
    x = omega / temperature
    return math.exp(-x) / -math.expm1(-x)
