"""Numerical laboratory for collective light-matter coupling.

Builds finite-N and bosonic cavity models, checks the spin-to-boson map
that connects them, evaluates an energy-based entanglement witness with
linear entropy along two routes, propagates quantum and mean-field
dynamics, and reproduces the transmission peak splitting with a fully
classical multi-beam interference calculation.
"""
from .classical import (
    AgreementReport,
    CavityParams,
    PeakReport,
    classical_quantum_agreement,
    lorentz_permittivity,
    matched_coupling,
    matched_model_params,
    peak_splitting,
    predicted_splitting,
    splitting_vs_n,
    transmission_spectrum,
)
from .dynamics import (
    flop_spectrum,
    rabi_flop_signal,
    semiclassical_trajectory,
    vacuum_correlation_spectrum,
)
from .errors import ConfigurationError, DomainError, NumericalError, PolaritonError
from .holstein_primakoff import (
    GapComparison,
    SpinRep,
    commutator_residual,
    dicke_vs_bilinear_gap,
    hp_exactness_error,
    hp_operators,
)
from .model import (
    HermitianOperator,
    HilbertSpec,
    ModelParams,
    StateVector,
    build_bilinear_hamiltonian,
    build_dicke_hamiltonian,
    build_jc_rwa_hamiltonian,
    expectation,
)
from .series import SpectrumSeries, TimeGrid, Trajectory
from .spectral import (
    ConvergenceReport,
    EigenDecomposition,
    NormalModes,
    cutoff_convergence,
    eigendecompose,
    ground_energy_bilinear,
    ground_state,
    jc_polariton_splitting,
    normal_modes,
)
from .witness import (
    DensityMatrix,
    GaussianState,
    SeparableScan,
    WitnessVerdict,
    gaussian_ground_state,
    gaussian_linear_entropy,
    linear_entropy,
    linear_entropy_predicted,
    reduced_density,
    separable_bound_scan,
    thermal_occupation,
    witness_evaluate,
)

__version__ = "0.1.0"
