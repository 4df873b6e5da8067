"""Energy witness, reduced-state entropy and the Gaussian route."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polariton.cli import VERIFY_TOLERANCES
from polariton.errors import ConfigurationError, DomainError
from polariton.model import (
    HermitianOperator,
    HilbertSpec,
    ModelParams,
    StateVector,
    build_bilinear_hamiltonian,
    default_spec,
    expectation,
)
from polariton.spectral import DENSE_DIM_LIMIT, ground_state
from polariton.witness import (
    DensityMatrix,
    GaussianState,
    gaussian_ground_state,
    gaussian_linear_entropy,
    linear_entropy,
    linear_entropy_predicted,
    reduced_density,
    separable_bound_scan,
    thermal_occupation,
    witness_evaluate,
)

PARAMS = ModelParams.from_collective(1.0, 1.0, 0.2)
SPEC = HilbertSpec(16, 17)


@pytest.fixture(scope="module")
def ground():
    h = build_bilinear_hamiltonian(PARAMS, SPEC)
    energy, state = ground_state(h, seed=1234)
    return h, energy, state


def test_ground_state_triggers_the_witness(ground):
    h, energy, state = ground
    verdict = witness_evaluate(h, state, PARAMS)
    assert verdict.value == pytest.approx(-0.021093687069296707, abs=1e-11)
    assert verdict.separable_floor == 0.0
    assert verdict.verdict == "entangled"


@pytest.mark.parametrize("g, expected", [(0.1, "entangled"), (1e-6, "inconclusive")])
def test_verdict_does_not_depend_on_the_frequency_scale(g, expected):
    # the witness value scales with the frequencies, and so does its threshold
    for scale in (1.0, 1e-200, 1e200):
        p = ModelParams(omega_a=scale, omega_b=scale, g=g * scale, n_atoms=1)
        h = build_bilinear_hamiltonian(p, HilbertSpec(8, 9))
        _, state = ground_state(h, seed=1234)
        assert witness_evaluate(h, state, p).verdict == expected, scale


def test_product_fock_states_stay_above_the_floor(ground):
    h, _, _ = ground
    spec12 = HilbertSpec(11, 12)
    h12 = build_bilinear_hamiltonian(PARAMS, spec12)
    for n in range(12):
        for k in range(12):
            value = expectation(h12, StateVector.product_fock(spec12, n, k))
            assert value >= -1e-12


def test_coherent_scan_floor_is_zero():
    scan = separable_bound_scan(PARAMS)
    assert scan.minimum >= -1e-9
    assert scan.minimum == pytest.approx(0.0, abs=1e-12)
    # uncoupled and near-threshold cases
    assert separable_bound_scan(ModelParams.from_collective(1.0, 1.0, 0.0)).minimum == 0.0
    near = separable_bound_scan(ModelParams.from_collective(1.0, 1.0, 0.49))
    assert near.minimum >= -1e-9


def test_witness_requires_resonance(ground):
    h, _, state = ground
    detuned = ModelParams.from_collective(1.0, 1.3, 0.2)
    with pytest.raises(DomainError):
        witness_evaluate(h, state, detuned)
    with pytest.raises(DomainError):
        linear_entropy_predicted(detuned)
    # the coherent scan only needs stability, not resonance
    assert separable_bound_scan(detuned).minimum >= -1e-9


def test_density_matrix_validation():
    with pytest.raises(ConfigurationError):
        DensityMatrix(np.array([[0.6, 0.1], [0.3, 0.4]]))  # not hermitian
    with pytest.raises(ConfigurationError):
        DensityMatrix(np.eye(2))  # trace 2
    rho = DensityMatrix(np.diag([0.5, 0.5]))
    assert rho.purity() == pytest.approx(0.5, abs=1e-15)
    assert linear_entropy(rho) == pytest.approx(0.5, abs=1e-15)


def test_reduced_state_of_product_is_pure():
    spec = HilbertSpec(3, 4)
    s = StateVector.product_fock(spec, 2, 1)
    rho = reduced_density(s, spec, "photon")
    assert linear_entropy(rho) == pytest.approx(0.0, abs=1e-14)
    rho_m = reduced_density(s, spec, "matter")
    assert rho_m.dim == 4
    assert linear_entropy(rho_m) == pytest.approx(0.0, abs=1e-14)


def test_entropy_routes_agree(ground):
    _, _, state = ground
    fock = linear_entropy(reduced_density(state, SPEC, "photon"))
    gauss = gaussian_linear_entropy(gaussian_ground_state(PARAMS), "photon")
    assert abs(fock - gauss) < 1e-6
    assert fock == pytest.approx(0.0220228850379, abs=1e-9)
    # both subsystems of a pure state carry the same mixedness
    fock_matter = linear_entropy(reduced_density(state, SPEC, "matter"))
    assert abs(fock - fock_matter) < 1e-9


@settings(max_examples=60, deadline=None)
@given(
    omega_a=st.floats(0.5, 2.0),
    omega_b=st.floats(0.5, 2.0),
    edge=st.floats(0.0, 0.8),
    keep=st.sampled_from(["photon", "matter"]),
)
def test_fock_and_gaussian_entropies_agree_across_the_stability_region(
    omega_a, omega_b, edge, keep
):
    # 4 lambda^2 = edge * omega_a omega_b, up to 80% of the stability edge,
    # where cutoff 20 has converged
    lam = 0.5 * math.sqrt(edge * omega_a * omega_b)
    params = ModelParams.from_collective(omega_a, omega_b, lam)
    spec = default_spec("bilinear", params, 20)
    _, state = ground_state(build_bilinear_hamiltonian(params, spec), seed=1234)
    fock = linear_entropy(reduced_density(state, spec, keep))
    gaussian = gaussian_linear_entropy(gaussian_ground_state(params), keep)
    assert abs(fock - gaussian) <= VERIFY_TOLERANCES["cross_route_entropy"]


def test_quoted_entropy_value():
    assert linear_entropy_predicted(PARAMS) == pytest.approx(0.04, abs=1e-15)
    with pytest.raises(DomainError):
        linear_entropy_predicted(ModelParams.from_collective(1.0, 1.0, 1.2))


def test_entropy_ratio_approaches_one_half():
    for lam in (0.01, 0.02, 0.05):
        p = ModelParams.from_collective(1.0, 1.0, lam)
        ratio = gaussian_linear_entropy(gaussian_ground_state(p), "photon") / lam**2
        assert ratio == pytest.approx(0.5, rel=0.05)


def test_entropy_grows_toward_threshold():
    values = [
        gaussian_linear_entropy(gaussian_ground_state(ModelParams.from_collective(1.0, 1.0, lam)), "photon")
        for lam in (0.1, 0.2, 0.3, 0.4, 0.45)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_gaussian_ground_state_covariances():
    state = gaussian_ground_state(PARAMS)
    cov = state.covariance
    assert cov[0, 0] == pytest.approx(0.5340371758660804, abs=1e-12)
    assert cov[1, 1] == pytest.approx(0.48945315646535164, abs=1e-12)
    # pure global state
    assert state.purity() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(state.mean, 0.0, atol=1e-15)


def test_gaussian_state_validation():
    with pytest.raises(ConfigurationError):
        GaussianState(np.zeros(4), np.eye(4) * 0.1)  # violates uncertainty
    with pytest.raises(ConfigurationError):
        GaussianState(np.zeros(3), np.eye(4) * 0.5)
    vac = GaussianState(np.zeros(4), np.eye(4) * 0.5)
    assert vac.purity() == pytest.approx(1.0, abs=1e-14)
    assert gaussian_linear_entropy(vac, "photon") == pytest.approx(0.0, abs=1e-14)


def test_both_entropy_routes_refuse_a_purity_above_one():
    # each route clears rounding below zero and refuses anything below -1e-12
    rho = DensityMatrix(np.diag([1.0 + 1e-11, -1e-11]))
    with pytest.raises(ConfigurationError, match="purity above one"):
        linear_entropy(rho)
    state = GaussianState(np.zeros(4), np.diag([0.5 - 1e-10, 0.5, 0.5, 0.5]))
    with pytest.raises(ConfigurationError, match="purity above one"):
        gaussian_linear_entropy(state, "photon")
    rounded = GaussianState(np.zeros(4), np.diag([0.5 - 1e-13, 0.5, 0.5, 0.5]))
    assert gaussian_linear_entropy(rounded, "photon") == 0.0


def test_thermal_occupation_values():
    assert thermal_occupation(1.0, 0.0) == 0.0
    assert thermal_occupation(10.0, 1.0) == pytest.approx(1.0 / math.expm1(10.0), rel=1e-12)
    assert thermal_occupation(10.0, 1.0) < 5e-5
    assert thermal_occupation(1.0, 1.0) == pytest.approx(0.5819767068693265, abs=1e-12)
    # omega / T above 709 overflows exp(omega / T); the occupation is 0
    assert thermal_occupation(1.0, 1e-3) == 0.0
    with pytest.raises(DomainError):
        thermal_occupation(-1.0, 1.0)
    with pytest.raises(DomainError):
        thermal_occupation(1.0, -0.5)


def test_krylov_witness_never_densifies(monkeypatch):
    spec = HilbertSpec(63, 65)
    assert spec.dimension == 4160 > DENSE_DIM_LIMIT
    h = build_bilinear_hamiltonian(PARAMS, spec)

    def refuse(self):
        raise AssertionError("to_dense called on the Krylov path")

    monkeypatch.setattr(HermitianOperator, "to_dense", refuse)
    energy, state = ground_state(h, seed=1234)
    verdict = witness_evaluate(h, state, PARAMS)
    assert energy == pytest.approx(-0.021093687069296707, abs=1e-11)
    assert verdict.value == pytest.approx(energy, abs=1e-12)
    assert verdict.verdict == "entangled"
