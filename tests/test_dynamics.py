"""Flopping signals and spectra, the mean-field counterpart and the vacuum
correlation spectrum."""
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from polariton.dynamics import (
    _CHUNK,
    _SLICE,
    _superpose,
    flop_spectrum,
    rabi_flop_signal,
    semiclassical_trajectory,
    vacuum_correlation_spectrum,
)
from polariton.errors import ConfigurationError, NumericalError
from polariton.model import BUILDERS, ModelParams, StateVector, default_spec
from polariton.series import TimeGrid, Trajectory
from polariton.spectral import eigendecompose, normal_modes

PARAMS = ModelParams.from_collective(1.0, 1.0, 0.2)


def test_time_grid_and_trajectory_validation():
    with pytest.raises(ConfigurationError):
        TimeGrid(1, 0.1)
    with pytest.raises(ConfigurationError):
        TimeGrid(16, 0.0)
    with pytest.raises(ConfigurationError):
        TimeGrid(16, math.inf)
    with pytest.raises(ConfigurationError):
        Trajectory(np.array([0.0, 0.1, 0.3]), {"x": np.zeros(3)})
    with pytest.raises(ConfigurationError):
        Trajectory(np.array([0.0, 0.1, 0.2]), {"x": np.zeros(5)})


def test_bilinear_flop_beats_at_the_mode_splitting():
    grid = TimeGrid(32768, 0.01)
    traj = rabi_flop_signal(PARAMS, grid, model="bilinear", seed=1234)
    spectrum = flop_spectrum(traj)
    bin_width = spectrum.frequencies[1] - spectrum.frequencies[0]
    peak = spectrum.frequencies[int(np.argmax(spectrum.intensities))]
    expected = normal_modes(PARAMS).splitting
    assert abs(peak - expected) <= bin_width


def test_jc_flop_is_an_exact_cosine():
    # single excitation exchanges at 2 g sqrt(N); the sector is closed so
    # truncation plays no role
    p = ModelParams(omega_a=1.0, omega_b=1.0, g=0.05, n_atoms=4)
    grid = TimeGrid(2048, 0.05)
    traj = rabi_flop_signal(p, grid, model="jc-rwa", seed=1234)
    signal = traj.channels["matter_excitation"]
    rabi = 2.0 * 0.05 * math.sqrt(4)
    expected = np.cos(0.5 * rabi * traj.times) ** 2
    assert np.allclose(signal, expected, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    model=st.sampled_from(sorted(BUILDERS)),
    g=st.one_of(st.just(0.0), st.floats(0.0, 0.3)),
    n_atoms=st.integers(1, 4),
    cutoff=st.integers(1, 6),
    n_samples=st.sampled_from([2, _SLICE + 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 37]),
    step=st.floats(0.05, 0.99),
)
def test_flop_signal_matches_the_per_sample_superposition(model, g, n_atoms, cutoff, n_samples, step):
    params = ModelParams(omega_a=1.0, omega_b=1.0, g=g, n_atoms=n_atoms)
    assume(model != "bilinear" or params.bilinear_stable())
    spec = default_spec(model, params, cutoff)
    dec = eigendecompose(BUILDERS[model](params, spec), seed=1234)
    grid = TimeGrid(n_samples, step * 0.5 / float(np.max(np.abs(dec.eigenvalues))))
    traj = rabi_flop_signal(params, grid, model=model, spec=spec, seed=1234)
    # the reference: every state psi(t_j) in full, then its weighted norm
    coeffs = dec.eigenvectors.conj().T @ StateVector.product_fock(spec, 0, 1).amplitudes
    states = _superpose(-1j * dec.eigenvalues, dec.eigenvectors, coeffs, grid.times)
    weights = np.tile(np.arange(spec.matter_dim, dtype=float), spec.photon_dim)
    expected = (np.abs(states) ** 2) @ weights
    gap = np.max(np.abs(traj.channels["matter_excitation"] - expected))
    assert gap <= 1e-12 * max(1, spec.matter_dim)


def test_flop_signal_memory_holds_one_table_and_one_slice():
    params = ModelParams(1.0, 1.0, 0.1, 1)
    grid = TimeGrid(32768, 0.01)
    rabi_flop_signal(params, grid)
    tracemalloc.start()
    try:
        rabi_flop_signal(params, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 1024-row phase table and the temporaries of one 256-row slice;
    # 6.3 MiB when z, [Re z; Im z] and the GEMM took the whole table
    assert peak < 4.5 * 2**20


def test_flop_spectrum_peak_for_jc():
    p = ModelParams(omega_a=1.0, omega_b=1.0, g=0.05, n_atoms=4)
    grid = TimeGrid(32768, 0.01)
    traj = rabi_flop_signal(p, grid, model="jc-rwa", seed=1234)
    spectrum = flop_spectrum(traj)
    bin_width = spectrum.frequencies[1] - spectrum.frequencies[0]
    peak = spectrum.frequencies[int(np.argmax(spectrum.intensities))]
    assert abs(peak - 0.2) <= bin_width


def test_flop_spectrum_parseval():
    grid = TimeGrid(4096, 0.01)
    traj = rabi_flop_signal(PARAMS, grid, model="bilinear", seed=1234)
    spectrum = flop_spectrum(traj)
    x = traj.channels["matter_excitation"]
    n = x.size
    time_power = float(np.sum((x - x.mean()) ** 2))
    weights = np.full(spectrum.intensities.size, 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    freq_power = float(np.sum(weights * spectrum.intensities) / n)
    assert abs(time_power - freq_power) <= 1e-9 * max(1.0, time_power)


def test_flop_spectrum_input_guards():
    times = np.arange(8) * 0.1
    traj = Trajectory(times, {"x": np.sin(times)})
    with pytest.raises(ConfigurationError):
        flop_spectrum(traj)  # too short
    long = Trajectory(np.arange(32) * 0.1, {"x": np.zeros(32), "y": np.zeros(32)})
    with pytest.raises(ConfigurationError):
        flop_spectrum(long)  # ambiguous channel
    complex_traj = Trajectory(np.arange(32) * 0.1, {"x": np.zeros(32, complex) + 1j})
    with pytest.raises(ConfigurationError):
        flop_spectrum(complex_traj)


def test_vacuum_is_a_mean_field_fixed_point():
    grid = TimeGrid(100001, 0.01)
    traj = semiclassical_trajectory(PARAMS, 0.0, 0.0, grid)
    assert float(np.max(np.abs(traj.channels["a"]))) <= 1e-12
    assert float(np.max(np.abs(traj.channels["b"]))) <= 1e-12


def test_mean_field_conserves_energy():
    grid = TimeGrid(10001, 0.01)
    traj = semiclassical_trajectory(PARAMS, 0.1 + 0.0j, 0.0, grid)
    energy = traj.channels["energy"]
    assert float(np.max(np.abs(energy - energy[0]))) < 1e-8


def test_mean_field_is_exact_on_a_coarse_grid():
    # exact at any dt the sampling rule accepts, with no step-size error
    traj = semiclassical_trajectory(PARAMS, 0.1, 0.0, TimeGrid(100, 0.05))
    modes = normal_modes(PARAMS)
    t = traj.times
    expected = 0.05 * (np.cos(modes.omega_plus * t) + np.cos(modes.omega_minus * t))
    assert np.max(np.abs(traj.channels["a"].real - expected)) <= 1e-12
    energy = traj.channels["energy"]
    assert np.max(np.abs(energy - energy[0])) <= 1e-15
    # the sampling rule of the quantum paths: dt * omega_plus ~ 0.59 >= 0.5
    with pytest.raises(ConfigurationError):
        semiclassical_trajectory(PARAMS, 0.1, 0.0, TimeGrid(100, 0.5))


def _mean_field_generator(wa, wb, lam):
    """dx/dt = G x for x = (Re a, Im a, Re b, Im b), written out from
    i da/dt = wa a + 2 lam Re b and i db/dt = wb b + 2 lam Re a."""
    return np.array(
        [
            [0.0, wa, 0.0, 0.0],
            [-wa, 0.0, -2.0 * lam, 0.0],
            [0.0, 0.0, 0.0, wb],
            [-2.0 * lam, 0.0, -wb, 0.0],
        ]
    )


_unit = st.floats(-1.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    wa=st.floats(0.2, 5.0),
    wb=st.floats(0.2, 5.0),
    # fraction of the stability edge 4 lambda^2 = wa wb, stable and unstable
    edge=st.floats(0.0, 1.5).filter(lambda f: abs(f - 1.0) > 1e-3),
    x0=st.tuples(_unit, _unit, _unit, _unit),
    step=st.floats(0.01, 0.99),
    n=st.integers(2, 300),
)
def test_mean_field_matches_matrix_exponential(wa, wb, edge, x0, step, n):
    lam = edge * math.sqrt(wa * wb) / 2.0
    params = ModelParams.from_collective(wa, wb, lam)
    # max(wa, wb) + 2 lam bounds the spectral radius, so the grid is accepted
    grid = TimeGrid(n, step * 0.5 / (max(wa, wb) + 2.0 * lam))
    traj = semiclassical_trajectory(params, complex(*x0[:2]), complex(*x0[2:]), grid)
    a, b = traj.channels["a"], traj.channels["b"]
    generator = _mean_field_generator(wa, wb, lam)
    for i in (0, n // 2, n - 1):
        want = scipy.linalg.expm(generator * traj.times[i]) @ np.array(x0)
        got = np.array([a[i].real, a[i].imag, b[i].real, b[i].imag])
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_mean_field_refuses_energy_drift(monkeypatch):
    from polariton import dynamics

    real = dynamics._superpose
    for fault in (lambda t: 1.0 + 1e-6 * t, lambda t: np.full_like(t, np.nan)):
        monkeypatch.setattr(
            dynamics, "_superpose",
            lambda rates, modes, coeffs, times: real(rates, modes, coeffs, times)
            * fault(times)[:, None],
        )
        with pytest.raises(NumericalError):
            semiclassical_trajectory(PARAMS, 0.1, 0.0, TimeGrid(100, 0.05))


def test_mean_field_overflow_names_its_inputs():
    # |a|^2 = 1e600 overflows the energy while the amplitudes stay finite
    params = ModelParams(omega_a=1.0, omega_b=1.0, g=0.1, n_atoms=1)
    with pytest.raises(NumericalError, match=r"overflows: a0 = 1e\+300, b0 = 0, omega_a = 1, "
                                             r"omega_b = 1, lambda = 0\.1$"):
        semiclassical_trajectory(params, 1e300, 0, TimeGrid(100, 0.01))


def test_vacuum_correlation_shows_both_polaritons():
    grid = TimeGrid(8192, 0.05)
    spectrum = vacuum_correlation_spectrum(PARAMS, grid, seed=1234)
    modes = normal_modes(PARAMS)
    bin_width = spectrum.frequencies[1] - spectrum.frequencies[0]
    lines = np.flatnonzero(spectrum.intensities > 1e-12)
    assert lines.size == 2
    lower, upper = spectrum.frequencies[lines]
    assert abs(lower - modes.omega_minus) <= bin_width
    assert abs(upper - modes.omega_plus) <= bin_width
    # line weights carry the 1/2 Omega zero-point factors
    w_lower, w_upper = spectrum.intensities[lines]
    assert w_lower == pytest.approx(1.0 / (2.0 * modes.omega_minus), abs=1e-9)
    assert w_upper == pytest.approx(1.0 / (2.0 * modes.omega_plus), abs=1e-9)
    total = float(spectrum.intensities.sum())
    assert total == pytest.approx(w_lower + w_upper, abs=1e-12)


def test_vacuum_correlation_grid_guards():
    with pytest.raises(ConfigurationError):
        vacuum_correlation_spectrum(PARAMS, TimeGrid(64, 3.0), seed=1234)  # Nyquist
    with pytest.raises(ConfigurationError):
        vacuum_correlation_spectrum(PARAMS, TimeGrid(64, 0.05), seed=1234)  # horizon
