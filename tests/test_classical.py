"""Dispersive cavity transmission and its quantum counterpart."""
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.constants import c as LIGHT_SPEED

from polariton.classical import (
    CavityParams,
    _peak_indices,
    _refine,
    classical_quantum_agreement,
    default_grid,
    lorentz_permittivity,
    matched_coupling,
    matched_model_params,
    oscillator_strength,
    peak_splitting,
    predicted_splitting,
    splitting_vs_n,
    transmission_spectrum,
)
from polariton.cli import reference_cavity
from polariton.errors import DomainError
from polariton.series import SpectrumSeries
from polariton.spectral import normal_modes

OMEGA_B = 2.4e15  # rad/s


def _cavity(**overrides) -> CavityParams:
    """Empty-host cavity whose first longitudinal mode sits at OMEGA_B."""
    base = dict(
        length=math.pi * LIGHT_SPEED / OMEGA_B,
        reflectivity=0.995,
        background_index=1.0,
        area=1e-12,
        n_dipoles=100,
        dipole_moment=9.4e-27,
        omega_b=OMEGA_B,
        gamma=6e12,
    )
    base.update(overrides)
    return CavityParams(**base)


def test_resonant_constructor_hits_the_mode():
    cav = reference_cavity()
    assert cav.omega_b == OMEGA_B
    assert cav.length == pytest.approx(math.pi * LIGHT_SPEED / OMEGA_B, rel=1e-14)
    assert cav.free_spectral_range == pytest.approx(OMEGA_B, rel=1e-14)
    assert cav.mode_volume == pytest.approx(cav.area * cav.length, rel=1e-15)
    r = cav.reflectivity
    assert cav.finesse == pytest.approx(math.pi * r / (1.0 - r * r), rel=1e-14)
    assert cav.finesse == pytest.approx(300.0, rel=1e-12)


def test_cavity_validation():
    with pytest.raises(DomainError):
        _cavity(reflectivity=1.0)
    with pytest.raises(DomainError):
        _cavity(reflectivity=0.0)
    with pytest.raises(DomainError):
        replace(_cavity(), background_index=0.5)
    with pytest.raises(DomainError):
        _cavity(gamma=-1.0)
    with pytest.raises(DomainError):
        _cavity(n_dipoles=-1)
    with pytest.raises(DomainError):
        _cavity(gamma=math.nan)
    with pytest.raises(DomainError):
        _cavity(dipole_moment=math.inf)
    # zero dipoles is the empty cavity, which is fine
    assert _cavity(n_dipoles=0).n_dipoles == 0


def test_empty_cavity_airy_values():
    cav = _cavity(dipole_moment=0.0)
    r = cav.reflectivity
    # lossless symmetric mirrors: unit transmission on the mode
    on = transmission_spectrum(cav, np.array([OMEGA_B * (1 - 1e-9), OMEGA_B, OMEGA_B * (1 + 1e-9)]))
    assert float(on.intensities[1]) == pytest.approx(1.0, abs=1e-12)
    # half maximum sits where sin(phase offset) = (1-r^2)/(2r)
    delta_phi = math.asin((1.0 - r * r) / (2.0 * r))
    offset = delta_phi * LIGHT_SPEED / cav.length
    half = transmission_spectrum(cav, np.array([OMEGA_B - offset, OMEGA_B + offset, OMEGA_B + 2 * offset]))
    assert float(half.intensities[0]) == pytest.approx(0.5, abs=1e-9)
    assert float(half.intensities[1]) == pytest.approx(0.5, abs=1e-9)


def test_empty_cavity_matches_airy_formula_elementwise():
    cav = _cavity(dipole_moment=0.0)
    omegas = np.linspace(0.9 * OMEGA_B, 1.1 * OMEGA_B, 501)
    got = transmission_spectrum(cav, omegas).intensities
    r2 = cav.reflectivity**2
    phase = omegas * cav.length / LIGHT_SPEED
    t = (1.0 - r2) / (1.0 - r2 * np.exp(2j * phase))
    expected = np.abs(t) ** 2
    assert np.allclose(got, expected, atol=1e-13)


def test_permittivity_limits():
    cav = _cavity()
    strength = oscillator_strength(cav)
    static = lorentz_permittivity(cav, np.array([1e-3 * OMEGA_B]))[0]
    assert static.real == pytest.approx(1.0 + strength / OMEGA_B**2, rel=1e-6)
    high = lorentz_permittivity(cav, np.array([50.0 * OMEGA_B]))[0]
    assert high.real < 1.0
    assert high.real == pytest.approx(1.0, abs=1e-2)
    on_res = lorentz_permittivity(cav, np.array([OMEGA_B]))[0]
    assert on_res.imag == pytest.approx(strength / (cav.gamma * OMEGA_B), rel=1e-12)


def test_transmission_is_passive():
    cav = _cavity()
    omegas = np.linspace(0.5 * OMEGA_B, 1.5 * OMEGA_B, 2001)
    spectrum = transmission_spectrum(cav, omegas)
    assert float(spectrum.intensities.max()) <= 1.0 + 1e-12


def test_strong_coupling_splits_the_peak():
    cav = _cavity()
    pred = predicted_splitting(cav)
    omegas = np.linspace(OMEGA_B - 2 * pred, OMEGA_B + 2 * pred, 4001)
    report = peak_splitting(transmission_spectrum(cav, omegas))
    assert report.flag == "split"
    assert report.splitting == pytest.approx(pred, rel=0.05)
    mid = 0.5 * (report.peak_frequencies[0] + report.peak_frequencies[1])
    assert mid == pytest.approx(OMEGA_B, rel=0.01)


def test_peak_splitting_on_synthetic_lorentzians():
    f1, f2, width = 0.9, 1.3, 0.02
    grid = np.linspace(0.5, 1.7, 1201)
    bin_width = grid[1] - grid[0]
    lor = 1.0 / (1.0 + ((grid - f1) / width) ** 2) + 1.0 / (1.0 + ((grid - f2) / width) ** 2)
    report = peak_splitting(SpectrumSeries(grid, lor))
    assert report.flag == "split"
    assert abs(report.splitting - (f2 - f1)) < 0.1 * bin_width


def test_refine_takes_the_vertex_of_a_grid_whose_cubes_overflow():
    # (x0 - x1)(x0 - x2)(x1 - x2) is about 1e357 in plain floats
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x = _refine(np.array([1e120, 1.1e120, 1.2e120]), np.array([0.5, 1.0, 0.5]), 1)
    assert x == pytest.approx(1.1e120, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    centre=st.floats(1e-3, 1e3),
    step=st.floats(1e-3, 0.3),
    heights=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    power=st.integers(-1000, 1000),
)
def test_refine_scales_exactly_with_a_power_of_two(centre, step, heights, power):
    grid = centre * np.array([1.0 - step, 1.0, 1.0 + step])
    x = _refine(grid, np.array(heights), 1)
    assert _refine(np.ldexp(grid, power), np.array(heights), 1) == math.ldexp(x, power)


def test_peak_splitting_degenerate_inputs():
    grid = np.linspace(0.0, 1.0, 101)
    single = 1.0 / (1.0 + ((grid - 0.5) / 0.05) ** 2)
    report = peak_splitting(SpectrumSeries(grid, single))
    assert report.flag == "no-splitting"
    assert report.splitting is None
    assert len(report.peak_frequencies) == 1
    flat = peak_splitting(SpectrumSeries(grid, np.ones_like(grid)))
    assert flat.flag == "no-splitting"
    assert len(flat.peak_frequencies) == 0
    three = (
        1.0 / (1.0 + ((grid - 0.2) / 0.02) ** 2)
        + 1.0 / (1.0 + ((grid - 0.5) / 0.02) ** 2)
        + 1.0 / (1.0 + ((grid - 0.8) / 0.02) ** 2)
    )
    assert peak_splitting(SpectrumSeries(grid, three)).flag == "multi-peak"
    # a flat top is not a strict maximum, so only the peak at index 6 counts
    plateau = np.array([0.0, 1.0, 3.0, 3.0, 1.0, 0.0, 2.0, 0.0])
    report = peak_splitting(SpectrumSeries(np.arange(8.0), plateau))
    assert report.flag == "no-splitting"
    assert report.peak_frequencies == (6.0,)


def test_peak_rule_matches_scipy_find_peaks():
    from scipy.signal import find_peaks

    rng = np.random.default_rng(7)
    for trial in range(400):
        n = int(rng.integers(3, 40))
        # integer levels give ties and plateaus
        vals = rng.integers(0, 4, n).astype(float) if trial % 2 else rng.random(n)
        floor = rng.uniform(0.01, 0.99) * vals.max()
        expected = find_peaks(vals, prominence=floor, plateau_size=(1, 1))[0]
        assert [int(i) for i in _peak_indices(vals, floor)] == expected.tolist()


def test_predicted_splitting_scalings():
    cav = _cavity()
    base = predicted_splitting(cav)
    assert predicted_splitting(_cavity(n_dipoles=200)) == pytest.approx(
        base * math.sqrt(2.0), rel=1e-12
    )
    assert predicted_splitting(_cavity(dipole_moment=2 * 9.4e-27)) == pytest.approx(
        2.0 * base, rel=1e-12
    )


def test_matched_coupling_reproduces_the_splitting():
    cav = _cavity()
    lam = matched_coupling(cav)
    assert 2.0 * lam == pytest.approx(predicted_splitting(cav), rel=1e-12)
    params = matched_model_params(cav)
    modes = normal_modes(params)
    # quantum splitting approaches 2 lambda at weak coupling
    assert modes.splitting == pytest.approx(2.0 * lam, rel=0.01)


def test_classical_quantum_agreement_desk_case():
    agreement = classical_quantum_agreement(_cavity())
    assert agreement.flag == "split"
    assert agreement.relative_deviation <= 0.05


def test_agreement_without_coupling_reports_no_split():
    report = classical_quantum_agreement(_cavity(dipole_moment=1e-30))
    assert report.flag != "split"
    assert report.relative_deviation is None


def test_default_grid_keeps_a_positive_lower_end():
    cav = _cavity()
    span = max(3.0 * predicted_splitting(cav), 60.0 * cav.gamma,
               20.0 * cav.free_spectral_range / cav.finesse)
    # a grid that was positive is unchanged to the bit
    expected = np.linspace(OMEGA_B - span, OMEGA_B + span, 4001)
    assert np.array_equal(default_grid(cav, 4001), expected)
    # 60 linewidths beyond omega_b: the lower end stops one step above zero
    wide = default_grid(_cavity(gamma=5e13), 4001)
    assert wide[-1] == OMEGA_B + 3e15
    assert wide[0] == wide[-1] / 4001 > 0.0
    assert np.all(np.diff(wide) > 0.0)


def test_splitting_vs_n_handles_unresolved_points():
    cav = _cavity(dipole_moment=2e-27, gamma=1.2e11, reflectivity=0.9984)
    values = splitting_vs_n(cav, (16, 64, 256))
    resolved = [v for v in values if v is not None]
    assert len(resolved) >= 2
    assert all(b > a for a, b in zip(resolved, resolved[1:]))
