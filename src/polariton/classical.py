"""Classical multi-beam interference through a dipole-filled cavity.

All quantities are SI: angular frequencies in rad/s, lengths in meters,
dipole moments in C m.  The slab of N identical Lorentz dipoles inside a
symmetric lossless-mirror resonator produces an Airy transmission pattern;
at resonant tuning and weak damping its single peak splits in two, and the
separation reproduces the quantum normal-mode splitting at matched
coupling.

The oscillator strength of the permittivity and the closed-form splitting
are written with the mode volume A * L_c and an explicit hbar so that the
expressions carry correct dimensions; with the cross-section and hbar set
to one they reduce to the bare d * sqrt(N * omega / (eps0 * L_c)) form.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import astuple, dataclass, replace

import numpy as np

from .errors import ConfigurationError, DomainError, NumericalError
from .model import ModelParams
from .series import SpectrumSeries
from .spectral import normal_modes

# SI values of CODATA 2022, written out so that no run depends on which
# edition the installed scipy.constants ships
SPEED_OF_LIGHT = 299792458.0  # m/s
VACUUM_PERMITTIVITY = 8.8541878188e-12  # F/m
HBAR = 6.62607015e-34 / (2 * math.pi)  # J s

PROMINENCE_FLOOR = 0.01  # fraction of the global maximum


@dataclass(frozen=True)
class CavityParams:
    """Geometry and material data of the classical cavity.

    length: mirror spacing L_c [m]
    reflectivity: amplitude reflection r of each mirror, 0 < r < 1
    background_index: non-resonant refractive index n_b of the host
    area: mode cross-section A [m^2]; the mode volume is A * L_c
    n_dipoles: number of embedded dipoles
    dipole_moment: transition dipole moment d [C m]
    omega_b: dipole resonance [rad/s]
    gamma: damping rate [rad/s]

    c, hbar and eps0 are the fixed CODATA 2022 constants SPEED_OF_LIGHT, HBAR
    and VACUUM_PERMITTIVITY, not fields.
    """

    length: float
    reflectivity: float
    background_index: float
    area: float
    n_dipoles: int
    dipole_moment: float
    omega_b: float
    gamma: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in astuple(self)):
            raise DomainError(f"cavity parameters must be finite, got {astuple(self)}")
        if not (self.length > 0.0 and self.area > 0.0):
            raise DomainError("cavity length and area must be positive")
        if not (0.0 < self.reflectivity < 1.0):
            raise DomainError(
                f"amplitude reflectivity must lie in (0, 1), got {self.reflectivity}"
            )
        if not (self.background_index >= 1.0):
            raise DomainError(f"background index must be >= 1, got {self.background_index}")
        if int(self.n_dipoles) != self.n_dipoles or self.n_dipoles < 0:
            raise DomainError(f"n_dipoles must be a non-negative integer, got {self.n_dipoles}")
        if self.dipole_moment < 0.0:
            raise DomainError("dipole moment must be non-negative")
        if not (self.omega_b > 0.0):
            raise DomainError("dipole resonance must be positive")
        if self.gamma < 0.0:
            raise DomainError("damping must be non-negative")

    @property
    def mode_volume(self) -> float:
        return self.area * self.length

    @property
    def free_spectral_range(self) -> float:
        return math.pi * SPEED_OF_LIGHT / (self.background_index * self.length)

    @property
    def finesse(self) -> float:
        r = self.reflectivity
        return math.pi * r / (1.0 - r * r)


@dataclass(frozen=True)
class PeakReport:
    """Detected spectral peaks after sub-bin refinement.

    splitting is populated only when exactly two peaks survive the
    prominence floor; flag is then "split", otherwise "no-splitting" (fewer
    than two peaks) or "multi-peak"."""

    peak_frequencies: tuple
    splitting: float | None
    flag: str


@dataclass(frozen=True)
class AgreementReport:
    classical_splitting: float | None
    quantum_splitting: float
    relative_deviation: float | None
    flag: str


def oscillator_strength(cavity: CavityParams) -> float:
    """Numerator of the resonant susceptibility, N d^2 omega_b / (hbar eps0 V).

    Carries dimensions of frequency squared; dividing by hbar and the mode
    volume completes the published form, which it reduces to with hbar, A
    and the frequency scale set to one."""
    return (
        cavity.n_dipoles
        * cavity.dipole_moment**2
        * cavity.omega_b
        / (HBAR * VACUUM_PERMITTIVITY * cavity.mode_volume)
    )


def lorentz_permittivity(cavity: CavityParams, omega):
    """Relative permittivity of the dipole slab,

        eps(w) = n_b^2 + S / (wb^2 - w^2 - i gamma w)

    with oscillator strength S = N d^2 wb / (hbar eps0 A L_c)."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0.0):
        raise DomainError("probe frequencies must be positive")
    strength = oscillator_strength(cavity)
    denom = cavity.omega_b**2 - omega**2 - 1j * cavity.gamma * omega
    return cavity.background_index**2 + strength / denom


def transmission_spectrum(cavity: CavityParams, omegas) -> SpectrumSeries:
    """Airy transmission of the symmetric lossless-mirror cavity,

        T(w) = | t^2 e^{i phi} / (1 - r^2 e^{2 i phi}) |^2,
        phi = w sqrt(eps(w)) L_c / c,  t^2 = 1 - r^2,

    on an ascending frequency grid.  Warns (without failing) if the grid
    does not bracket the dipole resonance or if the cavity is not tuned to
    it, since the splitting analysis assumes both; raises NumericalError,
    naming the first such frequency, if any intensity is not finite."""
    omegas = np.asarray(omegas, dtype=float)
    if omegas.ndim != 1 or omegas.size < 2:
        raise ConfigurationError("frequency grid must hold at least two points")
    if np.any(np.diff(omegas) <= 0.0):
        raise ConfigurationError("frequency grid must be strictly ascending")
    mode_number = (
        cavity.omega_b * cavity.background_index * cavity.length
        / (math.pi * SPEED_OF_LIGHT)
    )
    if abs(mode_number - round(mode_number)) > 1e-2 or round(mode_number) < 1:
        warnings.warn(
            "cavity is not tuned to the dipole resonance; "
            f"omega_b sits at mode number {mode_number:.6g}",
            stacklevel=2,
        )
    if not (omegas[0] <= cavity.omega_b <= omegas[-1]):
        warnings.warn("frequency grid does not bracket the dipole resonance", stacklevel=2)
    with np.errstate(all="ignore"):  # a non-finite intensity is refused below
        eps = lorentz_permittivity(cavity, omegas)
        phi = omegas * np.sqrt(eps) * cavity.length / SPEED_OF_LIGHT
        r2 = cavity.reflectivity**2
        t2 = 1.0 - r2
        amplitude = t2 * np.exp(1j * phi) / (1.0 - r2 * np.exp(2j * phi))
        intensities = np.abs(amplitude) ** 2
    bad = ~np.isfinite(intensities)
    if bad.any():
        raise NumericalError(
            f"transmission is not finite at omega = {omegas[bad.argmax()]:.12g} rad/s"
        )
    return SpectrumSeries(frequencies=omegas, intensities=intensities)


def _peak_indices(vals, floor):
    """Strict local maxima whose prominence reaches floor: the height above
    the higher of the lowest samples between the peak and the nearest taller
    sample on either side (or the end of the grid).  This is the rule of
    scipy.signal.find_peaks(vals, prominence=floor, plateau_size=(1, 1));
    scipy.signal is not used because importing it adds about 50 MB to the
    resident memory of every run."""
    inner = vals[1:-1]
    # intensities are non-negative, so a peak below floor cannot reach it
    strict = (inner > vals[:-2]) & (inner > vals[2:]) & (inner >= floor)
    peaks = []
    for i in np.flatnonzero(strict) + 1:
        taller = np.flatnonzero(vals > vals[i])
        k = np.searchsorted(taller, i)
        left = taller[k - 1] + 1 if k > 0 else 0
        right = taller[k] if k < taller.size else vals.size
        if vals[i] - max(vals[left:i].min(), vals[i + 1 : right].min()) >= floor:
            peaks.append(i)
    return peaks


def _refine(freqs, vals, i):
    """Frequency of the vertex of the parabola through three samples around
    a local maximum.  The frequencies are taken in units of a power of two
    near their largest magnitude, which is exact, so the cubes in the
    parabola's coefficients cannot overflow and an ordinary grid keeps the
    bits of the plain formula."""
    unit = np.ldexp(1.0, -np.frexp(np.max(np.abs(freqs[i - 1 : i + 2])))[1])
    x0, x1, x2 = freqs[i - 1] * unit, freqs[i] * unit, freqs[i + 1] * unit
    y0, y1, y2 = vals[i - 1], vals[i], vals[i + 1]
    denom = (x0 - x1) * (x0 - x2) * (x1 - x2)
    a = (x2 * (y1 - y0) + x1 * (y0 - y2) + x0 * (y2 - y1)) / denom
    b = (x2 * x2 * (y0 - y1) + x1 * x1 * (y2 - y0) + x0 * x0 * (y1 - y2)) / denom
    if a >= 0.0:
        return float(freqs[i])
    return float(-b / (2.0 * a) / unit)


def peak_splitting(spectrum: SpectrumSeries) -> PeakReport:
    """Strict local maxima above the prominence floor, refined to sub-bin
    accuracy by parabolic interpolation."""
    vals = spectrum.intensities
    freqs = spectrum.frequencies
    if vals.size < 3:
        raise ConfigurationError("need at least three samples to detect peaks")
    top = float(vals.max())
    if top <= 0.0:
        return PeakReport((), None, "no-splitting")
    peaks = tuple(_refine(freqs, vals, i) for i in _peak_indices(vals, PROMINENCE_FLOOR * top))
    if len(peaks) == 2:
        return PeakReport(peaks, peaks[1] - peaks[0], "split")
    return PeakReport(peaks, None, "no-splitting" if len(peaks) < 2 else "multi-peak")


def predicted_splitting(cavity: CavityParams) -> float:
    """Closed-form peak separation d sqrt(N omega_b / (hbar eps0 A L_c)),
    the weak-damping high-finesse limit of the transmission splitting."""
    return cavity.dipole_moment * math.sqrt(
        cavity.n_dipoles * cavity.omega_b / (HBAR * VACUUM_PERMITTIVITY * cavity.mode_volume)
    )


def _probe_grid(omega_b: float, span: float, n_points: int) -> np.ndarray:
    """n_points probe frequencies from omega_b - span to omega_b + span; the
    lower end is kept at least (omega_b + span) / n_points, about one grid
    step above zero, so a wide span still gives positive frequencies."""
    hi = omega_b + span
    return np.linspace(max(omega_b - span, hi / n_points), hi, n_points)


def default_grid(cavity: CavityParams, n_points: int) -> np.ndarray:
    """Probe frequencies centred on the dipole resonance, spanning three
    predicted splittings, 60 linewidths or 20 cavity linewidths, whichever
    is widest."""
    span = max(
        3.0 * predicted_splitting(cavity),
        60.0 * cavity.gamma,
        20.0 * cavity.free_spectral_range / cavity.finesse,
    )
    return _probe_grid(cavity.omega_b, span, int(n_points))


def matched_coupling(cavity: CavityParams) -> float:
    """Collective coupling lambda of the resonant quantum model (cavity
    frequency wa = wb) that corresponds to this cavity: half the predicted
    peak separation."""
    return 0.5 * predicted_splitting(cavity)


def matched_model_params(cavity: CavityParams) -> ModelParams:
    """Resonant quantum model with the collective coupling of this cavity."""
    if cavity.n_dipoles < 1:
        raise ConfigurationError("need at least one dipole to match a quantum model")
    lam = matched_coupling(cavity)
    return ModelParams.from_collective(
        cavity.omega_b, cavity.omega_b, lam, n_atoms=cavity.n_dipoles
    )


def classical_quantum_agreement(cavity: CavityParams) -> AgreementReport:
    """Relative deviation between the measured transmission splitting and
    the quantum normal-mode separation of the matched model.

    An unresolved spectrum is reported as "no-splitting", not raised."""
    quantum = normal_modes(matched_model_params(cavity)).splitting
    span = max(2.0 * quantum, 40.0 * cavity.gamma, 1e-3 * cavity.omega_b)
    omegas = _probe_grid(cavity.omega_b, span, 4001)
    report = peak_splitting(transmission_spectrum(cavity, omegas))
    if report.flag != "split":
        return AgreementReport(None, quantum, None, report.flag)
    deviation = abs(report.splitting - quantum) / quantum
    return AgreementReport(report.splitting, quantum, deviation, "split")


def splitting_vs_n(cavity: CavityParams, n_values):
    """Measured transmission splitting for a sweep of dipole numbers, all
    other cavity parameters held fixed.  Points whose spectrum does not
    show two peaks are reported as None."""
    out = []
    for n in n_values:
        cav = replace(cavity, n_dipoles=int(n))
        report = peak_splitting(transmission_spectrum(cav, default_grid(cav, 24001)))
        out.append(report.splitting if report.flag == "split" else None)
    return out
