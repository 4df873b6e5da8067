"""Closed-system dynamics: Rabi flopping, mean-field evolution, and the
vacuum correlation spectrum.

Every time series is an exact superposition of eigenmodes (no step-size
error): quantum states through the eigendecomposition of H, and the
mean field through the eigenmodes of its 4x4 real generator.  The
factorized mean-field equations

    i d<a>/dt = wa <a> + lambda (<b> + <b>*)
    i d<b>/dt = wb <b> + lambda (<a> + <a>*)

keep <a> = <b> = 0 an exact fixed point, which is the point of the
comparison: starting from vacuum the mean field stays dark while the
quantum vacuum correlation spectrum still shows both polariton lines.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, NumericalError
from .model import (
    BUILDERS,
    HilbertSpec,
    ModelParams,
    _boson_ladder,
    build_bilinear_hamiltonian,
    default_spec,
)
from .series import SpectrumSeries, TimeGrid, Trajectory
from .spectral import DEFAULT_SEED, eigendecompose, normal_modes

DT_FACTOR = 0.5  # require dt * max|eigenvalue| < 0.5
ENERGY_DRIFT_TOL = 1e-9
# rows of the phase table in rabi_flop_signal, which fix its arithmetic, and
# the rows of that table each GEMM of its quadratic form takes, which bound the
# temporaries: z, [Re z; Im z] and their product with the form
_CHUNK = 1024
_SLICE = 256


def _check_dt(grid: TimeGrid, lambda_max: float) -> None:
    if grid.dt * lambda_max >= DT_FACTOR:
        raise ConfigurationError(
            f"dt = {grid.dt:.12g} too coarse for the spectral radius "
            f"{lambda_max:.12g}; require dt * max|E| < {DT_FACTOR}"
        )


def _superpose(rates, modes, coeffs, times):
    """Samples of sum_k coeffs_k exp(rates_k t) modes[:, k], one row per time.
    Modes with an exactly zero coefficient (another symmetry block than the
    initial state) are skipped."""
    live = coeffs != 0
    phases = np.outer(times, rates[live])
    np.exp(phases, out=phases)
    phases *= coeffs[live]
    return phases @ modes[:, live].T


# default photon cutoff of the flopping signal per model; the spin models
# stay small so the default time step resolves their spectral radius
FLOP_PHOTON_CUTOFF = {"bilinear": 12, "dicke": 4, "jc-rwa": 4}


def rabi_flop_signal(
    params: ModelParams,
    grid: TimeGrid,
    *,
    model: str = "bilinear",
    spec: HilbertSpec | None = None,
    seed: int = DEFAULT_SEED,
) -> Trajectory:
    """Matter excitation number after preparing one matter excitation in an
    empty cavity.  Works for any of the quantum builders; the matter index k
    is the excitation count in all of them, so the observable is the
    diagonal weight sum_i k_i |psi_i|^2.

    The builders are real symmetric, so the eigenvectors V and the overlaps
    c of the initial basis state are real.  With z_k(t) = exp(-i E_k t) over
    the live modes (c_k != 0), psi(t) = (V c) z(t) and the signal is the
    quadratic form z^H M z with the real symmetric M = (V c)^T diag(k) (V c),
    built once.  On the uniform grid z at sample s + j is a row of one
    table exp(-i E t_j), j < _CHUNK, times exp(-i E t_s), so each _SLICE
    samples are one real GEMM [Re z; Im z] @ M.  The result differs from a
    per-sample superposition (_superpose, then sum_i k_i |psi_i|^2) only by
    round-off."""
    if model not in BUILDERS:
        raise ConfigurationError(
            f"unknown model '{model}', expected one of {sorted(BUILDERS)}"
        )
    if spec is None:
        spec = default_spec(model, params, FLOP_PHOTON_CUTOFF[model])
    h = BUILDERS[model](params, spec)
    dec = eigendecompose(h, seed=seed)
    _check_dt(grid, float(np.max(np.abs(dec.eigenvalues))))
    # the overlap of the basis state |0> |1> with each mode is its component
    coeffs = dec.eigenvectors[spec.index(0, 1)]
    live = coeffs != 0
    energies = dec.eigenvalues[live]
    modes = dec.eigenvectors[:, live] * coeffs[live]
    weights = np.tile(np.arange(spec.matter_dim, dtype=float), spec.photon_dim)
    form = modes.T @ (weights[:, None] * modes)
    times = grid.times
    table = -1j * np.outer(times[:_CHUNK], energies)
    np.exp(table, out=table)
    signal = np.empty(times.size)
    for start in range(0, times.size, _CHUNK):
        shift = np.exp(-1j * times[start] * energies)
        for row in range(0, min(_CHUNK, times.size - start), _SLICE):
            z = table[row : min(row + _SLICE, times.size - start)] * shift
            x = np.concatenate((z.real, z.imag))
            both = np.einsum("ij,ij->i", x @ form, x)
            signal[start + row : start + row + len(z)] = both[: len(z)] + both[len(z) :]
    return Trajectory(times=times, channels={"matter_excitation": signal})


def flop_spectrum(traj: Trajectory) -> SpectrumSeries:
    """One-sided power spectrum |DFT|^2 of the mean-subtracted real channel of
    a one-channel trajectory.

    Frequencies are angular.  No window is applied, so the discrete Parseval
    identity holds exactly."""
    if len(traj.channels) != 1:
        raise ConfigurationError(
            f"trajectory has channels {sorted(traj.channels)}; need exactly one"
        )
    [(channel, signal)] = traj.channels.items()
    signal = np.asarray(signal)
    if signal.ndim != 1:
        raise ConfigurationError(f"channel '{channel}' is not scalar-valued")
    if np.iscomplexobj(signal):
        if np.max(np.abs(signal.imag)) > 1e-12 * max(1.0, np.max(np.abs(signal))):
            raise ConfigurationError(f"channel '{channel}' is not real")
        signal = signal.real
    n = signal.size
    if n < 16:
        raise ConfigurationError(f"need at least 16 samples, got {n}")
    amplitudes = np.fft.rfft(signal - signal.mean())
    freqs = 2.0 * math.pi * np.fft.rfftfreq(n, d=traj.dt)
    return SpectrumSeries(frequencies=freqs, intensities=np.abs(amplitudes) ** 2)


def semiclassical_trajectory(
    params: ModelParams, a0: complex, b0: complex, grid: TimeGrid
) -> Trajectory:
    """Solve the factorized mean-field equations exactly: they are linear,
    dx/dt = G x in x = (Re a, Im a, Re b, Im b), so x(t) is the eigenmode
    superposition of G.  An energy drift beyond ENERGY_DRIFT_TOL times
    max(1, max_t wa|a|^2 + wb|b|^2) is a failure, and so is a trajectory or
    energy that overflows.  Channels: complex "a" and "b" plus the conserved
    mean-field energy."""
    lam = params.collective_coupling
    wa, wb, c = params.omega_a, params.omega_b, 2.0 * lam
    generator = np.array([[0, wa, 0, 0], [-wa, 0, -c, 0], [0, 0, 0, wb], [-c, 0, -wb, 0]])
    rates, modes = np.linalg.eig(generator)
    _check_dt(grid, float(np.max(np.abs(rates))))
    try:
        coeffs = np.linalg.solve(modes, [a0.real, a0.imag, b0.real, b0.imag])
    except np.linalg.LinAlgError as exc:  # modes merged in round-off
        raise NumericalError(
            f"mean-field eigenmodes are singular: omega_a = {wa:.12g}, "
            f"omega_b = {wb:.12g}, lambda = {lam:.12g}"
        ) from exc
    with np.errstate(over="ignore", invalid="ignore"):
        x = _superpose(rates, modes, coeffs, grid.times).real
        a, b = x[:, 0] + 1j * x[:, 1], x[:, 2] + 1j * x[:, 3]
        free = wa * np.abs(a) ** 2 + wb * np.abs(b) ** 2
        energy = free + 4.0 * lam * a.real * b.real
    if not (np.isfinite(x).all() and np.isfinite(energy).all()):
        raise NumericalError(
            f"mean field overflows: a0 = {a0:.12g}, b0 = {b0:.12g}, omega_a = {wa:.12g}, "
            f"omega_b = {wb:.12g}, lambda = {lam:.12g}"
        )
    drift = float(np.max(np.abs(energy - energy[0])))
    tol = ENERGY_DRIFT_TOL * max(1.0, float(np.max(free)))
    if not (drift <= tol):
        raise NumericalError(f"mean-field energy drift {drift:.3e} exceeds {tol:.3e}")
    return Trajectory(times=grid.times, channels={"a": a, "b": b, "energy": energy})


def vacuum_correlation_spectrum(
    params: ModelParams,
    grid: TimeGrid,
    *,
    spec: HilbertSpec | None = None,
    seed: int = DEFAULT_SEED,
) -> SpectrumSeries:
    """Spectrum of the ground-state field correlation <X(t) X> with
    X = a + a^dag, evaluated in the Heisenberg picture.

    The correlation is a sum of lines at the transition energies E_k - E_0
    with weights |<k|X|0>|^2; the lines are accumulated onto the discrete
    frequency grid of the supplied time grid, so the summed intensity equals
    the static variance <X^2> exactly (the resolution of identity of the
    truncated eigenbasis).  No time stepping is involved."""
    if spec is None:
        spec = default_spec("bilinear", params, 12)
    h = build_bilinear_hamiltonian(params, spec)
    dec = eigendecompose(h, seed=seed)
    # X = a + a^dag on the photon index of the photon x matter view: row n
    # takes sqrt(n) psi[n - 1] + sqrt(n + 1) psi[n + 1], in that order
    ground = dec.eigenvectors[:, 0].reshape(spec.photon_dim, spec.matter_dim)
    roots = _boson_ladder(spec.photon_dim)[0][:, None]
    x_ground = np.zeros_like(ground)
    x_ground[1:] = roots * ground[:-1]
    x_ground[:-1] += roots * ground[1:]
    amps = dec.eigenvectors.conj().T @ x_ground.ravel()
    weights = np.abs(amps) ** 2
    lines = dec.eigenvalues - dec.eigenvalues[0]
    total = float(weights.sum())

    n = grid.n_samples
    d_omega = 2.0 * math.pi / (n * grid.dt)
    nyquist = math.pi / grid.dt
    relevant = weights > 1e-14 * total
    top = float(lines[relevant].max()) if np.any(relevant) else 0.0
    if top >= nyquist:
        raise ConfigurationError(
            f"grid cannot represent lines up to {top:.12g}; "
            f"require dt < {math.pi / top:.12g}"
        )
    splitting = normal_modes(params).splitting
    if splitting > 0.0 and splitting < 2.0 * d_omega:
        needed = 4.0 * math.pi / splitting
        raise ConfigurationError(
            f"grid horizon {n * grid.dt:.12g} too short to resolve the "
            f"splitting {splitting:.12g}; need at least {needed:.12g}"
        )

    n_bins = n // 2 + 1
    idx = np.rint(lines / d_omega).astype(int)
    inside = (idx >= 0) & (idx < n_bins)
    intensities = np.bincount(idx[inside], weights=weights[inside], minlength=n_bins)
    freqs = d_omega * np.arange(n_bins)
    return SpectrumSeries(frequencies=freqs, intensities=intensities)
