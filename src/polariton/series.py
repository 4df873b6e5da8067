"""Sampled time and frequency series shared by the dynamics and cavity code."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t = 0, dt, ..., (n_samples - 1) dt."""

    n_samples: int
    dt: float

    def __post_init__(self):
        if int(self.n_samples) != self.n_samples or self.n_samples < 2:
            raise ConfigurationError(
                f"n_samples must be an integer >= 2, got {self.n_samples}"
            )
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ConfigurationError(f"dt must be positive and finite, got {self.dt}")

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_samples)


@dataclass(frozen=True)
class Trajectory:
    """Labeled channels sampled on a uniform time grid starting at t = 0.

    Channel arrays may be real or complex; their leading axis must match the
    time grid.
    """

    times: np.ndarray
    channels: dict

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ConfigurationError("times must hold at least two samples")
        steps = np.diff(times)
        if times[0] != 0.0 or np.max(np.abs(steps - steps[0])) > 1e-9 * steps[0]:
            raise ConfigurationError("times must be uniform and start at 0")
        if not self.channels:
            raise ConfigurationError("trajectory needs at least one channel")
        for name, data in self.channels.items():
            if np.asarray(data).shape[0] != times.size:
                raise ConfigurationError(
                    f"channel '{name}' length does not match the time grid"
                )
        object.__setattr__(self, "times", times)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


@dataclass(frozen=True)
class SpectrumSeries:
    """Real non-negative intensities on an ascending frequency grid."""

    frequencies: np.ndarray
    intensities: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=float)
        vals = np.asarray(self.intensities, dtype=float)
        if freqs.ndim != 1 or freqs.size < 2 or vals.shape != freqs.shape:
            raise ConfigurationError("frequencies and intensities must match, length >= 2")
        if np.any(np.diff(freqs) <= 0.0):
            raise ConfigurationError("frequencies must be strictly ascending")
        if np.any(vals < 0.0):
            raise ConfigurationError("intensities must be non-negative")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "intensities", vals)
