"""Ricker wavelets, single-frequency Fourier transforms and deconvolution.

Transforms are evaluated frequency by frequency with the e^{+i omega t}
kernel (matching the outgoing-wave convention of the solver) because the
inversion frequencies are arbitrary rad/s values, not an FFT grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SignalError(ValueError):
    pass


@dataclass(frozen=True)
class TimeSeries:
    samples: np.ndarray
    dt: float
    t0: float = 0.0

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if self.dt <= 0:
            raise SignalError(f"dt must be > 0, got {self.dt}")
        if s.ndim != 1 or len(s) < 2:
            raise SignalError("need at least 2 samples")
        object.__setattr__(self, "samples", s)

    @property
    def times(self):
        return self.t0 + self.dt * np.arange(len(self.samples))


@dataclass(frozen=True)
class Spectrum:
    omegas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.omegas, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        if w.shape != v.shape or w.ndim != 1:
            raise SignalError("omega list and values must be flat and aligned")
        if np.any(w <= 0) or np.any(np.diff(w) <= 0):
            raise SignalError("omegas must be strictly increasing and positive")
        object.__setattr__(self, "omegas", w)
        object.__setattr__(self, "values", v)


def ricker(t, f_peak):
    """Ricker wavelet value(s), unit peak at t = 0."""
    if f_peak <= 0:
        raise SignalError(f"peak frequency must be > 0, got {f_peak}")
    a = (np.pi * f_peak) ** 2
    t = np.asarray(t, dtype=float)
    r = (1.0 - 2.0 * a * t ** 2) * np.exp(-a * t ** 2)
    return r if r.ndim else float(r)


def sample_ricker(f_peak, dt=None, half_width=1.5):
    """Canonical sampling of the wavelet, shared by synthesis and inversion."""
    if dt is None:
        dt = 1.0 / (64.0 * f_peak)
    n_half = int(np.ceil(half_width / (f_peak * dt)))
    t0 = -n_half * dt
    t = t0 + dt * np.arange(2 * n_half + 1)
    return TimeSeries(ricker(t, f_peak), dt, t0)


def dft(series: TimeSeries, omega):
    """Single-frequency transform: sum of x_n e^{+i omega t_n} dt."""
    if omega < 0:
        raise SignalError(f"omega must be >= 0, got {omega}")
    t = series.times
    return complex(np.sum(series.samples * np.exp(1j * omega * t)) * series.dt)


def dft_many(series: TimeSeries, omegas) -> Spectrum:
    omegas = np.asarray(omegas, dtype=float)
    kernel = np.exp(1j * np.outer(omegas, series.times))
    return Spectrum(omegas, kernel @ series.samples * series.dt)


def _check_shared_grid(a: Spectrum, b: Spectrum):
    if a.omegas.shape != b.omegas.shape or not np.array_equal(a.omegas, b.omegas):
        raise SignalError("spectra do not share the same frequency list")


def idft_synthesize(spectrum: Spectrum, wavelet_spectrum: Spectrum, nt, dt, t0=0.0):
    """Convolve with the wavelet and synthesize a real time series.

    The one-sided spectrum is extended Hermitially; the implicit value at
    omega = 0 is zero (zero-mean signals), integrated with trapezoid weights.
    """
    _check_shared_grid(spectrum, wavelet_spectrum)
    w = spectrum.omegas
    v = spectrum.values * wavelet_spectrum.values

    weights = np.empty_like(w)
    if len(w) == 1:
        weights[:] = w[0]
    else:
        weights[0] = 0.5 * (w[1] - w[0])
        weights[-1] = 0.5 * (w[-1] - w[-2])
        weights[1:-1] = 0.5 * (w[2:] - w[:-2])
    weights[0] += 0.5 * w[0]  # triangle over [0, w_0] with zero DC value

    t = t0 + dt * np.arange(nt)
    kernel = np.exp(-1j * np.outer(t, w))
    samples = (kernel @ (weights * v)).real / np.pi
    return TimeSeries(samples, dt, t0)


def convolve(record: Spectrum, wavelet: Spectrum) -> Spectrum:
    _check_shared_grid(record, wavelet)
    return Spectrum(record.omegas, record.values * wavelet.values)


def deconvolve(record: Spectrum, wavelet: Spectrum, water_level=1e-4) -> Spectrum:
    """Stabilized spectral division by the wavelet."""
    _check_shared_grid(record, wavelet)
    if not 0.0 < water_level < 1.0:
        raise SignalError(f"water level must be in (0, 1), got {water_level}")
    mag = np.abs(wavelet.values)
    peak = mag.max()
    if peak == 0.0:
        raise SignalError("wavelet spectrum is identically zero")
    floor = water_level * peak
    clipped = np.maximum(mag, floor)
    phase = np.where(mag > 0, wavelet.values / np.maximum(mag, np.finfo(float).tiny), 1.0)
    return Spectrum(record.omegas, record.values / (clipped * phase))
