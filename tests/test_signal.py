import numpy as np
import pytest

from oracles import ricker_spectrum
from tunnelfwi.signal import (SignalError, Spectrum, TimeSeries, convolve,
                              deconvolve, dft, dft_many, idft_synthesize,
                              ricker, sample_ricker)


def test_ricker_peak():
    assert ricker(0.0, 500.0) == 1.0


def test_ricker_zero_crossing():
    t_zero = 1.0 / (np.sqrt(2.0) * np.pi * 500.0)
    assert t_zero == pytest.approx(4.5016e-4, rel=1e-4)
    assert ricker(t_zero, 500.0) == pytest.approx(0.0, abs=1e-14)
    assert ricker(0.9 * t_zero, 500.0) > 0
    assert ricker(1.1 * t_zero, 500.0) < 0


def test_ricker_zero_mean():
    # trapezoid over +-6 standard widths
    f_p = 500.0
    sigma = 1.0 / (np.pi * f_p * np.sqrt(2.0))
    t = np.linspace(-6 * sigma, 6 * sigma, 20001)
    integral = np.trapezoid(ricker(t, f_p), t)
    assert abs(integral) < 1e-6


def test_ricker_needs_positive_peak_frequency():
    with pytest.raises(SignalError):
        ricker(0.0, 0.0)


def test_dft_zero_signal():
    s = TimeSeries(np.zeros(16), 1e-3)
    assert dft(s, 500.0) == 0.0


def test_dft_closed_form_cosine():
    # windowed cosine over integer periods: geometric-sum closed form
    omega0 = 2 * np.pi * 125.0
    dt = 1e-4
    n = 80 * 4  # 4 full periods at 125 Hz
    t0 = 0.0
    t = t0 + dt * np.arange(n)
    s = TimeSeries(np.cos(omega0 * t), dt, t0)
    got = dft(s, omega0)

    # sum_n cos(w t_n) e^{i w t_n} dt = dt/2 [ sum e^{2i w t_n} + n ]
    z = np.exp(2j * omega0 * dt)
    geo = np.exp(2j * omega0 * t0) * (1 - z ** n) / (1 - z)
    want = 0.5 * dt * (geo + n)
    assert abs(got - want) < 1e-10 * abs(want)
    # the n dt / 2 = T/2 term dominates
    assert got.real == pytest.approx(n * dt / 2, rel=1e-6)


def test_dft_linearity():
    rng = np.random.default_rng(50)
    x = rng.normal(size=64)
    y = rng.normal(size=64)
    a, b = 2.5, -1.25
    dt = 1e-3
    sx, sy = TimeSeries(x, dt), TimeSeries(y, dt)
    sxy = TimeSeries(a * x + b * y, dt)
    w = 777.0
    assert dft(sxy, w) == pytest.approx(a * dft(sx, w) + b * dft(sy, w), rel=1e-12)


def test_dft_hermitian_pairs():
    rng = np.random.default_rng(51)
    s = TimeSeries(rng.normal(size=128), 5e-4, t0=-0.02)
    for w in (300.0, 1200.0, 4000.0):
        plus = dft(s, w)
        minus = np.sum(s.samples * np.exp(-1j * w * s.times)) * s.dt
        assert minus == pytest.approx(np.conj(plus), rel=1e-12)


def test_dft_many_matches_single():
    rng = np.random.default_rng(52)
    s = TimeSeries(rng.normal(size=64), 1e-3)
    omegas = [100.0, 550.0, 2750.0]
    spec = dft_many(s, omegas)
    for i, w in enumerate(omegas):
        assert spec.values[i] == pytest.approx(dft(s, w), rel=1e-12)


def test_idft_round_trip_recovers_wavelet():
    f_p = 500.0
    wavelet = sample_ricker(f_p)
    nt = len(wavelet.samples)
    T = nt * wavelet.dt
    d_omega = 2 * np.pi / T
    n_freq = nt // 2 - 1
    omegas = d_omega * np.arange(1, n_freq + 1)
    wspec = dft_many(wavelet, omegas)
    unit = Spectrum(omegas, np.ones(len(omegas), dtype=complex))
    out = idft_synthesize(unit, wspec, nt, wavelet.dt, t0=wavelet.t0)
    err = np.abs(out.samples - wavelet.samples).max()
    assert err < 1e-6 * np.abs(wavelet.samples).max()


def test_idft_zero_spectrum():
    omegas = np.array([100.0, 200.0])
    zero = Spectrum(omegas, np.zeros(2, dtype=complex))
    unit = Spectrum(omegas, np.ones(2, dtype=complex))
    out = idft_synthesize(zero, unit, 16, 1e-3)
    np.testing.assert_array_equal(out.samples, 0.0)


def test_idft_output_real_by_construction():
    # the Hermitian extension is implicit; output dtype is real
    rng = np.random.default_rng(53)
    omegas = np.linspace(100.0, 5000.0, 40)
    spec = Spectrum(omegas, rng.normal(size=40) + 1j * rng.normal(size=40))
    unit = Spectrum(omegas, np.ones(40, dtype=complex))
    out = idft_synthesize(spec, unit, 64, 2e-4)
    assert out.samples.dtype == np.float64


def test_idft_mismatched_grids_rejected():
    a = Spectrum(np.array([1.0, 2.0]), np.ones(2, dtype=complex))
    b = Spectrum(np.array([1.0, 3.0]), np.ones(2, dtype=complex))
    with pytest.raises(SignalError):
        idft_synthesize(a, b, 8, 1e-3)


def test_deconvolve_inverse_pair():
    f_p = 500.0
    omegas = np.linspace(2 * np.pi * 50, 2 * np.pi * 1500, 120)
    w = ricker_spectrum(f_p, omegas)
    rng = np.random.default_rng(54)
    g = Spectrum(omegas, rng.normal(size=120) + 1j * rng.normal(size=120))
    water = 1e-4
    back = deconvolve(convolve(g, w), w, water)
    strong = np.abs(w.values) > water * np.abs(w.values).max()
    assert strong.sum() > 50
    np.testing.assert_allclose(back.values[strong], g.values[strong],
                               rtol=1e-8, atol=1e-12)


def test_deconvolve_zero_record():
    omegas = np.array([100.0, 200.0, 300.0])
    w = Spectrum(omegas, np.array([1.0, 0.5, 0.25], dtype=complex))
    out = deconvolve(Spectrum(omegas, np.zeros(3, dtype=complex)), w)
    np.testing.assert_array_equal(out.values, 0.0)


def test_deconvolve_water_level_bounds_output():
    omegas = np.array([100.0, 200.0, 300.0])
    w = Spectrum(omegas, np.array([1.0, 1e-9, 0.5], dtype=complex))
    rec = Spectrum(omegas, np.array([1.0, 1.0, 1.0], dtype=complex))
    water = 1e-3
    out = deconvolve(rec, w, water)
    bound = 1.0 / (water * np.abs(w.values).max())
    assert np.all(np.abs(out.values) <= bound * (1 + 1e-12))


def test_deconvolve_zero_wavelet_rejected():
    omegas = np.array([100.0, 200.0])
    w = Spectrum(omegas, np.zeros(2, dtype=complex))
    rec = Spectrum(omegas, np.ones(2, dtype=complex))
    with pytest.raises(SignalError):
        deconvolve(rec, w)


def test_parseval_band_limited():
    # energy in time matches the one-sided spectral energy within 1%
    f_p = 400.0
    wavelet = sample_ricker(f_p, dt=1.0 / (128 * f_p))
    e_time = np.sum(wavelet.samples ** 2) * wavelet.dt
    omegas = np.linspace(1.0, 2 * np.pi * 8 * f_p, 4000)
    spec = dft_many(wavelet, omegas)
    d_omega = omegas[1] - omegas[0]
    e_freq = np.sum(np.abs(spec.values) ** 2) * d_omega / np.pi
    assert e_freq == pytest.approx(e_time, rel=0.01)


def test_spectrum_validation():
    with pytest.raises(SignalError):
        Spectrum(np.array([2.0, 1.0]), np.zeros(2, dtype=complex))
    with pytest.raises(SignalError):
        Spectrum(np.array([0.0, 1.0]), np.zeros(2, dtype=complex))
    with pytest.raises(SignalError):
        TimeSeries(np.zeros(4), dt=-1.0)
    with pytest.raises(SignalError):
        TimeSeries(np.zeros(1), dt=1.0)
