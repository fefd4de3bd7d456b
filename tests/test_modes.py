"""Temporal mode functions: normalization, spectra, and discretization."""

import numpy as np
import pytest
from scipy.special import sici

from eprsim import TemporalMode
from eprsim.modes import _expint, _moments

ALL_KINDS = [
    TemporalMode.square(0.2e-6),
    TemporalMode.one_sided_exp(rate=5e6, support=1e-6),
    TemporalMode.double_exp(rate=5e6, support=1e-6),
    TemporalMode.tabulated([0.2, 1.0, 0.7, 0.1, 0.4], 0.5e-6),
]


@pytest.mark.parametrize("mode", ALL_KINDS, ids=lambda m: m.kind)
def test_amplitude_unit_norm(mode):
    # integral f(t)^2 dt = 1 by midpoint rule on a dense grid whose cells
    # nest inside the tabulated-sample cells
    n = 100_000
    t = (np.arange(n) + 0.5) * mode.duration / n
    norm = np.sum(mode.amplitude(t) ** 2) * mode.duration / n
    assert norm == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("mode", ALL_KINDS, ids=lambda m: m.kind)
def test_amplitude_zero_outside_support(mode):
    t = np.array([-1e-9, -mode.duration, mode.duration * 1.001, 1.0])
    assert np.all(mode.amplitude(t) == 0.0)


@pytest.mark.parametrize("mode", ALL_KINDS, ids=lambda m: m.kind)
def test_power_spectrum_matches_direct_transform(mode):
    # closed forms against a brute-force Fourier integral of f(t)
    n = 200_000
    dt = mode.duration / n
    t = (np.arange(n) + 0.5) * dt
    f = mode.amplitude(t)
    omega = np.linspace(0.0, 12.0 / mode.duration * np.pi, 9)
    direct = np.abs(np.exp(1j * np.outer(omega, t)) @ f * dt) ** 2
    assert np.allclose(mode.power_spectrum(omega), direct, rtol=1e-5, atol=1e-12)


def test_tabulated_spectrum_in_chunks_matches_one_phase_matrix():
    # omega is taken in chunks so the phase matrix stays small; the result
    # must match the direct len(omega) x len(samples) product
    rng = np.random.default_rng(3)
    for n in (1, 4, 40):
        mode = TemporalMode.tabulated(rng.standard_normal(n) + 0.3, 2e-6)
        omega = np.linspace(0.0, 2e10, 20_001)
        dt = mode.duration / n
        t = (np.arange(n) + 0.5) * dt
        direct = np.abs((np.exp(1j * np.outer(omega, t)) @ np.array(mode.samples))
                        * dt * np.sinc(omega * dt / (2.0 * np.pi))) ** 2
        got = mode.power_spectrum(omega)
        assert np.allclose(got, direct, rtol=1e-13, atol=0.0)
    assert mode.power_spectrum(np.array([])).shape == (0,)
    assert mode.power_spectrum(3e6).shape == (1,)


def test_tabulated_spectrum_is_piecewise_constant():
    # a one-sample tabulated mode is the square window, and the cell
    # factor makes |F|^2 decay instead of repeating every 2pi/dt
    T = 0.2e-6
    omega = np.linspace(0.0, 40.0 * np.pi / T, 41)
    single = TemporalMode.tabulated([3.0], T).power_spectrum(omega)
    assert np.allclose(single, TemporalMode.square(T).power_spectrum(omega),
                       rtol=1e-12, atol=1e-30)
    flat4 = TemporalMode.tabulated([1.0] * 4, T)
    period = 2.0 * np.pi / (T / 4)
    assert flat4.power_spectrum(np.array([period]))[0] < T * 1e-25


def test_square_spectrum_values():
    T = 0.2e-6
    mode = TemporalMode.square(T)
    assert mode.power_spectrum(np.array([0.0]))[0] == pytest.approx(T, rel=1e-12)
    # zeros at multiples of 2*pi/T
    k = np.arange(1, 6) * 2.0 * np.pi / T
    assert np.all(mode.power_spectrum(k) < T * 1e-25)


def test_square_spectrum_band_coverage():
    # (1/pi) integral_0^B |F|^2 dOmega approaches 1 with the closed-form
    # tail given by the sine integral: covered(z) = (2/pi)(Si(2z) - sin^2(z)/z)
    for T in (1e-8, 0.2e-6, 1e-5):
        mode = TemporalMode.square(T)
        B = 2.0 * np.pi * 500.0 / T
        om = np.linspace(0.0, B, 2_000_001)
        got = np.trapezoid(mode.power_spectrum(om), om) / np.pi
        z = B * T / 2.0
        si, _ = sici(2.0 * z)
        expected = (2.0 / np.pi) * (si - np.sin(z) ** 2 / z)
        assert got == pytest.approx(expected, rel=1e-6)
        assert expected > 0.999


@pytest.mark.parametrize("mode", ALL_KINDS[1:3], ids=lambda m: m.kind)
def test_exp_spectrum_band_coverage(mode):
    B = 2.0 * np.pi * 400.0 * max(mode.rate, 1.0 / mode.duration)
    om = np.linspace(0.0, B, 2_000_001)
    got = np.trapezoid(mode.power_spectrum(om), om) / np.pi
    assert 0.99 < got < 1.0 + 1e-9


def test_expint_elements_do_not_depend_on_their_batch():
    # the continued fraction retires each element at its own convergence:
    # a fast element (y = 4e4) batched with slow ones (y = 1.5) takes the
    # value it has alone
    y = np.array([1.5, 4e4, 1.5, 4e4, 1.5, 4e4, 1.5, 4e4])
    p = np.array([2, 2, 4, 4, 10, 10, 40, 40])
    batch = _expint(y, p)
    for j in range(y.size):
        alone = _expint(y[j:j + 1], p[j:j + 1])
        assert batch[j] == alone[0], (y[j], p[j])


def _moved(mode, name, factor):
    """mode with one factory parameter scaled."""
    params = dict(mode.params)
    params[name] *= factor
    return TemporalMode.from_params(mode.kind, params)


@pytest.mark.parametrize("mode", ALL_KINDS, ids=lambda m: m.kind)
def test_lorentz_overlap_does_not_depend_on_the_moments_kept(mode):
    # the band-tail moments of the last support are kept: an overlap must
    # be the same computed cold, right after one at another width or rate
    # on its support (which reuses them), and right after one on another
    # support (which replaces them)
    width, band = 2e7, 2e9
    _moments.cache_clear()
    cold = mode.lorentz_overlap(width, band)
    assert cold is not None
    if mode.rate is None:
        mode.lorentz_overlap(1.2 * width, band)
    else:
        _moved(mode, "rate", 1.2).lorentz_overlap(width, band)
    hits = _moments.cache_info().hits
    assert mode.lorentz_overlap(width, band) == cold
    assert _moments.cache_info().hits == hits + 1
    support = "support" if "support" in mode.params else "duration"
    _moved(mode, support, 1.7).lorentz_overlap(width, band)
    assert mode.lorentz_overlap(width, band) == cold
    _moments.cache_clear()
    assert mode.lorentz_overlap(width, band) == cold


def test_n_samples_rounding():
    mode = TemporalMode.square(0.2e-6)
    assert mode.n_samples(50e6) == 10
    assert mode.n_samples(400e6) == 80
    with pytest.raises(ValueError):
        TemporalMode.square(2e-9).n_samples(50e6)


def test_long_window_count_is_exact():
    # 2 ms at 50 MS/s covers exactly 100000 samples despite float division
    assert TemporalMode.square(2e-3).n_samples(50e6) == 100_000


@pytest.mark.parametrize("mode", ALL_KINDS, ids=lambda m: m.kind)
@pytest.mark.parametrize("fs", [50e6, 400e6])
def test_discretize_unit_euclidean_norm(mode, fs):
    w = mode.discretize(fs)
    assert w.size == mode.n_samples(fs)
    assert np.sum(w * w) == pytest.approx(1.0, abs=1e-12)


def test_discretize_square_weights_equal():
    w = TemporalMode.square(0.2e-6).discretize(50e6)
    assert np.allclose(w, 1.0 / np.sqrt(10.0), rtol=1e-15)


def test_tabulated_matching_length_passthrough():
    raw = np.array([1.0, 3.0, 2.0, 1.0])
    mode = TemporalMode.tabulated(raw, 4.0 / 50e6)
    w = mode.discretize(50e6)
    assert np.allclose(w, raw / np.linalg.norm(raw), rtol=1e-12)


def test_tabulated_normalized_at_construction():
    mode = TemporalMode.tabulated([5.0, 5.0], 1e-6)
    arr = np.asarray(mode.samples)
    assert np.sum(arr * arr) * mode.duration / arr.size == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("mode", ALL_KINDS, ids=lambda m: m.kind)
def test_params_round_trip(mode):
    assert TemporalMode.from_params(mode.kind, mode.params) == mode


def test_validation_errors():
    with pytest.raises(ValueError):
        TemporalMode.square(0.0)
    with pytest.raises(ValueError):
        TemporalMode.square(-1e-6)
    with pytest.raises(ValueError):
        TemporalMode.one_sided_exp(rate=0.0, support=1e-6)
    with pytest.raises(ValueError):
        TemporalMode.double_exp(rate=-1e6, support=1e-6)
    with pytest.raises(ValueError):
        TemporalMode.tabulated([0.0, 0.0], 1e-6)
    with pytest.raises(ValueError):
        TemporalMode.tabulated([[1.0], [2.0]], 1e-6)
    with pytest.raises(ValueError):
        TemporalMode(kind="triangle", duration=1e-6)
    with pytest.raises(ValueError, match="unknown mode kind"):
        TemporalMode.from_params("triangle", {"duration": 1e-6})
    with pytest.raises(ValueError, match="unknown mode kind"):
        TemporalMode.from_params(["square"], {"duration": 1e-6})
