"""Temporal mode functions: normalization, spectra, and discretization."""

import math

import numpy as np
import pytest
from scipy.special import sici

from eprsim import TemporalMode
from eprsim import modes
from eprsim.modes import (MAX_RATE, _autocorrelation, _expint, _kept, _moments,
                          _tail_coefficients)

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
    _kept.cache_clear()
    cold = mode.lorentz_overlap(width, band)
    assert cold is not None
    if mode.rate is None:
        mode.lorentz_overlap(1.2 * width, band)
    else:
        _moved(mode, "rate", 1.2).lorentz_overlap(width, band)
    hits = _kept.cache_info().hits
    assert mode.lorentz_overlap(width, band) == cold
    assert _kept.cache_info().hits == hits + 1
    support = "support" if "support" in mode.params else "duration"
    _moved(mode, support, 1.7).lorentz_overlap(width, band)
    assert mode.lorentz_overlap(width, band) == cold
    _kept.cache_clear()
    assert mode.lorentz_overlap(width, band) == cold


def test_shorter_moments_are_the_first_columns_of_the_longest(monkeypatch):
    # a support keeps the longest set of moments computed; a shorter one is
    # its first columns, the values a cold evaluation of it gives, with no
    # second evaluation
    y = np.array([0.0, 0.5, 3.0, 40.0])
    key = (y, np.full(y.size, 2, dtype=np.int64))
    _kept.cache_clear()
    cold = _moments(*key, 14).copy()
    _kept.cache_clear()
    calls = []
    expint = modes._expint
    monkeypatch.setattr(modes, "_expint", lambda y, p: calls.append(p.shape) or expint(y, p))
    longest = _moments(*key, 16)
    shorter = _moments(*key, 14)
    assert calls == [(y.size, 16)]
    assert np.array_equal(shorter, cold)
    assert np.array_equal(longest[:, :14], cold)
    _kept.cache_clear()


def _numpy_tail_coefficients(width, band, rate, m):
    """The series coefficients of _tail computed on numpy scalars, as
    _tail did before its recurrence moved to Python floats."""
    a, b = (rate / band) ** 2, (width / band) ** 2
    q = max(a, b)
    n_terms = 1 if q == 0.0 else min(80, 4 * m + 1 + math.ceil(-39.2 / math.log(q)))
    coeff = (-b) ** np.arange(n_terms)
    for _ in range(m):
        for j in range(1, n_terms):
            coeff[j] -= a * coeff[j - 1]
    return coeff


@pytest.mark.parametrize("m", [0, 1, 2])
def test_tail_coefficients_are_the_numpy_recurrence_bit_for_bit(m):
    # rates and widths from 0 to 0.95 band, where the term count reaches
    # its cap of 80, with the band at 2 pi 100 MHz
    band = 2.0 * np.pi * 1e8
    scales = np.concatenate(([0.0], np.geomspace(1e-6, 0.95, 23)))
    for rate in band * scales:
        for width in band * scales[1:]:
            got = np.array(_tail_coefficients(width, band, rate, m))
            want = _numpy_tail_coefficients(width, band, rate, m)
            assert got.tobytes() == want.tobytes(), (rate, width)


@pytest.mark.parametrize("n", [100, 4096])
def test_autocorrelation_matches_the_direct_sums(n):
    # the FFT lag sums of a random and of a tabulated Hann mode's jumps are
    # the direct ones (np.correlate) to 1e-14 of the lag-0 sum
    t = (np.arange(n) + 0.5) / n
    hann = TemporalMode.tabulated(np.sin(np.pi * t) ** 2, 1e-6)
    for x in (np.random.default_rng(n).standard_normal(n), hann._steps()[0]):
        direct = np.correlate(x, x, "full")[x.size - 1:]
        got = _autocorrelation(x)
        assert got.shape == direct.shape
        assert np.max(np.abs(got - direct)) <= 1e-14 * np.dot(x, x)


@pytest.mark.parametrize("n", [100, 4096])
def test_tabulated_overlap_matches_the_direct_correlation(monkeypatch, n):
    # a tabulated Hann mode's overlap from FFT lag sums is the one the
    # direct correlation gives, to 1e-12 relative
    t = (np.arange(n) + 0.5) / n
    mode = TemporalMode.tabulated(np.sin(np.pi * t) ** 2, 1e-6)
    got = mode.lorentz_overlap(5.6e7, 4.4e9)
    monkeypatch.setattr(modes, "_autocorrelation",
                        lambda x: np.correlate(x, x, "full")[x.size - 1:])
    direct = mode.lorentz_overlap(5.6e7, 4.4e9)
    assert got == pytest.approx(direct, rel=1e-12, abs=0.0)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_discretize_norm_is_exact_for_tiny_weights():
    # the norm is taken over a power-of-two scaling: weights whose squares
    # are subnormal are unit-norm too, common modes keep the bits of the
    # unscaled norm, and the accepted rates are unchanged (rejected exactly
    # when the unscaled sum of squares is 0)
    w = TemporalMode.double_exp(rate=3.8e10, support=2e-6).discretize(50e6)
    assert np.sum(w * w) == pytest.approx(1.0, rel=0.0, abs=1e-15)
    hann = [math.sin(math.pi * (j + 0.5) / 100) ** 2 for j in range(100)]
    for mode, fs in ((TemporalMode.square(0.2e-6), 50e6),
                     (TemporalMode.tabulated(hann, 2e-6), 50e6),
                     (TemporalMode.double_exp(rate=1e7, support=1e-6), 50e6)):
        n = mode.n_samples(fs)
        raw = (np.asarray(mode.samples) if mode.kind == "tabulated"
               else mode.amplitude((np.arange(n) + 0.5) / fs))
        assert np.array_equal(mode.discretize(fs), raw / np.sqrt(np.sum(raw * raw)))
    for rate in (4e10, 5e10):
        with pytest.raises(ValueError, match="zero weights"):
            TemporalMode.double_exp(rate=rate, support=2e-6).discretize(50e6)


def test_tabulated_matching_length_passthrough():
    raw = np.array([1.0, 3.0, 2.0, 1.0])
    mode = TemporalMode.tabulated(raw, 4.0 / 50e6)
    w = mode.discretize(50e6)
    assert np.allclose(w, raw / np.linalg.norm(raw), rtol=1e-12)


def test_tabulated_normalized_at_construction():
    mode = TemporalMode.tabulated([5.0, 5.0], 1e-6)
    arr = np.asarray(mode.samples)
    assert np.sum(arr * arr) * mode.duration / arr.size == pytest.approx(1.0, rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tabulated_norm_is_scale_free_and_exact():
    # the norm is taken over a power-of-two scaling: a Hann window gets
    # the bits of the unscaled sum, and samples whose squares overflow or
    # underflow give the shape of their ratios
    raw = np.sin(np.pi * (np.arange(100) + 0.5) / 100) ** 2
    unscaled = raw / np.sqrt(np.sum(raw * raw) * (2e-6 / raw.size))
    assert np.array_equal(TemporalMode.tabulated(raw, 2e-6).samples, unscaled)
    unit = TemporalMode.tabulated([1.0, -1.0], 2e-7).samples
    for scale in (1e300, 1e-300, 5e-324):
        samples = TemporalMode.tabulated([scale, -scale], 2e-7).samples
        assert samples == pytest.approx(unit, rel=1e-15, abs=0.0), scale


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
    with pytest.raises(ValueError, match="rate: must be at most 1e\\+20 1/s"):
        TemporalMode.double_exp(rate=1.0000000000000002e20, support=1e-6)
    assert TemporalMode.one_sided_exp(rate=MAX_RATE, support=1e-6).rate == 1e20
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
