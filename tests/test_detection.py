"""Measurement chain: filters, noise floor, decimation, quantization."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import signal

from eprsim import (DetectionChain, TemporalMode, detect, duan_sum, epr_record,
                    epr_spectra, expected_mode_variance, extract_modes, flat_psd,
                    load_config, opo_spectrum, vacuum_record)
from eprsim import analysis, synth
from eprsim.detection import _quantizer_step, mode_autocovariance, sample_variance_law
from eprsim.modes import _tail
from eprsim.synth import (TimeSeries, TwoModeRecord, _power, _rate_stride, block_length,
                          mode_value_spectrum, placed_window)

import refvals

MODE = TemporalMode.square(0.2e-6)
FS = 50e6
PAPER_CFG = Path(__file__).resolve().parents[1] / "paper.cfg"


def _combo_var(record, sign, mode=MODE):
    combo = (record.a.samples + sign * record.b.samples) / np.sqrt(2.0)
    vals = extract_modes(TimeSeries(record.sample_rate, combo), mode).values
    return float(np.var(vals, ddof=1))


def _analog_gains(chain, omega):
    """|H|^2 of the chain's sections at omega (rad/s), from the analog
    first-order Butterworth filters of scipy.signal (the reference the
    chain's gains are checked against)."""
    return tuple(
        np.abs(signal.freqs(*signal.butter(1, 2.0 * np.pi * fc, btype, analog=True),
                            worN=omega)[1]) ** 2
        for fc, btype in ((chain.detector_bandwidth, "lowpass"),
                          (chain.highpass_cutoff, "highpass")))


def _scaled(record, factor):
    return replace(record,
                   a=replace(record.a, samples=record.a.samples * factor),
                   b=replace(record.b, samples=record.b.samples * factor))


def test_chain_validation():
    with pytest.raises(ValueError):
        DetectionChain(detector_bandwidth=1e3, highpass_cutoff=5e3)
    with pytest.raises(ValueError):
        DetectionChain(highpass_cutoff=0.0)
    with pytest.raises(ValueError):
        DetectionChain(adc_rate=0.0)
    for bits in (1, 3, 33):
        with pytest.raises(ValueError, match="adc_bits"):
            DetectionChain(adc_bits=bits)
    assert DetectionChain(adc_bits=4).adc_bits == 4


def _minus_block_mean(series):
    return series.samples - np.mean(series.samples)


def test_wide_open_chain_removes_the_block_mean():
    # bandwidth far beyond Nyquist, cutoff far below any resolvable
    # frequency, noise at -200 dB: the analog high-pass still removes DC
    chain = DetectionChain(detector_bandwidth=1e12, highpass_cutoff=1e-3,
                           electronic_noise_db=-200.0, adc_rate=FS)
    rec = vacuum_record(2e-4, FS, seed=21)
    out = detect(rec, chain, seed=22)
    for source, series in ((rec.a, out.a), (rec.b, out.b)):
        rms = np.sqrt(np.mean(source.samples ** 2))
        assert abs(np.mean(source.samples)) > 1e-3 * rms  # a mean to remove
        assert np.max(np.abs(series.samples - _minus_block_mean(source))) < 1e-6 * rms


def test_wide_open_chain_without_noise_removes_only_the_block_mean():
    # gains within 1e-13 of one on every bin but DC, which gets zero
    chain = DetectionChain(detector_bandwidth=1e15, highpass_cutoff=1e-3,
                           electronic_noise_db=None, adc_rate=FS)
    rec = vacuum_record(2e-4, FS, seed=23)
    out = detect(rec, chain, seed=24)
    for source, series in ((rec.a, out.a), (rec.b, out.b)):
        rms = np.sqrt(np.mean(source.samples ** 2))
        assert np.max(np.abs(series.samples - _minus_block_mean(source))) < 1e-12 * rms


def test_lowpass_attenuates_3db_at_bandwidth():
    chain = DetectionChain()
    omega = np.array([2.0 * np.pi * chain.detector_bandwidth])
    g_lp, _ = chain.gains(omega)
    assert g_lp[0] == pytest.approx(0.5, abs=1e-15)
    assert abs(g_lp[0] - _analog_gains(chain, omega)[0][0]) <= 1e-12


def test_highpass_attenuates_3db_at_cutoff():
    chain = DetectionChain()
    omega = np.array([2.0 * np.pi * chain.highpass_cutoff])
    _, g_hp = chain.gains(omega)
    assert g_hp[0] == pytest.approx(0.5, abs=1e-15)
    assert abs(g_hp[0] - _analog_gains(chain, omega)[1][0]) <= 1e-12


def test_highpass_suppresses_dc():
    chain = DetectionChain()
    omega = np.array([0.0])
    _, g_hp = chain.gains(omega)
    assert g_hp[0] == 0.0
    assert abs(g_hp[0] - _analog_gains(chain, omega)[1][0]) <= 1e-12


def test_detect_scales_bin_centred_sinusoids_by_the_filter_magnitude():
    # on its own circulant block, detect is the zero-phase gain |H| of the
    # analog sections: a sinusoid centred on a bin keeps its phase
    chain = DetectionChain(electronic_noise_db=None)
    n = 10_000
    t = np.arange(n)
    rec = TwoModeRecord(a=TimeSeries(FS, np.cos(2.0 * np.pi * 1680 * t / n)),
                        b=TimeSeries(FS, np.sin(2.0 * np.pi * t / n)))
    out = detect(rec, chain, seed=0)
    # bins 1680 and 1 are 8.4 MHz and 5 kHz, the two corners
    for source, series, k in ((rec.a, out.a, 1680), (rec.b, out.b, 1)):
        g_lp, g_hp = _analog_gains(chain, np.array([2.0 * np.pi * FS * k / n]))
        gain = math.sqrt(g_lp[0] * g_hp[0])
        assert np.max(np.abs(series.samples - gain * source.samples)) <= 1e-12


def test_detection_deterministic():
    rec = vacuum_record(1e-4, FS, seed=31)
    chain = DetectionChain()
    out1 = detect(rec, chain, seed=32)
    out2 = detect(rec, chain, seed=32)
    out3 = detect(rec, chain, seed=33)
    assert np.array_equal(out1.a.samples, out2.a.samples)
    assert not np.array_equal(out1.a.samples, out3.a.samples)


def test_vacuum_through_default_chain_recalibrates_to_unity():
    chain = DetectionChain()
    rec = detect(vacuum_record(2e-3, FS, seed=41), chain, seed=42)
    expected = expected_mode_variance(None, chain, FS, MODE)
    ratio = _combo_var(rec, -1.0) / expected
    assert 0.95 < ratio < 1.05
    # the chain does shave the raw level below vacuum
    assert 0.85 < expected < 0.97


def test_expected_mode_variance_matches_monte_carlo():
    chain = DetectionChain()
    expected = expected_mode_variance(None, chain, FS, MODE)
    rec = detect(vacuum_record(2e-3, FS, seed=43), chain, seed=44)
    for sign in (-1.0, 1.0):
        var = _combo_var(rec, sign)
        se = expected * math.sqrt(2.0 / 9999)
        assert abs(var - expected) < 3.0 * se


def test_noise_floor_raises_reference_by_tenth():
    # -10 dB electronic noise adds 0.1 vacuum units of power
    silent = DetectionChain(electronic_noise_db=None)
    noisy = DetectionChain(electronic_noise_db=-10.0)
    v_silent = expected_mode_variance(None, silent, FS, MODE)
    v_noisy = expected_mode_variance(None, noisy, FS, MODE)
    assert 1.08 < v_noisy / v_silent < 1.12
    rec = detect(vacuum_record(2e-3, FS, seed=45), noisy, seed=46)
    var = _combo_var(rec, +1.0)
    se = v_noisy * math.sqrt(2.0 / 9999)
    assert abs(var - v_noisy) < 3.0 * se


def test_detect_linear_when_noise_disabled():
    chain = DetectionChain(electronic_noise_db=None)
    rec = vacuum_record(1e-4, FS, seed=47)
    out1 = detect(rec, chain, seed=0)
    out4 = detect(_scaled(rec, 4.0), chain, seed=0)
    # scaling by a power of two commutes exactly with the linear chain
    assert np.array_equal(out4.a.samples, 4.0 * out1.a.samples)
    assert np.array_equal(out4.b.samples, 4.0 * out1.b.samples)


def test_default_chain_shifts_duan_less_than_half_decibel_budget(calibrated_spectra):
    # analytic expectation on the synthesis grid: chain on vs chain off
    chain = DetectionChain()
    block = 1 << 17

    def duan_for(chain_or_none):
        ref = (expected_mode_variance(None, chain_or_none, FS, MODE, block)
               if chain_or_none is not None else 1.0)
        vx = expected_mode_variance(calibrated_spectra.diff_x, chain_or_none,
                                    FS, MODE, block) / ref
        vp = expected_mode_variance(calibrated_spectra.sum_p, chain_or_none,
                                    FS, MODE, block) / ref
        return 0.5 * (vx + vp)

    assert abs(duan_for(chain) - duan_for(None)) < 0.05
    assert abs(duan_for(chain) - refvals.DUAN_CAL) < 0.05


def test_db_shift_from_noise_matches_analytic_correction(calibrated_pair):
    # turning the noise floor on shifts the normalized dB value by the
    # predicted amount (signal and reference rise differently)
    spectra_x = opo_spectrum(
        calibrated_pair[1], "squeezed")  # diff-x branch
    silent = DetectionChain(electronic_noise_db=None)
    noisy = DetectionChain(electronic_noise_db=-20.0)

    def predicted_db(chain):
        sig = expected_mode_variance(spectra_x, chain, FS, MODE)
        ref = expected_mode_variance(None, chain, FS, MODE)
        return 10.0 * math.log10(sig / ref)

    prediction = predicted_db(noisy) - predicted_db(silent)

    shifts = []
    for i in range(5):
        base = 600 + 10 * i
        rec = epr_record(*calibrated_pair, 2e-3, FS, "X", seed=base)
        vac = vacuum_record(2e-3, FS, seed=base + 2)
        dbs = {}
        for chain, slot in ((silent, 3), (noisy, 4)):
            sig = _combo_var(detect(rec, chain, seed=base + slot), -1.0)
            ref = _combo_var(detect(vac, chain, seed=base + slot + 2), -1.0)
            dbs[slot] = 10.0 * math.log10(sig / ref)
        shifts.append(dbs[4] - dbs[3])
    shifts = np.array(shifts)
    se = np.std(shifts, ddof=1) / math.sqrt(shifts.size)
    assert abs(np.mean(shifts) - prediction) < 2.0 * se + 1e-6


def test_decimation_halves_length_and_rate():
    chain = DetectionChain(adc_rate=25e6)
    rec = vacuum_record(1e-4, FS, seed=51)
    out = detect(rec, chain, seed=52)
    assert out.sample_rate == 25e6
    assert out.a.n == (rec.a.n + 1) // 2


def test_decimation_requires_integer_ratio():
    rec = vacuum_record(1e-4, 80e6, seed=53)
    with pytest.raises(ValueError, match="integer"):
        detect(rec, DetectionChain(adc_rate=50e6), seed=0)
    with pytest.raises(ValueError, match="exceeds"):
        detect(vacuum_record(1e-4, 25e6, seed=53), DetectionChain(adc_rate=50e6), seed=0)


def test_highpass_must_stay_below_nyquist():
    chain = DetectionChain(detector_bandwidth=40e6, highpass_cutoff=30e6,
                           adc_rate=50e6)
    rec = vacuum_record(1e-4, FS, seed=54)
    with pytest.raises(ValueError, match="Nyquist"):
        detect(rec, chain, seed=0)


def test_fine_quantizer_adds_small_rounding():
    rec = vacuum_record(1e-4, FS, seed=55)
    smooth = detect(rec, DetectionChain(electronic_noise_db=None), seed=0)
    coarse = detect(rec, DetectionChain(electronic_noise_db=None, adc_bits=16), seed=0)
    step = 20.0 / (1 << 16)
    assert 0.0 < np.max(np.abs(coarse.a.samples - smooth.a.samples)) <= step / 2.0


def test_coarse_quantizer_warns_and_clips():
    rec = vacuum_record(1e-4, FS, seed=56)
    loud = _scaled(rec, 100.0)
    chain = DetectionChain(electronic_noise_db=None, adc_bits=5)
    with pytest.warns(UserWarning, match="quantization step"):
        out = detect(loud, chain, seed=0)
    step = 20.0 / (1 << 5)
    assert np.max(out.a.samples) <= 10.0 - step
    assert np.min(out.a.samples) >= -10.0


def test_expected_mode_variance_span_guard():
    chain = DetectionChain()
    with pytest.raises(ValueError, match="does not fit"):
        expected_mode_variance(None, chain, FS, TemporalMode.square(2e-3),
                               block=1 << 14)


def _full_grid_mode_variance(psd, chain, fs, mode, block):
    """The expectation summed over every bin of the block's complex FFT
    grid (the reference for the rfft-bin sum)."""
    k = np.arange(block)
    omega = 2.0 * np.pi * fs * np.minimum(k, block - k) / block
    s = psd(omega)
    adc_rate = fs
    if chain is not None:
        s = chain.detected_psd(s, omega)
        adc_rate = chain.adc_rate
    factor = round(fs / adc_rate)
    w = mode.discretize(adc_rate)
    placed = np.zeros(block)
    placed[: w.size * factor : factor] = w
    return float(np.sum(s * np.abs(np.fft.fft(placed)) ** 2) / block)


@pytest.mark.parametrize("chain", [None, DetectionChain(), DetectionChain(adc_rate=25e6)],
                         ids=("no_chain", "default", "decimating"))
@pytest.mark.parametrize("block", [4096, 99_999, 100_000, 100_001, 1 << 17])
def test_expected_mode_variance_equals_the_full_grid_sum(chain, block, calibrated_pair):
    for psd in (opo_spectrum(calibrated_pair[0], "antisqueezed"), flat_psd()):
        expected = expected_mode_variance(psd, chain, FS, MODE, block)
        reference = _full_grid_mode_variance(psd, chain, FS, MODE, block)
        assert abs(expected / reference - 1.0) <= 1e-14


@pytest.mark.parametrize("width", [2e-8, 2e-7, 2e-6], ids=("20ns", "0.2us", "2us"))
def test_mode_value_spectrum_mean_is_the_expected_mode_variance(width):
    # each mode value's variance is mean(S_q); expected_mode_variance is the
    # independent bin sum over the block (paper.cfg's, 100,000 samples)
    cfg = load_config(PAPER_CFG)
    spectra = epr_spectra(cfg.opo1, cfg.opo2)
    mode = TemporalMode.square(width)
    block = block_length(cfg.duration, cfg.fs)
    rate, stride = _rate_stride(cfg.chain, cfg.fs)
    window = placed_window(mode, rate, stride, block)
    hop = stride * mode.n_samples(rate)
    for psd in (flat_psd(), spectra.diff_x, spectra.sum_p):
        s = mode_value_spectrum(_power(psd, cfg.chain, block, cfg.fs), window, block, hop)
        assert s.size == block // hop and np.all(s >= 0.0)
        expected = expected_mode_variance(psd, cfg.chain, cfg.fs, mode, block)
        assert abs(np.mean(s) / expected - 1.0) <= 1e-15


@pytest.mark.parametrize("width", [2e-8, 2e-7, 2e-6], ids=("20ns", "0.2us", "2us"))
def test_sample_variance_law_equals_the_circulant_law(width):
    # where the windows' spacing divides the block (paper.cfg's record) the
    # m values are circulant: the ddof=1 variance is sum_{q>=1} S_q chi^2
    # terms over m-1, of mean sum_{q>=1} S_q/(m-1) and SD
    # sqrt(2 sum_{q>=1} S_q^2)/(m-1), with S from mode_value_spectrum
    cfg = load_config(PAPER_CFG)
    spectra = epr_spectra(cfg.opo1, cfg.opo2)
    mode = TemporalMode.square(width)
    block = block_length(cfg.duration, cfg.fs)
    rate, stride = _rate_stride(cfg.chain, cfg.fs)
    window = placed_window(mode, rate, stride, block)
    hop = stride * mode.n_samples(rate)
    for psd in (None, spectra.diff_x, spectra.sum_p):
        s = mode_value_spectrum(_power(psd or flat_psd(), cfg.chain, block, cfg.fs), window,
                                block, hop)[1:]
        mean, sd = sample_variance_law(psd, cfg.chain, cfg.fs, mode, cfg.duration)
        assert mean == pytest.approx(np.sum(s) / s.size, rel=1e-12, abs=0.0)
        assert sd == pytest.approx(math.sqrt(2.0 * np.sum(s * s)) / s.size, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("width", [2e-8, 2e-7, 2e-6, 7e-7],
                         ids=("20ns", "0.2us", "2us", "0.7us_full"))
def test_sample_variance_law_matches_drawn_references(width):
    # 2,000 reference variances (1,000 vacuum records through the default
    # chain, 5,000 samples each, both combinations) have the law's mean and
    # SD within 3 SE: drawn in mode space where the spacing divides the
    # block, and in full for a 0.7 us mode (35 samples, 142 of its windows)
    chain, mode, duration = DetectionChain(), TemporalMode.square(width), 1e-4
    records = [vacuum_record(duration, FS, seq, chain=chain, mode=mode)
               for seq in np.random.SeedSequence(21, spawn_key=(round(width * 1e9),)).spawn(1000)]
    assert all(isinstance(r, synth._ModeRecord) == (width != 7e-7) for r in records)
    v = np.array([analysis._combo_variance(r, sign, mode)
                  for r in records for sign in (-1.0, 1.0)])
    mean, sd = sample_variance_law(None, chain, FS, mode, duration)
    assert abs(v.mean() - mean) < 3.0 * sd / math.sqrt(v.size)
    # the SE of a sample SD, from the sample's fourth central moment
    m4 = np.mean((v - v.mean()) ** 4)
    se_sd = math.sqrt((m4 - v.var() ** 2) / v.size) / (2.0 * v.std())
    assert abs(v.std(ddof=1) - sd) < 3.0 * se_sd


def _residues(numer, poles):
    """Partial fractions of numer(x) / prod(x + p) over distinct poles p:
    the (p, c) of its terms c/(x + p)."""
    return [(p, numer(-p) / math.prod(q - p for q in poles if q != p)) for p in poles]


def _lag_domain_mode_variance(lorentz, chain, fs, mode):
    """The mode variance of a record drawn through a linear chain, in the
    lag domain: sum_m a_m R(m d/fs), a_m the autocorrelation of the
    discretized window at ADC lags m (counted for +-m), d the decimation
    and R the correlation of the detected PSD band-limited at pi fs.

    In x = Omega^2, lp hp S + N hp is N plus terms c/(x + p) over the
    poles w_c^2, w_h^2 and kappa^2 (S = 1 + A/(kappa^2 + x)); each term's
    R(tau) is (c/(pi fs)) [pi exp(-sqrt(p) tau)/(2 sqrt(p)) - Re tail],
    the tail its cosine integral beyond pi fs (modes._tail), and N adds
    N at lag 0. Needs distinct poles, each at most pi fs/2, and no
    quantizer."""
    assert chain.adc_bits is None
    a = (2.0 * math.pi * chain.detector_bandwidth) ** 2
    b = (2.0 * math.pi * chain.highpass_cutoff) ** 2
    terms = _residues(lambda x: a * x, (a, b))  # lp hp
    if lorentz is not None:
        amp, kappa = lorentz
        assert kappa * kappa not in (a, b)
        terms += _residues(lambda x: amp * a * x, (a, b, kappa * kappa))
    noise = 0.0
    if chain.electronic_noise_db is not None:
        noise = 10.0 ** (chain.electronic_noise_db / 10.0)
        terms.append((b, -noise * b))  # N hp = N - N w_h^2/(x + w_h^2)
    w = mode.discretize(chain.adc_rate)
    acf = np.correlate(w, w, "full")[w.size - 1:]
    acf[1:] *= 2.0
    tau = np.arange(w.size) * chain.decimation(fs) / fs
    band = math.pi * fs
    corr = np.zeros(w.size)
    corr[0] = noise
    for p, c in terms:
        k = math.sqrt(p)
        assert k <= band / 2.0
        corr += c / band * (math.pi * np.exp(-k * tau) / (2.0 * k)
                            - _tail(k, band, tau, 0).real)
    return float(acf @ corr)


@pytest.mark.parametrize("T, rel", [(0.2e-6, 1e-12), (2e-6, 1e-12), (1 / 50e6, 1e-10)],
                         ids=("0.2us", "2us", "one_sample"))
def test_expected_mode_variance_matches_the_lag_domain_closed_form(T, rel):
    cfg = load_config(PAPER_CFG)
    spectra = epr_spectra(cfg.opo1, cfg.opo2)
    mode = TemporalMode.square(T)
    for psd in (None, spectra.diff_x, spectra.sum_p):
        reference = _lag_domain_mode_variance(None if psd is None else psd.lorentz,
                                              cfg.chain, cfg.fs, mode)
        expected = expected_mode_variance(psd, cfg.chain, cfg.fs, mode)
        assert abs(expected / reference - 1.0) <= rel


@pytest.mark.parametrize("T, duan", [(2e-8, 0.6198), (2e-7, 0.4277), (2e-6, 0.3999)],
                         ids=("20ns", "0.2us", "2us"))
def test_detected_duan_is_a_ratio_of_lag_zero_covariances(T, duan):
    # paper.cfg's detected Duan: c_0 of diff-x and of sum-p over c_0 of the
    # vacuum, on the record's block
    cfg = load_config(PAPER_CFG)
    spectra = epr_spectra(cfg.opo1, cfg.opo2)
    mode = TemporalMode.square(T)
    n = block_length(cfg.duration, cfg.fs)
    c0 = [mode_autocovariance(psd, cfg.chain, cfg.fs, mode, n)[0]
          for psd in (None, spectra.diff_x, spectra.sum_p)]
    assert duan_sum(c0[1] / c0[0], c0[2] / c0[0]) == pytest.approx(duan, rel=0.0, abs=1e-4)


def test_quantization_adds_sheppards_term_at_lag_zero_only():
    cfg = load_config(PAPER_CFG)
    quantizing = replace(cfg.chain, adc_bits=12)
    n = block_length(cfg.duration, cfg.fs)
    for psd in (None, epr_spectra(cfg.opo1, cfg.opo2).diff_x):
        linear = expected_mode_variance(psd, cfg.chain, cfg.fs, cfg.mode, n)
        quantized = expected_mode_variance(psd, quantizing, cfg.fs, cfg.mode, n)
        assert abs(quantized - linear - _quantizer_step(12) ** 2 / 12.0) <= 1e-15
        c_lin, c_q = (mode_autocovariance(psd, chain, cfg.fs, cfg.mode, n)
                      for chain in (cfg.chain, quantizing))
        assert np.array_equal(c_q[1:], c_lin[1:])


# -- the chain as a gain on the PSD (records drawn through the chain) ----------

@pytest.mark.parametrize("chain", [
    DetectionChain(),
    DetectionChain(electronic_noise_db=None),
    DetectionChain(detector_bandwidth=1e12),       # low-pass far beyond Nyquist
    DetectionChain(highpass_cutoff=1e-3),          # high-pass far below bin 1
    DetectionChain(detector_bandwidth=1e12, highpass_cutoff=1e-3,
                   electronic_noise_db=None),      # both
], ids=("default", "noise_off", "lowpass_open", "highpass_open", "wide_open"))
def test_detected_psd_matches_freqz_of_the_filters(chain, calibrated_pair):
    # the reference is scipy.signal.freqs, freqz's analog counterpart
    omega = 2.0 * np.pi * FS * np.arange(50_001) / 100_000  # DC to Nyquist
    s = opo_spectrum(calibrated_pair[0], "antisqueezed")(omega)
    g_lp, g_hp = _analog_gains(chain, omega)
    noise = 0.0 if chain.electronic_noise_db is None else 10.0 ** (
        chain.electronic_noise_db / 10.0)
    reference = g_lp * g_hp * s + noise * g_hp
    assert np.max(np.abs(chain.detected_psd(s, omega) - reference)) <= 1e-12


def _detected_mc(draw, seeds, sign):
    """Mode values of one combination over the records draw(seed) gives."""
    vals = []
    for seed in seeds:
        rec = draw(seed)
        combo = (rec.a.samples + sign * rec.b.samples) / np.sqrt(2.0)
        vals.append(extract_modes(TimeSeries(rec.sample_rate, combo), MODE).values)
    return np.concatenate(vals)


@pytest.mark.parametrize("setting", ["X", "P", "VACUUM"])
def test_detected_records_match_expected_mode_variance(setting, calibrated_pair):
    # drawn through the chain, every combination's mode variance is the
    # chain-aware expectation on the record's own block
    chain = DetectionChain()
    duration = 2e-3
    block = block_length(duration, FS)
    assert block == 100_000
    p_opo, x_opo = calibrated_pair

    def draw(seed):
        if setting == "VACUUM":
            return vacuum_record(duration, FS, seed, chain=chain)
        return epr_record(*calibrated_pair, duration, FS, setting, seed, chain=chain)

    if setting == "VACUUM":
        psds = {-1.0: None, +1.0: None}
    else:
        # x_A - x_B carries the X-squeezed OPO's x, p_A + p_B the P-squeezed
        # OPO's p; the other combination sees the other OPO's antisqueezing
        squeezed, anti = (x_opo, p_opo) if setting == "X" else (p_opo, x_opo)
        sq_sign = -1.0 if setting == "X" else +1.0
        psds = {sq_sign: opo_spectrum(squeezed, "squeezed"),
                -sq_sign: opo_spectrum(anti, "antisqueezed")}
    seeds = [np.random.SeedSequence(900, spawn_key=(k,)) for k in range(4)]
    for sign, psd in psds.items():
        vals = _detected_mc(draw, seeds, sign)
        expected = expected_mode_variance(psd, chain, FS, MODE, block)
        se = expected * math.sqrt(2.0 / (vals.size - 1))
        assert abs(np.var(vals, ddof=1) - expected) < 3.0 * se, (setting, sign)


def test_detected_draw_agrees_with_time_domain_chain():
    # the spectral draw and detect() model the same chain: their detected
    # vacuum mode variances agree within 3 standard errors of the difference
    chain = DetectionChain(electronic_noise_db=-10.0)
    seeds = range(4)
    spectral = _detected_mc(lambda s: vacuum_record(2e-3, FS, s + 80, chain=chain),
                            seeds, -1.0)
    def timed_draw(s):
        a, b = np.random.SeedSequence(s + 90).spawn(2)
        return detect(vacuum_record(2e-3, FS, a), chain, b)

    timed = _detected_mc(timed_draw, seeds, -1.0)
    v_s, v_t = np.var(spectral, ddof=1), np.var(timed, ddof=1)
    se = math.hypot(v_s * math.sqrt(2.0 / (spectral.size - 1)),
                    v_t * math.sqrt(2.0 / (timed.size - 1)))
    assert abs(v_s - v_t) < 3.0 * se


def test_detected_records_are_decimated(calibrated_pair):
    chain = DetectionChain(adc_rate=25e6)
    rec = epr_record(*calibrated_pair, 2e-3, FS, "X", seed=95, chain=chain)
    vac = vacuum_record(2e-3, FS, 96, chain=chain)
    for r in (rec, vac):
        assert r.sample_rate == 25e6
        assert r.a.n == r.b.n == 50_000
    # 0.2 us spans 5 ADC samples; the vacuum reference obeys the expectation
    vals = _detected_mc(lambda s: vacuum_record(2e-3, FS, s + 97, chain=chain),
                        range(3), +1.0)
    expected = expected_mode_variance(None, chain, FS, MODE, block_length(2e-3, FS))
    se = expected * math.sqrt(2.0 / (vals.size - 1))
    assert abs(np.var(vals, ddof=1) - expected) < 3.0 * se


def test_detected_records_are_quantized(calibrated_pair):
    smooth_chain = DetectionChain(electronic_noise_db=None)
    fine = replace(smooth_chain, adc_bits=16)
    smooth = epr_record(*calibrated_pair, 1e-4, FS, "P", seed=98, chain=smooth_chain)
    coarse = epr_record(*calibrated_pair, 1e-4, FS, "P", seed=98, chain=fine)
    step = 20.0 / (1 << 16)
    assert 0.0 < np.max(np.abs(coarse.a.samples - smooth.a.samples)) <= step / 2.0
    assert np.array_equal(np.round(coarse.b.samples / step) * step, coarse.b.samples)
    with pytest.warns(UserWarning, match="quantization step"):
        vacuum_record(1e-4, FS, 99, chain=replace(smooth_chain, adc_bits=5))
