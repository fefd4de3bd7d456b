"""Measurement chain: filters, noise floor, decimation, quantization."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import signal

from eprsim import (DetectionChain, TemporalMode, calibrate, detect,
                    epr_record, expected_mode_variance, extract_modes,
                    opo_spectrum, vacuum_record)
from eprsim.detection import _design_filters
from eprsim.synth import TimeSeries, block_length

import refvals

MODE = TemporalMode.square(0.2e-6)
FS = 50e6


def _combo_var(record, sign, mode=MODE):
    combo = (record.a.samples + sign * record.b.samples) / np.sqrt(2.0)
    vals = extract_modes(TimeSeries(record.sample_rate, combo), mode).values
    return float(np.var(vals, ddof=1))


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
    with pytest.raises(ValueError):
        DetectionChain(adc_bits=1)


def test_identity_chain_is_passthrough():
    # wide-open surrogates: bandwidth far beyond Nyquist, cutoff far below
    # any resolvable frequency, noise at -200 dB
    chain = DetectionChain(detector_bandwidth=1e12, highpass_cutoff=1e-3,
                           electronic_noise_db=-200.0, adc_rate=FS)
    rec = vacuum_record(2e-4, FS, seed=21)
    out = detect(rec, chain, seed=22)
    rms = np.sqrt(np.mean(rec.a.samples ** 2))
    assert np.max(np.abs(out.a.samples - rec.a.samples)) < 1e-6 * rms
    assert np.max(np.abs(out.b.samples - rec.b.samples)) < 1e-6 * rms


def test_identity_chain_without_noise_is_exact():
    chain = DetectionChain(detector_bandwidth=1e12, highpass_cutoff=1e-3,
                           electronic_noise_db=None, adc_rate=FS)
    rec = vacuum_record(2e-4, FS, seed=23)
    out = detect(rec, chain, seed=24)
    assert np.array_equal(out.a.samples, rec.a.samples)
    assert np.array_equal(out.b.samples, rec.b.samples)


def test_lowpass_attenuates_3db_at_bandwidth():
    chain = DetectionChain()
    lp, _ = _design_filters(chain, FS)
    w = 2.0 * np.pi * chain.detector_bandwidth / FS
    _, h = signal.freqz(*lp, worN=[w])
    assert abs(h[0]) ** 2 == pytest.approx(0.5, abs=1e-12)


def test_highpass_suppresses_dc():
    chain = DetectionChain()
    _, hp = _design_filters(chain, FS)
    _, h = signal.freqz(*hp, worN=[0.0])
    assert abs(h[0]) < 1e-12


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
    chain = DetectionChain(electronic_noise_db=None, adc_bits=3)
    with pytest.warns(UserWarning, match="quantization step"):
        out = detect(loud, chain, seed=0)
    step = 20.0 / (1 << 3)
    assert np.max(out.a.samples) <= 10.0 - step
    assert np.min(out.a.samples) >= -10.0


def test_calibrate_produces_detected_vacuum():
    chain = DetectionChain(adc_rate=25e6)
    ref1 = calibrate(chain, 2e-4, FS, seed=61)
    ref2 = calibrate(chain, 2e-4, FS, seed=61)
    assert ref1.setting == "VACUUM"
    assert ref1.sample_rate == 25e6
    assert np.array_equal(ref1.a.samples, ref2.a.samples)


def test_calibrate_splits_its_seed_into_two_spawned_streams():
    # vacuum synthesis and chain noise come from the two children of the
    # seed's SeedSequence; an int seed and its SeedSequence agree
    chain = DetectionChain(adc_rate=25e6)
    synth_seq, noise_seq = np.random.SeedSequence(61).spawn(2)
    expected = detect(vacuum_record(2e-4, FS, synth_seq), chain, noise_seq)
    for seed in (61, np.random.SeedSequence(61)):
        ref = calibrate(chain, 2e-4, FS, seed=seed)
        assert np.array_equal(ref.a.samples, expected.a.samples)
        assert np.array_equal(ref.b.samples, expected.b.samples)


def test_calibrate_reference_standard_error_small():
    # ten repetitions pin the reference variance to well under 2%
    chain = DetectionChain()
    variances = [_combo_var(calibrate(chain, 2e-3, FS, seed=70 + i), -1.0)
                 for i in range(10)]
    variances = np.array(variances)
    se = np.std(variances, ddof=1) / math.sqrt(variances.size)
    assert se / np.mean(variances) < 0.02


def test_expected_mode_variance_span_guard():
    chain = DetectionChain()
    with pytest.raises(ValueError, match="does not fit"):
        expected_mode_variance(None, chain, FS, TemporalMode.square(2e-3),
                               block=1 << 14)


# -- the chain as a gain on the PSD (records drawn through the chain) ----------

@pytest.mark.parametrize("chain", [
    DetectionChain(),
    DetectionChain(electronic_noise_db=None),
    DetectionChain(detector_bandwidth=1e12),       # low-pass passes through
    DetectionChain(highpass_cutoff=1e-3),          # high-pass passes through
    DetectionChain(detector_bandwidth=1e12, highpass_cutoff=1e-3,
                   electronic_noise_db=None),      # identity
], ids=("default", "noise_off", "lowpass_open", "highpass_open", "identity"))
def test_detected_psd_matches_freqz_of_the_filters(chain, calibrated_pair):
    omega = 2.0 * np.pi * FS * np.arange(50_001) / 100_000  # DC to Nyquist
    s = opo_spectrum(calibrated_pair[0], "antisqueezed")(omega)
    lp, hp = _design_filters(chain, FS)
    g_lp = g_hp = np.ones_like(omega)
    if lp is not None:
        g_lp = np.abs(signal.freqz(*lp, worN=omega / FS)[1]) ** 2
    if hp is not None:
        g_hp = np.abs(signal.freqz(*hp, worN=omega / FS)[1]) ** 2
    noise = 0.0 if chain.electronic_noise_db is None else 10.0 ** (
        chain.electronic_noise_db / 10.0)
    reference = g_lp * g_hp * s + noise * g_hp
    assert np.max(np.abs(chain.detected_psd(s, omega, FS) - reference)) <= 1e-12


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
    block = block_length(duration, FS, chain)
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
    timed = _detected_mc(lambda s: calibrate(chain, 2e-3, FS, s + 90), seeds, -1.0)
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
    expected = expected_mode_variance(None, chain, FS, MODE, block_length(2e-3, FS, chain))
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
        vacuum_record(1e-4, FS, 99, chain=replace(smooth_chain, adc_bits=3))
