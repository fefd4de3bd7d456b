"""Colored Gaussian synthesis: calibration, statistics, and the beam-splitter map."""

import numpy as np
import pytest

from eprsim import (DetectionChain, OpoParams, TemporalMode, extract_modes, flat_psd,
                    opo_spectrum, synthesize_colored, epr_record, vacuum_record)
from eprsim.synth import TimeSeries, TwoModeRecord, _synthesize_block, block_length

import refvals


def _stress_psd():
    p = OpoParams(pump_param=refvals.STRESS_X, hwhm=refvals.HWHM,
                  efficiency=refvals.STRESS_ETA, squeeze_phase="X")
    return opo_spectrum(p, "squeezed")


def test_block_length_must_be_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        synthesize_colored(flat_psd(), 1000, 50e6, seed=0)
    with pytest.raises(ValueError):
        synthesize_colored(flat_psd(), 0, 50e6, seed=0)


def test_flat_psd_passes_white_noise_through():
    n = 4096
    seed = 11
    out = synthesize_colored(flat_psd(), n, 50e6, seed=seed)
    white = np.random.default_rng(seed).standard_normal(n)
    assert np.allclose(out.samples, white, atol=1e-10)


def test_synthesis_deterministic():
    psd = _stress_psd()
    a = synthesize_colored(psd, 4096, 400e6, seed=7)
    b = synthesize_colored(psd, 4096, 400e6, seed=7)
    c = synthesize_colored(psd, 4096, 400e6, seed=8)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_alias_guard_rejects_slow_sampling():
    opo1 = OpoParams(pump_param=refvals.STRESS_X, hwhm=refvals.HWHM,
                     efficiency=refvals.STRESS_ETA, squeeze_phase="P")
    opo2 = OpoParams(pump_param=refvals.STRESS_X, hwhm=refvals.HWHM,
                     efficiency=refvals.STRESS_ETA, squeeze_phase="X")
    # antisqueezed branch still ~2x vacuum at a 10 MHz Nyquist
    with pytest.raises(ValueError, match="alias"):
        epr_record(opo1, opo2, 1e-4, 20e6, "X", seed=0)


def test_alias_guard_accepts_calibrated_rates(calibrated_pair):
    rec = epr_record(*calibrated_pair, 1e-5, 50e6, "X", seed=0)
    assert rec.a.n == 500


def test_mc_variance_matches_quadrature_oracle():
    # >= 1e5 modes at 400 MS/s where the discrete-grid bias is < 0.1%
    psd = _stress_psd()
    mode = TemporalMode.square(0.2e-6)
    fs = 400e6
    vals = []
    for seed in (101, 102):
        series = synthesize_colored(psd, 1 << 22, fs, seed=seed)
        vals.append(extract_modes(series, mode).values)
    vals = np.concatenate(vals)
    assert vals.size >= 100_000
    var = np.var(vals, ddof=1)
    ref = refvals.SQ_STRESS[2]
    se = ref * np.sqrt(2.0 / (vals.size - 1))
    assert abs(var - ref) < 3.0 * se
    assert abs(var - ref) / ref < 0.02


def test_mc_mean_is_zero():
    psd = _stress_psd()
    series = synthesize_colored(psd, 1 << 22, 400e6, seed=103)
    vals = extract_modes(series, TemporalMode.square(0.2e-6)).values
    # mean of N zero-mean values with variance V has SE sqrt(V/N)
    se = np.sqrt(np.var(vals) / vals.size)
    assert abs(np.mean(vals)) < 4.0 * se


def test_record_is_stationary_across_halves():
    psd = _stress_psd()
    series = synthesize_colored(psd, 1 << 22, 400e6, seed=104)
    mode = TemporalMode.square(0.2e-6)
    half = series.n // 2
    v1 = np.var(extract_modes(TimeSeries(series.sample_rate,
                                         series.samples[:half]), mode).values, ddof=1)
    v2 = np.var(extract_modes(TimeSeries(series.sample_rate,
                                         series.samples[half:]), mode).values, ddof=1)
    n_half = half // mode.n_samples(series.sample_rate)
    se = refvals.SQ_STRESS[2] * np.sqrt(2.0 / n_half) * np.sqrt(2.0)
    assert abs(v1 - v2) < 4.0 * se


def test_mode_values_are_gaussian():
    # excess kurtosis of a Gaussian is 0; SE ~ sqrt(24/N)
    psd = _stress_psd()
    series = synthesize_colored(psd, 1 << 22, 400e6, seed=105)
    v = extract_modes(series, TemporalMode.square(0.2e-6)).values
    z = (v - np.mean(v)) / np.std(v)
    excess = np.mean(z ** 4) - 3.0
    assert abs(excess) < 0.1


def test_epr_record_is_beam_splitter_of_two_streams(calibrated_pair):
    # channel A/B must equal (b1 +/- b2)/sqrt(2) of the two synthesized
    # beams drawn from one generator in order
    opo1, opo2 = calibrated_pair
    fs, duration, seed = 50e6, 4e-5, 42
    rec = epr_record(opo1, opo2, duration, fs, "X", seed)
    n_out = int(round(duration * fs))
    n_blk = 1 << (n_out - 1).bit_length()
    rng = np.random.default_rng(seed)
    b1 = _synthesize_block(opo_spectrum(opo1, "antisqueezed"), n_blk, fs, rng)[:n_out]
    b2 = _synthesize_block(opo_spectrum(opo2, "squeezed"), n_blk, fs, rng)[:n_out]
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    assert np.array_equal(rec.a.samples, (b1 + b2) * inv_sqrt2)
    assert np.array_equal(rec.b.samples, (b1 - b2) * inv_sqrt2)


def test_block_length_is_next_power_of_two():
    assert block_length(2e-3, 50e6) == 1 << 17  # 100,000 samples
    assert block_length(4e-5, 50e6) == 2048     # 2,000 samples
    assert block_length(1024 / 50e6, 50e6) == 1024
    with pytest.raises(ValueError, match="at least 2 samples"):
        block_length(1e-8, 50e6)


def test_detected_block_length_is_next_fast_real_fft_length():
    chain = DetectionChain()
    assert block_length(2e-3, 50e6, chain) == 100_000          # 2^5 5^5
    assert block_length(2e-3 + 1 / 50e6, 50e6, chain) == 101_250  # 2 3^4 5^4
    assert block_length(1024 / 50e6, 50e6, chain) == 1024


def test_seed_sequences_seed_every_draw(calibrated_pair):
    # a SeedSequence is used as default_rng uses it: equal sequences give
    # equal records, and a record differs from the one of the bare int
    def seq():
        return np.random.SeedSequence(42, spawn_key=(0, 3, 1))

    for draw in (lambda s: epr_record(*calibrated_pair, 4e-5, 50e6, "X", s).a,
                 lambda s: vacuum_record(4e-5, 50e6, s).b,
                 lambda s: synthesize_colored(flat_psd(), 256, 50e6, s)):
        assert np.array_equal(draw(seq()).samples, draw(seq()).samples)
        assert not np.array_equal(draw(seq()).samples, draw(42).samples)


def test_epr_record_setting_selects_branches(calibrated_pair):
    # X setting: opo2 squeezed in X -> diff combination squeezed;
    # P setting: opo1 squeezed in P -> sum combination squeezed
    opo1, opo2 = calibrated_pair
    mode = TemporalMode.square(0.2e-6)
    for setting, sign in (("X", -1.0), ("P", +1.0)):
        rec = epr_record(opo1, opo2, 2e-3, 50e6, setting, seed=51)
        combo = (rec.a.samples + sign * rec.b.samples) / np.sqrt(2.0)
        v = np.var(extract_modes(TimeSeries(50e6, combo), mode).values, ddof=1)
        anti = (rec.a.samples - sign * rec.b.samples) / np.sqrt(2.0)
        va = np.var(extract_modes(TimeSeries(50e6, anti), mode).values, ddof=1)
        assert v < 0.6
        assert va > 1.8


def test_epr_record_trims_to_requested_duration(calibrated_pair):
    rec = epr_record(*calibrated_pair, 2e-3, 50e6, "X", seed=1)
    assert rec.a.n == rec.b.n == 100_000
    assert rec.sample_rate == 50e6
    assert (rec.a.label, rec.b.label) == ("x_A", "x_B")
    rec_p = epr_record(*calibrated_pair, 1e-5, 50e6, "P", seed=1)
    assert (rec_p.a.label, rec_p.b.label) == ("p_A", "p_B")


def test_epr_record_rejects_bad_setting(calibrated_pair):
    with pytest.raises(ValueError, match="setting"):
        epr_record(*calibrated_pair, 1e-5, 50e6, "VACUUM", seed=0)


def test_epr_record_rejects_matching_phases():
    opo = OpoParams(pump_param=0.3, hwhm=7e6, efficiency=0.9, squeeze_phase="X")
    with pytest.raises(ValueError):
        epr_record(opo, opo, 1e-5, 50e6, "X", seed=0)


def test_vacuum_record_statistics():
    rec = vacuum_record(2e-3, 50e6, seed=33)
    assert rec.setting == "VACUUM"
    assert rec.a.n == 100_000
    for series in (rec.a, rec.b):
        v = np.var(series.samples, ddof=1)
        se = np.sqrt(2.0 / (series.n - 1))
        assert abs(v - 1.0) < 3.0 * se
    # arms independent
    r = np.corrcoef(rec.a.samples, rec.b.samples)[0, 1]
    assert abs(r) < 4.0 / np.sqrt(rec.a.n)


def test_series_and_record_validation():
    with pytest.raises(ValueError, match="label"):
        TimeSeries(50e6, np.zeros(4) + 1.0, label="weird")
    with pytest.raises(ValueError, match="sample_rate"):
        TimeSeries(0.0, np.ones(4))
    a = TimeSeries(50e6, np.ones(4))
    b = TimeSeries(25e6, np.ones(4))
    with pytest.raises(ValueError, match="share"):
        TwoModeRecord(a=a, b=b, setting="VACUUM")
