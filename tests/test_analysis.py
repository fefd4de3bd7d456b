"""Mode extraction, EPR reports, Welch estimation, diagrams."""

import math
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest

from eprsim import (CalibrationError, DetectionChain, TemporalMode, beam_spectra,
                    combine_reports, combo_series, correlation_diagram, detect,
                    duan_sum, epr_record, epr_report, expected_mode_variance,
                    extract_modes, opo_spectrum, synthesize_colored, flat_psd,
                    trace_excerpt, vacuum_record, welch_psd)
from eprsim import analysis, synth
from eprsim.analysis import check_reference
from eprsim.detection import sample_variance_law
from eprsim.synth import TimeSeries, TwoModeRecord, mode_value_spectrum, placed_window

import refvals

MODE = TemporalMode.square(0.2e-6)
FS = 50e6


def test_mode_count_is_exactly_ten_thousand():
    series = TimeSeries(FS, np.zeros(100_000) + 1.0)
    mv = extract_modes(series, MODE)
    assert mv.count == 10_000


def test_constant_series_projects_onto_weight_sum():
    series = TimeSeries(FS, np.full(100, 3.0))
    mv = extract_modes(series, MODE)
    # ten equal weights 1/sqrt(10): each window sums to 3*sqrt(10)
    assert np.allclose(mv.values, 3.0 * math.sqrt(10.0), rtol=1e-12)


@pytest.mark.parametrize("mode", [
    MODE, TemporalMode.square(2e-5), TemporalMode.double_exp(2e6, 4e-7),
    TemporalMode.tabulated([0.0, 1.0, 3.0, 1.0, 0.0], 1e-6),
], ids=("square", "square_1000", "double_exp", "tabulated"))
def test_mode_values_are_the_windows_exact_sums(mode):
    # each value is its window's dot product with the weights, to 1e-14 of
    # the window's sum of |products| (math.fsum, correctly rounded)
    samples = np.random.default_rng(7).standard_normal(10_007) * 3.0 + 0.5
    w = mode.discretize(FS)
    vals = extract_modes(TimeSeries(FS, samples), mode).values
    assert vals.size == samples.size // w.size
    for j, v in enumerate(vals):
        prods = samples[j * w.size:(j + 1) * w.size] * w
        assert abs(v - math.fsum(prods)) <= 1e-14 * math.fsum(np.abs(prods))


def test_vacuum_mode_variance_near_unity():
    series = synthesize_colored(flat_psd(), 1 << 17, FS, seed=81)
    vals = extract_modes(series, MODE).values
    v = np.var(vals, ddof=1)
    assert abs(v - 1.0) < 3.0 * math.sqrt(2.0 / (vals.size - 1))


def test_mode_longer_than_series_rejected():
    series = TimeSeries(FS, np.ones(100))
    with pytest.raises(ValueError, match="exceeds"):
        extract_modes(series, TemporalMode.square(1e-3))


def _pooled(xs, ps, vs, mode=MODE, **kwargs):
    """epr_report of each repetition's records, pooled by combine_reports."""
    return combine_reports([epr_report(x, p, v, mode, **kwargs)
                            for x, p, v in zip(xs, ps, vs, strict=True)])


def _report(x_seeds, p_seeds, vac_seeds, pair, mode=MODE, **kwargs):
    xs = [epr_record(*pair, 2e-3, FS, "X", s) for s in x_seeds]
    ps = [epr_record(*pair, 2e-3, FS, "P", s) for s in p_seeds]
    vs = [vacuum_record(2e-3, FS, s) for s in vac_seeds]
    return _pooled(xs, ps, vs, mode, **kwargs)


def test_epr_report_vacuum_reads_zero_db():
    # per-rep ratio of two 104-mode variances scatters ~2%; three reps
    # put the true SE near 0.05 dB, so bound at a fixed 0.3 dB
    xs = [vacuum_record(2e-3, FS, 90 + i) for i in range(3)]
    ps = [vacuum_record(2e-3, FS, 93 + i) for i in range(3)]
    vacs = [vacuum_record(2e-3, FS, 96 + i) for i in range(3)]
    report = _pooled(xs, ps, vacs)
    assert abs(report.var_diff_x_db) < 0.3
    assert abs(report.var_sum_p_db) < 0.3
    assert abs(report.duan - 1.0) < 0.05
    assert report.repetitions == 3


def test_epr_report_matches_discrete_expectation(calibrated_pair, calibrated_spectra):
    report = _report(range(200, 210), range(300, 310), range(400, 410),
                     calibrated_pair)
    exp_x = expected_mode_variance(calibrated_spectra.diff_x, None, FS, MODE)
    exp_p = expected_mode_variance(calibrated_spectra.sum_p, None, FS, MODE)
    assert report.var_diff_x_db == pytest.approx(10 * math.log10(exp_x),
                                                 abs=3 * report.var_diff_x_db_se)
    assert report.var_sum_p_db == pytest.approx(10 * math.log10(exp_p),
                                                abs=3 * report.var_sum_p_db_se)
    # entangled far beyond the separable bound
    assert report.duan + 10.0 * report.duan_se < 1.0


def test_epr_report_duan_identity(calibrated_pair):
    report = _report([500], [501], [502], calibrated_pair)
    assert report.duan == duan_sum(report.var_diff_x, report.var_sum_p)
    assert math.isnan(report.var_diff_x_db_se)
    assert math.isnan(report.duan_se)


def test_epr_report_db_mean_identity(calibrated_pair):
    report = _report([510, 511], [512, 513], [514, 515], calibrated_pair)
    per = np.array(report.per_rep)
    assert report.var_diff_x_db == pytest.approx(np.mean(per[:, 0]), abs=1e-12)
    assert report.var_sum_p_db == pytest.approx(np.mean(per[:, 1]), abs=1e-12)
    assert report.var_diff_x == pytest.approx(10 ** (report.var_diff_x_db / 10), rel=1e-14)


def test_epr_report_with_blocked_second_opo(calibrated_pair):
    # silencing the X-squeezed OPO leaves diff-x at vacuum while sum-p
    # keeps its squeezing: duan = (1 + squeezed variance)/2
    opo1, opo2 = calibrated_pair
    blocked = replace(opo2, pump_param=0.0)
    pair = (opo1, blocked)
    assert refvals.DUAN_BLOCKED == pytest.approx(
        (1.0 + refvals.SQ_374[2]) / 2.0, rel=1e-12)
    report = _report([520, 521, 522], [523, 524, 525], [526, 527, 528], pair)
    exp_p = expected_mode_variance(opo_spectrum(opo1, "squeezed"), None, FS, MODE)
    expected_duan = (1.0 + exp_p) / 2.0
    # true per-rep duan scatter is about 0.011, so 0.02 covers 3 sigma
    # of the three-rep mean without trusting the noisy sample SE
    assert abs(report.duan - expected_duan) < 0.02
    assert abs(report.var_diff_x_db) < 0.35


def test_epr_report_flags_bad_reference(calibrated_pair):
    # a report keeps its reference's two variances, and check_reference
    # rejects their mean beyond 5 pooled SE, sd/sqrt(2), of the law's mean
    x = epr_record(*calibrated_pair, 2e-3, FS, "X", 540)
    p = epr_record(*calibrated_pair, 2e-3, FS, "P", 541)
    vac = vacuum_record(2e-3, FS, 542)
    bad = replace(vac, a=replace(vac.a, samples=vac.a.samples * 1.2),
                  b=replace(vac.b, samples=vac.b.samples * 1.2))
    report = epr_report(x, p, bad, MODE)
    assert report.ref_variances == pytest.approx(
        [1.44 * v for v in epr_report(x, p, vac, MODE).ref_variances], rel=1e-12)
    mean, sd = sample_variance_law(None, None, FS, MODE, 2e-3)
    with pytest.raises(CalibrationError, match="5 standard errors"):
        check_reference(report, mean, sd)
    # the matching expectation passes
    check_reference(report, 1.44 * mean, 1.44 * sd)
    se = sd / math.sqrt(2.0)
    for z in (-4.99, 4.99):
        check_reference(replace(report, ref_variances=(mean + z * se,) * 2), mean, sd)
    for z in (-5.01, 5.01):
        with pytest.raises(CalibrationError):
            check_reference(replace(report, ref_variances=(mean + z * se,) * 2), mean, sd)
    # pooled over 50 repetitions the SE is sd/10: a shift of 0.501 sd,
    # which one repetition passes, fails
    pooled = combine_reports([report] * 50)
    assert len(pooled.ref_variances) == 100
    check_reference(replace(report, ref_variances=(mean + 0.501 * sd,) * 2), mean, sd)
    with pytest.raises(CalibrationError, match="mean of 100"):
        check_reference(replace(pooled, ref_variances=(mean + 0.501 * sd,) * 100), mean, sd)


def test_epr_report_input_validation(calibrated_pair):
    x = epr_record(*calibrated_pair, 1e-4, FS, "X", 550)
    p = epr_record(*calibrated_pair, 1e-4, FS, "P", 551)
    slow = vacuum_record(1e-4, 25e6, 553)
    with pytest.raises(ValueError, match="sample rates"):
        epr_report(x, p, slow, MODE)


@pytest.mark.parametrize("reorder", [lambda r: TwoModeRecord(r.b, r.a),
                                     lambda r: TwoModeRecord(r.a, r.a),
                                     lambda r: TwoModeRecord(r.b, r.b)],
                         ids=("swapped", "a_repeated", "b_repeated"))
@pytest.mark.parametrize("make", [
    lambda pair: epr_record(*pair, 1e-4, FS, "X", 565, mode=MODE),
    lambda pair: vacuum_record(1e-4, FS, 566, mode=MODE),
], ids=("epr", "vacuum"))
def test_reordered_drawn_series_are_read_in_the_time_domain(calibrated_pair, make,
                                                            reorder, monkeypatch):
    # only a mode-space record's own (a, b) order is read from its drawn
    # coefficients; its series swapped or repeated are read from their
    # samples, which a mode-space record does not have, so the reading
    # raises and draws nothing
    rec = make(calibrated_pair)
    assert isinstance(rec, synth._ModeRecord)
    other = reorder(rec)
    assert type(other) is TwoModeRecord
    draws = []
    exponentials = synth._exponentials

    def counting(*args):
        draws.append(args)
        return exponentials(*args)

    monkeypatch.setattr(synth, "_exponentials", counting)
    for sign in (-1.0, +1.0):
        with pytest.raises(ValueError, match="mode space has no samples"):
            analysis._combo_variance(other, sign, MODE)
    assert draws == []
    analysis._combo_variance(rec, -1.0, MODE)
    assert draws


@pytest.mark.parametrize("n, factor, width", [
    (120, 1, 6),    # even block, even m
    (120, 2, 3),    # decimated, hop 6
    (135, 1, 5),    # odd block, odd m
    (128, 1, 1),    # one-sample modes: S is the power itself
    (96, 1, 48),    # two modes per block
])
def test_mode_value_spectrum_is_the_dft_of_the_mode_value_covariance(n, factor, width):
    # against the dense covariance of the mode values: the block's
    # covariance is circulant with first column irfft(power, n), the mode
    # values are rows of shifted placed windows times the block, and their
    # covariance is circulant with eigenvalues S_q
    rng = np.random.default_rng(n + factor + width)
    mode = TemporalMode.tabulated(rng.uniform(0.1, 1.0, width), width / 50e6)
    power = rng.uniform(0.0, 2.0, n // 2 + 1)
    hop, m = factor * width, n // (factor * width)
    window = placed_window(mode, 50e6, factor, n)
    s = mode_value_spectrum(power, window, n, hop)
    gamma = np.fft.irfft(power, n)
    block_cov = gamma[(np.arange(n)[:, None] - np.arange(n)[None, :]) % n]
    placed = np.fft.irfft(window, n)
    rows = np.array([np.roll(placed, j * hop) for j in range(m)])
    cov = rows @ block_cov @ rows.T
    assert np.allclose(cov, cov[np.ix_((np.arange(m) + 1) % m, (np.arange(m) + 1) % m)],
                       rtol=0.0, atol=1e-12)
    reference = np.fft.fft(cov[:, 0]).real
    assert s == pytest.approx(reference, rel=1e-10, abs=1e-12)
    assert np.array_equal(s[1:], s[:0:-1])


def test_mode_space_record_is_read_for_its_own_mode_only(calibrated_pair):
    rec = epr_record(*calibrated_pair, 1e-4, FS, "X", 567, mode=MODE)
    assert rec.draw.mode == MODE
    analysis._combo_variance(rec, -1.0, MODE)
    with pytest.raises(ValueError, match="another mode"):
        analysis._combo_variance(rec, -1.0, TemporalMode.square(0.4e-6))


@pytest.mark.parametrize("samples, width, size", [(100_000, 2e-7, 10_000),
                                                  (10_125, 1e-7, 2_025)], ids=("even", "odd"))
def test_a_reading_of_every_mode_value_is_the_variance_of_the_inverse_fft(
        calibrated_pair, samples, width, size):
    # through the default chain, the mode-space draw's size values are all
    # read (count == size), so each reading is the ddof=1 variance by
    # Parseval from the combination's per-bin power alone; it matches
    # np.var of the draw's values and Parseval's sum over their rfft
    # coefficients C, (2 sum_{k>=1} |C_k|^2 - [size even] |C_{size/2}|^2)
    # / (size (size - 1)), for even size (Nyquist counted once) and odd
    # size. The X record's diff-x is drawn with input beam 2's power, P's
    # sum-p with beam 1's, the vacuum's combinations with the flat power
    mode, fs, chain = TemporalMode.square(width), 50e6, DetectionChain()
    seqs = synth._children(41, 3)
    x_rec, p_rec = (epr_record(*calibrated_pair, samples / fs, fs, setting, seq,
                               chain=chain, mode=mode)
                    for setting, seq in zip("XP", seqs))
    vac = vacuum_record(samples / fs, fs, seqs[2], chain=chain, mode=mode)
    n, _, hop, _ = synth.layout(samples / fs, fs, chain, mode)
    diff_x, sum_p, flat = (synth._amplitude(psd, chain, n, fs, mode, hop)
                           for psd in (beam_spectra(*calibrated_pair, "X")[1],
                                       beam_spectra(*calibrated_pair, "P")[0], flat_psd()))
    for rec, sign, w in ((x_rec, -1.0, diff_x), (p_rec, +1.0, sum_p),
                         (vac, -1.0, flat), (vac, +1.0, flat)):
        draw = rec.draw
        assert (draw.size, draw.count) == (size, size)
        assert draw._powers[0 if sign > 0 else 1] is w
        values = draw.values(sign)
        read = analysis._combo_variance(rec, sign, mode)
        assert read == pytest.approx(np.var(values, ddof=1), rel=1e-13, abs=0.0)
        c = np.fft.rfft(values)
        parseval = 2.0 * np.sum(np.abs(c[1:]) ** 2) - (size % 2 == 0) * abs(c[-1]) ** 2
        assert read == pytest.approx(parseval / (size * (size - 1)), rel=1e-12, abs=0.0)


def test_mode_value_spectrum_validation():
    window = np.fft.rfft(np.r_[1.0, np.zeros(99)])
    with pytest.raises(ValueError, match="does not divide"):
        mode_value_spectrum(np.ones(51), window, 100, 3)


def test_relabeling_beams_leaves_variances_unchanged(calibrated_pair):
    rec = epr_record(*calibrated_pair, 1e-4, FS, "X", 560)
    swapped = replace(rec, a=rec.b, b=rec.a)
    for sign in (-1.0, 1.0):
        v1 = np.var(extract_modes(combo_series(rec, sign), MODE).values, ddof=1)
        v2 = np.var(extract_modes(combo_series(swapped, sign), MODE).values, ddof=1)
        assert v1 == v2


def test_combo_series_validation(calibrated_pair):
    rec = epr_record(*calibrated_pair, 1e-4, FS, "X", 561)
    with pytest.raises(ValueError, match="sign"):
        combo_series(rec, 0.5)


def _welch_white_se(segment_len, n_segments, band=None):
    """Exact standard errors of welch_psd's linear power for unit white
    Gaussian input: per bin, and of the mean over the bins of band (a
    boolean mask over the bins; all bins by default). For segments d
    apart (50 % overlap: d = 0 or 1) and bins k, k',
    Cov(|X_k|^2, |X_k'|^2) / (sum w^2)^2 = |Q_d(k-k')|^2 + |Q_d(k+k')|^2,
    with Q_d the DFT of the overlapping window product w_i w_(i - d*step)
    over sum w^2. Relative to a PSD that is smooth over a few bins, they
    hold approximately for a colored Gaussian input too."""
    n, k = segment_len, n_segments
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    step = n - n // 2
    bins = np.arange(n // 2 + 1)
    m = np.ones(bins.size) if band is None else np.asarray(band, dtype=float)
    diffs = np.arange(1 - bins.size, bins.size)  # k - k'
    sums = np.arange(2 * bins.size - 1)          # k + k'
    pairs_diff = np.correlate(m, m, "full")      # pairs in band at each k - k'
    pairs_sum = np.convolve(m, m)                # pairs in band at each k + k'
    var_bin, var_sum = 0.0, 0.0
    for d, weight in ((0, 1.0), (1, 2.0 * (k - 1) / k)):
        prod = np.zeros(n)
        prod[d * step:] = w[d * step:] * w[:n - d * step]
        q2 = np.abs(np.fft.fft(prod) / np.sum(w * w)) ** 2
        var_bin += weight * (q2[0] + q2[2 * bins % n])
        var_sum += weight * (np.sum(pairs_diff * q2[diffs % n])
                             + np.sum(pairs_sum * q2[sums % n]))
    return np.sqrt(var_bin / k), np.sqrt(var_sum / k) / np.sum(m)


def test_welch_white_series_reads_flat_zero_db():
    # bounds from the estimator's own spread at K segments: the mean over
    # all bins within 4 SE of 1, and every bin, DC and Nyquist at their own
    # (sqrt 2 larger) SE, within a z-bound with family-wise level 1e-3
    series = synthesize_colored(flat_psd(), 1 << 21, FS, seed=570)
    est = welch_psd(series)
    assert est.n_segments >= 100
    power = 10.0 ** (est.db / 10.0)
    se_bin, se_mean = _welch_white_se(4096, est.n_segments)
    assert np.isclose(se_bin[0], math.sqrt(2.0) * se_bin[10])
    z = NormalDist().inv_cdf(1.0 - 1e-3 / (2.0 * power.size))
    assert abs(np.mean(power) - 1.0) < 4.0 * se_mean
    assert np.all(np.abs(power - 1.0) < z * se_bin)
    assert est.freq_hz[0] == 0.0
    assert est.freq_hz[-1] == FS / 2.0


def test_welch_locates_injected_sinusoid():
    n = 1 << 18
    k = 200
    f0 = k * FS / 4096.0
    t = np.arange(n) / FS
    series = TimeSeries(FS, np.sin(2.0 * np.pi * f0 * t))
    est = welch_psd(series)
    assert np.argmax(est.db) == k


def test_welch_matches_generating_psd(calibrated_pair, calibrated_spectra):
    # bounds from the estimator's spread, relative to the generating PSD:
    # every bin of the band within a z-bound with family-wise level 1e-3,
    # the band mean within 4 SE of it
    rec = epr_record(*calibrated_pair, (1 << 21) / FS, FS, "X", seed=571)
    est = welch_psd(combo_series(rec, -1.0))
    truth = calibrated_spectra.diff_x(2.0 * np.pi * est.freq_hz)
    band = (est.freq_hz >= 50e3) & (est.freq_hz <= 5e6)
    assert est.n_segments >= 100
    ratio = 10.0 ** (est.db[band] / 10.0) / truth[band]
    se_bin, se_mean = _welch_white_se(4096, est.n_segments, band)
    z = NormalDist().inv_cdf(1.0 - 1e-3 / (2.0 * ratio.size))
    assert np.all(np.abs(ratio - 1.0) < z * se_bin[band])
    assert abs(np.mean(ratio) - 1.0) < 4.0 * se_mean


def test_welch_validation():
    series = TimeSeries(FS, np.ones(1000))
    with pytest.raises(ValueError, match="64"):
        welch_psd(series, segment_len=32)
    with pytest.raises(ValueError, match="exceeds"):
        welch_psd(series, segment_len=4096)


@pytest.mark.parametrize("segment_len", [4096, 4095, 128])
def test_welch_matches_scipy_with_folded_endpoints(segment_len):
    # reference: scipy's density-scaled one-sided Welch (periodic Hann, 50 %
    # overlap) with the DC and Nyquist bins doubled, so flat input reads flat
    from scipy import signal

    series = synthesize_colored(flat_psd(), 1 << 16, FS, seed=575)
    x = series.samples[: 60_001]
    noverlap = segment_len // 2
    freq, pxx = signal.welch(x, fs=FS, window="hann", nperseg=segment_len,
                             noverlap=noverlap, detrend=False,
                             scaling="density", return_onesided=True)
    pxx[0] *= 2.0
    if segment_len % 2 == 0:
        pxx[-1] *= 2.0
    est = welch_psd(TimeSeries(FS, x), segment_len=segment_len)
    assert np.array_equal(est.freq_hz, freq)
    assert est.n_segments == (x.size - noverlap) // (segment_len - noverlap)
    reference = pxx * FS / 2.0
    assert np.max(np.abs(10.0 ** (est.db / 10.0) / reference - 1.0)) <= 1e-12


def test_correlation_diagram_signs(calibrated_pair, calibrated_spectra):
    x_rec = epr_record(*calibrated_pair, 2e-3, FS, "X", seed=580)
    a = extract_modes(x_rec.a, MODE)
    b = extract_modes(x_rec.b, MODE)
    diagram = correlation_diagram(a, b)
    assert diagram.a.size == 10_000
    # r = (V_anti - V_sq)/(V_anti + V_sq) on the discrete grid
    v_sq = expected_mode_variance(calibrated_spectra.diff_x, None, FS, MODE)
    anti1 = opo_spectrum(replace(calibrated_pair[0], squeeze_phase="P"), "antisqueezed")
    v_anti = expected_mode_variance(anti1, None, FS, MODE)
    r_expected = (v_anti - v_sq) / (v_anti + v_sq)
    assert diagram.pearson_r == pytest.approx(r_expected, abs=0.02)
    assert diagram.pearson_r > 0.3

    p_rec = epr_record(*calibrated_pair, 2e-3, FS, "P", seed=581)
    diagram_p = correlation_diagram(extract_modes(p_rec.a, MODE),
                                    extract_modes(p_rec.b, MODE))
    assert diagram_p.pearson_r < -0.3


def test_correlation_diagram_requires_equal_counts():
    a = extract_modes(TimeSeries(FS, np.ones(100)), MODE)
    b = extract_modes(TimeSeries(FS, np.ones(200)), MODE)
    with pytest.raises(ValueError, match="counts differ"):
        correlation_diagram(a, b)


def test_trace_excerpt_shapes():
    rng = np.random.default_rng(590)
    series = TimeSeries(FS, rng.standard_normal(4000))
    mv = extract_modes(series, MODE)
    idx, a, b = trace_excerpt(mv, mv, n=50)
    assert np.array_equal(idx, np.arange(50))
    assert a.size == b.size == 50
    assert np.array_equal(a, mv.values[:50])
    idx0, a0, _ = trace_excerpt(mv, mv, n=0)
    assert idx0.size == a0.size == 0
    with pytest.raises(ValueError, match="out of range"):
        trace_excerpt(mv, mv, n=mv.count + 1)
