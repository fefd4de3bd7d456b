"""Colored Gaussian synthesis: calibration, statistics, and the beam-splitter map."""

import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from eprsim import (DetectionChain, OpoParams, TemporalMode, extract_modes, flat_psd,
                    opo_spectrum, synthesize_colored, epr_record, vacuum_record)
from eprsim import synth
from eprsim.synth import (TimeSeries, TwoModeRecord, _amplitude, _draw, _irfft,
                          _next_fast_len, block_length)

import refvals


def _stress_psd():
    p = OpoParams(pump_param=refvals.STRESS_X, hwhm=refvals.HWHM,
                  efficiency=refvals.STRESS_ETA, squeeze_phase="X")
    return opo_spectrum(p, "squeezed")


class _Fixed:
    """Stands in for a Generator whose next normals are z."""

    def __init__(self, z):
        self.z = z

    def standard_normal(self, size):
        assert size == self.z.size
        return self.z.copy()


def test_synthesis_block_must_cover_two_samples():
    for n in (0, 1):
        with pytest.raises(ValueError, match="at least 2"):
            synthesize_colored(flat_psd(), n, 50e6, seed=0)


def test_flat_psd_passes_white_noise_through():
    # the vacuum calibration contract, exactly: with a flat amplitude the
    # linear map M from the drawn normals to the samples has M M^T = I, so
    # the samples are white with unit variance (even and odd n)
    fs = 50e6
    for n in (16, 15):
        amp = _amplitude(flat_psd(), None, n, fs)
        m = np.column_stack([_draw(amp, n, _Fixed(e)) for e in np.eye(2 * amp.size)])
        assert np.max(np.abs(m @ m.T - np.eye(n))) <= 1e-12
        # and synthesize_colored is that map applied to its generator's normals
        out = synthesize_colored(flat_psd(), n, fs, seed=11)
        z = np.random.default_rng(11).standard_normal(2 * amp.size)
        assert np.max(np.abs(out.samples - m @ z)) <= 1e-12


def _spectrum(n, seed):
    """n // 2 + 1 complex normals; DC and Nyquist keep their imaginary
    parts, which an inverse real FFT ignores."""
    return np.random.default_rng(seed).standard_normal(2 * (n // 2 + 1)).view(complex)


@pytest.mark.parametrize("n", [2, 4, 6, 16, 18, 1000, 100_000, 1 << 22, (1 << 22) + 2])
def test_irfft_matches_numpy_for_even_lengths(n):
    # the split into two half-length transforms is np.fft.irfft to rounding
    # (n/2 even: a shared middle bin; n/2 odd: none)
    spec = _spectrum(n, n)
    want = np.fft.irfft(spec, n)
    got = _irfft(spec.copy(), n)
    assert got.shape == (n,)
    assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [3, 15, 2025, 100_001])
def test_irfft_of_odd_length_is_numpy_irfft(n):
    spec = _spectrum(n, n)
    assert np.array_equal(_irfft(spec.copy(), n), np.fft.irfft(spec, n))


class _Inline:
    """Stands in for the helper executor, running each call on the caller."""

    def submit(self, fn, *args, **kwargs):
        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


def test_irfft_does_not_depend_on_the_helper_thread(monkeypatch):
    # an even block's odd half runs on the helper thread; run on the
    # calling thread instead, it gives the same bytes
    threads = []
    irfft = np.fft.irfft

    def recording(*args, **kwargs):
        threads.append(threading.get_ident())
        return irfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", recording)
    for n in (4, 18, 1000, 1 << 17):
        spec = _spectrum(n, n)
        threads.clear()
        threaded = _irfft(spec.copy(), n)
        assert len(set(threads)) == 2 and threading.get_ident() in threads
        with monkeypatch.context() as m:
            m.setattr(synth, "_HELPER", _Inline())
            threads.clear()
            inline = _irfft(spec.copy(), n)
            assert set(threads) == {threading.get_ident()}
        assert threaded.tobytes() == inline.tobytes()


def test_synthesis_allocates_coefficients_and_one_block():
    # an even block is inverted in place: the coefficients plus one
    # n-sample output, as a single np.fft.irfft of them takes
    n = 1 << 20
    synthesize_colored(flat_psd(), n, 400e6, seed=1)  # warm the amplitude cache
    tracemalloc.start()
    try:
        synthesize_colored(flat_psd(), n, 400e6, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * n + (4 << 20)


def test_import_starts_no_thread():
    # the helper thread starts on the first even block, not at import
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, threading; sys.path.insert(0, sys.argv[1]); "
            "import eprsim.cli; print(threading.active_count()); "
            "from eprsim import flat_psd, synthesize_colored; "
            "synthesize_colored(flat_psd(), 1024, 400e6, 1); "
            "print(threading.active_count())")
    done = subprocess.run([sys.executable, "-c", code, str(src)],
                          capture_output=True, text=True, timeout=120, check=True)
    after_import, after_draw = map(int, done.stdout.split())
    assert after_import == 1
    assert after_draw <= 2


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_starts_its_own_helper():
    # a child forked after the helper thread started does not inherit the
    # thread; its even blocks must not wait on it
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import os, signal, sys; sys.path.insert(0, sys.argv[1]); "
            "import numpy as np; from eprsim import flat_psd, synthesize_colored; "
            "draw = lambda: synthesize_colored(flat_psd(), 1024, 400e6, 1).samples; "
            "want = draw(); pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(60)\n"
            "    os._exit(0 if np.array_equal(draw(), want) else 1)\n"
            "print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))")
    done = subprocess.run([sys.executable, "-c", code, str(src)],
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.split() == ["0"]


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


def _beam_stream(seq, k):
    """The generator input beam k of a record seeded by seq draws from."""
    return np.random.default_rng(
        np.random.SeedSequence(seq.entropy, spawn_key=(*seq.spawn_key, k)))


def test_epr_record_is_beam_splitter_of_two_beam_streams(calibrated_pair):
    # channel A/B must equal (b1 +/- b2)/sqrt(2) of the two beams, beam k
    # drawn from the child (*spawn_key, k) of the record's seed sequence,
    # each trimmed from its own block, with and without a chain (the
    # default chain neither decimates at 50 MS/s nor quantizes), for an int
    # seed and a spawned sequence alike
    opo1, opo2 = calibrated_pair
    fs, duration, n_out = 50e6, 2001 / 50e6, 2001
    n_blk = block_length(duration, fs)
    assert n_blk == 2025
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    spawned = np.random.SeedSequence(42, spawn_key=(0, 3, 1))
    for seed, seq in ((42, np.random.SeedSequence(42)), (spawned, spawned)):
        for chain in (None, DetectionChain()):
            rec = epr_record(opo1, opo2, duration, fs, "X", seed, chain=chain)
            b1, b2 = (_draw(_amplitude(opo_spectrum(opo, branch), chain, n_blk, fs),
                            n_blk, _beam_stream(seq, k))[:n_out]
                      for k, (opo, branch) in enumerate(((opo1, "antisqueezed"),
                                                         (opo2, "squeezed"))))
            assert np.array_equal(rec.a.samples, (b1 + b2) * inv_sqrt2)
            assert np.array_equal(rec.b.samples, (b1 - b2) * inv_sqrt2)
            vac = vacuum_record(duration, fs, seed, chain=chain)
            for k, series in enumerate((vac.a, vac.b)):
                v = _draw(_amplitude(flat_psd(), chain, n_blk, fs), n_blk,
                          _beam_stream(seq, k))[:n_out]
                assert np.array_equal(series.samples, v)


def _counting_draws(monkeypatch):
    """The amplitude of every beam synth draws from now on, in order."""
    calls = []
    coefficients = synth._coefficients

    def counting(amp, n, rng):
        calls.append(amp)
        return coefficients(amp, n, rng)

    monkeypatch.setattr(synth, "_coefficients", counting)
    return calls


def test_drawn_record_is_built_once_from_any_thread(calibrated_pair, monkeypatch):
    # a drawn record's beams are drawn on first use and its series built
    # on first read of either; threads that read samples and combinations
    # at once share one draw of each beam and one build (two inverse FFTs)
    rec = epr_record(*calibrated_pair, 2e-4, 50e6, "X", 5, chain=DetectionChain())
    draw = synth._drawn(rec)[0]
    draws = _counting_draws(monkeypatch)
    calls = []
    irfft = np.fft.irfft

    def counting(*args, **kwargs):
        calls.append(1)
        return irfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", counting)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            combos = [pool.submit(draw.combination, 0, 1, sign) for sign in (1.0, -1.0) * 4]
            futures = [pool.submit(getattr, s, "samples") for s in (rec.a, rec.b) * 8]
            arrays = [f.result(timeout=60) for f in futures]
            for f in combos:
                f.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == 2
    assert len(draws) == 2 and draws[0] is not draws[1]
    assert all(a is rec.a.samples for a in arrays[0::2])
    assert all(b is rec.b.samples for b in arrays[1::2])


def test_beams_are_drawn_on_first_use(calibrated_pair, monkeypatch):
    # a combination draws only the beams it weighs: x_A - x_B is beam 2,
    # p_A + p_B beam 1, a vacuum combination both; a zero combination none
    opo1, opo2 = calibrated_pair
    draws = _counting_draws(monkeypatch)
    for setting, sign, beam in (("X", -1.0, "squeezed"), ("P", +1.0, "squeezed")):
        draw = synth._drawn(epr_record(opo1, opo2, 4e-5, 50e6, setting, 3))[0]
        assert draws == []
        assert not np.any(draw.combination(0, 0, -1.0))
        assert draws == []
        draw.combination(0, 1, sign)
        opo = opo2 if setting == "X" else opo1
        assert draws == [_amplitude(opo_spectrum(opo, beam), None, draw.n, 50e6)]
        draw.combination(0, 1, -sign)
        assert len(draws) == 2
        draws.clear()
    draw = synth._drawn(vacuum_record(4e-5, 50e6, 3))[0]
    draw.combination(0, 1, -1.0)
    assert len(draws) == 2


@pytest.mark.parametrize("chain", [None, DetectionChain()], ids=("no_chain", "chain"))
def test_record_is_the_same_whatever_is_read_first(calibrated_pair, chain):
    # a record read combination-first builds the samples of one read
    # samples-first, and the same sequence object seeds equal records
    # (the record does not advance it)
    seq = np.random.SeedSequence(9, spawn_key=(0, 2))
    for setting, sign in (("X", -1.0), ("P", +1.0)):
        first = epr_record(*calibrated_pair, 4e-5, 50e6, setting, seq, chain=chain)
        second = epr_record(*calibrated_pair, 4e-5, 50e6, setting, seq, chain=chain)
        synth._drawn(first)[0].combination(0, 1, sign)
        for s1, s2 in ((second.a, first.a), (second.b, first.b)):
            assert np.array_equal(s1.samples, s2.samples)
    assert seq.n_children_spawned == 0


def test_amplitude_cache_hits_on_every_repetition(calibrated_pair):
    # equal arguments give the same PSD objects, so repeated draws of a
    # run's records compute no amplitude twice
    chain = DetectionChain()
    for seed in (0, 1):
        epr_record(*calibrated_pair, 1e-4, 50e6, "X", seed, chain=chain)
        vacuum_record(1e-4, 50e6, seed, chain=chain)
        if seed == 0:
            misses = _amplitude.cache_info().misses
    assert _amplitude.cache_info().misses == misses


def test_block_length_is_next_fast_real_fft_length():
    assert block_length(2e-3, 50e6) == 100_000          # 2^5 5^5
    assert block_length(2e-3 + 1 / 50e6, 50e6) == 101_250  # 2 3^4 5^4
    assert block_length(4e-5, 50e6) == 2000             # 2^4 5^3
    assert block_length(1024 / 50e6, 50e6) == 1024
    with pytest.raises(ValueError, match="at least 2 samples"):
        block_length(1e-8, 50e6)


def test_next_fast_len_matches_scipy():
    # the numpy-only search agrees with scipy's real-FFT lengths everywhere
    # a record can reach (2 to 2^24 samples)
    from scipy.fft import next_fast_len

    rng = np.random.default_rng(134)
    sizes = [*range(2, 20_001), *rng.integers(2, 1 << 24, 20_000).tolist(), 1 << 24]
    assert [_next_fast_len(n) for n in sizes] == [next_fast_len(n, real=True)
                                                  for n in sizes]


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
    assert rec.a.label == rec.b.label == "vacuum"
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
        TwoModeRecord(a=a, b=b)
