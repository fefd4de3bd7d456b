"""Colored Gaussian synthesis: calibration, statistics, and the beam-splitter map."""

import ast
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from eprsim import (DetectionChain, OpoParams, TemporalMode, beam_spectra, extract_modes,
                    flat_psd, load_config, opo_spectrum, synthesize_colored, epr_record,
                    vacuum_record)
from eprsim import analysis, synth
from eprsim.detection import mode_autocovariance, sample_variance_law
from eprsim.synth import (TimeSeries, TwoModeRecord, _amplitude, _coefficients, _draw_rows,
                          _invert, _next_fast_len, _power, block_length, layout,
                          mode_value_spectrum, placed_window)

import refvals


def _stress_psd():
    p = OpoParams(pump_param=refvals.STRESS_X, hwhm=refvals.HWHM,
                  efficiency=refvals.STRESS_ETA, squeeze_phase="X")
    return opo_spectrum(p, "squeezed")


def _draw(amp, n, rng):
    """One n-sample block as a record draws it from rng."""
    return np.fft.irfft(_coefficients(amp, n, rng), n)


class _Fixed:
    """Stands in for a Generator whose next normals are z."""

    def __init__(self, z):
        self.z = z

    def standard_normal(self, size=None, out=None):
        if out is None:
            assert size == self.z.size
            return self.z.copy()
        out[...], self.z = self.z[:out.size], self.z[out.size:]
        return out


def test_synthesis_block_must_cover_two_samples():
    for n in (0, 1):
        with pytest.raises(ValueError, match="at least 2"):
            synthesize_colored(flat_psd(), n, 50e6, seed=0)


def test_flat_psd_passes_white_noise_through():
    # the vacuum calibration contract, exactly: with a flat amplitude the
    # linear map M from the drawn normals to the samples has M M^T = I, so
    # the samples are white with unit variance (odd n, one row; n a
    # multiple of 16 with the Nyquist bin in row 0 or in row 8; n = 18,
    # two mirrored rows; n = 1000, eight rows)
    fs = 50e6
    for n in (15, 16, 32, 48, 18, 1000):
        amp = _amplitude(flat_psd(), None, n, fs, rows=True)
        mid = amp.size // 2
        m = np.column_stack([
            _invert(_draw_rows(amp, n, (_Fixed(e[:2 * mid]), _Fixed(e[2 * mid:]))), n)
            for e in np.eye(2 * amp.size)])
        assert np.max(np.abs(m @ m.T - np.eye(n))) <= 1e-12
        # and synthesize_colored is that map applied to its two streams'
        # normals in draw-position order: positions [0, mid) from child 0,
        # the rest from child 1
        out = synthesize_colored(flat_psd(), n, fs, seed=11)
        z = np.concatenate([np.random.default_rng(stream).standard_normal(2 * size)
                            for stream, size in zip(synth._children(11, 2),
                                                    (mid, amp.size - mid))])
        assert np.max(np.abs(out.samples - m @ z)) <= 1e-12


def _rows(n, seed):
    """A row layout of an n-sample block filled with complex normals,
    mirror halves, DC and Nyquist imaginary parts included."""
    r = math.gcd(n, 16)
    z = np.random.default_rng(seed).standard_normal((r // 2 + 1, 2 * (n // r)))
    return z.view(complex)


def _read_back(rows, n):
    """The n // 2 + 1 rfft coefficients the layout holds, by its definition:
    row k1, column k2 holds bin k = k1 + R k2, or the conjugate of bin
    n - k when k > n/2, R = gcd(n, 16) and M = n/R."""
    r = math.gcd(n, 16)
    m = n // r
    assert rows.shape == (r // 2 + 1, m)
    k = np.arange(n // 2 + 1)
    k1, k2 = k % r, k // r
    low = 2 * k1 <= r
    spec = np.empty(k.size, complex)
    spec[low] = rows[k1[low], k2[low]]
    spec[~low] = np.conj(rows[r - k1[~low], m - 1 - k2[~low]])
    return spec


@pytest.mark.parametrize("n", [2, 4, 6, 16, 18, 1000, 100_000, 1 << 17, 1 << 22, (1 << 22) + 2])
def test_irfft_matches_numpy_for_even_lengths(n):
    # the four-step inverse of the row layout is np.fft.irfft of the
    # spectrum read back from it, to rounding (R = 2, 4, 8 and 16 rows)
    rows = _rows(n, n)
    want = np.fft.irfft(_read_back(rows, n), n)
    got = _invert(rows.copy(), n)
    assert got.shape == (n,)
    assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [3, 15, 1001, 2025, 100_001, (1 << 17) + 1])
def test_irfft_of_odd_length_is_numpy_irfft(n):
    # one row, whose inverse is np.fft.irfft itself
    rows = _rows(n, n)
    assert np.array_equal(_invert(rows.copy(), n), np.fft.irfft(_read_back(rows, n), n))


def test_row_amplitudes_lie_on_their_bins():
    # _amplitude with rows scales each draw position by the amplitude of
    # the bin the layout puts there, and DC and Nyquist, whose imaginary
    # parts the inverse ignores, by sqrt(2) more
    psd = _stress_psd()
    for n in (2, 15, 18, 32, 48, 1000, 1001, 100_000):
        amp = _amplitude(psd, None, n, 400e6, rows=True)
        ones = (_Fixed(np.ones(2 * n)), _Fixed(np.ones(2 * n)))
        spec = _read_back(_draw_rows(amp, n, ones), n)
        want = _amplitude(psd, None, n, 400e6).copy()
        want[0] *= math.sqrt(2.0)
        if n % 2 == 0:
            want[-1] *= math.sqrt(2.0)
        np.testing.assert_allclose(spec.real, want, rtol=4e-16, atol=0.0)


class _Inline:
    """Stands in for the helper executor, running each call on the caller."""

    def submit(self, fn, *args, **kwargs):
        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


def test_irfft_does_not_depend_on_the_helper_thread(monkeypatch):
    # half of each step of the inverse runs on the helper thread; run on
    # the calling thread instead, it gives the same bytes
    threads = []
    irfft = np.fft.irfft

    def recording(*args, **kwargs):
        threads.append(threading.get_ident())
        return irfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", recording)
    for n in (4, 18, 1000, 1 << 17):
        rows = _rows(n, n)
        threads.clear()
        threaded = _invert(rows.copy(), n)
        assert len(set(threads)) == 2 and threading.get_ident() in threads
        with monkeypatch.context() as m:
            m.setattr(synth, "_helper", lambda pid: _Inline())
            threads.clear()
            inline = _invert(rows.copy(), n)
            assert set(threads) == {threading.get_ident()}
        assert threaded.tobytes() == inline.tobytes()
    # and so does all of synthesize_colored, its two-part draw included,
    # for even and odd n
    psd = _stress_psd()
    for n in (2, 3, 15, 18, 1000, 1001, 1 << 17, (1 << 17) + 1):
        threaded = synthesize_colored(psd, n, 400e6, seed=n).samples
        with monkeypatch.context() as m:
            m.setattr(synth, "_helper", lambda pid: _Inline())
            inline = synthesize_colored(psd, n, 400e6, seed=n).samples
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


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_blocks_drawn_and_read_stay_within_their_peak_memory():
    # two 2^22-sample blocks drawn and read in a fresh process, as
    # mc_check's first two durations are, the first block's samples alive
    # while the second is drawn: the row amplitudes (4n bytes), those
    # samples (8n), the layout (9n), the new samples (8n), FFT scratch and
    # the reading's temporaries peak at about 33.4n over the imported
    # modules. The peak resident size counts the heap pages behind them,
    # which tracemalloc does not: a buffer allocated on the helper thread
    # that leaves its heap split, or a second amplitude cached beside the
    # first, adds 4n (16 MB) and fails. The child reads its own high-water
    # mark (VmHWM): its ru_maxrss would start at this process's peak, which
    # Linux folds into it at exec
    n = 1 << 22
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import re, sys; sys.path.insert(0, sys.argv[1]); "
            "from eprsim import OpoParams, TemporalMode, extract_modes, opo_spectrum, "
            "synthesize_colored; "
            "status = lambda: open('/proc/self/status').read(); "
            "peak = lambda: int(re.search(r'VmHWM:\\s*(\\d+) kB', status())[1]); "
            "before = peak(); "
            f"psd = opo_spectrum(OpoParams({refvals.X_330!r}, {refvals.HWHM!r}, "
            f"{refvals.ETA!r}, 'X'), 'squeezed')\n"
            f"for k, T in enumerate({refvals.T_GRID[:2]!r}):\n"
            f"    series = synthesize_colored(psd, {n}, 400e6, seed=k)\n"
            "    extract_modes(series, TemporalMode.square(T)).values\n"
            "print(before, peak())")
    done = subprocess.run([sys.executable, "-c", code, str(src)],
                          capture_output=True, text=True, timeout=120, check=True)
    before, after = map(int, done.stdout.split())
    assert (after - before) * 1024 <= 34 * n, (before, after)


def test_import_starts_no_thread():
    # the helper thread starts on the first block, not at import
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


def test_synth_imports_neither_analysis_nor_detection_at_run_time():
    # the forward model lives in synth, which analysis and detection
    # import; synth imports them for type checking only, at module level
    # or inside a function alike
    tree = ast.parse(Path(synth.__file__).read_text())
    typing_only = {id(node) for branch in ast.walk(tree)
                   if isinstance(branch, ast.If) and isinstance(branch.test, ast.Name)
                   and branch.test.id == "TYPE_CHECKING"
                   for stmt in branch.body for node in ast.walk(stmt)}
    imported = []
    for node in ast.walk(tree):
        if id(node) in typing_only:
            continue
        if isinstance(node, ast.ImportFrom):
            imported += [f"{'.' * node.level}{node.module or ''}:{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
    assert any(name.startswith(".spectra:") for name in imported)
    assert not [name for name in imported
                if {"analysis", "detection"} & set(re.split(r"[.:]", name))]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_starts_its_own_helper():
    # a child forked after the helper thread started does not inherit the
    # thread; its blocks must not wait on it
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


@pytest.mark.parametrize("draw", [
    lambda opo1, opo2, fs: synthesize_colored(
        opo_spectrum(opo1, "antisqueezed"), 2000, fs, seed=0),
    lambda opo1, opo2, fs: epr_record(opo1, opo2, 1e-4, fs, "X", seed=0),
    lambda opo1, opo2, fs: epr_record(opo1, opo2, 1e-4, fs, "X", seed=0,
                                      chain=DetectionChain(adc_rate=fs)),
], ids=("synthesize_colored", "epr_record", "epr_record_chain"))
def test_alias_guard_rejects_slow_sampling(draw):
    # the guard is applied where every draw's PSD passes (synth._amplitude)
    opo1 = OpoParams(pump_param=refvals.STRESS_X, hwhm=refvals.HWHM,
                     efficiency=refvals.STRESS_ETA, squeeze_phase="P")
    opo2 = OpoParams(pump_param=refvals.STRESS_X, hwhm=refvals.HWHM,
                     efficiency=refvals.STRESS_ETA, squeeze_phase="X")
    _amplitude.cache_clear()
    # antisqueezed branch still ~2x vacuum at a 10 MHz Nyquist
    with pytest.raises(ValueError, match="alias"):
        draw(opo1, opo2, 20e6)
    assert _amplitude.cache_info().currsize == 0  # rejected before it was cached
    # the vacuum PSD is flat, so the same rate is accepted
    assert vacuum_record(1e-4, 20e6, seed=0).a.n == 2000


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


@pytest.mark.parametrize("chain", [None, DetectionChain()], ids=("no_chain", "chain"))
def test_epr_record_is_the_same_whichever_opo_is_listed_first(calibrated_pair, chain):
    # beam 1 is the P-squeezed OPO and beam 2 the X-squeezed one whichever
    # argument each is (spectra.beam_spectra)
    opo1, opo2 = calibrated_pair
    for setting in ("X", "P"):
        rec = epr_record(opo1, opo2, 4e-5, 50e6, setting, 11, chain=chain)
        swapped = epr_record(opo2, opo1, 4e-5, 50e6, setting, 11, chain=chain)
        assert np.array_equal(swapped.a.samples, rec.a.samples)
        assert np.array_equal(swapped.b.samples, rec.b.samples)


def _counting_draws(monkeypatch):
    """(size, last spawn key) of every mode-space combination synth draws
    from now on, in order."""
    calls = []
    exponentials = synth._exponentials

    def counting(size, rng):
        calls.append((size, rng.bit_generator.seed_seq.spawn_key[-1]))
        return exponentials(size, rng)

    monkeypatch.setattr(synth, "_exponentials", counting)
    return calls


def test_drawn_record_reads_the_same_from_any_thread(calibrated_pair, monkeypatch):
    # a mode-space record holds no drawn state: threads that read its
    # combinations at once, the power read and the trimmed values alike,
    # each draw their combination's own stream once and get exactly the
    # reading of one thread alone
    mode = TemporalMode.square(2e-7)
    draw = epr_record(*calibrated_pair, 20_001 / 50e6, 50e6, "X", 5,
                      chain=DetectionChain(), mode=mode).draw
    assert draw.count < draw.size
    reads = [(draw.variance, 1.0), (draw.variance, -1.0), (draw.values, 1.0),
             (draw.values, -1.0)] * 4
    alone = [fn(sign) for fn, sign in reads[:4]] * 4
    draws = _counting_draws(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(fn, sign) for fn, sign in reads]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert sorted(draws) == sorted([(draw.size, 2), (draw.size, 3)] * 8)
    for value, want in zip(got, alone):
        assert np.array_equal(value, want)


def test_beams_are_drawn_on_first_use(calibrated_pair, monkeypatch):
    # a mode-space record draws nothing until a combination is read, and a
    # reading draws that combination alone from its own stream: the sum
    # from (..., 2), the difference from (..., 3). x_A - x_B has input beam
    # 2's power, p_A + p_B beam 1's, and the vacuum's two combinations the
    # flat power each
    opo1, opo2 = calibrated_pair
    mode = TemporalMode.square(2e-7)
    n, _, hop, _ = layout(4e-5, 50e6, None, mode)
    size = n // hop
    draws = _counting_draws(monkeypatch)
    for setting, sign in (("X", -1.0), ("P", +1.0)):
        draw = epr_record(opo1, opo2, 4e-5, 50e6, setting, 3, mode=mode).draw
        assert draws == []
        draw.variance(sign)
        key = 2 if sign > 0 else 3
        assert draws == [(size, key)]
        opo = opo2 if setting == "X" else opo1
        assert draw._powers[key - 2] is _amplitude(opo_spectrum(opo, "squeezed"), None, n,
                                                   50e6, mode, hop)
        draw.variance(-sign)
        assert draws == [(size, key), (size, 5 - key)]
        draws.clear()
    draw = vacuum_record(4e-5, 50e6, 3, mode=mode).draw
    assert draws == []
    draw.variance(-1.0)
    assert draws == [(size, 3)]
    flat = _amplitude(flat_psd(), None, n, 50e6, mode, hop)
    assert all(w is flat for w in draw._powers)


@pytest.mark.parametrize("chain", [None, DetectionChain()], ids=("no_chain", "chain"))
def test_record_is_the_same_whatever_is_read_first(calibrated_pair, chain):
    # a mode-space record's readings are the same whichever combination or
    # reading comes first, and reading one twice gives it twice; a full
    # record is built when it is drawn, as plain series; and the same
    # sequence object seeds equal records (a record does not advance it)
    seq = np.random.SeedSequence(9, spawn_key=(0, 2))
    mode = TemporalMode.square(2e-7)
    makers = (lambda m: epr_record(*calibrated_pair, 4e-5, 50e6, "X", seq, chain=chain, mode=m),
              lambda m: epr_record(*calibrated_pair, 4e-5, 50e6, "P", seq, chain=chain, mode=m),
              lambda m: vacuum_record(4e-5, 50e6, seq, chain=chain, mode=m))
    for make in makers:
        first, second = make(mode).draw, make(mode).draw
        read_first = [(first.variance(s), first.values(s)) for s in (1.0, -1.0)]
        read_second = [(second.values(s), second.variance(s)) for s in (-1.0, 1.0)]
        for (var, vals), (vals2, var2) in zip(read_first, read_second[::-1]):
            assert var == var2 and np.array_equal(vals, vals2)
        assert first.variance(1.0) == read_first[0][0]
        full, again = make(None), make(None)
        for s1, s2 in ((full.a, again.a), (full.b, again.b)):
            assert type(s1) is TimeSeries and set(vars(s1)) == {"sample_rate", "samples",
                                                                "label"}
            assert np.array_equal(s1.samples, s2.samples)
    assert seq.n_children_spawned == 0


@pytest.mark.parametrize("mode", [None, TemporalMode.square(2e-7)],
                         ids=("full", "mode_space"))
def test_repr_of_a_record_names_its_labels(calibrated_pair, mode):
    # repr() reads no samples, so a mode-space record prints as well as a
    # full one; it names both series' labels and leaves the draw out. A
    # record of either kind is equal to itself and hashable, and another
    # draw of the same arguments differs
    makers = (lambda: epr_record(*calibrated_pair, 4e-5, 50e6, "X", 1, mode=mode),
              lambda: epr_record(*calibrated_pair, 4e-5, 50e6, "P", 1, mode=mode),
              lambda: vacuum_record(4e-5, 50e6, 1, mode=mode))
    for make, labels in zip(makers, (("x_A", "x_B"), ("p_A", "p_B"), ("vacuum",))):
        rec = make()
        text = repr(rec)
        assert all(f"label='{label}'" in text for label in labels), text
        assert "draw" not in text
        assert rec == rec and hash(rec) == hash(rec) and rec != make()


def test_equal_opo_params_share_one_amplitude():
    # spectra are values: two OPOs described alike but built apart give
    # equal spectra, and so one amplitude cache entry
    first, second = (OpoParams(pump_param=refvals.X_330, hwhm=refvals.HWHM,
                               efficiency=refvals.ETA) for _ in range(2))
    assert first is not second
    psds = [opo_spectrum(p, "squeezed") for p in (first, second)]
    assert psds[0] == psds[1] and hash(psds[0]) == hash(psds[1])
    _amplitude.cache_clear()
    amps = [_amplitude(psd, None, 1024, 50e6) for psd in psds]
    assert amps[0] is amps[1]
    assert _amplitude.cache_info().currsize == 1


def test_amplitude_cache_hits_on_every_repetition(calibrated_pair):
    # equal arguments give equal PSDs, so repeated draws of a run's
    # records, in full or in mode space, compute no amplitude twice
    chain = DetectionChain()
    mode = TemporalMode.square(2e-7)
    for seed in (0, 1):
        for m in (None, mode):
            epr_record(*calibrated_pair, 1e-4, 50e6, "X", seed, chain=chain, mode=m)
            vacuum_record(1e-4, 50e6, seed, chain=chain, mode=m)
        if seed == 0:
            misses = _amplitude.cache_info().misses
    assert _amplitude.cache_info().misses == misses


@pytest.mark.parametrize("fs, duration, chain, width, m", [
    (50e6, 2e-4, DetectionChain(), 2e-7, 1_000),
    (50e6, 2e-4, None, 2e-8, 10_000),
    (100e6, 1e-4, DetectionChain(), 2e-7, 500),     # decimated: hop 20
    (50e6, 2e-4, DetectionChain(adc_bits=12), 2e-7, None),  # quantizer: full draw
    (50e6, 2e-4, DetectionChain(), 7e-7, None),     # 35 samples do not divide 10,000
], ids=("chain", "no_chain", "decimating", "quantizing", "undivided"))
def test_mode_space_draws_beams_2_and_3_of_the_mode_values(calibrated_pair, fs, duration,
                                                           chain, width, m):
    # with a mode, a record whose chain is linear and whose windows'
    # spacing divides the block draws each combination's m mode values
    # from the power w = m/2 * S_q of its input beam (the sum beam 1's,
    # the difference beam 2's; the vacuum's both flat) and the child
    # (*spawn_key, 2) for the sum, (*spawn_key, 3) for the difference: a
    # standard exponential per interior bin, a normal for Nyquist, then a
    # normal for DC and the interior phases. It has no samples; otherwise
    # it is the full draw
    mode = TemporalMode.square(width)
    seq = np.random.SeedSequence(17, spawn_key=(4,))
    n, _, hop, _ = layout(duration, fs, chain, mode)
    makers = (lambda m: epr_record(*calibrated_pair, duration, fs, "X", seq, chain=chain,
                                   mode=m),
              lambda m: vacuum_record(duration, fs, seq, chain=chain, mode=m))
    for make, psds in zip(makers, (beam_spectra(*calibrated_pair, "X"),
                                   (flat_psd(), flat_psd()))):
        rec = make(mode)
        if m is None:
            assert type(rec) is TwoModeRecord and type(rec.a) is TimeSeries
            assert np.array_equal(rec.a.samples, make(None).a.samples)
            continue
        draw = rec.draw
        assert type(rec) is synth._ModeRecord and (draw.mode, draw.size) == (mode, m)
        for k, (psd, sign) in enumerate(zip(psds, (1.0, -1.0))):
            w = _amplitude(psd, chain, n, fs, mode, hop)
            assert w.size == m // 2 + 1 and not w.flags.writeable
            rng = _beam_stream(seq, 2 + k)
            e = rng.standard_exponential((m - 1) // 2)
            z = rng.standard_normal()  # every size here is even
            interior = slice(1, 1 + e.size)
            read = (4.0 * np.dot(w[interior], e) + 2.0 * w[-1] * z * z) / (m * (m - 1))
            assert draw.variance(sign) == read
            spec = np.empty(w.size, complex)
            spec[0] = math.sqrt(2.0 * w[0]) * rng.standard_normal()
            spec[interior] = (np.sqrt(2.0 * w[interior] * e)
                              * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, e.size)))
            spec[-1] = math.sqrt(2.0 * w[-1]) * z
            assert np.array_equal(draw.values(sign), np.fft.irfft(spec, m))
        with pytest.raises(ValueError, match="mode space has no samples"):
            rec.a.samples
        # the samples chain.digitize keeps: every stride-th, from the first
        assert rec.a.n == -(-int(round(duration * fs)) // (1 if chain is None else
                                                          chain.decimation(fs)))
    assert seq.n_children_spawned == 0


_PAPER = load_config(Path(__file__).resolve().parents[1] / "paper.cfg")


@pytest.mark.parametrize("fs, duration, chain, mode, block, size, m", [
    (_PAPER.fs, _PAPER.duration, _PAPER.chain, _PAPER.mode, 100_000, 10_000, 10_000),
    (50e6, 100_001 / 50e6, None, TemporalMode.square(2e-7), 101_250, 10_125, 10_000),
    # 19,999 samples keep 10,000 at the ADC rate: a floor would read 999 values
    (100e6, 19_999 / 100e6, DetectionChain(), TemporalMode.square(2e-7), 20_000, 1_000, 1_000),
    (50e6, 2e-3, DetectionChain(), TemporalMode.square(7e-7), 100_000, None, 2_857),
    (50e6, 2e-3, DetectionChain(adc_bits=12), TemporalMode.square(2e-7), 100_000, None, 10_000),
], ids=("paper", "untrimmed", "decimating", "undivided", "quantizing"))
def test_one_layout_for_every_reader(fs, duration, chain, mode, block, size, m):
    # layout's m is the count extract_modes takes from the full draw, a
    # record drawn with the mode reads exactly m values (in mode space
    # where size, the draw's n/hop values, is given: all of them by
    # Parseval where m == size, the first m of the draw's values where the
    # record is trimmed), and the exact law of white vacuum without a
    # chain, (1, sqrt(2/(m-1))), holds for the m extract_modes takes from
    # that full draw
    n, _, hop, m_layout = layout(duration, fs, chain, mode)
    assert (n, m_layout) == (block, m)
    full = vacuum_record(duration, fs, 5, chain=chain)
    assert extract_modes(analysis.combo_series(full, -1.0), mode).count == m
    rec = vacuum_record(duration, fs, 5, chain=chain, mode=mode)
    assert isinstance(rec, synth._ModeRecord) == (size is not None)
    if size is not None:
        assert (n // hop, rec.draw.size, rec.draw.count) == (size, size, m)
        values = rec.draw.values(-1.0)
        every = synth._ModeDraw(rec.draw._powers, size, size, 5, mode).values(-1.0)
        assert every.size == size and np.array_equal(values, every[:m])
    else:
        values = extract_modes(analysis.combo_series(rec, -1.0), mode).values
    assert values.size == m
    read = analysis._combo_variance(rec, -1.0, mode)
    if size == m:
        assert read == pytest.approx(np.var(values, ddof=1), rel=1e-13, abs=0.0)
    else:
        assert read == np.var(values, ddof=1)
    white = analysis.combo_series(vacuum_record(duration, fs, 5), -1.0)
    m_white = extract_modes(white, mode).count
    mean, sd = sample_variance_law(None, None, fs, mode, duration)
    assert mean == pytest.approx(1.0, rel=1e-12, abs=0.0)
    assert sd == pytest.approx(math.sqrt(2.0 / (m_white - 1)), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("size", [2, 3, 1_000, 1_001, 10_000])
def test_power_read_is_the_variance_of_the_values(size):
    # where a reading takes every value, the power read (one dot product
    # of w with the drawn exponentials) and np.var of the values built by
    # continuing the same generator agree to rounding, for even and odd size
    rng = np.random.default_rng(size)
    w = rng.uniform(0.1, 2.0, size // 2 + 1)
    mode = TemporalMode.square(2e-7)
    for seed in range(3):
        draw = synth._ModeDraw((w, 2.0 * w), size, size, seed, mode)
        for sign in (1.0, -1.0):
            values = draw.values(sign)
            assert values.size == size
            assert draw.variance(sign) == pytest.approx(np.var(values, ddof=1), rel=1e-13,
                                                        abs=0.0)


@pytest.mark.parametrize("size", [11, 12], ids=("odd", "even"))
def test_mode_space_coefficients_are_complex_gaussian(size):
    # over 20,000 draws, each interior rfft coefficient of the values has
    # real and imaginary parts of mean 0, variance w_k and no correlation,
    # and DC and (even size) Nyquist are real with variance 2 w_k, all
    # within 5 standard errors
    draws = 20_000
    w = np.linspace(0.5, 1.5, size // 2 + 1)
    mode = TemporalMode.square(2e-7)
    spec = np.array([np.fft.rfft(synth._ModeDraw((w, w), size, size, seed, mode).values(1.0))
                     for seed in range(draws)])
    interior = slice(1, (size + 1) // 2)
    wk = w[interior]
    for part in (spec[:, interior].real, spec[:, interior].imag):
        assert np.all(np.abs(part.mean(axis=0)) < 5.0 * np.sqrt(wk / draws))
        assert np.all(np.abs(part.var(axis=0) - wk) < 5.0 * wk * math.sqrt(2.0 / draws))
    cross = (spec[:, interior].real * spec[:, interior].imag).mean(axis=0)
    assert np.all(np.abs(cross) < 5.0 * wk / math.sqrt(draws))
    real = [0] + ([size // 2] if size % 2 == 0 else [])
    assert np.all(np.abs(spec[:, real].imag) < 1e-12)
    assert np.all(np.abs(spec[:, real].real.var(axis=0) - 2.0 * w[real])
                  < 5.0 * 2.0 * w[real] * math.sqrt(2.0 / draws))


def test_mode_space_vacuum_readings_have_the_exact_law():
    # 1,000 vacuum records drawn in mode space through paper.cfg's chain,
    # both combinations read: the 2,000 readings' mean and spread sit
    # within 5 standard errors of sample_variance_law's
    cfg, reps = _PAPER, 1_000
    mean, sd = sample_variance_law(None, cfg.chain, cfg.fs, cfg.mode, cfg.duration)
    readings = []
    for i in range(reps):
        rec = vacuum_record(cfg.duration, cfg.fs, np.random.SeedSequence(31, spawn_key=(i,)),
                            chain=cfg.chain, mode=cfg.mode)
        assert isinstance(rec, synth._ModeRecord) and rec.draw.count == rec.draw.size
        readings += [analysis._combo_variance(rec, sign, cfg.mode) for sign in (1.0, -1.0)]
    readings = np.array(readings)
    count = readings.size
    assert abs(readings.mean() - mean) < 5.0 * sd / math.sqrt(count)
    assert abs(readings.std(ddof=1) - sd) < 5.0 * sd / math.sqrt(2.0 * (count - 1))


def _autocorrelation(values, lag):
    """Sample autocorrelation of values about their mean at lag."""
    v = values - values.mean()
    return float(np.dot(v[:-lag], v[lag:]) / np.dot(v, v))


@pytest.mark.parametrize("drawn_with_mode", [True, False], ids=("mode_space", "full"))
def test_mode_values_correlate_across_windows_in_order(drawn_with_mode):
    # paper.cfg's chain with a 20 ns square mode: one ADC sample per window,
    # so one record gives m = 100,000 values, and the 8.4 MHz low-pass
    # correlates neighbours. Their lag-l correlation rho_l = c_l/c_0 is the
    # bin sum of P |W|^2 cos(2 pi k l hop/n), every rfft bin but DC and
    # Nyquist counted twice for its mirror image; the values a reading
    # takes (a mode-space draw's values, whose variance it reads by
    # Parseval) sit within 0.02 (about 5 Bartlett SE) of it at lags 1 and 2.
    # The variance does not see the order of the values: reversing the
    # mode-space spectrum keeps it and flips every odd lag.
    cfg, mode = _PAPER, TemporalMode.square(2e-8)
    n, _, hop, m = layout(cfg.duration, cfg.fs, cfg.chain, mode)
    assert (n, hop, m) == (100_000, 1, 100_000)
    k = np.arange(n // 2 + 1)
    omega = 2.0 * np.pi * cfg.fs * k / n
    w = mode.discretize(cfg.fs)
    placed = np.zeros(n)
    placed[:w.size] = w
    weight = np.where((k == 0) | (2 * k == n), 1.0, 2.0) * np.abs(np.fft.rfft(placed)) ** 2
    seqs = synth._children(7, 3)
    drawn = mode if drawn_with_mode else None
    x_rec, p_rec = (epr_record(cfg.opo1, cfg.opo2, cfg.duration, cfg.fs, setting, seq,
                               chain=cfg.chain, mode=drawn)
                    for setting, seq in zip("XP", seqs))
    vac = vacuum_record(cfg.duration, cfg.fs, seqs[2], chain=cfg.chain, mode=drawn)
    readings = [(x_rec, -1.0, beam_spectra(cfg.opo1, cfg.opo2, "X")[1], (0.3023, 0.0099)),
                (p_rec, +1.0, beam_spectra(cfg.opo1, cfg.opo2, "P")[0], (0.2813, -0.0056)),
                (vac, -1.0, flat_psd(), (0.4548, 0.1393)),
                (vac, +1.0, flat_psd(), (0.4548, 0.1393))]
    for rec, sign, psd, quoted in readings:
        assert isinstance(rec, synth._ModeRecord) == drawn_with_mode
        if drawn_with_mode:
            values = rec.draw.values(sign)
        else:
            values = extract_modes(analysis.combo_series(rec, sign), mode).values
        assert values.size == m
        assert analysis._combo_variance(rec, sign, mode) == pytest.approx(
            np.var(values, ddof=1), rel=1e-13, abs=0.0)
        h = cfg.chain.detected_psd(psd(omega), omega) * weight
        c = [np.sum(h * np.cos(2.0 * np.pi * k * lag * hop / n)) for lag in range(3)]
        rho = (c[1] / c[0], c[2] / c[0])
        assert rho == pytest.approx(quoted, abs=5e-5)
        a = mode_autocovariance(psd, cfg.chain, cfg.fs, mode, n)[::hop]
        assert (a[1] / a[0], a[2] / a[0]) == pytest.approx(rho, rel=0.0, abs=1e-12)
        for lag, expected in zip((1, 2), rho):
            assert abs(_autocorrelation(values, lag) - expected) < 0.02, (rec.a.label, sign, lag)


def _combination_variances(records, mode):
    """The four readings of one repetition's (X, P, vacuum) records: X's
    diff-x, P's sum-p and the vacuum's two combinations."""
    x, p, vac = records
    return [analysis._combo_variance(rec, sign, mode)
            for rec, sign in ((x, -1.0), (p, +1.0), (vac, -1.0), (vac, +1.0))]


@pytest.mark.parametrize("width", [2e-8, 2e-7], ids=("20ns", "0.2us"))
def test_mode_space_readings_have_the_law_of_the_full_draw(calibrated_pair, width):
    # over 400 repetitions of a 10,000-sample record through the default
    # chain, the mode-space and full-draw readings of each combination
    # agree in mean, each mean sits at mean(S_q), and each spread is the
    # exact standard error sqrt(2 sum_q S_q^2)/m of a sample variance of
    # the m circulant Gaussian mode values
    fs, duration, reps = 50e6, 2e-4, 400
    chain, mode = DetectionChain(), TemporalMode.square(width)
    n = block_length(duration, fs)
    hop = mode.n_samples(fs)
    window = placed_window(mode, fs, 1, n)
    psds = (beam_spectra(*calibrated_pair, "X")[1],
            beam_spectra(*calibrated_pair, "P")[0], flat_psd(), flat_psd())
    spectra = [mode_value_spectrum(_power(psd, chain, n, fs), window, n, hop) for psd in psds]
    readings = {}
    for m in (None, mode):
        rows = []
        for i in range(reps):
            seqs = synth._children(np.random.SeedSequence(2024, spawn_key=(i,)), 3)
            records = (epr_record(*calibrated_pair, duration, fs, "X", seqs[0], chain=chain,
                                  mode=m),
                       epr_record(*calibrated_pair, duration, fs, "P", seqs[1], chain=chain,
                                  mode=m),
                       vacuum_record(duration, fs, seqs[2], chain=chain, mode=m))
            assert all(isinstance(r, synth._ModeRecord) == (m is not None) for r in records)
            rows.append(_combination_variances(records, mode))
        readings[m] = np.array(rows)
    band = 4.0 / math.sqrt(2.0 * (reps - 1))  # 4 sigma of a sample standard deviation
    for j, s in enumerate(spectra):
        se = math.sqrt(2.0 * np.sum(s * s)) / s.size
        full, drawn = readings[None][:, j], readings[mode][:, j]
        z = (drawn.mean() - full.mean()) / math.sqrt((full.var(ddof=1) + drawn.var(ddof=1))
                                                     / reps)
        assert abs(z) < 4.0, (j, z)
        for values in (full, drawn):
            assert abs(values.mean() - s.mean()) < 4.0 * se / math.sqrt(reps), j
            assert abs(values.std(ddof=1) / se - 1.0) < band, (j, values.std(ddof=1) / se)


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
