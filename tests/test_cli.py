"""Command line driver: verbs, exit codes, provenance, determinism."""

import importlib.util
import json
import math
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eprsim import (QuadratureError, TemporalMode, combine_reports, detect,
                    epr_record, epr_report, epr_spectra, mode_duan, vacuum_record)
from eprsim import analysis, cli, synth
from eprsim.cli import main
from eprsim.config import load_config
from eprsim.modes import KINDS, MAX_RATE
from eprsim.spectra import MIN_HWHM
from eprsim.synth import block_length

PAPER_CFG = Path(__file__).resolve().parents[1] / "paper.cfg"

FAST = {
    "opo1": {"pump_param": 0.2946916681592473, "hwhm": 7e6, "efficiency": 0.9,
             "squeeze_phase": "P"},
    "opo2": {"pump_param": 0.2567392052616914, "hwhm": 7e6, "efficiency": 0.9,
             "squeeze_phase": "X"},
    "chain": {"detector_bandwidth": 8.4e6, "highpass_cutoff": 5e3,
              "electronic_noise_db": -20.0, "adc_rate": 50e6, "adc_bits": None},
    "fs": 50e6,
    "duration": 2e-4,
    "mode": {"kind": "square", "duration": 2e-7},
    "repetitions": 2,
    "seed": 1234,
    "output_dir": "out",
}


@pytest.fixture
def fast_cfg(tmp_path):
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(FAST))
    return path


def _read_csv(path: Path):
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def test_run_produces_all_outputs(fast_cfg, tmp_path, capsys):
    out = tmp_path / "results"
    rc = main(["run", "--config", str(fast_cfg), "--out", str(out)])
    assert rc == 0
    for name in ("report.csv", "diagram_x.csv", "diagram_p.csv",
                 "trace_x.csv", "trace_p.csv", "psd_x.csv", "psd_p.csv"):
        assert (out / name).exists(), name

    meta, header, rows = _read_csv(out / "report.csv")
    assert meta["command"] == "run"
    assert meta["seed"] == "1234"
    assert len(meta["fingerprint"]) == 64
    assert header[0] == "rep"
    assert [r[0] for r in rows] == ["0", "1", "summary"]
    summary = rows[-1]
    assert float(summary[1]) < -1.0   # squeezed well below vacuum
    assert float(summary[2]) < -1.0
    assert 0.0 < float(summary[3]) < 1.0
    captured = capsys.readouterr().out
    assert "duan:" in captured
    assert "modes per repetition: 1000" in captured

    _, _, diagram_rows = _read_csv(out / "diagram_x.csv")
    assert len(diagram_rows) == 1000
    _, _, trace_rows = _read_csv(out / "trace_x.csv")
    assert len(trace_rows) == 50
    assert trace_rows[0][0] == "0"


def test_run_is_byte_identical_across_reruns(fast_cfg, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(fast_cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(fast_cfg), "--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_thread_count_does_not_change_results(fast_cfg, tmp_path, monkeypatch):
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    monkeypatch.setenv("EPR_THREADS", "1")
    assert main(["run", "--config", str(fast_cfg), "--out", str(out1)]) == 0
    monkeypatch.setenv("EPR_THREADS", "2")
    assert main(["run", "--config", str(fast_cfg), "--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert len(names) == 7 and names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def _rep_rows(cfg, out, *args):
    """Per-repetition (var_diff_x_db, var_sum_p_db, duan) rows of a run."""
    assert main(["run", "--config", str(cfg), "--out", str(out), *args]) == 0
    return [tuple(r[1:4]) for r in _read_csv(out / "report.csv")[2][:-1]]


def test_nearby_seeds_share_no_repetition(fast_cfg, tmp_path):
    s = FAST["seed"]
    base = _rep_rows(fast_cfg, tmp_path / "s", "--seed", str(s), "--reps", "3")
    for other in (s + 1, s + 10):
        rows = _rep_rows(fast_cfg, tmp_path / str(other), "--seed", str(other),
                         "--reps", "3")
        assert not set(rows) & set(base), other


def test_fewer_repetitions_are_a_prefix(fast_cfg, tmp_path):
    three = _rep_rows(fast_cfg, tmp_path / "r3", "--reps", "3")
    five = _rep_rows(fast_cfg, tmp_path / "r5", "--reps", "5")
    assert three == five[:3]


def test_huge_seed_runs_and_reruns_identically(fast_cfg, tmp_path):
    seed = str(2 ** 70)
    out1, out2 = tmp_path / "h1", tmp_path / "h2"
    for out in (out1, out2):
        assert main(["run", "--config", str(fast_cfg), "--out", str(out),
                     "--seed", seed]) == 0
    assert _read_csv(out1 / "report.csv")[0]["seed"] == seed
    for path in sorted(out1.iterdir()):
        assert path.read_bytes() == (out2 / path.name).read_bytes(), path.name


def test_sweep_mc_check_does_not_replay_a_run(fast_cfg, tmp_path):
    # the --mc-check run at a grid endpoint has its own streams, not those
    # of a run at a fixed offset of the seed (formerly seed + 1,000,000)
    out = tmp_path / "swmc"
    assert main(["sweep", "--config", str(fast_cfg), "--var", "efficiency",
                 "--grid", "0.9:1:2", "--mc-check", "--out", str(out)]) == 0
    duan_mc = _read_csv(out / "sweep.csv")[2][0][3]
    assert FAST["opo1"]["efficiency"] == FAST["opo2"]["efficiency"] == 0.9
    run = tmp_path / "run"
    assert main(["run", "--config", str(fast_cfg), "--out", str(run), "--reps", "1",
                 "--seed", str(FAST["seed"] + 1_000_000)]) == 0
    rows = _read_csv(run / "report.csv")[2]
    assert duan_mc != "" and duan_mc not in (rows[0][3], rows[1][3])


def test_opo_order_does_not_change_monte_carlo_outputs(tmp_path):
    # beam 1 is the P-squeezed OPO whichever entry lists it
    # (spectra.beam_spectra), so run and sweep --mc-check on the config
    # with opo1 and opo2 exchanged write the same files but for the
    # fingerprint
    swapped = dict(FAST, opo1=FAST["opo2"], opo2=FAST["opo1"])
    outputs = []
    for name, table in (("fast", FAST), ("swapped", swapped)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(table))
        out = tmp_path / name
        assert main(["run", "--config", str(path), "--out", str(out / "run")]) == 0
        assert main(["sweep", "--config", str(path), "--var", "T", "--grid", "2e-7:2e-6:2",
                     "--mc-check", "--out", str(out / "sweep")]) == 0
        outputs.append({f.relative_to(out): [line for line in f.read_text().splitlines()
                                             if not line.startswith("# fingerprint=")]
                        for f in out.rglob("*.csv")})
    assert len(outputs[0]) == 8
    assert outputs[0] == outputs[1]


# run configs, as edits of FAST, whose repetitions after the first draw in
# mode space, and those whose chain or mode keeps the full draw
MODE_SPACE = {
    "paper_chain": {},
    "decimating_chain": {"fs": 100e6, "duration": 1e-4},
    "trimmed_block": {"duration": 9999 / 50e6},  # 9,999 samples of a 10,000 block
    "double_exp_mode": {"mode": {"kind": "double_exp", "rate": 1e7, "support": 5e-7}},
}
FULL_DRAW = {
    "quantizing_chain": {"chain": dict(FAST["chain"], adc_bits=12)},
    "undivided_block": {"mode": {"kind": "square", "duration": 7e-7}},  # 35 samples
}


def _records(cfg, seq, mode=None):
    """The (X, P, vacuum) records of the repetition seeded by seq, as
    _one_repetition draws them: in full without a mode, else in mode space
    where the chain and the mode allow it."""
    x_seed, p_seed, v_seed = synth._children(seq, 3)
    return (epr_record(cfg.opo1, cfg.opo2, cfg.duration, cfg.fs, "X", x_seed,
                       chain=cfg.chain, mode=mode),
            epr_record(cfg.opo1, cfg.opo2, cfg.duration, cfg.fs, "P", p_seed,
                       chain=cfg.chain, mode=mode),
            vacuum_record(cfg.duration, cfg.fs, v_seed, chain=cfg.chain, mode=mode))


def _pooled(repetitions, cfg):
    """epr_report of each repetition's (X, P, vacuum) records, pooled by
    combine_reports."""
    return combine_reports([epr_report(*records, cfg.mode) for records in repetitions])


def test_report_pools_repetition_0_in_full_and_the_rest_in_mode_space(tmp_path):
    # run's report.csv is the pooled epr_report of repetition 0's records
    # drawn in full and of every later repetition's records drawn in mode
    # space, each from its own branch of the spawn tree
    path = tmp_path / "three.json"
    path.write_text(json.dumps(dict(FAST, repetitions=3)))
    out = tmp_path / "run"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0

    cfg = load_config(path)
    report0, files0, expected_ref = cli._run_pipeline(cfg)
    seqs = np.random.SeedSequence(cfg.seed, spawn_key=(0,)).spawn(3)
    reps = [_records(cfg, seqs[0])] + [_records(cfg, seq, cfg.mode) for seq in seqs[1:]]
    assert [isinstance(r[0], synth._ModeRecord) for r in reps] == [False, True, True]
    report = _pooled(reps, cfg)
    assert report == report0
    # a full draw of a later repetition gives other readings
    assert _pooled([_records(cfg, seqs[1])], cfg).per_rep != report0.per_rep[1:2]

    # the expectation recorded is the exact mean of the ddof=1 reference
    # variance the check uses, not c_0
    law_mean = cli.sample_variance_law(None, cfg.chain, cfg.fs, cfg.mode, cfg.duration)[0]
    assert expected_ref == law_mean
    assert expected_ref != cli.expected_mode_variance(None, cfg.chain, cfg.fs, cfg.mode)
    text = (out / "report.csv").read_text()
    assert f"# expected_ref_variance={law_mean:.12g}\n" in text
    header = next(ln for ln in text.splitlines() if not ln.startswith("#")).split(",")
    cli._write_csv(tmp_path / "all.csv",
                   cli._meta(cfg, "run", repetitions=3, expected_ref_variance=expected_ref),
                   header, cli._report_rows(report))
    assert (tmp_path / "all.csv").read_bytes() == (out / "report.csv").read_bytes()
    # the other files are rendered from repetition 0's full records
    files, dx, dp = cli._run_files(cfg, *reps[0])
    assert files == files0[0] and len(files) == 6
    for name, text in files.items():
        assert (out / name).read_text() == text, name
    assert (dx.pearson_r, dp.pearson_r) == (files0[1].pearson_r, files0[2].pearson_r)


@pytest.mark.parametrize("case", [*MODE_SPACE, *FULL_DRAW])
def test_repetition_0_is_read_from_its_full_records(case, tmp_path):
    # run's row 0 is epr_report of repetition 0's records drawn in full,
    # which are plain series read from their samples; the later rows are
    # read from records drawn in mode space where the chain and the mode
    # allow it, and from full records otherwise
    path = tmp_path / "three.json"
    path.write_text(json.dumps(dict(FAST, repetitions=3, **{**MODE_SPACE, **FULL_DRAW}[case])))
    cfg = load_config(path)
    report0 = cli._run_pipeline(cfg)[0]
    seqs = np.random.SeedSequence(cfg.seed, spawn_key=(0,)).spawn(3)
    reps = [_records(cfg, seqs[0])] + [_records(cfg, seq, cfg.mode) for seq in seqs[1:]]
    assert all(type(s) is synth.TimeSeries for r in reps[0] for s in (r.a, r.b))
    assert all(isinstance(r, synth._ModeRecord) == (case in MODE_SPACE)
               for records in reps[1:] for r in records)
    assert _pooled(reps, cfg) == report0


def _counting_irffts(monkeypatch):
    """Patches np.fft.irfft to record (length, whether the calling thread
    made the call) of each inverse FFT, in call order."""
    calls, irfft, caller = [], np.fft.irfft, threading.current_thread()

    def counting(a, n=None, *args, **kwargs):
        calls.append((2 * (len(a) - 1) if n is None else n,
                      threading.current_thread() is caller))
        return irfft(a, n, *args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", counting)
    return calls


def _mode_space_size(cfg):
    """(size, m) of cfg's records drawn in mode space: the n/hop values of
    the draw's circular sequence and the m a reading takes (synth.layout)."""
    n, _, hop, m = synth.layout(cfg.duration, cfg.fs, cfg.chain, cfg.mode)
    return n // hop, m


@pytest.mark.parametrize("case", [*MODE_SPACE, *FULL_DRAW])
def test_only_repetition_0_draws_blocks_where_mode_space_is_possible(case, tmp_path,
                                                                     monkeypatch):
    # where the chain is linear and the mode's spacing divides the block,
    # repetition 0 draws six block beams and takes six full-block inverse
    # FFTs, for its report and its files, and every later repetition draws
    # four beams of size//2 + 1 mode-value coefficients. A later
    # repetition whose readings take all size values inverts none of them
    # (analysis reads the variance by Parseval); one whose record is
    # trimmed (m < size) inverts each of its four combinations once, at
    # length size. Otherwise every repetition draws and builds its records
    # in full. The run's reference law (sample_variance_law) takes one
    # block-length inverse FFT, the lag covariance, on the calling thread
    path = tmp_path / "five.json"
    path.write_text(json.dumps(dict(FAST, **{**MODE_SPACE, **FULL_DRAW}[case])))
    cfg = load_config(path)
    block = block_length(cfg.duration, cfg.fs)
    draws, coefficients = [], synth._coefficients

    def counting_draws(amp, n, rng):
        draws.append(n)
        return coefficients(amp, n, rng)

    calls = _counting_irffts(monkeypatch)
    monkeypatch.setattr(synth, "_coefficients", counting_draws)
    assert main(["run", "--config", str(path), "--reps", "5",
                 "--out", str(tmp_path / "run")]) == 0
    assert [n for n, on_caller in calls if on_caller] == [block]
    workers = [n for n, on_caller in calls if not on_caller]
    if case in MODE_SPACE:
        size, m = _mode_space_size(cfg)
        assert (m < size) == (case == "trimmed_block")
        assert sorted(draws) == sorted([block] * 6 + [size] * 4 * 4)
        assert sorted(workers) == sorted([block] * 6 + [size] * 4 * 4 * (m < size))
    else:
        assert draws == [block] * 6 * 5
        assert workers == [block] * 6 * 5


@pytest.mark.parametrize("case", [*MODE_SPACE, *FULL_DRAW])
def test_sweep_check_draws_in_mode_space_where_it_can(case, tmp_path, monkeypatch):
    # a checked sweep point has no files, so its one repetition draws four
    # beams in mode space and takes no full-block inverse FFT where the
    # chain is linear and the mode's spacing divides the block: none at
    # all where its readings take all size values, one of length size per
    # combination where the record is trimmed. A quantizing chain or an
    # undivided block still draws six block beams. Each point's reference
    # law takes one block-length inverse FFT on the calling thread
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(dict(FAST, **{**MODE_SPACE, **FULL_DRAW}[case])))
    cfg = load_config(path)
    block = block_length(cfg.duration, cfg.fs)
    calls = _counting_irffts(monkeypatch)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(path), "--var", "efficiency",
                 "--grid", "0.9:1:2", "--mc-check", "--out", str(out)]) == 0
    assert [n for n, on_caller in calls if on_caller] == [block] * 2
    workers = [n for n, on_caller in calls if not on_caller]
    if case in MODE_SPACE:
        size, m = _mode_space_size(cfg)
        assert workers == [size] * 4 * 2 * (m < size)
    else:
        assert workers == [block] * 6 * 2
    _, _, rows = _read_csv(out / "sweep.csv")
    assert all(row[3] for row in rows)


def test_reference_law_is_computed_while_the_repetitions_draw(fast_cfg, monkeypatch):
    # the law runs on the calling thread after every repetition is
    # submitted: repetitions that wait for it finish. A repetition's
    # exception is raised before the law's, and the law's when none fails
    cfg = load_config(fast_cfg)
    law, repetition = cli.sample_variance_law, cli._one_repetition
    computed = threading.Event()
    law_threads, waited = [], []

    def recording_law(*args):
        law_threads.append(threading.current_thread())
        computed.set()
        return law(*args)

    def waiting(*args):
        waited.append(computed.wait(timeout=10.0))
        return repetition(*args)

    monkeypatch.setattr(cli, "sample_variance_law", recording_law)
    monkeypatch.setattr(cli, "_one_repetition", waiting)
    report, _, expected_ref = cli._run_pipeline(replace(cfg, repetitions=3))
    assert waited == [True] * 3 and law_threads == [threading.current_thread()]
    assert report.repetitions == 3 and expected_ref == law(None, cfg.chain, cfg.fs,
                                                           cfg.mode, cfg.duration)[0]

    def failing_law(*args):
        raise QuadratureError("synthetic law failure")

    def failing_repetition(cfg, seq, files=False):
        raise FloatingPointError("synthetic repetition failure")

    monkeypatch.setattr(cli, "sample_variance_law", failing_law)
    monkeypatch.setattr(cli, "_one_repetition", repetition)
    with pytest.raises(QuadratureError, match="synthetic law failure"):
        cli._run_pipeline(cfg)
    monkeypatch.setattr(cli, "_one_repetition", failing_repetition)
    with pytest.raises(FloatingPointError, match="synthetic repetition failure"):
        cli._run_pipeline(cfg)


def _scipy_modules_after(code: str, *args: str) -> str:
    """The scipy modules loaded once code has run in a fresh interpreter
    with src on its path (args follow src in sys.argv)."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (f"import sys; sys.path.insert(0, sys.argv[1]); {code}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code, str(src), *args],
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_scipy_signal_and_optimize_out():
    assert _scipy_modules_after("import eprsim.cli") == "[]"


def test_cli_run_loads_no_scipy(fast_cfg, tmp_path):
    code = "from eprsim.cli import main; assert main(sys.argv[2:]) == 0"
    loaded = _scipy_modules_after(code, "run", "--config", str(fast_cfg),
                                  "--out", str(tmp_path / "o"))
    assert loaded == "[]"
    assert (tmp_path / "o" / "psd_x.csv").exists()


@pytest.mark.parametrize("chain, field", [
    ({"adc_rate": 30e6}, "chain.adc_rate"),
    ({"highpass_cutoff": 30e6, "detector_bandwidth": 40e6}, "chain.highpass_cutoff"),
    ({"adc_rate": 1e-310}, "chain.adc_rate"),
    ({"electronic_noise_db": 2000.0}, "chain.electronic_noise_db"),
    ({"electronic_noise_db": 4000.0}, "chain.electronic_noise_db"),
], ids=("adc_rate_not_a_divisor", "highpass_above_nyquist", "subnormal_adc_rate",
        "noise_2000_db", "noise_4000_db"))
def test_chain_relations_are_rejected_at_parse_time(tmp_path, capsys, chain, field):
    # both verbs stop before any work, naming the field; the last three
    # once ended run in an OverflowError traceback
    table = json.loads(PAPER_CFG.read_text())
    table["chain"].update(chain)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(table))
    for verb in ("spectra", "run"):
        out = tmp_path / verb
        assert main([verb, "--config", str(path), "--out", str(out)]) == 2
        assert f"bad.json: {field}: " in capsys.readouterr().err
        assert not out.exists()


def test_bad_thread_env_is_config_error(fast_cfg, tmp_path, monkeypatch):
    monkeypatch.setenv("EPR_THREADS", "many")
    rc = main(["run", "--config", str(fast_cfg), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_thread_env_below_one_is_config_error(fast_cfg, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("EPR_THREADS", "0")
    rc = main(["run", "--config", str(fast_cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "EPR_THREADS" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_worker_count_is_bounded_by_cores_and_reps(monkeypatch):
    # called directly: a run with a large EPR_THREADS would start threads
    cores = 3
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
    monkeypatch.delenv("EPR_THREADS", raising=False)
    assert [cli._worker_count(r) for r in (1, 2, 5000)] == [1, 2, cores]
    monkeypatch.setenv("EPR_THREADS", "5000")
    assert cli._worker_count(5000) == cores
    monkeypatch.setenv("EPR_THREADS", "2")
    assert [cli._worker_count(r) for r in (1, 5000)] == [1, 2]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._worker_count(5000) == 1
    for bad in ("0", "-5", "many", "1.5"):
        monkeypatch.setenv("EPR_THREADS", bad)
        with pytest.raises(cli.ConfigError, match="EPR_THREADS"):
            cli._worker_count(4)


def test_repetitions_draw_four_beams_from_their_own_streams(fast_cfg, monkeypatch):
    # a repetition with files draws all six beams of its records as blocks
    # from the streams (..., 0) and (..., 1); any other repetition draws
    # the four beams its report reads (X's beam 2, P's beam 1 and both
    # vacuum beams) in mode space, from (..., 2) and (..., 3)
    cfg = load_config(fast_cfg)

    def seq():  # _one_repetition builds its streams from the key of the sequence it is given
        return np.random.SeedSequence(cfg.seed, spawn_key=(0, 0))

    keys = []
    coefficients = synth._coefficients

    def counting(amp, n, rng):
        keys.append((n, rng.bit_generator.seed_seq.spawn_key[-2:]))
        return coefficients(amp, n, rng)

    monkeypatch.setattr(synth, "_coefficients", counting)
    block, m = 10_000, 1_000
    report, files = cli._one_repetition(cfg, seq(), files=True)
    assert len(files[0]) == 6
    assert sorted(keys) == [(block, (i, k)) for i in range(3) for k in range(2)]
    keys.clear()
    report_mode, files = cli._one_repetition(cfg, seq())
    assert files is None
    assert sorted(keys) == [(m, (0, 3)), (m, (1, 2)), (m, (2, 2)), (m, (2, 3))]
    assert report_mode.per_rep != report.per_rep


def test_one_repetition_leaves_its_sequence_unchanged(fast_cfg):
    # the three streams are built from seq's key, so the same sequence
    # object gives the same repetition twice, and the children of a fresh
    # sequence are those spawn gives
    cfg = load_config(fast_cfg)
    seq = np.random.SeedSequence(cfg.seed, spawn_key=(0, 0))
    for files in (False, True):
        first = cli._one_repetition(cfg, seq, files)[0]
        assert seq.n_children_spawned == 0
        again = cli._one_repetition(cfg, seq, files)[0]
        assert again.per_rep == first.per_rep
    fresh = np.random.SeedSequence(cfg.seed, spawn_key=(0, 0))
    for built, spawned in zip(synth._children(seq, 3), fresh.spawn(3), strict=True):
        assert np.array_equal(built.generate_state(4), spawned.generate_state(4))


def _fmt_lines(rows):
    return "".join(",".join(cli._fmt(v) for v in row) + "\n" for row in rows)


def test_csv_rows_are_formatted_as_fmt_writes_each_value(tmp_path):
    # a float64 array without NaN is formatted by one call over a row
    # template, and gives the bytes of _fmt of each value, as every other
    # table does
    edge = [-0.0, 0.0, np.inf, -np.inf, 5e-324, 1e16, 123456789012.0,
            1234567890123.0, 1 / 3, -2.5e-300, 1.7976931348623157e308]
    rng = np.random.default_rng(3)
    floats = np.concatenate([edge, rng.standard_normal(2000) * 10.0 ** rng.integers(
        -30, 30, 2000)])
    ints = [np.int64(-7), np.int32(0), 2 ** 70, np.uint64(2 ** 64 - 1), True]
    with_nan = floats.copy()
    with_nan[[3, 700]] = np.nan
    cases = [
        list(zip(range(floats.size), floats, floats[::-1])),
        [(i, float(v)) for i, v in zip(ints, edge)],
        list(zip(np.arange(5), [np.float32(0.1)] * 5)),
        [],
        list(zip(floats, floats[::-1])),
        [(v, np.float32(v)) for v in (0.1, -2.5, 1e16, 1 / 3, -0.0)],
        list(zip(floats, with_nan)),
        [(1.5, np.nan), (2.0, 3.0)],
        [(v, None) for v in edge],
        [(1.0, 2.0), (None, 3.0)],
        # float64 arrays: the template without NaN, _fmt of each value with
        np.column_stack((floats, floats[::-1])),
        np.column_stack((floats, floats[::-1], -floats)),
        np.array(edge).reshape(-1, 1),
        np.empty((0, 2)),
        np.column_stack((floats, with_nan)),
        np.array([[1.5, np.nan], [2.0, 3.0]]),
    ]
    for rows in cases:
        assert cli._data_lines(rows) == _fmt_lines(rows)
    path = tmp_path / "edge.csv"
    cli._write_csv(path, {"seed": 1}, ("i", "a", "b"), cases[0])
    assert path.read_text() == "# seed=1\ni,a,b\n" + _fmt_lines(cases[0])


def test_nan_and_none_stay_empty_fields(fast_cfg, tmp_path):
    out = tmp_path / "one"
    assert main(["run", "--config", str(fast_cfg), "--out", str(out), "--reps", "1"]) == 0
    _, _, rows = _read_csv(out / "report.csv")
    assert rows[0][0] == "0" and rows[0][4:] == ["", "", ""]   # None
    assert rows[1][0] == "summary" and rows[1][4:] == ["", "", ""]  # NaN SE
    rows = [(1, 2.0, np.nan), (np.int64(2), None, -0.0), ("x", 1e16, np.inf)]
    assert cli._data_lines(rows) == "1,2,\n2,,-0\nx,1e+16,inf\n"
    assert cli._data_lines([(1.5, np.nan), (2.0, 3.0)]) == "1.5,\n2,3\n"
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(fast_cfg), "--var", "efficiency",
                 "--grid", "0.5:0.9:3", "--mc-check", "--out", str(out)]) == 0
    duan_mc = [r[3] for r in _read_csv(out / "sweep.csv")[2]]
    assert duan_mc[1] == "" and "" not in (duan_mc[0], duan_mc[2])


def test_seed_and_reps_overrides(fast_cfg, tmp_path, capsys):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["run", "--config", str(fast_cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(fast_cfg), "--out", str(out2),
                 "--seed", "99", "--reps", "3"]) == 0
    meta1, _, rows1 = _read_csv(out1 / "report.csv")
    meta2, _, rows2 = _read_csv(out2 / "report.csv")
    assert meta1["fingerprint"] != meta2["fingerprint"]
    assert meta2["seed"] == "99"
    assert len(rows2) == 4  # three reps plus summary
    assert len(rows1) == 3

    capsys.readouterr()
    # a rejected override names the config field it replaces
    for flag, value, field in (("--seed", "-1", "seed"), ("--reps", "0", "repetitions"),
                               ("--reps", "10001", "repetitions")):
        assert main(["run", "--config", str(fast_cfg), flag, value,
                     "--out", str(tmp_path / "s3")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    assert not (tmp_path / "s3").exists()


def test_config_errors_exit_2(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["run", "--config", str(missing), "--out", str(tmp_path)]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2

    wrong = dict(FAST)
    wrong["fs"] = -1.0
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps(wrong))
    assert main(["run", "--config", str(bad2), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("field, value", [
    ("duration", math.nan),
    ("fs", math.inf),
    ("electronic_noise_db", math.nan),
])
def test_non_finite_numbers_exit_2(field, value, tmp_path, capsys):
    table = json.loads(json.dumps(FAST))
    (table["chain"] if field == "electronic_noise_db" else table)[field] = value
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(table))  # NaN and Infinity are JSON extensions
    assert main(["spectra", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "expected a finite number" in capsys.readouterr().err


# -- hostile configurations: paper.cfg with one field broken ----------------------

_PAPER = json.loads(PAPER_CFG.read_text())
_MISSING = object()  # marks a deleted field
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NEGATIVE = (st.floats(max_value=0.0, exclude_max=True, allow_infinity=False)
             | st.integers(max_value=-1))
_NOT_POSITIVE = st.floats(max_value=0.0, allow_infinity=False) | st.integers(max_value=0)

# values outside each field's own domain; relations between fields are
# drawn separately (_RELATIONS)
_OUT_OF_RANGE = {
    "pump_param": _NEGATIVE | st.floats(min_value=1.0, allow_infinity=False),
    "hwhm": _NOT_POSITIVE | st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
            | st.floats(min_value=1e15, exclude_min=True, allow_infinity=False),
    "efficiency": _NEGATIVE | st.floats(min_value=1.0, exclude_min=True,
                                        allow_infinity=False),
    "squeeze_phase": st.text(max_size=12).filter(lambda s: s not in ("X", "P")),
    "detector_bandwidth": _NOT_POSITIVE,
    "highpass_cutoff": _NOT_POSITIVE,
    "electronic_noise_db": st.floats(min_value=100.0, exclude_min=True, allow_infinity=False),
    "adc_rate": _NOT_POSITIVE,
    "adc_bits": st.integers(max_value=3) | st.integers(min_value=33),
    "fs": _NOT_POSITIVE,
    "duration": _NOT_POSITIVE,
    "kind": st.text(max_size=12).filter(lambda s: s not in KINDS),
    "repetitions": st.integers(max_value=0) | st.integers(min_value=10_001),
    "seed": st.integers(max_value=-1),
    "output_dir": st.just(""),
}
_STRINGS = ("squeeze_phase", "kind", "output_dir")
_INTEGERS = ("adc_bits", "repetitions", "seed")
_NULLABLE = ("electronic_noise_db", "adc_bits")  # null switches a chain stage off
_OPTIONAL = ("chain", "output_dir")
_FIELDS = [(table, field) for table, value in _PAPER.items()
           for field in (value if isinstance(value, dict) else [None])]


def _bad_values(table, field):
    """Values of one paper.cfg field that parsing must reject."""
    name = field or table
    bad = [_OUT_OF_RANGE[name],
           st.sampled_from([math.nan, math.inf, -math.inf]),
           st.lists(_FINITE | st.text(max_size=3), max_size=3),
           st.dictionaries(st.text(max_size=3), _FINITE, max_size=2),
           st.booleans()]
    if table not in _OPTIONAL:
        bad.append(st.just(_MISSING))
    if name not in _NULLABLE:
        bad.append(st.none())
    if name in _STRINGS:
        bad.append(_FINITE | st.integers())
    else:
        bad.append(st.text(max_size=5))
        # integers take no float; numbers take no integer beyond the float range
        bad.append(_FINITE if name in _INTEGERS else st.just(10 ** 400))
    return st.one_of(bad)


_FS, _ADC, _DURATION = _PAPER["fs"], _PAPER["chain"]["adc_rate"], _PAPER["duration"]
_MODE_T = _PAPER["mode"]["duration"]


def _between(lo, hi):
    return st.floats(min_value=lo, max_value=hi)


def _non_integer(lo, hi):
    return _between(lo, hi).filter(lambda r: abs(r - round(r)) > 1e-6)


def _edits(*keys):
    """Builds {(table, field): value} from values drawn for keys."""
    return lambda *values: dict(zip(keys, values))


# values that are each in range but break a relation between two fields, with
# the fields the message may name
_RELATIONS = [
    (("chain.adc_rate", "fs"), st.builds(  # above fs, or not dividing it
        _edits(("chain", "adc_rate")),
        _between(1.001 * _FS, 1e12) | st.builds(lambda r: _FS / r, _non_integer(1.0, 50.0)))),
    (("fs", "chain.adc_rate"), st.builds(  # below adc_rate, or not a multiple of it
        _edits(("fs", None)),
        _between(1e4, _ADC / 1.001) | st.builds(lambda r: _ADC * r, _non_integer(1.0, 20.0)))),
    (("chain.highpass_cutoff", "fs"), st.builds(  # at or above the Nyquist frequency
        _edits(("chain", "highpass_cutoff"), ("chain", "detector_bandwidth")),
        _between(0.499 * _FS, 1e9), st.just(2e9))),
    (("chain.highpass_cutoff", "chain.detector_bandwidth"), st.one_of(
        st.builds(_edits(("chain", "highpass_cutoff")),
                  _between(_PAPER["chain"]["detector_bandwidth"], 0.49 * _FS)),
        st.builds(_edits(("chain", "detector_bandwidth")),
                  _between(1.0, _PAPER["chain"]["highpass_cutoff"])))),
    (("mode.duration", "duration"), st.one_of(  # a mode longer than the record
        st.builds(_edits(("mode", "duration")), _between(1.001 * _DURATION, 1.0)),
        st.builds(_edits(("duration", None)), _between(2.1 / _FS, 0.99 * _MODE_T)))),
    (("mode.duration", "chain.adc_rate"), st.one_of(  # under one ADC sample
        st.builds(_edits(("mode", "duration")), _between(1e-12, 0.49 / _ADC)),
        st.builds(_edits(("chain", "adc_rate")),
                  st.builds(lambda r: _FS / r, st.integers(21, 10_000))))),
]


@st.composite
def _hostile_configs(draw):
    """(field paths the message may start with, config), from paper.cfg with
    one field out of its domain or one relation between fields broken."""
    cfg = json.loads(json.dumps(_PAPER))
    if draw(st.booleans()):
        paths, edits = draw(st.sampled_from(_RELATIONS).flatmap(
            lambda rel: st.tuples(st.just(rel[0]), rel[1])))
    else:
        table, field = draw(st.sampled_from(_FIELDS))
        paths = (f"{table}.{field}" if field else table,)
        edits = {(table, field): draw(_bad_values(table, field))}
    for (table, field), value in edits.items():
        parent, key = (cfg[table], field) if field else (cfg, table)
        if value is _MISSING:
            del parent[key]
        else:
            parent[key] = value
    return paths, cfg


@settings(deadline=None, max_examples=300, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_hostile_configs())
def test_hostile_config_exits_2_naming_the_field(case, tmp_path, capsys):
    paths, table = case
    cfg = tmp_path / "hostile.json"
    cfg.write_text(json.dumps(table))
    capsys.readouterr()
    rc = main(["spectra", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2, (paths, err)
    assert "Traceback" not in err
    message = err.partition(f"{cfg}: ")[2]
    assert message.startswith(paths), (paths, err)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_narrowest_cavities_run_without_numeric_warnings(tmp_path, capsys):
    # both OPOs at the lowest accepted hwhm: the spectra stay finite, so
    # spectra and run read them with no overflow or invalid operation
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps(dict(_PAPER, **{opo: dict(_PAPER[opo], hwhm=MIN_HWHM)
                                               for opo in ("opo1", "opo2")})))
    assert main(["spectra", "--config", str(path), "--out", str(tmp_path / "s")]) == 0
    assert main(["run", "--config", str(path), "--reps", "2",
                 "--out", str(tmp_path / "r")]) == 0
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("edits, field", [
    ({"duration": 3e-7}, "mode.duration"),       # 15 samples, one 0.2 us window
    ({"duration": 8e-7}, "duration"),            # 40 samples, under one Welch segment
    ({"opo1": dict(_PAPER["opo1"], hwhm=3e7)}, "fs"),  # aliases at 50 MS/s
], ids=("one_mode_window", "under_64_samples", "aliasing_fs"))
def test_run_rejects_monte_carlo_only_configs_before_drawing(tmp_path, capsys, edits,
                                                             field):
    # valid configs (spectra takes them) that run cannot draw or read
    path = tmp_path / "mc.json"
    path.write_text(json.dumps(dict(_PAPER, **edits)))
    assert main(["spectra", "--config", str(path), "--out", str(tmp_path / "s")]) == 0
    capsys.readouterr()
    out = tmp_path / "run"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"config error: {field}: "), err
    assert not out.exists()


def test_benchmark_tracer_installs_on_this_package():
    # perfbench wraps functions where eprsim binds them (eprsim.cli.detect,
    # eprsim.synth.epr_spectra, ...); dropping one of those names must fail
    # here, not only when the benchmark runs
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        tracer = module.Tracer()
        try:
            tracer.install()
            assert cli.detect is not detect
        finally:
            tracer.uninstall()
    finally:
        del sys.modules[spec.name]
    assert cli.detect is detect


def test_usage_errors_exit_2(fast_cfg, tmp_path):
    assert main([]) == 2
    assert main(["frobnicate", "--config", str(fast_cfg)]) == 2
    assert main(["sweep", "--config", str(fast_cfg), "--var", "T",
                 "--grid", "1e-7", "--out", str(tmp_path / "g")]) == 2
    assert main(["sweep", "--config", str(fast_cfg), "--var", "T",
                 "--grid", "2e-7:1e-7:5", "--out", str(tmp_path / "g")]) == 2
    assert main(["sweep", "--config", str(fast_cfg), "--var", "T",
                 "--grid", "0:1e-7:5", "--log", "--out", str(tmp_path / "g")]) == 2


def test_numeric_failure_exits_3(fast_cfg, tmp_path, monkeypatch, capsys):
    def boom(cfg):
        raise QuadratureError("synthetic quadrature blowup")

    monkeypatch.setattr("eprsim.cli._run_pipeline", boom)
    rc = main(["run", "--config", str(fast_cfg), "--out", str(tmp_path / "o")])
    assert rc == 3
    monkeypatch.undo()

    # a vacuum reference 20 % off its expectation, read from its samples:
    # one repetition's two references of 10,000 modes put 5 pooled SE at 5 %
    path = tmp_path / "long.json"
    path.write_text(json.dumps(dict(FAST, duration=2e-3, repetitions=1)))
    law = cli.sample_variance_law
    monkeypatch.setattr("eprsim.cli.sample_variance_law",
                        lambda *args: (1.2 * law(*args)[0], law(*args)[1]))
    readings = []
    extract = analysis.extract_modes

    def counting(series, mode):
        readings.append(series.n)
        return extract(series, mode)

    monkeypatch.setattr(analysis, "extract_modes", counting)
    capsys.readouterr()
    out = tmp_path / "c"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 3
    assert "vacuum reference variance" in capsys.readouterr().err
    assert readings == [100_000] * 4  # the reference's two combinations, X, P, then the check
    assert not out.exists()


def test_a_reference_3_percent_high_exits_3(tmp_path, monkeypatch, capsys):
    # paper.cfg's reference drawn through a noisier chain (-14.2 dB of
    # electronic noise, not -20 dB) reads 3 % high: the pooled check of 10
    # repetitions has 5 SE at 1.6 %, while a rule of 5 SE per reference
    # taken from the mode count (7.1 %) passes every repetition of this run
    cfg = load_config(PAPER_CFG)
    noisy = replace(cfg.chain, electronic_noise_db=-14.2)
    high = cli.sample_variance_law(None, noisy, cfg.fs, cfg.mode, cfg.duration)[0]
    mean, sd = cli.sample_variance_law(None, cfg.chain, cfg.fs, cfg.mode, cfg.duration)
    assert 1.03 < high / mean < 1.031
    assert 5.0 * sd / math.sqrt(20) < 0.016 * mean
    draw = cli.vacuum_record
    monkeypatch.setattr(cli, "vacuum_record", lambda duration, fs, seed, chain, mode:
                        draw(duration, fs, seed, chain=noisy, mode=mode))
    out = tmp_path / "o"
    assert main(["run", "--config", str(PAPER_CFG), "--out", str(out), "--reps", "10"]) == 3
    assert "mean of 20" in capsys.readouterr().err
    assert not out.exists()


def test_a_quantizing_chain_passes_the_reference_check(tmp_path, capsys):
    # a 6-bit ADC adds Sheppard's Delta^2/12 = 0.0081 to each reference
    # variance, 6 pooled SE of 50 repetitions of 10,000 modes: the law
    # holds the term, so the run passes
    chain = dict(_PAPER["chain"], adc_bits=6)
    path = tmp_path / "adc6.json"
    path.write_text(json.dumps(dict(_PAPER, chain=chain, repetitions=50)))
    cfg = load_config(path)
    mean, sd = cli.sample_variance_law(None, cfg.chain, cfg.fs, cfg.mode, cfg.duration)
    step = 20.0 / 2 ** 6
    linear = cli.sample_variance_law(None, replace(cfg.chain, adc_bits=None), cfg.fs,
                                     cfg.mode, cfg.duration)[0]
    assert mean - linear == pytest.approx(step ** 2 / 12.0, rel=1e-9)
    assert (mean - linear) / (sd / math.sqrt(100)) > 6.0
    with pytest.warns(UserWarning, match="quantization step"):
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert "repetitions: 50, modes per repetition: 10000" in capsys.readouterr().out


def test_run_prints_standard_errors_to_two_significant_digits(fast_cfg, tmp_path,
                                                              monkeypatch, capsys):
    # 10,000 repetitions put the dB SEs near 5e-4, which a fixed 3 decimals
    # printed as 0.000
    pipeline = cli._run_pipeline

    def small(cfg):
        report, files, expected_ref = pipeline(cfg)
        return replace(report, var_diff_x_db_se=4.5e-4, var_sum_p_db_se=3.04e-5,
                       duan_se=0.02), files, expected_ref

    monkeypatch.setattr(cli, "_run_pipeline", small)
    assert main(["run", "--config", str(fast_cfg), "--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert "dB (se 0.00045)" in out and "dB (se 3.0e-05)" in out
    assert "(se 0.020, separable bound 1)" in out


def test_a_failing_later_repetition_leaves_no_file(fast_cfg, tmp_path, monkeypatch, capsys):
    # repetition 0 renders its files in its worker while later repetitions
    # draw, but run writes nothing until every repetition has succeeded
    report, render = cli.epr_report, cli._run_files
    rendered = []

    def failing(x, p, vacuum, *args):
        if isinstance(vacuum, synth._ModeRecord):  # drawn in mode space: a later repetition
            raise FloatingPointError("synthetic numeric failure")
        return report(x, p, vacuum, *args)

    def counting(*args):
        rendered.append(render(*args))
        return rendered[-1]

    monkeypatch.setattr(cli, "epr_report", failing)
    monkeypatch.setattr(cli, "_run_files", counting)
    monkeypatch.setenv("EPR_THREADS", "2")
    out = tmp_path / "o"
    assert main(["run", "--config", str(fast_cfg), "--out", str(out), "--reps", "4"]) == 3
    assert "synthetic numeric failure" in capsys.readouterr().err
    assert len(rendered) == 1 and len(rendered[0][0]) == 6
    assert not out.exists()


def test_unwritable_output_exits_4(fast_cfg, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    out = blocker / "sub"
    rc = main(["spectra", "--config", str(fast_cfg), "--out", str(out)])
    assert rc == 4


def test_spectra_tables(fast_cfg, tmp_path):
    out = tmp_path / "spec"
    assert main(["spectra", "--config", str(fast_cfg), "--out", str(out)]) == 0
    meta, header, rows = _read_csv(out / "psd_x.csv")
    assert header == ["freq_hz", "db"]
    assert len(rows) == 251
    assert float(rows[0][0]) == pytest.approx(1e3)
    assert float(rows[-1][0]) == pytest.approx(1e8)
    # squeezed branch stays below vacuum everywhere
    assert all(float(r[1]) < 0.0 for r in rows)

    _, header_v, rows_v = _read_csv(out / "variances.csv")
    assert header_v[0] == "T_s"
    assert len(rows_v) == 151
    duans = [float(r[5]) for r in rows_v]
    assert min(duans) < 0.45


def test_spectra_degenerate_pumps_read_vacuum(fast_cfg, tmp_path):
    table = json.loads(Path(fast_cfg).read_text())
    table["opo1"]["pump_param"] = 0.0
    table["opo2"]["pump_param"] = 0.0
    cfg = Path(fast_cfg).parent / "degen.json"
    cfg.write_text(json.dumps(table))
    out = Path(fast_cfg).parent / "degen_out"
    assert main(["spectra", "--config", str(cfg), "--out", str(out)]) == 0
    _, _, rows_v = _read_csv(out / "variances.csv")
    assert all(float(r[1]) == 1.0 and float(r[2]) == 1.0 for r in rows_v)


def test_sweep_matches_analytic_duan(fast_cfg, tmp_path):
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(fast_cfg), "--var", "T",
                 "--grid", "5e-8:2e-6:4", "--log", "--out", str(out)]) == 0
    meta, header, rows = _read_csv(out / "sweep.csv")
    assert meta["variable"] == "T"
    assert header == ["variable", "value", "duan", "duan_mc"]
    cfg = load_config(fast_cfg)
    spectra = epr_spectra(cfg.opo1, cfg.opo2)
    values = np.geomspace(5e-8, 2e-6, 4)
    for row, value in zip(rows, values):
        assert float(row[1]) == pytest.approx(value, rel=1e-10)
        expected = mode_duan(spectra, TemporalMode.square(float(value)))
        assert float(row[2]) == pytest.approx(expected, rel=1e-9)
        assert row[3] == ""  # no Monte Carlo column without --mc-check


def test_sweep_efficiency_reaches_vacuum_and_mc_checks(fast_cfg, tmp_path):
    out = tmp_path / "swe"
    assert main(["sweep", "--config", str(fast_cfg), "--var", "efficiency",
                 "--grid", "0:0.9:3", "--mc-check", "--out", str(out)]) == 0
    _, _, rows = _read_csv(out / "sweep.csv")
    duans = [float(r[2]) for r in rows]
    assert duans[0] == 1.0    # no detected squeezing at zero efficiency
    assert duans[0] > duans[1] > duans[2]
    assert rows[0][3] != "" and rows[2][3] != ""
    assert rows[1][3] == ""
    for row in (rows[0], rows[2]):
        assert abs(float(row[3]) - float(row[2])) < 0.25


def test_sweep_range_validation(fast_cfg, tmp_path, capsys):
    # a rejected point is named before the field that rejects it
    # T below one ADC sample has an analytic value; only a Monte Carlo
    # check there is rejected
    # (every endpoint, with the Monte Carlo rules, before any draw)
    for var, grid, flags, point, edits in (
            ("pump_param", "0.5:1.5:3", (), "pump_param=1: pump_param: ", {}),
            ("efficiency", "0.5:1.5:3", (), "efficiency=1.5: efficiency: ", {}),
            ("T", "1e-7:1:3", (), "T=0.5: mode.duration: ", {}),
            ("T", "0:1e-6:3", (), "T=0: duration: ", {}),
            ("T", "1e-9:1e-8:3", ("--mc-check",),
             "T=1e-09: mode.duration: spans no sample at the ADC rate", {}),
            ("T", "1e-7:2.5e-7:2", ("--mc-check",),  # one mode window
             "T=2.5e-07: mode.duration: ", {"duration": 3e-7}),
            ("efficiency", "0.5:0.9:2", ("--mc-check",),  # aliasing fs
             "efficiency=0.5: fs: ", {"opo1": dict(FAST["opo1"], hwhm=3e7)}),
            # bounds a user never gave, and unbounded work, before any point
            ("T", "2e-7:inf:3", (), "requires finite lo < hi", {}),
            ("T", "2e-7:nan:3", ("--log",), "requires finite lo < hi", {}),
            ("T", "2e-7:2e-6:10000000000000", (), "requires finite lo < hi and "
             "2 <= n <= 10000, got '2e-7:2e-6:10000000000000'", {}),
            ("T", "2e-7:2e-6:10001", (), "requires finite lo < hi", {})):
        path = tmp_path / "case.json"
        path.write_text(json.dumps(dict(FAST, **edits)))
        assert main(["sweep", "--config", str(path), "--var", var,
                     "--grid", grid, *flags, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: --grid {point}")
    assert not (tmp_path / "x").exists()
    small = ["sweep", "--config", str(fast_cfg), "--var", "T", "--grid", "1e-9:1e-8:3"]
    assert main([*small, "--out", str(tmp_path / "small")]) == 0
    assert len(_read_csv(tmp_path / "small" / "sweep.csv")[2]) == 3


def test_sweep_T_up_to_record_length(tmp_path):
    # windows as long as the 2 ms record no longer exhaust a quadrature budget
    path = tmp_path / "long.json"
    path.write_text(json.dumps(dict(FAST, duration=2e-3)))
    out = tmp_path / "swl"
    assert main(["sweep", "--config", str(path), "--var", "T",
                 "--grid", "1e-6:2e-3:3", "--out", str(out)]) == 0
    _, _, rows = _read_csv(out / "sweep.csv")
    duans = [float(r[2]) for r in rows]
    assert len(duans) == 3 and all(0.0 < d < 1.0 for d in duans)


def test_optimize_square(fast_cfg, tmp_path):
    out = tmp_path / "opt"
    assert main(["optimize", "--config", str(fast_cfg), "--family", "square",
                 "--budget", "60", "--out", str(out)]) == 0
    meta, header, rows = _read_csv(out / "optimize.csv")
    assert header == ["duration", "duan"]
    assert meta["family"] == "square"
    assert meta["converged"] == "true"
    assert "oracle" not in meta
    best_duan = float(meta["best_duan"])
    assert best_duan == min(float(r[1]) for r in rows)
    best_T = float(meta["best_duration"])
    assert 0.02e-6 <= best_T <= 2e-6


def test_optimize_bound_overrides(fast_cfg, tmp_path):
    out = tmp_path / "optb"
    assert main(["optimize", "--config", str(fast_cfg), "--family", "square",
                 "--bound", "duration=1e-7:4e-7", "--out", str(out)]) == 0
    _, _, rows = _read_csv(out / "optimize.csv")
    durations = [float(r[0]) for r in rows]
    assert min(durations) >= 1e-7 and max(durations) <= 4e-7

    assert main(["optimize", "--config", str(fast_cfg), "--family", "square",
                 "--bound", "rate=1:2", "--out", str(out)]) == 2
    assert main(["optimize", "--config", str(fast_cfg), "--family", "square",
                 "--bound", "duration=zz:1", "--out", str(out)]) == 2
    assert main(["optimize", "--config", str(fast_cfg), "--family", "square",
                 "--budget", "5", "--out", str(out)]) == 2


def test_a_decay_rate_above_max_rate_is_rejected_at_parse_time(tmp_path, capsys):
    # paper.cfg with a 2 us double_exp mode: beyond MAX_RATE, rate 1e80
    # overflowed power_spectrum, 1e140 failed the oracle's quadrature and
    # 1e300 discretized to zero weights; each now exits 2 naming the field
    # or the --bound before any work. MAX_RATE itself runs the oracle clean
    def config(rate):
        path = tmp_path / f"rate_{rate:g}.json"
        mode = {"kind": "double_exp", "rate": rate, "support": 2e-6}
        path.write_text(json.dumps(dict(_PAPER, mode=mode)))
        return str(path)

    out = tmp_path / "rejected"
    for verb, rate in (("spectra", 1e80), ("spectra", 1e140), ("run", 1e300)):
        assert main([verb, "--config", config(rate), "--out", str(out)]) == 2
        assert f"mode.rate: must be at most 1e+20 1/s, got {rate:g}" in capsys.readouterr().err
    for span in ("1:1e300", "1:inf"):
        assert main(["optimize", "--config", str(PAPER_CFG), "--family", "double_exp",
                     "--bound", f"rate={span}", "--out", str(out)]) == 2
        assert f"--bound rate: must be at most 1e+20 1/s, got 'rate={span}'" in (
            capsys.readouterr().err)
    assert not out.exists()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["spectra", "--config", config(MAX_RATE),
                     "--out", str(tmp_path / "spectra")]) == 0
        assert main(["optimize", "--config", str(PAPER_CFG), "--family", "one_sided_exp",
                     "--bound", f"rate=1:{MAX_RATE:g}", "--out", str(tmp_path / "opt")]) == 0


def test_output_dir_defaults_to_config(tmp_path, monkeypatch):
    table = dict(FAST)
    table["output_dir"] = str(tmp_path / "from_config")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(table))
    assert main(["spectra", "--config", str(cfg)]) == 0
    assert (tmp_path / "from_config" / "psd_x.csv").exists()


def test_number_formatting_in_outputs(fast_cfg, tmp_path):
    out = tmp_path / "fmt"
    assert main(["run", "--config", str(fast_cfg), "--out", str(out)]) == 0
    _, _, rows = _read_csv(out / "report.csv")
    for row in rows[:-1]:
        assert row[4] == row[5] == row[6] == ""  # per-rep rows carry no SE
        for cell in row[1:4]:
            assert len(cell.split(".")[-1]) <= 12
            float(cell)
