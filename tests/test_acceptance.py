"""End-to-end acceptance checks.

Each test covers one shipped claim at its stated tolerance and prints a
PASS line once its assertions hold. Monte Carlo checks run at 400 MS/s
where sampling bias is negligible against the 3-sigma budgets; the
detected-pipeline checks run the reference configuration unchanged.
"""

import math
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from eprsim import (ModeFamily, OpoParams, TemporalMode, brute_force,
                    calibrate_pump_param, combo_series, correlation_diagram,
                    epr_record, epr_spectra, expected_mode_variance,
                    extract_modes, filtered_variance, load_config, mode_duan,
                    opo_spectrum, optimize, synthesize_colored, to_db,
                    vacuum_record, welch_psd)
from eprsim.cli import main
from eprsim.synth import block_length

import refvals
from test_analysis import _welch_white_se

REPO_ROOT = Path(__file__).resolve().parents[1]
PAPER_CFG = REPO_ROOT / "paper.cfg"
MC_FS = 400e6
BLOCK = 1 << 22
MODE = TemporalMode.square(0.2e-6)

PARAM_SETS = [
    ("calibrated -3.30 dB", refvals.X_330, 0.9, refvals.SQ_330),
    ("calibrated -3.74 dB", refvals.X_374, 0.9, refvals.SQ_374),
    ("lossless stress", refvals.STRESS_X, refvals.STRESS_ETA, refvals.SQ_STRESS),
]


def _mc_mode_values(psd, T, n_blocks, seed0):
    mode = TemporalMode.square(T)
    chunks = []
    for k in range(n_blocks):
        series = synthesize_colored(psd, BLOCK, MC_FS, seed=seed0 + k)
        chunks.append(extract_modes(series, mode).values)
    return np.concatenate(chunks)


def _blocks_needed(T):
    per_block = BLOCK // round(T * MC_FS)
    return max(1, math.ceil(100_000 / per_block))


def test_criterion_1_synthesis_matches_analytic_oracle():
    for s, (label, pump, eta, table) in enumerate(PARAM_SETS):
        psd = opo_spectrum(OpoParams(pump, refvals.HWHM, eta, "X"), "squeezed")
        for j, (T, expected) in enumerate(zip(refvals.T_GRID, table)):
            values = _mc_mode_values(psd, T, _blocks_needed(T),
                                     seed0=7_000_000 + 1000 * s + 10 * j)
            assert values.size >= 100_000
            var = np.var(values, ddof=1)
            se = expected * math.sqrt(2.0 / (values.size - 1))
            assert abs(var - expected) < 3.0 * se, (label, T, var, expected)
            assert abs(var / expected - 1.0) < 0.02, (label, T)
    print("PASS criterion 1: simulated mode variances match the analytic "
          "oracle within 3 SE and 2% for all 15 parameter/duration points")


@pytest.fixture(scope="module")
def paper_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("paper_run")
    assert main(["run", "--config", str(PAPER_CFG), "--out", str(out)]) == 0
    summary = None
    lines = (out / "report.csv").read_text().splitlines()
    for line in lines:
        if line.startswith("summary,"):
            summary = line.split(",")
    assert summary is not None
    return out, {"db_x": float(summary[1]), "db_p": float(summary[2]),
                 "duan": float(summary[3])}


def test_criterion_2_calibrated_pipeline(paper_run):
    x330 = calibrate_pump_param(-3.30, 0.9, refvals.HWHM)
    x374 = calibrate_pump_param(-3.74, 0.9, refvals.HWHM)
    assert x330 == pytest.approx(refvals.X_330, abs=1e-10)
    assert x374 == pytest.approx(refvals.X_374, abs=1e-10)
    sq330 = opo_spectrum(OpoParams(x330, refvals.HWHM, 0.9, "X"), "squeezed")
    sq374 = opo_spectrum(OpoParams(x374, refvals.HWHM, 0.9, "X"), "squeezed")
    assert to_db(filtered_variance(sq330, MODE)) == pytest.approx(-3.30, abs=1e-9)
    assert to_db(filtered_variance(sq374, MODE)) == pytest.approx(-3.74, abs=1e-9)

    _, report = paper_run
    assert abs(report["db_x"] - (-3.30)) <= 0.3, report
    assert abs(report["db_p"] - (-3.74)) <= 0.3, report
    assert abs(report["duan"] - 0.445) <= 0.03, report
    assert abs(report["duan"] - refvals.DUAN_CAL) <= 0.03
    print(f"PASS criterion 2: calibration reproduces the pump settings and "
          f"the detected run reads {report['db_x']:+.2f}/{report['db_p']:+.2f} dB, "
          f"duan {report['duan']:.4f} within 0.3 dB / 0.03 of target")


def test_criterion_3_vacuum_reference_is_unity():
    for j, T in enumerate(refvals.T_GRID):
        mode = TemporalMode.square(T)
        duration = BLOCK / MC_FS
        rec = vacuum_record(duration, MC_FS, seed=8_000_000 + j)
        var = {}
        for sign, tag in ((-1.0, "diff"), (+1.0, "sum")):
            vals = extract_modes(combo_series(rec, sign), mode).values
            v = np.var(vals, ddof=1)
            se = math.sqrt(2.0 / (vals.size - 1))
            assert abs(v - 1.0) < 3.0 * se, (T, tag, v)
            var[tag] = (v, se)
        duan = 0.5 * (var["diff"][0] + var["sum"][0])
        se_duan = 0.5 * math.hypot(var["diff"][1], var["sum"][1])
        assert abs(duan - 1.0) < 3.0 * se_duan, (T, duan)
    print("PASS criterion 3: vacuum reference reads unity variance and "
          "unit duan within 3 SE at every mode duration")


def test_criterion_4_mode_count(paper_run):
    out, _ = paper_run
    rows = [line for line in (out / "diagram_x.csv").read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("a,")]
    assert len(rows) == 10_000
    print("PASS criterion 4: a 2 ms record at 50 MS/s yields exactly 10000 "
          "non-overlapping 0.2 us modes")


def test_criterion_5_welch_psd_matches_generating_spectrum():
    opo1 = OpoParams(refvals.X_374, refvals.HWHM, 0.9, "P")
    opo2 = OpoParams(refvals.X_330, refvals.HWHM, 0.9, "X")
    fs = 50e6
    n = 1 << 21
    rec = epr_record(opo1, opo2, n / fs, fs, "X", seed=9_000_000)
    est = welch_psd(combo_series(rec, -1.0))
    assert est.n_segments >= 100
    truth = 10.0 * np.log10(epr_spectra(opo1, opo2).diff_x(2.0 * np.pi * est.freq_hz))

    squeezed_band = (est.freq_hz >= 5e3) & (est.freq_hz <= 5e6)
    assert np.all(est.db[squeezed_band] < 0.0)

    # tracking bounds from the estimator's spread: every bin of the band
    # within a z-bound with family-wise level 1e-3, the band mean within 4 SE
    match_band = (est.freq_hz >= 50e3) & (est.freq_hz <= 5e6)
    ratio = 10.0 ** ((est.db - truth)[match_band] / 10.0)
    se_bin, se_mean = _welch_white_se(4096, est.n_segments, match_band)
    z = NormalDist().inv_cdf(1.0 - 1e-3 / (2.0 * ratio.size))
    assert np.all(np.abs(ratio - 1.0) < z * se_bin[match_band])
    assert abs(np.mean(ratio) - 1.0) < 4.0 * se_mean

    shoulder = est.freq_hz >= 20e6
    assert abs(np.mean(est.db[shoulder])) <= 0.5
    print("PASS criterion 5: Welch PSD of the difference quadrature is "
          "squeezed across 5 kHz-5 MHz, tracks the generating spectrum "
          "within the estimator's spread, and returns to vacuum at high frequency")


def test_criterion_6_correlation_signs():
    cfg_seed = 20260816
    opo1 = OpoParams(refvals.X_374, refvals.HWHM, 0.9, "P")
    opo2 = OpoParams(refvals.X_330, refvals.HWHM, 0.9, "X")
    fs, duration = 50e6, 2e-3

    def r_of(rec):
        return correlation_diagram(extract_modes(rec.a, MODE),
                                   extract_modes(rec.b, MODE)).pearson_r

    r_x = r_of(epr_record(opo1, opo2, duration, fs, "X", cfg_seed))
    r_p = r_of(epr_record(opo1, opo2, duration, fs, "P", cfg_seed + 1))
    r_vac = r_of(vacuum_record(duration, fs, cfg_seed + 2))
    assert r_x > 0.3
    assert r_p < -0.3
    assert abs(r_vac) < 0.03
    assert r_x == pytest.approx(refvals.R_X, abs=0.05)
    assert r_p == pytest.approx(refvals.R_P, abs=0.05)
    print(f"PASS criterion 6: X modes correlated (r={r_x:+.3f}), P modes "
          f"anticorrelated (r={r_p:+.3f}), vacuum uncorrelated "
          f"(r={r_vac:+.4f})")


def _grid_resolution(trace, argmin_params, names):
    """Largest duan gap between the brute-force argmin and its immediate
    grid neighbors along each parameter axis."""
    axes = {n: sorted({p[n] for p, _ in trace}) for n in names}
    lookup = {tuple(p[n] for n in names): v for p, v in trace}
    best_key = tuple(argmin_params[n] for n in names)
    best_val = lookup[best_key]
    gap = 0.0
    for i, n in enumerate(names):
        axis = axes[n]
        k = axis.index(argmin_params[n])
        for j in (k - 1, k + 1):
            if 0 <= j < len(axis):
                key = best_key[:i] + (axis[j],) + best_key[i + 1:]
                gap = max(gap, abs(lookup[key] - best_val))
    return gap


def test_criterion_7_mode_optimization():
    spectra = epr_spectra(OpoParams(refvals.X_374, refvals.HWHM, 0.9, "P"),
                          OpoParams(refvals.X_330, refvals.HWHM, 0.9, "X"))
    families = {
        "square": ModeFamily("square", {"duration": (0.02e-6, 2e-6)}),
        "one_sided_exp": ModeFamily("one_sided_exp",
                                    {"rate": (1e3, 2e8),
                                     "support": (0.02e-6, 2e-6)}),
        "double_exp": ModeFamily("double_exp",
                                 {"rate": (1e3, 2e8),
                                  "support": (0.02e-6, 2e-6)}),
    }
    best = {}
    for kind, family in families.items():
        trace = brute_force(spectra, family, n_points=200)
        argmin_params, brute_best = min(trace, key=lambda pv: pv[1])
        result = optimize(spectra, family, budget=160)
        resolution = _grid_resolution(trace, argmin_params, family.param_names)
        assert abs(result.best_duan - brute_best) <= resolution, (
            kind, result.best_duan, brute_best, resolution)
        best[kind] = result.best_duan

    assert min(best["one_sided_exp"], best["double_exp"]) <= best["square"]
    print(f"PASS criterion 7: optimizer agrees with 200-point brute force "
          f"within one grid step for all families (square "
          f"{best['square']:.4f}, one-sided {best['one_sided_exp']:.4f}, "
          f"double {best['double_exp']:.4f}) and an exponential mode does "
          f"at least as well as the square window")


def test_criterion_8_cli_determinism(paper_run, tmp_path):
    out1, _ = paper_run
    out2 = tmp_path / "rerun"
    assert main(["run", "--config", str(PAPER_CFG), "--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    print(f"PASS criterion 8: two CLI runs of the shipped configuration "
          f"produce byte-identical outputs ({len(names)} files)")


def test_criterion_9_detected_run_matches_chain_aware_expectation(tmp_path):
    # the readings of run are judged against the model that produced them:
    # detected signal over detected vacuum, on the record's own block
    out = tmp_path / "run100"
    assert main(["run", "--config", str(PAPER_CFG), "--reps", "100", "--out", str(out)]) == 0
    summary = next(line.split(",") for line in (out / "report.csv").read_text().splitlines()
                   if line.startswith("summary,"))
    db_x, db_p, duan, se_x, se_p, se_duan = (float(v) for v in summary[1:7])

    cfg = load_config(PAPER_CFG)
    spectra = epr_spectra(cfg.opo1, cfg.opo2)
    block = block_length(cfg.duration, cfg.fs)
    ref = expected_mode_variance(None, cfg.chain, cfg.fs, cfg.mode, block)
    ratio_x = expected_mode_variance(spectra.diff_x, cfg.chain, cfg.fs, cfg.mode, block) / ref
    ratio_p = expected_mode_variance(spectra.sum_p, cfg.chain, cfg.fs, cfg.mode, block) / ref
    assert abs(db_x - to_db(ratio_x)) <= 3.0 * se_x, (db_x, to_db(ratio_x), se_x)
    assert abs(db_p - to_db(ratio_p)) <= 3.0 * se_p, (db_p, to_db(ratio_p), se_p)
    assert abs(duan - 0.5 * (ratio_x + ratio_p)) <= 3.0 * se_duan
    print(f"PASS criterion 9: 100 detected repetitions read {db_x:+.3f}/{db_p:+.3f} dB, "
          f"duan {duan:.4f}, within 3 SE of the chain-aware expectation "
          f"{to_db(ratio_x):+.3f}/{to_db(ratio_p):+.3f} dB, "
          f"duan {0.5 * (ratio_x + ratio_p):.4f}")
