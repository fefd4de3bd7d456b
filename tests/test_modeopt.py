"""Temporal-mode optimization: golden-section search, brute-force
reference grids, non-unimodality detection."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from eprsim import (EprSpectra, ModeFamily, NonUnimodalError, OpoParams,
                    QuadPsd, TemporalMode, brute_force, duan_sum, epr_spectra,
                    filtered_variance, flat_psd, load_config, mode_duan, modes,
                    optimize)
from eprsim import modeopt
from eprsim.modeopt import _Objective

import refvals

PAPER_CFG = Path(__file__).resolve().parents[1] / "paper.cfg"

SQUARE_FAMILY = ModeFamily("square", {"duration": (0.02e-6, 2e-6)})
EXP_BOUNDS = {"rate": (1e3, 2e8), "support": (0.02e-6, 2e-6)}


def _grid_step_resolution(trace, family):
    """Duan spread between the brute-force argmin and its grid neighbors."""
    vals = [v for _, v in trace]
    i = min(range(len(vals)), key=lambda j: vals[j])
    neighbors = [vals[j] for j in (i - 1, i + 1) if 0 <= j < len(vals)]
    return max(abs(v - vals[i]) for v in neighbors)


def test_flat_spectra_optimum_is_unity():
    spectra = EprSpectra(diff_x=flat_psd(), sum_p=flat_psd())
    result = optimize(spectra, SQUARE_FAMILY)
    assert result.best_duan == 1.0
    assert result.converged


def test_degenerate_opos_optimum_is_unity():
    spectra = epr_spectra(OpoParams(0.0, 7e6, 0.9, "P"),
                          OpoParams(0.0, 7e6, 0.9, "X"))
    result = optimize(spectra, SQUARE_FAMILY)
    assert result.best_duan == pytest.approx(1.0, abs=1e-12)


def test_mode_duan_matches_trapezoid_oracle(calibrated_spectra):
    mode = TemporalMode.square(0.2e-6)
    expected = (refvals.trapz_variance(calibrated_spectra.diff_x, mode)
                + refvals.trapz_variance(calibrated_spectra.sum_p, mode)) / 2.0
    assert mode_duan(calibrated_spectra, mode) == pytest.approx(expected,
                                                                rel=1e-6)


def test_square_optimize_matches_brute_force(calibrated_spectra):
    trace = brute_force(calibrated_spectra, SQUARE_FAMILY, n_points=200)
    brute_best = min(v for _, v in trace)
    result = optimize(calibrated_spectra, SQUARE_FAMILY)
    assert result.converged
    assert result.best_duan <= brute_best + 1e-12
    assert brute_best - result.best_duan <= _grid_step_resolution(
        trace, SQUARE_FAMILY)
    assert result.best_mode.kind == "square"
    lo, hi = SQUARE_FAMILY.param_bounds["duration"]
    assert lo <= result.best_mode.duration <= hi


def test_exponential_families_beat_or_match_square(calibrated_spectra):
    square = optimize(calibrated_spectra, SQUARE_FAMILY)
    one_sided = optimize(calibrated_spectra,
                         ModeFamily("one_sided_exp", dict(EXP_BOUNDS)))
    double = optimize(calibrated_spectra,
                      ModeFamily("double_exp", dict(EXP_BOUNDS)))
    # a slow one-sided decay over the same support degenerates to the
    # square window, so its optimum can only tie up to search resolution
    assert one_sided.best_duan <= square.best_duan + 1.3e-4
    assert double.best_duan < square.best_duan - 1e-3


def test_optimizer_trace_is_consistent(calibrated_spectra):
    result = optimize(calibrated_spectra, SQUARE_FAMILY)
    assert len(result.trace) <= 160
    best = min(v for _, v in result.trace)
    assert result.best_duan == best
    for params, val in result.trace:
        assert set(params) == {"duration"}
        assert val > 0.0


def test_spectra_argument_order_is_irrelevant(calibrated_spectra):
    swapped = EprSpectra(diff_x=calibrated_spectra.sum_p,
                         sum_p=calibrated_spectra.diff_x)
    r1 = optimize(calibrated_spectra, SQUARE_FAMILY)
    r2 = optimize(swapped, SQUARE_FAMILY)
    assert r1.best_duan == r2.best_duan
    assert r1.best_mode.duration == r2.best_mode.duration


def test_brute_force_grid_shapes(calibrated_spectra):
    t1 = brute_force(calibrated_spectra, SQUARE_FAMILY, n_points=10)
    assert len(t1) == 10
    durations = [p["duration"] for p, _ in t1]
    assert durations[0] == pytest.approx(0.02e-6, rel=1e-12)
    assert durations[-1] == pytest.approx(2e-6, rel=1e-12)
    t2 = brute_force(calibrated_spectra,
                     ModeFamily("double_exp", dict(EXP_BOUNDS)), n_points=9)
    assert len(t2) == 9


def test_budget_validation(calibrated_spectra):
    with pytest.raises(ValueError, match="at least 16"):
        optimize(calibrated_spectra, SQUARE_FAMILY, budget=15)


def test_small_budget_reports_unconverged(calibrated_spectra):
    family = ModeFamily("double_exp", dict(EXP_BOUNDS))
    result = optimize(calibrated_spectra, family, budget=16)
    assert not result.converged
    assert 0 < len(result.trace) <= 16
    assert result.best_duan == min(v for _, v in result.trace)


def test_a_budget_cuts_the_trace_where_it_runs_out(calibrated_spectra):
    # a prescan evaluates its grid in one call; a budget that runs out
    # inside the grid still records exactly the evaluations that fit
    family = ModeFamily("double_exp", dict(EXP_BOUNDS))
    full = optimize(calibrated_spectra, family).trace
    assert len(full) == 99
    for budget in range(16, 99, 3):
        result = optimize(calibrated_spectra, family, budget=budget)
        assert not result.converged
        assert result.trace == full[:budget]


def test_family_validation():
    with pytest.raises(ValueError, match="unknown mode family"):
        ModeFamily("gaussian", {"duration": (1e-7, 1e-6)})
    with pytest.raises(ValueError, match="requires bounds"):
        ModeFamily("square", {"rate": (1e3, 1e6)})
    with pytest.raises(ValueError, match="ordered"):
        ModeFamily("square", {"duration": (1e-6, 1e-7)})
    with pytest.raises(ValueError, match="unknown mode family"):
        ModeFamily("tabulated", {"samples": (1.0, 2.0), "duration": (1e-7, 1e-6)})
    with pytest.raises(ValueError, match="unknown mode kind"):
        TemporalMode.from_params("gaussian", {"duration": 1e-7})


def _two_valley_psd():
    """Synthetic PSD whose square-window Duan objective has two interior
    minima over the 9-point prescan grid (near 36 ns and 630 ns)."""
    centers = [0.05e6, 0.2e6, 0.8e6, 3e6, 10e6, 40e6, 150e6]
    amps = [1.429, 0.1577, -0.5809, 2.145, -0.9746, 2.144, 0.3457]

    def evaluator(om):
        om = np.abs(np.asarray(om, dtype=float))
        x = np.log(np.maximum(om, 1.0))
        s = np.ones_like(om)
        for a, f0 in zip(amps, centers):
            s = s + a * np.exp(-0.5 * ((x - math.log(2 * math.pi * f0)) / 0.5) ** 2)
        return s

    return QuadPsd(evaluator=evaluator, band_limit=2 * math.pi * 2e9,
                   scale_hint=2 * math.pi * 0.05e6)


def test_two_valley_objective_is_rejected():
    psd = _two_valley_psd()
    spectra = EprSpectra(diff_x=psd, sum_p=psd)
    with pytest.raises(NonUnimodalError, match="multiple local minima") as exc:
        optimize(spectra, SQUARE_FAMILY)
    assert len(exc.value.trace) >= 9
    # the trace exposes both valleys to the caller
    vals = [v for _, v in exc.value.trace[:9]]
    interior = [i for i in range(1, 8)
                if vals[i] < vals[i - 1] and vals[i] < vals[i + 1]]
    assert len(interior) == 2


def test_double_exp_optimize_shares_the_band_tail_moments(monkeypatch):
    # the rate steps of the coordinate descent and each evaluation's two
    # quadratures reuse the moments of one support: 198 _expint calls
    # without sharing, 25 with it (one per support of the 24 visited, one
    # where a faster rate needs more terms), and the trace is what a cold
    # evaluation of each point gives
    cfg = load_config(PAPER_CFG)
    spectra = epr_spectra(cfg.opo1, cfg.opo2)
    family = ModeFamily("double_exp", EXP_BOUNDS)
    calls = []
    expint = modes._expint

    def counting(y, p):
        calls.append(y)
        return expint(y, p)

    modes._kept.cache_clear()
    monkeypatch.setattr(modes, "_expint", counting)
    result = optimize(spectra, family)
    monkeypatch.undo()
    assert len(result.trace) == 99
    assert len(calls) <= 25
    for params, value in result.trace:
        modes._kept.cache_clear()
        assert mode_duan(spectra, TemporalMode.double_exp(**params)) == value, params


@pytest.mark.parametrize("search, kind, most", [
    (optimize, "double_exp", 25),
    (optimize, "one_sided_exp", 25),
    (optimize, "square", 17),
    (brute_force, "double_exp", 196),
    (brute_force, "square", 1),
], ids=("optimize-double_exp", "optimize-one_sided_exp", "optimize-square",
        "brute_force-double_exp", "brute_force-square"))
def test_searches_evaluate_few_band_tail_moments(monkeypatch, search, kind, most):
    # from a cold cache, each search makes no more _expint calls than it
    # did mode by mode (brute_force's bounds); its evaluations are one
    # filtered_variances call each, so all square modes of brute_force's
    # grid share one overlap pass and one set of moments, and every
    # support optimize revisits is still kept when it comes back
    cfg = load_config(PAPER_CFG)
    spectra = epr_spectra(cfg.opo1, cfg.opo2)
    family = ModeFamily(kind, dict(zip(modes.KINDS[kind].params, modes.KINDS[kind].bounds)))
    calls = []
    expint = modes._expint

    def counting(y, p):
        calls.append(y)
        return expint(y, p)

    modes._kept.cache_clear()
    monkeypatch.setattr(modes, "_expint", counting)
    search(spectra, family)
    assert 0 < len(calls) <= most


def test_objective_over_cached_points_calls_nothing(monkeypatch, calibrated_spectra):
    # a prescan or golden-section step whose points are all cached reads
    # the cache: no mode_duans call, not even an empty one
    obj = _Objective(calibrated_spectra, SQUARE_FAMILY, budget=16)
    points = [{"duration": t} for t in (0.1e-6, 0.3e-6, 1e-6)]
    first = obj.many(points)
    calls = []
    monkeypatch.setattr(modeopt, "mode_duans", lambda *a: calls.append(a) or [])
    assert obj.many(points[::-1]) == first[::-1]
    assert obj(points[1]) == first[1]
    assert calls == []


def test_brute_force_evaluates_each_support_once(monkeypatch):
    # brute_force double_exp on paper.cfg visits 14 supports, each at two
    # term counts (its rates set them): the fastest rate's, the longest
    # set, is computed first and the shorter one is its first columns, so
    # 14 sets are computed, not 56
    cfg = load_config(PAPER_CFG)
    spectra = epr_spectra(cfg.opo1, cfg.opo2)
    family = ModeFamily("double_exp", dict(zip(modes.KINDS["double_exp"].params,
                                               modes.KINDS["double_exp"].bounds)))
    calls = []
    expint = modes._expint

    def counting(y, p):
        calls.append(y.tobytes())
        return expint(y, p)

    modes._kept.cache_clear()
    monkeypatch.setattr(modes, "_expint", counting)
    brute_force(spectra, family)
    assert len(calls) == len(set(calls)) == 14


def test_mode_duan_is_the_duan_sum_of_filtered_variances(calibrated_spectra):
    # one filtered_variances call for both quadratures gives what two
    # filtered_variance calls give: in closed form, by quadrature for a
    # spectrum with an evaluator only, and by quadrature where the width
    # exceeds half the band and the closed form declines
    dx, sp = calibrated_spectra.diff_x, calibrated_spectra.sum_p
    mode = TemporalMode.double_exp(rate=3e6, support=0.4e-6)
    numeric = EprSpectra(dataclasses.replace(dx, lorentz=None),
                         dataclasses.replace(sp, lorentz=None))
    narrow = EprSpectra(dataclasses.replace(dx, band_limit=1.5 * dx.lorentz[1]),
                        dataclasses.replace(sp, band_limit=1.5 * sp.lorentz[1]))
    for psd in (narrow.diff_x, narrow.sum_p):
        assert mode.lorentz_overlap(psd.lorentz[1], psd.band_limit) is None
    for spectra in (calibrated_spectra, numeric, narrow):
        modes._kept.cache_clear()
        expected = duan_sum(filtered_variance(spectra.diff_x, mode),
                            filtered_variance(spectra.sum_p, mode))
        assert mode_duan(spectra, mode) == expected
