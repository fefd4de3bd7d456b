"""From sampled records to physics: temporal-mode extraction, variance and
dB estimation with uncertainties, Duan-Simon verification, Welch PSD
estimation, and correlation-diagram/trace tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .modes import TemporalMode
from .spectra import duan_sum, to_db
from .synth import TimeSeries, TwoModeRecord

__all__ = [
    "TemporalMode",
    "ModeValues",
    "EprReport",
    "PsdEstimate",
    "Diagram",
    "CalibrationError",
    "extract_modes",
    "combo_series",
    "epr_report",
    "combine_reports",
    "welch_psd",
    "correlation_diagram",
    "trace_excerpt",
]

_LN10_OVER_10 = math.log(10.0) / 10.0


class CalibrationError(RuntimeError):
    """Vacuum reference inconsistent with its expected level."""


@dataclass(frozen=True)
class ModeValues:
    """Filtered quadrature values, one per mode window."""

    values: np.ndarray
    mode: TemporalMode

    @property
    def count(self) -> int:
        return self.values.size


def extract_modes(series: TimeSeries, mode: TemporalMode,
                  stride: Optional[float] = None) -> ModeValues:
    """Project consecutive windows of the series onto the mode weights.

    stride defaults to the mode duration (non-overlapping windows, so the
    values are statistically independent for white input); overlapping
    strides are rejected. Yields floor((n - n_w)/stride) + 1 values.
    """
    fs = series.sample_rate
    w = mode.discretize(fs)
    n_w = w.size
    if n_w > series.n:
        raise ValueError(
            f"mode duration {mode.duration:g} s exceeds series duration "
            f"{series.duration:g} s")
    step = n_w if stride is None else int(round(stride * fs))
    if step < n_w:
        raise ValueError("stride must be at least the mode duration (non-overlapping)")
    count = (series.n - n_w) // step + 1
    if step == n_w:
        vals = series.samples[: count * n_w].reshape(count, n_w) @ w
    else:
        idx = np.arange(count)[:, None] * step + np.arange(n_w)[None, :]
        vals = series.samples[idx] @ w
    return ModeValues(values=vals, mode=mode)


@dataclass(frozen=True)
class EprReport:
    """Variances of the EPR combinations, dB to vacuum, and the Duan sum."""

    var_diff_x_db: float
    var_diff_x_db_se: float
    var_sum_p_db: float
    var_sum_p_db_se: float
    var_diff_x: float
    var_sum_p: float
    duan: float
    duan_se: float
    repetitions: int
    mode: TemporalMode
    per_rep: Tuple[Tuple[float, float, float], ...] = field(default=())
    """Per repetition: (diff_x dB, sum_p dB, duan)."""


def combo_series(record: TwoModeRecord, sign: float) -> TimeSeries:
    """The normalized EPR combination (a + sign*b)/sqrt(2) as a series."""
    if sign not in (-1.0, 1.0):
        raise ValueError("sign must be -1.0 or +1.0")
    return TimeSeries(record.sample_rate,
                      (record.a.samples + sign * record.b.samples) / math.sqrt(2.0),
                      label=record.a.label)


def _combo_variance(record: TwoModeRecord, sign: float,
                    mode: TemporalMode) -> Tuple[float, int]:
    """Sample variance of the combination's mode values, and their count."""
    vals = extract_modes(combo_series(record, sign), mode).values
    if vals.size < 2:
        raise ValueError("need at least 2 mode values per repetition")
    return float(np.var(vals, ddof=1)), vals.size


def _check_reference(ref_var: float, expected: float, n_modes: int) -> None:
    se = expected * math.sqrt(2.0 / max(n_modes - 1, 1))
    if abs(ref_var - expected) > 5.0 * se:
        raise CalibrationError(
            f"vacuum reference variance {ref_var:.4f} deviates from expected "
            f"{expected:.4f} by more than 5 standard errors ({se:.2g})")


def epr_report(x_records: Sequence[TwoModeRecord],
               p_records: Sequence[TwoModeRecord],
               vacuum_refs: Sequence[TwoModeRecord],
               mode: TemporalMode,
               expected_ref_variance: Optional[float] = 1.0) -> EprReport:
    """Vacuum-normalized EPR variances, averaged in dB across repetitions.

    Per repetition i, Var((x_A - x_B)/sqrt(2)) from x_records[i] and
    Var((p_A + p_B)/sqrt(2)) from p_records[i] are each normalized to the
    same combination of the paired vacuum reference, and the dB values are
    averaged across repetitions (standard error over repetitions; NaN for a
    single repetition). The Duan sum applies duan_sum to the linear means
    of the dB averages, so report.duan is exactly
    duan_sum(report.var_diff_x, report.var_sum_p).

    expected_ref_variance is the anticipated reference level (1 for raw
    vacuum; the analytic chain expectation for detected references); each
    reference is rejected when inconsistent with it by more than 5 sigma.
    None skips that check.
    """
    reps = len(x_records)
    if reps == 0 or len(p_records) != reps:
        raise ValueError("x_records and p_records must have equal nonzero length")
    if len(vacuum_refs) not in (reps, 1):
        raise ValueError("vacuum_refs must match the repetition count or be a single record")

    rates = {r.sample_rate for r in (*x_records, *p_records, *vacuum_refs)}
    if len(rates) != 1:
        raise ValueError(f"mismatched sample rates across records: {sorted(rates)}")

    per_rep = []
    for i in range(reps):
        ref = vacuum_refs[i if len(vacuum_refs) == reps else 0]
        ref_x, n_modes = _combo_variance(ref, -1.0, mode)
        ref_p, _ = _combo_variance(ref, +1.0, mode)
        if expected_ref_variance is not None:
            _check_reference(ref_x, expected_ref_variance, n_modes)
            _check_reference(ref_p, expected_ref_variance, n_modes)
        vx = _combo_variance(x_records[i], -1.0, mode)[0] / ref_x
        vp = _combo_variance(p_records[i], +1.0, mode)[0] / ref_p
        per_rep.append((to_db(vx), to_db(vp), duan_sum(vx, vp)))
    return _summarize(per_rep, mode)


def combine_reports(reports: Sequence[EprReport]) -> EprReport:
    """One report over the repetitions of several reports on the same mode,
    in order: equal to epr_report over all their records at once."""
    if not reports:
        raise ValueError("need at least one report")
    mode = reports[0].mode
    if any(r.mode != mode for r in reports):
        raise ValueError("reports must share the analysis mode")
    return _summarize([row for r in reports for row in r.per_rep], mode)


def _summarize(per_rep: Sequence[Tuple[float, float, float]],
               mode: TemporalMode) -> EprReport:
    """Means, standard errors and Duan sum from per-repetition
    (diff_x dB, sum_p dB, duan) rows."""
    reps = len(per_rep)
    db_x = np.array([row[0] for row in per_rep])
    db_p = np.array([row[1] for row in per_rep])
    if reps > 1:
        se_x = float(np.std(db_x, ddof=1) / math.sqrt(reps))
        se_p = float(np.std(db_p, ddof=1) / math.sqrt(reps))
    else:
        se_x = se_p = float("nan")
    mean_x = float(np.mean(db_x))
    mean_p = float(np.mean(db_p))
    lin_x = 10.0 ** (mean_x / 10.0)
    lin_p = 10.0 ** (mean_p / 10.0)
    duan = duan_sum(lin_x, lin_p)
    duan_se = 0.5 * math.hypot(lin_x * _LN10_OVER_10 * se_x,
                               lin_p * _LN10_OVER_10 * se_p)
    return EprReport(
        var_diff_x_db=mean_x, var_diff_x_db_se=se_x,
        var_sum_p_db=mean_p, var_sum_p_db_se=se_p,
        var_diff_x=lin_x, var_sum_p=lin_p,
        duan=duan, duan_se=duan_se,
        repetitions=reps, mode=mode,
        per_rep=tuple((float(x), float(p), float(d)) for x, p, d in per_rep))


@dataclass(frozen=True)
class PsdEstimate:
    """One-sided Welch PSD in dB relative to the vacuum level."""

    freq_hz: np.ndarray
    db: np.ndarray
    n_segments: int


def welch_psd(series: TimeSeries, segment_len: int = 4096,
              overlap: float = 0.5, window: str = "hann") -> PsdEstimate:
    """Welch estimate scaled so unit-variance white input reads 0 dB.

    The endpoint bins (DC, Nyquist) are rescaled by the one-sided folding
    factor so a flat spectrum reads flat across the whole axis. No
    detrending is applied.
    """
    if segment_len < 64:
        raise ValueError("segment_len must be at least 64 samples")
    if segment_len > series.n:
        raise ValueError("segment_len exceeds series length")
    if not (0.0 <= overlap <= 0.9):
        raise ValueError("overlap must lie in [0, 0.9]")
    from scipy import signal  # deferred: importing scipy.signal takes ~1.4 s

    noverlap = int(overlap * segment_len)
    freq, pxx = signal.welch(series.samples, fs=series.sample_rate,
                             window=window, nperseg=segment_len,
                             noverlap=noverlap, detrend=False,
                             scaling="density", return_onesided=True)
    pxx = pxx.copy()
    if freq[0] == 0.0:
        pxx[0] *= 2.0
    if segment_len % 2 == 0:
        pxx[-1] *= 2.0
    n_segments = (series.n - noverlap) // (segment_len - noverlap)
    db = 10.0 * np.log10(pxx * series.sample_rate / 2.0)
    return PsdEstimate(freq_hz=freq, db=db, n_segments=n_segments)


@dataclass(frozen=True)
class Diagram:
    """Paired mode values with their Pearson correlation coefficient."""

    a: np.ndarray
    b: np.ndarray
    pearson_r: float


def correlation_diagram(a: ModeValues, b: ModeValues) -> Diagram:
    if a.count != b.count:
        raise ValueError(f"mode value counts differ: {a.count} vs {b.count}")
    r = float(np.corrcoef(a.values, b.values)[0, 1])
    return Diagram(a=a.values, b=b.values, pearson_r=r)


def trace_excerpt(a: ModeValues, b: ModeValues, n: int = 50):
    """First n paired values as (index, a, b) rows for plotting."""
    if a.count != b.count:
        raise ValueError(f"mode value counts differ: {a.count} vs {b.count}")
    if n < 0 or n > a.count:
        raise ValueError(f"excerpt length {n} out of range (count {a.count})")
    idx = np.arange(n)
    return idx, a.values[:n], b.values[:n]
