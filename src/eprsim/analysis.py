"""Reading the records synth draws: temporal-mode extraction, variance and
dB estimation with uncertainties, Duan-Simon verification, Welch PSD
estimation, correlation-diagram/trace tables, and the one check of a
run's pooled vacuum reference variances (check_reference).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from .modes import TemporalMode
from .spectra import duan_sum, to_db
from .synth import TimeSeries, TwoModeRecord, _ModeRecord

# shortest segment welch_psd takes
MIN_SEGMENT = 64

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
    "check_reference",
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


def extract_modes(series: TimeSeries, mode: TemporalMode) -> ModeValues:
    """Project consecutive non-overlapping windows of the series onto the
    mode weights (statistically independent values for white input).
    Yields floor(n / n_w) values, n_w the mode's sample count. The
    projections are an einsum, not a BLAS product: one summation order
    whatever the BLAS build, and no BLAS worker threads left spinning on
    the cores that synth's two-thread blocks use.
    """
    w = mode.discretize(series.sample_rate)
    count = series.n // w.size
    if count < 1:
        raise ValueError(f"mode duration {mode.duration:g} s exceeds series duration "
                         f"{series.duration:g} s")
    vals = np.einsum("ij,j->i", series.samples[: count * w.size].reshape(count, w.size), w)
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
    ref_variances: Tuple[float, ...] = field(default=())
    """Per repetition: the vacuum reference's diff_x and sum_p variances."""


def combo_series(record: TwoModeRecord, sign: float) -> TimeSeries:
    """The normalized EPR combination (a + sign*b)/sqrt(2) as a series."""
    if sign not in (-1.0, 1.0):
        raise ValueError("sign must be -1.0 or +1.0")
    return TimeSeries(record.sample_rate,
                      (record.a.samples + sign * record.b.samples) / math.sqrt(2.0),
                      label=record.a.label)


def _combo_variance(record: TwoModeRecord, sign: float, mode: TemporalMode) -> float:
    """Sample variance (ddof=1) of the combination's mode values.

    A record synth drew in mode space (a synth._ModeRecord) is read from
    its draw for the mode it was drawn for: where the reading takes every
    value of the draw's circular sequence (draw.count == draw.size), by
    Parseval from the combination's per-bin power (draw.variance, one dot
    product, no inverse FFT), else from the first draw.count (layout's m)
    values, draw.values. Every other record, one built from a drawn
    record's series included, is read from its samples (extract_modes of
    the combination series).
    """
    if isinstance(record, _ModeRecord):
        draw = record.draw
        if draw.mode != mode:
            raise ValueError("record was drawn in mode space for another mode")
        if draw.count == draw.size >= 2:
            return draw.variance(sign)
        vals = draw.values(sign)
    else:
        vals = extract_modes(combo_series(record, sign), mode).values
    if vals.size < 2:
        raise ValueError("need at least 2 mode values per repetition")
    return float(np.var(vals, ddof=1))


def epr_report(x_record: TwoModeRecord, p_record: TwoModeRecord,
               vacuum_ref: TwoModeRecord, mode: TemporalMode) -> EprReport:
    """Vacuum-normalized EPR variances of one repetition; combine_reports
    pools repetitions.

    Var((x_A - x_B)/sqrt(2)) from x_record and Var((p_A + p_B)/sqrt(2))
    from p_record are each normalized to the same combination of the
    vacuum reference, in dB. The Duan sum applies duan_sum to the linear
    values of the dB readings, so report.duan is exactly
    duan_sum(report.var_diff_x, report.var_sum_p); the standard errors of
    a single repetition are NaN.
    """
    rates = {r.sample_rate for r in (x_record, p_record, vacuum_ref)}
    if len(rates) != 1:
        raise ValueError(f"mismatched sample rates across records: {sorted(rates)}")
    ref_x = _combo_variance(vacuum_ref, -1.0, mode)
    ref_p = _combo_variance(vacuum_ref, +1.0, mode)
    vx = _combo_variance(x_record, -1.0, mode) / ref_x
    vp = _combo_variance(p_record, +1.0, mode) / ref_p
    return _summarize([(to_db(vx), to_db(vp), duan_sum(vx, vp))], mode, (ref_x, ref_p))


def combine_reports(reports: Sequence[EprReport]) -> EprReport:
    """One report over the repetitions of several reports on the same mode,
    in order: the mean dB readings, their standard errors over the
    repetitions, and the Duan sum of the means."""
    if not reports:
        raise ValueError("need at least one report")
    mode = reports[0].mode
    if any(r.mode != mode for r in reports):
        raise ValueError("reports must share the analysis mode")
    return _summarize([row for r in reports for row in r.per_rep], mode,
                      [v for r in reports for v in r.ref_variances])


def check_reference(report: EprReport, mean: float, sd: float) -> None:
    """Raises CalibrationError unless the mean of the report's 2*reps
    (independent) reference variances lies within 5 SE, sd/sqrt(2*reps),
    of mean, with (mean, sd) the exact law of one (sample_variance_law)."""
    refs = report.ref_variances
    pooled, se = np.mean(refs), sd / math.sqrt(len(refs))
    if abs(pooled - mean) > 5.0 * se:
        raise CalibrationError(
            f"vacuum reference variance {pooled:.4f} (mean of {len(refs)}) deviates from "
            f"expected {mean:.4f} by more than 5 standard errors ({se:.2g})")


def _summarize(per_rep: Sequence[Tuple[float, float, float]], mode: TemporalMode,
               ref_variances: Sequence[float]) -> EprReport:
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
        per_rep=tuple((float(x), float(p), float(d)) for x, p, d in per_rep),
        ref_variances=tuple(ref_variances))


@dataclass(frozen=True)
class PsdEstimate:
    """One-sided Welch PSD in dB relative to the vacuum level."""

    freq_hz: np.ndarray
    db: np.ndarray
    n_segments: int


def welch_psd(series: TimeSeries, segment_len: int = 4096) -> PsdEstimate:
    """Welch estimate scaled so unit-variance white input reads 0 dB:
    periodic Hann window w, 50 % overlap, and in each one-sided bin the
    mean of |rfft(segment * w)|^2 / sum(w^2). The endpoint bins (DC,
    Nyquist) are on the same scale, so a flat spectrum reads flat across
    the whole axis. No detrending is applied.
    """
    if segment_len < MIN_SEGMENT:
        raise ValueError(f"segment_len must be at least {MIN_SEGMENT} samples")
    if segment_len > series.n:
        raise ValueError("segment_len exceeds series length")
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(segment_len) / segment_len)
    step = segment_len - segment_len // 2
    segments = np.lib.stride_tricks.sliding_window_view(
        series.samples, segment_len)[::step]
    power = np.mean(np.abs(np.fft.rfft(segments * w)) ** 2, axis=0) / np.sum(w * w)
    return PsdEstimate(freq_hz=np.fft.rfftfreq(segment_len, 1.0 / series.sample_rate),
                       db=10.0 * np.log10(power), n_segments=segments.shape[0])


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
