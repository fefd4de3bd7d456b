"""Measurement-chain emulation: detector bandwidth, electronic noise,
DC-blocking high-pass, ADC decimation and optional quantization.

The filters are the detector's analog first-order sections. The linear
stages (low-pass, white electronic noise, high-pass) are stationary, so
on a circulant block they act as gains on the PSD (DetectionChain.gains,
the one place the response lives): synth draws detected records from
DetectionChain.detected_psd directly, detect applies the same gains to a
record's own block. mode_autocovariance, built from the chain's PSD
and not from synth.mode_value_spectrum, is the covariance of the mode
values of both; expected_mode_variance is its lag 0, and
sample_variance_law reads it at a record's hop (synth.layout).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .modes import TemporalMode
from .spectra import QuadPsd, flat_psd
from .synth import (SeedLike, TimeSeries, TwoModeRecord, _power, _rate_stride, layout,
                    placed_window)

__all__ = [
    "DetectionChain",
    "detect",
    "expected_mode_variance",
    "mode_autocovariance",
    "sample_variance_law",
]

# electronic noise far above any detector's; beyond it the expectations overflow
# (the reference law's squares from about 1,700 dB, 10^(dB/10) from about 3,080 dB)
MAX_NOISE_DB = 100.0
# the fewest bits whose step (1.25 vacuum units at 4) keeps Sheppard's
# Delta^2/12, which the expectations add, near a rounded vacuum's variance;
# at 3 bits (step 2.5) a run's reference reads a third of its expectation
MIN_ADC_BITS = 4


def _quantizer_step(bits: int) -> float:
    """Step of the quantizer: its range of +/-10 vacuum units over 2^bits levels."""
    return 20.0 / (1 << bits)


@dataclass(frozen=True)
class DetectionChain:
    """Homodyne chain parameters (defaults match the reference instrument)."""

    detector_bandwidth: float = 8.4e6
    highpass_cutoff: float = 5e3
    electronic_noise_db: Optional[float] = -20.0
    adc_rate: float = 50e6
    adc_bits: Optional[int] = None

    def __post_init__(self):
        if not (self.highpass_cutoff > 0.0):
            raise ValueError(f"highpass_cutoff: must be positive, got {self.highpass_cutoff}")
        if not (self.detector_bandwidth > self.highpass_cutoff):
            raise ValueError(
                "detector_bandwidth: must exceed highpass_cutoff, got "
                f"{self.detector_bandwidth} and {self.highpass_cutoff}")
        if (self.electronic_noise_db or 0.0) > MAX_NOISE_DB:
            raise ValueError(f"electronic_noise_db: must be at most {MAX_NOISE_DB:g} dB")
        if not (self.adc_rate > 0.0):
            raise ValueError("adc_rate: must be positive")
        if self.adc_bits is not None and not MIN_ADC_BITS <= self.adc_bits <= 32:
            raise ValueError(
                f"adc_bits: must lie in [{MIN_ADC_BITS}, 32] when given, got {self.adc_bits}")

    def gains(self, omega: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Power gains (|H_lp|^2, |H_hp|^2) of the analog first-order
        sections at angular frequencies omega (rad/s): w_c^2/(w_c^2 + omega^2)
        and omega^2/(omega^2 + w_h^2), w_c and w_h the corners in rad/s (as
        ratios to a hypot, so that no finite corner overflows)."""
        f = np.asarray(omega, dtype=float) / (2.0 * math.pi)
        lp = (self.detector_bandwidth / np.hypot(self.detector_bandwidth, f)) ** 2
        hp = (f / np.hypot(f, self.highpass_cutoff)) ** 2
        return lp, hp

    def detected_psd(self, s: np.ndarray, omega: np.ndarray) -> np.ndarray:
        """PSD after the linear stages of the chain:
        |H_lp|^2 |H_hp|^2 S + N |H_hp|^2 with N = 10^(electronic_noise_db/10),
        for input PSD values s at angular frequencies omega (rad/s)."""
        lp, hp = self.gains(omega)
        out = lp * hp * s
        if self.electronic_noise_db is not None:
            out += 10.0 ** (self.electronic_noise_db / 10.0) * hp
        return out

    def decimation(self, fs: float) -> int:
        """Samples at record rate fs per ADC sample (digitize keeps one of
        each that many), after the chain's rules at fs, each a ValueError
        naming its field: adc_rate must not exceed fs and must divide it,
        and highpass_cutoff must lie below the Nyquist frequency."""
        if self.adc_rate > fs * (1.0 + 1e-9):
            raise ValueError(
                f"adc_rate: must not exceed fs ({self.adc_rate:g} Hz exceeds the "
                f"record rate {fs:g} Hz)")
        ratio = fs / self.adc_rate
        if not math.isfinite(ratio):
            raise ValueError(f"adc_rate: fs/adc_rate is not finite for {self.adc_rate:g} Hz")
        factor = int(round(ratio))
        if abs(ratio - factor) > 1e-9:
            raise ValueError(
                f"adc_rate: the record rate {fs:g} Hz is not an integer multiple of "
                f"{self.adc_rate:g} Hz")
        if self.highpass_cutoff >= 0.499 * fs:
            raise ValueError(
                f"highpass_cutoff: {self.highpass_cutoff:g} Hz is not below the "
                f"Nyquist frequency of fs={fs:g} Hz")
        return factor

    def digitize(self, y: np.ndarray, fs: float) -> np.ndarray:
        """Decimation of a series sampled at fs to adc_rate, then the
        optional quantization."""
        y = y[::self.decimation(fs)]
        if self.adc_bits is not None:
            y = _quantize(y, self.adc_bits)
        return y


def _quantize(y: np.ndarray, bits: int) -> np.ndarray:
    step = _quantizer_step(bits)
    if step > 0.1:
        warnings.warn(
            f"quantization step {step:.3g} vacuum units exceeds 0.1; "
            "digitization noise will be visible", stacklevel=3)
    half = 1 << (bits - 1)
    idx = np.clip(np.round(y / step), -half, half - 1)
    return idx * step


def detect(record: TwoModeRecord, chain: DetectionChain, seed: SeedLike) -> TwoModeRecord:
    """Pass both channels through the chain with independent noise.

    Order: low-pass, additive electronic noise, high-pass, decimation to
    adc_rate, optional quantization. Deterministic given seed. The filters
    act as the zero-phase gains sqrt(chain.gains) on the record's own
    circulant block, so there is no start-up transient, as in the records
    epr_record and vacuum_record draw through the chain.
    """
    fs = record.sample_rate
    n = record.a.n
    chain.decimation(fs)  # the chain's rules at fs, before any work
    omega = 2.0 * np.pi * fs * np.arange(n // 2 + 1) / n
    lp, hp = (np.sqrt(g) for g in chain.gains(omega))
    rng = np.random.default_rng(seed)
    db = chain.electronic_noise_db
    amp = None if db is None else 10.0 ** (db / 20.0)

    def process(series: TimeSeries) -> TimeSeries:
        spec = np.fft.rfft(series.samples) * lp
        if amp is not None:
            spec += np.fft.rfft(amp * rng.standard_normal(n))
        y = np.fft.irfft(spec * hp, n)
        return TimeSeries(sample_rate=chain.adc_rate,
                          samples=np.asarray(chain.digitize(y, fs)),
                          label=series.label)

    return TwoModeRecord(a=process(record.a), b=process(record.b))


def mode_autocovariance(psd: Optional[QuadPsd], chain: Optional[DetectionChain],
                        fs: float, mode: TemporalMode, n: int) -> np.ndarray:
    """Covariance c_l of two mode values l block samples apart, on the
    circulant block of n samples that epr_record and vacuum_record draw
    (with or without the chain) and detect filters: irfft(P |W|^2, n), P
    the detected power (synth._power; psd None means vacuum, chain None no
    processing) and W the placed window's rfft (placed_window). A
    quantizing chain adds Sheppard's Delta^2/12 to c_0. A record's values
    sit synth.layout's hop apart, so they read [::hop][:m]."""
    rate, stride = _rate_stride(chain, fs)
    window = placed_window(mode, rate, stride, n)
    c = np.fft.irfft(_power(flat_psd() if psd is None else psd, chain, n, fs)
                     * np.abs(window) ** 2, n)
    if chain is not None and chain.adc_bits is not None:
        c[0] += _quantizer_step(chain.adc_bits) ** 2 / 12.0
    return c


def expected_mode_variance(psd: Optional[QuadPsd], chain: Optional[DetectionChain],
                           fs: float, mode: TemporalMode,
                           block: int = 1 << 17) -> float:
    """Expected variance of one mode value of a record drawn, or detected,
    on a block of this length (synth.block_length): c_0 of
    mode_autocovariance, Sheppard's term included for a quantizing chain."""
    return float(mode_autocovariance(psd, chain, fs, mode, block)[0])


def sample_variance_law(psd: Optional[QuadPsd], chain: Optional[DetectionChain],
                        fs: float, mode: TemporalMode, duration: float) -> Tuple[float, float]:
    """Exact (mean, SD) of the ddof=1 variance analysis reads from the m
    mode values of a series drawn at duration and fs, in full or in mode
    space (psd None means vacuum; n, hop and m are synth.layout's). The
    values are Gaussian with Toeplitz covariance c_|j-l|, c the
    mode_autocovariance on n read every hop; with M = I - 11^T/m the mean
    is tr(CM)/(m-1) and the variance 2 tr(CMCM)/(m-1)^2, both from prefix
    sums of c."""
    n, _, hop, m = layout(duration, fs, chain, mode)
    c = mode_autocovariance(psd, chain, fs, mode, n)[::hop][:m]
    prefix = np.cumsum(c)
    rows = prefix + prefix[::-1] - c[0]  # C1
    total = float(np.sum(rows))  # 1^T C 1
    tr_cc = m * c[0] ** 2 + np.sum(2.0 * (m - np.arange(1, m)) * c[1:] ** 2)
    var = 2.0 * (tr_cc - 2.0 * np.sum(rows * rows) / m + (total / m) ** 2) / (m - 1) ** 2
    return float((m * c[0] - total / m) / (m - 1)), math.sqrt(var)
