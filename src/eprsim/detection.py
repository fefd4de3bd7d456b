"""Measurement-chain emulation: detector bandwidth, electronic noise,
DC-blocking high-pass, ADC decimation and optional quantization.

Filters are first-order bilinear-transform sections. A low-pass cutoff at
or beyond the Nyquist frequency degenerates to a pass-through (the wide-
open surrogate), as does a high-pass cutoff below 1e-9 of the sample rate
(its pole is then numerically indistinguishable from 1 over any finite
record).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import signal

from .modes import TemporalMode
from .spectra import QuadPsd, flat_psd
from .synth import SeedLike, TimeSeries, TwoModeRecord, vacuum_record

__all__ = [
    "DetectionChain",
    "detect",
    "calibrate",
    "expected_mode_variance",
]

_FULL_SCALE = 10.0  # quantizer range in vacuum units, +/-


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
        if not (self.adc_rate > 0.0):
            raise ValueError("adc_rate: must be positive")
        if self.adc_bits is not None and not 2 <= self.adc_bits <= 32:
            raise ValueError(f"adc_bits: must lie in [2, 32] when given, got {self.adc_bits}")


def _design_filters(chain: DetectionChain, fs: float):
    lp = hp = None
    if chain.detector_bandwidth < 0.499 * fs:
        lp = signal.butter(1, chain.detector_bandwidth, "lowpass", fs=fs)
    if chain.highpass_cutoff > 1e-9 * fs:
        if chain.highpass_cutoff >= 0.499 * fs:
            raise ValueError(
                f"highpass_cutoff {chain.highpass_cutoff:g} Hz is not below the "
                f"Nyquist frequency of fs={fs:g} Hz")
        hp = signal.butter(1, chain.highpass_cutoff, "highpass", fs=fs)
    return lp, hp


def _decimation_factor(fs: float, adc_rate: float) -> int:
    if adc_rate > fs * (1.0 + 1e-9):
        raise ValueError(f"adc_rate {adc_rate:g} Hz exceeds record rate {fs:g} Hz")
    ratio = fs / adc_rate
    factor = int(round(ratio))
    if abs(ratio - factor) > 1e-9:
        raise ValueError(
            f"record rate {fs:g} Hz is not an integer multiple of adc_rate "
            f"{adc_rate:g} Hz")
    return factor


def _quantize(y: np.ndarray, bits: int) -> np.ndarray:
    step = 2.0 * _FULL_SCALE / (1 << bits)
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
    adc_rate, optional quantization. Deterministic given seed.
    """
    fs = record.sample_rate
    lp, hp = _design_filters(chain, fs)
    factor = _decimation_factor(fs, chain.adc_rate)
    rng = np.random.default_rng(seed)
    amp = None
    if chain.electronic_noise_db is not None:
        amp = 10.0 ** (chain.electronic_noise_db / 20.0)

    def process(series: TimeSeries) -> TimeSeries:
        y = series.samples
        if lp is not None:
            y = signal.lfilter(*lp, y)
        if amp is not None:
            y = y + amp * rng.standard_normal(y.size)
        if hp is not None:
            y = signal.lfilter(*hp, y)
        y = y[::factor]
        if chain.adc_bits is not None:
            y = _quantize(y, chain.adc_bits)
        return TimeSeries(sample_rate=chain.adc_rate, samples=np.asarray(y),
                          label=series.label)

    return TwoModeRecord(a=process(record.a), b=process(record.b),
                         setting=record.setting)


def calibrate(chain: DetectionChain, duration: float, fs: float,
              seed: SeedLike) -> TwoModeRecord:
    """Vacuum reference through the identical chain (the 0 dB anchor); the
    vacuum and the chain noise draw from two children spawned from seed."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    synth_seed, noise_seed = seed.spawn(2)
    return detect(vacuum_record(duration, fs, synth_seed), chain, noise_seed)


def expected_mode_variance(psd: Optional[QuadPsd], chain: Optional[DetectionChain],
                           fs: float, mode: TemporalMode,
                           block: int = 1 << 17) -> float:
    """Expected mode-filtered variance of a block-synthesized series after
    the chain, on the discrete frequency grid of one synthesis block.

    psd None means vacuum; chain None means no processing. Exact for the
    block-circulant synthesis model up to filter edge transients;
    quantization is ignored.
    """
    if psd is None:
        psd = flat_psd()
    k = np.arange(block)
    omega = 2.0 * np.pi * fs * np.minimum(k, block - k) / block
    s = psd(omega)

    adc_rate = fs
    noise = np.zeros_like(s)
    if chain is not None:
        lp, hp = _design_filters(chain, fs)
        w_digital = omega / fs  # rad/sample
        if lp is not None:
            _, h = signal.freqz(*lp, worN=w_digital)
            s = s * np.abs(h) ** 2
        if chain.electronic_noise_db is not None:
            noise = noise + 10.0 ** (chain.electronic_noise_db / 10.0)
        if hp is not None:
            _, h = signal.freqz(*hp, worN=w_digital)
            g2 = np.abs(h) ** 2
            s = s * g2
            noise = noise * g2
        adc_rate = chain.adc_rate

    factor = _decimation_factor(fs, adc_rate)
    w = mode.discretize(adc_rate)
    if w.size * factor > block:
        raise ValueError("mode window does not fit in one synthesis block")
    placed = np.zeros(block)
    placed[: w.size * factor : factor] = w
    win = np.abs(np.fft.fft(placed)) ** 2
    return float(np.sum((s + noise) * win) / block)
