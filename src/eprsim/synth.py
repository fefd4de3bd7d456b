"""Sampled realizations of the EPR beams as stationary Gaussian processes.

Block FFT synthesis: a white Gaussian block is shaped in the frequency
domain by sqrt(S(Omega_k)), so the expected periodogram equals the target
PSD bin by bin and a flat PSD passes white samples through unchanged
(the vacuum calibration contract).

Records drawn through a detection chain skip the white block: their rfft
coefficients are drawn directly with variance n * P_det(Omega_k), P_det
the detected PSD (DetectionChain.detected_psd), and one inverse FFT per
beam gives the detected samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Optional

import numpy as np

from .spectra import OpoParams, QuadPsd, epr_spectra, flat_psd, opo_spectrum

if TYPE_CHECKING:  # detection imports synth
    from .detection import DetectionChain

__all__ = [
    "TimeSeries",
    "TwoModeRecord",
    "block_length",
    "synthesize_colored",
    "epr_record",
    "vacuum_record",
]

_LABELS = ("x_A", "p_A", "x_B", "p_B", "vacuum")
_SETTINGS = ("X", "P", "VACUUM")
# largest |S(Nyquist) - 1| the aliasing guard accepts
_ALIAS_TOL = 0.15

SeedLike = int | np.random.SeedSequence


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled real quadrature record in vacuum units."""

    sample_rate: float
    samples: np.ndarray
    label: str = "vacuum"

    def __post_init__(self):
        if not (self.sample_rate > 0.0):
            raise ValueError("sample_rate must be positive")
        if self.samples.ndim != 1 or self.samples.size < 1:
            raise ValueError("samples must be a non-empty 1-D array")
        if self.label not in _LABELS:
            raise ValueError(f"label must be one of {_LABELS}, got {self.label!r}")

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.n / self.sample_rate


@dataclass(frozen=True)
class TwoModeRecord:
    """Simultaneously sampled quadratures of EPR beams A and B."""

    a: TimeSeries
    b: TimeSeries
    setting: str

    def __post_init__(self):
        if self.setting not in _SETTINGS:
            raise ValueError(f"setting must be one of {_SETTINGS}, got {self.setting!r}")
        if self.a.sample_rate != self.b.sample_rate or self.a.n != self.b.n:
            raise ValueError("a and b must share sample rate and length")

    @property
    def sample_rate(self) -> float:
        return self.a.sample_rate


def _synthesize_block(psd: QuadPsd, n: int, fs: float,
                      rng: np.random.Generator) -> np.ndarray:
    white = rng.standard_normal(n)
    spec = np.fft.rfft(white)
    omega = 2.0 * np.pi * fs * np.arange(spec.size) / n
    spec *= np.sqrt(psd(omega))
    return np.fft.irfft(spec, n)


def _check_alias(psd: QuadPsd, fs: float) -> None:
    s_nyq = float(psd(np.array([np.pi * fs]))[0])
    if abs(s_nyq - 1.0) > _ALIAS_TOL:
        raise ValueError(
            f"fs={fs:g} Hz too low for this PSD: |S(Nyquist)-1| = "
            f"{abs(s_nyq - 1.0):.3g} exceeds alias tolerance {_ALIAS_TOL:g}")


def synthesize_colored(psd: QuadPsd, n: int, fs: float, seed: SeedLike) -> TimeSeries:
    """One Gaussian block with expected periodogram equal to the PSD.

    n must be a power of two (block synthesis). The aliasing guard rejects
    sample rates at which the PSD has not yet settled to its asymptote at
    the Nyquist frequency.
    """
    if n < 2 or n & (n - 1):
        raise ValueError(f"block length must be a power of two, got {n}")
    _check_alias(psd, fs)
    rng = np.random.default_rng(seed)
    return TimeSeries(sample_rate=fs, samples=_synthesize_block(psd, n, fs, rng))


def _beam_psd(params: OpoParams, setting: str) -> QuadPsd:
    # measuring X on a P-squeezed OPO sees its antisqueezed branch
    branch = "squeezed" if params.squeeze_phase == setting else "antisqueezed"
    return opo_spectrum(params, branch)


def block_length(duration: float, fs: float,
                 chain: Optional[DetectionChain] = None) -> int:
    """Length of the synthesis block a record of duration*fs samples is
    trimmed from: the next power of two, or for a record drawn through a
    detection chain the next length a real FFT handles fast (100,000
    samples stay 100,000)."""
    n_out = int(round(duration * fs))
    if n_out < 2:
        raise ValueError("duration*fs must cover at least 2 samples")
    if chain is None:
        return 1 << (n_out - 1).bit_length()
    return _next_fast_len(n_out)


def _next_fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, the lengths a real FFT handles fastest."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest p35 * 2^a >= n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


@lru_cache(maxsize=8)
def _detected_amplitude(params: Optional[OpoParams], setting: str,
                        chain: DetectionChain, n: int, fs: float) -> np.ndarray:
    """sqrt(n/2 * P_det) on the rfft bins of an n-sample block, P_det the
    detected PSD of one beam's measured quadrature (vacuum when params is
    None). Read-only and cached, because every repetition of a run draws
    from the same few."""
    psd = flat_psd() if params is None else _beam_psd(params, setting)
    omega = 2.0 * np.pi * fs * np.arange(n // 2 + 1) / n
    amp = np.sqrt(0.5 * n * chain.detected_psd(psd(omega), omega, fs))
    amp.flags.writeable = False
    return amp


def _draw_detected(amp: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """One n-sample block drawn in the frequency domain: interior rfft bins
    complex with variance n/2 per part, DC and Nyquist real with variance
    n, all scaled by amp/sqrt(n/2) = sqrt(P_det)."""
    spec = rng.standard_normal(2 * amp.size).view(complex)
    spec[0] = spec[0].real * math.sqrt(2.0)
    if n % 2 == 0:
        spec[-1] = spec[-1].real * math.sqrt(2.0)
    spec *= amp
    return np.fft.irfft(spec, n)


def epr_record(opo1: OpoParams, opo2: OpoParams, duration: float, fs: float,
               setting: str, seed: SeedLike,
               chain: Optional[DetectionChain] = None) -> TwoModeRecord:
    """EPR beam pair for one measurement setting.

    Synthesizes the measured quadrature of each input beam independently
    (one block of block_length(duration, fs, chain) samples, trimmed to
    duration*fs) and applies the half-beam-splitter map
    A = (b1+b2)/sqrt(2), B = (b1-b2)/sqrt(2) samplewise.

    With a chain, each beam is drawn from its detected PSD instead, and A
    and B are digitized (chain.digitize). The chain's electronic noise is
    white, equal on both channels and independent of the signal, and the
    beam splitter is orthogonal, so it folds into the beams. The record then
    has the distribution detect gives a record synthesized on a circulant
    block of the same length.
    """
    if setting not in ("X", "P"):
        raise ValueError(f"setting must be 'X' or 'P', got {setting!r}")
    epr_spectra(opo1, opo2)  # validates the squeezing arrangement
    n_blk = block_length(duration, fs, chain)
    n_out = int(round(duration * fs))
    rng = np.random.default_rng(seed)
    psd1 = _beam_psd(opo1, setting)
    psd2 = _beam_psd(opo2, setting)
    _check_alias(psd1, fs)
    _check_alias(psd2, fs)
    if chain is None:
        b1 = _synthesize_block(psd1, n_blk, fs, rng)[:n_out]
        b2 = _synthesize_block(psd2, n_blk, fs, rng)[:n_out]
    else:
        b1 = _draw_detected(_detected_amplitude(opo1, setting, chain, n_blk, fs),
                            n_blk, rng)[:n_out]
        b2 = _draw_detected(_detected_amplitude(opo2, setting, chain, n_blk, fs),
                            n_blk, rng)[:n_out]
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    a, b = (b1 + b2) * inv_sqrt2, (b1 - b2) * inv_sqrt2
    rate = fs
    if chain is not None:
        a, b, rate = chain.digitize(a, fs), chain.digitize(b, fs), chain.adc_rate
    lab = "x" if setting == "X" else "p"
    return TwoModeRecord(a=TimeSeries(rate, a, label=f"{lab}_A"),
                         b=TimeSeries(rate, b, label=f"{lab}_B"), setting=setting)


def vacuum_record(duration: float, fs: float, seed: SeedLike,
                  chain: Optional[DetectionChain] = None) -> TwoModeRecord:
    """Two independent white vacuum series (the 0 dB reference); with a
    chain, two independent draws from the detected vacuum PSD, digitized
    (the detected reference, as epr_record draws with a chain)."""
    n_out = int(round(duration * fs))
    if n_out < 2:
        raise ValueError("duration*fs must cover at least 2 samples")
    rng = np.random.default_rng(seed)
    if chain is None:
        a, b = rng.standard_normal(n_out), rng.standard_normal(n_out)
        rate = fs
    else:
        n_blk = block_length(duration, fs, chain)
        amp = _detected_amplitude(None, "VACUUM", chain, n_blk, fs)
        a = chain.digitize(_draw_detected(amp, n_blk, rng)[:n_out], fs)
        b = chain.digitize(_draw_detected(amp, n_blk, rng)[:n_out], fs)
        rate = chain.adc_rate
    return TwoModeRecord(a=TimeSeries(rate, a, label="vacuum"),
                         b=TimeSeries(rate, b, label="vacuum"), setting="VACUUM")
