"""Sampled realizations of the EPR beams as stationary Gaussian processes.

Every record is drawn one way, as a circulant Gaussian block: the rfft
coefficients of an n-sample block are drawn directly with variance
n * P(Omega_k) and one inverse FFT gives the samples. P is the PSD S, or
for a record drawn through a detection chain the detected PSD
(DetectionChain.detected_psd). The expected periodogram equals P bin by
bin, and for a flat PSD the map from the drawn normals to the samples is
orthogonal, so the samples are white with unit variance (the vacuum
calibration contract).
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

    def __post_init__(self):
        if self.a.sample_rate != self.b.sample_rate or self.a.n != self.b.n:
            raise ValueError("a and b must share sample rate and length")

    @property
    def sample_rate(self) -> float:
        return self.a.sample_rate


def _check_alias(psd: QuadPsd, fs: float) -> None:
    s_nyq = float(psd(np.array([np.pi * fs]))[0])
    if abs(s_nyq - 1.0) > _ALIAS_TOL:
        raise ValueError(
            f"fs={fs:g} Hz too low for this PSD: |S(Nyquist)-1| = "
            f"{abs(s_nyq - 1.0):.3g} exceeds alias tolerance {_ALIAS_TOL:g}")


def _power(psd: QuadPsd, chain: Optional[DetectionChain], n: int,
           fs: float) -> np.ndarray:
    """P on the rfft bins of an n-sample block: S(Omega_k) or, with a
    chain, chain.detected_psd of it."""
    omega = 2.0 * np.pi * fs * np.arange(n // 2 + 1) / n
    p = psd(omega)
    if chain is not None:
        p = chain.detected_psd(p, omega, fs)
    return p


@lru_cache(maxsize=8)
def _amplitude(psd: QuadPsd, chain: Optional[DetectionChain], n: int,
               fs: float) -> np.ndarray:
    """sqrt(n/2 * P) on the rfft bins of an n-sample block (_power).
    Read-only and cached, because every repetition of a run and every
    block of a Monte Carlo check draws from the same few (spectra caches
    its PSD objects, so equal arguments give the same key)."""
    amp = np.sqrt(0.5 * n * _power(psd, chain, n, fs))
    amp.flags.writeable = False
    return amp


def _draw(amp: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """One n-sample block drawn in the frequency domain: interior rfft bins
    complex with variance n/2 per part, DC and Nyquist real with variance
    n, all scaled by amp/sqrt(n/2) = sqrt(P)."""
    spec = rng.standard_normal(2 * amp.size).view(complex)
    spec[0] = spec[0].real * math.sqrt(2.0)
    if n % 2 == 0:
        spec[-1] = spec[-1].real * math.sqrt(2.0)
    spec *= amp
    return np.fft.irfft(spec, n)


def synthesize_colored(psd: QuadPsd, n: int, fs: float, seed: SeedLike) -> TimeSeries:
    """One n-sample circulant Gaussian block whose expected periodogram
    equals the PSD bin by bin.

    Any n >= 2 is accepted; 2^a 3^b 5^c lengths are the fastest. The
    aliasing guard rejects sample rates at which the PSD has not yet
    settled to its asymptote at the Nyquist frequency.
    """
    if n < 2:
        raise ValueError(f"block length must be at least 2 samples, got {n}")
    _check_alias(psd, fs)
    rng = np.random.default_rng(seed)
    return TimeSeries(sample_rate=fs, samples=_draw(_amplitude(psd, None, n, fs), n, rng))


def _beam_psd(params: OpoParams, setting: str) -> QuadPsd:
    # measuring X on a P-squeezed OPO sees its antisqueezed branch
    branch = "squeezed" if params.squeeze_phase == setting else "antisqueezed"
    return opo_spectrum(params, branch)


def block_length(duration: float, fs: float) -> int:
    """Length of the block a record of duration*fs samples is drawn on and
    trimmed from: the next length a real FFT handles fast, 2^a 3^b 5^c
    (100,000 samples stay 100,000)."""
    n_out = int(round(duration * fs))
    if n_out < 2:
        raise ValueError("duration*fs must cover at least 2 samples")
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


def _draw_pair(psd1: QuadPsd, psd2: QuadPsd, chain: Optional[DetectionChain],
               duration: float, fs: float, seed: SeedLike):
    """Two independent records of duration*fs samples from one generator,
    psd1's first, each trimmed from its own block of block_length samples."""
    n_blk = block_length(duration, fs)
    n_out = int(round(duration * fs))
    rng = np.random.default_rng(seed)
    return [_draw(_amplitude(psd, chain, n_blk, fs), n_blk, rng)[:n_out]
            for psd in (psd1, psd2)]


def _series(y: np.ndarray, fs: float, chain: Optional[DetectionChain],
            label: str) -> TimeSeries:
    if chain is None:
        return TimeSeries(fs, y, label=label)
    return TimeSeries(chain.adc_rate, chain.digitize(y, fs), label=label)


def epr_record(opo1: OpoParams, opo2: OpoParams, duration: float, fs: float,
               setting: str, seed: SeedLike,
               chain: Optional[DetectionChain] = None) -> TwoModeRecord:
    """EPR beam pair for one measurement setting.

    Draws the measured quadrature of each input beam independently (one
    block of block_length(duration, fs) samples each, trimmed to
    duration*fs) and applies the half-beam-splitter map
    A = (b1+b2)/sqrt(2), B = (b1-b2)/sqrt(2) samplewise.

    With a chain, each beam is drawn from its detected PSD instead, and A
    and B are digitized (chain.digitize). The chain's electronic noise is
    white, equal on both channels and independent of the signal, and the
    beam splitter is orthogonal, so it folds into the beams. The record then
    has the distribution detect gives the record drawn without the chain
    (exactly so when duration*fs is itself a block length, as 100,000 is).
    """
    if setting not in ("X", "P"):
        raise ValueError(f"setting must be 'X' or 'P', got {setting!r}")
    epr_spectra(opo1, opo2)  # validates the squeezing arrangement
    psd1 = _beam_psd(opo1, setting)
    psd2 = _beam_psd(opo2, setting)
    _check_alias(psd1, fs)
    _check_alias(psd2, fs)
    b1, b2 = _draw_pair(psd1, psd2, chain, duration, fs, seed)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    lab = "x" if setting == "X" else "p"
    return TwoModeRecord(a=_series((b1 + b2) * inv_sqrt2, fs, chain, f"{lab}_A"),
                         b=_series((b1 - b2) * inv_sqrt2, fs, chain, f"{lab}_B"))


def vacuum_record(duration: float, fs: float, seed: SeedLike,
                  chain: Optional[DetectionChain] = None) -> TwoModeRecord:
    """Two independent draws from the flat vacuum PSD (the 0 dB
    reference); with a chain, from the detected vacuum PSD, digitized (the
    detected reference, as epr_record draws with a chain)."""
    a, b = _draw_pair(flat_psd(), flat_psd(), chain, duration, fs, seed)
    return TwoModeRecord(a=_series(a, fs, chain, "vacuum"),
                         b=_series(b, fs, chain, "vacuum"))
