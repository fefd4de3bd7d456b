"""Sampled realizations of the EPR beams as stationary Gaussian processes.

Every record is drawn one way, as a circulant Gaussian block: the rfft
coefficients of an n-sample block are drawn directly with variance
n * P(Omega_k) and one inverse FFT gives the samples. P is the PSD S, or
for a record drawn through a detection chain the detected PSD
(DetectionChain.detected_psd). The expected periodogram equals P bin by
bin, and for a flat PSD the map from the drawn normals to the samples is
orthogonal, so the samples are white with unit variance (the vacuum
calibration contract).

A record's two input beams are drawn from their own streams, each on
first use, and the record keeps the rfft coefficients it was drawn as; its
samples are built from them on first read (_Draw). Readings that are
linear in the samples (analysis.epr_report) are taken from the
coefficients, without the inverse FFTs, and draw only the beams they
weigh: the X record's x_A - x_B is input beam 2 alone, the P record's
p_A + p_B beam 1 alone. Beam k of a record seeded by the sequence seq is
drawn by default_rng(SeedSequence(seq.entropy, spawn_key=(*seq.spawn_key,
k))), so a record is the same whatever is read first, and from any thread.

synthesize_colored inverts an even block as two half-length transforms,
one on the calling thread and one on the module's single helper thread
(_irfft), so a 2^22-sample block's inverse FFT uses two cores. The helper
is started on first use, and the samples do not depend on which thread
runs which half.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Tuple

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
# bins per pass of _irfft's in-place split, so its temporaries stay small
_CHUNK = 1 << 16

SeedLike = int | np.random.SeedSequence


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled real quadrature record in vacuum units.

    A series of a record synth draws is built on first read of samples
    from the record's drawn coefficients (_Draw.record); dataclasses.replace
    of it gives a plain series.
    """

    sample_rate: float
    samples: np.ndarray
    label: str = "vacuum"
    # (draw, index) of a drawn record's series (_Draw.record); not a field,
    # so dataclasses.replace and asdict leave it out
    _source = None

    def __post_init__(self):
        if not (self.sample_rate > 0.0):
            raise ValueError("sample_rate must be positive")
        if self.samples.ndim != 1 or self.samples.size < 1:
            raise ValueError("samples must be a non-empty 1-D array")
        if self.label not in _LABELS:
            raise ValueError(f"label must be one of {_LABELS}, got {self.label!r}")

    def __getattr__(self, name):
        # reached only while a drawn series' samples are not yet built
        if name != "samples" or self._source is None:
            raise AttributeError(name)
        draw, index = self._source
        samples = draw.series()[index]
        object.__setattr__(self, "samples", samples)
        return samples

    @property
    def n(self) -> int:
        if self._source is not None:
            return self._source[0].n_series
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


def check_alias(psd: QuadPsd, fs: float) -> None:
    """Rejects an fs at whose Nyquist frequency the PSD is not yet near 1."""
    s_nyq = float(psd(np.array([np.pi * fs]))[0])
    if abs(s_nyq - 1.0) > _ALIAS_TOL:
        raise ValueError(
            f"fs: {fs:g} Hz too low for this PSD: |S(Nyquist)-1| = "
            f"{abs(s_nyq - 1.0):.3g} exceeds alias tolerance {_ALIAS_TOL:g}")


def _power(psd: QuadPsd, chain: Optional[DetectionChain], n: int,
           fs: float) -> np.ndarray:
    """P on the rfft bins of an n-sample block: S(Omega_k) or, with a
    chain, chain.detected_psd of it."""
    omega = 2.0 * np.pi * fs * np.arange(n // 2 + 1) / n
    p = psd(omega)
    if chain is not None:
        p = chain.detected_psd(p, omega)
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


def _coefficients(amp: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """The rfft coefficients of one n-sample block: interior bins complex
    with variance n/2 per part, DC and Nyquist real with variance n, all
    scaled by amp/sqrt(n/2) = sqrt(P)."""
    spec = rng.standard_normal(2 * amp.size).view(complex)
    spec[0] = spec[0].real * math.sqrt(2.0)
    if n % 2 == 0:
        spec[-1] = spec[-1].real * math.sqrt(2.0)
    spec *= amp
    return spec


def _start_helper() -> None:
    """A fresh _HELPER, the executor that runs one half of each even
    block's inverse FFT (_irfft). Its thread starts on the first submit,
    not at import."""
    global _HELPER
    _HELPER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="eprsim-irfft")


_start_helper()
if hasattr(os, "register_at_fork"):
    # a forked child inherits the executor but not its thread
    os.register_at_fork(after_in_child=_start_helper)


def _irfft(spec: np.ndarray, n: int) -> np.ndarray:
    """np.fft.irfft(spec, n) to within rounding, for the n // 2 + 1 rfft
    coefficients spec of a real block; spec is overwritten.

    Odd n is np.fft.irfft itself. Even n is split by decimation in time:
    with h = n/2 and w = exp(2 pi i/n), the even samples are irfft(e, h)
    and the odd ones irfft(o, h), where for k = 0..h//2
    e_k = (X_k + conj X_{h-k})/2 and o_k = (X_k - conj X_{h-k}) w^k/2.
    e_k is written to slot k of spec and o_k to slot h-k, in passes of
    _CHUNK bins; when h is even both share slot h/2, which keeps e_{h/2},
    and the odd samples are corrected by (o_{h/2} - e_{h/2})(-1)^m/h. The
    two half transforms run at once, the odd one on the helper thread, and
    their samples are interleaved into the first n doubles of spec, which
    are returned. The memory used is spec plus one n-sample block, as for
    np.fft.irfft.
    """
    if n % 2:
        return np.fft.irfft(spec, n)
    h = n // 2
    bins = h // 2 + 1
    if h % 2 == 0:
        e_mid, o_mid = spec[h // 2].real, -spec[h // 2].imag
    # w^k / 2 is step[k - k0] * w^k0 in the pass starting at bin k0
    step = 0.5 * np.exp(2j * np.pi / n * np.arange(min(bins, _CHUNK)))
    for k0 in range(0, bins, _CHUNK):
        k1 = min(k0 + _CHUNK, bins)
        lo, hi = spec[k0:k1], spec[h - k0:h - k1:-1]
        b = np.conj(hi)
        d = lo - b
        lo += b
        lo *= 0.5
        np.multiply(step[:k1 - k0], np.exp(2j * np.pi * k0 / n), out=b)
        d *= b
        hi[...] = d
    del step, b, d  # freed before the two half outputs are allocated
    if h % 2 == 0:
        spec[h // 2] = e_mid
    odd = _HELPER.submit(np.fft.irfft, spec[::-1][:bins], h)
    even = np.fft.irfft(spec[:bins], h)
    odd = odd.result()
    if h % 2 == 0:
        c = (o_mid - e_mid) / h
        odd[0::2] += c
        odd[1::2] -= c
    out = spec.view(np.float64)[:n]
    out[0::2] = even
    out[1::2] = odd
    return out


def _draw(amp: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """One n-sample block drawn in the frequency domain (_coefficients)
    and inverted by _irfft: an even block as two half-length transforms,
    one on the calling thread and one on the helper thread. Which thread
    runs which half does not change the samples."""
    return _irfft(_coefficients(amp, n, rng), n)


def synthesize_colored(psd: QuadPsd, n: int, fs: float, seed: SeedLike) -> TimeSeries:
    """One n-sample circulant Gaussian block whose expected periodogram
    equals the PSD bin by bin.

    Any n >= 2 is accepted; 2^a 3^b 5^c lengths are the fastest. The
    aliasing guard rejects sample rates at which the PSD has not yet
    settled to its asymptote at the Nyquist frequency.
    """
    if n < 2:
        raise ValueError(f"block length must be at least 2 samples, got {n}")
    check_alias(psd, fs)
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


def _children(seed: SeedLike, count: int) -> Tuple[np.random.SeedSequence, ...]:
    """The children (*seq.spawn_key, k), k < count, of the seed's sequence
    seq (an int seeds SeedSequence(int)). They are built from the key, not
    spawned: seq.spawn would advance seq, so the same sequence object would
    not give the same children twice. For a fresh seq they are
    seq.spawn(count)."""
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return tuple(np.random.SeedSequence(seq.entropy, spawn_key=(*seq.spawn_key, k),
                                        pool_size=seq.pool_size)
                 for k in range(count))


class _Draw:
    """The two input beams' blocks of one record, drawn as rfft
    coefficients, and the record's two series.

    Beam k (0 or 1) is drawn on first use (beam) from its own stream, the
    child (*seed's spawn_key, k) of the record's seed sequence, so a beam
    is the same whichever reading draws it. The series are built on first
    read of either one's samples: both beams' inverse FFTs, trimmed to
    n_out samples, the half-beam-splitter map when mixed (epr_record),
    then digitizing through the chain. A reading that is linear in the
    samples can be taken from combination() without them, and draws only
    the beams it weighs.
    """

    def __init__(self, psds: Tuple[QuadPsd, QuadPsd], chain: Optional[DetectionChain],
                 duration: float, fs: float, seed: SeedLike, mixed: bool):
        self.n = block_length(duration, fs)
        self.n_out = int(round(duration * fs))
        self.fs = fs
        self.chain = chain
        self.stride = 1 if chain is None else chain.decimation(fs)
        self.n_series = len(range(0, self.n_out, self.stride))
        self.linear = chain is None or chain.adc_bits is None
        self.mixed = mixed
        self._streams = _children(seed, 2)
        self._amps = tuple(_amplitude(psd, chain, self.n, fs) for psd in psds)
        self._beams = [None, None]
        self._series = None
        # reentrant: series() draws its beams under the lock it holds
        self._lock = threading.RLock()

    def beam(self, k: int) -> np.ndarray:
        """rfft coefficients of input beam k's block, drawn on first use."""
        with self._lock:
            if self._beams[k] is None:
                rng = np.random.default_rng(self._streams[k])
                self._beams[k] = _coefficients(self._amps[k], self.n, rng)
            return self._beams[k]

    def record(self, labels: Tuple[str, str]) -> TwoModeRecord:
        """The record whose series a and b are this draw's, unbuilt."""
        rate = self.fs if self.chain is None else self.chain.adc_rate
        series = []
        for index, label in enumerate(labels):
            s = object.__new__(TimeSeries)
            for attr, value in (("sample_rate", rate), ("label", label),
                                ("_source", (self, index))):
                object.__setattr__(s, attr, value)
            series.append(s)
        if not self.linear:
            # readings through a quantizer need the samples; build them
            # now, so that its warnings come from the draw
            self.series()
        return TwoModeRecord(*series)

    def series(self) -> Tuple[np.ndarray, np.ndarray]:
        """The samples of series a and b."""
        with self._lock:
            if self._series is None:
                # np.fft.irfft, not _irfft: these blocks gain nothing measurable
                # from the split, and run's files keep their last digits
                b1, b2 = (np.fft.irfft(self.beam(k), self.n)[: self.n_out]
                          for k in range(2))
                if self.mixed:
                    inv_sqrt2 = 1.0 / np.sqrt(2.0)
                    b1, b2 = (b1 + b2) * inv_sqrt2, (b1 - b2) * inv_sqrt2
                if self.chain is not None:
                    b1, b2 = (self.chain.digitize(y, self.fs) for y in (b1, b2))
                self._series = (b1, b2)
            return self._series

    def combination(self, i: int, j: int, sign: float) -> np.ndarray:
        """rfft coefficients of the block whose trimmed, digitized samples
        are (series i + sign * series j)/sqrt(2), for a linear chain; each
        series is (b1 + b2, b1 - b2)/sqrt(2) when mixed, else (b1, b2).
        Only beams of nonzero weight are drawn."""
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        weights = (((inv_sqrt2, inv_sqrt2), (inv_sqrt2, -inv_sqrt2)) if self.mixed
                   else ((1.0, 0.0), (0.0, 1.0)))
        out = None
        for k, (wi, wj) in enumerate(zip(weights[i], weights[j])):
            c = (wi + sign * wj) * inv_sqrt2
            if c:
                y = self.beam(k)
                out = c * y if out is None else out + c * y
        return np.zeros(self.n // 2 + 1, complex) if out is None else out


def _drawn(record: TwoModeRecord) -> Optional[Tuple[_Draw, int, int]]:
    """(draw, index of a, index of b) when both series of the record are
    series of one draw through a linear chain (no quantizer), else None."""
    sa, sb = record.a._source, record.b._source
    if sa is None or sb is None or sa[0] is not sb[0] or not sa[0].linear:
        return None
    return sa[0], sa[1], sb[1]


def epr_record(opo1: OpoParams, opo2: OpoParams, duration: float, fs: float,
               setting: str, seed: SeedLike,
               chain: Optional[DetectionChain] = None) -> TwoModeRecord:
    """EPR beam pair for one measurement setting.

    Draws the measured quadrature of each input beam from its own stream
    (one block of block_length(duration, fs) samples each, trimmed to
    duration*fs; _Draw) and applies the half-beam-splitter map
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
    check_alias(psd1, fs)
    check_alias(psd2, fs)
    draw = _Draw((psd1, psd2), chain, duration, fs, seed, mixed=True)
    lab = "x" if setting == "X" else "p"
    return draw.record((f"{lab}_A", f"{lab}_B"))


def vacuum_record(duration: float, fs: float, seed: SeedLike,
                  chain: Optional[DetectionChain] = None) -> TwoModeRecord:
    """Two independent draws from the flat vacuum PSD (the 0 dB
    reference); with a chain, from the detected vacuum PSD, digitized (the
    detected reference, as epr_record draws with a chain)."""
    draw = _Draw((flat_psd(), flat_psd()), chain, duration, fs, seed, mixed=False)
    return draw.record(("vacuum", "vacuum"))
