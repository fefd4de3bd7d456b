"""Sampled realizations of the EPR beams as stationary Gaussian processes.

Every record is drawn one way, as a circulant Gaussian block: the rfft
coefficients of an n-sample block are drawn directly with variance
n * P(Omega_k) and one inverse FFT gives the samples. P is the PSD S, or
for a record drawn through a detection chain the detected PSD
(DetectionChain.detected_psd). The expected periodogram equals P bin by
bin, and for a flat PSD the map from the drawn normals to the samples is
orthogonal, so the samples are white with unit variance (the vacuum
calibration contract).

A record's two input beams (beam 1 the P-squeezed OPO, beam 2 the
X-squeezed one, with the PSDs spectra.beam_spectra gives) are drawn from
their own streams: beam k of a record seeded by the sequence seq is drawn
by default_rng(SeedSequence(seq.entropy, spawn_key=(*seq.spawn_key, k))).
A record is built when it is drawn (_record): both beams' inverse
FFTs, the trim, the half-beam-splitter map, then digitizing through the
chain. Its series are plain TimeSeries, and every reading takes their
samples.

A record drawn for a temporal mode (epr_record and vacuum_record with
mode=) is drawn in mode space: it is a _ModeRecord, which holds its draw
(_ModeDraw), and its series (_ModeSeries) have a rate, a length and a
label but no samples. The n/hop mode values of a beam's block (n, hop
the windows' spacing in block samples and m, the number a reading
takes, all from layout, their one derivation) are a circulant Gaussian
sequence whose spectrum S_q is known (mode_value_spectrum of P and
placed_window), so each beam draws their rfft coefficients from
sqrt(n/(2 hop) * S_q), as a block draws its own from sqrt(n/2 * P),
both from one cache (_amplitude), and one inverse FFT gives the values
(_ModeDraw.values; a reading that takes all n/hop of them needs none,
analysis reads their variance from the coefficients by Parseval). This
is exact in distribution. Beam k then draws from the child
(*seq.spawn_key, 2 + k), so it shares no seed with the full draw of the
same record. Its beams are drawn on first use, the same from any thread,
and a reading (analysis.epr_report) draws only the beams it weighs: the
X record's x_A - x_B is input beam 2 alone, the P record's p_A + p_B
beam 1 alone. A quantizing chain, or a hop that does not divide the
block, keeps the full draw.

synthesize_colored draws a block's rfft coefficients straight into a
row layout and inverts it by the four-step FFT (Bailey, J.
Supercomputing 4, 23 (1990)), whose row and column transforms fit the
caches where one n-point transform does not (_invert has the layout and
the three steps). Its n//2 + 1 independent slots, in row-major order
(_slots), are drawn in two parts: [0, mid) from the child
(*seq.spawn_key, 0) of the seed's sequence seq and [mid, n//2] from the
child (*seq.spawn_key, 1), mid = (n//2 + 1)//2, scaled by amplitudes
cached in that order (_amplitude with rows). The draw and each step run
on two cores, one half on the calling thread and one on the process's
helper thread (_both, _helper); the helper is started on first use, and
the samples do not depend on which thread runs which half.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

# epr_spectra is not called here; perfbench's tracer wraps eprsim.synth.epr_spectra
from .spectra import OpoParams, QuadPsd, beam_spectra, epr_spectra, flat_psd  # noqa: F401

if TYPE_CHECKING:  # analysis and detection import synth, which imports neither
    from .detection import DetectionChain
    from .modes import TemporalMode

__all__ = [
    "TimeSeries",
    "TwoModeRecord",
    "block_length",
    "layout",
    "placed_window",
    "mode_value_spectrum",
    "synthesize_colored",
    "epr_record",
    "vacuum_record",
]

_LABELS = ("x_A", "p_A", "x_B", "p_B", "vacuum")
# largest |S(Nyquist) - 1| the aliasing guard accepts
_ALIAS_TOL = 0.15
# rows of synthesize_colored's layout: an n-sample block has gcd(n, _ROWS)
# (_shape), so a multiple of 16 has row transforms of n/16 points, which
# fit the caches better than one n-point transform
_ROWS = 16
# entries of _twiddle's fine exp table
_FINE = 1024

SeedLike = int | np.random.SeedSequence


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Uniformly sampled real quadrature record in vacuum units, equal only to itself."""

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


def _rate_stride(chain: Optional[DetectionChain], fs: float) -> Tuple[float, int]:
    """(rate, stride) of a record drawn at fs: its series' sample rate and
    the block samples per series sample."""
    return (fs, 1) if chain is None else (chain.adc_rate, chain.decimation(fs))


@lru_cache(maxsize=8)
def placed_window(mode: TemporalMode, adc_rate: float, stride: int,
                  block: int) -> np.ndarray:
    """rfft of the mode window placed on a block (read-only, cached).

    The placed window is a block of that many samples holding the mode's
    weights at adc_rate (mode.discretize) every stride samples, so that a
    mode value of a series trimmed from the block and decimated by stride
    is the block's correlation with it: value j at lag j*hop (layout).
    """
    w = mode.discretize(adc_rate)
    if w.size * stride > block:
        raise ValueError("mode window does not fit in one synthesis block")
    placed = np.zeros(block)
    placed[: w.size * stride : stride] = w
    window = np.fft.rfft(placed)
    window.flags.writeable = False
    return window


def mode_value_spectrum(power: np.ndarray, window: np.ndarray, n: int,
                        hop: int) -> np.ndarray:
    """The spectrum S_q, q = 0 .. m-1, of the m = n/hop mode values of an
    n-sample circulant Gaussian block whose rfft coefficients X_k are
    independent with E|X_k|^2 = n * power_k (the draws here, power their
    P on the rfft bins, _power).

    window is the rfft of the mode window placed on the block
    (placed_window) and hop the spacing n_w*d of consecutive windows in
    block samples, which must divide n. Mode value j is sample j*hop of
    the circular correlation of the block with the window, so the values'
    DFT is the fold of X * conj(window) onto m bins (the sum of the bins
    k = q mod m), over hop. Its bin q has E|V_q|^2 = m * S_q with S the
    same fold of h = n * power * |window|^2 over m * hop^2, and bins q and
    q' != +-q are independent: the values are a circulant Gaussian
    sequence, each of variance mean(S). S is even, S_q = S_{m-q}.

    h is real and even on the n bins, so S_q for q = 0 .. m//2 is the fold
    of h's half spectrum (bins 0 .. n//2) at q plus its fold at m - q,
    the mirror images n - k of the bins k, less DC and (for even n)
    Nyquist, which have no mirror image.
    """
    if n % hop:
        raise ValueError(f"window spacing {hop} does not divide the block length {n}")
    m = n // hop
    h = n * power * np.abs(window) ** 2
    rows = h.size // m
    fold = h[: rows * m].reshape(rows, m).sum(axis=0)
    fold[: h.size - rows * m] += h[rows * m:]
    half = fold[: m // 2 + 1].copy()
    half[0] += fold[0] - h[0]
    half[1:] += fold[m - 1: m - m // 2 - 1: -1]
    if n % 2 == 0:
        half[(n // 2) % m] -= h[-1]
    half /= m * hop * hop
    return np.concatenate([half, half[(m + 1) // 2 - 1: 0: -1]])


@lru_cache(maxsize=16)
def _amplitude(psd: QuadPsd, chain: Optional[DetectionChain], n: int, fs: float,
               mode: Optional[TemporalMode] = None, hop: Optional[int] = None,
               rows: bool = False) -> np.ndarray:
    """sqrt(n/2 * P) on the rfft bins of an n-sample block (_power), or
    with a mode and its windows' spacing hop (layout), which must divide
    n, sqrt(m/2 * S_q) on those of its m = n/hop mode values
    (mode_value_spectrum). With rows, the scale of each draw position of
    the block's row layout (_slots, _bins) instead: sqrt(n/2 * P) of its
    bin, and sqrt(n * P) at DC and Nyquist, whose imaginary parts the
    inverse ignores. Read-only and cached, because every repetition of a
    run and every block of a Monte Carlo check draws from the same few
    (spectra caches its PSD objects, so equal arguments give the same key;
    16 hold a run's full and mode-space amplitudes). Every draw's PSD
    passes the aliasing guard here, before anything is cached."""
    check_alias(psd, fs)
    p = _power(psd, chain, n, fs)
    if mode is not None:
        rate, stride = _rate_stride(chain, fs)
        p = mode_value_spectrum(p, placed_window(mode, rate, stride, n), n, hop)
        n //= hop
        p = p[: n // 2 + 1]
    elif rows:
        bins = _bins(n)
        p = p[bins]
        p[(bins == 0) | (2 * bins == n)] *= 2.0
        del bins
    amp = np.sqrt(np.multiply(0.5 * n, p, out=p))  # p in place: two n-sized arrays, not three
    amp.flags.writeable = False
    return amp


def _coefficients(amp: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """The rfft coefficients of one n-sample block drawn from rng, amp on
    its bins: standard normals viewed as complex, interior bins with
    variance n/2 per part, DC and Nyquist real with variance n, all scaled
    by amp/sqrt(n/2) = sqrt(P)."""
    spec = rng.standard_normal(2 * amp.size).view(complex)
    spec[0] = spec[0].real * math.sqrt(2.0)
    if n % 2 == 0:
        spec[-1] = spec[-1].real * math.sqrt(2.0)
    spec *= amp
    return spec


@lru_cache(maxsize=1)
def _helper(pid: int) -> ThreadPoolExecutor:
    """The executor that runs the second half of each step of a
    synthesize_colored block (_both) in the process pid: a forked child,
    which inherits the executor but not its thread, gets its own. Its
    thread starts on the first submit and then persists, because a thread
    started per block faults in its half's 32 MB of FFT buffers afresh on
    every 2^22-sample block (about 15 ms each on a 2-vCPU host)."""
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="eprsim-synth")


def _both(fn, first: tuple, second: tuple) -> tuple:
    """(fn(*first), fn(*second)), run at once: the first on the calling
    thread, the second on the helper thread (_helper)."""
    other = _helper(os.getpid()).submit(fn, *second)
    try:
        mine = fn(*first)
    finally:  # the helper may be writing the caller's arrays: always wait for it
        theirs = other.result()
    return mine, theirs


def _shape(n: int) -> Tuple[int, int]:
    """(R, M) of an n-sample block's row layout: R = gcd(n, _ROWS) rows of
    the full spectrum, M = n/R columns; the layout stores rows 0 .. R//2."""
    rows = math.gcd(n, _ROWS)
    return rows, n // rows


def _slots(n: int, lo: int, hi: int) -> Tuple[Tuple[int, int, int], ...]:
    """(start, stop, first) of each flat range of the row layout that holds
    draw positions lo .. hi - 1, in position order: first is the position
    at start. The n//2 + 1 positions are the independent slots in row-major
    order: row 0's columns 0 .. M//2, then every column of rows 1 .. R/2 - 1
    and row R/2's columns 0 .. (M-1)//2 (none of these for R = 1)."""
    _, m = _shape(n)
    head = m // 2 + 1
    out = []
    for start, first, stop in ((0, 0, head), (m, head, n // 2 + 1)):
        a, b = max(lo, first), min(hi, stop)
        if a < b:
            out.append((start + a - first, start + b - first, a))
    return tuple(out)


def _bins(n: int) -> np.ndarray:
    """The rfft bin each draw position of the row layout holds (_slots):
    bin k = k1 + R k2 at row k1, column k2, or n - k when k > n/2."""
    r, m = _shape(n)
    head = m // 2 + 1
    k = np.arange(n // 2 + 1)
    k[:head] *= r
    flat = k[head:]
    flat += m - head
    np.add(flat // m, r * (flat % m), out=flat)
    np.minimum(flat, n - flat, out=flat)
    return k


def _twiddle(row: np.ndarray, k1: int, n: int) -> None:
    """row *= exp(2 pi i k1 t/n), t = 0 .. row.size - 1, in place, each
    factor the product of a coarse and a fine exp table (t = a*_FINE + b),
    so no row-sized table is built or kept."""
    size = row.size
    step = 2.0 * np.pi * k1 / n
    fine = np.exp(1j * step * np.arange(_FINE))
    coarse = np.exp(1j * step * _FINE * np.arange(size // _FINE + 1))
    full = size - size % _FINE
    body = row[:full].reshape(-1, _FINE)
    body *= coarse[:-1, None]
    body *= fine
    row[full:] *= coarse[-1] * fine[:size - full]


def _invert(rows: np.ndarray, n: int) -> np.ndarray:
    """The n samples whose rfft coefficients the row layout rows holds: the
    R//2 + 1 by M array whose row k1, column k2 holds bin k = k1 + R k2, or
    the conjugate of bin n - k when k > n/2 (_shape). This is
    np.fft.irfft of the spectrum read back from it, to within rounding;
    the imaginary parts of DC and Nyquist are ignored, as irfft ignores
    them, and rows is overwritten.

    Rows 0 and R/2 hold their own mirror images, so only their first
    columns are read: row 0's columns M - k2 and row R/2's columns
    M - 1 - k2 are the conjugates of their columns k2. With each step
    split over the two threads (_both), the four-step inverse FFT:

    1. an inverse FFT of each row in place; row 0's is real, an irfft
       of its columns 0 .. M//2 written to its real parts, and row R/2's
       mirror images are filled in first;
    2. the twiddle exp(2 pi i k1 t2/n) of row k1 at column t2 (_twiddle);
    3. a length-R inverse real FFT of each column, which writes sample
       t1 M + t2 to row t1, column t2 of the output: the samples in order.

    For odd n (R = 1) step 1 is np.fft.irfft itself and step 3 a copy.
    """
    r, m = _shape(n)

    def row_steps(k_lo: int, k_hi: int) -> None:
        for k1 in range(k_lo, k_hi):
            row = rows[k1]
            if k1 == 0:  # numpy copies the input the output overlaps
                np.fft.irfft(row[:m // 2 + 1], n=m, out=row.real)
                continue
            if 2 * k1 == r:
                np.conjugate(row[:m // 2][::-1], out=row[(m + 1) // 2:])
            np.fft.ifft(row, out=row)
            _twiddle(row, k1, n)

    # the calling thread takes the extra row: it starts first
    half = (rows.shape[0] + 1) // 2
    _both(row_steps, (0, half), (half, rows.shape[0]))
    # allocated on this thread, like rows: a buffer allocated on the helper
    # thread can land on fresh pages and raise the peak memory of a run of
    # blocks by its size
    out = np.empty(n)
    grid = out.reshape(r, m)
    _both(lambda c0, c1: np.fft.irfft(rows[:, c0:c1], n=r, axis=0, out=grid[:, c0:c1]),
          (0, m // 2), (m // 2, m))
    return out


def _draw_rows(amp: np.ndarray, n: int, rngs: Tuple[np.random.Generator, ...]) -> np.ndarray:
    """The row layout (_invert) of one n-sample block's rfft coefficients,
    amp its row amplitudes (_amplitude with rows): standard normals, viewed
    as complex and scaled by amp, drawn in two parts at once (_both), draw
    positions (_slots) [0, mid) from rngs[0] and [mid, n//2] from rngs[1],
    mid = (n//2 + 1)//2, each straight into its own slots."""
    r, m = _shape(n)
    rows = np.empty((r // 2 + 1, m), complex)
    flat = rows.reshape(-1)

    def draw(lo: int, hi: int, rng: np.random.Generator) -> None:
        for start, stop, first in _slots(n, lo, hi):
            part = flat[start:stop]
            rng.standard_normal(out=part.view(np.float64))
            part *= amp[first:first + stop - start]

    mid = amp.size // 2
    _both(draw, (0, mid, rngs[0]), (mid, amp.size, rngs[1]))
    return rows


def synthesize_colored(psd: QuadPsd, n: int, fs: float, seed: SeedLike) -> TimeSeries:
    """One n-sample circulant Gaussian block whose expected periodogram
    equals the PSD bin by bin.

    The block's rfft coefficients are drawn straight into their row layout
    (_draw_rows), the first half of them from the child (*seq.spawn_key, 0)
    of the seed's sequence seq and the rest from the child
    (*seq.spawn_key, 1), and _invert turns them into the samples; both
    run on two threads. Any n >= 2 is accepted; 2^a 3^b 5^c lengths are
    the fastest, and multiples of 16 split best. The aliasing guard
    rejects sample rates at which the PSD has not yet settled to its
    asymptote at the Nyquist frequency.
    """
    if n < 2:
        raise ValueError(f"block length must be at least 2 samples, got {n}")
    amp = _amplitude(psd, None, n, fs, rows=True)
    rngs = tuple(map(np.random.default_rng, _children(seed, 2)))
    return TimeSeries(sample_rate=fs, samples=_invert(_draw_rows(amp, n, rngs), n))


def block_length(duration: float, fs: float) -> int:
    """Length of the block a record of duration*fs samples is drawn on and
    trimmed from: the next length a real FFT handles fast, 2^a 3^b 5^c
    (100,000 samples stay 100,000)."""
    n_out = int(round(duration * fs))
    if n_out < 2:
        raise ValueError("duration*fs must cover at least 2 samples")
    return _next_fast_len(n_out)


@lru_cache(maxsize=64)
def _next_fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, the lengths a real FFT handles fastest
    (cached: every record of a run asks for the same one)."""
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


def layout(duration: float, fs: float, chain: Optional[DetectionChain],
           mode: TemporalMode) -> Tuple[int, int, int, int]:
    """(n, n_series, hop, m) of a record read with mode: block_length, the
    ceil(round(duration*fs)/stride) samples chain.digitize keeps, hop =
    stride*n_w block samples for n_w-sample windows, and m = n_series // n_w."""
    rate, stride = _rate_stride(chain, fs)
    n_w = mode.n_samples(rate)
    n_series = -(-int(round(duration * fs)) // stride)
    return block_length(duration, fs), n_series, stride * n_w, n_series // n_w


def _children(seed: SeedLike, count: int,
              first: int = 0) -> Tuple[np.random.SeedSequence, ...]:
    """The children (*seq.spawn_key, k), first <= k < first + count, of the
    seed's sequence seq (an int seeds SeedSequence(int)). They are built
    from the key, not spawned: seq.spawn would advance seq, so the same
    sequence object would not give the same children twice. For a fresh
    seq and first 0 they are seq.spawn(count)."""
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return tuple(np.random.SeedSequence(seq.entropy, spawn_key=(*seq.spawn_key, k),
                                        pool_size=seq.pool_size)
                 for k in range(first, first + count))


class _ModeDraw:
    """The two input beams of one record drawn in mode space, as the rfft
    coefficients of their size = n/hop mode values (a reading takes the
    first count, layout's m), drawn from amps (_amplitude with the mode).

    Beam k (0 or 1) is drawn on first use (beam), from the child
    (*seed's spawn_key, 2 + k) of the record's seed sequence, so a beam is
    the same whichever reading draws it, from whichever thread. A reading
    takes combination(), which draws only the beams it weighs.
    """

    def __init__(self, amps: Tuple[np.ndarray, np.ndarray], size: int, count: int,
                 seed: SeedLike, mixed: bool, mode: TemporalMode):
        self.mixed = mixed
        self.mode = mode
        self.size, self.count = size, count
        self._streams = _children(seed, 2, first=2)
        self._amps = amps
        self._beams = [None, None]
        self._lock = threading.Lock()

    def beam(self, k: int) -> np.ndarray:
        """rfft coefficients of input beam k's mode values, drawn on first
        use; read-only."""
        with self._lock:
            if self._beams[k] is None:
                rng = np.random.default_rng(self._streams[k])
                spec = _coefficients(self._amps[k], self.size, rng)
                spec.flags.writeable = False
                self._beams[k] = spec
            return self._beams[k]

    def combination(self, sign: float) -> np.ndarray:
        """rfft coefficients of the mode values of (series a + sign *
        series b)/sqrt(2); the series are (b1 + b2, b1 - b2)/sqrt(2) when
        mixed, else (b1, b2). Only beams of nonzero weight are drawn, and
        one of them always is."""
        if self.mixed:  # the sum is beam 1 alone, the difference beam 2
            return self.beam(0 if sign > 0 else 1)
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        return inv_sqrt2 * self.beam(0) + (sign * inv_sqrt2) * self.beam(1)

    def values(self, sign: float) -> np.ndarray:
        """The count mode values a reading of combination(sign) takes: the
        first count of the size values its inverse FFT gives."""
        return np.fft.irfft(self.combination(sign), self.size)[:self.count]


@dataclass(frozen=True)
class _ModeSeries:
    """A series of a record drawn in mode space: a sample rate, a length
    and a label, and no samples."""

    sample_rate: float
    n: int
    label: str

    @property
    def samples(self) -> np.ndarray:
        raise ValueError("a record drawn in mode space has no samples")


@dataclass(frozen=True)
class _ModeRecord(TwoModeRecord):
    """A record drawn in mode space: its two _ModeSeries and the draw
    (_ModeDraw) that analysis.epr_report reads. A record built from its
    series, such as TwoModeRecord(rec.b, rec.a), is a plain record."""

    draw: _ModeDraw = field(repr=False)


def _record(psds: Tuple[QuadPsd, QuadPsd], chain: Optional[DetectionChain],
            duration: float, fs: float, seed: SeedLike, mixed: bool,
            mode: Optional[TemporalMode], labels: Tuple[str, str]) -> TwoModeRecord:
    """The record with series labels (a, b) whose input beams have the
    PSDs psds: drawn in mode space (_ModeDraw) with a mode, a linear chain
    and windows whose spacing divides the block, else in full: each beam's
    block from the child (*seed's spawn_key, k), its inverse FFT trimmed to
    duration*fs samples, the half-beam-splitter map when mixed, then
    digitizing through the chain."""
    n = block_length(duration, fs)
    rate, _ = _rate_stride(chain, fs)
    if mode is not None and (chain is None or chain.adc_bits is None):
        _, n_series, hop, m = layout(duration, fs, chain, mode)
        if n % hop == 0:
            amps = tuple(_amplitude(psd, chain, n, fs, mode, hop) for psd in psds)
            draw = _ModeDraw(amps, n // hop, m, seed, mixed, mode)
            return _ModeRecord(*(_ModeSeries(rate, n_series, label) for label in labels), draw)
    n_out = int(round(duration * fs))
    amps = [_amplitude(psd, chain, n, fs) for psd in psds]
    # natural-order draws and np.fft.irfft, not the row layout: these
    # blocks are small, and run's files keep their streams and last digits
    b1, b2 = (np.fft.irfft(_coefficients(amp, n, np.random.default_rng(stream)), n)[:n_out]
              for amp, stream in zip(amps, _children(seed, 2)))
    if mixed:
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        b1, b2 = (b1 + b2) * inv_sqrt2, (b1 - b2) * inv_sqrt2
    if chain is not None:
        b1, b2 = (chain.digitize(y, fs) for y in (b1, b2))
    return TwoModeRecord(*(TimeSeries(rate, y, label) for y, label in zip((b1, b2), labels)))


def epr_record(opo1: OpoParams, opo2: OpoParams, duration: float, fs: float,
               setting: str, seed: SeedLike,
               chain: Optional[DetectionChain] = None,
               mode: Optional[TemporalMode] = None) -> TwoModeRecord:
    """EPR beam pair for one measurement setting.

    Draws the measured quadrature of each input beam from its own stream
    (one block of block_length(duration, fs) samples each, trimmed to
    duration*fs; _record) and applies the half-beam-splitter map
    A = (b1+b2)/sqrt(2), B = (b1-b2)/sqrt(2) samplewise. Beam 1 is the
    P-squeezed OPO and beam 2 the X-squeezed one, whichever argument each
    is; spectra.beam_spectra gives their PSDs for the setting.

    With a chain, each beam is drawn from its detected PSD instead, and A
    and B are digitized (chain.digitize). The chain's electronic noise is
    white, equal on both channels and independent of the signal, and the
    beam splitter is orthogonal, so it folds into the beams. The record then
    has the distribution detect gives the record drawn without the chain
    (exactly so when duration*fs is itself a block length, as 100,000 is).

    With a mode, the record is drawn in mode space where it can be (a
    linear chain, and a spacing of the mode's windows that divides the
    block): it is a _ModeRecord, its series have no samples, and
    analysis.epr_report reads its mode values for that mode from its draw
    (_ModeDraw), with the distribution of the full draw's. Otherwise the
    record is built here, and its series are plain TimeSeries.
    """
    lab = "x" if setting == "X" else "p"
    return _record(beam_spectra(opo1, opo2, setting), chain, duration, fs, seed,
                   mixed=True, mode=mode, labels=(f"{lab}_A", f"{lab}_B"))


def vacuum_record(duration: float, fs: float, seed: SeedLike,
                  chain: Optional[DetectionChain] = None,
                  mode: Optional[TemporalMode] = None) -> TwoModeRecord:
    """Two independent draws from the flat vacuum PSD (the 0 dB
    reference); with a chain, from the detected vacuum PSD, digitized (the
    detected reference, as epr_record draws with a chain); with a mode,
    drawn in mode space where it can be, as epr_record is."""
    return _record((flat_psd(), flat_psd()), chain, duration, fs, seed, mixed=False,
                   mode=mode, labels=("vacuum", "vacuum"))
