"""Temporal mode functions: unit-norm weights f(t) that turn a continuous
quadrature record into discrete single-mode values.

A mode is defined on a finite support [0, duration]. Three parametric
families are provided (square, one-sided exponential, symmetric two-sided
exponential) plus tabulated samples; KINDS lists them with their parameter
names and default search bounds. All modes satisfy the norm contract
integral f(t)^2 dt = 1; discretized weights are renormalized to unit
Euclidean norm so a white unit-variance input always yields mode variance
exactly 1.

Each mode also has the closed-form overlap with a Lorentzian spectrum
(TemporalMode.lorentz_overlap) that the filtered-variance oracle uses;
lorentz_overlaps gives it for a set of modes, all square modes in one
square_lorentz_overlaps pass. Its band tail is a series of generalized
exponential integrals (_expint), each element evaluated to its own
convergence, so a value does not depend on the batch it is computed in.
Those moments depend on the band and the mode's support, not on the
Lorentzian width or the decay rate, so they are shared per support: the
longest set computed for each of the last 64 supports is kept (_moments),
and overlaps on a kept support (a mode's two EPR quadratures, the steps
of a pump calibration or of the optimizer's rate search) evaluate them
once, with values identical to a fresh evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = ["KINDS", "ModeKind", "TemporalMode", "lorentz_overlaps",
           "square_lorentz_overlaps"]

# decay rate (1/s) of an exponential mode far above any the ADC could
# sample; beyond it the oracle fails: power_spectrum's (r^2 + Omega^2)^2
# overflows from about 1.2e77 (double_exp), and filtered_variance's
# quadrature stops converging well before 1e140
MAX_RATE = 1e20


class ModeKind(NamedTuple):
    """One row of the mode-kind table: the factory's parameter names in call
    order and, for the kinds the optimizer searches, each parameter's
    default (lo, hi) search bounds."""

    params: Tuple[str, ...]
    bounds: Optional[Tuple[Tuple[float, float], ...]] = None


# kind name -> row; each kind's name is also its TemporalMode factory
KINDS: Dict[str, ModeKind] = {
    "square": ModeKind(("duration",), ((0.02e-6, 2e-6),)),
    "one_sided_exp": ModeKind(("rate", "support"), ((1e3, 2e8), (0.02e-6, 2e-6))),
    "double_exp": ModeKind(("rate", "support"), ((1e3, 2e8), (0.02e-6, 2e-6))),
    "tabulated": ModeKind(("samples", "duration")),
}


@dataclass(frozen=True)
class TemporalMode:
    """Unit-norm mode function on [0, duration].

    Use the factory constructors (:meth:`square`, :meth:`one_sided_exp`,
    :meth:`double_exp`, :meth:`tabulated`) rather than the raw dataclass
    init; they validate parameters and normalize tabulated samples.
    """

    kind: str
    duration: float
    rate: Optional[float] = None
    samples: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown mode kind {self.kind!r}")
        if not (self.duration > 0.0 and np.isfinite(self.duration)):
            raise ValueError("duration: must be positive and finite")
        if self.kind in ("one_sided_exp", "double_exp"):
            if self.rate is None or not (self.rate > 0.0 and np.isfinite(self.rate)):
                raise ValueError(f"rate: {self.kind} mode requires a positive decay rate")
            if self.rate > MAX_RATE:
                raise ValueError(f"rate: must be at most {MAX_RATE:g} 1/s, got {self.rate:g}")
        if self.kind == "tabulated":
            if not self.samples or len(self.samples) < 1:
                raise ValueError("samples: tabulated mode requires at least one sample")
            arr = np.asarray(self.samples, dtype=float)
            if not np.all(np.isfinite(arr)) or not np.any(arr != 0.0):
                raise ValueError("samples: must be finite and not all zero")

    # -- constructors ------------------------------------------------------

    @classmethod
    def square(cls, duration: float) -> "TemporalMode":
        """f(t) = 1/sqrt(T) on [0, T]: the flat integration window."""
        return cls(kind="square", duration=float(duration))

    @classmethod
    def one_sided_exp(cls, rate: float, support: float) -> "TemporalMode":
        """f(t) proportional to exp(-rate*t) on [0, support], rate in 1/s."""
        return cls(kind="one_sided_exp", duration=float(support), rate=float(rate))

    @classmethod
    def double_exp(cls, rate: float, support: float) -> "TemporalMode":
        """f(t) proportional to exp(-rate*|t - support/2|) on [0, support]."""
        return cls(kind="double_exp", duration=float(support), rate=float(rate))

    @classmethod
    def tabulated(cls, samples, duration: float) -> "TemporalMode":
        """Mode given by samples on a uniform midpoint grid over [0, duration].

        Samples are normalized at construction; only the shape matters.
        Samples that are unit-norm up to rounding are kept as given, so
        rebuilding a mode from its own samples reproduces it exactly.
        """
        arr = np.asarray(samples, dtype=float)
        if arr.ndim != 1:
            raise ValueError("samples: must be one-dimensional")
        if not 0.0 < float(duration) < math.inf:
            raise ValueError("duration: must be positive and finite")
        peak = float(np.max(np.abs(arr), initial=0.0))
        if not 0.0 < peak < math.inf:
            raise ValueError("samples: must be finite and not all zero")
        e = math.frexp(peak)[1] - 1  # scaled by 2^e <= peak, exactly: squares stay in range
        scaled = np.ldexp(arr, -e)
        nrm = float(np.sqrt(np.sum(scaled * scaled) * (float(duration) / arr.size)))
        if abs(nrm * 2.0 ** e - 1.0) > 1e-12:
            arr = scaled / nrm
        return cls(kind="tabulated", duration=float(duration), samples=tuple(arr))

    @classmethod
    def from_params(cls, kind: str, params: Dict[str, Any]) -> "TemporalMode":
        """The factory of a KINDS entry called with keyword params."""
        if not isinstance(kind, str) or kind not in KINDS:
            raise ValueError(f"unknown mode kind {kind!r}")
        return getattr(cls, kind)(**params)

    @property
    def params(self) -> Dict[str, Any]:
        """Factory arguments of this mode: from_params(kind, params) rebuilds it."""
        fields = {"duration": self.duration, "support": self.duration,
                  "rate": self.rate, "samples": self.samples}
        return {name: fields[name] for name in KINDS[self.kind].params}

    # -- continuous-time views ---------------------------------------------

    def amplitude(self, t: np.ndarray) -> np.ndarray:
        """Normalized f(t) for t inside [0, duration] (0 outside)."""
        t = np.asarray(t, dtype=float)
        inside = (t >= 0.0) & (t <= self.duration)
        if self.kind == "square":
            f = np.full_like(t, 1.0 / np.sqrt(self.duration))
        elif self.kind == "one_sided_exp":
            f = math.sqrt(self._exp_norm()) * np.exp(-self.rate * t)
        elif self.kind == "double_exp":
            tc = self.duration / 2.0
            f = math.sqrt(self._exp_norm()) * np.exp(-self.rate * np.abs(t - tc))
        else:
            arr = np.asarray(self.samples)
            dt = self.duration / arr.size
            idx = np.clip((t / dt).astype(int), 0, arr.size - 1)
            f = arr[idx]
        return np.where(inside, f, 0.0)

    def _exp_norm(self) -> float:
        """Squared amplitude a^2 of the exponential kinds (unit norm)."""
        if self.kind == "one_sided_exp":
            return 2.0 * self.rate / -math.expm1(-2.0 * self.rate * self.duration)
        return self.rate / -math.expm1(-self.rate * self.duration)

    def _steps(self) -> Tuple[np.ndarray, float]:
        """Jumps of a tabulated mode at breakpoints k*spacing."""
        arr = np.asarray(self.samples)
        return np.diff(arr, prepend=0.0, append=0.0), self.duration / arr.size

    def power_spectrum(self, omega: np.ndarray) -> np.ndarray:
        """|F(Omega)|^2 of the continuous mode, Omega in rad/s.

        Closed forms for the parametric kinds. Tabulated modes are
        piecewise constant over their cells (as in :meth:`amplitude`): a
        direct Fourier sum over the cell midpoints times the cell factor
        sinc^2(Omega*dt/2pi) (cost scales with len(samples) * len(omega);
        memory does not: omega is taken in chunks). Normalized so
        (1/2pi) integral |F|^2 dOmega = 1.
        """
        om = np.asarray(omega, dtype=float)
        if self.kind == "square":
            T = self.duration
            return T * np.sinc(om * T / (2.0 * np.pi)) ** 2
        if self.kind == "one_sided_exp":
            r, Ts = self.rate, self.duration
            e = np.exp(-r * Ts)
            return self._exp_norm() * (1.0 - 2.0 * e * np.cos(om * Ts) + e * e) / (r * r + om * om)
        if self.kind == "double_exp":
            r = self.rate
            tc = self.duration / 2.0
            e = np.exp(-r * tc)
            num = r - e * (r * np.cos(om * tc) - om * np.sin(om * tc))
            return 4.0 * self._exp_norm() * num ** 2 / (r * r + om * om) ** 2
        arr = np.asarray(self.samples)
        dt = self.duration / arr.size
        t = (np.arange(arr.size) + 0.5) * dt
        # F(om) = sinc(om dt/2pi) sum f_j exp(i om t_j) dt; |F|^2 is phase-origin free
        om = om.ravel()
        F = np.empty(om.size, dtype=complex)
        step = max(1, (1 << 16) // arr.size)  # phase matrix of at most 2^16 entries
        for i in range(0, om.size, step):
            F[i:i + step] = np.exp(1j * np.outer(om[i:i + step], t)) @ arr
        F = F * dt * np.sinc(om * dt / (2.0 * np.pi))
        return np.abs(F) ** 2

    def lorentz_overlap(self, width: float, band: float) -> Optional[float]:
        """(1/pi) integral_0^band |F(Omega)|^2 / (width^2 + Omega^2) dOmega.

        A spectrum S = 1 + A/(width^2 + Omega^2) inside the band and S = 1
        beyond it filters to the variance 1 + A * overlap. The full-line
        overlap has a closed form (Wiener-Khinchin: S - 1 has correlation
        (A/2 width) exp(-width |tau|)); the [band, inf) tail is subtracted
        exactly as a series in Omega^-2. A square mode is
        square_lorentz_overlaps at its one duration; a tabulated mode with
        jumps df_k at tau_k uses
        |F|^2 = -Omega^-2 sum_kl df_k df_l (1 - cos Omega |tau_k - tau_l|).
        Returns None when width or the decay rate exceeds band/2, where the
        tail series converges slowly; callers then integrate numerically.
        """
        k, B = float(width), float(band)
        if self.kind == "square":
            overlap = square_lorentz_overlaps(k, B, np.array([self.duration]))
            return None if overlap is None else float(overlap[0])
        if self.kind == "tabulated":
            if k > 0.5 * B:
                return None
            jumps, spacing = self._steps()
            n = jumps.size
            # sum over ordered pairs at lag m >= 1 (lag 0 has kernel 0)
            pair = 2.0 * _autocorrelation(jumps)[1:]
            return float(-np.dot(pair, _jump_kernel(k, B, spacing * np.arange(1, n))))
        r = self.rate
        if max(k, r) > 0.5 * B:
            return None
        a2 = self._exp_norm()
        if self.kind == "one_sided_exp":
            T = self.duration
            e = math.exp(-r * T)
            full = (1.0 - a2 * e * T * _dd_exp(r * T, k * T)) / (k * (k + r))
            j = _tail(k, B, np.array([0.0, T]), power=0, rate=r, m=1).real
            return full - a2 * ((1.0 + e * e) * j[0] - 2.0 * e * j[1]) / math.pi
        tc = self.duration / 2.0
        e = math.exp(-r * tc)
        full = ((1.0 - 2.0 * a2 * e * tc * _dd_exp(r * tc, k * tc)) / (r + k)
                + a2 * (tc * _dd_exp(0.0, (r + k) * tc)) ** 2) / k
        # |F|^2/4a^2 = [r^2 - 2r^2 e cos x + 2re W sin x + e^2 (r^2+W^2)/2
        #   + e^2 (r^2-W^2)/2 cos 2x - e^2 r W sin 2x] / (r^2+W^2)^2, x = W tc;
        # one tail call over (d, power) = (0,0) (tc,0) (2tc,0) (tc,1) (2tc,1)
        # (0,2) (2tc,2)
        j = _tail(k, B, tc * np.array([0.0, 1.0, 2.0, 1.0, 2.0, 0.0, 2.0]),
                  power=np.array([0, 0, 0, 1, 1, 2, 2]), rate=r, m=2)
        c0, s1, c2 = j.real[:3], j.imag[3:5], j.real[5:]
        tail = (r * r * (c0[0] - 2.0 * e * c0[1] + 0.5 * e * e * (c0[0] + c0[2]))
                + r * e * (2.0 * s1[0] - e * s1[1]) + 0.5 * e * e * (c2[0] - c2[1]))
        return full - 4.0 * a2 * tail / math.pi

    # -- discrete weights ----------------------------------------------------

    def n_samples(self, fs: float) -> int:
        """Window length in samples at rate fs (nearest integer, >= 1)."""
        n = int(round(self.duration * fs))
        if n < 1:
            raise ValueError(
                f"mode duration {self.duration} s spans no sample at fs={fs} Hz")
        return n

    def discretize(self, fs: float) -> np.ndarray:
        """Unit-Euclidean-norm weights sampling f at window midpoints.

        The renormalization pins the calibration contract: white input of
        unit variance gives mode variance exactly 1 at any rate. The norm
        is taken over a power-of-two scaling, as tabulated does.
        """
        n = self.n_samples(fs)
        if self.kind == "tabulated" and len(self.samples) == n:
            w = np.asarray(self.samples, dtype=float)
        else:
            t = (np.arange(n) + 0.5) / fs
            w = self.amplitude(t)
        if not 0.0 < float(np.sum(w * w)) < math.inf:
            raise ValueError("mode discretizes to zero weights at this rate")
        scaled = np.ldexp(w, 1 - math.frexp(float(np.max(np.abs(w))))[1])
        return scaled / np.sqrt(np.sum(scaled * scaled))


# -- Lorentzian overlap helpers -------------------------------------------------

def lorentz_overlaps(modes: Sequence[TemporalMode], width: float,
                     band: float) -> List[Optional[float]]:
    """TemporalMode.lorentz_overlap of each mode: the square modes in one
    square_lorentz_overlaps pass, every other mode by its own method, the
    fastest decay first: on a shared support it takes the most band-tail
    terms, and the slower ones read the first of them (_moments)."""
    squares = [i for i, m in enumerate(modes) if m.kind == "square"]
    batch = (square_lorentz_overlaps(width, band, np.array([modes[i].duration for i in squares]))
             if squares else None)
    out = {} if batch is None else dict(zip(squares, batch.tolist()))
    others = sorted((i for i, m in enumerate(modes) if m.kind != "square"),
                    key=lambda i: -(modes[i].rate or 0.0))
    out.update((i, modes[i].lorentz_overlap(width, band)) for i in others)
    return [out.get(i) for i in range(len(modes))]


def square_lorentz_overlaps(width: float, band: float,
                            durations: np.ndarray) -> Optional[np.ndarray]:
    """TemporalMode.lorentz_overlap of a square mode of each duration T,
    in one pass: the mode's two jumps +-1/sqrt(T) give
    (2/T) [phi(width T)/(2 width^3) - (tail(0) - tail(T))/pi], with one
    _tail call over d = [0, T...]. None when width exceeds band/2."""
    k, B = float(width), float(band)
    if k > 0.5 * B:
        return None
    T = np.asarray(durations, dtype=float)
    jump = 1.0 / np.sqrt(T)
    return 2.0 * (jump * jump) * _jump_kernel(k, B, T)


def _jump_kernel(width: float, band: float, d: np.ndarray) -> np.ndarray:
    """phi(width d)/(2 width^3) - (tail(0) - tail(d))/pi at each lag d > 0
    (one _tail call): a mode with jumps df_k at tau_k has the Lorentzian
    overlap -sum_{k != l} df_k df_l kernel(|tau_k - tau_l|)."""
    tail = _tail(width, band, np.concatenate(([0.0], d)), power=-2).real
    return _phi(width * d) / (2.0 * width ** 3) - (tail[0] - tail[1:]) / math.pi


def _autocorrelation(x: np.ndarray) -> np.ndarray:
    """sum_i x[i + l] x[i] for each lag l = 0 .. x.size - 1, by FFT padded
    to 2 x.size so that no lag wraps around: O(n log n), and within about
    1e-15 * sum(x^2) of the direct sums."""
    size = 2 * x.size
    f = np.fft.rfft(x, size)
    return np.fft.irfft(f.real ** 2 + f.imag ** 2, size)[:x.size]


def _phi(z: np.ndarray) -> np.ndarray:
    """z - 1 + exp(-z) for z >= 0, by its Taylor series where it cancels."""
    z = np.asarray(z, dtype=float)
    out = z + np.expm1(-z)
    small = z < 0.5
    if np.any(small):
        zs = z[small]
        term = zs * zs / 2.0
        series = np.zeros_like(zs)
        for j in range(3, 22):
            series += term
            term = -term * zs / j
        out[small] = series
    return out


def _dd_exp(x: float, y: float) -> float:
    """(exp(-x) - exp(-y)) / (y - x), with its limit exp(-x) at y = x."""
    h = abs(y - x)
    return math.exp(-min(x, y)) * (-math.expm1(-h) / h if h > 0.0 else 1.0)


def _expint(y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Generalized exponential integral E_p(-i y) for y >= 0 and integer
    p >= 2 (broadcast); E_p(-i y) B^(1-p) = integral_B^inf exp(i Omega y/B)
    Omega^-p dOmega."""
    y, p = np.broadcast_arrays(np.asarray(y, dtype=float), np.asarray(p, dtype=float))
    z = -1j * y
    out = np.where(y == 0.0, 1.0 / (p - 1.0), 0.0).astype(complex)
    near = (y > 0.0) & (y <= 1.0)
    if np.any(near):
        # upward recurrence E_{q+1} = (exp(-z) - z E_q)/q is stable for |z| <= 1
        from scipy.special import exp1  # deferred: importing scipy.special takes ~0.4 s

        zs, ps = z[near], p[near].astype(int)
        ez = np.exp(-zs)
        eq = exp1(zs)
        got = np.empty_like(zs)
        for q in range(1, int(ps.max())):
            eq = (ez - zs * eq) / q
            got = np.where(ps == q + 1, eq, got)
        out[near] = got
    far = y > 1.0
    if np.any(far):
        # modified Lentz evaluation of the continued fraction for exp(z) E_p(z);
        # the scaled form stays finite where exp(z) alone is huge or tiny.
        # Each element retires at its own convergence, so its value does not
        # depend on the rest of the batch; the active ones (index live) are
        # kept packed, and those still active at the cap keep their last h.
        zf, pf = z[far], p[far]
        b = zf + pf
        pm1 = pf - 1.0
        c = np.full(zf.shape, 1e300, dtype=complex)
        dd = 1.0 / b
        h = dd.copy()
        hl = dd
        live = np.arange(zf.size)
        for i in range(1, 2000):
            a = -i * (pm1 + i)
            b = b + 2.0
            dd = 1.0 / (a * dd + b)
            c = b + a / c
            delta = c * dd
            hl = hl * delta
            done = np.abs(delta - 1.0) <= 4e-16
            if done.any():
                h[live[done]] = hl[done]
                left = ~done
                live, pm1, b, c, dd, hl = (v[left] for v in (live, pm1, b, c, dd, hl))
                if not live.size:
                    break
        h[live] = hl
        out[far] = h * np.exp(-zf)
    return out


def _tail(width: float, band: float, d: np.ndarray, power,
          rate: float = 0.0, m: int = 0) -> np.ndarray:
    """integral_band^inf exp(i Omega d) Omega^power
    / ((rate^2 + Omega^2)^m (width^2 + Omega^2)) dOmega for each d (power
    broadcasts against d).

    The real part is the cosine integral, the imaginary part the sine one.
    Expands the denominator in u = (band/Omega)^2 (_tail_coefficients);
    term n integrates to band^(1-p) E_p(-i band d), p = 2m + 2 - power + 2n.
    """
    coeff = _tail_coefficients(width, band, rate, m)
    y = band * np.asarray(d, dtype=float)
    p0 = (2 * m + 2) - np.asarray(power, dtype=np.int64) + np.zeros(y.shape, dtype=np.int64)
    return band ** (1.0 - p0) * (_moments(y, p0, len(coeff)) @ coeff)


def _tail_coefficients(width: float, band: float, rate: float, m: int) -> List[float]:
    """Coefficients of (1 + b u)^-1 (1 + a u)^-m in powers of u, a =
    (rate/band)^2 and b = (width/band)^2, to as many terms as _tail needs:
    the series converges for rate and width below band, geometrically with
    ratio <= 1/4 when both are <= band/2. The recurrence runs on Python
    floats: numpy scalars give the same values at twice the cost."""
    a, b = (rate / band) ** 2, (width / band) ** 2
    q = max(a, b)
    n_terms = 1 if q == 0.0 else min(80, 4 * m + 1 + math.ceil(-39.2 / math.log(q)))
    coeff = ((-b) ** np.arange(n_terms)).tolist()  # (1 + b u)^-1
    for _ in range(m):  # times (1 + a u)^-1
        for j in range(1, n_terms):
            coeff[j] -= a * coeff[j - 1]
    return coeff


def _moments(y: np.ndarray, p0: np.ndarray, n_terms: int) -> np.ndarray:
    """Read-only _expint(y, p0 + 2n) for n < n_terms, one row per element
    of the equal-shape float64 y and int64 p0.

    They depend on the band, the mode's support and the power pattern, not
    on the Lorentzian width or the decay rate (those enter _tail through
    its coefficients and its term count), so overlaps on a kept support,
    such as a mode's two quadratures or the steps of a width or rate
    search, share one evaluation. The longest set computed for a support
    is kept (_kept, keyed on the bytes of y and p0), and a shorter one is
    its first columns: _expint retires each element on its own, so they
    are the same values."""
    held = _kept(y.tobytes(), p0.tobytes())
    moments = held[0]
    if moments is None or moments.shape[1] < n_terms:
        moments = _expint(y[:, None], p0[:, None] + 2 * np.arange(n_terms))
        moments.flags.writeable = False
        held[0] = moments
    return moments[:, :n_terms]


@lru_cache(maxsize=64)
def _kept(y: bytes, p0: bytes) -> List[Optional[np.ndarray]]:
    """The one-slot holder of a support's longest set of moments
    (_moments). The last 64 supports are kept, so that every support one
    search revisits survives until it is read again: a coordinate-descent
    pass of optimize double_exp on paper.cfg visits 24 supports in the
    same order each pass, so with fewer slots than that each set would be
    evicted before its next read and computed again. Wherever the closed
    form applies an entry costs at most 496 bytes per element of y (n_terms
    <= 30 + 4m moments of 16 bytes, m = 0 for the many-element sets, plus
    its key): about 4 KB for a parametric mode, 50 KB for a 100-sample
    tabulated one, 5 MB for the square batch of a 10,000-point sweep and
    32 MB for a 2^16-sample tabulated mode, the largest a config takes. So
    the cache holds at most about 2 GB, and only when 64 such modes are
    evaluated in turn."""
    return [None]
