"""Analytic squeezing spectra and filtered-variance integrals.

Sub-threshold OPO quadrature spectra (vacuum normalized to 1), EPR pair
spectra behind a half beam splitter, and the mode-filtered variance that
serves as the oracle for every Monte Carlo check:

    V(f) = (1/2pi) integral S(Omega) |F(Omega)|^2 dOmega,

with S := 1 beyond the spectrum's band limit B. Every OPO spectrum is a
Lorentzian, S = 1 + A/(kappa^2 + Omega^2) inside the band, so by
Wiener-Khinchin S - 1 has correlation (A/2kappa) exp(-kappa|tau|) and V has
a closed form (TemporalMode.lorentz_overlap): the full-line overlap of the
mode with that correlation, minus the exactly integrated [B, inf) tail.
filtered_variances evaluates it for several spectra on a set of modes
(the EPR pair's two quadratures on one mode, an optimizer's prescan, a
grid of square durations), one modes.lorentz_overlaps call per spectrum;
the last 64 sets of band-tail moments stay cached (modes._moments), so
the second spectrum reuses the first one's. Composite Gauss-Legendre
quadrature remains for modes whose decay rate exceeds B/2.

A QuadPsd holds its Lorentzian by value, so equal spectra compare and hash
equal, and caches keyed on a spectrum (synth._amplitude) hit on equal
arguments however the spectrum was built.

All public frequencies are in Hz; angular frequency appears only inside
integrals and QuadPsd (rad/s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .modes import TemporalMode, lorentz_overlaps

__all__ = [
    "OpoParams",
    "QuadPsd",
    "EprSpectra",
    "QuadratureError",
    "opo_spectrum",
    "beam_spectra",
    "epr_spectra",
    "flat_psd",
    "filtered_variance",
    "filtered_variances",
    "to_db",
    "duan_sum",
    "calibrate_pump_param",
]

TWO_PI = 2.0 * math.pi
# a cavity linewidth beyond optical frequencies is unphysical; the bound
# keeps the closed-form overlaps finite (they overflow near hwhm ~ 1e101 Hz)
MAX_HWHM = 1e15
# a cavity narrower than 1 Hz is unphysical too; far below it the
# Lorentzians' (Omega/gamma)^2 overflow (below about 1e-146 Hz at 100 MHz)
MIN_HWHM = 1.0


class QuadratureError(RuntimeError):
    """Numerical quadrature failed to converge."""


@dataclass(frozen=True)
class OpoParams:
    """Sub-threshold OPO description.

    pump_param is x = sqrt(P/P_threshold) in [0, 1); hwhm the cavity
    half-width at half maximum in Hz; efficiency the total escape x
    detection efficiency in [0, 1]; squeeze_phase names the squeezed
    quadrature, "X" or "P".
    """

    pump_param: float
    hwhm: float
    efficiency: float
    squeeze_phase: str = "X"

    def __post_init__(self):
        if not (0.0 <= self.pump_param < 1.0):
            raise ValueError(
                f"pump_param: must lie in [0, 1), got {self.pump_param} "
                "(at or above threshold)")
        if not (MIN_HWHM <= self.hwhm <= MAX_HWHM):
            raise ValueError(
                f"hwhm: must lie in [{MIN_HWHM:g}, {MAX_HWHM:g}] Hz, got {self.hwhm}")
        if not (0.0 <= self.efficiency <= 1.0):
            raise ValueError(f"efficiency: must lie in [0, 1], got {self.efficiency}")
        if self.squeeze_phase not in ("X", "P"):
            raise ValueError(f"squeeze_phase: must be 'X' or 'P', got {self.squeeze_phase!r}")


@dataclass(frozen=True)
class QuadPsd:
    """Vacuum-normalized quadrature power spectral density, in rad/s:
    S(Omega) = 1 + gain / (root^2 + (Omega/linewidth)^2) for |Omega| <=
    band_limit and exactly 1 beyond it, which makes the filtered-variance
    tail integral exact. opo_spectrum gives an OPO branch (linewidth
    2pi*hwhm), flat_psd the vacuum (gain 0, band_limit 0)."""

    gain: float
    root: float
    linewidth: float
    band_limit: float

    @property
    def lorentz(self) -> Tuple[float, float]:
        """(A, kappa) such that S = 1 + A/(kappa^2 + Omega^2) in the band."""
        return self.gain * self.linewidth * self.linewidth, self.linewidth * self.root

    def __call__(self, omega) -> np.ndarray:
        om = np.abs(np.asarray(omega, dtype=float))
        s = 1.0 + self.gain / (self.root ** 2 + (om / self.linewidth) ** 2)
        return np.where(om <= self.band_limit, s, 1.0)


@dataclass(frozen=True)
class EprSpectra:
    """PSDs of the normalized EPR combinations (x_A - x_B)/sqrt(2) and
    (p_A + p_B)/sqrt(2)."""

    diff_x: QuadPsd
    sum_p: QuadPsd


def flat_psd() -> QuadPsd:
    """The vacuum spectrum S = 1. band_limit 0 makes integrals exact."""
    return QuadPsd(gain=0.0, root=1.0, linewidth=1.0, band_limit=0.0)


def opo_spectrum(params: OpoParams, quadrature: str = "squeezed") -> QuadPsd:
    """Quadrature spectrum of one OPO output.

    squeezed:      S(Omega) = 1 - eta*4x / ((1+x)^2 + (Omega/2pi*gamma)^2)
    antisqueezed:  S(Omega) = 1 + eta*4x / ((1-x)^2 + (Omega/2pi*gamma)^2)

    so the squeezed branch is <= 1 everywhere, the antisqueezed >= 1, and
    both tend to 1 far outside the cavity bandwidth; the band ends at
    100 linewidths. Equal arguments give equal spectra, so synth's
    amplitude cache, keyed on the PSD, hits on every repetition of a run.
    """
    if quadrature not in ("squeezed", "antisqueezed"):
        raise ValueError(f"quadrature must be 'squeezed' or 'antisqueezed', got {quadrature!r}")
    x = params.pump_param
    anti = quadrature == "antisqueezed"
    g = TWO_PI * params.hwhm  # rad/s
    return QuadPsd(gain=(1.0 if anti else -1.0) * params.efficiency * 4.0 * x,
                   root=(1.0 - x) if anti else (1.0 + x), linewidth=g, band_limit=100.0 * g)


def beam_spectra(opo1: OpoParams, opo2: OpoParams, setting: str) -> Tuple[QuadPsd, QuadPsd]:
    """PSDs (beam 1, beam 2) of the half beam splitter's input beams as
    setting "X" or "P" measures them: the one definition of the EPR
    arrangement. Beam 1 is the P-squeezed OPO and beam 2 the X-squeezed
    one, whichever argument each is; each shows its squeezed branch in the
    quadrature it squeezes, so X gives (antisqueezed P-OPO, squeezed
    X-OPO) and P (squeezed P-OPO, antisqueezed X-OPO)."""
    if setting not in ("X", "P"):
        raise ValueError(f"setting must be 'X' or 'P', got {setting!r}")
    if opo1.squeeze_phase == opo2.squeeze_phase:
        raise ValueError(
            "EPR arrangement requires one X-squeezed and one P-squeezed OPO; "
            f"got both squeezed in {opo1.squeeze_phase}")
    beams = (opo1, opo2) if opo1.squeeze_phase == "P" else (opo2, opo1)
    return tuple(opo_spectrum(o, "squeezed" if o.squeeze_phase == setting else "antisqueezed")
                 for o in beams)


def epr_spectra(opo1: OpoParams, opo2: OpoParams) -> EprSpectra:
    """EPR pair spectra of two OPOs on a half beam splitter, A, B = (b1 +/- b2)/sqrt(2):
    (x_A - x_B)/sqrt(2) is beam 2's x and (p_A + p_B)/sqrt(2) beam 1's p
    (beam_spectra), the squeezed spectra of the X- and P-squeezed OPO."""
    return EprSpectra(diff_x=beam_spectra(opo1, opo2, "X")[1],
                      sum_p=beam_spectra(opo1, opo2, "P")[0])


# -- filtered variance --------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_MAX_PANELS = 4_000_000


def _gl_integral(func, lo: float, hi: float, n_panels: int) -> float:
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    centers = edges[:-1] + half
    pts = (centers[:, None] + half * _GL_NODES[None, :]).ravel()
    vals = func(pts).reshape(n_panels, _GL_NODES.size)
    return float(half * np.sum(vals @ _GL_WEIGHTS))


def filtered_variance(psd: QuadPsd, mode: TemporalMode) -> float:
    """Vacuum-normalized variance of the mode-filtered quadrature,
    1 + (1/pi) integral_0^B (S(Omega)-1) |F(Omega)|^2 dOmega.

    Exact because S = 1 beyond band_limit B and the mode is unit norm
    (Parseval supplies the tail). filtered_variances of the one PSD and
    mode.
    """
    return filtered_variances((psd,), (mode,))[0][0]


def filtered_variances(psds: Sequence[QuadPsd],
                       modes: Sequence[TemporalMode]) -> List[List[float]]:
    """filtered_variance of each mode, one row per PSD.

    A flat spectrum (band_limit 0) gives 1. Otherwise each mode gets the
    closed form 1 + A * overlap where modes.lorentz_overlaps supplies the
    overlap, and _quadrature_variance where it declines (a decay rate or
    width above half the band).
    """
    rows = []
    for psd in psds:
        if psd.band_limit <= 0.0:
            rows.append([1.0] * len(modes))
            continue
        weight, width = psd.lorentz
        overlaps = lorentz_overlaps(modes, width, psd.band_limit)
        rows.append([_quadrature_variance(psd, mode) if overlap is None
                     else 1.0 + weight * overlap
                     for mode, overlap in zip(modes, overlaps)])
    return rows


def _quadrature_variance(psd: QuadPsd, mode: TemporalMode) -> float:
    """filtered_variance by composite Gauss-Legendre panels sized to
    resolve both the |F|^2 oscillation (period 2pi/duration) and the
    Lorentzian's width kappa, doubled until two estimates agree to 1e-8."""
    band = psd.band_limit

    def integrand(om):
        return (psd(om) - 1.0) * mode.power_spectrum(om)

    h = min(math.pi / (4.0 * mode.duration), psd.lorentz[1] / 4.0)
    n_panels = max(64, min(_MAX_PANELS, math.ceil(band / h)))

    est = 1.0 + _gl_integral(integrand, 0.0, band, n_panels) / math.pi
    for n in (2 * n_panels, 4 * n_panels):
        if n > _MAX_PANELS:
            break
        refined = 1.0 + _gl_integral(integrand, 0.0, band, n) / math.pi
        if abs(refined - est) <= 1e-8 * max(1.0, abs(refined)):
            return refined
        est, n_panels = refined, n
    raise QuadratureError(f"filtered variance did not converge within {n_panels} panels")


def to_db(ratio: float) -> float:
    """10*log10 of a vacuum-normalized variance ratio."""
    if not (ratio > 0.0):
        raise ValueError(f"dB conversion requires a positive ratio, got {ratio}")
    return 10.0 * math.log10(ratio)


def duan_sum(var_diff_x: float, var_sum_p: float) -> float:
    """Mean of the two normalized EPR variances; < 1 certifies entanglement."""
    if var_diff_x < 0.0 or var_sum_p < 0.0:
        raise ValueError("variances must be non-negative")
    return 0.5 * (var_diff_x + var_sum_p)


def calibrate_pump_param(target_db: float, efficiency: float, hwhm: float,
                         mode: Optional[TemporalMode] = None) -> float:
    """Pump parameter x whose squeezed filtered variance hits target_db.

    The filtered squeezed variance is strictly decreasing in x, so a root
    bracket on [~0, 0.999) suffices; raises ValueError when the target is
    deeper than the family can reach at this efficiency.
    """
    if target_db >= 0.0:
        raise ValueError("target_db must be negative (squeezing)")
    if mode is None:
        mode = TemporalMode.square(0.2e-6)

    def objective(x):
        p = OpoParams(pump_param=x, hwhm=hwhm, efficiency=efficiency)
        return to_db(filtered_variance(opo_spectrum(p, "squeezed"), mode)) - target_db

    from scipy.optimize import brentq  # deferred: importing scipy.optimize takes ~1 s

    lo, hi = 1e-9, 0.999
    f_hi = objective(hi)
    if f_hi > 0.0:
        raise ValueError(
            f"target {target_db} dB unreachable: deepest available is {f_hi + target_db:.3f} dB")
    return float(brentq(objective, lo, hi, xtol=1e-13, rtol=8.9e-16))
