"""Squeezing spectra and the filtered-variance oracle: closed form for
Lorentzian spectra, Gauss-Legendre quadrature as the cross-check."""

import dataclasses
import math

import numpy as np
import pytest

from eprsim import (OpoParams, TemporalMode, beam_spectra, calibrate_pump_param,
                    duan_sum, epr_spectra, filtered_variance, flat_psd, opo_spectrum,
                    to_db)
from eprsim.spectra import (MAX_HWHM, QuadPsd, QuadratureError, _gl_integral,
                            filtered_variances)

import refvals

PARAM_TABLES = [
    (refvals.X_330, refvals.ETA, refvals.SQ_330, refvals.ANTI_330),
    (refvals.X_374, refvals.ETA, refvals.SQ_374, refvals.ANTI_374),
    (refvals.STRESS_X, refvals.STRESS_ETA, refvals.SQ_STRESS, None),
]


def _opo(x, eta, phase="X"):
    return OpoParams(pump_param=x, hwhm=refvals.HWHM, efficiency=eta,
                     squeeze_phase=phase)


def test_spectrum_value_at_zero():
    for x, eta in [(0.3, 0.9), (0.5, 1.0), (0.0, 0.7)]:
        p = _opo(x, eta)
        sq = opo_spectrum(p, "squeezed")(np.array([0.0]))[0]
        anti = opo_spectrum(p, "antisqueezed")(np.array([0.0]))[0]
        assert sq == pytest.approx(1.0 - eta * 4.0 * x / (1.0 + x) ** 2, rel=1e-14)
        assert anti == pytest.approx(1.0 + eta * 4.0 * x / (1.0 - x) ** 2, rel=1e-14)


def test_spectrum_halves_at_lorentz_width():
    # dip depth halves where Omega/(2 pi hwhm) equals the branch width
    p = _opo(0.3, 0.9)
    g = 2.0 * np.pi * refvals.HWHM
    sq = opo_spectrum(p, "squeezed")
    om = np.array([g * (1.0 + 0.3)])
    depth0 = 1.0 - sq(np.array([0.0]))[0]
    assert 1.0 - sq(om)[0] == pytest.approx(depth0 / 2.0, rel=1e-12)


def test_spectrum_symmetric_and_clamped():
    p = _opo(0.4, 0.95)
    psd = opo_spectrum(p, "squeezed")
    om = np.array([1e5, 1e7, 5e8])
    assert np.array_equal(psd(om), psd(-om))
    beyond = np.array([psd.band_limit * 1.01, psd.band_limit * 50.0])
    assert np.all(psd(beyond) == 1.0)


@pytest.mark.parametrize("x", [0.0, 0.1, 0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("eta", [0.3, 0.9, 1.0])
def test_heisenberg_product(x, eta):
    # S_sq * S_anti >= 1 everywhere, equality only at eta=1
    p = _opo(x, eta)
    om = np.linspace(0.0, 2.0 * np.pi * refvals.HWHM * 60.0, 20_001)
    prod = opo_spectrum(p, "squeezed")(om) * opo_spectrum(p, "antisqueezed")(om)
    assert np.all(prod >= 1.0 - 1e-12)
    if eta == 1.0 and x > 0.0:
        assert np.allclose(prod, 1.0, atol=1e-12)


@pytest.mark.parametrize("x", [0.0, 0.1, 0.5, 0.9, 0.999])
@pytest.mark.parametrize("eta", [0.0, 0.3, 0.9, 1.0])
def test_uncertainty_product_identity(x, eta):
    # S- S+ = 1 + eta (1 - eta) L- L+ with L-/+ = 4x / ((1 +/- x)^2 + u^2),
    # u = Omega / (2 pi hwhm): the product is >= 1 for every valid pump and
    # efficiency, so the spectra need no runtime uncertainty check
    p = _opo(x, eta)
    u = np.linspace(0.0, 100.0, 20_001)
    om = 2.0 * np.pi * refvals.HWHM * u
    anti = opo_spectrum(p, "antisqueezed")(om)
    prod = opo_spectrum(p, "squeezed")(om) * anti
    lorentz_sq = 4.0 * x / ((1.0 + x) ** 2 + u ** 2)
    lorentz_anti = 4.0 * x / ((1.0 - x) ** 2 + u ** 2)
    expected = 1.0 + eta * (1.0 - eta) * lorentz_sq * lorentz_anti
    # S- = 1 - (...) rounds at ~1e-16 absolute, which S+ (up to ~4e6) magnifies
    assert np.all(np.abs(prod - expected) <= 1e-15 * anti + 1e-15 * expected)
    assert np.all(expected >= 1.0)


@pytest.mark.parametrize("quadrature,direction", [("squeezed", 1), ("antisqueezed", -1)])
def test_spectrum_monotone_toward_vacuum(quadrature, direction):
    p = _opo(0.5, 0.9)
    psd = opo_spectrum(p, quadrature)
    om = np.linspace(0.0, psd.band_limit, 10_001)
    diffs = np.diff(psd(om))
    assert np.all(direction * diffs >= 0.0)


@pytest.mark.parametrize("x,eta,sq_table,anti_table", PARAM_TABLES,
                         ids=["x330", "x374", "stress"])
def test_filtered_variance_frozen_tables(x, eta, sq_table, anti_table):
    p = _opo(x, eta)
    sq = opo_spectrum(p, "squeezed")
    anti = opo_spectrum(p, "antisqueezed")
    squares = [TemporalMode.square(T) for T in refvals.T_GRID]
    for T, ref in zip(refvals.T_GRID, sq_table):
        got = filtered_variance(sq, TemporalMode.square(T))
        assert got == pytest.approx(ref, rel=1e-9)
    assert filtered_variances((sq,), squares)[0] == pytest.approx(sq_table, rel=1e-9)
    if anti_table is None:
        return
    for T, ref in zip(refvals.T_GRID, anti_table):
        got = filtered_variance(anti, TemporalMode.square(T))
        assert got == pytest.approx(ref, rel=1e-9)
    assert filtered_variances((sq, anti), squares) == [
        pytest.approx(sq_table, rel=1e-9), pytest.approx(anti_table, rel=1e-9)]


def test_filtered_variances_of_squares_equal_one_filtered_variance_per_duration(
        calibrated_pair):
    # the one-pass table of the spectra verb against the scalar oracle
    grid = np.geomspace(1e-8, 1e-5, 151)
    spectra = epr_spectra(*calibrated_pair)
    psds = (spectra.diff_x, spectra.sum_p)
    table = np.array(filtered_variances(psds, [TemporalMode.square(T) for T in grid]))
    scalar = [[filtered_variance(psd, TemporalMode.square(T)) for T in grid] for psd in psds]
    assert table.shape == (2, grid.size)
    assert np.max(np.abs(table / scalar - 1.0)) <= 2e-15
    for bad in (0.0, -1e-6, np.inf, np.nan):
        with pytest.raises(ValueError, match="duration"):
            TemporalMode.square(bad)


def _hann(n, duration):
    return TemporalMode.tabulated(
        [math.sin(math.pi * (j + 0.5) / n) ** 2 for j in range(n)], duration)


def test_filtered_variances_is_filtered_variance_of_each_pair():
    # one call on a mixed set of modes, three of them square (one overlap
    # pass), gives each cell what filtered_variance gives for its pair: on
    # a flat spectrum, in closed form, by quadrature for a rate above half
    # the band, and by quadrature for a spectrum with an evaluator only
    lorentz = opo_spectrum(_opo(refvals.X_374, refvals.ETA), "squeezed")
    numeric = dataclasses.replace(lorentz, lorentz=None)
    set_of_modes = [TemporalMode.square(0.05e-6),
                    TemporalMode.one_sided_exp(rate=3e6, support=0.5e-6),
                    TemporalMode.square(0.2e-6),
                    TemporalMode.double_exp(rate=2e6, support=1e-6),
                    _hann(16, 2e-6),
                    TemporalMode.one_sided_exp(rate=0.6 * lorentz.band_limit, support=1e-8),
                    TemporalMode.square(1e-6)]
    psds = (flat_psd(), lorentz, numeric)
    table = filtered_variances(psds, set_of_modes)
    assert [len(row) for row in table] == [len(set_of_modes)] * len(psds)
    assert table[0] == [1.0] * len(set_of_modes)
    for psd, row in zip(psds, table):
        for mode, value in zip(set_of_modes, row):
            scalar = filtered_variance(psd, mode)
            if mode.kind == "square":
                assert value == pytest.approx(scalar, rel=2e-15, abs=0.0), (psd, mode)
            else:
                assert value == scalar, (psd, mode)


@pytest.mark.parametrize("mode", [
    TemporalMode.square(0.2e-6),
    TemporalMode.one_sided_exp(rate=3e6, support=0.5e-6),
    TemporalMode.double_exp(rate=2e6, support=1e-6),
    TemporalMode.tabulated([0.1, 0.9, 1.0, 0.4], 0.3e-6),
], ids=lambda m: m.kind)
def test_quadrature_engine_against_trapezoid(mode):
    # Gauss-Legendre engine vs the plain-trapezoid reference path
    p = _opo(refvals.X_330, refvals.ETA)
    for quadrature in ("squeezed", "antisqueezed"):
        psd = opo_spectrum(p, quadrature)
        assert filtered_variance(psd, mode) == pytest.approx(
            refvals.trapz_variance(psd, mode), rel=1e-7)


def test_filtered_variance_translation_invariant():
    # shifting the mode inside its support window leaves the variance alone
    p = _opo(refvals.X_374, refvals.ETA)
    psd = opo_spectrum(p, "squeezed")
    base = [0.0] * 8 + [1.0] * 16 + [0.0] * 8
    shifted = [0.0] * 14 + [1.0] * 16 + [0.0] * 2
    T = 32 / 50e6
    v0 = filtered_variance(psd, TemporalMode.tabulated(base, T))
    v1 = filtered_variance(psd, TemporalMode.tabulated(shifted, T))
    assert v1 == pytest.approx(v0, rel=1e-10)


def _gl_reference(psd, mode, chunks=16):
    """Band-limited variance by composite Gauss-Legendre at twice the
    engine's starting panel density, integrated in chunks to bound memory."""
    h = min(math.pi / (4.0 * mode.duration), psd.scale_hint / 4.0)
    per_chunk = 2 * max(64, math.ceil(psd.band_limit / h)) // chunks + 1
    edges = np.linspace(0.0, psd.band_limit, chunks + 1)

    def integrand(om):
        return (psd(om) - 1.0) * mode.power_spectrum(om)

    total = sum(_gl_integral(integrand, lo, hi, per_chunk)
                for lo, hi in zip(edges[:-1], edges[1:]))
    return 1.0 + total / math.pi


def _xcheck_modes(kind, T, width):
    if kind == "square":
        return [TemporalMode.square(T)]
    if kind == "tabulated":
        hann = [math.sin(math.pi * (j + 0.5) / 8) ** 2 for j in range(8)]
        return [TemporalMode.tabulated(hann, T),
                TemporalMode.tabulated([0.1, -0.9, 1.0, 0.4], T)]
    factory = getattr(TemporalMode, kind)
    return [factory(rate=f * width, support=T) for f in (0.3, 0.97, 1.0, 3.0)]


@pytest.mark.parametrize("T", [1e-10, 1e-8, 1e-7, 1e-6, 1e-5])
@pytest.mark.parametrize("kind", ["square", "one_sided_exp", "double_exp", "tabulated"])
def test_closed_form_matches_gauss_legendre(kind, T):
    # exponential rates straddle the Lorentz width kappa of each branch; at
    # 0.1 ns the breakpoint distances fall below 1/band_limit
    tol = 1e-12 if kind == "square" else 1e-10
    for x, eta, branch in [(refvals.X_330, refvals.ETA, "squeezed"),
                           (refvals.X_330, refvals.ETA, "antisqueezed"),
                           (refvals.STRESS_X, refvals.STRESS_ETA, "squeezed")]:
        psd = opo_spectrum(_opo(x, eta), branch)
        for mode in _xcheck_modes(kind, T, psd.lorentz[1]):
            assert filtered_variance(psd, mode) == pytest.approx(
                _gl_reference(psd, mode), rel=tol)


def test_quadrature_fallback_matches_closed_form():
    # without the Lorentz fields, or for a rate beyond band/2, the
    # Gauss-Legendre engine answers
    psd = opo_spectrum(_opo(refvals.X_374, refvals.ETA), "squeezed")
    numeric = dataclasses.replace(psd, lorentz=None)
    for mode in (TemporalMode.square(0.2e-6),
                 TemporalMode.double_exp(rate=4e7, support=1e-6)):
        assert filtered_variance(numeric, mode) == pytest.approx(
            filtered_variance(psd, mode), rel=1e-9)
    # filtered_variances answers each square mode of a set by
    # filtered_variance where no closed form applies: no Lorentz fields, or
    # a width beyond band/2
    squares = [TemporalMode.square(T) for T in (0.05e-6, 0.2e-6, 1e-6)]
    for other in (numeric, dataclasses.replace(psd, band_limit=psd.lorentz[1])):
        assert filtered_variances((other,), squares) == [
            [filtered_variance(other, mode) for mode in squares]]
    fast = TemporalMode.one_sided_exp(rate=0.6 * psd.band_limit, support=1e-8)
    assert fast.lorentz_overlap(psd.lorentz[1], psd.band_limit) is None
    assert filtered_variance(psd, fast) == pytest.approx(
        _gl_reference(psd, fast), rel=1e-9)


def test_quadrature_reports_non_convergence():
    # a 1 rad/s Lorentzian peak inside panels ~8e5 rad/s wide, with no
    # scale_hint to size them: each doubling samples the peak differently
    spike = QuadPsd(lambda om: 1.0 + 1e-3 / (1e-6 + ((om - 1.2345678e6) / 1e6) ** 2),
                    band_limit=1e9)
    with pytest.raises(QuadratureError, match=r"did not converge within \d+ panels"):
        filtered_variance(spike, TemporalMode.square(1e-6))


@pytest.mark.parametrize("T", [1e-4, 1e-3, 2e-3])
def test_long_square_windows(T):
    # kappa*T reaches ~1e5: finite, squeezed, and on the full-line value
    # 1 + A/kappa^2 (1 - (1 - exp(-kappa T))/(kappa T)) up to the ~1e-10 tail
    for x, eta in [(refvals.X_330, refvals.ETA), (refvals.STRESS_X, refvals.STRESS_ETA)]:
        psd = opo_spectrum(_opo(x, eta), "squeezed")
        v = filtered_variance(psd, TemporalMode.square(T))
        assert np.isfinite(v) and 0.0 < v < 1.0
        weight, width = psd.lorentz
        kt = width * T
        full_line = 1.0 + weight / width ** 2 * (1.0 - -math.expm1(-kt) / kt)
        assert v == pytest.approx(full_line, abs=1e-9)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_coarse_tabulated_hann_is_physical(n):
    # piecewise-constant tabulated modes: a coarse Hann window over 2 us
    # squeezes below vacuum (point-sample spectra made these negative)
    hann = _hann(n, 2e-6)
    p = _opo(refvals.X_330, refvals.ETA)
    v_sq = filtered_variance(opo_spectrum(p, "squeezed"), hann)
    v_anti = filtered_variance(opo_spectrum(p, "antisqueezed"), hann)
    assert 0.0 < v_sq < 1.0 < v_anti


def test_flat_psd_variance_is_exactly_one():
    for mode in (TemporalMode.square(0.2e-6),
                 TemporalMode.double_exp(rate=1e6, support=1e-6)):
        assert filtered_variance(flat_psd(), mode) == 1.0
    squares = [TemporalMode.square(T) for T in (1e-8, 0.2e-6, 1e-5)]
    assert filtered_variances((flat_psd(), flat_psd()), squares) == [[1.0] * 3] * 2


def test_degenerate_pump_gives_vacuum():
    p = _opo(0.0, 0.9)
    psd = opo_spectrum(p, "squeezed")
    om = np.linspace(0.0, psd.band_limit, 101)
    assert np.all(psd(om) == 1.0)
    assert filtered_variance(psd, TemporalMode.square(0.2e-6)) == pytest.approx(1.0, abs=1e-12)


def test_duan_decreases_with_window_length(calibrated_spectra):
    duans = [duan_sum(filtered_variance(calibrated_spectra.diff_x, TemporalMode.square(T)),
                      filtered_variance(calibrated_spectra.sum_p, TemporalMode.square(T)))
             for T in refvals.T_GRID]
    assert all(a > b for a, b in zip(duans, duans[1:]))
    assert duans[2] == pytest.approx(refvals.DUAN_CAL, rel=1e-12)


def test_calibration_hits_db_targets():
    for target, x_ref in [(-3.30, refvals.X_330), (-3.74, refvals.X_374)]:
        x = calibrate_pump_param(target, refvals.ETA, refvals.HWHM)
        assert x == pytest.approx(x_ref, abs=1e-10)
        v = filtered_variance(opo_spectrum(_opo(x, refvals.ETA), "squeezed"),
                              TemporalMode.square(0.2e-6))
        assert to_db(v) == pytest.approx(target, abs=1e-9)


def test_calibration_rejects_unreachable_target():
    with pytest.raises(ValueError, match="unreachable"):
        calibrate_pump_param(-20.0, refvals.ETA, refvals.HWHM)
    with pytest.raises(ValueError):
        calibrate_pump_param(0.5, refvals.ETA, refvals.HWHM)


def test_epr_spectra_requires_orthogonal_phases():
    a = _opo(0.3, 0.9, "X")
    b = _opo(0.2, 0.9, "X")
    with pytest.raises(ValueError, match="orthogonal|X-squeezed"):
        epr_spectra(a, b)


def test_epr_spectra_selects_squeezed_branches(calibrated_pair):
    opo1, opo2 = calibrated_pair  # opo1 P-squeezed, opo2 X-squeezed
    spectra = epr_spectra(opo1, opo2)
    om = np.linspace(0.0, 2e9, 4001)
    assert np.array_equal(spectra.diff_x(om), opo_spectrum(opo2, "squeezed")(om))
    assert np.array_equal(spectra.sum_p(om), opo_spectrum(opo1, "squeezed")(om))
    # order of arguments does not matter
    swapped = epr_spectra(opo2, opo1)
    assert np.array_equal(swapped.diff_x(om), spectra.diff_x(om))
    # both are beam_spectra's branches, the same objects
    assert spectra.diff_x is beam_spectra(opo1, opo2, "X")[1]
    assert spectra.sum_p is beam_spectra(opo1, opo2, "P")[0]


def test_beam_spectra_puts_the_p_squeezed_opo_first(calibrated_pair):
    # beam 1 is the P-squeezed OPO and beam 2 the X-squeezed one, whichever
    # argument each is; each is squeezed in the quadrature it squeezes
    p_opo, x_opo = calibrated_pair  # P-squeezed, X-squeezed
    for opos in ((p_opo, x_opo), (x_opo, p_opo)):
        assert beam_spectra(*opos, "X") == (opo_spectrum(p_opo, "antisqueezed"),
                                            opo_spectrum(x_opo, "squeezed"))
        assert beam_spectra(*opos, "P") == (opo_spectrum(p_opo, "squeezed"),
                                            opo_spectrum(x_opo, "antisqueezed"))
    with pytest.raises(ValueError, match="setting"):
        beam_spectra(p_opo, x_opo, "Y")
    with pytest.raises(ValueError, match="X-squeezed"):
        beam_spectra(p_opo, p_opo, "X")


def test_to_db_and_duan_sum_validation():
    assert to_db(1.0) == 0.0
    assert to_db(0.5) == pytest.approx(-3.0102999566398121, rel=1e-14)
    with pytest.raises(ValueError):
        to_db(0.0)
    with pytest.raises(ValueError):
        to_db(-1.0)
    assert duan_sum(0.4, 0.5) == pytest.approx(0.45)
    with pytest.raises(ValueError):
        duan_sum(-0.1, 0.5)


def test_opo_params_validation():
    with pytest.raises(ValueError, match="pump_param"):
        _opo(1.0, 0.9)
    with pytest.raises(ValueError, match="pump_param"):
        _opo(-0.1, 0.9)
    with pytest.raises(ValueError, match="efficiency"):
        _opo(0.3, 1.2)
    with pytest.raises(ValueError, match="hwhm"):
        OpoParams(pump_param=0.3, hwhm=0.0, efficiency=0.9)
    with pytest.raises(ValueError, match="hwhm"):
        OpoParams(pump_param=0.3, hwhm=1.01 * MAX_HWHM, efficiency=0.9)
    with pytest.raises(ValueError, match="squeeze_phase"):
        OpoParams(pump_param=0.3, hwhm=7e6, efficiency=0.9, squeeze_phase="Y")
    with pytest.raises(ValueError):
        opo_spectrum(_opo(0.3, 0.9), "both")


@pytest.mark.parametrize("mode", [
    TemporalMode.square(2e-7), TemporalMode.square(1e-3),
    TemporalMode.one_sided_exp(2e6, 4e-7), TemporalMode.double_exp(2e6, 4e-7),
    TemporalMode.tabulated([0.0, 1.0, 1.0, 0.0], 4e-7),
], ids=("square", "square_long", "one_sided_exp", "double_exp", "tabulated"))
def test_widest_cavity_reaches_the_white_noise_limit(mode):
    # at the largest accepted hwhm every mode sees a flat spectrum,
    # 1 -/+ 4x eta/(1 +/- x)^2, and the closed form stays finite
    x = 0.3
    p = OpoParams(pump_param=x, hwhm=MAX_HWHM, efficiency=1.0)
    assert filtered_variance(opo_spectrum(p, "squeezed"), mode) == pytest.approx(
        1.0 - 4.0 * x / (1.0 + x) ** 2, rel=1e-8)
    assert filtered_variance(opo_spectrum(p, "antisqueezed"), mode) == pytest.approx(
        1.0 + 4.0 * x / (1.0 - x) ** 2, rel=1e-8)
