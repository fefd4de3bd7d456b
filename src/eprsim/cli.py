"""Reproducible experiment driver.

Verbs: spectra (analytic tables, no RNG), run (records drawn through the
detection chain, then analyzed), sweep (duan vs one variable), optimize
(mode search).
Every CSV carries "# key=value" provenance comments including the config
fingerprint; identical config and seed produce byte-identical outputs.

Exit codes: 0 success, 2 configuration or usage error, 3 numeric failure,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .analysis import (MIN_SEGMENT, CalibrationError, Diagram, EprReport, check_reference,
                       combine_reports, combo_series, correlation_diagram,
                       epr_report, extract_modes, trace_excerpt, welch_psd)
from .config import (MAX_GRID_POINTS, ConfigError, RunConfig, load_config,
                     require_monte_carlo)
# detect and expected_mode_variance are not called here (the pipeline
# draws detected records directly, and its reference expectation is the
# mean of sample_variance_law) but stay importable from eprsim.cli, where
# perfbench's tracer wraps them
from .detection import detect, expected_mode_variance  # noqa: F401
from .detection import sample_variance_law
from .modeopt import ModeFamily, NonUnimodalError, mode_duan, mode_duans, optimize
from .modes import KINDS, MAX_RATE, TemporalMode
# filtered_variance is not called here but stays importable from
# eprsim.cli, where perfbench's tracer wraps it
from .spectra import filtered_variance  # noqa: F401
from .spectra import (OpoParams, QuadratureError, duan_sum, epr_spectra, filtered_variances,
                      to_db)
from .synth import _children, epr_record, vacuum_record

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return ""
    return f"{v:.12g}"


def _data_lines(rows: Iterable[Sequence[object]]) -> str:
    """The CSV lines of rows, each value as _fmt writes it: a float64
    array with no NaN (the diagram, PSD, spectra and optimize tables) by
    one % over a repeated %.12g row template, the bytes _fmt gives;
    any other rows by _fmt of each value."""
    if isinstance(rows, np.ndarray) and not np.isnan(rows).any():
        template = ",".join(["%.12g"] * rows.shape[1]) + "\n"
        return template * rows.shape[0] % tuple(rows.ravel().tolist())
    return "".join(",".join(map(_fmt, row)) + "\n" for row in rows)


def _csv_text(meta: Dict[str, object], header: Sequence[str],
              rows: Iterable[Sequence[object]]) -> str:
    """A CSV file's text: "# key=value" lines, the header, the rows
    (_data_lines)."""
    lines = [f"# {key}={_fmt(value)}\n" for key, value in meta.items()]
    lines.append(",".join(header) + "\n")
    lines.append(_data_lines(rows))
    return "".join(lines)


def _write_text(path: Path, text: str) -> None:
    tmp = path.parent / (path.name + ".tmp")
    with tmp.open("w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_csv(path: Path, meta: Dict[str, object], header: Sequence[str],
               rows: Iterable[Sequence[object]]) -> None:
    _write_text(path, _csv_text(meta, header, rows))


def _worker_count(reps: int) -> int:
    """Worker threads for reps repetitions: at most one per core (each
    repetition is CPU-bound), capped further by EPR_THREADS when set."""
    cap = os.cpu_count() or 1
    env = os.environ.get("EPR_THREADS")
    if env:
        try:
            want = int(env)
        except ValueError as exc:
            raise ConfigError(f"EPR_THREADS: expected an integer, got {env!r}") from exc
        if want < 1:
            raise ConfigError(f"EPR_THREADS: expected at least 1, got {env!r}")
        cap = min(cap, want)
    return max(1, min(cap, reps))


def _meta(cfg: RunConfig, command: str, **extra) -> Dict[str, object]:
    base: Dict[str, object] = {"fingerprint": cfg.fingerprint,
                               "command": command, "seed": cfg.seed}
    base.update(extra)
    return base


# -- run ----------------------------------------------------------------------

def _one_repetition(cfg: RunConfig, seq: np.random.SeedSequence, files: bool = False):
    """One repetition's report, a pure function of (cfg, seq), and with
    files the files of its records (_run_files), rendered in its worker.

    The detected (X, P, vacuum) records are drawn through the chain from
    the three streams that are seq's children (synth._children: seq is not
    advanced, so the same seq gives the same repetition). A repetition
    with files draws its records in full, because the files need their
    samples, and the report reads the samples too. Any other repetition
    draws its records in mode space for cfg.mode (synth: mode=) where the
    chain and the mode allow it, and the report reads four beams (X's
    beam 2, P's beam 1, both vacuum beams) from the rfft coefficients of
    their m mode values; elsewhere it draws in full as well."""
    x_seed, p_seed, v_seed = _children(seq, 3)
    mode = None if files else cfg.mode
    xr = epr_record(cfg.opo1, cfg.opo2, cfg.duration, cfg.fs, "X", x_seed,
                    chain=cfg.chain, mode=mode)
    pr = epr_record(cfg.opo1, cfg.opo2, cfg.duration, cfg.fs, "P", p_seed,
                    chain=cfg.chain, mode=mode)
    vr = vacuum_record(cfg.duration, cfg.fs, v_seed, chain=cfg.chain, mode=mode)
    report = epr_report(xr, pr, vr, cfg.mode)
    return report, (_run_files(cfg, xr, pr, vr) if files else None)


def _run_pipeline(cfg: RunConfig, slot: int = 0, files: bool = True):
    """(report, repetition 0's files (_run_files) or None without files,
    the exact mean of one reference variance). Each repetition is reduced
    to its report in its worker, and with files repetition 0's worker
    draws it in full and renders the files while the others draw in mode
    space, so no records outlive their repetition. Without files (`sweep
    --mc-check`) every repetition draws in mode space where it can. The
    run's 2*reps reference variances are then checked once against their
    exact law (check_reference, sample_variance_law): a fixed
    false-failure rate. The law is computed on the calling thread while
    the pool draws (on a worker its arrays would stay in that thread's
    arena), and a repetition's exception is raised before the law's.

    Random streams form the spawn tree seed -> slot -> repetition ->
    stream -> beam (slot 0 is `run`, slot j+1 the `sweep --mc-check` run
    at grid point j; a stream is one record, X, P or vacuum, and its
    beams are children of it: (..., 0) and (..., 1) drawn as blocks,
    (..., 2) and (..., 3) drawn in mode space, synth._ModeDraw): no two
    draws share a seed, and repetition i's streams do not depend on
    cfg.repetitions."""
    root = np.random.SeedSequence(cfg.seed, spawn_key=(slot,))
    seqs = _children(root, cfg.repetitions)
    with ThreadPoolExecutor(max_workers=_worker_count(len(seqs))) as pool:
        results = pool.map(_one_repetition, [cfg] * len(seqs), seqs,
                           [files] + [False] * (len(seqs) - 1))
        try:
            ref_mean, ref_sd = sample_variance_law(None, cfg.chain, cfg.fs, cfg.mode,
                                                   cfg.duration)
        finally:
            results = list(results)
    report = combine_reports([r for r, _ in results])
    check_reference(report, ref_mean, ref_sd)
    return report, results[0][1], ref_mean


def _report_rows(report: EprReport):
    rows: List[Tuple[object, ...]] = []
    for i, (dbx, dbp, duan_i) in enumerate(report.per_rep):
        rows.append((i, dbx, dbp, duan_i, None, None, None))
    rows.append(("summary", report.var_diff_x_db, report.var_sum_p_db,
                 report.duan, report.var_diff_x_db_se, report.var_sum_p_db_se,
                 report.duan_se))
    return rows


def _setting_files(cfg: RunConfig, tag: str, record, vacuum,
                   sign: float) -> Tuple[Dict[str, str], Diagram]:
    """The texts of one setting's diagram, trace and vacuum-referenced PSD
    files, by name, and the diagram."""
    mode = cfg.mode
    va = extract_modes(record.a, mode)
    vb = extract_modes(record.b, mode)
    diagram = correlation_diagram(va, vb)
    files = {}
    meta = _meta(cfg, "run", setting=tag, pearson_r=diagram.pearson_r)
    files[f"diagram_{tag}.csv"] = _csv_text(meta, ("a", "b"),
                                            np.column_stack((diagram.a, diagram.b)))
    idx, ta, tb = trace_excerpt(va, vb, n=min(50, va.count))
    files[f"trace_{tag}.csv"] = _csv_text(_meta(cfg, "run", setting=tag),
                                          ("index", "a", "b"), zip(idx, ta, tb))

    sig = combo_series(record, sign)
    ref = combo_series(vacuum, sign)
    seg = min(4096, sig.n)
    est_sig = welch_psd(sig, segment_len=seg)
    est_ref = welch_psd(ref, segment_len=seg)
    db = est_sig.db - est_ref.db
    files[f"psd_{tag}.csv"] = _csv_text(
        _meta(cfg, "run", setting=tag, segments=est_sig.n_segments),
        ("freq_hz", "db"), np.column_stack((est_sig.freq_hz, db)))
    return files, diagram


def _run_files(cfg: RunConfig, x_record, p_record, vacuum):
    """(the texts of run's diagram, trace and PSD files by name, the X
    diagram, the P diagram) of one repetition's records."""
    files_x, dx = _setting_files(cfg, "x", x_record, vacuum, -1.0)
    files_p, dp = _setting_files(cfg, "p", p_record, vacuum, +1.0)
    return {**files_x, **files_p}, dx, dp


def cmd_run(cfg: RunConfig, out: Path) -> int:
    require_monte_carlo(cfg, min_samples=MIN_SEGMENT)  # the PSD files' Welch segment
    report, (files, dx, dp), expected_ref = _run_pipeline(cfg)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "report.csv",
               _meta(cfg, "run", repetitions=report.repetitions,
                     expected_ref_variance=expected_ref),
               ("rep", "var_diff_x_db", "var_sum_p_db", "duan",
                "var_diff_x_db_se", "var_sum_p_db_se", "duan_se"),
               _report_rows(report))
    for name, text in files.items():
        _write_text(out / name, text)
    print(f"diff-x: {report.var_diff_x_db:+.3f} dB (se {report.var_diff_x_db_se:#.2g})")
    print(f"sum-p:  {report.var_sum_p_db:+.3f} dB (se {report.var_sum_p_db_se:#.2g})")
    print(f"duan:   {report.duan:.4f} (se {report.duan_se:#.2g}, separable bound 1)")
    print(f"repetitions: {report.repetitions}, modes per repetition: {dx.a.size}")
    print(f"pearson r: x {dx.pearson_r:+.3f}, p {dp.pearson_r:+.3f}")
    print(f"outputs in {out}")
    return EXIT_OK


# -- spectra ------------------------------------------------------------------

def cmd_spectra(cfg: RunConfig, out: Path) -> int:
    spectra = epr_spectra(cfg.opo1, cfg.opo2)
    out.mkdir(parents=True, exist_ok=True)
    freq = np.geomspace(1e3, 1e8, 251)
    omega = 2.0 * np.pi * freq
    for tag, psd in (("x", spectra.diff_x), ("p", spectra.sum_p)):
        db = 10.0 * np.log10(psd(omega))
        _write_csv(out / f"psd_{tag}.csv", _meta(cfg, "spectra", setting=tag),
                   ("freq_hz", "db"), np.column_stack((freq, db)))

    t_grid = np.geomspace(1e-8, 1e-5, 151).tolist()  # 50 points per decade
    vx, vp = filtered_variances((spectra.diff_x, spectra.sum_p),
                                [TemporalMode.square(t) for t in t_grid])
    rows = np.array([(t, x, p, to_db(x), to_db(p), duan_sum(x, p))
                     for t, x, p in zip(t_grid, vx, vp)])
    _write_csv(out / "variances.csv", _meta(cfg, "spectra"),
               ("T_s", "var_diff_x", "var_sum_p", "db_diff_x", "db_sum_p", "duan"),
               rows)

    duan_cfg = mode_duan(spectra, cfg.mode)
    print(f"analytic duan at configured mode: {duan_cfg:.6f}")
    print(f"outputs in {out}")
    return EXIT_OK


# -- sweep --------------------------------------------------------------------

def _parse_grid(text: str, log: bool) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--grid expects lo:hi:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"--grid expects numbers lo:hi:n, got {text!r}") from exc
    if not (lo < hi and math.isfinite(hi - lo) and 2 <= n <= MAX_GRID_POINTS):
        raise ConfigError(
            f"--grid requires finite lo < hi and 2 <= n <= {MAX_GRID_POINTS}, got {text!r}")
    if log:
        if lo <= 0:
            raise ConfigError("--log grid requires positive bounds")
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


def _sweep_setting(cfg: RunConfig, variable: str, value: float) -> RunConfig:
    """cfg with the swept variable (a square mode's T, or both OPOs'
    pump_param or efficiency) set to value; the mode, the OPOs and the
    RunConfig reject a value out of range."""
    if variable == "T":
        return replace(cfg, mode=TemporalMode.square(value))
    return replace(cfg, opo1=replace(cfg.opo1, **{variable: value}),
                   opo2=replace(cfg.opo2, **{variable: value}))


def cmd_sweep(cfg: RunConfig, out: Path, variable: str, grid: np.ndarray,
              mc_check: bool) -> int:
    settings = []
    endpoints = {0, grid.size - 1}
    for j, value in enumerate(grid):  # every point is checked before any work
        checked = mc_check and j in endpoints
        try:
            c = _sweep_setting(cfg, variable, float(value))
            if checked:
                require_monte_carlo(c)
        except ValueError as exc:  # name the point, not the config field alone
            raise ConfigError(f"--grid {variable}={value:g}: {exc}") from exc
        settings.append((value, c, checked))
    # one mode_duans call per pair of OPOs: a T sweep is one batch
    groups: Dict[Tuple[OpoParams, OpoParams], List[int]] = {}
    for j, (_, c, _) in enumerate(settings):
        groups.setdefault((c.opo1, c.opo2), []).append(j)
    duans: Dict[int, float] = {}
    for (opo1, opo2), points in groups.items():
        values = mode_duans(epr_spectra(opo1, opo2), [settings[j][1].mode for j in points])
        duans.update(zip(points, values))
    rows = []
    for j, (value, c, checked) in enumerate(settings):
        duan_mc = None
        if checked:
            duan_mc = _run_pipeline(replace(c, repetitions=1), slot=j + 1,
                                    files=False)[0].duan
        rows.append((variable, value, duans[j], duan_mc))
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "sweep.csv", _meta(cfg, "sweep", variable=variable),
               ("variable", "value", "duan", "duan_mc"), rows)
    print(f"swept {variable} over {grid.size} points: duan "
          f"{rows[0][2]:.4f} -> {rows[-1][2]:.4f}")
    print(f"outputs in {out}")
    return EXIT_OK


# -- optimize -----------------------------------------------------------------

def _family_bounds(kind: str, overrides: Sequence[str]) -> Dict[str, Tuple[float, float]]:
    row = KINDS[kind]
    bounds = dict(zip(row.params, row.bounds))
    for text in overrides:
        name, _, span = text.partition("=")
        if name not in bounds:
            raise ConfigError(
                f"--bound {name!r} not a parameter of family {kind!r} "
                f"(expected {tuple(bounds)})")
        lo, _, hi = span.partition(":")
        try:
            bounds[name] = (float(lo), float(hi))
        except ValueError as exc:
            raise ConfigError(f"--bound expects name=lo:hi, got {text!r}") from exc
        if name == "rate" and bounds[name][1] > MAX_RATE:
            raise ConfigError(f"--bound rate: must be at most {MAX_RATE:g} 1/s, got {text!r}")
    return bounds


def cmd_optimize(cfg: RunConfig, out: Path, kind: str, budget: int,
                 bound_args: Sequence[str]) -> int:
    family = ModeFamily(kind=kind, param_bounds=_family_bounds(kind, bound_args))
    spectra = epr_spectra(cfg.opo1, cfg.opo2)
    result = optimize(spectra, family, budget=budget)
    out.mkdir(parents=True, exist_ok=True)
    names = family.param_names
    best = result.best_mode.params
    meta = _meta(cfg, "optimize", family=kind, budget=budget,
                 converged=str(result.converged).lower(),
                 best_duan=result.best_duan,
                 **{f"best_{n}": best[n] for n in names})
    _write_csv(out / "optimize.csv", meta, (*names, "duan"),
               np.array([tuple(p[n] for n in names) + (v,) for p, v in result.trace]))
    desc = ", ".join(f"{n}={best[n]:.6g}" for n in names)
    print(f"best {kind} mode: {desc} -> duan {result.best_duan:.6f} "
          f"({'converged' if result.converged else 'budget exhausted'}, "
          f"{len(result.trace)} evaluations)")
    print(f"outputs in {out}")
    return EXIT_OK


# -- entry point ----------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eprsim",
        description="EPR beam simulator: spectra, pipeline runs, sweeps, "
                    "mode optimization")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", help="output directory (default: config output_dir)")
        p.add_argument("--seed", type=int, help="override config seed")
        p.add_argument("--reps", type=int, help="override config repetitions")

    common(sub.add_parser("spectra", help="analytic PSD and variance tables"))
    common(sub.add_parser("run", help="full pipeline with report and diagrams"))

    p_sweep = sub.add_parser("sweep", help="analytic duan versus one variable")
    common(p_sweep)
    p_sweep.add_argument("--var", required=True,
                         choices=("T", "pump_param", "efficiency"))
    p_sweep.add_argument("--grid", required=True, help="lo:hi:n")
    p_sweep.add_argument("--log", action="store_true",
                         help="geometric instead of linear grid spacing")
    p_sweep.add_argument("--mc-check", action="store_true",
                         help="Monte Carlo spot check at the grid endpoints")

    p_opt = sub.add_parser("optimize", help="search a mode family for minimal duan")
    common(p_opt)
    p_opt.add_argument("--family", required=True,
                       choices=[k for k, row in KINDS.items() if row.bounds])
    p_opt.add_argument("--budget", type=int, default=160,
                       help="objective evaluation budget (minimum 16)")
    p_opt.add_argument("--bound", action="append", default=[],
                       metavar="NAME=LO:HI", help="override a search bound")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG

    try:
        overrides = {"seed": args.seed, "repetitions": args.reps}
        cfg = replace(load_config(args.config),
                      **{k: v for k, v in overrides.items() if v is not None})
        out = Path(args.out) if args.out else Path(cfg.output_dir)
        if args.command == "run":
            return cmd_run(cfg, out)
        if args.command == "spectra":
            return cmd_spectra(cfg, out)
        if args.command == "sweep":
            grid = _parse_grid(args.grid, args.log)
            return cmd_sweep(cfg, out, args.var, grid, args.mc_check)
        return cmd_optimize(cfg, out, args.family, args.budget, args.bound)
    except (QuadratureError, CalibrationError, NonUnimodalError,
            FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
