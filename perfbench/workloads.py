"""The benchmark's workloads and the checks on their outputs.

Each workload is built from the run's seed, does one unit of work per
``iterate`` call (the timed part) and judges that unit's outputs in
``check`` (untimed).  eprsim is driven only through ``eprsim.cli.main`` and
the public functions of its modules, always looked up as module attributes
at call time so the traced run sees every call.

Why each workload exists:

* ``pipeline`` is what users run to reproduce the paper's readings:
  synthesis, detection and analysis do the work.
* ``oracle`` is the analytic path with no RNG: the filtered-variance
  quadrature, mode power spectra and the mode optimizer do the work, and
  synthesis and detection are idle.  A faster oracle shows here only.
* ``mc_check`` uses synthesis the way acceptance criterion 1 does (large
  power-of-two blocks, no trimming, no detection chain), so a block-sizing
  or detection gain for ``pipeline`` should not move it, while a change
  that slows large FFTs does.

Record I/O, which no CLI verb exercises, is not a timed workload: on the
shared 2-vCPU host its pure-Python CSV round trips spread by more than the
largest bound the benchmark may set.  ``RecordRoundTrip`` does one traced
round trip in every traced run instead, so the ``recordio`` layer is still
measured.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Tuple

import numpy as np

Checks = List[Tuple[str, bool]]

_MODULES = ("cli", "config", "spectra", "modes", "synth", "detection",
            "analysis", "modeopt", "recordio")


class SetupError(RuntimeError):
    """The checkout lacks what the benchmark needs."""


class Env:
    """A checkout of the repository with eprsim imported from its src/."""

    def __init__(self, root: Path, work: Path):
        self.root = Path(root)
        self.work = Path(work)
        self.tracer = None
        self.src = self.root / "src"
        self.paper_cfg = self.root / "paper.cfg"
        refvals_path = self.root / "tests" / "refvals.py"
        for need in (self.src / "eprsim" / "__init__.py", self.paper_cfg, refvals_path):
            if not need.is_file():
                raise SetupError(f"{need} not found: run from a checkout of the repository")
        if str(self.src) not in sys.path:
            sys.path.insert(0, str(self.src))
        pkg = importlib.import_module("eprsim")
        if Path(pkg.__file__).resolve().parent != (self.src / "eprsim").resolve():
            raise SetupError(f"eprsim imported from {pkg.__file__}, not from {self.src}")
        self.m = SimpleNamespace(**{name: importlib.import_module(f"eprsim.{name}")
                                    for name in _MODULES})
        spec = importlib.util.spec_from_file_location("eprsim_refvals", refvals_path)
        self.refvals = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.refvals)

    def cli(self, argv) -> int:
        """Exit code of eprsim.cli.main; its printout is discarded."""
        argv = [str(a) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            if self.tracer is None:
                return self.m.cli.main(argv)
            return self.tracer.span(f"cli.{argv[0]}", self.m.cli.main, argv)


def derive_seed(seed: int, *keys: int) -> int:
    """Independent 32-bit seed for one part of a run, fixed by the run seed."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def _csv_rows(path: Path) -> Tuple[Dict[str, str], List[List[str]]]:
    """(# key=value comments, data rows without the header) of a CLI CSV."""
    meta, rows = {}, []
    lines = path.read_text().splitlines()
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    for ln in lines:
        if ln.startswith("# "):
            key, _, value = ln[2:].partition("=")
            meta[key] = value
    for ln in body[1:]:
        rows.append(ln.split(","))
    return meta, rows


def _within(value: float, target: float, tol: float) -> bool:
    return math.isfinite(value) and abs(value - target) <= tol


class Workload:
    name = ""
    why = ""
    work_layers: Tuple[str, ...] = ()  # layers expected to do the timed work

    def __init__(self, env: Env, seed: int):
        self.env = env
        self.seed = seed
        self.dir = env.work / self.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.info: Dict[str, List[float]] = {}  # recorded, never gated

    def prepare(self) -> None:
        """Untimed set-up of the inputs."""

    def iterate(self, i: int):
        raise NotImplementedError

    def check(self, out) -> Checks:
        raise NotImplementedError


class Pipeline(Workload):
    name = "pipeline"
    why = ("the paper's readings: run --reps 100 on paper.cfg, each call with a "
           "--seed derived from the run seed; synth, detection and analysis do the work")
    work_layers = ("synth", "detection", "analysis")

    def __init__(self, env: Env, seed: int, reps: int = 100):
        super().__init__(env, seed)
        self.reps = reps

    def prepare(self) -> None:
        m = self.env.m
        cfg = m.config.load_config(self.env.paper_cfg)
        spectra = m.spectra.epr_spectra(cfg.opo1, cfg.opo2)
        # chain-aware expectation: detected signal over detected vacuum
        ref = m.detection.expected_mode_variance(None, cfg.chain, cfg.fs, cfg.mode)
        self.expect = {}
        for tag, psd in (("x", spectra.diff_x), ("p", spectra.sum_p)):
            ratio = m.detection.expected_mode_variance(psd, cfg.chain, cfg.fs,
                                                       cfg.mode) / ref
            self.expect[tag] = ratio
        self.expect["duan"] = 0.5 * (self.expect["x"] + self.expect["p"])

    def iterate(self, i: int):
        out = self.dir / "run"
        rc = self.env.cli(["run", "--config", self.env.paper_cfg,
                              "--reps", self.reps,
                              "--seed", derive_seed(self.seed, i),
                              "--out", out])
        return rc, out

    def check(self, out) -> Checks:
        rc, path = out
        checks = [("run exit code 0", rc == 0)]
        if rc != 0:
            return checks + [("report readable", False)]
        _, rows = _csv_rows(path / "report.csv")
        _, diagram = _csv_rows(path / "diagram_x.csv")
        summary = [r for r in rows if r[0] == "summary"]
        checks.append(("one row per repetition", len(rows) == self.reps + 1))
        checks.append(("10,000 modes per repetition", len(diagram) == 10_000))
        checks.append(("one summary row", len(summary) == 1))
        if len(summary) != 1:
            return checks
        db_x, db_p, duan, se_x, se_p, se_d = (float(v) if v else math.nan
                                              for v in summary[0][1:7])
        duan_cal = self.env.refvals.DUAN_CAL
        checks += [("diff-x within 0.3 dB of -3.30", _within(db_x, -3.30, 0.3)),
                   ("sum-p within 0.3 dB of -3.74", _within(db_p, -3.74, 0.3)),
                   ("duan within 0.03 of DUAN_CAL", _within(duan, duan_cal, 0.03))]
        # the offset to the paper's targets and the z-scores against the
        # chain-aware expectation are recorded, not gated
        for key, value, target in (("paper_offset.diff_x_db", db_x, -3.30),
                                   ("paper_offset.sum_p_db", db_p, -3.74),
                                   ("paper_offset.duan", duan, duan_cal)):
            self.info.setdefault(key, []).append(value - target)
        for key, value, se, expect in (
                ("z.diff_x_db", db_x, se_x, 10.0 * math.log10(self.expect["x"])),
                ("z.sum_p_db", db_p, se_p, 10.0 * math.log10(self.expect["p"])),
                ("z.duan", duan, se_d, self.expect["duan"])):
            if se > 0.0:
                self.info.setdefault(key, []).append((value - expect) / se)
        return checks


# config entry of the oracle workload's mode: a 100-sample Hann window
# tabulated over 2 us
HANN_MODE = {"kind": "tabulated",
             "samples": [math.sin(math.pi * (j + 0.5) / 100) ** 2 for j in range(100)],
             "duration": 2e-6}


class Oracle(Workload):
    name = "oracle"
    why = ("analytic path, no RNG: spectra verb on a tabulated Hann mode, "
           "optimize double_exp, pump calibration; seed only tags outputs")
    work_layers = ("spectra", "modes", "modeopt")

    def __init__(self, env: Env, seed: int, family: str = "double_exp"):
        super().__init__(env, seed)
        self.family = family

    def prepare(self) -> None:
        m = self.env.m
        table = json.loads(self.env.paper_cfg.read_text())
        table["mode"] = HANN_MODE
        self.hann_cfg = self.dir / "hann.cfg"
        self.hann_cfg.write_text(json.dumps(table, indent=2))
        cfg = m.config.load_config(self.env.paper_cfg)
        spectra = m.spectra.epr_spectra(cfg.opo1, cfg.opo2)
        self.paper_duan = m.modeopt.mode_duan(spectra, cfg.mode)

    def iterate(self, i: int):
        rv = self.env.refvals
        rc_spectra = self.env.cli(["spectra", "--config", self.hann_cfg,
                                      "--seed", self.seed, "--out", self.dir / "spectra"])
        rc_opt = self.env.cli(["optimize", "--config", self.env.paper_cfg,
                                  "--family", self.family, "--seed", self.seed,
                                  "--out", self.dir / "optimize"])
        calib = self.env.m.spectra.calibrate_pump_param
        x330 = calib(-3.30, rv.ETA, rv.HWHM)
        x374 = calib(-3.74, rv.ETA, rv.HWHM)
        return rc_spectra, rc_opt, x330, x374

    def check(self, out) -> Checks:
        rc_spectra, rc_opt, x330, x374 = out
        rv = self.env.refvals
        checks = [("spectra exit code 0", rc_spectra == 0),
                  ("optimize exit code 0", rc_opt == 0),
                  ("calibration -3.30 dB matches X_330", _within(x330, rv.X_330, 1e-10)),
                  ("calibration -3.74 dB matches X_374", _within(x374, rv.X_374, 1e-10))]
        if rc_spectra == 0:
            _, rows = _csv_rows(self.dir / "spectra" / "variances.csv")
            duans = [float(r[5]) for r in rows]
            checks.append(("variance table complete",
                           len(duans) == 151 and all(0.0 < d < 1.0 for d in duans)))
        if rc_opt == 0:
            meta, _ = _csv_rows(self.dir / "optimize" / "optimize.csv")
            best = float(meta.get("best_duan", "nan"))
            checks.append(("optimized duan <= duan at the paper mode",
                           best <= self.paper_duan))
        return checks


class McCheck(Workload):
    name = "mc_check"
    why = ("criterion-1 shape: 2^22-sample blocks at 400 MS/s, >=1e5 square modes "
           "at each T_GRID duration vs filtered_variance; block seeds from --seed")
    work_layers = ("synth", "analysis")

    FS = 400e6

    def __init__(self, env: Env, seed: int, block: int = 1 << 22,
                 min_values: int = 100_000):
        super().__init__(env, seed)
        self.block = block
        self.min_values = min_values

    def prepare(self) -> None:
        rv = self.env.refvals
        m = self.env.m
        self.psd = m.spectra.opo_spectrum(
            m.spectra.OpoParams(rv.X_330, rv.HWHM, rv.ETA, "X"), "squeezed")

    def iterate(self, i: int):
        m = self.env.m
        results = []
        for j, T in enumerate(self.env.refvals.T_GRID):
            mode = m.modes.TemporalMode.square(T)
            per_block = self.block // mode.n_samples(self.FS)
            chunks = []
            for k in range(-(-self.min_values // per_block)):
                series = m.synth.synthesize_colored(self.psd, self.block, self.FS,
                                                    seed=derive_seed(self.seed, i, j, k))
                chunks.append(m.analysis.extract_modes(series, mode).values)
            values = np.concatenate(chunks)
            oracle = m.spectra.filtered_variance(self.psd, mode)
            results.append((values.size, float(np.var(values, ddof=1)), oracle))
        return results

    def check(self, out) -> Checks:
        checks = []
        self.info.setdefault("mode_values", []).append(sum(n for n, _, _ in out))
        for j, (n, var, oracle) in enumerate(out):
            expected = self.env.refvals.SQ_330[j]
            se = oracle * math.sqrt(2.0 / (n - 1))
            z = (var - oracle) / se
            self.info.setdefault(f"z.T{j}", []).append(z)
            checks += [(f"T{j}: enough mode values", n >= self.min_values),
                       (f"T{j}: oracle matches SQ_330", _within(oracle / expected, 1.0, 1e-6)),
                       (f"T{j}: variance within 5 SE of the oracle", abs(z) <= 5.0)]
        return checks


class RecordRoundTrip:
    """Binary and CSV round trips of the detected X and vacuum records of
    one paper.cfg repetition seeded from the run seed."""

    def __init__(self, env: Env, seed: int):
        self.env = env
        self.seed = seed
        self.dir = env.work / "records"
        self.dir.mkdir(parents=True, exist_ok=True)

    def prepare(self) -> None:
        m = self.env.m
        cfg = m.config.load_config(self.env.paper_cfg)
        base = derive_seed(self.seed)
        x = m.synth.epr_record(cfg.opo1, cfg.opo2, cfg.duration, cfg.fs, "X", base)
        vac = m.synth.vacuum_record(cfg.duration, cfg.fs, base + 2)
        x = m.detection.detect(x, cfg.chain, base + 3)
        vac = m.detection.detect(vac, cfg.chain, base + 5)
        self.series = [x.a, x.b, vac.a, vac.b]

    def round_trip(self):
        rio = self.env.m.recordio
        out = []
        for k, s in enumerate(self.series):
            bin_path = self.dir / f"series{k}.bin"
            csv_path = self.dir / f"series{k}.csv"
            rio.save_series_bin(bin_path, s)
            from_bin = rio.load_series_bin(bin_path, label=s.label)
            rio.save_series_csv(csv_path, s)
            from_csv = rio.load_series_csv(csv_path)
            out.append((from_bin, from_csv))
        return out

    def check(self, out) -> Checks:
        checks = []
        for k, (s, (from_bin, from_csv)) in enumerate(zip(self.series, out)):
            checks.append((f"series{k}: binary round trip bit exact",
                           from_bin.sample_rate == s.sample_rate
                           and from_bin.samples.tobytes() == s.samples.tobytes()))
            checks.append((f"series{k}: CSV round trip equal",
                           from_csv.sample_rate == s.sample_rate
                           and from_csv.label == s.label
                           and np.array_equal(from_csv.samples, s.samples)))
        return checks


WORKLOADS = {w.name: w for w in (Pipeline, Oracle, McCheck)}
