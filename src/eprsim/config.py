"""Run configuration: JSON schema, validation with field-path diagnostics,
and a canonical fingerprint embedded in every output file.

parse_config checks the JSON shape and field types, each part its own
values, and RunConfig the rules between fields (on replace too).
require_monte_carlo counts a record's mode windows with synth.layout.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import Any, Dict

from .detection import DetectionChain
from .modes import KINDS, TemporalMode
from .spectra import OpoParams, beam_spectra
from .synth import check_alias, layout

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config", "config_fingerprint"]

# size limits: a run spawns a stream per repetition and holds records of
# duration*fs samples, sweep evaluates every grid point, and a tabulated
# mode's closed-form overlap costs time quadratic in its samples, so a valid
# config or command line must not ask for unbounded work
MAX_REPETITIONS = 10_000
MAX_RECORD_SAMPLES = 1 << 24
MAX_GRID_POINTS = 10_000
MAX_MODE_SAMPLES = 1 << 16


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending field."""


@dataclass(frozen=True)
class RunConfig:
    """One measurement setup. Construction checks the rules between fields
    and raises ConfigError naming the field, so dataclasses.replace
    returns a checked config too."""

    opo1: OpoParams
    opo2: OpoParams
    chain: DetectionChain
    fs: float
    duration: float
    mode: TemporalMode
    repetitions: int
    seed: int
    output_dir: str

    def __post_init__(self):
        if self.opo1.squeeze_phase == self.opo2.squeeze_phase:
            raise ConfigError(
                "opo2.squeeze_phase: the two OPOs must squeeze orthogonal quadratures")
        if self.repetitions < 1:
            raise ConfigError("repetitions: must be at least 1")
        if self.repetitions > MAX_REPETITIONS:
            raise ConfigError(f"repetitions: must be at most {MAX_REPETITIONS}")
        samples = self.duration * self.fs
        if not (math.isfinite(samples) and 2 <= round(samples) <= MAX_RECORD_SAMPLES):
            raise ConfigError(
                f"duration: duration*fs must cover 2 to {MAX_RECORD_SAMPLES} samples, "
                f"got {samples:g}")
        if self.seed < 0:
            raise ConfigError("seed: must be non-negative")
        try:  # the chain's own conditions at the record rate
            self.chain.decimation(self.fs)
        except ValueError as exc:
            raise ConfigError(f"chain.{exc}") from exc
        if self.mode.duration > self.duration:
            raise ConfigError("mode.duration: must not exceed the record duration")

    @cached_property
    def fingerprint(self) -> str:
        """config_fingerprint of this config, computed on first use."""
        return config_fingerprint(self)


def _require(table: Dict[str, Any], key: str, path: str) -> Any:
    if key not in table:
        raise ConfigError(f"{path}{key}: required field missing")
    return table[key]


def _number(value: Any, path: str, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # inf, nan, or an int beyond float
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    if positive and not value > 0:
        raise ConfigError(f"{path}: must be positive")
    return float(value)


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _check_keys(table: Dict[str, Any], allowed, path: str) -> None:
    if not isinstance(table, dict):
        raise ConfigError(f"{path.rstrip('.') or 'config'}: expected an object")
    unknown = set(table) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}{sorted(unknown)[0]}: unknown field")


def _parse_opo(table: Any, path: str) -> OpoParams:
    _check_keys(table, ("pump_param", "hwhm", "efficiency", "squeeze_phase"), path)
    try:
        return OpoParams(
            pump_param=_number(_require(table, "pump_param", path), path + "pump_param"),
            hwhm=_number(_require(table, "hwhm", path), path + "hwhm"),
            efficiency=_number(_require(table, "efficiency", path), path + "efficiency"),
            squeeze_phase=_require(table, "squeeze_phase", path))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}{exc}") from exc


def _parse_chain(table: Any, path: str) -> DetectionChain:
    _check_keys(table, [f.name for f in fields(DetectionChain)], path)
    kwargs: Dict[str, Any] = {}
    for key, value in table.items():
        if value is None and key in ("electronic_noise_db", "adc_bits"):
            kwargs[key] = None  # null switches the stage off
        else:
            kwargs[key] = (_integer if key == "adc_bits" else _number)(value, path + key)
    try:
        return DetectionChain(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}{exc}") from exc


def _parse_mode(table: Any, path: str) -> TemporalMode:
    if not isinstance(table, dict) or "kind" not in table:
        raise ConfigError(f"{path}kind: required field missing")
    kind = table["kind"]
    if not isinstance(kind, str) or kind not in KINDS:
        raise ConfigError(f"{path}kind: unknown mode kind {kind!r}")
    names = KINDS[kind].params
    _check_keys(table, ("kind", *names), path)
    params: Dict[str, Any] = {}
    for name in names:
        value = _require(table, name, path)
        if name != "samples":
            params[name] = _number(value, path + name, positive=True)
        elif not (isinstance(value, list) and value):
            raise ConfigError(f"{path}{name}: expected a non-empty array")
        elif len(value) > MAX_MODE_SAMPLES:
            raise ConfigError(
                f"{path}{name}: at most {MAX_MODE_SAMPLES} samples, got {len(value)}")
        else:
            params[name] = [_number(v, path + name) for v in value]
    try:
        return TemporalMode.from_params(kind, params)
    except ValueError as exc:
        raise ConfigError(f"{path}{exc}") from exc


def _canonical_dict(cfg: "RunConfig") -> Dict[str, Any]:
    return {
        "opo1": asdict(cfg.opo1),
        "opo2": asdict(cfg.opo2),
        "chain": asdict(cfg.chain),
        "fs": cfg.fs,
        "duration": cfg.duration,
        "mode": {"kind": cfg.mode.kind, **cfg.mode.params},
        "repetitions": cfg.repetitions,
        "seed": cfg.seed,
    }


def config_fingerprint(cfg: "RunConfig") -> str:
    """SHA-256 of the canonicalized config (output_dir excluded, so moving
    results does not change identity)."""
    canon = json.dumps(_canonical_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


_TOP_KEYS = tuple(f.name for f in fields(RunConfig))


def parse_config(table: Dict[str, Any]) -> RunConfig:
    """Check a parsed JSON object's shape and field types and build the
    RunConfig, which checks the rules between fields."""
    _check_keys(table, _TOP_KEYS, "")
    opo1 = _parse_opo(_require(table, "opo1", ""), "opo1.")
    opo2 = _parse_opo(_require(table, "opo2", ""), "opo2.")
    chain = _parse_chain(table.get("chain", {}), "chain.")
    fs = _number(_require(table, "fs", ""), "fs", positive=True)
    duration = _number(_require(table, "duration", ""), "duration", positive=True)
    mode = _parse_mode(_require(table, "mode", ""), "mode.")
    repetitions = _integer(_require(table, "repetitions", ""), "repetitions")
    seed = _integer(_require(table, "seed", ""), "seed")
    output_dir = table.get("output_dir", "out")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir: expected a non-empty string")

    cfg = RunConfig(opo1=opo1, opo2=opo2, chain=chain, fs=fs, duration=duration,
                    mode=mode, repetitions=repetitions, seed=seed,
                    output_dir=output_dir)
    require_adc_sample(cfg)
    return cfg


def require_adc_sample(cfg: RunConfig) -> None:
    """The rule a config file and a Monte Carlo run add to RunConfig's:
    the mode spans at least one ADC sample. RunConfig does not hold it
    because sweep --var T has analytic values below one sample."""
    if int(round(cfg.mode.duration * cfg.chain.adc_rate)) < 1:
        raise ConfigError("mode.duration: spans no sample at the ADC rate")


def require_monte_carlo(cfg: RunConfig, min_samples: int = 0) -> None:
    """The rules a Monte Carlo run (run, sweep --mc-check) adds, checked
    before any draw: require_adc_sample, mode weights that do not vanish
    at the ADC rate (mode.discretize), at least 2 mode windows and
    min_samples samples at the ADC rate, and synth.check_alias at fs for
    every beam PSD of either setting (spectra.beam_spectra)."""
    require_adc_sample(cfg)
    try:
        cfg.mode.discretize(cfg.chain.adc_rate)
    except ValueError as exc:  # the shape's field: a decay too fast, or samples missed
        field = "samples" if cfg.mode.kind == "tabulated" else "rate"
        raise ConfigError(f"mode.{field}: discretizes to zero weights at the ADC rate") from exc
    _, samples, _, windows = layout(cfg.duration, cfg.fs, cfg.chain, cfg.mode)
    if windows < 2:
        raise ConfigError(
            f"mode.duration: the record holds {windows} mode window(s) at the ADC "
            "rate; a Monte Carlo run needs at least 2")
    if samples < min_samples:
        raise ConfigError(
            f"duration: the record holds {samples} samples at the ADC rate; "
            f"at least {min_samples} are needed")
    for setting in ("X", "P"):
        for psd in beam_spectra(cfg.opo1, cfg.opo2, setting):
            try:
                check_alias(psd, cfg.fs)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc


def load_config(path) -> RunConfig:
    """Read and validate a JSON run configuration file."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"{p}: cannot read config: {exc}") from exc
    try:
        table = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{p}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(table, dict):
        raise ConfigError(f"{p}: top level must be a JSON object")
    try:
        return parse_config(table)
    except ConfigError as exc:
        raise ConfigError(f"{p}: {exc}") from exc
