"""JSON run-configuration parsing, validation diagnostics, fingerprints."""

import json
from dataclasses import fields, replace
from pathlib import Path

import pytest

from eprsim import (ConfigError, RunConfig, TemporalMode, config_fingerprint,
                    load_config, parse_config)
from eprsim.config import require_monte_carlo

REPO_ROOT = Path(__file__).resolve().parents[1]


def _base_table():
    return {
        "opo1": {"pump_param": 0.29, "hwhm": 7e6, "efficiency": 0.9,
                 "squeeze_phase": "P"},
        "opo2": {"pump_param": 0.26, "hwhm": 7e6, "efficiency": 0.9,
                 "squeeze_phase": "X"},
        "chain": {"detector_bandwidth": 8.4e6, "highpass_cutoff": 5e3,
                  "electronic_noise_db": -20.0, "adc_rate": 50e6,
                  "adc_bits": None},
        "fs": 50e6,
        "duration": 2e-3,
        "mode": {"kind": "square", "duration": 2e-7},
        "repetitions": 2,
        "seed": 7,
        "output_dir": "out",
    }


def test_reference_config_file_parses():
    cfg = load_config(REPO_ROOT / "paper.cfg")
    assert cfg.opo1.squeeze_phase == "P"
    assert cfg.opo2.squeeze_phase == "X"
    assert cfg.fs == 50e6
    assert cfg.duration == 2e-3
    assert cfg.mode.kind == "square"
    assert cfg.mode.duration == 2e-7
    assert cfg.repetitions == 10
    assert cfg.chain.detector_bandwidth == 8.4e6
    assert cfg.chain.adc_bits is None
    assert len(cfg.fingerprint) == 64


def test_chain_and_output_dir_are_optional():
    table = _base_table()
    del table["chain"]
    del table["output_dir"]
    cfg = parse_config(table)
    assert cfg.chain.detector_bandwidth == 8.4e6
    assert cfg.chain.electronic_noise_db == -20.0
    assert cfg.output_dir == "out"


def test_fingerprint_is_stable_and_ignores_output_dir():
    cfg1 = parse_config(_base_table())
    cfg2 = parse_config(_base_table())
    assert cfg1.fingerprint == cfg2.fingerprint

    moved = _base_table()
    moved["output_dir"] = "elsewhere"
    assert parse_config(moved).fingerprint == cfg1.fingerprint

    reseeded = _base_table()
    reseeded["seed"] = 8
    assert parse_config(reseeded).fingerprint != cfg1.fingerprint
    assert config_fingerprint(cfg1) == cfg1.fingerprint


@pytest.mark.parametrize("mutate, message", [
    (lambda t: t.update(extra=1), "extra: unknown field"),
    (lambda t: t.pop("fs"), "fs: required field missing"),
    (lambda t: t.pop("opo1"), "opo1: required field missing"),
    (lambda t: t["opo1"].pop("hwhm"), "opo1.hwhm: required field missing"),
    (lambda t: t["opo1"].update(hwhm="wide"), "opo1.hwhm: expected a number"),
    (lambda t: t["opo1"].update(color="red"), "opo1.color: unknown field"),
    (lambda t: t.update(repetitions=2.5), "repetitions: expected an integer"),
    (lambda t: t.update(repetitions=True), "repetitions: expected an integer"),
    (lambda t: t.update(repetitions=0), "repetitions: must be at least 1"),
    (lambda t: t.update(seed=-1), "seed: must be non-negative"),
    (lambda t: t.update(fs=0.0), "fs: must be positive"),
    (lambda t: t.update(duration=-1.0), "duration: must be positive"),
    (lambda t: t.update(output_dir=""), "output_dir: expected a non-empty"),
    (lambda t: t["chain"].update(adc_rate=100e6), "adc_rate: must not exceed fs"),
    (lambda t: t["chain"].update(gain=3.0), "chain.gain: unknown field"),
    (lambda t: t["mode"].update(kind="gauss"), "unknown mode kind 'gauss'"),
    (lambda t: t["mode"].pop("kind"), "mode.kind: required field missing"),
    (lambda t: t["mode"].update(duration=1.0), "must not exceed the record"),
    (lambda t: t["mode"].update(kind=["square"]), "mode.kind: unknown mode kind"),
    (lambda t: t["mode"].update(rate=1), "mode.rate: unknown field"),
    (lambda t: t.update(duration=float("nan")), "duration: expected a finite number"),
    (lambda t: t.update(fs=float("inf")), "fs: expected a finite number, got inf"),
    (lambda t: t.update(fs=10 ** 400), "fs: expected a finite number, got 10000"),
    (lambda t: t["chain"].update(electronic_noise_db=float("nan")),
     "chain.electronic_noise_db: expected a finite number"),
    (lambda t: t["chain"].update(electronic_noise_db=2000.0),
     r"^chain\.electronic_noise_db: must be at most 100 dB"),
    (lambda t: t["chain"].update(electronic_noise_db=4000.0),
     r"^chain\.electronic_noise_db: must be at most 100 dB"),
    (lambda t: t["chain"].update(adc_rate=1e-310), r"^chain\.adc_rate: fs/adc_rate is not finite"),
    (lambda t: t["opo1"].update(pump_param=1.5), r"^opo1\.pump_param: must lie in \[0, 1\)"),
    (lambda t: t["opo2"].update(squeeze_phase=None), r"^opo2\.squeeze_phase: must be 'X'"),
    (lambda t: t["chain"].update(highpass_cutoff=0.0), r"^chain\.highpass_cutoff: must be"),
    (lambda t: t["chain"].update(detector_bandwidth=1e3),
     r"^chain\.detector_bandwidth: must exceed highpass_cutoff"),
    (lambda t: t["chain"].update(adc_bits=2000), r"^chain\.adc_bits: must lie in \[4, 32\]"),
    (lambda t: t["chain"].update(adc_bits=3),
     r"^chain\.adc_bits: must lie in \[4, 32\] when given, got 3$"),
    (lambda t: t["chain"].update(adc_rate=30e6),
     r"^chain\.adc_rate: the record rate 5e\+07 Hz is not an integer multiple"),
    (lambda t: t["chain"].update(highpass_cutoff=30e6, detector_bandwidth=40e6),
     r"^chain\.highpass_cutoff: 3e\+07 Hz is not below the Nyquist frequency"),
    (lambda t: t["mode"].update(duration=-1e-7), r"^mode\.duration: must be positive"),
    (lambda t: t.update(mode={"kind": "double_exp", "rate": 1e6, "support": 0}),
     r"^mode\.support: must be positive"),
    (lambda t: t["opo1"].update(hwhm=1e103), r"^opo1\.hwhm: must lie in \[1, 1e\+15\] Hz"),
    (lambda t: t["opo2"].update(hwhm=2e15), r"^opo2\.hwhm: must lie in \[1, 1e\+15\] Hz"),
    (lambda t: t["opo1"].update(hwhm=1e-300), r"^opo1\.hwhm: must lie in \[1, 1e\+15\] Hz"),
    (lambda t: t.update(repetitions=10 ** 400), r"^repetitions: must be at most 10000$"),
    (lambda t: t.update(repetitions=10_001), r"^repetitions: must be at most 10000$"),
    (lambda t: t.update(duration=1.0), r"^duration: duration\*fs must cover 2 to 16777216"),
    (lambda t: t.update(duration=1e-8), r"^duration: duration\*fs must cover 2 to 16777216"),
    (lambda t: t.update(mode={"kind": "tabulated", "samples": [1.0] * 65_537,
                              "duration": 2e-7}),
     r"^mode\.samples: at most 65536 samples, got 65537$"),
])
def test_validation_messages_name_the_field(mutate, message):
    table = _base_table()
    mutate(table)
    with pytest.raises(ConfigError, match=message):
        parse_config(table)


# fingerprints of paper.cfg and of it with the other mode kinds; every output
# file carries the fingerprint, so the canonical form must not change
PINNED_FINGERPRINTS = [
    (None, "ab2828bdce79b8efe5e4e0ac2493bba8bbf2169c3caa7696b5bcc05b78a7981e"),
    ({"kind": "one_sided_exp", "rate": 2e6, "support": 4e-7},
     "6a18d9ce67e09c2b1388dff185c6b8761e3d79948835d65271ca37808f66c5ae"),
    ({"kind": "double_exp", "rate": 2e6, "support": 4e-7},
     "39c8e56d49b0ee5291c517b54e13491ce50d794bd7fd0cbda7e95490c255cfa6"),
    ({"kind": "tabulated", "samples": [0, 1, 1, 0], "duration": 4e-7},
     "7177494c354c4ab6a1bcfc82ab9b2125ab7df9abf48f0ed08b857b71d6527a7d"),
]


@pytest.mark.parametrize("mode, fingerprint", PINNED_FINGERPRINTS,
                         ids=("paper", "one_sided_exp", "double_exp", "tabulated"))
def test_fingerprints_are_pinned(mode, fingerprint):
    table = json.loads((REPO_ROOT / "paper.cfg").read_text())
    if mode is not None:
        table["mode"] = mode
    assert parse_config(table).fingerprint == fingerprint


_PAPER_CFG = load_config(REPO_ROOT / "paper.cfg")


@pytest.mark.parametrize("change, field", [
    (lambda c: {"opo2": replace(c.opo2, squeeze_phase="P")}, "opo2.squeeze_phase"),
    (lambda c: {"repetitions": 0}, "repetitions"),
    (lambda c: {"repetitions": 10_001}, "repetitions"),
    (lambda c: {"duration": 1e-8}, "duration"),
    (lambda c: {"duration": 1.0}, "duration"),
    (lambda c: {"seed": -1}, "seed"),
    (lambda c: {"fs": 25e6}, "chain.adc_rate"),
    (lambda c: {"chain": replace(c.chain, adc_rate=30e6)}, "chain.adc_rate"),
    (lambda c: {"chain": replace(c.chain, highpass_cutoff=30e6,
                                 detector_bandwidth=40e6)}, "chain.highpass_cutoff"),
    (lambda c: {"mode": TemporalMode.square(1e-2)}, "mode.duration"),
], ids=("same_squeeze_phase", "no_repetition", "too_many_repetitions", "too_short",
        "too_long", "negative_seed", "fs_below_adc_rate", "adc_rate_not_a_divisor",
        "highpass_above_nyquist", "mode_longer_than_record"))
def test_replace_checks_the_rules_between_fields(change, field):
    with pytest.raises(ConfigError, match=rf"^{field}: "):
        replace(_PAPER_CFG, **change(_PAPER_CFG))


def test_replace_derives_a_new_fingerprint():
    assert "fingerprint" not in {f.name for f in fields(RunConfig)}
    for change in ({"seed": 8}, {"repetitions": 3},
                   {"mode": TemporalMode.square(1e-6)}):
        cfg = replace(_PAPER_CFG, **change)
        assert cfg.fingerprint == config_fingerprint(cfg) != _PAPER_CFG.fingerprint


def test_size_bounds_are_inclusive():
    table = _base_table()
    table["opo1"]["hwhm"] = 1e15
    table["repetitions"] = 10_000
    table["duration"] = (1 << 24) / 50e6
    table["mode"]["duration"] = 2e-7
    cfg = parse_config(table)
    assert (cfg.opo1.hwhm, cfg.repetitions) == (1e15, 10_000)


def test_matching_squeeze_phases_rejected():
    table = _base_table()
    table["opo2"]["squeeze_phase"] = "P"
    with pytest.raises(ConfigError, match="orthogonal quadratures"):
        parse_config(table)


def test_opo_value_errors_become_config_errors():
    table = _base_table()
    table["opo1"]["pump_param"] = 1.5
    with pytest.raises(ConfigError, match="opo1"):
        parse_config(table)


def test_mode_must_span_an_adc_sample():
    table = _base_table()
    table["mode"]["duration"] = 1e-9
    with pytest.raises(ConfigError, match="spans no sample"):
        parse_config(table)


def test_monte_carlo_rule_counts_the_samples_digitize_keeps():
    # at fs 100 MS/s the 50 MS/s ADC keeps every other sample from the
    # first: 39 samples keep 20, two 0.2 us windows; 37 keep 19, one
    cfg = replace(parse_config(_base_table()), fs=100e6, duration=39 / 100e6)
    require_monte_carlo(cfg)
    with pytest.raises(ConfigError, match=r"^mode\.duration: the record holds 1 mode window"):
        require_monte_carlo(replace(cfg, duration=37 / 100e6))


def test_exponential_and_tabulated_modes_parse():
    table = _base_table()
    table["mode"] = {"kind": "double_exp", "rate": 2e6, "support": 4e-7}
    cfg = parse_config(table)
    assert cfg.mode.kind == "double_exp"
    assert cfg.mode.rate == 2e6

    table["mode"] = {"kind": "tabulated", "samples": [0.0, 1.0, 1.0, 0.0],
                     "duration": 4e-7}
    cfg = parse_config(table)
    assert cfg.mode.kind == "tabulated"
    assert len(cfg.mode.samples) == 4

    table["mode"] = {"kind": "tabulated", "samples": [], "duration": 4e-7}
    with pytest.raises(ConfigError, match="non-empty array"):
        parse_config(table)


def test_null_noise_and_bits_disable_stages():
    table = _base_table()
    table["chain"]["electronic_noise_db"] = None
    table["chain"]["adc_bits"] = None
    cfg = parse_config(table)
    assert cfg.chain.electronic_noise_db is None
    assert cfg.chain.adc_bits is None


def test_load_config_diagnostics(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "opo1": {,}\n}\n')
    with pytest.raises(ConfigError, match=r"line 2, column 12"):
        load_config(bad)

    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2, 3]\n")
    with pytest.raises(ConfigError, match="top level must be a JSON object"):
        load_config(arr)

    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "missing.json")

    good = tmp_path / "good.json"
    good.write_text(json.dumps(_base_table()))
    cfg = load_config(good)
    assert cfg.seed == 7
