"""Self-test of the benchmark harness.

    python3 -m pytest -q perfbench

Every workload runs at a tiny size and passes its checks, a corrupted
output is counted as a failure, every metric name is well formed, and a
directory without the program makes the harness fail without a result.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, Env, RecordRoundTrip  # noqa: E402

ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

TINY = {
    "pipeline": {"reps": 4},
    "oracle": {"family": "square"},
    "mc_check": {"block": 1 << 16, "min_values": 2000},
}


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    return Env(ROOT, tmp_path_factory.mktemp("work"))


def _tiny(env, name, seed=11):
    workload = WORKLOADS[name](env, seed, **TINY[name])
    workload.prepare()
    return workload


def test_metric_names_and_units_are_well_formed():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} in SPEC["end_to_end"]


def test_declared_workloads_match_the_harness():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == \
        {name: cls.why for name, cls in WORKLOADS.items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_workload_passes_its_checks_at_a_tiny_size(env, name):
    workload = _tiny(env, name)
    checks = workload.check(workload.iterate(0))
    assert checks and all(ok for _, ok in checks), [c for c, ok in checks if not ok]


def test_a_pipeline_reading_off_target_is_counted_as_failed(env):
    workload = _tiny(env, "pipeline")

    def off_target(i):
        rc, out = workload.iterate(i)
        report = out / "report.csv"
        lines = report.read_text().splitlines()
        lines = [",".join(["summary", "-2.5"] + ln.split(",")[2:])
                 if ln.startswith("summary,") else ln for ln in lines]
        report.write_text("\n".join(lines) + "\n")
        return rc, out

    rec = run.measure(workload, budget=0.0, iterate=off_target)
    failed = [c for c, ok in rec.checks if not ok]
    assert failed == ["diff-x within 0.3 dB of -3.30"]
    assert 0.0 < len(failed) / len(rec.checks) < 1.0


def test_record_round_trip_passes_its_checks_and_catches_a_corrupted_record(env):
    records = RecordRoundTrip(env, 11)
    records.prepare()
    out = records.round_trip()
    checks = records.check(out)
    assert checks and all(ok for _, ok in checks), [c for c, ok in checks if not ok]
    from_bin, _ = out[0]
    from_bin.samples[7] = -from_bin.samples[7]
    failed = [c for c, ok in records.check(out) if not ok]
    assert failed == ["series0: binary round trip bit exact"]


def test_a_raising_iteration_is_a_failed_operation(env):
    workload = WORKLOADS["pipeline"](env, 11)

    def broken(i):
        raise OSError("disk full")

    rec = run.measure(workload, budget=10.0, iterate=broken)
    assert rec.checks == [("iteration 0 raised OSError", False)]


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_declared_metric(trace, section):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "pipeline",
                           "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = _result(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert f"{name} = " in proc.stdout and proc.stdout.count(f" {unit}\n")
    if trace:
        assert result["metrics"]["recordio.bytes"]["value"] > 0
        assert result["metrics"]["analysis.mode_values"]["value"] > 0
        assert result["metrics"]["trace.work_layers_frac"]["value"] > 0.9


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pipeline",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
