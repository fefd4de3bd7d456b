"""eprsim benchmark: one workload, its checks and its metrics.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; eprsim is imported
from the checkout's src/.  The run

1. times set-up (import eprsim.cli, load paper.cfg) in fresh interpreters
   and reports the median as setup_s;
2. builds the workload's inputs from --seed;
3. repeats the workload's unit of work for about --seconds seconds,
   checking the outputs of every repetition;
4. prints every metric by name with its unit and, as its last line, one
   JSON object: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json.
With --trace 1, after one warm-up repetition, repetitions alternate
between traced and untraced; the metrics are the per-layer metrics of
BENCHMARK.json, including each layer's self time, the tracing overhead
(spans per repetition times the wrapper's cost per span), the rows of the
ROADMAP baseline table (table.*) and the recordio layer, timed on one
traced round trip of the records of one paper.cfg repetition.
Spans are written to .perfbench_work/<workload>/spans.json at the end.

Exit code 0 when the run completed (correct says whether every check
passed), 2 when the checkout lacks the program or its inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from tracer import COUNTER_KEYS, LAYERS, SPAN_NAMES, VERBS, Tracer, span_cost_s
from workloads import (HANN_MODE, WORKLOADS, Checks, Env, RecordRoundTrip, SetupError,
                       Workload)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBES = 5               # fresh-interpreter set-up timings per run
PROBE_TIMEOUT_S = 30


@dataclass
class Measured:
    times: List[float] = field(default_factory=list)
    checks: Checks = field(default_factory=list)


def _run_checks(workload: Workload, out) -> Checks:
    try:
        return workload.check(out)
    except Exception as exc:  # a malformed output is a failed check
        traceback.print_exc(file=sys.stderr)
        return [(f"check raised {type(exc).__name__}", False)]


def measure(workload: Workload, budget: float, iterate: Optional[Callable] = None,
            min_repeats: int = 1) -> Measured:
    """Repeat the workload's unit of work, checking each repetition's
    outputs, while the next repetition is predicted to end no later than
    half a repetition past the budget (at least min_repeats times)."""
    iterate = iterate or workload.iterate
    rec = Measured()
    begin = time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        try:
            out = iterate(i)
        except Exception as exc:  # count the failed operation and stop
            traceback.print_exc(file=sys.stderr)
            rec.checks.append((f"iteration {i} raised {type(exc).__name__}", False))
            return rec
        rec.times.append(time.perf_counter() - t0)
        rec.checks += _run_checks(workload, out)
        i += 1
        typical = statistics.median(rec.times)
        if i >= min_repeats and time.perf_counter() - begin + typical > budget + typical / 2:
            return rec


def probe_setup(root: Path, n: int) -> Tuple[List[Dict[str, float]], Checks]:
    """Set-up timings from n fresh interpreters, one after another."""
    results, checks = [], []
    src = (root / "src").resolve()
    for _ in range(n):
        try:
            proc = subprocess.run([sys.executable, str(HERE / "probe.py"), str(root)],
                                  capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            checks.append(("set-up probe", False))
            continue
        ok = proc.returncode == 0
        if ok:
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = Path(res["module"]).resolve().is_relative_to(src)
        if ok:
            results.append(res)
        else:
            sys.stderr.write(proc.stderr)
        checks.append(("set-up probe", ok))
    return results, checks


def _median(values, default: float = 0.0) -> float:
    return statistics.median(values) if values else default


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(probes, rec: Measured) -> Dict[str, float]:
    return {
        "setup_s": _median([p["import_s"] + p["load_config_s"] for p in probes]),
        "wall_s": _median(rec.times),
        "peak_rss_mb": peak_rss_mb(),
    }


def _timed_median(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def baseline_table(env: Env) -> Dict[str, float]:
    """The single-call rows of the ROADMAP baseline table, untraced."""
    m = env.m
    cfg = m.config.load_config(env.paper_cfg)
    psd = m.spectra.epr_spectra(cfg.opo1, cfg.opo2).diff_x
    TM = m.modes.TemporalMode
    modes = {
        "square_0.2us": (TM.square(0.2e-6), 7),
        "square_10us": (TM.square(10e-6), 5),
        "double_exp": (TM.double_exp(1e7, 1e-6), 7),
        "tabulated_100": (TM.tabulated(HANN_MODE["samples"], HANN_MODE["duration"]), 3),
    }
    rows = {}
    for tag, (mode, repeats) in modes.items():
        rows[f"table.filtered_variance.{tag}.ms"] = 1e3 * _timed_median(
            lambda: m.spectra.filtered_variance(psd, mode), repeats)
    rows["table.expected_mode_variance.block_2e17.ms"] = 1e3 * _timed_median(
        lambda: m.detection.expected_mode_variance(psd, cfg.chain, cfg.fs, cfg.mode,
                                                   block=1 << 17), 7)
    return rows


def layer_totals(tracer: Tracer) -> Dict[str, float]:
    """Calls, inclusive and self milliseconds per span name, self
    milliseconds per layer and the counters, summed over all spans."""
    total = dict.fromkeys(COUNTER_KEYS, 0.0)
    for name in SPAN_NAMES:
        total.update({f"{name}.calls": 0.0, f"{name}.ms": 0.0, f"{name}.self_ms": 0.0})
    total.update({f"{layer}.self_ms": 0.0 for layer in LAYERS})
    selfs = tracer.self_times()
    for s in tracer.spans:
        total[f"{s.name}.calls"] += 1.0
        total[f"{s.name}.ms"] += 1e3 * s.duration
        total[f"{s.name}.self_ms"] += 1e3 * selfs[s.sid]
        total[f"{s.layer}.self_ms"] += 1e3 * selfs[s.sid]
        for key, v in s.counts.items():
            total[key] += v
    for key, v in tracer.events:
        total[key] += v
    return total


def per_layer(workload: Workload, tracer: Tracer, probes, untraced: Measured,
              traced: Measured) -> Dict[str, float]:
    """Per-repetition layer metrics from the spans of the traced repetitions."""
    total = layer_totals(tracer)
    n = max(len(traced.times), 1)
    out = {k: v / n for k, v in total.items()}

    blocks = total["synth.block_samples"]
    out["synth.useful_sample_ratio"] = total["synth.useful_samples"] / blocks if blocks else 0.0
    for verb in VERBS:
        out[f"cli.verb_ms.{verb}"] = out[f"cli.{verb}.ms"]
    out["cli.import_s"] = _median([p["import_s"] for p in probes])
    out["config.load_config.ms"] = 1e3 * _median([p["load_config_s"] for p in probes])
    out["cli.peak_rss_mb"] = peak_rss_mb()

    iters = [s for s in tracer.spans if s.name == "bench.iteration"]
    wall = sum(s.duration for s in iters)
    covered = sum(tracer.covered(workload.work_layers, s.start, s.end) for s in iters)
    out["trace.work_layers_frac"] = covered / wall if wall else 0.0
    out["trace.spans"] = len(tracer.spans) / n
    out["trace.wall_ms"] = 1e3 * _median(traced.times)
    out["trace.untraced_wall_ms"] = 1e3 * _median(untraced.times)
    # the traced-minus-untraced wall time rests on a few pairs of
    # repetitions and mostly shows host drift, so the overhead is estimated
    # from the wrapper's own cost per span instead
    cost = span_cost_s()
    out["trace.span_cost_us"] = 1e6 * cost
    out["trace.overhead_ms"] = 1e3 * cost * out["trace.spans"]
    return out


def recordio_round_trip(env: Env, seed: int) -> Tuple[Dict[str, float], Checks]:
    """recordio metrics of one traced record round trip."""
    records = RecordRoundTrip(env, seed)
    records.prepare()
    tracer = Tracer()
    tracer.install()
    try:
        out = tracer.span("bench.records", records.round_trip)
    finally:
        tracer.uninstall()
    total = layer_totals(tracer)
    return {k: v for k, v in total.items() if k.startswith("recordio.")}, records.check(out)


def machine_facts() -> Dict[str, str]:
    import numpy
    import scipy
    return {"nproc": str(os.cpu_count()), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be non-negative and --seconds positive")
    return args


@dataclass
class Result:
    workload: Workload
    metrics: Dict[str, Tuple[float, str]]
    checks: Checks
    notes: List[str]


def run(args) -> Result:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".perfbench_work"
    shutil.rmtree(work / args.workload, ignore_errors=True)
    env = Env(ROOT, work)
    probes, checks = probe_setup(ROOT, PROBES)
    workload = WORKLOADS[args.workload](env, args.seed)
    workload.prepare()

    if args.trace:
        tracer = Tracer()

        def alternate(i):
            # after one warm-up repetition, odd repetitions are traced and
            # even ones not, so traced and untraced wall times see the same
            # drift of the machine's load
            if i % 2 == 0:
                return workload.iterate(i)
            tracer.install()
            env.tracer = tracer
            try:
                return tracer.span("bench.iteration", workload.iterate, i)
            finally:
                tracer.uninstall()
                env.tracer = None

        rec = measure(workload, args.seconds, iterate=alternate, min_repeats=3)
        untraced = Measured(rec.times[2::2])
        traced = Measured(rec.times[1::2])
        tracer.dump(work / args.workload / "spans.json")
        values = per_layer(workload, tracer, probes, untraced, traced)
        values.update(baseline_table(env))
        recordio, record_checks = recordio_round_trip(env, args.seed)
        values.update(recordio)
        checks += record_checks
        declared = spec["per_layer"]
    else:
        rec = measure(workload, args.seconds)
        values = end_to_end(probes, rec)
        declared = spec["end_to_end"]

    notes = [f"{k} = {statistics.median(v):.4g} (median of {len(v)})"
             for k, v in sorted(workload.info.items())]
    if args.trace:
        notes.append(f"trace.wall_ms from {len(traced.times)} traced and "
                     f"trace.untraced_wall_ms from {len(untraced.times)} untraced repetitions")
    notes.append("iteration_s = " + " ".join(f"{t:.4f}" for t in rec.times))
    notes.append("setup_probe_s = " + " ".join(
        f"{p['import_s'] + p['load_config_s']:.4f}" for p in probes))
    return Result(workload=workload,
                  metrics={m["name"]: (values[m["name"]], m["unit"]) for m in declared},
                  checks=checks + rec.checks, notes=notes)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        res = run(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    failed = [name for name, ok in res.checks if not ok]
    attempted = len(res.checks)
    facts = " ".join(f"{k}={v}" for k, v in machine_facts().items())
    print(f"# workload {args.workload}: {res.workload.why}")
    print(f"# seed={args.seed} seconds={args.seconds:g} trace={args.trace} {facts}")
    for name, (value, unit) in res.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {len(failed) / attempted:.6g} "
          f"({len(failed)} of {attempted} checks failed)")
    for note in res.notes:
        print(f"# info {note}")
    for name in failed:
        print(f"FAILED: {name}", file=sys.stderr)
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in res.metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
