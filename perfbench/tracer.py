"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's own files: ``Tracer.install`` wraps
the public functions of each eprsim layer where their callers bind them
(``eprsim.cli.epr_record``, ``eprsim.modeopt.filtered_variance``,
``TemporalMode.power_spectrum``, ...) and ``Tracer.uninstall`` restores the
originals.  Each span keeps its name, layer, start, end, parent span and
thread id, plus the counts its wrapper measured at that boundary.  Nothing
is written until ``Tracer.dump`` at the end of the run.

A span opened on a thread with no open span (the ``run`` verb's worker
threads) takes the current root span as its parent, so a verb's self time
is its duration minus the union of everything that ran under it on any
thread.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

Counter = Callable[[tuple, dict, object], Dict[str, float]]


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    parent: Optional[int]
    tid: int
    start: float
    end: float
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


# -- counters measured at the layer boundaries ----------------------------------

def _count_points(args, kwargs, result):
    return {"modes.power_spectrum.points": float(np.size(args[1]))}


def _count_epr_record(args, kwargs, result):
    # both input beams are synthesized as one block each and trimmed
    return {"synth.useful_samples": float(2 * result.a.n)}


def _count_synthesize(args, kwargs, result):
    return {"synth.useful_samples": float(result.n)}


def _count_vacuum(args, kwargs, result):
    return {"synth.samples_drawn": float(result.a.n + result.b.n)}


def _count_detect(args, kwargs, result):
    rec = args[0]
    return {"detection.detect.samples": float(rec.a.n + rec.b.n)}


def _count_modes(args, kwargs, result):
    return {"analysis.mode_values": float(result.count)}


def _count_optimize(args, kwargs, result):
    return {"modeopt.evaluations": float(len(result.trace))}


def _count_file(args, kwargs, result):
    return {"recordio.bytes": float(os.path.getsize(args[0]))}


# (module attribute path, span name, counter).  A module path names the
# namespace the caller looks the function up in, so one function can be
# wrapped in several namespaces under the same span name.
_TARGETS: Tuple[Tuple[str, str, str, Optional[Counter]], ...] = (
    # spectra
    ("eprsim.cli", "filtered_variance", "spectra.filtered_variance", None),
    ("eprsim.modeopt", "filtered_variance", "spectra.filtered_variance", None),
    ("eprsim.spectra", "filtered_variance", "spectra.filtered_variance", None),
    ("eprsim.spectra", "calibrate_pump_param", "spectra.calibrate_pump_param", None),
    ("eprsim.cli", "epr_spectra", "spectra.epr_spectra", None),
    ("eprsim.synth", "epr_spectra", "spectra.epr_spectra", None),
    ("eprsim.spectra", "epr_spectra", "spectra.epr_spectra", None),
    # modes
    ("eprsim.modes.TemporalMode", "power_spectrum", "modes.power_spectrum", _count_points),
    ("eprsim.modes.TemporalMode", "discretize", "modes.discretize", None),
    # synth
    ("eprsim.cli", "epr_record", "synth.epr_record", _count_epr_record),
    ("eprsim.synth", "epr_record", "synth.epr_record", _count_epr_record),
    ("eprsim.cli", "vacuum_record", "synth.vacuum_record", _count_vacuum),
    ("eprsim.synth", "vacuum_record", "synth.vacuum_record", _count_vacuum),
    ("eprsim.synth", "synthesize_colored", "synth.synthesize_colored", _count_synthesize),
    # detection
    ("eprsim.cli", "detect", "detection.detect", _count_detect),
    ("eprsim.detection", "detect", "detection.detect", _count_detect),
    ("eprsim.cli", "expected_mode_variance", "detection.expected_mode_variance", None),
    ("eprsim.detection", "expected_mode_variance",
     "detection.expected_mode_variance", None),
    # analysis
    ("eprsim.cli", "extract_modes", "analysis.extract_modes", _count_modes),
    ("eprsim.analysis", "extract_modes", "analysis.extract_modes", _count_modes),
    ("eprsim.cli", "epr_report", "analysis.epr_report", None),
    ("eprsim.cli", "welch_psd", "analysis.welch_psd", None),
    ("eprsim.cli", "correlation_diagram", "analysis.correlation_diagram", None),
    ("eprsim.cli", "combo_series", "analysis.combo_series", None),
    ("eprsim.cli", "trace_excerpt", "analysis.trace_excerpt", None),
    # modeopt
    ("eprsim.cli", "optimize", "modeopt.optimize", _count_optimize),
    ("eprsim.cli", "mode_duan", "modeopt.mode_duan", None),
    ("eprsim.modeopt", "mode_duan", "modeopt.mode_duan", None),
    # recordio
    ("eprsim.recordio", "save_series_bin", "recordio.save_bin", _count_file),
    ("eprsim.recordio", "load_series_bin", "recordio.load_bin", _count_file),
    ("eprsim.recordio", "save_series_csv", "recordio.save_csv", _count_file),
    ("eprsim.recordio", "load_series_csv", "recordio.load_csv", _count_file),
    # config
    ("eprsim.cli", "load_config", "config.load_config", None),
)


VERBS = ("run", "spectra", "optimize", "sweep")
# spans from the wrapped functions, plus the root spans run.py opens around
# each traced repetition, the record round trip and each CLI call
SPAN_NAMES = tuple(sorted({name for _, _, name, _ in _TARGETS}
                          | {"bench.iteration", "bench.records"}
                          | {f"cli.{v}" for v in VERBS}))
LAYERS = ("spectra", "modes", "synth", "detection", "analysis", "modeopt",
          "recordio", "config", "cli", "bench")
COUNTER_KEYS = ("modes.power_spectrum.points", "synth.useful_samples",
                "synth.samples_drawn", "synth.block_samples", "synth.fft_points",
                "detection.detect.samples", "analysis.mode_values",
                "modeopt.evaluations", "recordio.bytes")


def _resolve(path: str):
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(path)


class Tracer:
    """Records spans at eprsim's layer boundaries while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.events: List[Tuple[str, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: Optional[int] = None
        self._saved: List[Tuple[object, str, object]] = []

    # -- span recording ------------------------------------------------------

    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_layer(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1][1] if stack else None

    def _record(self, name: str, fn, args, kwargs, counter: Optional[Counter],
                root: bool = False):
        stack = self._stack()
        parent = stack[-1][0] if stack else self._root
        sid = next(self._ids)
        layer = name.split(".", 1)[0]
        stack.append((sid, layer))
        prev_root = self._root
        if root:
            self._root = sid
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            if root:
                self._root = prev_root
            counts = counter(args, kwargs, result) if (counter and result is not None) else {}
            self.spans.append(Span(sid, name, layer, parent, threading.get_ident(),
                                   start, end, counts))

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn under a root span: worker threads started inside it
        attach their spans to it."""
        return self._record(name, fn, args, kwargs, None, root=True)

    def _wrap(self, name: str, fn, counter: Optional[Counter]):
        tracer = self

        def traced(*args, **kwargs):
            return tracer._record(name, fn, args, kwargs, counter)

        traced.__wrapped__ = fn
        return traced

    def _wrap_fft(self, fn, inverse: bool):
        tracer = self

        def traced(a, n=None, *args, **kwargs):
            out = fn(a, n, *args, **kwargs)
            if tracer.current_layer() == "synth":
                if inverse:
                    tracer.events.append(("synth.fft_points", float(out.size)))
                else:
                    size = float(np.size(a))
                    tracer.events.append(("synth.fft_points", size))
                    tracer.events.append(("synth.samples_drawn", size))
                    tracer.events.append(("synth.block_samples", size))
            return out

        traced.__wrapped__ = fn
        return traced

    # -- install / uninstall -------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for path, attr, name, counter in _TARGETS:
            owner = _resolve(path)
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr), counter))
        for attr, inverse in (("rfft", False), ("irfft", True)):
            self._patch(np.fft, attr, self._wrap_fft(getattr(np.fft, attr), inverse))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the union of its direct children."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        out = {}
        for s in self.spans:
            kids = [(max(lo, s.start), min(hi, s.end))
                    for lo, hi in children.get(s.sid, ())]
            out[s.sid] = s.duration - _union_length([k for k in kids if k[1] > k[0]])
        return out

    def covered(self, layers, start: float, end: float) -> float:
        """Seconds of [start, end] during which any span of the layers ran."""
        ivs = [(max(s.start, start), min(s.end, end)) for s in self.spans
               if s.layer in layers]
        return _union_length([iv for iv in ivs if iv[1] > iv[0]])

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": [s.__dict__ for s in self.spans],
                       "events": self.events}, fh)


def span_cost_s(calls: int = 2000, batches: int = 7) -> float:
    """Seconds the tracing wrapper adds to one call: the median over batches
    of the traced minus the bare time of calls to a no-op, per call."""
    def noop():
        return None

    costs = []
    for _ in range(batches):
        traced = Tracer()._wrap("bench.noop", noop, None)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)
