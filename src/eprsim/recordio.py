"""Raw record import/export: CSV rows and a little-endian binary layout.

Binary layout: magic "EPRT", version u32, sample rate f64, count u64,
then count little-endian f64 samples. Round-trips are bit exact.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .synth import TimeSeries

__all__ = [
    "save_series_csv",
    "load_series_csv",
    "save_series_bin",
    "load_series_bin",
]

_MAGIC = b"EPRT"
_VERSION = 1
_HEADER = struct.Struct("<4sIdQ")


def save_series_csv(path, series: TimeSeries) -> None:
    """Write one row per sample: time_s,value (17 significant digits)."""
    p = Path(path)
    dt = 1.0 / series.sample_rate
    with p.open("w", newline="") as fh:
        fh.write(f"# sample_rate_hz={series.sample_rate!r}\n")
        fh.write(f"# label={series.label}\n")
        fh.write("time_s,value\n")
        np.savetxt(fh, np.column_stack([np.arange(series.n) * dt, series.samples]),
                   fmt="%.17g", delimiter=",")


def load_series_csv(path) -> TimeSeries:
    p = Path(path)
    rate = None
    label = "vacuum"
    values = []
    with p.open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, val = line[1:].strip().partition("=")
                if key == "sample_rate_hz":
                    rate = float(val)
                elif key == "label":
                    label = val
                continue
            if line.startswith("time_s"):
                continue
            _, _, second = line.partition(",")
            values.append(float(second))
    if rate is None:
        raise ValueError(f"{p}: missing sample_rate_hz header")
    return TimeSeries(sample_rate=rate, samples=np.array(values), label=label)


def save_series_bin(path, series: TimeSeries) -> None:
    p = Path(path)
    with p.open("wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, series.sample_rate, series.n))
        fh.write(np.ascontiguousarray(series.samples, dtype="<f8").tobytes())


def load_series_bin(path, label: str = "vacuum") -> TimeSeries:
    p = Path(path)
    raw = p.read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{p}: truncated header")
    magic, version, rate, n = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise ValueError(f"{p}: bad magic {magic!r}")
    if version != _VERSION:
        raise ValueError(f"{p}: unsupported version {version}")
    expected = _HEADER.size + 8 * n
    if len(raw) != expected:
        raise ValueError(f"{p}: expected {expected} bytes, found {len(raw)}")
    samples = np.frombuffer(raw, dtype="<f8", count=n, offset=_HEADER.size).copy()
    return TimeSeries(sample_rate=rate, samples=samples, label=label)
