"""Raw record import/export: CSV rows and a little-endian binary layout.

Binary layout: magic "EPRT", version u32, sample rate f64, count u64,
then count little-endian f64 samples. Round-trips are bit exact.
"""

from __future__ import annotations

import struct
import warnings
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
_CSV_CHUNK = 1 << 16  # rows formatted per %: bounds the value tuple


def save_series_csv(path, series: TimeSeries) -> None:
    """Write one row per sample: time_s,value (17 significant digits),
    with one % over a repeated row template per chunk of _CSV_CHUNK rows."""
    p = Path(path)
    dt = 1.0 / series.sample_rate
    with p.open("w", newline="") as fh:
        fh.write(f"# sample_rate_hz={series.sample_rate!r}\n")
        fh.write(f"# label={series.label}\n")
        fh.write("time_s,value\n")
        for start in range(0, series.n, _CSV_CHUNK):
            stop = min(start + _CSV_CHUNK, series.n)
            rows = np.column_stack([np.arange(start, stop) * dt, series.samples[start:stop]])
            fh.write("%.17g,%.17g\n" * (stop - start) % tuple(rows.ravel().tolist()))


def load_series_csv(path) -> TimeSeries:
    """Read a save_series_csv file: the leading "# key=value" lines give
    sample_rate_hz (required) and label, and np.loadtxt reads the value
    column of the rows after them."""
    p = Path(path)
    meta = {}
    with p.open() as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            key, _, val = line[1:].strip().partition("=")
            meta[key] = val
    if "sample_rate_hz" not in meta:
        raise ValueError(f"{p}: missing sample_rate_hz header")
    with warnings.catch_warnings():  # no rows: TimeSeries rejects the empty series
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        values = np.loadtxt(p, delimiter=",", comments=("#", "time_s"), usecols=1, ndmin=1)
    return TimeSeries(sample_rate=float(meta["sample_rate_hz"]), samples=values,
                      label=meta.get("label", "vacuum"))


def save_series_bin(path, series: TimeSeries) -> None:
    p = Path(path)
    with p.open("wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, series.sample_rate, series.n))
        np.ascontiguousarray(series.samples, dtype="<f8").tofile(fh)


def load_series_bin(path, label: str = "vacuum") -> TimeSeries:
    """Read a save_series_bin file; the samples go from the file straight
    into their array."""
    p = Path(path)
    with p.open("rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ValueError(f"{p}: truncated header")
        magic, version, rate, n = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise ValueError(f"{p}: bad magic {magic!r}")
        if version != _VERSION:
            raise ValueError(f"{p}: unsupported version {version}")
        expected = _HEADER.size + 8 * n
        size = p.stat().st_size
        if size != expected:
            raise ValueError(f"{p}: expected {expected} bytes, found {size}")
        samples = np.fromfile(fh, dtype="<f8", count=n)
    return TimeSeries(sample_rate=rate, samples=samples, label=label)
