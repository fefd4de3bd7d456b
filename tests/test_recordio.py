"""CSV and binary record round trips."""

import tracemalloc
import warnings

import numpy as np
import pytest

from eprsim import recordio
from eprsim import (load_series_bin, load_series_csv, save_series_bin,
                    save_series_csv, synthesize_colored, flat_psd)
from eprsim.synth import TimeSeries


@pytest.fixture
def series():
    white = synthesize_colored(flat_psd(), 256, 50e6, seed=5)
    return TimeSeries(white.sample_rate, white.samples, label="x_A")


def test_csv_round_trip(tmp_path, series):
    path = tmp_path / "rec.csv"
    save_series_csv(path, series)
    back = load_series_csv(path)
    # 17 significant digits reproduce float64 exactly
    assert np.array_equal(back.samples, series.samples)
    assert back.sample_rate == series.sample_rate
    assert back.label == series.label


def test_csv_header_content(tmp_path, series):
    path = tmp_path / "rec.csv"
    save_series_csv(path, series)
    lines = path.read_text().splitlines()
    assert lines[0] == "# sample_rate_hz=50000000.0"
    assert lines[1] == "# label=x_A"
    assert lines[2] == "time_s,value"
    assert len(lines) == 3 + series.n


@pytest.mark.parametrize("fs", [25e6, 33e6, 50e6, 400e6])
def test_csv_bytes_equal_per_sample_formatting(tmp_path, series, fs, monkeypatch):
    # the vectorized writer produces exactly the rows of a per-sample loop,
    # in one chunk and across chunk boundaries (100-row chunks of 256 rows)
    rec = TimeSeries(fs, series.samples, label=series.label)
    path = tmp_path / "rec.csv"
    dt = 1.0 / fs
    rows = "".join(f"{i * dt:.17g},{v:.17g}\n" for i, v in enumerate(rec.samples))
    expected = f"# sample_rate_hz={fs!r}\n# label=x_A\ntime_s,value\n" + rows
    for chunk in (recordio._CSV_CHUNK, 100):
        monkeypatch.setattr(recordio, "_CSV_CHUNK", chunk)
        save_series_csv(path, rec)
        assert path.read_bytes() == expected.encode()


def test_csv_missing_rate_rejected(tmp_path):
    path = tmp_path / "norate.csv"
    path.write_text("time_s,value\n0.0,1.0\n")
    with pytest.raises(ValueError, match="sample_rate_hz"):
        load_series_csv(path)


def test_binary_round_trip_bit_exact(tmp_path, series):
    path = tmp_path / "rec.bin"
    save_series_bin(path, series)
    back = load_series_bin(path, label="x_A")
    assert back.samples.tobytes() == series.samples.tobytes()
    assert back.sample_rate == series.sample_rate
    assert back.label == "x_A"


def test_binary_layout(tmp_path, series):
    path = tmp_path / "rec.bin"
    save_series_bin(path, series)
    raw = path.read_bytes()
    assert raw[:4] == b"EPRT"
    assert int.from_bytes(raw[4:8], "little") == 1
    assert len(raw) == 24 + 8 * series.n


def test_binary_corruption_detected(tmp_path, series):
    path = tmp_path / "rec.bin"
    save_series_bin(path, series)
    raw = bytearray(path.read_bytes())

    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(ValueError, match="magic"):
        load_series_bin(bad_magic)

    bad_version = tmp_path / "version.bin"
    bad_version.write_bytes(raw[:4] + (9).to_bytes(4, "little") + bytes(raw[8:]))
    with pytest.raises(ValueError, match="version"):
        load_series_bin(bad_version)

    truncated = tmp_path / "short.bin"
    truncated.write_bytes(bytes(raw[:-8]))
    with pytest.raises(ValueError, match="bytes"):
        load_series_bin(truncated)

    header_only = tmp_path / "header.bin"
    header_only.write_bytes(bytes(raw[:10]))
    with pytest.raises(ValueError, match="truncated"):
        load_series_bin(header_only)


def test_csv_round_trip_extreme_values_bit_exact(tmp_path):
    values = np.array([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                       -1.7976931348623157e308, 2.2250738585072014e-308, 0.1, -1 / 3])
    path = tmp_path / "extreme.csv"
    save_series_csv(path, TimeSeries(50e6, values, label="x_A"))
    back = load_series_csv(path)
    assert back.samples.tobytes() == values.tobytes()


def test_csv_header_only_is_rejected_without_a_warning(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# sample_rate_hz=50000000.0\n# label=p_B\ntime_s,value\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-empty"):
            load_series_csv(path)


def test_binary_load_holds_the_samples_once(tmp_path):
    n = 1 << 20
    path = tmp_path / "big.bin"
    save_series_bin(path, TimeSeries(50e6, np.arange(n, dtype=float)))
    tracemalloc.start()
    try:
        back = load_series_bin(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.samples.size == n and back.samples[-1] == n - 1
    assert peak <= 8 * n + (1 << 20)
