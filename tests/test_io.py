import os
import tracemalloc

import numpy as np
import pytest

from entdyn import io
from entdyn.grid import TimeGrid
from entdyn.series import EntanglementSeries
from oracles import column_checksums_from_csv, series_csv_oneshot


def make_series(n_points: int) -> tuple[EntanglementSeries, np.ndarray]:
    grid = TimeGrid(8.0, n_points)
    # Cells of every width: exact zeros, tiny values, full 12-digit values.
    conc = np.abs(np.cos(3.0 * grid.times)) * np.exp(-grid.times)
    conc[::5] = 0.0
    return EntanglementSeries(grid, conc, 1.0), 0.5 * grid.times


@pytest.mark.parametrize("rows", [1, 7, io._CSV_ROWS])
@pytest.mark.parametrize("with_x", [True, False], ids=["x", "no_x"])
def test_block_writer_matches_one_shot_text(tmp_path, monkeypatch, rows, with_x):
    # 2 full blocks of the default size and 3 rows: every block edge of the
    # default writer, and many more with smaller blocks.
    series, x = make_series(2 * io._CSV_ROWS + 3)
    x = x if with_x else None
    monkeypatch.setattr(io, "_CSV_ROWS", rows)
    path = tmp_path / "series.csv"
    checksums = io.write_series_csv(str(path), series, x)
    text, expected = series_csv_oneshot(series, x)
    assert path.read_bytes() == text.encode()
    assert checksums == expected == column_checksums_from_csv(str(path))
    assert os.listdir(tmp_path) == ["series.csv"]  # no temp file left behind


def test_block_writer_memory_does_not_grow_with_rows(tmp_path):
    # 2^16 rows: all cell strings at once would take tens of MB; one block
    # of 4096 rows takes a few hundred kB beside the (n,) columns.
    series, x = make_series(2**16)
    tracemalloc.start()
    try:
        io.write_series_csv(str(tmp_path / "series.csv"), series, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_failed_write_leaves_no_file(tmp_path, monkeypatch):
    series, x = make_series(11)

    def broken(values):
        raise RuntimeError("format failed")

    monkeypatch.setattr(io, "format_column", broken)
    with pytest.raises(RuntimeError, match="format failed"):
        io.write_series_csv(str(tmp_path / "series.csv"), series, x)
    assert os.listdir(tmp_path) == []


def test_format_column_edge_cells():
    values = [-0.0, 5e-324, 1e16, 0.1 + 0.2, 1 / 3, 123456789012345.0]
    expected = ["-0", "4.94065645841e-324", "1e+16", "0.3", "0.333333333333", "1.23456789012e+14"]
    assert io.format_column(np.array(values)) == "".join(f"{v:.12g}\n" for v in values)
    assert io.format_column(values).split("\n") == [*expected, ""]


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask022", "umask077"])
def test_outputs_get_the_mode_open_gives(tmp_path, umask):
    # A temp file left by an earlier process with this id, made owner-only,
    # is neither reused nor in the way.
    series, x = make_series(11)
    path = tmp_path / "series.csv"
    stale = tmp_path / f"series.csv.{os.getpid()}.tmp"
    stale.write_text("stale")
    stale.chmod(0o600)
    old = os.umask(umask)
    try:
        with open(tmp_path / "reference", "w"):
            pass
        io.write_series_csv(str(path), series, x)
        io.write_manifest(str(tmp_path / "manifest.json"), {"a": 1})
    finally:
        os.umask(old)
    mode = (tmp_path / "reference").stat().st_mode
    assert path.stat().st_mode == (tmp_path / "manifest.json").stat().st_mode == mode
    assert sorted(os.listdir(tmp_path)) == ["manifest.json", "reference", "series.csv"]
