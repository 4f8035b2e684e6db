"""CSV series output and the reproducibility manifest.

Numbers are written with 12 significant digits and LF line endings so that
identical runs produce byte-identical files; writes go through a temp file
and an atomic rename. Column checksums are SHA-256 over the column's cell
strings joined by newlines, so they can be recomputed from the CSV alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import numpy as np

from .series import EntanglementSeries

MEASURE_COLUMNS = ("concurrence", "e_f", "e_av", "e_hidden")


def format_column(values) -> list[str]:
    """Cells of one column: 12 significant digits, from Python floats."""
    return [f"{v:.12g}" for v in np.asarray(values, dtype=float).tolist()]


def series_columns(series: EntanglementSeries, x_values=None) -> dict[str, list[str]]:
    """Ordered mapping of column name to formatted cells."""
    columns: dict[str, list[str]] = {"t": format_column(series.times)}
    if x_values is not None:
        columns["x"] = format_column(x_values)
    for name in MEASURE_COLUMNS:
        columns[name] = format_column(getattr(series, name))
    return columns


def _atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def write_series_csv(path: str, series: EntanglementSeries, x_values=None) -> dict[str, str]:
    """Write the series; returns the per-column SHA-256 checksums."""
    columns = series_columns(series, x_values)
    names = list(columns)
    lines = [",".join(names)]
    for row in zip(*columns.values()):
        lines.append(",".join(row))
    _atomic_write_text(path, "\n".join(lines) + "\n")
    return {name: hashlib.sha256("\n".join(cells).encode()).hexdigest() for name, cells in columns.items()}


def write_manifest(path: str, manifest: dict) -> None:
    _atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
