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


def format_value(v: float) -> str:
    return f"{float(v):.12g}"


def series_columns(series: EntanglementSeries, x_values=None) -> dict[str, list[str]]:
    """Ordered mapping of column name to formatted cells."""
    columns: dict[str, list[str]] = {"t": [format_value(t) for t in series.times]}
    if x_values is not None:
        columns["x"] = [format_value(x) for x in np.asarray(x_values, dtype=float)]
    for name in MEASURE_COLUMNS:
        columns[name] = [format_value(v) for v in getattr(series, name)]
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
