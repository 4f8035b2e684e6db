"""CSV series output and the reproducibility manifest.

Numbers are written with 12 significant digits and LF line endings so that
identical runs produce byte-identical files; writes go through a temp file,
made with the mode open() gives (0o666 less the umask), and an atomic
rename. Column checksums are SHA-256 over the column's cell strings joined
by newlines, so they can be recomputed from the CSV alone.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os

import numpy as np

from .series import EntanglementSeries

MEASURE_COLUMNS = ("concurrence", "e_f", "e_av", "e_hidden")
_CSV_ROWS = 4096  # rows formatted, written and hashed at a time


def format_column(values) -> str:
    """Text of one column, one C-level call: each cell, with 12 significant
    digits, on its own LF-ended line. `"%.12g" % v` is `f"{v:.12g}"`."""
    values = np.asarray(values, dtype=float).tolist()
    return ("%.12g\n" * len(values)) % tuple(values)


def series_columns(series: EntanglementSeries, x_values=None) -> dict[str, np.ndarray]:
    """Ordered mapping of column name to its float values."""
    columns = {"t": series.times}
    if x_values is not None:
        columns["x"] = x_values
    for name in MEASURE_COLUMNS:
        columns[name] = getattr(series, name)
    return {name: np.asarray(values, dtype=float) for name, values in columns.items()}


@contextlib.contextmanager
def _atomic_open(path: str):
    """A text handle (LF endings) on a temp file beside ``path``, renamed
    onto it when the block ends; the temp file is removed on any error. It
    is made with mode 0o666, so the umask applies as it does to open(); its
    name is per process, and one an earlier process left is removed first."""
    tmp_path = f"{path}.{os.getpid()}.tmp"
    with contextlib.suppress(FileNotFoundError):
        os.unlink(tmp_path)
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            yield handle
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def write_series_csv(path: str, series: EntanglementSeries, x_values=None) -> dict[str, str]:
    """Write the series; returns the per-column SHA-256 checksums.

    Cells are formatted, written and hashed _CSV_ROWS rows at a time, so the
    memory beyond the series is one block of cell strings.
    """
    columns = series_columns(series, x_values)
    hashes = {name: hashlib.sha256() for name in columns}
    with _atomic_open(path) as handle:
        handle.write(",".join(columns) + "\n")
        for start in range(0, len(columns["t"]), _CSV_ROWS):
            # each column's cells joined by newlines, as its checksum hashes them
            cells = {name: format_column(col[start : start + _CSV_ROWS])[:-1] for name, col in columns.items()}
            rows = zip(*(column.split("\n") for column in cells.values()))
            handle.write("\n".join(map(",".join, rows)) + "\n")
            for name, column in cells.items():
                if start:
                    hashes[name].update(b"\n")
                hashes[name].update(column.encode())
    return {name: digest.hexdigest() for name, digest in hashes.items()}


def write_manifest(path: str, manifest: dict) -> None:
    with _atomic_open(path) as handle:
        handle.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
