"""CSV/JSON plumbing: return-series ingest, density/exponent/trace/path
tables, and report files.  Numeric output uses 15 significant digits, so a
returns CSV round-trips losslessly through ingest followed by emit (and an
emitted series re-ingests to the same 15 significant digits)."""

from __future__ import annotations

import csv
import enum
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .estimation import FitTrace
    from .inversion import DensityGrid


class SeriesKind(enum.Enum):
    PRICES = "prices"
    RETURNS = "returns"


@dataclass(frozen=True)
class ReturnSeries:
    """Daily returns in percent, with a label naming where they came from."""

    values: np.ndarray
    source: str

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("a return series must be a non-empty 1-d sequence")
        if not np.isfinite(v).all():
            raise ValueError("a return series must contain only finite values")
        object.__setattr__(self, "values", v)
        self.values.setflags(write=False)


def ingest(path, kind: SeriesKind) -> ReturnSeries:
    """Read a one-column CSV of prices or returns.

    An optional single header row is allowed.  Prices are converted to
    percent log-returns, r_i = 100 (ln P_i - ln P_{i-1}); returns pass
    through unchanged.  Malformed or non-positive-price rows raise with the
    offending line number.
    """
    raw: list[float] = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            cells = [c.strip() for c in row if c.strip()]
            if not cells:
                continue
            if len(cells) != 1:
                raise ValueError(f"{path}: line {lineno}: expected one column, got {len(cells)}")
            try:
                value = float(cells[0])
            except ValueError:
                if lineno == 1 and not raw:
                    continue  # header row
                raise ValueError(f"{path}: line {lineno}: could not parse {cells[0]!r}") from None
            if not np.isfinite(value):
                raise ValueError(f"{path}: line {lineno}: non-finite value {cells[0]!r}")
            if kind is SeriesKind.PRICES and value <= 0.0:
                raise ValueError(f"{path}: line {lineno}: non-positive price {value:g}")
            raw.append(value)
    if kind is SeriesKind.PRICES:
        if len(raw) < 2:
            raise ValueError(f"{path}: need at least two prices to form returns")
        values = 100.0 * np.diff(np.log(np.asarray(raw)))
    else:
        values = np.asarray(raw, dtype=float)
    return ReturnSeries(values, source=str(path))


_BLOCK_ROWS = 1024


def _write_table(path, header, row_fmt: str, columns) -> None:
    """Header plus one ``row_fmt % row`` line per row, row i holding the i-th
    entry of each of the equal-length ``columns`` (lists or ranges), with the
    ``\\r\\n`` terminators and unquoted cells that ``csv.writer`` gives these
    tables.  ``_BLOCK_ROWS`` rows at a time are interleaved into one tuple and
    formatted by one ``%``."""
    n, width = len(columns[0]), len(columns)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, n, _BLOCK_ROWS):
            rows = min(_BLOCK_ROWS, n - start)
            cells = [None] * (rows * width)
            for k, column in enumerate(columns):
                cells[k::width] = column[start:start + rows]
            fh.write((row_fmt * rows) % tuple(cells))


def emit_series(path, series: ReturnSeries) -> None:
    _write_table(path, ["return"], "%.15g\r\n", [series.values.tolist()])


def write_density_csv(path, grid: DensityGrid, levy_fn=None) -> None:
    """x / pdf / cdf table, with a Levy-density column when a formula applies
    (blank where it does not, e.g. at x = 0 or for increment laws).

    ``levy_fn`` takes an array: it is called once, on every nonzero x node.
    """
    levy = [""] * grid.x.size
    if levy_fn is not None:
        nonzero = np.flatnonzero(grid.x)
        for i, v in zip(nonzero.tolist(), np.asarray(levy_fn(grid.x[nonzero])).tolist()):
            levy[i] = "%.15g" % v
    _write_table(path, ["x", "pdf", "cdf", "levy_density"],
                 "%.15g,%.15g,%.15g,%s\r\n",
                 [grid.x.tolist(), grid.pdf.tolist(), grid.cdf.tolist(), levy])


def write_exponent_csv(path, xi, values) -> None:
    """Frequency / real part / imaginary part of a characteristic exponent."""
    values = np.asarray(values)
    _write_table(path, ["xi", "re_exponent", "im_exponent"],
                 "%.15g,%.15g,%.15g\r\n",
                 [np.asarray(xi, dtype=float).tolist(),
                  values.real.tolist(), values.imag.tolist()])


def write_trace_csv(path, trace: FitTrace) -> None:
    """Iteration table: step index, the seven parameters, the log-likelihood,
    its gradient norm, and the largest Hessian eigenvalue."""
    from .estimation import TRACE_COLUMNS, trace_rows

    rows = trace_rows(trace)
    _write_table(path, TRACE_COLUMNS,
                 "%d" + ",%.15g" * (len(TRACE_COLUMNS) - 1) + "\r\n",
                 [[row[k] for row in rows] for k in range(len(TRACE_COLUMNS))])


def write_paths_csv(path, paths) -> None:
    """Step-indexed cumulative values, one column per path."""
    if not paths:
        raise ValueError("no paths to write")
    n = len(paths[0].x)
    if any(len(sp.x) != n for sp in paths):
        raise ValueError("paths must share a common length")
    _write_table(path, ["step"] + [f"path_{i}" for i in range(len(paths))],
                 "%d" + ",%.15g" * len(paths) + "\r\n",
                 [range(n), *(sp.x.tolist() for sp in paths)])


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
