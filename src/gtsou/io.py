"""CSV/JSON plumbing: return-series ingest, density/exponent/trace/path
tables, and report files.  Numeric output uses 15 significant digits, so a
returns CSV round-trips losslessly through ingest followed by emit (and an
emitted series re-ingests to the same 15 significant digits).

Every table is written by ``_write_table`` a block of cells at a time, each
cell exactly the bytes of ``b"%.15g" % v`` but formatted in bulk by numpy
(``_G15``)."""

from __future__ import annotations

import csv
import enum
import functools
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .frft import two_product

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
    with open(path, newline="", encoding="utf-8-sig") as fh:
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


# Longest %.15g cell: "-1.23456789012345e-100".
_G15_WIDTH = 22
# Byte offsets in a cell's 28-byte source row: the four 4-digit chunks of the
# 15 digits (byte 0 is a '0', the digits are bytes 1..15), the exponent as a
# 4-digit chunk, then the constant word ".e-+" and a NUL word.
_ZERO, _EXP, _DOT, _E, _MINUS, _PLUS, _NUL = 0, 16, 20, 21, 22, 23, 24
_ROW_BYTES = 28


@functools.cache
def _g15_tables():
    """The tables of ``_G15``, built on first use.

    * 10^k as an unevaluated sum hi + lo of two doubles (hi correctly rounded,
      lo the correctly rounded remainder), for k = 14 - e, e in [-281, 280];
    * the ASCII chunks "0000".."9999" as 4-byte words, built from bytes so
      that gathering and re-viewing them keeps their byte order;
    * the trailing-zero count of each chunk (4 for "0000");
    * one template per %g layout: the 22 source-row offsets that spell a cell
      of that sign, exponent class and significant-digit count, NUL-padded;
    * the exponent class of each e: 0..18 fixed (e = -4..14), 19 and 20
      negative exponents of two and three digits, 21 and 22 positive ones.
    """
    hi, lo = np.empty(562), np.empty(562)
    for e in range(-281, 281):  # 10^(14-e) = num / den exactly
        num, den = (10 ** (14 - e), 1) if e <= 14 else (1, 10 ** (e - 14))
        hi[e + 281] = num / den
        h_num, h_den = hi[e + 281].as_integer_ratio()
        lo[e + 281] = (num * h_den - h_num * den) / (den * h_den)
    i = np.arange(10000)
    ascii_digits = (i[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    chunks = ascii_digits.view(np.uint32).ravel()
    zeros = sum(i % 10**j == 0 for j in range(1, 5))

    def template(negative, cls, nsig):
        digits = list(range(1, 16))
        out = [_MINUS] if negative else []
        if cls <= 18:  # fixed point, e = cls - 4
            e = cls - 4
            if e >= 0:
                out += digits[:e + 1]
                if nsig > e + 1:
                    out += [_DOT] + digits[e + 1:nsig]
            else:
                out += [_ZERO, _DOT] + [_ZERO] * (-e - 1) + digits[:nsig]
        else:
            out += digits[:1] + ([_DOT] + digits[1:nsig] if nsig > 1 else [])
            out += [_E, _MINUS if cls < 21 else _PLUS]
            out += [_EXP + 1, _EXP + 2, _EXP + 3] if cls in (20, 22) else [_EXP + 2, _EXP + 3]
        return out + [_NUL] * (_G15_WIDTH - len(out))

    templates = np.array([template(neg, cls, nsig) for neg in (False, True)
                          for cls in range(23) for nsig in range(1, 16)], dtype=np.intp)
    e = np.arange(-281, 281)
    classes = np.select([e < -99, e < -4, e < 15, e < 100], [20, 19, e + 4, 21], 22)
    tables = hi, lo, chunks, zeros, templates, classes
    for table in tables:  # shared by every caller of the cache
        table.setflags(write=False)
    return tables


class _G15:
    """``%.15g`` cells for up to ``size`` floats per call, written as
    NUL-padded 22-byte rows into a caller's array, with numpy alone.

    For 1e-280 < |v| < 1e280 the 15 digits are N = round(|v| 10^(14-e)),
    e = floor(log10 |v|), from a double-double product: Dekker's exact split
    of |v| times the hi word of 10^(14-e), plus |v| times its lo word, good to
    about 1e-15 in N, and exact when 10^(14-e) is a double.  N = 10^15
    carries into the next exponent.  The bytes are gathered from each cell's
    source row through the template of its layout.  A cell within 1e-9 of a
    rounding tie, one whose |v| 10^(14-e)
    falls below 10^14 or whose N exceeds 10^15 (log10 off by one next to a
    power of ten), and every value outside (1e-280, 1e280), zeros, nan and
    inf among them, are formatted by ``%`` itself.

    The source rows and the (cells x 22) template index are allocated once
    and reused by every call: fresh arrays of that size for every block of a
    table were returned to the system and faulted back in each time.
    """

    def __init__(self, size: int):
        self._tables = _g15_tables()
        self._rows = np.empty((size, _ROW_BYTES // 4), dtype=np.uint32)
        self._rows[:, 5:] = np.frombuffer(b".e-+\0\0\0\0", dtype=np.uint32)
        self._index = np.empty((size, _G15_WIDTH), dtype=np.intp)
        self._offsets = np.arange(0, _ROW_BYTES * size, _ROW_BYTES)[:, None]

    def __call__(self, values, out) -> None:
        """Write ``b"%.15g" % v`` for the i-th of ``values`` (any shape, read
        in C order) into row i of the (cells x 22) uint8 array ``out``."""
        hi, lo, chunks, zeros, templates, classes = self._tables
        v = np.asarray(values, dtype=float).ravel()
        a = np.abs(v)
        ok = (a > 1e-280) & (a < 1e280)
        a[~ok] = 1.0
        e = np.floor(np.log10(a)).astype(np.intp)
        b_hi, b_lo = hi[e + 281], lo[e + 281]
        p, err = two_product(a, b_hi)
        whole = np.floor(p)
        frac = (p - whole) + (err + a * b_lo)  # |v| 10^(14-e) = whole + frac
        up = np.rint(frac)
        ok &= np.abs(frac - up) < 0.5 - 1e-9  # a near-tie goes to %
        n = whole + up
        ok &= ((n > 1e14) | ((whole == 1e14) & (frac >= 0.0))) & (n <= 1e15)
        carry = n == 1e15
        n[carry] = 1e14
        e += carry

        # the 4-digit chunks by float floor division, exact for an integer
        # n < 2^53: n / 10^j (j = 12, 8, 4; quotient below 10^4) lies at
        # least 10^-12 below the next integer, several ulps
        c0 = np.floor(n / 1e12)
        n -= c0 * 1e12
        c1 = np.floor(n / 1e8)
        n -= c1 * 1e8
        c2 = np.floor(n / 1e4)
        n -= c2 * 1e4
        c0, c1, c2, c3 = (c.astype(np.intp) for c in (c0, c1, c2, n))
        trailing = np.where(c3, zeros[c3], 4 + np.where(
            c2, zeros[c2], 4 + np.where(c1, zeros[c1], 4 + zeros[c0])))
        rows, index = self._rows[:v.size], self._index[:v.size]
        for k, c in enumerate((c0, c1, c2, c3, np.abs(e))):
            chunks.take(c, out=rows[:, k], mode="clip")
        layout = (np.signbit(v) * 23 + classes[e + 281]) * 15 + (14 - trailing)
        templates.take(layout, axis=0, out=index, mode="clip")
        index += self._offsets[:v.size]
        rows.view(np.uint8).take(index, out=out, mode="clip")
        bad = np.flatnonzero(~ok)
        if bad.size:
            text = np.array([b"%.15g" % x for x in v[bad].tolist()], dtype=f"S{_G15_WIDTH}")
            out[bad] = text.view(np.uint8).reshape(bad.size, _G15_WIDTH)


# Cells per block of _write_table.  2^12 was the fastest on a density table;
# larger blocks cost more in cache misses and page faults than they save in
# per-call overhead.
_BLOCK_CELLS = 1 << 12


def _write_table(path, header, columns, blank=None) -> None:
    """Header plus one row per entry of the equal-length ``columns`` (1-d
    arrays, or 2-d arrays of several columns each; ``header`` names every
    column), each cell ``%.15g`` of its value (so an integer below 10^15 reads
    as ``%d`` would), with the ``\\r\\n`` terminators and unquoted cells
    that ``csv.writer`` gives these tables.  Rows where the boolean ``blank``
    is set leave their last cell empty.

    The rows go out in blocks of about ``_BLOCK_CELLS`` cells.  Each block's
    row-major matrix is formatted by one ``_G15`` call into a line buffer that
    holds every cell NUL-padded to 22 bytes and followed by ',' or "\\r\\n";
    ``bytearray.translate`` then drops the NULs.  The line buffer is a
    bytearray allocated once per table."""
    n, width = len(columns[0]), len(header)
    step = max(1, min(n, _BLOCK_CELLS // width))
    g15 = _G15(step * width)
    buffer = bytearray(step * width * (_G15_WIDTH + 2))
    lines = np.frombuffer(buffer, dtype=np.uint8).reshape(step, width, -1)
    lines[:, :-1, _G15_WIDTH] = ord(",")
    lines[:, -1, _G15_WIDTH:] = (ord("\r"), ord("\n"))
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\r\n")
        for start in range(0, n, step):
            rows = min(step, n - start)
            block = np.column_stack([c[start:start + rows] for c in columns])
            g15(block, lines[:rows].reshape(rows * width, -1)[:, :_G15_WIDTH])
            if blank is not None:
                lines[:rows][blank[start:start + rows], -1, :_G15_WIDTH] = 0
            text = buffer if rows == step else buffer[:lines[:rows].size]
            fh.write(text.translate(None, b"\0"))


def emit_series(path, series: ReturnSeries) -> None:
    _write_table(path, ["return"], [series.values])


def write_density_csv(path, grid: DensityGrid, levy_fn=None) -> None:
    """x / pdf / cdf table, with a Levy-density column when a formula applies
    (blank where it does not, e.g. at x = 0 or for increment laws).

    ``levy_fn`` takes an array: it is called once, on every nonzero x node.
    The table is formatted a block at a time, so what it holds beyond the
    grid is the Levy column and one block's temporaries.
    """
    levy = np.ones(grid.x.size)  # blank cells hold 1.0, which formats fast
    if levy_fn is None:
        blank = np.ones(grid.x.size, dtype=bool)
    else:
        blank = grid.x == 0.0
        levy[~blank] = levy_fn(grid.x[~blank])
    _write_table(path, ["x", "pdf", "cdf", "levy_density"],
                 [grid.x, grid.pdf, grid.cdf, levy], blank)


def write_exponent_csv(path, xi, values) -> None:
    """Frequency / real part / imaginary part of a characteristic exponent."""
    values = np.asarray(values)
    _write_table(path, ["xi", "re_exponent", "im_exponent"],
                 [np.asarray(xi, dtype=float), values.real, values.imag])


def write_trace_csv(path, trace: FitTrace) -> None:
    """Iteration table: step index, the seven parameters, the log-likelihood,
    its gradient norm, and the largest Hessian eigenvalue."""
    from .estimation import TRACE_COLUMNS, trace_rows

    _write_table(path, TRACE_COLUMNS, [np.array(trace_rows(trace), dtype=float)])


def write_paths_csv(path, paths) -> None:
    """Step-indexed cumulative values, one column per path."""
    if not paths:
        raise ValueError("no paths to write")
    n = len(paths[0].x)
    if any(len(sp.x) != n for sp in paths):
        raise ValueError("paths must share a common length")
    _write_table(path, ["step"] + [f"path_{i}" for i in range(len(paths))],
                 [np.column_stack([np.arange(n), *(sp.x for sp in paths)])])


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
