"""The CSV table writers: each output is byte-identical to a per-cell
``csv.writer`` table, also across block boundaries, and the Levy column is
evaluated in one array call.  The bulk formatter ``io._G15`` gives exactly
the bytes of ``b"%.15g" % v``."""

import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtsou import (
    CRYPTO_PARAMS,
    EQUITY_PARAMS,
    OuConfig,
    ReturnSeries,
    emit_series,
    io,
    levy_density_bdlp,
    levy_density_gts,
    levy_density_sd,
)
from gtsou.estimation import TRACE_COLUMNS, FitState, FitTrace
from gtsou.inversion import DensityGrid
from gtsou.io import (write_density_csv, write_exponent_csv, write_paths_csv,
                      write_trace_csv)
from gtsou.ou import SamplePath

# x nodes of both signs, an exact zero, and magnitudes that exercise the
# exponent and fixed forms of %.15g
X = np.array([-30.0, -2.5, -1e-7, 0.0, 3e-12, 0.1, 1.0 / 3.0, 2.0, 41.75])


def _reference(path, header, rows):
    """The per-cell csv.writer table the writers must reproduce."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(header)
        for row in rows:
            out.writerow(row)


def _cell(v) -> str:
    return "%.15g" % float(v)


def _grid() -> DensityGrid:
    pdf = np.exp(-0.5 * X**2) / np.sqrt(2.0 * np.pi)
    pdf[0] = 1e-310  # subnormal
    cdf = np.cumsum(pdf) / pdf.sum()
    return DensityGrid(X.copy(), pdf, cdf)


@pytest.mark.parametrize("levy", [levy_density_gts, levy_density_bdlp,
                                  levy_density_sd, None])
def test_density_csv_matches_per_cell_writer(tmp_path, levy):
    grid = _grid()
    levy_fn = None if levy is None else (lambda x: levy(x, CRYPTO_PARAMS))
    rows = []
    for x, f, c in zip(grid.x, grid.pdf, grid.cdf):
        lv = "" if levy_fn is None or x == 0.0 else _cell(levy_fn(float(x)))
        rows.append([_cell(x), _cell(f), _cell(c), lv])
    _reference(tmp_path / "ref.csv", ["x", "pdf", "cdf", "levy_density"], rows)

    write_density_csv(tmp_path / "out.csv", grid, levy_fn)
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_density_csv_calls_levy_once(tmp_path):
    calls = []

    def counting(x):
        calls.append(np.shape(x))
        return levy_density_gts(x, EQUITY_PARAMS)

    write_density_csv(tmp_path / "out.csv", _grid(), counting)
    assert calls == [(X.size - 1,)]  # every node but x = 0, in one array
    rows = list(csv.reader(open(tmp_path / "out.csv", newline="")))
    assert rows[4][0] == "0" and rows[4][3] == ""


def test_exponent_csv_matches_per_cell_writer(tmp_path):
    xi = np.linspace(-50.0, 50.0, 101)
    values = np.exp(1j * xi) * xi**3 - 1e-20j
    rows = [[_cell(u), _cell(v.real), _cell(v.imag)] for u, v in zip(xi, values)]
    _reference(tmp_path / "ref.csv", ["xi", "re_exponent", "im_exponent"], rows)

    write_exponent_csv(tmp_path / "out.csv", xi, values)
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_paths_csv_matches_per_cell_writer(tmp_path):
    rng = np.random.default_rng(5)
    c = OuConfig(lambda_rate=0.5, dt=1.0, n_steps=40)
    paths = [SamplePath(rng.standard_normal(41) * 10.0**k, c) for k in (-9, 0, 9)]
    rows = [[str(k)] + [_cell(sp.x[k]) for sp in paths] for k in range(41)]
    _reference(tmp_path / "ref.csv", ["step", "path_0", "path_1", "path_2"], rows)

    write_paths_csv(tmp_path / "out.csv", paths)
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_trace_csv_matches_per_cell_writer(tmp_path):
    states = tuple(
        FitState(params=p, log_likelihood=-1234.5678901234567 + k,
                 gradient=np.zeros(7), hessian=np.eye(7),
                 gradient_norm=10.0 ** -k / 3.0, max_eigenvalue=-0.25 * (k + 1),
                 iteration=k)
        for k, p in enumerate((EQUITY_PARAMS, CRYPTO_PARAMS, EQUITY_PARAMS)))
    trace = FitTrace(states, converged=True, reason="GradientTol")
    rows = [[str(r[0])] + [_cell(v) for v in r[1:]]
            for r in (s.trace_row() for s in states)]
    _reference(tmp_path / "ref.csv", TRACE_COLUMNS, rows)

    write_trace_csv(tmp_path / "out.csv", trace)
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_emit_series_matches_per_cell_writer(tmp_path):
    values = np.array([1.28211735256036, -4.83471332925218, 0.5, 370.0, -0.0, 1e-17])
    _reference(tmp_path / "ref.csv", ["return"], [[_cell(v)] for v in values])

    emit_series(tmp_path / "out.csv", ReturnSeries(values, source="synthetic"))
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# --- _G15 against % ------------------------------------------------------------

def _g15(values) -> list:
    v = np.asarray(values, dtype=float).ravel()
    out = np.empty((v.size, io._G15_WIDTH), dtype=np.uint8)
    io._G15(v.size)(v, out)
    return out.view(f"S{io._G15_WIDTH}").ravel().tolist()


def _percent(values) -> list:
    return [b"%.15g" % v for v in np.asarray(values, dtype=float).tolist()]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40))
def test_g15_matches_percent_on_any_float(values):
    assert _g15(values) == _percent(values)


def test_g15_matches_percent_on_random_bit_patterns():
    rng = np.random.default_rng(2024)
    for _ in range(16):  # 2^20 doubles, every exponent and mantissa
        v = rng.integers(0, 2**64, size=2**16, dtype=np.uint64).view(np.float64)
        assert _g15(v) == _percent(v)


def test_g15_matches_percent_on_short_decimals():
    # 1 to 15 significant digits at every exponent: every template
    rng = np.random.default_rng(7)
    digits = rng.integers(1, 16, size=2**15)
    mantissa = rng.integers(10 ** (digits - 1), 10**digits, dtype=np.int64)
    v = mantissa * 10.0 ** rng.integers(-300, 290, size=digits.size).astype(float)
    v[::2] *= -1.0
    assert _g15(v) == _percent(v)


def test_g15_matches_percent_on_dyadic_grids():
    # k 2^-j has up to j decimals: many cells are exact ties at 15 digits,
    # which go to %
    rng = np.random.default_rng(3)
    v = rng.integers(-2**45, 2**45, size=2**15) * 2.0 ** -rng.integers(0, 60, size=2**15)
    grid = np.linspace(-20.0, 20.0, 2**15 + 1)
    for values in (v, grid, grid * 1e-7, grid * 1e9):
        assert _g15(values) == _percent(values)


@pytest.mark.parametrize("value, text", [
    (123456789012345.5, b"123456789012346"),  # exact ties: half to even, by %
    (123456789012344.5, b"123456789012344"),
    (-123456789012345.5, b"-123456789012346"),
    (12345678901234550.0, b"1.23456789012346e+16"),  # a tie off the double grid
    (1.234567890123455e-10, b"1.23456789012345e-10"),  # near a tie, below it
    (1.234567890123465e-10, b"1.23456789012347e-10"),  # near a tie, above it
    (999999999999999.5, b"1e+15"),  # rounds up into the next exponent
    (0.99999999999999989, b"1"),
    (9.99999999999999e-05, b"9.99999999999999e-05"),
    (1e-05, b"1e-05"),
    (0.0001, b"0.0001"),
    (1e14, b"100000000000000"),
    (1e15, b"1e+15"),
    (1e16, b"1e+16"),
    (5e-324, b"4.94065645841247e-324"),
    (0.0, b"0"),
    (-0.0, b"-0"),
    (1e-280, b"1e-280"),
    (1.0000000000000001e-280, b"1e-280"),
    (9.99e-281, b"9.99e-281"),
    (1e280, b"1e+280"),
    (9.999999999999999e279, b"1e+280"),
    (1.2345e280, b"1.2345e+280"),
    (-1.5e-100, b"-1.5e-100"),
    (float("nan"), b"nan"),
    (float("inf"), b"inf"),
    (float("-inf"), b"-inf"),
])
def test_g15_edge_cases(value, text):
    assert b"%.15g" % value == text
    assert _g15([value]) == [text]


# --- tables that span several blocks ---------------------------------------------

def test_density_csv_across_blocks(tmp_path):
    rows_per_block = io._BLOCK_CELLS // 4
    n = 3 * rows_per_block + 7
    zero = rows_per_block + 5  # the blank Levy cell is in the second block
    x = (np.arange(n) - zero) * 0.0125
    pdf = np.exp(-0.5 * x**2) / np.sqrt(2.0 * np.pi)
    grid = DensityGrid(x, pdf, np.cumsum(pdf) / pdf.sum())
    levy_fn = lambda x: levy_density_gts(x, EQUITY_PARAMS)  # noqa: E731
    rows = [[_cell(a), _cell(f), _cell(c), "" if a == 0.0 else _cell(levy_fn(a))]
            for a, f, c in zip(grid.x, grid.pdf, grid.cdf)]
    assert rows[zero][3] == "" and all(r[3] for r in rows[:zero])
    _reference(tmp_path / "ref.csv", ["x", "pdf", "cdf", "levy_density"], rows)

    write_density_csv(tmp_path / "out.csv", grid, levy_fn)
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_paths_csv_across_blocks(tmp_path):
    rng = np.random.default_rng(11)
    c = OuConfig(lambda_rate=0.5, dt=1.0, n_steps=40)
    paths = [SamplePath(rng.standard_normal(41) * 10.0 ** rng.integers(-6, 7), c)
             for _ in range(300)]
    assert io._BLOCK_CELLS // 301 < 41  # one block holds fewer rows than the table
    rows = [[str(k)] + [_cell(sp.x[k]) for sp in paths] for k in range(41)]
    _reference(tmp_path / "ref.csv", ["step"] + [f"path_{i}" for i in range(300)], rows)

    write_paths_csv(tmp_path / "out.csv", paths)
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_density_csv_memory_is_bounded_by_the_grid(tmp_path):
    n = 2**18
    x = np.linspace(-20.0, 20.0, n + 1)[:-1]
    pdf = np.exp(-0.5 * x**2) / np.sqrt(2.0 * np.pi)
    grid = DensityGrid(x, pdf, np.cumsum(pdf) / pdf.sum())
    tracemalloc.start()
    try:
        write_density_csv(tmp_path / "out.csv", grid,
                          lambda x: levy_density_gts(x, EQUITY_PARAMS))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * (grid.x.nbytes + grid.pdf.nbytes + grid.cdf.nbytes)
