"""The CSV table writers: each output is byte-identical to a per-cell
``csv.writer`` table, and the Levy column is evaluated in one array call."""

import csv

import numpy as np
import pytest

from gtsou import (
    CRYPTO_PARAMS,
    EQUITY_PARAMS,
    OuConfig,
    ReturnSeries,
    emit_series,
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
    paths = [SamplePath(rng.standard_normal(41) * 10.0**k, c, True) for k in (-9, 0, 9)]
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
