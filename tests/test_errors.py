"""Typed errors at the library's input checks: each raises its exception type
with a message that names the cause."""

import json
from dataclasses import replace

import numpy as np
import pytest

from gtsou import (
    EQUITY_PARAMS,
    GridSpec,
    GtsParams,
    Marginal,
    OuConfig,
    SamplePath,
    SeriesKind,
    ensemble_moments,
    ingest,
    log_likelihood,
    moment_matched_init,
    psi_one_sided,
)
from gtsou.io import write_paths_csv

GRID = GridSpec(256, x_min=-1.0, x_max=1.0, xi_max=10.0)
CFG = OuConfig(lambda_rate=1.0, dt=1.0, x0=0.0, n_steps=2)
FIELDS = EQUITY_PARAMS.to_dict()


def _csv(tmp_path, text):
    path = tmp_path / "series.csv"
    path.write_text(text)
    return path


def _path(n, mode=Marginal.SD):
    return SamplePath(np.zeros(n), replace(CFG, mode=mode))


CASES = [
    ("psi-lam-zero", lambda _: psi_one_sided(1.0, 0.5, 1.0, 0.0), r"lam must be > 0"),
    ("psi-beta-negative", lambda _: psi_one_sided(1.0, -0.1, 1.0, 1.0),
     r"beta must lie in \[0, 1\)"),
    ("psi-beta-one", lambda _: psi_one_sided(1.0, 1.0, 1.0, 1.0),
     r"beta must lie in \[0, 1\)"),
    ("grid-empty-range", lambda _: GridSpec(256, x_min=1.0, x_max=1.0, xi_max=10.0),
     r"x_min must be < x_max"),
    ("grid-reversed-range", lambda _: GridSpec(256, x_min=2.0, x_max=1.0, xi_max=10.0),
     r"x_min must be < x_max"),
    ("ingest-non-finite", lambda t: ingest(_csv(t, "0.5\ninf\n"), SeriesKind.RETURNS),
     r"line 2: non-finite value 'inf'"),
    ("ingest-one-price", lambda t: ingest(_csv(t, "price\n100.0\n"), SeriesKind.PRICES),
     r"need at least two prices"),
    ("write-no-paths", lambda t: write_paths_csv(t / "p.csv", []), r"no paths to write"),
    ("write-unequal-paths", lambda t: write_paths_csv(t / "p.csv", [_path(3), _path(4)]),
     r"paths must share a common length"),
    ("moments-no-paths", lambda _: ensemble_moments([], EQUITY_PARAMS), r"no paths given"),
    ("moments-mixed-modes",
     lambda _: ensemble_moments([_path(200, Marginal.GTS), _path(200)], EQUITY_PARAMS),
     r"paths mix the gts and sd marginal modes"),
    ("params-not-an-object", lambda _: GtsParams.from_dict(5),
     r"must hold a JSON object, got int"),
    ("params-null-field", lambda _: GtsParams.from_dict({**FIELDS, "mu": None}),
     r"parameter mu=None is not a number"),
    ("params-list-field", lambda _: GtsParams.from_dict({**FIELDS, "alpha_minus": [1.0]}),
     r"parameter alpha_minus=\[1.0\] is not a number"),
    ("params-text-field", lambda _: GtsParams.from_dict({**FIELDS, "beta_plus": "abc"}),
     r"parameter beta_plus='abc' is not a number"),
    ("params-non-finite", lambda _: GtsParams(**{**FIELDS, "alpha_plus": np.nan}),
     r"must all be finite"),
    ("params-beta-negative", lambda _: GtsParams(**{**FIELDS, "beta_minus": -0.1}),
     r"beta_minus=-0.1 outside \[0, 1\)"),
    ("params-beta-one", lambda _: GtsParams(**{**FIELDS, "beta_plus": 1.0}),
     r"beta_plus=1 outside \[0, 1\)"),
    ("params-lambda-zero", lambda _: GtsParams(**{**FIELDS, "lambda_minus": 0.0}),
     r"lambda_minus=0 must be > 0"),
    ("params-lambda-negative", lambda _: GtsParams(**{**FIELDS, "lambda_plus": -1.0}),
     r"lambda_plus=-1 must be > 0"),
    ("vector-too-short", lambda _: GtsParams.from_vector(np.zeros(6)),
     r"expected a 7-vector, got shape \(6,\)"),
    ("vector-as-matrix", lambda _: GtsParams.from_vector(np.zeros((7, 1))),
     r"expected a 7-vector, got shape \(7, 1\)"),
    ("likelihood-data-as-matrix",
     lambda _: log_likelihood(np.zeros((50, 2)), EQUITY_PARAMS, GRID),
     r"data must be a 1-d array of observations, got shape \(50, 2\)"),
    ("likelihood-data-scalar", lambda _: log_likelihood(0.25, EQUITY_PARAMS, GRID),
     r"data must be a 1-d array of observations, got shape \(\)"),
    ("init-data-as-matrix", lambda _: moment_matched_init(np.ones((50, 2))),
     r"data must be a 1-d array of observations, got shape \(50, 2\)"),
]


@pytest.mark.parametrize("call, match", [pytest.param(call, match, id=name)
                                         for name, call, match in CASES])
def test_input_check_raises_value_error_naming_its_cause(call, match, tmp_path):
    with pytest.raises(ValueError, match=match):
        call(tmp_path)


def test_ingest_skips_blank_lines(tmp_path):
    series = ingest(_csv(tmp_path, "0.5\n\n  \n-1.25\n"), SeriesKind.RETURNS)
    np.testing.assert_array_equal(series.values, [0.5, -1.25])


def test_ingest_reads_past_a_byte_order_mark(tmp_path):
    plain = ingest(_csv(tmp_path, "100\n101\n102.5\n"), SeriesKind.PRICES)
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf100\n101\n102.5\n")
    np.testing.assert_array_equal(ingest(path, SeriesKind.PRICES).values, plain.values)
    assert plain.values.size == 2


def test_params_file_with_a_byte_order_mark_loads(tmp_path):
    path = tmp_path / "params.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps(FIELDS).encode())
    assert GtsParams.load(path) == EQUITY_PARAMS
