"""Command-line surface and the CSV/JSON plumbing underneath it."""

import csv
import json
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import gtsou
from gtsou import (
    EQUITY_PARAMS,
    GtsParams,
    Marginal,
    ReturnSeries,
    SeriesKind,
    cumulants,
    emit_series,
    ingest,
    sample_marginal,
    stationary_moments,
)
from gtsou.cli import main


# --- ingest / emit ------------------------------------------------------------

def test_ingest_prices_to_log_returns(tmp_path):
    f = tmp_path / "prices.csv"
    f.write_text("100\n105\n")
    series = ingest(f, SeriesKind.PRICES)
    assert series.values == pytest.approx([100.0 * np.log(1.05)])
    assert series.values[0] == pytest.approx(4.879016416943205, rel=1e-12)


def test_ingest_flat_prices_zero_return(tmp_path):
    f = tmp_path / "prices.csv"
    f.write_text("100\n100\n")
    series = ingest(f, SeriesKind.PRICES)
    assert series.values == pytest.approx([0.0])


def test_ingest_returns_passthrough_with_header(tmp_path):
    f = tmp_path / "returns.csv"
    f.write_text("return\n0.5\n-1.25\n")
    series = ingest(f, SeriesKind.RETURNS)
    np.testing.assert_allclose(series.values, [0.5, -1.25])


def test_ingest_malformed_row_reports_line_number(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("0.5\nnot-a-number\n0.7\n")
    with pytest.raises(ValueError, match="line 2"):
        ingest(f, SeriesKind.RETURNS)


def test_ingest_rejects_nonpositive_price(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("100\n-5\n")
    with pytest.raises(ValueError, match="line 2"):
        ingest(f, SeriesKind.PRICES)


def test_ingest_rejects_multicolumn(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("1.0,2.0\n")
    with pytest.raises(ValueError, match="one column"):
        ingest(f, SeriesKind.RETURNS)


def test_emit_ingest_round_trip(tmp_path):
    values = np.random.default_rng(1).standard_normal(257) * 3.71
    f = tmp_path / "series.csv"
    emit_series(f, ReturnSeries(values, source="synthetic"))
    back = ingest(f, SeriesKind.RETURNS)
    # values survive the text round trip to 15 significant digits
    np.testing.assert_allclose(back.values, values, rtol=5e-15, atol=0.0)


def test_ingest_emit_file_round_trip(tmp_path):
    # values carrying <= 15 significant digits survive ingest -> emit exactly:
    # the emitted file is a byte-for-byte fixed point of the round trip
    f1 = tmp_path / "in.csv"
    f2 = tmp_path / "out.csv"
    f3 = tmp_path / "again.csv"
    f1.write_text("return\n1.28211735256036\n-4.83471332925218\n0.5\n370\n")
    first = ingest(f1, SeriesKind.RETURNS)
    emit_series(f2, first)
    second = ingest(f2, SeriesKind.RETURNS)
    np.testing.assert_array_equal(second.values, first.values)
    emit_series(f3, second)
    assert f3.read_bytes() == f2.read_bytes()


def test_return_series_validation():
    with pytest.raises(ValueError):
        ReturnSeries(np.array([]), source="empty")
    with pytest.raises(ValueError):
        ReturnSeries(np.array([1.0, np.inf]), source="bad")


# --- params file format --------------------------------------------------------

def test_params_save_load_round_trip(tmp_path):
    f = tmp_path / "p.json"
    EQUITY_PARAMS.save(f)
    assert GtsParams.load(f) == EQUITY_PARAMS


def test_params_load_missing_field(tmp_path):
    f = tmp_path / "p.json"
    d = EQUITY_PARAMS.to_dict()
    del d["lambda_minus"]
    f.write_text(json.dumps(d))
    with pytest.raises(ValueError, match="lambda_minus"):
        GtsParams.load(f)


# --- subcommands ---------------------------------------------------------------

def run_cli(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GTSOU_OUT_DIR", str(tmp_path))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_moments_json_matches_library(tmp_path, monkeypatch, capsys):
    code, out, err = run_cli(["moments", "--params", "equity", "--out"],
                             tmp_path, monkeypatch, capsys)
    assert code == 0
    payload = json.loads((tmp_path / "moments.json").read_text())
    k = cumulants(EQUITY_PARAMS, 4)
    for i in range(1, 5):
        assert payload["cumulants"][f"kappa{i}"] == k[i]  # exact float round trip
    sm = stationary_moments(EQUITY_PARAMS, Marginal.SD)
    assert payload["sd"]["std_dev"] == sm.std_dev
    assert "gts:" in out and "sd:" in out


def test_moments_single_mode(tmp_path, monkeypatch, capsys):
    code, out, _ = run_cli(["moments", "--params", "crypto", "--mode", "gts"],
                           tmp_path, monkeypatch, capsys)
    assert code == 0
    assert "gts:" in out and "sd:" not in out


def test_moments_single_mode_json_keys(tmp_path, monkeypatch, capsys):
    code, out, _ = run_cli(["moments", "--params", "equity", "--mode", "sd", "--out"],
                           tmp_path, monkeypatch, capsys)
    assert code == 0
    payload = json.loads((tmp_path / "moments.json").read_text())
    assert list(payload) == ["sd", "cumulants"]


def test_moments_unknown_params(tmp_path, monkeypatch, capsys):
    code, out, err = run_cli(["moments", "--params", "nope"],
                             tmp_path, monkeypatch, capsys)
    assert code == 1
    assert "error:" in err


def test_density_writes_tables(tmp_path, monkeypatch, capsys):
    code, out, _ = run_cli(
        ["density", "--params", "equity", "--law", "gts", "--grid-n", "4096"],
        tmp_path, monkeypatch, capsys)
    assert code == 0
    with open(tmp_path / "density_gts.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "pdf", "cdf", "levy_density"]
    x = np.array([float(r[0]) for r in rows[1:]])
    pdf = np.array([float(r[1]) for r in rows[1:]])
    assert np.trapezoid(pdf, x) == pytest.approx(1.0, abs=1e-9)
    cdf_last = float(rows[-1][2])
    assert cdf_last == pytest.approx(1.0, abs=1e-12)
    exp_rows = list(csv.reader(open(tmp_path / "density_gts_exponent.csv")))
    assert exp_rows[0] == ["xi", "re_exponent", "im_exponent"]
    assert len(exp_rows) == 1002


@pytest.mark.parametrize("preset", ["equity", "crypto"])
@pytest.mark.parametrize("law", ["gts", "bdlp", "sd", "increment"])
def test_density_table_has_grid_n_rows(tmp_path, monkeypatch, capsys, law, preset):
    # the table has exactly --grid-n rows, whatever the law's frequency cutoff
    code, out, err = run_cli(["density", "--params", preset, "--law", law,
                              "--grid-n", "1024"], tmp_path, monkeypatch, capsys)
    assert code == 0, err
    assert "1024 points" in out
    data = np.loadtxt(tmp_path / f"density_{law}.csv", delimiter=",", skiprows=1,
                      usecols=(0, 1))
    assert data.shape == (1024, 2)
    assert np.trapezoid(data[:, 1], data[:, 0]) == pytest.approx(1.0, abs=1e-9)


def test_density_xi_max_override_keeps_the_grid(tmp_path, monkeypatch, capsys):
    # a cutoff far above the automatic one adds frequency nodes, which fold
    # exactly, and leaves the x nodes and the density as they were
    def table(name, extra):
        code, out, err = run_cli(["density", "--params", "equity", "--law", "gts",
                                  "--out", name] + extra, tmp_path, monkeypatch, capsys)
        assert code == 0, err
        data = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1, usecols=(0, 1))
        return out, data[:, 0], data[:, 1]

    _, x_auto, pdf_auto = table("auto.csv", [])
    out, x, pdf = table("wide.csv", ["--xi-max", "4000"])
    assert "16384 points" in out
    assert np.array_equal(x, x_auto)
    assert np.max(np.abs(pdf - pdf_auto)) < 1e-10


def test_density_too_coarse_grid_is_refused(tmp_path, monkeypatch, capsys):
    # this increment law's peak is too narrow for 1024 x nodes: the mass check
    # fails and names the point count, which the caller raises to pass
    argv = ["density", "--params", "equity", "--law", "increment", "--mode", "gts",
            "--ou-lambda", "0.1", "--grid-n"]
    code, _, err = run_cli(argv + ["1024"], tmp_path, monkeypatch, capsys)
    assert code == 1
    assert "density mass 0.964896" in err and "1024 points" in err
    assert not (tmp_path / "density_increment.csv").exists()
    code, out, err = run_cli(argv + ["4096"], tmp_path, monkeypatch, capsys)
    assert code == 0, err
    assert "4096 points" in out


def test_density_refuses_too_many_frequency_nodes(tmp_path, monkeypatch, capsys):
    # the crypto GTS increment at lambda dt = 0.1 needs K = 2958811 frequency
    # nodes; GridSpec refuses it before the exponent is evaluated on any array
    start = time.perf_counter()
    code, _, err = run_cli(["density", "--params", "crypto", "--law", "increment",
                            "--mode", "gts", "--ou-lambda", "0.1"],
                           tmp_path, monkeypatch, capsys)
    assert code == 1
    assert "K = 2958811 frequency nodes" in err and "more than 2^21" in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("law", ["gts", "sd", "bdlp", "increment"])
def test_density_degenerate_marginal_names_the_cause(law, tmp_path, monkeypatch, capsys):
    # with no jumps every law has zero variance, which is said before any
    # frequency cutoff is searched for
    path = tmp_path / "degenerate.json"
    EQUITY_PARAMS.replace(alpha_plus=0.0, alpha_minus=0.0).save(path)
    code, _, err = run_cli(["density", "--params", str(path), "--law", law],
                           tmp_path, monkeypatch, capsys)
    assert code == 1
    assert "degenerate parameters: zero variance" in err


@pytest.mark.parametrize("law, mode, how", [
    ("gts", "sd", r"the GTS \|cf\| falls only like \|xi\|\^-0.9;"),
    ("bdlp", "sd", r"the BDLP \|cf\| tends to e\^-0.9 "),
    ("increment", "sd", r"the SD step's \|cf\| falls only like \|xi\|\^-0.9;"),
    ("increment", "gts", r"the GTS step's \|cf\| tends to e\^-0.9;"),
])
def test_density_zero_beta_names_the_slow_decay(law, mode, how, tmp_path, monkeypatch,
                                                capsys):
    # bilateral gamma (beta+ = beta- = 0): no 1e-12 cutoff exists below 1e7, and
    # the error says why and points to the SD law, which has one
    path = tmp_path / "gamma.json"
    GtsParams(mu=0.0, beta_plus=0.0, beta_minus=0.0, alpha_plus=0.5, alpha_minus=0.4,
              lambda_plus=0.8, lambda_minus=0.7).save(path)
    code, _, err = run_cli(["density", "--params", str(path), "--law", law,
                            "--mode", mode], tmp_path, monkeypatch, capsys)
    assert code == 1
    assert re.search(r"no usable frequency cutoff below 1e\+07 \(\|cf\| = [0-9.e-]+ "
                     r"there\); at beta\+ = beta- = 0 " + how, err)
    assert "try --law sd" in err
    code, _, _ = run_cli(["density", "--params", str(path), "--law", "sd"],
                         tmp_path, monkeypatch, capsys)
    assert code == 0


def test_density_seed_is_ignored(tmp_path, monkeypatch, capsys):
    tables = []
    for seed in ("0", "5"):
        code, _, err = run_cli(["density", "--params", "equity", "--law", "increment",
                                "--grid-n", "1024", "--seed", seed, "--out", f"s{seed}.csv"],
                               tmp_path, monkeypatch, capsys)
        assert code == 0, err
        tables.append([(tmp_path / f"s{seed}{suffix}").read_bytes()
                       for suffix in (".csv", "_exponent.csv")])
    assert tables[0] == tables[1]


def test_density_increment_law(tmp_path, monkeypatch, capsys):
    code, out, _ = run_cli(
        ["density", "--params", "equity", "--law", "increment", "--mode", "sd",
         "--ou-lambda", "0.5", "--dt", "1.0", "--grid-n", "4096"],
        tmp_path, monkeypatch, capsys)
    assert code == 0
    with open(tmp_path / "density_increment.csv") as fh:
        rows = list(csv.reader(fh))
    # no closed-form Levy density for the increment law: column stays blank
    assert {r[3] for r in rows[1:]} == {""}


def test_simulate_outputs_and_determinism(tmp_path, monkeypatch, capsys):
    argv = ["simulate", "--params", "equity", "--mode", "sd", "--ou-lambda", "0.3",
            "--n-steps", "300", "--n-paths", "2", "--seed", "11"]
    code, out, _ = run_cli(argv, tmp_path, monkeypatch, capsys)
    assert code == 0
    first = (tmp_path / "paths.csv").read_bytes()
    report = json.loads((tmp_path / "paths_report.json").read_text())
    assert report["n_observations"] == 2 * 301
    assert "indicator" in out and "paths ->" in out

    code, _, _ = run_cli(argv, tmp_path, monkeypatch, capsys)
    assert code == 0
    assert (tmp_path / "paths.csv").read_bytes() == first  # byte-identical rerun


def test_simulate_crypto_gts_slow_reversion(tmp_path, monkeypatch, capsys):
    # this increment's CF decays so slowly that a grid would need more than
    # 2^21 frequency nodes (NormalizationError); the exact draws need none
    code, out, err = run_cli(["simulate", "--params", "crypto", "--mode", "gts",
                              "--ou-lambda", "0.1", "--dt", "1"],
                             tmp_path, monkeypatch, capsys)
    assert code == 0, err
    assert "paths ->" in out


def test_simulate_rejects_zero_paths(tmp_path, monkeypatch, capsys):
    code, _, err = run_cli(
        ["simulate", "--params", "equity", "--n-paths", "0", "--n-steps", "100"],
        tmp_path, monkeypatch, capsys)
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("content", [5, {**EQUITY_PARAMS.to_dict(), "mu": None}],
                         ids=["number", "null-field"])
def test_malformed_params_file_is_an_error_not_a_traceback(tmp_path, monkeypatch, capsys,
                                                           content):
    (tmp_path / "bad.json").write_text(json.dumps(content))
    code, _, err = run_cli(["moments", "--params", str(tmp_path / "bad.json")],
                           tmp_path, monkeypatch, capsys)
    assert code == 1
    assert err.startswith("error:") and "parameter" in err


@pytest.mark.parametrize("x0", ["nan", "inf"])
def test_simulate_rejects_nonfinite_x0(tmp_path, monkeypatch, capsys, x0):
    code, _, err = run_cli(
        ["simulate", "--params", "equity", "--x0", x0, "--n-steps", "100"],
        tmp_path, monkeypatch, capsys)
    assert code == 1
    assert err.startswith("error:") and "x0" in err
    assert not (tmp_path / "paths_report.json").exists()


def test_fit_writes_trace_and_params(tmp_path, monkeypatch, capsys):
    data = sample_marginal(EQUITY_PARAMS, Marginal.GTS, 400,
                           np.random.default_rng(23))
    csv_path = tmp_path / "returns.csv"
    emit_series(csv_path, ReturnSeries(data, source="synthetic"))

    # one iteration: exercises the full pipeline without a long optimization
    code, out, _ = run_cli(
        ["fit", str(csv_path), "--max-iter", "1", "--grad-tol", "1e-9"],
        tmp_path, monkeypatch, capsys)
    assert code == 1  # not converged in one step
    assert "converged=False" in out
    # the budgeted grid of this 400-point sample: its first candidate, 2048 points
    assert "grid: 2048 points on [" in out and "xi_max 116.2" in out
    with open(tmp_path / "fit_trace.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "Iterations"
    assert rows[0][-2:] == ["||dLog(ML)/dV||", "Max Eigen Value"]
    assert len(rows) == 3  # header + iterations 0 and 1
    fitted = GtsParams.load(tmp_path / "fit_trace_params.json")
    fitted.validate()
    # the trace's last row equals the saved parameter vector
    np.testing.assert_allclose([float(v) for v in rows[-1][1:8]],
                               fitted.as_vector(), rtol=1e-12)


@pytest.mark.parametrize("flag, value, cause", [
    ("--grad-tol", "nan", "grad_tol must be finite and >= 0"),
    ("--grad-tol", "-1", "grad_tol must be finite and >= 0"),
    ("--max-iter", "-3", "max_iter must be an integer >= 0"),
])
def test_fit_rejects_bad_tolerances(flag, value, cause, tmp_path, monkeypatch, capsys):
    csv_path = tmp_path / "returns.csv"
    emit_series(csv_path, ReturnSeries(
        sample_marginal(EQUITY_PARAMS, Marginal.GTS, 400, np.random.default_rng(23)),
        source="synthetic"))
    code, out, err = run_cli(["fit", str(csv_path), flag, value],
                             tmp_path, monkeypatch, capsys)
    assert code == 1
    assert err.startswith("error:") and cause in err
    assert out == ""
    assert not (tmp_path / "fit_trace.csv").exists()


def test_validate_single_check(tmp_path, monkeypatch, capsys):
    code, out, _ = run_cli(["validate", "--ids", "C1", "--out"],
                           tmp_path, monkeypatch, capsys)
    assert code == 0
    assert "C1" in out and "PASS" in out
    payload = json.loads((tmp_path / "validation.json").read_text())
    assert payload["passed"] is True
    assert payload["results"][0]["check_id"] == "C1"


def test_validate_unknown_id(tmp_path, monkeypatch, capsys):
    code, _, err = run_cli(["validate", "--ids", "C99"],
                           tmp_path, monkeypatch, capsys)
    assert code == 1
    assert "unknown check ids" in err


@pytest.mark.parametrize("ids", [",", " "])
def test_validate_empty_id_list(ids, tmp_path, monkeypatch, capsys):
    code, out, err = run_cli(["validate", "--ids", ids], tmp_path, monkeypatch, capsys)
    assert code == 1
    assert "no check id given" in err
    assert "checks passed" not in out


def test_out_dir_absolute_path_wins(tmp_path, monkeypatch, capsys):
    target = tmp_path / "elsewhere" / "m.json"
    target.parent.mkdir()
    code, _, _ = run_cli(["moments", "--params", "equity", "--out", str(target)],
                         tmp_path, monkeypatch, capsys)
    assert code == 0
    assert target.exists()


def _run_child(*args, timeout=None):
    """A python child that imports the same gtsou as this process, installed
    or not."""
    src = os.path.dirname(os.path.dirname(gtsou.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=timeout)


@pytest.mark.parametrize("flag, value, cause", [
    ("--grid-n", "0", "n_points must be a power of two"),
    ("--grid-n", "-4", "n_points must be a power of two"),
    ("--xi-max", "0", "xi_max must be > 0"),
    ("--xi-max", "-1", "xi_max must be > 0"),
    ("--xi-max", "inf", "must be finite"),
    ("--span", "0", "span must be finite and > 0"),
    ("--span", "-1", "span must be finite and > 0"),
    ("--span", "nan", "span must be finite and > 0"),
])
def test_density_rejects_bad_grid_inputs(flag, value, cause, tmp_path):
    # a child process with a timeout, so that a sizing loop that never ends
    # fails this test instead of hanging the suite
    try:
        proc = _run_child("-m", "gtsou", "density", "--params", "equity",
                          "--out", str(tmp_path / "d.csv"), flag, value, timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail(f"gtsou density {flag} {value} did not finish in 60 s")
    assert proc.returncode == 1
    assert cause in proc.stderr, proc.stderr


def test_module_entry_point():
    proc = _run_child("-m", "gtsou", "moments", "--params", "equity")
    assert proc.returncode == 0
    assert "gts:" in proc.stdout


def test_import_leaves_scipy_signal_unloaded():
    # no route of the package uses scipy.signal, nor the scipy.stats it would
    # pull in
    proc = _run_child("-c", "import sys, gtsou; "
                            "print(sorted({'scipy.signal', 'scipy.stats'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _scipy_loaded_after(code):
    """The scipy modules loaded by a fresh interpreter after running code."""
    proc = _run_child("-c", f"{code}\nimport sys\n"
                            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert proc.returncode == 0, proc.stderr
    return eval(proc.stdout.strip().splitlines()[-1])


def test_import_loads_no_scipy():
    assert _scipy_loaded_after("import gtsou") == []


def test_help_loads_no_scipy():
    code = ("from gtsou.cli import main\n"
            "try:\n    main(['--help'])\nexcept SystemExit:\n    pass")
    assert _scipy_loaded_after(code) == []


# Gamma, digamma and trigamma, the PCHIP interpolants and the incomplete gamma
# at the orders s <= 0 the Levy densities use are the package's own: only
# sd_exponent_unit_form and the incomplete gammas at orders s > 0 load scipy


def test_moments_loads_no_scipy():
    loaded = _scipy_loaded_after("from gtsou.cli import main\n"
                                 "assert main(['moments', '--params', 'equity']) == 0")
    assert loaded == []


def test_validate_c1_loads_no_heavy_scipy():
    # run_all imports a group's scipy submodules only when that group runs
    loaded = _scipy_loaded_after("from gtsou.cli import main\n"
                                 "assert main(['validate', '--ids', 'C1']) == 0")
    assert loaded == []


@pytest.mark.parametrize("argv", [
    ["simulate", "--params", "equity", "--n-steps", "500", "--mode", "gts"],
    ["simulate", "--params", "crypto", "--n-steps", "500", "--mode", "sd"],
    ["validate", "--ids", "C7"],
])
def test_simulation_loads_no_scipy(argv, tmp_path):
    setup = f"import os\nos.environ['GTSOU_OUT_DIR'] = {str(tmp_path)!r}\n"
    loaded = _scipy_loaded_after(setup + "from gtsou.cli import main\n"
                                 f"assert main({argv!r}) == 0")
    assert loaded == []


@pytest.mark.parametrize("law", ["gts", "bdlp", "sd", "increment"])
def test_density_loads_no_scipy(law, tmp_path):
    out = str(tmp_path / "d.csv")
    loaded = _scipy_loaded_after("from gtsou.cli import main\n"
                                 "assert main(['density', '--params', 'crypto', "
                                 f"'--law', {law!r}, '--out', {out!r}]) == 0")
    assert loaded == []


def test_fit_loads_no_scipy(tmp_path):
    csv_path = tmp_path / "returns.csv"
    emit_series(csv_path, ReturnSeries(
        sample_marginal(EQUITY_PARAMS, Marginal.GTS, 400, np.random.default_rng(23)),
        source="synthetic"))
    out = str(tmp_path / "trace.csv")
    loaded = _scipy_loaded_after("from gtsou.cli import main\n"
                                 f"assert main(['fit', {str(csv_path)!r}, '--max-iter', '3', "
                                 f"'--out', {out!r}]) in (0, 1)")
    assert loaded == []


def test_sample_marginal_loads_no_scipy():
    # the inverse-transform draws take the numpy PCHIP of the inverse cdf
    loaded = _scipy_loaded_after("import numpy as np\n"
                                 "from gtsou import EQUITY_PARAMS, Marginal, sample_marginal\n"
                                 "sample_marginal(EQUITY_PARAMS, Marginal.GTS, 500, "
                                 "np.random.default_rng(4))")
    assert loaded == []


def test_validate_c8_loads_no_scipy():
    loaded = _scipy_loaded_after("from gtsou.cli import main\n"
                                 "assert main(['validate', '--ids', 'C8']) == 0")
    assert loaded == []


def test_density_sd_at_zero_beta_loads_no_scipy(tmp_path):
    # a zero beta makes the SD Levy density an exponential integral E1
    params = tmp_path / "p.json"
    EQUITY_PARAMS.replace(beta_plus=0.0, beta_minus=0.0).save(params)
    out = str(tmp_path / "d.csv")
    loaded = _scipy_loaded_after("from gtsou.cli import main\n"
                                 f"assert main(['density', '--params', {str(params)!r}, "
                                 f"'--law', 'sd', '--out', {out!r}]) == 0")
    assert loaded == []


def test_negative_order_incomplete_gamma_loads_no_scipy():
    # both branches at s <= -1/2: the continued fraction and the recurrence
    # from the series at s + 1
    loaded = _scipy_loaded_after("from gtsou import upper_incomplete_gamma\n"
                                 "upper_incomplete_gamma(-0.68, [0.1, 1.0])")
    assert loaded == []
