"""Command-line surface: fit return series, tabulate densities and
exponents, simulate the OU-type processes, print stationary moments, and run
the built-in validation suite.

All outputs are plain CSV/JSON.  Relative output paths resolve against
$GTSOU_OUT_DIR when it is set.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .ou import OuConfig
    from .params import GtsParams

# Each subcommand imports what it uses when it runs: --help loads no scipy, and
# moments and density load none of scipy.optimize, scipy.interpolate,
# scipy.integrate and scipy.signal.
_MODES = ("gts", "sd")


def _load_params(spec: str) -> GtsParams:
    """Accept either a bundled preset name or a JSON parameter file path."""
    from .params import PRESETS, GtsParams

    if spec in PRESETS:
        return PRESETS[spec]
    if os.path.exists(spec):
        return GtsParams.load(spec)
    raise ValueError(
        f"--params: {spec!r} is neither a preset ({', '.join(sorted(PRESETS))}) "
        "nor an existing file"
    )


def _out_path(arg: str | None, default_name: str) -> str:
    base = os.environ.get("GTSOU_OUT_DIR", "")
    name = default_name if arg is None else arg
    if os.path.isabs(name):
        return name
    return os.path.join(base, name) if base else name


def _sibling(path: str, suffix: str) -> str:
    stem, _ = os.path.splitext(path)
    return stem + suffix


def _print_report(report) -> None:
    print(f"{'indicator':<12}{'exact':>12}{'empirical':>12}{'error %':>10}")
    for name, exact, emp, err in report.table_rows():
        print(f"{name:<12}{exact:>12.5f}{emp:>12.5f}{err:>10.2f}")


# --- subcommands ------------------------------------------------------------

def cmd_fit(args) -> int:
    from .estimation import fit, moment_matched_init
    from .io import SeriesKind, ingest, write_trace_csv

    series = ingest(args.data, SeriesKind(args.kind))
    init = _load_params(args.init) if args.init else moment_matched_init(series.values)
    trace = fit(series.values, init, grad_tol=args.grad_tol, max_iter=args.max_iter)

    out = _out_path(args.out, "fit_trace.csv")
    write_trace_csv(out, trace)
    final = trace.final
    final.params.save(_sibling(out, "_params.json"))

    print(f"fit: {len(trace.states) - 1} iterations, converged={trace.converged} "
          f"({trace.reason})")
    print(f"grid: {trace.grid.n_points} points on [{trace.grid.x_min:.4g}, "
          f"{trace.grid.x_max:.4g}], xi_max {trace.grid.xi_max:.4g}")
    print(f"log-likelihood {final.log_likelihood:.4f}, gradient norm "
          f"{final.gradient_norm:.3e}, max Hessian eigenvalue {final.max_eigenvalue:.4e}")
    for name, value in final.params.to_dict().items():
        print(f"  {name:<12} {value: .6f}")
    print(f"trace -> {out}")
    print(f"params -> {_sibling(out, '_params.json')}")
    return 0 if trace.converged else 1


def _density_dispatch(law: str, p: GtsParams, c: OuConfig | None):
    """(exponent callable, Levy-density callable or None, grid mean, grid sd)."""
    import numpy as np

    from .cumulants import Marginal, cumulants, stationary_moments
    from .exponents import bdlp_exponent
    from .levy import levy_density_bdlp, levy_density_gts, levy_density_sd
    from .ou import increment_cumulants, increment_exponent, marginal_exponent

    if law in _MODES:  # a stationary marginal
        mode = Marginal(law)
        sm = stationary_moments(p, mode)
        levy = levy_density_gts if mode is Marginal.GTS else levy_density_sd
        return marginal_exponent(p, mode), lambda x: levy(x, p), sm.mean, sm.std_dev
    if law == "bdlp":
        k = cumulants(p, 2)  # time-1 driver law: kappa_k scaled by k
        return (lambda xi: bdlp_exponent(xi, p), lambda x: levy_density_bdlp(x, p),
                k[1], float(np.sqrt(2.0 * k[2])))
    if law == "increment":
        k = increment_cumulants(p, c, 2)
        return (lambda xi: increment_exponent(xi, p, c), None,
                k[1], float(np.sqrt(k[2])))
    raise ValueError(f"unknown law {law!r}")


def cmd_density(args) -> int:
    import numpy as np

    from .cumulants import Marginal
    from .inversion import default_grid, invert_cf
    from .io import write_density_csv, write_exponent_csv
    from .ou import OuConfig

    p = _load_params(args.params)
    c = None
    if args.law == "increment":
        c = OuConfig(lambda_rate=args.ou_lambda, dt=args.dt, mode=Marginal(args.mode))
    exponent, levy_fn, mean, sd = _density_dispatch(args.law, p, c)

    g = default_grid(exponent, mean, sd, n_points=args.grid_n, span=args.span,
                     xi_max=args.xi_max)
    grid = invert_cf(exponent, g)

    out = _out_path(args.out, f"density_{args.law}.csv")
    write_density_csv(out, grid, levy_fn)
    xi = np.linspace(-g.xi_max, g.xi_max, 1001)
    write_exponent_csv(_sibling(out, "_exponent.csv"), xi, exponent(xi))

    print(f"{args.law} density on [{g.x_min:.4g}, {g.x_max:.4g}], "
          f"{g.n_points} points, frequency cutoff {g.xi_max:.4g}")
    print(f"density -> {out}")
    print(f"exponent -> {_sibling(out, '_exponent.csv')}")
    return 0


def cmd_simulate(args) -> int:
    from .cumulants import Marginal
    from .io import write_json, write_paths_csv
    from .ou import OuConfig, ensemble_moments, simulate_ensemble

    p = _load_params(args.params)
    if args.n_paths < 1:
        raise ValueError("--n-paths must be >= 1")
    c = OuConfig(lambda_rate=args.ou_lambda, dt=args.dt, mode=Marginal(args.mode),
                 x0=args.x0, n_steps=args.n_steps, seed=args.seed)
    paths = simulate_ensemble(p, c, args.n_paths)
    report = ensemble_moments(paths, p, c)

    out = _out_path(args.out, "paths.csv")
    write_paths_csv(out, paths)
    write_json(_sibling(out, "_report.json"), report.to_dict())

    start = "stationary draw" if c.stationary_start else f"x0={c.x0:g}"
    print(f"{args.n_paths} path(s) x {c.n_steps} steps, {args.mode} marginal, "
          f"a={c.a:.6f}, start: {start}")
    _print_report(report)
    print(f"paths -> {out}")
    print(f"report -> {_sibling(out, '_report.json')}")
    return 0


def cmd_moments(args) -> int:
    from .cumulants import Marginal, cumulants, stationary_moments
    from .io import write_json

    p = _load_params(args.params)
    tags = _MODES if args.mode == "both" else (args.mode,)
    payload = {tag: stationary_moments(p, Marginal(tag)).as_dict() for tag in tags}
    k = cumulants(p, 4)
    payload["cumulants"] = {f"kappa{i}": k[i] for i in range(1, 5)}
    for tag in tags:
        row = payload[tag]
        print(f"{tag}: mean={row['mean']:.5f} std={row['std_dev']:.5f} "
              f"skew={row['skewness']:.5f} kurt={row['kurtosis']:.5f}")
    if args.out is not None:
        out = _out_path(args.out, "moments.json")
        write_json(out, payload)
        print(f"moments -> {out}")
    return 0


def cmd_validate(args) -> int:
    from .io import write_json
    from .validation import run_all

    ids = None
    if args.ids:
        ids = [piece for part in args.ids.split(",") if (piece := part.strip())]
    results = run_all(ids)
    for r in results:
        print(f"{r.check_id:<4} {'PASS' if r.passed else 'FAIL'} "
              f"({r.seconds:7.2f}s)  {r.description}")
        print(f"      {r.detail}")
    failed = [r.check_id for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed"
          + (f"; failing: {', '.join(failed)}" if failed else ""))
    if args.out is not None:
        out = _out_path(args.out, "validation.json")
        write_json(out, {"results": [dataclasses.asdict(r) for r in results],
                         "passed": not failed})
        print(f"report -> {out}")
    return 1 if failed else 0


# --- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gtsou",
        description="GTS distribution toolkit: density inversion, maximum "
                    "likelihood, and OU-type simulation.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    f = sub.add_parser("fit", help="maximum-likelihood fit of a return series")
    f.add_argument("data", help="CSV with one numeric column")
    f.add_argument("--kind", choices=["prices", "returns"], default="returns",
                   help="prices are converted to 100*diff(log)")
    f.add_argument("--init", help="starting parameters (preset or JSON file); "
                                  "default: moment-matched")
    f.add_argument("--grad-tol", type=float, default=1e-4)
    f.add_argument("--max-iter", type=int, default=200)
    f.add_argument("--out", help="trace CSV path (default fit_trace.csv)")
    f.set_defaults(func=cmd_fit)

    d = sub.add_parser("density", help="tabulate a density, CDF and exponent")
    d.add_argument("--params", required=True, help="preset name or JSON file")
    d.add_argument("--law", choices=["gts", "bdlp", "sd", "increment"],
                   default="gts")
    d.add_argument("--mode", choices=_MODES, default="sd",
                   help="marginal for --law increment")
    d.add_argument("--ou-lambda", type=float, default=1.0)
    d.add_argument("--dt", type=float, default=1.0)
    d.add_argument("--seed", type=int, default=0,
                   help="accepted and ignored: no law's table is random")
    d.add_argument("--grid-n", type=int, default=16384,
                   help="rows of the table: exactly this many x nodes (a power of two)")
    d.add_argument("--span", type=float, default=15.0,
                   help="half-width of the x-range in standard deviations")
    d.add_argument("--xi-max", type=float, default=None,
                   help="override the automatic frequency cutoff")
    d.add_argument("--out", help="density CSV path")
    d.set_defaults(func=cmd_density)

    s = sub.add_parser("simulate", help="simulate stationary OU-type paths")
    s.add_argument("--params", required=True)
    s.add_argument("--mode", choices=_MODES, default="sd")
    s.add_argument("--ou-lambda", type=float, default=1.0)
    s.add_argument("--dt", type=float, default=1.0)
    s.add_argument("--x0", type=float, default=None,
                   help="fixed start (default: draw from the stationary law)")
    s.add_argument("--n-steps", type=int, default=5000)
    s.add_argument("--n-paths", type=int, default=1)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", help="paths CSV path (default paths.csv)")
    s.set_defaults(func=cmd_simulate)

    m = sub.add_parser("moments", help="closed-form stationary moments")
    m.add_argument("--params", required=True)
    m.add_argument("--mode", choices=[*_MODES, "both"], default="both")
    m.add_argument("--out", nargs="?", const="moments.json", default=None,
                   help="also write JSON (optional path)")
    m.set_defaults(func=cmd_moments)

    v = sub.add_parser("validate", help="run the acceptance checks")
    v.add_argument("--ids", help="comma-separated check ids (default: all)")
    v.add_argument("--out", nargs="?", const="validation.json", default=None,
                   help="also write a JSON report (optional path)")
    v.set_defaults(func=cmd_validate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
