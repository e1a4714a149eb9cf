"""Benchmark entry point: one run of one workload.

    python3 benchmarks/run.py --workload {fit,simulate_density} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Runs from the root of a source checkout and imports ``gtsou`` from its
``src/`` directory; nothing is installed.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is a JSON object ``{"info": ...}`` with the
machine, library versions, thread settings, input digest, sample counts and
every failed operation.

Both modes first run one untimed pass of the workload at smoke size, so that
lazy imports and first calls are done before anything is timed.
``--trace 0`` then repeats passes over the workload's operations until
``--seconds`` have elapsed (at least one pass) and reports the end-to-end
metrics.  ``--trace 1`` runs one untraced pass and then one traced pass,
whatever ``--seconds`` says, and reports the per-layer metrics; the spans
themselves are written to ``benchmarks/out/spans-<workload>.csv.gz``.
``--smoke`` shrinks every workload to a tiny size; only the smoke test uses it.

See README.md in this directory for why each workload exists and which
end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Thread pools never exceed the cores this process may run on.  Set before
# numpy is imported; the set-up probes inherit them.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, str(NPROC))

SETUP_REPEATS = 3
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import gtsou\n"
    "print(time.perf_counter() - t0)\n"
    "print(gtsou.__file__)\n"
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, wrong package)."""


def measure_setup(repeats: int) -> list:
    """Seconds for ``import gtsou`` in fresh interpreters, one per repeat."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"import gtsou failed in a fresh interpreter:\n{proc.stderr}")
        seconds, location = proc.stdout.split("\n")[:2]
        if not location.startswith(SRC + os.sep):
            raise BenchError(f"gtsou was imported from {location}, not from {SRC}")
        times.append(float(seconds))
    return times


def import_gtsou() -> None:
    if not os.path.isfile(os.path.join(SRC, "gtsou", "__init__.py")):
        raise BenchError(f"no gtsou source tree under {SRC}")
    sys.path.insert(0, SRC)
    import gtsou
    if not gtsou.__file__.startswith(SRC + os.sep):
        raise BenchError(f"gtsou was imported from {gtsou.__file__}, not from {SRC}")


def machine_info() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def warm_up(name: str, seed: int, out_dir: str) -> float:
    """One untimed pass at smoke size; its outputs are neither checked nor
    counted.  Returns its wall time."""
    from workloads import WORKLOADS, run_pass

    return run_pass(WORKLOADS[name](seed, True, out_dir))[1]


def median_pass_s(passes) -> float:
    """Sum over the operations of each one's median time across passes.

    With one pass this is the pass's time.  With more, a slow spell of the
    machine that covers one operation in one pass does not move the sum."""
    times = {}
    for records, _ in passes:
        for r in records:
            times.setdefault(r.label, []).append(r.wall_s)
    return sum(statistics.median(t) for t in times.values())


def end_to_end(workload, seconds: float, setup: list):
    from workloads import run_pass

    passes = []
    t0 = perf_counter()
    while not passes or perf_counter() - t0 < seconds:
        passes.append(run_pass(workload))
    records = [r for recs, _ in passes for r in recs]
    values = {
        "setup_s": statistics.median(setup),
        "pass_s": median_pass_s(passes),
        "peak_rss_mb": peak_rss_mb(),
        "ok_ops_frac": sum(not r.failed for r in records) / len(records),
    }
    return passes, values, {"setup_s": len(setup), "pass_s": len(passes)}


def per_layer(workload, span_path: str):
    from tracing import Tracer
    from workloads import run_pass

    untraced, untraced_s = run_pass(workload)
    with Tracer() as tracer:
        traced, traced_s = run_pass(workload)
    os.makedirs(os.path.dirname(span_path), exist_ok=True)
    tracer.write(span_path)

    s = tracer.summary()

    def get(name, key):
        return s[name][key] if name in s else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    iterations = get("estimation.fit", "iterations")
    # likelihood evaluations made by fit itself (start point and line search),
    # not by the finite-difference stencil; the first one is the start point
    line_search_evals = (tracer.count_children("estimation.fit", "estimation.log_likelihood")
                         - get("estimation.fit", "calls"))
    records = untraced + traced
    values = {
        "frft.frft.calls": get("frft.frft", "calls"),
        "frft.frft.self_s": get("frft.frft", "self_s"),
        "frft.frft.fft_len_sum": get("frft.frft", "fft_len"),
        "frft.frft.flops_computed": get("frft.frft", "flops"),
        "frft.frft.bytes_computed": get("frft.frft", "bytes"),
        "inversion.invert_cf.calls": get("inversion.invert_cf", "calls"),
        "inversion.invert_cf.self_s": get("inversion.invert_cf", "self_s"),
        "inversion.invert_cf.points": get("inversion.invert_cf", "points"),
        "inversion.default_xi_max.calls": get("inversion.default_xi_max", "calls"),
        "inversion.default_xi_max.self_s": get("inversion.default_xi_max", "self_s"),
        "inversion.default_xi_max.probes_per_call": ratio(
            get("inversion.default_xi_max", "probes"), get("inversion.default_xi_max", "calls")),
        "inversion.quantile.calls": get("inversion.quantile", "calls"),
        "inversion.quantile.self_s": get("inversion.quantile", "self_s"),
        "estimation.fit.iterations": iterations,
        "estimation.fit.self_s": get("estimation.fit", "self_s"),
        "estimation.log_likelihood.calls": get("estimation.log_likelihood", "calls"),
        "estimation.log_likelihood.self_s": get("estimation.log_likelihood", "self_s"),
        "estimation.log_likelihood.calls_per_iter": ratio(
            get("estimation.log_likelihood", "calls"), iterations),
        "estimation.score_and_hessian.self_s": get("estimation.score_and_hessian", "self_s"),
        "estimation.max_eigenvalue.self_s": get("estimation.max_eigenvalue", "self_s"),
        "estimation.line_search.accept_ratio": ratio(iterations, line_search_evals),
        "exponents.psi_gts.calls": get("exponents.psi_gts", "calls"),
        "exponents.psi_gts.points": get("exponents.psi_gts", "points"),
        "exponents.psi_gts.self_s": get("exponents.psi_gts", "self_s"),
        "exponents.sd_exponent.scalar_calls": get("exponents.sd_exponent", "scalar"),
        "exponents.sd_exponent.array_calls": (get("exponents.sd_exponent", "calls")
                                              - get("exponents.sd_exponent", "scalar")),
        "exponents.sd_exponent.self_s": get("exponents.sd_exponent", "self_s"),
        "ou.increment_exponent.calls": get("ou.increment_exponent", "calls"),
        "ou.increment_exponent.self_s": get("ou.increment_exponent", "self_s"),
        "ou.build_increment_sampler.self_s": get("ou.build_increment_sampler", "self_s"),
        "ou.simulate_ensemble.self_s": get("ou.simulate_ensemble", "self_s"),
        "levy.levy_density.calls": get("levy.levy_density", "calls"),
        "levy.levy_density.self_s": get("levy.levy_density", "self_s"),
        "io.write_density_csv.self_s": get("io.write_density_csv", "self_s"),
        "io.write_exponent_csv.self_s": get("io.write_exponent_csv", "self_s"),
        "io.bytes_written": (get("io.write_density_csv", "bytes")
                             + get("io.write_exponent_csv", "bytes")),
        "cli.main.self_s": get("cli.main", "self_s"),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "trace.untraced_frac": 1.0 - tracer.top_level_s() / traced_s,
        "failed_ops_frac": sum(r.failed for r in records) / len(records),
        "ops_attempted": len(records),
        # each workload's own end-to-end breakdown, from the untraced pass;
        # zero on the workloads it does not apply to
        "fit_s": 0.0, "sampler_build_s": 0.0, "path_steps_per_s": 0.0,
        "density_table_s": 0.0,
    }
    values.update(workload.pass_metrics(untraced))
    passes = [(untraced, untraced_s), (traced, traced_s)]
    return passes, values, {"untraced_pass": 1, "traced_pass": 1, "spans": len(tracer.spans)}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the smoke test only")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    try:
        setup = [] if args.trace else measure_setup(1 if args.smoke else SETUP_REPEATS)
        import_gtsou()
    except (BenchError, subprocess.SubprocessError, ValueError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        warm_s = warm_up(args.workload, args.seed, tmp)
        workload = WORKLOADS[args.workload](args.seed, args.smoke, tmp)
        if args.trace:
            span_path = os.path.join(OUT, f"spans-{args.workload}.csv.gz")
            passes, values, samples = per_layer(workload, span_path)
        else:
            passes, values, samples = end_to_end(workload, args.seconds, setup)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(declared):
        raise BenchError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(declared))}")

    records = [r for recs, _ in passes for r in recs]
    failures = [{"pass": i, "op": r.label, "error": r.error, "check": r.check}
                for i, (recs, _) in enumerate(passes) for r in recs if r.failed]
    for f in failures:
        print(f"failed: pass {f['pass']} {f['op']}: {f['error'] or f['check']}",
              file=sys.stderr)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "inputs_sha256": workload.inputs_sha256,
        "samples": samples, "warm_up_s": warm_s, "pass_s": [wall for _, wall in passes],
        "op_s": [[r.label, r.wall_s] for r in records],
        "setup_s": setup, "env": machine_info(), "failures": failures,
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        # a raised exception is a failed operation without an output; a check
        # that fails on an output the program returned makes the run incorrect
        "correct": not any(r.check for r in records),
        "attempted": len(records),
        "failed": sum(r.failed for r in records),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
