"""In-memory span tracing around the public functions of the gtsou modules.

Spans are recorded from the benchmark's side only: each traced function is
replaced, in every loaded ``gtsou`` module that binds it, by a wrapper that
records ``[name, parent, start, end, attrs]``.  ``from .x import y`` copies a
binding, so ``psi_gts`` for instance is replaced in ``exponents``,
``estimation``, ``ou``, ``cli`` and the package itself.  Calls made through
those module globals (the lambdas inside ``estimation``, ``ou`` and ``cli``
included) then go through the wrapper.

A span's self time is its duration minus the time its direct children cover;
calls are synchronous in one thread, so children never overlap.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


class _CountingExponent:
    """Wraps the exponent handed to ``default_xi_max`` to count its probes."""

    def __init__(self, fn):
        self.fn = fn
        self.probes = 0

    def __call__(self, xi):
        self.probes += 1
        return self.fn(xi)


def _frft_attrs(args, kwargs, result):
    n = int(np.size(args[0] if args else kwargs["seq"]))
    m = 1 << int(np.ceil(np.log2(max(2 * n - 1, 1))))
    return {
        "fft_len": m,
        # three complex FFTs of length m at the usual 5 m log2(m) flops each,
        # plus the pointwise spectrum product (6 flops per complex multiply)
        "flops": 3 * 5 * m * np.log2(m) + 6 * m,
        # each FFT reads and writes m complex128 values; the product reads two
        # spectra and writes one
        "bytes": 3 * 2 * 16 * m + 3 * 16 * m,
    }


def _points_attrs(args, kwargs, result):
    return {"points": int(np.size(args[0] if args else kwargs["xi"]))}


def _sd_attrs(args, kwargs, result):
    xi = args[0] if args else kwargs["xi"]
    return {"scalar": np.ndim(xi) == 0}


def _grid_attrs(args, kwargs, result):
    g = args[1] if len(args) > 1 else kwargs["g"]
    return {"points": int(g.n_points)}


def _fit_attrs(args, kwargs, result):
    return {"iterations": len(result.states) - 1}


def _file_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _probe_before(args, kwargs):
    if args:
        return (_CountingExponent(args[0]), *args[1:]), kwargs
    return args, {**kwargs, "exponent": _CountingExponent(kwargs["exponent"])}


def _probe_attrs(args, kwargs, result):
    return {"probes": (args[0] if args else kwargs["exponent"]).probes}


# (module, function, span name, before hook, attrs hook).  The before hook
# may replace the arguments; the attrs hook reads the call and its result.
TARGETS = (
    ("gtsou.frft", "frft", "frft.frft", None, _frft_attrs),
    ("gtsou.inversion", "invert_cf", "inversion.invert_cf", None, _grid_attrs),
    ("gtsou.inversion", "default_xi_max", "inversion.default_xi_max",
     _probe_before, _probe_attrs),
    ("gtsou.inversion", "quantile", "inversion.quantile", None, None),
    ("gtsou.estimation", "fit", "estimation.fit", None, _fit_attrs),
    ("gtsou.estimation", "log_likelihood", "estimation.log_likelihood", None, None),
    ("gtsou.estimation", "score_and_hessian", "estimation.score_and_hessian",
     None, None),
    ("gtsou.estimation", "max_eigenvalue", "estimation.max_eigenvalue", None, None),
    ("gtsou.exponents", "psi_gts", "exponents.psi_gts", None, _points_attrs),
    ("gtsou.exponents", "sd_exponent", "exponents.sd_exponent", None, _sd_attrs),
    ("gtsou.ou", "increment_exponent", "ou.increment_exponent", None, None),
    ("gtsou.ou", "build_increment_sampler", "ou.build_increment_sampler",
     None, None),
    ("gtsou.ou", "simulate_ensemble", "ou.simulate_ensemble", None, None),
    ("gtsou.levy", "levy_density_gts", "levy.levy_density", None, None),
    ("gtsou.levy", "levy_density_bdlp", "levy.levy_density", None, None),
    ("gtsou.levy", "levy_density_sd", "levy.levy_density", None, None),
    ("gtsou.io", "write_density_csv", "io.write_density_csv", None, _file_attrs),
    ("gtsou.io", "write_exponent_csv", "io.write_exponent_csv", None, _file_attrs),
    ("gtsou.cli", "main", "cli.main", None, None),
)


class Tracer:
    """Records one span per traced call while installed."""

    def __init__(self):
        self.spans: list = []  # [name, parent index or -1, start, end, attrs]
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name, fn, before, attrs):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of each target in the loaded gtsou modules."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "gtsou" or key.startswith("gtsou."))]
        for mod_name, fn_name, span_name, before, attrs in TARGETS:
            orig = getattr(importlib.import_module(mod_name), fn_name)
            wrapped = self._wrap(span_name, orig, before, attrs)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapped)
                        self._undo.append((module, attr, orig))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._undo):
            setattr(module, attr, orig)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> np.ndarray:
        dur = np.array([s[3] - s[2] for s in self.spans])
        child = np.zeros_like(dur)
        for s, d in zip(self.spans, dur):
            if s[1] >= 0:
                child[s[1]] += d
        return dur - child

    def summary(self) -> dict:
        """Per span name: calls, self_s, and the sums of every numeric attr."""
        out: dict = defaultdict(lambda: defaultdict(float))
        for s, own in zip(self.spans, self.self_times()):
            row = out[s[0]]
            row["calls"] += 1
            row["self_s"] += float(own)
            for key, value in (s[4] or {}).items():
                row[key] += float(value)
        return out

    def top_level_s(self) -> float:
        return float(sum(s[3] - s[2] for s in self.spans if s[1] < 0))

    def count_children(self, parent_name: str, child_name: str) -> int:
        return sum(1 for s in self.spans
                   if s[0] == child_name and s[1] >= 0
                   and self.spans[s[1]][0] == parent_name)

    def write(self, path: str) -> None:
        """Gzipped CSV, one row per span, in call order."""
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "parent", "start_s", "end_s", "attrs"])
            t0 = self.spans[0][2] if self.spans else 0.0
            for i, (name, parent, start, end, attrs) in enumerate(self.spans):
                out.writerow([i, name, parent, f"{start - t0:.9f}",
                              f"{end - t0:.9f}",
                              "" if not attrs else
                              ";".join(f"{k}={v}" for k, v in attrs.items())])
