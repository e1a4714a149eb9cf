"""The trapezoid sum that ``InversionPlan`` folds into one FFT, term by term:
the shared reference of the inversion and the likelihood tests."""

import numpy as np

from gtsou.frft import phase_mod2


def direct_sum(g, s, t=None):
    """(dxi/2pi) sum_{|k| <= K} w_k s_k e^(-i k dxi x) at x = x_min + t dx
    for any real t (the x nodes, t = 0..n-1, when t is None): w = 1/2 at
    |k| = K, dxi = pi/(n dx), K the first index with K dxi >= xi_max, and
    s_(-k) = conj(s_k).  The phase k dxi x / pi is reduced mod 2 in two
    parts, k x_min / (n dx) and (t / n) k, each to about an ulp (t / n is
    exact, n being a power of two)."""
    n = g.n_points
    t = np.arange(n) if t is None else np.asarray(t, dtype=float)
    dx = (g.x_max - g.x_min) / (n - 1)
    dxi = np.pi / (n * dx)
    k = np.arange(int(np.ceil(g.xi_max / dxi)) + 1)
    assert k[-1] * dxi >= g.xi_max > (k[-1] - 1) * dxi
    w = np.where(k == k[-1], 0.5, 1.0) * np.where(k > 0, 2.0, 1.0)
    out = np.empty(t.size)
    for part in np.array_split(np.arange(t.size), max(1, t.size * k.size // 2**20)):
        phase = np.exp(-1j * np.pi * (phase_mod2(g.x_min / (n * dx), k)
                                      + phase_mod2(t[part, None] / n, k)))
        out[part] = dxi / (2.0 * np.pi) * np.real(phase @ (w * s))
    return out
