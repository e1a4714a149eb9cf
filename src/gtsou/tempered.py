"""Exact variates of the one-sided tempered stable (TS) law: the law with
Levy density c x^(-1-beta) e^(-theta x) on x > 0 and no drift.

Write Lam = c Gamma(1-beta) theta^beta / beta.  Then theta * TS has Laplace
transform exp(-Lam ((1+s)^beta - 1)): it is a positive stable variate S with
E e^(-sS) = exp(-Lam s^beta), tilted by e^(-S).  Three routes cover the whole
domain:

* beta = 0: the law is Gamma(c, rate theta).
* Lam <= LAMBDA0: Kanter's representation of S (Kanter, Ann. Probab. 1975),
  split into m = ceil(Lam) i.i.d. pieces of parameter Lam/m, each accepted
  with probability e^(-piece) (acceptance at least e^(-1) per piece).
* Lam > LAMBDA0: Devroye's double rejection ("Random variate generation for
  exponentially and polynomially tilted stable distributions", ACM TOMACS
  2009), computed in logs so that it holds from beta = 0.99 down to
  beta = 1e-12, where Lam ~ 1/beta.

Both routes draw the pair (U, X) behind Kanter's S = (A(U)/X)^((1-beta)/beta),
X ~ Exp(1), with U uniform on (0, pi).  With zeta^2(u) = A(u)^(1-beta) /
A(0)^(1-beta) (>= 1, rising in u), the tilted pair has the joint density

    zeta^2(u) e^(-Lam (zeta^2(u) - 1)) e^(-L(u) g(t)) du dt,

in t = X / mode(X | U = u), where L = Lam beta zeta^2, b = (1-beta)/beta and
g(t) = b (t - 1) + t^(-b) - 1 >= 0.  Double rejection proposes u from a
mixture that bounds the u-marginal, then t from a half-normal, flat and
exponential envelope of e^(-L g), and accepts with one exponential variate.
The variate is theta * TS = L t^(-b).
"""

from __future__ import annotations

from math import ceil, exp, gamma, log, pi, sqrt

import numpy as np

# Kanter's route takes Lam <= LAMBDA0, double rejection the rest.  Kanter
# costs about Lam e proposals per draw, double rejection a bounded number.
# Measured on a 2-core Xeon VM (medians of 7 x 8 calls of 5000 draws, beta in
# {1e-6, 0.25, 0.5, 0.7, 0.95}, three runs, numpy 2.4 with AVX-512 tan),
# microseconds per draw, Kanter / double rejection: Lam = 4: 0.8-1.2 /
# 1.1-1.9; Lam = 5: 0.9-1.3 / 1.1-1.9; Lam = 6: 0.8-1.3 / 0.8-1.3.  At
# Lam = 6 the two cost about the same, and Kanter's proposals keep growing.
LAMBDA0 = 5.0

_C1 = sqrt(pi / 2.0)


def tempered_stable(rng: np.random.Generator, n: int, beta: float, c: float,
                    theta: float) -> np.ndarray:
    """n i.i.d. TS variates with Levy density c x^(-1-beta) e^(-theta x);
    zeros when c = 0."""
    return tempered_stable_rows([rng], n, beta, c, theta)[0]


def tempered_stable_rows(rngs, n: int, beta: float, c: float,
                         theta: float) -> np.ndarray:
    """One row of ``tempered_stable(rng, n, beta, c, theta)`` per generator
    in ``rngs``, each bit for bit what that generator gives alone.  Kanter's
    first round runs its arithmetic once over all rows; the gamma route and
    double rejection run a generator at a time.  A generator listed twice
    would draw its first round twice before either row's later rounds, so
    the generators must be distinct."""
    if c == 0.0 or n == 0:
        return np.zeros((len(rngs), n))
    if beta == 0.0:
        out = np.stack([rng.standard_gamma(c, n) for rng in rngs])
    elif (lam := _lambda(beta, c, theta)) <= LAMBDA0:
        out = _kanter(rngs, n, beta, lam, max(1, ceil(lam)))
    else:
        out = np.stack([_double_rejection(rng, n, beta, lam) for rng in rngs])
    out /= theta
    return out


def kanter_proposals(n: int, beta: float, c: float, theta: float) -> int:
    """Proposals per generator in Kanter's first round of
    ``tempered_stable_rows``; 0 off Kanter's route."""
    if c == 0.0 or n == 0 or beta == 0.0:
        return 0
    lam = _lambda(beta, c, theta)
    if lam > LAMBDA0:
        return 0
    m = max(1, ceil(lam))
    return _proposals(n * m, lam, m)


def _lambda(beta: float, c: float, theta: float) -> float:
    """Lam = c Gamma(1-beta) theta^beta / beta, for beta > 0."""
    return c * gamma(1.0 - beta) * theta**beta / beta


def _log_inv_sinc(h: np.ndarray) -> np.ndarray:
    """log(x / sin x) at x = 2h in (0, pi), computed in h's buffer.  With
    t = tan(h), sin x = 2t/(1+t^2), so x / sin x = (1 + t^2) / (t/h), which
    stays 1 where h^2 underflows: numpy's tan is a SIMD loop where its sin is
    not."""
    ratio = np.tan(h)
    ratio /= h
    h *= ratio
    h *= h
    h += 1.0
    h /= ratio
    return np.log(h, out=h)


def _log_zeta2(u: np.ndarray, beta: float) -> np.ndarray:
    """log zeta^2(u) = log(A(u)^(1-beta) / A(0)^(1-beta)) for Zolotarev's
    A(u)^(1-beta) = sin(beta u)^beta sin((1-beta) u)^(1-beta) / sin(u),
    written with log(sin(x)/x) so that it tends to 0 as u -> 0 (at u = 0
    itself it is nan, which every caller rejects).  u lies in [0, pi) and is
    left as it is."""
    # beta lsinc(beta u) + (1-beta) lsinc((1-beta) u) - lsinc(u), in place,
    # with lsinc(x) = log(sin(x)/x) = -_log_inv_sinc(x/2)
    out = _log_inv_sinc((0.5 * beta) * u)
    out *= -beta
    out -= (1.0 - beta) * _log_inv_sinc((0.5 - 0.5 * beta) * u)
    out += _log_inv_sinc(0.5 * u)
    return out


def _proposals(need: int, lam: float, m: int) -> int:
    """Proposals for one Kanter round short of ``need`` pieces: about
    need e^(lam/m), with 5% and 16 to spare."""
    return int(need * exp(lam / m) * 1.05) + 16


def _kanter_round(rngs, k: int, beta: float, shift: float) -> tuple:
    """(pieces, accepted): one round of k proposals per generator, a row each.
    A piece is exp((shift + log zeta^2(pi U) - (1-beta) log X) / beta), with
    U uniform on [0, 1) and X ~ Exp(1), accepted when an Exp(1) variate E
    exceeds it.  Each generator reads U, X, E in turn from its own stream,
    each into its row of one buffer once the buffer's last use is done."""
    draws = np.empty((len(rngs), k))
    with np.errstate(over="ignore"):
        for rng, row in zip(rngs, draws):
            rng.random(out=row)
        draws *= pi
        piece = _log_zeta2(draws, beta)
        piece += shift
        for rng, row in zip(rngs, draws):
            rng.standard_exponential(out=row)
        np.log(draws, out=draws)
        draws *= 1.0 - beta
        piece -= draws
        piece /= beta
        np.exp(piece, out=piece)
    for rng, row in zip(rngs, draws):
        rng.standard_exponential(out=row)
    return piece, draws > piece


def _kanter(rngs, n: int, beta: float, lam: float, m: int) -> np.ndarray:
    """One row of n draws of theta * TS per generator, each draw the sum of m
    tilted pieces of parameter lam/m.  A piece is (lam/m)^(1/beta)
    (A(U)/X)^((1-beta)/beta), accepted when an Exp(1) variate exceeds it.

    The first round runs its arithmetic once over all generators' proposals;
    a row short of n m accepted pieces then draws further rounds from its own
    generator."""
    need = n * m
    # log piece = (log(lam/m) + log A(U)^(1-beta) - (1-beta) log X) / beta, and
    # log A(U)^(1-beta) = log zeta^2(U) + log(beta^beta (1-beta)^(1-beta)).
    shift = log(lam / m) + beta * log(beta) + (1.0 - beta) * log(1.0 - beta)
    pieces, accepted = _kanter_round(rngs, _proposals(need, lam, m), beta, shift)
    out = np.empty((len(rngs), n))
    for rng, row, piece, ok in zip(rngs, out, pieces, accepted):
        piece = piece[ok]
        if piece.size < need:
            kept, got = [piece], piece.size
            while got < need:
                more, ok = _kanter_round([rng], _proposals(need - got, lam, m), beta, shift)
                kept.append(more[ok])
                got += kept[-1].size
            piece = np.concatenate(kept)
        # the m pieces of each draw added in order, as sum(axis=1) adds m < 8
        if m == 1:
            row[:] = piece[:n]
        else:
            np.add(piece[0:need:m], piece[1:need:m], out=row)
            for j in range(2, m):
                row += piece[j:need:m]
    return out


class _Envelope:
    """Devroye's bound on the u-marginal of the tilted pair, for one
    (beta, lam).  With gamma = lam beta (1-beta), it is pi d(u), where

        d(u) = xi e^(-gamma u^2/2) [gamma >= 1] + xi [gamma < 1]
               + psi / sqrt(pi - u),

    xi = (1 + sqrt(2) c3)/pi, psi = c3 e^(-gamma pi^2/8)/sqrt(pi) and
    c3 = (2 + sqrt(pi/2)) sqrt(gamma)."""

    def __init__(self, beta: float, lam: float):
        self.beta, self.lam = beta, lam
        self.b = (1.0 - beta) / beta
        self.gamma = lam * beta * (1.0 - beta)
        self.sg = sqrt(self.gamma)
        c3 = (2.0 + _C1) * self.sg
        self.log_xi = log((1.0 + sqrt(2.0) * c3) / pi)
        self.log_psi = log(c3) - self.gamma * pi * pi / 8.0 - 0.5 * log(pi)
        self.normal = self.gamma >= 1.0
        # mixture weights: int of the xi term, int_0^pi psi/sqrt(pi-u) du
        log_main = self.log_xi + (log(_C1 / self.sg) if self.normal else log(pi))
        log_tail = log(2.0 * sqrt(pi)) + self.log_psi
        self.p_main = 1.0 / (1.0 + exp(min(log_tail - log_main, 700.0)))

    def propose(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """k draws of u from the density proportional to d (may fall outside
        (0, pi) on the half-normal branch)."""
        main = rng.random(k) < self.p_main
        w = rng.random(k)
        body = (np.abs(rng.standard_normal(k)) / self.sg if self.normal else pi * w)
        return np.where(main, body, pi * (1.0 - w * w))

    def stage(self, u: np.ndarray) -> tuple:
        """(log zeta^2, sigma, tail, log rho) at u in (0, pi).  sigma is the
        half-normal scale of the t-envelope in units of the mode, ``tail`` is
        g'(1 + sigma)/b, and rho = pi d(u) / B(u) >= 1 is the envelope ratio,
        where B(u) = ((1 + sqrt(pi/2)) sqrt(gamma) zeta + 1/tail)
        e^(-lam (zeta^2 - 1)) bounds the u-marginal."""
        beta = self.beta
        lz2 = _log_zeta2(u, beta)
        zeta = np.exp(0.5 * lz2)
        sigma = beta / (self.sg * zeta)
        tail = -np.expm1(-np.log1p(sigma) / beta)
        log_b = np.log((1.0 + _C1) * self.sg * zeta + 1.0 / tail) - self.lam * np.expm1(lz2)
        far = self.log_psi - 0.5 * np.log(pi - u)
        near = self.log_xi - 0.5 * self.gamma * u * u if self.normal else self.log_xi
        return lz2, sigma, tail, log(pi) + np.logaddexp(near, far) - log_b


def _double_rejection(rng: np.random.Generator, n: int, beta: float,
                      lam: float) -> np.ndarray:
    """n draws of theta * TS by Devroye's double rejection."""
    env = _Envelope(beta, lam)
    b = env.b
    kept, got, rate = [], 0, 0.2
    while got < n:
        k = int((n - got) / rate * 1.1) + 64
        u = env.propose(rng, k)
        u = u[(u > 0.0) & (u < pi)]
        lz2, sigma, tail, log_rho = env.stage(u)
        e = rng.standard_exponential(u.size) - log_rho  # >= 0: u accepted
        big_l = lam * beta * np.exp(lz2)
        r = big_l * b * tail  # rate of the exponential piece of the t-envelope
        width = sigma * (1.0 + _C1) + 1.0 / r
        v = rng.random(u.size) * width
        nrm = rng.standard_normal(u.size)
        ex = rng.standard_exponential(u.size)
        left = v < sigma * _C1
        right = v >= sigma * (1.0 + _C1)
        flat = (v - sigma * _C1) / sigma  # uniform on [0, 1) on the flat piece
        d = np.where(left, -sigma * np.abs(nrm), np.where(right, sigma + ex / r, sigma * flat))
        log_env = np.where(left, -0.5 * nrm * nrm, np.where(right, -ex, 0.0))
        ok = (e >= 0.0) & (d > -1.0)
        lp = np.log1p(np.where(ok, d, 0.0))  # log t
        with np.errstate(over="ignore"):
            g = b * d + np.expm1(-b * lp)
        ok &= big_l * g + log_env <= e
        out = np.exp(np.log(big_l[ok]) - b * lp[ok])
        kept.append(out)
        got += out.size
        rate = max(out.size / k, 0.01)
    return np.concatenate(kept)[:n]
