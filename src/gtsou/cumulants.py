"""Closed-form cumulants and stationary moments of the two marginal laws."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import gamma, inf, isfinite

import numpy as np

from .params import GtsParams


class Marginal(enum.Enum):
    """Which stationary law an OU-type recursion targets.

    GTS: the marginal is the GTS law itself (its driver is the BDLP).
    SD:  the marginal is the self-decomposable law whose driver is a GTS
         process; its k-th cumulant is kappa_k / k.
    """

    GTS = "gts"
    SD = "sd"


@dataclass(frozen=True)
class Cumulants:
    """Cumulants kappa_1..kappa_K; index with k starting at 1."""

    values: tuple

    def __getitem__(self, k: int) -> float:
        if not 1 <= k <= len(self.values):
            raise IndexError(f"cumulant index {k} outside 1..{len(self.values)}")
        return self.values[k - 1]

    def __len__(self) -> int:
        return len(self.values)


def cumulants(p: GtsParams, K: int = 4) -> Cumulants:
    """kappa_1 = mu + a+ G(1-b+)/l+^(1-b+) - a- G(1-b-)/l-^(1-b-);
    kappa_k = a+ G(k-b+)/l+^(k-b+) + (-1)^k a- G(k-b-)/l-^(k-b-) for k >= 2.

    ValueError, naming K, once a cumulant up to K is not a finite double:
    G(k-b) overflows from k - b > 171.6, and a G(k-b)/l^(k-b) earlier when
    l < 1 (equity from K = 162, crypto from K = 130)."""
    if K < 1:
        raise ValueError("K must be >= 1")
    out = []
    for k in range(1, K + 1):
        total = p.mu if k == 1 else 0.0
        try:
            for sign, beta, alpha, lam in p.sides():
                total += sign**k * alpha * gamma(k - beta) / lam ** (k - beta)
        except (OverflowError, ZeroDivisionError):
            total = inf
        if not isfinite(total):
            raise ValueError(f"cumulants up to K={K} need kappa_{k}, "
                             "which is not a finite double")
        out.append(total)
    return Cumulants(tuple(out))


@dataclass(frozen=True)
class StationaryMoments:
    """Mean/variance/skewness/kurtosis of a stationary marginal.

    ``kurtosis`` is the full Pearson kurtosis (3 + excess); it is identical
    in both modes because the SD law's moment ratios m4/m2^2 = kappa4/kappa2^2.
    """

    mean: float
    variance: float
    skewness: float
    kurtosis: float
    mode: Marginal

    @property
    def std_dev(self) -> float:
        return float(np.sqrt(self.variance))

    def as_dict(self) -> dict:
        """mean, variance, std_dev, skewness, kurtosis (in that order)."""
        return {"mean": self.mean, "variance": self.variance, "std_dev": self.std_dev,
                "skewness": self.skewness, "kurtosis": self.kurtosis}


def stationary_moments(p: GtsParams, mode: Marginal = Marginal.GTS) -> StationaryMoments:
    """Exact moments from cumulants.

    GTS marginal uses kappa_k directly; the SD marginal's cumulants are
    m_k = kappa_k / k, which gives variance kappa2/2 and skewness scaled by
    2^(3/2)/3 while leaving the kurtosis unchanged.
    """
    k = cumulants(p, 4)
    if k[2] <= 0.0:
        raise ValueError("degenerate parameters: zero variance")
    kurt = 3.0 + k[4] / k[2] ** 2
    if mode is Marginal.GTS:
        return StationaryMoments(k[1], k[2], k[3] / k[2] ** 1.5, kurt, mode)
    if mode is Marginal.SD:
        skew = (2.0**1.5 / 3.0) * k[3] / k[2] ** 1.5
        return StationaryMoments(k[1], k[2] / 2.0, skew, kurt, mode)
    raise ValueError(f"unknown marginal mode {mode!r}")
