"""Parameter set shared by every law in the package."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

# Canonical ordering used for vectors, fit traces and file formats.
PARAM_NAMES = (
    "mu",
    "beta_plus",
    "beta_minus",
    "alpha_plus",
    "alpha_minus",
    "lambda_plus",
    "lambda_minus",
)


@dataclass(frozen=True)
class GtsParams:
    """Seven parameters of a generalized tempered stable (GTS) law.

    ``mu`` is the location drift (return units). Each jump side carries a
    stability index ``beta`` in [0, 1), an intensity ``alpha >= 0`` and an
    exponential tempering rate ``lambda > 0``. ``beta = 1`` is rejected
    because the gamma factor Gamma(-beta) in the exponent degenerates there;
    ``lambda = 0`` is rejected because tempering would vanish and moments
    blow up.
    """

    mu: float
    beta_plus: float
    beta_minus: float
    alpha_plus: float
    alpha_minus: float
    lambda_plus: float
    lambda_minus: float

    def __post_init__(self):
        for name in PARAM_NAMES:
            object.__setattr__(self, name, float(getattr(self, name)))
        self.validate()

    def validate(self) -> None:
        """Raise ValueError with a named diagnostic if any field is out of domain."""
        if not np.isfinite(self.as_vector()).all():
            raise ValueError("GTS parameters must all be finite")
        for side, (_, beta, alpha, lam) in zip(("plus", "minus"), self.sides()):
            if not 0.0 <= beta < 1.0:
                raise ValueError(
                    f"beta_{side}={beta:g} outside [0, 1): the finite-variation "
                    "regime excludes beta=1 (gamma-factor pole)"
                )
            if alpha < 0.0:
                raise ValueError(f"alpha_{side}={alpha:g} must be >= 0")
            if lam <= 0.0:
                raise ValueError(f"lambda_{side}={lam:g} must be > 0")

    def sides(self) -> tuple:
        """``(sign, beta, alpha, lambda)`` of the plus side (sign +1), then of
        the minus side (sign -1).  Every two-sided quantity is its one-sided
        formula evaluated at ``sign * x`` with one side's parameters."""
        return ((1.0, self.beta_plus, self.alpha_plus, self.lambda_plus),
                (-1.0, self.beta_minus, self.alpha_minus, self.lambda_minus))

    # -- conversions ------------------------------------------------------

    def as_vector(self) -> np.ndarray:
        return np.array([getattr(self, n) for n in PARAM_NAMES], dtype=float)

    @classmethod
    def from_vector(cls, v) -> "GtsParams":
        v = np.asarray(v, dtype=float)
        if v.shape != (len(PARAM_NAMES),):
            raise ValueError(f"expected a {len(PARAM_NAMES)}-vector, got shape {v.shape}")
        return cls(*v)

    def to_dict(self) -> dict:
        return {n: getattr(self, n) for n in PARAM_NAMES}

    @classmethod
    def from_dict(cls, d: dict) -> "GtsParams":
        missing = [n for n in PARAM_NAMES if n not in d]
        if missing:
            raise ValueError(f"parameter file is missing fields: {', '.join(missing)}")
        return cls(**{n: float(d[n]) for n in PARAM_NAMES})

    def replace(self, **kw) -> "GtsParams":
        d = self.to_dict()
        d.update(kw)
        return GtsParams.from_dict(d)

    # -- file format ------------------------------------------------------

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "GtsParams":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


assert tuple(f.name for f in fields(GtsParams)) == PARAM_NAMES

# Bundled reference parameter sets: seven-parameter fits of daily percent
# log-returns (a large-cap equity index and a major cryptocurrency), used by
# the validation suite and available to the CLI as named presets.
EQUITY_PARAMS = GtsParams(
    mu=-0.693477, beta_plus=0.682290, beta_minus=0.242579,
    alpha_plus=0.458582, alpha_minus=0.414443,
    lambda_plus=0.822222, lambda_minus=0.727607,
)
CRYPTO_PARAMS = GtsParams(
    mu=-0.736924, beta_plus=0.461378, beta_minus=0.267178,
    alpha_plus=0.810017, alpha_minus=0.517347,
    lambda_plus=0.215628, lambda_minus=0.191937,
)
PRESETS = {"equity": EQUITY_PARAMS, "crypto": CRYPTO_PARAMS}
