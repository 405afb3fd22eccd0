"""Distance-to-gain conversion: power-law exponent model and Hata model,
and ``RadioEnv``, which pairs a model with the receiver's noise PSD.

Both models are exposed behind one ``gain`` function returning linear power
gain, so analytic checks (power law) and calibrated coverage runs (Hata)
share a single evaluation engine.  Functions accept scalars or numpy arrays
and are pure; instances are immutable and reentrant.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from sfn_lsi_sim.errors import ConfigurationError


class PathLossKind(Enum):
    POWER_LAW = "power_law"
    HATA = "hata"


@dataclass(frozen=True)
class PathLossModel:
    """Path loss model selection and parameters.

    POWER_LAW uses the dimensionless exponent ``eta`` only.  HATA uses the
    small/medium-city urban form and is valid for 150-1500 MHz, base antenna
    30-200 m, mobile antenna 1-10 m.
    """

    kind: PathLossKind = PathLossKind.HATA
    eta: float = 3.5
    f_mhz: float = 700.0
    hb_m: float = 30.0
    hm_m: float = 1.5

    def __post_init__(self):
        if self.kind is PathLossKind.POWER_LAW:
            if not 2.0 <= self.eta <= 6.0:
                raise ConfigurationError(
                    f"eta must satisfy 2 <= eta <= 6 (got {self.eta})", "eta"
                )
        else:
            if not 150.0 <= self.f_mhz <= 1500.0:
                raise ConfigurationError(
                    f"f_mhz must satisfy 150 <= f_mhz <= 1500 (got {self.f_mhz})", "f_mhz"
                )
            if not 30.0 <= self.hb_m <= 200.0:
                raise ConfigurationError(
                    f"hb_m must satisfy 30 <= hb_m <= 200 (got {self.hb_m})", "hb_m"
                )
            if not 1.0 <= self.hm_m <= 10.0:
                raise ConfigurationError(
                    f"hm_m must satisfy 1 <= hm_m <= 10 (got {self.hm_m})", "hm_m"
                )


@dataclass(frozen=True)
class RadioEnv:
    """Receiver-side radio constants: noise PSD (W/Hz) and path-loss model."""

    n0: float
    pathloss: PathLossModel

    def __post_init__(self):
        if self.n0 <= 0:
            raise ConfigurationError(f"n0 must be positive (got {self.n0})")


def hata_coefficients(model: PathLossModel) -> tuple[float, float]:
    """(fixed_db, slope_db) such that L(d) = fixed_db + slope_db*log10(d_km)."""
    lf = np.log10(model.f_mhz)
    a_hm = (1.1 * lf - 0.7) * model.hm_m - (1.56 * lf - 0.8)
    fixed = 69.55 + 26.16 * lf - 13.82 * np.log10(model.hb_m) - a_hm
    slope = 44.9 - 6.55 * np.log10(model.hb_m)
    return float(fixed), float(slope)


def gain(model: PathLossModel, d_m, out=None):
    """Linear power gain at distance ``d_m`` (meters; scalar or array).

    POWER_LAW returns d^(-eta); HATA returns 10^(-L/10).  Both are strictly
    decreasing in d.  Callers are responsible for clamping distances to the
    model's validity floor (see ``grid.D_MIN_M``).  An array result is
    written into ``out`` when given, which may be ``d_m`` itself: every step
    is one elementwise ufunc, so the bytes do not depend on where they go.
    """
    d = np.asarray(d_m, dtype=float)
    if np.any(d <= 0):
        raise ValueError("distance must be positive; clamp to grid.D_MIN_M first")
    if out is None:
        out = np.empty_like(d)
    if model.kind is PathLossKind.POWER_LAW:
        np.power(d, -model.eta, out=out)
    else:
        fixed, slope = hata_coefficients(model)
        # 10 ** (-(fixed + slope * log10(d / 1000)) / 10), one ufunc a step.
        np.divide(d, 1000.0, out=out)
        np.log10(out, out=out)
        np.multiply(slope, out, out=out)
        np.add(fixed, out, out=out)
        np.negative(out, out=out)
        np.divide(out, 10.0, out=out)
        if np.isscalar(d_m):
            # A scalar takes numpy's scalar power, as it always has: the
            # array loop may round the last bit differently.
            return float(10.0 ** out[()])
        np.power(10.0, out, out=out)
    return float(out) if np.isscalar(d_m) else out
