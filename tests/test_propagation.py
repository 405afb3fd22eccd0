"""Path-loss model tests: power-law identities and Hata reference values."""

from __future__ import annotations

import math

import numpy as np
import pytest

from sfn_lsi_sim.errors import ConfigurationError
from sfn_lsi_sim.propagation import (
    PathLossKind,
    PathLossModel,
    gain,
    hata_coefficients,
)

# Urban small/medium-city values at f=700 MHz, hb=30 m, hm=1.5 m,
# computed by hand from the closed form.
HATA_L_1KM = 123.55789016294595
HATA_SLOPE = 35.224855781586214


def path_loss_db(model: PathLossModel, d_m: float) -> float:
    """Closed-form path loss in dB at ``d_m`` meters, the reference for ``gain``."""
    if model.kind is PathLossKind.POWER_LAW:
        return 10.0 * model.eta * math.log10(d_m)
    fixed, slope = hata_coefficients(model)
    return fixed + slope * math.log10(d_m / 1000.0)


class TestPowerLaw:
    def test_gain_is_inverse_power(self):
        model = PathLossModel(kind=PathLossKind.POWER_LAW, eta=2.0)
        assert gain(model, 10.0) == pytest.approx(0.01, rel=1e-15)

    def test_unit_distance_gain_is_one(self):
        model = PathLossModel(kind=PathLossKind.POWER_LAW, eta=3.5)
        assert gain(model, 1.0) == 1.0

    def test_loss_db_matches_gain(self):
        model = PathLossModel(kind=PathLossKind.POWER_LAW, eta=3.0)
        d = 1234.5
        assert path_loss_db(model, d) == pytest.approx(30.0 * math.log10(d), rel=1e-14)
        assert gain(model, d) == pytest.approx(10 ** (-path_loss_db(model, d) / 10.0))

    def test_strictly_decreasing(self):
        model = PathLossModel(kind=PathLossKind.POWER_LAW, eta=3.5)
        d = np.linspace(20.0, 20000.0, 200)
        g = gain(model, d)
        assert np.all(np.diff(g) < 0)

    @pytest.mark.parametrize("eta", [1.9, 6.1])
    def test_eta_bounds(self, eta):
        with pytest.raises(ConfigurationError, match="eta"):
            PathLossModel(kind=PathLossKind.POWER_LAW, eta=eta)


class TestHata:
    def test_reference_loss_at_1km(self):
        model = PathLossModel(kind=PathLossKind.HATA)
        assert path_loss_db(model, 1000.0) == pytest.approx(HATA_L_1KM, abs=1e-9)

    def test_coefficients(self):
        fixed, slope = hata_coefficients(PathLossModel(kind=PathLossKind.HATA))
        assert fixed == pytest.approx(HATA_L_1KM, abs=1e-9)
        assert slope == pytest.approx(HATA_SLOPE, abs=1e-9)

    def test_slope_per_decade(self):
        model = PathLossModel(kind=PathLossKind.HATA)
        l1 = path_loss_db(model, 1000.0)
        l10 = path_loss_db(model, 10000.0)
        assert l10 - l1 == pytest.approx(HATA_SLOPE, abs=1e-9)

    def test_gain_matches_loss(self):
        model = PathLossModel(kind=PathLossKind.HATA)
        assert gain(model, 2000.0) == pytest.approx(
            10 ** (-path_loss_db(model, 2000.0) / 10.0), rel=1e-12
        )

    def test_defaults_are_valid_hata_range(self):
        model = PathLossModel()
        assert model.kind is PathLossKind.HATA
        assert (model.f_mhz, model.hb_m, model.hm_m) == (700.0, 30.0, 1.5)

    @pytest.mark.parametrize(
        "kwargs,fragment",
        [
            (dict(f_mhz=100.0), "f_mhz"),
            (dict(f_mhz=2000.0), "f_mhz"),
            (dict(hb_m=10.0), "hb_m"),
            (dict(hb_m=300.0), "hb_m"),
            (dict(hm_m=0.5), "hm_m"),
            (dict(hm_m=12.0), "hm_m"),
        ],
    )
    def test_parameter_bounds(self, kwargs, fragment):
        with pytest.raises(ConfigurationError, match=fragment):
            PathLossModel(kind=PathLossKind.HATA, **kwargs)


class TestCommonBehavior:
    @pytest.mark.parametrize(
        "model",
        [
            PathLossModel(kind=PathLossKind.POWER_LAW, eta=3.5),
            PathLossModel(kind=PathLossKind.HATA),
        ],
    )
    def test_nonpositive_distance_rejected(self, model):
        with pytest.raises(ValueError, match="positive"):
            gain(model, 0.0)
        with pytest.raises(ValueError, match="positive"):
            gain(model, np.array([100.0, -1.0]))

    def test_vectorized_matches_scalar(self):
        model = PathLossModel(kind=PathLossKind.HATA)
        d = np.array([20.0, 333.0, 1000.0, 8000.0])
        vec = gain(model, d)
        for i, di in enumerate(d):
            # scalar and array code paths may differ by one ulp
            assert vec[i] == pytest.approx(gain(model, float(di)), rel=1e-14)

    def test_scalar_in_scalar_out(self):
        model = PathLossModel(kind=PathLossKind.POWER_LAW, eta=2.0)
        assert isinstance(gain(model, 5.0), float)
