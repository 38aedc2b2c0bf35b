"""Flow layer: arc integration, half-return maps, displacement samples."""

import dataclasses

import numpy as np
import pytest

from conftest import level_set_return
from filippov import (
    displacement,
    estimate_lyapunov,
    half_return,
    integrate_to_sigma,
    monodromic_family,
    cross_coupled_system,
)
from filippov.errors import InputError, NoReturn, NotInWindow
from filippov.field import SmoothField
from filippov.flow import write_delta_csv
from filippov.poly import Poly2


def rotation_like():
    return SmoothField(Poly2.constant(1.0), Poly2({(1, 0): -1.0}))


# -- integrate_to_sigma ---------------------------------------------------------

def test_arc_from_positive_abscissa(cfg):
    # the arc through (0.1, 0) lives in backward time; level set gives -0.1
    xr, path = integrate_to_sigma(rotation_like(), (0.1, 0.0), "backward", cfg)
    assert xr == pytest.approx(-0.1, abs=1e-9)
    assert len(path) > 5
    assert abs(path[-1][1]) < 1e-9


def test_arc_from_negative_abscissa(cfg):
    xr, _ = integrate_to_sigma(rotation_like(), (-0.2, 0.0), "forward", cfg)
    assert xr == pytest.approx(0.2, abs=1e-9)


def test_no_return(cfg):
    f = SmoothField(Poly2.constant(1.0), Poly2.constant(1.0))
    short = dataclasses.replace(cfg, max_time=5.0)
    with pytest.raises(NoReturn):
        integrate_to_sigma(f, (0.0, 0.0), "forward", short)


def test_bad_direction(cfg):
    with pytest.raises(InputError):
        integrate_to_sigma(rotation_like(), (0.1, 0.0), "up", cfg)


def test_window_escape(cfg):
    tight = cfg.with_window(-0.05, 0.15)
    with pytest.raises(NotInWindow):
        integrate_to_sigma(rotation_like(), (0.1, 0.0), "backward", tight)


# -- half-return maps -------------------------------------------------------------

def test_half_return_symmetric_center(cfg):
    Z = monodromic_family(1, 0.0)
    for x in (0.05, 0.1, 0.2):
        assert half_return(Z, "upper", x, cfg) == pytest.approx(-x, abs=1e-9)
        assert half_return(Z, "lower", x, cfg) == pytest.approx(-x, abs=1e-9)


@pytest.mark.parametrize("x", [0.2 / 2 ** n for n in range(8)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_half_return_vs_level_set_oracle(cfg, k, x):
    Z = monodromic_family(k, 1.0)
    got = half_return(Z, "upper", x, cfg)
    oracle = level_set_return(Z.upper, x, -2.0 * x, -1e-4 * x)
    assert got == pytest.approx(oracle, abs=1e-12)
    if (k, x) == (1, 0.1):
        assert got == pytest.approx(-0.0937, abs=1e-3)


def test_half_return_lower_is_exact_reflection(cfg):
    Z = monodromic_family(2, 1.0)
    for x in (0.05, 0.15, 0.25):
        assert half_return(Z, "lower", x, cfg) == pytest.approx(-x, abs=1e-9)


def test_half_return_fixes_the_singularity(cfg):
    assert half_return(monodromic_family(1, 1.0), "upper", 0.0, cfg) == 0.0


def test_half_return_rejects_tangency_start(cfg):
    Zu = monodromic_family(1, 1.0)
    with pytest.raises(InputError):
        half_return(Zu, "upper", 1.0, cfg)  # Y(1, 0) = -1 + 1 = 0


@pytest.mark.parametrize("k", [1, 2])
def test_involution(cfg, k):
    Z = monodromic_family(k, 1.0)
    for side in ("upper", "lower"):
        for x in np.linspace(0.03, 0.3, 10):
            xr = half_return(Z, side, float(x), cfg)
            back = half_return(Z, side, xr, cfg)
            assert abs(back - x) < 1e-7


def test_tolerance_scaling(cfg):
    Z = monodromic_family(1, 1.0)
    tight = dataclasses.replace(cfg, rel_tol=cfg.rel_tol / 2)
    a = half_return(Z, "upper", 0.1, cfg)
    b = half_return(Z, "upper", 0.1, tight)
    assert abs(a - b) < 5e-9


# -- displacement ------------------------------------------------------------------

def test_displacement_against_oracle(cfg):
    Z = monodromic_family(1, 1.0)
    s = displacement(Z, 0.1, cfg)
    oracle = level_set_return(Z.upper, 0.1, -0.25, -1e-4) + 0.1
    assert s.delta_value == pytest.approx(oracle, abs=1e-9)
    assert s.delta_value == pytest.approx(6.3e-3, abs=5e-4)
    assert s.delta_value == pytest.approx(s.phi_plus - s.phi_minus, abs=1e-15)


@pytest.mark.parametrize("k", [1, 2])
def test_center_has_flat_displacement(cfg, k):
    Z = monodromic_family(k, 0.0)
    for x in (-0.3, -0.15, -0.05, 0.05, 0.15, 0.3):
        assert abs(displacement(Z, x, cfg).delta_value) < 1e-8


def test_displacement_quadratic_ratio(cfg):
    Z = monodromic_family(2, 1.0)
    x = 0.02
    assert displacement(Z, x, cfg).delta_value / x**2 \
        == pytest.approx(0.4, rel=0.02)


def test_displacement_positive_for_repelling(cfg):
    for k in (1, 2):
        Z = monodromic_family(k, 1.0)
        for x in np.linspace(0.02, 0.2, 6):
            assert displacement(Z, float(x), cfg).delta_value > 0


# -- leading-order estimation --------------------------------------------------------

def test_estimate_base_family(cfg):
    est = estimate_lyapunov(monodromic_family(1, 1.0), (0.005, 0.05), cfg)
    assert est.order == 2
    assert est.coefficient == pytest.approx(2.0 / 3.0, rel=0.02)
    assert est.fit_r2 >= 0.999


def test_estimate_order_two_family(cfg):
    est = estimate_lyapunov(monodromic_family(2, 1.0), (0.005, 0.05), cfg)
    assert est.order == 2
    assert est.coefficient == pytest.approx(0.4, rel=0.02)


def test_estimate_center(cfg):
    est = estimate_lyapunov(monodromic_family(2, 0.0), (0.005, 0.05), cfg)
    assert est.center
    assert est.order == 0


def test_estimate_negative_coefficient_sign(cfg):
    est = estimate_lyapunov(monodromic_family(1, -1.0), (0.005, 0.05), cfg)
    assert est.order == 2
    assert est.coefficient == pytest.approx(-2.0 / 3.0, rel=0.02)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_estimate_order_is_even(cfg, k):
    est = estimate_lyapunov(monodromic_family(k, 1.0), (0.005, 0.05), cfg)
    assert est.order % 2 == 0


def test_cross_coupled_numeric_matches_formula(cfg):
    # closed-form V2 = 2/3 through the g00 route; the fit must agree
    est = estimate_lyapunov(cross_coupled_system(), (0.005, 0.05), cfg)
    assert est.order == 2
    assert est.coefficient == pytest.approx(2.0 / 3.0, rel=0.02)


def test_window_validation(cfg):
    with pytest.raises(InputError):
        estimate_lyapunov(monodromic_family(1, 1.0), (-0.1, 0.1), cfg)


# -- csv export ------------------------------------------------------------------------

def test_delta_csv_format(cfg, tmp_path):
    Z = monodromic_family(1, 1.0)
    samples = [displacement(Z, x, cfg) for x in (0.05, 0.1)]
    path = tmp_path / "delta.csv"
    write_delta_csv(samples, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,delta"
    assert len(lines) == 3
    x, d = lines[1].split(",")
    assert float(x) == 0.05
    assert float(d) == pytest.approx(samples[0].delta_value, rel=1e-15)
