import math

import pytest

from revplane import curvature as cv
from revplane import geodesics as gd
from revplane import jacobi

import oracle
from closedforms import linear_profile
from oracle import ShootFailure


@pytest.fixture(scope="module")
def flat():
    return jacobi.solve_jacobi(cv.constant(0.0), r_max=100.0)


@pytest.fixture(scope="module")
def hyperbolic():
    return jacobi.solve_jacobi(cv.constant(-1.0), r_max=30.0)


def test_trace_route_flat_matches_closed_form(flat):
    rq = 2.0
    for kappa in (0.7, math.pi / 2, 2.1, 2.7):
        got = oracle.turn_angle_by_trace(flat, rq, kappa)
        want = math.pi / 2 + math.acos(math.sin(kappa)) if kappa > math.pi / 2 \
            else math.pi / 2 - math.acos(math.sin(kappa))
        assert got.status == "converged"
        assert got.value == pytest.approx(want, abs=1e-7)


def test_trace_route_agrees_with_quadrature_route(hyperbolic):
    rq = 1.3
    for kappa in (0.5, 1.2, math.pi / 2, 2.0, 2.9):
        via_trace = oracle.turn_angle_by_trace(hyperbolic, rq, kappa)
        via_quad = gd.turn_angle(hyperbolic, rq, kappa)
        assert via_trace.value == pytest.approx(via_quad.value, abs=1e-6)


def test_trace_route_cone_stub():
    a = 0.4
    got = oracle.turn_angle_by_trace(linear_profile(a, r_max=200.0), 5.0, 1.1)
    assert got.value == pytest.approx(1.1 / a, abs=1e-6)


def test_trace_route_radial_cases(flat):
    assert oracle.turn_angle_by_trace(flat, 1.0, 0.0).value == 0.0
    assert oracle.turn_angle_by_trace(flat, 1.0, math.pi).status == "radial_inward"


def test_shoot_flat_straight_segment(flat):
    rq, kappa, s_star = 2.0, 1.0, 5.0
    x = rq + s_star * math.cos(kappa)
    y = s_star * math.sin(kappa)
    r_p, dth = math.hypot(x, y), math.atan2(y, x)
    res = oracle.distance_shoot(flat, rq, r_p, dth)
    assert res.distance == pytest.approx(s_star, abs=1e-6)
    assert res.kappa == pytest.approx(kappa, abs=1e-6)


def test_shoot_flat_radial_targets(flat):
    out = oracle.distance_shoot(flat, 1.0, 4.0, 0.0)
    assert out.distance == pytest.approx(3.0, abs=1e-8)
    inward = oracle.distance_shoot(flat, 4.0, 1.5, 0.0)
    assert inward.distance == pytest.approx(2.5, abs=1e-6)


def test_shoot_hyperbolic_law_of_cosines(hyperbolic):
    r1, r2, dth = 1.0, 1.8, 0.9
    want = math.acosh(
        math.cosh(r1) * math.cosh(r2) - math.sinh(r1) * math.sinh(r2) * math.cos(dth)
    )
    res = oracle.distance_shoot(hyperbolic, r1, r2, dth)
    assert res.distance == pytest.approx(want, abs=1e-6)


def test_shoot_unreachable_swing(flat):
    # from r = 1, the first crossing of r = 0.5 can swing at most
    # arccos(0.5) ~ 1.047; asking for 3.0 must fail cleanly
    with pytest.raises(ShootFailure):
        oracle.distance_shoot(flat, 1.0, 0.5, 3.0)


def test_shoot_validates_swing(flat):
    with pytest.raises(ValueError):
        oracle.distance_shoot(flat, 1.0, 2.0, 3.5)
