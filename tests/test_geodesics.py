import math

import numpy as np
import pytest

from revplane import curvature as cv
from revplane import geodesics as gd
from revplane import jacobi
from revplane import quadrature as qd
from revplane.errors import Undetermined

from closedforms import linear_profile, sine_profile


@pytest.fixture(scope="module")
def flat():
    return jacobi.solve_jacobi(cv.constant(0.0), r_max=100.0)


@pytest.fixture(scope="module")
def hyperbolic():
    return jacobi.solve_jacobi(cv.constant(-1.0), r_max=30.0)


def cone_stub(a, r_max=200.0):
    return linear_profile(a, r_max=r_max)


def test_launch_validation(flat):
    with pytest.raises(ValueError):
        gd.GeodesicLaunch.at_angle(flat, 1.0, -0.1)
    with pytest.raises(ValueError):
        gd.GeodesicLaunch.at_angle(flat, 0.0, 1.0)
    launch = gd.GeodesicLaunch.at_angle(flat, 2.0, math.pi / 2)
    assert launch.c == pytest.approx(2.0, rel=1e-10)


def test_turning_radius_flat(flat):
    assert gd.turning_radius(flat, 1.5, 4.0) == pytest.approx(1.5, abs=1e-10)
    assert gd.turning_radius(flat, 0.0, 4.0) == 0.0
    with pytest.raises(ValueError):
        gd.turning_radius(flat, 5.0, 4.0)


def test_turning_radius_takes_largest_crossing():
    wavy = sine_profile()
    # m = 2.5 is crossed many times; the largest crossing below r_q = 7.5 is
    # the rising one at 2*pi + pi/6
    r_u = gd.turning_radius(wavy, 2.5, 7.5)
    assert r_u == pytest.approx(2 * math.pi + math.pi / 6, abs=1e-9)


def test_turn_angle_radial_cases(flat):
    res0 = gd.turn_angle(flat, 1.0, 0.0)
    assert res0.value == 0.0 and res0.status == "converged"
    resin = gd.turn_angle(flat, 1.0, math.pi)
    assert resin.status == "radial_inward"
    assert math.isnan(resin.value)


def test_turn_angle_flat_all_angles(flat):
    rq = 2.0
    for kappa in (0.3, 1.0, math.pi / 2, 2.0, 2.8):
        res = gd.turn_angle(flat, rq, kappa)
        want = math.pi / 2 + math.acos(math.sin(kappa)) if kappa > math.pi / 2 \
            else math.pi / 2 - math.acos(math.sin(kappa))
        assert res.status == "converged"
        assert res.value == pytest.approx(want, abs=1e-8)


def test_near_tangent_launches_flat(flat):
    # T = kappa on the flat plane.  Within sqrt(2 TRAP_REL) of pi/2,
    # arccos(c / m(r_q)) has lost its digits: outward launches must not
    # snap to the turning circle, and inward ones, whose c may round to
    # m(r_q), must not raise.  Farther out the exact launch angle still
    # beats the arccos, which amplifies the rounding of c by 1 / sin w
    for d in (1e-16, 1e-12, 1e-9, 1e-7, 1e-5, 4e-5, 1e-4, 1e-3, 1e-2, 0.3):
        for kappa in (math.pi / 2 - d, math.pi / 2 + d):
            res = gd.turn_angle(flat, 5.0, kappa)
            assert abs(res.value - kappa) <= res.abs_error, (d, kappa)


def test_near_tangent_launch_on_cone(cone09):
    # beyond the cap T = kappa / s, with s the slope the solve has there
    p = cone09.profile
    kappa = math.pi / 2 - 3.6e-7
    res = gd.turn_angle(p, 40.0, kappa)
    assert abs(res.value - kappa / p.mp(p.r_max)) <= max(res.abs_error, 1e-8)


def test_turn_angle_hyperbolic(hyperbolic):
    for rq in (0.5, 1.0, 2.0):
        res = gd.turn_angle(hyperbolic, rq, math.pi / 2)
        assert res.value == pytest.approx(math.atan(1.0 / math.sinh(rq)), abs=1e-6)


def test_turn_angle_exact_cone_linear_in_kappa():
    a = 0.3
    cone = cone_stub(a)
    rq = 5.0
    for kappa in (0.4, 1.0, math.pi / 2, 1.8, 2.5):
        res = gd.turn_angle(cone, rq, kappa)
        assert res.status == "converged"
        assert res.value == pytest.approx(kappa / a, abs=1e-8)


def test_is_ray_flat_everywhere(flat):
    for kappa in (0.2, 1.0, math.pi / 2, 2.4):
        assert gd.is_ray(flat, 3.0, kappa)


def test_is_ray_cone_threshold():
    cone = cone_stub(0.3)
    # turn angle is kappa / 0.3, so rays exactly for kappa <= 0.3 pi
    assert gd.is_ray(cone, 5.0, 0.3 * math.pi - 1e-4)
    assert not gd.is_ray(cone, 5.0, 0.3 * math.pi + 1e-4)


def test_is_ray_boundary_counts_as_ray():
    cone = cone_stub(0.5)
    # turn angle at kappa = pi/2 is exactly pi: the closed side wins
    assert gd.is_ray(cone, 5.0, math.pi / 2)
    assert not gd.is_ray(cone, 5.0, math.pi / 2 + 1e-5)


def test_is_ray_window_limited_raises():
    slow = jacobi.solve_jacobi(cv.isq(0.0), r_max=100.0)
    with pytest.raises(Undetermined):
        gd.is_ray(slow, 1.0, math.pi / 2)


def test_side_of_pi_table():
    pi, tol = math.pi, 1e-8
    und = Undetermined
    table = [
        # (value, abs_error, status, side or the exception it raises)
        (math.inf, 0.0, qd.STATUS_DIVERGENT_TANGENCY, 1),
        (math.inf, 0.0, qd.STATUS_DIVERGENT_TAIL, 1),
        (pi + 1e-3, 1e-12, qd.STATUS_WINDOW_LIMITED, 1),     # already past pi
        (pi - 1e-3, 1e-12, qd.STATUS_WINDOW_LIMITED, und),   # unseen tail
        (pi, 1e-12, qd.STATUS_WINDOW_LIMITED, und),
        (pi - 1e-3, 1e-12, qd.STATUS_CONVERGED, -1),         # below the band
        (pi - tol, 1e-12, qd.STATUS_CONVERGED, -1),          # ... on its edge
        (pi + 1e-3, 1e-12, qd.STATUS_CONVERGED, 1),          # above the band
        (pi + 1e-7, 1e-6, qd.STATUS_CONVERGED, und),         # band too wide
        (pi + 1e-9, 1e-12, qd.STATUS_CONVERGED, 0),          # precision floor
        (pi - 1e-9, 1e-12, qd.STATUS_CONVERGED, 0),
    ]
    for value, err, status, want in table:
        res = qd.IntegralResult(value, err, status)
        if want is und:
            with pytest.raises(Undetermined) as exc:
                gd.side_of_pi(res, tol)
            if status == qd.STATUS_WINDOW_LIMITED:
                assert exc.value.abs_error == math.inf
        else:
            assert gd.side_of_pi(res, tol) == want, (value, err, status)


def test_bisect_closed_either_order():
    # the closed set x <= 0.3, with Undetermined answers near its edge:
    # they count as inside, so the bracket closes on 0.301
    def below(x):
        if abs(x - 0.3) < 1e-3:
            raise Undetermined(x, 1e-3)
        return x <= 0.3

    a, b = gd.bisect_closed(0.0, 1.0, below, 1e-9)
    assert 0.3009 < a < b < 0.3011 and b - a <= 1e-9
    # the closed set x >= 1.7, with the inside end the larger
    a, b = gd.bisect_closed(2.0, 1.0, lambda x: x >= 1.7, 1e-9)
    assert b < 1.7 <= a and a - b <= 1e-9


def test_trace_flat_straight_line(flat):
    rq, kappa = 2.0, 1.0
    tr = gd.trace(flat, rq, kappa, s_max=30.0, n_points=301)
    s = tr.s
    x = rq + s * math.cos(kappa)
    y = s * math.sin(kappa)
    assert np.allclose(tr.r, np.hypot(x, y), atol=1e-8)
    assert np.allclose(tr.theta, np.arctan2(y, x), atol=1e-8)
    assert tr.speed_drift < 1e-9
    assert tr.status == "completed"


def test_trace_inward_radial_hits_origin(flat):
    tr = gd.trace(flat, 3.0, math.pi, s_max=10.0)
    assert tr.status == "hit_origin"
    assert tr.end_state[0] == pytest.approx(3.0, abs=1e-6)


def test_trace_leaves_window():
    small = jacobi.solve_jacobi(cv.constant(0.0), r_max=10.0)
    tr = gd.trace(small, 1.0, 0.0, s_max=50.0)
    assert tr.status == "left_window"
    assert tr.end_state[1] == pytest.approx(10.0, rel=1e-6)


def test_trace_stop_at_radius(flat):
    tr = gd.trace(flat, 1.0, math.pi / 2, s_max=50.0, stop_at_radius=5.0)
    assert tr.status == "reached_radius"
    s_end, r_end, th_end, _ = tr.end_state
    assert r_end == pytest.approx(5.0, abs=1e-9)
    assert s_end == pytest.approx(math.sqrt(24.0), abs=1e-8)
    assert th_end == pytest.approx(math.atan(math.sqrt(24.0)), abs=1e-8)


def test_trace_exports(tmp_path, flat):
    tr = gd.trace(flat, 2.0, 1.2, s_max=10.0, n_points=101)
    csv_path = tmp_path / "trace.csv"
    svg_path = tmp_path / "trace.svg"
    tr.to_csv(csv_path)
    tr.to_svg(svg_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "s,r,theta,r_dot"
    assert len(lines) == len(tr.s) + 1
    svg = svg_path.read_text()
    assert svg.startswith("<svg") and "polyline" in svg
