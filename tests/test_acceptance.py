"""End-to-end acceptance sweep: one numbered test per advertised property.

Run with -v to get one pass/fail line per property.  Everything here goes
through the public API and the tests' own referees (oracle, sturm) only;
numeric targets are closed forms or independently certified values.
"""

import math
import time

import numpy as np
import pytest

from revplane import analysis as an
from revplane import curvature as cv
from revplane import geodesics as gd
from revplane import jacobi as jb
from revplane import quadrature as qd
from revplane.errors import StarViolation

import oracle as orc
from sturm import sturm_compare

SEED = 20260822


def test_01_closed_form_profiles_and_star_violation():
    t0 = time.perf_counter()
    r = np.linspace(0.1, 10.0, 397)

    flat = jb.solve_jacobi(cv.constant(0.0), r_max=12.0)
    assert np.max(np.abs(flat.m(r) - r) / r) <= 1e-8

    hyp = jb.solve_jacobi(cv.constant(-1.0), r_max=12.0)
    assert np.max(np.abs(hyp.m(r) - np.sinh(r)) / np.sinh(r)) <= 1e-8

    lg = jb.solve_jacobi(cv.isq(0.0), r_max=12.0)
    exact = np.sqrt(r + 1.0) * np.log(r + 1.0)
    assert np.max(np.abs(lg.m(r) - exact) / exact) <= 1e-8

    with pytest.raises(StarViolation) as exc:
        jb.solve_jacobi(cv.constant(1.0), r_max=10.0)
    assert abs(exc.value.first_zero - math.pi) <= 1e-8

    assert time.perf_counter() - t0 < 5.0


def test_02_cone_turn_angle_law(cone03, cone05, cone09):
    # beyond the cap the plane is an exact cone of slope s, where the
    # tangential turn angle is pi/(2s) no matter the launch radius
    for build, s in ((cone03, 0.3), (cone05, 0.5), (cone09, 0.9)):
        p = build.profile
        for r_q in (build.rho + 0.5, build.rho + 2.0, build.rho + 5.0):
            res = gd.turn_angle(p, r_q, math.pi / 2, tol=1e-9)
            assert res.status == qd.STATUS_CONVERGED
            assert abs(res.value - math.pi / (2.0 * s)) <= 1e-6


def test_03_flat_and_hyperbolic_turn_angles(flat60, hyp30):
    for r_q in (0.5, 1.0, 2.0):
        res = gd.turn_angle(flat60, r_q, math.pi / 2, tol=1e-10)
        assert abs(res.value - math.pi / 2) <= 1e-8
        res = gd.turn_angle(hyp30, r_q, math.pi / 2, tol=1e-9)
        assert abs(res.value - math.atan(1.0 / math.sinh(r_q))) <= 1e-6


def test_04_quadrature_matches_ode_oracle(cone05, cone09, hyp30):
    rng = np.random.default_rng(SEED)
    planes = [(hyp30, 0.5, 8.0), (cone05.profile, 1.0, 40.0),
              (cone09.profile, 1.0, 30.0)]
    for _ in range(20):
        p, r_a, r_b = planes[rng.integers(0, len(planes))]
        r_q = float(rng.uniform(r_a, r_b))
        kappa = float(rng.uniform(0.15, math.pi - 0.15))
        quad = gd.turn_angle(p, r_q, kappa, tol=1e-9)
        tr = orc.turn_angle_by_trace(p, r_q, kappa, tol=1e-9)
        assert not quad.diverged and not tr.diverged
        assert abs(quad.value - tr.value) <= 1e-6 + quad.abs_error + tr.abs_error


def test_05_smoothed_cone_radius_bundle(cone03):
    p = cone03.profile

    r_crit = an.critical_ball_radius(p)
    assert math.isfinite(r_crit) and r_crit > 0

    rho_half = an.half_slope_radius(p)
    assert abs(p.mp(rho_half) - 0.5) <= 1e-8
    # the half-slope crossing is unique: the slope falls from 1 through
    # 1/2 once and never comes back up
    grid = np.linspace(1e-3, 0.999 * p.r_max, 4096)
    flips = np.count_nonzero(np.diff(np.sign(p.mp(grid) - 0.5)))
    assert flips == 1

    assert rho_half > r_crit
    assert p.K(rho_half) > 0.0

    rep = an.scan_sets(p, n=160, tol=1e-8)
    assert rep.critical_intervals, "no critical interval found by the scan"
    scan_end = rep.critical_intervals[0][1]
    assert abs(scan_end - r_crit) <= 1e-9 * max(1, r_crit)


def test_06_critical_ball_edge_cases(flat60, bounded_table, cone05):
    assert an.critical_ball_radius(flat60) == math.inf
    assert an.critical_ball_radius(bounded_table.profile) == 0.0

    p = cone05.profile
    assert an.critical_ball_radius(p) == math.inf
    rep = an.scan_sets(p, n=64, tol=1e-8)
    assert all(rep.critical), "an exactly-half-slope cone is critical everywhere"
    # ... and yet no point beyond the cap is a pole
    for r_q in (cone05.rho + 2.0, cone05.rho + 20.0):
        assert not an.is_pole(p, r_q)


def test_07_monotonicity_sweeps(flat60, cone03, cone09):
    # nonnegative-curvature planes: the tangential turn angle never
    # shrinks as the launch radius grows, the widest ray angle never grows
    for p in (flat60, cone03.profile, cone09.profile):
        grid = np.geomspace(p.r_max * 1e-3, 0.98 * p.r_max, 64)
        turns = np.array([gd.turn_angle(p, r, math.pi / 2, tol=1e-8).value
                          for r in grid])
        assert np.all(np.diff(turns) >= -1e-7)
        angles = np.array([gd.max_ray_angle(p, r, kappa_tol=1e-6)
                           for r in grid])
        assert np.all(np.diff(angles) <= 1e-5)


def test_08_curvature_comparison_ordering():
    rng = np.random.default_rng(SEED)
    for _ in range(10):
        k_hi = float(rng.uniform(-1.0, 0.0))
        k_lo = k_hi - float(rng.uniform(0.05, 1.0))
        hi = jb.solve_jacobi(cv.constant(k_hi), r_max=10.0)
        lo = jb.solve_jacobi(cv.constant(k_lo), r_max=10.0)
        rep = sturm_compare(hi, lo)
        assert rep.curvature_ordered and rep.m_ordered and rep.mp_ordered
    for _ in range(10):
        u1 = float(rng.uniform(0.0, 0.1))
        u2 = u1 + float(rng.uniform(0.01, 0.1))
        hi = jb.solve_jacobi(cv.isq(u1), r_max=10.0)
        lo = jb.solve_jacobi(cv.isq(u2), r_max=10.0)
        rep = sturm_compare(hi, lo)
        assert rep.curvature_ordered and rep.m_ordered and rep.mp_ordered


def test_09_bulge_plane_disconnected_critical_set(bulge):
    p = bulge.profile
    rep = an.scan_sets(p, n=128, tol=1e-8)
    assert len(rep.critical_intervals) >= 2
    r_crit = an.critical_ball_radius(p)
    assert abs(rep.critical_intervals[0][1] - r_crit) <= 1e-9 * max(1, r_crit)
    assert not an.is_critical(p, math.pi / 2)
    assert an.pole_ball_radius(p) > 0.0
    # everything sufficiently far out has strictly acute ray access
    far = [a for (r, a) in zip(rep.r, rep.away) if r >= 0.8 * p.r_max]
    assert far and all(far)


def test_10_flared_cone_disconnected_critical_set(flare):
    p = flare.profile
    grid = np.linspace(1e-4, p.r_max * (1 - 1e-9), 30000)
    assert np.min(p.mp(grid)) > 0.0, "the flare must not close the plane up"
    rep = an.scan_sets(p, n=160, tol=1e-8)
    assert len(rep.critical_intervals) >= 2


def test_11_neck_exclusion_close_window(cone03):
    # a ten-unit window just past the cap: the slope there is 0.3, the
    # bound needs cos(0.3 pi) * m(y) to reach back to m(x)
    p = cone03.profile
    x = cone03.rho + 5.0
    y = x + 10.0
    rep = an.neck_bound(p, x, y)
    assert rep.applicable
    assert rep.excluded is not None, (
        f"bound reaches f = {rep.f:.1f}, short of x = {x:.1f}: "
        f"m({x:.1f}) = {p.m(x):.1f} is far above cos(pi b) * m({y:.1f}) = "
        f"{math.cos(math.pi * rep.b) * p.m(y):.1f}, so a ten-unit window "
        "this far out cannot certify an exclusion on this plane"
    )
    assert x <= rep.f
    samples = np.linspace(x, rep.f, 100)
    assert all(not an.is_critical(p, float(r)) for r in samples)


def test_11b_neck_exclusion_wide_window(cone03_long):
    # same machinery, window chosen so the bound actually reaches x
    p = cone03_long.profile
    x, y = 40.0, 500.0
    rep = an.neck_bound(p, x, y)
    assert rep.applicable
    assert rep.excluded is not None and x <= rep.f
    samples = np.linspace(x, rep.f, 100)
    assert all(not an.is_critical(p, float(r)) for r in samples)


def test_12_tangency_derivative_blowup():
    # as the launch tends to tangential, dT/dc * sqrt(c_q^2 - c^2)
    # approaches -1/m'(r_q)
    p = jb.solve_jacobi(cv.isq(0.0), r_max=1e4)
    r_q = 1.0
    c_q = p.m(r_q)
    mp_q = p.mp(r_q)

    def turn_of_c(c):
        kappa = math.pi - math.asin(min(c / c_q, 1.0))
        res = gd.turn_angle(p, r_q, kappa, tol=1e-10)
        assert math.isfinite(res.value)
        return res.value

    for rel in (1e-2, 1e-3, 1e-4):
        delta = rel * c_q
        c = c_q - delta
        h = delta / 10.0
        deriv = (turn_of_c(c + h) - turn_of_c(c - h)) / (2.0 * h)
        ratio = -deriv * math.sqrt(c_q**2 - c**2) * mp_q
        assert abs(ratio - 1.0) <= 0.05


def test_13_ray_distance_additivity(flat60, hyp30, cone09):
    cases = [(flat60, 1.0, math.pi / 2), (hyp30, 1.0, 2.0),
             (cone09.profile, cone09.rho + 3.0, 1.2)]
    for p, r_q, kappa in cases:
        assert gd.is_ray(p, r_q, kappa)
        tr = gd.trace(p, r_q, kappa, s_max=5.0, n_points=11, rtol=1e-12)
        assert tr.status == "completed"
        r_end = float(tr.r[-1])
        th_end = float(tr.theta[-1])
        assert 0.0 < th_end < math.pi
        shot = orc.distance_shoot(p, r_q, r_end, th_end)
        assert abs(shot.distance - 5.0) <= 1e-4
