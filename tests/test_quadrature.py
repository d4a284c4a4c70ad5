import math

import numpy as np
import numpy.polynomial as P
import pytest
from scipy.integrate import quad

from revplane import curvature as cv
from revplane import jacobi
from revplane import quadrature as qd

from closedforms import bump_profile, linear_profile, sine_profile


def reference_quad(profile, c, r_lo, r_inf=np.inf):
    """Independent reference: substitute u = sqrt(r - r_lo) by hand, then
    let scipy's QAGS (a different adaptive scheme than ours) do the rest."""

    def in_u(u):
        if u == 0.0:
            mp = profile.mp(r_lo)
            m0 = profile.m(r_lo)
            if m0 <= c:  # singular start: finite limit of the substituted integrand
                return 2.0 / math.sqrt(2.0 * c * mp)
            return 0.0
        r = r_lo + u * u
        m = profile.m(r)
        return 2.0 * u * c / (m * math.sqrt(max(m * m - c * c, 1e-300)))

    def plain(r):
        m = profile.m(r)
        return c / (m * math.sqrt(m * m - c * c))

    mid = r_lo + 2.0
    head, _ = quad(in_u, 0.0, math.sqrt(mid - r_lo), limit=200)
    tail, _ = quad(plain, mid, r_inf, limit=200)
    return head + tail


def test_flat_half_turn():
    p = jacobi.solve_jacobi(cv.constant(0.0), r_max=100.0)
    for rq in (0.5, 1.0, 3.0):
        res = qd.integrate_turn_rate(p, c=rq, r_lo=rq)
        assert res.status == "converged"
        assert res.value == pytest.approx(math.pi / 2, abs=1e-8)
        assert abs(res.value - math.pi / 2) <= res.abs_error + 1e-12


def test_flat_regular_start():
    p = jacobi.solve_jacobi(cv.constant(0.0), r_max=100.0)
    c = 1.0
    res = qd.integrate_turn_rate(p, c=c, r_lo=2.0)
    # arccos(c/r) evaluated from 2 to infinity
    assert res.value == pytest.approx(math.pi / 2 - math.acos(0.5), abs=1e-8)
    assert res.status == "converged"


def test_flat_partial():
    p = jacobi.solve_jacobi(cv.constant(0.0), r_max=100.0)
    c = 1.5
    res = qd.integrate_turn_rate(p, c=c, r_lo=c, r_hi=30.0)
    assert res.status == "converged"
    assert res.value == pytest.approx(math.acos(c / 30.0), abs=1e-8)


def test_hyperbolic_turn_angle():
    p = jacobi.solve_jacobi(cv.constant(-1.0), r_max=30.0)
    for rq in (0.5, 1.0, 2.0):
        c = math.sinh(rq)
        res = qd.integrate_turn_rate(p, c=c, r_lo=rq)
        assert res.status == "converged"
        assert res.value == pytest.approx(math.atan(1.0 / math.sinh(rq)), abs=1e-7)


def test_against_independent_quadrature():
    p = jacobi.solve_jacobi(cv.constant(-1.0), r_max=30.0)
    for rq in (0.7, 1.3):
        c = math.sinh(rq)
        got = qd.integrate_turn_rate(p, c=c, r_lo=rq).value
        want = reference_quad(p, c, rq, r_inf=30.0)
        # reference neglects the (utterly negligible) tail beyond 30
        assert got == pytest.approx(want, abs=1e-6)


def test_near_tangent_start_regular():
    # start just above the turning circle: integrand is nearly singular at
    # the left end but the substitution route keeps full accuracy
    p = jacobi.solve_jacobi(cv.constant(-1.0), r_max=30.0)
    rq = 1.0
    cq = math.sinh(rq)
    for delta in (1e-2, 1e-4, 1e-6):
        c = cq * (1.0 - delta)
        got = qd.integrate_turn_rate(p, c=c, r_lo=rq, tol=1e-10)
        want = reference_quad(p, c, rq, r_inf=30.0)
        assert got.status == "converged"
        assert got.value == pytest.approx(want, abs=5e-6)


def test_exact_cone_from_stub():
    # m = r/2 exactly: turn angle from the turning circle is pi/(2*(1/2)) = pi
    res = qd.integrate_turn_rate(linear_profile(0.5), c=1.0, r_lo=2.0)
    assert res.status == "converged"
    assert res.value == pytest.approx(math.pi, abs=1e-9)


def test_divergent_tangency_at_zero_slope():
    res = qd.integrate_turn_rate(sine_profile(), c=3.0, r_lo=math.pi / 2)
    assert res.status == "divergent_tangency"
    assert res.value == math.inf


def test_trap_detected():
    # launched at a rising crossing of the level m = 2: the profile comes
    # back down to 2 half a period later, so the geodesic never escapes
    res = qd.integrate_turn_rate(sine_profile(), c=2.0, r_lo=2 * math.pi)
    assert res.status == "divergent_tangency"
    assert res.value == math.inf


def test_trap_at_window_end():
    # launched on the last rise of m = 2 + sin r before r_max = 40, the
    # geodesic passes the maximum at 25 pi/2, and m falls back below its
    # level 2.9 by the window end (m(40) = 2.745): no minimum of m lies
    # in between, so the window end is what catches the return
    p = sine_profile()
    res = qd.integrate_turn_rate(p, c=2.9, r_lo=p.level_radius(2.9, 36.2, 39.0))
    assert res.status == "divergent_tangency"
    assert res.value == math.inf


def test_trap_narrower_than_any_grid():
    # m' < 0 only on [19.99957, 20.00043], so m has a maximum and then a
    # minimum there.  Launched tangentially below the well, a geodesic
    # whose level lies 1e-5 under the maximum is trapped; one 1e-5 under
    # the minimum passes over the well
    base, height, center, hw = 1.0, -1.5, 20.0, 1e-3
    p = bump_profile(base, height, center, hw)
    c = p.m(19.99957) - 1e-5
    res = qd.integrate_turn_rate(p, c, p.level_radius(c, 0.0, 19.99957))
    assert res.status == "divergent_tangency"
    assert res.value == math.inf

    c = p.m(20.00043) - 1e-5
    r_lo = p.level_radius(c, 0.0, 19.99957)
    res = qd.integrate_turn_rate(p, c, r_lo)
    assert res.status == "converged"
    assert res.abs_error < 1e-8

    # reference from the closed form: m - c = x e(x) at r = r_lo + x, with
    # e the bump's chord slope from r_lo up to its end and m' = base past
    # it, so no difference of nearly equal m values is ever formed
    t = P.Polynomial([(r_lo - center) / hw, 1.0 / hw])
    e = (base + height * (1 - t**2) ** 2).integ() // P.Polynomial([0.0, 1.0])
    x_end = center + hw - r_lo

    def chord(x):
        return e(x) if x <= x_end else (x_end * e(x_end) + base * (x - x_end)) / x

    def in_u(u):  # F_c dr in u = sqrt(r - r_lo)
        m = c + u * u * chord(u * u)
        return 2.0 * c / (m * math.sqrt(chord(u * u) * (m + c)))

    def in_r(r):
        m = c + (r - r_lo) * chord(r - r_lo)
        return c / (m * math.sqrt((m - c) * (m + c)))

    head, _ = quad(in_u, 0.0, math.sqrt(x_end), limit=200, epsabs=1e-14, epsrel=1e-14)
    body, _ = quad(in_r, center + hw, p.r_max, limit=200, epsabs=1e-13, epsrel=1e-13)
    m_max = c + x_end * e(x_end) + base * (p.r_max - center - hw)
    # m is linear beyond the window: the tail is asin(c / m) / m'
    want = head + body + math.asin(c / m_max) / base
    assert abs(res.value - want) <= res.abs_error


def test_divergent_tail_on_stalled_profile():
    res = qd.integrate_turn_rate(linear_profile(0.0, 2.0), c=1.0, r_lo=1.0)
    assert res.status == "divergent_tail"
    assert res.value == math.inf


def test_window_limited_without_certificate():
    p = jacobi.solve_jacobi(cv.isq(0.0), r_max=100.0)
    res = qd.integrate_turn_rate(p, c=p.m(1.0), r_lo=1.0)
    assert res.status == "window_limited"
    assert 0.0 < res.value < math.inf


def test_zero_c_is_zero():
    p = jacobi.solve_jacobi(cv.constant(0.0), r_max=10.0)
    res = qd.integrate_turn_rate(p, c=0.0, r_lo=1.0)
    assert res.value == 0.0
    assert res.status == "converged"


def test_start_inside_forbidden_region_rejected():
    p = jacobi.solve_jacobi(cv.constant(0.0), r_max=10.0)
    with pytest.raises(ValueError):
        qd.integrate_turn_rate(p, c=2.0, r_lo=1.0)


def test_error_estimate_honest():
    p = jacobi.solve_jacobi(cv.constant(-1.0), r_max=30.0)
    rq = 1.0
    res = qd.integrate_turn_rate(p, c=math.sinh(rq), r_lo=rq, tol=1e-10)
    truth = math.atan(1.0 / math.sinh(rq))
    assert abs(res.value - truth) <= max(res.abs_error, 1e-9)
