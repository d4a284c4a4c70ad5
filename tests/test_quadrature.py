import math

import numpy as np
import pytest
from scipy.integrate import quad

from revplane import curvature as cv
from revplane import jacobi
from revplane import quadrature as qd

from closedforms import linear_profile


class StubProfile(jacobi.Profile):
    """Hand-specified profile for a non-polynomial m (polynomial ones are
    closedforms.linear_profile).

    Only m and mp are overridden, so the quadrature reads the same cached
    sample from a stub as from a solved profile; the stub has no pieces
    to take roots of.
    """

    def __init__(self, m, mp, spec, r_max=50.0):
        super().__init__(spec, None, None, r_max, math.nan)
        self._mf, self._mpf = m, mp

    def m(self, r):
        return self._mf(np.asarray(r, dtype=float)) if not np.isscalar(r) else float(self._mf(r))

    def mp(self, r):
        return self._mpf(np.asarray(r, dtype=float)) if not np.isscalar(r) else float(self._mpf(r))


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


def wavy_profile():
    return StubProfile(lambda r: 2.0 + np.sin(r), lambda r: np.cos(r),
                       cv.table([0.0, 40.0], [0.0, 0.0]), r_max=40.0)


def test_divergent_tangency_at_zero_slope():
    res = qd.integrate_turn_rate(wavy_profile(), c=3.0, r_lo=math.pi / 2)
    assert res.status == "divergent_tangency"
    assert res.value == math.inf


def test_trap_detected():
    # launched at a rising crossing of the level m = 2: the profile comes
    # back down to 2 half a period later, so the geodesic never escapes
    res = qd.integrate_turn_rate(wavy_profile(), c=2.0, r_lo=2 * math.pi)
    assert res.status == "divergent_tangency"
    assert res.value == math.inf


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
