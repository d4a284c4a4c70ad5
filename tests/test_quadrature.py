import copy
import math
import random

import mpmath
import numpy as np
import numpy.polynomial as P
import pytest
from scipy.integrate import quad

from revplane import curvature as cv
from revplane import geodesics as gd
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


# --- the closed-form tail ------------------------------------------------


@pytest.fixture
def panels(monkeypatch):
    """Every radius a GK15 panel evaluates the profile at, while it runs:
    the body's nodes, and the head's Newton iterates and chords."""
    radii, inside = [], [False]
    gk15, evaluate = qd._gk15, jacobi.Profile._eval

    def gk15_spy(*args):
        inside[0] = True
        try:
            return gk15(*args)
        finally:
            inside[0] = False

    def eval_spy(self, pp, r):
        if inside[0]:
            radii.append(float(np.max(r)))
        return evaluate(self, pp, r)

    monkeypatch.setattr(qd, "_gk15", gk15_spy)
    monkeypatch.setattr(jacobi.Profile, "_eval", eval_spy)
    return radii


def _two_term_turn(p, c, r_lo, r_hi=None):
    """The turn integral from r_lo on, in 30 digits, over the two-term
    solution through m and m' where the profile's constant tail starts.
    mpmath's quadrature error is absolute, so the integrand is scaled to
    a value near 1 first."""
    r_c, k = p.spec.constant_beyond()
    with mpmath.workdps(30):
        q, c = mpmath.sqrt(-k), mpmath.mpf(c)
        m0, mp0 = mpmath.mpf(p.m(r_c)), mpmath.mpf(p.mp(r_c))

        def m(r):
            return m0 * mpmath.cosh(q * (r - r_c)) + mp0 / q * mpmath.sinh(q * (r - r_c))

        ends = [r_lo + d for d in (0.0, 0.5, 2.0, 8.0) if r_hi is None or r_lo + d < r_hi]
        ends.append(mpmath.inf if r_hi is None else r_hi)
        scale = 1
        for _ in range(2):
            value = mpmath.quad(lambda r: scale * c / (m(r) * mpmath.sqrt(m(r) ** 2 - c ** 2)),
                                ends) / scale
            scale = 1 / value
        return float(value)


def test_tail_start_recorded(flat60, hyp30, cone03, bulge, flare):
    # (r_a, k, E): the seed radius on the flat and hyperbolic planes, the
    # cap's end on the cone and the drop's end on the flare; on the bulge
    # m still falls where K = -7 starts, and r_a is its minimum
    assert flat60.tail == (jacobi.SEED_RADIUS, 0.0, 1.0)
    assert hyp30.tail[:2] == (jacobi.SEED_RADIUS, -1.0)
    assert hyp30.tail[2] == pytest.approx(1.0, abs=1e-15)
    assert cone03.profile.tail[:2] == (cone03.rho, 0.0)
    assert cone03.profile.tail[2] == cone03.slope ** 2
    r_c, k = bulge.spec.constant_beyond()
    assert bulge.profile.mp(r_c) < 0.0
    r_a = bulge.profile.tail[0]
    assert r_a == pytest.approx(bulge.profile.extrema[-1], abs=1e-12)
    assert r_a == pytest.approx(2.678, abs=1e-3)
    assert flare.profile.tail[:2] == flare.spec.constant_beyond()
    # hand-built profiles, and tails that are not k <= 0, carry none
    assert linear_profile(0.5).tail is None
    assert jacobi.solve_jacobi(cv.isq(0.0), r_max=20.0).tail is None


def test_flat_turn_is_kappa_without_panels(flat60, panels):
    # every leg from SEED_RADIUS on is closed-form: T = kappa to within
    # the rounding of the launch angle pi/2 - kappa, at the scale of 1
    rng = random.Random(11)
    launches = []
    while len(launches) < 400:
        r, k = jacobi.SEED_RADIUS * (5e7 ** rng.random()), rng.uniform(0.0, math.pi)
        if k < math.pi and r * math.sin(k) >= jacobi.SEED_RADIUS:
            launches.append((r, k))
    for (r, k), res in zip(launches, gd.turn_angles(flat60, *zip(*launches))):
        assert res.status == "converged"
        assert abs(res.value - k) <= 4 * math.ulp(max(k, 1.0)), (r, k)
    assert panels == []


def test_cone_beyond_cap_is_kappa_over_slope(cone03, cone09, panels):
    for b in (cone03, cone09):
        p, s = b.profile, b.profile.mp(b.rho)
        rng = random.Random(12)
        launches = []
        while len(launches) < 200:
            r, k = b.rho + (p.r_max - b.rho) * rng.random(), rng.uniform(0.0, math.pi - 0.01)
            # inward launches turn beyond rho too
            if p.m(r) * math.sin(k) >= p.m(b.rho):
                launches.append((r, k))
        for (r, k), res in zip(launches, gd.turn_angles(p, *zip(*launches))):
            assert abs(res.value - k / s) <= 4 * math.ulp(max(k / s, 1.0)), (r, k)
    assert panels == []


@pytest.mark.parametrize("plane", ["bulge", "flare"])
def test_tail_matches_two_term_reference(plane, request):
    # K = -7 beyond the bulge's drop (E < 0, launches from its minimum
    # on), K = -1 beyond the flare's (E < 0, m' > 0 from the start)
    p = request.getfixturevalue(plane).profile
    r_a = p.tail[0]
    rng = random.Random(13)
    for _ in range(12):
        r_lo = r_a + (p.r_max - r_a) * rng.random() ** 3
        c = p.m(r_lo) * math.sin(rng.uniform(0.05, math.pi / 2 - 0.05))
        for r_hi in (None, min(p.r_max, r_lo + 0.3 * rng.random())):
            res = qd.integrate_turn_rate(p, c, r_lo, r_hi)
            assert res.status == "converged"
            assert abs(res.value - _two_term_turn(p, c, r_lo, r_hi)) <= res.abs_error


@pytest.mark.parametrize("r_lo", [27.0, 29.9])
def test_hyperbolic_far_field_matches_mpmath(hyp30, r_lo):
    # the leg the oracle adds to its trace: the value is ~1e-24, and
    # tan w / m' from cos(arccos(c / m)) would lose it entirely
    for c in (0.01, math.sinh(1.3) * math.sin(0.5), 1.0, 1e3):
        res = qd.integrate_turn_rate(hyp30, c, r_lo)
        with mpmath.workdps(30):
            cc, scale = mpmath.mpf(c), mpmath.sinh(r_lo) ** 2 / c
            want = mpmath.quad(lambda r: scale * cc / (mpmath.sinh(r) * mpmath.sqrt(
                mpmath.sinh(r) ** 2 - cc ** 2)), [r_lo, r_lo + 1, r_lo + 8, mpmath.inf]) / scale
        assert res.status == "converged"
        assert res.value == pytest.approx(float(want), rel=1e-14)


def test_legs_across_tail_start_match_numeric_route(cone03, panels):
    # launches inside the cap: the leg is integrated up to rho and closed
    # beyond it; with no tail on the profile it is integrated to r_max and
    # closed by the linear tail, the route hand-built profiles still take
    p = cone03.profile
    whole = copy.copy(p)
    whole.tail = None
    rng = random.Random(14)
    launches = [(cone03.rho * rng.random(), rng.uniform(0.01, math.pi - 0.01))
                for _ in range(60)]
    for tol in (1e-8, 1e-12):
        panels.clear()
        split = gd.turn_angles(p, *zip(*launches), tol=tol)
        assert max(panels) <= cone03.rho
        for res, ref in zip(split, gd.turn_angles(whole, *zip(*launches), tol=tol)):
            assert res.status == ref.status == "converged"
            band = ref.abs_error if tol == 1e-12 else ref.abs_error + res.abs_error
            assert abs(res.value - ref.value) <= band


@pytest.mark.parametrize("plane", ["flat60", "hyp30", "cone03", "cone09", "bulge", "flare"])
def test_no_panel_beyond_tail_start(plane, request, panels):
    built = request.getfixturevalue(plane)
    p = getattr(built, "profile", built)
    rng = random.Random(15)
    r_q = [1e-3 * (0.9 * p.r_max / 1e-3) ** rng.random() for _ in range(40)]
    kappa = [rng.uniform(0.0, math.pi - 0.01) for _ in r_q]
    kappa[::4] = [math.pi / 2] * len(kappa[::4])
    gd.turn_angles(p, r_q, kappa)
    assert max(panels, default=0.0) <= p.tail[0]


def test_hand_built_profiles_keep_numeric_route(panels):
    # stubs carry no tail: their legs run the GK15 passes to the window
    # end, and the linear stub's tail beyond it is asin(c / m) / m'
    p = linear_profile(0.5)
    res = qd.integrate_turn_rate(p, c=1.0, r_lo=2.0)
    assert p.tail is None and max(panels) > 0.99 * p.r_max
    assert res.value == pytest.approx(math.pi, abs=1e-9)


def test_bulge_well_still_traps(bulge):
    # m has its minimum where the K = -7 tail starts to rise: a geodesic
    # launched tangentially in the core with c just above it comes back
    # down to its turning circle and is trapped; just below, it passes
    p = bulge.profile
    m_min = p.m(p.tail[0])
    for factor in (1e-6, 1e-12):
        c = m_min * (1.0 + factor)
        res = qd.integrate_turn_rate(p, c, p.level_radius(c, 0.0, math.pi / 2))
        assert res.status == "divergent_tangency" and res.value == math.inf
    c = m_min * (1.0 - 1e-6)
    res = qd.integrate_turn_rate(p, c, p.level_radius(c, 0.0, math.pi / 2))
    assert res.status == "converged" and math.isfinite(res.value)
