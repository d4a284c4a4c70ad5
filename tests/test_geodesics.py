import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
        gd.trace(flat, 1.0, -0.1, s_max=1.0)
    with pytest.raises(ValueError):
        gd.trace(flat, 0.0, 1.0, s_max=1.0)
    tr = gd.trace(flat, 2.0, 1.0, s_max=1.0, n_points=3)
    assert (tr.r_q, tr.kappa) == (2.0, 1.0)
    assert tr.c == flat.m(2.0) * math.sin(1.0)
    assert tr.c == pytest.approx(2.0 * math.sin(1.0), rel=1e-10)


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


def _hyperbolic_turn(r_q, kappa):
    """The turn angle on the hyperbolic plane in closed form, in 30 digits:
    with c = sinh(r_q) sin kappa, d = asinh c, s = acosh(cosh r_q / cosh d),
    theta = atan(tanh s / sinh d) and P = atan(1 / sinh d), it is P - theta
    for kappa <= pi/2 and P + theta above.  In floats the acosh loses
    digits near tangential launches."""
    with mpmath.workdps(30):
        r_q, kappa = mpmath.mpf(r_q), mpmath.mpf(kappa)
        d = mpmath.asinh(mpmath.sinh(r_q) * mpmath.sin(kappa))
        s = mpmath.acosh(mpmath.cosh(r_q) / mpmath.cosh(d))
        theta = mpmath.atan(mpmath.tanh(s) / mpmath.sinh(d))
        big = mpmath.atan(1 / mpmath.sinh(d))
        return float(big - theta if kappa <= mpmath.pi / 2 else big + theta)


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
def test_hyperbolic_sweep_stays_in_band(hyperbolic, tol):
    # 300 seeded launches, r_q log-uniform in [0.01, 10]: each turn angle
    # lies within 1e-15 of the closed form, whatever the tolerance, since
    # every leg lies on the closed-form tail; with the profile from
    # DOP853, 218 of them missed even their abs_error, by up to 1,392
    # times
    rng = random.Random(7)
    launches = [(0.01 * 1000.0 ** rng.random(), rng.uniform(0.01, math.pi - 0.01))
                for _ in range(300)]
    r_q, kappa = zip(*launches)
    for (r, k), res in zip(launches, gd.turn_angles(hyperbolic, r_q, kappa, tol=tol)):
        assert res.status == "converged"
        assert abs(res.value - _hyperbolic_turn(r, k)) <= 1e-15


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
        # (value, abs_error, status, side or the exception it raises,
        #  closed_side's inside for T <= pi and for T < pi)
        (math.inf, 0.0, qd.STATUS_DIVERGENT_TANGENCY, 1, False, False),
        (math.inf, 0.0, qd.STATUS_DIVERGENT_TAIL, 1, False, False),
        (pi + 1e-3, 1e-12, qd.STATUS_WINDOW_LIMITED, 1, False, False),   # already past pi
        (pi - 1e-3, 1e-12, qd.STATUS_WINDOW_LIMITED, und, True, False),  # unseen tail
        (pi, 1e-12, qd.STATUS_WINDOW_LIMITED, und, True, False),
        (pi - 1e-3, 1e-12, qd.STATUS_CONVERGED, -1, True, True),         # below the band
        (pi - tol, 1e-12, qd.STATUS_CONVERGED, -1, True, True),          # ... on its edge
        (pi + 1e-3, 1e-12, qd.STATUS_CONVERGED, 1, False, False),        # above the band
        (pi + 1e-7, 1e-6, qd.STATUS_CONVERGED, und, True, False),        # band too wide
        (pi + 1e-9, 1e-12, qd.STATUS_CONVERGED, 0, True, False),         # precision floor
        (pi - 1e-9, 1e-12, qd.STATUS_CONVERGED, 0, True, False),
        # the inward radial has no turn integral: is_pole decides it
        (math.nan, math.nan, gd.STATUS_RADIAL_INWARD, ValueError, ValueError, ValueError),
    ]
    for value, err, status, want, closed, strict in table:
        res = qd.IntegralResult(value, err, status)
        if want in (und, ValueError):
            with pytest.raises(want) as exc:
                gd.side_of_pi(res, tol)
            if status == qd.STATUS_WINDOW_LIMITED:
                assert exc.value.abs_error == math.inf
        else:
            assert gd.side_of_pi(res, tol) == want, (value, err, status)
        if closed is ValueError:
            for flag in (False, True):
                with pytest.raises(ValueError):
                    gd.closed_side(res, tol, strict=flag)
            continue
        band = max(err, tol)
        assert gd.closed_side(res, tol) == (closed, value - pi - band), (value, err, status)
        assert gd.closed_side(res, tol, strict=True) == (strict, value - pi + band)


@st.composite
def _results(draw):
    """A turn angle of any quadrature status, near pi or far from it,
    with a band narrower or wider than the tolerance."""
    status = draw(st.sampled_from([qd.STATUS_CONVERGED, qd.STATUS_WINDOW_LIMITED,
                                   qd.STATUS_DIVERGENT_TANGENCY, qd.STATUS_DIVERGENT_TAIL]))
    if status in (qd.STATUS_DIVERGENT_TANGENCY, qd.STATUS_DIVERGENT_TAIL):
        return qd.IntegralResult(math.inf, 0.0, status)
    scale = draw(st.sampled_from([1e-12, 1e-8, 1e-6, 1e-3, 1.0]))
    value = math.pi + scale * draw(st.floats(-3.0, 3.0))
    err = draw(st.sampled_from([0.0, 1e-12, 1e-8, 1e-6, 1e-3, math.inf]))
    return qd.IntegralResult(value, err, status)


@settings(max_examples=300, deadline=None)
@given(res=_results(), tol=st.sampled_from([1e-10, 1e-8, 1e-6]), strict=st.booleans())
def test_closed_side_gap_agrees_with_inside(res, tol, strict):
    # the gap's sign says what the answer says, so the ITP step may read
    # it, up to the rounding of pi -+ band, where the search takes the
    # midpoint; the exception is the strict set, which no window-limited
    # angle is certified to lie in, whatever its gap
    inside, gap = gd.closed_side(res, tol, strict)
    if strict and res.status == qd.STATUS_WINDOW_LIMITED:
        assert not inside
        return
    assert inside == (gap <= 0) or abs(gap) <= 2 * math.ulp(math.pi), (inside, gap)


def test_search_closed_bisects_either_order():
    # the closed set x <= 0.3, with turn angles near its edge whose band
    # is too wide to decide: closed_side counts them as inside, so the
    # bracket closes on 0.301; with nan values the search bisects
    def probe(_, xs):
        out = []
        for x in xs:
            err = 1e-3 if abs(x - 0.3) < 1e-3 else 0.0
            res = qd.IntegralResult(math.pi + x - 0.3, err, qd.STATUS_CONVERGED)
            out.append((gd.closed_side(res, 1e-12)[0], math.nan))
        return out

    [(a, b)] = gd.search_closed([(0.0, 1.0, 1e-9, math.nan, math.nan)], probe)
    assert 0.3009 < a < b < 0.3011 and b - a <= 1e-9
    # the closed set x >= 1.7, with the inside end the larger
    [(a, b)] = gd.search_closed([(2.0, 1.0, 1e-9, math.nan, math.nan)],
                                lambda _, xs: [(x >= 1.7, math.nan) for x in xs])
    assert b < 1.7 <= a and a - b <= 1e-9


def test_search_closed_stops_at_float_spacing(flat):
    # a width below the spacing of the floats closes the bracket on
    # neighbouring floats instead of probing them forever
    for width in (1e-17, 1e-320):
        probes = []

        def probe(_, xs):
            probes.extend(xs)
            assert len(probes) <= 60
            return [(x <= 1.0, math.nan) for x in xs]

        [(a, b)] = gd.search_closed([(0.0, 3.0, width, math.nan, math.nan)], probe)
        assert (a, b) == (1.0, math.nextafter(1.0, 3.0))
    for width in (0.0, -1e-9, math.nan):
        with pytest.raises(ValueError):
            gd.search_closed([(0.0, 3.0, width, math.nan, math.nan)], probe)
    # every launch from r = 1 on the flat plane is a ray: the search
    # closes below pi without probing the inward radial, and the pole
    # test answers pi
    assert gd.max_ray_angle(flat, 1.0, kappa_tol=1e-17) == math.pi
    with pytest.raises(ValueError):
        gd.max_ray_angle(flat, 1.0, kappa_tol=0.0)


@st.composite
def _brackets(draw):
    """A bracket around a root, with a step answer and a noisy value.

    (inside, outside, width, root, slope, noise, gaps): the answer holds
    on the inside's side of root; the value is slope (x - root) (1 +
    (x - root)^2) towards the outside plus noise sin(1e4 x), so near the
    root its sign may disagree with the answer, and it is nan at the
    probes where sin(3e3 x) > gaps (never for gaps = 1).
    """
    root = draw(st.floats(-50.0, 50.0))
    length = draw(st.floats(1e-3, 20.0))
    frac = draw(st.floats(0.0, 1.0, exclude_max=True))
    inside, outside = root - frac * length, root + (1.0 - frac) * length
    assume(outside > root)
    if draw(st.booleans()):
        inside, outside = 2 * root - inside, 2 * root - outside
    width = length * 2.0 ** -draw(st.floats(0.5, 30.0))
    slope = draw(st.floats(1e-3, 1e3))
    noise = draw(st.sampled_from([0.0, 1e-12, 1e-6])) * slope * length
    gaps = draw(st.sampled_from([1.0, 1.0, 0.5]))
    return inside, outside, width, root, slope, noise, gaps


def _answer(bracket, x):
    inside, outside, _, root, slope, noise, gaps = bracket
    toward_out = math.copysign(1.0, outside - inside)
    hit = (x - root) * toward_out <= 0.0
    if math.sin(3e3 * x) > gaps:
        return hit, math.nan
    u = x - root
    return hit, toward_out * slope * u * (1 + u * u) + noise * math.sin(1e4 * x)


def _start(bracket):
    inside, outside, width = bracket[:3]
    return inside, outside, width, _answer(bracket, inside)[1], _answer(bracket, outside)[1]


def _search(brackets, count):
    def probe(ks, xs):
        for k in ks:
            count[k] = count.get(k, 0) + 1
        return [_answer(brackets[k], x) for k, x in zip(ks, xs)]

    return gd.search_closed([_start(b) for b in brackets], probe)


@settings(max_examples=60, deadline=None)
@given(brackets=st.lists(_brackets(), min_size=1, max_size=6))
def test_search_closed_bounds_its_probes(brackets):
    # every bracket closes to its width around its root, the inside end
    # answering inside and the outside end outside, within bisection's
    # probe count plus one -- and alone as in lockstep
    count = {}
    pairs = _search(brackets, count)
    for k, (b, (a, o)) in enumerate(zip(brackets, pairs)):
        inside, outside, width, root = b[:4]
        assert abs(o - a) <= width
        assert _answer(b, a)[0] and not _answer(b, o)[0]
        assert min(a, o) <= root <= max(a, o)
        limit = math.ceil(math.log2(abs(outside - inside) / width)) + 1
        assert count.get(k, 0) <= limit
        assert _search([b], {}) == [(a, o)]


@pytest.mark.parametrize("root, k, width", [
    (1.7918079144195904, 53.00766276779134, 3.337599941136023e-08),
    (0.9173297487591411, 18.510263983441387, 1.2355063543693341e-07),
    (0.8264683899510775, 53.609131062138744, 8.20214382112242e-06),
    (2.4496299843901097, 50.874230262502486, 3.5541671342934865e-09)])
def test_search_bound_survives_rounding(root, k, width):
    # on a steep convex value every probe is projected onto the edge of
    # what the probe count allows; aimed exactly at width, the rounding of
    # those probes cost these brackets one probe past the bound
    probes = []

    def probe(ks, xs):
        probes.extend(xs)
        return [(x <= root, math.expm1(k * (x - root))) for x in xs]

    [(a, o)] = gd.search_closed([(0.0, math.pi, width, math.expm1(-k * root),
                                  math.expm1(k * (math.pi - root)))], probe)
    assert a <= root < o and o - a <= width
    assert len(probes) <= math.ceil(math.log2(math.pi / width)) + 1


@settings(max_examples=40, deadline=None)
@given(bracket=_brackets(), zone=st.floats(0.0, 0.5))
def test_search_counts_undetermined_as_inside(bracket, zone):
    # turn angles whose band is too wide to decide, on the outside of the
    # root up to zone times the bracket, read as inside by closed_side:
    # the bracket closes beyond them
    inside, outside, width, root = bracket[:4]
    edge = root + zone * (outside - root)

    def probe(_, xs):
        out = []
        for x in xs:
            hit, _ = _answer(bracket, x)
            if hit:
                res = qd.IntegralResult(math.pi - 1.0, 0.0, qd.STATUS_CONVERGED)
            elif (x - edge) * (outside - inside) < 0:
                res = qd.IntegralResult(math.pi, 1.0, qd.STATUS_CONVERGED)
            else:
                res = qd.IntegralResult(math.pi + 1.0, 0.0, qd.STATUS_CONVERGED)
            out.append(gd.closed_side(res, 1e-8))
        return out

    [(a, o)] = gd.search_closed([(inside, outside, width, math.nan, math.nan)], probe)
    assert abs(o - a) <= width
    assert min(a, o) <= edge <= max(a, o)


def test_search_closes_on_interpolation():
    # a linear value closes the bracket in 7 probes where bisection takes
    # 30: the truncation steps shrink with the bracket, and once they fall
    # below width / 2 a probe lands width / 2 from the root and the next
    # one on its other side
    probes = []

    def probe(ks, xs):
        probes.extend(xs)
        return [(x <= 0.3, x - 0.3) for x in xs]

    [(a, o)] = gd.search_closed([(0.0, 1.0, 1e-9, -0.3, 0.7)], probe)
    assert a <= 0.3 < o and o - a <= 1e-9
    assert len(probes) <= 7


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
