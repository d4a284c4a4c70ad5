import ast
import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from revplane import analysis as an
from revplane import constructions as cx
from revplane import curvature as cv
from revplane import geodesics as gd
from revplane import jacobi
from revplane.errors import Undetermined

import referee
from closedforms import bump_profile, linear_profile


def flat_stub(r_max=50.0):
    return linear_profile(1.0, r_max=r_max)


def cone_stub(a, r_max=50.0):
    return linear_profile(a, r_max=r_max)


# --- point classification -------------------------------------------------

def test_flat_everywhere_critical_and_away():
    p = flat_stub()
    for r in (0.3, 2.0, 17.0):
        assert an.is_critical(p, r)
        assert an.in_away_set(p, r)


def test_steep_cone_critical_shallow_cone_not():
    # turn angle of the tangential geodesic on a cone of slope a is pi/(2a)
    assert an.is_critical(cone_stub(0.7), 3.0)       # 2.244 < pi
    assert not an.is_critical(cone_stub(0.4), 3.0)   # 3.927 > pi
    assert not an.in_away_set(cone_stub(0.4), 3.0)


def test_half_slope_cone_boundary_sides():
    # slope exactly 1/2: the turn angle equals pi, critical but not away
    p = cone_stub(0.5)
    assert an.is_critical(p, 4.0)
    assert not an.in_away_set(p, 4.0)


def test_away_set_window_limited_raises():
    prof = jacobi.solve_jacobi(cv.isq(0.0), r_max=50.0)
    with pytest.raises(Undetermined):
        an.in_away_set(prof, 5.0)


def test_bulge_trap_band_and_far_recovery(bulge):
    p = bulge.profile
    # at the closed geodesic the tangential geodesic never escapes
    assert not an.is_critical(p, math.pi / 2)
    assert not an.in_away_set(p, math.pi / 2)
    # far out in the steep flare the turn angle collapses to ~0
    assert an.is_critical(p, 45.0)
    assert an.in_away_set(p, 45.0)


# --- poles ----------------------------------------------------------------

def test_flat_is_pole_everywhere():
    p = flat_stub()
    assert an.is_pole(p, 1.0)
    assert an.is_pole(p, 20.0)
    assert gd.max_ray_angle(p, 7.0) == math.pi


def test_cone_points_are_not_poles():
    assert not an.is_pole(cone_stub(0.4), 2.0)
    assert not an.is_pole(cone_stub(0.9), 11.0)


def test_max_ray_angle_on_cones():
    # T(kappa) = kappa/a, so the last ray angle is a*pi
    for a in (0.4, 0.7):
        got = gd.max_ray_angle(cone_stub(a), 3.0)
        assert abs(got - a * math.pi) < 1e-6


def test_max_ray_angle_cone_tail_of_solved_plane(cone03_long):
    # far outside the cap the profile is exactly linear and the cone law
    # applies as long as the inner leg stays in the linear zone
    got = gd.max_ray_angle(cone03_long.profile, 300.0)
    assert abs(got - 0.3 * math.pi) < 1e-6


def test_pole_decision_matches_brute_force(cone03):
    p = cone03.profile
    r_q = 1.0
    sup = -math.inf
    for kappa in np.linspace(0.3, math.pi - 0.02, 60):
        res = gd.turn_angle(p, r_q, float(kappa))
        sup = max(sup, res.value)
    assert an.is_pole(p, r_q) == (sup <= math.pi + 1e-6)


@pytest.mark.parametrize("plane, r_q, pole, most", [("flat60", 1.0, True, 16),
                                                    ("cone09", 4.0, False, 0)])
def test_pole_test_reads_its_batch_before_polishing(plane, r_q, pole, most, request,
                                                    monkeypatch):
    # the polish is the only scalar turn_angle work, to sqrt(tol), and an
    # approach probe that is not a ray settles the answer without it
    p = request.getfixturevalue(plane)
    p = getattr(p, "profile", p)
    calls = []
    turn_angle = gd.turn_angle

    def counted(*args, **kw):
        calls.append(args)
        return turn_angle(*args, **kw)

    monkeypatch.setattr(gd, "turn_angle", counted)
    assert an.is_pole(p, r_q) is pole
    assert len(calls) <= most


def test_pole_ball_flat_and_cone():
    assert an.pole_ball_radius(flat_stub()) == math.inf
    assert an.pole_ball_radius(cone_stub(0.4)) == 0.0
    # the doubling starts from the origin, a pole: on the s = 0.02 cone
    # (window 201,147) its first probe r_max * 1e-4 = 20.1 is rejected,
    # yet the pole ball is not empty, and lies in the critical ball
    p = cx.build_smoothed_cone(0.02).profile
    assert 0.0 < an.pole_ball_radius(p) < an.critical_ball_radius(p)


# --- radii ----------------------------------------------------------------

def test_inverse_square_divergence_flags(bounded_table):
    assert an.radial_inverse_square_diverges(bounded_table.profile)
    assert not an.radial_inverse_square_diverges(flat_stub())


def test_half_slope_radius_flat_is_inf():
    assert an.half_slope_radius(flat_stub()) == math.inf


def test_half_slope_radius_cone(cone03):
    rho_m = an.half_slope_radius(cone03.profile)
    assert abs(cone03.profile.mp(rho_m) - 0.5) < 1e-8
    # the slope falls through 1/2 strictly inside the curved cap
    assert 0.0 < rho_m < cone03.z


def test_critical_ball_radius_edge_cases(bounded_table):
    assert an.critical_ball_radius(flat_stub()) == math.inf
    assert an.critical_ball_radius(bounded_table.profile) == 0.0
    # m' is 1/2 from r = 0 on: the bracket closes on its near end, inside
    assert an.critical_ball_radius(cone_stub(0.5)) == math.inf
    # m' dips to 0.05 at r = 3 and ends at 0.55 >= 1/2, yet the tangential
    # turn angle crosses pi: the ball ends there, not at infinity
    dip = bump_profile(0.55, -0.5, 3.0, 1.0)
    rm = an.critical_ball_radius(dip)
    assert rm == pytest.approx(0.9436323, abs=1e-6)
    assert abs(gd.turn_angle(dip, rm, math.pi / 2).value - math.pi) < 1e-7
    # K = 1 out to 1.52, then a drop to K = 0: m' ends at 0.026 > 0 on
    # the zero tail, so the integral of 1/m^2 converges however slowly m
    # grows (no sample near r_max 50 shows it), and the ball ends at
    # 0.04, before r_max * 1e-4 = 0.2 on the window 2000
    spec = cv.spliced(cv.constant(1.0), 1.52, cv.DropParams(1.0, 0.05))
    for r_max in (50.0, 2000.0):
        sp = jacobi.solve_jacobi(spec, r_max=r_max)
        assert sp.tail is not None
        assert not an.radial_inverse_square_diverges(sp)
        rm = an.critical_ball_radius(sp)
        assert rm == pytest.approx(0.0405292974763557, abs=1e-9)
        assert an.is_critical(sp, 0.999 * rm) and not an.is_critical(sp, 1.001 * rm)


def test_critical_ball_radius_cone(cone03):
    # the s = 0.02 and 0.03 balls end at 6.46 and 6.66, before the first
    # point r_max * 1e-4 of their windows (20.1 and 7.7): the search
    # starts at the origin, not at a point sized by the window
    for cone in (cone03, *map(cx.build_smoothed_cone, (0.02, 0.03, 0.05, 0.45))):
        p = cone.profile
        rm = an.critical_ball_radius(p)
        assert 0.0 < rm < math.inf
        res = gd.turn_angle(p, rm, math.pi / 2)
        assert abs(res.value - math.pi) < 1e-7
        assert an.is_critical(p, 0.9 * rm)
        assert not an.is_critical(p, 1.1 * rm)
        # the ball ends before the slope reaches 1/2
        assert rm < an.half_slope_radius(p)
        # from r_max = rho + 1 on, the window changes neither the profile
        # below the zero tail at rho nor the bracket (0, half-slope
        # radius), and the turn beyond rho is closed-form: one float
        for r_max in (cone.rho + 1.0, 2.0 * cone.rho + 100.0, 10.0 * cone.rho):
            assert an.critical_ball_radius(jacobi.solve_jacobi(cone.spec, r_max=r_max)) == rm


# --- scans ----------------------------------------------------------------

def test_scan_disconnected_critical_set(flare, tmp_path):
    rep = an.scan_sets(flare.profile, n=192)
    assert len(rep.critical_intervals) >= 2
    # the chosen non-critical radius falls in the gap
    for a, b in rep.critical_intervals:
        assert not (a <= flare.r_q <= b)
    # the flare only weakens the turning beyond the splice, so the first
    # component reaches at least as far as the base cone's critical ball
    # but must stop short of the chosen radius
    first = rep.critical_intervals[0]
    assert flare.base_critical_radius - 1e-6 <= first[1] < flare.r_q
    # and ends where critical_ball_radius puts the edge of the ball
    r_crit = an.critical_ball_radius(flare.profile)
    assert abs(first[1] - r_crit) <= 1e-9 * max(1, r_crit)

    def critical(x):
        try:
            return an.is_critical(flare.profile, x)
        except Undetermined:
            return True

    def away(x):
        try:
            return an.in_away_set(flare.profile, x)
        except Undetermined:
            return False

    # every refined end inside the grid is where the critical side flips,
    # left ends (bisected downward from the grid) as well as right ends;
    # Undetermined counts as critical (the closed set holds its boundary)
    # but not as away (the strict set does not)
    for intervals, side in ((rep.critical_intervals, critical), (rep.away_intervals, away)):
        for a, b in intervals:
            for edge, inward in ((a, 1.0), (b, -1.0)):
                if rep.r[0] < edge < rep.r[-1]:
                    assert side(edge * (1.0 + inward * 1e-6)), edge
                    assert not side(edge * (1.0 - inward * 1e-6)), edge

    blob = json.loads(rep.to_json())
    assert blob["critical_intervals"] == rep.critical_intervals
    assert blob["spec"] is not None and blob["spec"]["kind"] == "spliced"

    csv_path = tmp_path / "scan.csv"
    rep.to_csv(str(csv_path))
    head = csv_path.read_text().splitlines()
    assert head[0] == "r,turn,abs_error,status,critical,away"
    assert len(head) == len(rep.r) + 1

    svg_path = tmp_path / "scan.svg"
    rep.to_svg(str(svg_path))
    text = svg_path.read_text()
    assert text.startswith("<svg") and "<rect" in text


def _own_nodes(fn):
    """The nodes of fn's own scope (not of nested defs or lambdas)."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        n = stack.pop()
        if not isinstance(n, (ast.FunctionDef, ast.Lambda)):
            yield n
            stack.extend(ast.iter_child_nodes(n))


def test_one_closed_side_reader():
    # every search and every pole decision reads its turn angles through
    # geodesics.closed_side: in analysis only the scan grid's three-state
    # _side catches Undetermined, and the readings closed_side replaced
    # are gone from geodesics
    src = Path(an.__file__).parent
    trees = {name: ast.parse((src / f"{name}.py").read_text())
             for name in ("analysis", "geodesics")}
    defs = {name: {d.name: d for d in ast.walk(tree) if isinstance(d, ast.FunctionDef)}
            for name, tree in trees.items()}
    catching = {fn.name for fn in defs["analysis"].values() for n in _own_nodes(fn)
                if isinstance(n, ast.ExceptHandler)
                and (n.type is None or "Undetermined" in ast.unparse(n.type)
                     or "Exception" in ast.unparse(n.type))}
    assert catching == {"_side"}
    assert {"pi_gap", "bisect_closed"}.isdisjoint(defs["geodesics"])
    assert "ray" not in defs["analysis"]
    for module, name in (("analysis", "scan_sets"), ("analysis", "is_pole"),
                         ("analysis", "critical_ball_radius"),
                         ("geodesics", "max_ray_angle")):
        assert "closed_side" in ast.unparse(defs[module][name]), name
    # the critical ball's edge is found as the scan's edges are
    assert "search_closed" in ast.unparse(defs["analysis"]["critical_ball_radius"])


def test_scan_reports_window_limited_points_as_gaps(cone03):
    # on a window of 40 every tangential turn angle of the s = 0.3 cone
    # is window limited: no retry can settle it, so each point is a gap,
    # neither critical nor away
    rep = an.scan_sets(jacobi.solve_jacobi(cone03.spec, r_max=40.0), n=32)
    assert set(rep.status) == {"window_limited"}
    assert rep.undetermined == rep.r
    assert not any(rep.critical) and not any(rep.away)
    assert rep.critical_intervals == rep.away_intervals == []


def test_scan_flat_stub_single_interval():
    rep = an.scan_sets(flat_stub(), n=48)
    assert rep.critical_intervals == [[rep.r[0], rep.r[-1]]]
    assert rep.away_intervals == [[rep.r[0], rep.r[-1]]]
    assert rep.undetermined == []


def test_scan_flags_match_point_predicates():
    # on the slope-1/2 cone every tangential turn angle is pi, the closed
    # side's boundary: the grid flags come from the same comparison as
    # is_critical and in_away_set
    p = cone_stub(0.5)
    rep = an.scan_sets(p, n=12)
    assert rep.undetermined == []
    assert rep.critical == [an.is_critical(p, r) for r in rep.r]
    assert rep.away == [an.in_away_set(p, r) for r in rep.r]


def _per_radius(profile, r_q, kappa, tol=1e-8):
    return [gd.turn_angle(profile, float(r), float(k), tol=tol)
            for r, k in np.broadcast(r_q, kappa)]


@pytest.mark.parametrize("plane, n", [("flare", 64), ("cone03", 64), ("stub", 48)])
def test_scan_batch_matches_per_radius_turn_angles(plane, n, request, monkeypatch):
    # the grid goes to turn_angles as one batch; the report must be the one
    # built from one turn_angle call per radius
    p = flat_stub() if plane == "stub" else request.getfixturevalue(plane).profile
    rep = an.scan_sets(p, n=n)
    monkeypatch.setattr(gd, "turn_angles", _per_radius)
    ref = an.scan_sets(p, n=n)
    if plane == "flare":
        assert len(ref.critical_intervals) >= 2
    assert (rep.critical, rep.away, rep.status) == (ref.critical, ref.away, ref.status)
    assert rep.critical_intervals == ref.critical_intervals
    assert rep.away_intervals == ref.away_intervals
    assert rep.undetermined == ref.undetermined
    turn, want = np.array(rep.turn), np.array(ref.turn)
    assert np.all((turn == want) | (np.abs(turn - want) <= 4e-15 * (1.0 + np.abs(want))))
    assert np.all(np.abs(np.array(rep.abs_error) - ref.abs_error) <= 1e-14)


# --- neck exclusion -------------------------------------------------------

def test_neck_bound_slow_stub():
    p = linear_profile(0.05, 1.0, r_max=200.0)
    rep = an.neck_bound(p, 10.0, 110.0)
    assert rep.applicable
    assert abs(rep.b - 0.05) < 1e-12
    expect_f = (math.cos(0.05 * math.pi) * (1.0 + 0.05 * 110.0) - 1.0) / 0.05
    assert abs(rep.f - expect_f) < 1e-6
    assert rep.excluded == [10.0, rep.f]


def test_landmarks_narrower_than_a_grid():
    # m' dips below 1/2 for only 1e-3 around r = 20, which a uniform grid
    # of [0, 50] with fewer than 50,000 points can step over: the
    # half-slope radius is the dip's first root, where (1 - t^2)^2 = 9/16
    p = bump_profile(1.0, -8.0 / 9.0, 20.0, 1e-3)
    assert an.half_slope_radius(p) == pytest.approx(20.0 - 5e-4, abs=1e-12)
    # a bump of width 2e-3 lifts the slope from 0.1 to 0.45 inside [x, y]
    rep = an.neck_bound(bump_profile(0.1, 0.35, 30.0, 1e-3), 10.0, 45.0)
    assert rep.applicable
    assert abs(rep.b - 0.45) <= 1e-12


def test_neck_bound_inapplicable_cases(bulge):
    rep = an.neck_bound(flat_stub(), 1.0, 10.0)
    assert not rep.applicable and "1/2" in rep.reason
    rep2 = an.neck_bound(bulge.profile, 1.0, 10.0)
    assert not rep2.applicable and "vanishes" in rep2.reason
    with pytest.raises(ValueError):
        an.neck_bound(flat_stub(), 5.0, 3.0)


def test_neck_bound_on_cone_tail_reaches_and_misses(cone03_long):
    p = cone03_long.profile
    # y only 10 past x: the threshold radius f stays far below x
    rep = an.neck_bound(p, cone03_long.rho + 10.0, cone03_long.rho + 20.0)
    assert rep.applicable and rep.excluded is None and rep.f < cone03_long.rho

    # a wide stretch makes the exclusion bite: every excluded radius is
    # genuinely non-critical
    rep2 = an.neck_bound(p, 40.0, 500.0)
    assert rep2.applicable and rep2.excluded is not None
    x, f = rep2.excluded
    assert x <= f
    for r in np.linspace(x, f, 12):
        assert not an.is_critical(p, float(r))


# --- tables with a constant tail ----------------------------------------------

_TABLE_R = np.linspace(0.0, 12.0, 49)


def _tangential_turn(m, r_c, r_q):
    """The tangential turn angle from r_q on the referee's m (a function
    of one radius, referee.dense): 20-point Gauss-Legendre on each cell
    of the table below r_c, where K turns to 0 (on the first in s, r =
    r_q + s^2, which takes out the integrand's inverse square root), plus
    the exact linear tail asin(c / m(r_c)) / m'(r_c) beyond."""
    x, w = np.polynomial.legendre.leggauss(20)
    c = m(r_q)
    ends = [r_q, *(t for t in _TABLE_R.tolist() if r_q < t < r_c), r_c]
    total = 0.0
    for k, (a, b) in enumerate(zip(ends, ends[1:])):
        if k == 0:
            half = math.sqrt(b - a) / 2
            for s, ws in zip(half * (x + 1), half * w):
                mr = m(a + s * s)
                total += float(ws * 2 * s * c / (mr * mpmath.sqrt((mr - c) * (mr + c))))
        else:
            for t, wt in zip((b - a) / 2 * (x + 1) + a, (b - a) / 2 * w):
                mr = m(t)
                total += float(wt * c / (mr * mpmath.sqrt((mr - c) * (mr + c))))
    m_c = m(r_c)
    mp_c = (m(r_c + 0.5) - m_c) / 0.5  # m is linear beyond r_c
    return total + float(mpmath.asin(c / m_c) / mp_c)


def test_table_with_a_constant_tail_closes_its_turn_angles():
    # K = 0.3 (1 - r/6)^2 below 6 and 0 beyond, as a table to 12: the tail
    # from r = 6 on is exact, so nothing is window-limited, and the
    # critical ball is where the referee's turn angle is pi
    K = np.where(_TABLE_R < 6.0, 0.3 * (1.0 - _TABLE_R / 6.0) ** 2, 0.0)
    spec = cv.table(_TABLE_R, K, extrapolate="constant")
    assert spec.constant_beyond() == (6.0, 0.0)
    p = jacobi.solve_jacobi(spec, r_max=120.0)
    assert p.tail[:2] == (6.0, 0.0)
    assert set(an.scan_sets(p, n=64).status) == {"converged"}
    got = an.critical_ball_radius(p, tol=1e-12)
    # the secant method on T - pi from the library's answer
    m = referee.dense(spec, 7.0)
    r0, r1 = got - 1e-5, got + 1e-5
    t0, t1 = (_tangential_turn(m, 6.0, r) - math.pi for r in (r0, r1))
    for _ in range(3):
        r0, r1 = r1, r1 - t1 * (r1 - r0) / (t1 - t0)
        t0, t1 = t1, _tangential_turn(m, 6.0, r1) - math.pi
    assert abs(got - r1) <= 1e-9 * max(1.0, r1)
    # slope 0.634 beyond r = 4: every point is critical, and decided so
    K = np.where(_TABLE_R < 4.0, 0.5 * (1.0 - _TABLE_R / 4.0) ** 3, 0.0)
    p = jacobi.solve_jacobi(cv.table(_TABLE_R, K, extrapolate="constant"), r_max=120.0)
    assert set(an.scan_sets(p, n=64).status) == {"converged"}
    assert an.critical_ball_radius(p) == math.inf
