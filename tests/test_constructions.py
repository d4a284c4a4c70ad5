import math
import random

import mpmath
import numpy as np
import pytest

from revplane import analysis as an
from revplane import constructions as cx
from revplane import curvature as cv
from revplane import geodesics as gd
from revplane import jacobi
from revplane import quadrature as qd
from revplane.errors import BuildError


def test_cone_slopes_hit_target(cone03, cone05, cone09):
    # 0.8367747672389436 once stalled the slope tuning: it was tuned on a
    # shorter window than the built profile is solved on
    s_odd = 0.8367747672389436
    cases = ((cone03, 0.3), (cone05, 0.5), (cone09, 0.9),
             (cx.build_smoothed_cone(s_odd), s_odd))
    for build, s in cases:
        assert abs(build.slope - s) < 1e-9
        p = build.profile
        # curvature vanishes identically beyond rho ...
        probe = build.rho + np.linspace(0.5, 30.0, 7)
        assert np.all(build.spec.evaluate(probe) == 0.0)
        # ... so the slope out there is frozen at s
        assert np.all(np.abs(p.mp(probe) - s) < 1e-9)
        assert abs(p.mp(p.r_max) - s) < 1e-9


def test_seeded_cone_slopes_all_build():
    # 150 seeded slopes, plus the two that stalled the CLI cone op when
    # the solve stepped straight across the cap's joins, plus log-spaced
    # slopes down to 1e-3 and up to 1 - 1e-6: a search on u once stalled
    # on the small ones and clipped the large ones to an empty cap
    rng = random.Random(7)
    slopes = [rng.uniform(0.15, 0.95) for _ in range(150)]
    slopes += [0.8316479573726943, 0.9188358768387475]
    slopes += [*np.geomspace(1e-3, 0.5, 40), *(1.0 - np.geomspace(0.5, 1e-6, 40))]
    for s in slopes:
        b = cx.build_smoothed_cone(float(s))
        p = b.profile
        assert abs(p.mp(b.rho) - s) <= 1e-9, s
        assert abs(p.mp(p.r_max) - s) <= 1e-9, s
        assert cv.check_von_mangoldt(b.spec, p.r_max).is_vm, s


def test_cone_trials_solve_each_stretch_once(monkeypatch):
    # the bracket ends are trials too: brentq must not solve them again
    stretches = []
    series_stretch = jacobi.series_stretch
    monkeypatch.setattr(jacobi, "series_stretch",
                        lambda spec, lo, hi, *a: stretches.append((lo, hi))
                        or series_stretch(spec, lo, hi, *a))
    cx.build_smoothed_cone(0.3)
    # the built profile's own solve starts at the origin
    trials = stretches[:[lo for lo, _ in stretches].index(0.0)]
    assert len(trials) > 2
    assert len(set(trials)) == len(trials)


def test_cone_slope_does_not_jump_with_u():
    # stepping across the cap's C^2 joins once put ~1e-8 into m' that
    # jumped with the step count: u* and u*(1 + 1e-14) differed by 1.2e-8
    b = cx.build_smoothed_cone(0.8316479573726943)
    ends = []
    for u in (b.u, b.u * (1 + 1e-14)):
        spec = cv.isq_capped(u, b.eps)
        p = jacobi.solve_jacobi(spec, r_max=b.profile.r_max)
        ends.append(p.mp(p.r_max))
    assert abs(ends[1] - ends[0]) <= 1e-11


@pytest.mark.parametrize("z", [3.3, 74.0, 324.0])
def test_isq_state_matches_mpmath(z):
    # m = sqrt(x) (K0(a) I0(a x) - I0(a) K0(a x)), a = sqrt(u), x = r + 1,
    # at the cap's inner join, against 30 digits
    u = 0.25 / (z + 1.0) ** 2
    r = z - min(0.1, z / 10.0)
    m, mp = cx.isq_state(u, r)
    with mpmath.workdps(30):
        a, x = mpmath.sqrt(mpmath.mpf(u)), mpmath.mpf(r) + 1
        A, B = mpmath.besselk(0, a), mpmath.besseli(0, a)
        f0 = A * mpmath.besseli(0, a * x) - B * mpmath.besselk(0, a * x)
        f1 = A * mpmath.besseli(1, a * x) + B * mpmath.besselk(1, a * x)
        m_ref = mpmath.sqrt(x) * f0
        mp_ref = m_ref / (2 * x) + mpmath.sqrt(x) * a * f1
    assert abs(m - m_ref) <= 1e-14 * abs(m_ref)
    assert abs(mp - mp_ref) <= 1e-14 * abs(mp_ref)


def test_cone_curvature_is_monotone(cone09):
    rep = cv.check_von_mangoldt(cone09.spec, r_max=cone09.rho + 5.0)
    assert rep.is_vm


def test_cone_turn_angle_matches_cone_law(cone09):
    r_q = cone09.rho + 2.0
    res = gd.turn_angle(cone09.profile, r_q, math.pi / 2)
    assert res.status == "converged"
    assert abs(res.value - math.pi / (2 * 0.9)) < 1e-7


def test_cone_degenerate_slope_is_flat():
    flat = cx.build_smoothed_cone(1.0)
    r = np.linspace(0.1, 40.0, 50)
    assert np.max(np.abs(flat.profile.m(r) - r)) < 1e-9
    assert flat.rho == 0.0


@pytest.mark.parametrize("k", [51, 52, 53])
def test_cone_slope_within_rounding_of_one(k):
    # past 1 - 2^-51 the slope's distance to 1 is below a trial's
    # rounding, so no bracket forms; the flat plane meets those slopes
    s = 1.0 - 2.0**-k
    b = cx.build_smoothed_cone(s)
    assert abs(b.slope - s) <= cx.SLOPE_TOL
    assert abs(b.profile.mp(b.profile.r_max) - s) <= cx.SLOPE_TOL
    if k == 51:
        assert b.spec.kind == "isq_capped" and b.u > 0.0 and b.rho > 0.0
    else:
        assert b.spec.kind == "constant" and b.rho == 0.0


def test_cone_rejects_bad_slopes():
    for s in (0.0, -0.2, 1.2):
        with pytest.raises(BuildError):
            cx.build_smoothed_cone(s)


def test_cone_rejects_bad_tail():
    for s in (0.3, 1.0):
        for tail in (math.inf, math.nan, 0.0, -5.0):
            with pytest.raises(BuildError, match="tail"):
                cx.build_smoothed_cone(s, tail=tail)


def test_bulge_has_closed_geodesic(bulge):
    p = bulge.profile
    assert abs(p.m(math.pi / 2) - 1.0) < 1e-9
    assert abs(p.mp(math.pi / 2)) < 1e-10
    assert p.m(bulge.a) > 0.0


def test_bulge_rejects_weak_drop():
    with pytest.raises(BuildError, match="vanishes at"):
        cx.build_bulge_plane(mu=2.0, w=1.0)


def test_bulge_rejects_bad_extent():
    with pytest.raises(BuildError):
        cx.build_bulge_plane(a=math.pi / 4)
    with pytest.raises(BuildError):
        cx.build_bulge_plane(a=3.2)


def test_flare_keeps_point_non_critical(flare):
    res = gd.turn_angle(flare.profile, flare.r_q, math.pi / 2)
    assert res.status == "converged"
    assert res.value > math.pi + 0.004
    assert flare.splice_radius > flare.r_q
    assert flare.base_critical_radius < flare.r_q


def test_flare_slope_stays_positive(flare):
    g = np.linspace(0.0, flare.profile.r_max, 30000)
    assert float(np.min(flare.profile.mp(g))) > 0.0


@pytest.mark.parametrize("kw", [{}, {"s_base": 0.2}, {"s_base": 0.4, "rq_factor": 1.2}])
def test_flare_splice_leaves_pi_inside(kw):
    # the splice radius comes from the base's exact linear tail; the base
    # solved past it must turn the tangential geodesic from r_q by pi +
    # margin before R
    fl = cx.build_flared_cone(**kw)
    R = fl.splice_radius
    base = jacobi.solve_jacobi(fl.base.spec, r_max=R + 1.0)
    c = base.m(fl.r_q)
    partial = qd.integrate_turn_rate(base, c, r_lo=fl.r_q, r_hi=R, tol=1e-10)
    assert partial.value >= math.pi + 0.01 - 1e-9


def test_flare_rejects_bad_factor():
    for rq_factor in (0.9, 1.0, math.nan):
        with pytest.raises(BuildError, match="rq_factor"):
            cx.build_flared_cone(rq_factor=rq_factor)


def test_bounded_table_matches_closed_form(bounded_table):
    p = bounded_table.profile
    r = np.linspace(0.2, 55.0, 200)
    exact = r / np.sqrt(1.0 + r * r)
    assert np.max(np.abs(p.m(r) - exact)) < 1e-4
    assert an.radial_inverse_square_diverges(p)
