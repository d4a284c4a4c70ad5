import math

import numpy as np
import pytest

from revplane import analysis as an
from revplane import constructions as cx
from revplane import curvature as cv
from revplane import geodesics as gd
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
        assert np.all(np.abs(p.mp(probe) - s) < 1e-7)


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


def test_cone_rejects_bad_slopes():
    for s in (0.0, -0.2, 1.2):
        with pytest.raises(BuildError):
            cx.build_smoothed_cone(s)


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


def test_flare_rejects_bad_factor():
    with pytest.raises(BuildError):
        cx.build_flared_cone(rq_factor=0.9)


def test_bounded_table_matches_closed_form(bounded_table):
    p = bounded_table.profile
    r = np.linspace(0.2, 55.0, 200)
    exact = r / np.sqrt(1.0 + r * r)
    assert np.max(np.abs(p.m(r) - exact)) < 1e-4
    assert an.radial_inverse_square_diverges(p)
