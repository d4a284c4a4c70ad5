"""turn_angles is turn_angle on many launches at once: each entry must be
the answer of a call on that launch alone, whatever shares its batch."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revplane import analysis as an
from revplane import curvature as cv
from revplane import geodesics as gd
from revplane import jacobi
from revplane.errors import Undetermined

from closedforms import bump_profile

HALF_PI = math.pi / 2


@pytest.fixture(scope="module")
def planes(flat60, hyp30, cone03, bulge):
    """Each plane with launches that reach its special branches."""
    trap = bump_profile(1.0, -1.5, 20.0, 1e-3)
    # tangential launches below the narrow well whose level m comes back
    # down to inside it: they trap
    top, bottom = (float(trap.m(e)) for e in trap.extrema[:2])
    wells = [(trap.level_radius(bottom + f * (top - bottom), 0.0, trap.extrema[0]), HALF_PI)
             for f in (0.1, 0.5, 0.9)]
    # near-tangential inward launches whose Clairaut constant rounds to
    # m(r_q), so the turning radius is r_q itself
    rounded = [(r, HALF_PI + 1e-9) for r in (0.5, 3.0)]
    radial = [(2.0, 0.0), (2.0, math.pi)]
    return {
        "flat": (flat60, rounded + radial),
        "hyperbolic": (hyp30, rounded + radial),
        "cone": (cone03.profile, rounded + radial),
        "bulge": (bulge.profile, rounded + [(math.pi / 2, HALF_PI)]),
        "trap": (trap, wells + rounded),
        # no tail certificate: tangential turn angles are window-limited
        "window": (jacobi.solve_jacobi(cv.isq(0.0), r_max=50.0), [(5.0, HALF_PI)]),
    }


def _launches(profile, special):
    sampled = st.tuples(st.floats(-4.0, math.log10(0.95)),
                        st.sampled_from([0.0, HALF_PI, None, None, None]),
                        st.floats(0.0, math.pi))
    drawn = sampled.map(lambda t: (profile.r_max * 10.0 ** t[0],
                                   t[2] if t[1] is None else t[1]))
    return st.one_of(drawn, st.sampled_from(special))


def _side(res):
    try:
        return gd.side_of_pi(res, 1e-8)
    except Undetermined:
        return "undetermined"
    except ValueError:
        return "no turn integral"


def _same(got, want):
    assert got.status == want.status
    assert _side(got) == _side(want)
    for a, b, bound in ((got.value, want.value, 4e-15 * (1.0 + abs(want.value))),
                        (got.abs_error, want.abs_error, 1e-14)):
        if math.isfinite(b):
            assert abs(a - b) <= bound, (a, b)
        else:
            assert a == b or (math.isnan(a) and math.isnan(b)), (a, b)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_turn_angles_match_launches_alone(planes, data):
    name = data.draw(st.sampled_from(sorted(planes)))
    profile, special = planes[name]
    # up to 40 launches: inward ones take two integrals each, so a batch
    # may span more than one chunk of integrals
    launches = data.draw(st.lists(_launches(profile, special), min_size=1, max_size=40))
    r_q, kappa = (np.array(v) for v in zip(*launches))
    batch = gd.turn_angles(profile, r_q, kappa)
    assert len(batch) == len(launches)
    for r, k, got in zip(r_q, kappa, batch):
        _same(got, gd.turn_angle(profile, float(r), float(k)))


def test_turn_angles_broadcast_and_special_statuses(flat60, bulge):
    res = gd.turn_angles(flat60, 2.0, [0.0, HALF_PI, math.pi])
    assert [r.status for r in res] == ["converged", "converged", "radial_inward"]
    assert res[0].value == 0.0 and res[1].value == pytest.approx(math.pi / 2, abs=1e-9)
    assert gd.turn_angles(flat60, [], HALF_PI) == []
    # at the closed geodesic the tangential geodesic never escapes
    [trapped] = gd.turn_angles(bulge.profile, [math.pi / 2], HALF_PI)
    assert trapped.value == math.inf and trapped.status == "divergent_tangency"
    with pytest.raises(ValueError):
        gd.turn_angles(flat60, [1.0, -1.0], HALF_PI)
    with pytest.raises(ValueError):
        gd.turn_angles(flat60, 1.0, [HALF_PI, 4.0])


def test_is_pole_takes_no_turn_angle_twice(cone03, monkeypatch):
    # the grid and approach probes come from one batch, and the polished
    # maximum reuses the result the maximiser already has
    batched, single = [], []
    turn_angles, turn_angle = gd.turn_angles, gd.turn_angle

    def batch(profile, r_q, kappa, tol=1e-8):
        batched.extend(np.atleast_1d(kappa).tolist())
        return turn_angles(profile, r_q, kappa, tol=tol)

    def one(profile, r_q, kappa, tol=1e-8):
        single.append(kappa)
        return turn_angle(profile, r_q, kappa, tol=tol)

    monkeypatch.setattr(gd, "turn_angles", batch)
    monkeypatch.setattr(gd, "turn_angle", one)
    for r in (0.5, 2.0, 5.0):
        batched.clear()
        single.clear()
        an.is_pole(cone03.profile, r)
        assert len(batched) == an.POLE_GRID + 3
        assert len(set(single)) == len(single)
        assert not set(single) & set(batched)


def test_scan_ends_probe_in_lockstep(cone03, monkeypatch):
    # the scan's interval ends close in one lockstep search: each round's
    # probes are one turn_angles call, and interpolating on T - pi closes
    # the two ends on the s = 0.3 cone in at most 24 launches over at most
    # 12 calls, where bisecting each end took 58 single turn angles
    sizes = []
    turn_angles = gd.turn_angles

    def batch(profile, r_q, kappa, tol=1e-8):
        sizes.append(np.size(r_q))
        return turn_angles(profile, r_q, kappa, tol=tol)

    def one(*args, **kwargs):
        raise AssertionError("scan_sets took a single turn angle")

    monkeypatch.setattr(gd, "turn_angles", batch)
    monkeypatch.setattr(gd, "turn_angle", one)
    rep = an.scan_sets(cone03.profile, n=256)
    assert len(rep.critical_intervals) == len(rep.away_intervals) == 1
    assert sizes[0] == 256
    assert len(sizes[1:]) <= 12 and sum(sizes[1:]) <= 24
