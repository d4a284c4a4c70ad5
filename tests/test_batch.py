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
from revplane import quadrature as qd
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
    # spans more than one chunk of integrals only when more than
    # qd.CHUNK - 40 of them are inward (test_turn_angles_across_chunks_*
    # crosses chunks on every plane)
    launches = data.draw(st.lists(_launches(profile, special), min_size=1, max_size=40))
    r_q, kappa = (np.array(v) for v in zip(*launches))
    batch = gd.turn_angles(profile, r_q, kappa)
    assert len(batch) == len(launches)
    for r, k, got in zip(r_q, kappa, batch):
        _same(got, gd.turn_angle(profile, float(r), float(k)))


def _passes(monkeypatch):
    """The number of integrals in each quadrature pass from here on."""
    sizes, integrate = [], qd._integrate
    monkeypatch.setattr(qd, "_integrate",
                        lambda p, rows: sizes.append(len(rows)) or integrate(p, rows))
    return sizes


def test_turn_angles_across_chunks_match_launches_alone(planes, monkeypatch):
    # on each plane its special launches among enough inward ones (two
    # integrals each) that the batch runs in three or more chunks: every
    # result is its launch's alone
    n = qd.CHUNK + 8
    inward = list(zip(np.geomspace(1e-3, 0.9, n).tolist(), np.linspace(0.05, 1.5, n).tolist()))
    sizes = _passes(monkeypatch)
    for name, (profile, special) in planes.items():
        launches = []
        for i, (u, dk) in enumerate(inward):
            launches.append((u * profile.r_max, HALF_PI + dk))
            if i % 8 == 3:
                launches.append(special[i // 8 % len(special)])
        r_q, kappa = (np.array(v) for v in zip(*launches))
        sizes.clear()
        batch = gd.turn_angles(profile, r_q, kappa)
        assert sum(sizes) > 2 * qd.CHUNK and len(sizes) >= 3, name
        for r, k, got in zip(r_q, kappa, batch):
            _same(got, gd.turn_angle(profile, float(r), float(k)))


def _rounds(monkeypatch):
    """The integrand of each GK15 round from here on: a pass whose
    integrand appears more than once refined past its first round."""
    fs, gk15 = [], qd._gk15
    monkeypatch.setattr(qd, "_gk15", lambda f, lo, hi, k: fs.append(f) or gk15(f, lo, hi, k))
    return fs


def _refined(fs):
    """The names of the passes among fs that refined."""
    return {f.__name__ for f in fs if sum(g is f for g in fs) > 1}


def test_refining_launches_match_launches_alone(planes, monkeypatch):
    # launches whose integrals refine past the first GK15 round when taken
    # alone, heads and bodies both, batched with each plane's special
    # launches: the rounds a batch runs for them give each its own answer
    fs = _rounds(monkeypatch)
    rng = np.random.default_rng(3)
    refined = set()
    for name, (profile, special) in planes.items():
        r_q = profile.r_max * 10.0 ** rng.uniform(-4, math.log10(0.95), 400)
        kappa = np.where(rng.random(400) < 0.5, HALF_PI, rng.uniform(0.0, math.pi, 400))
        launches = []
        for r, k in zip(r_q.tolist(), kappa.tolist()):
            fs.clear()
            gd.turn_angle(profile, r, k)
            if _refined(fs):
                refined |= _refined(fs)
                launches.append((r, k))
        if not launches:
            continue
        launches = launches[:8] + special
        r_q, kappa = (np.array(v) for v in zip(*launches))
        fs.clear()
        batch = gd.turn_angles(profile, r_q, kappa)
        assert _refined(fs), name
        for r, k, got in zip(r_q, kappa, batch):
            _same(got, gd.turn_angle(profile, float(r), float(k)))
    assert {"f_w", "f_r"} <= refined


def test_a_decision_batch_is_one_quadrature_pass(cone03, monkeypatch):
    # qd.CHUNK holds a decision's batch whole: on the s = 0.3 cone the pole
    # test's 28 launches are 55 integrals, and max_ray_angle's ladder of
    # midpoints towards pi at kappa_tol 1e-8 is 56
    sizes = _passes(monkeypatch)
    an.is_pole(cone03.profile, 2.0)
    assert sizes[0] == 55
    sizes.clear()
    gd.max_ray_angle(cone03.profile, 0.5, kappa_tol=1e-8)
    # the criticality probe at pi/2, the ladder, then the pole test's batch
    assert sizes[:3] == [1, 56, 55]


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


def _scalar_max_ray_angle(profile, r_q, tol=1e-8, kappa_tol=1e-8):
    """max_ray_angle with every probe a scalar is_ray call, read by
    closed_side: the search before the midpoints towards pi were
    batched."""
    def probe(_, kappas):
        out = []
        for kappa in kappas:
            seen = []
            try:
                gd.is_ray(profile, r_q, kappa, tol=tol, seen=seen)
            except Undetermined:
                pass
            out.append(gd.closed_side(seen[0], tol))
        return out

    [(lo, hi)] = gd.search_closed([(0.0, math.pi, kappa_tol, -math.pi - tol, math.nan)], probe)
    if hi == math.pi and an.is_pole(profile, r_q, tol=tol):
        return math.pi
    return lo


# poles; critical points that are not poles (at r = 6.44 on the bulge the
# ladder of midpoints runs 14 deep before one fails); a point that is not
# critical
@pytest.mark.parametrize("plane, r", [
    ("flat60", 1.0), ("hyp30", 1.0), ("cone03", 0.5), ("cone09", 0.1), ("bulge", 0.05),
    ("cone03", 5.19), ("bulge", 0.349), ("bulge", 6.44),
    ("cone03", 36.0),
])
@pytest.mark.parametrize("kappa_tol", [1e-6, 1e-2, 1e-17])
def test_max_ray_angle_batch_is_the_scalar_search(plane, r, kappa_tol, request):
    # the ladder's launches go to turn_angles as one batch, whose results
    # are turn_angle's: the answer is the scalar search's, bit for bit
    p = request.getfixturevalue(plane)
    p = getattr(p, "profile", p)
    assert gd.max_ray_angle(p, r, kappa_tol=kappa_tol) == _scalar_max_ray_angle(
        p, r, kappa_tol=kappa_tol)


def test_max_ray_angle_probes_the_ladder_in_one_batch(flat60, cone03, monkeypatch):
    # the criticality test pi/2 is one scalar probe; if it reads a ray, the
    # midpoints towards pi down to kappa_tol are one batch, and the pole
    # test follows
    calls = []
    turn_angles, turn_angle, is_pole = gd.turn_angles, gd.turn_angle, an.is_pole

    def batch(profile, r_q, kappa, tol=1e-8):
        calls.append(("batch", len(kappa)))
        return turn_angles(profile, r_q, kappa, tol=tol)

    def one(profile, r_q, kappa, tol=1e-8):
        calls.append(("one", kappa))
        return turn_angle(profile, r_q, kappa, tol=tol)

    def pole(profile, r_q, tol=1e-8):
        calls.append("is_pole")
        return is_pole(profile, r_q, tol=tol)

    def before_pole(profile, r, kappa_tol):
        calls.clear()
        gd.max_ray_angle(profile, r, kappa_tol=kappa_tol)
        return calls[:calls.index("is_pole")] if "is_pole" in calls else calls

    monkeypatch.setattr(gd, "turn_angles", batch)
    monkeypatch.setattr(gd, "turn_angle", one)
    monkeypatch.setattr(an, "is_pole", pole)
    # pi/2 halves to within 1e-6 of pi in 21 steps
    assert before_pole(flat60, 1.0, 1e-6) == [("one", HALF_PI), ("batch", 21)]
    # not critical: pi/2 fails, and every probe below it is scalar
    probes = before_pole(cone03.profile, 36.0, 1e-6)
    assert probes[0] == ("one", HALF_PI)
    assert all(name == "one" for name, _ in probes)
    # a width of pi/2 or more leaves no midpoint above pi/2 to probe
    for kappa_tol in (HALF_PI, 3.0):
        assert before_pole(flat60, 1.0, kappa_tol) == [("one", HALF_PI)]


def test_scan_retries_a_point_in_band_at_a_hundredth_of_tol(cone03, monkeypatch):
    # a grid point whose turn angle lands in the band with an error a
    # tighter tolerance could shrink is retried, alone, in one batch at
    # tol / 100; its side and the gap its interval end's bracket starts
    # from are the retry's
    p, tol = cone03.profile, 1e-8
    ref = an.scan_sets(p, n=64)
    i = ref.critical.index(False) - 1  # the critical ball's last grid point
    calls, retried, seeded = [], [], []
    turn_angles, search_closed = gd.turn_angles, gd.search_closed

    def batch(profile, r_q, kappa, tol=1e-8):
        out = turn_angles(profile, r_q, kappa, tol=tol)
        calls.append((np.atleast_1d(r_q).tolist(), tol))
        if len(calls) == 1:
            out[i] = qd.IntegralResult(math.pi, 1e-6, qd.STATUS_CONVERGED)
        elif tol != 1e-8:
            retried.extend(out)
        return out

    def search(brackets, probe):
        seeded.extend(brackets)
        return search_closed(brackets, probe)

    monkeypatch.setattr(gd, "turn_angles", batch)
    monkeypatch.setattr(gd, "search_closed", search)
    rep = an.scan_sets(p, n=64, tol=tol)
    assert [c for c in calls if c[1] != tol] == [([ref.r[i]], tol / 100)]
    assert rep.undetermined == []
    assert (rep.critical, rep.away) == (ref.critical, ref.away)
    # the critical end, then the away end, at the same grid point
    gaps = [b[3] for b in seeded if b[0] == ref.r[i]]
    assert gaps == [gd.closed_side(retried[0], tol / 100, strict)[1] for strict in (False, True)]
