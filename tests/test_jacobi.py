import ast
import bisect
import math
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import PPoly

from revplane import constructions as cx
from revplane import curvature as cv
from revplane import jacobi
from revplane.errors import OutOfWindow, StarViolation

import closedforms as cf
import referee
from sturm import sturm_compare


RGRID = np.linspace(0.1, 10.0, 173)
# how far a solved profile may lie from the referee, relative to
# max(1, |m|) and max(1, |m'|): the cell rule's 1e-13 (jacobi._CELL_TOL)
REFEREE_TOL = 1e-13


def rel_err(got, want):
    return np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300))


def test_flat_plane():
    p = jacobi.solve_jacobi(cv.constant(0.0), r_max=20.0)
    assert rel_err(p.m(RGRID), cf.flat_m(RGRID)) < REFEREE_TOL
    assert rel_err(p.mp(RGRID), cf.flat_mp(RGRID)) < REFEREE_TOL


def test_hyperbolic_plane():
    p = jacobi.solve_jacobi(cv.constant(-1.0), r_max=20.0)
    assert rel_err(p.m(RGRID), cf.hyperbolic_m(RGRID)) < REFEREE_TOL
    assert rel_err(p.mp(RGRID), cf.hyperbolic_mp(RGRID)) < REFEREE_TOL


def test_sphere_hits_zero_at_pi():
    with pytest.raises(StarViolation) as exc:
        jacobi.solve_jacobi(cv.constant(1.0), r_max=10.0)
    assert exc.value.first_zero == pytest.approx(math.pi, abs=1e-12)


def test_sphere_zero_in_a_constant_tail():
    # K = 1 out to 3 pi / 4, then a drop to K = -2 too shallow to stop the
    # dive: m vanishes in the closed-form tail, at its exact root
    spec = cv.spliced(cv.constant(1.0), 3 * math.pi / 4, cv.DropParams(3.0, 0.5))
    with pytest.raises(StarViolation) as exc:
        jacobi.solve_jacobi(spec, r_max=50.0)
    assert spec.constant_on(exc.value.first_zero, 50.0) == -2.0
    assert exc.value.first_zero == pytest.approx(3.52163653, abs=1e-9)


def test_overflow_raises():
    # in a constant stretch (a table's equal values are one constant
    # piece too), and in a series one (a table whose values differ)
    with pytest.raises(OverflowError):
        jacobi.solve_jacobi(cv.constant(-100.0), r_max=200.0)
    with pytest.raises(OverflowError):
        jacobi.solve_jacobi(cv.table([0.0, 1.0], [-1e6, -1e6]), r_max=1.0)
    with pytest.raises(OverflowError, match="near r"):
        jacobi.solve_jacobi(cv.table([0.0, 1.0], [-1e6, -1.1e6]), r_max=1.0)


def test_zero_in_a_series_stretch_is_its_piece_root():
    # K = 1 from a table (one constant piece) vanishes at pi; a drop from
    # K = 1 that starts at r = 2, where m already falls, does not stop the
    # dive, and m vanishes inside the drop: the referee's m is 0 there
    with pytest.raises(StarViolation) as exc:
        jacobi.solve_jacobi(cv.table([0.0, 10.0], [1.0, 1.0]), r_max=10.0)
    assert exc.value.first_zero == pytest.approx(math.pi, abs=1e-13)
    spec = cv.spliced(cv.constant(1.0), 2.0, cv.DropParams(0.5, 2.0))
    with pytest.raises(StarViolation) as exc:
        jacobi.solve_jacobi(spec, r_max=10.0)
    r = exc.value.first_zero
    assert 2.0 < r < 4.0 and spec.constant_on(r, r) is None
    m, mp = referee.profile(spec, [r])
    assert abs(m[0]) <= REFEREE_TOL * abs(mp[0])


def _two_term(m0, mp0, k, lo, r):
    """m and m' at r of the solution through (m0, mp0) at lo under the
    constant k < 0 or k > 0, in 30 digits."""
    with mpmath.workdps(30):
        q = mpmath.sqrt(abs(k))
        t = q * (mpmath.mpf(r) - mpmath.mpf(lo))
        if k > 0:
            m = m0 * mpmath.cos(t) + mp0 / q * mpmath.sin(t)
            mp = -m0 * q * mpmath.sin(t) + mp0 * mpmath.cos(t)
        else:
            m = m0 * mpmath.cosh(t) + mp0 / q * mpmath.sinh(t)
            mp = m0 * q * mpmath.sinh(t) + mp0 * mpmath.cosh(t)
        return float(m), float(mp)


def _two_term_error(p, m0, mp0, k, lo, hi):
    """The errors of m and m' on [lo, hi] (500 radii and every
    breakpoint) against the two-term solution, relative to |m| + |m'| / q
    and q |m| + |m'|, which do not vanish where m' or m does."""
    r = np.r_[np.linspace(lo, hi, 500), p.knots(lo, hi)[0]]
    m, mp = np.array([_two_term(m0, mp0, k, lo, x) for x in r.tolist()]).T
    q = math.sqrt(abs(k))
    scale = np.abs(m) + np.abs(mp) / q
    return (np.abs(p.m(r) - m) / scale, np.abs(p.mp(r) - mp) / (q * scale)), r


def test_hyperbolic_profile_is_exact(hyp30):
    # sinh and cosh to rounding on all of [0, 30], relative; DOP853 at
    # tol 1e-10 was off by 4.3e-10
    r = np.r_[np.linspace(0.0, 30.0, 1001)[1:], hyp30.knots(0.0, 30.0)[0], 3e-7]
    with mpmath.workdps(30):
        m = np.array([float(mpmath.sinh(x)) for x in r.tolist()])
        mp = np.array([float(mpmath.cosh(x)) for x in r.tolist()])
    assert np.max(np.abs(hyp30.m(r) - m) / m) <= 1e-14
    assert np.max(np.abs(hyp30.mp(r) - mp) / mp) <= 1e-14


def test_bulge_constant_stretches_are_two_term(bulge):
    # K = 1 from the origin to a, and K = 1 - mu beyond the drop from the
    # state the drop's series ends in
    p = bulge.profile
    (err_m, err_mp), _ = _two_term_error(p, 0.0, 1.0, 1.0, 0.0, bulge.a)
    assert err_m.max() <= 1e-15 and err_mp.max() <= 1e-15
    lo, k = bulge.a + bulge.w, 1.0 - bulge.mu
    (err_m, err_mp), r = _two_term_error(p, p.m(lo), p.mp(lo), k, lo, p.r_max)
    # q (r - lo) is rounded to floats: the error grows with it
    bound = 4.4e-16 * (1.0 + math.sqrt(-k) * (r - lo))
    assert np.all(err_m <= bound) and np.all(err_mp <= bound)


def test_cone_slope_is_exactly_constant_beyond_the_cap(cone03, cone05, cone09, cone03_long,
                                                        flare):
    for b in (cone03, cone05, cone09, cone03_long, flare.base):
        p = b.profile
        assert p.mp(b.rho) == p.mp(p.r_max) == b.slope
        r = np.linspace(b.rho, p.r_max, 101)
        assert np.all(p.mp(r) == b.slope)


def test_isq0_closed_form():
    p = jacobi.solve_jacobi(cv.isq(0.0), r_max=20.0)
    assert rel_err(p.m(RGRID), cf.isq0_m(RGRID)) < REFEREE_TOL
    assert rel_err(p.mp(RGRID), cf.isq0_mp(RGRID)) < REFEREE_TOL


def test_origin_and_seed_region():
    # the solve starts at r = 0, a regular point of the series: no seed
    p = jacobi.solve_jacobi(cv.constant(-1.0), r_max=5.0)
    assert p.m(0.0) == 0.0
    assert p.mp(0.0) == 1.0
    r = 3.3e-7
    assert p.m(r) == pytest.approx(math.sinh(r), rel=1e-12)


def test_window_enforced():
    p = jacobi.solve_jacobi(cv.constant(0.0), r_max=5.0)
    with pytest.raises(OutOfWindow):
        p.m(5.1)
    with pytest.raises(OutOfWindow):
        p.mp(-0.2)


def test_window_is_the_pieces():
    # pieces ending at 50 make the window [0, 50]: a radius past it is out
    # of the window, not the last polynomial extrapolated; pieces that do
    # not start at 0, or m' pieces on another window, make no profile;
    # and a window or a tail cannot be passed
    x = [0.0, 50.0]
    m, mp = PPoly(np.array([[0.5], [0.0]]), x), PPoly(np.array([[0.5]]), x)
    p = jacobi.Profile(cv.constant(0.0), m, mp)
    assert p.r_max == 50.0
    with pytest.raises(OutOfWindow):
        p.m(80.0)
    for lo, hi in ((-1.0, 9.0), (0.0, 80.0)):
        with pytest.raises(OutOfWindow, match="outside solved window"):
            p.level_radius(1.0, lo, hi)
    for y, z in (([1.0, 50.0], x), ([1e-300, 50.0], [1e-300, 50.0]), (x, [0.0, 40.0])):
        with pytest.raises(ValueError, match="from 0 to one window end"):
            jacobi.Profile(cv.constant(0.0), PPoly(np.array([[0.5], [0.0]]), y),
                           PPoly(np.array([[0.5]]), z))
    for kw in (dict(r_max=100.0), dict(tail=(0.0, 0.0, 4.0))):
        with pytest.raises(TypeError):
            jacobi.Profile(cv.constant(0.0), m, mp, **kw)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _pieces(p, order):
    """m (order 0) or m' (order 1) of p as a PPoly, from the profile's one store."""
    c, x = p._m_kernel if order == 0 else p._mp_kernel
    return PPoly(c[..., 0], x)


def test_profile_reads_are_ppoly_bit_for_bit(flat60, hyp30, cone03, cone09, bulge, flare,
                                             bounded_table):
    # m and m' go straight to scipy's compiled kernel, which PPoly.__call__
    # ends in: every value is PPoly's bit for bit, a scalar comes back a
    # float and an array in its own shape; this also guards the private
    # kernel call against a scipy upgrade.  The hand-built profiles' m and
    # m' pieces differ in degree (bump's m is its m' integrated)
    planes = {"flat": flat60, "hyperbolic": hyp30, "cone 0.3": cone03.profile,
              "cone 0.9": cone09.profile, "bulge": bulge.profile, "flare": flare.profile,
              "bounded table": bounded_table.profile, "linear": cf.linear_profile(0.5, 1.0),
              "bump": cf.bump_profile(1.0, -1.5, 20.0, 1e-3), "sine": cf.sine_profile()}
    rng = np.random.default_rng(11)
    for name, p in planes.items():
        top = p.r_max * (1 + 1e-12)
        r = np.r_[rng.uniform(0.0, p.r_max, 40), p.knots(0.0, p.r_max)[0][:40], 0.0, p.r_max, top]
        for read, pp in ((p.m, _pieces(p, 0)), (p.mp, _pieces(p, 1))):
            for x in (float(r[3]), np.float64(r[4]), np.array(r[5]), top):
                got = read(x)
                assert type(got) is float and _bits(got) == _bits(pp(x)), (name, x)
            for x in (r[:7].tolist(), r, r[:24].reshape(4, 6), r[:24].reshape(4, 6).T,
                      np.empty(0), np.empty((2, 0))):
                got = read(x)
                assert type(got) is np.ndarray and got.shape == np.shape(x), (name, x)
                assert _bits(got) == _bits(pp(x)), name
            # the window check and its message, which a nan beside the
            # radius outside does not hide; nan passes through
            for bad in (-1e-300, p.r_max * (1 + 1e-11)):
                message = f"r = {bad:.6g} outside solved window [0, {p.r_max:.6g}]"
                for x in (bad, [1.0, bad], [math.nan, bad]):
                    with pytest.raises(OutOfWindow, match=re.escape(message)):
                        read(x)
            assert math.isnan(read(math.nan))
            got = read([math.nan, 1.0])
            assert math.isnan(got[0]) and got[1] == read(1.0)


def test_table_domain_clips_window():
    tab = cv.table([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 0.0, 0.0])
    p = jacobi.solve_jacobi(tab, r_max=50.0)
    assert p.r_max == 3.0
    assert p.m(3.0) == pytest.approx(3.0, rel=1e-9)
    # an unbounded window is clipped too, but only a table's domain ends
    assert jacobi.solve_jacobi(tab, r_max=math.inf).r_max == 3.0
    with pytest.raises(ValueError, match="finite"):
        jacobi.solve_jacobi(cv.constant(0.0), r_max=math.inf)


def test_sturm_flat_vs_hyperbolic():
    flat = jacobi.solve_jacobi(cv.constant(0.0), r_max=10.0)
    hyp = jacobi.solve_jacobi(cv.constant(-1.0), r_max=10.0)
    rep = sturm_compare(flat, hyp)
    assert rep.curvature_ordered
    assert rep.m_ordered
    assert rep.mp_ordered


def test_sturm_sphere_vs_flat():
    sph = jacobi.solve_jacobi(cv.constant(1.0), r_max=3.0)
    flat = jacobi.solve_jacobi(cv.constant(0.0), r_max=3.0)
    rep = sturm_compare(sph, flat)
    assert rep.curvature_ordered
    assert rep.m_ordered
    # m' of the sphere profile goes negative, so no slope comparison
    assert not rep.mp_ordered
    assert math.isnan(rep.max_mp_violation)


def test_embed_flat_is_a_disk():
    p = jacobi.solve_jacobi(cv.constant(0.0), r_max=10.0)
    r, radius, height = jacobi.embed_profile(p, n=200)
    assert np.allclose(radius, r)
    assert np.max(np.abs(height)) < 1e-6
    # one sample would leave out the window's far end
    assert jacobi.embed_profile(p, n=2)[0].tolist() == [0.0, 10.0]
    for n in (1, 0, -3):
        with pytest.raises(ValueError, match="n >= 2"):
            jacobi.embed_profile(p, n=n)


def test_embed_rejects_fast_spread():
    # the bump's m' reaches 1.1 on a stretch narrower than a 1,024-point grid
    for p in (jacobi.solve_jacobi(cv.constant(-1.0), r_max=5.0),
              cf.bump_profile(0.9, 0.2, 20.0, 1e-3)):
        with pytest.raises(ValueError):
            jacobi.embed_profile(p)


def test_embed_isq0_consistent():
    p = jacobi.solve_jacobi(cv.isq(0.0), r_max=20.0)
    r, radius, height = jacobi.embed_profile(p, n=4001)
    assert np.allclose(radius, cf.isq0_m(r), rtol=1e-7, atol=1e-9)
    # embedding preserves arclength: dz^2 + dm^2 = dr^2
    dz = np.diff(height)
    dm = np.diff(radius)
    dr = np.diff(r)
    assert np.allclose(np.sqrt(dz**2 + dm**2), dr, rtol=1e-5)
    assert np.all(np.diff(height) >= 0)


@pytest.mark.parametrize("plane", ["cone03", "cone09", "bounded_table", "isq0"])
def test_embed_heights_match_quad(plane, request):
    # the heights, GK15 over the cells between the sample radii and the
    # breakpoints, against scipy's QUADPACK at 1e-14 on each such cell
    # (the 1,024-point trapezoid missed by up to 3.1e-3 on the s = 0.3
    # cone, where the cap ends)
    if plane == "isq0":
        p = jacobi.solve_jacobi(cv.isq(0.0), r_max=60.0)
    else:
        p = request.getfixturevalue(plane).profile
    r, _, z = jacobi.embed_profile(p)
    edges = np.union1d(r, _pieces(p, 1).x)

    def dz(x):
        return math.sqrt(max(1.0 - p.mp(x) ** 2, 0.0))

    cells = [quad(dz, a, b, epsabs=1e-14, epsrel=1e-14, limit=200)[0]
             for a, b in zip(edges[:-1], edges[1:])]
    want = np.r_[0.0, np.cumsum(cells)][np.searchsorted(edges, r)]
    assert np.all(np.abs(z - want) <= 1e-12 * np.maximum(1.0, want))


def test_csv_round_trip(tmp_path):
    # each value is written as its repr, which float() reads back exactly
    p = jacobi.solve_jacobi(cv.isq(0.0), r_max=20.0)
    path = tmp_path / "profile.csv"
    jacobi.export_profile_csv(p, path, n=401)
    header, *rows = path.read_text().splitlines()
    assert header == "r,m,mp,K"
    r = np.linspace(0.0, 20.0, 401)
    assert rows[0].startswith("0.0,")
    assert rows == [",".join(repr(float(x)) for x in row)
                    for row in zip(r, p.m(r), p.mp(r), p.K(r))]


def test_extrema_are_the_roots_of_the_slope():
    # m = 2 + sin r turns at pi/2 + k pi; a root on a breakpoint may be
    # reported by both pieces that meet there
    e = cf.sine_profile().extrema
    k = np.round((e - math.pi / 2) / math.pi)
    assert np.all(np.abs(e - (math.pi / 2 + k * math.pi)) <= 1e-11)
    assert set(k) == set(range(13))
    assert cf.linear_profile(0.5).extrema.size == 0


def test_landmarks_are_their_queries(flat60, hyp30, cone03, cone05, cone09, cone03_long, bulge,
                                     flare, bounded_table):
    # what a profile takes at build is what its queries read, bit for bit;
    # a tail certificate starting beyond the window is dropped
    planes = [flat60, hyp30, *(b.profile for b in (cone03, cone05, cone09, cone03_long, bulge,
                                                   flare, bounded_table)),
              jacobi.solve_jacobi(cv.isq(0.01), r_max=60.0),
              jacobi.solve_jacobi(cv.isq(0.01), r_max=3.0),
              cf.linear_profile(0.5), cf.linear_profile(0.5, 1.0),
              cf.bump_profile(1.0, -1.5, 20.0, 1e-3), cf.sine_profile()]
    certificates = set()
    for p in planes:
        assert _bits(p.extrema) == _bits(p.roots(1, 0.0, 0.0, p.r_max)), p
        ext, m_ext = p.at_extrema
        assert ext == p.extrema.tolist() and _bits(m_ext) == _bits(p.m(p.extrema)), p
        joins, m_joins = p.at_joins
        assert joins == [r for r in p.spec.joins() if r <= p.r_max * (1 + 1e-12)], p
        assert _bits(m_joins) == _bits(p.m(joins)), p
        if p.tail is None:
            assert p.tail_start is None, p
        else:
            assert _bits(p.tail_start) == _bits((p.m(p.tail[0]), p.mp(p.tail[0]))), p
        cert = p.spec.tail_certificate()
        inside = cert is not None and cert[1] <= p.r_max
        assert p.tail_certificate == (cert[0] if inside else None), p
        certificates.add((p.tail_certificate, cert is None))
    assert {("zero", False), ("nonpositive", False), (None, False), (None, True)} <= certificates
    assert sum(bool(p.at_joins[0]) for p in planes) >= 5


def test_profile_rebuilt_from_its_pieces(flat60, hyp30, cone03, cone05, cone09, cone03_long,
                                        bulge, flare, bounded_table):
    # the window and the tail come from the pieces and the curvature
    # alone: each plane rebuilt from its own pieces has the solve's
    # window, tail and tail start bit for bit, and so has the cone solved
    # to the cap's end exactly, which has no tail (its K = 0 starts there)
    planes = [flat60, hyp30, *(b.profile for b in (cone03, cone05, cone09, cone03_long, bulge,
                                                   flare, bounded_table)),
              jacobi.solve_jacobi(cone03.spec, r_max=cone03.rho)]
    assert planes[-1].r_max == cone03.rho and planes[-1].tail is None
    for p in planes:
        q = jacobi.Profile(p.spec, _pieces(p, 0), _pieces(p, 1))
        assert repr((q.r_max, q.tail, q.tail_start)) == repr((p.r_max, p.tail, p.tail_start)), p
    assert sum(p.tail is not None for p in planes) == 8


def test_level_radius_first_and_last():
    p = cf.sine_profile()
    # m reaches 5/2 at pi/6 + 2 k pi (rising) and 5 pi/6 + 2 k pi (falling)
    assert p.level_radius(2.5, 0.0, 9.0) == pytest.approx(math.pi / 6, abs=1e-12)
    assert p.level_radius(2.5, 0.0, 9.0, last=True) == pytest.approx(
        17 * math.pi / 6, abs=1e-12)
    assert p.level_radius(1.5, 0.0, 9.0) == pytest.approx(7 * math.pi / 6, abs=1e-12)
    assert p.level_radius(1.5, 0.0, 9.0, last=True) == pytest.approx(
        11 * math.pi / 6, abs=1e-12)
    # from r = 1, past the rising root, the first is the falling one; it
    # lies inside a piece, whose polynomial root leaves m(r) at rounding
    r = p.level_radius(2.5, 1.0, 9.0)
    assert r == pytest.approx(5 * math.pi / 6, abs=1e-12)
    assert abs(p.m(r) - 2.5) <= 4.4e-16 * 2.5


def test_level_radius_at_start_and_none():
    p = cf.sine_profile()
    # an end already at the level is the answer
    assert p.level_radius(p.m(1.0), 1.0, 5.0) == 1.0
    assert p.level_radius(p.m(4.0), 0.0, 4.0, last=True) == 4.0
    # m stays in [1, 3]; on [3.5, 6] it stays below 2
    assert p.level_radius(3.5, 0.0, 40.0) is None
    assert p.level_radius(0.5, 0.0, 40.0, last=True) is None
    assert p.level_radius(2.5, 3.5, 6.0) is None


def test_level_radius_is_exact_on_solved_profiles(hyp30, bulge):
    # a piece's polynomial root leaves m(r) - c at rounding, however small c
    for p in (hyp30, bulge.profile):
        for c in (1e-12, 1e-9, 1e-6, 1e-3, 0.5):
            r = p.level_radius(c, 0.0, 3.0, last=True)
            assert abs(p.m(r) - c) <= 4.4e-16 * c
    assert hyp30.level_radius(1.0, 0.0, 30.0) == pytest.approx(math.asinh(1.0), abs=1e-9)


def _level_radius_by_merge(p, level, lo, hi, last=False):
    """The level search as it was before the bisect on breakpoint values:
    merge the ends, the extrema and the breakpoints, take the first (or
    last) cell whose end values bracket the level, and solve the piece
    covering it with PPoly.solve."""
    ext = p.extrema.tolist()
    ends = np.array([lo, *ext[bisect.bisect_right(ext, lo):bisect.bisect_left(ext, hi)], hi])
    x, mx, _ = p.knots(lo, hi)
    r = np.concatenate((ends, x))
    order = np.argsort(r, kind="stable")
    r, d = r[order], np.concatenate((p.m(ends), mx))[order] - level
    hit = np.flatnonzero(np.sign(d[:-1]) * np.sign(d[1:]) <= 0)
    if hit.size == 0:
        return None
    k = int(hit[-1] if last else hit[0])
    for e in ((k + 1, k) if last else (k, k + 1)):
        if d[e] == 0.0:
            return float(r[e])
    pp = _pieces(p, 0)
    i = min(int(np.searchsorted(pp.x, r[k], side="right")) - 1, len(pp.x) - 2)
    roots = PPoly.construct_fast(pp.c[:, i:i + 1], pp.x[i:i + 2]).solve(level, extrapolate=False)
    roots = roots[(r[k] <= roots) & (roots <= r[k + 1])]
    if roots.size:
        return float(roots[-1] if last else roots[0])
    return float(r[k] if abs(d[k]) <= abs(d[k + 1]) else r[k + 1])


def _check_level_radius(p, level, lo, hi, last):
    want = _level_radius_by_merge(p, level, lo, hi, last)
    got = p.level_radius(level, lo, hi, last)
    assert (got is None) == (want is None), (level, lo, hi, last, got, want)
    if got is None:
        return
    assert lo <= got <= hi
    # the bound of test_level_radius_is_exact_on_solved_profiles, plus the
    # spacing of the floats next to the root where m is steep; a root the
    # merge left further off sets its own bound
    err = abs(p.m(got) - level)
    bound = 4.4e-16 * abs(level) + abs(p.mp(got)) * math.ulp(got)
    assert err <= max(bound, abs(p.m(want) - level)), (level, lo, hi, last, got, want)
    # the same crossing: near an extremum the level is met twice, a few
    # 1e-8 apart, at rounding
    assert abs(got - want) <= 1e-6 * (1.0 + want)


@pytest.fixture(scope="module")
def level_planes(hyp30, bulge):
    # sine and bulge have falling stretches, hyperbolic and flare rise only
    return {"sine": cf.sine_profile(), "hyperbolic": hyp30, "bulge": bulge.profile,
            "flare": cx.build_flared_cone().profile}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_level_radius_matches_merged_search(level_planes, data):
    # the bisect on breakpoint values finds what the merge of every
    # breakpoint found: the same None answers and, where m reaches the
    # level, a root as exact as the float grid allows
    p = level_planes[data.draw(st.sampled_from(sorted(level_planes)))]
    breaks = p.knots(0.0, p.r_max)[0].tolist()
    places = st.one_of(st.floats(0.0, p.r_max), st.sampled_from([0.0, p.r_max]),
                       st.sampled_from(breaks),
                       st.sampled_from(p.extrema.tolist() or [p.r_max]))
    lo, hi = sorted((data.draw(places), data.draw(places)))
    last = data.draw(st.booleans())
    m_lo, m_hi = p.m(lo), p.m(hi)
    level = data.draw(st.one_of(
        st.sampled_from([m_lo, m_hi]),                          # an end's m
        st.sampled_from(p.knots(0.0, p.r_max)[1].tolist()),     # a breakpoint value
        st.floats(0.9 * min(m_lo, m_hi), 1.1 * max(m_lo, m_hi)),
        st.sampled_from(p.m(p.extrema).tolist() or [m_hi])))    # an extremum's m
    _check_level_radius(p, level, lo, hi, last)


@pytest.mark.parametrize("last", [False, True])
def test_level_radius_at_a_breakpoint_reads_the_next_piece(last):
    # the root rounds to fl(79 pi / 64), a breakpoint: the piece on its
    # left is 2.2e-16 off there, the one Profile.m reads 1.33e-15
    p = cf.sine_profile()
    assert 79 * math.pi / 64 in p.knots(0.0, p.r_max)[0]
    _check_level_radius(p, 1.328441045152983, 0.0, 4.0, last)


def test_level_radius_sums_like_ppoly(level_planes):
    # an end at the level is the answer only if the search reads m there
    # exactly as Profile.m does
    rng = np.random.default_rng(4)
    for p in level_planes.values():
        r = np.r_[rng.uniform(0.0, p.r_max, 300), p.knots(0.0, p.r_max)[0][:300], p.r_max]
        for x in r.tolist():
            assert p.level_radius(p.m(x), x, p.r_max) == x
            assert p.level_radius(p.m(x), 0.0, x, last=True) == x


def test_pieces_re_expand_about_a_radius(level_planes):
    # expand(r) is the piece that holds r in powers of t = radius - r, up
    # to that piece's end, the next breakpoint; seams are each piece's end
    # against the next one's start, both summed as Profile.m sums them
    rng = np.random.default_rng(5)
    for p in level_planes.values():
        x = p.knots(0.0, p.r_max)[0]
        r = np.r_[rng.uniform(0.0, p.r_max, 200), x[:100], 0.0]
        b = p.expand(r)
        t = 0.5 * (np.r_[x, p.r_max][np.searchsorted(x, r, side="right")] - r)
        for at, want in ((0.0, p.m(r)), (t, p.m(r + t))):
            got = sum(bk * at ** k for k, bk in enumerate(b))
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-300)
        ends = [p._value_at(e, i) for i, e in enumerate(x.tolist())]
        np.testing.assert_array_equal(p.seams(0.0, p.r_max), np.abs(np.array(ends) - p.m(x)))


def test_only_jacobi_reads_the_profile_cache():
    # every other module reads the profile's pieces through Profile's
    # methods (m, mp, roots, extrema, knots, level_radius), so the
    # representation can change in one place; and no sampled grid of the
    # profile comes back: level searches, monotone stretches and trap
    # tests come from the pieces, and brentq stays only where it roots a
    # function of a build parameter: turn-angle edges close on
    # geodesics.search_closed
    src = Path(jacobi.__file__).parent
    texts = {p.name: p.read_text() for p in src.glob("*.py")}
    readers = sorted(n for n, t in texts.items() if re.search(r"_dense_m|_mgrid|_pp", t))
    assert readers == ["jacobi.py"]
    banned = r"8192|_dense_m|_scan_grid|def sample|def crossing|monotone_increasing"
    assert [n for n, t in texts.items() if re.search(banned, t)] == []
    assert {n for n, t in texts.items() if "brentq" in t} <= {"constructions.py"}


def _calls(node):
    """The names called in node's own scope (not in nested defs)."""
    out = []
    stack = list(ast.iter_child_nodes(node))
    while stack:
        n = stack.pop()
        if isinstance(n, (ast.FunctionDef, ast.Lambda)):
            continue
        if isinstance(n, ast.Call):
            f = n.func
            out.append(f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None))
        stack.extend(ast.iter_child_nodes(n))
    return out


def _loop_calls_reaching(fn, target):
    """Calls, inside a loop or comprehension of fn, of target or of a
    function nested in fn that reaches it."""
    nested = {d.name: d for d in ast.walk(fn) if isinstance(d, ast.FunctionDef) and d is not fn}
    reach = {target}
    while True:
        more = {n for n, d in nested.items() if n not in reach and reach & set(_calls(d))}
        if not more:
            break
        reach |= more
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    scopes = [fn] + list(nested.values())
    return [name for scope in scopes for loop in ast.walk(scope) if isinstance(loop, loops)
            for name in _calls(loop) if name in reach]


def test_one_batched_engine():
    # one adaptive GK loop runs every pass of every batch, and the scan
    # grid and the pole test's kappa grid go to it as batches, not one
    # turn angle per point
    src = Path(jacobi.__file__).parent
    quad = ast.parse((src / "quadrature.py").read_text())
    defs = [d for d in ast.walk(quad) if isinstance(d, ast.FunctionDef)]
    assert [d.name for d in defs].count("_adaptive_gk") == 1
    assert [d.name for d in defs if "_gk15" in _calls(d)] == ["_adaptive_gk"]
    analysis = {d.name: d for d in ast.walk(ast.parse((src / "analysis.py").read_text()))
                if isinstance(d, ast.FunctionDef)}
    for name in ("scan_sets", "is_pole"):
        assert "turn_angles" in _calls(analysis[name])
        assert _loop_calls_reaching(analysis[name], "turn_angle") == []


def _numerical_stretches(spec, r_max):
    """The stretches between joins that solve_jacobi runs the series on:
    those where K is not one constant."""
    ends = [0.0, *(r for r in spec.joins() if 0.0 < r < r_max), r_max]
    return [(a, b) for a, b in zip(ends, ends[1:]) if spec.constant_on(a, b) is None]


@pytest.mark.parametrize("plane", ["flat60", "hyp30", "cone03", "cone09", "bulge", "flare",
                                   "bounded_table", "isq0"])
def test_profile_matches_referee(plane, request):
    # m and m' within the cell rule's bound of the 30-digit referee: at
    # every breakpoint and three radii inside each piece (a cone's isq
    # stretch and blend, the drops, the table's cells), and radii on the
    # constant stretches
    if plane == "isq0":
        p = jacobi.solve_jacobi(cv.isq(0.0), r_max=60.0)
    else:
        built = request.getfixturevalue(plane)
        p = built if isinstance(built, jacobi.Profile) else built.profile
    x = _pieces(p, 0).x
    # at most 600 pieces (the bulge's and flare's constant tails are long)
    step = max(1, x.size // 600)
    cells = x[:-1][::step], np.diff(x)[::step]
    r = np.unique(np.concatenate([x[::step], [p.r_max],
                                  *(cells[0] + f * cells[1] for f in (0.21, 0.5, 0.79))]))
    m, mp = (np.array(v) for v in referee.profile(p.spec, r.tolist()))
    assert np.all(np.abs(p.m(r) - m) <= REFEREE_TOL * np.maximum(1.0, np.abs(m)))
    assert np.all(np.abs(p.mp(r) - mp) <= REFEREE_TOL * np.maximum(1.0, np.abs(mp)))


@pytest.mark.parametrize("plane, passes", [("flat60", 0), ("hyp30", 0), ("cone03", 2),
                                           ("cone09", 2), ("bulge", 1), ("flare", 3)])
def test_dop853_runs_only_where_curvature_varies(plane, passes, request, monkeypatch):
    # constant stretches are closed form: flat and hyperbolic need no
    # series, a cone its isq part and its cap's blend, the bulge its drop,
    # and the flare the cone's two and its own drop (the name is from when
    # DOP853 ran those stretches)
    built = request.getfixturevalue(plane)
    base = built if isinstance(built, jacobi.Profile) else built.profile
    calls = []
    series_stretch = jacobi.series_stretch
    monkeypatch.setattr(jacobi, "series_stretch",
                        lambda *a: calls.append(a[1:3]) or series_stretch(*a))
    jacobi.solve_jacobi(base.spec, base.r_max)
    assert len(calls) == passes
    assert calls == _numerical_stretches(base.spec, base.r_max)


def test_table_constant_cells_are_closed_form(monkeypatch):
    # a table's interior cell between equal values is one constant piece:
    # the series runs only on the two varying cells, and the profile
    # stays within the cell rule of the referee
    spec = cv.table([0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 0.5, 0.5, 0.0, 0.0], "constant")
    assert spec.constant_on(1.0, 2.0) == 0.5
    calls = []
    series_stretch = jacobi.series_stretch
    monkeypatch.setattr(jacobi, "series_stretch",
                        lambda *a: calls.append(a[1:3]) or series_stretch(*a))
    p = jacobi.solve_jacobi(spec, r_max=4.0)
    assert calls == [(0.0, 1.0), (2.0, 3.0)]
    r = np.unique(np.concatenate([_pieces(p, 0).x, np.linspace(0.0, 4.0, 101)]))
    m, mp = (np.array(v) for v in referee.profile(spec, r.tolist()))
    assert np.all(np.abs(p.m(r) - m) <= REFEREE_TOL * np.maximum(1.0, np.abs(m)))
    assert np.all(np.abs(p.mp(r) - mp) <= REFEREE_TOL * np.maximum(1.0, np.abs(mp)))


@pytest.mark.parametrize("name", ["bounded_table", "isq0", "cone03", "cone09", "flare"])
def test_closed_forms_leave_numerical_pieces_alone(name, request, monkeypatch):
    # every piece before the first constant stretch is what the series
    # gives stretch by stretch, bit for bit: a table or isq(0) profile
    # throughout, a cone's on [0, rho]
    if name == "isq0":
        spec, r_max = cv.isq(0.0), 60.0
    else:
        p = request.getfixturevalue(name).profile
        spec, r_max = p.spec, p.r_max
    p = jacobi.solve_jacobi(spec, r_max)
    with monkeypatch.context() as patch:
        patch.setattr(type(spec), "constant_on", lambda *a: None)
        ref = jacobi.solve_jacobi(spec, r_max)
    # the numerical stretches that chain from the origin on
    upto = 0.0
    for a, b in _numerical_stretches(spec, p.r_max):
        if a != upto:
            break
        upto = b
    if name in ("bounded_table", "isq0"):
        assert upto == p.r_max
    n = bisect.bisect_left(p._breaks, upto)
    assert n >= 2 and p._breaks[n] == upto
    (m, mp), (ref_m, ref_mp) = ((_pieces(q, 0), _pieces(q, 1)) for q in (p, ref))
    assert np.array_equal(m.x[:n + 1], ref_m.x[:n + 1])
    assert np.array_equal(m.c[:, :n], ref_m.c[:, :n])
    assert np.array_equal(mp.c[:, :n], ref_mp.c[:, :n])


@pytest.mark.parametrize("plane", ["hyp30", "cone03", "cone09", "bulge", "flare", "bounded_table"])
def test_roots_skip_only_pieces_out_of_reach(plane, request):
    # solving only the pieces whose left value lies within reach of the
    # level loses no root: the radii are those of solving every piece
    built = request.getfixturevalue(plane)
    p = built if isinstance(built, jacobi.Profile) else built.profile
    for order in (0, 1, 2):
        pp = _pieces(p, min(order, 1))
        pp = pp.derivative() if order == 2 else pp
        for level in (0.0, 0.3, 0.5, 1.0, float(p.m(0.6 * p.r_max))):
            everywhere = pp.solve(level, extrapolate=False)
            for lo, hi in ((0.0, p.r_max), (0.3 * p.r_max, 0.7 * p.r_max)):
                want = np.sort(everywhere[(lo <= everywhere) & (everywhere <= hi)])
                assert np.array_equal(p.roots(order, level, lo, hi), want)


def test_no_ode_solver_and_no_tol_in_the_solve():
    # the profile has one way to write a piece: jacobi.py calls no
    # solve_ivp, and neither solve_jacobi nor a builder takes a tol
    src = Path(jacobi.__file__).parent
    tree = ast.parse((src / "jacobi.py").read_text())
    assert "solve_ivp" not in _calls(tree)
    builders = ast.parse((src / "constructions.py").read_text())
    defs = {d.name: d for t in (tree, builders) for d in ast.walk(t)
            if isinstance(d, ast.FunctionDef)}
    for name in ("solve_jacobi", "build_smoothed_cone", "build_bulge_plane",
                 "build_flared_cone", "build_bounded_table_plane"):
        assert "tol" not in [a.arg for a in defs[name].args.args], name
