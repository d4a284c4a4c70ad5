"""Improper singular quadrature for geodesic turn rates.

The turn angle of a geodesic with Clairaut constant c accumulated while
its radius runs from r_lo outward is

    integral of  F_c(r) = c / (m sqrt(m^2 - c^2))  dr ,

usually from a turning radius where m(r_lo) = c, so the integrand has an
inverse-square-root endpoint singularity, and usually improper at the far
end.  This module evaluates such integrals with certified handling of
both ends:

  * near the turning circle it substitutes w = arccos(c/m), which turns
    F_c dr into dw / m'(r(w)) -- a bounded smooth integrand -- with the
    radius recovered by monotone Newton inversion, seeded from a cubic
    Hermite interpolant of r(m) through the profile's breakpoints;
  * at a genuinely singular start the head is recomputed by an
    independent sqrt-factorization route and the disagreement feeds the
    error estimate;
  * the smooth body uses adaptive Gauss-Kronrod 15 panels, vectorized;
  * each pass starts from a few panels per integral (HEAD_PANELS for the
    w-form head, CROSS_PANELS for its cross-check, BODY_PANELS for the
    body: 4, 6 and 16) and refines where its error estimate asks for
    it, so an ordinary launch may refine, most do not;
  * on the profile's constant-curvature tail (Profile.tail: K = k
    <= 0 and m rising from r_a on) the turn integral is closed-form, so
    a leg is split at r_a: the part beyond it, to infinity for an
    improper leg, is G(b) - G(a) with a rounding-only error, and only
    the part below it runs through the passes above;
  * otherwise the infinite tail is resolved by the tail certificate the
    profile takes from the curvature: an exactly-linear m gives the k = 0
    case of that closed form, asin(c / m) / m', an eventually nonpositive
    curvature gives a two-sided bracket (m grows at least linearly, and
    m^2 - c^2 >= m^2/2 once m >= sqrt(2) c), and anything weaker leaves
    the result flagged window_limited.

Divergent integrals report value = +inf, never a large finite number:
status divergent_tangency when the geodesic cannot leave the turning
circle (m' = 0 there) or falls back to it (m returns to the level c),
divergent_tail when m stops growing so the tail itself diverges.

Integrals run as a batch.  integrate_turn_rates takes many at once and
runs each pass -- head, cross-check, body -- over all of them together:
every GK panel carries the index of its integral, so one refinement
round makes one profile call over the new panels of every integral
still refining.  Everything else is decided per integral: the trap and
tangency tests (over the whole leg, before any split), the head cut,
the adaptive split rule and panel budget, the closed-form part and the
tail certificate.  An integral's result therefore does not
depend on which others share its batch, and integrate_turn_rate is the
batch of one.
"""

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfWindow
from .jacobi import _gk15

STATUS_CONVERGED = "converged"
STATUS_DIVERGENT_TANGENCY = "divergent_tangency"
STATUS_DIVERGENT_TAIL = "divergent_tail"
STATUS_WINDOW_LIMITED = "window_limited"

# slope below which a turning point counts as tangential (log divergence)
TANGENT_SLOPE = 1e-11
# relative closeness to the level m = c that counts as "back on the circle"
TRAP_REL = 1e-9
# panel budget of one adaptive GK15 integral
MAX_PANELS = 4096
# starting panels of each pass, per integral: the w-form head, its
# xi-form cross-check and the body; the adaptive loop refines the few
# integrals that need more, so more up front mostly buys nothing
HEAD_PANELS = 4
CROSS_PANELS = 6
BODY_PANELS = 16
# integrals per batch: bounds the working set of the panel arrays, and
# holds a pole test's batch (55 integrals on the s = 0.3 cone) and a
# max_ray_angle ladder (56 at kappa_tol 1e-8) in one pass each
CHUNK = 64

# 5-point Gauss-Legendre on [0, 1], for stable chord slopes of m
_G5X = np.array([
    0.0469100770306680, 0.2307653449471585, 0.5,
    0.7692346550528415, 0.9530899229693320,
])
_G5W = np.array([
    0.1184634425280945, 0.2393143352496832, 0.2844444444444444,
    0.2393143352496832, 0.1184634425280945,
])


@dataclass
class IntegralResult:
    value: float
    abs_error: float
    status: str

    @property
    def diverged(self):
        return self.status in (STATUS_DIVERGENT_TANGENCY, STATUS_DIVERGENT_TAIL)


def _adaptive_gk(f, a, b, tol, initial, log_spaced=False, cuts=()):
    """Adaptive GK15 on the intervals [a_i, b_i] (a_i < b_i) together.

    f(x, k) evaluates integrand k_j at row j of x, the nodes of one
    panel.  Integral i starts from `initial` equal panels (geometric ones
    when log_spaced and b_i / a_i > 10); the passes start from
    HEAD_PANELS, CROSS_PANELS and BODY_PANELS (4, 6, 16), few enough that
    the rounds below do the work where an integral needs it, and an
    ordinary launch may take some.  Each of cuts[i], fewer than
    `initial` sorted points inside (a_i, b_i) where the integrand is
    only finitely smooth (K's joins, or their angles in a head), takes
    the place of its own inner edge: the nearest, or the next one up
    where an earlier cut took that (down from the last edge where none
    is left above), so no panel straddles one and the panel count
    stays; a head or body holding HEAD_PANELS or BODY_PANELS or more
    joins (a fine table's knots) passes none and keeps its spacing.  It
    splits every panel whose error estimate exceeds tol_i over twice its
    panel count, until its summed estimate drops below tol_i or it holds
    MAX_PANELS panels, for at most 48 rounds; each round calls f once,
    on the new panels of all integrals still refining.  Sums run over
    each integral's panels in order, so its panels and sums do not
    depend on the others.  Returns per-integral (values, error
    estimates).
    """
    n = len(a)
    t = np.arange(initial + 1) / initial
    edges = a[:, None] + (b - a)[:, None] * t
    if log_spaced:
        geo = (a > 0) & (b > 10.0 * a)
        if geo.any():
            edges[geo] = a[geo, None] * (b[geo] / a[geo])[:, None] ** t
    edges[:, -1] = b
    for i, row in enumerate(cuts):
        if row:
            inner, at = edges[i, 1:-1], []
            for x in row:
                j = bisect.bisect_left(inner, x)
                if j == len(inner) or (j and x - inner[j - 1] < inner[j] - x):
                    j -= 1
                at.append(max(j, at[-1] + 1) if at else j)
            for q, (j, x) in enumerate(zip(at, row)):
                inner[min(j, len(inner) - len(at) + q)] = x
            if len(row) > 1:  # one cut on its nearest edge keeps the order
                inner.sort()
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    k = np.repeat(np.arange(n), initial)
    vals, errs = _gk15(f, lo, hi, k)
    count = np.full(n, initial)
    for _ in range(48):
        live = (np.bincount(k, errs, n) > tol) & (count < MAX_PANELS)
        if not live.any():
            break
        bad = errs > np.where(live, tol / (2.0 * count), np.inf)[k]
        keep = ~bad
        lo_b, hi_b, k_b = lo[bad], hi[bad], k[bad]
        mids = 0.5 * (lo_b + hi_b)
        k_new = np.concatenate([k_b, k_b])
        new_vals, new_errs = _gk15(f, np.concatenate([lo_b, mids]),
                                   np.concatenate([mids, hi_b]), k_new)
        lo = np.concatenate([lo[keep], lo_b, mids])
        hi = np.concatenate([hi[keep], mids, hi_b])
        k = np.concatenate([k[keep], k_new])
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])
        count += np.bincount(k_b, minlength=n)
    return np.bincount(k, vals, n), np.bincount(k, errs, n)


def _invert_m(profile, targets, r_lo, r_hi, r):
    """Solve m(r) = target on [r_lo, r_hi] where m is increasing.

    Newton iteration from the seeds r, iterates clipped to the bracket;
    each point stops once its own step is below 1e-15 (1 + r_hi), so
    its iterates do not depend on the other points.  Returns the roots
    and m' there: the last iterate, within that step of the root, and
    m' at it.
    """
    xtol = 1e-15 * (1.0 + r_hi)
    # fmax and fmin also take a seed that overflowed to nan into the bracket
    r = np.fmin(np.fmax(r, r_lo), r_hi)
    mp_r = np.empty_like(r)
    live = slice(None)
    for _ in range(60):
        r_k = r[live]
        mp = profile.mp(r_k)
        mp_r[live] = mp
        r_new = r_k - (profile.m(r_k) - targets[live]) / np.maximum(mp, 1e-300)
        r_new = np.minimum(np.maximum(r_new, r_lo[live]), r_hi[live])
        moving = np.abs(r_new - r_k) > xtol[live]
        if not moving.any():
            return r, mp_r
        live = np.flatnonzero(moving) if isinstance(live, slice) else live[moving]
        r[live] = r_new[moving]
    mp_r[live] = profile.mp(r[live])
    return r, mp_r


def _inverse_seed(m, r, s, k):
    """Cubic Hermite interpolants of r(m), one per integral.

    The knots (m, r, dr/dm) of all integrals in turn, each integral's
    (at least two) in rising m; k[i] is knot i's integral.  Returns
    seed(t, k): integral k's interpolant at the levels t, extrapolated
    past its end knots.
    """
    # complex numbers order by real part, then imaginary part: the number
    # of keys k + 1j m at or below k + 1j t counts the knots of the
    # integrals before k and those of k up to t
    keys = k + 1j * m
    first = np.searchsorted(k, np.arange(k[-1] + 2))
    # the cubic in d = t - m_i of each pair of neighbouring knots (a pair
    # across two integrals is never used)
    h = m[1:] - m[:-1]
    h = np.where(h > 0.0, h, np.inf)
    slope = (r[1:] - r[:-1]) / h
    s0, s1 = s[:-1], s[1:]
    c2, c3 = (3.0 * slope - 2.0 * s0 - s1) / h, (s0 + s1 - 2.0 * slope) / (h * h)

    def seed(t, k):
        # the pair that holds t, or the end pair beyond either end knot
        i = np.searchsorted(keys, k + 1j * t, side="right") - 1
        i = np.minimum(np.maximum(i, first[k]), first[k + 1] - 2)
        d = t - m[i]
        return r[i] + d * (s[i] + d * (c2[i] + d * c3[i]))

    return seed


def integrate_turn_rate(profile, c, r_lo, r_hi=None, tol=1e-8, w_start=None, w_end=None):
    """Integral of F_c from r_lo to infinity (or to r_hi if given).

    The result's value always lies in [0, +inf]; +inf is reported with a
    divergent status and never approximated by a large finite number.
    When no tail certificate covers the window end of an improper
    integral, the value covers [r_lo, r_max] only and the status is
    window_limited.

    w_start and w_end are the angles w = arccos(c / m) at r_lo and r_hi
    when the caller knows them exactly: a launch at angle kappa from the
    outward radial passes r_q at |pi/2 - kappa|.  They replace the
    computed angle, whose arccos amplifies the rounding of c by
    1 / sin w; without w_start a start within TRAP_REL of the turning
    circle snaps to it, w = 0.

    The batch of one: integrate_turn_rates on these arguments.
    """
    return integrate_turn_rates(profile, [dict(c=c, r_lo=r_lo, r_hi=r_hi, tol=tol,
                                               w_start=w_start, w_end=w_end)])[0]


def integrate_turn_rates(profile, legs):
    """integrate_turn_rate on many integrals at once.

    legs is a sequence of dicts of integrate_turn_rate's keyword
    arguments: c and r_lo, and any of r_hi, tol, w_start and w_end (None
    or absent takes the default).  Returns one IntegralResult per leg,
    the one integrate_turn_rate(profile, **leg) returns; an invalid leg
    raises as it would there.
    """
    rows = []
    for leg in legs:
        c, r_lo, r_hi, tol = leg["c"], leg["r_lo"], leg.get("r_hi"), leg.get("tol", 1e-8)
        if not 0 <= c < math.inf:
            raise ValueError(f"Clairaut constant c must be finite and >= 0, got {c}")
        if not 0 < tol < 1:
            raise ValueError("tol must be in (0, 1)")
        hi = profile.r_max if r_hi is None else float(r_hi)
        if hi > profile.r_max * (1 + 1e-12):
            raise OutOfWindow(f"r_hi = {hi:.6g} beyond solved window {profile.r_max:.6g}")
        if not 0 <= r_lo < hi:
            raise ValueError(f"need 0 <= r_lo < r_hi, got [{r_lo}, {hi}]")
        w = [math.nan if leg.get(key) is None else leg[key] for key in ("w_start", "w_end")]
        if not all(math.isnan(x) or 0.0 <= x <= math.pi / 2 for x in w):
            raise ValueError(f"the angles w = arccos(c / m) lie in [0, pi/2], got {w}")
        rows.append((c, r_lo, hi, r_hi is None, tol, *w))
    out = []
    for s in range(0, len(rows), CHUNK):
        out += _integrate(profile, rows[s:s + CHUNK])
    return out


def _integrate(profile, rows):
    """One batch of integrate_turn_rates, its legs' arguments checked."""
    n = len(rows)
    out = [None] * n
    c, r_lo, hi, improper, tol, w_start, w_end = np.array(rows, dtype=float).T
    # the profile's closed-form tail from r_a on: a leg's part beyond r_a
    # is G(b) - G(a), and only the part below it is integrated
    tail = profile.tail
    r_a = math.inf if tail is None else tail[0]
    # m is monotone between its extrema: m at those past r_lo and at the
    # window end decides the trap and where the head's monotone stretch ends
    ext, m_ext = profile.at_extrema
    m_at = profile.m(np.concatenate((r_lo, hi))).tolist()
    m_lo, m_hi = m_at[:n], m_at[n:]

    heads, bodies = [], []  # (integral, w_lo, w_hi, r_cut, m_cut); (integral, from, to)
    # integral: its closed part, as (whether it starts at r_a rather than
    # r_lo, (sin w, cos w) at its start, and at its end or None at infinity)
    closed = {}
    singular = [False] * n
    for i, (ci, lo, hi_i, m_i, w_s, w_e) in enumerate(zip(
            c.tolist(), r_lo.tolist(), hi.tolist(), m_lo, w_start.tolist(), w_end.tolist())):
        if m_i < ci * (1 - 1e-9) - 1e-12:
            raise ValueError(f"m(r_lo) = {m_i:.6g} < c = {ci:.6g}: "
                             "start lies inside the forbidden annulus")
        if ci == 0.0:
            out[i] = IntegralResult(0.0, 0.0, STATUS_CONVERGED)
            continue
        if not math.isnan(w_s):
            w_lo = w_s
        elif m_i <= ci * (1 + TRAP_REL):
            w_lo = 0.0
        else:
            w_lo = math.acos(ci / m_i)
        singular[i] = w_lo == 0.0

        # trap detection: past r_lo, m must not come back down to the turning
        # circle, at an extremum or, for an improper integral, by falling to
        # it at the window end
        first = bisect.bisect_right(ext, lo)
        m_ends = m_ext[first:bisect.bisect_left(ext, hi_i)]
        level = ci * (1 + TRAP_REL)
        falls = m_hi[i] < (m_ends[-1] if m_ends else m_i)
        if any(m <= level for m in m_ends) or (improper[i] and m_hi[i] <= level and falls):
            out[i] = IntegralResult(math.inf, 0.0, STATUS_DIVERGENT_TANGENCY)
            continue

        m_end = m_hi[i]
        if hi_i > r_a:
            # m rises beyond r_a, so the trap test above covers the closed part
            end = None if improper[i] else _sin_cos(ci, m_end, w_e)
            if lo >= r_a:
                closed[i] = (False, (0.0, 1.0) if w_lo == 0.0 else _sin_cos(ci, m_i, w_s), end)
                continue
            # the rest is a finite leg up to r_a
            hi_i, m_end, w_e = r_a, profile.tail_start[0], math.nan
            closed[i] = (True, _sin_cos(ci, m_end), end)

        root2c = math.sqrt(2.0) * ci
        body_from = lo
        r_s, m_s = (ext[first], m_ends[0]) if m_ends and ext[first] < hi_i else (hi_i, m_end)
        if m_i < root2c and m_s > m_i:
            # the head inverts m, so it stays on the stretch where m rises from
            # r_lo: cut where m reaches sqrt(2) c, and short of an extremum,
            # where m' = 0 makes the w-form integrand 1/m' singular, at most
            # halfway up to it
            m_cut = root2c if r_s == hi_i else min(root2c, 0.5 * (ci + m_s))
            r_cut = profile.level_radius(m_cut, lo, r_s)
            if r_cut is None:  # m stays below the level, or starts above it
                r_cut, m_cut = (r_s, m_s) if m_s < m_cut else (lo, m_i)
            if r_cut > lo * (1 + 1e-15) + 1e-300:
                if not math.isnan(w_e) and r_cut == hi_i:
                    w_hi = w_e
                else:
                    w_hi = math.acos(min(ci / m_cut, 1.0))
                if w_hi > w_lo + 1e-14:
                    heads.append((i, w_lo, w_hi, r_cut, m_cut))
                body_from = r_cut
        if hi_i > body_from * (1 + 1e-15):
            bodies.append((i, body_from, hi_i))

    # m' at the starts (the tangency test, and the heads' first knots), at
    # the window ends (the tail) and at the head cuts (their last knots)
    mp_at = profile.mp(np.concatenate((r_lo, hi, [h[3] for h in heads]))).tolist()
    mp_lo, mp_hi = mp_at[:n], mp_at[n:2 * n]
    for i in range(n):
        if singular[i] and out[i] is None and mp_lo[i] <= TANGENT_SLOPE:
            # the geodesic is asymptotic to the parallel circle: log divergence
            out[i] = IntegralResult(math.inf, 0.0, STATUS_DIVERGENT_TANGENCY)
    heads = [h + (mp,) for h, mp in zip(heads, mp_at[2 * n:]) if out[h[0]] is None]
    bodies = [b for b in bodies if out[b[0]] is None]

    head, head_err, cross_err = _heads(profile, heads, c, r_lo, m_lo, mp_lo, singular, tol, n)
    body, body_err = np.zeros(n), np.zeros(n)
    if bodies:
        at, start, end = np.array(bodies).T
        at = at.astype(int)
        bc = c[at]

        def f_r(r, k):
            m = profile.m(r)
            ck = bc[k][:, None]
            return ck / (m * np.sqrt(np.maximum((m - ck) * (m + ck), 1e-300)))

        cuts = [_cuts(profile, s, e, BODY_PANELS)[0] for _, s, e in bodies]
        body[at], body_err[at] = _adaptive_gk(f_r, start, end, tol[at] / 2.0, BODY_PANELS,
                                              log_spaced=True, cuts=cuts)

    for i, (h, h_err, x_err, b, b_err) in enumerate(zip(
            head.tolist(), head_err.tolist(), cross_err.tolist(), body.tolist(),
            body_err.tolist())):
        if out[i] is not None:
            continue
        value = h + b
        err = h_err + x_err + b_err + 1e-16 * (1.0 + abs(value))
        c_i = rows[i][0]
        if i in closed:
            # G(inf) - G(r) at the closed part's start, less that at its end;
            # m' = 0 at r_a when it is m's minimum, up to rounding
            from_a, start, end = closed[i]
            m0, mp0 = profile.tail_start if from_a else (m_lo[i], mp_lo[i])
            g, g_err = _closed_turn(*tail[1:], c_i, m0, max(mp0, 0.0), *start)
            if end:
                g_end, end_err = _closed_turn(*tail[1:], c_i, m_hi[i], max(mp_hi[i], 0.0), *end)
                g, g_err = g - g_end, g_err + end_err
            if not g < math.inf:
                out[i] = IntegralResult(math.inf, 0.0, STATUS_DIVERGENT_TANGENCY)
            else:
                out[i] = IntegralResult(max(value + g, 0.0), err + g_err, STATUS_CONVERGED)
        elif improper[i]:
            out[i] = _tail(profile.tail_certificate, m_hi[i], mp_hi[i], c_i, value, err)
        else:
            out[i] = IntegralResult(max(value, 0.0), err, STATUS_CONVERGED)
    return out


def _cuts(profile, lo, hi, panels):
    """K's joins inside (lo, hi), where m is only finitely smooth, and m
    there: the cuts of a pass starting from `panels` panels, or none when
    a fine table puts that many or more there."""
    joins, m_joins = profile.at_joins
    j0, j1 = bisect.bisect_right(joins, lo), bisect.bisect_left(joins, hi)
    return (joins[j0:j1], m_joins[j0:j1]) if j1 - j0 < panels else ((), ())


def _heads(profile, heads, c, r_lo, m_lo, mp_lo, singular, tol, n):
    """The head passes: per integral (head, head error, cross-check
    disagreement), zero where the integral has no head."""
    head, head_err, cross_err = np.zeros(n), np.zeros(n), np.zeros(n)
    if not heads:
        return head, head_err, cross_err
    # the knots of r(m): the start (where m may sit a rounding below c),
    # the profile's breakpoints, and the cut, with slopes 1 / m'
    m, r, mp, k, cuts = [], [], [], [], []
    for j, (i, w_lo, w_hi, r_cut, m_cut, mp_cut) in enumerate(heads):
        kr, km, kmp = profile.knots(r_lo[i], r_cut)
        m += [min(m_lo[i], c[i]), *km.tolist(), m_cut]
        r += [r_lo[i], *kr.tolist(), r_cut]
        mp += [mp_lo[i], *kmp.tolist(), mp_cut]
        k += [j] * (kr.size + 2)
        inside, m_inside = _cuts(profile, r_lo[i], r_cut, HEAD_PANELS)
        if inside:  # the w-form's cuts are the joins' angles
            w = np.arccos(np.minimum(c[i] / m_inside, 1.0))
            inside = w[(w_lo < w) & (w < w_hi)].tolist()
        cuts.append(inside)
    seed = _inverse_seed(np.array(m), np.array(r), 1.0 / np.maximum(mp, 1e-300), np.array(k))
    at, w_lo, w_hi, r_cut = np.array([h[:4] for h in heads]).T
    at = at.astype(int)
    hc, hlo = c[at], r_lo[at]

    def f_w(w, k):
        k = np.repeat(k, w.shape[1])
        t = hc[k] / np.cos(w.ravel())
        return 1.0 / _invert_m(profile, t, hlo[k], r_cut[k], seed(t, k))[1].reshape(w.shape)

    head[at], head_err[at] = _adaptive_gk(f_w, w_lo, w_hi, tol[at] / 4.0, HEAD_PANELS,
                                          cuts=cuts)

    sing = np.array([singular[i] for i in at.tolist()])
    if sing.any():
        # independent check: factor out the sqrt singularity
        at, xc, xlo = at[sing], hc[sing], hlo[sing]

        def f_xi(xi, k):
            rl, ck = xlo[k][:, None], xc[k][:, None]
            r = rl + xi**2
            m = profile.m(r)
            nodes = rl[..., None] + (r - rl)[..., None] * _G5X
            h = np.maximum((profile.mp(nodes) * _G5W).sum(axis=-1), 1e-300)
            return 2.0 * ck / (m * np.sqrt((m + ck) * h))

        head2, _ = _adaptive_gk(f_xi, np.zeros(at.size), np.sqrt(r_cut[sing] - xlo),
                                tol[at] / 4.0, CROSS_PANELS)
        cross_err[at] = np.abs(head[at] - head2)
    return head, head_err, cross_err


def _sin_cos(c, m, w=math.nan):
    """(sin w, cos w) of the angle w = arccos(c / m): from w itself when
    the caller knows it exactly, else from c / m and sqrt((m - c)(m + c))
    / m, which keep their digits where arccos(c / m) has lost them."""
    if not math.isnan(w):
        return math.sin(w), math.cos(w)
    return math.sqrt(max((m - c) * (m + c), 0.0)) / m, min(c / m, 1.0)


def _closed_turn(k, E, c, m, mp, sw, cw):
    """G(inf) - G(r): the turn integral from r on to infinity where K is
    the constant k <= 0 and m rises, in closed form.

    E = m'^2 + k m^2 is constant there, and the caller passes the one
    value its stretch started with; m and mp are m(r) and m'(r), (sw,
    cw) is (sin w, cos w) for w = arccos(c / m(r)).  With F_c dr = dw /
    m' and m' = sqrt(E - k c^2 / cos^2 w), G is atan(sqrt(E) t) /
    sqrt(E) for E > 0, atanh (or acoth) of sqrt(-E) t over sqrt(-E)
    for E < 0, and t for E = 0, where t = tan w / m' tends to 1 / (c
    sqrt(-k)) (k < 0) or to infinity (k = 0).  By the addition theorem
    G(inf) - G(r) is the same function of D = cos w / (sqrt(-k) m + m'
    sin w), a sum of nonnegative terms; for k = 0 this is asin(c / m) /
    m'.  Returns (value, error): the error is rounding only, 1e-14 (1 +
    value), plus, for E < 0, what the rounding of 1 - sqrt(-E) D costs
    where it cancels, near a tangency at the tail's minimum; the value is
    inf when the integral diverges, which takes m' = 0 at the turning
    circle.
    """
    den = math.sqrt(-k) * m + mp * sw
    e = math.sqrt(abs(E))
    if E > 0.0:
        value = math.atan2(e * cw, den) / e
        return value, 1e-14 * (1.0 + value)
    if E == 0.0:
        return cw / den, 1e-14 * (1.0 + cw / den)
    # atanh(e D) = log1p(x) / 2, x = 2 e D / (1 - e D)
    gap = den - e * cw
    if not gap > 0.0:
        return math.inf, 0.0
    x = 2.0 * e * cw / gap
    value = math.log1p(x) / (2.0 * e)
    return value, 1e-14 * (1.0 + value) + 4.4e-16 * den / gap * x / (1.0 + x) / e


def _tail(cert, m_R, a_R, c, value, err):
    """Close an improper integral whose window part is value +- err: the
    tail beyond the window end, from the profile's tail certificate."""
    if a_R <= 1e-13 and cert == "zero":
        # m frozen at m_R forever: the tail integrand never decays
        return IntegralResult(math.inf, 0.0, STATUS_DIVERGENT_TAIL)
    if cert is None or a_R <= 1e-13:
        # no certificate, or a slope that may still recover (K <= 0): nothing
        # is certified beyond the window
        return IntegralResult(max(value, 0.0), err, STATUS_WINDOW_LIMITED)
    # the tail if m stayed linear beyond the window: asin(c / m_R) / a_R
    linear, linear_err = _closed_turn(0.0, a_R * a_R, c, m_R, a_R, *_sin_cos(c, m_R))
    if cert == "zero":
        # m is exactly linear beyond the window: closed-form tail
        value += linear
        err += linear_err
    else:
        # m grows at least linearly (m'' = -K m >= 0): bracket the tail
        bound = linear
        if m_R >= math.sqrt(2.0) * c:
            bound = min(bound, math.sqrt(2.0) * c / (a_R * m_R))
        value += bound / 2.0
        err += bound / 2.0
    return IntegralResult(max(value, 0.0), err, STATUS_CONVERGED)
