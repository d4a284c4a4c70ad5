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
  * the infinite tail is resolved by a certificate read off the
    curvature: an exactly-linear m gives a closed-form arcsin tail, an
    eventually nonpositive curvature gives a two-sided bracket (m grows
    at least linearly, and m^2 - c^2 >= m^2/2 once m >= sqrt(2) c), and
    anything weaker leaves the result flagged window_limited.

Divergent integrals report value = +inf, never a large finite number:
status divergent_tangency when the geodesic cannot leave the turning
circle (m' = 0 there) or falls back to it (m returns to the level c),
divergent_tail when m stops growing so the tail itself diverges.

Integrals run as a batch.  integrate_turn_rates takes many at once and
runs each pass -- head, cross-check, body -- over all of them together:
every GK panel carries the index of its integral, so one refinement
round makes one profile call over the new panels of every integral
still refining.  Everything else is decided per integral: the trap and
tangency tests, the head cut, the adaptive split rule and panel budget,
and the tail certificate.  An integral's result therefore does not
depend on which others share its batch, and integrate_turn_rate is the
batch of one.
"""

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfWindow

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
# integrals per batch: bounds the working set of the panel arrays
CHUNK = 16

# 15-point Kronrod nodes on [-1, 1] with the embedded 7-point Gauss rule
_XGK = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993944, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0, 0.2077849550078985, 0.4058451513773972,
    0.5860872354676911, 0.7415311855993944, 0.8648644233597691,
    0.9491079123427585, 0.9914553711208126,
])
_WGK = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278, 0.2044329400752989,
    0.1903505780647854, 0.1690047266392679, 0.1406532597155259,
    0.1047900103222502, 0.0630920926299786, 0.0229353220105292,
])
_WG7 = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694, 0.3818300505051189, 0.2797053914892767,
    0.1294849661688697,
])

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


def _gk15(f, a, b, k):
    """Vectorized GK15 over panels [a_j, b_j] of the integrals k_j:
    f(x, k) gets the panels' nodes as the rows of x.  Returns (values,
    error estimates)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fx = f(mid[:, None] + half[:, None] * _XGK, k)
    gk = (fx * _WGK).sum(axis=1) * half
    g7 = (fx[:, 1::2] * _WG7).sum(axis=1) * half
    return gk, np.abs(gk - g7)


def _adaptive_gk(f, a, b, tol, initial, log_spaced=False):
    """Adaptive GK15 on the intervals [a_i, b_i] (a_i < b_i) together.

    f(x, k) evaluates integrand k_j at row j of x, the nodes of one
    panel.  Integral i starts from `initial` equal panels (geometric ones
    when log_spaced and b_i / a_i > 10) and splits every panel whose
    error estimate exceeds tol_i over twice its panel count, until its
    summed estimate drops below tol_i or it holds MAX_PANELS panels, for
    at most 48 rounds; each round calls f once, on the new panels of all
    integrals still refining.  Sums run over each integral's panels in
    order, so its panels and sums do not depend on the others.  Returns
    per-integral (values, error estimates).
    """
    n = len(a)
    t = np.arange(initial + 1) / initial
    edges = a[:, None] + (b - a)[:, None] * t
    if log_spaced:
        geo = (a > 0) & (b > 10.0 * a)
        if geo.any():
            edges[geo] = a[geo, None] * (b[geo] / a[geo])[:, None] ** t
    edges[:, -1] = b
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


def _inverse_seed(knots):
    """Cubic Hermite interpolants of r(m), one per integral.

    knots[k] lists integral k's knots (m, r, dr/dm) in rising m.
    Returns seed(t, k): integral k's interpolant at the levels t,
    extrapolated past its end knots.
    """
    # complex numbers order by real part, then imaginary part: the number
    # of keys k + 1j m at or below k + 1j t counts the knots of the
    # integrals before k and those of k up to t.  Integral k owns one
    # row per knot plus one, so adding k gives the row of t: the
    # polynomial, in d = t - m_i, of the interval of knots i and i + 1
    # that holds t, or of the end interval beyond either end knot
    keys, rows = [], []
    for k, pts in enumerate(knots):
        keys += [complex(k, m) for m, _, _ in pts]
        polys = []
        for (m0, r0, s0), (m1, r1, s1) in zip(pts, pts[1:]):
            h = m1 - m0 if m1 > m0 else math.inf
            slope = (r1 - r0) / h
            polys.append((m0, r0, s0, (3.0 * slope - 2.0 * s0 - s1) / h,
                          (s0 + s1 - 2.0 * slope) / (h * h)))
        rows += [polys[0]] + polys + [polys[-1]]
    keys, rows = np.array(keys), np.array(rows)

    def seed(t, k):
        m_i, r_i, s_i, c2, c3 = rows[np.searchsorted(keys, k + 1j * t, side="right") + k].T
        d = t - m_i
        return r_i + d * (s_i + d * (c2 + d * c3))

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
        if c < 0:
            raise ValueError("Clairaut constant c must be >= 0")
        if not 0 < tol < 1:
            raise ValueError("tol must be in (0, 1)")
        hi = profile.r_max if r_hi is None else float(r_hi)
        if hi > profile.r_max * (1 + 1e-12):
            raise OutOfWindow(f"r_hi = {hi:.6g} beyond solved window {profile.r_max:.6g}")
        if not 0 <= r_lo < hi:
            raise ValueError(f"need 0 <= r_lo < r_hi, got [{r_lo}, {hi}]")
        w_start, w_end = leg.get("w_start"), leg.get("w_end")
        rows.append((c, r_lo, hi, r_hi is None, tol, math.nan if w_start is None else w_start,
                     math.nan if w_end is None else w_end))
    out = []
    for s in range(0, len(rows), CHUNK):
        out += _integrate(profile, rows[s:s + CHUNK])
    return out


def _integrate(profile, rows):
    """One batch of integrate_turn_rates, its legs' arguments checked."""
    n = len(rows)
    out = [None] * n
    c, r_lo, hi, improper, tol, w_start, w_end = np.array(rows, dtype=float).T
    # m is monotone between its extrema: m at those past r_lo and at the
    # window end decides the trap and where the head's monotone stretch ends
    ext = profile.extrema
    m_at = profile.m(np.concatenate((r_lo, ext, hi))).tolist()
    m_lo, m_ext, m_hi = m_at[:n], m_at[n:n + ext.size], m_at[n + ext.size:]
    ext = ext.tolist()

    heads, bodies = [], []  # (integral, w_lo, w_hi, r_cut, m_cut); (integral, from)
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

        root2c = math.sqrt(2.0) * ci
        body_from = lo
        r_s, m_s = (ext[first], m_ends[0]) if m_ends else (hi_i, m_hi[i])
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
            bodies.append((i, body_from))

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
        at, start = np.array(bodies).T
        at = at.astype(int)
        bc = c[at]

        def f_r(r, k):
            m = profile.m(r)
            ck = bc[k][:, None]
            return ck / (m * np.sqrt(np.maximum((m - ck) * (m + ck), 1e-300)))

        body[at], body_err[at] = _adaptive_gk(f_r, start, hi[at], tol[at] / 2.0, 32,
                                              log_spaced=True)

    cert = profile.spec.tail_certificate() if improper.any() else None
    for i, (h, h_err, x_err, b, b_err) in enumerate(zip(
            head.tolist(), head_err.tolist(), cross_err.tolist(), body.tolist(),
            body_err.tolist())):
        if out[i] is not None:
            continue
        value = h + b
        err = h_err + x_err + b_err + 1e-16 * (1.0 + abs(value))
        if improper[i]:
            c_i, _, hi_i = rows[i][:3]
            out[i] = _tail(cert, hi_i, m_hi[i], mp_hi[i], c_i, value, err)
        else:
            out[i] = IntegralResult(max(value, 0.0), err, STATUS_CONVERGED)
    return out


def _heads(profile, heads, c, r_lo, m_lo, mp_lo, singular, tol, n):
    """The head passes: per integral (head, head error, cross-check
    disagreement), zero where the integral has no head."""
    head, head_err, cross_err = np.zeros(n), np.zeros(n), np.zeros(n)
    if not heads:
        return head, head_err, cross_err
    # the knots of r(m): the start (where m may sit a rounding below c),
    # the profile's breakpoints, and the cut, with slopes 1 / m'
    knots = []
    for i, _, _, r_cut, m_cut, mp_cut in heads:
        kr, km, kmp = profile.knots(r_lo[i], r_cut)
        knots.append(list(zip([min(m_lo[i], c[i]), *km.tolist(), m_cut],
                              [r_lo[i], *kr.tolist(), r_cut],
                              [1.0 / max(mp, 1e-300) for mp in [mp_lo[i], *kmp.tolist(), mp_cut]])))
    seed = _inverse_seed(knots)
    at, w_lo, w_hi, r_cut = np.array([h[:4] for h in heads]).T
    at = at.astype(int)
    hc, hlo = c[at], r_lo[at]

    def f_w(w, k):
        k = np.repeat(k, w.shape[1])
        t = hc[k] / np.cos(w.ravel())
        return 1.0 / _invert_m(profile, t, hlo[k], r_cut[k], seed(t, k))[1].reshape(w.shape)

    head[at], head_err[at] = _adaptive_gk(f_w, w_lo, w_hi, tol[at] / 4.0, 8)

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
                                tol[at] / 4.0, 12)
        cross_err[at] = np.abs(head[at] - head2)
    return head, head_err, cross_err


def _tail(cert, hi, m_R, a_R, c, value, err):
    """Close an improper integral whose window part is value +- err: the
    tail beyond the window end hi, from the curvature's certificate."""
    if cert is not None and cert[0] in ("zero", "nonpositive") and cert[1] <= hi:
        if a_R <= 1e-13:
            if cert[0] == "zero":
                # m frozen at m_R forever: the tail integrand never decays
                return IntegralResult(math.inf, 0.0, STATUS_DIVERGENT_TAIL)
            # slope may still recover (K <= 0), but nothing is certified
            return IntegralResult(max(value, 0.0), err, STATUS_WINDOW_LIMITED)
        if cert[0] == "zero":
            # m is exactly linear beyond the window: closed-form tail
            tail = math.asin(min(c / m_R, 1.0)) / a_R
            value += tail
            err += 1e-14 * (1.0 + tail)
        else:
            # m grows at least linearly (m'' = -K m >= 0): bracket the tail
            bound = math.asin(min(c / m_R, 1.0)) / a_R
            if m_R >= math.sqrt(2.0) * c:
                bound = min(bound, math.sqrt(2.0) * c / (a_R * m_R))
            value += bound / 2.0
            err += bound / 2.0
        return IntegralResult(max(value, 0.0), err, STATUS_CONVERGED)
    return IntegralResult(max(value, 0.0), err, STATUS_WINDOW_LIMITED)
