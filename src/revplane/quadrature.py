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
    radius recovered by monotone Newton inversion;
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
"""

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


def turn_rate(profile, c, r):
    """The raw integrand F_c(r); +inf where m(r) <= c."""
    m = np.asarray(profile.m(r), dtype=float)
    out = np.full_like(m, np.inf)
    ok = m > c
    out[ok] = c / (m[ok] * np.sqrt((m[ok] - c) * (m[ok] + c)))
    return float(out) if np.isscalar(r) else out


def _gk15(f, a, b):
    """Vectorized GK15 over panels [a_i, b_i]; returns (values, error estimates)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid[:, None] + half[:, None] * _XGK[None, :]
    fx = f(x.ravel()).reshape(x.shape)
    gk = (fx * _WGK).sum(axis=1) * half
    g7 = (fx[:, 1::2] * _WG7).sum(axis=1) * half
    return gk, np.abs(gk - g7)


def _adaptive_gk(f, a, b, tol, initial=16, log_spaced=False):
    """Adaptive GK15 on [a, b]: split the offending panels until the
    summed embedded error estimate drops below tol (or the MAX_PANELS
    budget runs out).  Returns (value, error_estimate)."""
    if not b > a:
        return 0.0, 0.0
    if log_spaced and a > 0 and b / a > 10.0:
        edges = np.geomspace(a, b, initial + 1)
    else:
        edges = np.linspace(a, b, initial + 1)
    lo, hi = edges[:-1], edges[1:]
    vals, errs = _gk15(f, lo, hi)
    for _ in range(48):
        if errs.sum() <= tol or len(lo) >= MAX_PANELS:
            break
        cut = max(tol / (2.0 * len(lo)), 0.0)
        bad = errs > cut
        if not np.any(bad):
            bad = errs >= errs.max()
        mids = 0.5 * (lo[bad] + hi[bad])
        new_lo = np.concatenate([lo[~bad], lo[bad], mids])
        new_hi = np.concatenate([hi[~bad], mids, hi[bad]])
        keep_vals, keep_errs = vals[~bad], errs[~bad]
        split_vals, split_errs = _gk15(f, np.concatenate([lo[bad], mids]),
                                       np.concatenate([mids, hi[bad]]))
        lo, hi = new_lo, new_hi
        vals = np.concatenate([keep_vals, split_vals])
        errs = np.concatenate([keep_errs, split_errs])
    return float(vals.sum()), float(errs.sum())


def _invert_m(profile, targets, r_lo, r_hi, grid_r, grid_m):
    """Solve m(r) = target on [r_lo, r_hi] where m is increasing.

    Newton iteration seeded by interpolation between the profile's
    breakpoints; iterates are clipped to the bracket.
    """
    r = np.interp(targets, grid_m, grid_r)
    for _ in range(60):
        m = profile.m(r)
        mp = profile.mp(r)
        mp = np.where(np.abs(mp) < 1e-300, 1e-300, mp)
        step = (m - targets) / mp
        r_new = np.clip(r - step, r_lo, r_hi)
        if np.max(np.abs(r_new - r)) <= 1e-15 * (1.0 + r_hi):
            return r_new
        r = r_new
    return r


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
    """
    if c < 0:
        raise ValueError("Clairaut constant c must be >= 0")
    if not 0 < tol < 1:
        raise ValueError("tol must be in (0, 1)")
    improper = r_hi is None
    hi = profile.r_max if improper else float(r_hi)
    if hi > profile.r_max * (1 + 1e-12):
        raise OutOfWindow(f"r_hi = {hi:.6g} beyond solved window {profile.r_max:.6g}")
    if not 0 <= r_lo < hi:
        raise ValueError(f"need 0 <= r_lo < r_hi, got [{r_lo}, {hi}]")
    if c == 0.0:
        return IntegralResult(0.0, 0.0, STATUS_CONVERGED)

    m_lo = profile.m(r_lo)
    if m_lo < c * (1 - 1e-9) - 1e-12:
        raise ValueError(
            f"m(r_lo) = {m_lo:.6g} < c = {c:.6g}: start lies inside the forbidden annulus"
        )
    if w_start is not None:
        w_lo = w_start
    elif m_lo <= c * (1 + TRAP_REL):
        w_lo = 0.0
    else:
        w_lo = math.acos(c / m_lo)
    singular = w_lo == 0.0

    if singular and profile.mp(r_lo) <= TANGENT_SLOPE:
        # the geodesic is asymptotic to the parallel circle: log divergence
        return IntegralResult(math.inf, 0.0, STATUS_DIVERGENT_TANGENCY)

    # m is monotone between its extrema: m at those past r_lo and at the
    # window end decides the trap and where the head's monotone stretch ends
    ext = profile.extrema
    ends = np.append(ext[(r_lo < ext) & (ext < hi)], hi)
    m_ends = profile.m(ends)

    # trap detection: past r_lo, m must not come back down to the turning
    # circle, at an extremum or, for an improper integral, by falling to
    # it at the window end
    low = m_ends <= c * (1 + TRAP_REL)
    falls = m_ends[-1] < (m_ends[-2] if len(ends) > 1 else m_lo)
    if np.any(low[:-1]) or (improper and low[-1] and falls):
        return IntegralResult(math.inf, 0.0, STATUS_DIVERGENT_TANGENCY)

    root2c = math.sqrt(2.0) * c
    head = head_err = cross_err = 0.0
    body_from = r_lo
    r_s, m_s = ends[0], m_ends[0]

    if m_lo < root2c and m_s > m_lo:
        # the head inverts m, so it stays on the stretch where m rises from
        # r_lo: cut where m reaches sqrt(2) c, and short of an extremum,
        # where m' = 0 makes the w-form integrand 1/m' singular, at most
        # halfway up to it
        m_cut = root2c if r_s == hi else min(root2c, 0.5 * (c + m_s))
        r_cut = profile.level_radius(m_cut, r_lo, r_s)
        if r_cut is None:  # m stays below the level, or starts above it
            r_cut, m_cut = (r_s, m_s) if m_s < m_cut else (r_lo, m_lo)
        if r_cut > r_lo * (1 + 1e-15) + 1e-300:
            if w_end is not None and r_cut == hi:
                w_hi = w_end
            else:
                w_hi = math.acos(min(c / m_cut, 1.0))
            if w_hi > w_lo + 1e-14:
                kr, km = profile.knots(r_lo, r_cut)
                gr = np.concatenate(([r_lo], kr, [r_cut]))
                gm = np.concatenate(([min(m_lo, c)], km, [m_cut]))

                def f_w(w):
                    t = c / np.cos(w)
                    r = _invert_m(profile, t, r_lo, r_cut, gr, gm)
                    return 1.0 / profile.mp(r)

                head, head_err = _adaptive_gk(f_w, w_lo, w_hi, tol / 4.0, initial=8)

                if singular:
                    # independent check: factor out the sqrt singularity
                    def f_xi(xi):
                        r = r_lo + xi**2
                        m = profile.m(r)
                        nodes = r_lo + np.outer(r - r_lo, _G5X)
                        h = (profile.mp(nodes.ravel()).reshape(nodes.shape) @ _G5W)
                        h = np.maximum(h, 1e-300)
                        return 2.0 * c / (m * np.sqrt((m + c) * h))

                    head2, _ = _adaptive_gk(f_xi, 0.0, math.sqrt(r_cut - r_lo),
                                            tol / 4.0, initial=12)
                    cross_err = abs(head - head2)
            body_from = r_cut

    body = body_err = 0.0
    if hi > body_from * (1 + 1e-15):
        def f_r(r):
            m = profile.m(r)
            return c / (m * np.sqrt(np.maximum((m - c) * (m + c), 1e-300)))

        body, body_err = _adaptive_gk(f_r, body_from, hi, tol / 2.0,
                                      initial=32, log_spaced=True)

    value = head + body
    err = head_err + cross_err + body_err + 1e-16 * (1.0 + abs(value))
    if not improper:
        return IntegralResult(max(value, 0.0), err, STATUS_CONVERGED)

    # improper: resolve the tail beyond the window via curvature certificate
    cert = profile.spec.tail_certificate()
    m_R = m_ends[-1]
    a_R = profile.mp(hi)
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
