"""Radial profiles m(r) from prescribed curvature.

The warping function of a rotationally symmetric plane solves the Jacobi
initial value problem

    m'' + K(r) m = 0,   m(0) = 0,   m'(0) = 1,

and the plane is smooth and complete iff m stays positive for r > 0.
This module solves that IVP stretch by stretch -- in closed form where K
is constant, with DOP853 dense output where it varies -- watches for a
zero of m (raising StarViolation with the root: exact in a constant
stretch, located in a solved one), and provides the profile queries
everything else is built on: pointwise m and m' from two
piecewise polynomials, their exact roots (the landmarks), the extrema of
m and the first or last radius where m reaches a level, comparison of two
profiles (Sturm), the embedding profile in Euclidean 3-space, and the
slope at infinity.
"""

import bisect
import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid, solve_ivp
from scipy.interpolate import PPoly

from .errors import OutOfWindow, StarViolation

# below this radius the truncated Taylor seed is more accurate than the ODE
SEED_RADIUS = 1e-6

# slopes at r_max and r_max/2 further apart than this: the limit is not reached
SLOPE_SPREAD_TOL = 1e-6


class Profile:
    """The warping function m of one curvature spec on [0, r_max].

    m and mp are piecewise polynomials (scipy PPoly) of degree 7 for m
    and m' on the window: the Taylor seed, then Hermite pieces of the
    exact solution where K is constant and the DOP853 steps of the Jacobi
    solve where it varies.  Landmarks and levels are their exact roots;
    no profile query samples a grid.

    tail is (r_a, k, E) when K is the constant k <= 0 from r_a on and m
    rises there (m' > 0 beyond r_a), E = m'^2 + k m^2 being the
    stretch's conserved quantity, taken from its start state; the turn
    integral is closed-form on that tail.  None for a profile built by
    hand, or when no such tail starts in the window.
    """

    def __init__(self, spec, m, mp, r_max, tol, tail=None):
        self.spec = spec
        self.tail = tail
        self._m_pp = m
        self._mp_pp = mp
        self.r_max = float(r_max)
        self.tol = float(tol)
        # the breakpoints as a list: bisection on it costs what a scalar does
        self._breaks = m.x.tolist()
        # each piece's value at its left end, and (filled as the level
        # search reaches them) its coefficients, lowest power first
        self._values = m.c[-1].tolist()
        self._coefs = {}
        self._extrema = None
        self._stretch_ends = None

    def _eval(self, pp, r):
        r = np.asarray(r, dtype=float)
        hi = self.r_max * (1 + 1e-12)
        # two reductions first: the masks are built only for the message
        if r.size and (r.min() < 0 or r.max() > hi):
            bad = (r < 0) | (r > hi)
            raise OutOfWindow(
                f"r = {r[bad].flat[0]:.6g} outside solved window [0, {self.r_max:.6g}]"
            )
        out = pp(r)
        return float(out) if out.ndim == 0 else out

    def m(self, r):
        """Warping function m(r); scalar or array, r in [0, r_max]."""
        return self._eval(self._m_pp, r)

    def mp(self, r):
        """Radial derivative m'(r)."""
        return self._eval(self._mp_pp, r)

    def K(self, r):
        return self.spec.evaluate(r)

    def roots(self, order, level, lo, hi):
        """Sorted radii in [lo, hi] where m (order 0), m' (1) or m'' (2)
        equals level.

        m'' is the derivative of the m' pieces.  A piece that equals the
        level throughout contributes its left end.
        """
        pp = self._m_pp if order == 0 else self._mp_pp
        if order == 2:
            pp = pp.derivative()
        r = pp.solve(level, extrapolate=False)
        return np.sort(r[(lo <= r) & (r <= hi)])

    @property
    def extrema(self):
        """Sorted radii where m' = 0: m is monotone between consecutive
        ones.  Cached after the first access."""
        if self._extrema is None:
            self._extrema = self.roots(1, 0.0, 0.0, self.r_max)
        return self._extrema

    def knots(self, lo, hi):
        """The pieces' breakpoints strictly inside (lo, hi), and m and m'
        at them, read off the coefficients without evaluating the profile."""
        a = bisect.bisect_right(self._breaks, lo)
        b = bisect.bisect_left(self._breaks, hi)
        return self._m_pp.x[a:b], self._m_pp.c[-1, a:b], self._mp_pp.c[-1, a:b]

    def level_radius(self, level, lo, hi, last=False):
        """First (or, with last, the last) radius in [lo, hi] where m
        equals level; None when m does not reach it there.

        m is monotone between its extrema, so the first (or last) stretch
        between neighbouring extrema whose end values bracket the level
        holds the answer.  Inside it the breakpoint values -- the pieces'
        own coefficients -- are monotone too, so a bisect on them finds
        the cell and its one piece, and a Newton iteration kept inside
        the cell solves that piece's polynomial.  Values are summed as
        PPoly sums them, so an end returned as the answer has m(r) ==
        level exactly.
        """
        top = self.r_max * (1 + 1e-12)
        if not (0.0 <= lo <= top and 0.0 <= hi <= top):
            raise OutOfWindow(f"[{lo:.6g}, {hi:.6g}] outside solved window "
                              f"[0, {self.r_max:.6g}]")
        if self._stretch_ends is None:
            self._stretch_ends = (self.extrema.tolist(), self.m(self.extrema).tolist())
        ext, m_ext = self._stretch_ends
        a, b = bisect.bisect_right(ext, lo), bisect.bisect_left(ext, hi)
        ends = [lo, *ext[a:b], hi]
        vals = [self._piece_at(lo)[0], *m_ext[a:b], self._piece_at(hi)[0]]
        for k in range(len(ends) - 2, -1, -1) if last else range(len(ends) - 1):
            d0, d1 = vals[k] - level, vals[k + 1] - level
            if d0 == 0.0 or d1 == 0.0 or (d0 < 0.0) != (d1 < 0.0):
                break
        else:
            return None
        s0, s1 = ends[k], ends[k + 1]
        # the cell: the breakpoints strictly inside the stretch, bisected
        # for the first (or last) one past the level
        v = self._values
        i0 = bisect.bisect_right(self._breaks, s0)
        i1 = max(i0, min(bisect.bisect_left(self._breaks, s1), len(v)))
        find = bisect.bisect_right if last else bisect.bisect_left
        j = find(v, -level, i0, i1, key=_neg) if d1 < d0 else find(v, level, i0, i1)
        left, dl = (s0, d0) if j == i0 else (self._breaks[j - 1], v[j - 1] - level)
        right, dr = (s1, d1) if j == i1 else (self._breaks[j], v[j] - level)
        for r, d in ((right, dr), (left, dl)) if last else ((left, dl), (right, dr)):
            if d == 0.0:
                return r
        return self._solve_piece(min(j, len(v)) - 1, level, left, right, dl, dr)

    def _piece_at(self, r, piece=None):
        """m and m' of the piece covering r (or of the given piece), in
        Python floats; m is summed in ascending powers of r - x_i, as
        PPoly sums it, so it equals Profile.m bit for bit."""
        if piece is None:
            piece = min(max(bisect.bisect_right(self._breaks, r) - 1, 0), len(self._values) - 1)
        coefs = self._coefs.get(piece)
        if coefs is None:
            coefs = self._coefs[piece] = self._m_pp.c[::-1, piece].tolist()
        s = r - self._breaks[piece]
        val = slope = s_prev = 0.0
        z = 1.0
        for k, coef in enumerate(coefs):
            val += coef * z
            slope += k * coef * s_prev
            s_prev, z = z, z * s
        return val, slope

    def _solve_piece(self, piece, level, left, right, dl, dr):
        """The root of the piece's m - level in the cell [left, right],
        whose end values dl, dr (as the search read them) bracket it:
        Newton steps, with a bisection wherever a step leaves the
        bracket.  dl is the piece's own value at left; when the piece
        ends on the same side of the level at right, the root has rounded
        out of the cell and the nearer end is the answer."""
        fr = self._piece_at(right, piece)[0] - level
        if fr == 0.0:
            return right
        if (dl < 0.0) == (fr < 0.0):
            return left if abs(dl) <= abs(dr) else right
        neg, pos = (left, right) if dl < 0.0 else (right, left)
        f_neg, f_pos = min(dl, fr), max(dl, fr)
        r = left - dl * (right - left) / (fr - dl)
        while True:
            if not min(neg, pos) < r < max(neg, pos):
                r = 0.5 * (neg + pos)
                if r == neg or r == pos:  # the bracket is two neighbouring floats
                    return neg if -f_neg <= f_pos else pos
            f, fp = self._piece_at(r, piece)
            f -= level
            if f == 0.0:
                return r
            if f < 0.0:
                neg, f_neg = r, f
            else:
                pos, f_pos = r, f
            step = f / fp if fp else math.inf
            if r - step == r:
                return r
            r -= step

    def __repr__(self):
        return f"Profile({self.spec.kind!r}, window=[0, {self.r_max:.6g}])"


def _neg(x):
    return -x


def solve_jacobi(spec, r_max=200.0, tol=1e-10):
    """Integrate m'' + K m = 0, m(0)=0, m'(0)=1 on [0, r_max].

    Returns a Profile whose pieces are the Taylor seed on [0, SEED_RADIUS]
    and then, stretch by stretch between the curvature's joins
    (spec.joins()), each from the state the previous one ends in:
    where K is one constant (spec.constant_on), degree-7 Hermite pieces
    of the exact solution (_constant_stretch); elsewhere the DOP853 dense
    output of each step of one solver pass (solve_stretch).  Raises
    StarViolation when m vanishes at some r > 0; the exception carries
    that first zero, exact in a constant stretch and located to better
    than 1e-10 in a solved one.  When the last stretch lies on the
    constant_beyond() tail with k <= 0, the profile records where m
    rises on it (Profile.tail, from _rising_tail).  The window is
    clipped to the curvature's declared domain and must be finite after
    that (ValueError otherwise).
    """
    if not (1e-14 < tol < 1e-3):
        raise ValueError(f"tol must lie in (1e-14, 1e-3), got {tol}")
    if not r_max > SEED_RADIUS:
        raise ValueError(f"r_max must exceed {SEED_RADIUS}")
    r_max = min(float(r_max), spec.domain_hi)
    if not math.isfinite(r_max):
        raise ValueError(f"r_max must be finite, got {r_max}")

    k0 = spec.evaluate(0.0)
    h0 = SEED_RADIUS
    y = [h0 - k0 * h0**3 / 6.0, 1.0 - k0 * h0**2 / 2.0]
    # powers of r, highest first, on [0, h0]
    seed = np.zeros((8, 1, 2))
    seed[6, 0, 0], seed[4, 0, 0] = 1.0, -k0 / 6.0  # m = r - k0 r^3 / 6
    seed[7, 0, 1], seed[5, 0, 1] = 1.0, -k0 / 2.0  # m' = 1 - k0 r^2 / 2
    xs, cs = [[0.0, h0]], [seed]
    ends = [h0, *(r for r in spec.joins() if h0 < r < r_max), r_max]
    tail, cb = None, spec.constant_beyond()
    for a, b in zip(ends, ends[1:]):
        k = spec.constant_on(a, b)
        if k is None:
            x, c, y = _step_pieces(solve_stretch(spec, a, b, y, tol))
        else:
            if k <= 0.0 and a >= cb[0]:
                tail = _rising_tail(k, a, b, y)
            x, c, y = _constant_stretch(k, a, b, y)
        xs.append(x)
        cs.append(c)
    x = np.concatenate(xs)
    c = np.concatenate(cs, axis=1)
    return Profile(spec, PPoly(c[..., 0], x), PPoly(c[..., 1], x), r_max, tol, tail)


def _rising_tail(k, lo, hi, y0):
    """(r_a, k, E) for the stretch [lo, hi] under the constant K = k <= 0
    from the state y0 = (m, m') at lo: r_a is lo, or the one zero of m'
    (m'' = -k m >= 0, so m' rises) when m' starts negative; None when m'
    stays negative up to hi.  E = m'^2 + k m^2 is constant on the
    stretch and taken here, from y0: far out m'^2 and k m^2 are huge and
    their sum cancels."""
    m0, mp0 = float(y0[0]), float(y0[1])
    r_a = lo
    if mp0 <= 0.0:
        q = math.sqrt(-k)
        if not -mp0 < q * m0:  # m' < 0 throughout, or m' = 0 with k = 0
            return None
        r_a = lo + math.atanh(-mp0 / (q * m0)) / q
        if r_a > hi:
            return None
    return r_a, k, mp0 * mp0 + k * m0 * m0


def _step_pieces(sol):
    """A solver pass's steps as pieces: (the step ends after the first,
    coefficients (8, step, row) in powers of r - t_old, highest first,
    the state at the end)."""
    steps = sol.sol.interpolants
    h = np.array([s.h for s in steps])
    F = np.array([s.F for s in steps])  # (step, 7, row)
    # each step's dense output y_old + x (F0 + (1 - x)(F1 + x (F2 + ...)))
    # in x = (r - t_old) / h, expanded from the inside out into powers of
    # x, lowest first: p[k, step, row]
    p = np.zeros((8, len(steps), 2))
    for j in range(6, -1, -1):
        p[0] += F[:, j]
        x_p = np.roll(p, 1, axis=0)  # x * p: the top power is still 0
        p = x_p if j % 2 == 0 else p - x_p
    p[0] += np.array([s.y_old for s in steps])
    c = p[::-1] / h[:, None] ** np.arange(7, -1, -1)[:, None, None]
    return sol.sol.ts[1:], c, sol.y[:, -1]


# the widest cell, in q (r - lo), on which the degree-7 Hermite remainder
# (h/2)^8 / 8! max|m^(8)| = (h/2)^8 / 8! k^4 max|m| stays below 1e-16 max|m|
_CELL = 2.0 * (math.factorial(8) * 1e-16) ** 0.125
# binomial(j, n): a cell's Taylor coefficients at its left end, carried
# to its right end in s = (r - x_i) / h ...
_CARRY = np.array([[1, 1, 1, 1], [0, 1, 2, 3], [0, 0, 1, 3], [0, 0, 0, 1]], dtype=float)
# ... and the inverse of binomial(j, n), j = 4..7, n = 0..3: the top four
# coefficients from what the bottom four leave of the right end's jet
_HERMITE = np.array([[35, -15, 5, -1], [-84, 39, -14, 3], [70, -34, 13, -3],
                     [-20, 10, -4, 1]], dtype=float)


def _constant_stretch(k, lo, hi, y0):
    """The pieces of m and m' on [lo, hi], where K is the constant k, in
    closed form; returned as _step_pieces returns a solver pass's.

    The exact solution through y0 = (m, m') at lo is m = m0 C + m0' S / q,
    q = sqrt|k|, with C, S = cos, sin (k > 0) or cosh, sinh (k < 0) of
    q (r - lo), and m linear for k = 0 (one piece).  It is written as
    degree-7 Hermite pieces through the exact jets of m (m, m', -k m,
    -k m') and of m' (m', -k m, -k m', k^2 m) at uniform nodes, whose
    spacing keeps the remainder below 1e-16 of max|m| on each cell.
    Raises StarViolation at the exact first zero of m, and RuntimeError
    when m overflows.
    """
    m0, mp0 = float(y0[0]), float(y0[1])
    q = math.sqrt(abs(k))
    if k > 0.0:
        t_zero = (math.atan2(mp0 / q, m0) + math.pi / 2) / q
    elif k < 0.0:
        t_zero = math.atanh(-q * m0 / mp0) / q if mp0 < -q * m0 else math.inf
    else:
        t_zero = -m0 / mp0 if mp0 < 0.0 else math.inf
    if lo + t_zero <= hi:
        raise StarViolation(lo + t_zero)
    if k == 0.0:
        c = np.zeros((8, 1, 2))
        c[6, 0, 0], c[7, 0, 0], c[7, 0, 1] = mp0, m0, mp0
        return np.array([hi]), c, (m0 + mp0 * (hi - lo), mp0)

    def exact(x):
        with np.errstate(over="ignore", invalid="ignore"):
            # r - lo as d + e, e its rounding (exact, since x >= lo):
            # C and S take e to first order
            d = x - lo
            t, dt = q * d, q * (-lo - (d - x))
            if k > 0.0:
                C, S = np.cos(t), np.sin(t)
                C, S = C - dt * S, S + dt * C
            else:
                C, S = np.cosh(t), np.sinh(t)
                C, S = C + dt * S, S + dt * C
            return m0 * C + (mp0 / q) * S, mp0 * C - (k * m0 / q) * S

    # without a zero, |m| and |m'| are largest at an end (m'' = -k m)
    if not np.all(np.isfinite(exact(np.array([hi])))):
        raise RuntimeError(f"Jacobi integration failed: m overflows on [{lo:.6g}, {hi:.6g}] "
                           f"under K = {k:.6g}")
    x = np.linspace(lo, hi, max(1, math.ceil(q * (hi - lo) / _CELL)) + 1)
    m, mp = exact(x)
    # the jets of m and m' at the nodes, over n!: (order, node, row)
    jet = np.stack([m, mp, -k * m, -k * mp, k * k * m])
    d = np.stack([jet[:4], jet[1:]], axis=-1) / np.array([1, 1, 2, 6])[:, None, None]
    # in s = (r - x_i) / h the coefficients scale by h^power
    scale = (np.diff(x) ** np.arange(8)[:, None])[..., None]
    low = d[:, :-1] * scale[:4]
    top = np.tensordot(_HERMITE, d[:, 1:] * scale[:4] - np.tensordot(_CARRY, low, 1), 1)
    c = np.concatenate([d[:, :-1], top / scale[4:]])[::-1]
    return x[1:], c, (m[-1], mp[-1])


def solve_stretch(spec, lo, hi, y0, tol):
    """One DOP853 pass of the Jacobi equation over [lo, hi] from the state
    y0 = (m, m') at lo, with dense output; the pass solve_jacobi makes
    on each stretch between joins.  Raises StarViolation at a zero of m."""

    def rhs(r, y):
        return [y[1], -spec.evaluate(r) * y[0]]

    def hit_zero(r, y):
        return y[0]

    hit_zero.terminal = True
    hit_zero.direction = -1

    sol = solve_ivp(
        rhs,
        (lo, hi),
        y0,
        method="DOP853",
        rtol=tol,
        atol=tol * 1e-4,
        dense_output=True,
        events=hit_zero,
    )
    if not sol.success:
        raise RuntimeError(f"Jacobi integration failed: {sol.message}")
    if sol.t_events[0].size > 0:
        raise StarViolation(sol.t_events[0][0])
    return sol


# --- Sturm comparison ----------------------------------------------------


@dataclass
class SturmReport:
    """Grid check that lower curvature gives the larger profile.

    With K_hi(r) >= K_lo(r) everywhere (and K_lo non-increasing), the
    profile under K_lo dominates: m_lo >= m_hi; if additionally
    m_hi' >= 0 on the window then m_lo' >= m_hi' as well.
    """

    curvature_ordered: bool
    m_ordered: bool
    mp_ordered: bool
    max_m_violation: float
    max_mp_violation: float


def sturm_compare(profile_hi_k, profile_lo_k, n=512, tol=1e-7):
    """Compare two profiles whose curvatures are pointwise ordered.

    profile_hi_k is the one with larger curvature.  Checks on a shared
    grid that the curvature ordering actually holds and that the
    comparison inequalities m_lo >= m_hi and (when m_hi' >= 0)
    m_lo' >= m_hi' come out, up to tol.
    """
    hi = min(profile_hi_k.r_max, profile_lo_k.r_max)
    r = np.linspace(0.0, hi, n)
    k_hi = profile_hi_k.K(r)
    k_lo = profile_lo_k.K(r)
    curvature_ordered = bool(np.all(k_hi >= k_lo - 1e-12))
    m_hi = profile_hi_k.m(r)
    m_lo = profile_lo_k.m(r)
    # violations measured relative to scale of m
    scale = np.maximum(np.abs(m_hi), 1.0)
    m_gap = (m_hi - m_lo) / scale
    max_m_violation = float(np.max(m_gap))
    mp_hi = profile_hi_k.mp(r)
    mp_lo = profile_lo_k.mp(r)
    if np.all(mp_hi >= -tol):
        pscale = np.maximum(np.abs(mp_hi), 1.0)
        mp_gap = (mp_hi - mp_lo) / pscale
        max_mp_violation = float(np.max(mp_gap))
    else:
        max_mp_violation = math.nan  # comparison of slopes needs m_hi' >= 0
    return SturmReport(
        curvature_ordered=curvature_ordered,
        m_ordered=max_m_violation <= tol,
        mp_ordered=(not math.isnan(max_mp_violation)) and max_mp_violation <= tol,
        max_m_violation=max_m_violation,
        max_mp_violation=max_mp_violation,
    )


# --- embedding in 3-space ------------------------------------------------


def embed_profile(profile, n=1024):
    """Isometric embedding of the plane as a surface of revolution.

    Returns (r, radius, height): at arclength r from the apex the surface
    sits at distance radius = m(r) from the axis and height
    z(r) = integral of sqrt(1 - m'^2).  Requires |m'| <= 1 on the window;
    raises ValueError otherwise (the plane spreads too fast to embed).
    """
    r = np.linspace(0.0, profile.r_max, n)
    mp = profile.mp(r)
    overshoot = np.max(np.abs(mp)) - 1.0
    if overshoot > 1e-9:
        raise ValueError(
            f"|m'| reaches {1.0 + overshoot:.6g} > 1; "
            "no rotationally symmetric embedding in Euclidean 3-space"
        )
    dz = np.sqrt(np.clip(1.0 - mp**2, 0.0, None))
    z = cumulative_trapezoid(dz, r, initial=0.0)
    return r, profile.m(r), z


# --- asymptotics ---------------------------------------------------------


@dataclass
class SlopeReport:
    value: float
    spread: float
    window_limited: bool


def slope_at_infinity(profile):
    """Two-window estimate of lim m'(r).

    Compares m' at r_max and r_max/2; if they differ by more than
    SLOPE_SPREAD_TOL the window has not captured the limit and the report
    is flagged window_limited.
    """
    v1 = profile.mp(profile.r_max)
    v0 = profile.mp(profile.r_max / 2.0)
    spread = abs(v1 - v0)
    return SlopeReport(value=float(v1), spread=float(spread),
                       window_limited=spread > SLOPE_SPREAD_TOL)


# --- CSV export ----------------------------------------------------------


def export_profile_csv(profile, path, n=2001):
    """Write columns r,m,mp,K sampled on a uniform grid from r = 0."""
    r = np.linspace(0.0, profile.r_max, n)
    m = profile.m(r)
    mp = profile.mp(r)
    K = profile.K(r)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["r", "m", "mp", "K"])
        for row in zip(r, m, mp, K):
            w.writerow([repr(float(x)) for x in row])

