"""Radial profiles m(r) from prescribed curvature.

The warping function of a rotationally symmetric plane solves the Jacobi
initial value problem

    m'' + K(r) m = 0,   m(0) = 0,   m'(0) = 1,

and the plane is smooth and complete iff m stays positive for r > 0.
This module solves that IVP stretch by stretch from r = 0 -- in closed
form where K is constant, by the Taylor series of m where it varies --
watches for a zero of m (raising StarViolation with the root: exact in a
constant stretch, the root of its piece in a series one), and provides
the profile queries everything else is built on: pointwise m and m' from
one store of their pieces, their exact roots, the landmarks taken at the
build (m's extrema, K's joins, the tail), the first or last radius where
m reaches a level, and the embedding profile in Euclidean 3-space.
"""

import bisect
import math
import operator

import numpy as np
from scipy.interpolate import PPoly, _ppoly

from .errors import OutOfWindow, StarViolation
from .svgplot import write_csv


class Profile:
    """The warping function m of one curvature spec: built once from its
    pieces, then only read.

    m and mp are piecewise polynomials (scipy PPoly) for m and m' on the
    window [0, r_max], r_max their last breakpoint (ValueError unless
    both run from 0 to it), kept once, as the compiled kernel reads
    them: solve_jacobi's are degree-7 Hermite pieces within 1e-13 of m
    (and of m') on each cell.  Landmarks and levels are their exact
    roots; no query samples a grid.

    tail is (r_a, k, E) when K is the constant k <= 0 from r_c < r_max on
    (spec.constant_beyond()) and m rises from r_a >= r_c in the window
    (m' > 0 beyond r_a), E = m'^2 + k m^2 being the conserved quantity,
    taken from m and m' at r_c, off the piece that starts there
    (_rising_tail); the turn integral is closed-form on that tail.  None
    when no such tail starts in the window.

    The build takes the landmarks every turn integral reads: extrema
    (m' = 0), at_extrema and at_joins (m's extrema and K's joins in the
    window, as (radii, m there)), tail_start ((m, m') at r_a) and
    tail_certificate (the curvature's "zero" or "nonpositive", if it
    starts in the window).
    """

    def __init__(self, spec, m, mp):
        if not (m.x[0] == mp.x[0] == 0.0 and m.x[-1] == mp.x[-1]):
            raise ValueError(f"the pieces of m and m' must run from 0 to one window end, got "
                             f"[{m.x[0]:.6g}, {m.x[-1]:.6g}] and [{mp.x[0]:.6g}, {mp.x[-1]:.6g}]")
        self.spec = spec
        self.r_max = float(m.x[-1])
        # the largest radius the window check admits
        self._top = self.r_max * (1 + 1e-12)
        # the one store of m and m', as scipy's compiled kernel takes them
        # (PPoly.__call__ ends in the same call): C-contiguous coefficients
        # (k, n, 1), highest power first, and their breakpoints
        self._m_kernel, self._mp_kernel = (
            (np.ascontiguousarray(pp.c, dtype=float).reshape(*pp.c.shape[:2], 1),
             np.ascontiguousarray(pp.x, dtype=float)) for pp in (m, mp))
        # the breakpoints as a list: bisection on it costs what a scalar does
        self._breaks = self._m_kernel[1].tolist()
        # each piece's value at its left end, and the _terms of each
        # piece the level search has reached
        self._values = self._m_kernel[0][-1, :, 0].tolist()
        self._piece_terms = {}
        r_c, k = spec.constant_beyond() or (math.inf, 0.0)
        tail = self.tail = (_rising_tail(k, r_c, self.r_max, (self.m(r_c), self.mp(r_c)))
                            if k <= 0.0 and r_c < self.r_max else None)
        self.extrema = self.roots(1, 0.0, 0.0, self.r_max)
        self.at_extrema = (self.extrema.tolist(), self.m(self.extrema).tolist())
        joins = [r for r in spec.joins() if r <= self._top]
        self.at_joins = (joins, self.m(joins))
        self.tail_start = None if tail is None else (self.m(tail[0]), self.mp(tail[0]))
        cert = spec.tail_certificate()
        self.tail_certificate = cert[0] if cert is not None and cert[1] <= self.r_max else None

    def _eval(self, pp, r):
        """The pieces pp, a (coefficients, breakpoints) pair from
        __init__, at r inside the window: PPoly.__call__'s kernel call
        without its wrapping, so the values are PPoly's bit for bit."""
        r = np.asarray(r, dtype=float)
        flat = r.ravel()
        # two reductions first, which skip nan (it passes through as nan)
        # so that it cannot hide a radius outside; the masks are built
        # only for the message
        if flat.size and (np.fmin.reduce(flat) < 0 or np.fmax.reduce(flat) > self._top):
            bad = (r < 0) | (r > self._top)
            raise OutOfWindow(
                f"r = {r[bad].flat[0]:.6g} outside solved window [0, {self.r_max:.6g}]"
            )
        out = np.empty((flat.size, 1))
        _ppoly.evaluate(*pp, flat, 0, True, out)
        return float(out[0, 0]) if r.ndim == 0 else out.reshape(r.shape)

    def m(self, r):
        """Warping function m(r); scalar or array, r in [0, r_max]."""
        return self._eval(self._m_kernel, r)

    def mp(self, r):
        """Radial derivative m'(r)."""
        return self._eval(self._mp_kernel, r)

    def K(self, r):
        return self.spec.evaluate(r)

    def roots(self, order, level, lo, hi):
        """Sorted radii in [lo, hi] where m (order 0), m' (1) or m'' (2)
        equals level.

        m'' is the m' pieces differentiated (zero where a piece of m' is
        constant).  A piece that equals the level throughout contributes
        its left end.  Only pieces whose left-end value lies within reach
        of the level (twice the sum of their other terms' sizes over the
        piece) are solved.
        """
        c, x = self._m_kernel if order == 0 else self._mp_kernel
        c = c[..., 0] if order < 2 else PPoly.construct_fast(c[..., 0], x).derivative().c
        reach = np.abs(c[:-1]) * np.diff(x) ** np.arange(len(c) - 1, 0, -1)[:, None]
        near = (np.abs(c[-1] - level) <= 2.0 * reach.sum(axis=0)) & (x[1:] >= lo) & (x[:-1] <= hi)
        # each run of neighbouring candidates is solved as one PPoly
        runs = np.flatnonzero(np.diff(np.r_[0, near, 0]))
        r = np.concatenate([np.empty(0)] + [
            PPoly(c[:, i:j], x[i:j + 1]).solve(level, extrapolate=False)
            for i, j in zip(runs[::2], runs[1::2])])
        return np.sort(r[(lo <= r) & (r <= hi)])

    def knots(self, lo, hi):
        """The pieces' breakpoints strictly inside (lo, hi), and m and m'
        at them, read off the coefficients without evaluating the profile."""
        a = bisect.bisect_right(self._breaks, lo)
        b = bisect.bisect_left(self._breaks, hi)
        (c, x), d = self._m_kernel, self._mp_kernel[0]
        return x[a:b], c[-1, a:b, 0], d[-1, a:b, 0]

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
        top = self._top
        if not (0.0 <= lo <= top and 0.0 <= hi <= top):
            raise OutOfWindow(f"[{lo:.6g}, {hi:.6g}] outside solved window "
                              f"[0, {self.r_max:.6g}]")
        ext, m_ext = self.at_extrema
        a, b = bisect.bisect_right(ext, lo), bisect.bisect_left(ext, hi)
        ends = [lo, *ext[a:b], hi]
        vals = [self._value_at(lo), *m_ext[a:b], self._value_at(hi)]
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
        j = find(v, -level, i0, i1, key=operator.neg) if d1 < d0 else find(v, level, i0, i1)
        left, dl = (s0, d0) if j == i0 else (self._breaks[j - 1], v[j - 1] - level)
        right, dr = (s1, d1) if j == i1 else (self._breaks[j], v[j] - level)
        for r, d in ((right, dr), (left, dl)) if last else ((left, dl), (right, dr)):
            if d == 0.0:
                return r
        return self._solve_piece(min(j, len(v)) - 1, level, left, right, dl, dr)

    def _value_at(self, r, piece=None):
        """m of the piece covering r (or of the given piece), a Python
        float summed in ascending powers of r - x_i, as PPoly sums it, so
        it equals Profile.m bit for bit."""
        if piece is None:
            piece = min(max(bisect.bisect_right(self._breaks, r) - 1, 0), len(self._values) - 1)
        s = r - self._breaks[piece]
        val, z = 0.0, 1.0
        for coef in self._terms(piece)[0]:
            val += coef * z
            z *= s
        return val

    def _jet_at(self, r, piece):
        """m and m' of the given piece at r: m summed as _value_at sums
        it, m' term by term from the cached k a_k."""
        coefs, slopes = self._terms(piece)
        s = r - self._breaks[piece]
        val = slope = s_prev = 0.0
        z = 1.0
        for coef, d in zip(coefs, slopes):
            val += coef * z
            slope += d * s_prev
            s_prev, z = z, z * s
        return val, slope

    def _terms(self, piece):
        """The piece's coefficients a_k of m, lowest power first, and
        k a_k: cached as the level search reaches the piece."""
        terms = self._piece_terms.get(piece)
        if terms is None:
            coefs = self._m_kernel[0][::-1, piece, 0].tolist()
            terms = self._piece_terms[piece] = (coefs, [k * a for k, a in enumerate(coefs)])
        return terms

    def _solve_piece(self, piece, level, left, right, dl, dr):
        """The root of the piece's m - level in the cell [left, right],
        whose end values dl, dr (as the search read them) bracket it:
        Newton steps, with a bisection wherever a step leaves the
        bracket.  dl is the piece's own value at left; when the piece
        ends on the same side of the level at right, the root has rounded
        out of the cell and the nearer end is the answer.  right is
        judged by dr, as Profile.m reads it: at a breakpoint that is the
        next piece's value, which the piece's own can miss by rounding."""
        fr = self._value_at(right, piece) - level
        if fr != 0.0 and (dl < 0.0) == (fr < 0.0):
            return left if abs(dl) <= abs(dr) else right
        ends = ((left, dl), (right, dr))
        (neg, f_neg), (pos, f_pos) = ends if dl < 0.0 else ends[::-1]
        r = left - dl * (right - left) / (fr - dl)
        while True:
            if not min(neg, pos) < r < max(neg, pos):
                r = 0.5 * (neg + pos)
                if r == neg or r == pos:  # the bracket is two neighbouring floats
                    return neg if -f_neg <= f_pos else pos
            f, fp = self._jet_at(r, piece)
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


def solve_jacobi(spec, r_max=200.0):
    """Integrate m'' + K m = 0, m(0)=0, m'(0)=1 on [0, r_max].

    Returns the Profile of the pieces built stretch by stretch between
    the curvature's joins (spec.joins()), each from the state the
    previous one ends in, starting at r = 0 itself: where K is one
    constant (spec.constant_on) from the exact solution
    (_constant_stretch), elsewhere from the Taylor series of m on each
    cell (series_stretch).  Either way the pieces are degree-7 Hermite
    interpolants through jets of m and m' (_hermite).  Raises
    StarViolation when m vanishes at some r > 0, with that first zero:
    exact in a constant stretch, the root of its piece in a series one;
    OverflowError when m overflows.  The profile works out its own tail
    from the pieces.  The window is clipped to the curvature's declared
    domain and must be finite after that (ValueError otherwise).
    """
    if not r_max > 0.0:
        raise ValueError(f"r_max must be positive, got {r_max}")
    r_max = min(float(r_max), spec.domain_hi)
    if not math.isfinite(r_max):
        raise ValueError(f"r_max must be finite, got {r_max}")

    ends = [0.0, *(r for r in spec.joins() if 0.0 < r < r_max), r_max]
    y = (0.0, 1.0)
    xs, lefts, rights = [np.zeros(1)], [], []
    for a, b in zip(ends, ends[1:]):
        k = spec.constant_on(a, b)
        if k is None:
            x, left, right, y = series_stretch(spec, a, b, y)
        else:
            x, left, right, y = _constant_stretch(k, a, b, y)
        xs.append(x[1:])
        lefts += left
        rights += right
    x = np.concatenate(xs)
    c = _hermite(x, _jets(lefts), _jets(rights))
    return Profile(spec, PPoly(c[..., 0], x), PPoly(c[..., 1], x))


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


def _hermite(x, left, right):
    """The pieces of m and m' on the cells [x_i, x_i+1]: degree-7
    Hermite interpolants through the jets (f, f', f''/2, f'''/6) of
    f = m and f = m' at each cell's left and right ends, given as
    (order, cell, row) arrays, row 0 for m and 1 for m'.  Returns
    coefficients (8, cell, row) in powers of r - x_i, highest first."""
    # in s = (r - x_i) / h the coefficients scale by h^power
    scale = (np.diff(x) ** np.arange(8)[:, None])[..., None]
    low = left * scale[:4]
    top = np.tensordot(_HERMITE, right * scale[:4] - np.tensordot(_CARRY, low, 1), 1)
    return np.concatenate([left, top / scale[4:]])[::-1]


def _constant_stretch(k, lo, hi, y0):
    """The cells of [lo, hi], where K is the constant k, in closed form;
    returned as series_stretch returns its cells.

    The exact solution through y0 = (m, m') at lo is m = m0 C + m0' S / q,
    q = sqrt|k|, with C, S = cos, sin (k > 0) or cosh, sinh (k < 0) of
    q (r - lo), and m linear for k = 0 (one cell).  Its exact jets of m
    (m, m', -k m, -k m') and of m' (m', -k m, -k m', k^2 m) are taken at
    uniform nodes, whose spacing keeps the Hermite remainder below 1e-16
    of max|m| on each cell.  Raises StarViolation at the exact first
    zero of m, and OverflowError when m overflows.
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

    def exact(x):
        if k == 0.0:
            return m0 + mp0 * (x - lo), np.full_like(x, mp0)
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
        raise OverflowError(f"m overflows on [{lo:.6g}, {hi:.6g}] under K = {k:.6g}")
    x = np.linspace(lo, hi, max(1, math.ceil(q * (hi - lo) / _CELL)) + 1)
    m, mp = exact(x)
    # m's first five Taylor coefficients at the nodes, from m'' = -k m
    t = np.stack([m, mp, -k * m / 2, -k * mp / 6, k * k * m / 24], axis=1).tolist()
    return x, t[:-1], t[1:], (m[-1], mp[-1])


# terms of a cell's Taylor series of m
_TERMS = 20
# the cell rule: on a cell of width h the Hermite remainder of m stays
# below _CELL_TOL max(|m|, |m'| h), and that of m' below _CELL_TOL
# max(|m'|, |m''| h), both read at the cell's left end
_CELL_TOL = 1e-13
# a series term a_n t^n, n >= 8, leaves at most |a_n| h^n C(n - 4, 4) / 4^4
# of Hermite remainder on [0, h] (s^4 (1 - s)^4 <= 4^-4 times s^n's
# divided difference, at most C(n - 4, 4)); term n gets 2^(7 - n) of the rule
_WEIGHT = [math.comb(n - 4, 4) / 256 * 2.0 ** (n - 7) / _CELL_TOL if n >= 8 else 0.0
           for n in range(_TERMS)]
# binomial(n, j), for the series' Taylor coefficients at h
_BINOM = [[math.comb(n, j) for n in range(_TERMS)] for j in range(5)]


def _series(kc, m, mp):
    """The Taylor coefficients of m at a node, lowest first: m'' = -K m
    term by term, a_(n+2) = -sum_(j <= n) k_j a_(n-j) / ((n+2)(n+1)),
    from m, m' there and K's coefficients kc there."""
    while len(kc) > 1 and kc[-1] == 0.0:
        kc.pop()
    a = [m, mp]
    for n in range(_TERMS - 2):
        a.append(-sum(map(operator.mul, kc, a[n::-1])) / ((n + 2) * (n + 1)))
    return a


def _width(a):
    """The widest cell the rule allows for the series a: each term of
    degree n >= 8 of m and of m' within its share."""
    h = math.inf
    for n in range(8, _TERMS - 1):
        for c, s0, s1 in ((abs(a[n]), abs(a[0]), abs(a[1])),
                          ((n + 1) * abs(a[n + 1]), abs(a[1]), 2.0 * abs(a[2]))):
            if c:
                # the scale is max(s0, s1 h): either keeps the term in its share
                h = min(h, max((s0 / c / _WEIGHT[n]) ** (1.0 / n),
                               (s1 / c / _WEIGHT[n]) ** (1.0 / (n - 1))))
    return h


def series_stretch(spec, lo, hi, y0):
    """The cells of [lo, hi], where K has no join inside, from the state
    y0 = (m, m') at lo.

    On each cell m is its Taylor series at the cell's left end
    (_series, from spec.taylor); the cell is as wide as the cell rule
    (_width) allows, and the series summed at its right end gives that
    end's coefficients and the next cell's state.  Returns (nodes, m's
    first five Taylor coefficients at each cell's left end, at its right
    end, the state at hi).  Raises StarViolation at the root of the piece
    where m changes sign, OverflowError when m overflows, and ValueError
    when a cell rounds to nothing (K too large to resolve there).
    """
    x, m, mp = lo, float(y0[0]), float(y0[1])
    xs, left, right = [lo], [], []
    while x < hi:
        a = _series(spec.taylor(x, _TERMS), m, mp)
        if not math.isfinite(sum(map(abs, a))):
            raise OverflowError(f"m overflows on [{lo:.6g}, {hi:.6g}] near r = {x:.6g}")
        h = _width(a)
        x_new = hi if h >= hi - x else x + h
        if not x_new > x:
            raise ValueError(f"curvature too large to resolve at r = {x:.6g}")
        # the series' first five Taylor coefficients at the right end
        h = x_new - x
        t = [coef * h**n for n, coef in enumerate(a)]
        end = [sum(map(operator.mul, _BINOM[j], t)) / h**j for j in range(5)]
        xs.append(x_new)
        left.append(a[:5])
        right.append(end)
        if end[0] <= 0.0:
            # the zero is the first root of this cell's piece past x
            cell = np.array([x, x_new])
            c = _hermite(cell, _jets(left[-1:]), _jets(right[-1:]))
            roots = PPoly(c[:, :, 0], cell).solve(0.0, extrapolate=False)
            raise StarViolation(min(roots[roots > x], default=x_new))
        x, m, mp = x_new, end[0], end[1]
    return np.array(xs), left, right, (m, mp)


def _jets(taylor):
    """The jets _hermite takes, (order, point, row), from m's first five
    Taylor coefficients at each point, (point, 5)."""
    t = np.array(taylor)
    return np.stack([t[:, :4], t[:, 1:] * [1.0, 2.0, 3.0, 4.0]], axis=-1).transpose(1, 0, 2)


# --- GK15 and the embedding in 3-space ---------------------------------


# 15-point Kronrod nodes on [-1, 1] with the embedded 7-point Gauss rule:
# the library's one rule, which the turn integrals refine adaptively
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


def embed_profile(profile, n=1024):
    """Isometric embedding of the plane as a surface of revolution.

    Returns (r, radius, height): at arclength r from the apex the surface
    sits at distance radius = m(r) from the axis and height
    z(r) = integral of sqrt(1 - m'^2) at n equally spaced radii, one GK15
    rule on each cell between them and the breakpoints (one piece of m'
    each).  Requires |m'| <= 1 on the window, decided from m' at its ends
    and where m'' = 0, which hold its extremes; raises ValueError
    otherwise (the plane spreads too fast to embed), and when n < 2.
    """
    if not n >= 2:
        raise ValueError(f"an embedding samples both ends of the window, so n >= 2, got {n}")
    r_ext = np.r_[0.0, profile.r_max, profile.roots(2, 0.0, 0.0, profile.r_max)]
    overshoot = np.max(np.abs(profile.mp(r_ext))) - 1.0
    if overshoot > 1e-9:
        raise ValueError(
            f"|m'| reaches {1.0 + overshoot:.6g} > 1; "
            "no rotationally symmetric embedding in Euclidean 3-space"
        )
    r = np.linspace(0.0, profile.r_max, n)
    edges = np.union1d(r, profile.knots(0.0, profile.r_max)[0])
    dz, _ = _gk15(lambda x, _: np.sqrt(np.clip(1.0 - profile.mp(x)**2, 0.0, None)),
                  edges[:-1], edges[1:], None)
    z = np.r_[0.0, np.cumsum(dz)][np.searchsorted(edges, r)]
    return r, profile.m(r), z


# --- CSV export ----------------------------------------------------------


def export_profile_csv(profile, path, n=2001):
    """Write columns r,m,mp,K sampled on a uniform grid from r = 0."""
    r = np.linspace(0.0, profile.r_max, n)
    write_csv(path, ["r", "m", "mp", "K"],
              zip(r, profile.m(r), profile.mp(r), profile.K(r)))
