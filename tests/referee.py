"""An independent referee for the warping function: m and m' at 30 digits.

m'' = -K m is solved by its power series, cell by cell, in mpmath.  K's
pieces are rebuilt here from each spec's definition and its params
alone -- the isq term, the cap's quintic solved from its end conditions,
a table's PCHIP cubics from scipy, the drop's smoothstep -- without
CurvatureSpec.taylor or any private attribute, so the library's
description is checked, not reused.  On a cell starting at x, with
K = sum k_j t^j,

    a_(n+2) = -sum_(j <= n) k_j a_(n-j) / ((n + 2)(n + 1)),

and the cell ends at the next join, query radius or step cap: a
quarter of the distance to the isq term's pole at r = -1, and 1/2
elsewhere, where K is a polynomial.  The series runs until two terms in
a row fall below 1e-40 of the state.
"""

import bisect
import math

import mpmath
from scipy.interpolate import PchipInterpolator

DPS = 40
# terms of the isq term's series computed per cell; the series of m
# stops well before (the cell is a quarter of the radius of convergence)
_ISQ_TERMS = 200


def _shift(coefs, d):
    """p(d + t) in powers of t, both lowest first, in mpmath."""
    c = list(coefs)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += d * c[j + 1]
    return c


def _poly_piece(coefs, anchor):
    """K's series at x for the polynomial sum c_j (r - anchor)^j."""
    coefs = [mpmath.mpf(c) for c in coefs]
    return lambda x, n: _shift(coefs, x - anchor)


def _isq_piece(u):
    u = mpmath.mpf(u)

    def series(x, n):
        y = x + 1
        out = [(j + 1) * (-1) ** j / (4 * y ** (j + 2)) for j in range(n)]
        out[0] -= u
        return out
    return series


def _blend_piece(u, eps):
    """The cap's quintic from its definition, in s = r - a on [a, b] =
    [z-eps, z+eps]: c0, c1, c2 are K_u's value, slope and half second
    derivative at a; c3, c4, c5 make K, K' and K'' vanish at s = b - a."""
    z = 1 / (2 * math.sqrt(u)) - 1
    a, b = mpmath.mpf(z - eps), mpmath.mpf(z + eps)
    y, h = a + 1, b - a
    c = [1 / (4 * y**2) - mpmath.mpf(u), -1 / (2 * y**3), 3 / (4 * y**4)]
    # K^(d)(h) / d! = sum_j C(j, d) c_j h^(j-d) = 0 for d = 0, 1, 2
    A = mpmath.matrix([[math.comb(j, d) * h ** (j - d) for j in (3, 4, 5)] for d in range(3)])
    rhs = mpmath.matrix([-sum(math.comb(j, d) * c[j] * h ** (j - d) for j in range(d, 3))
                         for d in range(3)])
    return _poly_piece(c + list(mpmath.lu_solve(A, rhs)), a)


def _pieces(spec):
    """K as (start, series) pairs, sorted: series(x, n) is the Taylor
    series at x of the analytic piece that holds x.  spec is a
    CurvatureSpec or its dict, as a splice holds its base."""
    d = spec if isinstance(spec, dict) else spec.to_dict()
    kind, p = d["kind"], d["params"]
    if kind == "constant":
        return [(0.0, _poly_piece([p["k"]], 0))]
    if kind == "isq":
        return [(0.0, _isq_piece(p["u"]))]
    if kind == "isq_capped":
        z = 1 / (2 * math.sqrt(p["u"])) - 1
        return [(0.0, _isq_piece(p["u"])), (z - p["eps"], _blend_piece(p["u"], p["eps"])),
                (z + p["eps"], _poly_piece([0], 0))]
    if kind == "table":
        r, c = p["r"], PchipInterpolator(p["r"], p["K"]).c
        out = [(r[i], _poly_piece(c[::-1, i].tolist(), r[i])) for i in range(len(r) - 1)]
        if r[0] > 0:
            out.insert(0, (0.0, _poly_piece([p["K"][0]], 0)))
        return out + [(r[-1], _poly_piece([p["K"][-1]], 0))]
    # spliced: the base's pieces, cut at the drop's ends, less the drop
    r0, mu, w = p["r0"], p["drop"]["mu"], p["drop"]["w"]
    step = [mpmath.mpf(c) for c in (0, 0, 0, 10, -15, 6)]
    drop = [(0.0, lambda x, n: []),
            (r0, lambda x, n: [-mu * c / mpmath.mpf(w) ** j
                               for j, c in enumerate(_shift(step, (x - r0) / w))]),
            (r0 + w, lambda x, n: [-mpmath.mpf(mu)])]
    base = _pieces(p["base"])
    starts = sorted({s for s, _ in base} | {s for s, _ in drop})

    def at(pieces, s):
        return [f for start, f in pieces if start <= s][-1]

    def combine(fb, fd):
        def series(x, n):
            kb, kd = fb(x, n), fd(x, n)
            out = [mpmath.mpf(0)] * max(len(kb), len(kd))
            for k in (kb, kd):
                for j, c in enumerate(k):
                    out[j] += c
            return out
        return series

    return [(s, combine(at(base, s), at(drop, s))) for s in starts]


def profile(spec, radii, y0=(0, 1), x0=0.0):
    """(m, m') at the sorted radii >= x0, from the state y0 at x0, as two
    lists of floats."""
    with mpmath.workdps(DPS):
        states = _states(spec, radii, y0, x0)
        return [float(m) for m, _ in states], [float(mp) for _, mp in states]


def dense(spec, r_max):
    """m on [0, r_max] as a function of one radius, in mpmath: one
    series step from the nearest node below it (every piece start, and
    a grid at the step cap)."""
    with mpmath.workdps(DPS):
        starts = [s for s, _ in _pieces(spec) if s < r_max]
        nodes = sorted({*starts, *[0.25 * k for k in range(int(4 * r_max) + 1)]})
        states = _states(spec, nodes)
    pieces = _pieces(spec)

    def m(r):
        i = bisect.bisect_right(nodes, r) - 1
        k = bisect.bisect_right([s for s, _ in pieces], nodes[i]) - 1
        with mpmath.workdps(DPS):
            x = mpmath.mpf(nodes[i])
            return _step(pieces[k][1], x, *states[i], mpmath.mpf(r) - x)[0]
    return m


def _states(spec, radii, y0=(0, 1), x0=0.0):
    """(m, m') in mpmath at the sorted radii >= x0, from y0 at x0."""
    pieces = _pieces(spec)
    isq_like = spec.kind in ("isq", "isq_capped") or (
        spec.kind == "spliced" and spec.params["base"]["kind"] in ("isq", "isq_capped"))
    starts = [s for s, _ in pieces]
    x, m, mp = mpmath.mpf(x0), mpmath.mpf(y0[0]), mpmath.mpf(y0[1])
    out = []
    for target in radii:
        target = mpmath.mpf(target)
        while x < target:
            i = bisect.bisect_right(starts, x) - 1
            end = starts[i + 1] if i + 1 < len(starts) else mpmath.inf
            cap = (x + 1) / 4 if isq_like else mpmath.mpf(1) / 2
            h = min(target - x, end - x, cap)
            m, mp = _step(pieces[i][1], x, m, mp, h)
            x = x + h if x + h < end else mpmath.mpf(end)
        out.append((m, mp))
    return out


def _step(series, x, m, mp, h):
    """m and m' at x + h from their values at x, by the series of m."""
    tiny = mpmath.mpf(10) ** (-DPS) * (abs(m) + abs(mp) * h + 1e-300)
    a = [m, mp]
    kc = series(x, _ISQ_TERMS)
    n = 0
    while True:
        a.append(-sum(kc[j] * a[n - j] for j in range(min(n + 1, len(kc))))
                 / ((n + 2) * (n + 1)))
        n += 1
        if n > 8 and all(abs(a[k]) * h**k < tiny for k in (n, n + 1)):
            break
        if n > _ISQ_TERMS - 2:
            raise RuntimeError("referee series does not converge")
    return (sum(c * h**k for k, c in enumerate(a)),
            sum(k * c * h ** (k - 1) for k, c in enumerate(a) if k))
