"""Curvature functions K(r) on [0, oo).

A curvature spec is a small immutable description of a radial curvature
function.  Builtin kinds:

  constant    K(r) = k
  isq         K(r) = 1/(4(r+1)^2) - u          ("inverse-square shift",
              u in [0, 1/4]; u > 0 crosses zero at z = 1/(2 sqrt u) - 1)
  isq_capped  max(isq_u, 0) with the corner at z smoothed over [z-eps, z+eps]
              by the quintic Hermite blend (1-t)^3 Q(t) (C^2, identically
              zero beyond z+eps) -- the curvature of an asymptotically
              conical plane
  spliced     base curvature with a smooth monotone drop of depth mu and
              width w starting at r0
  table       sampled (r, K) pairs, monotone cubic (PCHIP) interpolation

One builder per kind checks a spec's parameters and turns them into one
description of K,

    K(r) = P(r) + [r < isq_end] / (4(r+1)^2),

P one piecewise polynomial whose last piece runs to infinity (see
CurvatureSpec), and every query -- evaluate, taylor, joins, constant_on,
constant_beyond, tail_certificate, domain_hi -- reads that description.
A spec keeps its normalized params as the JSON it writes, {"kind": ...,
"params": {...}}, so specs round-trip bit-exactly and nothing outside a
spec changes what it writes; params of the wrong shape raise ValueError.
Every kind is decided von Mangoldt (K non-increasing) or not exactly,
by check_von_mangoldt, from the same blend and cubics the builder writes.
"""

import bisect
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator, PPoly

from .errors import OutOfWindow

_Poly = np.polynomial.Polynomial
# the smoothstep 10 t^3 - 15 t^4 + 6 t^5 and its slope 30 t^2 (1 - t)^2
_SMOOTHSTEP = _Poly([0.0, 0.0, 0.0, 10.0, -15.0, 6.0])
_SMOOTHSTEP_SLOPE = _SMOOTHSTEP.deriv()


def isq_zero(u):
    """Radius where the isq(u) curvature crosses zero, u in (0, 1/4]."""
    if not 0.0 < u <= 0.25:
        raise ValueError(f"u must be in (0, 1/4], got {u}")
    return 1.0 / (2.0 * math.sqrt(u)) - 1.0


def _cap_blend(u, eps):
    """The cap's blend cell [a, b] = [z-eps, z+eps] and the quadratic Q,
    lowest coefficient first, of its quintic (1-t)^3 Q(t) in t = (r-a)/h,
    h = b - a: Q makes K, K' and K'' agree with K_u's at a, and (1-t)^3
    makes them vanish at b."""
    z = isq_zero(u)
    a, b = z - eps, z + eps
    h, s = b - a, a + 1.0
    q0 = 0.25 / s**2 - u
    q1 = -0.5 / s**3 * h + 3.0 * q0
    q2 = 0.5 * (1.5 / s**4) * h**2 + 3.0 * (q1 - q0)
    return a, b, (q0, q1, q2)


@dataclass(frozen=True)
class DropParams:
    """A smooth monotone curvature drop: depth mu (> 0), width w (> 0)."""

    mu: float
    w: float

    def __post_init__(self):
        if not 0 < self.mu < math.inf:
            raise ValueError(f"drop depth mu must be finite and > 0, got {self.mu}")
        if not 0 < self.w < math.inf:
            raise ValueError(f"drop width w must be finite and > 0, got {self.w}")


def _shift(coefs, d):
    """p(d + t) in powers of t for p(s) = sum_n coefs[n] s^n, both lowest
    first: Horner's scheme, q <- q (d + t) + coefs[n] from the top down."""
    q = []
    for c in reversed(coefs):
        q = [d * a + b for a, b in zip(q + [0.0], [c] + q)]
    return q


def _isq_taylor(r, n):
    """The first n Taylor coefficients at r of 1/(4(r+1)^2)."""
    x = r + 1.0
    return [0.25 * (j + 1) * (-1.0 / x) ** j / (x * x) for j in range(n)]


class CurvatureSpec:
    """Immutable curvature function K(r); evaluation is pure and vectorized.

    __init__ keeps the kind, the normalized params as JSON and what
    _build, the one switch on the kind, makes of them: one description
    of K on its domain [lo, hi],

        K(r) = P(r) + [r < isq_end] / (4(r+1)^2),

    P a scipy PPoly whose pieces are polynomials in r - start, the last
    one running to infinity, with u folded into P.  The pieces:

      constant    [k]
      isq         [-u], and isq_end = inf
      isq_capped  [-u], the blend (1-t)^3 Q(t) of _cap_blend from z-eps,
                  [0] from z+eps, and isq_end = z-eps
      table       the PCHIP cubics up to the knot where the values turn
                  constant, then [K[-1]]; [K[0]] on [0, r_0) when it
                  extrapolates from r_0 > 0; the domain is [r_0, r_end]
                  when it does not extrapolate
      spliced     the base's pieces, cut at r0 and r0+w, less the drop's
                  smoothstep on [r0, r0+w) and mu beyond; the base's
                  isq_end and domain

    No query reads the kind: each reads the pieces.  A splice's base and
    drop may be a CurvatureSpec and a DropParams; _build keeps their JSON.
    """

    def __init__(self, kind, params):
        self.kind = kind
        try:
            params = dict(params)
            starts, self._coefs, self._isq_end, self._domain = self._build(params)
            self._json = json.dumps({"kind": kind, "params": params})
        except (TypeError, KeyError) as exc:
            raise ValueError(f"malformed {kind!r} curvature params: {exc!r}") from exc
        # the pieces' breakpoints, the last one's end at infinity
        self._x = starts + [math.inf]
        deg = max(map(len, self._coefs))
        self._P = PPoly(np.array([[0.0] * (deg - len(c)) + c[::-1] for c in self._coefs]).T,
                        self._x)

    def _build(self, p):
        """Check p and normalize it, in place, to the JSON to_json writes,
        and return K's description: the pieces' starts, their coefficients
        in powers of r - start (lowest first), where the isq term ends, and
        the domain."""
        kind = self.kind
        whole = (0.0, math.inf)
        if kind == "constant":
            p["k"] = float(p["k"])
            if not math.isfinite(p["k"]):
                raise ValueError(f"constant curvature k must be finite, got {p['k']}")
            return [0.0], [[p["k"]]], 0.0, whole
        if kind == "isq":
            p["u"] = float(p["u"])
            if not 0.0 <= p["u"] <= 0.25:
                raise ValueError(f"isq parameter u must be in [0, 1/4], got {p['u']}")
            return [0.0], [[-p["u"]]], math.inf, whole
        if kind == "isq_capped":
            p["u"], p["eps"] = float(p["u"]), float(p["eps"])
            if not 0.0 < p["u"] <= 0.25:
                raise ValueError(f"isq_capped requires u in (0, 1/4], got {p['u']}")
            z = isq_zero(p["u"])
            if not 0.0 < p["eps"] < z:
                raise ValueError(f"eps must be in (0, z) with z = {z:.6g}, got {p['eps']}")
            a, b, Q = _cap_blend(p["u"], p["eps"])
            # the blend (1-t)^3 Q(t), t = (r - a) / (b - a), in powers of r - a
            blend = (np.convolve([1.0, -3.0, 3.0, -1.0], Q) / (b - a) ** np.arange(6)).tolist()
            return [0.0, a, b], [[-p["u"]], blend, [0.0]], a, whole
        if kind == "table":
            r, K = (np.asarray(p[k], dtype=float) for k in "rK")
            if r.ndim != 1 or r.shape != K.shape or len(r) < 2:
                raise ValueError("table needs matching 1-d r and K arrays, length >= 2")
            if not np.all(np.diff(r) > 0):
                raise ValueError("table radii must be strictly increasing")
            if not (np.all(np.isfinite(r)) and np.all(np.isfinite(K))):
                raise ValueError("table entries must be finite")
            p["r"], p["K"] = r.tolist(), K.tolist()
            p.setdefault("extrapolate", "none")
            if p["extrapolate"] not in ("none", "constant"):
                raise ValueError("table extrapolate must be 'none' or 'constant'")
            cubics = PchipInterpolator(r, K).c
            r, K = p["r"], p["K"]
            # PCHIP is exactly K[-1] from the first knot where every value
            # equals the last
            f = len(K) - 1
            while f > 0 and K[f - 1] == K[-1]:
                f -= 1
            starts = r[:f + 1]
            coefs = [cubics[::-1, i].tolist() for i in range(f)] + [[K[-1]]]
            if p["extrapolate"] == "none":
                return starts, coefs, 0.0, (r[0], r[-1])
            if r[0] > 0.0:
                starts, coefs = [0.0, *starts], [[K[0]], *coefs]
            return starts, coefs, 0.0, whole
        if kind == "spliced":
            base, r0, drop = p["base"], float(p["r0"]), p["drop"]
            if not isinstance(base, CurvatureSpec):
                base = CurvatureSpec.from_dict(base)
            if not 0 <= r0 < math.inf:
                raise ValueError(f"splice radius r0 must be finite and >= 0, got {r0}")
            if not isinstance(drop, DropParams):
                drop = DropParams(float(drop["mu"]), float(drop["w"]))
            p.clear()
            p.update(base=base.to_dict(), r0=r0, drop={"mu": drop.mu, "w": drop.w})
            # the base's pieces, cut at the drop's ends, less the drop
            starts = sorted({*base._x[:-1], *(e for e in (r0, r0 + drop.w) if e > base._x[0])})
            coefs = []
            for s in starts:
                i = bisect.bisect_right(base._x, s) - 1
                c = _shift(base._coefs[i], s - base._x[i])
                if s >= r0:
                    # S((s - r0 + t) / w), and 1 beyond the drop
                    step = (_shift(_SMOOTHSTEP.coef.tolist(), (s - r0) / drop.w)
                            if s < r0 + drop.w else [1.0])
                    c += [0.0] * (len(step) - len(c))
                    for j, sj in enumerate(step):
                        c[j] -= drop.mu * sj / drop.w**j
                coefs.append(c)
            return starts, coefs, base._isq_end, base._domain
        raise ValueError(f"unknown curvature kind {kind!r}")

    # ------------------------------------------------------------------

    @property
    def domain_hi(self):
        """Upper end of the declared domain: a table's last radius unless
        it extrapolates (a splice's base's), inf otherwise."""
        return self._domain[1]

    def joins(self):
        """Sorted radii where K is not analytic, the pieces' starts past 0:
        z-eps and z+eps for isq_capped, where the C^2 blend meets the isq
        part and zero; a table's knots up to where its values turn
        constant (its PCHIP cubics meet there, and past its last knot the
        constant extrapolation); for spliced, the base's joins plus r0 and
        r0+w, the ends of the C^2 drop; none for constant and isq.

        The Jacobi solve restarts its series at each join: K's Taylor
        series there (taylor) is that of the piece starting at it.
        """
        return tuple(s for s in self._x[:-1] if s > 0.0)

    def _piece(self, r):
        """The index of the piece holding r; OutOfWindow outside the domain."""
        lo, hi = self._domain
        if not lo <= r <= hi:
            raise OutOfWindow(f"r = {r:.6g} outside the domain [{lo:.6g}, {hi:.6g}]")
        return bisect.bisect_right(self._x, r) - 1

    def taylor(self, r, n):
        """K's first n Taylor coefficients at r, lowest power first, for
        the analytic piece of K that starts at r (the one on [r, next
        join)): that piece's polynomial moved to r, plus the isq term's
        series below isq_end."""
        i = self._piece(r)
        coefs = (_shift(self._coefs[i], r - self._x[i]) + [0.0] * n)[:n]
        if r < self._isq_end:
            return [a + b for a, b in zip(coefs, _isq_taylor(r, n))]
        return coefs

    def evaluate(self, r):
        """K(r); accepts scalars or arrays, r >= 0 required, and raises
        OutOfWindow outside the domain."""
        scalar = np.isscalar(r)
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if np.any(r < 0):
            raise ValueError("curvature is defined for r >= 0 only")
        lo, hi = self._domain
        outside = r[~((r >= lo) & (r <= hi))]
        if outside.size:
            self._piece(outside[0])  # raises OutOfWindow
        out = self._P(r) + np.where(r < self._isq_end, 0.25 / (r + 1.0) ** 2, 0.0)
        return float(out[0]) if scalar else out

    __call__ = evaluate

    # ------------------------------------------------------------------

    def _constant(self, i):
        """k if piece i is the constant k, clear of the isq term, else None."""
        c = self._coefs[i]
        return c[0] if self._x[i] >= self._isq_end and not any(c[1:]) else None

    def constant_beyond(self):
        """(r_c, value) if K is exactly constant on [r_c, oo), else None:
        the last piece, when it is constant and the domain unbounded."""
        i = len(self._coefs) - 1
        k = self._constant(i)
        return None if k is None or self._domain[1] < math.inf else (self._x[i], k)

    def constant_on(self, lo, hi):
        """k if K is exactly the constant k on [lo, hi], else None: when one
        constant piece holds [lo, hi] inside the domain.  Exact in floats:
        it is the value evaluate returns."""
        i = bisect.bisect_right(self._x, lo) - 1
        if self._domain[0] <= lo and hi <= min(self._x[i + 1], self._domain[1]):
            return self._constant(i)
        return None

    def tail_certificate(self):
        """What is certifiably known about K on a tail [r0, oo).

        Returns ("zero", r0), ("nonpositive", r0) or None, from the last
        piece when it is a constant v <= 0 on an unbounded domain: K = v
        from its start on, or, while the isq term runs, K = v +
        1/(4(r+1)^2), which is <= 0 from 1/(2 sqrt(-v)) - 1 on when v < 0.
        Used by the quadrature module to pick a tail strategy for improper
        integrals; None means only window-based estimates apply.
        """
        s, c = self._x[-2], self._coefs[-1]
        if self._domain[1] < math.inf or any(c[1:]) or c[0] > 0.0:
            return None
        if s >= self._isq_end:
            return ("zero" if c[0] == 0.0 else "nonpositive", s)
        if c[0] < 0.0:
            return ("nonpositive", max(s, 1.0 / (2.0 * math.sqrt(-c[0])) - 1.0))
        return None

    # ------------------------------------------------------------------

    @property
    def params(self):
        """The normalized parameters, JSON values only: an independent copy."""
        return self.to_dict()["params"]

    def to_dict(self):
        return json.loads(self._json)

    @classmethod
    def from_dict(cls, d):
        if not (isinstance(d, dict) and d.keys() >= {"kind", "params"}):
            raise ValueError("a curvature spec is an object with 'kind' and 'params'")
        return cls(d["kind"], d["params"])

    def to_json(self):
        return self._json

    @classmethod
    def from_json(cls, s):
        return cls.from_dict(json.loads(s))

    def __repr__(self):
        return f"CurvatureSpec({self.to_dict()})"


# convenience constructors ------------------------------------------------


def constant(k):
    return CurvatureSpec("constant", {"k": k})


def isq(u):
    return CurvatureSpec("isq", {"u": u})


def isq_capped(u, eps):
    return CurvatureSpec("isq_capped", {"u": u, "eps": eps})


def spliced(base, r0, drop):
    return CurvatureSpec("spliced", {"base": base, "r0": r0, "drop": drop})


def table(r, K, extrapolate="none"):
    return CurvatureSpec("table", {"r": r, "K": K, "extrapolate": extrapolate})


# ------------------------------------------------------------------------


@dataclass
class VMReport:
    is_vm: bool
    first_violation: float | None


def check_von_mangoldt(spec, r_max):
    """Decide whether K is non-increasing on [0, r_max], exactly.

    Each kind by rule:
      constant    non-increasing;
      isq         K' = -1/(2(r+1)^3) < 0;
      isq_capped  the isq part is decreasing and K = 0 beyond z+eps, so
                  the blend decides.  It is (1-t)^3 Q(t) in t = (r-a)/(b-a)
                  on [a, b] = [z-eps, z+eps], Q quadratic, so its quartic
                  K' = (1-t)^2 L(t) / (b-a), L = (1-t) Q' - 3 Q, has the sign
                  of the quadratic L: K rises past L's first upward root;
      table       from its data: PCHIP is monotone on a cell exactly when
                  the cell's two data are (Fritsch & Carlson 1980), so K
                  rises from r_i on through the first pair K[i+1] > K[i];
      spliced     the drop never rises, so the spec is von Mangoldt when
                  its base is.  A base rise outside the drop's span
                  (r0, r0+w) is a violation; one inside is decided on
                  base' - mu S'((r-r0)/w) / w, a polynomial on each PCHIP
                  or blend cell.
    first_violation is the first radius past which K rises.  Report-style
    result, never raises on a violation; OutOfWindow when K is not
    defined on all of [0, r_max] (a table missing r = 0).
    """
    if not r_max > 0:
        raise ValueError("r_max must be positive")
    hi = min(r_max, spec.domain_hi)
    spec.evaluate(np.array([0.0, hi]))  # OutOfWindow outside the domain
    for x0, x1, p, _ in _rise_cells(spec):
        if x0 >= hi:
            break
        t = _first_rise(p, min(1.0, (hi - x0) / (x1 - x0)))
        r = math.inf if t is None else x0 + t * (x1 - x0)
        # the cell's end in t may round past a root: a rise from hi on is outside
        if r < hi:
            return VMReport(False, float(r))
    return VMReport(True, None)


def _rise_cells(spec):
    """The cells [x0, x1] on which K may rise, in order, as (x0, x1, p, w):
    K' = w p, two polynomials in t = (r - x0) / (x1 - x0) with w >= 0 on
    the cell, so p alone has K's sign.  K' <= 0 off the cells."""
    p = spec.params
    if spec.kind == "isq_capped":
        a, b, (q0, q1, q2) = _cap_blend(p["u"], p["eps"])
        # L = (1-t) Q' - 3 Q
        L = _Poly([q1 - 3.0 * q0, 2.0 * q2 - 4.0 * q1, -5.0 * q2]) / (b - a)
        return [(a, b, L, _Poly([1.0, -1.0]) ** 2)] if _first_rise(L, 1.0) is not None else []
    if spec.kind == "table":
        # a rising cell's cubic, from its piece: K' in t
        r, cells = p["r"], []
        for i in np.flatnonzero(np.diff(p["K"]) > 0.0):
            c = spec._coefs[spec._piece(r[i])]
            slope = np.array([c[1], 2 * c[2], 3 * c[3]]) * (r[i + 1] - r[i]) ** np.arange(3)
            cells.append((r[i], r[i + 1], _Poly(slope), _Poly([1.0])))
        return cells
    if spec.kind != "spliced":
        return []
    r0, mu, w = p["r0"], p["drop"]["mu"], p["drop"]["w"]
    cells = []
    for x0, x1, base, weight in _rise_cells(CurvatureSpec.from_dict(p["base"])):
        ends = sorted({x0, x1, *(e for e in (r0, r0 + w) if x0 < e < x1)})
        for a, b in zip(ends, ends[1:]):
            sub = _Poly([(a - x0) / (x1 - x0), (b - a) / (x1 - x0)])
            q, v = base(sub), weight(sub)
            if r0 <= a and b <= r0 + w:
                q = v * q - mu / w * _SMOOTHSTEP_SLOPE(_Poly([(a - r0) / w, (b - a) / w]))
                v = _Poly([1.0])
            cells.append((a, b, q, v))
    return cells


def _first_rise(p, t_hi):
    """First t in [0, t_hi) past which the polynomial p is positive, or
    None.  p keeps its sign between neighbouring real roots, so the
    midpoint of each stretch decides it (a complex root's real part only
    adds a cut)."""
    cuts = sorted({0.0, t_hi, *(t.real for t in p.roots() if 0.0 < t.real < t_hi)})
    for t0, t1 in zip(cuts, cuts[1:]):
        if p(0.5 * (t0 + t1)) > 0.0:
            return t0
    return None
