"""Outside-in tracing of revplane's layers.

Tracer.install() replaces the public entry points of each module with
wrappers, at their module attributes or classes, so calls the library
makes internally (is_ray -> turn_angle, max_ray_angle -> is_pole,
build_flared_cone -> build_smoothed_cone) resolve through the wrappers
too.  Each wrapped call appends one span to an in-memory list:

    [name, start, end, parent index, points, outcome]

points is the size of the radius argument for the pointwise layers
(curvature evaluation, Profile.m / mp); outcome is the integral's status
for integrate_turn_rate and the exception name when a call raises.  The
benchmark opens a root span around each op and around set-up, so every
span can be attributed to one of them.  Nothing is aggregated while the
program runs; summarize() reduces the span list after the timed loop.
"""

import functools
import gzip
import json
import os
from time import perf_counter

CURVATURE = "curvature.evaluate"
SOLVE = "jacobi.solve_jacobi"
PROFILE = ("jacobi.Profile.m", "jacobi.Profile.mp")
INTEGRATE = "quadrature.integrate_turn_rate"
TURN = "geodesics.turn_angle"
IS_RAY = "geodesics.is_ray"
MAX_RAY = "geodesics.max_ray_angle"
IS_POLE = "analysis.is_pole"
# the analysis drivers (layer 5): max_ray_angle lives in geodesics but
# is a search over ray decisions, like the three in analysis
DRIVERS = (MAX_RAY, IS_POLE, "analysis.scan_sets", "analysis.critical_ball_radius")
BUILDERS = ("build_smoothed_cone", "build_bulge_plane", "build_flared_cone",
            "build_bounded_table_plane")
# root spans the benchmark opens: one per op, one around set-up, and one
# around each op's correctness check (left out of every metric)
OP = "op"
SETUP = "setup"
CHECK = "check"

STATUSES = ("converged", "divergent_tangency", "divergent_tail", "window_limited")


def _points(args):
    return int(getattr(args[1], "size", 1))


def _status(result):
    return result.status


class Tracer:
    """Span recorder; install() wraps the entry points, uninstall() puts
    the originals back."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, name, points=None, outcome=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kw):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   points(args) if points else 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kw)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if outcome:
                rec[5] = outcome(out)
            return out

        return traced

    def root(self, name):
        """Context manager for a root span (one op, or set-up)."""
        return _Root(self, name)

    def graft_file(self, path):
        """Append the spans a traced child process wrote to `path` under
        the current root span, and delete the file."""
        with open(path) as fh:
            child_spans = json.load(fh)
        os.unlink(path)
        parent = self._stack[-1]
        base = len(self.spans)
        for name, t0, t1, par, pts, out in child_spans:
            self.spans.append([name, t0, t1, parent if par < 0 else par + base,
                               pts, out])

    # -- installation -----------------------------------------------------

    def install(self):
        from revplane import (analysis, constructions, curvature, geodesics,
                              jacobi, quadrature)

        targets = [
            (curvature.CurvatureSpec, "evaluate", CURVATURE, _points, None),
            (jacobi, "solve_jacobi", SOLVE, None, None),
            (jacobi.Profile, "m", PROFILE[0], _points, None),
            (jacobi.Profile, "mp", PROFILE[1], _points, None),
            (quadrature, "integrate_turn_rate", INTEGRATE, None, _status),
            (geodesics, "turn_angle", TURN, None, None),
            (geodesics, "is_ray", IS_RAY, None, None),
            (geodesics, "max_ray_angle", MAX_RAY, None, None),
            (analysis, "is_pole", IS_POLE, None, None),
            (analysis, "scan_sets", "analysis.scan_sets", None, None),
            (analysis, "critical_ball_radius", "analysis.critical_ball_radius",
             None, None),
        ] + [(constructions, b, "constructions." + b, None, None) for b in BUILDERS]
        for owner, attr, name, points, outcome in targets:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, points, outcome))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path):
        opener = gzip.open if str(path).endswith(".gz") else open
        with opener(path, "wt") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


class _Root:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append([self.name, perf_counter(), 0.0, -1, 0, None])
        t._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t._stack.pop()
        t.spans[self.index][2] = perf_counter()
        return False


def summarize(spans):
    """Per-layer metrics from a span list (see README.md, "Layer map").

    Counts and times are totals over set-up and ops; the ratios
    (profile share, turn angles per op) are over ops only.
    """
    n = len(spans)
    child = [0.0] * n
    root = [0] * n
    under_build = [False] * n
    under_integrate = [False] * n
    for i, (name, t0, t1, par, _, _) in enumerate(spans):
        if par < 0:
            root[i] = i
        else:
            child[par] += t1 - t0
            root[i] = root[par]
            pname = spans[par][0]
            under_build[i] = under_build[par] or pname.startswith("constructions.")
            under_integrate[i] = under_integrate[par] or pname == INTEGRATE

    m = {k: 0.0 if k.endswith("_s") else 0 for k in (
        "curvature.evaluate_calls", "curvature.evaluate_points", "curvature.self_s",
        "jacobi.solve_calls", "jacobi.solve_s", "jacobi.profile_calls",
        "jacobi.profile_points", "jacobi.profile_self_s",
        "quadrature.integrate_calls", "quadrature.self_s",
        "geodesics.turn_angle_calls", "geodesics.turn_angle_self_s",
        "geodesics.is_ray_calls", "geodesics.undetermined",
        "analysis.is_pole_calls", "analysis.self_s",
        "constructions.build_calls", "constructions.build_s")}
    for s in STATUSES:
        m["quadrature.status." + s] = 0
    op_time = op_profile_self = 0.0
    ops = op_turns = build_solves = integrate_points = 0
    for i, (name, t0, t1, par, pts, out) in enumerate(spans):
        if spans[root[i]][0] == CHECK:
            continue
        dur = t1 - t0
        self_s = dur - child[i]
        in_op = spans[root[i]][0] == OP
        if name == OP:
            ops += 1
            op_time += dur
        elif name == CURVATURE:
            m["curvature.evaluate_calls"] += 1
            m["curvature.evaluate_points"] += pts
            m["curvature.self_s"] += self_s
        elif name in PROFILE:
            m["jacobi.profile_calls"] += 1
            m["jacobi.profile_points"] += pts
            m["jacobi.profile_self_s"] += self_s
            if in_op:
                op_profile_self += self_s
            if under_integrate[i]:
                integrate_points += pts
        elif name == SOLVE:
            m["jacobi.solve_calls"] += 1
            m["jacobi.solve_s"] += dur
            build_solves += under_build[i]
        elif name == INTEGRATE:
            m["quadrature.integrate_calls"] += 1
            m["quadrature.self_s"] += self_s
            if out in STATUSES:
                m["quadrature.status." + out] += 1
        elif name == TURN:
            m["geodesics.turn_angle_calls"] += 1
            m["geodesics.turn_angle_self_s"] += self_s
            op_turns += in_op
        elif name == IS_RAY:
            m["geodesics.is_ray_calls"] += 1
            m["geodesics.undetermined"] += out == "Undetermined"
        elif name.startswith("constructions.") and not under_build[i]:
            m["constructions.build_calls"] += 1
            m["constructions.build_s"] += dur
        if name in DRIVERS:
            m["analysis.self_s"] += self_s
            m["analysis.is_pole_calls"] += name == IS_POLE
    m["jacobi.profile_share"] = op_profile_self / op_time if op_time else 0.0
    m["quadrature.points_per_integral"] = (
        integrate_points / m["quadrature.integrate_calls"]
        if m["quadrature.integrate_calls"] else 0.0)
    m["analysis.turn_angles_per_op"] = op_turns / ops if ops else 0.0
    m["constructions.solves_per_build"] = (
        build_solves / m["constructions.build_calls"]
        if m["constructions.build_calls"] else 0.0)
    return m
