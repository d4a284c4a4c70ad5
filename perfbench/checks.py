"""Per-op correctness checks.

Every check takes what an op returned plus the inputs that produced it
and returns None when the answer is right, or a one-line reason when it
is wrong.  The checks use closed forms where the geometry gives one and
the status contract everywhere else.  They call no library code; the
one library value a check needs (the turn angle at a computed radius)
is computed by the workload after the op's timing ends.
"""

import json
import math

# the query tolerance every library op runs at (the library default)
TOL = 1e-8
# kappa_tol of the max_ray_angle ops (as in the acceptance sweeps)
KAPPA_TOL = 1e-6
# agreement of a scan's critical-interval end with critical_ball_radius
SCAN_EDGE_TOL = 1e-4
# the s = 0.3 smoothed cone's critical-ball radius, and its tolerance
CONE03_RADIUS = 11.2441
CONE03_RADIUS_TOL = 5e-5

DIVERGENT = ("divergent_tangency", "divergent_tail")

# Confirmed defects: (text a failure reason contains, where it is tracked).
# An op failing this way still counts as failed; it only leaves the run
# `correct`, so the failure stays visible without voiding the run.
BUG_WINDOW_LIMITED_RADIUS = (
    "critical_ball_radius inf",
    "ROADMAP open item 4: critical_ball_radius returns inf on a "
    "window-limited turn angle")
BUG_SLOPE_TUNING = (
    "slope tuning stalled",
    "build_smoothed_cone raises BuildError for about 1 slope in 11 in "
    "(0.15, 0.95): m'(rho) misses s by more than its 1e-9 slope_tol "
    "(perfbench/README.md)")


def band(res):
    """Error band of a turn angle under the closed-side protocol."""
    return max(res.abs_error, TOL)


def status_contract(res):
    """The value lies in [0, inf]; it is inf exactly when the status is
    divergent; abs_error is finite when the status is converged."""
    v = res.value
    if math.isnan(v) or v < 0.0:
        return f"turn angle {v!r} outside [0, inf]"
    if math.isinf(v) != (res.status in DIVERGENT):
        return f"value {v!r} with status {res.status}"
    if res.status == "converged" and not math.isfinite(res.abs_error):
        return f"converged with abs_error {res.abs_error!r}"
    return None


def m_cone(plane, r):
    """m on the linear part of a cone: m(rho) + s (r - rho)."""
    return plane.m_rho + plane.slope * (r - plane.rho)


def turn_reference(plane, r, kappa):
    """Closed-form turn angle where one exists, else None."""
    if plane.kind == "flat":
        return kappa
    if plane.kind == "hyperbolic" and kappa == math.pi / 2:
        return math.atan(1.0 / math.sinh(r))
    if plane.rho is not None and r > plane.rho:
        # the geodesic stays on the linear part: it heads outward, or its
        # turning circle m = c lies beyond the cap
        if kappa <= math.pi / 2 or m_cone(plane, r) * math.sin(kappa) >= plane.m_rho:
            return kappa / plane.slope
    return None


def check_turn(plane, r, kappa, res):
    reason = status_contract(res)
    if reason:
        return reason
    ref = turn_reference(plane, r, kappa)
    if ref is not None and not abs(res.value - ref) <= band(res):
        return f"T = {res.value!r}, expected {ref!r} within {band(res):.3g}"
    return None


def max_ray_reference(plane, r):
    """Closed-form widest ray angle where one exists, else None."""
    if plane.kind in ("flat", "hyperbolic"):
        return math.pi
    if plane.rho is not None and r > plane.rho:
        if m_cone(plane, r) * math.sin(plane.slope * math.pi) >= plane.m_rho:
            return plane.slope * math.pi
    return None


def check_max_ray_angle(plane, r, angle):
    if not 0.0 <= angle <= math.pi:
        return f"max ray angle {angle!r} outside [0, pi]"
    ref = max_ray_reference(plane, r)
    if ref is None:
        return None
    if ref == math.pi:
        return None if angle == math.pi else f"angle {angle!r}, expected pi"
    # the bisection stops within kappa_tol; the turn angle's own band
    # moves the root by at most slope * tol
    if not abs(angle - ref) <= KAPPA_TOL + plane.slope * TOL:
        return f"angle {angle!r}, expected {ref!r}"
    return None


def check_is_pole(plane, r, pole):
    if not isinstance(pole, bool):
        return f"is_pole returned {pole!r}, not a bool"
    if plane.kind in ("flat", "hyperbolic") and not pole:
        return "is_pole False on a plane where every point is a pole"
    return None


def check_scan(plane, report, r_crit, r_half, turn_at):
    """One scan-report op on a cone: scan_sets, then critical_ball_radius
    and half_slope_radius.  turn_at(r) gives the tangential turn angle."""
    ints = report.critical_intervals
    if plane.slope >= 0.5:
        if r_crit != math.inf:
            return f"critical_ball_radius {r_crit!r} at slope {plane.slope:.4g}, expected inf"
        if r_half != math.inf:
            return f"half_slope_radius {r_half!r} at slope {plane.slope:.4g}, expected inf"
        if len(ints) != 1 or ints[0][1] != report.r[-1]:
            return f"critical intervals {ints}, expected the whole grid"
        return None
    if not 0.0 < r_crit < math.inf:
        return f"critical_ball_radius {r_crit!r} at slope {plane.slope:.4g}, expected finite"
    if not r_half > r_crit:
        return f"half_slope_radius {r_half!r} not beyond the critical ball {r_crit!r}"
    if plane.expect_radius is not None and not (
            abs(r_crit - plane.expect_radius) <= CONE03_RADIUS_TOL):
        return f"critical_ball_radius {r_crit!r}, expected {plane.expect_radius}"
    if not ints:
        return "no critical interval in the scan"
    t_root = turn_at(r_crit)
    if not abs(t_root.value - math.pi) <= band(t_root):
        return f"T(r*, pi/2) = {t_root.value!r}, not pi within {band(t_root):.3g}"
    edge = ints[0][1]
    if not abs(edge - r_crit) <= SCAN_EDGE_TOL:
        # where T crosses pi slowly (slopes near 1/2) the scan's edge may
        # sit farther out, but only as far as the closed-side band reaches
        t_edge = turn_at(edge)
        if not abs(t_edge.value - math.pi) <= band(t_edge):
            return (f"scan edge {edge!r} vs critical_ball_radius {r_crit!r}, "
                    f"T(edge) - pi = {t_edge.value - math.pi:.3g}")
    return None


# --- cli ------------------------------------------------------------------

# exit codes each command may document as an answer (revplane.cli)
DOCUMENTED_EXITS = {
    "cone": (0,),
    "turn-angle": (0, 4),
    "classify": (0, 5),
    "radii": (0, 4, 5),
    "plane check": (0,),
}


def check_cli(command, code, stdout, stderr, expect):
    """A CLI op: a documented exit code, JSON on stdout, and the
    expected values in it.  expect holds what the op's arguments imply."""
    if code not in DOCUMENTED_EXITS[command]:
        return f"exit code {code}: {stderr.strip()[-300:]}"
    if code != 0:
        # a documented non-zero code prints its JSON on stderr; only the
        # window-limited turn angle also prints its result
        if command == "turn-angle":
            out = _parse(stdout)
            if out is None or out.get("status") != "window_limited":
                return "exit 4 without a window-limited result on stdout"
        return None
    out = _parse(stdout)
    if out is None:
        return "stdout is not one JSON object"
    if command == "cone":
        if not abs(out["slope"] - expect["slope"]) <= 1e-9:
            return f"cone slope {out['slope']!r}, asked {expect['slope']!r}"
    elif command == "turn-angle":
        ref = math.atan(1.0 / math.sinh(expect["r"]))
        if out["status"] != "converged" or not (
                abs(out["value"] - ref) <= max(out["abs_error"], TOL)):
            return f"turn angle {out['value']!r} ({out['status']}), expected {ref!r}"
    elif command == "classify":
        want = {"critical": True, "away": True, "pole": True,
                "max_ray_angle": math.pi}
        got = {k: out[k] for k in want}
        if got != want:
            return f"classify gave {got}, expected {want}"
    elif command == "radii":
        r_crit = out["critical_ball_radius"]
        if not 0.0 < r_crit < out["half_slope_radius"] < math.inf:
            return f"radii {out} out of order for a slope below 1/2"
    elif command == "plane check":
        if out["is_vm"] is not True:
            return f"plane check gave {out}"
    return None


def _parse(text):
    try:
        out = json.loads(text)
    except json.JSONDecodeError:
        return None
    return out if isinstance(out, dict) else None
