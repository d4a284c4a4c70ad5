"""Command-line front end.

Every subcommand that operates on a plane takes a curvature description
as JSON (--spec, as written by `plane build`, `cone`, or `example`),
solves it on [0, --r-max], and prints a JSON result on stdout.  Failures
print a JSON object on stderr and exit with:

    2   invalid input (bad parameters, malformed spec, out-of-window, or
        a profile that overflows in the window)
    3   the profile vanishes at finite radius (not a plane)
    4   the requested quantity is window-limited
    5   the comparison cannot be certified at the working tolerance
"""

import argparse
import json
import math
import sys
import warnings

import numpy as np

from . import analysis as an
from . import constructions as cx
from . import curvature as cv
from . import geodesics as gd
from . import jacobi
from .errors import BuildError, OutOfWindow, StarViolation, Undetermined
from .svgplot import write_csv


def _emit(obj):
    print(json.dumps(obj))


def _fail(code, kind, **extra):
    payload = {"error": kind}
    payload.update(extra)
    print(json.dumps(payload), file=sys.stderr)
    return code


def _load_spec(path):
    with open(path) as fh:
        return cv.CurvatureSpec.from_json(fh.read())


def _solve(args):
    spec = _load_spec(args.spec)
    return jacobi.solve_jacobi(spec, r_max=args.r_max)


def _write_spec(spec, path):
    with open(path, "w") as fh:
        fh.write(spec.to_json())


# --- plane ----------------------------------------------------------------


def _cmd_plane_build(args):
    if args.kind == "constant":
        spec = cv.constant(args.k)
    elif args.kind == "isq":
        spec = cv.isq(args.u)
    elif args.kind == "isq-capped":
        spec = cv.isq_capped(args.u, args.eps)
    else:  # table: argparse restricts the choices
        if args.table is None:
            raise ValueError("--kind table needs --table, a CSV with r,K columns")
        try:
            with warnings.catch_warnings():
                # numpy warns on a file without a header line, then fails
                warnings.filterwarnings("ignore", "genfromtxt: Empty input file", UserWarning)
                rows = np.genfromtxt(args.table, delimiter=",", names=True)
        except IndexError:
            raise ValueError(f"--table {args.table} is empty: it needs r,K columns") from None
        spec = cv.table(rows["r"], rows["K"], extrapolate=args.extrapolate)
    if args.drop_at is not None:
        spec = cv.spliced(spec, args.drop_at, cv.DropParams(args.drop_mu, args.drop_w))
    _write_spec(spec, args.output)
    out = {"spec": args.output, "kind": spec.kind}
    if args.profile_csv:
        prof = jacobi.solve_jacobi(spec, r_max=args.r_max)
        jacobi.export_profile_csv(prof, args.profile_csv)
        out["profile_csv"] = args.profile_csv
        out["r_max"] = prof.r_max
    _emit(out)
    return 0


def _cmd_plane_check(args):
    spec = _load_spec(args.spec)
    rep = cv.check_von_mangoldt(spec, r_max=args.r_max)
    _emit({"is_vm": rep.is_vm, "first_violation": rep.first_violation})
    return 0


# --- builders -------------------------------------------------------------


def _cmd_cone(args):
    build = cx.build_smoothed_cone(args.slope, tail=args.tail)
    _write_spec(build.spec, args.output)
    _emit({"spec": args.output, "u": build.u, "z": build.z, "eps": build.eps,
           "rho": build.rho, "slope": build.slope,
           "suggested_r_max": build.profile.r_max})
    return 0


def _cmd_example(args):
    # the drop's defaults differ by example and live in the builders
    drop = {k: v for k, v in (("mu", args.mu), ("w", args.w)) if v is not None}
    if args.which == "m-prime-zero":
        build = cx.build_bulge_plane(a=args.a, r_max=args.r_max, **drop)
        info = {"a": build.a, "mu": build.mu, "w": build.w,
                "suggested_r_max": build.profile.r_max}
    else:
        build = cx.build_flared_cone(s_base=args.slope, rq_factor=args.rq_factor, **drop)
        info = {"r_q": build.r_q, "splice_radius": build.splice_radius,
                "base_critical_radius": build.base_critical_radius,
                "suggested_r_max": build.profile.r_max}
    _write_spec(build.spec, args.output)
    info["spec"] = args.output
    _emit(info)
    return 0


# --- pointwise queries ----------------------------------------------------


def _cmd_turn_angle(args):
    prof = _solve(args)
    res = gd.turn_angle(prof, args.r, args.kappa, tol=args.query_tol)
    _emit({"value": res.value, "abs_error": res.abs_error, "status": res.status})
    if res.status == "window_limited":
        return 4
    return 0


def _cmd_classify(args):
    prof = _solve(args)
    # one tangential turn angle decides both: critical is its closed
    # side of pi, away its strict side
    side = gd.side_of_pi(gd.turn_angle(prof, args.r, math.pi / 2, tol=args.query_tol),
                         args.query_tol)
    critical, away = side <= 0, side < 0
    # max_ray_angle is pi exactly when its own pole test passes
    angle = gd.max_ray_angle(prof, args.r, tol=args.query_tol)
    _emit({"r": args.r, "critical": critical, "away": away, "pole": angle == math.pi,
           "max_ray_angle": angle})
    return 0


def _cmd_radii(args):
    prof = _solve(args)
    out = {
        "critical_ball_radius": an.critical_ball_radius(prof, tol=args.query_tol),
        "half_slope_radius": an.half_slope_radius(prof),
    }
    if not args.skip_pole_ball:
        out["pole_ball_radius"] = an.pole_ball_radius(prof, tol=args.query_tol)
    _emit(out)
    return 0


def _cmd_scan(args):
    prof = _solve(args)
    rep = an.scan_sets(prof, n=args.n, tol=args.query_tol)
    rep.radii["half_slope_radius"] = an.half_slope_radius(prof)
    rep.radii["critical_ball_radius"] = an.critical_ball_radius(prof, tol=args.query_tol)
    if args.csv:
        rep.to_csv(args.csv)
    if args.svg:
        rep.to_svg(args.svg)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(rep.to_json())
        _emit({"json": args.json,
               "critical_intervals": rep.critical_intervals,
               "away_intervals": rep.away_intervals})
    else:
        _emit(rep.to_dict())
    return 0


def _cmd_neck(args):
    prof = _solve(args)
    rep = an.neck_bound(prof, args.x, args.y)
    _emit(rep.to_dict())
    return 0


# --- geodesic traces and geometry -----------------------------------------


def _cmd_trace(args):
    prof = _solve(args)
    tr = gd.trace(prof, args.r, args.kappa, args.s_max, n_points=args.n,
                  rtol=args.rtol, stop_at_radius=args.stop_at_radius)
    if args.csv:
        tr.to_csv(args.csv)
    if args.svg:
        tr.to_svg(args.svg)
    s_end, r_end, theta_end, _ = tr.end_state
    _emit({"status": tr.status, "s_end": s_end, "r_end": r_end,
           "theta_end": theta_end, "speed_drift": tr.speed_drift})
    return 0


def _cmd_embed(args):
    prof = _solve(args)
    r, radius, height = jacobi.embed_profile(prof, n=args.n)
    write_csv(args.output, ["r", "radius", "height"], zip(r, radius, height))
    _emit({"csv": args.output, "rows": len(r)})
    return 0


# --- parser ---------------------------------------------------------------


def build_parser():
    top = argparse.ArgumentParser(
        prog="revplane",
        description="rotationally symmetric planes from prescribed curvature",
    )
    sub = top.add_subparsers(dest="command", required=True)

    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--r-max", type=float, default=200.0,
                        help="solve window (default 200)")

    onspec = argparse.ArgumentParser(add_help=False, parents=[window])
    onspec.add_argument("--spec", required=True, help="curvature spec JSON")
    onspec.add_argument("--query-tol", type=float, default=1e-8,
                        help="tolerance for turn-angle comparisons")

    plane = sub.add_parser("plane", help="build or check curvature specs")
    psub = plane.add_subparsers(dest="plane_command", required=True)

    pb = psub.add_parser("build", parents=[window],
                         help="write a curvature spec (optionally solve it)")
    pb.add_argument("--kind", required=True,
                    choices=["constant", "isq", "isq-capped", "table"])
    pb.add_argument("--k", type=float, default=0.0, help="constant curvature")
    pb.add_argument("--u", type=float, default=0.0,
                    help="inverse-square offset (isq kinds)")
    pb.add_argument("--eps", type=float, default=0.1,
                    help="cap half-width (isq-capped)")
    pb.add_argument("--table", help="CSV with r,K columns (table kind)")
    pb.add_argument("--extrapolate", choices=["none", "constant"],
                    default="none")
    pb.add_argument("--drop-at", type=float, default=None,
                    help="splice a smooth drop at this radius")
    pb.add_argument("--drop-mu", type=float, default=1.0, help="drop depth")
    pb.add_argument("--drop-w", type=float, default=1.0, help="drop width")
    pb.add_argument("--profile-csv", help="also solve and write r,m,m',K")
    pb.add_argument("-o", "--output", required=True, help="spec JSON path")
    pb.set_defaults(func=_cmd_plane_build)

    pc = psub.add_parser("check", parents=[window],
                         help="verify non-increasing curvature")
    pc.add_argument("--spec", required=True)
    pc.set_defaults(func=_cmd_plane_check)

    cone = sub.add_parser("cone", help="smoothed cone with prescribed slope")
    cone.add_argument("--slope", type=float, required=True)
    cone.add_argument("--tail", type=float, default=60.0,
                      help="window kept beyond the cap")
    cone.add_argument("-o", "--output", required=True)
    cone.set_defaults(func=_cmd_cone)

    ex = sub.add_parser("example", help="counterexample planes")
    ex.add_argument("which", choices=["m-prime-zero", "disconnected"])
    ex.add_argument("--a", type=float, default=3 * math.pi / 4,
                    help="bulge extent (m-prime-zero)")
    ex.add_argument("--mu", type=float, default=None, help="drop depth")
    ex.add_argument("--w", type=float, default=None, help="drop width")
    ex.add_argument("--r-max", type=float, default=50.0,
                    help="window (m-prime-zero)")
    ex.add_argument("--slope", type=float, default=0.3,
                    help="base cone slope (disconnected)")
    ex.add_argument("--rq-factor", type=float, default=1.5,
                    help="chosen radius over base critical radius")
    ex.add_argument("-o", "--output", required=True)
    ex.set_defaults(func=_cmd_example)

    ta = sub.add_parser("turn-angle", parents=[onspec],
                        help="total turn of a geodesic")
    ta.add_argument("--r", type=float, required=True)
    ta.add_argument("--kappa", type=float, required=True)
    ta.set_defaults(func=_cmd_turn_angle)

    cl = sub.add_parser("classify", parents=[onspec],
                        help="critical / away / pole at a radius")
    cl.add_argument("--r", type=float, required=True)
    cl.set_defaults(func=_cmd_classify)

    ra = sub.add_parser("radii", parents=[onspec],
                        help="critical-ball, half-slope, pole-ball radii")
    ra.add_argument("--skip-pole-ball", action="store_true")
    ra.set_defaults(func=_cmd_radii)

    sc = sub.add_parser("scan", parents=[onspec],
                        help="critical/away intervals over a radius grid")
    sc.add_argument("--n", type=int, default=256)
    sc.add_argument("--json", help="write the full report here")
    sc.add_argument("--csv", help="write per-radius rows here")
    sc.add_argument("--svg", help="write an interval chart here")
    sc.set_defaults(func=_cmd_scan)

    ne = sub.add_parser("neck", parents=[onspec],
                        help="criticality exclusion over a slow stretch")
    ne.add_argument("--x", type=float, required=True)
    ne.add_argument("--y", type=float, required=True)
    ne.set_defaults(func=_cmd_neck)

    tr = sub.add_parser("trace", parents=[onspec],
                        help="integrate one geodesic")
    tr.add_argument("--r", type=float, required=True)
    tr.add_argument("--kappa", type=float, required=True)
    tr.add_argument("--s-max", type=float, required=True)
    tr.add_argument("--n", type=int, default=1001)
    tr.add_argument("--rtol", type=float, default=1e-11)
    tr.add_argument("--stop-at-radius", type=float, default=None)
    tr.add_argument("--csv")
    tr.add_argument("--svg")
    tr.set_defaults(func=_cmd_trace)

    em = sub.add_parser("embed", parents=[onspec],
                        help="surface of revolution realizing the plane")
    em.add_argument("--n", type=int, default=1024)
    em.add_argument("-o", "--output", required=True)
    em.set_defaults(func=_cmd_embed)

    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StarViolation as exc:
        return _fail(3, "star_violation", first_zero=exc.first_zero,
                     message=str(exc))
    except Undetermined as exc:
        return _fail(5, "undetermined", value=exc.value,
                     abs_error=exc.abs_error, message=str(exc))
    except OutOfWindow as exc:
        return _fail(2, "out_of_window", message=str(exc))
    except BuildError as exc:
        return _fail(2, "invalid_input", message=str(exc))
    except (ValueError, OverflowError, OSError, KeyError) as exc:
        return _fail(2, "invalid_input", message=str(exc))


if __name__ == "__main__":
    sys.exit(main())
