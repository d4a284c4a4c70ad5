"""Rotationally symmetric planes from prescribed radial curvature.

Solve the radial Jacobi equation m'' + K m = 0 for a curvature profile
K(r), then ask geometric questions of the resulting plane: turn angles
of geodesics, which radii are critical for the distance to the origin,
where the poles end, and how to build planes that realize (or refute)
particular behaviors.
"""

from .analysis import (AnalysisReport, NeckReport, critical_ball_radius,
                       half_slope_radius, in_away_set, is_critical, is_pole,
                       neck_bound, pole_ball_radius,
                       radial_inverse_square_diverges, scan_sets)
from .constructions import (BulgeBuild, ConeBuild, FlareBuild, TableBuild,
                            build_bounded_table_plane, build_bulge_plane,
                            build_flared_cone, build_smoothed_cone)
from .curvature import (CurvatureSpec, DropParams, VMReport,
                        check_von_mangoldt, constant, isq, isq_capped,
                        isq_zero, spliced, table)
from .errors import BuildError, OutOfWindow, StarViolation, Undetermined
from .geodesics import (GeodesicTrace, is_ray, max_ray_angle, side_of_pi,
                        trace, turn_angle, turn_angles, turning_radius)
from .jacobi import Profile, embed_profile, export_profile_csv, solve_jacobi
from .quadrature import (IntegralResult, STATUS_CONVERGED,
                         STATUS_DIVERGENT_TAIL, STATUS_DIVERGENT_TANGENCY,
                         STATUS_WINDOW_LIMITED, integrate_turn_rate)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport", "NeckReport", "critical_ball_radius",
    "half_slope_radius", "in_away_set", "is_critical", "is_pole",
    "neck_bound", "pole_ball_radius", "radial_inverse_square_diverges",
    "scan_sets",
    "BulgeBuild", "ConeBuild", "FlareBuild", "TableBuild",
    "build_bounded_table_plane", "build_bulge_plane", "build_flared_cone",
    "build_smoothed_cone",
    "CurvatureSpec", "DropParams", "VMReport", "check_von_mangoldt",
    "constant", "isq", "isq_capped", "isq_zero", "spliced", "table",
    "BuildError", "OutOfWindow", "StarViolation", "Undetermined",
    "GeodesicTrace", "is_ray", "max_ray_angle",
    "side_of_pi", "trace", "turn_angle", "turn_angles", "turning_radius",
    "Profile", "embed_profile", "export_profile_csv", "solve_jacobi",
    "IntegralResult", "STATUS_CONVERGED", "STATUS_DIVERGENT_TAIL",
    "STATUS_DIVERGENT_TANGENCY", "STATUS_WINDOW_LIMITED",
    "integrate_turn_rate",
    "__version__",
]
