"""Sturm comparison of two profiles, a grid check for the tests.

Where one plane's curvature lies below another's, the comparison theorem
puts its warping function above: the tests use this to check that the
Jacobi solve keeps the order the curvatures impose.
"""

import math
from dataclasses import dataclass

import numpy as np


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
