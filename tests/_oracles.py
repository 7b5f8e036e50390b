"""Brute-force references that the tests check the package against."""

import math

from jampack.construction import ConstructionError, CurveFamily
from jampack.geometry import DEFAULT_TOL, Tolerances

TWO_PI = 2.0 * math.pi


def curve_eval(family: CurveFamily, x: float) -> float:
    """Evaluate the perturbed curve f_eps at x >= 0."""
    if x < 0:
        raise ConstructionError("curve is only defined for x >= 0")
    return (1.0 + family.epsilon) * family.base(x) - family.epsilon * family.base(0.0)


def direction_oracle(normals, K: int = 720,
                     tol: Tolerances = DEFAULT_TOL) -> str:
    """Brute-force jamming check: scan K equally spaced directions and call
    the disc movable iff some direction clears every normal.  Test oracle
    for is_locally_jammed."""
    if K < 360:
        raise ValueError("K must be at least 360")
    if len(normals) == 0:
        return "movable"
    for k in range(K):
        ang = TWO_PI * k / K
        d = (math.cos(ang), math.sin(ang))
        if all(d[0] * n[0] + d[1] * n[1] >= 0.0 for n in normals):
            return "movable"
    return "jammed"
