"""Planar primitives: the apex at distance 2 from two points, chord
stepping along a monotone curve, and the cell-list neighbour index that
every all-pairs question goes through.

All operations are pure; points are plain (x, y) tuples of floats, except
that near_pairs takes and returns numpy arrays.
"""

import math

import numpy as np

Point = tuple[float, float]


class GeometryError(ValueError):
    """Degenerate or inadmissible geometric input."""


# Relative tolerance on centre distances for contact detection: a pair is
# in contact when |d - 2r| <= 2r * TANGENCY_REL.
TANGENCY_REL = 1e-9
# Absolute tolerance of the root finders and of coincidence tests.
SOLVER_ABS = 1e-12
# Slack (radians) by which a disc's largest normal gap must fall short of pi
# for the disc to be called jammed.
ANGLE_SLACK = 1e-9


def apex(p: Point, q: Point) -> Point | None:
    """The larger-x point at distance 2 from both p and q, or None when
    they are more than 4 + SOLVER_ABS apart; within SOLVER_ABS of 4 apart,
    their midpoint.  A tie in x goes to the point right of p -> q, and
    coincident p and q are rejected."""
    d = math.dist(p, q)
    if d <= SOLVER_ABS:
        raise GeometryError("coincident circle centers")
    if d > 4.0 + SOLVER_ABS:
        return None
    ux = (q[0] - p[0]) / d
    uy = (q[1] - p[1]) / d
    a = d * d / (2.0 * d)       # the floats of (4 - 4 + d^2) / 2d, not d/2
    mx = p[0] + a * ux
    my = p[1] + a * uy
    if abs(d - 4.0) <= SOLVER_ABS:
        return mx, my
    h = math.sqrt(max(4.0 - a * a, 0.0))
    x1, x2 = mx + h * uy, mx - h * uy
    return (x2, my + h * ux) if x2 > x1 else (x1, my - h * ux)


# Rounding margin of chord_step's bisection replay, as a share of its
# coordinate scale: 256 units in the last place.  At 2^-40 the replay's
# window is wide enough to cost about four more evaluations per call.
_MARGIN = 2.0 ** -44
# Half-width of the replay's window, in units of the root estimate's
# uncertainty (last secant step plus m / slope).
_WINDOW = 1.5
# The secant settles in two or three steps on a smooth curve; where it has
# not settled by the cap, its last step widens the window.
_SECANT_STEPS = 8


def _replay_bisection(g, lo, hi, glo, ghi, m):
    """The bracket (lo, hi) that plain bisection of the increasing g leaves,
    for chord_step, its one caller: split it at mid = 0.5 (lo + hi) while
    hi - lo > SOLVER_ABS, keep the half whose ends' g do not share a sign,
    and stop once mid is no longer a float strictly inside the bracket.
    glo and ghi are g(lo) and g(hi).

    That loop reads g only through its sign, so it is replayed with the
    same midpoints and the same rule while g is evaluated only near the
    root.  False position from the bracket ends, then secant steps until
    |g| is within m, estimate the root; a window (a, b) about it, as wide
    as the last step plus the margin's width in x, times _WINDOW, is
    confirmed where g(a) < -m unless a <= lo, and g(b) > m unless b >= hi.
    A midpoint left of it then takes g < 0, one right of it g > 0, and
    only the midpoints inside are evaluated.  If the check fails, every
    midpoint is evaluated, as in plain bisection.  The caller vouches that
    the computed g lies within m/2 of a non-decreasing function on the
    bracket, so that the sign beyond a window end whose |g| exceeds m is
    the sign at that end.

    A midpoint equal to lo or hi would leave the bracket as it is on every
    later split, so the early stop gives plain bisection's bracket wherever
    that loop ends; it also ends the loop where ulp(x) exceeds SOLVER_ABS
    (from x = 8192), where plain bisection would not.
    """
    x = lo - glo * (hi - lo) / (ghi - glo)
    xp, gp = hi, ghi
    slope = (ghi - glo) / (hi - lo)
    step = 0.0
    for _ in range(_SECANT_STEPS):
        if not lo < x < hi:
            break
        gx = g(x)
        if gx == gp:
            break
        slope = (gx - gp) / (x - xp)
        xp, gp, x = x, gx, x - gx / slope
        step = abs(x - xp)
        if abs(gx) <= m:
            break
    wlo, whi = lo, hi
    d = _WINDOW * (step + m / slope) if slope > 0 else -1.0
    if 0.0 <= d < hi - lo:
        x = min(max(x, lo), hi)
        a, b = x - d, x + d
        if (a <= lo or g(a) < -m) and (b >= hi or g(b) > m):
            wlo, whi = a, b
    while hi - lo > SOLVER_ABS:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if mid <= wlo:
            lo = mid
        elif mid >= whi:
            hi = mid
        else:
            gm = g(mid)
            if glo * gm <= 0:
                hi = mid
            else:
                lo, glo = mid, gm
    return lo, hi


def chord_step(curve, x_start: float, y_start: float, chord: float
               ) -> float:
    """Smallest x' > x_start at which the point (x', curve(x')) lies at the
    given chord distance from (x_start, y_start), where y_start is the
    caller's curve(x_start); the curve is not evaluated at x_start.

    The curve must be continuous and non-increasing on [x_start, inf), so
    g(x) = hypot(x - x_start, curve(x) - y_start) - chord grows with x and
    the bracket [x_start, x_start + chord] holds its root; where
    x_start + chord rounds down, g at its top is below 0 by rounding alone
    and the step ends there, as plain bisection does.  The result is the
    last midpoint of plain bisection of g down to SOLVER_ABS, replayed by
    _replay_bisection: on the bridge curves about 9 curve evaluations
    replace about 45.

    The margin m is 2^-44 (_MARGIN) of the bracket's coordinate scale,
    |x_start| + chord + the larger |y| at the bracket's ends.  The replay
    assumes that the computed curve lies within m/5 of some non-increasing
    function on the bracket; the computed g is then within m/2, its own
    rounding included, of a non-decreasing function.
    """
    if chord <= 0:
        raise GeometryError("chord must be positive")
    if not math.isfinite(y_start):
        raise GeometryError("curve not finite at x_start")
    lo, hi = x_start, x_start + chord
    y_hi = curve(hi)
    if y_hi > y_start + SOLVER_ABS:
        raise GeometryError("curve must be non-increasing on the bracket")

    def g(x):
        return math.hypot(x - x_start, curve(x) - y_start) - chord

    glo = -chord                                # g(lo) = hypot(0, 0) - chord
    ghi = math.hypot(hi - x_start, y_hi - y_start) - chord
    m = _MARGIN * (abs(x_start) + chord + max(abs(y_start), abs(y_hi)))
    lo, hi = _replay_bisection(g, lo, hi, glo, ghi, m)
    return 0.5 * (lo + hi)


# A cell-list axis has at most _MAX_CELLS + 1 cells, so the key
# qx * _KEY_STRIDE + qy fits in int64 for any finite coordinates and any
# cutoff; a coarser cell only adds candidates.  qy never reaches
# _KEY_STRIDE - 1, so the offset (1, -1) cannot alias a real cell.
_MAX_CELLS = 1 << 24
_KEY_STRIDE = _MAX_CELLS + 2
# A cell meets itself and its half-shell, so each pair of adjacent cells is
# visited once.
_HALF_SHELL = tuple(dx * _KEY_STRIDE + dy
                    for dx, dy in ((0, 1), (1, -1), (1, 0), (1, 1)))


def near_pairs(centers, cutoff: float
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair of (n, 2) centers within distance cutoff, by a cell list.

    Returns arrays (i, j, d) holding each pair with i < j and d <= cutoff,
    sorted by (i, j), where d = sqrt(dx*dx + dy*dy) and (dx, dy) =
    centers[i] - centers[j].  Cells are a hair wider than the cutoff, so two
    points within it lie in the same or adjacent cells despite rounding.
    Cell indices are taken at half scale, where no difference of finite
    coordinates overflows.  Cost is O(n + candidate pairs).
    """
    if not cutoff > 0:
        raise GeometryError("cutoff must be positive")
    c = np.asarray(centers, dtype=float)
    if c.shape[1:] != (2,):
        raise GeometryError("centers of shape %s are not (n, 2)" % (c.shape,))
    if len(c) < 2:
        return np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0)
    h = c * 0.5
    h -= h.min(axis=0)
    side = max(0.5 * cutoff * (1.0 + 1e-6), float(h.max()) / _MAX_CELLS,
               1e-300)
    q = np.floor(h / side).astype(np.int64)
    key = q[:, 0] * _KEY_STRIDE + q[:, 1]
    order = np.argsort(key, kind="stable")
    cells, start, count = np.unique(key[order], return_index=True,
                                    return_counts=True)
    # (first slot, size) in sorted order of both cells of each cell pair
    a0, na, b0, nb = [start], [count], [start], [count]
    for off in _HALF_SHELL:
        pos = np.searchsorted(cells, cells + off)
        hit = cells[np.minimum(pos, len(cells) - 1)] == cells + off
        a0.append(start[hit])
        na.append(count[hit])
        b0.append(start[pos[hit]])
        nb.append(count[pos[hit]])
    a0, na, b0, nb = (np.concatenate(v) for v in (a0, na, b0, nb))
    m = na * nb
    group = np.repeat(np.arange(len(m)), m)
    k = np.arange(int(m.sum())) - np.repeat(np.cumsum(m) - m, m)
    sa = a0[group] + k // nb[group]
    sb = b0[group] + k % nb[group]
    # half-shell keys are larger, so only pairs within a cell can repeat
    keep = sa < sb
    i = order[sa[keep]]
    j = order[sb[keep]]
    i, j = np.minimum(i, j), np.maximum(i, j)
    dx = c[i, 0] - c[j, 0]
    dy = c[i, 1] - c[j, 1]
    with np.errstate(over="ignore"):  # inf is beyond any finite cutoff
        d = np.sqrt(dx * dx + dy * dy)
    near = d <= cutoff
    i, j, d = i[near], j[near], d[near]
    by_pair = np.lexsort((j, i))
    return i[by_pair], j[by_pair], d[by_pair]
