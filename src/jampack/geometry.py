"""Planar primitives: the apex at distance 2 from two points and the
cell-list neighbour index that every all-pairs question goes through.

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
# Absolute tolerance of apex's distance tests and of closure tuning.
SOLVER_ABS = 1e-12
# Slack (radians) by which a disc's largest normal gap must fall short of pi
# for the disc to be called jammed.
ANGLE_SLACK = 1e-9


def apex(p: Point, q: Point) -> Point | None:
    """The larger-x point at distance 2 from both p and q, or None when
    they are more than 4 + SOLVER_ABS apart; within SOLVER_ABS of 4 apart,
    their midpoint.  A tie in x goes to the point right of p -> q, and
    coincident p and q are rejected."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    d = math.sqrt(dx * dx + dy * dy)
    if d <= SOLVER_ABS:
        raise GeometryError("coincident circle centers")
    if d > 4.0 + SOLVER_ABS:
        return None
    ux, uy = dx / d, dy / d
    a = d * d / (2.0 * d)       # the floats of (4 - 4 + d^2) / 2d, not d/2
    mx = p[0] + a * ux
    my = p[1] + a * uy
    if abs(d - 4.0) <= SOLVER_ABS:
        return mx, my
    h = math.sqrt(max(4.0 - a * a, 0.0))
    x1, x2 = mx + h * uy, mx - h * uy
    return (x2, my + h * ux) if x2 > x1 else (x1, my - h * ux)


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


def near_pairs(centers, cutoff: float, among=None
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair of (n, 2) centers within distance cutoff, by a cell list;
    given among, a sequence of indices, only the pairs with an end in it.

    Returns arrays (i, j, d) holding each pair with i < j and d <= cutoff,
    sorted by (i, j), where d = sqrt(dx*dx + dy*dy) and (dx, dy) =
    centers[i] - centers[j].  Cells are a hair wider than the cutoff, so two
    points within it lie in the same or adjacent cells despite rounding.
    Cell indices are taken at half scale, where no difference of finite
    coordinates overflows.  With among, the same cells and float operations
    give exactly the full call's rows with an end in among.  Cost is O(n +
    candidate pairs).
    """
    if not cutoff > 0:
        raise GeometryError("cutoff must be positive")
    c = np.asarray(centers, dtype=float)
    if c.shape[1:] != (2,):
        raise GeometryError("centers of shape %s are not (n, 2)" % (c.shape,))
    if len(c) < 2:
        return np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0)
    h = c * 0.5
    h -= (h[:, 0].min(), h[:, 1].min())  # 10x faster than h.min(axis=0)
    side = max(0.5 * cutoff * (1.0 + 1e-6), float(h.max()) / _MAX_CELLS,
               1e-300)
    q = np.floor(h / side).astype(np.int64)
    key = q[:, 0] * _KEY_STRIDE + q[:, 1]
    order = np.argsort(key, kind="stable")
    cells, start, count = np.unique(key[order], return_index=True,
                                    return_counts=True)
    # the cell pairs (ca, cb): each cell with itself and each cell of its
    # half-shell; with among, those with a cell that holds one of its
    # points, found from that cell both ways
    own, shell = np.arange(len(cells)), _HALF_SHELL
    if among is not None:
        held = np.zeros(len(cells), bool)
        held[np.searchsorted(cells, key[among])] = True
        own, shell = np.flatnonzero(held), shell + tuple(-o for o in shell)
    ca, cb, at = [own], [own], cells[own]
    for off in shell:
        pos = np.searchsorted(cells, at + off)
        hit = cells[np.minimum(pos, len(cells) - 1)] == at + off
        if off < 0:  # a pair of two held cells was found the other way
            hit[hit] = ~held[pos[hit]]
        ca.append(own[hit] if off > 0 else pos[hit])
        cb.append(pos[hit] if off > 0 else own[hit])
    ca, cb = np.concatenate(ca), np.concatenate(cb)
    del own, at  # peak memory comes later, with the point pairs
    na, nb = count[ca], count[cb]
    m = na * nb
    group = np.repeat(np.arange(len(m)), m)
    k = np.arange(int(m.sum())) - np.repeat(np.cumsum(m) - m, m)
    sa = start[ca][group] + k // nb[group]
    sb = start[cb][group] + k % nb[group]
    # half-shell keys are larger, so only pairs within a cell can repeat
    keep = sa < sb
    i = order[sa[keep]]
    j = order[sb[keep]]
    if among is not None:
        mine = np.zeros(len(c), bool)
        mine[among] = True
        i, j = i[mine[i] | mine[j]], j[mine[i] | mine[j]]
    i, j = np.minimum(i, j), np.maximum(i, j)
    dx = c[i, 0] - c[j, 0]
    dy = c[i, 1] - c[j, 1]
    with np.errstate(over="ignore"):  # inf is beyond any finite cutoff
        d = np.sqrt(dx * dx + dy * dy)
    near = d <= cutoff
    i, j, d = i[near], j[near], d[near]
    by_pair = np.lexsort((j, i))
    return i[by_pair], j[by_pair], d[by_pair]
