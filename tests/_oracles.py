"""Brute-force references that the tests check the package against, the
per-disc list views of a contact graph and of a jamming report that the
tests compare, and one-disc contact graphs for the verdict tests."""

import math
from dataclasses import dataclass

import numpy as np

from jampack.configuration import Configuration
from jampack.construction import (DEFAULT_EPS_HI, F_LIMIT, SQRT3,
                                  ConstructionError)
from jampack.geometry import ANGLE_SLACK, SOLVER_ABS, GeometryError, Point
from jampack.render import _COLORS, WIDTH_PX, _bounds
from jampack.verifier import _STATUSES, ContactGraph, _decide, contact_graph

TWO_PI = 2.0 * math.pi
WALLS = ("left", "right", "bottom", "top")   # wall w has partner -1 - w
# tune_epsilon's scan: 64 log-spaced epsilon over eight decades up to 50
PROBES = [DEFAULT_EPS_HI * 10.0 ** (-8.0 * (1.0 - k / 63.0))
          for k in range(64)]


def curve_eval(lam: float, eps: float, x: float) -> float:
    """Evaluate the perturbed curve f_eps(x) = (1+eps) f(x) - eps f(0) at
    x >= 0, where f(x) = 2 sqrt(3) + (2 - sqrt(3)) exp(-lam x)."""
    if x < 0:
        raise ConstructionError("curve is only defined for x >= 0")

    def f(x):
        return F_LIMIT + (2.0 - SQRT3) * math.exp(-lam * x)

    return (1.0 + eps) * f(x) - eps * f(0.0)


def _require_finite(*points: Point):
    for p in points:
        if not (math.isfinite(p[0]) and math.isfinite(p[1])):
            raise GeometryError("non-finite coordinate: %r" % (p,))


def circle_circle_intersections(c1: Point, r1: float, c2: Point, r2: float
                                ) -> list[Point]:
    """Intersection points of two circles: the general solver whose
    larger-x point at r1 = r2 = 2 the package's apex must return.

    Returns 2 points for proper crossing, 1 at (internal or external)
    tangency within SOLVER_ABS, 0 when disjoint.  Coincident centers
    are rejected.
    """
    _require_finite(c1, c2)
    if r1 <= 0 or r2 <= 0:
        raise GeometryError("radii must be positive")
    dx, dy = c2[0] - c1[0], c2[1] - c1[1]
    d = math.sqrt(dx * dx + dy * dy)
    if d <= SOLVER_ABS:
        raise GeometryError("coincident circle centers")
    outer = r1 + r2
    inner = abs(r1 - r2)
    if d > outer + SOLVER_ABS or d < inner - SOLVER_ABS:
        return []
    ux, uy = dx / d, dy / d
    a = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d)
    if abs(d - outer) <= SOLVER_ABS or abs(d - inner) <= SOLVER_ABS:
        return [(c1[0] + a * ux, c1[1] + a * uy)]
    h = math.sqrt(max(r1 * r1 - a * a, 0.0))
    mx = c1[0] + a * ux
    my = c1[1] + a * uy
    return [(mx + h * uy, my - h * ux), (mx - h * uy, my + h * ux)]


def plain_chord_step(curve, x_start: float, chord: float) -> float:
    """The smallest x > x_start at which (x, curve(x)) lies at the given
    chord from (x_start, curve(x_start)), by plain bisection of the bracket
    [x_start, x_start + chord] down to SOLVER_ABS, evaluating g at every
    midpoint: the reference the package's Newton chord step must fall
    within."""
    if chord <= 0:
        raise GeometryError("chord must be positive")
    y0 = curve(x_start)
    if not math.isfinite(y0):
        raise GeometryError("curve not finite at x_start")
    if curve(x_start + chord) > y0 + SOLVER_ABS:
        raise GeometryError("curve must be non-increasing on the bracket")

    def g(x):
        return math.hypot(x - x_start, curve(x) - y0) - chord

    lo, hi = x_start, x_start + chord
    glo = g(lo)
    while hi - lo > SOLVER_ABS:
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if glo * gm <= 0:
            hi = mid
        else:
            lo, glo = mid, gm
    return 0.5 * (lo + hi)


def plain_tune_epsilon(g):
    """tune_epsilon's scan, then plain bisection of the residual g,
    evaluating g at every midpoint: the reference that tune_epsilon's false
    position is checked against.  Returns epsilon* and the midpoints
    bisection visited."""
    prev = None
    for e in PROBES:
        ge = g(e)
        if prev is not None and prev[1] * ge < 0:
            lo, hi = prev[0], e
            break
        prev = (e, ge)
    else:
        raise ValueError("the residual changes sign nowhere in the scan")
    glo = g(lo)
    mids = []
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        mids.append(mid)
        gm = g(mid)
        if glo * gm <= 0:
            hi = mid
        else:
            lo, glo = mid, gm
        if hi - lo < 1e-16 * max(1.0, hi):
            break
    return min((lo, hi, 0.5 * (lo + hi)), key=lambda e: abs(g(e))), mids


def scaled(config: Configuration, factor: float) -> Configuration:
    """The configuration with centres, radius and box multiplied by factor."""
    box = None if config.box is None else (config.box[0] * factor,
                                           config.box[1] * factor)
    return Configuration(config.radius * factor, config.centers * factor,
                         box, dict(config.metadata))


def contact_lists(graph) -> tuple[list, list]:
    """Each disc's contact normals as (x, y) tuples and its walls by name,
    read from the graph's owner-sorted unit, partner and ends arrays."""
    ends = graph.ends.tolist()
    spans = list(zip(ends, ends[1:]))
    unit = list(map(tuple, graph.unit.tolist()))
    partner = graph.partner.tolist()
    return ([unit[a:b] for a, b in spans],
            [[WALLS[~p] for p in partner[a:b] if p < 0] for a, b in spans])


def open_sides(graph) -> list:
    """(disc, side) for each side, of WALLS, on which a disc has no obstacle
    strictly: no contact whose normal, which points from the obstacle into
    the disc, points strictly away from that side.  A stable configuration
    has none."""
    ends = graph.ends.tolist()
    unit = graph.unit.tolist()
    found = []
    for k, (a, b) in enumerate(zip(ends, ends[1:])):
        for side, (axis, sign) in zip(WALLS, ((0, 1), (0, -1), (1, 1),
                                              (1, -1))):
            if not any(sign * u[axis] > 0.0 for u in unit[a:b]):
                found.append((k, side))
    return found


def wall_to_wall_path(graph, axis: int) -> int | None:
    """Discs on the shortest contact path from a disc touching the left
    (axis 0) or bottom (axis 1) wall to one touching the opposite wall, by
    breadth-first search over partner; None if no path joins them."""
    ends = graph.ends.tolist()
    partner = graph.partner.tolist()
    rows = [partner[a:b] for a, b in zip(ends, ends[1:])]
    low, high = ~(2 * axis), ~(2 * axis + 1)
    frontier = [k for k, row in enumerate(rows) if low in row]
    seen = set(frontier)
    length = 1
    while frontier:
        if any(high in rows[k] for k in frontier):
            return length
        step = []
        for k in frontier:
            for p in rows[k]:
                if p >= 0 and p not in seen:
                    seen.add(p)
                    step.append(p)
        frontier, length = step, length + 1
    return None


def rigidity_matrix(graph) -> np.ndarray:
    """The contact network's first-order rigidity matrix, read from the
    graph's unit, partner and ends arrays: one row per contact (a disc
    pair once, from its higher disc, and each wall contact) over the 2n
    velocity components (x0, y0, x1, ...), holding the contact's unit
    normal at its disc's columns and, for a pair, the negated normal at
    the partner's.  R v = 0 exactly when the velocities v keep every
    contact distance fixed to first order."""
    n = len(graph.ends) - 1
    owner = np.repeat(np.arange(n), np.diff(graph.ends))
    keep = graph.partner < owner        # walls are negative
    unit, disc, partner = graph.unit[keep], owner[keep], graph.partner[keep]
    rows = np.arange(len(unit))
    R = np.zeros((len(unit), n, 2))
    R[rows, disc] = unit
    pair = partner >= 0
    R[rows[pair], partner[pair]] = -unit[pair]
    return R.reshape(len(unit), 2 * n)


def graph_of(discs) -> ContactGraph:
    """A ContactGraph whose disc k has the normals discs[k].  Verdicts read
    only unit and ends, so the pair arrays are empty and partner and gap
    are zero."""
    unit = np.array([n for normals in discs for n in normals], float)
    none = np.zeros(0, np.intp)
    return ContactGraph(unit.reshape(-1, 2), np.zeros(len(unit), np.intp),
                        np.zeros(len(unit)), none, none,
                        np.cumsum([0] + [len(normals) for normals in discs]))


@dataclass
class DiscVerdict:
    index: int
    status: str                      # 'jammed' | 'movable' | 'rattler'
    witness: tuple | None
    contact_count: int


def verdicts_of(report) -> list:
    """One DiscVerdict per disc of a JammingReport, read from its status,
    witness and contacts arrays; a jammed disc's witness is None."""
    status = [_STATUSES[s] for s in report.status.tolist()]
    witness = [None if s == "jammed" else tuple(w)
               for s, w in zip(status, report.witness.tolist())]
    return list(map(DiscVerdict, range(len(status)), status, witness,
                    report.contacts.tolist()))


def verdict_of(normals) -> DiscVerdict:
    """The package's verdict on one disc with these normals, from _decide
    on a one-disc contact graph."""
    return verdicts_of(_decide(graph_of([normals])))[0]


def _largest_gap(angles: list) -> tuple[float, float]:
    """(gap size, gap start angle); ties go to the largest start angle."""
    m = len(angles)
    best = (-1.0, 0.0)
    for k in range(m):
        start = angles[k]
        end = angles[(k + 1) % m]
        gap = (end - start) % TWO_PI
        if angles[0] == angles[-1]:   # one direction: a half-plane is free
            gap = TWO_PI
        if gap > best[0] or (gap == best[0] and start > best[1]):
            best = (gap, start)
    return best


def arctan2_angles(normals) -> list:
    """The normals' angles in [0, 2pi) by np.arctan2, the package's angle
    primitive; a normal's bits do not depend on its place in the array."""
    u = np.array(normals, float)
    return (np.arctan2(u[:, 1], u[:, 0]) % TWO_PI).tolist()


def math_atan2_angles(normals) -> list:
    """The normals' angles in [0, 2pi) by math.atan2: a second, independent
    angle primitive, for checking statuses only."""
    return [math.atan2(y, x) % TWO_PI for x, y in normals]


def is_locally_jammed(normals, angles=arctan2_angles) -> DiscVerdict:
    """Verdict for one disc from its contact normals, by a loop: the scalar
    rule whose floats the package's verdicts must equal bit for bit.

    Jammed iff there are at least 3 normals and the margin pi - G, G the
    largest circular gap between consecutive normal directions, read from
    angles(normals), exceeds ANGLE_SLACK; the feasible cone
    {d : d.n >= 0 for all n} is then {0}.  Otherwise movable with a
    witness direction in the feasible cone: the antipode of the largest
    gap's bisector, which bisects the cluster of normals.
    """
    if len(normals) == 0:
        return DiscVerdict(-1, "rattler", (1.0, 0.0), 0)
    gap, start = _largest_gap(sorted(angles(normals)))
    if len(normals) >= 3 and math.pi - gap > ANGLE_SLACK:
        return DiscVerdict(-1, "jammed", None, len(normals))
    witness_angle = (start + gap / 2.0 + math.pi) % TWO_PI
    witness = (math.cos(witness_angle), math.sin(witness_angle))
    return DiscVerdict(-1, "movable", witness, len(normals))


def direction_oracle(normals, K: int = 720) -> str:
    """Brute-force jamming check: scan K equally spaced directions and call
    the disc movable iff some direction clears every normal.  Test oracle
    for the package's verdicts."""
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


def tiling_loop(window_half_width: int) -> Configuration:
    """tiling_3_12_12 by a loop over every dodecagon and all twelve of its
    vertices, keeping the first point seen at each rounded position: the
    reference the package's one-owner broadcast must equal bit for bit."""
    W = 2.0 * window_half_width
    L = 2.0 * (2.0 + SQRT3)
    R = math.sqrt(6.0) + math.sqrt(2.0)
    verts = [(R * math.cos(math.radians(15.0 + 30.0 * k)),
              R * math.sin(math.radians(15.0 + 30.0 * k))) for k in range(12)]
    seen = set()
    pts = []
    row_h = L * SQRT3 / 2.0
    j_span = int((W + R) / row_h) + 2
    for j in range(-j_span, j_span + 1):
        gy = L / 4.0 + j * row_h
        shear = L / 4.0 + j * L / 2.0
        i_lo = int(math.floor((-W - R - shear) / L)) - 1
        i_hi = int(math.ceil((W + R - shear) / L)) + 1
        for i in range(i_lo, i_hi + 1):
            gx = shear + i * L
            for vx, vy in verts:
                x, y = gx + vx, gy + vy
                if abs(x) <= W and abs(y) <= W:
                    key = (round(x * 1e9), round(y * 1e9))
                    if key not in seen:
                        seen.add(key)
                        pts.append((x, y))
    meta = {"construction": "tiling-3.12.12",
            "window_half_width": window_half_width, "window": W}
    return Configuration(1.0, np.array(pts), None, meta)


def render_loop(config: Configuration, contacts: bool = False,
                color_verdicts: bool = False) -> str:
    """render_svg by a loop that formats every circle and contact line on
    its own, mapping each centre to pixels with Python floats and coloring
    from the scalar rule on each disc's normals: the reference whose bytes
    the package's one-format-per-coordinate drawing must equal."""
    x0, y0, x1, y1 = _bounds(config)
    span_x = max(x1 - x0, 1e-300)
    span_y = max(y1 - y0, 1e-300)
    s = WIDTH_PX / span_x
    height_px = span_y * s

    def px(x):
        return (x - x0) * s

    def py(y):
        return (y1 - y) * s

    lines = ['<svg xmlns="http://www.w3.org/2000/svg" width="%.2f" '
             'height="%.2f" viewBox="0 0 %.2f %.2f">'
             % (WIDTH_PX, height_px, WIDTH_PX, height_px)]
    if config.box is not None:
        lines.append('<rect x="0" y="0" width="%.2f" height="%.2f" '
                     'fill="none" stroke="black" stroke-width="1"/>'
                     % (WIDTH_PX, height_px))

    fills = ["#cccccc"] * config.n
    graph = None
    if contacts or color_verdicts:
        graph = contact_graph(config)
        if color_verdicts:
            fills = [_COLORS[is_locally_jammed(normals).status]
                     for normals in contact_lists(graph)[0]]

    pts = config.centers.tolist()
    for (x, y), fill in zip(pts, fills):
        lines.append('<circle cx="%.4f" cy="%.4f" r="%.4f" fill="%s" '
                     'stroke="black" stroke-width="0.5"/>'
                     % (px(x), py(y), config.radius * s, fill))
    if contacts and graph is not None:
        for i, j in graph.pairs:
            xi, yi = pts[i]
            xj, yj = pts[j]
            lines.append('<line x1="%.4f" y1="%.4f" x2="%.4f" y2="%.4f" '
                         'stroke="#208020" stroke-width="0.8"/>'
                         % (px(xi), py(yi), px(xj), py(yj)))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
