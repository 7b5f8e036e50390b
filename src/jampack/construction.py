"""Constructions of sparse stable disc configurations.

Contains the perturbed-curve bridge chain, its symmetric planar completion,
the six-disc corner junction, the stable square assembled from it with
wall-resting half bridges, the five-disc square configuration, and the
truncated-hexagonal (3.12.12) tiling configuration.
"""

import math
from dataclasses import dataclass

import numpy as np

from .configuration import Configuration, _number
from .geometry import ANGLE_SLACK, SOLVER_ABS, TANGENCY_REL, apex

SQRT3 = math.sqrt(3.0)
F_LIMIT = 2.0 * SQRT3          # asymptote of f
F0 = F_LIMIT + (2.0 - SQRT3)   # f(0), where every chain starts

DEFAULT_LAMBDA = 0.05
DEFAULT_EPS_HI = 50.0


class ConstructionError(ValueError):
    """A construction precondition or postcondition failed."""


class TuningError(ConstructionError):
    """Closure tuning could not bracket a root."""


class AssemblyError(ConstructionError):
    """Square assembly produced an invalid or unstable configuration."""


@dataclass
class BridgeChain:
    """The rows a (on the curve), b and c (on the axis), N = len(b), the
    curve's epsilon_used, the mirror line l at x(b_N), and terminated_at,
    the (reason, row) where growth stopped early, or None."""

    a: list
    b: list
    c: list
    N: int
    epsilon_used: float
    mirror_x: float
    terminated_at: tuple | None = None


def chord_step(one: float, e0: float, lam: float, ax: float, ay: float
               ) -> tuple[float, float]:
    """The point (x, f_eps(x)) of the curve at chord 2 beyond a = (ax, ay),
    where f_eps(x) = one (F_LIMIT + (2 - sqrt 3) exp(-lam x)) - e0: three
    Newton steps on (x - ax)^2 + (f_eps(x) - ay)^2 = 4 from the point at
    chord 2 along the tangent at a.

    Its floats are _scan_residuals' step, operation for operation, so the
    scan's residuals are _closure_residual's bit for bit: np.exp in both
    (math.exp differs from it in the last bit on a few percent of
    arguments) and products, not powers.  A chord outside the verifier's
    contact band, or NaN, is refused.
    """
    k = 2.0 - SQRT3
    slope = -one * k * lam * float(np.exp(-lam * ax))
    x = ax + 2.0 / math.sqrt(1.0 + slope * slope)
    for _ in range(3):
        t = one * k * float(np.exp(-lam * x))
        u = x - ax
        dy = one * F_LIMIT + t - e0 - ay
        h = u * u + dy * dy - 4.0
        x = x - h / (2.0 * u - 2.0 * dy * lam * t)
    y = one * (F_LIMIT + k * float(np.exp(-lam * x))) - e0
    d = math.sqrt((x - ax) * (x - ax) + (y - ay) * (y - ay))
    if not abs(d - 2.0) <= 2.0 * TANGENCY_REL:
        raise ConstructionError("chord step from x=%r ends at chord %r, "
                                "not 2" % (ax, d))
    return x, y


def build_half_chain(lam: float, epsilon: float, max_N: int
                     ) -> BridgeChain:
    """Grow the chain a_1 = (0, 2+sqrt(3)), b_1 = (0, sqrt(3)), c_1 = (1, 0)
    on the curve f_eps(x) = (1+eps) f(x) - eps f(0), where f(x) = 2 sqrt(3)
    + (2 - sqrt(3)) exp(-lam x), until max_N rows of b exist or the
    recursion terminates.

    Each step advances a by a chord of length 2 along the curve
    (chord_step), places b_{i+1} at the larger-x point at distance 2 from
    a_{i+1} and c_i (apex), and drops c_{i+1} onto the axis tangent to
    b_{i+1}.  Termination reasons: 'no_b' when a_{i+1} is farther than 4
    from c_i, 'no_c' when b_{i+1} rises above height 2.
    """
    if max_N < 2:
        raise ConstructionError("max_N must be at least 2")

    one = 1.0 + epsilon
    e0 = epsilon * F0
    a = [(0.0, one * F0 - e0)]
    b = [(0.0, SQRT3)]
    c = [(1.0, 0.0)]
    term = None
    for i in range(1, max_N):
        an = chord_step(one, e0, lam, *a[-1])
        bn = apex(an, c[-1])
        if bn is None:
            term = ("no_b", i + 1)
            break
        a.append(an)
        b.append(bn)
        if bn[1] > 2.0:
            term = ("no_c", i + 1)
            break
        c.append((bn[0] + math.sqrt(4.0 - bn[1] * bn[1]), 0.0))
    return BridgeChain(a, b, c, len(b), epsilon, b[-1][0], term)


def _closure_residual(lam: float, N: int, epsilon: float
                      ) -> tuple[float, BridgeChain]:
    """g(eps) = x(b_N) - x(a_N) - 1 and the chain it was read from; chains
    that terminate before N take the sign of the large-epsilon side.  A
    chain with a chord step that does not reach chord 2 is a TuningError
    naming N, lam and eps."""
    try:
        chain = build_half_chain(lam, epsilon, N)
    except ConstructionError as e:
        raise TuningError("closure tuning at N=%d, lam=%g reached eps=%.17g, "
                          "where the chain's chord step does not converge: "
                          "%s" % (N, lam, epsilon, e)) from None
    if chain.N < N:
        return 1.0, chain
    return chain.b[N - 1][0] - chain.a[N - 1][0] - 1.0, chain


def _scan_residuals(lam: float, N: int, eps: np.ndarray) -> np.ndarray:
    """_closure_residual at every epsilon of eps at once, bit for bit, from
    chains grown side by side in numpy with the float operations of
    chord_step and apex, or NaN where it raises for a chord that misses 2."""
    k = 2.0 - SQRT3
    one = 1.0 + eps
    e0 = eps * F0
    ax = np.zeros_like(eps)
    ay = one * F0 - e0
    cx = np.ones_like(eps)
    res = np.ones_like(eps)
    alive = np.ones(eps.shape, bool)
    steps = [(ax, ay, alive)]  # each a, and the chains alive to reach it
    with np.errstate(invalid="ignore", over="ignore"):
        for i in range(1, N):
            # a: chord_step
            slope = -one * k * lam * np.exp(-lam * ax)
            x = ax + 2.0 / np.sqrt(1.0 + slope * slope)
            for _ in range(3):
                t = one * k * np.exp(-lam * x)
                u = x - ax
                dy = one * F_LIMIT + t - e0 - ay
                h = u * u + dy * dy - 4.0
                x = x - h / (2.0 * u - 2.0 * dy * lam * t)
            ax, ay = x, one * (F_LIMIT + k * np.exp(-lam * x)) - e0
            steps.append((ax, ay, alive))
            # b: apex(a, c); chains cut short before depth N score +1
            dx, dy = cx - ax, -ay
            d = np.sqrt(dx * dx + dy * dy)
            ux, uy = dx / d, dy / d
            m = d * d / (2.0 * d)
            mx, my = ax + m * ux, ay + m * uy
            h = np.sqrt(np.maximum(4.0 - m * m, 0.0))
            x1, x2 = mx + h * uy, mx - h * uy
            bx = np.where(x2 > x1, x2, x1)
            by = np.where(x2 > x1, my + h * ux, my - h * ux)
            mid = np.abs(d - 4.0) <= SOLVER_ABS
            bx, by = np.where(mid, mx, bx), np.where(mid, my, by)
            stop = d > 4.0 + SOLVER_ABS                 # no_b
            if i + 1 < N:
                stop |= by > 2.0                        # no_c
            alive = alive & ~stop
            cx = bx + np.sqrt(4.0 - by * by)
    res[alive] = (bx - ax - 1.0)[alive]
    px, py, live = map(np.array, zip(*steps))
    dx, dy = px[1:] - px[:-1], py[1:] - py[:-1]
    miss = ~(np.abs(np.sqrt(dx * dx + dy * dy) - 2.0) <= 2.0 * TANGENCY_REL)
    res[(live[1:] & miss).any(axis=0)] = math.nan
    return res


def _false_position(g, x0, x1, f0, f1):
    """Illinois false position (Dowell and Jarratt, BIT 11, 1971) on the
    bracket x0, x1, where f0 = g(x0) and f1 = g(x1) differ in sign and x1
    is the newer end.  Each step evaluates g where the chord through the
    two ends meets zero; at the midpoint instead after two steps that each
    failed to halve the bracket, or if that point is not strictly inside.
    It becomes x1; the old x1 becomes x0 if their g differ in sign, else
    f0 is halved.  Stops at g = 0 or once no float lies strictly inside,
    and returns the evaluated point of least |g|.
    """
    best, slow = min((x0, f0), (x1, f1), key=lambda p: abs(p[1])), 0
    while best[1] != 0:
        lo, hi = min(x0, x1), max(x0, x1)
        x = x1 - f1 * (x1 - x0) / (f1 - f0)
        x = x if slow < 2 and lo < x < hi else 0.5 * (lo + hi)
        if not lo < x < hi:
            break
        fx = g(x)
        best = min(best, (x, fx), key=lambda p: abs(p[1]))
        if (fx < 0) == (f1 < 0):
            f0 *= 0.5
        else:
            x0, f0 = x1, f1
        x1, f1 = x, fx
        slow = slow + 1 if abs(x1 - x0) > 0.5 * (hi - lo) else 0
    return best[0]


def tune_epsilon(N: int, lam: float = DEFAULT_LAMBDA) -> BridgeChain:
    """The chain closing the bridge at depth N, x(b_N) - x(a_N) = 1, grown
    on the curve of shape lam at epsilon* = its epsilon_used.

    Scans 64 log-spaced epsilon values over eight decades up to
    DEFAULT_EPS_HI for the first sign change of the closure residual g,
    read from _scan_residuals, then closes the bracket by _false_position,
    which starts from the scan's residuals at the bracket ends.  Each chain
    is built once per call; the one returned is the chain g was read from
    at epsilon*.
    """
    lam = _number(lam, "lam")
    if not 0 < lam < math.inf:
        raise ConstructionError("shape parameter lam must be positive and "
                                "finite")
    if N < 2:
        raise ConstructionError("N must be at least 2")

    closures = {}

    def g(eps):
        if eps not in closures:
            closures[eps] = _closure_residual(lam, N, eps)
        return closures[eps][0]

    probes = [DEFAULT_EPS_HI * 10.0 ** (-8.0 * (1.0 - k / 63.0))
              for k in range(64)]
    fast = _scan_residuals(lam, N, np.array(probes)).tolist()
    bracket = next(((lo, hi, glo, ghi) for lo, hi, glo, ghi
                    in zip(probes, probes[1:], fast, fast[1:])
                    if glo * ghi < 0), None)
    missed = [p for p, f in zip(probes, fast) if f != f]
    if missed and (bracket is None or missed[0] <= bracket[1]):
        g(missed[0])  # raises the chord step's TuningError
    if bracket is None:
        raise TuningError(
            "no closure bracket for N=%d, lam=%g with eps_hi=%g: the "
            "residual changes sign nowhere in the scan; the last probe "
            "eps=%.6g has residual %.3g"
            % (N, lam, DEFAULT_EPS_HI, probes[-1], fast[-1]))

    eps_star = _false_position(g, *bracket)
    if abs(g(eps_star)) > 10.0 * SOLVER_ABS:
        raise TuningError(
            "closure residual %.3g exceeds tolerance at N=%d, lam=%g, "
            "eps*=%.17g" % (g(eps_star), N, lam, eps_star))
    return closures[eps_star][1]


def _check_tuned(chain: BridgeChain):
    res = chain.b[chain.N - 1][0] - chain.a[chain.N - 1][0] - 1.0
    if abs(res) > TANGENCY_REL:
        raise ConstructionError(
            "chain is not tuned: closure residual %.3g" % res)


def _half_rows(chain: BridgeChain) -> list:
    """The chain's discs a_1..a_N, b_1..b_N, c_1..c_(N-1), in that order."""
    N = chain.N
    return chain.a[:N] + chain.b[:N] + chain.c[:N - 1]


def _with_l_mirror(points: list, xl: float) -> list:
    """points, then their mirror images across the vertical line l at
    x = xl, leaving out the points that lie on l."""
    return points + [(2.0 * xl - p[0], p[1]) for p in points
                     if abs(p[0] - xl) > SOLVER_ABS]


def complete_symmetric_bridge(chain: BridgeChain) -> Configuration:
    """Mirror a tuned chain across the x-axis and across the vertical line l
    through b_N, producing the planar symmetric bridge of 10N - 4 unit discs;
    check_valid refuses a bridge whose discs overlap.
    """
    _check_tuned(chain)
    N = chain.N
    xl = chain.mirror_x
    half = _half_rows(chain)
    # x-axis mirror duplicates a and b rows; c sits on the axis
    full = half + [(p[0], -p[1]) for p in half if p[1] > 0.0]
    pts = _with_l_mirror(full, xl)
    if len(pts) != 10 * N - 4:
        raise ConstructionError(
            "bridge disc count %d, expected %d" % (len(pts), 10 * N - 4))
    meta = {"construction": "symmetric-bridge", "N": N,
            "epsilon": chain.epsilon_used, "mirror_x": xl}
    config = Configuration(1.0, np.array(pts), None, meta)
    from .verifier import check_valid, overlap_audit
    check_valid(config, overlap_audit(config))
    return config


# Corner piece in the frame where the container walls are x=-1 and y=-1.
_JUNCTION = [(0.0, 0.0), (0.0, 2.0), (2.0, 0.0),
             (2.0 + SQRT3, 1.0), (1.0, 2.0 + SQRT3),
             (1.0 + SQRT3, 1.0 + SQRT3)]

# Clamp discs that pin the junction fan and the adjacent bridge ends when
# the square is assembled: one on each wall, two along the diagonal flanks,
# and one on the diagonal itself.
_CLAMPS = [(2.0 + 2.0 * SQRT3, 0.0), (0.0, 2.0 + 2.0 * SQRT3),
           (3.0 + SQRT3, 1.0 + SQRT3), (1.0 + SQRT3, 3.0 + SQRT3),
           (3.0 + SQRT3, 3.0 + SQRT3)]

# Offset of the bridge seed from the corner along each wall: places b_1
# tangent to the wall clamp and a_1 tangent to the flank clamp.
_BRIDGE_OFFSET = 3.0 + 2.0 * SQRT3


def junction_piece() -> Configuration:
    """The six-disc corner junction, boxed with the corner walls tangent to
    its three wall-side discs."""
    pts = [(x + 1.0, y + 1.0) for x, y in _JUNCTION]
    meta = {"construction": "junction"}
    return Configuration(1.0, np.array(pts), (10.0, 10.0), meta)


def assemble_square(N: int, lam: float = DEFAULT_LAMBDA) -> Configuration:
    """The stable unit-square configuration: four corner clusters (junction
    plus clamp discs) and four wall bridges, scaled to [0,1]^2.  Its radius
    is the scale, and its metadata holds N, epsilon*, lam and the scale.

    The result is certified before return: zero overlap violations and
    zero movable discs under the verifier, otherwise AssemblyError.
    N must be at least 3: at N = 2 the bridge ends leave discs movable.
    """
    if N < 3:
        raise AssemblyError(
            "N=%d is too small: square assembly needs N >= 3, since at N=2 "
            "the bridges leave discs movable" % N)

    chain = tune_epsilon(N, lam)

    t = _BRIDGE_OFFSET
    xl = t + chain.mirror_x          # mirror line of the bottom bridge
    side = 2.0 * (xl + 1.0)          # walls at -1 and side - 1 (corner frame)
    cx = side / 2.0 - 1.0            # center of the square, corner frame

    # the c row rests on the wall, which replaces the x-axis mirror
    bridge_pts = [(p[0] + t, p[1]) for p in
                  _with_l_mirror(_half_rows(chain), chain.mirror_x)]
    cluster = _JUNCTION + _CLAMPS

    pts = []
    for x, y in cluster:
        pts.append((x, y))
        pts.append((2.0 * cx - x, y))
        pts.append((x, 2.0 * cx - y))
        pts.append((2.0 * cx - x, 2.0 * cx - y))
    for x, y in bridge_pts:
        pts.append((x, y))                      # bottom
        pts.append((y, x))                      # left
        pts.append((x, 2.0 * cx - y))           # top
        pts.append((2.0 * cx - y, x))           # right

    n_expected = 24 * N + 32
    if len(pts) != n_expected:
        raise AssemblyError(
            "assembled %d discs, expected %d" % (len(pts), n_expected))

    # corner frame (walls at -1 .. side-1) -> box frame (0 .. side),
    # then scale the side to 1
    scale = 1.0 / side
    centers = (np.array(pts) + 1.0) * scale
    meta = {"construction": "square", "layout": "wall-bridges",
            "N": chain.N, "epsilon": chain.epsilon_used, "lam": float(lam),
            "scale": scale}
    config = Configuration(scale, centers, (1.0, 1.0), meta)

    from .verifier import OverlapError, _decide, _not_jammed, contact_graph
    try:
        graph = contact_graph(config)
    except OverlapError as e:
        rep = e.report
        raise AssemblyError(
            "assembly has %d overlapping pairs, worst penetration %.3g; "
            "%d discs outside the box: %r"
            % (len(rep.pairs), rep.max_penetration, len(rep.outside),
               rep.outside[:5])) from e
    report = _decide(graph)
    if not report.stable:
        raise AssemblyError(
            "assembly is not stable: %d of %d discs are not jammed; minimum "
            "margin %.3g rad (jammed needs > ANGLE_SLACK = %g); first "
            "(index, escape direction): %r"
            % (config.n - report.jammed_count, config.n, report.margin.min(),
               ANGLE_SLACK, _not_jammed(report, 5)))
    return config


def five_disc_config() -> Configuration:
    """Five discs of radius (sqrt(2)-1)/2 in the unit square: one centered,
    four pinned into the corners, all tangencies closing the escape cones."""
    r = (math.sqrt(2.0) - 1.0) / 2.0
    pts = [(0.5, 0.5), (r, r), (1.0 - r, r), (r, 1.0 - r),
           (1.0 - r, 1.0 - r)]
    meta = {"construction": "five-disc"}
    return Configuration(r, np.array(pts), (1.0, 1.0), meta)


def tiling_3_12_12(window_half_width: int) -> Configuration:
    """Unit discs at the vertices of the truncated-hexagonal (3.12.12)
    tiling with edge length 2, clipped to a square window.

    window_half_width is measured in tiling edge lengths; the window is the
    square of half-width 2*window_half_width centered on the pattern.

    The dodecagons sit at (L/4 + j*L/2 + i*L, L/4 + j*row_h), and each
    vertex lies on the one edge two of them share.  It is emitted once, by
    the dodecagon first in (j, i) order: its vertices 11 and 0 face
    (j, i+1), 1 and 2 face (j+1, i), 3 and 4 face (j+1, i-1).  Discs come
    in (j, i, k) order.
    """
    if window_half_width < 2:
        raise ConstructionError("window_half_width must be at least 2")
    W = 2.0 * window_half_width
    L = 2.0 * (2.0 + SQRT3)              # dodecagon center spacing
    R = math.sqrt(6.0) + math.sqrt(2.0)  # dodecagon circumradius
    row_h = L * SQRT3 / 2.0
    own = (0, 1, 2, 3, 4, 11)
    vx = np.array([R * math.cos(math.radians(15.0 + 30.0 * k)) for k in own])
    vy = np.array([R * math.sin(math.radians(15.0 + 30.0 * k)) for k in own])
    rows = int((W + R) / row_h) + 2
    # A vertex's owner lies within R of it, so within R of the window.
    # Row j is shifted by j/2 + 1/4 columns, so one range |i| <= cols
    # holds every such dodecagon of every row |j| <= rows
    cols = int((W + R) / L) + rows // 2 + 3
    j = np.arange(-rows, rows + 1)[:, None, None]
    i = np.arange(-cols, cols + 1)[None, :, None]
    x = (L / 4.0 + j * L / 2.0) + i * L + vx
    y = np.broadcast_to(L / 4.0 + j * row_h + vy, x.shape)
    keep = (np.abs(x) <= W) & (np.abs(y) <= W)
    meta = {"construction": "tiling-3.12.12",
            "window_half_width": window_half_width, "window": W}
    return Configuration(1.0, np.column_stack((x[keep], y[keep])), None,
                         meta)


def density(config: Configuration, region: tuple[float, float, float, float]
            ) -> float:
    """Fraction of the rectangle (xmin, ymin, xmax, ymax) covered by discs,
    counting whole discs whose centers lie in the region."""
    xmin, ymin, xmax, ymax = region
    area = (xmax - xmin) * (ymax - ymin)
    if area <= 0:
        raise ConstructionError("region must have positive area")
    c = config.centers
    inside = np.sum((c[:, 0] >= xmin) & (c[:, 0] <= xmax) &
                    (c[:, 1] >= ymin) & (c[:, 1] <= ymax))
    return float(inside) * math.pi * config.radius ** 2 / area
