"""Independent stability certification: contact detection, per-disc jamming
verdicts from contact normals, and overlap auditing."""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .configuration import Configuration
from .geometry import ANGLE_SLACK, TANGENCY_REL, near_pairs

TWO_PI = 2.0 * math.pi
# a verdict's status, by its code in a JammingReport's status array
_STATUSES = ("jammed", "movable", "rattler")
_JAMMED, _MOVABLE, _RATTLER = range(3)
# the left, right, bottom and top walls' normals
_WALL_NORMALS = np.array([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)])


class OverlapError(ValueError):
    """Input configuration has penetrating discs; `report` is the audit."""

    def __init__(self, message: str, report: "OverlapReport"):
        super().__init__(message)
        self.report = report


@dataclass
class OverlapReport:
    """max_penetration is >= 0, and 0 when no pair is within contact
    range."""

    max_penetration: float
    pairs: list = field(default_factory=list)
    outside: list = field(default_factory=list)   # discs crossing a wall


@dataclass(eq=False)
class ContactGraph:
    """Tangency adjacency as owner-sorted arrays: disc k's contacts are rows
    ends[k]:ends[k + 1] of unit (normals pointing from the obstacle into the
    disc center), partner (the other disc, or -1 - w for wall w of left,
    right, bottom, top) and gap (d - 2r, or the wall distance - r); i and j
    are the disc-disc pairs, which pairs lists as (i, j) tuples when
    read."""

    unit: np.ndarray
    partner: np.ndarray
    gap: np.ndarray
    i: np.ndarray
    j: np.ndarray
    ends: np.ndarray

    @cached_property
    def pairs(self) -> list:
        return list(zip(self.i.tolist(), self.j.tolist()))


@dataclass(eq=False)
class JammingReport:
    """Per-disc verdicts as arrays in disc order: status (an index into
    _STATUSES), contacts (the contact count), witness (an (n, 2) array of
    escape directions whose jammed rows are NaN) and margin (pi - G for
    the largest normal gap G, with G = 2pi for a rattler), then the status
    counts, whether every disc is jammed and the graph they came from."""

    status: np.ndarray
    contacts: np.ndarray
    witness: np.ndarray
    margin: np.ndarray
    jammed_count: int
    movable_count: int
    rattler_count: int
    stable: bool
    graph: ContactGraph

    def names(self) -> list:
        """Each disc's status name, in disc order."""
        return list(map(_STATUSES.__getitem__, self.status.tolist()))

    def not_jammed(self, limit: int | None = None) -> list:
        """(index, witness) of the first limit discs not jammed, in order."""
        k = np.flatnonzero(self.status)[:limit]
        return list(zip(k.tolist(), map(tuple, self.witness[k].tolist())))


def _reach(r: float) -> float:
    """Contact range: every pair the verifier looks at lies within it.  It
    holds twice the tangency band, so a tangency the math.hypot test below
    accepts is never lost to the rounding of the cutoff."""
    return 2.0 * r * (1.0 + 2.0 * TANGENCY_REL)


def overlap_audit(config: Configuration, among=None) -> OverlapReport:
    """Penetrating disc pairs, from the pairs within contact range, and the
    discs that cross a wall.

    Penetration beyond 2r*TANGENCY_REL is a violation; pairs are listed as
    (i, j, distance) in (i, j) order.  max_penetration is the worst 2r - d,
    or 0.  A disc crossing a wall by more than r*TANGENCY_REL is listed in
    outside, by index.  Given among, a sequence of disc indices, only the
    pairs with an end in it are looked at, and max_penetration is theirs;
    outside still covers every disc.
    """
    return _audit(config, *near_pairs(config.centers, _reach(config.radius),
                                      among))


def _audit(config: Configuration, i, j, d) -> OverlapReport:
    """overlap_audit from the near_pairs arrays (i, j, d) at _reach, or at
    any larger cutoff: a pair beyond 2r neither penetrates nor raises
    max_penetration above 0."""
    r = config.radius
    left, right, bottom, top = config.walls
    slack = r * TANGENCY_REL
    x, y = config.centers.T
    out = ((x < left + r - slack) | (x > right - r + slack)
           | (y < bottom + r - slack) | (y > top - r + slack))
    outside = np.flatnonzero(out).tolist()
    pens = 2.0 * r - d
    viol = pens > 2.0 * r * TANGENCY_REL
    pairs = list(zip(i[viol].tolist(), j[viol].tolist(), d[viol].tolist()))
    return OverlapReport(float(np.max(pens, initial=0.0)), pairs, outside)


def check_valid(config: Configuration, audit: OverlapReport):
    """Refuse config, whose overlap_audit is audit: OverlapError names the
    first overlapping pair, else the first disc outside the box."""
    if audit.pairs:
        i, j, d = audit.pairs[0]
        raise OverlapError(
            "discs %d and %d overlap: distance %.17g < 2r, penetration %.3g"
            % (i, j, d, 2.0 * config.radius - d), audit)
    if audit.outside:
        raise OverlapError("disc %d lies outside the box"
                           % audit.outside[0], audit)


def contact_graph(config: Configuration) -> ContactGraph:
    """Tangency adjacency of a configuration, walls included.

    Disc-disc contacts use the relative tolerance |d - 2r| <= 2r*TANGENCY_REL
    so verdicts survive uniform scaling; wall contacts use gap <=
    r*TANGENCY_REL.  check_valid refuses invalid input first.  Candidate
    pairs come from near_pairs; each disc lists its normals by partner
    index, then its walls left, right, bottom, top.
    """
    c = config.centers
    r = config.radius
    near_i, near_j, near_d = near_pairs(c, _reach(r))
    check_valid(config, _audit(config, near_i, near_j, near_d))
    dx = c[near_i, 0] - c[near_j, 0]
    dy = c[near_i, 1] - c[near_j, 1]
    d = np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()), float, len(dx))
    touch = np.abs(d - 2.0 * r) <= 2.0 * r * TANGENCY_REL
    i, j, d = near_i[touch], near_j[touch], d[touch]
    u = np.column_stack((dx[touch] / d, dy[touch] / d))
    # math.hypot and -u give a pair loop's normals bit for bit.  Pairs come
    # sorted by (i, j), so a stable sort on the owner lists each disc's
    # lower partners, then its higher ones, then its walls left, right,
    # bottom, top (none in the plane, whose walls lie at infinity)
    left, right, bottom, top = config.walls
    x, y = c[:, 0], c[:, 1]
    off = np.column_stack((x - left, right - x, y - bottom, top - y)) - r
    at, k = np.nonzero(np.abs(off) <= r * TANGENCY_REL)
    parts = [(j, -u, i, d - 2.0 * r), (i, u, j, d - 2.0 * r),
             (at, _WALL_NORMALS[k], ~k, off[at, k])]
    owner, unit, partner, gap = map(np.concatenate, zip(*parts))
    order = np.argsort(owner, kind="stable")
    ends = np.cumsum(np.bincount(owner + 1, minlength=len(c) + 1))
    return ContactGraph(unit[order], partner[order], gap[order], i, j, ends)


def verify_stable(config: Configuration) -> JammingReport:
    """Per-disc jamming verdicts for a whole configuration, walls included.

    The configuration is stable iff no disc is movable or a rattler.
    """
    return _decide(contact_graph(config))


def _largest_gaps(a: np.ndarray, counts: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Each disc's largest circular gap G between its normal angles a, in
    [0, 2pi) and listed disc by disc, counts[k] >= 1 of them for disc k,
    and the angle G starts at.  The floats are those of a loop over each
    disc's sorted angles taking (a[k+1] - a[k]) % 2pi, with the larger start
    angle winning a tie; where every normal points one way, a half-plane is
    free and G is 2pi."""
    a = a[np.lexsort((a, np.repeat(np.arange(len(counts)), counts)))]
    first = np.cumsum(counts) - counts
    last = first + counts - 1
    # a within-disc difference lies in [0, 2pi), so it is its own % 2pi
    gaps = np.append(a[1:] - a[:-1], 0.0)
    gaps[last] = (a[first] - a[last]) % TWO_PI
    gaps[np.repeat(a[first] == a[last], counts)] = TWO_PI
    G = np.maximum.reduceat(gaps, first)
    # starts ascend within a disc, so the tie goes to its last maximal row
    top = np.flatnonzero(gaps == np.repeat(G, counts))
    return G, a[top[np.searchsorted(top, last, "right") - 1]]


def _decide(graph: ContactGraph) -> JammingReport:
    """Per-disc verdicts from an already built contact graph.

    A disc is jammed iff it has at least 3 normals and its margin pi - G,
    G its largest normal gap, exceeds ANGLE_SLACK; the feasible cone
    {d : d.n >= 0 for all n} is then {0}.  Otherwise it is movable, with
    the witness the (math.cos, math.sin) of the antipode of its largest
    gap's bisector, or a rattler, with the witness (1, 0), if it has no
    normals.  One _largest_gaps pass over every normal's np.arctan2 angle
    gives each disc's G, and so its margin, its status and its witness.
    """
    counts = np.diff(graph.ends)
    has = counts > 0
    a = np.arctan2(graph.unit[:, 1], graph.unit[:, 0]) % TWO_PI
    G, start = _largest_gaps(a, counts[has])
    margin = np.full(len(counts), -math.pi)
    margin[has] = math.pi - G
    free = (counts[has] < 3) | (margin[has] <= ANGLE_SLACK)
    w = ((start[free] + G[free] / 2.0 + math.pi) % TWO_PI).tolist()
    movable = np.flatnonzero(has)[free]
    status = np.where(has, _JAMMED, _RATTLER)
    status[movable] = _MOVABLE
    witness = np.full((len(counts), 2), np.nan)
    witness[~has] = (1.0, 0.0)
    witness[movable] = np.column_stack((list(map(math.cos, w)),
                                        list(map(math.sin, w))))
    tally = np.bincount(status, minlength=3).tolist()
    return JammingReport(status, counts, witness, margin, *tally,
                         tally[_JAMMED] == len(counts), graph)
