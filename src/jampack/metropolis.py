"""Hard-disc Metropolis chain: single-disc uniform proposals inside a small
disc, accepted only when the move keeps the configuration valid."""

import math
from dataclasses import dataclass, field

import numpy as np

from .configuration import Configuration, _number
from .geometry import near_pairs
from .verifier import _audit, check_valid, overlap_audit

RNG_ALGORITHM = "numpy-pcg64"

# Grid cell (kx, ky) has key kx * _STRIDE + ky.  The key is linear in the
# cell, so the 3x3 block around a key is a fixed set of offsets; cells whose
# keys collide share a list, which adds candidates but never hides one.
_STRIDE = 1 << 20
_BLOCK = tuple(a * _STRIDE + b for a in (-1, 0, 1) for b in (-1, 0, 1))
# A move by d = new key - old key leaves the lists at old + o, o in the first
# tuple, and enters those at new + o, o in the second; blocks that overlap
# (d of up to two cells each way) keep the lists they share.
_SHIFT = {d: (tuple(o for o in _BLOCK if o - d not in _BLOCK),
              tuple(o for o in _BLOCK if o + d not in _BLOCK))
          for d in {a - b for a in _BLOCK for b in _BLOCK}}

# _Grid.shut tests about this many (proposal, neighbour) entries at a
# time, which bounds its temporaries to about 1 MB for any table width.
_FILTER_ENTRIES = 1 << 14

# Proposals per draw, trace entry and audit; run_chain reads it per call.
RECORD_INTERVAL = 10000


@dataclass
class ChainParams:
    steps: int
    step_radius: float
    seed: int = 0

    def __post_init__(self):
        # type, not isinstance: a bool is an int, but True is not a count
        if type(self.steps) is not int or self.steps < 1:
            raise ValueError("steps must be an int of at least 1")
        self.step_radius = _number(self.step_radius, "step_radius")
        if not 0 < self.step_radius < math.inf:
            raise ValueError("step_radius must be a positive finite number")
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError("seed must be a non-negative int")


@dataclass
class ChainStats:
    proposed: int
    accepted: int
    acceptance_rate: float
    max_center_displacement: float
    trace: list = field(default_factory=list)
    # (0-based proposal index, disc moved) of the first acceptance, or None
    first_accepted: tuple[int, int] | None = None


class _Grid:
    """Cell list over the disc centres, so that a proposal is tested against
    the discs near it rather than against all n.

    Cells have side a hair above 2r, so every disc within 2r of a point lies
    in the 3x3 block of cells around it (the margin absorbs the rounding of
    the distance test and of the cell index); blocks maps a cell's key to
    the discs of its block, and keys holds each disc's own cell key, as
    exact Python ints; both are built by the first walk, if any, and a
    move then updates only the lists its disc leaves or enters.
    Centres are kept as Python floats; walk's accept rule does the same
    float operations as a scan of the full centre array, and its verdict
    does not depend on the order of the neighbours, so trajectories do not
    depend on the cell layout.

    The mask table near is built once, with the grid, from a near_pairs
    query whose cutoff lies above the verifier's contact range, so its rows
    also give the input's overlap audit: check_valid refuses invalid input.
    """

    def __init__(self, config: Configuration, params: ChainParams):
        r, s = config.radius, params.step_radius
        self.step_radius = s
        self.xs, self.ys = config.centers.T.tolist()
        n = len(self.xs)
        # numpy copies of xs and ys, then disc n at infinity to pad the table
        c = np.append(config.centers, [[math.inf, math.inf]], axis=0)
        self.cx, self.cy = c.T.copy()
        self.side = 2.0 * r * (1.0 + 1e-6)
        self.limit = 4.0 * r * r
        # a target is inside when lx <= x <= hx and ly <= y <= hy
        left, right, bottom, top = config.walls
        lx, hx, ly, hy = self.bounds = left + r, right - r, bottom + r, top - r
        self.blocks = None
        cut = (2.0 * r + min(s, 2.0 * r)) * (1.0 + 1e-6)
        i, j, d = near_pairs(config.centers, cut)
        check_valid(config, _audit(config, i, j, d))
        # bounds |x| and |y| of each target walk indexes (none off a box)
        reach = min(float(abs(c[:-1]).max()) + params.steps * s,
                    max(map(abs, config.walls)))
        if not math.isfinite(reach / self.side):
            raise ValueError("cells of side 2r at radius %r cannot index |x| "
                             "up to %r (step_radius %r)" % (r, reach, s))
        slack = 1e-9 * r + 2.0 ** -40 * (reach + s) + 2.0 ** -18 * s
        self.mask = (max(2.0 * r - slack, 0.0) ** 2, lx - slack, hx + slack,
                     ly - slack, hy + slack)
        a, b = np.concatenate((i, j)), np.concatenate((j, i))
        deg = np.bincount(a, minlength=n)
        order = np.argsort(a, kind="stable")
        a, b = a[order], b[order]
        slot = np.arange(len(a)) - (np.cumsum(deg) - deg)[a]
        # column i: i's neighbours, padded with n; one row even if none
        self.near = np.full((max(int(deg.max(initial=0)), 1), n), n, np.intp)
        self.near[slot, a] = b

    def _index(self):
        floor, side = math.floor, self.side
        self.keys = [floor(x // side) * _STRIDE + floor(y // side)
                     for x, y in zip(self.xs, self.ys)]
        self.blocks = {}
        for i, key in enumerate(self.keys):
            for off in _BLOCK:
                self.blocks.setdefault(key + off, []).append(i)

    def walk(self, u: np.ndarray) -> tuple[list, int]:
        """Walk the block that shut derives from the first rows of u.
        Returns the (row, disc) of each proposal, in order, that keeps the
        discs valid, and the block's length: the scalar rule's target
        xs[i] + rad * cos(ang), with libm's cos and sin, is inside the box
        with no other centre within 2r.  Each acceptance moves its disc.

        Up to the first acceptance only rows without a witness (see
        _witness) are tested.  After it every row is, but one whose disc and
        witness have not moved in this walk is rejected as it stands: its
        target and its witness are the floats shut judged.  Any other row
        with a witness still within 2r of its target is rejected by that.
        """
        disc, ang, rad, hit, near, out = self.shut(u)
        size = len(disc)
        rows = np.flatnonzero(~(hit.any(axis=0) | out)).tolist()
        if not rows:
            return [], size
        if self.blocks is None:
            self._index()
        disc, ang, rad = disc.tolist(), ang.tolist(), rad.tolist()
        wit = [-1] * size  # the rows tested before any move have none
        xs, ys, keys, blocks = self.xs, self.ys, self.keys, self.blocks
        (lx, hx, ly, hy), side, limit = self.bounds, self.side, self.limit
        floor, cos, sin, shift = math.floor, math.cos, math.sin, _SHIFT.get
        moved = set()
        hits = []
        while True:
            for row in rows:
                i = disc[row]
                w = wit[row]
                if w != -1 and i not in moved and w not in moved:
                    continue
                x = xs[i] + rad[row] * cos(ang[row])
                y = ys[i] + rad[row] * sin(ang[row])
                if x < lx or x > hx or y < ly or y > hy:
                    continue
                if w >= 0:
                    ex = xs[w] - x
                    ey = ys[w] - y
                    if ex * ex + ey * ey < limit:
                        continue
                key = floor(x // side) * _STRIDE + floor(y // side)
                for j in blocks.get(key, ()):
                    if j != i:
                        ex = xs[j] - x
                        ey = ys[j] - y
                        if ex * ex + ey * ey < limit:
                            break
                else:
                    old = keys[i]
                    if key != old:
                        leave, enter = shift(key - old, (_BLOCK, _BLOCK))
                        for off in leave:
                            blocks[old + off].remove(i)
                        for off in enter:
                            blocks.setdefault(key + off, []).append(i)
                        keys[i] = key
                    xs[i] = x
                    ys[i] = y
                    moved.add(i)
                    hits.append((row, i))
                    if len(hits) == 1:
                        break
            else:
                break
            rows = range(row + 1, size)
            wit = _witness(hit, near, out).tolist()  # a quiet block skips it
        m = list(moved)
        self.cx[m], self.cy[m] = [xs[j] for j in m], [ys[j] for j in m]
        return hits, size

    def shut(self, u: np.ndarray) -> tuple:
        """The block of the first rows of u, about _FILTER_ENTRIES
        (proposal, neighbour) entries but at least one row, and its tests:
        (disc, ang, rad, hit, near, out).  Row k moves disc[k] by rad[k] at
        angle ang[k]; column k of near lists disc[k]'s neighbours, hit marks
        those within 2r of its target and out marks a target off the box.
        The neighbours come from a table of each disc's within 2r +
        min(step_radius, 2r) when the grid was made, and it holds indices
        only: shut reads the centres from their numpy copies cx and cy, so
        an old or short table can miss a witness but never gives a wrong
        one, and walk tests every row without one.

        The targets take numpy's float32 cos and sin of the angle rounded
        to float32, and each test holds by more than a slack of 1e-9 r plus
        2^-40 (reach + step_radius) plus 2^-18 step_radius, fixed in mask
        when the grid is made; reach bounds every |x| and |y| the chain can
        reach.  Rounding an angle below 2pi to float32 moves it by at most
        2^-22, and the trig adds a few float32 ulps, so the direction is
        within 2^-20 of libm's (2^-21.7 at most over 10^7 angles); the slack
        covers that and any float64 rounding, so walk's target fails the
        same test while neither disc moves.
        """
        u = u[:_FILTER_ENTRIES // len(self.near) or 1]
        n, s = len(self.xs), self.step_radius
        # polar inversion: a displacement uniform in the disc of radius s
        i = np.minimum((u[:, 0] * n).astype(np.intp), n - 1)
        ang, rad = 2.0 * math.pi * u[:, 1], s * np.sqrt(u[:, 2])
        a32 = ang.astype(np.float32)
        x = self.cx[i] + rad * np.cos(a32)
        y = self.cy[i] + rad * np.sin(a32)
        near = self.near.take(i, axis=1)
        dx = self.cx.take(near)
        dx -= x
        dy = self.cy.take(near)
        dy -= y
        with np.errstate(over="ignore"):  # inf only off the box
            dx *= dx
            dy *= dy
            dx += dy
        limit, lx, hx, ly, hy = self.mask
        return (i, ang, rad, dx < limit, near,
                (x < lx) | (x > hx) | (y < ly) | (y > hy))

    def centers(self) -> np.ndarray:
        return np.column_stack((self.cx[:-1], self.cy[:-1]))


def _witness(hit, near, out) -> np.ndarray:
    """Witness of each row of a _Grid.shut: -2, the wall, where out marks
    it, else the neighbour of highest index that hit marks, else -1."""
    wit = ((near + 1) * hit).max(axis=0) - 1
    wit[out] = -2
    return wit


def run_chain(config: Configuration, params: ChainParams
              ) -> tuple[Configuration, ChainStats]:
    """Run the chain for params.steps proposals from a fresh seeded
    generator; deterministic in (config, params).

    _Grid refuses invalid input, by the overlap audit its mask table's
    near_pairs query gives (a pair beyond 2r changes no report), and a
    reach its cells cannot index.  The chain then walks one RECORD_INTERVAL
    of proposals at a time, the last maybe partial, in blocks, makes the
    trace entry if the interval is full and, only if a disc moved in it,
    checks the moved discs by overlap_audit: no pair of unmoved discs has
    changed since the last check, so that lists what a full audit would.
    """
    if config.n == 0:
        raise ValueError("the chain needs at least one disc to move")
    grid = _Grid(config, params)
    rng = np.random.default_rng(params.seed)
    accepted = 0
    first = None
    trace = []
    for start in range(0, params.steps, RECORD_INTERVAL):
        u = rng.random((min(RECORD_INTERVAL, params.steps - start), 3))
        before = accepted
        moved = set()
        k = 0  # proposals of this interval walked so far
        while k < len(u):
            hits, size = grid.walk(u[k:])
            if hits and first is None:
                first = (start + k + hits[0][0], hits[0][1])
            accepted += len(hits)
            moved.update(i for _, i in hits)
            k += size
        if len(u) == RECORD_INTERVAL:
            trace.append((accepted - before) / RECORD_INTERVAL)
        if moved:
            now = Configuration(config.radius, grid.centers(), config.box)
            check_valid(now, overlap_audit(now, list(moved)))
    final = Configuration(config.radius, grid.centers(), config.box,
                          dict(config.metadata))
    disp = float(np.max(np.hypot(*(final.centers - config.centers).T)))
    return final, ChainStats(params.steps, accepted, accepted / params.steps,
                             disp, trace, first)


def shrink_radius(config: Configuration, factor: float) -> Configuration:
    """Same centers, radius multiplied by factor in (0, 1]."""
    if not 0.0 < factor <= 1.0:
        raise ValueError("shrink factor must be in (0, 1]")
    return Configuration(config.radius * factor, config.centers.copy(),
                         config.box, dict(config.metadata))


def escape_experiment(config: Configuration, factors,
                      params: ChainParams) -> dict:
    """Run the chain from the same seed on copies of the configuration with
    the radius shrunk by each factor; returns {factor: ChainStats}."""
    table = {}
    for f in factors:
        shrunk = shrink_radius(config, f)
        _, stats = run_chain(shrunk, params)
        table[float(f)] = stats
    return table
