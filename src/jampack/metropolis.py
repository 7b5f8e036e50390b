"""Hard-disc Metropolis chain: single-disc uniform proposals inside a small
disc, accepted only when the move keeps the configuration valid."""

import math
from dataclasses import dataclass, field

import numpy as np

from .configuration import Configuration, _number
from .geometry import near_pairs
from .verifier import check_valid, overlap_audit

RNG_ALGORITHM = "numpy-pcg64"

# Grid cell (kx, ky) has key kx * _STRIDE + ky.  The key is linear in the
# cell, so the 3x3 block around a key is a fixed set of offsets; cells whose
# keys collide share a list, which adds candidates but never hides one.
_STRIDE = 1 << 20
_BLOCK = tuple(a * _STRIDE + b for a in (-1, 0, 1) for b in (-1, 0, 1))

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
    rng_algorithm: str = RNG_ALGORITHM


class _Grid:
    """Cell list over the disc centres, so that a proposal is tested against
    the discs near it rather than against all n.

    Cells have side a hair above 2r, so every disc within 2r of a point lies
    in the 3x3 block of cells around it (the margin absorbs the rounding of
    the distance test and of the cell index); blocks maps a cell's key to
    the discs of its block, and keys holds each disc's own cell key, as
    exact Python ints; both are built by the first walk, if any.
    Centres are kept as Python floats; walk's accept rule does the same
    float operations as a scan of the full centre array, and its verdict
    does not depend on the order of the neighbours, so trajectories do not
    depend on the cell layout.

    shut rejects runs of proposals in bulk against a table of each disc's
    neighbours within 2r + step_radius.  The table is built on the first
    shut after an accepted move, which drops it.
    """

    def __init__(self, config: Configuration, step_radius: float):
        self.radius = r = config.radius
        self.step_radius = step_radius
        self.xs = config.centers[:, 0].tolist()
        self.ys = config.centers[:, 1].tolist()
        self.side = 2.0 * r * (1.0 + 1e-6)
        self.limit = 4.0 * r * r
        # a target is inside when lo <= x <= hx and lo <= y <= hy
        w, h = (math.inf, math.inf) if config.box is None else config.box
        self.bounds = (-math.inf if config.box is None else r, w - r, h - r)
        self.blocks = None
        self.table = None

    def _index(self):
        floor, side = math.floor, self.side
        self.keys = [floor(x // side) * _STRIDE + floor(y // side)
                     for x, y in zip(self.xs, self.ys)]
        self.blocks = {}
        for i, key in enumerate(self.keys):
            for off in _BLOCK:
                self.blocks.setdefault(key + off, []).append(i)

    def _polar(self, u: np.ndarray):
        """Disc index, angle and length of the displacement for each row of
        three uniform deviates: the displacement is uniform in the disc of
        radius step_radius via polar inversion."""
        n = len(self.xs)
        return (np.minimum((u[:, 0] * n).astype(np.intp), n - 1),
                2.0 * math.pi * u[:, 1], self.step_radius * np.sqrt(u[:, 2]))

    def offsets(self, u: np.ndarray):
        """(disc, dx, dy) for each row of u.  The float operations are the
        scalar rule's, with libm's cos and sin, so disc i's target is
        exactly xs[i] + dx, ys[i] + dy."""
        i, ang, rad = self._polar(u)
        ang = ang.tolist()
        dx = rad * np.fromiter(map(math.cos, ang), float, len(ang))
        dy = rad * np.fromiter(map(math.sin, ang), float, len(ang))
        return zip(i.tolist(), dx.tolist(), dy.tolist())

    def walk(self, rows, moves, quiet: bool) -> list:
        """(row, disc) of each proposal, in order, that keeps the discs
        valid: moves gives (disc, dx, dy) per row, as offsets does, and the
        target is inside the box with no other centre within 2r.  Each
        acceptance moves its disc; a quiet walk stops at the first."""
        if self.blocks is None:
            self._index()
        xs, ys, keys, blocks = self.xs, self.ys, self.keys, self.blocks
        (lo, hx, hy), side, limit = self.bounds, self.side, self.limit
        floor = math.floor
        hits = []
        for row, (i, dx, dy) in zip(rows, moves):
            x = xs[i] + dx
            y = ys[i] + dy
            if x < lo or x > hx or y < lo or y > hy:
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
                    for off in _BLOCK:
                        blocks[old + off].remove(i)
                        blocks.setdefault(key + off, []).append(i)
                    keys[i] = key
                xs[i] = x
                ys[i] = y
                self.table = None
                hits.append((row, i))
                if quiet:
                    break
        return hits

    def shut(self, u: np.ndarray) -> np.ndarray:
        """Mask over the first rows of u, about _FILTER_ENTRIES (proposal,
        neighbour) entries but at least one row: true where walk surely
        rejects the proposal.

        The targets come from numpy's cos and sin, and a proposal is shut
        only when its target leaves the box, or comes within 2r of a
        neighbour, by more than a slack of 1e-9 r plus 2^-40 of the
        coordinate scale, far above any rounding difference from libm's.
        The mask never accepts: an open row is for walk to decide.
        """
        if self.table is None:
            self._tabulate()
        near, xs, ys, limit, (lo, hx, hy) = self.table
        i, ang, rad = self._polar(u[:_FILTER_ENTRIES // (len(near) or 1) or 1])
        x = xs[i] + rad * np.cos(ang)
        y = ys[i] + rad * np.sin(ang)
        near = near.take(i, axis=1)
        dx = xs.take(near)
        dx -= x
        dx *= dx
        dy = ys.take(near)
        dy -= y
        dy *= dy
        dx += dy
        return (np.any(dx < limit, axis=0)
                | (x < lo) | (x > hx) | (y < lo) | (y > hy))

    def _tabulate(self):
        c = self.centers()
        n = len(c)
        r = self.radius
        step = self.step_radius
        slack = 1e-9 * r + 2.0 ** -40 * (float(np.abs(c).max()) + step)
        lo, hx, hy = self.bounds
        # any disc a proposal can hit lies within 2r + step of the mover
        i, j, _ = near_pairs(c, (2.0 * r + step) * (1.0 + 1e-6))
        a = np.concatenate((i, j))
        b = np.concatenate((j, i))
        deg = np.bincount(a, minlength=n)
        order = np.argsort(a, kind="stable")
        a, b = a[order], b[order]
        slot = np.arange(len(a)) - (np.cumsum(deg) - deg)[a]
        # column i: i's neighbours, padded with n, a disc at infinity
        near = np.full((int(deg.max(initial=0)), n), n, np.intp)
        near[slot, a] = b
        self.table = (near, np.append(c[:, 0], math.inf),
                      np.append(c[:, 1], math.inf),
                      max(2.0 * r - slack, 0.0) ** 2,
                      (lo - slack, hx + slack, hy + slack))

    def centers(self) -> np.ndarray:
        return np.column_stack((self.xs, self.ys))


def run_chain(config: Configuration, params: ChainParams
              ) -> tuple[Configuration, ChainStats]:
    """Run the chain for params.steps proposals from a fresh seeded
    generator; deterministic in (config, params).

    check_valid refuses invalid input by its overlap_audit.  The chain
    then goes one RECORD_INTERVAL of proposals at a time, the last maybe
    partial: it draws their deviates, walks them in blocks, makes the
    trace entry if the interval is full and, only if a disc moved in it,
    audits the new state the same way.  A block is one _Grid.walk of the
    proposals _Grid.shut leaves open, up to the first acceptance, or of
    all of the chunk proposals after an acceptance.
    """
    if config.n == 0:
        raise ValueError("the chain needs at least one disc to move")
    check_valid(config, overlap_audit(config))
    rng = np.random.default_rng(params.seed)
    grid = _Grid(config, params.step_radius)
    accepted = 0
    first = None
    trace = []
    chunk = 1024  # proposals walked unmasked after each acceptance
    last = -chunk  # index of the last acceptance; the chain starts quiet
    for start in range(0, params.steps, RECORD_INTERVAL):
        u = rng.random((min(RECORD_INTERVAL, params.steps - start), 3))
        before = accepted
        k = 0  # proposals of this interval walked so far
        while k < len(u):
            b = u[k:]
            quiet = start + k - last >= chunk
            if quiet:
                shut = grid.shut(b)
                size = len(shut)
                rows = np.flatnonzero(~shut)
                rows, b = rows.tolist(), b[rows]
            else:
                size = min(len(b), chunk)
                rows, b = range(size), b[:size]
            hits = grid.walk(rows, grid.offsets(b), quiet) if rows else ()
            if hits:
                last = start + k + hits[-1][0]
                if first is None:
                    first = (start + k + hits[0][0], hits[0][1])
                accepted += len(hits)
                if quiet:
                    size = hits[0][0] + 1
            k += size
        if len(u) == RECORD_INTERVAL:
            trace.append((accepted - before) / RECORD_INTERVAL)
        if accepted > before:
            now = Configuration(config.radius, grid.centers(), config.box)
            check_valid(now, overlap_audit(now))
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
