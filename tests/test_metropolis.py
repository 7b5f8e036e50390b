import itertools
import math

import numpy as np
import pytest

from jampack import metropolis
from jampack.configuration import Configuration
from jampack.construction import (assemble_square, five_disc_config,
                                  tiling_3_12_12)
from jampack.metropolis import (ChainParams, ChainStats, escape_experiment,
                                run_chain, shrink_radius)
from jampack.verifier import OverlapError


def _free_disc():
    return Configuration(0.1, [[0.5, 0.5]], (1.0, 1.0))


def test_params_validation():
    with pytest.raises(ValueError):
        ChainParams(steps=0, step_radius=0.1)
    for step_radius in (0.0, math.nan, True, "0.1", None, np.bool_(True),
                        10 ** 400, np.float64(-1.0)):
        with pytest.raises(ValueError, match="step_radius"):
            ChainParams(10, step_radius)
    for step_radius in (np.float32(0.1), np.int64(1), 1):
        params = ChainParams(10, step_radius)
        assert type(params.step_radius) is float
        assert params.step_radius == float(step_radius)
    for steps in (1.5, True, "10"):
        with pytest.raises(ValueError, match="steps"):
            ChainParams(steps, 0.1)
    for seed in (-1, 1.5, False, None):
        with pytest.raises(ValueError, match="seed"):
            ChainParams(10, 0.1, seed)


def test_single_free_disc_always_accepts():
    # 7 steps of size <= 0.05 cannot carry the disc from the center into a
    # wall, so geometry forces every acceptance
    _, stats = run_chain(_free_disc(), ChainParams(7, 0.05, seed=1))
    assert stats.accepted == 7
    assert stats.acceptance_rate == 1.0


def _full_scan_chain(config, params):
    """Reference chain: every proposal is tested against all n centres with
    numpy.  It draws the same deviate stream as run_chain, but in draws of
    65,536 rows, not one per RECORD_INTERVAL, so it also shows that how
    the stream is split into draws does not matter.  Returns the final
    centres, the accepted count, the acceptance trace and the first
    accepted (proposal index, disc), or None."""
    rng = np.random.default_rng(params.seed)
    c = config.centers.copy()
    n = len(c)
    r = config.radius
    accepted = 0
    trace = []
    first = None
    interval_accepted = 0
    done = 0
    while done < params.steps:
        m = min(65536, params.steps - done)
        for u in rng.random((m, 3)):
            i = min(int(u[0] * n), n - 1)
            ang = 2.0 * math.pi * u[1]
            rad = params.step_radius * math.sqrt(u[2])
            x = c[i, 0] + rad * math.cos(ang)
            y = c[i, 1] + rad * math.sin(ang)
            ok = True
            if config.box is not None:
                w, h = config.box
                if x < r or x > w - r or y < r or y > h - r:
                    ok = False
            if ok:
                d2 = (c[:, 0] - x) ** 2 + (c[:, 1] - y) ** 2
                d2[i] = math.inf
                ok = not np.min(d2) < 4.0 * r * r
            if ok:
                c[i] = x, y
                if first is None:
                    first = (done, i)
                accepted += 1
                interval_accepted += 1
            done += 1
            if done % metropolis.RECORD_INTERVAL == 0:
                trace.append(interval_accepted / metropolis.RECORD_INTERVAL)
                interval_accepted = 0
    return c, accepted, trace, first


@pytest.mark.parametrize("case", ["five-shrunk", "square-N4", "square-N32",
                                  "tiling"])
def test_run_chain_matches_full_scan_reference(case):
    # boxed and planar chains whose accepted moves cross grid cells; the
    # squares are run as the chain-fluid benchmark runs them
    if case == "five-shrunk":
        config = shrink_radius(five_disc_config(), 0.9)
        params = ChainParams(5000, config.radius, seed=4)
    elif case == "square-N4":
        config, _ = assemble_square(4)
        params = ChainParams(20000, config.radius, seed=7)
    elif case == "square-N32":
        config, _ = assemble_square(32)
        params = ChainParams(20000, config.radius, seed=1)
    else:
        config = shrink_radius(tiling_3_12_12(6), 0.9)
        params = ChainParams(20000, 0.5, seed=3)
    final, stats = run_chain(config, params)
    centers, accepted, trace, first = _full_scan_chain(config, params)
    assert stats.accepted == accepted > 0
    assert np.array_equal(final.centers, centers)
    assert stats.trace == trace
    assert stats.first_accepted == first


def test_offsets_match_the_scalar_formula():
    config, _ = assemble_square(4)
    grid = metropolis._Grid(config, config.radius)
    n = config.n
    edges = list(itertools.product([0.0, 1.0 - 2.0 ** -53], repeat=3))
    u = np.vstack((np.random.default_rng(5).random((10 ** 5, 3)), edges))
    expected = []
    for u0, u1, u2 in u.tolist():
        ang = 2.0 * math.pi * u1
        rad = config.radius * math.sqrt(u2)
        expected.append((min(int(u0 * n), n - 1),
                         (rad * math.cos(ang)).hex(),
                         (rad * math.sin(ang)).hex()))
    got = [(i, dx.hex(), dy.hex()) for i, dx, dy in grid.offsets(u)]
    assert got == expected
    assert got[-1][0] == n - 1


def _keep_grids(monkeypatch):
    """The _Grid of each run_chain call, in order."""
    grids = []
    real = metropolis._Grid

    def kept(*args):
        grids.append(real(*args))
        return grids[-1]
    monkeypatch.setattr(metropolis, "_Grid", kept)
    return grids


def test_block_lists_follow_the_moves(monkeypatch):
    grids = _keep_grids(monkeypatch)
    config, _ = assemble_square(4)
    final, _ = run_chain(config, ChainParams(20000, config.radius, seed=7))
    grid, = grids
    side = grid.side

    def cells(centers):
        return [(int(x // side), int(y // side)) for x, y in centers.tolist()]
    start, end = cells(config.centers), cells(final.centers)
    assert sum(a != b for a, b in zip(start, end)) > 10
    expected = {}
    for j, (kx, ky) in enumerate(end):
        for a in (-1, 0, 1):
            for b in (-1, 0, 1):
                key = (kx + a) * metropolis._STRIDE + ky + b
                expected.setdefault(key, set()).add(j)
    blocks = {key: v for key, v in grid.blocks.items() if v}
    assert {key: set(v) for key, v in blocks.items()} == expected
    assert all(len(v) == len(set(v)) for v in blocks.values())
    assert grid.keys == [kx * metropolis._STRIDE + ky for kx, ky in end]


def _touching_pair():
    # two touching discs that also touch the walls of a 4r x 2r box: every
    # small proposal pushes a disc into its neighbour or into a wall
    return Configuration(0.25, [[0.25, 0.25], [0.75, 0.25]], (1.0, 0.5))


def _quiet_case(case):
    if case == "five-0.999":
        config = shrink_radius(five_disc_config(), 0.999)
        return config, ChainParams(10 ** 5, config.radius, seed=5)
    if case == "five-0.99":
        config = shrink_radius(five_disc_config(), 0.99)
        return config, ChainParams(10 ** 5, config.radius, seed=5)
    if case == "pair-1e-12":
        config = _touching_pair()
        return config, ChainParams(10 ** 5, 1e-12 * config.radius, seed=2)
    if case == "five-1e-12":
        config = five_disc_config()
        return config, ChainParams(10 ** 5, 1e-12 * config.radius, seed=2)
    if case == "tiling-planar":
        config = shrink_radius(tiling_3_12_12(6), 0.999)
        return config, ChainParams(20000, 0.5 * config.radius, seed=3)
    config, _ = assemble_square(16)
    return config, ChainParams(20000, 0.0011 * config.radius, seed=3)


@pytest.mark.parametrize("case, accepts", [
    ("five-0.999", 1), ("five-0.99", 24), ("pair-1e-12", 0),
    ("tiling-planar", None), ("square-N16-0.0011", 0)])
def test_quiet_filter_matches_full_scan_reference(case, accepts):
    # quiet runs that end in an acceptance, a pair whose every proposal
    # lies inside the filter's margin, a planar chain, and a frozen square
    config, params = _quiet_case(case)
    final, stats = run_chain(config, params)
    centers, accepted, trace, first = _full_scan_chain(config, params)
    assert np.array_equal(final.centers, centers)
    assert stats.accepted == accepted
    assert stats.trace == trace
    assert stats.first_accepted == first
    if accepts is not None:
        assert accepted == accepts


@pytest.mark.parametrize("case", ["square-N4", "five-0.99", "five-0.975"])
def test_trace_boundaries_match_full_scan_reference(monkeypatch, case):
    # 997 divides neither the chunk nor the mask block, so trace boundaries
    # cut blocks at every offset, in both walking modes; at 0.975 a masked
    # block often holds more than one free proposal
    monkeypatch.setattr(metropolis, "RECORD_INTERVAL", 997)
    if case == "square-N4":
        config, _ = assemble_square(4)
        params = ChainParams(20000, config.radius, seed=7)
    elif case == "five-0.975":
        config = shrink_radius(five_disc_config(), 0.975)
        params = ChainParams(10 ** 5, config.radius, seed=5)
    else:
        config, params = _quiet_case(case)
    final, stats = run_chain(config, params)
    centers, accepted, trace, first = _full_scan_chain(config, params)
    assert len(trace) == params.steps // 997
    assert stats.trace == trace
    assert stats.first_accepted == first
    assert stats.accepted == accepted > 0
    assert np.array_equal(final.centers, centers)


def _count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counted(*args):
        calls.append(None)
        return real(*args)
    monkeypatch.setattr(owner, name, counted)
    return calls


def _count_walked(monkeypatch):
    """Sizes of the row lists handed to _Grid.walk, one entry per call."""
    sizes = []
    real = metropolis._Grid.walk

    def counted(grid, rows, moves, quiet):
        sizes.append(len(rows))
        return real(grid, rows, moves, quiet)
    monkeypatch.setattr(metropolis._Grid, "walk", counted)
    return sizes


def test_frozen_chain_rejects_in_bulk(monkeypatch):
    # the mask runs from the first proposal and shuts every one, so the
    # grid walks nothing and is never built
    config = five_disc_config()
    walked = _count_walked(monkeypatch)
    grids = _keep_grids(monkeypatch)
    params = ChainParams(10 ** 5, config.radius, seed=3)
    _, stats = run_chain(config, params)
    assert stats.accepted == 0
    assert sum(walked) == 0
    grid, = grids
    assert grid.blocks is None


@pytest.mark.parametrize("case, builds", [
    ("square-N4", 1), ("five", 0), ("square-N32-1e-5", 0)])
def test_grid_is_built_on_the_first_walk(monkeypatch, case, builds):
    # a fluid chain builds its block lists once; the two chain-frozen
    # benchmark chains never build them
    if case == "square-N4":
        config, _ = assemble_square(4)
        params = ChainParams(20000, config.radius, seed=7)
    elif case == "five":
        config = five_disc_config()
        params = ChainParams(30000, config.radius, seed=1)
    else:
        config, _ = assemble_square(32)
        params = ChainParams(20000, 1e-5 * config.radius, seed=1)
    indexed = _count_calls(monkeypatch, metropolis._Grid, "_index")
    grids = _keep_grids(monkeypatch)
    _, stats = run_chain(config, params)
    grid, = grids
    assert len(indexed) == builds
    assert (grid.blocks is None) == (builds == 0)
    assert (stats.accepted > 0) == (builds > 0)


@pytest.mark.parametrize("case", ["pair-1e-12", "five-1e-12"])
def test_proposals_inside_the_margin_go_to_the_grid(monkeypatch, case):
    # each proposal moves a disc by at most 1e-12 r into a wall or a
    # neighbour, well inside the margin, so the grid rule decides all of
    # them (the pair tests the wall margin, the five-disc centre disc the
    # neighbour margin)
    config, params = _quiet_case(case)
    walked = _count_walked(monkeypatch)
    _, stats = run_chain(config, params)
    assert stats.accepted == 0
    assert sum(walked) == params.steps


@pytest.mark.parametrize("case", ["frozen", "fluid"])
def test_every_record_interval_is_checked(monkeypatch, case):
    # 997 divides neither the chunk nor the mask block, so interval ends
    # cut blocks at every offset, and 70,000 leaves a partial last
    # interval.  The input is always checked, and an interval only if a
    # disc moved in it, so the frozen chain is checked once and the fluid
    # one, which accepts in every interval, once more per interval
    if case == "frozen":
        config = five_disc_config()
    else:
        config, _ = assemble_square(4)
    monkeypatch.setattr(metropolis, "RECORD_INTERVAL", 997)
    params = ChainParams(70000, config.radius, seed=1)
    calls = _count_calls(monkeypatch, metropolis, "check_valid")
    _, stats = run_chain(config, params)
    assert (stats.accepted == 0) == (case == "frozen")
    assert len(stats.trace) == params.steps // 997
    assert all(stats.trace) == (case == "fluid")
    assert len(calls) == (1 if case == "frozen" else params.steps // 997 + 2)


def _pass_one_overlap(monkeypatch, config, open_mask):
    """Patch the chain so that shut call number open_mask opens every row
    and the walk lets one overlapping proposal through.  Returns the lists
    the patches fill: the proposals walked at the bad move, and (proposals
    walked, shut calls) at each check_valid."""
    real_walk = metropolis._Grid.walk
    real_shut = metropolis._Grid.shut
    proposals, moves, checks, masks = [], [], [], []

    def shut(grid, u):
        masks.append(None)
        return real_shut(grid, u) & (len(masks) != open_mask)

    def walk(grid, rows, offsets, quiet):
        # the real walk, one proposal at a time; the first long move that
        # stays in the box is walked with the disc test switched off.
        # Every disc's hop floor is about 1.53r, so a move of r/2 that
        # stays in the box overlaps a disc
        hits = []
        for row, (i, dx, dy) in zip(rows, offsets):
            proposals.append(row)
            lo, hx, hy = grid.bounds
            x, y = grid.xs[i] + dx, grid.ys[i] + dy
            limit = grid.limit
            if not moves and lo <= x <= hx and lo <= y <= hy and math.hypot(
                    dx, dy) > 0.5 * config.radius:
                moves.append(len(proposals))
                grid.limit = 0.0
            hits += real_walk(grid, [row], [(i, dx, dy)], quiet)
            grid.limit = limit
            if quiet and hits:
                break
        return hits
    monkeypatch.setattr(metropolis._Grid, "walk", walk)
    monkeypatch.setattr(metropolis._Grid, "shut", shut)
    real_check = metropolis.check_valid

    def check(*args):
        checks.append((len(proposals), len(masks)))
        return real_check(*args)
    monkeypatch.setattr(metropolis, "check_valid", check)
    return moves, checks


def test_a_move_is_checked_at_the_next_boundary(monkeypatch):
    # a grid that wrongly accepts one overlapping proposal early in a
    # frozen chain is refused at the first interval boundary after the
    # move, not at the end of the chain.  The first mask is all open, so
    # the early proposals reach the walk
    config = five_disc_config()
    monkeypatch.setattr(metropolis, "RECORD_INTERVAL", 997)
    moves, checks = _pass_one_overlap(monkeypatch, config, 1)
    with pytest.raises(OverlapError, match="overlap"):
        run_chain(config, ChainParams(70000, config.radius, seed=1))
    assert moves and moves[0] < 10
    # checks hold (proposals walked, shut calls) at each check.  The one
    # open mask and the unmasked walk after the move take every proposal,
    # so the proposals walked are the chain's proposal count: the input,
    # then proposal 997
    assert checks == [(0, 0), (997, 1)]


def test_a_move_in_the_last_partial_interval_is_checked(monkeypatch):
    # as above, but the chain ends 500 proposals after its second
    # boundary, and only the third mask, the one over that partial last
    # interval, is open: the move is refused by the end-of-chain audit
    config = five_disc_config()
    monkeypatch.setattr(metropolis, "RECORD_INTERVAL", 997)
    moves, checks = _pass_one_overlap(monkeypatch, config, 3)
    with pytest.raises(OverlapError, match="overlap"):
        run_chain(config, ChainParams(2 * 997 + 500, config.radius, seed=1))
    assert moves and moves[0] < 10
    # one mask covers each 997-proposal interval of the frozen chain, and
    # the open one and the unmasked walk after the move take all 500
    assert checks == [(0, 0), (500, 3)]


def _static_free(config, i, dx, dy):
    """Whether disc i of config may move by (dx, dy), by the rule of
    _full_scan_chain: inside the box, and no other centre within 2r."""
    c = config.centers
    r = config.radius
    x = c[i, 0] + dx
    y = c[i, 1] + dy
    if config.box is not None:
        w, h = config.box
        if x < r or x > w - r or y < r or y > h - r:
            return False
    d2 = (c[:, 0] - x) ** 2 + (c[:, 1] - y) ** 2
    d2[i] = math.inf
    return not np.min(d2) < 4.0 * r * r


@pytest.mark.parametrize("case", ["five", "square-N8", "tiling"])
def test_quiet_filter_never_rejects_what_the_grid_accepts(case):
    # the mask's own soundness, on boxed and planar inputs; planar chains
    # of a few hundred discs are never quiet for 1024 proposals, so this is
    # where the mask meets a configuration without a box
    if case == "five":
        config = shrink_radius(five_disc_config(), 0.99)
        step = config.radius
    elif case == "square-N8":
        config, _ = assemble_square(8)
        step = config.radius
    else:
        config = shrink_radius(tiling_3_12_12(6), 0.999)
        step = 0.5 * config.radius
    grid = metropolis._Grid(config, step)
    u = np.random.default_rng(1).random((20000, 3))
    open_rows = set()
    k = 0
    while k < len(u):
        shut = grid.shut(u[k:])
        open_rows.update((k + np.flatnonzero(~shut)).tolist())
        k += len(shut)
    accepted = {row for row, (i, dx, dy) in enumerate(grid.offsets(u))
                if _static_free(config, i, dx, dy)}
    assert accepted
    assert accepted <= open_rows
    assert len(open_rows) < len(u)


def test_mask_follows_the_moves():
    # a table left from before a move would shut proposals that are free
    config = shrink_radius(five_disc_config(), 0.9)
    grid = metropolis._Grid(config, config.radius)
    u = np.random.default_rng(2).random((4000, 3))
    before = grid.shut(u)
    i, dx, dy = max(((i, dx, dy) for i, dx, dy in grid.offsets(u)
                     if _static_free(config, i, dx, dy)),
                    key=lambda m: math.hypot(m[1], m[2]))
    assert grid.walk([0], [(i, dx, dy)], True) == [(0, i)]
    after = grid.shut(u)
    moved = Configuration(config.radius, grid.centers(), config.box)
    fresh = metropolis._Grid(moved, config.radius).shut(u)
    assert np.array_equal(after, fresh)
    assert not np.array_equal(after, before)


def test_quiet_walk_stops_at_its_first_acceptance():
    config = shrink_radius(five_disc_config(), 0.9)
    u = np.random.default_rng(2).random((400, 3))
    grid = metropolis._Grid(config, config.radius)
    free = [(row, i) for row, (i, dx, dy) in enumerate(grid.offsets(u))
            if _static_free(config, i, dx, dy)]
    assert len(free) > 1
    assert grid.walk(range(len(u)), grid.offsets(u), True) == free[:1]
    loud = metropolis._Grid(config, config.radius)
    assert len(loud.walk(range(len(u)), loud.offsets(u), False)) > 1


def test_offsets_never_gets_an_empty_block(monkeypatch):
    sizes = []
    real = metropolis._Grid.offsets

    def recorded(grid, u):
        sizes.append(len(u))
        return real(grid, u)
    monkeypatch.setattr(metropolis._Grid, "offsets", recorded)
    # the two frozen chains shut every proposal and never reach offsets;
    # five-0.99 starts quiet, so its first offsets call is a masked block
    five = five_disc_config()
    square, _ = assemble_square(32)
    for config, params, accepts in [
            (five, ChainParams(30000, five.radius, seed=1), 0),
            (square, ChainParams(20000, 1e-5 * square.radius, seed=1), 0),
            (*_quiet_case("five-0.99"), 24)]:
        sizes.clear()
        _, stats = run_chain(config, params)
        assert stats.accepted == accepts
        assert bool(sizes) == bool(accepts)
        assert 0 not in sizes


def test_mask_covers_a_row_however_wide_the_table(monkeypatch):
    # with fewer filter entries than the table is wide, the mask still
    # covers a row, so a quiet chain keeps advancing
    monkeypatch.setattr(metropolis, "_FILTER_ENTRIES", 3)
    config = five_disc_config()
    grid = metropolis._Grid(config, config.radius)
    u = np.random.default_rng(1).random((100, 3))
    assert len(grid.shut(u)) >= 1
    assert len(grid.table[0]) > metropolis._FILTER_ENTRIES
    params = ChainParams(3000, config.radius, seed=1)
    final, stats = run_chain(config, params)
    centers, accepted, trace, first = _full_scan_chain(config, params)
    assert stats.accepted == accepted
    assert stats.first_accepted == first
    assert np.array_equal(final.centers, centers)


def test_cell_keys_stay_exact_far_from_the_origin():
    # at x = 1e11 the cell index is about 5e13, so a key is about 5e19,
    # past any 64-bit integer; Python ints keep every key distinct
    r = 1e-3
    config = Configuration(r, [[1e11 + 2.02 * r * k, 0.0] for k in range(6)])
    params = ChainParams(20000, 0.9 * r, seed=1)
    final, stats = run_chain(config, params)
    centers, accepted, trace, first = _full_scan_chain(config, params)
    assert stats.accepted == accepted == 19920
    assert stats.first_accepted == first
    assert np.array_equal(final.centers, centers)


def test_chain_determinism_same_seed():
    config = shrink_radius(five_disc_config(), 0.9)
    params = ChainParams(2000, config.radius, seed=777)
    f1, s1 = run_chain(config, params)
    f2, s2 = run_chain(config, params)
    assert np.array_equal(f1.centers, f2.centers)
    assert s1.accepted == s2.accepted


def test_invalid_input_rejected():
    bad = Configuration(1.0, [[0.0, 0.0], [1.5, 0.0]])
    with pytest.raises(ValueError):
        run_chain(bad, ChainParams(10, 0.5))


def test_disc_outside_box_rejected():
    outside = Configuration(0.1, [[0.05, 0.5], [0.5, 0.5]], (1.0, 1.0))
    with pytest.raises(ValueError, match="disc 0 lies outside the box"):
        run_chain(outside, ChainParams(10, 0.05))


def test_five_disc_chain_is_frozen():
    config = five_disc_config()
    _, stats = run_chain(config, ChainParams(100000, config.radius, seed=3))
    assert stats.accepted == 0
    assert stats.max_center_displacement == 0.0


def test_square_assembly_admits_finite_hops():
    # discs with near-collinear contact pairs can jump past their neighbors
    # when the proposal radius equals the disc radius, even though every
    # disc is jammed against infinitesimal motion
    config, _ = assemble_square(4)
    _, stats = run_chain(config, ChainParams(2000, config.radius, seed=7))
    assert stats.accepted > 0


def test_shrink_radius():
    config = five_disc_config()
    assert shrink_radius(config, 1.0).radius == config.radius
    shrunk = shrink_radius(config, 0.99)
    assert shrunk.radius == pytest.approx(0.99 * config.radius)
    assert np.array_equal(shrunk.centers, config.centers)
    with pytest.raises(ValueError):
        shrink_radius(config, 0.0)
    with pytest.raises(ValueError):
        shrink_radius(config, 1.5)


def test_escape_experiment_table():
    config = five_disc_config()
    params = ChainParams(20000, config.radius, seed=11)
    table = escape_experiment(config, [1.0, 0.95], params)
    assert set(table) == {1.0, 0.95}
    assert table[1.0].accepted == 0
    assert table[0.95].accepted > 0
    assert isinstance(table[0.95], ChainStats)


def test_validity_preserved_along_chain():
    from jampack.verifier import overlap_audit
    config = shrink_radius(five_disc_config(), 0.9)
    final, stats = run_chain(config, ChainParams(5000, config.radius, seed=2))
    assert stats.accepted > 0
    assert overlap_audit(final).pairs == []
    r = final.radius
    assert np.all(final.centers >= r - 1e-12)
    assert np.all(final.centers <= 1.0 - r + 1e-12)
