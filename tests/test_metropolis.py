import hashlib
import itertools
import math
import types
import warnings

import numpy as np
import pytest

from jampack import metropolis, verifier
from jampack.configuration import Configuration
from jampack.construction import (assemble_square, five_disc_config,
                                  tiling_3_12_12)
from jampack.metropolis import (ChainParams, ChainStats, escape_experiment,
                                run_chain, shrink_radius)
from jampack.verifier import OverlapError, overlap_audit


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
        config = assemble_square(4)
        params = ChainParams(20000, config.radius, seed=7)
    elif case == "square-N32":
        config = assemble_square(32)
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


def _targets(config, step, u):
    """(disc, dx, dy) of each row of deviates u by the formula of
    _full_scan_chain: disc i's target is its centre plus (dx, dy)."""
    n = config.n
    moves = []
    for u0, u1, u2 in u.tolist():
        ang = 2.0 * math.pi * u1
        rad = step * math.sqrt(u2)
        moves.append((min(int(u0 * n), n - 1), rad * math.cos(ang),
                      rad * math.sin(ang)))
    return moves


def _blocks(grid, u):
    """_Grid.shut's record of each block of u, block after block."""
    k = 0
    while k < len(u):
        block = grid.shut(u[k:])
        k += len(block[0])
        yield block


def test_offsets_match_the_scalar_formula():
    # the walk forms each target as centre + rad * cos(ang) with libm's cos
    # and sin, from the disc, angle and length of shut's block record,
    # which must be the scalar formula's floats
    config = assemble_square(4)
    grid = metropolis._Grid(config, ChainParams(10 ** 5, config.radius))
    n = config.n
    edges = list(itertools.product([0.0, 1.0 - 2.0 ** -53], repeat=3))
    u = np.vstack((np.random.default_rng(5).random((10 ** 5, 3)), edges))
    expected = [(min(int(u0 * n), n - 1), (2.0 * math.pi * u1).hex(),
                 (config.radius * math.sqrt(u2)).hex())
                for u0, u1, u2 in u.tolist()]
    i, ang, rad = (np.concatenate(a)
                   for a in zip(*(b[:3] for b in _blocks(grid, u))))
    got = [(i, a.hex(), r.hex())
           for i, a, r in zip(i.tolist(), ang.tolist(), rad.tolist())]
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


def _moving_case(case):
    if case == "square-N4":
        config = assemble_square(4)
        return config, ChainParams(20000, config.radius, seed=7)
    config = shrink_radius(tiling_3_12_12(10), 0.9)
    return config, ChainParams(20000, 1.0, seed=1)


def test_block_lists_follow_the_moves(monkeypatch):
    # a move updates only the block lists it leaves or enters, yet each
    # list ends as a fresh index of the final centres builds it, up to
    # order, on the N=4 square and on a shrunk tiling
    grids = _keep_grids(monkeypatch)
    for case, accepts in [("square-N4", 4543), ("tiling", 13825)]:
        config, params = _moving_case(case)
        final, stats = run_chain(config, params)
        grid = grids[-1]
        assert stats.accepted == accepts
        start, fresh = (metropolis._Grid(c, params)
                        for c in (config, final))
        start._index()
        fresh._index()
        assert sum(a != b for a, b in zip(start.keys, fresh.keys)) > 10
        assert grid.keys == fresh.keys
        assert {k: sorted(v) for k, v in grid.blocks.items() if v} == \
            fresh.blocks


def _skip_one_entry(monkeypatch, d, k):
    """Patch the shift table so that the first move by d skips the k-th
    block list it should enter."""
    real = metropolis._SHIFT
    leave, enter = real[d]
    done = []

    def get(key, default):
        if key != d or done:
            return real.get(key, default)
        done.append(key)
        return leave, enter[:k] + enter[k + 1:]
    monkeypatch.setattr(metropolis, "_SHIFT", types.SimpleNamespace(get=get))


def test_a_stale_block_list_fails_the_moved_disc_audit(monkeypatch):
    # a disc that misses one of the block lists it enters is invisible to
    # proposals in that block: on the N=4 square at step r, the first move
    # one cell down in x skips its second list, a later move overlaps the
    # disc, and the audit of the moved discs refuses the chain
    config, params = _moving_case("square-N4")
    audits = []
    real = metropolis.overlap_audit

    def audit(now, among):
        audits.append(among)
        return real(now, among)
    monkeypatch.setattr(metropolis, "overlap_audit", audit)
    _skip_one_entry(monkeypatch, -metropolis._STRIDE, 1)
    with pytest.raises(OverlapError, match="overlap"):
        run_chain(config, params)
    assert 0 < len(audits[-1]) < config.n


def test_the_n1024_trajectory_is_pinned(square1024):
    # the north-star square at its default step: 10^5 proposals give the
    # accepted count, first acceptance and final centres recorded before
    # the block upkeep and the moved-disc audit changed
    config = square1024
    final, stats = run_chain(config, ChainParams(10 ** 5, config.radius,
                                                 seed=7))
    assert (stats.accepted, stats.first_accepted) == (2880, (13, 3800))
    assert hashlib.sha256(final.centers.tobytes()).hexdigest() == (
        "2ba04da161960020b8cb2eae21220313e4b8bb9fa4d0d008b1c618229f5dcb29")


def _open_rows(monkeypatch):
    """A list that gets, for each block _Grid.shut derives, the count of
    its rows without a witness."""
    counts = []
    real = metropolis._Grid.shut

    def counted(grid, u):
        block = real(grid, u)
        hit, _, out = block[3:]
        counts.append(int(np.count_nonzero(~(hit.any(axis=0) | out))))
        return block
    monkeypatch.setattr(metropolis._Grid, "shut", counted)
    return counts


def test_a_quiet_walk_forms_no_witness(monkeypatch, square1024):
    # at half its hop floor (about 8.0e-8 r) the N=1024 square accepts
    # nothing, yet most of its blocks hold rows the mask cannot witness;
    # the walk tests those rows alone and never forms a block's witnesses,
    # which it needs only after an acceptance.  Nor do chain-frozen's two
    # chains form any
    config = square1024
    margin = verifier.verify_stable(config).margin.min()
    step = 0.5 * 4.0 * config.radius * math.sin(margin / 2.0)
    witnessed = _count_calls(monkeypatch, metropolis, "_witness")
    open_rows = _open_rows(monkeypatch)
    _, stats = run_chain(config, ChainParams(10 ** 5, step, seed=7))
    assert stats.accepted == 0
    assert len(open_rows) == 40
    assert sum(k > 0 for k in open_rows) >= 30
    five, square = five_disc_config(), assemble_square(32)
    for config, params in [
            (five, ChainParams(30000, five.radius, seed=1)),
            (square, ChainParams(20000, 1e-5 * square.radius, seed=1))]:
        _, stats = run_chain(config, params)
        assert stats.accepted == 0
    assert not witnessed


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: the file's positive contact gaps leave strips below "
    "the tangent hop floor, and seed 19 accepts at (67045, 14854)"))
def test_the_n1024_square_is_frozen_at_half_its_hop_floor(square1024):
    # below the hop floor 4r cos(G/2) no proposal should be accepted, so
    # the north-star chain at half the floor, as in
    # test_a_quiet_walk_forms_no_witness, accepts nothing at seed 19
    config = square1024
    margin = verifier.verify_stable(config).margin.min()
    step = 0.5 * 4.0 * config.radius * math.sin(margin / 2.0)
    _, stats = run_chain(config, ChainParams(10 ** 5, step, seed=19))
    assert stats.accepted == 0


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
    config = assemble_square(16)
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
    # cut blocks at every offset; at 0.975 a block often holds more than
    # one free proposal
    monkeypatch.setattr(metropolis, "RECORD_INTERVAL", 997)
    if case == "square-N4":
        config = assemble_square(4)
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
    """(rows handed in, block length) of each _Grid.walk call."""
    calls = []
    real = metropolis._Grid.walk

    def counted(grid, u):
        hits, size = real(grid, u)
        calls.append((len(u), size))
        return hits, size
    monkeypatch.setattr(metropolis._Grid, "walk", counted)
    return calls


def _count_targets(monkeypatch):
    """A list that gets one entry per target the scalar rule computes: the
    walk takes libm's cosine once per target."""
    calls = []
    real = math.cos

    def counted(a):
        calls.append(None)
        return real(a)
    monkeypatch.setattr(math, "cos", counted)
    return calls


def test_frozen_chain_rejects_in_bulk(monkeypatch):
    # the mask runs from the first proposal and witnesses every one, so no
    # target is computed and the grid is never built
    config = five_disc_config()
    walked = _count_walked(monkeypatch)
    grids = _keep_grids(monkeypatch)
    params = ChainParams(10 ** 5, config.radius, seed=3)
    targets = _count_targets(monkeypatch)
    _, stats = run_chain(config, params)
    monkeypatch.undo()
    assert stats.accepted == 0
    assert len(targets) == 0
    assert sum(size for _, size in walked) == params.steps
    grid, = grids
    assert grid.blocks is None


@pytest.mark.parametrize("case, builds", [
    ("square-N4", 1), ("five", 0), ("square-N32-1e-5", 0)])
def test_grid_is_built_on_the_first_walk(monkeypatch, case, builds):
    # a fluid chain builds its block lists once; the two chain-frozen
    # benchmark chains never build them
    if case == "square-N4":
        config = assemble_square(4)
        params = ChainParams(20000, config.radius, seed=7)
    elif case == "five":
        config = five_disc_config()
        params = ChainParams(30000, config.radius, seed=1)
    else:
        config = assemble_square(32)
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
    targets = _count_targets(monkeypatch)
    _, stats = run_chain(config, params)
    monkeypatch.undo()
    assert stats.accepted == 0
    assert len(targets) == params.steps


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
        config = assemble_square(4)
    monkeypatch.setattr(metropolis, "RECORD_INTERVAL", 997)
    params = ChainParams(70000, config.radius, seed=1)
    calls = _count_calls(monkeypatch, metropolis, "check_valid")
    _, stats = run_chain(config, params)
    assert (stats.accepted == 0) == (case == "frozen")
    assert len(stats.trace) == params.steps // 997
    assert all(stats.trace) == (case == "fluid")
    assert len(calls) == (1 if case == "frozen" else params.steps // 997 + 2)


def _pass_one_overlap(monkeypatch, config, after):
    """Patch the chain so that the walk lets one overlapping proposal
    through: the first move longer than r/2 that stays in the box, at or
    after proposal after.  Every disc's hop floor is about 1.53r, so such a
    move overlaps a disc.  Returns the lists the patches fill: the index
    of the bad move, and the proposals walked at each check_valid."""
    real_walk = metropolis._Grid.walk
    walked, moves, checks = [0], [], []

    def walk(grid, u):
        lx, hx, ly, hy = grid.bounds
        bad = [row for row, (i, dx, dy) in enumerate(
                   _targets(config, grid.step_radius, u))
               if lx <= grid.xs[i] + dx <= hx and ly <= grid.ys[i] + dy <= hy
               and math.hypot(dx, dy) > 0.5 * config.radius]
        if moves or walked[0] < after or not bad:
            hits, size = real_walk(grid, u)
        elif bad[0] > 0:
            # the real walk up to the bad move
            hits, size = real_walk(grid, u[:bad[0]])
        else:
            # the bad move alone, with the disc test switched off and a
            # table of padding only, so that the mask finds no witness
            saved = grid.limit, grid.near
            grid.limit, grid.near = 0.0, np.full((1, config.n), config.n)
            hits, size = real_walk(grid, u[:1])
            grid.limit, grid.near = saved
            moves.append(walked[0])
        walked[0] += size
        return hits, size
    monkeypatch.setattr(metropolis._Grid, "walk", walk)
    real_check = metropolis.check_valid

    def check(*args):
        checks.append(walked[0])
        return real_check(*args)
    monkeypatch.setattr(metropolis, "check_valid", check)
    return moves, checks


def test_a_move_is_checked_at_the_next_boundary(monkeypatch):
    # a grid that wrongly accepts one overlapping proposal early in a
    # frozen chain is refused at the first interval boundary after the
    # move, not at the end of the chain
    config = five_disc_config()
    monkeypatch.setattr(metropolis, "RECORD_INTERVAL", 997)
    moves, checks = _pass_one_overlap(monkeypatch, config, 0)
    with pytest.raises(OverlapError, match="overlap"):
        run_chain(config, ChainParams(70000, config.radius, seed=1))
    assert moves and moves[0] < 10
    # checks hold the proposals walked at each check: the input, then
    # proposal 997
    assert checks == [0, 997]


def test_a_move_in_the_last_partial_interval_is_checked(monkeypatch):
    # as above, but the chain ends 500 proposals after its second
    # boundary, and the bad move comes early in that partial last
    # interval: it is refused by the end-of-chain audit
    config = five_disc_config()
    monkeypatch.setattr(metropolis, "RECORD_INTERVAL", 997)
    moves, checks = _pass_one_overlap(monkeypatch, config, 2 * 997)
    with pytest.raises(OverlapError, match="overlap"):
        run_chain(config, ChainParams(2 * 997 + 500, config.radius, seed=1))
    assert moves and moves[0] < 2 * 997 + 10
    assert checks == [0, 2 * 997 + 500]


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


def _witnesses(grid, u):
    """_Grid.shut's witness of every row of u, block after block."""
    return np.concatenate([metropolis._witness(*block[3:])
                           for block in _blocks(grid, u)])


def _assert_witnesses_reject(grid, config, u):
    """Every row of u with a witness is rejected by _static_free on the
    grid's current centres in config's box, at its radius, and the witness
    itself rejects it: a wall witness by the box, a disc by lying within 2r
    of the target.  Returns the count of witnessed rows."""
    r = config.radius
    now = Configuration(r, grid.centers(), config.box)
    c = now.centers
    wit = _witnesses(grid, u).tolist()
    for w, (i, dx, dy) in zip(wit, _targets(now, grid.step_radius, u)):
        if w == -1:
            continue
        assert not _static_free(now, i, dx, dy)
        x, y = c[i, 0] + dx, c[i, 1] + dy
        if w == -2:
            wd, ht = now.box
            assert x < r or x > wd - r or y < r or y > ht - r
        else:
            assert w != i
            assert (c[w, 0] - x) ** 2 + (c[w, 1] - y) ** 2 < 4.0 * r * r
    return sum(w != -1 for w in wit)


@pytest.mark.parametrize("case", ["five", "square-N8", "tiling"])
def test_quiet_filter_never_rejects_what_the_grid_accepts(case):
    # the mask's own soundness, on boxed and planar inputs; planar chains
    # of a few hundred discs are never quiet for 1024 proposals, so this is
    # where the mask meets a configuration without a box
    if case == "five":
        config = shrink_radius(five_disc_config(), 0.99)
        step = config.radius
    elif case == "square-N8":
        config = assemble_square(8)
        step = config.radius
    else:
        config = shrink_radius(tiling_3_12_12(6), 0.999)
        step = 0.5 * config.radius
    grid = metropolis._Grid(config, ChainParams(20000, step))
    u = np.random.default_rng(1).random((20000, 3))
    witnessed = set(np.flatnonzero(_witnesses(grid, u) != -1).tolist())
    accepted = {row for row, (i, dx, dy) in enumerate(_targets(config, step, u))
                if _static_free(config, i, dx, dy)}
    assert accepted
    assert not accepted & witnessed
    assert witnessed
    assert _assert_witnesses_reject(grid, config, u) == len(witnessed)


def _moved_grid(config, step, moves):
    """A _Grid whose discs made moves acceptances, one proposal at a time
    from seed 3, after its table was built."""
    grid = metropolis._Grid(config, ChainParams(10 ** 5, step))
    u = np.random.default_rng(3).random((10 ** 5, 3))
    table = grid.near
    k = accepted = 0
    while accepted < moves:
        hits, size = grid.walk(u[k:k + 1])
        accepted += len(hits)
        k += size
    assert grid.near is table
    return grid


@pytest.mark.parametrize("case", ["five-0.99", "square-N8", "tiling"])
def test_witnesses_outlive_the_table(case):
    # the table holds indices only and shut reads the live centres, so a
    # table that predates n - 1 moves may miss a witness but never gives
    # one that does not reject
    if case == "five-0.99":
        config = shrink_radius(five_disc_config(), 0.99)
        step = config.radius
    elif case == "square-N8":
        config = assemble_square(8)
        step = config.radius
    else:
        config = shrink_radius(tiling_3_12_12(6), 0.999)
        step = 0.5 * config.radius
    grid = _moved_grid(config, step, config.n - 1)
    assert not np.array_equal(grid.centers(), config.centers)
    u = np.random.default_rng(4).random((20000, 3))
    assert _assert_witnesses_reject(grid, config, u) > 1000


def test_mask_follows_the_moves():
    # after a move, the stale table's witnesses are sound in the moved
    # configuration and are a subset of a fresh table's, and they changed
    config = shrink_radius(five_disc_config(), 0.9)
    params = ChainParams(4000, config.radius)
    grid = metropolis._Grid(config, params)
    u = np.random.default_rng(2).random((4000, 3))
    before = _witnesses(grid, u)
    table = grid.near
    row = max((row for row, (i, dx, dy)
               in enumerate(_targets(config, config.radius, u))
               if _static_free(config, i, dx, dy)),
              key=lambda row: u[row, 2])
    i = min(int(u[row, 0] * config.n), config.n - 1)
    assert grid.walk(u[row:row + 1]) == ([(0, i)], 1)
    after = _witnesses(grid, u)
    assert grid.near is table
    moved = Configuration(config.radius, grid.centers(), config.box)
    fresh = _witnesses(metropolis._Grid(moved, params), u)
    assert _assert_witnesses_reject(grid, config, u) == np.sum(
        after != -1)
    assert np.all((fresh != -1) | (after == -1))
    assert not np.array_equal(after, before)


def test_mask_stays_sound_as_coordinates_grow():
    # a planar row of six discs near the origin is carried about 1,400
    # times its coordinate scale after the table is built: five of them
    # make the same long move, fewer than n moves, so the table stays.
    # The slack's scale is the reach of a five-step chain, fixed when the
    # grid is made; it bounds the drifted centres, and the mask stays sound
    r = 0.01
    config = Configuration(r, [[2.02 * r * k, 0.0] for k in range(6)])
    step = 200.0
    grid = metropolis._Grid(config, ChainParams(5, step))
    grid.shut(np.random.default_rng(1).random((10, 3)))
    table = grid.near
    for k in range(5):
        # disc k, angle pi/4, the longest step
        u = np.array([[(k + 0.5) / config.n, 0.125, 1.0 - 2.0 ** -53]])
        assert grid.walk(u) == ([(0, k)], 1)
    assert grid.near is table
    c = grid.centers()
    assert np.abs(c).max() > 1000 * np.abs(config.centers).max()
    reach = np.abs(config.centers).max() + 5 * step
    assert np.abs(c).max() <= reach
    slack = 1e-9 * r + 2.0 ** -40 * (reach + step) + 2.0 ** -18 * step
    assert grid.mask[0] == (2.0 * r - slack) ** 2
    # proposals of at most 3r, so that many targets come within 2r of a
    # neighbour
    u = np.random.default_rng(2).random((20000, 3))
    u[:, 2] = (u[:, 2] * 3.0 * r / step) ** 2
    assert _assert_witnesses_reject(grid, config, u) > 1000


def test_fluid_chain_computes_few_targets(monkeypatch):
    # on the chain-fluid N=32 chain most proposals are rejected on a
    # witness that has not moved, with no arithmetic: at most a fifth of
    # them reach the scalar rule (about 16 % at seed 1)
    config = assemble_square(32)
    params = ChainParams(20000, config.radius, seed=1)
    targets = _count_targets(monkeypatch)
    _, stats = run_chain(config, params)
    monkeypatch.undo()
    assert stats.accepted > 0
    assert len(targets) <= 0.2 * params.steps


@pytest.mark.parametrize("box", [(1.0, 1.0), None])
def test_a_disc_without_neighbours_is_masked(box):
    # a single disc has no neighbours; its table still has one row, of
    # padding, so the mask runs, and in a box it witnesses the walls
    config = Configuration(0.1, [[0.5, 0.5]], box)
    params = ChainParams(20000, 0.6, seed=1)
    grid = metropolis._Grid(config, params)
    wit = _witnesses(grid, np.random.default_rng(1).random((1000, 3)))
    assert grid.near.shape == (1, 1)
    assert set(wit.tolist()) == ({-1, -2} if box else {-1})
    final, stats = run_chain(config, params)
    centers, accepted, trace, first = _full_scan_chain(config, params)
    assert stats.accepted == accepted > 0
    assert np.array_equal(final.centers, centers)
    assert stats.trace == trace
    assert stats.first_accepted == first


def test_a_planar_disc_meets_no_wall():
    # a lone disc at (r, r) in the plane: a box's walls would refuse every
    # proposal that takes it left or down, the plane's refuse none
    r = 0.1
    final, stats = run_chain(Configuration(r, [[r, r]]),
                             ChainParams(1000, r, seed=1))
    assert stats.accepted == 1000
    assert final.centers[0, 0] < r


def _scalar_walk(config, step, u):
    """(row, disc) of each row of u, in order, that the rule of
    _full_scan_chain accepts, each acceptance moving its disc."""
    c = config.centers.copy()
    hits = []
    for row, (i, dx, dy) in enumerate(_targets(config, step, u)):
        if _static_free(Configuration(config.radius, c, config.box), i, dx,
                        dy):
            c[i] = c[i, 0] + dx, c[i, 1] + dy
            hits.append((row, i))
    return hits


def test_quiet_walk_stops_at_its_first_acceptance():
    # the walk is quiet, testing only the rows without a witness, up to its
    # first acceptance; after it the walk tests every row, so it accepts
    # what the scalar rule accepts, in order
    config = shrink_radius(five_disc_config(), 0.9)
    u = np.random.default_rng(2).random((400, 3))
    expected = _scalar_walk(config, config.radius, u)
    assert len(expected) > 1
    grid = metropolis._Grid(config, ChainParams(len(u), config.radius))
    assert grid.walk(u) == (expected, len(u))


def test_walk_never_gets_an_empty_block(monkeypatch):
    # the two frozen chains witness every proposal and compute no target;
    # five-0.99 computes targets, and the shrunk tiling accepts 85 % of
    # its proposals, so few of its witnesses stay standing
    five = five_disc_config()
    square = assemble_square(32)
    tiling = shrink_radius(tiling_3_12_12(6), 0.9)
    walked = _count_walked(monkeypatch)
    targets = _count_targets(monkeypatch)
    for config, params, accepts in [
            (five, ChainParams(30000, five.radius, seed=1), 0),
            (square, ChainParams(20000, 1e-5 * square.radius, seed=1), 0),
            (*_quiet_case("five-0.99"), 24),
            (tiling, ChainParams(20000, 0.5, seed=3), 17056)]:
        walked.clear()
        targets.clear()
        _, stats = run_chain(config, params)
        assert stats.accepted == accepts
        assert bool(targets) == bool(accepts)
        assert min(min(rows, size) for rows, size in walked) >= 1
        assert sum(size for _, size in walked) == params.steps


def test_mask_covers_a_row_however_wide_the_table(monkeypatch):
    # with fewer filter entries than the table is wide, the mask still
    # covers a row, so a masked chain keeps advancing
    monkeypatch.setattr(metropolis, "_FILTER_ENTRIES", 3)
    config = five_disc_config()
    params = ChainParams(3000, config.radius, seed=1)
    grid = metropolis._Grid(config, params)
    u = np.random.default_rng(1).random((100, 3))
    out = grid.shut(u)[-1]
    assert len(out) >= 1
    assert len(grid.near) > metropolis._FILTER_ENTRIES
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


def test_a_box_bounds_the_cell_index():
    # a target off the box is rejected before its cell is indexed, so a
    # boxed chain may take any finite step, and the mask's squares, which
    # overflow there, raise no warning
    config = five_disc_config()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, stats = run_chain(config, ChainParams(1000, 1e308, seed=1))
    assert stats.accepted == 0


def _float32_gap(ang):
    """The mask's float32 (cos, sin) of each angle minus libm's."""
    a = ang.tolist()
    libm = np.array([list(map(math.cos, a)), list(map(math.sin, a))])
    a32 = ang.astype(np.float32)
    return np.array([np.cos(a32), np.sin(a32)]) - libm


def test_float32_trig_is_within_2_to_the_minus_20_of_libm():
    # the mask's margin holds 2^-18 of the step for the gap between its
    # float32 directions and the walk's libm ones: half a float32 ulp of
    # an angle below 2pi is 2^-22, plus a few ulps of the trig itself
    rng = np.random.default_rng(11)
    edges = [k * math.pi / 2.0 for k in range(5)] + [2.0 * math.pi]
    edges = np.array(edges)[:, None] + np.arange(-4, 5) * 2.0 ** -24
    ang = np.concatenate((2.0 * math.pi * rng.random(10 ** 6),
                          edges.ravel(), [2.0 * math.pi * (1.0 - 2.0 ** -53)]))
    ang = ang[ang >= 0.0]
    gap = np.hypot(*_float32_gap(ang))
    assert gap.max() <= 2.0 ** -20


def _adversarial_row(step, score):
    """A deviate row moving disc 0 by about step, at the angle of 4096
    seeded ones whose gap (the float32 direction minus libm's) and libm
    direction score highest; returns the row and the walk's offset (libm)
    and the mask's (float32)."""
    u = np.random.default_rng(6).random((4096, 3))
    u[:, 0] = 0.0
    u[:, 2] = 1.0 - 2.0 ** -53
    ang = 2.0 * math.pi * u[:, 1]
    gap = _float32_gap(ang)
    k = int(np.argmax(score(gap, np.array([np.cos(ang), np.sin(ang)]))))
    rad = step * math.sqrt(u[k, 2])
    a32 = np.float32(ang[k])
    return (u[k:k + 1], (rad * math.cos(ang[k]), rad * math.sin(ang[k])),
            (rad * float(np.cos(a32)), rad * float(np.sin(a32))))


@pytest.mark.parametrize("case", ["disc", "wall"])
def test_mask_margin_covers_the_float32_directions(case):
    # a neighbour 2r(1 + 1e-12) from the walk's libm target, placed along
    # the float32 direction's error, and a wall r(1 + 1e-12) from it: the
    # mask's float32 target lies 2e-7 r inside the neighbour's 2r (or past
    # the wall), far beyond a 1e-9 r slack, yet the scalar rule accepts
    # the move, so the mask must not witness it
    r = step = 0.1
    if case == "disc":
        u, (dx, dy), (fx, fy) = _adversarial_row(step, lambda g, d: np.where(
            (g * d).sum(axis=0) > 0.0, np.hypot(*g), 0.0))
        e = np.array([fx - dx, fy - dy]) / math.hypot(fx - dx, fy - dy)
        far = 2.0 * r * (1.0 + 1e-12)
        other = (0.5 + dx + far * e[0], 0.5 + dy + far * e[1])
        config = Configuration(r, [[0.5, 0.5], other])
        assert math.dist((0.5 + fx, 0.5 + fy), other) < 2.0 * r - 2e-7 * r
    else:
        u, (dx, dy), (fx, fy) = _adversarial_row(
            step, lambda g, d: np.where(d[0] > 0.0, g[0], 0.0))
        config = Configuration(r, [[0.5, 0.5]],
                               (0.5 + dx + r * (1.0 + 1e-12), 1.0))
        assert 0.5 + dx <= config.box[0] - r < 0.5 + fx - 2e-7 * r
    expected = _scalar_walk(config, step, u)
    assert expected == [(0, 0)]
    grid = metropolis._Grid(config, ChainParams(1, step))
    assert metropolis._witness(*grid.shut(u)[3:]).tolist() == [-1]
    assert grid.walk(u) == (expected, 1)


@pytest.mark.parametrize("box", [True, False])
def test_table_rows_give_the_overlap_audit(monkeypatch, box):
    # the table's near_pairs rows, at any step, give overlap_audit's report
    # bit for bit, on inputs with tangencies, overlaps and (in a box) discs
    # outside it: the grid refuses them with that report
    square = assemble_square(8)
    c = square.centers.copy()
    r = square.radius
    c[3] = c[4] + (2.0 * r * (1.0 - 1e-3), 0.0)
    c[7, 0] = 0.5 * r
    if box:
        config = Configuration(r, c, square.box)
    else:
        tiling = tiling_3_12_12(6)
        config = Configuration(tiling.radius * (1.0 + 1e-6), tiling.centers)
    report = overlap_audit(config)
    assert report.pairs and bool(report.outside) == box
    for step in (1e-9, 1e-3, 0.5, 1.0, 2.0, 10.0):
        with pytest.raises(OverlapError) as refused:
            metropolis._Grid(config, ChainParams(1, step * config.radius))
        assert refused.value.report == report
    valid = shrink_radius(config, 0.9) if box else square
    audits = []
    monkeypatch.setattr(metropolis, "check_valid",
                        lambda c, audit: audits.append(audit))
    metropolis._Grid(valid, ChainParams(1, valid.radius))
    assert audits == [overlap_audit(valid)]


def test_chains_audit_from_the_table(monkeypatch):
    # the input's audit reads the table's neighbour query, so a frozen
    # chain runs no overlap_audit; a fluid chain runs overlap_audit at
    # every interval end where a disc moved.  Each chain builds its table
    # once, however many acceptances it makes: the moved-disc audit calls
    # the verifier's own near_pairs, so metropolis.near_pairs counts builds
    audits = _count_calls(monkeypatch, metropolis, "overlap_audit")
    shared = _count_calls(monkeypatch, metropolis, "_audit")
    tables = _count_calls(monkeypatch, metropolis, "near_pairs")
    config = five_disc_config()
    _, stats = run_chain(config, ChainParams(30000, config.radius, seed=1))
    assert stats.accepted == 0
    assert (len(shared), len(audits), len(tables)) == (1, 0, 1)
    shared.clear()
    tables.clear()
    config = assemble_square(4)
    _, stats = run_chain(config, ChainParams(30000, config.radius, seed=7))
    assert len(stats.trace) == 3 and min(stats.trace) > 0
    assert stats.accepted > 2 * config.n
    assert (len(shared), len(audits), len(tables)) == (1, 3, 1)
    tables.clear()
    config = shrink_radius(tiling_3_12_12(6), 0.9)
    _, stats = run_chain(config, ChainParams(20000, config.radius, seed=1))
    assert stats.accepted > 100 * config.n
    assert len(tables) == 1


def test_long_steps_keep_a_narrow_table():
    # the table reaches 2r + min(step, 2r): at step 1.0 on the N=32 square
    # (about 128 r) it stays as narrow as at step 2r, and the walk, which
    # tests every row without a witness, keeps the scalar trajectory
    config = assemble_square(32)
    params = ChainParams(3000, 1.0, seed=1)
    grid = metropolis._Grid(config, params)
    assert len(grid.near) <= 24
    final, stats = run_chain(config, params)
    centers, accepted, trace, first = _full_scan_chain(config, params)
    assert stats.accepted == accepted
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
    config = assemble_square(4)
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
