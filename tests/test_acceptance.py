"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 4 (frozen chain) runs each configuration below its hop floor.
Local jamming blocks infinitesimal moves only: a disc whose largest gap
between contact normals is G can hop once the proposal radius reaches
4r*cos(G/2), and the assembled squares have discs with gaps near 180
degrees.  So each square runs at half its smallest such bound, computed
here from the contact graph, and the five-disc square, whose bound is
about 1.53r, runs at r.
"""

import math
import random
import time
from math import dist

import numpy as np
import pytest

import jampack as jp
from jampack import construction
from jampack.verifier import check_valid
from _oracles import (contact_lists, direction_oracle, rigidity_matrix,
                      scaled, verdict_of)

S3 = math.sqrt(3.0)
NS = (4, 8, 16, 32)


def _line(ok, name, detail):
    print("%s: %s (%s)" % ("PASS" if ok else "FAIL", name, detail))


@pytest.fixture(scope="module")
def squares():
    out = {}
    for N in NS:
        t0 = time.perf_counter()
        out[N] = jp.assemble_square(N), time.perf_counter() - t0
    return out


def test_criterion_1_junction_exactness():
    jp.junction_piece()  # warm up
    t0 = time.perf_counter()
    config = jp.junction_piece()
    elapsed = time.perf_counter() - t0
    c = [tuple(p) for p in config.centers]
    A, B, C, F1, F2, D = c
    worst = max(abs(dist(p, q) - 2.0) for p, q in
                [(A, B), (A, C), (C, F1), (B, F2), (F2, D), (F1, D)])
    r = config.radius
    wall = max(abs(A[0] - r), abs(A[1] - r), abs(B[0] - r), abs(C[1] - r))
    ok = worst <= 1e-12 and wall == 0.0 and elapsed < 1e-3
    _line(ok, "criterion 1 junction exactness",
          "max pair residual %.2e, wall residual %.2e, %.3f ms"
          % (worst, wall, elapsed * 1e3))
    assert ok


@pytest.mark.parametrize("N", NS)
def test_criterion_2_bridge_construction(N):
    t0 = time.perf_counter()
    chain = jp.tune_epsilon(N)
    config = jp.complete_symmetric_bridge(chain)
    report = jp.verify_stable(config)
    elapsed = time.perf_counter() - t0

    worst = 0.0
    for i in range(N - 1):
        worst = max(worst,
                    abs(dist(chain.a[i], chain.a[i + 1]) - 2.0),
                    abs(dist(chain.a[i + 1], chain.b[i + 1]) - 2.0),
                    abs(dist(chain.b[i + 1], chain.c[i]) - 2.0),
                    abs(dist(chain.b[i + 1], chain.c[i + 1]) - 2.0))
    closure = abs(chain.b[N - 1][0] - chain.a[N - 1][0] - 1.0)
    ok = (worst < 1e-9 and closure < 1e-10 and config.n == 10 * N - 4
          and report.movable_count == 8 and report.rattler_count == 0
          and elapsed < 1.0)
    _line(ok, "criterion 2 bridge N=%d" % N,
          "tangency %.2e, closure %.2e, n=%d, movable=%d, %.2f s"
          % (worst, closure, config.n, report.movable_count, elapsed))
    assert ok


def test_criterion_3_square_assembly(squares):
    ratios = {}
    ok = True
    for N in NS:
        config, elapsed = squares[N]
        report = jp.verify_stable(config)
        audit = jp.overlap_audit(config)
        ratios[N] = config.n * config.radius
        ok &= (report.movable_count == 0 and report.rattler_count == 0
               and not audit.pairs and elapsed < 10.0)
    spread = max(ratios.values()) / min(ratios.values())
    beta_observed = min(ratios.values())
    ok &= spread < 2.0
    _line(ok, "criterion 3 square assembly",
          "n*r %s, spread x%.3f, beta_observed %.3f"
          % ({k: round(v, 3) for k, v in ratios.items()}, spread,
             beta_observed))
    assert ok


def _hop_floor(config):
    """Smallest 4r*cos(G/2) over the discs, G the largest gap between a
    disc's contact normals.  No shorter proposal can be accepted when every
    contact is exactly tangent; the float file's contact gaps, about half
    of them positive and up to 4.0e-15 r at N=4, 2.9e-14 r at N=32 and
    1.2e-12 r at N=1024, leave thin strips that this bound does not cover.
    Nothing bounds the chance of landing in one, though the N <= 32
    squares run here accept nothing at half their floor, and nor does the
    N=1024 square at seeds 7 and 8.
    """
    floor = math.inf
    for normals in contact_lists(jp.contact_graph(config))[0]:
        angles = sorted(math.atan2(y, x) for x, y in normals)
        gaps = [b - a for a, b in zip(angles, angles[1:])]
        gaps.append(2.0 * math.pi - sum(gaps))
        floor = min(floor, 4.0 * config.radius
                    * max(math.cos(max(gaps) / 2.0), 0.0))
    return floor


def test_criterion_4_frozen_metropolis(squares):
    runs = {"square-N%d" % N: squares[N][0] for N in NS}
    runs["five-disc"] = jp.five_disc_config()
    floors = {name: _hop_floor(config) for name, config in runs.items()}
    assert all(f > 0 for f in floors.values()), (
        "a disc is not jammed, so it has no hop floor: %s" % floors)
    t0 = time.perf_counter()
    results = {}
    for name, config in runs.items():
        step = (config.radius if name == "five-disc"
                else 0.5 * floors[name])
        _, stats = jp.run_chain(config, jp.ChainParams(10 ** 6, step,
                                                       seed=7))
        results[name] = (stats.accepted, floors[name] / config.radius,
                         step / config.radius)
    elapsed = time.perf_counter() - t0
    ok = (all(acc == 0 and step < f for acc, f, step in results.values())
          and elapsed < 60.0)
    _line(ok, "criterion 4 frozen chain",
          "%s, %.1f s" % (", ".join(
              "%s accepted %d floor/r %.3g step/r %.3g" % ((k,) + v)
              for k, v in results.items()), elapsed))
    assert ok, ("a chain below its hop floor accepted a proposal, or the "
                "chains took 60 s or more: %s, %.1f s" % (results, elapsed))


@pytest.mark.parametrize("N", [3, 4, 8])
def test_stable_is_local_not_collective_jamming(N):
    """A stable square is locally jammed, each disc pinned while the others
    stay put, but not collectively jammed: its discs can move together.

    The rigidity matrix of the contact network, walls included, has a null
    space of dimension 8N - 20, and the rest of its spectrum stays above
    1e-3, far from the null values near 1e-15.  Along a null vector v each
    contact's relative velocity v_i - v_j is perpendicular to its normal,
    so t*v changes each contact distance^2 by t^2 |v_i - v_j|^2 >= 0: the
    moved square is valid, but its contacts open, so it is no longer
    stable, and the single-disc chain escapes it at a step far below the
    original square's hop floor, where the original accepts nothing.  The
    paper's non-ergodicity is a claim about single-disc proposals, which
    local jamming suffices for.  The SVD's null basis is not unique, so the
    accepted count is only asserted positive.
    """
    config = jp.assemble_square(N)
    r = config.radius
    R = rigidity_matrix(jp.contact_graph(config))
    _, s, vt = np.linalg.svd(R)
    rank = int(np.sum(s > 1e-9))
    assert R.shape[1] - rank == 8 * N - 20
    assert s[rank - 1] > 1e-3 and np.all(s[rank:] < 1e-12)
    v = vt[-1] / np.abs(vt[-1]).max()
    moved = jp.Configuration(r, config.centers + 1e-3 * r * v.reshape(-1, 2),
                             config.box)
    check_valid(moved, jp.overlap_audit(moved))
    assert not jp.verify_stable(moved).stable
    step = 1e-5 * r
    assert step < _hop_floor(config)
    params = jp.ChainParams(10 ** 5, step, seed=1)
    assert jp.run_chain(config, params)[1].accepted == 0
    assert jp.run_chain(moved, params)[1].accepted > 0


def _nullity(R):
    """The dimension of R's null space, and R's smallest singular value
    above 1e-9 and largest below it (0 if none is)."""
    s = np.linalg.svd(R, compute_uv=False)
    rank = int(np.sum(s > 1e-9))
    return R.shape[1] - rank, s[rank - 1], s[rank:].max(initial=0.0)


@pytest.mark.parametrize("N", [3, 4, 8])
def test_each_wall_bridge_flexes_in_2N_minus_5_ways(N):
    """The square's 8N - 20 flexes are 2N - 5 per wall bridge, with every
    corner disc held still.

    assemble_square lists four copies of each corner-cluster point (the
    junction and its clamps), then each bridge point's copies on the
    bottom, left, top and right walls in turn, so bridge s holds discs
    4*len(cluster) + s + 4k.  Keeping only those discs' columns of the
    rigidity matrix clamps every other disc; the rows left are the
    bridge's 10N + 3 contacts, among its own 6N - 3 discs and with its
    wall and the clamped corner discs.  Of its 2(6N - 3) = 12N - 6
    velocity components they fix 10N - 1, since the rows carry 4
    independent self-stresses, which leaves 2N - 5 flexes.  A bridge flex,
    extended by zero, is a flex of the whole square, because no contact
    joins two bridges; the four bridges' flexes therefore span the
    square's null space exactly when their nullities sum to its 8N - 20,
    so no flex moves a corner disc.
    """
    config = jp.assemble_square(N)
    R = rigidity_matrix(jp.contact_graph(config))
    corner = 4 * (len(construction._JUNCTION) + len(construction._CLAMPS))
    per_side = (config.n - corner) // 4
    assert corner + 4 * per_side == config.n
    # distances to the bottom, left, top and right walls
    x, y = config.centers.T
    nearest_wall = np.argmin([y, x, 1.0 - y, 1.0 - x], axis=0)
    flexes = []
    for side in range(4):
        discs = corner + side + 4 * np.arange(per_side)
        assert np.all(nearest_wall[discs] == side)
        B = R[:, np.concatenate((2 * discs, 2 * discs + 1))]
        B = B[np.any(B != 0.0, axis=1)]
        assert B.shape == (10 * N + 3, 2 * (6 * N - 3))
        nullity, smallest, null = _nullity(B)
        assert nullity == 2 * N - 5
        assert null < 1e-12 and smallest > 1e-3
        flexes.append(nullity)
    assert sum(flexes) == _nullity(R)[0] == 8 * N - 20


def test_criterion_5_escape_after_shrinking():
    config = jp.five_disc_config()
    params = jp.ChainParams(10 ** 5, config.radius, seed=5)
    table = jp.escape_experiment(config, [0.99], params)
    rate = table[0.99].acceptance_rate
    ok = rate > 0.0
    _line(ok, "criterion 5 escape at shrink 0.99",
          "acceptance rate %.2e" % rate)
    assert ok


def test_criterion_6_tiling_density():
    t0 = time.perf_counter()
    config = jp.tiling_3_12_12(40)
    W = config.metadata["window"]
    d = jp.density(config, (-W, -W, W, W))
    elapsed = time.perf_counter() - t0
    target = (7.0 * S3 - 12.0) * math.pi
    ok = abs(d - target) < 0.005 and elapsed < 5.0
    _line(ok, "criterion 6 tiling density",
          "density %.6f vs %.6f, error %.2e, %.2f s"
          % (d, target, d - target, elapsed))
    assert ok


def test_criterion_7_verifier_oracle_equivalence():
    rnd = random.Random(31415)
    total = agree = 0
    while total < 1000:
        k = rnd.randint(1, 6)
        angles = [rnd.uniform(0, 360) for _ in range(k)]
        srt = sorted(a % 360 for a in angles)
        gaps = [(srt[(i + 1) % k] - srt[i]) % 360 for i in range(k)]
        if k == 1:
            gaps = [360.0]
        if any(abs(g - 180.0) < 1.0 for g in gaps):
            continue
        normals = [(math.cos(math.radians(a)), math.sin(math.radians(a)))
                   for a in angles]
        total += 1
        fast = verdict_of(normals).status == "jammed"
        slow = direction_oracle(normals, 720) == "jammed"
        agree += fast == slow
    ok = agree == total
    _line(ok, "criterion 7 oracle equivalence",
          "%d/%d agree" % (agree, total))
    assert ok


def test_criterion_8_invariance_suite(tmp_path):
    rnd = random.Random(2718)

    def random_config(planar=False):
        n = rnd.randint(2, 6)
        pts = []
        while len(pts) < n:
            p = (rnd.uniform(1, 9), rnd.uniform(1, 9))
            if all(math.hypot(p[0] - q[0], p[1] - q[1]) >= 2.0 for q in pts):
                pts.append(p)
        box = None if planar else (10.0, 10.0)
        return jp.Configuration(1.0, np.array(pts), box)

    # scaling invariance
    scale_ok = 0
    for _ in range(1000):
        config = random_config()
        s = rnd.uniform(0.01, 100.0)
        v1 = jp.verify_stable(config).status.tolist()
        v2 = jp.verify_stable(scaled(config, s)).status.tolist()
        scale_ok += v1 == v2

    # rigid-motion invariance (planar)
    rigid_ok = 0
    for _ in range(1000):
        config = random_config(planar=True)
        th = rnd.uniform(0, 2 * math.pi)
        rot = np.array([[math.cos(th), -math.sin(th)],
                        [math.sin(th), math.cos(th)]])
        t = np.array([rnd.uniform(-9, 9), rnd.uniform(-9, 9)])
        moved = jp.Configuration(1.0, config.centers @ rot.T + t)
        v1 = jp.verify_stable(config).status.tolist()
        v2 = jp.verify_stable(moved).status.tolist()
        rigid_ok += v1 == v2

    # write/read round trip losslessness
    from jampack.files import read_config, write_config
    path = tmp_path / "rt.json"
    rt_ok = 0
    for _ in range(1000):
        config = random_config(planar=rnd.random() < 0.5)
        config.radius = rnd.uniform(1e-6, 10.0)
        write_config(config, path)
        back = read_config(path)
        rt_ok += (back.radius == config.radius
                  and np.array_equal(back.centers, config.centers)
                  and back.box == config.box)

    # chain determinism under fixed seed
    det_ok = 0
    for _ in range(1000):
        config = random_config()
        config.radius = 0.9
        params = jp.ChainParams(20, 0.5, seed=rnd.randrange(2 ** 63))
        f1, s1 = jp.run_chain(config, params)
        f2, s2 = jp.run_chain(config, params)
        det_ok += (np.array_equal(f1.centers, f2.centers)
                   and s1.accepted == s2.accepted)

    ok = scale_ok == rigid_ok == rt_ok == det_ok == 1000
    _line(ok, "criterion 8 invariance suite",
          "scale %d/1000, rigid %d/1000, round-trip %d/1000, "
          "determinism %d/1000" % (scale_ok, rigid_ok, rt_ok, det_ok))
    assert ok
