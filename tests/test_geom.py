import math
import random
from math import dist

import numpy as np
import pytest

from jampack.construction import tune_epsilon
from jampack.geometry import (ANGLE_SLACK, SOLVER_ABS, TANGENCY_REL,
                              GeometryError, apex, near_pairs)

from _oracles import circle_circle_intersections


def test_tolerance_constants():
    assert TANGENCY_REL == 1e-9
    assert SOLVER_ABS == 1e-12
    assert ANGLE_SLACK == 1e-9
    # a contact band narrower than the solver's error would lose contacts
    # that the constructions place exactly
    assert TANGENCY_REL > SOLVER_ABS > 0


def test_intersections_symmetric_equal_circles():
    # the two points share x = 1, so the tie goes to the one right of
    # (0, 0) -> (2, 0)
    assert apex((0, 0), (2, 0)) == (1.0, -math.sqrt(3))
    assert apex((2, 0), (0, 0)) == (1.0, math.sqrt(3))


def test_intersections_disjoint():
    assert apex((0, 0), (4.5, 0)) is None
    assert apex((0, 0), (4 + 2 * SOLVER_ABS, 0)) is None


def test_intersections_external_tangency():
    assert apex((0, 0), (4, 0)) == (2.0, 0.0)
    # within SOLVER_ABS of 4 the apex is the midpoint, not a point a
    # square root of the excess off the line
    for d in (4 - 0.5 * SOLVER_ABS, 4 + 0.5 * SOLVER_ABS):
        assert apex((0, 0), (d, 0)) == (d * d / (2 * d), 0.0)
        assert apex((1, 1), (1, 1 + d)) == (1.0, 1 + d * d / (2 * d))


def test_intersections_coincident_centers_rejected():
    with pytest.raises(GeometryError):
        apex((1, 1), (1, 1))


def test_intersections_residuals_randomized():
    rnd = random.Random(12345)
    checked = 0
    for _ in range(2000):
        c1 = (rnd.uniform(-2.5, 2.5), rnd.uniform(-2.5, 2.5))
        c2 = (rnd.uniform(-2.5, 2.5), rnd.uniform(-2.5, 2.5))
        if dist(c1, c2) < 1e-6:
            continue
        p = apex(c1, c2)
        if p is not None:
            assert abs(dist(p, c1) - 2) <= 1e-9
            assert abs(dist(p, c2) - 2) <= 1e-9
            checked += 1
    assert checked > 1000


def _bits(p):
    return None if p is None else tuple(map(float.hex, p))


def _oracle_apex(p, q):
    pts = circle_circle_intersections(p, 2.0, q, 2.0)
    return max(pts, key=lambda t: t[0]) if pts else None


def test_apex_is_the_general_solvers_larger_x_point_bit_for_bit():
    """Every b step of tuned chains, then random pairs: uniform, within
    1e-12 of distance 4, horizontal (a tie in x) and vertical."""
    pairs = []
    for N in (4, 8, 32):
        chain = tune_epsilon(N)
        steps = list(zip(chain.a[1:], chain.c))
        assert [apex(a, c) for a, c in steps] == chain.b[1:]
        pairs += steps
    rnd = random.Random(2024)
    for k in range(12000):
        p = (rnd.uniform(-50, 50), rnd.uniform(-5, 5))
        if k % 4 == 1:
            d = 4 + rnd.uniform(-1.5, 1.5) * SOLVER_ABS
        else:
            d = rnd.uniform(1e-6, 4.5)
        t = rnd.uniform(0, 2 * math.pi)
        u = [(math.cos(t), math.sin(t)), (rnd.choice((-1, 1)), 0.0),
             (0.0, rnd.choice((-1, 1)))][k % 3]
        pairs.append((p, (p[0] + d * u[0], p[1] + d * u[1])))
    near = sum(abs(dist(p, q) - 4) <= SOLVER_ABS for p, q in pairs)
    assert near > 1500
    for p, q in pairs:
        assert _bits(apex(p, q)) == _bits(_oracle_apex(p, q)), (p, q)


def _brute_pairs(c, cutoff):
    """All-pairs oracle for near_pairs, with the same float operations."""
    out = []
    for i in range(len(c)):
        for j in range(i + 1, len(c)):
            dx = c[i, 0] - c[j, 0]
            dy = c[i, 1] - c[j, 1]
            d = math.sqrt(dx * dx + dy * dy)
            if d <= cutoff:
                out.append((i, j, d))
    return out


def _near(c, cutoff):
    i, j, d = near_pairs(c, cutoff)
    return list(zip(i.tolist(), j.tolist(), d.tolist()))


def test_near_pairs_matches_brute_force_randomized():
    rng = np.random.default_rng(41)
    for _ in range(60):
        n = int(rng.integers(2, 160))
        c = rng.uniform(-50.0, 50.0, (n, 2))
        cutoff = float(rng.uniform(0.5, 30.0))
        assert _near(c, cutoff) == _brute_pairs(c, cutoff)


def test_near_pairs_matches_kdtree():
    cKDTree = pytest.importorskip("scipy.spatial").cKDTree
    rng = np.random.default_rng(42)
    c = rng.uniform(-100.0, 300.0, (3000, 2))
    for cutoff in (0.3, 2.0, 7.5):
        i, j, _ = near_pairs(c, cutoff)
        assert set(zip(i.tolist(), j.tolist())) == \
            cKDTree(c).query_pairs(cutoff)


def test_near_pairs_keeps_pairs_exactly_at_cutoff():
    # a lattice whose spacing is the cutoff puts pairs on or within an ulp
    # of it, and many of them straddle cell boundaries
    cutoff = 0.3
    k = np.arange(-6, 7) * cutoff
    c = np.array([(x, y) for x in k for y in k])
    got = _near(c, cutoff)
    assert got == _brute_pairs(c, cutoff)
    # pairs placed so their computed distance is the cutoff itself
    rng = np.random.default_rng(43)
    for _ in range(200):
        c = rng.uniform(-10.0, 10.0, (2, 2))
        (_, _, d), = _brute_pairs(c, math.inf)
        assert _near(c, d) == [(0, 1, d)]


def test_near_pairs_duplicate_points():
    c = np.array([[1.0, -2.0], [3.0, 3.0], [1.0, -2.0], [1.0, -2.0]])
    assert _near(c, 1e-9) == [(0, 2, 0.0), (0, 3, 0.0), (2, 3, 0.0)]
    assert _near(c, 10.0) == _brute_pairs(c, 10.0)


def test_near_pairs_small_inputs():
    for c in (np.empty((0, 2)), np.array([[-4.0, 5.0]])):
        i, j, d = near_pairs(c, 1.0)
        assert len(i) == len(j) == len(d) == 0
        assert i.dtype.kind == j.dtype.kind == "i"


def test_near_pairs_tiny_cutoff_on_wide_extent():
    # a cutoff of 2 * SOLVER_ABS against a side of about 100
    rng = np.random.default_rng(44)
    base = rng.uniform(-100.0, 100.0, (300, 2))
    cutoff = 1e-14 * 200.0
    near = base[:40] + rng.uniform(-1.5e-12, 1.5e-12, (40, 2))
    c = np.concatenate([base, near])
    got = _near(c, cutoff)
    assert got == _brute_pairs(c, cutoff)
    assert 0 < len(got) <= 40


def test_near_pairs_extreme_coordinates():
    # cell keys stay in range even when coordinate differences overflow
    c = np.array([[1e300, -1e300], [-1e300, 1e300], [1e300, -1e300],
                  [-1e300, 1e300], [1.5e308, -1.5e308]])
    assert _near(c, 1e-300) == [(0, 2, 0.0), (1, 3, 0.0)]


def _restricted_cases():
    """(centers, cutoff) of the random, lattice, duplicate, wide-extent and
    extreme-coordinate cases above."""
    rng = np.random.default_rng(45)
    for _ in range(20):
        n = int(rng.integers(2, 160))
        yield rng.uniform(-50.0, 50.0, (n, 2)), float(rng.uniform(0.5, 30.0))
    k = np.arange(-6, 7) * 0.3
    yield np.array([(x, y) for x in k for y in k]), 0.3
    yield np.array([[1.0, -2.0], [3.0, 3.0], [1.0, -2.0], [1.0, -2.0]]), 10.0
    base = rng.uniform(-100.0, 100.0, (300, 2))
    near = base[:40] + rng.uniform(-1.5e-12, 1.5e-12, (40, 2))
    yield np.concatenate([base, near]), 1e-14 * 200.0
    yield np.array([[1e300, -1e300], [-1e300, 1e300], [1e300, -1e300],
                    [-1e300, 1e300], [1.5e308, -1.5e308]]), 1e-300


def test_restricted_near_pairs_are_rows_of_the_full_call():
    # among keeps exactly the full call's rows with an end in it, bit for
    # bit and in order: for no index, one, a random share, and all of them
    rng = np.random.default_rng(46)
    rows = 0
    for c, cutoff in _restricted_cases():
        n = len(c)
        full = _near(c, cutoff)
        rows += bool(full)
        sets = [[], [int(rng.integers(n))], [n - 1],
                rng.choice(n, n // 3 + 1, replace=False), list(range(n))]
        for among in sets:
            i, j, d = near_pairs(c, cutoff, among)
            assert i.dtype.kind == j.dtype.kind == "i"
            got = list(zip(i.tolist(), j.tolist(), d.tolist()))
            mine = set(np.asarray(among).tolist())
            assert got == [row for row in full
                           if row[0] in mine or row[1] in mine]
    assert rows >= 20


def test_near_pairs_rejects_nonpositive_cutoff():
    with pytest.raises(GeometryError):
        near_pairs(np.zeros((3, 2)), 0.0)
    for c in ([[0, 0, 1], [0, 1, 0]], [0.0, 1.0, 2.0, 3.0], np.zeros((0, 3)),
              np.zeros((2, 1, 2)), []):
        with pytest.raises(GeometryError, match=r"centers .*shape"):
            near_pairs(c, 1.5)
