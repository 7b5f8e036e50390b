import dataclasses
import math
import random

import numpy as np
import pytest

from jampack import verifier
from jampack.configuration import Configuration
from jampack.construction import (assemble_square,
                                  complete_symmetric_bridge, five_disc_config,
                                  junction_piece, tiling_3_12_12, tune_epsilon)
from jampack.geometry import ANGLE_SLACK, TANGENCY_REL
from jampack.render import render_svg
from jampack.verifier import (OverlapError, contact_graph, overlap_audit,
                              verify_stable)

from _oracles import (_largest_gap, arctan2_angles, contact_lists,
                      direction_oracle, graph_of, is_locally_jammed,
                      math_atan2_angles, open_sides, scaled, verdict_of,
                      verdicts_of, wall_to_wall_path)


def _normals(*degrees):
    return [(math.cos(math.radians(d)), math.sin(math.radians(d)))
            for d in degrees]


def _angle(v):
    return math.degrees(math.atan2(v[1], v[0])) % 360.0


def test_two_tangent_discs_have_mutual_contact():
    config = Configuration(1.0, [[0.0, 0.0], [2.0, 0.0]])
    g = contact_graph(config)
    assert g.pairs == [(0, 1)]
    normals, _ = contact_lists(g)
    assert normals[0][0] == pytest.approx((-1.0, 0.0))
    assert normals[1][0] == pytest.approx((1.0, 0.0))


def test_separated_discs_have_no_contact():
    config = Configuration(1.0, [[0.0, 0.0], [2.1, 0.0]])
    g = contact_graph(config)
    assert g.pairs == []


def test_contact_graph_rejects_overlap():
    config = Configuration(1.0, [[0.0, 0.0], [1.9, 0.0]])
    with pytest.raises(OverlapError):
        contact_graph(config)


def test_contact_graph_rejects_disc_outside_box():
    config = Configuration(0.1, [[0.5, 0.5], [5.0, 0.5]], (1.0, 1.0))
    with pytest.raises(OverlapError, match="disc 1 lies outside the box"):
        contact_graph(config)


def test_overlap_audit_lists_discs_outside_box():
    r = 0.1
    slack = r * TANGENCY_REL
    config = Configuration(r, [[r - 0.5 * slack, 0.5], [0.5, 1.0 - r],
                               [0.5, r - 2.0 * slack], [1.0, 0.3],
                               [0.3, 0.3]], (1.0, 1.0))
    rep = overlap_audit(config)
    assert rep.outside == [2, 3]
    assert rep.pairs == []
    assert overlap_audit(Configuration(r, [[5.0, 0.5]])).outside == []
    # planar discs at x = -r and y = -r, which a box would hold outside
    planted = np.append(_planted_planar(r).centers, [[-r, r], [r, -r]], 0)
    assert overlap_audit(Configuration(r, planted)).outside == []


def _planted_planar(r):
    """Four tangent planar discs, at (r, r), (3r, r), (r, 3r) and (3r, 3r):
    a box's left and bottom walls would touch three of them."""
    return Configuration(r, [[r, r], [3.0 * r, r], [r, 3.0 * r],
                             [3.0 * r, 3.0 * r]])


def test_walls_are_the_box_or_at_infinity():
    boxed = Configuration(0.1, [[0.5, 0.5]], (1.0, 2.0))
    assert boxed.walls == (0.0, 1.0, 0.0, 2.0)
    planar = Configuration(0.1, [[0.5, 0.5]])
    assert planar.walls == (-math.inf, math.inf, -math.inf, math.inf)


def test_junction_contact_edges():
    g = contact_graph(junction_piece())
    assert sorted(g.pairs) == [(0, 1), (0, 2), (1, 4), (2, 3), (3, 5), (4, 5)]
    _, wall_contacts = contact_lists(g)
    touching_walls = [i for i, w in enumerate(wall_contacts) if w]
    assert touching_walls == [0, 1, 2]
    assert sum(len(w) for w in wall_contacts) == 4  # corner disc hits both


def test_jammed_three_normals():
    v = verdict_of(_normals(0, 120, 240))
    assert v.status == "jammed"
    assert v.witness is None


def test_two_contacts_never_jam():
    v = verdict_of(_normals(0, 90))
    assert v.status == "movable"
    # witness must lie in the feasible cone {d : d.n >= 0}, here [0, 90]
    assert _angle(v.witness) == pytest.approx(45.0, abs=1e-9)


def test_antipodal_pair_slides_perpendicular():
    v = verdict_of(_normals(0, 180))
    assert v.status == "movable"
    assert _angle(v.witness) == pytest.approx(90.0, abs=1e-9)


def test_junction_diagonal_disc_cone():
    v = verdict_of(_normals(120, 330))
    assert v.status == "movable"
    assert 30.0 - 1e-9 <= _angle(v.witness) <= 60.0 + 1e-9


def test_no_contacts_is_rattler():
    assert verdict_of([]).status == "rattler"


def test_witness_invariant_randomized():
    rnd = random.Random(2024)
    for _ in range(1000):
        k = rnd.randint(1, 7)
        normals = _normals(*[rnd.uniform(0, 360) for _ in range(k)])
        v = verdict_of(normals)
        if v.status == "jammed":
            assert len(normals) >= 3
        else:
            assert all(v.witness[0] * n[0] + v.witness[1] * n[1] >= -1e-9
                       for n in normals)


def test_few_contacts_never_jammed_randomized():
    rnd = random.Random(5)
    for _ in range(1000):
        k = rnd.randint(0, 2)
        normals = _normals(*[rnd.uniform(0, 360) for _ in range(k)])
        assert verdict_of(normals).status != "jammed"


def test_adding_normals_preserves_jammed():
    rnd = random.Random(17)
    for _ in range(1000):
        normals = _normals(*[rnd.uniform(0, 360) for _ in range(5)])
        if verdict_of(normals).status != "jammed":
            continue
        more = normals + _normals(rnd.uniform(0, 360))
        assert verdict_of(more).status == "jammed"


def test_direction_oracle_examples():
    assert direction_oracle(_normals(0, 120, 240), 720) == "jammed"
    assert direction_oracle(_normals(0, 90), 720) == "movable"


def test_oracle_agreement_randomized():
    rnd = random.Random(424242)
    agree = total = 0
    for _ in range(1000):
        k = rnd.randint(1, 6)
        angles = [rnd.uniform(0, 360) for _ in range(k)]
        srt = sorted(a % 360 for a in angles)
        gaps = [(srt[(i + 1) % k] - srt[i]) % 360 for i in range(k)]
        if k == 1:
            gaps = [360.0]
        if any(abs(g - 180.0) < 1.0 for g in gaps):
            continue
        normals = _normals(*angles)
        total += 1
        fast = verdict_of(normals).status
        slow = direction_oracle(normals, 720)
        if (fast == "jammed") == (slow == "jammed"):
            agree += 1
    assert total > 500
    assert agree == total


def test_overlap_audit_penetration():
    config = Configuration(1.0, [[0.0, 0.0], [1.9, 0.0]])
    rep = overlap_audit(config)
    assert rep.max_penetration == pytest.approx(0.1)
    assert len(rep.pairs) == 1


def test_overlap_audit_empty():
    config = Configuration(1.0, np.empty((0, 2)))
    rep = overlap_audit(config)
    assert rep.pairs == []
    assert rep.max_penetration == 0.0


def test_moved_disc_audit_matches_overlap_audit():
    # a chain audits only the discs moved since its last audit, and pairs
    # of two unmoved discs are as that audit left them: with the overlaps
    # and the wall crossing planted among moved discs the audit is the full
    # one; an overlap planted among unmoved discs is left out, and every
    # other row stays
    square = assemble_square(8)
    r = square.radius
    c = square.centers.copy()
    c[3] = c[4] + (2.0 * r * (1.0 - 1e-3), 0.0)
    c[7, 0] = 0.5 * r
    moved = [3, 7, 30, 50]
    config = Configuration(r, c, square.box)
    full = overlap_audit(config)
    assert full.pairs and full.outside == [7]
    assert overlap_audit(config, moved) == full
    for among in ([], [5], list(range(config.n))):
        assert overlap_audit(config, among).outside == [7]
    assert overlap_audit(config, list(range(config.n))) == full
    c[40] = c[41] + (0.0, 2.0 * r * (1.0 - 1e-2))
    config = Configuration(r, c, square.box)
    full = overlap_audit(config)
    part = overlap_audit(config, moved)
    assert any(p[:2] == (40, 41) for p in full.pairs)
    assert part.pairs == [p for p in full.pairs
                          if p[0] in moved or p[1] in moved]
    assert part.outside == full.outside == [7]
    refusals = []
    for audit in (full, part):
        with pytest.raises(OverlapError, match="discs 3 and") as refused:
            verifier.check_valid(config, audit)
        refusals.append(str(refused.value))
    assert refusals[0] == refusals[1]


def _matrix_overlap_audit(config):
    """Oracle: the full n x n distance matrix scan."""
    c = config.centers
    n = len(c)
    r = config.radius
    d = np.sqrt(np.sum((c[:, None, :] - c[None, :, :]) ** 2, axis=2))
    iu = np.triu_indices(n, 1)
    dists = d[iu]
    pens = 2.0 * r - dists
    viol = pens > 2.0 * r * TANGENCY_REL
    pairs = [(int(iu[0][k]), int(iu[1][k]), float(dists[k]))
             for k in np.nonzero(viol)[0]]
    return max(float(np.max(pens)), 0.0), pairs


def _brute_contact_graph(config):
    """Oracle: the all-pairs double loop, walls included."""
    c = config.centers
    n = len(c)
    r = config.radius
    normals = [[] for _ in range(n)]
    wall_contacts = [[] for _ in range(n)]
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            dx = c[i, 0] - c[j, 0]
            dy = c[i, 1] - c[j, 1]
            d = math.hypot(dx, dy)
            if abs(d - 2.0 * r) <= 2.0 * r * TANGENCY_REL:
                normals[i].append((dx / d, dy / d))
                normals[j].append((-dx / d, -dy / d))
                pairs.append((i, j))
    if config.box is not None:
        w, h = config.box
        for i in range(n):
            for name, normal, gap in (("left", (1.0, 0.0), c[i, 0]),
                                      ("right", (-1.0, 0.0), w - c[i, 0]),
                                      ("bottom", (0.0, 1.0), c[i, 1]),
                                      ("top", (0.0, -1.0), h - c[i, 1])):
                if abs(gap - r) <= r * TANGENCY_REL:
                    normals[i].append(normal)
                    wall_contacts[i].append(name)
    return pairs, normals, wall_contacts


def _lattice_config(rnd):
    """Triangular lattice of unit discs at spacing 2 with holes, rotated and
    moved to negative coordinates: many tangencies, all from rounding."""
    theta = rnd.uniform(0, 2 * math.pi)
    ct, st = math.cos(theta), math.sin(theta)
    ox, oy = rnd.uniform(-50, 0), rnd.uniform(-50, 0)
    pts = []
    for a in range(8):
        for b in range(8):
            if rnd.random() < 0.8:
                x = 2.0 * a + b
                y = math.sqrt(3.0) * b
                pts.append((ct * x - st * y + ox, st * x + ct * y + oy))
    return Configuration(1.0, np.array(pts))


def _assert_same_graph(config):
    g = contact_graph(config)
    pairs, normals, wall_contacts = _brute_contact_graph(config)
    assert g.pairs == pairs
    assert contact_lists(g) == (normals, wall_contacts)
    return g


def test_contact_graph_matches_double_loop_on_constructions():
    square = assemble_square(8)
    g = _assert_same_graph(square)
    assert len(g.pairs) > square.n
    g = _assert_same_graph(tiling_3_12_12(10))
    assert len(g.pairs) > 0


def test_contact_graph_matches_double_loop_randomized():
    rnd = random.Random(90)
    for _ in range(300):
        _assert_same_graph(_random_config(rnd, planar=rnd.random() < 0.3))
    for _ in range(20):
        _assert_same_graph(_lattice_config(rnd))
    # discs where a box's walls would touch them: no wall rows
    for r in (1.0, 0.1, 1.0 / 3.0, 1e-3):
        assert (_assert_same_graph(_planted_planar(r)).partner >= 0).all()


_WALL_CODES = {"left": -1, "right": -2, "bottom": -3, "top": -4}
_WALL_UNITS = {-1: [1.0, 0.0], -2: [-1.0, 0.0], -3: [0.0, 1.0],
               -4: [0.0, -1.0]}


def _brute_contact_rows(config):
    """Oracle: each disc's (partner, gap) rows in the graph's order (lower
    partners, higher partners, walls), from the double loop's pairs and
    wall names."""
    pairs, _, wall_contacts = _brute_contact_graph(config)
    c, r = config.centers, config.radius
    rows = [[] for _ in range(config.n)]
    for a, b in pairs:
        gap = math.hypot(c[a, 0] - c[b, 0], c[a, 1] - c[b, 1]) - 2.0 * r
        rows[a].append((b, gap))
        rows[b].append((a, gap))
    for k, names in enumerate(wall_contacts):
        if names:
            w, h = config.box
            x, y = c[k]
            dist = {"left": x, "right": w - x, "bottom": y, "top": h - y}
            rows[k] += [(_WALL_CODES[name], dist[name] - r) for name in names]
    return pairs, rows


def test_contact_arrays_match_double_loop():
    codes = set()
    for config in (assemble_square(4), assemble_square(8),
                   five_disc_config(), tiling_3_12_12(10)):
        g = contact_graph(config)
        pairs, rows = _brute_contact_rows(config)
        assert list(zip(g.i.tolist(), g.j.tolist())) == pairs
        assert g.ends.tolist() == np.cumsum([0] + list(map(len, rows))).tolist()
        assert g.partner.tolist() == [p for row in rows for p, _ in row]
        assert g.gap.tolist() == [gap for row in rows for _, gap in row]
        assert np.all(np.abs(g.gap) <= 2.0 * config.radius * TANGENCY_REL)
        walls = g.partner < 0
        assert g.unit[walls].tolist() == [_WALL_UNITS[p]
                                          for p in g.partner[walls].tolist()]
        codes |= set(g.partner[walls].tolist())
    assert codes == {-1, -2, -3, -4}


def test_fast_path_never_builds_the_normal_lists():
    square = assemble_square(8)
    assert verify_stable(square).stable
    assert verify_stable(tiling_3_12_12(10)).movable_count > 0
    svg = render_svg(square, contacts=True, color_verdicts=True)
    assert svg.count("<line") == len(contact_graph(square).pairs)


def _scalar_verdicts(graph):
    """The scalar rule on every disc, with its index set."""
    verdicts = []
    for i, normals in enumerate(contact_lists(graph)[0]):
        v = is_locally_jammed(normals)
        v.index = i
        verdicts.append(v)
    return verdicts


def _bits(verdicts):
    """Each verdict with its witness as float.hex strings, so that two
    lists compare equal only if every witness is the same bits."""
    return [(v.index, v.status, v.contact_count,
             None if v.witness is None else tuple(map(float.hex, v.witness)))
            for v in verdicts]


def _assert_scalar_rule(graph, report):
    """report holds the scalar rule's verdict on every disc of graph, and
    its counts; returns the scalar rule's verdicts."""
    expected = _scalar_verdicts(graph)
    assert _bits(verdicts_of(report)) == _bits(expected)
    counts = [sum(v.status == s for v in expected)
              for s in ("jammed", "movable", "rattler")]
    assert [report.jammed_count, report.movable_count,
            report.rattler_count] == counts
    assert report.stable == (counts[0] == len(expected))
    return expected


def test_verdicts_are_the_scalar_rule_on_constructions():
    rnd = random.Random(92)
    bridge = tune_epsilon(4)
    configs = [assemble_square(N) for N in (4, 8, 16, 32)]
    configs += [tiling_3_12_12(10), tiling_3_12_12(24), five_disc_config(),
                complete_symmetric_bridge(bridge)]
    configs += [_lattice_config(rnd) for _ in range(20)]
    statuses = set()
    for config in configs:
        expected = _assert_scalar_rule(contact_graph(config),
                                       verify_stable(config))
        statuses |= {v.status for v in expected}
    assert statuses == {"jammed", "movable", "rattler"}


def _gap_disc(gap):
    """Three normals whose largest circular gap is gap (> 2pi/3)."""
    return [(math.cos(a), math.sin(a))
            for a in (0.0, gap, gap + (2.0 * math.pi - gap) / 2.0)]


def _band_discs():
    """Hand-made discs: largest gaps 1e-13 either side of the jamming bound
    and 1e-11 inside it, a rattler, one and two normals, three coincident
    normals, and a tie of two gaps of pi."""
    bound = math.pi - ANGLE_SLACK
    return [_gap_disc(bound - 1e-13), _gap_disc(bound + 1e-13),
            _gap_disc(bound - 1e-11), [], [(1.0, 0.0)],
            [(1.0, 0.0), (0.0, 1.0)], [(0.6, 0.8)] * 3,
            [(1.0, 0.0), (1.0, 0.0), (-1.0, 0.0)]]


def _random_normals(rnd):
    """0 to 7 normals, each a uniform direction, an axis, or a repeat or the
    antipode of one drawn before."""
    normals = []
    for _ in range(rnd.randint(0, 7)):
        pick = rnd.random()
        if normals and pick < 0.2:
            normals.append(rnd.choice(normals))
        elif normals and pick < 0.4:
            x, y = rnd.choice(normals)
            normals.append((-x, -y))
        elif pick < 0.6:
            normals.append(rnd.choice([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0),
                                       (0.0, -1.0)]))
        else:
            normals += _normals(rnd.uniform(0, 360))
    return normals


def test_verdicts_are_the_scalar_rule_on_random_and_hand_made_discs():
    rnd = random.Random(93)
    for _ in range(300):
        config = _random_config(rnd, planar=rnd.random() < 0.3)
        _assert_scalar_rule(contact_graph(config), verify_stable(config))
    # 4e-16 is about one ulp of pi, so the gaps step across the bound
    bound = math.pi - ANGLE_SLACK
    discs = _band_discs() + [_gap_disc(bound + k * 4e-16)
                             for k in range(-40, 41)]
    discs += [_random_normals(rnd) for _ in range(1500)]
    graph = graph_of(discs)
    report = verifier._decide(graph)
    expected = _assert_scalar_rule(graph, report)
    statuses = [v.status for v in expected]
    assert min(map(statuses.count, ("jammed", "movable", "rattler"))) > 100
    # every disc is jammed iff it has 3 normals and a margin over the slack
    assert ((report.status == verifier._JAMMED) == (
        (report.contacts >= 3) & (report.margin > ANGLE_SLACK))).all()


@pytest.mark.parametrize("case, graphs", [
    (test_verdicts_are_the_scalar_rule_on_constructions, 28),
    (test_verdicts_are_the_scalar_rule_on_random_and_hand_made_discs, 301)],
    ids=["constructions", "random_and_hand_made_discs"])
def test_verdict_statuses_are_the_math_atan2_rule(case, graphs, monkeypatch):
    # the case runs as it is, and every graph it checks also meets the
    # scalar rule on math.atan2's angles: no status rests on np.arctan2
    checked = []
    scalar_rule = _assert_scalar_rule

    def also_math_atan2(graph, report):
        normals = contact_lists(graph)[0]
        assert [v.status for v in verdicts_of(report)] == [
            is_locally_jammed(n, math_atan2_angles).status for n in normals]
        checked.append(len(normals))
        return scalar_rule(graph, report)

    monkeypatch.setitem(globals(), "_assert_scalar_rule", also_math_atan2)
    case()
    assert len(checked) == graphs


def test_verdicts_near_the_band_come_from_the_scalar_rule(monkeypatch):
    discs = _band_discs()
    graph = graph_of(discs)
    expected = _scalar_verdicts(graph)
    passes = []
    real = verifier._largest_gaps

    def watch(a, counts):
        passes.append(a.tolist())
        return real(a, counts)

    monkeypatch.setattr(verifier, "_largest_gaps", watch)
    assert verdicts_of(verifier._decide(graph)) == expected
    # one pass decides every disc, the two 1e-13 either side of the bound
    # included, from every row's np.arctan2 angle (the rattler has no rows)
    assert passes == [arctan2_angles([n for normals in discs
                                      for n in normals])]
    status = [v.status for v in expected]
    assert status[:6] == ["jammed", "movable", "jammed", "rattler",
                          "movable", "movable"]
    assert status[6:] == ["movable", "movable"]
    # the gap tie (pi from 0 and from pi) goes to the larger start angle
    assert expected[7].witness[1] > 0.0


@pytest.mark.parametrize("m", [2, 3, 5])
def test_coincident_normals_leave_a_half_plane_free(m):
    # every normal points one way, so the disc may move along it
    one = verdict_of([(0.6, 0.8)])
    v = verdict_of([(0.6, 0.8)] * m)
    assert v.status == "movable"
    assert v.witness == one.witness
    assert v.witness == pytest.approx((0.6, 0.8), abs=1e-15)
    graph = graph_of([[(0.6, 0.8)] * m])
    assert verdicts_of(verifier._decide(graph)) == _scalar_verdicts(graph)


def test_clearly_jammed_squares_skip_the_scalar_rule(monkeypatch):
    square = assemble_square(8)
    rows = []
    real = verifier._largest_gaps

    def watch(a, counts):
        rows.append(len(a))
        return real(a, counts)

    monkeypatch.setattr(verifier, "_largest_gaps", watch)
    assert verify_stable(square).jammed_count == square.n
    # the one pass reads every normal once
    assert rows == [len(contact_graph(square).unit)]


def test_overlap_audit_matches_matrix_scan_randomized():
    rng = np.random.default_rng(91)
    for _ in range(100):
        n = int(rng.integers(2, 60))
        config = Configuration(float(rng.uniform(0.2, 2.0)),
                               rng.uniform(-20.0, 20.0, (n, 2)))
        rep = overlap_audit(config)
        worst, pairs = _matrix_overlap_audit(config)
        assert rep.pairs == pairs
        assert rep.max_penetration == worst


def test_five_disc_verdicts():
    report = verify_stable(five_disc_config())
    assert report.stable
    assert report.movable_count == 0
    # cross-check the center disc's normals by hand
    g = contact_graph(five_disc_config())
    angles = sorted(_angle(n) for n in contact_lists(g)[0][0])
    assert angles == pytest.approx([45.0, 135.0, 225.0, 315.0], abs=1e-9)


def test_five_disc_shrunk_all_free():
    config = five_disc_config()
    config.radius *= 0.99
    report = verify_stable(config)
    assert report.jammed_count == 0
    assert report.rattler_count == 5


def test_scale_invariance_randomized():
    rnd = random.Random(88)
    for _ in range(1000):
        config = _random_config(rnd)
        s = rnd.uniform(0.01, 100.0)
        r1 = verify_stable(config)
        r2 = verify_stable(scaled(config, s))
        assert r1.status.tolist() == r2.status.tolist()


def test_rigid_motion_invariance_randomized():
    rnd = random.Random(89)
    for _ in range(1000):
        config = _random_config(rnd, planar=True)
        theta = rnd.uniform(0, 2 * math.pi)
        t = np.array([rnd.uniform(-5, 5), rnd.uniform(-5, 5)])
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        moved = Configuration(config.radius, config.centers @ rot.T + t)
        r1 = verify_stable(config)
        r2 = verify_stable(moved)
        assert r1.status.tolist() == r2.status.tolist()


def _random_config(rnd, planar=False):
    """Small random valid configuration, some discs tangent by snapping."""
    n = rnd.randint(2, 6)
    pts = []
    while len(pts) < n:
        p = (rnd.uniform(1, 9), rnd.uniform(1, 9))
        if all(math.hypot(p[0] - q[0], p[1] - q[1]) >= 2.0 for q in pts):
            pts.append(p)
    # snap a random pair to exact tangency now and then
    if len(pts) >= 2 and rnd.random() < 0.5:
        a, b = pts[0], pts[1]
        d = math.hypot(b[0] - a[0], b[1] - a[1])
        pts[1] = (a[0] + (b[0] - a[0]) * 2.0 / d,
                  a[1] + (b[1] - a[1]) * 2.0 / d)
        if any(math.hypot(pts[1][0] - q[0], pts[1][1] - q[1]) < 2.0 - 1e-12
               for q in pts[2:]):
            pts[1] = b
    box = None if planar else (10.0, 10.0)
    return Configuration(1.0, np.array(pts), box)


def _tier1_configs():
    """The junction, the five-disc square, a one-disc box (a rattler), the
    N=4 and N=8 squares and a tiling: every status occurs."""
    return [junction_piece(), five_disc_config(),
            Configuration(0.1, [[0.5, 0.5]], (1.0, 1.0)),
            assemble_square(4), assemble_square(8), tiling_3_12_12(10)]


def test_array_decision_is_the_report():
    # verify_stable's record is _decide's on the contact graph, array for
    # array; its status codes, contact counts and witness bits are the
    # scalar rule's, and a jammed disc's witness row is NaN
    statuses = set()
    for config in _tier1_configs():
        graph = contact_graph(config)
        report = verify_stable(config)
        again = verifier._decide(graph)
        for name in ("status", "contacts", "witness", "margin"):
            assert np.array_equal(getattr(report, name), getattr(again, name),
                                  equal_nan=True)
        _assert_scalar_rule(graph, report)
        jammed = report.status == verifier._JAMMED
        assert np.isnan(report.witness[jammed]).all()
        assert not np.isnan(report.witness[~jammed]).any()
        statuses |= set(report.status.tolist())
    assert statuses == {verifier._JAMMED, verifier._MOVABLE,
                        verifier._RATTLER}


def test_report_holds_only_arrays_counts_and_a_bool():
    # the record is one set of per-disc arrays plus three counts, the
    # verdict and the contact graph it was decided from: no per-disc Python
    # object
    report = verify_stable(tiling_3_12_12(10))
    assert report.movable_count > 0
    n = report.status.shape[0]
    kinds = {f.name: type(getattr(report, f.name))
             for f in dataclasses.fields(report)}
    assert kinds == {"status": np.ndarray, "contacts": np.ndarray,
                     "witness": np.ndarray, "margin": np.ndarray,
                     "jammed_count": int, "movable_count": int,
                     "rattler_count": int, "stable": bool,
                     "graph": verifier.ContactGraph}
    assert report.witness.shape == (n, 2)
    assert report.contacts.shape == report.margin.shape == (n,)
    assert (report.jammed_count + report.movable_count
            + report.rattler_count) == n


def test_report_names_its_discs_and_lists_those_not_jammed():
    # disc 0 jammed by three normals 120 degrees apart, disc 1 movable
    # along its one normal, disc 2 a rattler, disc 3 movable along +y
    graph = graph_of([_normals(0, 120, 240), _normals(0), [], _normals(90)])
    report = verifier._decide(graph)
    assert report.graph is graph
    assert report.names() == ["jammed", "movable", "rattler", "movable"]
    free = report.not_jammed()
    assert free == [(1, (1.0, 0.0)), (2, (1.0, 0.0)),
                    (3, (math.cos(math.pi / 2), 1.0))]
    assert [type(k) for k, _ in free] == [int] * 3
    assert all(type(w) is tuple for _, w in free)
    assert report.not_jammed(2) == free[:2]
    assert report.not_jammed(0) == []


def test_verify_stable_reports_the_graph_it_decided_from():
    config = tiling_3_12_12(10)
    report, graph = verify_stable(config), contact_graph(config)
    for name in ("unit", "partner", "gap", "i", "j", "ends"):
        assert np.array_equal(getattr(report.graph, name),
                              getattr(graph, name))
    assert report.names() == [verifier._STATUSES[k]
                              for k in report.status.tolist()]


def test_jammed_iff_margin_exceeds_the_slack():
    # margin = pi - G for each disc's largest normal gap G (2pi for a
    # rattler), bit for bit the scalar loop's gap; a disc is jammed iff its
    # margin exceeds ANGLE_SLACK
    for config in _tier1_configs():
        report = verify_stable(config)
        jammed = report.status == verifier._JAMMED
        assert (jammed == (report.margin > ANGLE_SLACK)).all()
        gaps = [_largest_gap(sorted(arctan2_angles(normals)))[0]
                if normals else 2.0 * math.pi
                for normals in contact_lists(contact_graph(config))[0]]
        assert list(map(float.hex, report.margin.tolist())) == [
            float.hex(math.pi - g) for g in gaps]


def test_r_of_order_1_over_n_is_best_possible(square1024):
    """The paper's second claim: r = O(1/n) is best possible up to a
    constant factor, since every stable configuration in the unit square
    has n r >= 1/2, up to the tangency tolerance.

    In a stable configuration every disc is jammed: its largest normal gap
    G is below pi, so its normals lie in no closed half-plane.  For each
    axis direction some normal, which points from the obstacle into the
    disc, then points strictly against it: the disc has an obstacle
    strictly on that side, a neighbour whose centre lies strictly further
    that way, or that wall.  The rightmost disc has no neighbour to its
    right, so it touches the right wall.  Following obstacles strictly
    leftward from it, x falls at every step, so the path ends, and only at
    a disc that touches the left wall.  So a contact path joins the walls.
    Any such path spans 1 - 2r in x (the end discs touch their walls to
    within r TANGENCY_REL, which moves the bound by under 1e-9 of a disc)
    in steps of at most 2r(1 + TANGENCY_REL), so it has at least
    (1 - 2r) / (2r(1 + TANGENCY_REL)) + 1 discs, about 1/(2r), and n is at
    least that.  The same holds in y.  The constructed squares sit at
    n r of about 1.0 (five discs) to 6.0 (N=1024, whose paths of 2,056
    discs meet the bound's 2,054.46), below the bound's 1/2 times 12.
    """
    configs = [five_disc_config()] + [assemble_square(N)
                                      for N in (3, 4, 8, 32)] + [square1024]
    paths = []
    for config in configs:
        graph = contact_graph(config)
        r = config.radius
        assert verify_stable(config).stable
        assert open_sides(graph) == []
        for axis in (0, 1):
            path = wall_to_wall_path(graph, axis)
            span = config.box[axis] - 2.0 * r
            assert path >= span / (2.0 * r * (1.0 + TANGENCY_REL)) + 1.0
            paths.append(path)
        assert config.n * r >= 0.5
    assert paths == [3, 3, 14, 14, 16, 16, 24, 24, 72, 72, 2056, 2056]


def test_a_disc_without_a_left_obstacle_is_not_jammed():
    # on the N=4 square, disc 1 has one obstacle on its left, disc 9;
    # without it, disc 1 has no obstacle on that side and can move left,
    # so the configuration is not stable
    config = assemble_square(4)
    graph = contact_graph(config)
    a, b = graph.ends[1:3]
    assert graph.partner[a:b][graph.unit[a:b, 0] > 0.0].tolist() == [9]
    keep = np.arange(config.n) != 9
    cut = Configuration(config.radius, config.centers[keep], config.box)
    report = verify_stable(cut)
    assert not report.stable
    assert verifier._STATUSES[report.status[1]] == "movable"
    assert open_sides(contact_graph(cut)) == [(1, "left")]
