import dataclasses
import math
from math import dist

import numpy as np
import pytest

from jampack import construction, verifier
from jampack.configuration import Configuration
from jampack.construction import (DEFAULT_LAMBDA, F_LIMIT, AssemblyError,
                                  BridgeChain, ConstructionError,
                                  TuningError, assemble_square,
                                  build_half_chain,
                                  complete_symmetric_bridge, density,
                                  five_disc_config, junction_piece,
                                  tiling_3_12_12, tune_epsilon)
from jampack.geometry import SOLVER_ABS
from jampack.verifier import OverlapError, verify_stable

from _oracles import (PROBES, circle_circle_intersections, curve_eval,
                      plain_chord_step, plain_tune_epsilon, scaled,
                      tiling_loop)

S3 = math.sqrt(3.0)


def test_curve_eval_at_zero_for_any_epsilon():
    for eps in (0.0, 0.5, 3.0, 42.0):
        assert curve_eval(DEFAULT_LAMBDA, eps, 0.0) == pytest.approx(
            2.0 + S3, abs=1e-14)


def test_curve_limits():
    assert curve_eval(DEFAULT_LAMBDA, 0.0, 1e6) == pytest.approx(
        2.0 * S3, abs=1e-9)
    eps = 0.7
    limit = 2.0 * S3 + eps * (S3 - 2.0)
    assert curve_eval(DEFAULT_LAMBDA, eps, 1e6) == pytest.approx(limit,
                                                                 abs=1e-9)
    assert limit < 2.0 * S3


def test_curve_family_validation():
    # tune_epsilon refuses lam by the number rule, then by its range, both
    # before it reads N; a numpy scalar is tuned as the float it holds
    with pytest.raises(ConstructionError, match="lam must be positive"):
        tune_epsilon(1, -1.0)
    for value in (True, np.bool_(False), "0.1", None, 10 ** 400):
        with pytest.raises(ValueError, match="^lam "):
            tune_epsilon(1, value)
    chain = tune_epsilon(8, np.float32(0.1))
    assert chain == tune_epsilon(8, float(np.float32(0.1)))


@pytest.mark.parametrize("field, value", [
    ("lam", math.nan), ("lam", math.inf), ("lam", 0.0)])
def test_curve_family_refuses_parameters_by_name(field, value):
    with pytest.raises(ConstructionError, match=field):
        tune_epsilon(8, value)


def test_chain_seed_geometry():
    chain = build_half_chain(DEFAULT_LAMBDA, 0.0, 4)
    assert chain.a[0] == pytest.approx((0.0, 2.0 + S3), abs=1e-14)
    assert chain.b[0] == pytest.approx((0.0, S3), abs=1e-14)
    assert chain.c[0] == pytest.approx((1.0, 0.0), abs=1e-14)
    assert dist(chain.a[0], chain.b[0]) == pytest.approx(2.0, abs=1e-14)
    assert dist(chain.b[0], chain.c[0]) == pytest.approx(2.0, abs=1e-14)


def _oracle_second_step(lam):
    """Independent solver for a_2, b_2, c_2: fine-grid scan plus bisection
    for the chord point, direct quadratic solution for the circle pair."""
    def f(x):
        return 2.0 * S3 + (2.0 - S3) * math.exp(-lam * x)

    y0 = f(0.0)

    def g(x):
        return math.hypot(x, f(x) - y0) - 2.0

    x = 0.0
    while g(x + 1e-4) < 0:
        x += 1e-4
    lo, hi = x, x + 1e-4
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if g(lo) * g(mid) <= 0:
            hi = mid
        else:
            lo = mid
    ax = 0.5 * (lo + hi)
    ay = f(ax)
    # circles radius 2 about (ax, ay) and (1, 0): subtract the equations to
    # get the radical line, substitute, solve the quadratic, keep larger x
    cx, cy = 1.0, 0.0
    dx, dy = cx - ax, cy - ay
    # x*dx + y*dy = k
    k = (cx * cx + cy * cy - ax * ax - ay * ay) / 2.0
    # param: x = (k - y*dy)/dx
    A = (dy / dx) ** 2 + 1.0
    B = -2.0 * (k / dx - ax) * (dy / dx) - 2.0 * ay
    C = (k / dx - ax) ** 2 + ay * ay - 4.0
    disc = math.sqrt(B * B - 4.0 * A * C)
    sols = [(-B + s * disc) / (2.0 * A) for s in (1.0, -1.0)]
    pts = [((k - y * dy) / dx, y) for y in sols]
    bx, by = max(pts, key=lambda p: p[0])
    return (ax, ay), (bx, by), (bx + math.sqrt(4.0 - by * by), 0.0)


def test_chain_second_step_against_independent_oracle():
    lam = 0.05
    chain = build_half_chain(lam, 0.0, 4)
    a2, b2, c2 = _oracle_second_step(lam)
    assert chain.a[1] == pytest.approx(a2, abs=1e-10)
    assert chain.b[1] == pytest.approx(b2, abs=1e-10)
    assert chain.c[1] == pytest.approx(c2, abs=1e-10)


def test_chain_tangency_residuals_and_monotone_x():
    chain = build_half_chain(DEFAULT_LAMBDA, 0.0, 8)
    N = chain.N
    for i in range(N - 1):
        assert abs(dist(chain.a[i], chain.a[i + 1]) - 2.0) < 1e-9
        assert abs(dist(chain.a[i + 1], chain.b[i + 1]) - 2.0) < 1e-9
        assert abs(dist(chain.b[i + 1], chain.c[i]) - 2.0) < 1e-9
        assert abs(dist(chain.b[i + 1], chain.c[i + 1]) - 2.0) < 1e-9
    for row in (chain.a, chain.b, chain.c):
        xs = [p[0] for p in row]
        assert all(x2 > x1 for x1, x2 in zip(xs, xs[1:]))
    assert all(p[1] == 0.0 for p in chain.c)


def test_chain_rejects_small_max_n():
    with pytest.raises(ConstructionError):
        build_half_chain(DEFAULT_LAMBDA, 0.0, 1)


@pytest.mark.parametrize("N", [4, 8])
def test_tune_epsilon_closure(N):
    chain = tune_epsilon(N)
    eps = chain.epsilon_used
    assert 0 < eps < 50.0
    assert chain.N == N
    # recompute the chain from scratch at eps* and re-check the residual
    fresh = build_half_chain(DEFAULT_LAMBDA, eps, N)
    res = fresh.b[N - 1][0] - fresh.a[N - 1][0] - 1.0
    assert abs(res) <= 1e-11


def test_tune_epsilon_bracket_signs():
    # the residual must change sign across the tuned value
    eps = tune_epsilon(4).epsilon_used

    def g(e):
        ch = build_half_chain(DEFAULT_LAMBDA, e, 4)
        if ch.terminated_at is not None and ch.N < 4:
            return 1.0
        return ch.b[3][0] - ch.a[3][0] - 1.0

    assert g(eps * 0.9) * g(eps * 1.1) < 0


def test_tune_epsilon_failure_names_parameters():
    # at lam=0.02 the depth-2 residual stays negative up to the scan's top
    with pytest.raises(TuningError) as e:
        tune_epsilon(2, 0.02)
    assert "N=2, lam=0.02 with eps_hi=50:" in str(e.value)
    assert "last probe eps=50 has residual -0.414" in str(e.value)


def _parent_build_half_chain(lam, epsilon, max_N):
    """The chain builder as it was before f(0) was hoisted: every curve
    point goes through curve_eval, and every chord by plain bisection."""
    if max_N < 2:
        raise ConstructionError("max_N must be at least 2")

    def f(x):
        return curve_eval(lam, epsilon, x)

    a = [(0.0, f(0.0))]
    b = [(0.0, S3)]
    c = [(1.0, 0.0)]
    term = None
    for i in range(1, max_N):
        xn = plain_chord_step(f, a[-1][0], 2.0)
        an = (xn, f(xn))
        pts = circle_circle_intersections(an, 2.0, c[-1], 2.0)
        if not pts:
            term = ("no_b", i + 1)
            break
        bn = max(pts, key=lambda p: p[0])
        if bn[1] > 2.0:
            a.append(an)
            b.append(bn)
            term = ("no_c", i + 1)
            break
        a.append(an)
        b.append(bn)
        c.append((bn[0] + math.sqrt(4.0 - bn[1] ** 2), 0.0))
    return BridgeChain(a, b, c, len(b), epsilon, b[-1][0], term)


def _parent_closure_residual(lam, N, epsilon):
    chain = _parent_build_half_chain(lam, epsilon, N)
    if chain.terminated_at is not None and chain.N < N:
        return 1.0
    return chain.b[N - 1][0] - chain.a[N - 1][0] - 1.0


def _exact_chain(lam, epsilon, N):
    """build_half_chain at (lam, epsilon) in 50-digit arithmetic, on the
    curve and seed the package's float constants define: each a by eight
    Newton steps on the chord equation, by which they have settled to the
    working precision, each b as the larger-x point at distance 2 from a
    and the last c.  Returns the rows a, b, c and the
    termination, as build_half_chain does."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        mpf = mpmath.mpf
        big, k, lam, eps = mpf(F_LIMIT), mpf(2.0 - S3), mpf(lam), mpf(epsilon)
        e0 = eps * (big + k)

        def f(x):
            return (1 + eps) * (big + k * mpmath.exp(-lam * x)) - e0

        def df(x):
            return -(1 + eps) * k * lam * mpmath.exp(-lam * x)

        a, b, c = [(mpf(0), f(0))], [(mpf(0), mpf(S3))], [(mpf(1), mpf(0))]
        for i in range(1, N):
            ax, ay = a[-1]
            x = ax + 2 / mpmath.sqrt(1 + df(ax) ** 2)
            for _ in range(8):
                u, v = x - ax, f(x) - ay
                x -= (u * u + v * v - 4) / (2 * u + 2 * v * df(x))
            a_next = (x, f(x))
            (px, py), (qx, qy) = a_next, c[-1]
            d = mpmath.sqrt((qx - px) ** 2 + (qy - py) ** 2)
            if d > 4:
                return a, b, c, ("no_b", i + 1)
            h = mpmath.sqrt(4 - d * d / 4) / d
            mx, my = (px + qx) / 2, (py + qy) / 2
            b_next = max((mx + h * (qy - py), my - h * (qx - px)),
                         (mx - h * (qy - py), my + h * (qx - px)))
            a.append(a_next)
            b.append(b_next)
            if b_next[1] > 2:
                return a, b, c, ("no_c", i + 1)
            c.append((b_next[0] + mpmath.sqrt(4 - b_next[1] ** 2), mpf(0)))
        return a, b, c, None


def _check_against_bisection(lam, N):
    """tune_epsilon(N, lam) against the scan of the parent's residual,
    whose chords are plain bisection's, and its chain against the 50-digit
    one at the same epsilon: the same TuningError cases and messages as
    that scan, epsilon* inside its bracket, a closure residual within
    2^-50 * 4N, and every chain centre within 2^-48 * 4N of the exact
    chain's.  Returns whether tuning failed."""
    memo = {}

    def g(eps):
        if eps not in memo:
            memo[eps] = _parent_closure_residual(lam, N, eps)
        return memo[eps]

    bracket = next(((lo, hi) for lo, hi in zip(PROBES, PROBES[1:])
                    if g(lo) * g(hi) < 0), None)
    if bracket is None:
        with pytest.raises(TuningError) as e:
            tune_epsilon(N, lam)
        assert str(e.value) == (
            "no closure bracket for N=%d, lam=%g with eps_hi=50: the "
            "residual changes sign nowhere in the scan; the last probe "
            "eps=50 has residual %.3g" % (N, lam, g(PROBES[-1])))
        return True
    chain = tune_epsilon(N, lam)
    eps = chain.epsilon_used
    assert bracket[0] <= eps <= bracket[1], N
    scale = 4.0 * N
    assert abs(chain.b[N - 1][0] - chain.a[N - 1][0] - 1.0) <= (
        2.0 ** -50 * scale), N
    a, b, c, term = _exact_chain(lam, eps, N)
    assert (chain.N, chain.terminated_at) == (len(b), term)
    for row, exact in ((chain.a, a), (chain.b, b), (chain.c, c)):
        assert len(row) == len(exact), N
        error = max(abs(w - v) for p, q in zip(row, exact)
                    for v, w in zip(p, q))
        assert error <= 2.0 ** -48 * scale, (N, float(error))
    return False


@pytest.mark.parametrize("lam", [0.02, 0.05, 0.1])
def test_tune_epsilon_matches_parent_scan_and_bisection(lam):
    # the same failures, and chains within rounding of the exact chain
    outcomes = {_check_against_bisection(lam, N)
                for N in list(range(2, 21)) + [32, 64]}
    if lam == 0.02:
        assert outcomes == {True, False}   # N=2 has no bracket here


@pytest.mark.parametrize("lam, N", [(0.05, 96), (0.05, 128), (0.05, 160),
                                    (0.1, 64), (0.1, 96)])
def test_tune_epsilon_matches_parent_where_margins_are_thin(lam, N):
    # past N = 64 the sign pass drifts far from g above the bracket, and
    # at (0.05, 160) and (0.1, 96) there is no bracket at all
    failed = _check_against_bisection(lam, N)
    assert failed == ((lam, N) in ((0.05, 160), (0.1, 96)))


def test_scan_residuals_equal_the_scalar_residuals_bit_for_bit():
    # on every scan probe, past the bracket and where chains end early too
    for lam in (0.02, 0.05, 0.1):
        for N in list(range(2, 21)) + [32, 64, 96, 128, 160]:
            fast = construction._scan_residuals(lam, N, np.array(PROBES))
            assert fast.tolist() == [
                construction._closure_residual(lam, N, eps)[0]
                for eps in PROBES], (lam, N)


@pytest.mark.parametrize("N", [3, 8])
def test_scan_marks_the_probes_whose_chord_step_misses(N):
    # at lam=2 the chord steps of the larger probes miss chord 2: the scan
    # marks with NaN exactly the probes whose scalar chain is refused, the
    # first being probe 42, and its other residuals are the scalar ones
    # bit for bit
    fast = construction._scan_residuals(2.0, N, np.array(PROBES))
    for eps, res in zip(PROBES, fast.tolist()):
        if math.isnan(res):
            with pytest.raises(TuningError, match="does not converge"):
                construction._closure_residual(2.0, N, eps)
        else:
            assert res == construction._closure_residual(2.0, N, eps)[0]
    assert np.flatnonzero(np.isnan(fast))[0] == 42


def test_chord_step_matches_plain_bisection():
    # every a of tuned chains, and of chains at half and twice epsilon*,
    # lies within plain bisection's 1e-12 bracket of the chord's root
    steps = 0
    for N in (8, 32, 128):
        eps_star = tune_epsilon(N).epsilon_used
        for eps in (0.5 * eps_star, eps_star, 2.0 * eps_star):
            chain = build_half_chain(DEFAULT_LAMBDA, eps, N)
            for p, q in zip(chain.a, chain.a[1:]):
                x = plain_chord_step(
                    lambda x: curve_eval(DEFAULT_LAMBDA, eps, x), p[0], 2.0)
                assert abs(q[0] - x) <= SOLVER_ABS, (N, eps, p)
                steps += 1
    assert steps > 3 * (8 + 32 + 128) // 2


def test_chord_step_refuses_a_chord_outside_the_contact_band():
    # a NaN start height leaves Newton nowhere; the step names its start
    with pytest.raises(ConstructionError,
                       match=r"chord step from x=3\.5 ends at chord nan"):
        construction.chord_step(1.0, 0.0, 0.05, 3.5, math.nan)
    # a start far above the curve: no curve point lies at chord 2
    with pytest.raises(ConstructionError, match=r"from x=3\.5 ends at"):
        construction.chord_step(1.0, 0.0, 0.05, 3.5, 100.0)
    # on the curve the chord is 2 within the band
    one, e0 = 1.5, 0.5 * (F_LIMIT + 2.0 - S3)
    a = (3.5, curve_eval(0.05, 0.5, 3.5))
    assert abs(dist(a, construction.chord_step(one, e0, 0.05, *a)) - 2.0) \
        <= 1e-15


@pytest.mark.parametrize("N, eps, x", [
    (3, "0.1077217345015941", "0.0"), (8, "0.1077217345015941", "0.0")])
def test_tuning_names_a_chord_step_that_does_not_converge(N, eps, x):
    # at lam=2 the scan marks the probes whose chord steps do not converge,
    # the first at eps = 0.1077 (probe 42), below its sign change; tuning
    # refuses that probe by building its chain, naming lam, N, that eps and
    # the step
    with pytest.raises(TuningError) as e:
        assemble_square(N, 2.0)
    assert str(e.value).startswith(
        "closure tuning at N=%d, lam=2 reached eps=%s, where the chain's "
        "chord step does not converge: chord step from x=%s ends at chord "
        "2.0000000" % (N, eps, x)), str(e.value)


def test_tune_epsilon_takes_the_bracket_ends_from_the_scan(monkeypatch):
    # the scan's residuals are the chains' bit for bit, so false position
    # starts from them and no probe's chain is built; epsilon* is as before
    for N, builds, eps_star in ((8, 6, 1.1031909565244968),
                                (32, 4, 0.049787344303112865),
                                (128, 3, 3.211724694516605e-06)):
        built = []
        build = construction.build_half_chain

        def counted(lam, epsilon, max_N):
            built.append(epsilon)
            return build(lam, epsilon, max_N)

        monkeypatch.setattr(construction, "build_half_chain", counted)
        assert tune_epsilon(N).epsilon_used == eps_star
        monkeypatch.undo()
        assert len(built) == builds
        assert not set(built) & set(PROBES)


def test_tune_epsilon_refuses_depth_below_2():
    with pytest.raises(ConstructionError, match="N must be at least 2"):
        tune_epsilon(1)


def test_chain_stops_where_b_rises_above_height_2(monkeypatch):
    # no b rises above 2 on the bridge curves; a raised apex stands in
    apex = construction.apex
    monkeypatch.setattr(construction, "apex",
                        lambda a, c: (apex(a, c)[0], 2.5))
    chain = build_half_chain(DEFAULT_LAMBDA, 0.0, 5)
    assert chain.terminated_at == ("no_c", 2)
    assert (chain.N, len(chain.a), len(chain.c)) == (2, 2, 1)
    assert chain.b[1][1] == 2.5 and chain.mirror_x == chain.b[1][0]


def test_tune_epsilon_builds_each_chain_once(monkeypatch):
    built = []
    build = construction.build_half_chain

    def counted(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(construction, "build_half_chain", counted)
    chain = tune_epsilon(8)
    # every epsilon once, and the chain returned is the one g was read from
    calls = [c.epsilon_used for c in built]
    assert len(set(calls)) == len(calls)
    assert any(c is chain for c in built)


def test_tune_epsilon_closes_in_few_builds(monkeypatch):
    # plain scan and bisection build 102 chains at N=8 and 91 at N=32; the
    # sign pass and replayed bisection built 26 and 30, the sign pass and
    # false position 8 and 6
    for N, most in ((8, 10), (32, 8)):
        calls = 0
        build = construction.build_half_chain

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return build(*args, **kwargs)

        monkeypatch.setattr(construction, "build_half_chain", counted)
        tune_epsilon(N)
        monkeypatch.undo()
        assert calls <= most, (N, calls)


def _tune_on(monkeypatch, residual):
    """tune_epsilon(8) with the closure residual and the
    scan both replaced by residual(eps); returns epsilon* and every epsilon
    at which _closure_residual was called."""
    evaluated = []

    def g(lam, N, eps):
        evaluated.append(eps)
        return residual(eps), BridgeChain([], [], [], 8, eps, 0.0)

    monkeypatch.setattr(construction, "_closure_residual", g)
    monkeypatch.setattr(construction, "_scan_residuals",
                        lambda lam, N, eps: np.array(
                            [residual(e) for e in eps.tolist()]))
    eps_star = tune_epsilon(8).epsilon_used
    monkeypatch.undo()
    return eps_star, set(evaluated)


def test_tune_epsilon_closes_a_steep_step_in_bisections_builds(
        monkeypatch):
    # a step that keeps the chord far from the root for its first steps:
    # epsilon* still ends next to the root, in no more residuals than
    # plain bisection evaluates past the scan
    def step(eps):
        return math.tanh(1e3 * (eps - 0.55))

    eps_star, evaluated = _tune_on(monkeypatch, step)
    _, mids = plain_tune_epsilon(step)
    assert abs(eps_star - 0.55) <= math.ulp(0.55)
    assert len(mids) > 40
    assert len(evaluated - set(PROBES)) <= len(mids)


def test_tune_epsilon_bisects_where_false_position_stalls(monkeypatch):
    # a residual flat at its root keeps every chord on one side; the
    # midpoint after two steps that fail to halve the bracket bounds the
    # run at a few times plain bisection's (without it: 415 against 51)
    def flat(eps):
        return (eps - 0.55) ** 9

    eps_star, evaluated = _tune_on(monkeypatch, flat)
    _, mids = plain_tune_epsilon(flat)
    assert abs(eps_star - 0.55) <= math.ulp(0.55)
    assert len(evaluated - set(PROBES)) <= 2 * len(mids)


def test_tune_epsilon_holds_under_rounding_noise(monkeypatch):
    # a residual monotone only up to a jitter of amp = m/8, m = 2^-44 * 4N
    # being the rounding scale of the chain at depth N; rising and falling
    amp = 2.0 ** -44 * 4.0 * 8 / 8.0
    for root in (0.013, 0.55, 1.7, 31.0, 1.0 - 2.0 ** -53, 1.0,
                 1.0 + 2.0 ** -52, 0.5 + 2.0 ** -54):
        for sign in (1.0, -1.0):
            def noisy(eps, root=root, sign=sign):
                return sign * (eps - root) + amp * math.sin(1e13 * eps)

            eps_star, evaluated = _tune_on(monkeypatch, noisy)
            assert abs(eps_star - root) <= amp + 4.0 * math.ulp(root), (
                root, sign)
            # the evaluated epsilon of least |g|
            assert abs(noisy(eps_star)) == min(map(abs, map(noisy,
                                                            evaluated)))


def test_closure_residual_is_monotone_on_every_scan_bracket(monkeypatch):
    # sampled over the oracle test's lam and N: no chain terminates inside
    # the scan bracket, and s*g strictly increases
    class Bracket(Exception):
        pass

    def stop(g, x0, x1, f0, f1):
        raise Bracket(x0, x1)

    monkeypatch.setattr(construction, "_false_position", stop)
    brackets = 0
    for lam in (0.02, 0.05, 0.1):
        for N in list(range(2, 21)) + [32, 64]:
            try:
                tune_epsilon(N, lam)
            except TuningError:
                assert (lam, N) == (0.02, 2)
                continue
            except Bracket as b:
                lo, hi = b.args
            g = []
            for k in range(32):
                chain = build_half_chain(lam, lo + (hi - lo) * k / 31.0, N)
                assert chain.N == N, (lam, N, k)
                g.append(chain.b[N - 1][0] - chain.a[N - 1][0] - 1.0)
            s = math.copysign(1.0, g[-1])
            assert all(s * u < s * v for u, v in zip(g, g[1:])), (lam, N)
            brackets += 1
    assert brackets == 62


def test_symmetric_bridge_counts_and_closure():
    for N in (4, 6):
        chain = tune_epsilon(N)
        config = complete_symmetric_bridge(chain)
        assert config.n == 10 * N - 4
        assert config.box is None
        # a_N and its mirror are tangent across l
        aN = chain.a[N - 1]
        mirrored = (2.0 * chain.mirror_x - aN[0], aN[1])
        assert dist(aN, mirrored) == pytest.approx(2.0, abs=1e-9)


def test_bridges_list_discs_in_mirror_order():
    # half rows, then (x-axis mirror,) then the l-mirror of each disc off l
    chain = tune_epsilon(5)
    N, xl = chain.N, chain.mirror_x
    half = chain.a[:N] + chain.b[:N] + chain.c[:N - 1]

    def l_mirror(pts):
        return pts + [(2.0 * xl - x, y) for x, y in pts
                      if abs(x - xl) > SOLVER_ABS]

    full = half + [(x, -y) for x, y in half if y > 0.0]
    config = complete_symmetric_bridge(chain)
    assert np.array_equal(config.centers, np.array(l_mirror(full)))
    # the square's bottom bridge: the wall replaces the x-axis mirror
    square = assemble_square(N)
    shifted = [(x + construction._BRIDGE_OFFSET, y) for x, y in l_mirror(half)]
    expected = (np.array(shifted) + 1.0) * square.metadata["scale"]
    assert np.array_equal(square.centers[44::4], expected)


def test_symmetric_bridge_reflection_invariance():
    chain = tune_epsilon(4)
    config = complete_symmetric_bridge(chain)
    pts = sorted(map(tuple, np.round(config.centers, 9)))
    flipped_x = sorted(map(tuple, np.round(
        config.centers * [1, -1], 9)))
    xl = chain.mirror_x
    flipped_l = sorted(
        (round(2 * xl - x, 9), round(y, 9)) for x, y in config.centers)
    assert pts == flipped_x

    def close(p, q):
        return abs(p[0] - q[0]) <= 2e-9 and abs(p[1] - q[1]) <= 2e-9

    assert all(close(p, q) for p, q in zip(pts, flipped_l))


def test_symmetric_bridge_tangencies_from_raw_coordinates():
    chain = tune_epsilon(4)
    config = complete_symmetric_bridge(chain)
    c = config.centers
    d = np.sqrt(((c[:, None, :] - c[None, :, :]) ** 2).sum(2))
    iu = np.triu_indices(config.n, 1)
    # no overlaps, and every disc has at least one tangent neighbor
    assert np.all(d[iu] > 2.0 - 1e-9)
    near = np.abs(d - 2.0) < 1e-9
    np.fill_diagonal(near, False)
    assert np.all(near.sum(axis=1) >= 1)


def test_symmetric_bridge_movable_set_is_four_per_end():
    chain = tune_epsilon(4)
    config = complete_symmetric_bridge(chain)
    report = verify_stable(config)
    assert report.movable_count == 8
    assert report.rattler_count == 0
    movable = {tuple(np.round(config.centers[i], 6))
               for i in np.flatnonzero(report.status == verifier._MOVABLE)}
    xl = chain.mirror_x
    expected = set()
    for p in [(0.0, 2.0 + S3), (0.0, S3)]:
        for q in [p, (p[0], -p[1])]:
            expected.add(tuple(np.round(q, 6)))
            expected.add(tuple(np.round((2 * xl - q[0], q[1]), 6)))
    assert movable == expected


def test_junction_tangent_pairs_exact():
    config = junction_piece()
    c = [tuple(p) for p in config.centers]
    A, B, C, F1, F2, D = c
    for p, q in [(A, B), (A, C), (C, F1), (B, F2), (F2, D), (F1, D)]:
        assert dist(p, q) == pytest.approx(2.0, abs=1e-12)
    # the other nine pairs are strictly separated
    pairs = {(0, 1), (0, 2), (2, 3), (1, 4), (4, 5), (3, 5)}
    for i in range(6):
        for j in range(i + 1, 6):
            if (i, j) not in pairs:
                assert dist(c[i], c[j]) > 2.0 + 1e-9


def test_junction_wall_tangencies_exact():
    config = junction_piece()
    r = config.radius
    xs = config.centers[:, 0]
    ys = config.centers[:, 1]
    assert np.sum(np.abs(xs - r) < 1e-12) == 2   # discs on the left wall
    assert np.sum(np.abs(ys - r) < 1e-12) == 2   # discs on the bottom wall
    on_wall = np.sum((np.abs(xs - r) < 1e-12) | (np.abs(ys - r) < 1e-12))
    assert on_wall == 3


def test_assemble_square_stable_and_counted():
    config = assemble_square(4)
    assert config.n == 24 * 4 + 32
    meta = config.metadata
    assert (meta["N"], meta["lam"], meta["scale"]) == (4, 0.05, config.radius)
    assert meta["epsilon"] == tune_epsilon(4).epsilon_used
    assert config.box == (1.0, 1.0)
    report = verify_stable(config)
    assert report.stable
    assert report.movable_count == 0


def test_assemble_square_scale_invariant_verdicts():
    config = assemble_square(4)
    report = verify_stable(config)
    report2 = verify_stable(scaled(config, 37.5))
    assert report.status.tolist() == report2.status.tolist()


@pytest.mark.parametrize("N", [-1, 0, 1, 2])
def test_assemble_square_rejects_small_n_before_tuning(monkeypatch, N):
    def no_tuning(*args, **kwargs):
        raise AssertionError("tune_epsilon called")

    monkeypatch.setattr(construction, "tune_epsilon", no_tuning)
    with pytest.raises(AssemblyError, match=r"N=%d .*N >= 3" % N):
        assemble_square(N)


@pytest.mark.parametrize("build", [tune_epsilon, assemble_square])
@pytest.mark.parametrize("N", [4.0, np.float64(4.0), "4", None, True,
                               np.bool_(True)],
                         ids=["float", "np.float64", "str", "None", "bool",
                              "np.bool_"])
def test_a_depth_that_is_not_an_integer_is_refused_by_name(monkeypatch,
                                                           build, N):
    # before any chain is grown, and before assemble_square's N >= 3 test,
    # which would read True as N=1
    def no_work(*args, **kwargs):
        raise AssertionError("work done for N=%r" % (N,))

    for name in ("tune_epsilon", "_scan_residuals", "_closure_residual"):
        monkeypatch.setattr(construction, name, no_work)
    with pytest.raises(ConstructionError, match="^N must be an integer, not "):
        build(N)


def test_assemble_square_overlap_is_an_assembly_error(monkeypatch):
    # a wall clamp moved onto the corner disc: four copies, each overlapping
    # the corner disc and its wall neighbour
    clamps = [(1.0, 0.0)] + construction._CLAMPS[1:]
    monkeypatch.setattr(construction, "_CLAMPS", clamps)
    with pytest.raises(AssemblyError,
                       match=r"assembly has 8 overlapping pairs, "
                             r"worst penetration 0\.0346"):
        assemble_square(4)


def test_assemble_square_names_discs_outside_the_box(monkeypatch):
    # a wall clamp moved behind the left wall (x = -1 in the corner frame):
    # its four copies cross a wall and overlap nothing
    clamps = [(-3.0, 5.0)] + construction._CLAMPS[1:]
    monkeypatch.setattr(construction, "_CLAMPS", clamps)
    with pytest.raises(AssemblyError,
                       match=r"assembly has 0 overlapping pairs, .*discs "
                             r"outside the box: \[\d+, \d+, \d+, \d+\]"):
        assemble_square(4)


@pytest.mark.parametrize("N", [4, 8])
def test_overlap_error_message_does_not_grow_with_n(monkeypatch, N):
    # every disc reported outside the box: the message counts them and
    # names five
    def outside(config):
        raise OverlapError("outside", verifier.OverlapReport(
            0.0, [], list(range(config.n))))

    monkeypatch.setattr(verifier, "contact_graph", outside)
    with pytest.raises(AssemblyError) as e:
        assemble_square(N)
    message = str(e.value)
    assert message.endswith("; %d discs outside the box: [0, 1, 2, 3, 4]"
                            % (24 * N + 32))
    assert len(message) < 300


def test_assemble_square_refuses_coincident_centers(monkeypatch):
    # a wall clamp moved onto a junction disc: its four copies coincide
    # with the four copies of that disc, and the certification refuses them
    clamps = [construction._JUNCTION[3]] + construction._CLAMPS[1:]
    monkeypatch.setattr(construction, "_CLAMPS", clamps)
    with pytest.raises(AssemblyError,
                       match=r"assembly has 4 overlapping pairs, "
                             r"worst penetration 0\.0692"):
        assemble_square(4)


def _unjam(monkeypatch, discs):
    """Make _decide report the discs as movable, with margin 0 and escape
    direction (0, 1): every square is certified stable."""
    decide = verifier._decide

    def movable(graph):
        report = decide(graph)
        report.status[discs] = verifier._MOVABLE
        report.witness[discs] = (0.0, 1.0)
        report.margin[discs] = 0.0
        tally = np.bincount(report.status, minlength=3).tolist()
        return dataclasses.replace(report, jammed_count=tally[0],
                                   movable_count=tally[1], stable=False)

    monkeypatch.setattr(verifier, "_decide", movable)


def test_assemble_square_that_is_not_stable_is_an_assembly_error(
        monkeypatch):
    _unjam(monkeypatch, [5])
    with pytest.raises(AssemblyError,
                       match=r"^assembly is not stable: 1 of 128 discs are "
                             r"not jammed; minimum margin 0 rad \(jammed "
                             r"needs > ANGLE_SLACK = 1e-09\); first "
                             r"\(index, escape direction\): "
                             r"\[\(5, \(0\.0, 1\.0\)\)\]$"):
        assemble_square(4)


@pytest.mark.parametrize("N", [4, 8])
def test_assembly_error_message_does_not_grow_with_n(monkeypatch, N):
    # every disc made movable: the message counts them and names five
    _unjam(monkeypatch, slice(None))
    n = 24 * N + 32
    with pytest.raises(AssemblyError) as e:
        assemble_square(N)
    message = str(e.value)
    assert ": %d of %d discs are not jammed;" % (n, n) in message
    assert message.endswith(": %r" % [(k, (0.0, 1.0)) for k in range(5)])
    assert len(message) < 300


def test_complete_symmetric_bridge_refuses_an_untuned_chain():
    # a chain at twice epsilon* does not close at depth 4
    eps = tune_epsilon(4).epsilon_used
    chain = build_half_chain(DEFAULT_LAMBDA, 2.0 * eps, 4)
    with pytest.raises(ConstructionError,
                       match="chain is not tuned: closure residual"):
        complete_symmetric_bridge(chain)


def test_complete_symmetric_bridge_refuses_overlapping_discs():
    chain = tune_epsilon(4)
    x, y = chain.b[1]
    chain.b = chain.b[:1] + [(x, y - 0.1)] + chain.b[2:]
    with pytest.raises(OverlapError, match="overlap"):
        complete_symmetric_bridge(chain)


def test_five_disc_geometry():
    config = five_disc_config()
    r = config.radius
    assert r == pytest.approx((math.sqrt(2.0) - 1.0) / 2.0, abs=1e-15)
    # closure: corner-to-center tangency
    assert math.sqrt(2.0) * (0.5 - r) == pytest.approx(2.0 * r, abs=1e-12)
    center = config.centers[0]
    for corner in config.centers[1:]:
        assert dist(center, corner) == pytest.approx(2.0 * r, abs=1e-12)
    # corner discs do not touch each other
    assert 1.0 - 2.0 * r > 2.0 * r
    assert verify_stable(config).stable


def test_tiling_nearest_neighbor_distance():
    for whw in (2, 3, 7):
        c = tiling_3_12_12(whw).centers
        d = np.sqrt(((c[:, None, :] - c[None, :, :]) ** 2).sum(2))
        np.fill_diagonal(d, np.inf)
        assert np.min(d) == pytest.approx(2.0, abs=1e-9)


def test_tiling_is_the_loop_over_every_dodecagon_vertex():
    for whw in range(2, 61):
        config, loop = tiling_3_12_12(whw), tiling_loop(whw)
        assert config.centers.shape == loop.centers.shape
        assert config.centers.tobytes() == loop.centers.tobytes()
        assert config.metadata == loop.metadata


def test_tiling_interior_vertices_have_three_neighbors():
    config = tiling_3_12_12(5)
    c = config.centers
    W = config.metadata["window"]
    d = np.sqrt(((c[:, None, :] - c[None, :, :]) ** 2).sum(2))
    np.fill_diagonal(d, np.inf)
    contacts = (np.abs(d - 2.0) < 1e-9).sum(axis=1)
    interior = np.max(np.abs(c), axis=1) < W - 4.0
    assert interior.sum() >= 10
    assert np.all(contacts[interior] == 3)


def test_tiling_rejects_small_window():
    with pytest.raises(ConstructionError):
        tiling_3_12_12(1)


def test_density_single_disc():
    one = Configuration(1.0, [[1.0, 1.0]])
    assert density(one, (0.0, 0.0, 2.0, 2.0)) == pytest.approx(math.pi / 4)


def test_density_empty_configuration():
    config = Configuration(1.0, np.empty((0, 2)), (1.0, 1.0))
    assert density(config, (0.0, 0.0, 1.0, 1.0)) == 0.0


def test_density_rejects_empty_region():
    with pytest.raises(ConstructionError):
        density(five_disc_config(), (0.0, 0.0, 0.0, 1.0))


def test_tiling_density_approaches_constant():
    target = (7.0 * S3 - 12.0) * math.pi
    errs = []
    for whw in (5, 20):
        config = tiling_3_12_12(whw)
        W = config.metadata["window"]
        errs.append(abs(density(config, (-W, -W, W, W)) - target))
    assert errs[1] < errs[0]
