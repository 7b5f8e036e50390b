"""jampack benchmark: the CLI commands users run, in process, timed.

Usage, from the root of the repository:

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Workloads (one process each, a closed loop with one caller and one thread):

  certify       build-square, verify and render for N = 8 and 32, then
                tiling --window 24 (n = 1157) and verify.  Exercises construction,
                verifier, files and render; the Metropolis chain does nothing.
  chain-frozen  simulate the five-disc square at step r and the N=32 square
                at step 1e-5 r, where every proposal is rejected.
  chain-fluid   simulate the N=4 and N=32 squares at step r, where a share
                of the proposals is accepted.

Set-up runs at least eleven times, and again while the set-ups have taken
less than a fifth of --seconds, so that a short set-up is sampled more.  A
pass is one round of the workload's timed commands; passes repeat until
--seconds have gone by and at least three have run.  A reported time is the
sum over the commands of each command's median time across the set-ups
(setup_s) or the passes (norm_wall_s).  Those two are normalised wall
times: after every command a fixed calibration kernel runs (see calibrate),
and the command counts as its time over the kernel's time, times REF_CAL_S.
The machine is shared: load from elsewhere on it moves raw times by up to
40 % within minutes, and moves the kernel's time with them, while a change
to jampack moves only the command's time.  The raw wall times are printed
in the report as wall_s and setup_wall_s, with the kernel's median time as
calibrate_s.  The first set-up and the first pass check every output; later
ones must reproduce the same output bytes.
The constructions have no random input; --seed is the chain seed.

With --trace 1 the public callables of each module are wrapped (see
spans.py), traced and untraced passes alternate, and the per-layer metrics
plus the tracing overhead (traced minus untraced norm_wall_s) are printed
instead of the end-to-end metrics.
The spans are written to .bench_out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The two lines before it carry the behaviour
fingerprint and a report: the fail ratio, the stage times (build_square_s
and verify_square_s, from the passes on certify and from the set-ups on the
chain workloads, which build and verify their squares there; render_s and
verify_tiling_s on certify; simulate_us_per_proposal on the chain
workloads), sample counts and the machine.  --smoke shrinks every size
(N=4, window 10, 10^3 proposals) for the benchmark's own tests.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import spans

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 11
MIN_PASSES = 3                # so that per-command medians reject a bad pass
TOL = 1e-9                    # the CLI's default relative tangency tolerance
FROZEN_STEP = 1e-5            # chain-frozen's N=32 step, in disc radii
REF_CAL_S = 0.02              # calibrate()'s time on a quiet 2-vCPU Xeon VM

FULL = {"squares": (8, 32), "window": 24, "chain_N": 32,
        "five_steps": 30000, "chain_steps": 20000}
SMOKE = {"squares": (4,), "window": 10, "chain_N": 4,
         "five_steps": 1000, "chain_steps": 1000}


def _load(path, box=False):
    """(radius, float64 centres[, box]) of a configuration file, read with
    plain json so the checks do not depend on jampack's reader."""
    with open(path) as fh:
        doc = json.load(fh)
    loaded = (doc["radius"],
              np.array(doc["centers"], dtype="<f8").reshape(-1, 2))
    return loaded + (doc["box"],) if box else loaded


_CAL_POINTS = np.random.default_rng(0).random((600, 2))


def calibrate() -> float:
    """Wall time of a fixed piece of work of the kinds jampack does:
    an interpreted loop with float math and dict updates, numpy calls on
    small arrays, and a row-block distance scan.  Its inputs never change
    and it calls nothing of jampack's, so only the machine's speed moves it.
    """
    pts = _CAL_POINTS
    t0 = time.perf_counter()
    acc = {}
    for i in range(20000):
        acc[i % 97] = acc.get(i % 97, 0.0) + math.hypot(i * 0.5, i * 0.25)
    for k in range(150):
        np.count_nonzero(np.hypot(pts[:, 0] - pts[k, 0],
                                  pts[:, 1] - pts[k, 1]) < 0.1)
    for s in range(0, len(pts), 128):
        block = pts[s:s + 128]
        np.count_nonzero(np.hypot(block[:, None, 0] - pts[None, :, 0],
                                  block[:, None, 1] - pts[None, :, 1]) < 0.01)
    return time.perf_counter() - t0


def _sha(centres) -> str:
    return hashlib.sha256(centres.tobytes()).hexdigest()


def _pair_distances(centres, chunk=128):
    """Centre distances of the pairs i < j, one row block at a time, so
    the checks never hold an n x n array."""
    n = len(centres)
    for s in range(0, n, chunk):
        block = centres[s:s + chunk]
        d = np.hypot(block[:, None, 0] - centres[None, :, 0],
                     block[:, None, 1] - centres[None, :, 1])
        upper = np.arange(n)[None, :] > np.arange(s, s + len(block))[:, None]
        yield d[upper]


def contact_pairs(centres, r, tol=TOL) -> int:
    """Disc pairs with |d - 2r| <= 2r*tol."""
    return sum(int(np.count_nonzero(np.abs(d - 2.0 * r) <= 2.0 * r * tol))
               for d in _pair_distances(centres))


def overlapping_pairs(centres, r, tol=TOL) -> int:
    """Disc pairs closer than 2r(1 - tol)."""
    return sum(int(np.count_nonzero(d < 2.0 * r * (1.0 - tol)))
               for d in _pair_distances(centres))


class Bench:
    """Runs CLI commands in process, times them by stage and keeps the
    check results, the fingerprint and the spans of traced commands."""

    def __init__(self, modules, work: Path, tracer):
        self.modules = modules
        self.work = work
        self.tracer = tracer
        self.attempted = 0
        self.failed_ops = set()
        self.failures = []
        self.fingerprint = []
        self._digests = {}
        self.first = True

    def path(self, name) -> str:
        return str(self.work / name)

    def start(self, phase, index):
        """Begin one unit: a set-up repetition or a pass."""
        self.phase, self.index, self._pos = phase, index, 0
        self.first = index == 0
        self.unit = {"cmds": [], "proposals": 0}

    def expect(self, ok, what):
        """Record a failed check against the last command run."""
        if not ok:
            self.failed_ops.add(self.attempted)
            self.failures.append(what)

    def run(self, stage, cfg, argv, expect=0, out=None) -> str:
        """Run one CLI command with stdout captured and time it under stage.

        The output (stdout, plus the file written to out) must be the same
        as in the first unit of this phase.
        """
        stdout, stderr = io.StringIO(), io.StringIO()
        traced = self.tracer is not None and self.tracer.installed
        label = (self.tracer.command(phase=self.phase, unit=self.index,
                                     cfg=cfg)
                 if traced else contextlib.nullcontext())
        dispatch = self.modules["cli"].dispatch
        with label, contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            rc = dispatch(argv)
            wall = time.perf_counter() - t0
        self.unit["cmds"].append((stage, wall, calibrate()))
        self.attempted += 1
        text = stdout.getvalue()
        self.expect(rc == expect, "%s %s: exit %s, expected %s: %s" % (
            argv[0], cfg, rc, expect, stderr.getvalue().strip()[-300:]))
        digest = hashlib.sha256(text.encode())
        if out is not None and os.path.exists(out):
            digest.update(Path(out).read_bytes())
        key = (self.phase, self._pos)
        self._pos += 1
        ref = self._digests.setdefault(key, digest.hexdigest())
        self.expect(ref == digest.hexdigest(), "%s %s: output differs from "
                    "the first %s" % (argv[0], cfg, self.phase))
        return text

    def json_of(self, text, argv0) -> dict:
        try:
            return json.loads(text)
        except ValueError:
            self.expect(False, "%s: output is not JSON" % argv0)
            return {}

    # -- commands with their checks ---------------------------------------

    def build_square(self, N, cfg) -> str:
        path = self.path("sq%d.json" % N)
        text = self.run("build_square_s", cfg,
                        ["build-square", "--N", str(N), "--out", path,
                         "--format", "json"], out=path)
        if self.first:
            doc = self.json_of(text, "build-square")
            n = doc.get("n")
            self.expect(n == 24 * N + 32, "build-square %s: n=%s, expected "
                        "%d" % (cfg, n, 24 * N + 32))
            self.expect(4.0 < doc.get("n_times_r", 0) < 6.0,
                        "build-square %s: n*r=%s not in (4, 6)"
                        % (cfg, doc.get("n_times_r")))
            _, centres = _load(path)
            self.expect(len(centres) == n, "build-square %s: file holds %d "
                        "discs" % (cfg, len(centres)))
            self.fingerprint.append({"cmd": "build-square", "cfg": cfg,
                                     "n": len(centres),
                                     "centres_sha256": _sha(centres)})
        return path

    def verify(self, stage, cfg, path, stable=True) -> dict:
        text = self.run(stage, cfg, ["verify", path, "--format", "json"],
                        expect=0 if stable else 2)
        if not self.first:
            return {}
        doc = self.json_of(text, "verify")
        n = doc.get("n")
        self.expect(doc.get("stable") is stable,
                    "verify %s: stable=%s" % (cfg, doc.get("stable")))
        self.expect(doc.get("rattlers") == 0,
                    "verify %s: %s rattlers" % (cfg, doc.get("rattlers")))
        self.expect(doc.get("jammed", 0) + doc.get("movable", 0) == n,
                    "verify %s: jammed + movable != n" % cfg)
        self.fingerprint.append({"cmd": "verify", "cfg": cfg, "n": n,
                                 "jammed": doc.get("jammed"),
                                 "movable": doc.get("movable"),
                                 "rattlers": doc.get("rattlers")})
        return doc

    def render(self, cfg, path):
        svg = self.run("render_s", cfg, ["render", path, "--contacts",
                                         "--color"])
        if self.first:
            r, centres = _load(path)
            circles, lines = svg.count("<circle"), svg.count("<line")
            pairs = contact_pairs(centres, r)
            self.expect(circles == len(centres), "render %s: %d circles for "
                        "%d discs" % (cfg, circles, len(centres)))
            self.expect(lines == pairs, "render %s: %d lines for %d contact "
                        "pairs" % (cfg, lines, pairs))
            self.fingerprint.append({"cmd": "render", "cfg": cfg,
                                     "circles": circles,
                                     "contact_pairs": lines})

    def tiling(self, window, cfg):
        path = self.path("tiling%d.json" % window)
        self.run("tiling_s", cfg, ["tiling", "--window", str(window),
                                   "--out", path, "--format", "json"],
                 out=path)
        doc = self.verify("verify_tiling_s", cfg, path, stable=False)
        if self.first:
            _, centres = _load(path)
            W = 2.0 * window
            edge = 2.0
            far = [i for i, _ in doc.get("movable_discs", [])
                   if max(abs(centres[i, 0]), abs(centres[i, 1]))
                   < W - 2.0 * edge]
            self.expect(not far, "verify %s: movable discs %s are more "
                        "than two edges inside the window" % (cfg, far[:5]))
            self.fingerprint[-1]["centres_sha256"] = _sha(centres)

    def five_disc(self, cfg) -> str:
        path = self.path("five.json")
        self.run("five_disc_s", cfg, ["five-disc", "--out", path,
                                      "--format", "json"], out=path)
        return path

    def simulate(self, cfg, path, steps, seed, step_radius=None,
                 frozen=False):
        final = self.path("final-%s.json" % cfg)
        argv = ["simulate", path, "--steps", str(steps), "--seed", str(seed),
                "--out", final, "--format", "json"]
        if step_radius is not None:
            argv += ["--step-radius", repr(step_radius)]
        text = self.run("simulate_s", cfg, argv, out=final)
        self.unit["proposals"] += steps
        if self.first:
            doc = self.json_of(text, "simulate")
            accepted = doc.get("accepted")
            self.expect(doc.get("proposed") == steps,
                        "simulate %s: proposed %s" % (cfg, doc.get("proposed")))
            if frozen:
                self.expect(accepted == 0, "simulate %s: accepted %s, "
                            "expected 0" % (cfg, accepted))
            else:
                self.expect(isinstance(accepted, int) and accepted > 0,
                            "simulate %s: accepted %s, expected > 0"
                            % (cfg, accepted))
            self.check_final(cfg, final)
            _, centres = _load(final)
            self.fingerprint.append({"cmd": "simulate", "cfg": cfg,
                                     "accepted": accepted,
                                     "centres_sha256": _sha(centres)})

    def check_final(self, cfg, final):
        r, c, (w, h) = _load(final, box=True)
        overlaps = overlapping_pairs(c, r)
        self.expect(not overlaps, "simulate %s: final config has %d "
                    "overlapping pairs" % (cfg, overlaps))
        slack = r * TOL
        inside = ((c[:, 0] >= r - slack) & (c[:, 0] <= w - r + slack)
                  & (c[:, 1] >= r - slack) & (c[:, 1] <= h - r + slack))
        self.expect(bool(inside.all()), "simulate %s: %d discs outside the "
                    "box" % (cfg, int((~inside).sum())))


# -- workloads -------------------------------------------------------------

class Certify:
    """Build, verify and render squares, then verify the tiling."""

    def __init__(self, sizes, seed):
        self.sizes = sizes

    @staticmethod
    def _pipeline(b, squares, window, label=None):
        for N in squares:
            cfg = label or "sq%d" % N
            path = b.build_square(N, cfg)
            b.verify("verify_square_s", cfg, path)
            b.render(cfg, path)
        b.tiling(window, label or "tiling%d" % window)

    def setup(self, b):
        """Warm-up at the smoke sizes, so imports and first-call costs are
        paid before timing."""
        self._pipeline(b, SMOKE["squares"], SMOKE["window"], spans.WARMUP)

    def run(self, b):
        self._pipeline(b, self.sizes["squares"], self.sizes["window"])


class Chain:
    """simulate on configurations that set-up builds and verifies."""

    def __init__(self, seed, chains):
        self.seed = seed
        # (cfg, N or None for the five-disc square, steps, step in radii or
        # None for the CLI default of one radius, whether nothing is accepted)
        self.chains = chains
        self.paths = {}

    def setup(self, b):
        for cfg, N, *_ in self.chains:
            if N is None:
                path = b.five_disc(cfg)
                b.verify("verify_five_s", cfg, path)
            else:
                path = b.build_square(N, cfg)
                b.verify("verify_square_s", cfg, path)
            self.paths[cfg] = (path, _load(path)[0])

    def run(self, b):
        for cfg, _, steps, step, frozen in self.chains:
            path, r = self.paths[cfg]
            b.simulate(cfg, path, steps, self.seed,
                       None if step is None else step * r, frozen)


def chain_frozen(sizes, seed):
    # The five-disc square is frozen at step r: its hop threshold is about
    # 1.53 r.  The squares' smallest thresholds are about 1e-4 r.
    N = sizes["chain_N"]
    return Chain(seed, [
        ("five", None, sizes["five_steps"], None, True),
        ("sq%d" % N, N, sizes["chain_steps"], FROZEN_STEP, True)])


def chain_fluid(sizes, seed):
    chains = [("sq4", 4, sizes["chain_steps"], None, False)]
    if sizes["chain_N"] != 4:
        N = sizes["chain_N"]
        chains.append(("sq%d" % N, N, sizes["chain_steps"], None, False))
    return Chain(seed, chains)


WORKLOADS = {"certify": Certify, "chain-frozen": chain_frozen,
             "chain-fluid": chain_fluid}


def _import_jampack():
    sys.path.insert(0, str(ROOT / "src"))
    from jampack import cli, construction, files, metropolis, render, verifier
    return {"cli": cli, "construction": construction, "files": files,
            "metropolis": metropolis, "render": render, "verifier": verifier}


def _seconds(cmd, raw) -> float:
    _, wall, cal = cmd
    return wall if raw else wall * REF_CAL_S / cal


def total(units, stage=None, raw=False) -> float:
    """Sum, over the commands of a unit, of each command's median time
    across the units; only the commands timed under `stage` if given.

    Every unit runs the same commands in the same order, so a burst of
    load from elsewhere on the machine that slows one command in one unit
    does not move the result.
    """
    stages = [cmd[0] for cmd in units[0]["cmds"]]
    return sum(statistics.median(_seconds(u["cmds"][k], raw) for u in units)
               for k, name in enumerate(stages)
               if stage is None or name == stage)


def has(units, stage) -> bool:
    return any(cmd[0] == stage for cmd in units[0]["cmds"])


def measure(workload, b, seconds, tracer):
    """Set up SETUP_REPS times and more until a fifth of `seconds` has
    gone by, then run passes for `seconds`, and at least MIN_PASSES of
    them, or one untraced and one traced with a tracer.

    Returns (set-up units, untraced passes, traced passes); a unit holds
    the (stage, wall seconds, calibrate() seconds) of each command in order
    and the proposals made.
    With a tracer, set-up is traced and passes alternate untraced, traced.
    """
    if tracer is not None:
        tracer.install(b.modules)
    setups = []
    try:
        end = time.perf_counter() + seconds / 5
        while len(setups) < SETUP_REPS or time.perf_counter() < end:
            b.start("setup", len(setups))
            workload.setup(b)
            setups.append(b.unit)
    finally:
        if tracer is not None:
            tracer.uninstall()
    plain, traced = [], []
    end = time.perf_counter() + seconds
    k = 0
    while (time.perf_counter() < end
           or (not traced if tracer is not None
               else len(plain) < MIN_PASSES)):
        on = tracer is not None and k % 2 == 1
        if on:
            tracer.install(b.modules)
        try:
            b.start("pass", k)
            workload.run(b)
        finally:
            if on:
                tracer.uninstall()
        (traced if on else plain).append(b.unit)
        k += 1
    return setups, plain, traced


def _machine():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the benchmark's own tests")
    args = p.parse_args(argv)

    try:
        modules = _import_jampack()
    except ImportError as e:
        print("bench: cannot import jampack from %s: %s"
              % (ROOT / "src", e), file=sys.stderr)
        return 2

    sizes = SMOKE if args.smoke else FULL
    seed = args.seed % 2 ** 32            # numpy generators need seed >= 0
    workload = WORKLOADS[args.workload](sizes, seed)
    tracer = spans.Tracer() if args.trace else None
    work = ROOT / ".bench_work" / ("%s-%d" % (args.workload, os.getpid()))
    work.mkdir(parents=True)
    b = Bench(modules, work, tracer)
    try:
        setups, plain, traced = measure(workload, b, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    def stage(name):
        # per pass where the passes run the stage (certify), else per set-up
        return total(plain if has(plain, name) else setups, name)

    report = {"workload": args.workload, "seed": args.seed,
              "fail_ratio": "%d/%d" % (len(b.failed_ops), b.attempted),
              "failures": b.failures[:10],
              "setups": len(setups), "passes": len(plain),
              "traced_passes": len(traced), "machine": _machine(),
              "wall_s": {"value": total(plain, raw=True), "unit": "s"},
              "setup_wall_s": {"value": total(setups, raw=True),
                               "unit": "s"},
              "calibrate_s": {"value": statistics.median(
                  cmd[2] for u in plain for cmd in u["cmds"]), "unit": "s"}}
    for name in ("build_square_s", "verify_square_s"):
        report[name] = {"value": stage(name), "unit": "s"}
    for name in ("render_s", "tiling_s", "verify_tiling_s"):
        if has(plain, name):
            report[name] = {"value": total(plain, name), "unit": "s"}
    if has(plain, "simulate_s"):
        report["simulate_us_per_proposal"] = {
            "value": 1e6 * total(plain, "simulate_s") / plain[0]["proposals"],
            "unit": "us"}

    if tracer is None:
        metrics = {
            "setup_s": {"value": total(setups), "unit": "s"},
            "norm_wall_s": {"value": total(plain), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    else:
        metrics = spans.layer_metrics(tracer)
        passes = defaultdict(int)
        for span in tracer.spans:
            label = tracer.traces[span[1]]
            if label["phase"] == "pass":
                passes[label["unit"]] += 1
        summary = {
            "trace.overhead_s": total(traced) - total(plain),
            "trace.traced_norm_wall_s": total(traced),
            "trace.untraced_norm_wall_s": total(plain),
            "trace.spans_per_pass": (statistics.median(passes.values())
                                     if passes else 0),
            "trace.skipped_wrappers": len(tracer.skipped),
        }
        for name, unit in spans.TRACE_METRICS:
            metrics[name] = {"value": summary[name], "unit": unit}
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        dump = out / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed))
        with open(dump, "w") as fh:
            fh.write(json.dumps({"traces": tracer.traces,
                                 "skipped": tracer.skipped}) + "\n")
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        report["spans_file"] = str(dump.relative_to(ROOT))
        report["skipped_wrappers"] = tracer.skipped

    fingerprint = json.dumps(b.fingerprint, sort_keys=True)
    report["fingerprint_sha256"] = hashlib.sha256(
        fingerprint.encode()).hexdigest()
    print("fingerprint " + fingerprint)
    print("report " + json.dumps(report))
    print(json.dumps({"correct": not b.failed_ops,
                      "attempted": b.attempted,
                      "failed": len(b.failed_ops), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
