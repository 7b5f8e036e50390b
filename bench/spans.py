"""In-memory span tracing around jampack's public callables.

Each target is replaced by a wrapper in the module namespace where its
callers look it up: ``cli`` imports ``verify_stable`` by name, ``metropolis``
imports ``overlap_audit`` by name and ``construction`` imports ``chord_step``
by name, so those names are wrapped where they are used.  Spans nest the way
the calls do.  A span is recorded only while a CLI command runs under
``Tracer.command``; calls made by the benchmark's own checks pass straight
through.  A target that no longer exists is skipped and reported.
"""

import contextlib
import functools
import os
import statistics
import time


def _pairs(args, result):
    n = getattr(args[0], "n", None) if args else None
    return {"pair_checks": n * (n - 1) // 2} if n is not None else None


def _contacts(args, result):
    counts = _pairs(args, result) or {}
    counts["contact_pairs"] = len(result.pairs)
    return counts


def _verdicts(args, result):
    return {"jammed": result.jammed_count, "movable": result.movable_count}


def _chain(args, result):
    stats = result[1]
    return {"proposed": stats.proposed, "accepted": stats.accepted}


def _written(args, result):
    return {"bytes": os.path.getsize(args[1])}


def _svg(args, result):
    return {"svg_bytes": len(result)}


# (module, attribute, span name, observer of (args, result) -> counts)
TARGETS = [
    ("cli", "dispatch", "cli.dispatch", None),
    ("cli", "verify_stable", "verifier.verify_stable", _verdicts),
    ("construction", "tune_epsilon", "construction.tune_epsilon", None),
    ("construction", "build_half_chain", "construction.build_half_chain",
     None),
    ("construction", "assemble_square", "construction.assemble_square", None),
    ("construction", "tiling_3_12_12", "construction.tiling_3_12_12", None),
    ("construction", "chord_step", "geometry.chord_step", None),
    ("verifier", "overlap_audit", "verifier.overlap_audit", _pairs),
    ("verifier", "contact_graph", "verifier.contact_graph", _contacts),
    ("verifier", "verify_stable", "verifier.verify_stable", _verdicts),
    ("metropolis", "overlap_audit", "verifier.overlap_audit", _pairs),
    ("metropolis", "run_chain", "metropolis.run_chain", _chain),
    ("files", "write_config", "files.write_config", _written),
    ("files", "read_config", "files.read_config", None),
    ("render", "render_svg", "render.render_svg", _svg),
]


# cfg label of commands that only warm up and feed no per-layer metric
WARMUP = "warmup"


class Tracer:
    """Records spans [id, trace id, parent id, name, start, end, counts].

    One trace is one CLI command; ``traces[trace_id]`` holds the label the
    benchmark gave it (phase, unit, cfg).
    """

    def __init__(self):
        self.spans = []
        self.traces = []
        self.skipped = []
        self._stack = []
        self._trace = None
        self._saved = []

    def install(self, modules: dict):
        for mod_name, attr, name, observe in TARGETS:
            module = modules[mod_name]
            fn = getattr(module, attr, None)
            if fn is None:
                self.skipped.append("%s.%s" % (mod_name, attr))
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, observe))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    @contextlib.contextmanager
    def command(self, **label):
        self._trace = len(self.traces)
        self.traces.append(label)
        try:
            yield
        finally:
            self._trace = None
            self._stack.clear()

    def _wrap(self, fn, name, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._trace is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = [len(self.spans), self._trace, parent, name,
                    time.perf_counter(), None, None]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                span[6] = observe(args, result)
            return result
        return traced


def unit_totals(tracer: Tracer) -> dict:
    """{(phase, unit): {(span name, field, cfg): value}}, leaving out the
    commands labelled WARMUP.

    Fields: 'self' (duration minus child spans), 'dur', 'calls', every
    observed count summed, and 'last:<count>' holding the last observed
    value.
    """
    child = [0.0] * len(tracer.spans)
    for span in tracer.spans:
        if span[2] is not None:
            child[span[2]] += span[5] - span[4]
    units = {}
    for span in tracer.spans:
        label = tracer.traces[span[1]]
        if label["cfg"] == WARMUP:
            continue
        totals = units.setdefault((label["phase"], label["unit"]), {})
        name, cfg = span[3], label["cfg"]
        dur = span[5] - span[4]
        for field, value in (("self", dur - child[span[0]]), ("dur", dur),
                             ("calls", 1)):
            key = (name, field, cfg)
            totals[key] = totals.get(key, 0) + value
        for field, value in (span[6] or {}).items():
            key = (name, field, cfg)
            totals[key] = totals.get(key, 0) + value
            totals[(name, "last:" + field, cfg)] = value
    return units


def _get(totals, span, field, cfg):
    if cfg is None:
        return sum(v for (s, f, _), v in totals.items()
                   if s == span and f == field)
    return totals.get((span, field, cfg), 0)


def _ratio(num, den):
    return num / den if den else 0.0


SQUARES = ("sq4", "sq8", "sq32")
CERTIFIED = SQUARES + ("tiling24", "five")
CHAINS = ("sq4", "sq32", "five")
RENDERED = ("sq8", "sq32")


def _specs():
    """(metric name, unit, value of one unit's totals, last-value flag)."""
    specs = []

    def add(name, unit, fn, cfgs=(None,), last=False):
        for cfg in cfgs:
            full = name if cfg is None else "%s.%s" % (name, cfg)
            specs.append((full, unit, functools.partial(fn, cfg=cfg), last))

    def field(span, what):
        return lambda t, cfg: _get(t, span, what, cfg)

    add("construction.tune_epsilon.self_s", "s",
        field("construction.tune_epsilon", "self"), SQUARES)
    add("construction.tune_epsilon.total_s", "s",
        field("construction.tune_epsilon", "dur"), SQUARES)
    add("construction.build_half_chain.calls", "count",
        field("construction.build_half_chain", "calls"), SQUARES)
    add("geometry.chord_step.calls", "count",
        field("geometry.chord_step", "calls"), SQUARES)
    add("construction.assemble_square.self_s", "s",
        field("construction.assemble_square", "self"), SQUARES)
    add("construction.tiling_3_12_12.self_s", "s",
        lambda t, cfg: _get(t, "construction.tiling_3_12_12", "self",
                            "tiling24"))
    for fn in ("overlap_audit", "contact_graph"):
        add("verifier.%s.self_s" % fn, "s",
            field("verifier." + fn, "self"), CERTIFIED)
        add("verifier.%s.calls" % fn, "count",
            field("verifier." + fn, "calls"), CERTIFIED)
    add("verifier.verify_stable.self_s", "s",
        field("verifier.verify_stable", "self"), CERTIFIED)
    add("verifier.pair_checks", "pairs_computed",
        lambda t, cfg: (_get(t, "verifier.overlap_audit", "pair_checks", cfg)
                        + _get(t, "verifier.contact_graph", "pair_checks",
                               cfg)), CERTIFIED)
    add("verifier.contact_pairs", "count",
        field("verifier.contact_graph", "last:contact_pairs"), CERTIFIED,
        last=True)
    add("verifier.jammed", "count",
        field("verifier.verify_stable", "last:jammed"), CERTIFIED, last=True)
    add("verifier.movable", "count",
        field("verifier.verify_stable", "last:movable"), CERTIFIED,
        last=True)
    add("metropolis.run_chain.self_s", "s",
        field("metropolis.run_chain", "self"), CHAINS)
    add("metropolis.us_per_proposal", "us",
        lambda t, cfg: 1e6 * _ratio(
            _get(t, "metropolis.run_chain", "dur", cfg),
            _get(t, "metropolis.run_chain", "proposed", cfg)), CHAINS)
    add("metropolis.proposed", "count",
        field("metropolis.run_chain", "proposed"), CHAINS)
    add("metropolis.accepted", "count",
        field("metropolis.run_chain", "accepted"), CHAINS)
    add("metropolis.acceptance_rate", "ratio",
        lambda t, cfg: _ratio(
            _get(t, "metropolis.run_chain", "accepted", cfg),
            _get(t, "metropolis.run_chain", "proposed", cfg)), CHAINS)
    add("files.write_config.self_s", "s",
        field("files.write_config", "self"))
    add("files.read_config.self_s", "s", field("files.read_config", "self"))
    add("files.bytes_written", "B", field("files.write_config", "bytes"))
    add("render.render_svg.self_s", "s", field("render.render_svg", "self"),
        RENDERED)
    add("render.svg_bytes", "B", field("render.render_svg", "svg_bytes"),
        RENDERED)
    add("cli.dispatch.self_s", "s", field("cli.dispatch", "self"))
    return specs


SPECS = _specs()

# Summary of the traced run itself, computed by the benchmark.
TRACE_METRICS = [
    ("trace.overhead_s", "s"),
    ("trace.traced_norm_wall_s", "s"),
    ("trace.untraced_norm_wall_s", "s"),
    ("trace.spans_per_pass", "count"),
    ("trace.skipped_wrappers", "count"),
]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values: for each phase, the median over its units (set-up
    repetitions or traced passes) of the unit's value, summed over the
    phases.  Last-value counts take the largest value seen instead."""
    units = unit_totals(tracer)
    phases = {}
    for (phase, _), totals in units.items():
        phases.setdefault(phase, []).append(totals)
    out = {}
    for name, unit, fn, last in SPECS:
        if last:
            value = max((fn(t) for t in units.values()), default=0)
        else:
            value = sum(statistics.median(fn(t) for t in group)
                        for group in phases.values())
        out[name] = {"value": value, "unit": unit}
    return out
