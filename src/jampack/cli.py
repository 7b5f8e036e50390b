"""Command-line front end for constructions, verification, simulation and
rendering."""

import argparse
import functools
import json
import sys

from . import construction, files, metropolis, render
from .verifier import _STATUSES, _not_jammed, verify_stable


class _Parser(argparse.ArgumentParser):
    # usage problems are operational errors (exit 1), distinct from the
    # verification-failure exit code 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(1)


def _emit(args, payload: dict):
    """Print the result plus the resolved parameter set for reproducibility."""
    payload = dict(payload)
    payload["parameters"] = {k: v for k, v in vars(args).items()
                             if k not in ("func",) and v is not None}
    if args.format == "json":
        print(json.dumps(payload, indent=1))
    else:
        for k, v in payload.items():
            print("%s: %s" % (k, v))


def _built(args, config, *keys, **fields):
    """Write a built configuration to --out, if given, and emit its n, the
    fields, its metadata under keys, and the output path, in that order."""
    if args.out:
        files.write_config(config, args.out)
    _emit(args, {"n": config.n, **fields,
                 **{k: config.metadata[k] for k in keys}, "out": args.out})
    return 0


def _cmd_build_bridge(args):
    chain = construction.tune_epsilon(args.N, args.lam)
    return _built(args, construction.complete_symmetric_bridge(chain),
                  "epsilon", "mirror_x")


def _cmd_build_square(args):
    config = construction.assemble_square(args.N, args.lam)
    return _built(args, config, "epsilon", "scale", r=config.radius,
                  n_times_r=config.n * config.radius)


def _cmd_junction(args):
    return _built(args, construction.junction_piece())


def _cmd_five_disc(args):
    config = construction.five_disc_config()
    return _built(args, config, radius=config.radius)


def _cmd_tiling(args):
    config = construction.tiling_3_12_12(args.window)
    W = config.metadata["window"]
    return _built(args, config,
                  density=construction.density(config, (-W, -W, W, W)))


def _cmd_verify(args):
    config = files.read_config(args.config)
    report = verify_stable(config)
    doc = {"n": config.n, "stable": report.stable,
           "jammed": report.jammed_count, "movable": report.movable_count,
           "rattlers": report.rattler_count,
           "min_margin": float(report.margin.min()) if config.n else None,
           "movable_discs": _not_jammed(report)}
    if args.out:
        # the per-disc columns, in disc order, go to the report file only
        statuses = list(map(_STATUSES.__getitem__, report.status.tolist()))
        files.write_report({**doc, "status": statuses,
                            "contacts": report.contacts.tolist(),
                            "margin": report.margin.tolist()}, args.out)
    _emit(args, doc)
    return 0 if report.stable else 2


def _chain_params(args, config):
    step = args.step_radius if args.step_radius is not None else config.radius
    return metropolis.ChainParams(args.steps, step, args.seed)


def _cmd_simulate(args):
    config = files.read_config(args.config)
    params = _chain_params(args, config)
    final, stats = metropolis.run_chain(config, params)
    if args.out:
        files.write_config(final, args.out)
    _emit(args, {"proposed": stats.proposed, "accepted": stats.accepted,
                 "acceptance_rate": stats.acceptance_rate,
                 "max_center_displacement": stats.max_center_displacement,
                 "first_accepted": stats.first_accepted,
                 "trace": stats.trace,
                 "step_radius": params.step_radius,
                 "rng": metropolis.RNG_ALGORITHM})
    return 0


def _cmd_escape(args):
    config = files.read_config(args.config)
    params = _chain_params(args, config)
    table = metropolis.escape_experiment(config, args.shrink, params)
    _emit(args, {"acceptance": {f: s.acceptance_rate
                                for f, s in table.items()},
                 "first_accepted": {f: s.first_accepted
                                    for f, s in table.items()},
                 "trace": {f: s.trace for f, s in table.items()},
                 "step_radius": params.step_radius})
    return 0


def _cmd_density(args):
    config = files.read_config(args.config)
    if config.box is not None:
        region = (0.0, 0.0, config.box[0], config.box[1])
    elif "window" in config.metadata:
        W = config.metadata["window"]
        region = (-W, -W, W, W)
    else:
        c = config.centers
        if config.n == 0 or not (c.min(axis=0) < c.max(axis=0)).all():
            raise construction.ConstructionError(
                "a planar configuration without a window needs discs that "
                "span a region of positive area; this one has %d disc(s)"
                % config.n)
        region = (float(c[:, 0].min()), float(c[:, 1].min()),
                  float(c[:, 0].max()), float(c[:, 1].max()))
    _emit(args, {"density": construction.density(config, region),
                 "region": list(region)})
    return 0


def _cmd_render(args):
    config = files.read_config(args.config)
    svg = render.render_svg(config, contacts=args.contacts,
                            color_verdicts=args.color)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(svg)
    else:
        sys.stdout.write(svg)
    return 0


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: parse_args leaves it unchanged."""
    p = _Parser(prog="jampack",
                description="Sparse stable disc packings: build, verify, "
                            "simulate, render.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, out=True, fmt=True):
        # --out where the command writes a file, --format where it _emits
        if out:
            sp.add_argument("--out", help="output file path")
        if fmt:
            sp.add_argument("--format", choices=("text", "json"),
                            default="text")

    def curve_flags(sp):
        sp.add_argument("--N", type=int, default=8,
                        help="bridge depth (default 8)")
        sp.add_argument("--lambda", dest="lam", type=float,
                        default=construction.DEFAULT_LAMBDA,
                        help="curve shape parameter (default %(default)s)")

    sp = sub.add_parser("build-bridge", help="planar symmetric bridge")
    curve_flags(sp)
    common(sp)
    sp.set_defaults(func=_cmd_build_bridge)

    sp = sub.add_parser("build-square", help="stable unit-square assembly")
    curve_flags(sp)
    common(sp)
    sp.set_defaults(func=_cmd_build_square)

    sp = sub.add_parser("junction", help="six-disc corner junction")
    common(sp)
    sp.set_defaults(func=_cmd_junction)

    sp = sub.add_parser("five-disc", help="five-disc stable square config")
    common(sp)
    sp.set_defaults(func=_cmd_five_disc)

    sp = sub.add_parser("tiling", help="3.12.12 tiling configuration")
    sp.add_argument("--window", type=int, default=40,
                    help="window half-width in tiling edges (default 40)")
    common(sp)
    sp.set_defaults(func=_cmd_tiling)

    sp = sub.add_parser("verify", help="jamming verdict for a config file")
    sp.add_argument("config")
    common(sp)
    sp.set_defaults(func=_cmd_verify)

    def chain_flags(sp):
        sp.add_argument("--steps", type=int, default=100000)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--step-radius", type=float, default=None,
                        help="proposal radius (default: disc radius)")

    sp = sub.add_parser("simulate", help="run the Metropolis chain")
    sp.add_argument("config")
    chain_flags(sp)
    common(sp)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("escape", help="acceptance after radius shrinking")
    sp.add_argument("config")
    sp.add_argument("--shrink", type=float, nargs="+", default=[1.0, 0.99])
    chain_flags(sp)
    common(sp, out=False)
    sp.set_defaults(func=_cmd_escape)

    sp = sub.add_parser("density", help="covered fraction of a region")
    sp.add_argument("config")
    common(sp, out=False)
    sp.set_defaults(func=_cmd_density)

    sp = sub.add_parser("render", help="SVG drawing of a config file")
    sp.add_argument("config")
    sp.add_argument("--contacts", action="store_true")
    sp.add_argument("--color", action="store_true",
                    help="color discs by jamming verdict")
    common(sp, fmt=False)
    sp.set_defaults(func=_cmd_render)
    return p


def dispatch(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as e:  # jampack's: ValueError
        print("error: %s" % e, file=sys.stderr)
        return 1


def main():
    raise SystemExit(dispatch())


if __name__ == "__main__":
    main()
