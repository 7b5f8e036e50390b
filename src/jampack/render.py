"""Deterministic SVG rendering of disc configurations."""

from itertools import chain

from .configuration import Configuration

WIDTH_PX = 800.0

_COLORS = {"jammed": "#4878a8", "movable": "#c04040", "rattler": "#d8a030"}
_LINE = ('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#208020" '
         'stroke-width="0.8"/>')


def _bounds(config: Configuration):
    if config.box is not None:
        return 0.0, 0.0, config.box[0], config.box[1]
    if config.n == 0:
        return 0.0, 0.0, 1.0, 1.0
    r = config.radius
    xs = config.centers[:, 0]
    ys = config.centers[:, 1]
    return (float(xs.min()) - r, float(ys.min()) - r,
            float(xs.max()) + r, float(ys.max()) + r)


def _fixed(values) -> list:
    """Each value as "%.4f", all formatted by one % call."""
    return ("%.4f " * len(values) % tuple(values.tolist())).split()


def _rows(template: str, columns) -> list:
    """template, whose fields take one item of each column, filled row by
    row with one % call; no rows for empty columns."""
    n = len(columns[0])
    return ["\n".join([template] * n)
            % tuple(chain.from_iterable(zip(*columns)))] if n else []


def render_svg(config: Configuration, contacts: bool = False,
               color_verdicts: bool = False) -> str:
    """SVG document with one circle per disc.

    Options add a contact-edge overlay and jamming color-coding.  The
    drawing is WIDTH_PX wide, with the y axis flipped to match mathematical
    orientation.  Output is byte-identical for identical input and options.
    Each centre's pixel x and y, (x - x0) * s and (y1 - y) * s in numpy,
    and the pixel radius are formatted once.
    """
    x0, y0, x1, y1 = _bounds(config)
    span_x = max(x1 - x0, 1e-300)
    span_y = max(y1 - y0, 1e-300)
    s = WIDTH_PX / span_x
    height_px = span_y * s

    lines = ['<svg xmlns="http://www.w3.org/2000/svg" width="%.2f" '
             'height="%.2f" viewBox="0 0 %.2f %.2f">'
             % (WIDTH_PX, height_px, WIDTH_PX, height_px)]
    if config.box is not None:
        lines.append('<rect x="0" y="0" width="%.2f" height="%.2f" '
                     'fill="none" stroke="black" stroke-width="1"/>'
                     % (WIDTH_PX, height_px))

    fills = ["#cccccc"] * config.n
    if contacts or color_verdicts:
        from .verifier import _STATUSES, _decide, contact_graph
        graph = contact_graph(config)
        if color_verdicts:
            colors = [_COLORS[name] for name in _STATUSES]
            fills = list(map(colors.__getitem__,
                             _decide(graph).status.tolist()))

    c = config.centers
    xs = _fixed((c[:, 0] - x0) * s)
    ys = _fixed((y1 - c[:, 1]) * s)
    radius = "%.4f" % (config.radius * s)
    lines += _rows('<circle cx="%s" cy="%s" r="' + radius + '" fill="%s" '
                   'stroke="black" stroke-width="0.5"/>', (xs, ys, fills))
    if contacts:
        # x1, y1 of each pair's disc i, then x2, y2 of its disc j
        ends = graph.i.tolist(), graph.j.tolist()
        lines += _rows(_LINE, [list(map(p.__getitem__, k))
                               for k in ends for p in (xs, ys)])
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
