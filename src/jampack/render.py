"""Deterministic SVG rendering of disc configurations."""

from .configuration import Configuration

WIDTH_PX = 800.0

_COLORS = {"jammed": "#4878a8", "movable": "#c04040", "rattler": "#d8a030"}


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


def render_svg(config: Configuration, contacts: bool = False,
               color_verdicts: bool = False) -> str:
    """SVG document with one circle per disc.

    Options add a contact-edge overlay and jamming color-coding.  The
    drawing is WIDTH_PX wide, with the y axis flipped to match mathematical
    orientation.  Output is byte-identical for identical input and options.
    """
    x0, y0, x1, y1 = _bounds(config)
    span_x = max(x1 - x0, 1e-300)
    span_y = max(y1 - y0, 1e-300)
    s = WIDTH_PX / span_x
    height_px = span_y * s

    def px(x):
        return (x - x0) * s

    def py(y):
        return (y1 - y) * s

    lines = ['<svg xmlns="http://www.w3.org/2000/svg" width="%.2f" '
             'height="%.2f" viewBox="0 0 %.2f %.2f">'
             % (WIDTH_PX, height_px, WIDTH_PX, height_px)]
    if config.box is not None:
        lines.append('<rect x="0" y="0" width="%.2f" height="%.2f" '
                     'fill="none" stroke="black" stroke-width="1"/>'
                     % (WIDTH_PX, height_px))

    fills = ["#cccccc"] * config.n
    graph = None
    if contacts or color_verdicts:
        from .verifier import _judge, contact_graph
        graph = contact_graph(config)
        if color_verdicts:
            fills = [_COLORS[v.status] for v in _judge(graph).verdicts]

    pts = config.centers.tolist()
    for (x, y), fill in zip(pts, fills):
        lines.append('<circle cx="%.4f" cy="%.4f" r="%.4f" fill="%s" '
                     'stroke="black" stroke-width="0.5"/>'
                     % (px(x), py(y), config.radius * s, fill))
    if contacts and graph is not None:
        for i, j in graph.pairs:
            xi, yi = pts[i]
            xj, yj = pts[j]
            lines.append('<line x1="%.4f" y1="%.4f" x2="%.4f" y2="%.4f" '
                         'stroke="#208020" stroke-width="0.8"/>'
                         % (px(xi), py(yi), px(xj), py(yj)))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
