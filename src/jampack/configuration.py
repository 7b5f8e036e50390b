"""Disc configuration container shared by construction, verification and
simulation."""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Configuration:
    """Equal discs at `centers` with common `radius` in an axis-aligned box.

    centers is an (n, 2) array of ints or floats, or [] for none; bools,
    strings, None and ragged rows are refused.  box is (width, height)
    with walls at x=0, x=width, y=0, y=height, or None for planar
    (unbounded) configurations.  The radius and box sides must be real
    numbers, numpy's included, not bools, and are stored as floats.
    metadata carries construction parameters for reproducibility.
    """

    radius: float
    centers: np.ndarray
    box: tuple[float, float] | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        try:
            c = np.asarray(self.centers)
        except ValueError:
            raise ValueError("ragged centers are not (n, 2) numbers") from None
        if (c.dtype.kind not in "iuf"
                or c.shape[1:] != (2,) and c.shape != (0,)):
            raise ValueError("centers of shape %s and dtype %s are not (n, 2) "
                             "numbers" % (c.shape, c.dtype))
        self.centers = np.asarray(c, dtype=float).reshape(len(c), 2)
        self.radius = _number(self.radius, "radius")
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError("radius must be positive and finite")
        if not np.all(np.isfinite(self.centers)):
            raise ValueError("non-finite center coordinate")
        if self.box is not None:
            try:
                w, h = self.box
            except (TypeError, ValueError):
                raise ValueError("box %r is not a (width, height) pair"
                                 % (self.box,)) from None
            self.box = w, h = (_number(w, "box width"),
                               _number(h, "box height"))
            if not (0 < w < math.inf and 0 < h < math.inf):
                raise ValueError("box dimensions must be positive and finite")

    @property
    def n(self) -> int:
        return len(self.centers)


def _number(value, name: str) -> float:
    # any real, numpy's included; bool is an int subclass, but true is not
    # a length (numpy's bool is not a Real)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError("%s must be a number, not %r" % (name, value))
    try:
        return float(value)
    except OverflowError:   # an int beyond float range
        raise ValueError("%s is too large for a float" % name) from None
