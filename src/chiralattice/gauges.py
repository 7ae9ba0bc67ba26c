"""Crystalline interface densities as polygon gauges, and Wulff shapes.

All densities are stored in their one-homogeneous form evaluated on
integer direction vectors, where values are rational; unit-vector values
(which involve square roots) appear only in display code.  A density is
represented by its unit level set, a convex polygon with the origin
strictly inside, through the gauge (Minkowski functional)

    gauge(x) = min { t > 0 : x / t inside the polygon }.

For a polygon whose edge through vertices v, w lies on {a . x = 1}, the
gauge is max_e (a_e . x), which is how evaluation stays exact.  Those edge
functionals are also the vertices of the polar dual, the Wulff shape.  A
polygon stores them once, as integer pairs over one common denominator D;
`gauge` scales its argument to integers over the argument's own common
denominator e, takes the largest integer dot product and builds a single
`Fraction` from it and D*e.

`envelope_with_points` is the one level-set hull routine: the convex
envelope of a minimum of gauges, refined by finitely many values, is the
gauge of the convex hull of their level-set points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .molecules import InvalidInput, R, argument, json_rational, pair, phase_shape
from .polygeom import Polygon, Vec, convex_hull, cross, integer_points, polygon_area

IntDir = tuple[int, int]


def _canonical_ccw(vertices: Sequence[Vec]) -> Polygon:
    verts = tuple(pair("vertex", v, json_rational) for v in vertices)
    if len(verts) < 3:
        raise InvalidInput("a gauge polygon needs at least 3 vertices")
    if polygon_area(verts) < 0:
        verts = tuple(reversed(verts))
    start = min(range(len(verts)), key=lambda i: verts[i])
    return verts[start:] + verts[:start]


@dataclass(frozen=True)
class GaugePolygon:
    """A convex polygon with 0 strictly inside, inducing a convex gauge."""

    vertices: Polygon

    def __post_init__(self):
        object.__setattr__(self, "vertices", _canonical_ccw(self.vertices))
        v = self.vertices
        n = len(v)
        funcs = []
        for i in range(n):
            a, b = v[i], v[(i + 1) % n]
            if cross((Fraction(0), Fraction(0)), a, b) <= 0:
                raise InvalidInput(
                    "polygon must be strictly convex around the origin"
                )
            # edge lies on {e . x = 1}; solve from the two vertices
            det = a[0] * b[1] - a[1] * b[0]
            funcs.append(((b[1] - a[1]) / det, (a[0] - b[0]) / det))
        # the functionals as integer pairs over their common denominator
        den, (ints,) = integer_points([funcs])
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_funcs", tuple(ints))

    def gauge(self, x) -> Fraction:
        """Exact gauge value at a rational vector (0 at the origin).

        x is a pair read by `pair` and `json_rational`; it is scaled to
        integers over its common denominator e, and the value is the
        largest integer functional over D * e.
        """
        e, [[(X, Y)]] = integer_points([[pair("gauge argument", x, json_rational)]])
        return Fraction(max(ex * X + ey * Y for ex, ey in self._funcs), self._den * e)


def mirror(polygon: GaugePolygon) -> GaugePolygon:
    """Reflection through the vertical axis, reoriented counterclockwise."""
    argument("polygon", polygon, GaugePolygon)
    return GaugePolygon(tuple((-x, y) for x, y in polygon.vertices))


# -------------------------------------------------------------------
# The closed-form crystalline density
# -------------------------------------------------------------------

_HEX_R = GaugePolygon(
    (
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(-1, 2), Fraction(1, 2)),
        (Fraction(-3, 4), Fraction(1, 4)),
        (Fraction(-1, 2), Fraction(-1, 2)),
        (Fraction(1, 2), Fraction(-1, 2)),
        (Fraction(3, 4), Fraction(-1, 4)),
    )
)
_HEX_S = mirror(_HEX_R)


def phi_closed_form(i: int) -> GaugePolygon:
    """Unit level set of the empty-interface density for phase i.

    For the R phases (1..4) this is an irregular hexagon whose gauge takes
    the values 2 at (1, +-1) and (-1, +-1), 3/2 at (+-1, 0), and 4 at
    +-(3, -1); the gauge agrees with the l1 norm exactly on the cones
    between (3, -1) and (1, -1) and between (-3, 1) and (-1, 1).  The S
    phases (5..8) use the mirror polygon.
    """
    return _HEX_R if phase_shape(i) is R else _HEX_S


def min_envelope(
    gauges: Sequence[GaugePolygon],
) -> tuple[Callable[[Vec], Fraction], GaugePolygon]:
    """Pointwise minimum of gauges and its convex envelope.

    The envelope of the min is the gauge of the convex hull of the union
    of the level sets.
    """
    if not gauges:
        raise InvalidInput("need at least one gauge")

    def pointwise_min(x) -> Fraction:
        return min(g.gauge(x) for g in gauges)

    return pointwise_min, envelope_with_points(gauges, ())


def envelope_with_points(
    gauges: Sequence[GaugePolygon], value_points: Iterable[tuple[Vec, Fraction]]
) -> GaugePolygon:
    """Convex envelope of min(gauges) refined by finitely many values.

    Each (x, value) pair contributes the level-set point x / value.
    """
    pts = [v for g in gauges for v in argument("gauge", g, GaugePolygon).vertices]
    for x, val in value_points:
        val = json_rational("gauge value", val)
        if val <= 0:
            raise InvalidInput("gauge values must be positive")
        x, y = pair("point", x, json_rational)
        pts.append((x / val, y / val))
    return GaugePolygon(convex_hull(pts))


def wulff_shape(polygon: GaugePolygon) -> Polygon:
    """Polar dual: the minimizer of the induced anisotropic perimeter.

    One half-plane {x . v <= 1} per vertex v; the dual's vertices come
    from adjacent half-plane intersections, which are the polygon's edge
    functionals, exactly.
    """
    den = argument("polygon", polygon, GaugePolygon)._den
    return _canonical_ccw([(Fraction(ex, den), Fraction(ey, den)) for ex, ey in polygon._funcs])
