"""The limiting interfacial energy on polygonal nine-phase partitions.

A partition assigns polygon sets with rational vertices to the labels
0..8 inside a polygonal window (or bounded islands in the plane).  The
energy integrates the density f(i, j, nu) over every interface; window
boundary edges adjacent to a nonempty phase are priced against the empty
phase.  For a segment whose direction vector is t * (a, b) with (a, b)
a primitive integer vector, the Euclidean length is t * sqrt(a^2 + b^2)
and the unit-normal density is phi(p, q) / sqrt(p^2 + q^2) with
(p, q) = (-b, a) primitive, so each contribution reduces to the exact
rational t * phi(p, q); no irrational arithmetic is ever needed.

Evaluation is pure: the interfaces are read once as integer runs on
the partition's lines, scaled to one common denominator, and each key
(i, j, nu) is priced once and weighted by its total lattice length, so
results are exact, deterministic and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .densities import DensityModel
from .gauges import GaugePolygon, IntDir, phi_closed_form
from .interfaces import oriented
from .molecules import InvalidInput, argument, decode_entry, decode_regions, json_rational, label, pair
from .polygeom import (
    Polygon,
    Vec,
    integer_points,
    predicate_area,
    shoelace,
)


class InvalidPartition(InvalidInput):
    """Regions overlap, leave gaps, or spill outside the window."""


@dataclass(frozen=True)
class InterfaceSegment:
    """A maximal shared edge between two labels, canonically oriented.

    A seam between two regions or an island's edge carries the `oriented`
    key, i < j; an edge on the window carries (label, 0).
    """

    a: Vec
    b: Vec
    i: int
    j: int
    normal: IntDir  # primitive integer normal pointing into A_i

    @property
    def lattice_length(self) -> Fraction:
        """t with (b - a) = t * primitive_tangent; contribution scale.

        The primitive tangent is the normal with its components swapped
        (up to signs), so t is read off one coordinate of b - a.
        """
        p, q = self.normal
        if q:
            return abs(self.b[0] - self.a[0]) / abs(q)
        return abs(self.b[1] - self.a[1]) / abs(p)


def _points(poly) -> list[Vec]:
    return [pair("vertex", v, json_rational) for v in poly]


def _normalize_polys(polys: Iterable[Sequence[Vec]], what: str) -> tuple[list[Polygon], Fraction]:
    """The polygons oriented counterclockwise, and the sum of their areas.

    The polygons are scaled once to their common integer denominator d;
    edges are compared and shoelace sums taken on ints, and the one
    Fraction built is the total, the sums over 2*d^2.
    """
    polys = [tuple(_points(poly)) for poly in polys]
    d, scaled = integer_points(polys)
    out = []
    total = 0
    for verts, pts in zip(polys, scaled):
        if len(verts) < 3:
            raise InvalidPartition(f"{what}: polygon needs 3+ vertices")
        if any(pts[k - 1] == v for k, v in enumerate(pts)):
            raise InvalidPartition(f"{what}: polygon has a zero-length edge")
        twice = shoelace(pts)
        if twice == 0:
            raise InvalidPartition(f"{what}: degenerate polygon")
        out.append(verts if twice > 0 else tuple(reversed(verts)))
        total += abs(twice)
    return out, Fraction(total, 2 * d * d)


@dataclass
class PolygonalPartition:
    """Labeled polygon sets partitioning a window (or islands in the plane).

    With a window, the regions (labels 0..8 read by `label`, so a float,
    bool or out-of-range label raises InvalidInput; including the empty phase 0)
    must tile it, and their areas, summed as each polygon is oriented,
    must add up to the window's; with window None, label 0 is implicit as
    the complement of the labeled islands and must not be given
    explicitly.  Construction checks each polygon on its own;
    `extract_interfaces` checks how the polygons meet, and that islands do
    not overlap.
    """

    regions: dict[int, list[Polygon]]
    window: Polygon | None = None

    def __post_init__(self):
        regions: dict[int, list[Polygon]] = {}
        areas: dict[int, Fraction] = {}
        for lab, polys in self.regions.items():
            lab = label("region label", lab)
            if polys:
                regions[lab], areas[lab] = _normalize_polys(polys, f"A_{lab}")
        self.regions = regions
        if self.window is not None:
            (self.window,), window_area = _normalize_polys([self.window], "window")
            if sum(areas.values(), Fraction(0)) != window_area:
                raise InvalidPartition(
                    "region areas do not add up to the window area"
                )
        elif 0 in regions:
            raise InvalidPartition(
                "label 0 is implicit for plane partitions; omit it"
            )

    @classmethod
    def from_jsonable(cls, data) -> "PolygonalPartition":
        """Decode a partition file, {"window": polygon | null, "regions":
        {label: [polygon, ...]}}, a label being a key of ASCII digits, 0..8,
        and a polygon a list of [x, y] points whose coordinates are
        integers or rational strings."""
        if not isinstance(data, dict) or not isinstance(data.get("regions"), dict):
            raise InvalidPartition('a partition is an object with a "regions" object')
        window = data.get("window")
        return cls(
            regions=decode_regions(_points, data["regions"]),
            window=None if window is None else decode_entry("window", _points, window),
        )


_WINDOW = -1  # pseudo-label for window edges in the segment soup


def _scaled_edges(part: PolygonalPartition) -> tuple[int, list[tuple[int, int, int, int, int]]]:
    """The common denominator d of the partition's vertices, and its directed
    edges (ax, ay, bx, by, tag) scaled by d, region by region, then the window."""
    tagged = [(lab, poly) for lab, ps in part.regions.items() for poly in ps]
    if part.window is not None:
        tagged.append((_WINDOW, part.window))
    d, polys = integer_points([poly for _, poly in tagged])
    edges = [
        (*a, *b, tag)
        for (tag, _), pts in zip(tagged, polys)
        for a, b in zip(pts, pts[1:] + pts[:1])
    ]
    return d, edges


def _segment_soup(
    edges: Iterable[tuple[int, int, int, int, object]],
) -> Iterator[tuple[tuple[int, int, int], list[tuple[int, int, list]]]]:
    """Cut tagged directed edges with integer ends into atomic pieces of
    their common lines.

    Yields ((p, q, offset), pieces) per line in sorted order: (p, q) is the
    primitive direction with p > 0 or p = 0 < q, and offset = p*y - q*x on
    the line.  Each piece (t0, t1, covers) is a run of the line parameter
    t = p*x + q*y covered by the edges listed as (tag, orientation) in
    covers, in edge order.  A sweep over the intervals sorted by start keeps
    the edges that cover the current piece.
    """
    lines: dict[tuple, list[tuple[int, int, int, object, int]]] = {}
    for n, (ax, ay, bx, by, tag) in enumerate(edges):
        p, q = bx - ax, by - ay
        g = math.gcd(p, q)
        p, q = p // g, q // g
        if p < 0 or (p == 0 and q < 0):
            p, q = -p, -q
        ta, tb = p * ax + q * ay, p * bx + q * by
        lines.setdefault((p, q, p * ay - q * ax), []).append(
            (n, min(ta, tb), max(ta, tb), tag, 1 if tb > ta else -1)
        )
    for key, intervals in sorted(lines.items()):
        cuts = sorted({t for _, lo, hi, _, _ in intervals for t in (lo, hi)})
        starts = iter(sorted(intervals, key=lambda iv: iv[1]))
        nxt = next(starts, None)
        active: list = []
        pieces = []
        for t0, t1 in zip(cuts, cuts[1:]):
            # every end is a cut, so an interval covers [t0, t1] iff lo <= t0 < hi
            active = [iv for iv in active if iv[2] > t0]
            while nxt is not None and nxt[1] <= t0:
                active.append(nxt)
                nxt = next(starts, None)
            if active:
                pieces.append((t0, t1, [(tag, orient) for _, _, _, tag, orient in sorted(active)]))
        yield key, pieces


def _interface_runs(part: PolygonalPartition) -> tuple[int, list[tuple]]:
    """The common denominator d of the partition's vertices, and its
    interfaces as maximal runs ((i, j, normal), p, q, offset, t0, t1), all
    ints: the run covers t0 <= t <= t1 on the line (p, q, offset) of
    `_segment_soup`, scaled by d.

    Every region edge must pair, piece by piece, with exactly one edge of
    another region (opposite orientation) or lie on the window (same
    orientation); anything else raises InvalidPartition.  Without a window
    the islands must not overlap either: after the edge checks, the area of
    all islands taken as one even-odd set (`predicate_area`) must equal the
    sum of their areas, or InvalidPartition("islands overlap") is raised.
    Edges between a label and the window carry (label, 0, inner normal),
    every other piece its `oriented` key; 0-0 interfaces are dropped.
    Pieces are merged per (line, key) into maximal runs, in line order and
    then key order.
    """
    out: list[tuple] = []
    d, edges = _scaled_edges(part)
    for (p, q, offset), pieces in _segment_soup(edges):
        runs: dict[tuple, list[tuple[int, int]]] = {}
        for t0, t1, covers in pieces:
            window_covers = [c for c in covers if c[0] == _WINDOW]
            region_covers = [c for c in covers if c[0] != _WINDOW]
            if window_covers:
                if len(window_covers) > 1 or len(region_covers) != 1:
                    raise InvalidPartition(
                        f"window edge piece covered {len(region_covers)} times"
                    )
                lab, orient = region_covers[0]
                if orient != window_covers[0][1]:
                    raise InvalidPartition(
                        f"region A_{lab} lies outside the window"
                    )
                if lab == 0:
                    continue
                # inner normal of a region = left normal of its edge
                key = lab, 0, (-q, p) if orient > 0 else (q, -p)
            else:
                match region_covers:
                    case [(la, oa), (lb, ob)]:  # a seam of two regions
                        if oa == ob:
                            raise InvalidPartition(
                                f"regions A_{la} and A_{lb} overlap along an edge"
                            )
                        if la == lb:
                            continue  # internal seam of one region
                        key = oriented(la, lb, (-q, p) if oa > 0 else (q, -p))
                    case [(lab, orient)] if part.window is None:  # an island's edge
                        if lab == 0:
                            raise InvalidPartition("label 0 cannot form islands")
                        key = oriented(lab, 0, (-q, p) if orient > 0 else (q, -p))
                    case _:
                        raise InvalidPartition(
                            f"edge piece covered {len(region_covers)} times"
                        )
            runs.setdefault(key, []).append((t0, t1))

        for key, spans in sorted(runs.items()):
            spans.sort()
            start, end = spans[0]
            for t0, t1 in spans[1:]:
                if t0 != end:
                    out.append((key, p, q, offset, start, end))
                    start = t0
                end = t1
            out.append((key, p, q, offset, start, end))
    if part.window is None:
        # the islands, read as one even-odd set, cover their area sum
        # only if no two overlap; pairs of edges are checked above
        islands = [poly for polys in part.regions.values() for poly in polys]
        twice = sum(ax * by - bx * ay for ax, ay, bx, by, _ in edges)
        if predicate_area([islands], lambda inside: inside[0]) != Fraction(twice, 2 * d * d):
            raise InvalidPartition("islands overlap")
    return d, out


def _segment(d: int, run: tuple) -> InterfaceSegment:
    """The run's segment: p*x + q*y = t, p*y - q*x = offset solved on the line scaled by d."""
    (i, j, normal), p, q, offset, t0, t1 = run
    den = (p * p + q * q) * d
    a, b = ((Fraction(p * t - q * offset, den), Fraction(q * t + p * offset, den)) for t in (t0, t1))
    return InterfaceSegment(a, b, i, j, normal)


def _key_lengths(d: int, runs: list[tuple]) -> dict[tuple, Fraction]:
    """The total lattice length of each key (i, j, normal): its runs'
    t1 - t0 summed on ints, over d times the normal's squared norm."""
    sums: dict[tuple, int] = {}
    for key, _, _, _, t0, t1 in runs:
        sums[key] = sums.get(key, 0) + t1 - t0
    return {key: Fraction(n, (key[2][0] ** 2 + key[2][1] ** 2) * d) for key, n in sums.items()}


def extract_interfaces(part: PolygonalPartition) -> list[InterfaceSegment]:
    """Atomic shared segments between distinct labels, validated: one per
    run of `_interface_runs`, which states the checks, keys and order."""
    d, runs = _interface_runs(argument("part", part, PolygonalPartition))
    return [_segment(d, run) for run in runs]


@dataclass
class PricedSegment:
    segment: InterfaceSegment
    price: Fraction  # phi-scale value used
    source: str
    contribution: Fraction


def limit_energy(
    part: PolygonalPartition, model: DensityModel, detailed: bool = False
):
    """Total interfacial energy of the partition under the density model.

    Exact rational: the sum over the interface keys (i, j, nu) of
    phi(i, j, nu) times the key's total lattice length, each key priced
    once.  With detailed, also one PricedSegment per segment of
    `extract_interfaces`, in its order, each contributing its lattice
    length times its key's price.
    """
    argument("model", model, DensityModel)
    d, runs = _interface_runs(argument("part", part, PolygonalPartition))
    lengths = _key_lengths(d, runs)
    prices = {key: model.value_and_source(*key) for key in lengths}
    total = sum((prices[key][0] * length for key, length in lengths.items()), Fraction(0))
    if not detailed:
        return total
    rows: list[PricedSegment] = []
    for run in runs:
        seg = _segment(d, run)
        price, source = prices[run[0]]
        rows.append(PricedSegment(seg, price, source, seg.lattice_length * price))
    return total, rows


def anchored_admissible(
    part: PolygonalPartition,
    exterior: PolygonalPartition,
    omega: Sequence[Vec] | None = None,
) -> bool:
    """Exact equality of the two partitions outside the window omega.

    omega defaults to the window of `part`.  Labels are compared through
    the area of the symmetric difference restricted to the complement.
    """
    argument("part", part, PolygonalPartition)
    argument("exterior", exterior, PolygonalPartition)
    if omega is None:
        omega = part.window
    if omega is None:
        raise InvalidInput("anchoring needs a bounded window")
    omega_set = [tuple(_points(omega))]
    # label 0 follows as the complement once 1..8 agree when both sides
    # are partitions, so it is compared only when both give it explicitly
    for lab in (*range(1, 9), 0):
        a = part.regions.get(lab, [])
        b = exterior.regions.get(lab, [])
        if not ((a or b) if lab else (a and b)):
            continue
        mismatch = predicate_area(
            [a, b, omega_set],
            lambda pr: (pr[0] != pr[1]) and not pr[2],
        )
        if mismatch != 0:
            return False
    return True


def _island_boundary_energy(
    islands: dict[int, list[Sequence[Vec]]],
    gauges: dict[tuple[int, int], GaugePolygon],
) -> Fraction:
    """Integral of a gauge density over the interfaces of labeled islands.

    Each interface key (i, j, nu), keyed i < j by `oriented` as the gauge
    keys are, is priced once by gauges[(i, j)] at nu and weighted by its
    total lattice length, label 0 being the complement of the islands.
    `_interface_runs` checks the cover, so seams inside one label drop
    out, and overlaps, along an edge or of areas, raise.
    """
    lengths = _key_lengths(*_interface_runs(PolygonalPartition(regions=islands, window=None)))
    # nu points into A_i, as each key's gauge expects; the (0, k) gauges
    # are centrally symmetric, so nu and -nu agree there
    return sum((gauges[i, j].gauge(nu) * n for (i, j, nu), n in lengths.items()), Fraction(0))


def spin_lower_bound(polys: Iterable[Sequence[Vec]], model: DensityModel) -> Fraction:
    """Integral of f** over the boundary of the island set E.

    This bounds from below every partition energy whose occupied phases
    union to E.
    """
    envelope = argument("model", model, DensityModel).spin_envelope()
    return _island_boundary_energy({1: list(polys)}, {(0, 1): envelope})


def rs_lower_bound(
    e_r: Iterable[Sequence[Vec]],
    e_s: Iterable[Sequence[Vec]],
    model: DensityModel,
) -> Fraction:
    """Three-term bound for the R/S description of a pair of islands.

    E_R and E_S may each be any set of polygons, abutting or not, but not
    overlapping; they are read as the islands A_1 and A_5 of a plane
    partition.  Shared boundary pieces are priced by the convex envelope of
    the R-against-S contact density; pieces exclusive to one species by the
    corresponding empty-interface density.
    """
    return _island_boundary_energy(
        {1: list(e_r), 5: list(e_s)},
        {
            (0, 1): phi_closed_form(1),
            (0, 5): phi_closed_form(5),
            (1, 5): argument("model", model, DensityModel).rs_contact_envelope(),
        },
    )
