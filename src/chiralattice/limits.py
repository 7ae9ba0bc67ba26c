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

Evaluation is pure: segments are priced independently and summed in a
fixed order, so results are deterministic and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .densities import DensityModel
from .gauges import GaugePolygon, phi_closed_form
from .molecules import InvalidInput, decode_entry, decode_regions, json_rational
from .polygeom import (
    Polygon,
    Vec,
    integer_points,
    polygon_area,
    predicate_area,
)

IntDir = tuple[int, int]


class InvalidPartition(InvalidInput):
    """Regions overlap, leave gaps, or spill outside the window."""


@dataclass(frozen=True)
class InterfaceSegment:
    """A maximal shared edge between two labels, canonically oriented."""

    a: Vec
    b: Vec
    i: int  # smaller label
    j: int  # larger label
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
    return [(Fraction(x), Fraction(y)) for x, y in poly]


def _normalize_polys(polys: Iterable[Sequence[Vec]], what: str) -> list[Polygon]:
    out = []
    for poly in polys:
        verts = tuple(_points(poly))
        if len(verts) < 3:
            raise InvalidPartition(f"{what}: polygon needs 3+ vertices")
        if any(verts[k - 1] == v for k, v in enumerate(verts)):
            raise InvalidPartition(f"{what}: polygon has a zero-length edge")
        area = polygon_area(verts)
        if area == 0:
            raise InvalidPartition(f"{what}: degenerate polygon")
        out.append(verts if area > 0 else tuple(reversed(verts)))
    return out


@dataclass
class PolygonalPartition:
    """Labeled polygon sets partitioning a window (or islands in the plane).

    With a window, the regions (labels 0..8, including the empty phase 0)
    must tile it; with window None, label 0 is implicit as the complement
    of the labeled islands and must not be given explicitly.
    """

    regions: dict[int, list[Polygon]]
    window: Polygon | None = None

    def __post_init__(self):
        regions: dict[int, list[Polygon]] = {}
        for lab, polys in self.regions.items():
            lab = int(lab)
            if not 0 <= lab <= 8:
                raise InvalidPartition(f"label {lab} out of range 0..8")
            if polys:
                regions[lab] = _normalize_polys(polys, f"A_{lab}")
        self.regions = regions
        if self.window is not None:
            self.window = _normalize_polys([self.window], "window")[0]
            total = sum(
                (polygon_area(p) for polys in regions.values() for p in polys),
                Fraction(0),
            )
            if total != polygon_area(self.window):
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
        {label: [polygon, ...]}}, a polygon being a list of [x, y] points
        whose coordinates are integers or rational strings."""
        if not isinstance(data, dict) or not isinstance(data.get("regions"), dict):
            raise InvalidPartition('a partition is an object with a "regions" object')
        window = data.get("window")

        def points(poly) -> list[Vec]:
            return [(json_rational("coordinate", x), json_rational("coordinate", y)) for x, y in poly]

        return cls(
            regions=decode_regions(int, points, data["regions"]),
            window=None if window is None else decode_entry("window", points, window),
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


def extract_interfaces(part: PolygonalPartition) -> list[InterfaceSegment]:
    """Atomic shared segments between distinct labels, validated.

    Every region edge must pair, piece by piece, with exactly one edge of
    another region (opposite orientation) or lie on the window (same
    orientation); anything else raises InvalidPartition.  Edges between a
    label and the window are emitted against label 0; 0-0 interfaces are
    dropped.  Segments are merged per (line, pair) into maximal runs.
    """
    out: list[InterfaceSegment] = []
    d, edges = _scaled_edges(part)
    for (p, q, offset), pieces in _segment_soup(edges):
        den = (p * p + q * q) * d

        def point_at(t: int) -> Vec:
            # solve p*x + q*y = t, p*y - q*x = offset on the scaled line
            return (Fraction(p * t - q * offset, den), Fraction(q * t + p * offset, den))

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
                i, j = lab, 0
                # inner normal of the region = left normal of its direction
                normal = (-q, p) if orient > 0 else (q, -p)
            elif len(region_covers) == 2:
                (la, oa), (lb, ob) = region_covers
                if oa == ob:
                    raise InvalidPartition(
                        f"regions A_{la} and A_{lb} overlap along an edge"
                    )
                if la == lb:
                    continue  # internal seam of one region
                left = la if oa > 0 else lb
                right = lb if oa > 0 else la
                if left < right:
                    i, j, normal = left, right, (-q, p)
                else:
                    i, j, normal = right, left, (q, -p)
            elif len(region_covers) == 1 and part.window is None:
                lab, orient = region_covers[0]
                if lab == 0:
                    raise InvalidPartition("label 0 cannot form islands")
                i, j = 0, lab
                # normal into A_0 = away from the island
                normal = (q, -p) if orient > 0 else (-q, p)
            else:
                raise InvalidPartition(
                    f"edge piece covered {len(region_covers)} times"
                )
            runs.setdefault((i, j, normal), []).append((t0, t1))

        for (i, j, normal), spans in sorted(runs.items()):
            spans.sort()
            start, end = spans[0]
            merged = []
            for t0, t1 in spans[1:]:
                if t0 == end:
                    end = t1
                else:
                    merged.append((start, end))
                    start, end = t0, t1
            merged.append((start, end))
            for t0, t1 in merged:
                out.append(
                    InterfaceSegment(point_at(t0), point_at(t1), i, j, normal)
                )
    return out


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

    Exact rational: each segment contributes t * phi(i, j, normal) with t
    its lattice length.
    """
    segments = extract_interfaces(part)
    total = Fraction(0)
    rows: list[PricedSegment] = []
    for seg in segments:
        price, source = model.value_and_source(seg.i, seg.j, seg.normal)
        contribution = seg.lattice_length * price
        total += contribution
        rows.append(PricedSegment(seg, price, source, contribution))
    if detailed:
        return total, rows
    return total


def anchored_admissible(
    part: PolygonalPartition,
    exterior: PolygonalPartition,
    omega: Sequence[Vec] | None = None,
) -> bool:
    """Exact equality of the two partitions outside the window omega.

    omega defaults to the window of `part`.  Labels are compared through
    the area of the symmetric difference restricted to the complement.
    """
    if omega is None:
        omega = part.window
    if omega is None:
        raise InvalidInput("anchoring needs a bounded window")
    omega_set = [tuple((Fraction(x), Fraction(y)) for x, y in omega)]
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

    Each interface between labels i < j is priced by gauges[(i, j)], label
    0 being the complement of the islands.  `extract_interfaces` checks the
    cover, so seams inside one label drop out and overlaps raise.
    """
    part = PolygonalPartition(regions=islands, window=None)
    total = Fraction(0)
    for seg in extract_interfaces(part):
        # the gauges used here are centrally symmetric, so the orientation
        # of seg.normal does not affect the value
        total += seg.lattice_length * gauges[seg.i, seg.j].gauge(seg.normal)
    return total


def spin_lower_bound(polys: Iterable[Sequence[Vec]], model: DensityModel) -> Fraction:
    """Integral of f** over the boundary of the island set E.

    This bounds from below every partition energy whose occupied phases
    union to E.
    """
    return _island_boundary_energy({1: list(polys)}, {(0, 1): model.spin_envelope()})


def rs_lower_bound(
    e_r: Iterable[Sequence[Vec]],
    e_s: Iterable[Sequence[Vec]],
    model: DensityModel,
) -> Fraction:
    """Three-term bound for the R/S description of a pair of islands.

    E_R and E_S may each be any set of polygons, abutting or not; they are
    read as the islands A_1 and A_5 of a plane partition.  Shared boundary
    pieces are priced by the convex envelope of the R-against-S contact
    density; pieces exclusive to one species by the corresponding
    empty-interface density.
    """
    return _island_boundary_energy(
        {1: list(e_r), 5: list(e_s)},
        {
            (0, 1): phi_closed_form(1),
            (0, 5): phi_closed_form(5),
            (1, 5): model.rs_contact_envelope(),
        },
    )
