"""Decomposition of scaled configurations into nine phase regions.

A configuration of molecules scaled by epsilon is classified through a
cover of the plane by squares of side 12*epsilon centered on the
4*epsilon grid.  A covering square is bad when the configuration has
boundary inside it (equivalently, its 12x12 cell block is neither full
nor empty) or when it meets the window boundary; otherwise the single-
phase property of full coverings assigns the unique phase of the
molecules meeting the concentric square of side 4*epsilon, or the label
0 when that square is empty.  The per-label unions of the small squares
approximate the limiting partition; the bad squares have total area
O(epsilon * boundary length).

`decompose` reads the configuration once, molecule by molecule, onto
4x4 tiles: a tile's cell count and the phases of the molecules meeting it
classify every block, so it pays one range test per molecule, a few steps
per molecule near the window and one per block, not one per cell.  Its
boundary length is `perimeter` on the configuration's own boards.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .molecules import (
    Configuration,
    InvalidInput,
    Molecule,
    MoleculeShape,
    UnlabeledShape,
    Window,
    argument,
    configuration_on_grid,
    json_rational,
    perimeter,
    phase_label,
)
from .rectregions import Rect, region_area, symdiff_area

@dataclass(frozen=True)
class ScaledConfiguration:
    """A lattice configuration together with the scale of its cells."""

    epsilon: Fraction
    config: Configuration

    def __post_init__(self):
        object.__setattr__(self, "epsilon", json_rational("epsilon", self.epsilon))
        if self.epsilon <= 0:
            raise InvalidInput("epsilon must be positive")
        argument("config", self.config, Configuration)

    @classmethod
    def from_continuum(
        cls,
        epsilon,
        molecules: Iterable[tuple[MoleculeShape, tuple[Fraction, Fraction]]],
    ) -> "ScaledConfiguration":
        """Build from continuum anchor coordinates (must lie on eps * Z^2)."""
        epsilon = json_rational("epsilon", epsilon)
        if epsilon <= 0:  # before the grid divides by it
            raise InvalidInput("epsilon must be positive")
        return cls(epsilon, configuration_on_grid(epsilon, molecules))


@dataclass
class PhasePartitionApprox:
    """Per-label square unions plus the bad region, in continuum coordinates."""

    epsilon: Fraction
    regions: dict[int, list[Rect]]
    bad_region: list[Rect]
    bad_count: int
    boundary_length: Fraction  # H^1(w intersect boundary E), continuum scale

    def bad_area(self) -> Fraction:
        return region_area(self.bad_region)


def _window_in_lattice(window: Window, epsilon: Fraction) -> Window:
    cx, cy = window.center
    return Window.square(window.side / epsilon, (cx / epsilon, cy / epsilon))


def _tile_table(shape: MoleculeShape, tiles: tuple[range, range], stride: int) -> tuple:
    """How a molecule of this shape meets the 4x4 tiles [4t-2, 4t+2)^2.

    The cell x + c lies in tile (x >> 2) + ((x & 3) + c + 2 >> 2), and alike
    on the second axis, so the tiles a molecule meets and its cell count in
    each depend only on the shape and the anchor mod 4.  Returns the anchor
    ranges [xa, xb) and [ya, yb) of the molecules that meet the tile ranges
    and, per residue (x & 3) << 2 | y & 3, each tile's (offset, count).  An
    offset plus (x >> 2) * stride + (y >> 2) indexes a flat array over the
    tile ranges with a spare tile on every side, which holds every tile of
    such a molecule: an edge-connected shape spans at most two tiles on
    each axis.
    """
    cols, rows = tiles
    origin = (1 - cols.start) * stride + 1 - rows.start
    table = [
        tuple(Counter(
            ((a + c + 2) >> 2) * stride + ((b + r + 2) >> 2) + origin
            for c, r in shape.cells
        ).items())
        for a in range(4)
        for b in range(4)
    ]
    xs = [c for c, _ in shape.cells]
    ys = [r for _, r in shape.cells]
    return (
        4 * cols.start - 2 - max(xs), 4 * cols.stop - 2 - min(xs),
        4 * rows.start - 2 - max(ys), 4 * rows.stop - 2 - min(ys),
        table,
    )


def _centres(lo: Fraction, hi: Fraction, eps: Fraction) -> list[tuple]:
    """The centres n = 4m on one axis whose open 12-interval meets (lo, hi).

    Each entry is (m, inside, bad ends, small ends): whether the 12-interval
    lies in [lo, hi], and the continuum ends of the 12- and 4-intervals, as
    Fractions in increasing order, checked here once per column or row.
    """
    out = [
        (m, lo <= 4 * m - 6 and 4 * m + 6 <= hi,
         (eps * (4 * m - 6), eps * (4 * m + 6)), (eps * (4 * m - 2), eps * (4 * m + 2)))
        for m in range(math.floor((lo - 6) / 4), math.ceil((hi + 6) / 4) + 1)
        if 4 * m - 6 < hi and 4 * m + 6 > lo
    ]
    if any(u0 >= u1 or s0 >= s1 for _, _, (u0, u1), (s0, s1) in out):
        raise InvalidInput(f"degenerate covering squares at epsilon {eps}")
    return out


def decompose(scaled: ScaledConfiguration, window: Window) -> PhasePartitionApprox:
    """Classify the covering squares and collect the per-label regions.

    The window must be bounded.  Good squares lie inside the window and
    their label-4 squares tile it up to the bad region, so the labeled
    regions together with the bad region cover the window.

    One pass over the molecules counts their cells on the 4x4 tiles
    [4t-2, 4t+2)^2 and records per tile the OR of their phase bits; a
    molecule adds to at most four tiles, read from a table per shape and
    anchor residue mod 4, and a molecule that meets none of the tiles the
    blocks read is skipped by one range test on its anchor.  The 12-block
    centred at n = 4m is made of the tiles m-1..m+1 in each axis and its
    concentric 4-square is the tile m, so a block's fill is a sum of nine
    tile counts, added up as three strips of three, and a full block reads
    its phase off its centre tile.  The molecules meeting that tile are
    those that own its cells, so a tile with several label bits raises the
    single-phase AssertionError with those labels, and one holding a shape
    without a label raises that shape's UnlabeledShape (with several such
    shapes, that of the one met first in molecule order).
    The window tests and the continuum coordinates of the squares are
    computed once per column and once per row, so each block's rectangle
    is a plain tuple of the ends of its column and row.  The boundary
    length is eps * `perimeter` in the lattice window, on the boards the
    configuration built when it was validated.
    """
    argument("scaled", scaled, ScaledConfiguration)
    if argument("window", window, Window).is_plane:
        raise InvalidInput("decomposition needs a bounded window")
    eps = scaled.epsilon
    config = scaled.config
    wlat = _window_in_lattice(window, eps)
    x0, y0, x1, y1 = wlat.bounds()

    regions: dict[int, list[Rect]] = {lab: [] for lab in range(9)}
    bad: list[Rect] = []

    cols, rows = _centres(x0, x1, eps), _centres(y0, y1, eps)
    # the tiles the blocks read, in a flat array with a spare tile around;
    # a tile holds at most 16 cells, so its count takes the low five bits
    # of its entry and the OR of its molecules' phase bits sits above them
    tiles = range(cols[0][0] - 1, cols[-1][0] + 2), range(rows[0][0] - 1, rows[-1][0] + 2)
    stride = len(tiles[1]) + 2
    acc = [0] * ((len(tiles[0]) + 2) * stride)
    # keyed by identity: `phase_label` labels only the built-in shape objects;
    # a molecule's phase bit is 32 << its label, and each shape without a
    # label takes its own bit above the labels' and keeps the error raised
    by_shape: dict[int, tuple] = {}
    unlabelled: list[UnlabeledShape] = []
    shape = None
    for mol in config.molecules:
        if mol.shape is not shape:  # molecules mostly come in runs of one shape
            shape = mol.shape
            reach = by_shape.get(id(shape))
            if reach is None:
                try:
                    bits = [32 << phase_label(Molecule(shape, (a, b))) for a in range(4) for b in range(4)]
                except UnlabeledShape as exc:
                    bits = [32 << 9 + len(unlabelled)] * 16
                    unlabelled.append(exc)
                *ends, counts = _tile_table(shape, tiles, stride)
                reach = by_shape[id(shape)] = (*ends, list(zip(bits, counts)))
            xa, xb, ya, yb, table = reach
        x, y = mol.anchor
        if xa <= x < xb and ya <= y < yb:
            bit, counts = table[(x & 3) << 2 | y & 3]
            base = (x >> 2) * stride + (y >> 2)
            for d, n in counts:
                acc[base + d] = acc[base + d] + n | bit
    # per tile column, the fill of the three tiles around each row centre
    strips = [
        [a + b + c for a, b, c in zip(col, col[1:], col[2:])]
        for col in (
            [v & 31 for v in acc[k * stride + 1:(k + 1) * stride - 1]]
            for k in range(1, len(tiles[0]) + 1)
        )
    ]
    for k, (m1, inside1, (u0, u1), (s0, s1)) in enumerate(cols):
        fills = [a + b + c for a, b, c in zip(*strips[k:k + 3])]
        first = (k + 2) * stride + 2  # the centre tile of the column's first block
        centres = acc[first:first + len(rows)]
        for (m2, inside2, (v0, v1), (t0, t1)), filled, tile in zip(rows, fills, centres):
            if 0 < filled < 144 or not (inside1 and inside2):
                bad.append((u0, v0, u1, v1))
                continue
            small = (s0, t0, s1, t1)
            if filled == 0:
                regions[0].append(small)
                continue
            # full 12-block: the unique phase of the molecules meeting the
            # 4-square (single by the interior-phase property; checked), the
            # one bit of its centre tile
            bits = tile >> 5
            if bits >> 9:  # a shape without a label: the lowest one met
                raise unlabelled[(bits >> 9 & -(bits >> 9)).bit_length() - 1]
            if bits & (bits - 1):
                raise AssertionError(
                    f"full covering square at {(4 * m1, 4 * m2)} carries phases "
                    f"{[lab for lab in range(1, 9) if bits >> lab & 1]}; "
                    "the single-phase property failed"
                )
            regions[bits.bit_length() - 1].append(small)

    return PhasePartitionApprox(
        epsilon=eps,
        regions=regions,
        bad_region=bad,
        bad_count=len(bad),
        boundary_length=eps * perimeter(config, wlat),
    )


def bad_area_bound(approx: PhasePartitionApprox) -> Fraction:
    """The coarse area bound 144 eps^2 * 18 * C / eps for the bad region.

    C is the boundary length of the scaled configuration in the window.
    The bound is meaningful when the configuration has boundary there
    (squares meeting the window rim are counted bad regardless).
    """
    eps = approx.epsilon
    return 144 * eps * eps * 18 * approx.boundary_length / eps


def convergence_report(
    approxes: Sequence[PhasePartitionApprox],
    target: Mapping[int, Sequence[Rect]] | None = None,
) -> list[dict]:
    """Per-epsilon symmetric differences between regions and a target.

    Each entry is the decomposition of one run.  The target maps labels to
    rectangle unions in continuum coordinates; missing labels compare
    against the empty region.  Epsilons must be strictly decreasing.
    """
    epss = [argument(f"approxes entry {n}", approx, PhasePartitionApprox).epsilon
            for n, approx in enumerate(approxes)]
    if any(later >= earlier for later, earlier in zip(epss[1:], epss)):
        raise InvalidInput("epsilons must be strictly decreasing")
    target = dict(target or {})
    rows: list[dict] = []
    for approx in approxes:
        row: dict = {
            "epsilon": approx.epsilon,
            "bad_area": approx.bad_area(),
            "bad_count": approx.bad_count,
            "boundary_length": approx.boundary_length,
        }
        for lab in range(9):
            row[f"symdiff_{lab}"] = symdiff_area(
                approx.regions.get(lab, []), list(target.get(lab, []))
            )
        rows.append(row)
    return rows
