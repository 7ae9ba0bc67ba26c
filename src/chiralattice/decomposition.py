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
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .molecules import (
    Cell,
    Configuration,
    InvalidInput,
    MoleculeShape,
    Window,
    _boundary_lengths,
    configuration_on_grid,
    phase_label,
)
from .rectregions import Rect, region_area, symdiff_area

@dataclass(frozen=True)
class ScaledConfiguration:
    """A lattice configuration together with the scale of its cells."""

    epsilon: Fraction
    config: Configuration

    def __post_init__(self):
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        if self.epsilon <= 0:
            raise InvalidInput("epsilon must be positive")

    @classmethod
    def from_continuum(
        cls,
        epsilon,
        molecules: Iterable[tuple[MoleculeShape, tuple[Fraction, Fraction]]],
    ) -> "ScaledConfiguration":
        """Build from continuum anchor coordinates (must lie on eps * Z^2)."""
        epsilon = Fraction(epsilon)
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


_TILE = tuple((a, b) for a in range(-2, 2) for b in range(-2, 2))  # the 4-square about 0


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

    One pass over the occupied cells counts them on the 4x4 tiles
    [4t-2, 4t+2)^2.  The 12-block centred at n = 4m is made of the tiles
    m-1..m+1 in each axis and its concentric 4-square is the tile m, so a
    block's fill is a sum of nine tile counts, added up as three strips of
    three.  The window tests and the continuum coordinates of the squares
    are computed once per column and once per row, so each block's
    rectangle is a plain tuple of the ends of its column and row, and phase
    labels are read only for the centre tile of a full block.  The boundary
    length comes from the same blocks: the lattice boundary sweep visits
    only the cells that meet the window in the centre tiles of the blocks
    that are neither full nor empty.  An occupied cell with a free side has
    that side's cell in its own tile or a neighbouring one, so its block is
    such a block, and every cell that meets the window is in the centre
    tile of a block of the grid; the sweep prices no cell that misses the
    window.
    """
    if window.is_plane:
        raise InvalidInput("decomposition needs a bounded window")
    eps = scaled.epsilon
    config = scaled.config
    wlat = _window_in_lattice(window, eps)
    x0, y0, x1, y1 = wlat.bounds()

    occ = config.occupancy
    mols = config.molecules
    tiles = Counter(((a + 2) >> 2, (b + 2) >> 2) for a, b in occ)

    regions: dict[int, list[Rect]] = {lab: [] for lab in range(9)}
    bad: list[Rect] = []

    cols, rows = _centres(x0, x1, eps), _centres(y0, y1, eps)
    t2s = range(rows[0][0] - 1, rows[-1][0] + 2)
    # per tile column, the fill of the three tiles around each row centre
    strips = [
        [a + b + c for a, b, c in zip(col, col[1:], col[2:])]
        for col in (
            [tiles.get((t1, t2), 0) for t2 in t2s]
            for t1 in range(cols[0][0] - 1, cols[-1][0] + 2)
        )
    ]
    # per centre tile column and row, its cells that meet the window
    xs, ys = wlat.cell_range()
    seen_x = [[a for a in range(4 * m - 2, 4 * m + 2) if a in xs] for m, *_ in cols]
    seen_y = [[b for b in range(4 * m - 2, 4 * m + 2) if b in ys] for m, *_ in rows]
    seam: list[tuple[Cell, int]] = []
    for k, (m1, inside1, (u0, u1), (s0, s1)) in enumerate(cols):
        fills = [a + b + c for a, b, c in zip(*strips[k:k + 3])]
        for (m2, inside2, (v0, v1), (t0, t1)), filled, bs in zip(rows, fills, seen_y):
            n1, n2 = 4 * m1, 4 * m2
            partial = 0 < filled < 144
            if partial:
                cells = ((a, b) for a in seen_x[k] for b in bs)
                seam += [(cell, occ[cell]) for cell in cells if cell in occ]
            if partial or not (inside1 and inside2):
                bad.append((u0, v0, u1, v1))
                continue
            small = (s0, t0, s1, t1)
            if filled == 0:
                regions[0].append(small)
                continue
            # full 12-block: the unique phase of molecules meeting the
            # 4-square (single by the interior-phase property; checked)
            owners = dict.fromkeys([occ[n1 + a, n2 + b] for a, b in _TILE])
            labels = {phase_label(mols[idx]) for idx in owners}
            if len(labels) != 1:
                raise AssertionError(
                    f"full covering square at {(n1, n2)} carries phases "
                    f"{sorted(labels)}; the single-phase property failed"
                )
            regions[labels.pop()].append(small)

    return PhasePartitionApprox(
        epsilon=eps,
        regions=regions,
        bad_region=bad,
        bad_count=len(bad),
        boundary_length=eps * sum(_boundary_lengths(config, wlat, seam)),
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
    epss = [approx.epsilon for approx in approxes]
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
