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

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .molecules import (
    Configuration,
    InconsistentScale,
    InvalidInput,
    MoleculeShape,
    Window,
    configuration_on_grid,
    perimeter,
    phase_label,
)
from .rectregions import Rect, rect, region_area, symdiff_area

__all__ = [
    "InconsistentScale",
    "ScaledConfiguration",
    "PhasePartitionApprox",
    "decompose",
    "convergence_report",
    "symdiff_area",
]


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

    def region_area(self, label: int) -> Fraction:
        return region_area(self.regions.get(label, []))

    def bad_area(self) -> Fraction:
        return region_area(self.bad_region)


def _window_in_lattice(window: Window, epsilon: Fraction) -> Window:
    cx, cy = window.center
    return Window.square(window.side / epsilon, (cx / epsilon, cy / epsilon))


def decompose(scaled: ScaledConfiguration, window: Window) -> PhasePartitionApprox:
    """Classify the covering squares and collect the per-label regions.

    The window must be bounded.  Good squares lie inside the window and
    their label-4 squares tile it up to the bad region, so the labeled
    regions together with the bad region cover the window.
    """
    if window.is_plane:
        raise InvalidInput("decomposition needs a bounded window")
    eps = scaled.epsilon
    config = scaled.config
    wlat = _window_in_lattice(window, eps)
    x0, y0, x1, y1 = wlat.bounds()

    occ = config.occupancy

    def block_stats(n1: int, n2: int, half: int) -> tuple[int, int]:
        total = (2 * half) ** 2
        filled = 0
        for a in range(n1 - half, n1 + half):
            for b in range(n2 - half, n2 + half):
                if (a, b) in occ:
                    filled += 1
        return filled, total

    # candidate centers n in 4Z^2 whose open 12-square meets the window
    import math

    n1_lo = 4 * math.floor((x0 - 6) / 4)
    n1_hi = 4 * math.ceil((x1 + 6) / 4)
    n2_lo = 4 * math.floor((y0 - 6) / 4)
    n2_hi = 4 * math.ceil((y1 + 6) / 4)

    regions: dict[int, list[Rect]] = {lab: [] for lab in range(9)}
    bad: list[Rect] = []
    bad_count = 0

    for n1 in range(n1_lo, n1_hi + 1, 4):
        for n2 in range(n2_lo, n2_hi + 1, 4):
            u0, u1 = Fraction(n1 - 6), Fraction(n1 + 6)
            v0, v1 = Fraction(n2 - 6), Fraction(n2 + 6)
            if not (u0 < x1 and u1 > x0 and v0 < y1 and v1 > y0):
                continue  # does not meet the window
            inside = u0 >= x0 and u1 <= x1 and v0 >= y0 and v1 <= y1
            filled, total = block_stats(n1, n2, 6)
            is_bad = (not inside) or (0 < filled < total)
            if is_bad:
                bad_count += 1
                bad.append(
                    rect(eps * u0, eps * v0, eps * u1, eps * v1)
                )
                continue
            small = rect(
                eps * (n1 - 2), eps * (n2 - 2), eps * (n1 + 2), eps * (n2 + 2)
            )
            if filled == 0:
                regions[0].append(small)
                continue
            # full 12-block: the unique phase of molecules meeting the
            # 4-square (single by the interior-phase property; checked)
            labels = set()
            for a in range(n1 - 2, n1 + 2):
                for b in range(n2 - 2, n2 + 2):
                    idx = occ.get((a, b))
                    if idx is not None:
                        labels.add(phase_label(config.molecules[idx]))
            if len(labels) != 1:
                raise AssertionError(
                    f"full covering square at {(n1, n2)} carries phases "
                    f"{sorted(labels)}; the single-phase property failed"
                )
            regions[labels.pop()].append(small)

    c_continuum = eps * perimeter(config, wlat)
    return PhasePartitionApprox(
        epsilon=eps,
        regions={lab: rects for lab, rects in regions.items()},
        bad_region=bad,
        bad_count=bad_count,
        boundary_length=c_continuum,
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
    runs: Sequence[tuple[ScaledConfiguration, Window]],
    target: Mapping[int, Sequence[Rect]] | None = None,
) -> list[dict]:
    """Per-epsilon symmetric differences between regions and a target.

    Each run pairs a scaled configuration with its window.  The target
    maps labels to rectangle unions in continuum coordinates; missing
    labels compare against the empty region.  Epsilons must be strictly
    decreasing.
    """
    epss = [sc.epsilon for sc, _ in runs]
    if any(later >= earlier for later, earlier in zip(epss[1:], epss)):
        raise InvalidInput("epsilons must be strictly decreasing")
    target = dict(target or {})
    rows: list[dict] = []
    for sc, win in runs:
        approx = decompose(sc, win)
        row: dict = {
            "epsilon": sc.epsilon,
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
