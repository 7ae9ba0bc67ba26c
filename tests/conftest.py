"""Shared fixtures: random configurations and independent oracles."""

from __future__ import annotations

import random
from fractions import Fraction

from typing import Iterable

from chiralattice.molecules import Cell, Configuration, Molecule, R, S, validate
from chiralattice.placements import PlacementGrid
from chiralattice.rectregions import region_area


def intersection_area(a, b) -> Fraction:
    """Area of the intersection of two rectangle unions, by inclusion-exclusion."""
    return region_area(a) + region_area(b) - region_area(list(a) + list(b))


def grid_mask(grid: PlacementGrid, cells: Iterable[Cell]) -> int:
    """Bits of the given cells in the grid's padded numbering; cells off the
    padded grid are skipped.  The tests read grids back through it, cell by
    cell; the library masks molecules by template (`PlacementGrid.masks`)."""
    (x0, y0), (ax, ay), (cx, cy), _, _ = grid._spec
    m, height, width = grid._margin, grid.height, grid._width
    bits = 0
    for x, y in cells:
        x -= x0
        y -= y0
        c, r = x * cx + y * cy + m, x * ax + y * ay + m  # line and place, padded
        if 0 <= c < width and 0 <= r < height:
            bits |= 1 << c * height + r
    return bits


def random_configuration(
    rng: random.Random, max_molecules: int = 50, shapes: tuple = (R, S), span: int = 20
) -> Configuration:
    """A seeded random valid configuration of the given shapes, anchors in
    [-span, span]^2, built by rejection."""
    n_target = rng.randint(0, max_molecules)
    mols = []
    occupied = set()
    attempts = 0
    while len(mols) < n_target and attempts < 20 * max_molecules:
        attempts += 1
        shape = shapes[int(rng.random() * len(shapes))]
        anchor = (rng.randint(-span, span), rng.randint(-span, span))
        mol = Molecule(shape, anchor)
        cells = mol.cells()
        if any(c in occupied for c in cells):
            continue
        occupied.update(cells)
        mols.append(mol)
    return validate(mols)


def perimeter_oracle(config: Configuration) -> Fraction:
    """4 * cells - 2 * adjacent pairs, counted by pair enumeration."""
    cells = sorted(config.occupancy)
    cell_set = set(cells)
    adjacent = 0
    for (a, b) in cells:
        if (a + 1, b) in cell_set:
            adjacent += 1
        if (a, b + 1) in cell_set:
            adjacent += 1
    return Fraction(4 * len(cells) - 2 * adjacent)


def edge_listing_oracle(config: Configuration) -> int:
    """Count boundary unit edges by enumerating all cell edges."""
    cell_set = set(config.occupancy)
    edges = set()
    for (a, b) in cell_set:
        for edge, nb in (
            (("V", a, b), (a - 1, b)),
            (("V", a + 1, b), (a + 1, b)),
            (("H", a, b), (a, b - 1)),
            (("H", a, b + 1), (a, b + 1)),
        ):
            if nb not in cell_set:
                edges.add(edge)
    return len(edges)
