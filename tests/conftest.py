"""Shared fixtures: random configurations and independent oracles."""

from __future__ import annotations

import random
from fractions import Fraction

from chiralattice.molecules import Configuration, Molecule, R, S, validate
from chiralattice.rectregions import region_area


def intersection_area(a, b) -> Fraction:
    """Area of the intersection of two rectangle unions, by inclusion-exclusion."""
    return region_area(a) + region_area(b) - region_area(list(a) + list(b))


def random_configuration(rng: random.Random, max_molecules: int = 50) -> Configuration:
    """A seeded random valid configuration built by rejection."""
    n_target = rng.randint(0, max_molecules)
    mols = []
    occupied = set()
    attempts = 0
    while len(mols) < n_target and attempts < 20 * max_molecules:
        attempts += 1
        shape = R if rng.random() < 0.5 else S
        anchor = (rng.randint(-20, 20), rng.randint(-20, 20))
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
