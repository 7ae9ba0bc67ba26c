"""Slow tier: the seven-molecule clusters, pinned.

Tier-1 pins every cluster search up to six molecules.  The eight searches
with r + s = 7 take about 25 s together on one core of a 2-core machine,
so they live outside `testpaths` and run on their own:

    PYTHONPATH=src python -m pytest -q slow

Each row pins the search's value and its molecules, in the order of the
returned configuration, as (shape, x, y) of each anchor.  The rows were
recorded with the search that ranked every placement of its grid up
front, so they check that ranking placements as they are met changes
neither the value nor the first optimal cluster in the search order.
"""

import pytest

from chiralattice import cluster_min_perimeter

SEVEN_MOLECULE_CLUSTERS = [
    # (r, value, molecules)
    (0, 28, [("S", 0, 0), ("S", -2, 2), ("S", -3, 1), ("S", -4, 0), ("S", -3, -3), ("S", -2, -2),
             ("S", -1, -1)]),
    (1, 28, [("R", 0, 0), ("S", 0, 0), ("S", -1, -1), ("S", -2, -2), ("S", -1, -5), ("S", 0, -4),
             ("S", 1, -3)]),
    (2, 28, [("R", 0, 0), ("R", -1, 1), ("S", -1, 1), ("S", -2, 0), ("S", -3, -1), ("S", -1, -3),
             ("S", 0, -2)]),
    (3, 30, [("R", 0, 0), ("R", -1, 1), ("R", -2, 2), ("S", -2, 2), ("S", -3, 1), ("S", -2, -2),
             ("S", -1, -1)]),
    (4, 30, [("R", 0, 0), ("R", -2, -2), ("R", -1, -3), ("R", -1, 1), ("S", -2, -3), ("S", -2, 0),
             ("S", -1, 1)]),
    (5, 28, [("R", 0, 0), ("R", -2, -2), ("R", -3, -1), ("R", -2, 2), ("R", -1, 1), ("S", -3, 1),
             ("S", -2, 2)]),
    (6, 28, [("R", 0, 0), ("R", -2, -2), ("R", -3, -1), ("R", -2, 2), ("R", -1, -3), ("R", -1, 1),
             ("S", -2, 2)]),
    (7, 28, [("R", 0, 0), ("R", -2, -2), ("R", -3, -1), ("R", -4, 0), ("R", -3, 3), ("R", -2, 2),
             ("R", -1, 1)]),
]


@pytest.mark.parametrize("r, value, molecules", SEVEN_MOLECULE_CLUSTERS)
def test_seven_molecule_cluster_pinned(r, value, molecules):
    got, config = cluster_min_perimeter(r, 7 - r, cap=7)
    assert got == value
    assert [(m.shape.name, *m.anchor) for m in config.molecules] == molecules
