"""Slow tier: certified deep interface solves, pinned.

Tier-1 pins exhaustive searches only up to T=24.  These rows search
millions of nodes each (about 15 s together on one core of a 2-core
machine), so they live outside `testpaths` and run on their own:

    PYTHONPATH=src python -m pytest -q slow

Each row pins the solve's value and certificate, its root bound, its node
count and the sha256 of its witness's `configuration_to_json`; the
witness must match the frame, and its Q_T perimeter, swept on the lattice
with no solver mask, is the value.
"""

import hashlib

import pytest

from chiralattice import (
    InterfaceProblem, Window, admissible, configuration_to_json, direction, perimeter,
    solve_interface,
)

DEEP_ROWS = [
    # (i, j, nu, T), value, root, nodes, sha256 of the witness JSON
    ((1, 0, (0, 1), 28), 54, 34, 2_496_769,
     "07beb1c1fe6f6582d3ff59afc62a4ba8ca9ff2423328e092e6fc31c4baf332a5"),
    ((1, 0, (1, 0), 36), 54, 40, 2_909_680,
     "522e2a1300510ed688de01765e410e8bdfda92125841d6801c7868dd21dce052"),
    ((1, 2, (1, 1), 20), 72, 34, 4_493_763,
     "76b22d2b4ee48faf88838fce80b2ce2574e5218bd9022d9d7bfd806cba16c5b6"),
]


@pytest.mark.parametrize("row, value, root, nodes, digest", DEEP_ROWS, ids=[str(r[0]) for r in DEEP_ROWS])
def test_deep_row_certified(row, value, root, nodes, digest):
    i, j, nu, T = row
    prob = InterfaceProblem(i, j, direction(*nu), T)
    res = solve_interface(prob)
    assert (res.value, res.certificate, res.lower) == (value, "exact", value)
    assert (res.root, res.nodes_explored) == (root, nodes)
    assert hashlib.sha256(configuration_to_json(res.config).encode()).hexdigest() == digest
    assert admissible(res.config, prob)
    assert perimeter(res.config, Window.square(T)) == value
