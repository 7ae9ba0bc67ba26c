"""Slow tier: certified deep interface solves, pinned.

Tier-1 pins exhaustive searches only up to T=24.  These rows search
millions of nodes each (about a minute and a half together on one core of
a 2-core machine, 40 s of it in the two 30M-budget rows), so they live
outside `testpaths` and run on their own:

    PYTHONPATH=src python -m pytest -q slow

Each row pins the solve's value and certificate, its root bound, its node
count and the sha256 of its witness's `configuration_to_json`; the
witness must match the frame, and its Q_T perimeter, weighted by the
row's (c_R, c_S) (unit weights unless the row names others) and swept on
the lattice with no solver mask, is the value.  The two weighted rows are
the wetting seams at c = (1, 1/4), which certify from the wetting fill
that the pattern library builds.  The increments between two sizes of
one problem are differences of exact rows.
"""

import hashlib
from fractions import Fraction as F
from functools import cache

import pytest

from chiralattice import (
    InterfaceProblem, Window, admissible, configuration_to_json, direction, solve_interface,
    weighted_perimeter,
)
from chiralattice.interfaces import DEFAULT_BUDGET

DEEP_ROWS = [
    # (i, j, nu, T[, weights]), budget, value, root, nodes, sha256 of the witness JSON
    ((1, 0, (0, 1), 28), 5_000_000, 54, 34, 2_496_769,
     "07beb1c1fe6f6582d3ff59afc62a4ba8ca9ff2423328e092e6fc31c4baf332a5"),
    ((1, 0, (1, 0), 36), 5_000_000, 54, 40, 2_909_680,
     "522e2a1300510ed688de01765e410e8bdfda92125841d6801c7868dd21dce052"),
    ((1, 2, (1, 1), 20), 5_000_000, 72, 34, 4_493_763,
     "76b22d2b4ee48faf88838fce80b2ce2574e5218bd9022d9d7bfd806cba16c5b6"),
    ((5, 6, (0, 1), 24), 30_000_000, 60, 26, 10_449_405,
     "b1024afb95cfa9ae6495c092e6dd6eb91e7e9227c44c20601a05a42f7f21c2f9"),
    ((1, 7, (1, -1), 28), 30_000_000, 54, 18, 8_142_000,
     "07171df9c91aaf7cc7e0a3b1f6accf27de7e46b182f2c993c0262299ca45418a"),
    ((1, 0, (-1, 1), 24, (1, F(1, 4))), DEFAULT_BUDGET, F(149, 4), F(97, 4), 2_907_176,
     "9ea8b8f8b46861707f250d5c5d7491746b9049daa58165944168501bb5b0f7bf"),
    ((2, 0, (-1, 1), 24, (1, F(1, 4))), DEFAULT_BUDGET, F(149, 4), F(97, 4), 4_094_001,
     "88fd7ea3c6a697e7f90808a2b75b237e03b8e73b1a8c766f2355c100a49d75ca"),
]

BUDGETS = {row: budget for row, budget, *_ in DEEP_ROWS}

INCREMENTS = [
    # (i, j, nu), (T, value) of the smaller row, (T, value) of the larger
    ((5, 6, (0, 1)), (16, 44), (24, 60)),
    ((1, 7, (1, -1)), (24, 46), (28, 54)),
]


@cache
def solved(row):
    """The problem of a row and its solve, at the row's pinned budget or
    at the default one, shared by the tests that read it."""
    i, j, nu, T, *weights = row
    prob = InterfaceProblem(i, j, direction(*nu), T, *weights)
    return prob, solve_interface(prob, budget=BUDGETS.get(row, DEFAULT_BUDGET))


@pytest.mark.parametrize(
    "row, budget, value, root, nodes, digest", DEEP_ROWS, ids=[str(r[0]) for r in DEEP_ROWS]
)
def test_deep_row_certified(row, budget, value, root, nodes, digest):
    prob, res = solved(row)
    assert (res.value, res.certificate, res.lower) == (value, "exact", value)
    assert (res.root, res.nodes_explored) == (root, nodes)
    assert hashlib.sha256(configuration_to_json(res.config).encode()).hexdigest() == digest
    assert admissible(res.config, prob)
    assert weighted_perimeter(res.config, *prob.weights, Window.square(prob.T)) == value


@pytest.mark.parametrize("key, small, large", INCREMENTS, ids=[str(r[0]) for r in INCREMENTS])
def test_increment_between_exact_rows(key, small, large):
    """The value's increase from the smaller T to the larger, each exact."""
    (_, lo), (_, hi) = solved((*key, small[0])), solved((*key, large[0]))
    assert (lo.certificate, hi.certificate) == ("exact", "exact")
    assert (lo.value, hi.value) == (small[1], large[1])
    assert hi.value - lo.value == large[1] - small[1]
