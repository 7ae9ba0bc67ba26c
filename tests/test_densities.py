"""Density model: sources, precedence, symmetry, consistency checks."""

import math
from fractions import Fraction as F

import pytest

from chiralattice.densities import (
    DensityModel,
    consistency_check,
    subadditive_bound,
    sum_gauge,
)
from chiralattice.gauges import phi_closed_form
from chiralattice.interfaces import DensityRecord
from test_line_bound import TABLE_DIRECTIONS


def test_subadditive_cases():
    assert subadditive_bound(1, 2, (1, 1)) == 4
    assert subadditive_bound(5, 6, (1, 1)) == 4
    assert subadditive_bound(1, 5, (0, 1)) == 4
    assert subadditive_bound(1, 5, (1, 0)) == 3  # 3/2 + 3/2
    assert subadditive_bound(1, 7, (1, -1)) == 4
    with pytest.raises(ValueError):
        subadditive_bound(0, 1, (1, 1))


def test_model_sources_and_precedence():
    model = DensityModel.with_patterns()
    v, src = model.value_and_source(1, 0, (1, 0))
    assert (v, src) == (F(3, 2), "closed_form")
    v, src = model.value_and_source(0, 1, (1, 0))
    assert v == F(3, 2)
    v, src = model.value_and_source(1, 2, (1, 1))
    assert (v, src) == (F(4), "subadditive")
    v, src = model.value_and_source(1, 7, (1, -1))
    assert (v, src) == (F(2), "pattern")
    # a multiple of a meshing seam's normal is priced by its pattern, not
    # by the subadditive bound
    assert model.value_and_source(1, 7, (2, -2)) == (F(4), "pattern")
    # symmetry lookup: f(7,1,(-1,1)) = f(1,7,(1,-1))
    v, src = model.value_and_source(7, 1, (-1, 1))
    assert (v, src) == (F(2), "pattern")
    assert model.value(3, 3, (1, 0)) == 0
    # closed-form-only model ignores the meshing patterns
    bare = DensityModel.closed_form_only()
    assert bare.value(1, 7, (1, -1)) == 4


def test_model_table_override():
    model = DensityModel.with_patterns()
    rec = DensityRecord(1, 2, 1, 1, 12, "surface", F(1), F(1), F(22), F(11, 6), "exact", 5)
    model.add_records([rec])
    v, src = model.value_and_source(1, 2, (1, 1))
    assert v == F(11, 6)
    assert src.startswith("table")
    # the mirrored key resolves to the same entry
    assert model.value(2, 1, (-1, -1)) == F(11, 6)
    # a larger exactly-solved T wins
    model.add_records(
        [DensityRecord(1, 2, 1, 1, 16, "surface", F(1), F(1), F(30), F(15, 8), "exact", 9)]
    )
    assert model.value(1, 2, (1, 1)) == F(15, 8)
    # upper-bound rows never displace exact ones
    model.add_records(
        [DensityRecord(1, 2, 1, 1, 20, "surface", F(1), F(1), F(40), F(2), "upper_bound", 9)]
    )
    assert model.value(1, 2, (1, 1)) == F(15, 8)
    # weighted and volume rows price other energies: the table skips them
    model.add_records([
        DensityRecord(1, 2, 1, 1, 24, "surface", F(1), F(1, 4), F(10), F(5, 12), "exact", 9),
        DensityRecord(1, 2, 1, 1, 24, "volume", F(1), F(1), F(0), F(0), "exact", 9),
    ])
    assert model.value_and_source(1, 2, (1, 1)) == (F(15, 8), "table(T=16,exact)")


NORMALS = [
    (p, q) for p in range(-5, 6) for q in range(-5, 6)
    if (p, q) != (0, 0) and math.gcd(p, q) == 1
]


def mixed_table_model() -> DensityModel:
    """Two solver rows of one seam at different T, each under its own
    orientation, and a mirror pair whose rows differ in certificate."""
    model = DensityModel.with_patterns()
    model.add_records([
        DensityRecord(1, 7, 1, -1, 16, "surface", F(1), F(1), F(30), F(15, 8), "exact", 9),
        DensityRecord(7, 1, -1, 1, 12, "surface", F(1), F(1), F(22), F(11, 6), "exact", 5),
        DensityRecord(0, 2, -1, -1, 16, "surface", F(1), F(1), F(28), F(7, 4), "upper_bound", 7),
        DensityRecord(2, 0, 1, 1, 12, "surface", F(1), F(1), F(20), F(5, 3), "exact", 3),
    ])
    return model


@pytest.mark.parametrize(
    "model", [DensityModel.with_patterns(), DensityModel.closed_form_only(), mixed_table_model()],
    ids=["with_patterns", "closed_form_only", "mixed_table"],
)
def test_mirror_identity(model):
    """f(i, j, nu) = f(j, i, -nu), with the same provenance, for every
    ordered pair and every primitive normal with |p|, |q| <= 5."""
    assert len(NORMALS) == 80
    for i in range(9):
        for j in range(9):
            if i == j:
                continue
            for p, q in NORMALS:
                assert model.value_and_source(i, j, (p, q)) == model.value_and_source(
                    j, i, (-p, -q)), (i, j, (p, q))


# the normals of the benchmark's density table, each row's and its mirror's
TABLE_NORMALS = sorted({n for _, _, (p, q) in TABLE_DIRECTIONS for n in ((p, q), (-p, -q))})


@pytest.mark.parametrize(
    "model", [DensityModel.with_patterns(), DensityModel.closed_form_only(), mixed_table_model()],
    ids=["with_patterns", "closed_form_only", "mixed_table"],
)
def test_values_are_one_homogeneous(model):
    """f(i, j, g nu) = g f(i, j, nu), with the same provenance, for every
    ordered pair, the table's normals and g = 2, 3."""
    assert len(TABLE_NORMALS) == 10
    for i in range(9):
        for j in range(9):
            if i == j:
                continue
            for p, q in TABLE_NORMALS:
                value, source = model.value_and_source(i, j, (p, q))
                for g in (2, 3):
                    assert model.value_and_source(i, j, (g * p, g * q)) == (g * value, source), (
                        i, j, (p, q), g)
    assert model.value_and_source(7, 1, (-3, 3)) == model.value_and_source(1, 7, (3, -3))


def test_mirror_rows_share_one_entry():
    model = mixed_table_model()
    assert len(model.table) == 2
    assert model.value_and_source(7, 1, (-1, 1)) == (F(15, 8), "table(T=16,exact)")
    assert model.value_and_source(0, 2, (-1, -1)) == (F(5, 3), "table(T=12,exact)")
    # one seam row, at its own normal, enters the R/S contact envelope
    assert model.rs_contact_envelope().gauge((1, -1)) == F(15, 8)


def test_sum_gauge():
    hexagon = phi_closed_form(1)
    mirror_hex = phi_closed_form(5)
    s = sum_gauge(hexagon, mirror_hex)
    assert s.gauge((1, 0)) == 3
    assert s.gauge((0, 1)) == 4
    assert s.gauge((1, 1)) == 4


def test_rs_contact_envelope():
    model = DensityModel.with_patterns()
    f0 = model.rs_contact_envelope()
    assert f0.gauge((1, -1)) == 2  # the meshing value
    assert f0.gauge((-1, 1)) == 2
    assert f0.gauge((1, 0)) <= 3
    bare = DensityModel.closed_form_only()
    f0b = bare.rs_contact_envelope()
    assert f0b.gauge((1, -1)) == 4


def test_consistency_check_flags_corruption():
    rows = [
        DensityRecord(1, 0, 1, 1, 12, "surface", F(1), F(1), F(20), F(5, 3), "exact", 1),
        DensityRecord(0, 1, -1, -1, 12, "surface", F(1), F(1), F(20), F(5, 3), "exact", 1),
    ]
    rep = consistency_check(DensityModel.with_patterns(), rows)
    assert rep.ok
    assert rep.checked_symmetry == 2
    corrupted = rows + [
        DensityRecord(1, 0, 0, 1, 12, "surface", F(1), F(1), F(1), F(1, 12), "exact", 1)
    ]
    rep2 = consistency_check(DensityModel.with_patterns(), corrupted)
    assert not rep2.ok
    bad_sym = [
        rows[0],
        DensityRecord(0, 1, -1, -1, 12, "surface", F(1), F(1), F(21), F(7, 4), "exact", 1),
    ]
    rep3 = consistency_check(DensityModel.with_patterns(), bad_sym)
    assert any("symmetry" in v for v in rep3.violations)


def test_consistency_triangle():
    mk = lambda i, j, v: DensityRecord(i, j, 1, 1, 8, "surface", F(1), F(1), v * 8, v, "exact", 0)
    good = [mk(1, 2, F(3)), mk(1, 0, F(3, 2)), mk(0, 2, F(3, 2))]
    assert consistency_check(DensityModel.with_patterns(), good).ok
    bad = [mk(1, 2, F(4)), mk(1, 0, F(3, 2)), mk(0, 2, F(3, 2))]
    rep = consistency_check(DensityModel.with_patterns(), bad)
    assert any("triangle" in v for v in rep.violations)
