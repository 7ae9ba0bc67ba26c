"""Scale decomposition into phase regions and convergence reporting."""

from fractions import Fraction as F

import pytest

from chiralattice.decomposition import (
    ScaledConfiguration,
    bad_area_bound,
    convergence_report,
    decompose,
)
from chiralattice.molecules import InconsistentScale, Molecule, R, Window, phase_pattern, validate
from chiralattice.rectregions import rect, region_area
from conftest import intersection_area


def seam_fixture(eps: F, w_side: int = 4) -> ScaledConfiguration:
    """Phase 1 left of the axis, phase 2 right, with an uncovered seam."""
    side = F(w_side) / eps
    wlat = Window.square(side + 16)
    left = [m for m in phase_pattern(1, wlat) if all(c[0] + 1 <= 0 for c in m.cells())]
    right = [m for m in phase_pattern(2, wlat) if all(c[0] >= 1 for c in m.cells())]
    return ScaledConfiguration(eps, validate(left + right))


def test_from_continuum_and_scale_error():
    sc = ScaledConfiguration.from_continuum(
        F(1, 8), [(R, (F(-3, 8), F(1, 4)))]
    )
    assert sc.config.molecules[0].anchor == (-3, 2)
    with pytest.raises(InconsistentScale):
        ScaledConfiguration.from_continuum(F(1, 7), [(R, (F(-3, 8), F(1, 4)))])


def test_decompose_empty_config():
    sc = ScaledConfiguration(F(1, 8), validate([]))
    approx = decompose(sc, Window.square(4))
    assert approx.bad_count > 0
    assert region_area(approx.regions[0]) == F(25, 4)
    assert all(not approx.regions[lab] for lab in range(1, 9))


def test_decompose_single_phase_pattern():
    eps = F(1, 16)
    wlat = Window.square(64 + 16)
    sc = ScaledConfiguration(eps, phase_pattern(2, wlat))
    approx = decompose(sc, Window.square(4))
    # interior squares all carry label 2
    for lab in range(9):
        if lab != 2:
            assert not approx.regions[lab]
    assert region_area(approx.regions[2]) >= 16 - 4 * F(1, 2) * 4 - 4


def test_decompose_coverage_invariant():
    eps = F(1, 16)
    sc = seam_fixture(eps)
    w = Window.square(4)
    approx = decompose(sc, w)
    everything = approx.bad_region + [
        r for rects in approx.regions.values() for r in rects
    ]
    wrect = [rect(-2, -2, 2, 2)]
    assert intersection_area(everything, wrect) == 16


def test_decompose_labels_inside_window():
    eps = F(1, 16)
    approx = decompose(seam_fixture(eps), Window.square(4))
    for rects in approx.regions.values():
        for x0, y0, x1, y1 in rects:
            assert -2 <= x0 < x1 <= 2
            assert -2 <= y0 < y1 <= 2


def test_seam_convergence_and_bound():
    w = Window.square(4)
    target = {1: [rect(-2, -2, 0, 2)], 2: [rect(0, -2, 2, 2)]}
    approxes = [decompose(seam_fixture(F(1, d)), w) for d in (8, 16, 32)]
    rows = convergence_report(approxes, target=target)
    for lab in (1, 2):
        series = [row[f"symdiff_{lab}"] for row in rows]
        assert series[0] > series[1] > series[2]
    bads = [row["bad_area"] for row in rows]
    assert bads[0] > bads[1] > bads[2]
    for approx in approxes:
        assert approx.boundary_length > 0
        assert approx.bad_area() <= bad_area_bound(approx)


def test_convergence_report_epsilon_order():
    w = Window.square(4)
    approxes = [decompose(seam_fixture(F(1, 16)), w), decompose(seam_fixture(F(1, 8)), w)]
    with pytest.raises(ValueError):
        convergence_report(approxes, target={})


def test_mismatched_target_stays_large():
    w = Window.square(4)
    swapped = {2: [rect(-2, -2, 0, 2)], 1: [rect(0, -2, 2, 2)]}
    approxes = [decompose(seam_fixture(F(1, d)), w) for d in (8, 16, 32)]
    rows = convergence_report(approxes, target=swapped)
    for row in rows:
        assert row["symdiff_1"] >= 4  # bounded away from zero
        assert row["symdiff_2"] >= 4
