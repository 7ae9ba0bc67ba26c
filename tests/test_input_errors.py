"""Library input errors: one InvalidInput type, raised by checks and decoders."""

import json
import re
from dataclasses import replace
from fractions import Fraction as F

import pytest

from chiralattice import (
    Configuration,
    DensityModel,
    InconsistentScale,
    InfeasibleBoundary,
    InterfaceProblem,
    InvalidInput,
    InvalidPartition,
    OverlapError,
    PolygonalPartition,
    ScaledConfiguration,
    UnlabeledShape,
    admissible,
    anchored_admissible,
    cluster_min_perimeter,
    configuration_from_json,
    consistency_check,
    direction,
    enumerate_coverings,
    extract_interfaces,
    lemma_check,
    min_envelope,
    mirror,
    normalized_density,
    pattern_upper_bound,
    phase_shape,
    phi_closed_form,
    shapes_from_json,
    solve_interface,
    symdiff_area,
    verify_interior_phase,
)
from chiralattice.altpairs import FLAT_PAIR
from chiralattice.cli import main
from chiralattice.decomposition import bad_area_bound, convergence_report, decompose
from chiralattice.gauges import GaugePolygon, envelope_with_points, wulff_shape
from chiralattice.limits import limit_energy, rs_lower_bound, spin_lower_bound
from chiralattice.interfaces import DensityRecord, Direction, density_record, oriented
from chiralattice.molecules import (
    Molecule, R, S, Window, configuration_entries, json_rational, perimeter, phase_label,
    phase_pattern, validate, volume_deficit, weighted_perimeter,
)
from chiralattice.polygeom import convex_hull, polygon_area, predicate_area
from chiralattice.rectregions import rect, region_area, regions_from_jsonable


@pytest.mark.parametrize(
    "error",
    [OverlapError, UnlabeledShape, InconsistentScale, InfeasibleBoundary,
     InvalidPartition],
)
def test_input_errors_are_invalid_input(error):
    assert issubclass(error, InvalidInput) and issubclass(InvalidInput, ValueError)


_COVERED = phase_pattern(1, Window.square(16))  # covers Q_8 about the origin
_UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]
_UNIT_PARTITION = PolygonalPartition({1: [_UNIT_SQUARE]}, _UNIT_SQUARE)
_PROBLEM = InterfaceProblem(1, 0, direction(1, 1), 8)
_SCALED = ScaledConfiguration(F(1, 4), validate([Molecule(R, (0, 0))]))
_PHI = phi_closed_form(1)


def _zero_islands():
    """A plane partition whose one island was relabelled 0 after it was
    built, which its construction check would have refused."""
    part = PolygonalPartition({1: [_UNIT_SQUARE]})
    part.regions[0] = part.regions.pop(1)
    return part


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: solve_interface(InterfaceProblem(1, 0, direction(1, 1), 8), budget=0),
         "budget must be at least 1"),
        (lambda: lemma_check(4, cap=0), "cap must be at least 1"),
        (lambda: lemma_check(4, []), "at least one shape"),
        (lambda: cluster_min_perimeter(1, 0, cap=0), "cap must be at least 1"),
        (lambda: InterfaceProblem(1, 1, direction(1, 0), 8), "distinct phases"),
        # renamed alike, the flat pair would read as one shape and pass
        (lambda: lemma_check(4, [replace(s, name="X") for s in FLAT_PAIR]),
         "two distinct shapes are named 'X'"),
        # weights are a pair: a short tuple, a string and a long tuple
        (lambda: InterfaceProblem(1, 0, direction(1, 1), 8, (1,)), "invalid weights \\(1,\\): expected a pair"),
        (lambda: InterfaceProblem(1, 0, direction(1, 1), 8, "11"), "invalid weights '11': expected a pair"),
        (lambda: InterfaceProblem(1, 0, direction(1, 1), 8, (1, 1, 1)),
         "invalid weights \\(1, 1, 1\\): expected a pair"),
        (lambda: InterfaceProblem(1, 0, direction(1, 1), 8, (None, 1)), "invalid weights"),
        # labels, T and direction components are ints: no float, no bool
        (lambda: InterfaceProblem(1, 0, direction(1, 1), 8.0), "invalid T 8.0: expected an integer"),
        (lambda: InterfaceProblem(1.0, 0, direction(1, 1), 8), "invalid phase label 1.0"),
        (lambda: InterfaceProblem(1, True, direction(1, 1), 8), "invalid phase label True"),
        (lambda: direction(1.5, 1), "invalid direction component 1.5"),
        (lambda: Direction(1, 0.5), "invalid direction component 0.5"),
        (lambda: Direction(True, 0), "invalid direction component True"),
        (lambda: InterfaceProblem(1, 0, (1, 1), 8), "nu must be a Direction"),
        # counts are ints: no string, float or bool
        (lambda: solve_interface(InterfaceProblem(1, 0, direction(1, 1), 8), budget="5"),
         "invalid budget '5'"),
        (lambda: solve_interface(InterfaceProblem(1, 0, direction(1, 1), 8), budget=2.5),
         "invalid budget 2.5"),
        (lambda: solve_interface(InterfaceProblem(1, 0, direction(1, 1), 8), budget=True),
         "invalid budget True"),
        (lambda: cluster_min_perimeter(1.5, 0), "invalid r 1.5"),
        (lambda: cluster_min_perimeter(1, 0, cap=6.0), "invalid cap 6.0"),
        (lambda: lemma_check(4.0), "invalid k 4.0"),
        (lambda: next(enumerate_coverings(2.0, [R, S])), "invalid k 2.0"),
        (lambda: next(enumerate_coverings(2, [R, S], cap=3.0)), "invalid cap 3.0"),
        (lambda: pattern_upper_bound(1, 0, (1, 1)), "nu must be a Direction, not"),
        (lambda: pattern_upper_bound(1, 0, direction(1, 1), 12.0), "invalid T 12.0"),
        # weights are exact: no float, no bool
        (lambda: InterfaceProblem(1, 0, direction(1, 1), 12, (0.1, 1)), "invalid weights 0.1"),
        (lambda: InterfaceProblem(1, 0, direction(1, 1), 12, (1, True)), "invalid weights True"),
        (lambda: weighted_perimeter(validate([Molecule(R, (0, 0))]), 0.5, 1), "invalid weight 0.5"),
        (lambda: weighted_perimeter(validate([Molecule(R, (0, 0))]), 1, True),
         "invalid weight True"),
        # so are a window's side and centre
        (lambda: Window.square(0.1), "invalid window side 0.1"),
        (lambda: Window.square(True), "invalid window side True"),
        (lambda: Window.square(4, (0.5, 0)), "invalid window centre 0.5"),
        # a window's centre is a pair: a long tuple and a number
        (lambda: Window.square(4, (1, 2, 3)), "invalid window centre \\(1, 2, 3\\): expected a pair"),
        (lambda: Window.square(4, 5), "invalid window centre 5: expected a pair"),
        # a scale is exact too: no float, no bool
        (lambda: ScaledConfiguration(0.1, validate([])), "invalid epsilon 0.1"),
        (lambda: ScaledConfiguration(True, validate([])), "invalid epsilon True"),
        (lambda: ScaledConfiguration.from_continuum(0.5, []), "invalid epsilon 0.5"),
        (lambda: ScaledConfiguration.from_continuum(True, []), "invalid epsilon True"),
        # a zero or negative scale is refused before the grid divides by it
        (lambda: ScaledConfiguration.from_continuum(0, [(R, (0, 0))]), "epsilon must be positive"),
        (lambda: ScaledConfiguration.from_continuum(-1, [(R, (0, 0))]), "epsilon must be positive"),
        # an interior phase's size and centre are ints, the centre a pair
        (lambda: verify_interior_phase(_COVERED, (0.5, 0), 4), "invalid centre 0.5"),
        (lambda: verify_interior_phase(_COVERED, (0, True), 4), "invalid centre True"),
        (lambda: verify_interior_phase(_COVERED, (0, 0), 4.0), "invalid k 4.0: expected an integer"),
        (lambda: verify_interior_phase(_COVERED, (0, 0, 0), 4), "invalid centre \\(0, 0, 0\\): expected a pair"),
        (lambda: verify_interior_phase(_COVERED, 0, 4), "invalid centre 0: expected a pair"),
        (lambda: verify_interior_phase([Molecule(R, (0, 0))], (0, 0), 4),
         "config must be a Configuration, not list"),
        (lambda: lemma_check(4, inner_margin=4.0), "invalid inner margin 4.0"),
        (lambda: lemma_check(4, inner_margin=True), "invalid inner margin True"),
        # library coordinates are exact: no float, no bool
        (lambda: rect(0.1, 0, 1, 1), "invalid coordinate 0.1"),
        (lambda: rect(0, 0, True, 1), "invalid coordinate True"),
        (lambda: PolygonalPartition({1: [[(0, 0), (1, 0), (1, 0.5)]]}), "invalid vertex 0.5"),
        (lambda: PolygonalPartition({1: [_UNIT_SQUARE]}, [(0, 0), (1, 0), (1, 1), (False, 1)]),
         "invalid vertex False"),
        (lambda: anchored_admissible(_UNIT_PARTITION, _UNIT_PARTITION, [(0, 0), (1.5, 0), (1, 1)]),
         "invalid vertex 1.5"),
        # region labels are ints: 1.5 is not region 1, nor does it replace it
        (lambda: PolygonalPartition({1.5: [_UNIT_SQUARE]}), "invalid region label 1.5"),
        (lambda: PolygonalPartition({1: [_UNIT_SQUARE], 1.5: [[(2, 0), (3, 0), (3, 1)]]}),
         "invalid region label 1.5"),
        (lambda: PolygonalPartition({True: [_UNIT_SQUARE]}), "invalid region label True"),
        # a density's normal is a pair of ints, not zero
        (lambda: DensityModel.with_patterns().value_and_source(1, 5, (1.5, 1)),
         "invalid normal 1.5"),
        (lambda: DensityModel.with_patterns().value(1, 5, (1, True)), "invalid normal True"),
        (lambda: DensityModel.with_patterns().value(1, 5, (0, 0)), "normal cannot be zero"),
        # a phase label is an int: not phase 1 read off a bool or a float
        (lambda: phase_shape(True), "invalid phase label True: expected an integer"),
        (lambda: phase_shape(1.0), "invalid phase label 1.0: expected an integer"),
        (lambda: phi_closed_form(1.0), "phase label 1.0: expected an integer"),
        # an interface key's labels and normal are ints: 1.0 is not label 1
        (lambda: oriented(1.0, 0, (1, 1)), "invalid phase label 1.0: expected"),
        (lambda: oriented(1, False, (1, 1)), "invalid phase label False"),
        (lambda: oriented(0, 1, (0.5, 1)), "invalid normal 0.5"),
        (lambda: oriented(1, 0, (1, True)), "invalid normal True: expected"),
        # a molecule's anchor is a pair of ints and its shape a MoleculeShape:
        # no half-integer, bool or Fraction anchor is validated or labelled
        (lambda: validate([Molecule(R, (0.5, 0))]), "invalid anchor coordinate 0.5"),
        (lambda: validate([Molecule(R, (True, 0))]), "invalid anchor coordinate True"),
        (lambda: validate([Molecule(S, (0, F(1, 2)))]),
         "invalid anchor coordinate Fraction\\(1, 2\\)"),
        (lambda: validate([Molecule(R, (0, 0)), Molecule(R, (0, 0, 0))]),
         "invalid anchor \\(0, 0, 0\\): expected a pair"),
        (lambda: validate([Molecule("R", (0, 0))]), "invalid molecule shape 'R'"),
        # every entry is a Molecule, named by its index when it is not
        (lambda: validate([1]), "molecule #0 is not a Molecule: 1"),
        (lambda: Configuration([Molecule(R, (0, 0)), (R, (9, 0))]),
         "molecule #1 is not a Molecule: \\(MoleculeShape"),
        # a Configuration built directly validates its molecules as `validate` does
        (lambda: perimeter(Configuration([Molecule(R, (0.5, 0))])),
         "invalid anchor coordinate 0.5: expected an integer"),
        (lambda: Configuration([Molecule(R, (0, 0)), Molecule(R, (0, 0))]),
         "occupied by molecules #0 and #1"),
        # a covering search's shapes are MoleculeShapes, not names or None
        (lambda: lemma_check(4, ["R"]), "invalid molecule shape 'R': expected a MoleculeShape"),
        (lambda: next(enumerate_coverings(4, [None])), "invalid molecule shape None"),
        (lambda: phase_label(Molecule(R, (0.5, 0))), "anchor coordinate 0.5: expected an integer"),
        (lambda: phase_label(Molecule(R, (True, 0))), "anchor coordinate True: expected an integer"),
        (lambda: phase_label(Molecule(S, (F(1), 0))),
         "invalid anchor coordinate Fraction\\(1, 1\\)"),
        (lambda: phase_label(Molecule("S", (0, 0))), "invalid molecule shape 'S'"),
        # an energy reads a Configuration in a Window: not a side, a tuple or a list
        (lambda: perimeter(validate([Molecule(R, (0, 0))]), 8), "window must be a Window, not int"),
        (lambda: weighted_perimeter(validate([Molecule(R, (0, 0))]), 1, 1, 8),
         "window must be a Window, not int"),
        (lambda: volume_deficit(validate([Molecule(R, (0, 0))]), 8), "window must be a Window, not int"),
        (lambda: perimeter(validate([Molecule(R, (0, 0))]), (4, 0, 0)),
         "window must be a Window, not tuple"),
        (lambda: perimeter([Molecule(R, (0, 0))]), "config must be a Configuration, not list"),
        # every library entry point names an argument of the wrong type
        (lambda: admissible([], _PROBLEM), "config must be a Configuration, not list"),
        (lambda: admissible(validate([]), (1, 0)), "prob must be an InterfaceProblem, not tuple"),
        (lambda: decompose(_SCALED, [4]), "window must be a Window, not list"),
        (lambda: decompose(validate([]), Window.square(4)),
         "scaled must be a ScaledConfiguration, not Configuration"),
        (lambda: ScaledConfiguration(F(1, 4), [Molecule(R, (0, 0))]),
         "config must be a Configuration, not list"),
        (lambda: limit_energy(3, DensityModel.with_patterns()),
         "part must be a PolygonalPartition, not int"),
        (lambda: limit_energy(_UNIT_PARTITION, 3), "model must be a DensityModel, not int"),
        (lambda: spin_lower_bound([_UNIT_SQUARE], 3), "model must be a DensityModel, not int"),
        (lambda: rs_lower_bound([_UNIT_SQUARE], [], 3), "model must be a DensityModel, not int"),
        (lambda: wulff_shape(3), "polygon must be a GaugePolygon, not int"),
        (lambda: convergence_report([3]), "approxes entry 0 must be a PhasePartitionApprox, not int"),
        # a gauge reads exact rationals: no float, no bool read as 1
        (lambda: phi_closed_form(1).gauge((True, 1)), "invalid gauge argument True"),
        (lambda: phi_closed_form(1).gauge((0.5, 1)), "invalid gauge argument 0.5"),
        (lambda: GaugePolygon(((0.5, 0), (0, 1), (-1, 0), (0, -1))), "invalid vertex 0.5"),
        (lambda: GaugePolygon(((True, 0), (0, 1), (-1, 0), (0, -1))), "invalid vertex True"),
        (lambda: envelope_with_points([phi_closed_form(1)], [((1, 0), 0.5)]), "invalid gauge value 0.5"),
        (lambda: envelope_with_points([phi_closed_form(1)], [((1, 0), True)]),
         "invalid gauge value True"),
        (lambda: envelope_with_points([phi_closed_form(1)], [((1.0, 0), 1)]),
         "invalid point 1.0"),
        # every pair is read by `pair`: no entry past the second is dropped,
        # and a short pair is not indexed past its end
        (lambda: DensityModel().value(1, 2, (1, 0, 3)), "invalid normal \\(1, 0, 3\\): expected a pair"),
        (lambda: oriented(1, 2, (1, 0, 3)), "invalid normal \\(1, 0, 3\\): expected a pair"),
        (lambda: oriented(1, 2, (1,)), "invalid normal \\(1,\\): expected a pair"),
        (lambda: _PHI.gauge((1, 0, 5)), "invalid gauge argument \\(1, 0, 5\\): expected a pair"),
        (lambda: _PHI.gauge((1,)), "invalid gauge argument \\(1,\\): expected a pair"),
        (lambda: envelope_with_points([_PHI], [((1, 0, 7), 1)]),
         "invalid point \\(1, 0, 7\\): expected a pair"),
        (lambda: envelope_with_points([_PHI], [((1,), 1)]), "invalid point \\(1,\\): expected a pair"),
        (lambda: GaugePolygon(((1, 0, 5), (0, 1), (-1, 0), (0, -1))),
         "invalid vertex \\(1, 0, 5\\): expected a pair"),
        (lambda: PolygonalPartition({1: [[(0, 0), (1, 0, 0), (1, 1)]]}),
         "invalid vertex \\(1, 0, 0\\): expected a pair"),
        (lambda: spin_lower_bound([[(0, 0), (1, 0, 0), (1, 1)]], DensityModel()),
         "invalid vertex \\(1, 0, 0\\): expected a pair"),
        (lambda: rs_lower_bound([[(0, 0), (1, 0, 0), (1, 1)]], [], DensityModel()),
         "invalid vertex \\(1, 0, 0\\): expected a pair"),
        (lambda: anchored_admissible(_UNIT_PARTITION, _UNIT_PARTITION, [(0, 0), (1, 0, 0), (1, 1)]),
         "invalid vertex \\(1, 0, 0\\): expected a pair"),
        # every phase label is read by `label`, before any shortcut
        (lambda: DensityModel().value(9, 9, (1, 0)), "phase label 9 out of range 0..8"),
        (lambda: DensityModel().value("a", "a", (1, 0)), "invalid phase label 'a': expected an integer"),
        (lambda: DensityModel().value(1.5, 1.5, (1, 0)), "invalid phase label 1.5: expected an integer"),
        (lambda: oriented(9, 10, (1, 0)), "phase label 9 out of range 0..8"),
        # library coordinates are ints or Fractions, not binary floats read exactly
        (lambda: region_area([(0.1, 0, 1, 1)]), "invalid coordinate 0.1: expected an int or a Fraction"),
        (lambda: symdiff_area([(0.5, 0, 1, 1)], []), "invalid coordinate 0.5: expected an int or a Fraction"),
        (lambda: polygon_area([(0, 0), (1, 0), (True, 1)]), "invalid coordinate True"),
        (lambda: predicate_area([[[(0, 0), (1.5, 0), (1, 1)]]], any), "invalid coordinate 1.5"),
        (lambda: convex_hull([(0, 0), (1, 0), (0, "1")]), "invalid coordinate '1'"),
        (lambda: envelope_with_points([], [((1, 0), 1), ((-1, 0), 1)]),
         "hull needs at least 3 distinct points"),
        (lambda: envelope_with_points([], [((1, 0), 1), ((2, 0), 1), ((3, 0), 1)]),
         "points are collinear"),
        # each export names an argument of the wrong type
        (lambda: solve_interface("x"), "prob must be an InterfaceProblem, not str"),
        (lambda: phase_pattern(1, "x"), "window must be a Window, not str"),
        (lambda: DensityModel().add_records([1]), "record must be a DensityRecord, not int"),
        (lambda: consistency_check(DensityModel(), [1]), "record must be a DensityRecord, not int"),
        (lambda: consistency_check(3, []), "model must be a DensityModel, not int"),
        (lambda: extract_interfaces("x"), "part must be a PolygonalPartition, not str"),
        (lambda: anchored_admissible("x", "y"), "part must be a PolygonalPartition, not str"),
        (lambda: anchored_admissible(_UNIT_PARTITION, "y"), "exterior must be a PolygonalPartition, not str"),
        (lambda: normalized_density("x", "y"), "prob must be an InterfaceProblem, not str"),
        (lambda: normalized_density(_PROBLEM, "y"),
         "result must be a SolveResult or DensityRecord, not str"),
        (lambda: density_record("x", "y"), "prob must be an InterfaceProblem, not str"),
        (lambda: density_record(_PROBLEM, "y"), "result must be a SolveResult, not str"),
        (lambda: mirror("x"), "polygon must be a GaugePolygon, not str"),
        (lambda: min_envelope(["x"]), "gauge must be a GaugePolygon, not str"),
        (lambda: bad_area_bound("x"), "approx must be a PhasePartitionApprox, not str"),
        # the range, size and emptiness checks that no other test reaches
        (lambda: verify_interior_phase(_COVERED, (0, 0), 2), "k must be at least 3"),
        (lambda: lemma_check(4, inner_margin=3), "inner margin must be 2 or 4"),
        (lambda: ScaledConfiguration(0, validate([])), "epsilon must be positive"),
        (lambda: decompose(_SCALED, Window.plane()), "decomposition needs a bounded window"),
        (lambda: GaugePolygon(((1, 0), (0, 1))), "a gauge polygon needs at least 3 vertices"),
        (lambda: min_envelope([]), "need at least one gauge"),
        (lambda: envelope_with_points([_PHI], [((1, 0), 0)]), "gauge values must be positive"),
        (lambda: InterfaceProblem(1, 0, direction(1, 1), 8, energy_kind="area"),
         "energy_kind must be 'surface' or 'volume'"),
        (lambda: PolygonalPartition({1: [[(0, 0), (1, 0), (2, 0)]]}), "A_1: degenerate polygon"),
        (lambda: extract_interfaces(_zero_islands()), "label 0 cannot form islands"),
        (lambda: phase_pattern(1, Window.plane()), "a plane-filling pattern is infinite"),
        (lambda: Window.plane().bounds(), "the whole plane has no bounds"),
        (lambda: Window.plane().cell_range(), "the whole plane has no bounds"),
        # points that are no pair, which the polygon code once paired by
        # position: these answered 1/2, a wrong triangle, 13/6 and 1
        (lambda: polygon_area([(0, 0, 1), (1, 0), (1, 1)]), "invalid point: expected a pair"),
        (lambda: convex_hull([(0, 0, 0), (1, 0), (0, 1), (1, 1)]), "invalid point: expected a pair"),
        (lambda: predicate_area([[[(0, 0), (2, 0), (2, 2, 1), (0, 2)]]], lambda t: t[0]),
         "invalid point: expected a pair"),
        (lambda: region_area([(0, 0, 1, 1, 9)]), "invalid point: expected a pair"),
        # containers of the wrong kind
        (lambda: PolygonalPartition([1]), "regions must be a Mapping, not list"),
        (lambda: PolygonalPartition({1: [5]}), "polygon must be an Iterable, not int"),
        (lambda: PolygonalPartition({1: 5}), "A_1 must be an Iterable, not int"),
        (lambda: GaugePolygon(5), "vertices must be an Iterable, not int"),
        (lambda: spin_lower_bound(5, DensityModel()), "polys must be an Iterable, not int"),
        (lambda: rs_lower_bound([], 5, DensityModel()), "e_s must be an Iterable, not int"),
        (lambda: lemma_check(4, 5), "shapes must be an Iterable, not int"),
    ],
)
def test_argument_checks_raise_invalid_input(call, message):
    with pytest.raises(InvalidInput, match=message):
        call()


def test_exact_weights_are_accepted():
    # ints, Fractions and rational strings give the same exact weights
    single = validate([Molecule(R, (0, 0))])
    for c_R in (1, F(1), "1", "2/2"):
        prob = InterfaceProblem(1, 0, direction(1, 1), 12, (c_R, "1/4"))
        assert prob.weights == (F(1), F(1, 4))
        assert weighted_perimeter(single, c_R, F(1, 4)) == 10


@pytest.mark.parametrize(
    "decode, text, message",
    [
        (configuration_from_json, '[{"shape": "R", "anchor": [1.5, 0]}]',
         "configuration entry 0: invalid anchor 1.5: expected an integer or a rational string"),
        (configuration_from_json, '[{"shape": "Q", "anchor": [0, 0]}]', "unknown shape 'Q'"),
        (configuration_from_json, '[{"shape": "R"}]', "configuration entry 0: KeyError"),
        (configuration_from_json, '{"shape": "R"}', "expected a JSON list"),
        (configuration_from_json, "[", "JSONDecodeError"),
        (shapes_from_json, '[{"name": "X", "cells": [[0, 0]], "chirality_class": "R-like"}]',
         "shape file entry 0: shape 'X' needs 4 distinct cells"),
        (shapes_from_json, json.dumps(2 * [{"name": "X", "cells": [[0, 0], [0, 1], [0, 2], [1, 2]],
                                            "chirality_class": "R-like"}]),
         "shape file entry 1: duplicate shape name 'X'"),
        (lambda t: PolygonalPartition.from_jsonable(json.loads(t)), '{"regions": {"1": [[0, 0]]}}',
         "region 1 entry 0: invalid vertex 0: expected a pair"),
        (lambda t: PolygonalPartition.from_jsonable(json.loads(t)),
         '{"regions": {"1": [[[0, 0], [1, 0], [1, 0], [0, 1]]]}}', "zero-length edge"),
        (lambda t: regions_from_jsonable(json.loads(t)), '{"1": [[0, 0, 1]]}',
         "region 1 entry 0: TypeError"),
        (lambda t: regions_from_jsonable(json.loads(t)), '[]', "regions: expected a JSON object, not list"),
        (lambda t: regions_from_jsonable(json.loads(t)), '{"1": [[0, 0, 0, 1]]}',
         "degenerate rectangle"),
        (lambda t: regions_from_jsonable(json.loads(t)), '{"9": [[0, 0, 1, 1]]}',
         "region label: label 9 out of range 0..8"),
        (lambda t: regions_from_jsonable(json.loads(t)), '{"-1": [[0, 0, 1, 1]]}',
         "region label: label -1 out of range 0..8"),
        (lambda t: regions_from_jsonable(json.loads(t)), '{"1": [[0.1, 0, 1, 1]]}',
         "region 1 entry 0: invalid coordinate 0.1: expected an integer or a rational string"),
        (lambda t: regions_from_jsonable(json.loads(t)), '{"1": [[0, 0, "1/0", 1]]}',
         "region 1 entry 0: invalid coordinate '1/0'"),
        (lambda t: PolygonalPartition.from_jsonable(json.loads(t)),
         '{"regions": {"1": [[[false, 0], [true, 0], [1, 1], [0, 1]]]}}',
         "region 1 entry 0: invalid vertex False"),
        (lambda t: PolygonalPartition.from_jsonable(json.loads(t)),
         '{"window": [[0, 0], [1.5, 0], [1, 1]], "regions": {}}', "window: invalid vertex 1.5"),
        # "1" and "01" are one label: the second must not replace the first
        (lambda t: PolygonalPartition.from_jsonable(json.loads(t)),
         '{"regions": {"1": [[[0, 0], [2, 0], [2, 2], [0, 2]]], "01": [[[5, 5], [6, 5], [6, 6], [5, 6]]]}}',
         "region label 1 is repeated \\(key '01'\\)"),
        (lambda t: regions_from_jsonable(json.loads(t)), '{"1": [[0, 0, 2, 2]], "01": [[5, 5, 6, 6]]}',
         "region label 1 is repeated \\(key '01'\\)"),
        # a label key is ASCII digits: none of these is label 1
        *((decode, f'{{"{key}": []}}', re.escape(f"region label: label '{key}' is not a string of ASCII digits"))
          for decode in (lambda t: regions_from_jsonable(json.loads(t)),
                         lambda t: PolygonalPartition.from_jsonable({"regions": json.loads(t)}))
          for key in ("0_1", " 1", "+1", "\u0661", "1.0", "")),
        (lambda t: PolygonalPartition.from_jsonable(json.loads(t)), '{"regions": {"9": []}}',
         "region label: label 9 out of range 0..8"),
        (lambda t: PolygonalPartition.from_jsonable(json.loads(t)), '{"regions": {"-1": []}}',
         "region label: label -1 out of range 0..8"),
        # density rows: each field valid alone, the row not
        (DensityRecord.from_csv_row, "1,0,0,1,8,surface,1,1,1,-5,exact,3",
         "density row '1,0,0,1,8,surface,1,1,1,-5,exact,3': phi_hat -5 is not"),
        (DensityRecord.from_csv_row, "1,0,0,1,8,surface,1,1,40,7,exact,3",
         "phi_hat 7 is not max\\(\\|p\\|, \\|q\\|\\) \\* value / T = 5"),
        (DensityRecord.from_csv_row, "9,0,0,1,8,surface,1,1,40,5,exact,3",
         "phase label 9 out of range 0..8"),
        (DensityRecord.from_csv_row, "1,0,2,2,8,surface,1,1,40,10,exact,3",
         "direction components must be coprime"),
        (DensityRecord.from_csv_row, "1,0,0,1,8,surface,1,1,40,5,proven,3",
         "certificate must be 'exact' or 'upper_bound', not 'proven'"),
        (DensityRecord.from_csv_row, "1,0,0,1,8,surface,1,1,-8,-1,exact,3",
         "value and nodes must be nonnegative"),
    ],
)
def test_decoders_name_the_bad_entry(decode, text, message):
    with pytest.raises(InvalidInput, match=message):
        decode(text)


def test_geometry_files_keep_rational_coordinates():
    regions = regions_from_jsonable({"0": [["-1/3", 0, "2/7", "1"]]})
    assert regions == {0: [(F(-1, 3), F(0), F(2, 7), F(1))]}
    part = PolygonalPartition.from_jsonable(
        {"window": None, "regions": {"1": [[["1/3", 0], [1, "0"], [1, "5/7"]]]}}
    )
    assert part.regions[1] == [((F(1, 3), F(0)), (F(1), F(0)), (F(1), F(5, 7)))]


@pytest.mark.parametrize(
    "text",
    ["0", "007", "-3", "-0", "3/4", " 3", "3 ", "+3", "1_000", "\u0663", "2.5", "1e3",
     "", "-", "--3", "3/0", "a", "1" * 5000,
     "-5/64", "10/4", "0/7", "-0/3", "3/-4", "3/ 4", "+3/4", "\u0663/4",
     "-3/0", "3/", "/4", "3/4/5", "3/" + "1" * 5000],
    ids=lambda text: ascii(text)[:12],
)
def test_json_rational_reads_strings_as_fraction_does(text):
    """Plain digit strings n and n/d take the `int` path; every string
    reads as `Fraction` reads it, or raises InvalidInput carrying its
    message."""
    try:
        want = F(text)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(InvalidInput) as got:
            json_rational("coordinate", text)
        assert str(got.value) == f"invalid coordinate {text!r}: {exc}"
    else:
        got = json_rational("coordinate", text)
        assert type(got) is F and got == want


def test_configuration_entries_keep_rational_anchors():
    entries = configuration_entries([{"shape": "S", "anchor": ["1/2", 3]}])
    assert entries[0][0].name == "S" and entries[0][1] == (F(1, 2), F(3))


SQUARE = "[[0, 0], [2, 0], [2, 2], [0, 2]]"
UNIT = "[[5, 5], [6, 5], [6, 6], [5, 6]]"


@pytest.mark.parametrize(
    "kind, text, argv",
    [
        ("preset", '{"budget": 10, "budget": 20}', ["--preset", "FILE", "energy", "CFG"]),
        ("configuration", '[{"shape": "R", "shape": "S", "anchor": [0, 0]}]', ["energy", "FILE"]),
        ("shapes", '[{"name": "X", "name": "Y", "cells": [[0, 0], [0, 1], [0, 2], [1, 2]], '
                   '"chirality_class": "R-like"}]', ["energy", "CFG", "--shapes", "FILE"]),
        ("decompose configuration", '[{"shape": "R", "anchor": [0, 0], "anchor": [4, 0]}]',
         ["decompose", "FILE", "--epsilon", "1", "--window", "4"]),
        ("decompose target", '{"1": [[0, 0, 2, 2]], "1": [[5, 5, 6, 6]]}',
         ["decompose", "CFG", "--epsilon", "1", "--window", "4", "--target", "FILE"]),
        ("partition", f'{{"regions": {{"1": [{SQUARE}], "1": [{UNIT}]}}}}', ["limit", "FILE"]),
    ],
)
def test_repeated_json_keys_exit_2(tmp_path, capsys, kind, text, argv):
    """json.loads keeps the last of two equal keys; every file the command
    line reads rejects them instead, naming the key."""
    cfg, path = tmp_path / "cfg.json", tmp_path / "file.json"
    cfg.write_text('[{"shape": "R", "anchor": [0, 0]}]')
    path.write_text(text)
    argv = [{"CFG": str(cfg), "FILE": str(path)}.get(a, a) for a in argv]
    assert main(argv) == 2, kind
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ") and "repeated JSON key" in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_partition_label_keys_are_ascii_digits_on_the_command_line(tmp_path, capsys):
    """`limit` on a partition keyed "0_1", which `int` reads as label 1, exits 2."""
    path = tmp_path / "partition.json"
    path.write_text(f'{{"window": {SQUARE}, "regions": {{"0_1": [{SQUARE}]}}}}')
    assert main(["limit", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: region label: label '0_1' is not a string of ASCII digits\n"
