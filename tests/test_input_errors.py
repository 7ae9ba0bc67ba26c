"""Library input errors: one InvalidInput type, raised by checks and decoders."""

import json
from fractions import Fraction as F

import pytest

from chiralattice import (
    InconsistentScale,
    InfeasibleBoundary,
    InterfaceProblem,
    InvalidInput,
    InvalidPartition,
    OverlapError,
    PolygonalPartition,
    UnlabeledShape,
    cluster_min_perimeter,
    configuration_from_json,
    direction,
    lemma_check,
    shapes_from_json,
    solve_interface,
)
from chiralattice.interfaces import DensityRecord
from chiralattice.molecules import configuration_entries
from chiralattice.rectregions import regions_from_jsonable


@pytest.mark.parametrize(
    "error",
    [OverlapError, UnlabeledShape, InconsistentScale, InfeasibleBoundary,
     InvalidPartition],
)
def test_input_errors_are_invalid_input(error):
    assert issubclass(error, InvalidInput) and issubclass(InvalidInput, ValueError)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: solve_interface(InterfaceProblem(1, 0, direction(1, 1), 8), budget=0),
         "budget must be at least 1"),
        (lambda: lemma_check(4, cap=0), "cap must be at least 1"),
        (lambda: lemma_check(4, []), "at least one shape"),
        (lambda: cluster_min_perimeter(1, 0, cap=0), "cap must be at least 1"),
        (lambda: InterfaceProblem(1, 1, direction(1, 0), 8), "distinct phases"),
    ],
)
def test_argument_checks_raise_invalid_input(call, message):
    with pytest.raises(InvalidInput, match=message):
        call()


@pytest.mark.parametrize(
    "decode, text, message",
    [
        (configuration_from_json, '[{"shape": "R", "anchor": [1.5, 0]}]',
         "configuration entry 0: invalid anchor coordinate 1.5: expected an integer or a rational string"),
        (configuration_from_json, '[{"shape": "Q", "anchor": [0, 0]}]', "unknown shape 'Q'"),
        (configuration_from_json, '[{"shape": "R"}]', "configuration entry 0: KeyError"),
        (configuration_from_json, '{"shape": "R"}', "expected a JSON list"),
        (configuration_from_json, "[", "JSONDecodeError"),
        (shapes_from_json, '[{"name": "X", "cells": [[0, 0]], "chirality_class": "R-like"}]',
         "shape file entry 0: shape 'X' needs 4 distinct cells"),
        (lambda t: PolygonalPartition.from_jsonable(json.loads(t)), '{"regions": {"1": [[0, 0]]}}',
         "region 1 entry 0: TypeError"),
        (lambda t: PolygonalPartition.from_jsonable(json.loads(t)),
         '{"regions": {"1": [[[0, 0], [1, 0], [1, 0], [0, 1]]]}}', "zero-length edge"),
        (lambda t: regions_from_jsonable(json.loads(t)), '{"1": [[0, 0, 1]]}',
         "region 1 entry 0: TypeError"),
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
         "region 1 entry 0: invalid coordinate False"),
        (lambda t: PolygonalPartition.from_jsonable(json.loads(t)),
         '{"window": [[0, 0], [1.5, 0], [1, 1]], "regions": {}}', "window: invalid coordinate 1.5"),
        # "1" and "01" are one label: the second must not replace the first
        (lambda t: PolygonalPartition.from_jsonable(json.loads(t)),
         '{"regions": {"1": [[[0, 0], [2, 0], [2, 2], [0, 2]]], "01": [[[5, 5], [6, 5], [6, 6], [5, 6]]]}}',
         "region label 1 is repeated \\(key '01'\\)"),
        (lambda t: regions_from_jsonable(json.loads(t)), '{"1": [[0, 0, 2, 2]], "01": [[5, 5, 6, 6]]}',
         "region label 1 is repeated \\(key '01'\\)"),
        # density rows: each field valid alone, the row not
        (DensityRecord.from_csv_row, "1,0,0,1,8,surface,1,1,1,-5,exact,3",
         "density row '1,0,0,1,8,surface,1,1,1,-5,exact,3': phi_hat -5 is not"),
        (DensityRecord.from_csv_row, "1,0,0,1,8,surface,1,1,40,7,exact,3",
         "phi_hat 7 is not max\\(\\|p\\|, \\|q\\|\\) \\* value / T = 5"),
        (DensityRecord.from_csv_row, "9,0,0,1,8,surface,1,1,40,5,exact,3",
         "phase labels must be in 0..8"),
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


def test_configuration_entries_keep_rational_anchors():
    entries = configuration_entries([{"shape": "S", "anchor": ["1/2", 3]}])
    assert entries[0][0].name == "S" and entries[0][1] == (F(1, 2), F(3))
