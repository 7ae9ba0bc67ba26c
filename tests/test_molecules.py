"""Lattice core: molecules, configurations, energies, patterns, files."""

import random
from fractions import Fraction as F

import pytest

from chiralattice.altpairs import FLAT_PAIR, SKEW_PAIR
from chiralattice.molecules import (
    InvalidInput,
    Molecule,
    MoleculeShape,
    OverlapError,
    R,
    S,
    UnlabeledShape,
    Window,
    configuration_from_json,
    configuration_to_json,
    perimeter,
    phase_label,
    phase_pattern,
    shapes_from_json,
    shapes_to_json,
    validate,
    volume_deficit,
    weighted_perimeter,
)
from conftest import perimeter_oracle, random_configuration


def test_builtin_cells():
    assert set(Molecule(R, (0, 0)).cells()) == {(0, 0), (0, 1), (0, 2), (1, 2)}
    assert set(Molecule(S, (0, 0)).cells()) == {(-1, 0), (-1, 1), (-1, 2), (-2, 2)}
    assert set(Molecule(R, (3, -1)).cells()) == {(3, -1), (3, 0), (3, 1), (4, 1)}


def test_shape_validation():
    with pytest.raises(ValueError):
        MoleculeShape("bad", ((0, 0), (0, 1), (0, 2), (0, 2)), "R-like")
    with pytest.raises(ValueError):
        MoleculeShape("bad", ((0, 0), (0, 1), (2, 2), (2, 3)), "R-like")
    with pytest.raises(ValueError):
        MoleculeShape("bad", ((0, 0), (0, 1), (0, 2), (1, 2)), "L-like")


@pytest.mark.parametrize(
    "cells",
    [
        ((0, 0), (0, 0), (0, 1), (0, 2), (1, 2)),  # five cells, four of them distinct
        ((0, 0), (0, 1), (0, 2)),  # three cells
        [(0, 0), (0, 1), (0, 2), (1, 2)],  # a list
        [[0, 0], [0, 1], [0, 2], [1, 2]],  # a list of lists
        ((0, 0), (0, 1), (0, 2), [1, 2]),  # a cell that is a list
        ((0, 0), (0, 1), (0, 2), (1, 2, 0)),  # a cell of three coordinates
        ((0, 0), (0, 1), (0, 2), (True, 2)),  # a bool coordinate
        ((0, 0), (0, 1), (0, 2), (1.0, 2)),  # a float coordinate
    ],
    ids=["five", "three", "list", "lists", "list-cell", "triple", "bool", "float"],
)
def test_shape_cells_are_four_distinct_int_pairs(cells):
    # a shape is a tuple of exactly four distinct pairs of ints, read by
    # `json_int`, so each molecule has four distinct cells
    with pytest.raises(InvalidInput):
        MoleculeShape("bad", cells, "R-like")


def test_molecule_eq_hash_and_repr():
    # slotted: a molecule compares, hashes and prints by shape and anchor
    a, b = Molecule(R, (1, 2)), Molecule(R, (1, 2))
    assert a == b and hash(a) == hash(b) and a != Molecule(S, (1, 2))
    assert repr(a) == (
        "Molecule(shape=MoleculeShape(name='R', cells=((0, 0), (0, 1), (0, 2), (1, 2)), "
        "chirality_class='R-like'), anchor=(1, 2))"
    )


def ref_validate(molecules):
    """The per-cell walk that `validate` replaced: (molecules, occupancy),
    raising OverlapError at the first cell claimed twice."""
    mols = tuple(molecules)
    occupancy = {}
    for i, m in enumerate(mols):
        for cell in m.cells():
            j = occupancy.get(cell)
            if j is not None:
                raise OverlapError(cell, j, i)
            occupancy[cell] = i
    return mols, occupancy


def _overlap(build, mols):
    """(cell, index_a, index_b) of the OverlapError that build raises."""
    with pytest.raises(OverlapError) as err:
        build(mols)
    return err.value.cell, err.value.index_a, err.value.index_b


def _agree(mols) -> bool:
    """validate and ref_validate agree on mols: both raise OverlapError at
    the same cell with the same two indices, or validate keeps the same
    molecules, builds no occupancy until it is read, and then reads the
    walk's, item by item.  True when mols are disjoint."""
    try:
        ref_mols, ref_occupancy = ref_validate(mols)
    except OverlapError as err:
        assert _overlap(validate, mols) == (err.cell, err.index_a, err.index_b)
        return False
    got = validate(mols)
    assert got.molecules == ref_mols and got._occupancy is None
    assert list(got.occupancy.items()) == list(ref_occupancy.items())
    return True


def _split_lines(config) -> set[tuple[int, int]]:
    """(axis, k) for each line k on which the `own` ranges of two of the
    configuration's boards meet."""
    owns = [board[5] for board in config._boards]
    lines = set()
    for axis in (0, 1):
        ends = {end for own in owns for end in own[axis]}
        lines |= {(axis, k) for k in ends - {min(ends), max(ends)}}
    return lines


def test_validate_matches_the_per_cell_walk():
    # on seeded random molecule lists, of R and S, of the alternative pairs
    # and a user shape, and of two clusters 10^5 apart whose box is split
    # across boards, the board-checked verdict, its OverlapError and the
    # occupancy built on first read equal the per-cell walk's; so do lists
    # with a repeated molecule, a clash with the first or at the last, and
    # a clash on the line where two boards meet
    rng = random.Random(13)
    tee = MoleculeShape("T", ((0, 0), (1, 0), (2, 0), (1, 1)), "S-like")
    mixes = [(R, S), (*FLAT_PAIR, *SKEW_PAIR, tee)]

    def clash(m, shapes):
        """A molecule sharing a cell with m."""
        shape = rng.choice(shapes)
        (a, b), (c, r) = rng.choice(m.cells()), rng.choice(shape.cells)
        return Molecule(shape, (a - c, b - r))

    raised = split = 0
    for n in range(400):
        shapes = mixes[n % 2]
        mols = list(random_configuration(rng, 30, shapes).molecules)
        if n % 4 >= 2:  # a second cluster 10^5 away on one axis or both
            dx, dy = rng.choice(((100_000, 0), (0, 100_000), (100_000, 100_000)))
            far = random_configuration(rng, 30, shapes).molecules
            mols += [Molecule(m.shape, (m.anchor[0] + dx, m.anchor[1] + dy)) for m in far]
        rng.shuffle(mols)
        assert _agree(mols)
        if not mols:
            continue
        k = rng.randrange(len(mols))
        at = rng.randrange(len(mols) + 1)
        bads = [
            [*mols[:at], mols[k], *mols[at:]],  # a repeated molecule
            [mols[0], *mols[1:at], clash(mols[0], shapes), *mols[at:]],  # a clash with the first
            [*mols, clash(rng.choice(mols), shapes)],  # a clash at the last
        ]
        lines = _split_lines(validate(mols))
        if lines:
            # an R across the line where two boards meet, amid the
            # configuration's box, with a clash or a copy of it
            axis, k = rng.choice(sorted(lines))
            mid = (min(m.anchor[1 - axis] for m in mols) + max(m.anchor[1 - axis] for m in mols)) // 2
            across = Molecule(R, (k - 1, mid) if axis == 0 else (mid, k - 1))
            if _agree([*mols, across]):
                assert (axis, k) in _split_lines(validate([*mols, across]))
                split += 1
                bads += [[*mols[:at], across, *mols[at:], bad] for bad in (across, clash(across, shapes))]
        for bad in bads:
            assert not _agree(bad)
            raised += 1
    assert raised > 1000 and split > 100


def test_validate_interlocking_pair():
    cfg = validate([Molecule(R, (0, 0)), Molecule(R, (1, -1))])
    assert len(cfg) == 2


def test_validate_overlap_error_details():
    with pytest.raises(OverlapError) as err:
        validate([Molecule(R, (0, 0)), Molecule(R, (0, 0))])
    assert err.value.cell == (0, 0)
    assert (err.value.index_a, err.value.index_b) == (0, 1)


def test_validate_empty():
    assert len(validate([])) == 0


def test_perimeter_examples():
    assert perimeter(validate([Molecule(R, (0, 0))])) == 10
    assert perimeter(validate([])) == 0
    assert perimeter(validate([Molecule(R, (0, 0)), Molecule(R, (1, -1))])) == 14


def test_perimeter_window_clipping():
    cfg = validate([Molecule(R, (0, 0))])
    # window boundary through the molecule: edges on the boundary drop out
    assert perimeter(cfg, Window.square(2, (1, 1))) == 2
    # off-grid window: only the left edge of the bottom cell survives the
    # clip (x = 0 inside, y clipped to (0, 1)); edges on y = 0 drop out
    assert perimeter(cfg, Window.square(1, (0, F(1, 2)))) == 1
    # quarter-unit window catches fractional pieces of two edges
    assert perimeter(cfg, Window.square(F(1, 2), (0, 0))) == F(1, 2)
    # window far away
    assert perimeter(cfg, Window.square(2, (40, 0))) == 0


def test_perimeter_matches_oracle_on_random_configs():
    rng = random.Random(4217)
    for _ in range(200):
        cfg = random_configuration(rng)
        assert perimeter(cfg) == perimeter_oracle(cfg)


def test_perimeter_translation_invariance():
    rng = random.Random(99)
    for _ in range(20):
        cfg = random_configuration(rng, max_molecules=12)
        v = (rng.randint(-5, 5), rng.randint(-5, 5))
        moved = validate(
            [Molecule(m.shape, (m.anchor[0] + v[0], m.anchor[1] + v[1])) for m in cfg]
        )
        w = Window.square(9, (F(1, 3), F(-2, 7)))
        wv = Window.square(9, (F(1, 3) + v[0], F(-2, 7) + v[1]))
        assert perimeter(cfg, w) == perimeter(moved, wv)


def test_phase_labels():
    assert phase_label(Molecule(R, (0, 0))) == 4
    assert phase_label(Molecule(S, (0, 1))) == 5
    assert phase_label(Molecule(R, (1, -1))) == 4
    with pytest.raises(UnlabeledShape):
        phase_label(Molecule(MoleculeShape("X", ((0, 0), (1, 0), (2, 0), (2, 1)), "R-like"), (0, 0)))


def test_phase_label_translation_invariances():
    rng = random.Random(7)
    for _ in range(50):
        n = (rng.randint(-30, 30), rng.randint(-30, 30))
        r = Molecule(R, n)
        assert phase_label(r) == phase_label(Molecule(R, (n[0] + 1, n[1] - 1)))
        assert phase_label(r) == phase_label(Molecule(R, (n[0], n[1] + 4)))
        s = Molecule(S, n)
        assert phase_label(s) == phase_label(Molecule(S, (n[0] + 1, n[1] + 1)))
        assert phase_label(s) == phase_label(Molecule(S, (n[0], n[1] + 4)))


@pytest.mark.parametrize("i", range(1, 9))
def test_phase_pattern_properties(i):
    pat = phase_pattern(i, Window.square(20))
    assert {phase_label(m) for m in pat} == {i}
    assert perimeter(pat, Window.square(14)) == 0
    assert volume_deficit(pat, Window.square(14)) == 0


def test_phase_pattern_tiny_window():
    pat = phase_pattern(3, Window.square(F(1, 2)))
    assert perimeter(pat, Window.square(F(1, 2))) == 0


def test_weighted_perimeter():
    r = validate([Molecule(R, (0, 0))])
    s = validate([Molecule(S, (0, 0))])
    assert weighted_perimeter(r, 2, 1) == 20
    assert weighted_perimeter(s, 2, 1) == 10
    rng = random.Random(11)
    for _ in range(25):
        cfg = random_configuration(rng, max_molecules=15)
        assert weighted_perimeter(cfg, 1, 1) == perimeter(cfg)


def test_volume_deficit():
    assert volume_deficit(validate([]), Window.square(4)) == 16
    assert volume_deficit(validate([Molecule(R, (0, 0))]), Window.square(100)) == 9996
    with pytest.raises(ValueError):
        volume_deficit(validate([]), Window.plane())


def test_shape_json_roundtrip():
    text = shapes_to_json([R, S])
    table = shapes_from_json(text)
    assert table["R"] is not R  # a reconstruction, not the same object
    assert table["R"].cells == R.cells
    assert shapes_to_json(table.values()) == text


def test_configuration_json_roundtrip():
    cfg = validate([Molecule(R, (0, 0)), Molecule(S, (5, 3))])
    text = configuration_to_json(cfg)
    back = configuration_from_json(text)
    assert back == cfg
    assert configuration_to_json(back) == text
