"""The shared placement kernel, and the search trees built on it.

The pinned values were recorded with the earlier per-search
implementations (set- and Fraction-based); equal node counts show that
the bitboard searches walk the same trees.  The lemma trees at k=7..9 and
the (3,2) cluster witness were recorded with the unmemoised covering DFS
and the frozenset-keyed cluster search.  The interface trees were recorded
in the row-major scan order that the seam-corner column sweep replaced:
they are walked by the det-only reference search of `test_line_bound`,
which the line-transition bound of `solve_interface` replaced, and by the
solver itself with the row-major order patched in.  The solver's own
trees, in its own order, are pinned separately.
"""

from fractions import Fraction as F

import pytest

from chiralattice.altpairs import FLAT_PAIR, SKEW_PAIR
from chiralattice.coverings import lemma_check
from chiralattice import interfaces
from chiralattice.interfaces import (
    InterfaceProblem,
    cluster_min_perimeter,
    direction,
    frame_forced,
    solve_interface,
)
from chiralattice.molecules import R_LIKE, Molecule, MoleculeShape, R, S
from chiralattice.placements import PlacementTable
from test_line_bound import (
    TABLE_DIRECTIONS, _table_rows, inside_inner, ref_solve, row_major_order,
)


def _neighbors(cell):
    a, b = cell
    return ((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1))


def test_table_numbers_order_cells_first():
    order = [(0, 0), (0, 1), (1, 0), (1, 1)]
    table = PlacementTable(order, (R, S))
    assert table.n == 4
    assert [table.mask([c]) for c in order] == [1, 2, 4, 8]
    assert table.mask([(99, 99)]) == 0  # a cell without a bit
    for i, cell in enumerate(order):
        assert table.by_pos[i], cell
        for p in table.by_pos[i]:
            assert cell in p.molecule.cells()
            assert p.mask >> i & 1
        assert table.neighbors[i] == table.mask(_neighbors(cell))
    # placements are numbered by first order cell, then shape, then offset
    assert [p.index for p in table.placements] == list(range(len(table.placements)))
    assert table.placements[0].molecule == Molecule(R, (0, 0))


def test_within_filters_placements():
    order = [(c, r) for c in range(3) for r in range(3)]
    table = PlacementTable(order, (R, S), set(order))
    assert {p.molecule for p in table.placements} == {
        Molecule(R, (0, 0)), Molecule(R, (1, 0)), Molecule(S, (2, 0)), Molecule(S, (3, 0))
    }


def test_contacts_count_boundary_edges():
    order = [(c, r) for c in range(-3, 4) for r in range(-3, 4)]
    table = PlacementTable(order, (R, S))
    occupied = {(0, 0), (1, 1), (2, 2), (-1, 2), (0, 3), (-2, -1), (1, 3)}
    bits = table.mask(occupied)
    for p in table.placements:
        cells = set(p.molecule.cells())
        expected = sum(
            nb in occupied for c in cells for nb in _neighbors(c) if nb not in cells
        )
        assert p.contacts(bits) == expected, p.molecule
        assert p.contacts(table.all_bits & ~p.mask) == 10  # all boundary edges


def ref_masks(order, molecules):
    """Each placement's (mask, touch1, touch2), then the neighbour masks.

    The per-placement reference: the rim is counted afresh in a dict for
    every molecule, and cells get bits in the order the table meets them.
    """
    bit = {cell: i for i, cell in enumerate(order)}

    def number(cells):
        bits = 0
        for cell in cells:
            bits |= 1 << bit.setdefault(cell, len(bit))
        return bits

    masks = []
    for mol in molecules:
        cells = mol.cells()
        touches = {}
        for cell in cells:
            for nb in _neighbors(cell):
                if nb not in cells:
                    touches[nb] = touches.get(nb, 0) + 1
        masks.append((
            number(cells),
            number(c for c, k in touches.items() if k == 1),
            number(c for c, k in touches.items() if k == 2),
        ))
    return masks, [number(_neighbors(cell)) for cell in order]


# a user shape with a two-edge rim cell on either side of its stem
USER_T = MoleculeShape("T", ((0, 0), (1, 0), (2, 0), (1, 1)), R_LIKE)


@pytest.mark.parametrize(
    "shapes", [(R, S), FLAT_PAIR, SKEW_PAIR, (USER_T, S)], ids=["RS", "flat", "skew", "user"]
)
def test_placement_masks_match_per_placement_rims(shapes):
    square = [(c, r) for c in range(5, -6, -1) for r in range(-5, 6)]
    inner = set(square[20:90])
    for within in (None, inner):
        table = PlacementTable(square, shapes, within)
        masks, neighbors = ref_masks(square, [p.molecule for p in table.placements])
        assert [(p.mask, p.touch1, p.touch2) for p in table.placements] == masks
        assert table.neighbors == neighbors
        assert any(p.touch2 for p in table.placements)


def ref_table(order, shapes, keep):
    """The table as built with a `keep` callback on molecules.

    Every translate of a shape covering an order cell is a candidate, each
    order cell starting candidates, and `keep` filters the candidates after
    they are built.  Returns the placements as (molecule, mask, touch1,
    touch2), by_pos as lists of placement indices, and the neighbour masks.
    """
    shapes = tuple(dict.fromkeys(shapes))
    molecules, seen = [], set()
    for cell in order:
        for k, shape in enumerate(shapes):
            for off in shape.cells:
                anchor = (cell[0] - off[0], cell[1] - off[1])
                if (k, anchor) not in seen:
                    seen.add((k, anchor))
                    mol = Molecule(shape, anchor)
                    if keep(mol):
                        molecules.append(mol)
    masks, neighbors = ref_masks(order, molecules)
    by_pos = [
        [index for index, (mask, _, _) in enumerate(masks) if mask >> i & 1]
        for i in range(len(order))
    ]
    return [(m, *ms) for m, ms in zip(molecules, masks)], by_pos, neighbors


def _solver_problems():
    yield from _table_rows()
    for T in (9, 13):
        for i, j, nu in TABLE_DIRECTIONS:
            yield InterfaceProblem(i, j, direction(*nu), T)
            yield InterfaceProblem(j, i, -direction(*nu), T)


def test_solver_tables_match_the_keep_callback(monkeypatch):
    # the solver's table over its free zone holds the placements that the
    # callback on the inner square and the forced cells kept, in order
    built = []

    def recording_table(order, shapes, within):
        built.append((order, shapes, PlacementTable(order, shapes, within)))
        return built[-1][2]

    monkeypatch.setattr(interfaces, "PlacementTable", recording_table)
    for prob in _solver_problems():
        solve_interface(prob, budget=1)
        order, shapes, table = built.pop()
        taken = frame_forced(prob).occupancy
        placements, by_pos, neighbors = ref_table(
            order, shapes,
            lambda m: all(inside_inner(c, prob.T) and c not in taken for c in m.cells()),
        )
        got = [(p.molecule, p.mask, p.touch1, p.touch2) for p in table.placements]
        assert got == placements, prob
        assert [[p.index for p in ps] for ps in table.by_pos] == by_pos, prob
        assert table.neighbors == neighbors, prob


def _placements_meeting_square(k, shapes):
    """Count (shape, anchor) pairs with a cell in Q_2k, by brute force."""
    count = 0
    for shape in shapes:
        for x in range(-k - 4, k + 4):
            for y in range(-k - 4, k + 4):
                cells = Molecule(shape, (x, y)).cells()
                count += any(-k <= a < k and -k <= b < k for a, b in cells)
    return count


@pytest.mark.parametrize("k,expected", [(4, 176), (5, 260)])
def test_lemma_reports_placement_count(k, expected):
    assert _placements_meeting_square(k, (R, S)) == expected
    rep = lemma_check(k)
    assert rep.search_space.placements == expected
    assert rep.to_jsonable()["search_space"]["placements"] == expected
    flat = lemma_check(k, FLAT_PAIR)
    assert flat.search_space.placements == _placements_meeting_square(k, FLAT_PAIR)


# -------------------------------------------------------------------
# Pinned search trees
# -------------------------------------------------------------------

SOLVES_T16 = [
    # (i, j, nu, weights, kind) -> (value, certificate, nodes_explored)
    ((1, 0, (1, 1), (1, 1), "surface"), (28, "exact", 2171)),
    ((1, 0, (0, 1), (1, 1), "surface"), (31, "exact", 7442)),
    ((1, 0, (1, 0), (1, 1), "surface"), (23, "exact", 6479)),
    ((1, 0, (3, -1), (1, 1), "surface"), (21, "exact", 4366)),
    ((1, 5, (1, 1), (1, 1), "surface"), (46, "exact", 9081)),
    ((1, 7, (1, -1), (1, 1), "surface"), (30, "exact", 5259)),
    ((1, 2, (1, 1), (1, 1), "surface"), (56, "exact", 39821)),
    ((5, 6, (0, 1), (1, 1), "surface"), (44, "exact", 41762)),
    ((1, 0, (-1, 1), (1, F(1, 4)), "surface"), (F(105, 4), "exact", 13978)),
    ((1, 0, (1, 1), (1, 1), "volume"), (119, "exact", 18721)),
]


@pytest.mark.parametrize("spec,expected", SOLVES_T16)
def test_solver_tree_pinned_t16(spec, expected):
    i, j, nu, weights, kind = spec
    prob = InterfaceProblem(i, j, direction(*nu), 16, weights, kind)
    value, certificate, _, nodes = ref_solve(prob, row_major_order)
    assert (value, certificate, nodes) == expected


# nodes_explored of solve_interface on the surface rows of SOLVES_T16, in
# the row-major scan order
LINE_BOUND_NODES_T16 = [0, 280, 248, 0, 3123, 2476, 10744, 5640, 4175]


@pytest.mark.parametrize(
    "spec,expected,nodes",
    [(s, e, n) for (s, e), n in zip(SOLVES_T16, LINE_BOUND_NODES_T16)],
)
def test_line_bound_tree_pinned_t16(spec, expected, nodes, monkeypatch):
    monkeypatch.setattr(interfaces, "_scan_order", row_major_order)
    test_solver_nodes_pinned_t16(spec, expected, nodes)


# nodes_explored of solve_interface on every row of SOLVES_T16, in its own
# seam-corner column order
SOLVER_NODES_T16 = [0, 524, 36, 0, 278, 192, 2893, 1489, 2886, 430]


@pytest.mark.parametrize(
    "spec,expected,nodes",
    [(s, e, n) for (s, e), n in zip(SOLVES_T16, SOLVER_NODES_T16)],
)
def test_solver_nodes_pinned_t16(spec, expected, nodes):
    i, j, nu, weights, kind = spec
    res = solve_interface(InterfaceProblem(i, j, direction(*nu), 16, weights, kind))
    assert (res.value, res.certificate, res.nodes_explored) == (*expected[:2], nodes)


# solve_interface(prob, budget=1).lower on the surface rows of SOLVES_T16:
# the root bound, det + line, which no scan order changes
ROOT_LOWER_T16 = [28, 23, 19, 21, 28, 14, 32, 26, F(39, 2)]


@pytest.mark.parametrize("scan", ["own", "row_major"])
def test_root_bound_pinned_t16(scan, monkeypatch):
    if scan == "row_major":
        monkeypatch.setattr(interfaces, "_scan_order", row_major_order)
    got = [
        solve_interface(
            InterfaceProblem(i, j, direction(*nu), 16, weights, kind), budget=1
        ).lower
        for (i, j, nu, weights, kind), _ in SOLVES_T16[:len(ROOT_LOWER_T16)]
    ]
    assert got == ROOT_LOWER_T16


def test_lemma_trees_pinned():
    got = [
        (rep.search_space.nodes, rep.search_space.coverings)
        for rep in (lemma_check(k) for k in (4, 5, 6, 7, 8, 9))
    ]
    assert got == [
        (3729, 288), (9433, 576), (20316, 1152),
        (47405, 2304), (100308, 4608), (228653, 9216),
    ]


def _molecules(config):
    return [(m.shape.name, *m.anchor) for m in config.molecules]


def test_falsification_witnesses_pinned():
    flat = lemma_check(4, FLAT_PAIR)
    assert (flat.holds, flat.search_space.nodes) == (False, 417)
    assert _molecules(flat.witness) == [
        ("FR", -4, -4), ("FR", -5, -3), ("FR", -6, -2), ("FR", -4, 0),
        ("FS", -5, 1), ("FR", -4, 2), ("FR", -5, 3), ("FR", -3, -1),
        ("FR", -2, -2), ("FR", -3, -5), ("FR", -1, -3), ("FS", -1, 1),
        ("FR", -1, 3), ("FR", 0, -4), ("FR", 0, 0), ("FR", 0, 2),
        ("FR", 1, -1), ("FR", 2, -2), ("FR", 1, -5), ("FR", 3, -3),
        ("FS", 3, 1), ("FR", 3, 3),
    ]
    skew = lemma_check(4, SKEW_PAIR)
    assert (skew.holds, skew.search_space.nodes) == (False, 181)
    assert _molecules(skew.witness) == [
        ("ZR", -4, -4), ("ZR", -4, -2), ("ZR", -4, 0), ("ZR", -4, 2),
        ("ZR", -3, -5), ("ZR", -2, -2), ("ZR", -2, 0), ("ZR", -2, 2),
        ("ZR", -1, -5), ("ZR", -1, -3), ("ZR", 0, 0), ("ZR", 0, 2),
        ("ZR", 0, -6), ("ZS", 2, -4), ("ZR", 1, -1), ("ZR", 2, -2),
        ("ZR", 2, 2), ("ZR", 3, -5), ("ZR", 3, -3), ("ZR", 3, 1),
    ]


def test_cluster_witnesses_pinned():
    value, config = cluster_min_perimeter(2, 2)
    assert value == 22
    assert _molecules(config) == [("R", 0, 0), ("R", -1, -3), ("S", -1, -1), ("S", 0, 0)]
    value, config = cluster_min_perimeter(3, 1)
    assert value == 22
    assert _molecules(config) == [("R", 0, 0), ("R", -2, -2), ("R", -1, 1), ("S", -1, 1)]
    value, config = cluster_min_perimeter(3, 2)
    assert value == 24
    assert _molecules(config) == [
        ("R", 0, 0), ("R", -2, -2), ("R", -1, 1), ("S", -2, 0), ("S", -1, 1)
    ]
