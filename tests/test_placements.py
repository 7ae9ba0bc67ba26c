"""The shared placement kernel, and the search trees built on it.

The table numbers the cells of its grid spec, padded when placements
may overhang it, and builds every placement by shifting its shape's
templates.  `ref_table` builds every placement afresh, cell by cell, over
the spec's cell list (`spec_cells`), and the table is compared with it on
cells, its masks decoded through its own numbering, on grids with lines
along either axis, stepping either way; a spec that is no grid is refused.
The solver builds the numbering alone, and enumerates the placements only
when its root leaves a search.

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

import random
from fractions import Fraction as F
from itertools import permutations

import pytest

from chiralattice.altpairs import FLAT_PAIR, SKEW_PAIR
from chiralattice.coverings import enumerate_coverings, lemma_check
from chiralattice import interfaces
from chiralattice.interfaces import (
    InfeasibleBoundary,
    InterfaceProblem,
    cluster_min_perimeter,
    direction,
    frame_forced,
    solve_interface,
)
from chiralattice.molecules import (
    R_LIKE, Molecule, MoleculeShape, OverlapError, R, S, Window, validate,
)
from chiralattice.placements import Placement, PlacementGrid, PlacementTable
from test_line_bound import (
    TABLE_DIRECTIONS, _table_rows, inside_inner, ref_solve, row_major_order, spec_cells,
)


# the frontier problem: the (1,1) diagonal at T=20, certified at the root
FRONTIER = InterfaceProblem(1, 0, direction(1, 1), 20)


def _neighbors(cell):
    a, b = cell
    return ((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1))


def test_table_numbers_order_cells_first():
    spec = ((0, 0), (0, 1), (1, 0), 2, 2)
    order = spec_cells(spec)
    assert order == [(0, 0), (0, 1), (1, 0), (1, 1)]
    table = PlacementTable(spec, (R, S))
    assert_placements_hold_their_molecules(table, spec, None)
    bits = [table.mask([c]) for c in order]
    assert bits == sorted(bits) and len(set(bits)) == 4  # increasing along the order
    assert table.order_bits == sum(bits)
    assert table.mask([(99, 99)]) == 0  # a cell without a bit
    for cell, bit in zip(order, bits):
        i = bit.bit_length() - 1
        assert table.by_pos[i], cell
        for p in table.by_pos[i]:
            assert cell in p.molecule.cells()
            assert p.mask & bit
        assert table.neighbors[i] == table.mask(_neighbors(cell))
    # only order cells list placements
    assert all(not ps for i, ps in enumerate(table.by_pos) if not table.order_bits >> i & 1)
    # placements are numbered by first order cell, then shape, then offset
    assert [p.index for p in table.placements] == list(range(len(table.placements)))
    assert table.placements[0].molecule == Molecule(R, (0, 0))
    with pytest.raises(AttributeError):  # placements are immutable
        table.placements[0].mask = 0


@pytest.mark.parametrize(
    "spec",
    [
        ((0, 0), (0, 1), (1, 0), 0, 3),  # lines of no cell
        ((0, 0), (0, 1), (1, 0), 3, 0),  # no line
        ((0, 0), (0, 1), (1, 0), -2, 3),  # a negative size
        ((0, 0), (0, 1), (1, 0), 3, -1),
        ((0, 0), (1, 1), (1, -1), 3, 3),  # diagonal steps
        ((0, 0), (0, 2), (1, 0), 3, 3),  # a step of two cells
        ((0, 0), (0, 1), (0, 0), 3, 3),  # a zero step
        ((0, 0), (0, 1), (0, 1), 3, 3),  # parallel steps
        ((0, 0), (1, 0), (-1, 0), 3, 3),  # antiparallel steps
    ],
)
def test_invalid_grid_spec_raises(spec):
    with pytest.raises(ValueError):
        PlacementGrid(spec, (R, S))
    with pytest.raises(ValueError):
        PlacementTable(spec, (R, S))


def within_bits(spec, zone):
    """The bits of the cells `zone` on a grid over `spec` with no margin,
    where the spec's k-th cell (`spec_cells`) has bit k; the zone must lie
    in the grid and miss its border."""
    (_, _, _, h, w), order = spec, spec_cells(spec)
    inside = {c for k, c in enumerate(order) if 0 < k % h < h - 1 and 0 < k // h < w - 1}
    assert inside.issuperset(zone)
    return sum(1 << k for k, c in enumerate(order) if c in zone)


def test_within_filters_placements():
    spec = ((-1, -1), (0, 1), (1, 0), 5, 5)
    within = {(x, y) for x in range(3) for y in range(3)}
    table = PlacementTable(spec, (R, S), within_bits(spec, within))
    assert_placements_hold_their_molecules(table, spec, within)
    assert {p.molecule for p in table.placements} == {
        Molecule(R, (0, 0)), Molecule(R, (1, 0)), Molecule(S, (2, 0)), Molecule(S, (3, 0))
    }


def test_contacts_count_boundary_edges():
    spec = ((-3, -3), (0, 1), (1, 0), 7, 7)
    table = PlacementTable(spec, (R, S))
    assert_placements_hold_their_molecules(table, spec, None)
    occupied = {(0, 0), (1, 1), (2, 2), (-1, 2), (0, 3), (-2, -1), (1, 3)}
    bits = table.mask(occupied)
    for p in table.placements:
        cells = set(p.molecule.cells())
        expected = sum(
            nb in occupied for c in cells for nb in _neighbors(c) if nb not in cells
        )
        assert p.contacts(bits) == expected, p.molecule
        assert p.contacts(table.all_bits & ~p.mask) == 10  # all boundary edges


def decode(table, spec):
    """{bit: cell} over the bounding box of the spec's cells padded by 6
    cells: every numbered cell there, with no bit given twice."""
    order = spec_cells(spec)
    xs = [x for x, _ in order]
    ys = [y for _, y in order]
    cell_of = {}
    for x in range(min(xs) - 6, max(xs) + 7):
        for y in range(min(ys) - 6, max(ys) + 7):
            bit = table.mask([(x, y)])
            if bit:
                assert bit.bit_count() == 1 and bit not in cell_of
                cell_of[bit] = (x, y)
    assert sorted(cell_of) == [1 << i for i in range(table.n)]
    return cell_of


def cells(bits, cell_of):
    """The cells of a mask, decoded through the table's numbering."""
    return {cell for bit, cell in cell_of.items() if bits & bit}


def assert_placements_hold_their_molecules(table, spec, within):
    """Each placement's molecule is its shape at its anchor, covering the
    cells of its mask; within_bits are the bits of `within`, or every bit
    when it is None; the spec's cells have increasing bits along its lines
    and make up order_bits."""
    cell_of = decode(table, spec)
    bits = [table.mask([c]) for c in spec_cells(spec)]
    assert bits == sorted(bits) and sum(bits) == table.order_bits
    for p in table.placements:
        assert p.molecule == Molecule(p.shape, p.anchor)
        assert cells(p.mask, cell_of) == set(p.molecule.cells())
    assert table.within_bits == (table.all_bits if within is None else table.mask(within))


def ref_table(spec, shapes, keep):
    """The table as built with a `keep` callback on molecules, as cells.

    Every translate of a shape covering a cell of the spec is a candidate,
    each cell in the spec's order starting candidates, and `keep` filters
    the candidates after they are built.  The rim of each molecule is
    counted afresh in a dict.  Returns the placements as (molecule, cells,
    touch1 cells, touch2 cells), by_pos as lists of placement indices per
    order cell, and the neighbours of each order cell.
    """
    order = spec_cells(spec)
    shapes = tuple(dict.fromkeys(shapes))
    placements, seen = [], set()
    for cell in order:
        for k, shape in enumerate(shapes):
            for off in shape.cells:
                anchor = (cell[0] - off[0], cell[1] - off[1])
                if (k, anchor) in seen:
                    continue
                seen.add((k, anchor))
                mol = Molecule(shape, anchor)
                if not keep(mol):
                    continue
                mol_cells = set(mol.cells())
                touches = {}
                for c in mol_cells:
                    for nb in _neighbors(c):
                        if nb not in mol_cells:
                            touches[nb] = touches.get(nb, 0) + 1
                placements.append((
                    mol,
                    mol_cells,
                    {c for c, k in touches.items() if k == 1},
                    {c for c, k in touches.items() if k == 2},
                ))
    by_pos = [
        [index for index, (_, mol_cells, _, _) in enumerate(placements) if cell in mol_cells]
        for cell in order
    ]
    return placements, by_pos, [set(_neighbors(cell)) for cell in order]


def assert_matches_ref_table(table, spec, shapes, within, keep):
    """The table's placements, by_pos and in-grid neighbours, decoded into
    cells, are those of `ref_table`, and its placements hold their
    molecules."""
    assert_placements_hold_their_molecules(table, spec, within)
    cell_of = decode(table, spec)
    placements, by_pos, neighbors = ref_table(spec, shapes, keep)
    order = spec_cells(spec)
    assert [
        (p.molecule, cells(p.mask, cell_of), cells(p.touch1, cell_of), cells(p.touch2, cell_of))
        for p in table.placements
    ] == placements
    bit = [table.mask([cell]).bit_length() - 1 for cell in order]
    assert [[p.index for p in table.by_pos[i]] for i in bit] == by_pos
    assert sum(map(len, table.by_pos)) == sum(map(len, by_pos))  # none off the order
    numbered = set(cell_of.values())
    assert [cells(table.neighbors[i], cell_of) for i in bit] == [
        nbs & numbered for nbs in neighbors
    ]


# a user shape with a two-edge rim cell on either side of its stem
USER_T = MoleculeShape("T", ((0, 0), (1, 0), (2, 0), (1, 1)), R_LIKE)


@pytest.mark.parametrize(
    "shapes", [(R, S), FLAT_PAIR, SKEW_PAIR, (USER_T, S)], ids=["RS", "flat", "skew", "user"]
)
def test_placement_masks_match_per_placement_rims(shapes):
    # grid specs with columns stepping either way, and with lines along x
    # (row-major, either way), as the solver's patched-in orders, on the
    # square [-5, 5]^2, and a grid of 11 lines of 7 cells
    down = ((5, -5), (0, 1), (-1, 0), 11, 11)
    up = ((-5, -5), (0, 1), (1, 0), 11, 11)
    lines = ((-5, -5), (1, 0), (0, 1), 11, 11)
    back = ((5, 5), (-1, 0), (0, -1), 11, 11)
    rows = ((5, -3), (-1, 0), (0, 1), 11, 7)
    # a free zone: an inner square with holes, as the solver's, cut to
    # the cells off the border of the grid of 7 lines
    free = {(c, r) for c in range(-4, 5) for r in range(-4, 5) if (3 * c + r) % 7}
    for spec in (down, up, lines, back, rows):
        square = spec_cells(spec)
        zone = {c for c in free if spec is not rows or -3 < c[1] < 3}
        for within in (None, zone):
            table = PlacementTable(spec, shapes, None if within is None else within_bits(spec, within))
            assert_matches_ref_table(
                table, spec, shapes, within,
                lambda m: within is None or within.issuperset(m.cells()),
            )
            assert any(p.touch2 for p in table.placements)
            # a free zone inside the grid: only the grid is numbered
            assert (table.order_bits == table.all_bits) == (within is not None)
        # with no `within`, placements overhang the grid
        assert not set(square).issuperset(
            c for p in PlacementTable(spec, shapes).placements for c in p.molecule.cells()
        )


def _solver_problems():
    yield from _table_rows()
    for T in (9, 13):
        for i, j, nu in TABLE_DIRECTIONS:
            yield InterfaceProblem(i, j, direction(*nu), T)
            yield InterfaceProblem(j, i, -direction(*nu), T)
    # the largest table: the frontier problem and its mirror
    yield FRONTIER
    yield InterfaceProblem(0, 1, -direction(1, 1), 20)


def test_solver_tables_match_the_keep_callback(monkeypatch):
    # a solve builds two grids: the set-up grid over Q_T, padded, and the
    # search grid over the inner square and its ring, in one orientation.
    # The placements of the search grid over its free zone are those that
    # the callback on the inner square and the forced cells kept, in order;
    # the free zone lies inside its grid, so the grid is numbered alone and
    # order cell k has bit k of the free zone handed to it
    built = []

    def recording_grid(spec, shapes, within=None):
        grid = PlacementGrid(spec, shapes) if within is None else PlacementTable(spec, shapes, within)
        built.append((spec, shapes, within, grid))
        return grid

    monkeypatch.setattr(interfaces, "PlacementGrid", recording_grid)
    for scan in (interfaces._scan_order, row_major_order):
        monkeypatch.setattr(interfaces, "_scan_order", scan)
        for prob in _solver_problems():
            built.clear()
            solve_interface(prob, budget=1)
            (q_spec, _, q_within, q_grid), (spec, shapes, within, table) = built
            window = interfaces._window_cells(prob.T)
            assert q_within is None and q_spec == scan(prob, window), prob
            assert q_grid.order_bits == q_grid.mask(spec_cells(q_spec)), prob
            assert spec[1:3] == q_spec[1:3] and set(spec_cells(spec)) <= set(spec_cells(q_spec))
            assert table.order_bits == table.all_bits == (1 << spec[3] * spec[4]) - 1, prob
            within = {c for k, c in enumerate(spec_cells(spec)) if within >> k & 1}
            taken = frame_forced(prob).occupancy
            assert_matches_ref_table(
                table, spec, shapes, within,
                lambda m: all(inside_inner(c, prob.T) and c not in taken for c in m.cells()),
            )


def test_edge_cost_matches_the_neighbour_masks(monkeypatch):
    # the solver's four-shift edge count equals the per-cell sum over the
    # grid's neighbour masks, on every set-up grid and every search grid,
    # for random subsets of its free zone against random cell sets of the
    # whole grid, either way round
    grids = []
    set_up = interfaces._set_up

    def recording_set_up(prob):
        out = set_up(prob)
        grids.append((out[4], out[7]))  # the set-up grid and its free zone
        return out

    def recording_grid(spec, shapes, within=None):
        grid = PlacementGrid(spec, shapes, within)
        if within is not None:  # the search grid, whose free zone it holds
            grids.append((grid, grid.within_bits))
        return grid

    monkeypatch.setattr(interfaces, "_set_up", recording_set_up)
    monkeypatch.setattr(interfaces, "PlacementGrid", recording_grid)
    for prob in _solver_problems():
        solve_interface(prob, budget=1)

    def per_cell(table, cells, occ_R, occ_S, weights):
        w_R, w_S = weights
        return sum(
            w_R * (nbrs & occ_R).bit_count() + w_S * (nbrs & occ_S).bit_count()
            for i, nbrs in enumerate(table.neighbors) if cells >> i & 1
        )

    rng = random.Random(7)
    for table, free in grids:
        n = table.n
        cases = [(free, table.all_bits & ~free, table.all_bits & ~free)]
        cases += [
            (free & rng.getrandbits(n), rng.getrandbits(n), rng.getrandbits(n)) for _ in range(20)
        ]
        for cells, occ_R, occ_S in cases:
            weights = rng.randint(1, 9), rng.randint(1, 9)
            got = interfaces._edge_cost(table, cells, occ_R, occ_S, weights)
            assert got == per_cell(table, cells, occ_R, occ_S, weights)
            # the free cells as the weighted side, the other set anywhere
            sub_R = cells & rng.getrandbits(n)
            sub_S = cells & ~sub_R
            got = interfaces._edge_cost(table, occ_R, sub_R, sub_S, weights)
            assert got == per_cell(table, sub_R, occ_R, 0, weights) + per_cell(
                table, sub_S, 0, occ_R, weights
            )
    assert len(grids) == 2 * len(list(_solver_problems()))


def test_searches_build_molecules_for_their_results_only(monkeypatch):
    # placements hold masks, shapes and anchors; a search builds molecules
    # for the configuration it returns, each once
    reads = []

    def molecule(p):
        reads.append(p)
        return Molecule(p.shape, p.anchor)

    monkeypatch.setattr(Placement, "molecule", property(molecule))
    # certified at the root: the result is the glued family, built in set-up
    res = solve_interface(FRONTIER)
    assert (res.nodes_explored, reads) == (0, [])
    _, config = cluster_min_perimeter(3, 2)
    assert [Molecule(p.shape, p.anchor) for p in reads] == list(config.molecules)
    reads.clear()
    # a solve that opens nodes and returns a leaf reads the leaf's free
    # molecules, whatever its incumbent improvements
    prob = InterfaceProblem(1, 5, direction(1, 1), 12)
    res = solve_interface(prob)
    forced = frame_forced(prob).molecules
    free = [m for m in res.config.molecules if m not in forced]
    assert res.nodes_explored > 0 and len(free) == 1
    assert [Molecule(p.shape, p.anchor) for p in reads] == free
    reads.clear()
    # the coverings share one molecule per placement
    assert sum(1 for _ in enumerate_coverings(4, (R, S))) == 288
    assert len(reads) == 176


def test_placements_are_enumerated_only_when_the_root_leaves_a_search(monkeypatch):
    calls = []
    enumerate_placements = PlacementGrid.enumerate_placements

    def spy(grid):
        calls.append(grid)
        return enumerate_placements(grid)

    monkeypatch.setattr(PlacementGrid, "enumerate_placements", spy)
    # the frontier and the diagonal (i, 0) rows certify at the root
    diagonals = [
        InterfaceProblem(i, 0, direction(*nu), T)
        for T in range(20, 33, 3)
        for i in range(1, 9)
        for nu in ((1, 1), (1, -1), (-1, 1), (-1, -1))
    ]
    for prob in [FRONTIER, *diagonals]:
        res = solve_interface(prob)
        assert (res.certificate, res.nodes_explored, calls) == ("exact", 0, []), prob
    # a table row enumerates once iff its root bound is below its value
    searched = 0
    for prob in _table_rows():
        res = solve_interface(prob)
        assert len(calls) == (res.root < res.value), prob
        searched += len(calls)
        calls.clear()
    assert searched == 26


def test_glued_cost_matches_the_lattice_sweep(monkeypatch):
    # the solver's price of the glued family on its masks, over the scale,
    # is the lattice sweep of the validated glued configuration (the forced
    # part and the glued family's free members), and the solver prices it
    # exactly when validating that configuration does not raise
    # OverlapError, when the set-up's free members have an occupancy
    seen = []
    glued_cost = interfaces._glued_cost

    def recording(table, placed, root, weights, area):
        seen.append(glued_cost(table, placed, root, weights, area))
        return seen[-1]

    monkeypatch.setattr(interfaces, "_glued_cost", recording)
    # and every ordered pair at (1, 3) at T=16, where some glued families
    # overlap and some frames do
    pairs = [InterfaceProblem(i, j, direction(1, 3), 16) for i, j in permutations(range(9), 2)]
    overlaps = 0
    for prob in [*_solver_problems(), *pairs]:
        try:
            solve_interface(prob, budget=1)
        except InfeasibleBoundary:
            continue
        _, forced, glued, placed, *_ = interfaces._set_up(prob)
        interior = [m for m in glued if m not in forced]  # the glued family's free members
        try:
            config = validate([*frame_forced(prob).molecules, *interior])
        except OverlapError:
            assert (placed, seen) == (None, []), prob
            overlaps += 1
            continue
        assert placed is not None, prob
        value, scale = seen.pop(), interfaces._units(prob)[0]
        assert F(value, scale) == interfaces._energy(config, prob, Window.square(prob.T)), prob
    assert not seen and overlaps == 10


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


# solve_interface(prob, budget=1).root on the surface rows of SOLVES_T16:
# the root bound, det + line, which no scan order changes
ROOT_LOWER_T16 = [28, 23, 19, 21, 28, 14, 32, 26, F(39, 2)]


@pytest.mark.parametrize("scan", ["own", "row_major"])
def test_root_bound_pinned_t16(scan, monkeypatch):
    if scan == "row_major":
        monkeypatch.setattr(interfaces, "_scan_order", row_major_order)
    got = [
        solve_interface(
            InterfaceProblem(i, j, direction(*nu), 16, weights, kind), budget=1
        ).root
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
