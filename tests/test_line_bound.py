"""Differential tests: the interface solver against the det-only search.

`solve_interface` prunes with the determined boundary plus the
line-transition bound.  The search it replaced pruned with the determined
boundary alone; it is kept below as the reference, and it takes its scan
order explicitly.  Run in the solver's own order (`_scan_order`), both
bounds are admissible, so exhaustive solves must return the same value,
certificate and configuration, and the solver may only visit fewer nodes.
Run in the row-major order the solver used before its seam-corner column
sweep (`row_major_order`), the reference walks the recorded trees pinned
in `test_placements`, and a problem and its mirror are two different
searches.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from fractions import Fraction as F

import pytest

from chiralattice.interfaces import (
    _MOLECULE_EDGES,
    DEFAULT_BUDGET,
    VOLUME,
    Direction,
    InfeasibleBoundary,
    InterfaceProblem,
    _scan_order,
    _set_up,
    direction,
    solve_interface,
)
from chiralattice.molecules import (
    R, R_LIKE, S, Molecule, OverlapError, Window, configuration_to_jsonable, phase_label,
    phase_shape, validate, volume_deficit, weighted_perimeter,
)
from chiralattice.placements import PlacementGrid


# -------------------------------------------------------------------
# Reference implementation (determined-boundary bound only)
# -------------------------------------------------------------------

def row_major_order(prob: InterfaceProblem, square: range) -> tuple:
    """The grid spec of the row-major order of square x square, starting at
    the corner most negative along nu: rows as lines, stepping (sx, 0)
    along them and (0, sy) across them."""
    p, q = prob.nu.p, prob.nu.q
    h = F(prob.T, 2)
    corners = [(sx, sy) for sy in (-1, 1) for sx in (-1, 1)]
    sx, sy = min(corners, key=lambda s: (s[0] * h * p + s[1] * h * q, s))
    first = (square[0] if sx > 0 else square[-1], square[0] if sy > 0 else square[-1])
    return first, (sx, 0), (0, sy), len(square), len(square)


def spec_cells(spec) -> list:
    """The cells of a grid spec, line by line: the order in which a table
    over it numbers them."""
    (x0, y0), (ax, ay), (cx, cy), h, w = spec
    return [(x0 + c * cx + r * ax, y0 + c * cy + r * ay) for c in range(w) for r in range(h)]


def inside_inner(cell, T: int) -> bool:
    """Is the cell contained in the closed concentric square of side T - 8?

    The arithmetic test on 2a against T: the reference for `_inner`.
    """
    a, b = cell
    return 8 - T <= 2 * a <= T - 10 and 8 - T <= 2 * b <= T - 10


def ref_energy(config, prob: InterfaceProblem) -> F:
    """The problem's energy of config in Q_T by the lattice sweep, on a
    window of its own: the pricing that every incumbent is checked against."""
    window = Window.square(prob.T)
    if prob.energy_kind == VOLUME:
        return volume_deficit(config, window)
    return weighted_perimeter(config, *prob.weights, window)


def side_reach(m: Molecule, nu: Direction, upper: bool) -> bool:
    """Does the molecule meet {x . nu > 2} (upper) or {x . nu < -2}?

    The cell loop: the extreme of x . nu over each closed cell, compared
    exactly on squared integers with nu as the unit vector (p, q)/|(p, q)|.
    """
    p, q = nu.p, nu.q
    pp = max(p, 0)
    qp = max(q, 0)
    best = None
    for (a, b) in m.cells():
        if upper:
            v = p * a + q * b + pp + qp  # max of x.nu over the closed cell
            best = v if best is None else max(best, v)
        else:
            v = p * a + q * b + (p - pp) + (q - qp)  # min over the cell
            best = v if best is None else min(best, v)
    rhs4 = 4 * (p * p + q * q)
    if upper:
        return best > 0 and best * best > rhs4
    return best < 0 and best * best > rhs4


def in_boundary_family(m: Molecule, i: int, j: int, nu: Direction) -> bool:
    """Membership in the glued half-plane family for the ordered pair.

    The solver takes its glued incumbent from the family members instead;
    this per-molecule test is the reference for them.
    """
    if i != 0 and phase_label(m) == i and side_reach(m, nu, upper=True):
        return True
    if j != 0 and phase_label(m) == j and side_reach(m, nu, upper=False):
        return True
    return False


def wetting_row(prob: InterfaceProblem) -> list[Molecule] | None:
    """The mirror-species row of the wetting fill, from its formula, or
    None off the wetting keys.

    For the key (0, i, (1, -1)) with i an R phase, S molecules at
    (2t + 1, 2t - 2 + c), c = (i - 1) mod 4; for (0, i, (-1, -1)) with i
    an S phase, R molecules at (-(2t + 1), 2t - 2 + c); in anchor order,
    over more t than can meet Q_T.
    """
    if 0 not in (prob.i, prob.j):
        return None
    i, nu = (prob.j, prob.nu) if prob.i == 0 else (prob.i, -prob.nu)
    mirrored = phase_shape(i) is S
    if nu.as_tuple() != ((-1, -1) if mirrored else (1, -1)):
        return None
    c = (i - 1) % 4
    row = [
        Molecule(R if mirrored else S, ((-1 if mirrored else 1) * (2 * t + 1), 2 * t - 2 + c))
        for t in range(-prob.T, prob.T)
    ]
    return sorted(row, key=lambda m: m.anchor)


def ref_solve(prob: InterfaceProblem, order, budget: int = 5_000_000):
    """(value, certificate, config, nodes) of the det-only branch and bound.

    order(prob, square) is the grid spec of the inner square and its
    one-cell ring, square x square; the free cells are decided line by line
    in that order, each by every placement covering it that misses the
    decided cells.  The masks of the forced and free cells are read off the
    spec's cell list, and the placements covering a cell off their masks,
    not off the table's lists.
    """
    forced = validate(_set_up(prob)[1])
    T = prob.T
    volume = prob.energy_kind == VOLUME

    forced_cells = forced.occupancy
    # the inner square plus its ring: the closed square of side T - 6
    square = [a for a in range(-T, T) if inside_inner((a, a), T + 2)]
    free_cells = {
        (a, b) for a in square for b in square
        if inside_inner((a, b), T) and (a, b) not in forced_cells
    }
    spec = order(prob, range(square[0], square[-1] + 1))
    bit = {cell: 1 << k for k, cell in enumerate(spec_cells(spec))}
    assert sorted(bit) == sorted((a, b) for a in square for b in square)
    free_bits = sum(bit[c] for c in free_cells)
    table = PlacementGrid(spec, (R, S), free_bits)
    n = table.n
    assert n == len(bit)
    covering = [[p for p in table.placements if p.mask >> i & 1] for i in range(n)]

    base = ref_energy(forced, prob)
    c_R, c_S = prob.weights
    scale = math.lcm(c_R.denominator, c_S.denominator, base.denominator)
    w_R, w_S = int(c_R * scale), int(c_S * scale)
    molecule_area = 4 * scale

    def scaled(value):
        v = value * scale
        assert v.denominator == 1
        return v.numerator

    occ_R0 = sum(
        bit.get(c, 0)
        for m in forced.molecules
        if m.shape.chirality_class == R_LIKE
        for c in m.cells()
    )
    occ_S0 = sum(bit.get(c, 0) for c in forced_cells) & ~occ_R0
    decided0 = table.all_bits & ~free_bits

    base_det = scaled(base)
    if not volume:
        for i, nbrs in enumerate(table.neighbors):
            if free_bits >> i & 1:
                base_det -= (
                    w_R * (nbrs & occ_R0).bit_count() + w_S * (nbrs & occ_S0).bit_count()
                )

    def evaluate(mols):
        cfg = validate(list(forced.molecules) + mols)
        return ref_energy(cfg, prob), cfg

    def fill(mols):
        """Each molecule whose cells are free cells that no molecule kept
        before it holds, in turn."""
        held, kept = set(), []
        for m in mols:
            cells = m.cells()
            if free_cells.issuperset(cells) and held.isdisjoint(cells):
                held.update(cells)
                kept.append(m)
        return kept

    # the library constructions: the glued family unless its free members
    # overlap, the wetting fill on its keys, the forced part alone; the
    # first of least energy is the incumbent
    family_fill = sorted(
        (p.molecule for p in table.placements
         if in_boundary_family(p.molecule, prob.i, prob.j, prob.nu)),
        key=lambda m: (m.shape.name, m.anchor),
    )
    incumbents = []
    try:
        incumbents.append(evaluate(family_fill))
    except OverlapError:
        pass
    row = wetting_row(prob)
    if row is not None:
        incumbents.append(evaluate(fill(row + family_fill)))
    incumbents.append(evaluate([]))
    best_value, best_cfg_conf = min(incumbents, key=lambda t: t[0])
    best_val = scaled(best_value)
    best_cfg = list(best_cfg_conf.molecules)

    nodes = 0
    exhausted = True
    placed = []

    def dfs(decided, occ_R, occ_S, energy, det):
        nonlocal nodes, best_val, best_cfg, exhausted
        if nodes >= budget:
            exhausted = False
            return
        i = (~decided & (decided + 1)).bit_length() - 1
        if i >= n:
            if energy < best_val:
                best_val = energy
                best_cfg = list(forced.molecules) + list(placed)
            return
        if not volume and det >= best_val:
            return
        if volume:
            undecided = (free_bits & ~decided).bit_count()
            if energy - molecule_area * (undecided // 4) >= best_val:
                return
        for p in covering[i]:
            if p.mask & decided:
                continue
            nodes += 1
            placed.append(p.molecule)
            if volume:
                dfs(decided | p.mask, occ_R, occ_S, energy - molecule_area, det)
            else:
                c_r, c_s = p.contacts(occ_R), p.contacts(occ_S)
                empty = p.contacts(decided & ~(occ_R | occ_S))
                if p.molecule.shape.chirality_class == R_LIKE:
                    w, occ_R_next, occ_S_next = w_R, occ_R | p.mask, occ_S
                else:
                    w, occ_R_next, occ_S_next = w_S, occ_R, occ_S | p.mask
                d_energy = w * _MOLECULE_EDGES - (w + w_R) * c_r - (w + w_S) * c_s
                dfs(
                    decided | p.mask, occ_R_next, occ_S_next,
                    energy + d_energy, det + w * empty,
                )
            placed.pop()
        nodes += 1
        if not volume:
            nbrs = table.neighbors[i]
            det += w_R * (nbrs & occ_R).bit_count() + w_S * (nbrs & occ_S).bit_count()
        dfs(decided | 1 << i, occ_R, occ_S, energy, det)

    dfs(decided0, occ_R0, occ_S0, scaled(base), base_det)
    return (
        F(best_val, scale),
        "exact" if exhausted else "upper_bound",
        validate(best_cfg),
        nodes,
    )


# -------------------------------------------------------------------
# Differential tests
# -------------------------------------------------------------------

def assert_matches_reference(prob: InterfaceProblem) -> None:
    res = solve_interface(prob)
    value, certificate, config, nodes = ref_solve(prob, _scan_order)
    assert (res.value, res.certificate, res.config) == (value, certificate, config)
    assert res.nodes_explored <= nodes
    assert res.lower == res.value  # exhaustive solves close the interval
    # the solver tracks no energy: its leaf cost must be the full recomputation
    assert res.value == ref_energy(res.config, prob)


TABLE_DIRECTIONS = (
    (1, 0, (1, 1)), (1, 0, (0, 1)), (1, 0, (1, 0)), (1, 0, (3, -1)),
    (1, 5, (1, 1)), (1, 7, (1, -1)), (1, 2, (1, 1)), (5, 6, (0, 1)),
)


def _table_rows():
    """The benchmark's density table: 48 surface rows, a weighted and a volume row."""
    for T in (8, 12, 16):
        for i, j, nu in TABLE_DIRECTIONS:
            yield InterfaceProblem(i, j, direction(*nu), T)
            yield InterfaceProblem(j, i, -direction(*nu), T)
    yield InterfaceProblem(1, 0, direction(-1, 1), 16, (1, F(1, 4)))
    yield InterfaceProblem(1, 0, direction(1, 1), 16, energy_kind="volume")


@pytest.mark.parametrize(
    "prob", list(_table_rows()),
    ids=lambda p: f"{p.i},{p.j},{p.nu.as_tuple()},T{p.T},{p.energy_kind},{p.weights[1]}",
)
def test_table_rows_match_reference(prob):
    assert_matches_reference(prob)


@pytest.mark.parametrize("kind", ["surface", "volume"])
def test_fractional_weights_odd_t_match_reference(kind):
    # odd T makes the forced energy fractional, so the integer scale
    # exceeds the weight denominators
    for i, j, pq in [(1, 0, (1, 1)), (1, 0, (0, 1)), (1, 2, (1, 1)), (1, 0, (-1, 1))]:
        assert_matches_reference(
            InterfaceProblem(i, j, direction(*pq), 13, (F(2, 3), F(1, 4)), kind)
        )


@pytest.mark.parametrize(
    "T,weights",
    [
        pytest.param(9, (1, 1), id="9"),
        pytest.param(12, (1, 1), id="12"),
        pytest.param(13, (1, 1), id="13"),
        pytest.param(9, (F(2, 3), F(1, 4)), id="9-weighted"),
        pytest.param(13, (F(2, 3), F(1, 4)), id="13-weighted"),
    ],
)
def test_every_ordered_pair_matches_reference(T, weights):
    """All 72 ordered phase pairs in four directions, at T = 9, 12 and 13
    with unit weights and at T = 9 and 13 with fractional weights.  At
    T = 9 the inner square holds no whole cell, so every row certifies at
    its root and only the root is compared; T = 12 and 13 compare searches."""
    solved = 0
    for i, j in itertools.permutations(range(9), 2):
        for pq in [(1, 1), (-1, 1), (0, 1), (3, -1)]:
            prob = InterfaceProblem(i, j, direction(*pq), T, weights)
            try:
                _set_up(prob)
            except InfeasibleBoundary:
                with pytest.raises(InfeasibleBoundary):
                    solve_interface(prob)
                continue
            assert_matches_reference(prob)
            solved += 1
    assert solved > 200


def test_lower_bounds_a_truncated_solve():
    prob = InterfaceProblem(1, 0, direction(0, 1), 24)
    res = solve_interface(prob, budget=1)
    assert res.certificate == "upper_bound"
    assert (res.lower, res.value) == (31, 47)
    # the volume bound at the root: one molecule area per four free cells
    vol = InterfaceProblem(1, 0, direction(1, 1), 16, energy_kind="volume")
    res = solve_interface(vol, budget=1)
    assert res.certificate == "upper_bound"
    assert res.lower <= 119 <= res.value


def _config_json(res) -> str:
    return json.dumps(configuration_to_jsonable(res.config), sort_keys=True)


def _config_digest(res) -> str:
    """The first 16 hex digits of the SHA-256 of a result's config JSON."""
    return hashlib.sha256(_config_json(res).encode()).hexdigest()[:16]


# (i, j, nu) at T=24: the bound at the root, the certified value (134,798
# and 208,893 nodes to certify), and the value, lower bound and config
# digest of the solves truncated at 2,000, 10,000 and 50,000 nodes
TRUNCATED_T24 = [
    ((1, 7, (1, -1)), 18, 46, (46, 22, "e5928a5ddfc15610")),
    ((1, 0, (0, 1)), 31, 47, (47, 31, "5b63e72cd1f96c24")),
]


@pytest.mark.parametrize("row", TRUNCATED_T24, ids=lambda r: str(r[0]).replace(" ", ""))
def test_truncated_solve_reports_an_interval(row):
    # a truncated solve's lower bound is the least bound over the children
    # that the stack had not opened, capped by the incumbent; it lies
    # between the root bound and the optimum, and above the root bound once
    # the search has refuted the cheapest seams
    (i, j, nu), root, certified, pinned = row
    prob = InterfaceProblem(i, j, direction(*nu), 24)
    lowers = []
    for budget in (2_000, 10_000, 50_000):
        res = solve_interface(prob, budget=budget)
        assert (res.certificate, res.nodes_explored, res.root) == ("upper_bound", budget, root)
        assert root <= res.lower <= certified <= res.value, budget
        assert (res.value, res.lower, _config_digest(res)) == pinned, budget
        lowers.append(res.lower)
    if (i, j) == (1, 7):
        assert lowers[-1] > root


def test_truncated_t28_solve_pinned():
    res = solve_interface(InterfaceProblem(1, 5, direction(1, 1), 28), budget=50_000)
    assert (res.certificate, res.nodes_explored) == ("upper_bound", 50_000)
    assert (res.value, res.lower, res.root) == (70, 34, 32)
    assert _config_digest(res) == "79fba84c7baad157"


def test_deep_solve_pinned_t24():
    # the deepest pinned full search: its search square is 18 cells wide,
    # where the root's fill across lines takes five doubling steps
    res = solve_interface(InterfaceProblem(1, 0, direction(0, 1), 24))
    assert (res.value, res.certificate, res.root, res.nodes_explored) == (47, "exact", 31, 208_893)
    assert _config_digest(res) == "5b63e72cd1f96c24"


def test_dead_cell_solve_pinned_t24():
    # the mixed seam whose root the dead cells lift most: 14 to 18, and
    # from 700,834 nodes to certify to 134,798
    res = solve_interface(InterfaceProblem(1, 7, direction(1, -1), 24))
    assert (res.value, res.certificate, res.root, res.nodes_explored) == (46, "exact", 18, 134_798)
    assert _config_digest(res) == "e5928a5ddfc15610"


# SHA-256 of the (value, certificate, nodes, lower, root, config JSON) of
# the 50 table rows, in order, at each budget
TABLE_DIGESTS = {
    1: "8fc7faad438653255655823abb52eca970fc32dfff61f6175b2e973e010bed95",
    50: "41a30ac190255f56efd31afa4338e0f912e4a645c0cbdcb4c9e18b2448f2941e",
    DEFAULT_BUDGET: "3b83d094d39a9a452cdfecdc608bf704066a139b5a07fb40cbcd92c3486a126a",
}


@pytest.mark.parametrize("budget", sorted(TABLE_DIGESTS))
def test_table_rows_pinned(budget):
    digest = hashlib.sha256()
    for prob in _table_rows():
        res = solve_interface(prob, budget=budget)
        digest.update(repr((
            str(res.value), res.certificate, res.nodes_explored, str(res.lower), str(res.root),
            _config_json(res),
        )).encode())
    assert digest.hexdigest() == TABLE_DIGESTS[budget]


# (value, lower, root) of the truncated volume solves at budget 5000:
# tables of thousands of placements over a free zone with no margin
DEEP_VOLUME = {72: (651, 559, 559), 96: (879, 751, 751)}


@pytest.mark.parametrize("T", [72, 96])
def test_deep_volume_solve_returns_an_interval(T):
    # the search's depth grows with the free zone; it walks an explicit
    # stack, so no depth raises RecursionError
    prob = InterfaceProblem(1, 0, direction(1, 1), T, energy_kind=VOLUME)
    res = solve_interface(prob, budget=5000)
    assert (res.certificate, res.nodes_explored) == ("upper_bound", 5000)
    assert (res.value, res.lower, res.root) == DEEP_VOLUME[T]


def test_line_bound_certifies_the_incumbent_at_the_root():
    # the line bound alone proves the family fill optimal: no node is opened
    res = solve_interface(InterfaceProblem(1, 0, direction(1, 1), 20))
    assert (res.value, res.certificate, res.nodes_explored, res.lower) == (36, "exact", 0, 36)


@pytest.mark.parametrize(
    "i,j,pq", TABLE_DIRECTIONS, ids=lambda v: str(v).replace(" ", "")
)
def test_mirror_rows_agree_in_row_major_order(i, j, pq):
    # the solver searches (i, j, nu) and (j, i, -nu) in the same order, so
    # the mirror identity is checked on two different row-major searches
    prob = InterfaceProblem(i, j, direction(*pq), 12)
    mirror = InterfaceProblem(j, i, -direction(*pq), 12)
    forward = ref_solve(prob, row_major_order)
    backward = ref_solve(mirror, row_major_order)
    assert forward[:2] == backward[:2] == (solve_interface(prob).value, "exact")
    # the corners most negative along nu and -nu differ
    assert row_major_order(prob, range(-1, 2)) != row_major_order(mirror, range(-1, 2))


def test_scan_order_is_the_seam_corner_column_sweep():
    right_to_left = [(a, b) for a in (1, 0, -1) for b in (-1, 0, 1)]
    left_to_right = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    for pq, expected in [
        ((1, 1), right_to_left), ((1, 0), right_to_left), ((0, 1), right_to_left),
        ((1, -1), left_to_right), ((3, -1), left_to_right),
    ]:
        for nu in (direction(*pq), -direction(*pq)):
            prob = InterfaceProblem(1, 0, nu, 12)
            assert spec_cells(_scan_order(prob, range(-1, 2))) == expected, nu
    # the frontier's spec: columns right to left, each bottom to top
    assert _scan_order(InterfaceProblem(1, 0, direction(1, 1), 20), range(-7, 7)) == (
        (6, -7), (0, 1), (-1, 0), 14, 14
    )


@pytest.mark.parametrize("budget", [1, 10, 1000])
def test_truncated_solve_stays_within_its_budget(budget):
    res = solve_interface(InterfaceProblem(1, 0, direction(0, 1), 24), budget=budget)
    assert (res.certificate, res.nodes_explored) == ("upper_bound", budget)
    assert res.lower <= 47 <= res.value


def test_a_tree_of_exactly_budget_nodes_is_exhausted():
    prob = InterfaceProblem(1, 0, direction(0, 1), 16)
    full = solve_interface(prob)
    n = full.nodes_explored
    assert n > 0
    exact = solve_interface(prob, budget=n)
    assert (exact.value, exact.certificate, exact.nodes_explored) == (full.value, "exact", n)
    cut = solve_interface(prob, budget=n - 1)
    assert (cut.certificate, cut.nodes_explored) == ("upper_bound", n - 1)
