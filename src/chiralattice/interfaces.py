"""Finite-size interface problems between modulated phases.

The central object is the minimal boundary length inside the open square
Q_T over configurations that match prescribed half-plane boundary data on
the frame (the open collar of width 4 along the square's boundary).  The
boundary data for an ordered phase pair (i, j) and a rational direction
(p, q) consists of the phase-i striped family on the side where
x . (p, q) is positive and the phase-j family on the negative side; a
configuration is admissible when the set of its molecules meeting the
frame coincides exactly with the set of family molecules meeting the
frame.  Away from the frame the configuration is free: molecules of any
phase, or none, may appear.

Because every molecule that is allowed to vary must avoid the width-4
frame, free molecules live in the concentric inner square of side T - 8
(`_inner`), and they miss the forced frame molecules that reach into it.
So the free zone of a problem is the inner square's cells that the forced
part leaves empty, and a molecule is free iff its cells all lie in it.
The search over that region is an exhaustive branch and bound in scan
order.  Each node carries one cost: the deficit for volume energies, and
for surface energies the weighted length of the boundary edges whose two
cells are both decided.  The edges that miss every free cell are priced
once, clipped to Q_T, in the forced part's energy; an edge that meets a
free cell lies wholly inside Q_T and is counted when its second cell is
decided.  So at a leaf the cost is the configuration's energy.  The scan
order takes the inner square column by column, each bottom to top,
sweeping right to left unless p q < 0; for the diagonals the sweep starts
at the bottom corner that the seam line x . nu = 0 passes through, so the
seam is decided while few cells are, and a problem and its mirror
(j, i, -nu) are the same search.  Its lower bound for surface energies is
the cost plus a line-transition bound: in each row and column of the
inner square and its always-decided ring, every run of undecided cells
between decided cells of unlike occupancy must hold a boundary edge that
is not determined yet, and no edge lies in two lines, so each such run
adds at least min(c_R, c_S).  The bound is admissible, so exhaustive
results do not depend on it.  The search's cells are bits of int masks
of a placement grid (`chiralattice.placements`) over the inner square
and its ring, whose placements are the free molecules only.  A free cell
that none of them covers is dead, and the root decides it empty.  The
root and every node carry each mask beside its transpose in one int, so
one carry along the lines of both counts columns and rows (`_runs`).  From set-up
to result a solve prices in ints, in one unit 1/scale (`_units`), and
builds `Fraction`s for its result alone.

The solver and the pattern library share one set-up (`_set_up`) on Q_T
read as an integer cell range (`_window_cells`), with no `Window`, and one
grid numbering Q_T in the scan order's orientation: the family, read off
the patterns' anchor columns cut by each phase's half-plane
(`pattern_columns`) and built column by column, in family order with no
sort, each member a mask; the forced part, the
members whose masks meet the frame; the free zone, as a mask; and the
glued family, the forced part plus the members lying in the free zone,
whose occupancy tells whether they overlap.  The library constructions
are one list (`_best_construction`): the glued family, the wetting fill
and the forced part alone, which is always admissible.  The pattern
library returns their best and the solver starts from it.  Every use of
the family keeps only members that meet the frame or lie in the free
zone, both in Q_T, so the family build covers Q_T and no more.  Neither
sweeps the lattice: each construction is priced on the set-up masks
(`_q_t_energy`, with the odd-T half cells read from T) by the lattice
energies' side count and covered area (`free_sides`, `covered_area`), a
solve reads its search grid's root state off them, one shift and mask
per line, and each validates one configuration, its result.  The wetting
fill is the forced part, one row of mirror-species molecules lying in the
inner square (`_wetting_chain`), and the family members that still fit.

The search is one loop over an explicit stack of nodes, so its depth is
not capped by the interpreter's recursion limit.  A truncated solve
reports an interval [lower, value]: once the budget is spent the same loop
keeps walking the stack, pricing each child that its nodes had not opened
and folding the child's bound into `lower` without descending into it, so
`lower` is the least of those bounds, capped by the incumbent and never
below the root bound.  Exhausted solves pay nothing for it.

Searches are deterministic for fixed inputs and node budgets; everything
else here is pure, so concurrent invocation is safe.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Callable, Iterable

from .molecules import (
    Cell,
    Configuration,
    InvalidInput,
    Molecule,
    OverlapError,
    R,
    R_LIKE,
    S,
    configuration_to_jsonable,
    covered_area,
    argument,
    decode_entry,
    free_sides,
    json_int,
    json_rational,
    label,
    pair,
    pattern_columns,
    phase_shape,
    validate,
)
from .placements import GridSpec, PlacementGrid, _rim

SURFACE = "surface"
VOLUME = "volume"

_MOLECULE_EDGES = 10  # boundary edges of a lone R or S molecule

DEFAULT_BUDGET = 5_000_000  # search nodes per `solve_interface` call


class InfeasibleBoundary(InvalidInput):
    """The prescribed boundary family is itself inconsistent (overlaps)."""


class NoPattern(LookupError):
    """No library pattern or combination covers the requested problem."""


class ClusterCapExceeded(RuntimeError):
    """Cluster size exceeds the configured cap."""


# -------------------------------------------------------------------
# Directions and problems
# -------------------------------------------------------------------

@dataclass(frozen=True)
class Direction:
    """A coprime integer normal (p, q) for a rational interface direction."""

    p: int
    q: int

    def __post_init__(self):
        json_int("direction component", self.p)
        json_int("direction component", self.q)
        if self.p == 0 and self.q == 0:
            raise InvalidInput("direction cannot be zero")
        if math.gcd(abs(self.p), abs(self.q)) != 1:
            raise InvalidInput("direction components must be coprime")

    @property
    def norm_inf(self) -> int:
        return max(abs(self.p), abs(self.q))

    @property
    def norm_l1(self) -> int:
        return abs(self.p) + abs(self.q)

    def __neg__(self) -> "Direction":
        return Direction(-self.p, -self.q)

    def as_tuple(self) -> tuple[int, int]:
        return (self.p, self.q)


def direction(p: int, q: int) -> Direction:
    """The primitive direction of the integer vector (p, q)."""
    g = math.gcd(json_int("direction component", p), json_int("direction component", q))
    if g == 0:
        raise InvalidInput("direction cannot be zero")
    return Direction(p // g, q // g)


def oriented(i: int, j: int, nu: tuple[int, int]) -> tuple[int, int, tuple[int, int]]:
    """The one key of the interface (i, j, nu), smaller label first.

    Phase i lies on the side x . nu > 0 and phase j on x . nu < 0, so for
    i != j the triples (i, j, nu) and (j, i, -nu) name one interface, and
    f(i, j, nu) = f(j, i, -nu).  Every table, pattern and segment keyed by
    an interface is keyed through this function.  Both labels are read by
    `label` and the normal by `pair`, so a float or a bool, a label out of
    0..8 or a normal that is not a pair of ints raises InvalidInput.
    """
    label("phase label", i)
    label("phase label", j)
    p, q = pair("normal", nu)
    if i < j:
        return i, j, (p, q)
    return j, i, (-p, -q)


@dataclass(frozen=True)
class InterfaceProblem:
    i: int
    j: int
    nu: Direction
    T: int
    weights: tuple[Fraction, Fraction] = (Fraction(1), Fraction(1))
    energy_kind: str = SURFACE

    def __post_init__(self):
        if label("phase label", self.i) == label("phase label", self.j):
            raise InvalidInput("interface problems need distinct phases")
        if json_int("T", self.T) < 8:
            raise InvalidInput("T must be at least 8 so the frame fits")
        argument("nu", self.nu, Direction)
        if self.energy_kind not in (SURFACE, VOLUME):
            raise InvalidInput("energy_kind must be 'surface' or 'volume'")
        object.__setattr__(self, "weights", pair("weights", self.weights, json_rational))
        if self.weights[0] <= 0 or self.weights[1] <= 0:
            raise InvalidInput("weights must be positive")


@dataclass
class SolveResult:
    value: Fraction
    config: Configuration
    certificate: str  # "exact" | "upper_bound"
    nodes_explored: int
    # a proven lower bound on the optimum; equal to value when exact.  On
    # truncation it is the least bound over the children that the search
    # had not opened, capped by the incumbent, and at least `root`, the
    # bound at the root.  Neither is serialised, so outputs do not change
    # with the bounds.
    lower: Fraction
    root: Fraction

    def to_jsonable(self) -> dict:
        return {
            "value": str(self.value),
            "certificate": self.certificate,
            "nodes_explored": self.nodes_explored,
            "config": configuration_to_jsonable(self.config),
        }


# -------------------------------------------------------------------
# Boundary families
# -------------------------------------------------------------------

def _family_members(i: int, j: int, nu: Direction, cells: tuple[range, range]) -> list[Molecule]:
    """All family molecules with a cell in xs x ys, for the integer cell
    ranges cells = (xs, ys), in (shape name, anchor) order.

    A phase-i molecule belongs when it meets {x . nu > 2} and a phase-j
    molecule when it meets {x . nu < -2}, with nu used as the unit vector
    (p, q)/sqrt(p^2+q^2).  Over a molecule's closed cells p x + q y is an
    integer at its extreme, so it exceeds 2 |nu| iff it exceeds
    isqrt(4 (p^2 + q^2)): each phase is `pattern_columns` cut by that
    half-plane, with (p, q) negated for phase j.  Each phase's columns come
    in anchor order, so no sort is needed: two phases of different shapes
    are joined in name order, and two of one shape, whose columns are the
    same, are merged column by column by b.
    """
    p, q = nu.p, nu.q
    c = math.isqrt(4 * (p * p + q * q))
    runs = [  # (shape, [(a, bs), ...]) for each phase, in anchor order
        (phase_shape(lab), pattern_columns(lab, cells, (sign * p, sign * q, c)))
        for lab, sign in ((i, 1), (j, -1)) if lab != 0
    ]
    if i and j:  # two phases, one run each
        (first, ours), (second, theirs) = runs
        if first is second:
            runs = [(first, [(a, heapq.merge(x, y)) for (a, x), (_, y) in zip(ours, theirs)])]
        elif first.name > second.name:
            runs.reverse()
    return [Molecule(shape, (a, b)) for shape, columns in runs for a, bs in columns for b in bs]


# -------------------------------------------------------------------
# Frame geometry
# -------------------------------------------------------------------

def _window_cells(T: int) -> range:
    """Cell indices of Q_T: cell (a, b) meets the open square iff a and b
    are both in the range, that is -T - 2 < 2a < T and likewise for b."""
    return range(-((T + 1) // 2), (T - 1) // 2 + 1)


def _inner(T: int) -> range:
    """Cell indices of the inner square: cell (a, b) lies in the closed
    concentric square of side T - 8 iff a and b are both in the range."""
    return range(-((T - 8) // 2), (T - 10) // 2 + 1)


def _frame_test(T: int) -> Callable[[Molecule], bool]:
    """The test at T of whether a molecule intersects the open frame collar
    of Q_T, with its cell ranges built once for every molecule.  A molecule
    does iff one of its cells meets Q_T outside the inner square, wherever
    the molecule lies."""
    window, inner = _window_cells(T), _inner(T)
    def meets(m: Molecule) -> bool:
        for a, b in m.cells():
            if a in window and b in window and not (a in inner and b in inner):
                return True
        return False
    return meets


def _forced_part(frame: Iterable[Molecule], prob: InterfaceProblem) -> Configuration:
    """The family members meeting the frame, validated."""
    try:
        return validate(frame)
    except OverlapError as exc:
        raise InfeasibleBoundary(
            f"boundary family ({prob.i},{prob.j},{prob.nu.as_tuple()}) forces "
            f"overlapping molecules on the frame of Q_{prob.T}: {exc}"
        ) from exc


def _occupancy(members: Iterable[Molecule], masks: Iterable[int]) -> tuple[int, int] | None:
    """(occ_R, occ_S), the ORs of the R-like and S-like members' masks, or
    None when two members overlap: their OR then has under 4 bits a mask."""
    occ, bits = [0, 0], 0  # S-like and R-like cells, and 4 bits a member
    for m, mask in zip(members, masks):
        occ[m.shape.chirality_class == R_LIKE] |= mask
        bits += 4
    return (occ[1], occ[0]) if (occ[0] | occ[1]).bit_count() == bits else None


def _set_up(prob: InterfaceProblem) -> tuple:
    """(family, forced part, glued family, placed, grid, occ_R, occ_S,
    free): the set-up that the solver and the pattern library share, from
    one family build on Q_T's integer cell range (`_window_cells`), as
    masks over one grid; no `Window` is built.

    The grid numbers Q_T padded by the shapes' reach, in the scan order's
    orientation, so it holds every member, which meets Q_T; each member's
    mask is its shape's template shifted once.  The forced part is the
    members whose masks meet the frame, Q_T less the inner square; occ_R
    and occ_S mark its R-like and S-like cells (`_occupancy`), and only if
    they overlap does `_forced_part` validate it, to report the first
    overlap.  The free zone `free` is the inner square less the forced
    cells, and a member lies in it iff its mask misses the complement.

    The glued family is the forced part plus the members lying in the free
    zone, in family order: the boundary family continued through Q_T.  It
    realizes the documented interface patterns: for (i, 0) problems the
    striped half plane with its staircase profile; for mixed pairs the two
    half families glued, meeting flush along the anti-diagonal seams that
    admit meshing and leaving an empty gap elsewhere (the constructive
    form of the subadditive bound).  Its interior members are free
    placements of the solver, so it is a leaf and a library construction
    (`_best_construction`); it overlaps exactly when two of them do, when
    their occupancy `placed` is None.
    """
    T = prob.T
    square = _window_cells(T)
    members = _family_members(prob.i, prob.j, prob.nu, (square, square))
    grid = PlacementGrid(_scan_order(prob, square), (R, S))
    inner, h = grid.order_bits, grid.height  # Q_T, peeled to the inner square a ring a pass
    for _ in range(len(square) - len(_inner(T)) >> 1):
        inner &= inner << 1 & inner >> 1 & inner << h & inner >> h
    frame = grid.order_bits & ~inner
    masks = grid.masks(members)
    framed = [bits & frame for bits in masks]  # nonzero iff the member meets the frame
    forced = list(compress(members, framed))
    occ = _occupancy(forced, compress(masks, framed))
    if occ is None:
        _forced_part(forced, prob)  # raises InfeasibleBoundary
    occ_R, occ_S = occ
    free = inner & ~(occ_R | occ_S)
    outside = ~free
    inside = [not bits & outside for bits in masks]
    glued = [m for m, f, i in zip(members, framed, inside) if f or i]
    placed = _occupancy(compress(members, inside), compress(masks, inside))
    return members, forced, glued, placed, grid, occ_R, occ_S, free


def _matches_frame(config: Configuration, forced: Iterable[Molecule], T: int) -> bool:
    """Are the molecules of config meeting the frame exactly those of forced?"""
    meets = _frame_test(T)
    actual = {(m.shape.name, m.anchor) for m in config.molecules if meets(m)}
    return actual == {(m.shape.name, m.anchor) for m in forced}


def admissible(config: Configuration, prob: InterfaceProblem) -> bool:
    """Exact frame matching: molecules meeting the frame are the family's.

    Equality (not mere containment) is required in both directions; the
    interior is free.  The family's molecules meeting the frame are the
    forced part of `_set_up`, which raises InfeasibleBoundary if they
    overlap.
    """
    argument("config", config, Configuration)
    return _matches_frame(config, _set_up(argument("prob", prob, InterfaceProblem))[1], prob.T)


def _units(prob: InterfaceProblem) -> tuple[int, int, int]:
    """(scale, w_R, w_S): a solve's unit 1/scale, and c_R and c_S in it.
    At odd T, Q_T halves its outer cells (an edge along an outer line is
    clipped to 1/2, a corner cell to 1/4 of its area), so the scale is
    lcm(c_R.denominator, c_S.denominator), doubled at odd T, or for volume
    energies, which price no edge, 4 at odd T and 1 at even T."""
    odd = prob.T & 1
    if prob.energy_kind == VOLUME:
        return (4 if odd else 1), 0, 0
    c_R, c_S = prob.weights
    scale = math.lcm(c_R.denominator, c_S.denominator) << odd
    return scale, c_R.numerator * scale // c_R.denominator, c_S.numerator * scale // c_S.denominator


def _q_t_energy(
    prob: InterfaceProblem, units: tuple[int, int, int], grid: PlacementGrid, occ_R: int, occ_S: int
) -> int:
    """The lattice sweep's Q_T energy of the configuration whose R-like and
    S-like cells are occ_R and occ_S on the set-up grid, as an int in the
    `units` of `_units`: the sides of its cells in Q_T that face an empty
    cell of Q_T (`free_sides`), weighed, or T^2 less the area covered
    (`covered_area`).  Q_T is a square about the origin, so at odd T its
    four outer lines lie half in it: they are cut lines of clip 1/2, in
    unit 2.  Read from T, with no `Window`."""
    scale, w_R, w_S = units
    q_t, h, odd = grid.order_bits, grid.height, prob.T & 1
    ends = q_t & ~(q_t << 1 & q_t >> 1)  # the first and last cell of each line
    sides = q_t & ~(q_t << h & q_t >> h)  # the first and last line
    lines = [(0, -1, sides), (1, -1, ends)] if odd else []
    occ_R, occ_S = occ_R & q_t, occ_S & q_t
    if prob.energy_kind == VOLUME:
        return scale * prob.T ** 2 - covered_area(occ_R | occ_S, lines, 1 + odd)
    r, s = free_sides((occ_R, occ_S), q_t & ~(occ_R | occ_S), h, lines, 1 + odd)
    return (w_R * r + w_S * s) >> odd  # exact: every weight is even at odd T


# -------------------------------------------------------------------
# Branch and bound
# -------------------------------------------------------------------

def _scan_order(prob: InterfaceProblem, square: range) -> GridSpec:
    """The grid spec of the square square x square: columns bottom to top,
    swept left to right if p q < 0, else right to left.

    For the diagonals the sweep starts at the bottom corner that the seam
    line x . nu = 0 passes through, so the first columns decided hold both
    phases and the seam between them: the line bound then sees unlike
    column ends early, and a wrong seam is refuted before the bulk is
    filled.  The rule depends on nu only through the sign of p q, so nu
    and -nu (a problem and its mirror) are searched in the same order.
    """
    sx = 1 if prob.nu.p * prob.nu.q < 0 else -1
    return (square[0] if sx > 0 else square[-1], square[0]), (0, 1), (sx, 0), len(square), len(square)


def _runs(decided: int, occ: int, lines: int) -> int:
    """The runs of undecided cells between decided cells of unlike
    occupancy along the lines of a board, whose cells are `lines` and each
    of whose lines starts and ends on a decided cell: adding 1 at the start
    of a run that follows an occupied cell carries through the run into
    the decided cell after it, and no carry leaves its line."""
    unknown = lines & ~decided
    fill = unknown + ((decided & occ & (unknown >> 1)) << 1)
    return ((fill ^ occ) & decided & (unknown << 1)).bit_count()


def _transposed(bits: int, width: int) -> int:
    """The board `bits` of a square grid of `width` lines of `width` cells
    transposed: cell r of line c, bit c * width + r, moves to bit
    r * width + c.  Read as bit digits lowest first, the transpose is the
    digits taken with stride `width` from each of the first `width`."""
    digits = format(bits, f"0{width * width}b")[::-1]
    return int("".join(digits[r::width] for r in range(width))[::-1], 2)


def solve_interface(prob: InterfaceProblem, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Minimize the Q_T energy over admissible configurations.

    Branch and bound over the cells of the free zone (the inner square's
    cells that the forced part leaves empty) in scan order (`_scan_order`:
    columns bottom to top, swept from the bottom corner the seam line
    passes through for the diagonals, which puts both phases and the seam
    into the first columns, where the line bound sees unlike column ends
    at once); each cell is either covered by one of the free molecules,
    those lying in the free zone, or left empty.  The search is one loop
    over an explicit stack, so its depth is not capped by the recursion
    limit: each pass prices the top node's next child, one of its
    placements or else the empty branch, and opens it.  The certificate is
    exact iff the search tree was exhausted within the node budget;
    otherwise the best configuration found is returned as an upper bound.
    The budget is checked before each child is opened, so `nodes_explored`
    never exceeds it, and a tree of exactly `budget` nodes is still
    exhausted.  Deterministic for fixed inputs and budgets.

    Each node carries one cost, and a leaf's value is its cost.  For
    surface energies the cost is the weighted length of the boundary edges
    whose two cells are both decided; it can only grow because the weights
    are positive.  Cells outside the free zone are decided from the start,
    and every edge that meets a free cell has both cells in the inner
    square or its ring, inside Q_T.  So at a leaf, where every cell is
    decided, the cost has counted every boundary edge of the configuration
    in Q_T exactly once: it is the energy.  For volume energies the cost
    is the deficit, lowered by one molecule area per placement.

    A node is pruned when its bound reaches best.  For surface energies
    the bound is cost + line: line counts, in every row and column of the
    inner square plus a one-cell ring (ring cells lie in the frame, so
    they are always decided), the runs of undecided cells whose two
    decided ends differ in occupancy, each at the least weight
    min(c_R, c_S).  Along such a run the occupancy must change across
    some edge; that edge has an undecided cell, so the cost has not
    counted it, and it lies in one line only.  The root and every node
    hold their decided and occupied cells on both halves of one int, the
    search square and its transpose (`_transposed`) above it, so rows are
    lines of the upper half and one carry along the lines of both halves
    (`_runs`) counts the runs of both; a placement's and an empty cell's
    bits are set on both halves, and the placements, the neighbour costs
    and the next cell read the low half.  For volume energies the bound
    is the cost minus one molecule area per four undecided cells.
    Both bounds are admissible, and since the scan order is fixed an
    exhausted search returns the first optimal leaf in scan order, or the
    incumbent, whatever the bound.

    Dead cells: a free cell that no free placement covers is empty in
    every leaf.  When the root bound is below the incumbent, the root
    decides each dead cell empty, on both halves, and charges its edges to
    the forced cells at c_R or c_S, by their class, as the empty branch
    does; then it counts its bound again with the same `bound`.  If that reaches
    the incumbent, the solve returns at the root with no node.  The dead
    cells leave every leaf, and so every result, as it was; only the
    bounds rise.  `root` is the bound at the root, counted with the dead
    cells decided wherever the placements were enumerated; where they
    were not, the plain bound already reaches the value, and so does the
    recount.
    `lower` is the value when the certificate is exact.  Once the budget
    is spent the loop goes on walking the stack without opening anything:
    it prices each child that the nodes on the stack had not opened and
    folds its bound into `lower`, which is the least of those bounds,
    capped by the incumbent and at least `root`, since every leaf below an
    opened child was priced or pruned against the incumbent.

    Set-up, shared with `pattern_upper_bound` (`_set_up`): one family
    build, as masks over one grid of Q_T.  Every price is an int in the
    unit of `_units`.  The first incumbent is the pattern library's best
    construction (`_best_construction`), priced on those masks by its Q_T
    energy as a leaf is, and the root cost is the forced part's energy
    `base` less the forced sides facing free cells (`free_sides`).  The
    search grid's free zone and
    forced occupancy are cropped from the set-up masks, and its two root
    boards transposed once; its free placements are enumerated, and its
    dead cells decided, only when the root bound is below the incumbent,
    and the placements' shapes are transposed only when the recount is
    too; and molecules are built and validated once, for the result.
    """
    if json_int("budget", budget) < 1:
        raise InvalidInput("budget must be at least 1")
    set_up = _set_up(argument("prob", prob, InterfaceProblem))
    _, forced, _, _, grid, occ_R, occ_S, free = set_up
    volume = prob.energy_kind == VOLUME

    # Energies are integers in units of 1/scale (`_units`), so the search
    # never touches a Fraction.
    units = scale, w_R, w_S = _units(prob)
    base, best_val, best_cfg = _best_construction(prob, set_up, units)
    w_min = min(w_R, w_S)
    molecule_area = 4 * scale if volume else 0  # a surface energy prices edges alone

    # COST: for surface energies, the weighted length of the boundary
    # edges both of whose cells are decided.  It starts at `base` minus
    # the forced boundary edges that face a free cell, whose far side is
    # not decided yet.  For volume energies, whose weights are 0, it is the
    # deficit itself.
    r, s = free_sides((occ_R, occ_S), free, grid.height, [], 1)
    cost0 = base - w_R * r - w_S * s

    # incumbents: the best library construction, then the forced part and
    # placements of a leaf, whose molecules are built for the result
    best_placed = []

    # The search grid: the inner square and its one-cell ring, in the
    # set-up grid's orientation, with no margin (order cell k has bit k),
    # its placements the free molecules.  State: decided cells and the
    # cells occupied by R-like and S-like molecules, read on order cells.
    inner = _inner(prob.T)
    spec = _scan_order(prob, range(inner.start - 1, inner.stop + 1))
    free_bits, occ_R0, occ_S0 = grid.crop(spec, free, occ_R, occ_S)
    table = PlacementGrid(spec, (R, S), free_bits)
    n = table.n

    # LINE: each line of the search square (bits 0..n-1) and of its
    # transpose above it (bits n..2n-1) starts and ends on a ring cell,
    # which is always decided, so no carry of `_runs` crosses a line or
    # the seam between the halves.
    width = spec[3]
    both = (1 << 2 * n) - 1

    def doubled(bits: int) -> int:
        """The board `bits` of the search square with its transpose above it."""
        return bits | _transposed(bits, width) << n

    def bound(decided: int, occ: int, cost: int) -> int:
        """A lower bound on the value of every leaf below the node."""
        if volume:
            return cost - molecule_area * ((free_bits & ~decided).bit_count() // 4)
        return cost + w_min * _runs(decided, occ, both)

    nodes = 0
    exhausted = True
    cut = best_val  # on truncation, the least bound over the unopened children

    # A frame is [decided, occ_R, occ_S, occ, cost, i, untried, placed]: a
    # node's state (decided and occ, the cells of either occupancy, on both
    # halves; occ_R and occ_S on the low half), its first undecided cell
    # i, an iterator over the placements whose first cell is i not tried
    # yet (None once the empty branch is open) and the placement made to
    # reach the node.
    decided0, occ0 = doubled(table.all_bits & ~free_bits), doubled(occ_R0 | occ_S0)
    root_bound = bound(decided0, occ0, cost0)
    stack = []
    # a root with every cell decided, before or after its dead cells, is a
    # leaf whose bound is its cost, the forced part's energy, which no
    # incumbent exceeds; so a root whose bound is below the incumbent has an
    # undecided cell
    if root_bound < best_val:  # the root leaves a search: build its placements
        placements, by_first = table.placements, table.by_first
        # DEAD CELLS: a free cell that no free placement covers is empty in
        # every leaf, so the root decides it empty, charging its edges to
        # occupied cells as the empty branch does, and counts its bound again
        covered = 0
        for p in placements:
            covered |= p.mask
        dead = free_bits & ~covered
        if dead:
            r, s = free_sides((occ_R0, occ_S0), dead, width, [], 1)
            cost0 += w_R * r + w_S * s
            decided0 |= doubled(dead)
            root_bound = bound(decided0, occ0, cost0)
    if root_bound < best_val:  # the recount leaves a search too
        neighbors = table.neighbors
        # flip[k]: the upper bit of cell k, n + r * width + c for cell r of
        # line c.  A placement's doubled mask is its mask with its shape's
        # transposed template shifted above it, each template transposed once.
        flip = [k for c in range(n, n + width) for k in range(c, 2 * n, width)]
        transposed, doubled_masks = {}, []
        for p in placements:
            mask = p.mask
            k = (mask & -mask).bit_length() - 1
            template = mask >> k
            if template not in transposed:
                upper = _transposed(mask, width) << n
                low = (upper & -upper).bit_length() - 1
                transposed[template] = upper >> low, low - flip[k]
            upper, lift = transposed[template]
            doubled_masks.append(mask | upper << flip[k] + lift)
        i = (~decided0 & (decided0 + 1)).bit_length() - 1  # lowest clear bit
        stack.append([decided0, occ_R0, occ_S0, occ0, cost0, i, iter(by_first[i]), None])
    while stack:
        frame = stack[-1]
        decided, occ_R, occ_S, occ, cost, i, untried, _ = frame
        if untried is None:
            stack.pop()
            continue
        # the next child: cover cell i with the next feasible placement
        for p in untried:
            if p.mask & decided:
                continue
            placed = p
            mask = doubled_masks[p.index]
            if volume:
                cost -= molecule_area
            else:
                # the molecule's edges to decided empty cells are boundary
                # now; those to undecided cells count when they are decided
                empty = p.contacts(decided & ~occ)
                if p.shape.chirality_class == R_LIKE:
                    occ_R |= p.mask
                    cost += w_R * empty
                else:
                    occ_S |= p.mask
                    cost += w_S * empty
                occ |= mask
            decided |= mask
            break
        else:
            # or leave it empty: its edges to occupied decided cells are
            # boundary now
            frame[6] = placed = None
            if not volume:
                nbrs = neighbors[i]
                cost += w_R * (nbrs & occ_R).bit_count() + w_S * (nbrs & occ_S).bit_count()
            decided |= 1 << i | 1 << flip[i]
        if nodes >= budget:
            exhausted = False
            cut = min(cut, bound(decided, occ, cost))
            continue
        nodes += 1
        # the low half is decided first, so a clear bit at n or above is a leaf
        i = (~decided & (decided + 1)).bit_length() - 1
        if i >= n:
            if cost < best_val:
                best_val, best_cfg = cost, forced
                best_placed = [*(f[7] for f in stack), placed]  # None: an empty branch
        elif bound(decided, occ, cost) < best_val:
            stack.append([decided, occ_R, occ_S, occ, cost, i, iter(by_first[i]), placed])

    if exhausted:
        lower = best_val
    else:
        # every leaf below an opened child was priced or pruned against an
        # incumbent no better than best_val; the root bound holds as well
        lower = max(root_bound, min(cut, best_val))

    return SolveResult(
        value=Fraction(best_val, scale),
        config=validate([*best_cfg, *(p.molecule for p in best_placed if p is not None)]),
        certificate="exact" if exhausted else "upper_bound",
        nodes_explored=nodes,
        lower=Fraction(lower, scale),
        root=Fraction(root_bound, scale),
    )


def normalized_density(prob: InterfaceProblem, result: SolveResult | DensityRecord) -> Fraction:
    """max(|p|, |q|) * value / T: the finite-T one-homogeneous estimate."""
    norm = argument("prob", prob, InterfaceProblem).nu.norm_inf
    return Fraction(norm) * argument("result", result, (SolveResult, DensityRecord)).value / prob.T


@dataclass(frozen=True)
class DensityRecord:
    """One row of the density table emitted by solver runs."""

    i: int
    j: int
    p: int
    q: int
    T: int
    energy_kind: str
    c_R: Fraction
    c_S: Fraction
    value: Fraction
    phi_hat: Fraction
    certificate: str
    nodes: int

    CSV_COLUMNS = (
        "i,j,p,q,T,energy_kind,c_R,c_S,value,phi_hat,certificate,nodes"
    )

    def csv_row(self) -> str:
        return ",".join(
            str(v)
            for v in (
                self.i, self.j, self.p, self.q, self.T, self.energy_kind,
                self.c_R, self.c_S, self.value, self.phi_hat,
                self.certificate, self.nodes,
            )
        )

    @classmethod
    def from_csv_row(cls, line: str) -> "DensityRecord":
        """Inverse of csv_row; raises InvalidInput on a malformed row.

        A row must state a valid `InterfaceProblem`, a known certificate,
        a nonnegative value and node count, and the phi_hat that
        `normalized_density` gives its value.
        """
        f = line.split(",")
        if len(f) != 12:
            raise InvalidInput(f"density row needs 12 fields, got {len(f)}: {line!r}")

        def decode(f: list[str]) -> DensityRecord:
            rec = cls(
                int(f[0]), int(f[1]), int(f[2]), int(f[3]), int(f[4]), f[5],
                Fraction(f[6]), Fraction(f[7]), Fraction(f[8]), Fraction(f[9]),
                f[10], int(f[11]),
            )
            prob = InterfaceProblem(
                rec.i, rec.j, Direction(rec.p, rec.q), rec.T, (rec.c_R, rec.c_S),
                rec.energy_kind,
            )
            if rec.certificate not in ("exact", "upper_bound"):
                raise InvalidInput(
                    f"certificate must be 'exact' or 'upper_bound', not {rec.certificate!r}"
                )
            if rec.value < 0 or rec.nodes < 0:
                raise InvalidInput("value and nodes must be nonnegative")
            expected = normalized_density(prob, rec)
            if rec.phi_hat != expected:
                raise InvalidInput(
                    f"phi_hat {rec.phi_hat} is not max(|p|, |q|) * value / T = {expected}"
                )
            return rec

        return decode_entry(f"density row {line!r}", decode, f)


def density_table(records: Iterable[DensityRecord], manifest: dict, header: bool = True) -> str:
    """The density table as text: the run manifest as a one-line
    `# manifest: {...}` comment, the CSV_COLUMNS header, then one row per
    record.  Without the header it is the section that a run appends to an
    existing table."""
    head = f"# manifest: {json.dumps(manifest, sort_keys=True)}\n"
    if header:
        head += f"{DensityRecord.CSV_COLUMNS}\n"
    return head + "".join(rec.csv_row() + "\n" for rec in records)


def read_density_table(text: str) -> list[DensityRecord]:
    """The records of a density table, skipping blank lines, `#` comments
    and header lines; raises InvalidInput on a malformed row."""
    return [
        DensityRecord.from_csv_row(line)
        for line in text.splitlines()
        if line and not line.startswith(("#", "i,"))
    ]


def density_record(prob: InterfaceProblem, result: SolveResult) -> DensityRecord:
    argument("prob", prob, InterfaceProblem)
    argument("result", result, SolveResult)
    return DensityRecord(
        prob.i, prob.j, prob.nu.p, prob.nu.q, prob.T, prob.energy_kind,
        prob.weights[0], prob.weights[1], result.value,
        normalized_density(prob, result), result.certificate,
        result.nodes_explored,
    )


# -------------------------------------------------------------------
# Pattern library
# -------------------------------------------------------------------

def _wetting_chain(prob: InterfaceProblem) -> list[Molecule]:
    """The mirror-species row of the wetting microstructure, its molecules
    that lie in the inner square of Q_T, in anchor order.

    A sparse opposite-chirality chain along a diagonal empty interface: for
    the oriented problem (0, i, (1, -1)) with i an R phase, the striped
    phase is retracted and its staircase teeth are capped, every other
    notch, by a single S molecule at (2t + 1, 2t - 2 + c), c = (i - 1) mod
    4 (the offset shifts the baseline of phase 1 vertically); the exposed
    boundary per unit of interface becomes c_R + 3 c_S instead of 2 c_R,
    which wins when 3 c_S < c_R.  For an S phase i and (0, i, (-1, -1))
    the mirror row, R at (-(2t + 1), 2t - 2 + c), applies with the weights
    exchanged.  The retracted phase-i teeth, caps and bulk are family
    members, so `_wetting_fill` adds them after the row; it keeps the row
    strictly inside the frame, so admissibility is untouched, and where
    the forced frame molecules cut across the seam the plain family fills
    in.  Only a molecule lying in the inner square can join the fill, so
    only those are returned.  Raises NoPattern elsewhere.
    """
    zero, i, nu = oriented(prob.i, prob.j, prob.nu.as_tuple())
    mirrored = zero == 0 and phase_shape(i) is S
    if zero != 0 or nu != ((-1, -1) if mirrored else (1, -1)):
        raise NoPattern("wetting pattern covers (0, R phase, (1, -1)) and (0, S phase, (-1, -1))")
    c = (i - 1) % 4
    inner = _inner(prob.T)
    ts = range(inner.start // 2 - 1, inner.stop // 2 + 1)  # every t whose molecule can lie in it
    shape, sign, ts = (R, -1, ts[::-1]) if mirrored else (S, 1, ts)
    row = (Molecule(shape, (sign * (2 * t + 1), 2 * t - 2 + c)) for t in ts)
    return [m for m in row if all(a in inner and b in inner for a, b in m.cells())]


def _wetting_fill(
    chain: list[Molecule], members: list[Molecule], forced: list[Molecule],
    grid: PlacementGrid, free: int,
) -> tuple[list[Molecule], tuple[int, int]]:
    """The forced part, then each chain and family molecule that still
    fits, with (occ_R, occ_S), the R-like and S-like cells of the
    molecules it adds on the set-up grid.

    Both lists come in (shape name, anchor) order, each molecule once.  A
    molecule fits when its mask on the set-up grid lies in what is left
    of the free zone, the bits `free`, after the molecules accepted before
    it; the family fills in where the forced collar cuts the chain.
    """
    mols, occ = list(forced), [0, 0]  # S-like and R-like cells
    for group in (chain, members):
        for m, bits in zip(group, grid.masks(group)):
            if not bits & ~free:
                free ^= bits
                mols.append(m)
                occ[m.shape.chirality_class == R_LIKE] |= bits
    return mols, (occ[1], occ[0])


def _best_construction(prob: InterfaceProblem, set_up: tuple, units: tuple) -> tuple:
    """(base, value, molecules): the Q_T energy of the forced part alone,
    the solver's root cost, and the least Q_T energy over the library
    constructions with that construction's molecules, in `units`.

    The constructions are the glued family (unless its free members
    overlap), the wetting fill (where `_wetting_chain` applies) and the
    forced part alone, which is always admissible; ties go in that order.
    Each is priced once on the set-up masks (`_q_t_energy`), the forced
    part first, and none is validated.
    """
    members, forced, glued, placed, grid, occ_R, occ_S, free = set_up
    base = _q_t_energy(prob, units, grid, occ_R, occ_S)
    # each construction: its molecules and the cells it adds to the forced part's
    candidates = [] if placed is None else [(glued, placed)]
    try:
        candidates.append(_wetting_fill(_wetting_chain(prob), members, forced, grid, free))
    except NoPattern:
        pass
    priced = [(_q_t_energy(prob, units, grid, occ_R | r, occ_S | s), mols) for mols, (r, s) in candidates]
    return base, *min([*priced, (base, forced)], key=lambda t: t[0])


def pattern_upper_bound(
    i: int,
    j: int,
    nu: Direction,
    T: int = 16,
    weights: tuple = (1, 1),
) -> tuple[Fraction, Configuration]:
    """Best library construction for the problem, with its exact energy.

    The construction is `_best_construction`'s, the solver's starting
    incumbent; only it is built, validated and checked against the frame.
    Returns its energy and it, an admissible configuration.  Raises
    InfeasibleBoundary exactly when the family's molecules meeting the
    frame overlap, as `_set_up` does.
    """
    prob = InterfaceProblem(i, j, nu, T, weights)
    set_up = _set_up(prob)  # one family build serves every candidate and the frame check
    units = _units(prob)
    _, value, mols = _best_construction(prob, set_up, units)
    cfg = validate(mols)
    if not _matches_frame(cfg, set_up[1], T):
        raise NoPattern("library construction failed the admissibility check")
    return Fraction(value, units[0]), cfg


# -------------------------------------------------------------------
# Small-cluster minimal perimeter
# -------------------------------------------------------------------

def cluster_min_perimeter(
    r: int, s: int, cap: int = 6
) -> tuple[Fraction, Configuration]:
    """Exact minimal boundary length of r R-molecules and s S-molecules.

    Exhaustive search over connected clusters (an optimal cluster is
    always edge-connected: translating a separated component until first
    contact shares at least one edge and lowers the perimeter).  Clusters
    grow from a seed at the origin by one placement touching the cluster,
    tried in (shape name, anchor) order, and each translation class of
    clusters is grown once.  A placement's rank is n times its shape's
    place in (R, S) plus its anchor's bit among the table's n cells, so a
    node's candidates are the set bits of an int over ranks: those covering
    a cell next to the cluster, less those overlapping it, joined as the
    cluster grows, so no candidate is tested for overlap.  A placement's
    masks and two rank sets are its shape's, built once at the origin,
    shifted to its anchor on first use.  A class is keyed by its occupancy
    mask shifted down to its lowest set bit, with its count of R
    molecules: the table's numbering is affine, so a translate has the
    same key, and since the cluster is edge-connected and shorter than a
    line of the table, the key gives back its cell union up to
    translation.  Two clusters with one key are decompositions
    of one cell union with equal counts, whose subtrees are identical, so
    growing the first alone keeps the first cluster of least perimeter in
    that order: its placements, whose molecules are built for the result.
    The growth is depth first on an explicit stack of clusters, each with
    the ranks it has still to try, so no recursion limit bounds the cap.

    The growth is a branch and bound.  A cell set whose bounding box is W
    wide and H high, and which meets every row and column of it (as an
    edge-connected set does), has perimeter at least 2(W + H): each row
    has a boundary edge at each end, and so has each column.  A grown
    cluster's box only widens, so the bound holds for every cluster grown
    from it.  Each cluster carries its box, from its placements' anchors
    and their shapes' cell extents, and a cluster whose bound reaches the
    incumbent is not grown.  The result is unchanged.  The incumbent
    changes only on a strict improvement, so no pruned cluster leads to a
    better one; and a class pruned on one visit is pruned on every later
    one, since its box has the same sides and the incumbent never rises.
    So the search grows the classes it grew without the bound, less the
    pruned ones, in the same order, and returns the same first cluster of
    least perimeter.
    """
    if json_int("r", r) < 0 or json_int("s", s) < 0 or r + s < 1:
        raise InvalidInput("need r + s >= 1 with nonnegative counts")
    if json_int("cap", cap) < 1:
        raise InvalidInput("cap must be at least 1")
    if r + s > cap:
        raise ClusterCapExceeded(f"cluster size {r + s} exceeds cap {cap}")
    total = r + s
    # a connected cluster grown from a seed at the origin stays within
    # 3 cells per molecule of it, so its halo cells are all order cells
    reach = 3 * total
    table = PlacementGrid(((-reach, -reach), (0, 1), (1, 0), 2 * reach + 1, 2 * reach + 1), (R, S))
    n, height = table.n, table.height
    # cell (x, y) has bit o + x * height + y, o at place oy of line oc;
    # ranks t * n + k run in (shape name, anchor) order, R's the low n bits
    o = (table.order_bits & -table.order_bits).bit_length() - 1 + reach * (height + 1)
    oc, oy = divmod(o, height)

    def bits(cells: Iterable[Cell]) -> int:
        return sum(1 << o + x * height + y for x, y in cells)

    def ranks_covering(cells: Iterable[Cell]) -> int:
        """Ranks of the placements covering a cell of `cells`: their anchors
        are those cells less the offset of one of their shape's cells."""
        return sum(bits({(x - a, y - b) for x, y in cells for a, b in shape.cells}) << t * n
                   for t, shape in enumerate((R, S)))

    # origin[t]: the shape of place t anchored at the origin, its cells' box
    # (x0, x1, y0, y1), its cells and the outside cells sharing one and two
    # edges with it as masks, and the ranks of the placements covering one
    # of those outside cells (near it) and one of its cells (overlapping it)
    origin = []
    for shape in (R, S):
        touch1, touch2 = _rim(shape)
        xs, ys = [x for x, _ in shape.cells], [y for _, y in shape.cells]
        origin.append((shape, (min(xs), max(xs), min(ys), max(ys)), bits(shape.cells), bits(touch1),
                       bits(touch2), ranks_covering(touch1 + touch2), ranks_covering(shape.cells)))
    # entries[rank]: its shape's origin entry moved to its anchor, on first use
    entries: dict[int, tuple] = {}
    r_ranks = (1 << n) - 1
    count_bits = r.bit_length()  # a key's low bits hold its R count

    # the incumbent, above any cluster's perimeter: at most its molecules'
    best_per, best_placed = _MOLECULE_EDGES * total + 1, ()
    seen: set[int] = set()
    # frames: (placements, occupancy, ranks near the cluster, ranks
    # overlapping it, perimeter, R count, bounding box (x0, x1, y0, y1),
    # ranks still to try).  Fixing the first molecule at the origin removes
    # translations; with mixed species both seeds are tried since the first
    # molecule of an optimal cluster can be either kind, so the seeds are
    # the candidates of the empty cluster, whose box is empty.
    seeds = (1 << n | 1) << o
    stack = [((), 0, 0, 0, 0, 0, (reach, -reach, reach, -reach), seeds)]
    while stack:
        placed, occ, cand, blocked, per, nr, box, rest = stack.pop()
        bx0, bx1, by0, by1 = box
        last = len(placed) + 1 == total
        # candidate placements: those covering a cell adjacent to the
        # cluster and none of its cells, of a species still short
        rest &= ~blocked & (
            (r_ranks if nr < r else 0) | (r_ranks << n if len(placed) - nr < s else 0)
        )
        while rest:
            low = rest & -rest
            rest ^= low
            rank = low.bit_length() - 1
            p = entries.get(rank)
            if p is None:
                t, k = divmod(rank, n)
                x, y = divmod(k, height)
                x, y = x - oc, y - oy
                shape, (ex0, ex1, ey0, ey1), *masks = origin[t]
                p = entries[rank] = (shape, (x, y), (x + ex0, x + ex1, y + ey0, y + ey1),
                                     *(m << k >> o for m in masks))
            shape, _, (x0, x1, y0, y1), mask, touch1, touch2, near, over = p
            if last:
                # a repeated class ties with its first visit, so complete
                # clusters are not keyed
                grown_per = per + _MOLECULE_EDGES - 2 * (
                    (touch1 & occ).bit_count() + 2 * (touch2 & occ).bit_count())
                if grown_per < best_per:
                    best_per, best_placed = grown_per, (*placed, p)
                continue
            # the grown box; a cluster whose box bound reaches the
            # incumbent is not grown
            if x0 > bx0:
                x0 = bx0
            if x1 < bx1:
                x1 = bx1
            if y0 > by0:
                y0 = by0
            if y1 < by1:
                y1 = by1
            if 2 * (x1 - x0 + y1 - y0 + 2) >= best_per:
                continue
            grown = occ | mask
            grown_nr = nr + (shape is R)
            key = (grown >> (grown & -grown).bit_length() - 1) << count_bits | grown_nr
            if key in seen:
                continue
            seen.add(key)
            grown_per = per + _MOLECULE_EDGES - 2 * (
                (touch1 & occ).bit_count() + 2 * (touch2 & occ).bit_count())
            # depth first: this cluster's other candidates wait below the child
            stack.append((placed, occ, cand, blocked, per, nr, box, rest))
            grown_cand = cand | near
            stack.append((
                (*placed, p), grown, grown_cand, blocked | over,
                grown_per, grown_nr, (x0, x1, y0, y1), grown_cand,
            ))
            break

    return Fraction(best_per), validate(Molecule(shape, anchor) for shape, anchor, *_ in best_placed)
