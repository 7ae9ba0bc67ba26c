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
So the free zone of a problem is one cell set, the inner square's cells
that the forced part leaves empty (`_free_cells`), and a molecule is free
iff its cells all lie in it.  It is computed once per problem; the
solver's placement table, the glued pattern and the wetting fill all read
it.  The search over that region is an exhaustive branch and bound in scan
order.  Each node carries one cost: the deficit for volume energies, and
for surface energies the weighted length of the boundary edges whose two
cells are both decided.  The edges that miss every free cell are priced
once, clipped to Q_T, in the forced part's energy; an edge that meets a
free cell lies wholly inside Q_T and is counted when its second cell is
decided.  So at a leaf, where every free cell is decided, the cost is the
configuration's energy, and no separate energy is tracked.  The scan
order takes the inner square column by column, each bottom to top,
sweeping right to left unless p q < 0; for the diagonals the sweep starts
at the bottom corner that the seam line x . nu = 0 passes through, so the
seam is decided while few cells are, and a problem and its mirror
(j, i, -nu) are the same search.  Its lower bound for surface energies is the cost plus a
line-transition bound: in each row and column of the inner square and
its always-decided ring, every run of undecided cells between decided
cells of unlike occupancy must hold a boundary edge that is not
determined yet, and no edge lies in two lines, so each such run adds at
least min(c_R, c_S).  The bound is admissible, so exhaustive
results do not depend on it.  Cells are encoded as bits of int masks by
a shared placement table (`chiralattice.placements`) over the inner
square and its ring in scan order, which sweeps the square line by line;
the table is given the free zone, so it holds the free molecules only:
the line bound shifts the search's own masks along and across lines.
The search counts its cost in integer units of 1/scale, so all energies
stay exact rationals.

The solver and the pattern library share one glued construction, built
from one family build: the forced frame molecules plus the family
molecules that lie in the free zone (`_glued_part`).  It is the solver's
second incumbent after the forced part alone, and a `pattern_upper_bound`
candidate beside the wetting fill and the forced part alone, so a
feasible problem always has a bound.  The family build covers Q_T and no
more: the frame and the inner square both lie in Q_T, and every use of
the family keeps only members that meet the frame or lie in the free
zone, so a member missing Q_T is never used (`_near_family`).

Searches are deterministic for fixed inputs and node budgets; everything
else here is pure, so concurrent invocation is safe.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .molecules import (
    Cell,
    Configuration,
    InvalidInput,
    Molecule,
    OverlapError,
    R,
    R_LIKE,
    S,
    Window,
    configuration_to_jsonable,
    decode_entry,
    phase_pattern,
    phase_shape,
    validate,
    volume_deficit,
    weighted_perimeter,
)
from .placements import PlacementTable

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
    g = math.gcd(abs(p), abs(q))
    if g == 0:
        raise InvalidInput("direction cannot be zero")
    return Direction(p // g, q // g)


@dataclass(frozen=True)
class InterfaceProblem:
    i: int
    j: int
    nu: Direction
    T: int
    weights: tuple[Fraction, Fraction] = (Fraction(1), Fraction(1))
    energy_kind: str = SURFACE

    def __post_init__(self):
        if not (0 <= self.i <= 8 and 0 <= self.j <= 8):
            raise InvalidInput("phase labels must be in 0..8")
        if self.i == self.j:
            raise InvalidInput("interface problems need distinct phases")
        if self.T < 8:
            raise InvalidInput("T must be at least 8 so the frame fits")
        if self.energy_kind not in (SURFACE, VOLUME):
            raise InvalidInput("energy_kind must be 'surface' or 'volume'")
        object.__setattr__(
            self, "weights", (Fraction(self.weights[0]), Fraction(self.weights[1]))
        )
        if self.weights[0] <= 0 or self.weights[1] <= 0:
            raise InvalidInput("weights must be positive")


@dataclass
class SolveResult:
    value: Fraction
    config: Configuration
    certificate: str  # "exact" | "upper_bound"
    nodes_explored: int
    # a proven lower bound on the optimum; equal to value when exact.  It
    # is not serialised, so outputs do not change with the bound.
    lower: Fraction

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

def _family_members(i: int, j: int, nu: Direction, window: Window) -> list[Molecule]:
    """All family molecules whose cells intersect the window.

    A phase-i molecule belongs when it meets {x . nu > 2} and a phase-j
    molecule when it meets {x . nu < -2}, with nu used as the unit vector
    (p, q)/sqrt(p^2+q^2).  The extreme of x . nu over a molecule's closed
    cells is p a + q b at its anchor (a, b) plus an extreme that depends on
    the shape alone (over its cell offsets and the unit cell), so each side
    takes that once and tests each anchor with one exact comparison on
    squared integers.
    """
    p, q = nu.p, nu.q
    norm4 = 4 * (p * p + q * q)  # (2 |nu|)^2
    out = []
    for lab, sign in ((i, 1), (j, -1)):
        if lab == 0:
            continue
        # sign * x . nu at its extreme over the phase's shape anchored at 0
        shape = phase_shape(lab)
        reach = max(sign * (p * c + q * r) for c, r in shape.cells)
        reach += max(sign * p, 0) + max(sign * q, 0)
        for m in phase_pattern(lab, window).molecules:
            a, b = m.anchor
            v = sign * (p * a + q * b) + reach
            if v > 0 and v * v > norm4:
                out.append(m)
    out.sort(key=lambda m: (m.shape.name, m.anchor))
    return out


# -------------------------------------------------------------------
# Frame geometry
# -------------------------------------------------------------------

def _cell_meets_window(cell: Cell, T: int) -> bool:
    """Cell meeting the open square Q_T, tested on 2a against T."""
    a, b = cell
    return -T - 2 < 2 * a < T and -T - 2 < 2 * b < T


def _inner(T: int) -> range:
    """Cell indices of the inner square: cell (a, b) lies in the closed
    concentric square of side T - 8 iff a and b are both in the range."""
    return range(-((T - 8) // 2), (T - 10) // 2 + 1)


def _free_cells(forced: Configuration, T: int) -> set[Cell]:
    """The free zone: the cells of the inner square that the forced part
    leaves empty.  Free molecules are exactly those lying in it."""
    inner = _inner(T)
    taken = forced.occupancy
    return {(a, b) for a in inner for b in inner if (a, b) not in taken}


def meets_frame(m: Molecule, T: int) -> bool:
    """Does the molecule intersect the open frame collar of Q_T?"""
    inner = _inner(T)
    return any(
        _cell_meets_window(c, T) and not (c[0] in inner and c[1] in inner)
        for c in m.cells()
    )


def _near_family(prob: InterfaceProblem) -> list[Molecule]:
    """The family molecules meeting Q_T.

    Every consumer keeps only members that meet the frame, which lies in
    Q_T, or that lie inside the inner square, which lies in Q_T too: the
    forced part, the glued part, the wetting fill and the frame check.  A
    member that misses Q_T is neither, so a larger window would only build
    molecules that are dropped.  The window's cell test is
    `_cell_meets_window`'s, odd T included.
    """
    return _family_members(prob.i, prob.j, prob.nu, Window.square(prob.T))


def _forced_part(members: list[Molecule], prob: InterfaceProblem) -> Configuration:
    """The members meeting the frame, validated."""
    try:
        return validate(m for m in members if meets_frame(m, prob.T))
    except OverlapError as exc:
        raise InfeasibleBoundary(
            f"boundary family ({prob.i},{prob.j},{prob.nu.as_tuple()}) forces "
            f"overlapping molecules on the frame of Q_{prob.T}: {exc}"
        ) from exc


def frame_forced(prob: InterfaceProblem) -> Configuration:
    """Family molecules meeting the frame: the forced part of any config."""
    return _forced_part(_near_family(prob), prob)


def _matches_frame(config: Configuration, forced: Configuration, T: int) -> bool:
    """Are the molecules of config meeting the frame exactly those of forced?"""
    actual = {
        (m.shape.name, m.anchor) for m in config.molecules if meets_frame(m, T)
    }
    return actual == {(m.shape.name, m.anchor) for m in forced.molecules}


def admissible(config: Configuration, prob: InterfaceProblem) -> bool:
    """Exact frame matching: molecules meeting the frame are the family's.

    Equality (not mere containment) is required in both directions; the
    interior is free.
    """
    return _matches_frame(config, frame_forced(prob), prob.T)


def _energy(config: Configuration, prob: InterfaceProblem) -> Fraction:
    window = Window.square(prob.T)
    if prob.energy_kind == VOLUME:
        return volume_deficit(config, window)
    return weighted_perimeter(config, *prob.weights, window)


# -------------------------------------------------------------------
# Branch and bound
# -------------------------------------------------------------------

def _scan_order(prob: InterfaceProblem, cells: Iterable[Cell]) -> list[Cell]:
    """Columns bottom to top, swept left to right if p q < 0, else right to left.

    For the diagonals the sweep starts at the bottom corner that the seam
    line x . nu = 0 passes through, so the first columns decided hold both
    phases and the seam between them: the line bound then sees unlike
    column ends early, and a wrong seam is refuted before the bulk is
    filled.  The rule depends on nu only through the sign of p q, so nu
    and -nu (a problem and its mirror) are searched in the same order.

    `solve_interface` relies on the order sweeping a square line by line:
    listed in this order, the cells of a square of side w are numbered so
    that a step of 1 moves along a line and a step of w across lines.
    """
    sx = 1 if prob.nu.p * prob.nu.q < 0 else -1
    return sorted(cells, key=lambda c: (sx * c[0], c[1]))


def solve_interface(prob: InterfaceProblem, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Minimize the Q_T energy over admissible configurations.

    Branch and bound over the cells of the free zone (`_free_cells`: the
    inner square's cells that the forced part leaves empty) in scan order
    (`_scan_order`: columns bottom to top, swept from the bottom corner the
    seam line passes through for the diagonals); each cell is either
    covered by one of the free molecules, those lying in the free zone, or
    left empty.  The free zone is computed once and handed to the
    placement table, which then holds exactly the free molecules.
    Starting on the seam corner puts both phases and the seam between them
    into the first columns, where the line bound sees unlike column ends
    at once.  The certificate is exact iff the search tree was
    exhausted within the node budget; otherwise the best configuration
    found is returned as an upper bound.  The budget is checked before
    each child is opened, so `nodes_explored` never exceeds it, and a tree
    of exactly `budget` nodes is still exhausted.  Deterministic for fixed
    inputs and budgets.

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
    counted it, and it lies in one line only.  For volume energies the
    bound is the cost minus one molecule area per four undecided cells.
    Both bounds are admissible, and since the scan order is fixed an
    exhausted search returns the first optimal leaf in scan order, or the
    incumbent, whatever the bound.  `lower` is the bound at the root, or
    the value when the certificate is exact.
    """
    if budget < 1:
        raise InvalidInput("budget must be at least 1")
    members = _near_family(prob)
    forced = _forced_part(members, prob)
    T = prob.T
    volume = prob.energy_kind == VOLUME

    # The table numbers the inner square plus its one-cell ring line by
    # line, so its order bits are a width x width grid for the line bound.
    # Its placements are the free molecules: those lying in the free zone.
    inner = _inner(T)
    square = range(inner.start - 1, inner.stop + 1)
    width = len(square)
    order = _scan_order(prob, [(a, b) for a in square for b in square])
    free = _free_cells(forced, T)
    table = PlacementTable(order, (R, S), free)
    n = table.n
    free_bits = table.mask(free)

    # Energies are integers in units of 1/scale, so the search never
    # touches a Fraction.
    base = _energy(forced, prob)
    c_R, c_S = prob.weights
    scale = math.lcm(c_R.denominator, c_S.denominator, base.denominator)
    w_R, w_S = int(c_R * scale), int(c_S * scale)
    w_min = min(w_R, w_S)
    molecule_area = 4 * scale

    def scaled(value: Fraction) -> int:
        v = value * scale
        assert v.denominator == 1, "energies are multiples of 1/scale"
        return v.numerator

    # State: decided cells (placed, left empty, or outside the free zone)
    # and the cells occupied by R-like and S-like molecules.
    occ_R0 = table.mask(
        c
        for m in forced.molecules
        if m.shape.chirality_class == R_LIKE
        for c in m.cells()
    )
    occ_S0 = table.mask(forced.occupancy) & ~occ_R0
    decided0 = table.all_bits & ~free_bits

    # COST: for surface energies, the weighted length of the boundary
    # edges both of whose cells are decided.  It starts at `base` minus
    # the forced boundary edges that face a free cell, whose far side is
    # not decided yet.  For volume energies it is the deficit itself.
    cost0 = scaled(base)
    if not volume:
        for i, nbrs in enumerate(table.neighbors):
            if free_bits >> i & 1:
                cost0 -= (
                    w_R * (nbrs & occ_R0).bit_count()
                    + w_S * (nbrs & occ_S0).bit_count()
                )

    # LINE: each line starts and ends on a ring cell, which is always
    # decided, so no run of undecided cells crosses into the next line.  A
    # run is at most width - 2 long, so the doubling shifts of the
    # cross-line fill carry each run's first decided end across it.
    order_bits = table.order_bits
    shifts = [width << k for k in range((width - 2).bit_length())]

    def line(decided: int, occ: int) -> int:
        """Runs of undecided cells between decided cells of unlike occupancy."""
        unknown = order_bits & ~decided
        # along lines: adding 1 at the start of a run carries through the
        # run into the decided cell after it
        ends = decided & (unknown << 1)
        fill = unknown + ((decided & occ & (unknown >> 1)) << 1)
        count = ((fill ^ occ) & ends).bit_count()
        # across lines: doubling shifts fill each run that follows an
        # occupied decided cell
        fill, through = decided & occ & (unknown >> width), unknown
        for s in shifts:
            fill |= through & (fill << s)
            through &= through << s
        ends = decided & (unknown << width)
        return count + (((fill << width) ^ occ) & ends).bit_count()

    def bound(decided: int, occ: int, cost: int) -> int:
        """A lower bound on the value of every leaf below the node."""
        if volume:
            return cost - molecule_area * ((free_bits & ~decided).bit_count() // 4)
        return cost + w_min * line(decided, occ)

    # initial incumbents: the forced part alone, then the glued family
    best_val, best_cfg = scaled(base), list(forced.molecules)
    try:
        glued = _glued_part(members, forced, free)
    except OverlapError:
        pass
    else:
        value = scaled(_energy(glued, prob))
        if value < best_val:
            best_val, best_cfg = value, list(glued.molecules)

    nodes = 0
    exhausted = True
    placed: list[Molecule] = []

    def dfs(decided: int, occ_R: int, occ_S: int, cost: int) -> None:
        nonlocal nodes, best_val, best_cfg, exhausted
        i = (~decided & (decided + 1)).bit_length() - 1  # lowest clear bit
        if i >= n:
            if cost < best_val:
                best_val = cost
                best_cfg = list(forced.molecules) + list(placed)
            return
        occ = occ_R | occ_S
        if bound(decided, occ, cost) >= best_val:
            return
        # branch 1: cover the cell with each feasible placement
        for p in table.by_pos[i]:
            if p.mask & decided:
                continue
            if nodes >= budget:
                exhausted = False
                return
            nodes += 1
            placed.append(p.molecule)
            if volume:
                dfs(decided | p.mask, occ_R, occ_S, cost - molecule_area)
            else:
                # the molecule's edges to decided empty cells are boundary
                # now; those to undecided cells count when they are decided
                empty = p.contacts(decided & ~occ)
                if p.molecule.shape.chirality_class == R_LIKE:
                    dfs(decided | p.mask, occ_R | p.mask, occ_S, cost + w_R * empty)
                else:
                    dfs(decided | p.mask, occ_R, occ_S | p.mask, cost + w_S * empty)
            placed.pop()
        # branch 2: leave the cell empty
        if nodes >= budget:
            exhausted = False
            return
        nodes += 1
        if not volume:
            nbrs = table.neighbors[i]
            cost += w_R * (nbrs & occ_R).bit_count() + w_S * (nbrs & occ_S).bit_count()
        dfs(decided | 1 << i, occ_R, occ_S, cost)

    lower = bound(decided0, occ_R0 | occ_S0, cost0)
    dfs(decided0, occ_R0, occ_S0, cost0)

    return SolveResult(
        value=Fraction(best_val, scale),
        config=validate(best_cfg),
        certificate="exact" if exhausted else "upper_bound",
        nodes_explored=nodes,
        lower=Fraction(best_val if exhausted else min(lower, best_val), scale),
    )


def normalized_density(prob: InterfaceProblem, result: SolveResult | DensityRecord) -> Fraction:
    """max(|p|, |q|) * value / T: the finite-T one-homogeneous estimate."""
    return Fraction(prob.nu.norm_inf) * result.value / prob.T


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
    return DensityRecord(
        prob.i, prob.j, prob.nu.p, prob.nu.q, prob.T, prob.energy_kind,
        prob.weights[0], prob.weights[1], result.value,
        normalized_density(prob, result), result.certificate,
        result.nodes_explored,
    )


# -------------------------------------------------------------------
# Pattern library
# -------------------------------------------------------------------

def _glued_part(members: list[Molecule], forced: Configuration, free: set[Cell]) -> Configuration:
    """The forced part plus the members lying in the free zone `free`.

    This is the boundary family continued through the interior of Q_T, and
    it realizes the documented interface patterns: for (i, 0) problems the
    striped half plane with its staircase profile (optimal in the diagonal
    directions and asymptotically optimal in the axis and (3, -1)
    directions); for mixed pairs the two half families glued, meeting flush
    along the anti-diagonal seams that admit meshing and leaving an empty
    gap elsewhere (the constructive form of the subadditive bound).

    The interior members are exactly the family's free placements in
    `solve_interface`, so this is also the solver's glued incumbent.  The
    forced part is already validated and no interior member touches it, so
    OverlapError means two interior members overlap.  Members keep their
    family order.
    """
    frame = set(forced.molecules)
    return validate(m for m in members if m in frame or free.issuperset(m.cells()))


def _mirror_molecule(m: Molecule) -> Molecule:
    """Reflection through a vertical axis: R(n1, n2) <-> S(-n1, n2)."""
    n1, n2 = m.anchor
    if m.shape is R:
        return Molecule(S, (-n1, n2))
    if m.shape is S:
        return Molecule(R, (-n1, n2))
    raise NoPattern("mirroring is defined for the built-in pair only")


def _wetting_chain(prob: InterfaceProblem) -> list[Molecule]:
    """The wetting microstructure over Q_T, before the frame cuts it.

    A sparse opposite-chirality chain along a diagonal empty interface: for
    (i, 0) with i in 1..4 and nu = (-1, 1), the striped phase is retracted
    and its staircase teeth are capped, every other notch, by a single
    mirror-species molecule; the exposed boundary per unit of interface
    becomes c_R + 3 c_S instead of 2 c_R, which wins when 3 c_S < c_R.  For
    i in 5..8 and nu = (1, 1) the mirrored construction applies with the
    weights exchanged.  `_wetting_fill` keeps the chain strictly inside the
    frame, so admissibility is untouched; where the forced frame molecules
    cut across the seam the plain family fills in.  Raises NoPattern
    elsewhere.
    """
    i, j, nu, T = prob.i, prob.j, prob.nu, prob.T
    mirrored = False
    if j == 0 and 5 <= i <= 8 and (nu.p, nu.q) == (1, 1):
        mirrored = True
        i = i - 4
    elif not (j == 0 and 1 <= i <= 4 and (nu.p, nu.q) == (-1, 1)):
        raise NoPattern(
            "wetting pattern covers (i in 1..4, j=0, nu=(-1,1)) and its mirror"
        )

    # periodic seam microstructure for phase i at nu = (-1, 1); the phase
    # offset shifts the baseline (i = 1) vertically by i - 1
    c = i - 1
    lo = -T // 2
    hi = T // 2
    structure: list[Molecule] = []
    for t in range(lo - 2, hi + 2):
        structure.append(Molecule(R, (2 * t, 2 * t + 1 + c)))      # teeth row
        structure.append(Molecule(R, (2 * t + 1, 2 * t + 4 + c)))  # cap row
        structure.append(Molecule(S, (2 * t + 1, 2 * t - 2 + c)))  # wetting
    for n1 in range(lo - 2, hi + 2):
        for d in range(5 + c, 2 * T):
            structure.append(Molecule(R, (n1, n1 + d)))            # bulk
    if mirrored:
        structure = [_mirror_molecule(m) for m in structure]
    return structure


def _wetting_fill(
    chain: list[Molecule], members: list[Molecule], forced: Configuration, free: set[Cell],
) -> Configuration:
    """The forced part, then each chain and family molecule that still fits.

    A molecule fits when it lies in what is left of the free zone `free`
    after the molecules accepted before it; the family fills in where the
    forced collar cuts the chain.
    """
    left = set(free)
    mols = list(forced.molecules)
    for group in (chain, members):
        for m in sorted(set(group), key=lambda m: (m.shape.name, m.anchor)):
            mcells = m.cells()
            if left.issuperset(mcells):
                left.difference_update(mcells)
                mols.append(m)
    return validate(mols)


def pattern_upper_bound(
    i: int,
    j: int,
    nu: Direction,
    T: int = 16,
    weights: tuple = (1, 1),
) -> tuple[Fraction, Configuration]:
    """Best library construction for the problem, with its exact energy.

    The candidates are the glued family (when its interior members do not
    overlap), the wetting fill (where it applies) and the forced part
    alone, which is always admissible; ties go in that order.  Returns the
    energy measured on Q_T (revalidated through the perimeter functions)
    and the realizing admissible configuration.  Raises InfeasibleBoundary
    exactly when `frame_forced` does.
    """
    prob = InterfaceProblem(i, j, Direction(nu.p, nu.q), T, weights)
    # one family build serves every candidate and the admissibility check
    members = _near_family(prob)
    forced = _forced_part(members, prob)
    free = _free_cells(forced, T)
    candidates: list[Configuration] = []
    try:
        candidates.append(_glued_part(members, forced, free))
    except OverlapError:
        pass
    try:
        candidates.append(_wetting_fill(_wetting_chain(prob), members, forced, free))
    except NoPattern:
        pass
    candidates.append(forced)
    value, cfg = min(((_energy(c, prob), c) for c in candidates), key=lambda t: t[0])
    if not _matches_frame(cfg, forced, T):
        raise NoPattern("library construction failed the admissibility check")
    return value, cfg


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
    clusters is grown once.  Placements are ranked once in that order, so
    a node's candidates are the set bits of an int over ranks; a class is
    keyed by an int with one bit per (anchor, shape), shifted down to the
    cluster's lowest anchor column and row.  The first cluster of least
    perimeter in that order is returned.
    """
    if r < 0 or s < 0 or r + s < 1:
        raise InvalidInput("need r + s >= 1 with nonnegative counts")
    if cap < 1:
        raise InvalidInput("cap must be at least 1")
    if r + s > cap:
        raise ClusterCapExceeded(f"cluster size {r + s} exceeds cap {cap}")
    total = r + s
    # a connected cluster grown from a seed at the origin stays within
    # 3 cells per molecule of it, so its halo cells are all order cells
    reach = 3 * total
    table = PlacementTable(
        [(a, b) for a in range(-reach, reach + 1) for b in range(-reach, reach + 1)],
        (R, S),
    )
    ranked = sorted(table.placements, key=lambda p: (p.molecule.shape.name, p.molecule.anchor))
    rank_of = {p.index: rank for rank, p in enumerate(ranked)}
    # ranks of the placements covering each order cell
    covering = [sum(1 << rank_of[p.index] for p in ps) for ps in table.by_pos]
    # near[rank]: ranks of the placements covering a cell next to that one
    near = []
    for p in ranked:
        cells, bits = p.touch1 | p.touch2, 0
        while cells:
            low = cells & -cells
            cells ^= low
            i = low.bit_length() - 1
            if i < table.n:
                bits |= covering[i]
        near.append(bits)
    of_shape = {
        shape: sum(1 << rank for rank, p in enumerate(ranked) if p.molecule.shape is shape)
        for shape in (R, S)
    }
    x0 = min(p.molecule.anchor[0] for p in ranked)
    y0 = min(p.molecule.anchor[1] for p in ranked)
    width = max(p.molecule.anchor[1] for p in ranked) - y0 + 1
    col = [p.molecule.anchor[0] - x0 for p in ranked]
    row = [p.molecule.anchor[1] - y0 for p in ranked]
    key_bit = [
        1 << 2 * (x * width + y) + (p.molecule.shape is S) for x, y, p in zip(col, row, ranked)
    ]

    best: tuple[int, tuple[Molecule, ...]] | None = None
    seen: set[int] = set()

    def grow(
        mols: list[Molecule], occ: int, cand: int, bits: int, low_x: int, low_y: int,
        per: int, nr: int, ns: int,
    ):
        nonlocal best
        last = len(mols) + 1 == total
        # candidate placements: those covering a cell adjacent to the cluster
        rest = cand & ((of_shape[R] if nr < r else 0) | (of_shape[S] if ns < s else 0))
        while rest:
            low = rest & -rest
            rest ^= low
            rank = low.bit_length() - 1
            p = ranked[rank]
            if p.mask & occ:
                continue
            grown_per = per + _MOLECULE_EDGES - 2 * p.contacts(occ)
            if last:
                # a repeated class ties with its first visit, so complete
                # clusters are not keyed
                if best is None or grown_per < best[0]:
                    best = (grown_per, (*mols, p.molecule))
                continue
            x = col[rank] if col[rank] < low_x else low_x
            y = row[rank] if row[rank] < low_y else low_y
            grown = bits | key_bit[rank]
            key = grown >> 2 * (x * width + y)
            if key in seen:
                continue
            seen.add(key)
            mol = p.molecule
            grow(
                mols + [mol], occ | p.mask, cand | near[rank], grown, x, y,
                grown_per, nr + (mol.shape is R), ns + (mol.shape is S),
            )

    for shape, count in ((R, r), (S, s)):
        # fixing the first molecule at the origin removes translations;
        # with mixed species both seeds are tried since the first molecule
        # of an optimal cluster can be either kind
        if count == 0:
            continue
        rank = next(n for n, p in enumerate(ranked) if p.molecule == Molecule(shape, (0, 0)))
        if total == 1:
            best = (_MOLECULE_EDGES, (ranked[rank].molecule,))
            break
        grow(
            [ranked[rank].molecule], ranked[rank].mask, near[rank], key_bit[rank],
            col[rank], row[rank], _MOLECULE_EDGES, int(shape is R), int(shape is S),
        )

    assert best is not None
    value, mols = best
    return Fraction(value), validate(mols)
