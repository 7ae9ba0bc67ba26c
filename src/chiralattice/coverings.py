"""Exhaustive enumeration of square coverings and the single-phase check.

A "covering" is a disjoint family of molecules drawn from a given shape set
whose union contains the open square Q_2k (side 2k, centered at the
origin).  Molecules may overhang the square; any molecule meeting Q_2k
lies inside Q_2k+6, which bounds the search space.

The search branches on the lexicographically first uncovered cell of the
square and tries every placement covering it that misses the covered
cells: those whose first square cell it is, which the placement grid
lists there, since every earlier cell is covered.  That canonical order
makes it exhaustive and duplicate-free: each covering is produced
exactly once, as the sequence of its molecules sorted by the first
target cell they cover.  Cells are encoded as bits of int masks by the
placement grid shared by the searches (`chiralattice.placements`), which
builds its placements on first read.  One walk of this tree serves both
operations: `enumerate_coverings` reads every covering from it, and
`lemma_check` the first mixed one.

The walk is memoised on its frontier where it enters a new line.  Below
a node whose first free order cell is i, only placements whose lowest
order bit is >= i can be chosen, so the subtree depends only on the
occupied cells in frontier[i] (every order cell plus the cells of those
placements) and on the inner-phase state of the prefix: no molecule
meeting the inner square yet, all of one phase (or shape), or mixed.  A
mixed prefix is a state, not a verdict, since its subtree may still be a
dead end.  The memo is read and written only at a line entry, a node
whose i lies in a later line (column) than its parent's.  That is the
cut of a transfer matrix: there the frontier is about one line's
profile and keys repeat, while the keys of nodes inside a line rarely
do, so such a node is walked and never stored, and a subtree that an
every-node memo would skip is walked down to its next line entry, where
it hits.  A line-entry subtree walked to the end that yielded nothing (a
dead end for the enumeration, a subtree without a violation for
`lemma_check`) is memoised under that key as its (nodes, coverings).  A
hit adds those counts and skips the subtree, except when it would reach
the cap, in which case the subtree is walked.  No yield is ever inside a
skipped subtree, so the coverings, their order, the counts and the cap
stop are those of the plain walk.

For coverings of built-in molecules the interior single-phase property is
checked through phase labels; for user shape sets, where no phase map
exists, a covering counts as a violation when molecules of two different
shapes meet the inner square.  Violations of the latter kind within a
single species (two incompatible translates of one striped pattern) are
not detected.

The enumeration is a deterministic single-producer stream; all operations
here are pure and safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .molecules import (
    BUILTIN_SHAPES,
    Configuration,
    InvalidInput,
    Molecule,
    MoleculeShape,
    Window,
    argument,
    configuration_to_jsonable,
    json_int,
    pair,
    phase_label,
    validate,
)
from .placements import Placement, PlacementGrid


class CapExceeded(RuntimeError):
    """The covering stream was truncated by the configured cap."""

    def __init__(self, message: str, stats: "SearchStats"):
        super().__init__(message)
        self.stats = stats


class NotCovered(ValueError):
    """The configuration does not cover the required square."""


@dataclass
class MixedPhases:
    """Two molecules of different phases (or kinds) meeting the inner square."""

    first: Molecule
    second: Molecule


@dataclass
class SearchStats:
    """Effort of a covering search.

    nodes counts placements tried, coverings the complete coverings and
    placements the table size; states is the number of frontier states
    that the covering walk memoised, one for each distinct key of a line
    entry whose subtree was walked and yielded nothing, for both
    searches: `lemma_check`'s report and the `CapExceeded` of
    `enumerate_coverings` carry them.
    """

    nodes: int = 0
    coverings: int = 0
    placements: int = 0
    states: int = 0


@dataclass
class LemmaReport:
    """Outcome of an exhaustive single-phase check over square coverings."""

    k: int
    shapes: tuple[str, ...]
    holds: bool | None
    witness: Configuration | None
    search_space: SearchStats
    complete: bool
    inner_margin: int = 4

    def to_jsonable(self) -> dict:
        return {
            "k": self.k,
            "shapes": list(self.shapes),
            "holds": self.holds,
            "complete": self.complete,
            "inner_margin": self.inner_margin,
            "witness": None
            if self.witness is None
            else configuration_to_jsonable(self.witness),
            "search_space": {
                "nodes": self.search_space.nodes,
                "coverings": self.search_space.coverings,
                "placements": self.search_space.placements,
            },
        }


# -------------------------------------------------------------------
# The covering DFS
# -------------------------------------------------------------------

def _square_table(k: int, shapes: Sequence[MoleculeShape]) -> PlacementGrid:
    """Placements meeting Q_2k, with the square's cells in canonical order:
    columns left to right, each bottom to top."""
    return PlacementGrid(((-k, -k), (0, 1), (1, 0), 2 * k, 2 * k), shapes)


def _frontiers(table: PlacementGrid) -> list[int]:
    """frontier[i]: the bits on which the subtree below a node depends.

    Below a node whose first free order cell is i, only placements whose
    first order cell is i or later can still be chosen, so the subtree
    depends on the order bits and on the cells of those placements only.
    """
    reach = [0] * table.n
    bits = table.order_bits
    for i in reversed(range(table.n)):
        for p in table.by_first[i]:
            bits |= p.mask
        reach[i] = bits
    return reach


def _check_input(
    k: int, cap: int | None, shapes: Iterable[MoleculeShape]
) -> tuple[MoleculeShape, ...]:
    """The shapes of a covering search, each once, once k and cap are
    checked and each shape is a MoleculeShape.  User shapes are told apart
    by name, so two distinct shapes may not share one; a shape passed twice
    is searched and named once."""
    if json_int("k", k) < 2:
        raise InvalidInput("k must be at least 2")
    if cap is not None and json_int("cap", cap) < 1:
        raise InvalidInput("cap must be at least 1")
    named: dict[str, MoleculeShape] = {}
    for shape in argument("shapes", shapes, Iterable):
        if not isinstance(shape, MoleculeShape):
            raise InvalidInput(f"invalid molecule shape {shape!r}: expected a MoleculeShape")
        if named.setdefault(shape.name, shape) != shape:
            raise InvalidInput(f"two distinct shapes are named {shape.name!r}")
    return tuple(named.values())


def _walk(
    table: PlacementGrid,
    stats: SearchStats,
    cap: int | None,
    inner_key: Callable[[Molecule], int | str | None] | None = None,
) -> Iterator[tuple[Placement, ...]]:
    """The memoised covering DFS: every covering, or with inner_key only
    the mixed ones, where two molecules have different keys other than
    None.  It stops after the cap-th covering; stats holds its counts at
    each yield and at the end.  A node entering a new line reads the memo
    and, when its subtree yields nothing, writes it as the frame pops;
    other nodes carry no key."""
    # inner-phase states: 0 before any molecule with a key is placed, c
    # for "all such molecules have key code c", `mixed` for two keys
    codes: dict[int | str, int] = {}
    code = [0] * len(table.placements)
    if inner_key is not None:
        for p in table.placements:
            label = inner_key(p.molecule)
            if label is not None:
                code[p.index] = codes.setdefault(label, len(codes) + 1)
    mixed = len(codes) + 1
    width = mixed.bit_length()
    # the state of the coverings that are yielded
    wanted = 0 if inner_key is None else mixed
    frontier = _frontiers(table)
    options = [[(p.mask, code[p.index], p) for p in ps] for ps in table.by_first]
    memo: dict[int, tuple[int, int]] = {}
    n = table.n
    # the cells that no covering needs: a node's first free order cell is
    # the lowest clear bit of its occupied cells and these
    blocked = table.all_bits & ~table.order_bits
    nodes = coverings = yields = 0
    occupied = 0
    chosen: list[Placement] = []
    height = table.height
    # frames: (options, phase state, memo key or None, the nodes, coverings
    # and yields on entry, and the first order cell of the next line)
    first = (blocked ^ (blocked + 1)).bit_length() - 1
    stack = [(iter(options[first]), 0, None, 0, 0, 0, (first // height + 1) * height)]
    while stack:
        frame = stack[-1]
        phase, edge = frame[1], frame[6]
        for mask, c, p in frame[0]:
            if mask & occupied:
                continue
            nodes += 1
            child = phase if c == 0 or c == phase else (c if phase == 0 else mixed)
            occ = occupied | mask
            done = occ | blocked
            i = (done ^ (done + 1)).bit_length() - 1  # the first free order cell
            if i >= n:
                coverings += 1
                if child == wanted:
                    yields += 1
                    stats.nodes, stats.coverings, stats.states = nodes, coverings, len(memo)
                    yield (*chosen, p)
                if cap is not None and coverings >= cap:
                    stack.clear()  # the cap stop ends the walk
                    break
                continue
            if i >= edge:  # the node enters a new line: read the memo
                key = (occ & frontier[i]) << width | child
                hit = memo.get(key)
                # a hit that would reach the cap is walked, so the stop is exact
                if hit is not None and (cap is None or coverings + hit[1] < cap):
                    nodes += hit[0]
                    coverings += hit[1]
                    continue
            else:
                key = None
            occupied = occ
            chosen.append(p)
            stack.append((
                iter(options[i]), child, key, nodes, coverings, yields,
                (i // height + 1) * height,
            ))
            break
        else:
            stack.pop()
            if chosen:
                if frame[2] is not None and yields == frame[5]:
                    memo[frame[2]] = (nodes - frame[3], coverings - frame[4])
                occupied ^= chosen.pop().mask
    stats.nodes, stats.coverings, stats.states = nodes, coverings, len(memo)


# -------------------------------------------------------------------
# Public operations
# -------------------------------------------------------------------

def enumerate_coverings(
    k: int,
    shapes: Iterable[MoleculeShape],
    cap: int | None = None,
) -> Iterator[Configuration]:
    """Every configuration of molecules from the shape set covering Q_2k.

    Emits validated configurations; raises CapExceeded after `cap`
    coverings if the stream is truncated.  Exhaustive and duplicate-free.
    """
    table = _square_table(k, _check_input(k, cap, shapes))
    stats = SearchStats(placements=len(table.placements))
    molecules = [p.molecule for p in table.placements]  # shared by the coverings
    for chosen in _walk(table, stats, cap):
        yield validate(molecules[p.index] for p in chosen)
    if cap is not None and stats.coverings >= cap:
        raise CapExceeded(f"covering cap {cap} reached before exhausting the search", stats)


def verify_interior_phase(
    config: Configuration, center: tuple[int, int], k: int
) -> int | MixedPhases:
    """Phase shared by all molecules meeting Q_2k-4(center), if unique.

    Requires the configuration to cover Q_2k(center); raises NotCovered
    otherwise and UnlabeledShape when a relevant molecule is not built-in.
    Once Q_2k(center) is covered, the molecules meeting the inner square
    are the owners of its cells, so only those are read, in the order of
    the configuration.
    """
    argument("config", config, Configuration)
    if json_int("k", k) < 3:
        raise InvalidInput("k must be at least 3 so the inner square is nonempty")
    cx, cy = pair("centre", center)
    occ = config.occupancy
    for c in range(cx - k, cx + k):
        for r in range(cy - k, cy + k):
            if (c, r) not in occ:
                raise NotCovered(f"cell {(c, r)} of Q_{2 * k}({center}) is empty")
    xs, ys = Window.square(2 * k - 4, center).cell_range()
    found: dict[int, Molecule] = {}
    for index in sorted({occ[c, r] for c in xs for r in ys}):
        m = config.molecules[index]
        lab = phase_label(m)  # may raise UnlabeledShape
        if lab not in found:
            found[lab] = m
            if len(found) > 1:
                a, b = list(found.values())[:2]
                return MixedPhases(a, b)
    return next(iter(found))  # the inner square has a cell, so an owner


def lemma_check(
    k: int,
    shapes: Iterable[MoleculeShape] | None = None,
    cap: int | None = None,
    inner_margin: int = 4,
) -> LemmaReport:
    """Exhaustively test the single-phase interior property at size k.

    holds is True when every covering of Q_2k is single-phase on the
    molecules meeting Q_2k-margin, False when a violating covering was
    found (returned as witness), and None when the cap truncated the
    search before a verdict.

    The proven property uses inner_margin=4.  Margin 2 has no proof; run
    here on the built-in pair it fails at k = 2 and 3 and holds at
    k = 4..9, each with 288 * 2**(k - 4) coverings.
    """
    if shapes is None:
        shapes = (BUILTIN_SHAPES["R"], BUILTIN_SHAPES["S"])
    shapes = _check_input(k, cap, shapes)
    if json_int("inner margin", inner_margin) not in (2, 4):
        raise InvalidInput("inner margin must be 2 or 4")
    if not shapes:
        raise InvalidInput("lemma_check needs at least one shape")
    builtin = all(s is BUILTIN_SHAPES.get(s.name) for s in shapes)
    table = _square_table(k, shapes)
    stats = SearchStats(placements=len(table.placements))
    half = k - inner_margin // 2  # Q_2k-margin is the open square [-half, half)^2

    def inner_key(mol: Molecule) -> int | str | None:
        """Phase (or shape, for user shapes) of a molecule meeting Q_2k-margin."""
        if not any(-half <= x < half and -half <= y < half for x, y in mol.cells()):
            return None
        return phase_label(mol) if builtin else mol.shape.name

    violation = next(_walk(table, stats, cap, inner_key), None)
    if violation is not None:
        holds, witness = False, validate(p.molecule for p in violation)
    elif cap is not None and stats.coverings >= cap:
        holds, witness = None, None  # the cap stopped the walk before a verdict
    else:
        holds, witness = True, None
    names = tuple(s.name for s in shapes)
    return LemmaReport(k, names, holds, witness, stats, holds is not None, inner_margin)
