"""Exhaustive enumeration of square coverings and the single-phase check.

A "covering" is a disjoint family of molecules drawn from a given shape set
whose union contains the open square Q_2k (side 2k, centered at the
origin).  Molecules may overhang the square; any molecule meeting Q_2k
lies inside Q_2k+6, which bounds the search space.

The enumeration branches on the lexicographically first uncovered cell of
the square and tries every placement covering it.  That canonical order
makes the search exhaustive and duplicate-free: each covering is produced
exactly once, as the sequence of its molecules sorted by the first target
cell they cover.  Cells are encoded as bits of int masks by a shared
placement table (`chiralattice.placements`).

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
from typing import Iterable, Iterator, Sequence

from .molecules import (
    BUILTIN_SHAPES,
    Configuration,
    Molecule,
    MoleculeShape,
    Window,
    phase_label,
    validate,
)
from .placements import Placement, PlacementTable


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
    nodes: int = 0
    coverings: int = 0
    placements: int = 0


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
            else [
                {"shape": m.shape.name, "anchor": list(m.anchor)}
                for m in self.witness.molecules
            ],
            "search_space": {
                "nodes": self.search_space.nodes,
                "coverings": self.search_space.coverings,
                "placements": self.search_space.placements,
            },
        }


# -------------------------------------------------------------------
# The covering DFS
# -------------------------------------------------------------------

def _square_table(k: int, shapes: Sequence[MoleculeShape]) -> PlacementTable:
    """Placements meeting Q_2k, with the square's cells in canonical order."""
    return PlacementTable(
        sorted((c, r) for c in range(-k, k) for r in range(-k, k)), shapes
    )


def _iter_coverings(
    table: PlacementTable, stats: SearchStats
) -> Iterator[tuple[Placement, ...]]:
    """Depth-first stream of all coverings of the order cells.

    Each level branches on the first uncovered order cell; overhanging
    cells take part in the overlap test only.
    """
    targets = table.order_bits
    occupied = 0
    chosen: list[Placement] = []
    stack = [iter(table.by_pos[0])]
    while stack:
        for p in stack[-1]:
            if p.mask & occupied:
                continue
            stats.nodes += 1
            occupied |= p.mask
            chosen.append(p)
            free = targets & ~occupied
            if free:
                stack.append(iter(table.by_pos[(free & -free).bit_length() - 1]))
                break
            stats.coverings += 1
            yield tuple(chosen)
            occupied ^= chosen.pop().mask
        else:
            stack.pop()
            if chosen:
                occupied ^= chosen.pop().mask


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
    if k < 2:
        raise ValueError("k must be at least 2")
    table = _square_table(k, tuple(shapes))
    stats = SearchStats(placements=len(table.placements))
    for chosen in _iter_coverings(table, stats):
        yield validate(p.molecule for p in chosen)
        if cap is not None and stats.coverings >= cap:
            raise CapExceeded(
                f"covering cap {cap} reached before exhausting the search", stats
            )


def verify_interior_phase(
    config: Configuration, center: tuple[int, int], k: int
) -> int | MixedPhases:
    """Phase shared by all molecules meeting Q_2k-4(center), if unique.

    Requires the configuration to cover Q_2k(center); raises NotCovered
    otherwise and UnlabeledShape when a relevant molecule is not built-in.
    """
    if k < 3:
        raise ValueError("k must be at least 3 so the inner square is nonempty")
    cx, cy = center
    occ = config.occupancy
    for c in range(cx - k, cx + k):
        for r in range(cy - k, cy + k):
            if (c, r) not in occ:
                raise NotCovered(f"cell {(c, r)} of Q_{2 * k}({center}) is empty")
    inner = Window.square(2 * k - 4, center)
    found: dict[int, Molecule] = {}
    for m in config.molecules:
        if not any(inner.contains_cell(c) for c in m.cells()):
            continue
        lab = phase_label(m)  # may raise UnlabeledShape
        if lab not in found:
            found[lab] = m
            if len(found) > 1:
                a, b = list(found.values())[:2]
                return MixedPhases(a, b)
    if not found:
        raise NotCovered("no labeled molecule meets the inner square")
    return next(iter(found))


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

    The proven property uses inner_margin=4; margin 2 is believed to hold
    for the built-in pair but is reported here empirically only.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if inner_margin not in (2, 4):
        raise ValueError("inner margin must be 2 or 4")
    shapes = tuple(shapes) if shapes is not None else (BUILTIN_SHAPES["R"], BUILTIN_SHAPES["S"])
    if not shapes:
        return LemmaReport(k, (), True, None, SearchStats(), True, inner_margin)
    builtin = all(s is BUILTIN_SHAPES.get(s.name) for s in shapes)
    table = _square_table(k, shapes)
    stats = SearchStats(placements=len(table.placements))
    half = k - inner_margin // 2  # Q_2k-margin is the open square [-half, half)^2

    def inner_key(mol: Molecule) -> int | str | None:
        """Phase (or shape, for user shapes) of a molecule meeting Q_2k-margin."""
        if not any(-half <= x < half and -half <= y < half for x, y in mol.cells()):
            return None
        return phase_label(mol) if builtin else mol.shape.name

    keys = [inner_key(p.molecule) for p in table.placements]
    names = tuple(s.name for s in shapes)
    for chosen in _iter_coverings(table, stats):
        if len({keys[p.index] for p in chosen} - {None}) > 1:
            witness = validate(p.molecule for p in chosen)
            return LemmaReport(k, names, False, witness, stats, True, inner_margin)
        if cap is not None and stats.coverings >= cap:
            return LemmaReport(k, names, None, None, stats, False, inner_margin)
    return LemmaReport(k, names, True, None, stats, True, inner_margin)
