"""Bitboard placement tables shared by the exhaustive searches.

A search over molecule placements (the covering DFS, the interface branch
and bound, cluster growth) keeps its state as int masks over a fixed
numbering of lattice cells.  This module is the only place that numbers
cells: the cells of the search order get bits 0..n-1, so a search's next
undecided cell is the lowest clear bit of its state, and every other cell
that a placement covers or touches, or that touches an order cell, gets
the next free bit.  A search that wants a geometric numbering passes an
order with that geometry: the interface solver lists a square line by
line, so its order bits form a grid that shifts move along.

Tables are immutable after construction and safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .molecules import Cell, Molecule, MoleculeShape


def _neighbors(cell: Cell) -> tuple[Cell, Cell, Cell, Cell]:
    a, b = cell
    return ((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1))


def _rim(shape: MoleculeShape) -> tuple[list[Cell], list[Cell]]:
    """Offsets of the outside cells sharing one and two edges with the shape.

    Each list is in order of first touch, over the shape's cells and then
    `_neighbors`, so a placement numbers its rim cells in that order.
    """
    touches: dict[Cell, int] = {}
    for cell in shape.cells:
        for nb in _neighbors(cell):
            if nb not in shape.cells:
                touches[nb] = touches.get(nb, 0) + 1
    return (
        [c for c, k in touches.items() if k == 1],
        [c for c, k in touches.items() if k == 2],
    )


@dataclass(frozen=True, slots=True, eq=False)
class Placement:
    """One translate of a shape, as masks over the table's cell bits.

    touch1 and touch2 mark the outside cells sharing one edge and two
    edges with the molecule; no cell can share three edges with a
    connected 4-cell shape.
    """

    index: int
    molecule: Molecule
    mask: int
    touch1: int
    touch2: int

    def contacts(self, bits: int) -> int:
        """Boundary edges of the molecule whose outer cell is in bits."""
        return (self.touch1 & bits).bit_count() + 2 * (self.touch2 & bits).bit_count()


class PlacementTable:
    """Every translate that `keep` accepts of a shape covering an order cell.

    Placements are numbered in order of their first order cell, then
    shape, then shape cell; by_pos[i] lists the placements covering order
    cell i in that numbering, and neighbors[i] is the mask of its four
    neighbours.
    """

    def __init__(
        self,
        order: Sequence[Cell],
        shapes: Iterable[MoleculeShape],
        keep: Callable[[Molecule], bool] | None = None,
    ):
        shapes = tuple(dict.fromkeys(shapes))  # a repeated shape adds no placements
        self.n = len(order)
        self._bit: dict[Cell, int] = {cell: i for i, cell in enumerate(order)}
        self.placements: list[Placement] = []
        self.by_pos: list[list[Placement]] = [[] for _ in order]
        rims = [_rim(shape) for shape in shapes]
        seen: set[tuple[int, int, int]] = set()
        for cell in order:
            for k, shape in enumerate(shapes):
                for off in shape.cells:
                    x, y = cell[0] - off[0], cell[1] - off[1]
                    if (k, x, y) in seen:
                        continue
                    seen.add((k, x, y))
                    mol = Molecule(shape, (x, y))
                    if keep is None or keep(mol):
                        self._add(mol, *rims[k])
        self.neighbors = [self._number(_neighbors(cell)) for cell in order]

    def _add(self, mol: Molecule, touch1: list[Cell], touch2: list[Cell]) -> None:
        """Adds the placement; touch1 and touch2 are its shape's rim offsets."""
        x, y = mol.anchor
        cells = mol.cells()
        p = Placement(
            len(self.placements),
            mol,
            self._number(cells),
            self._number((x + a, y + b) for a, b in touch1),
            self._number((x + a, y + b) for a, b in touch2),
        )
        self.placements.append(p)
        for cell in cells:
            i = self._bit[cell]
            if i < self.n:
                self.by_pos[i].append(p)

    def _number(self, cells: Iterable[Cell]) -> int:
        """Bits of the given cells, giving new cells the next free bits."""
        bits = 0
        for cell in cells:
            i = self._bit.setdefault(cell, len(self._bit))
            bits |= 1 << i
        return bits

    def mask(self, cells: Iterable[Cell]) -> int:
        """Bits of the given cells; cells that have no bit are skipped."""
        return sum(1 << self._bit[c] for c in set(cells) if c in self._bit)

    @property
    def all_bits(self) -> int:
        return (1 << len(self._bit)) - 1

    @property
    def order_bits(self) -> int:
        return (1 << self.n) - 1

