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

Every search here passes a grid order: w columns of h cells, each column
bottom to top, the columns stepping one cell left or right.  On a grid,
order cell (x, y) has bit col(x) * h + (y - y0), so a translate of a shape
whose cells and rim are all order cells has masks equal to one per-shape
template shifted by one amount, and its cells' bits are that amount plus
fixed offsets: the table builds it by a shift, with no lookup and no new
bit.  The other placements (those that straddle the grid's edge, and all
placements of an order that is not a grid) look up each cell's bit, in
placement order, so the cells outside the order get their bits in order
of first touch.

Tables are immutable after construction and safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

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


def _grid(order: Sequence[Cell]) -> tuple[int, int] | None:
    """(sx, h) if order lists columns of h cells bottom to top from its
    first cell, each column one step sx = +1 or -1 in x from the last."""
    n = len(order)
    if not n:
        return None
    x0, y0 = order[0]
    h = 1
    while h < n and order[h] == (x0, y0 + h):
        h += 1
    sx = order[h][0] - x0 if h < n else 1
    if n % h or sx not in (1, -1):
        return None
    expected = [(x0 + sx * c, y0 + r) for c in range(n // h) for r in range(h)]
    return (sx, h) if list(order) == expected else None


def _block(cols: range, rows: range, h: int) -> int:
    """Bits of the cells in columns `cols` and rows `rows` of a grid of
    columns of h cells."""
    column = (1 << len(rows)) - 1
    return sum(column << c * h + rows.start for c in cols)


class _Kind:
    """A shape's offsets, and its templates on the order's grid, if any.

    offsets are its cells, then its rim's one-edge and two-edge cells,
    which start at k1 and k2.  An anchor is inside when all its offsets
    are grid cells; `inside` has the lowest cell bit of each such anchor
    set.  An inside placement's lowest cell is shape.cells[low], its
    cells' bits are its lowest bit plus `steps`, and its masks are the
    templates (mask, touch1, touch2) shifted left by its lowest bit minus
    `lift`.
    """

    __slots__ = ("shape", "offsets", "k1", "k2", "inside", "low", "lift", "steps", "templates")

    def __init__(self, shape: MoleculeShape, grid: tuple[int, int] | None, n: int):
        touch1, touch2 = _rim(shape)
        self.shape = shape
        self.offsets = offsets = shape.cells + tuple(touch1) + tuple(touch2)
        self.k1 = k1 = len(shape.cells)
        self.k2 = k2 = k1 + len(touch1)
        if grid is None:
            self.inside = self.low = self.lift = 0
            self.steps, self.templates = (), (0, 0, 0)
            return
        sx, h = grid
        # each offset's bit minus the anchor's
        d = [sx * c * h + r for c, r in offsets]
        self.low = low = min(range(k1), key=d.__getitem__)
        base = min(d)
        # each offset's grid column and row (column sx * x, row y) minus
        # the lowest cell's: an anchor is inside when its lowest cell's
        # column c and row r keep every c + col in [0, w) and r + row in [0, h)
        cols = [sx * (c - shape.cells[low][0]) for c, _ in offsets]
        rows = [r - shape.cells[low][1] for _, r in offsets]
        self.inside = _block(
            range(-min(cols), n // h - max(cols)), range(-min(rows), h - max(rows)), h
        )
        self.lift = d[low] - base
        self.steps = tuple(e - d[low] for e in d[:k1])
        self.templates = tuple(
            sum(1 << e - base for e in part) for part in (d[:k1], d[k1:k2], d[k2:])
        )


class PlacementTable:
    """Every translate of a shape covering an order cell, lying in `within`.

    With `within` given, a placement is kept iff all its cells are in it,
    and an order cell outside it starts no candidates: a kept placement's
    cells are all in `within`, its first order cell included.

    Placements are numbered in order of their first order cell, then
    shape, then shape cell; by_pos[i] lists the placements covering order
    cell i in that numbering, and neighbors[i] is the mask of its four
    neighbours.

    When the order is a grid (see the module docstring), a placement whose
    cells and rim are grid cells is built from its shape's templates by a
    shift, and a cell off the grid's edge, of bit i, has the neighbours
    i +- 1 and i +- h; the other placements and the edge cells look their
    cells up (`_bits`).  The candidates inside the grid are read off the
    bitboard of `within`, ANDed with its shifts by the shape's cell steps.
    Every other candidate has a cell off the grid or on its edge (a shape
    is edge-connected, so one that leaves the grid, or whose rim does,
    crosses the edge), and is found from those cells.  Both kinds are
    keyed by their place in the numbering, so the numbering and every bit
    are those of the lookup alone.
    """

    def __init__(
        self,
        order: Sequence[Cell],
        shapes: Iterable[MoleculeShape],
        within: set[Cell] | None = None,
    ):
        shapes = tuple(dict.fromkeys(shapes))  # a repeated shape adds no placements
        self.n = n = len(order)
        self._bit: dict[Cell, int] = {cell: i for i, cell in enumerate(order)}
        self.placements: list[Placement] = []
        self.by_pos: list[list[Placement]] = [[] for _ in order]
        bit = self._bit
        grid = _grid(order)
        # the grid's cells off its edge; none when the order is no grid
        h = grid[1] if grid else 0
        interior = _block(range(1, n // h - 1), range(1, h - 1), h) if grid else 0
        # the cells that can start a candidate not inside: those of `within`
        # (or of the order) off the grid or on its edge
        outer = [
            cell for cell in (order if within is None else within)
            if not interior >> bit.get(cell, n) & 1  # n: off the order
        ]
        free = self.order_bits if within is None else self.mask(within)

        # keys[(first order cell * len(shapes) + shape) * 4 + shape cell]:
        # None for a placement built by a shift, else its anchor
        keys: dict[int, Cell | None] = {}
        kinds = [_Kind(shape, grid, n) for shape in shapes]
        for s, kind in enumerate(kinds):
            firsts = kind.inside
            for step in kind.steps:
                firsts &= free >> step
            code = s * 4 + kind.low
            while firsts:
                first = firsts & -firsts
                firsts ^= first
                keys[(first.bit_length() - 1) * len(shapes) * 4 + code] = None
            shape = kind.shape
            for x, y in {(a - c, b - r) for a, b in outer for c, r in shape.cells}:
                cell_bits = [bit.get((x + c, y + r), n) for c, r in shape.cells]
                first = min(cell_bits)
                if first == n or kind.inside >> cell_bits[kind.low] & 1:
                    continue  # off the order, or inside: keyed above
                if within is None or within.issuperset(
                    [(x + c, y + r) for c, r in shape.cells]
                ):
                    keys[(first * len(shapes) + s) * 4 + cell_bits.index(first)] = (x, y)

        by_pos = self.by_pos
        for key in sorted(keys):
            first, code = divmod(key, 4 * len(shapes))
            kind = kinds[code >> 2]
            anchor = keys[key]
            if anchor is None:
                # inside: every bit is a template's, shifted
                a, b = order[first]
                c, r = kind.shape.cells[kind.low]
                shift = first - kind.lift
                mask, touch1, touch2 = kind.templates
                p = Placement(
                    len(self.placements),
                    Molecule(kind.shape, (a - c, b - r)),
                    mask << shift,
                    touch1 << shift,
                    touch2 << shift,
                )
                for step in kind.steps:
                    by_pos[first + step].append(p)
            else:
                x, y = anchor
                # the bits are distinct, so each sum is a union
                bits = self._bits([(x + c, y + r) for c, r in kind.offsets])
                p = Placement(
                    len(self.placements),
                    Molecule(kind.shape, anchor),
                    sum(bits[:kind.k1]),
                    sum(bits[kind.k1:kind.k2]),
                    sum(bits[kind.k2:]),
                )
                for cell_bit in bits[:kind.k1]:
                    i = cell_bit.bit_length() - 1
                    if i < n:
                        by_pos[i].append(p)
            self.placements.append(p)

        # an interior grid cell's neighbours are its bit +- 1 and +- h
        vertical = 1 | 1 << 2 * h
        self.neighbors = [
            5 << i - 1 | vertical << i - h
            if interior >> i & 1
            else sum(self._bits(_neighbors(cell)))
            for i, cell in enumerate(order)
        ]

    def _bits(self, cells: Iterable[Cell]) -> list[int]:
        """The bit 1 << i of each given cell, giving new cells the next free
        bits in the order given."""
        bit = self._bit
        out = []
        for cell in cells:
            i = bit.get(cell)
            if i is None:
                i = bit[cell] = len(bit)
            out.append(1 << i)
        return out

    def mask(self, cells: Iterable[Cell]) -> int:
        """Bits of the given cells; cells that have no bit are skipped."""
        return sum(1 << self._bit[c] for c in set(cells) if c in self._bit)

    @property
    def all_bits(self) -> int:
        return (1 << len(self._bit)) - 1

    @property
    def order_bits(self) -> int:
        return (1 << self.n) - 1

