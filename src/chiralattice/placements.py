"""Bitboard placement grids shared by the exhaustive searches.

A search over molecule placements (the covering DFS, the interface branch
and bound, cluster growth) keeps its state as int masks over a fixed
numbering of lattice cells, the searches' only one (the lattice energies
count on boards of their own, and their side count also prices the
interface solver's set-up masks).  A placement holds its shape, anchor
and masks; the searches read the masks, and its `Molecule` is built on
request.

Every search passes a grid spec (first, along, across, h, w): w lines of
h cells, the order cells, from cell `first`, a step `along` between the
cells of a line and a step `across` between lines, two perpendicular unit
vectors (the covering DFS and cluster growth take columns bottom to top,
the interface solver a square column by column).  The grid, padded by a
margin of m cells on each side, is numbered line by line: with H = h + 2m
cells to a padded line, the cell at place r of padded line c has bit
c * H + r, and a bit's cell is read back by `divmod`.  The numbering is
affine in the cell's coordinates, so the order cells' bits increase along
the lines, a search's next undecided order cell is the lowest clear bit
of its state outside the order cells, a molecule's masks are its shape's
templates shifted by one amount (`masks`), and a grid with the same steps
inside the padded grid is read off one line at a time (`crop`).

The margin is 0 when `within` is given: it is the bits of a cell set on
the grid without margin, the order cells having bits 0..n-1, and it
misses the grid's border, so the kept placements and their rims are grid
cells.  Otherwise it is the shapes' reach plus one rim cell, so every
placement covering an order cell, and its rim, lies in the padded grid.

A search branches at its first undecided order cell i, below which
every order cell is decided, so the only placements it can choose there
are those whose first order cell is i.  The grid lists each placement
once, under that cell: these branch lists are all that the covering walk
and the interface solver read, and a search that needs the placements
covering a cell reads them off the masks.

A grid builds its placements and its neighbour masks on first read, so a
search that finishes at its root builds the numbering alone.  Two
threads racing on a first read build equal lists, so grids are safe for
concurrent use.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import Iterable, NamedTuple

from .molecules import Cell, Molecule, MoleculeShape

_UNIT = ((1, 0), (-1, 0), (0, 1), (0, -1))
# (first cell, step along a line, step across lines, line length, line count)
GridSpec = tuple[Cell, Cell, Cell, int, int]


def _rim(shape: MoleculeShape) -> tuple[list[Cell], list[Cell]]:
    """Offsets of the outside cells sharing one and two edges with the shape."""
    touches = Counter(
        nb for a, b in shape.cells for nb in ((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1))
        if nb not in shape.cells
    )
    return [c for c, k in touches.items() if k == 1], [c for c, k in touches.items() if k == 2]


class Placement(NamedTuple):
    """One translate of a shape, by its anchor, as masks over the table's
    cell bits: mask marks its cells, touch1 and touch2 the outside cells
    sharing one edge and two with it (no cell shares three with a connected
    4-cell shape).  Immutable; its molecule is built on request.
    """

    index: int
    shape: MoleculeShape
    anchor: Cell
    mask: int
    touch1: int
    touch2: int

    @property
    def molecule(self) -> Molecule:
        """The placed molecule, built anew on each read."""
        return Molecule(self.shape, self.anchor)

    def contacts(self, bits: int) -> int:
        """Boundary edges of the molecule whose outer cell is in bits."""
        return (self.touch1 & bits).bit_count() + 2 * (self.touch2 & bits).bit_count()


class PlacementGrid:
    """The numbering of a spec's padded grid, and its placements: every
    translate of a shape covering an order cell, lying in `within`.

    The padded grid's cells have bits 0..n-1, `height` to a line; order_bits
    marks the spec's cells, within_bits the cells of `within` (all_bits when
    it is None; `within` is bits on the grid without margin, and misses its
    border), and neighbors[i] is the mask of the neighbours of cell i in
    the padded grid: bits i +- 1 in its line and i +- height.

    With `within` given, a placement is kept iff all its cells are in it,
    and an order cell outside it starts no candidates: a kept placement's
    cells are all in `within`, its first order cell included.  Placements
    are numbered in order of their first order cell, then shape, then
    shape cell; by_first[i] lists the placements whose first order cell
    is i, in that numbering (none when i is no order cell), so each
    placement is listed once, and `placements` joins these lists in order.
    The neighbour masks and the placements are built on first read; two
    threads racing on a first read build equal lists.
    """

    def __init__(
        self, spec: GridSpec, shapes: Iterable[MoleculeShape], within: int | None = None
    ):
        (x0, y0), along, across, h, w = self._spec = spec
        if h < 1 or w < 1:
            raise ValueError("a grid spec needs lines of at least one cell")
        if along not in _UNIT or across not in _UNIT or along[0] * across[0] + along[1] * across[1]:
            raise ValueError("a grid spec steps by two perpendicular unit vectors")
        self._shapes = shapes = tuple(dict.fromkeys(shapes))  # a repeated shape adds nothing
        (ax, ay), (cx, cy) = along, across
        # a margin is the reach of a placement covering an order cell beyond
        # it (its shape's span less one) plus one cell for its rim
        self._margin = margin = 0 if within is not None else 1 + max((
            max(c[a] for c in s.cells) - min(c[a] for c in s.cells)
            for s in shapes for a in (0, 1)
        ), default=0)
        self.height = height = h + 2 * margin
        self._width = width = w + 2 * margin
        self.n = width * height
        self.all_bits = all_bits = (1 << self.n) - 1
        self.order_bits = sum((1 << h) - 1 << (c + margin) * height + margin for c in range(w))
        self.within_bits = all_bits if within is None else within
        # a step of one cell in x or y moves a bit by sx or sy, and the
        # numbering is affine: cell (x, y) has bit x * sx + y * sy + origin
        self._steps = sx, sy = cx * height + ax, cy * height + ay
        self._origin = margin * (height + 1) - x0 * sx - y0 * sy

    @cached_property
    def neighbors(self) -> list[int]:
        """The neighbour masks, built on first read."""
        height, all_bits = self.height, self.all_bits
        # line[r] holds those of place r of the middle of three lines
        line = [
            1 << r | ((5 << r >> 1) & (1 << height) - 1) << height | 1 << 2 * height + r
            for r in range(height)
        ]
        return [t << c * height >> height & all_bits for c in range(self._width) for t in line]

    def masks(self, molecules: Iterable[Molecule]) -> list[int]:
        """The mask of each molecule, which must lie in the padded grid: its
        shape's template shifted once from its anchor's bit."""
        sx, sy = self._steps
        out, shape = [], None
        for m in molecules:
            if m.shape is not shape:  # a run of one shape shares its template
                shape = m.shape
                offsets = [a * sx + b * sy for a, b in shape.cells]
                base = min(offsets)
                template = sum(1 << e - base for e in offsets)
                lift = self._origin + base
            a, b = m.anchor
            out.append(template << a * sx + b * sy + lift)
        return out

    def crop(self, spec: GridSpec, *masks: int) -> list[int]:
        """Each mask read on the cells of `spec`, numbered as a grid over
        `spec` with no margin numbers them, one shift and mask per line:
        `spec` has this grid's steps, and its cells lie in the padded grid."""
        (x, y), along, across, h, w = spec
        height = self.height
        c, r = divmod(x * self._steps[0] + y * self._steps[1] + self._origin, height)
        if (along, across) != self._spec[1:3] or c < 0 or c + w > self._width or r + h > height:
            raise ValueError("a cropped grid keeps the steps and lies in the padded grid")
        first, line = c * height + r, (1 << h) - 1
        return [sum((b >> first + k * height & line) << k * h for k in range(w)) for b in masks]

    @cached_property
    def by_first(self) -> list[list[Placement]]:
        """The branch lists, built on first read.

        A placement whose shape cell j lies on order cell f has f as its
        first order cell iff its cells are in `within` and those below f
        (of lower bit) are not order cells.  So the first order cells of
        the placements of each shape and shape cell are read off the
        bitboard of `within`, ANDed with its shifts by the shape's cell
        steps, and each placement's masks are its shape's templates
        shifted to f; its anchor is read off f's line and place, by
        `divmod`.  No shift wraps from one line into the next: with a
        margin, every placement covering an order cell lies in the padded
        grid, and without one, a placement leaving the grid crosses its
        edge, whose cells are not in `within` (a shape is edge-connected).
        """
        (x0, y0), (ax, ay), (cx, cy), _, _ = self._spec
        margin, height, order_bits = self._margin, self.height, self.order_bits
        free = self.within_bits
        # a placement's cells below its first order cell are free cells
        # outside the order
        outside = free & ~order_bits
        # bit c * height + r is cell (ox, oy) + c * across + r * along
        sx, sy = self._steps
        ox, oy = x0 - margin * (cx + ax), y0 - margin * (cy + ay)
        # kinds[shape * 4 + shape cell j]: the shape, the origin less cell j,
        # the shift of its templates minus the bit f of cell j, and its
        # templates; keys[k]: f * len(kinds) + the kind of placement k
        kinds = []
        keys = []
        stride = 4 * len(self._shapes)
        for shape in self._shapes:
            touch1, touch2 = _rim(shape)
            parts = [[a * sx + b * sy for a, b in part] for part in (shape.cells, touch1, touch2)]
            base = min(min(part) for part in parts if part)
            templates = tuple(sum(1 << e - base for e in part) for part in parts)
            for (a, b), dj in zip(shape.cells, parts[0]):
                steps = [e - dj for e in parts[0]]
                firsts = order_bits
                for e in steps:
                    firsts &= free >> e if e >= 0 else outside << -e
                while firsts:
                    first = firsts & -firsts
                    firsts ^= first
                    keys.append((first.bit_length() - 1) * stride + len(kinds))
                kinds.append((shape, ox - a, oy - b, base - dj, *templates))

        by_first: list[list[Placement]] = [[] for _ in range(self.n)]
        keys.sort()
        new = tuple.__new__  # skips the Python frame of Placement.__new__
        for index, key in enumerate(keys):
            first, code = divmod(key, stride)
            shape, x, y, lift, mask, touch1, touch2 = kinds[code]
            c, r = divmod(first, height)
            shift = first + lift
            by_first[first].append(new(Placement, (
                index, shape, (x + c * cx + r * ax, y + c * cy + r * ay),
                mask << shift, touch1 << shift, touch2 << shift,
            )))
        return by_first

    @cached_property
    def placements(self) -> list[Placement]:
        """Every placement, in index order: the branch lists joined."""
        return [p for ps in self.by_first for p in ps]
