"""Bitboard placement tables shared by the exhaustive searches.

A search over molecule placements (the covering DFS, the interface branch
and bound, cluster growth) keeps its state as int masks over a fixed
numbering of lattice cells.  This module is the only place that numbers
cells, and it has one numbering.  A placement holds its shape, anchor and
masks; the searches read the masks, and its `Molecule` is built on request.

Every search passes a grid order: w lines of h cells, each line stepping
one cell along one axis, either way, and each line one cell across from
the last, either way (the covering DFS and cluster growth list columns
bottom to top, the interface solver lists a square line by line).  The
table numbers the cells of that grid, padded by a margin of m cells on
each side, line by line: with H = h + 2m cells to a padded line, the cell
at place r of padded line c has bit c * H + r.  The numbering is affine
in the cell's coordinates, so the order cells' bits increase along the
order, a search's next undecided order cell is the lowest clear bit of
its state outside the order cells, and every placement's masks are its
shape's templates shifted by one amount.

The margin is worked out from the input, in the one walk over `within`
that also gives its bits.  It is 0 when `within` lies at least one cell
inside the grid: the kept placements and their rims are then grid cells,
and the order cells have bits 0..n-1.  Otherwise it is the shapes' reach
plus one rim cell, so every placement covering an order cell, and its
rim, lies in the padded grid.

Tables are immutable after construction and safe for concurrent use.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .molecules import Cell, Molecule, MoleculeShape

_UNIT = ((1, 0), (-1, 0), (0, 1), (0, -1))


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


def _grid(order: Sequence[Cell]) -> tuple[Cell, Cell, int]:
    """(along, across, h) when order lists lines of h cells from its first
    cell, each cell one unit step `along` from the last and each line one
    step `across`, perpendicular to it; raises ValueError otherwise."""
    n = len(order)
    if not n:
        raise ValueError("a placement order needs at least one cell")
    x0, y0 = order[0]
    along = (order[1][0] - x0, order[1][1] - y0) if n > 1 else (0, 1)
    h = 1
    while h < n and order[h] == (x0 + h * along[0], y0 + h * along[1]):
        h += 1
    across = (order[h][0] - x0, order[h][1] - y0) if h < n else (along[1], along[0])
    expected = [
        (x0 + c * across[0] + r * along[0], y0 + c * across[1] + r * along[1])
        for c in range(n // h)
        for r in range(h)
    ]
    if (
        along not in _UNIT
        or across not in _UNIT
        or along[0] * across[0] + along[1] * across[1]
        or list(order) != expected
    ):
        raise ValueError("a placement order must list a grid line by line")
    return along, across, h


class PlacementTable:
    """Every translate of a shape covering an order cell, lying in `within`.

    With `within` given, a placement is kept iff all its cells are in it,
    and an order cell outside it starts no candidates: a kept placement's
    cells are all in `within`, its first order cell included.

    The cells of the order's padded grid (see the module docstring) have
    bits 0..n-1, order_bits marks the order cells and within_bits the
    cells of `within` (all_bits when it is None).  Placements are
    numbered in order of their first order cell, then shape, then shape
    cell; by_pos[i] lists the placements covering cell i in that numbering
    (none when i is no order cell), and neighbors[i] is the mask of its
    neighbours in the padded grid.

    A placement whose shape cell j lies on order cell f has f as its first
    order cell iff its cells are in `within` and those below f (of lower
    bit) are not order cells.  So the first order cells of the placements
    of each shape and shape cell are read off the bitboard of `within`,
    ANDed with its shifts by the shape's cell steps, and each placement's
    masks are its shape's templates shifted to f.  No shift wraps from one
    line into the next: with a margin, every placement covering an order
    cell lies in the padded grid, and without one, a placement leaving
    the grid crosses its edge, whose cells are not in `within` (a shape is
    edge-connected).
    """

    def __init__(
        self, order: Sequence[Cell], shapes: Iterable[MoleculeShape], within: set[Cell] | None = None
    ):
        shapes = tuple(dict.fromkeys(shapes))  # a repeated shape adds no placements
        along, across, h = _grid(order)
        w = len(order) // h
        self._axes = (order[0], along, across)
        # one walk over `within`: its bits, if it lies inside the grid (no margin)
        inside = within is not None
        free = 0
        for c, r in self._places(within or ()):
            if not (0 < c < w - 1 and 0 < r < h - 1):
                inside = False
                break
            free |= 1 << c * h + r
        # a margin is the reach of a placement covering an order cell beyond
        # it (its shape's span less one) plus one cell for its rim
        margin = 0 if inside else 1 + max((
            max(c[a] for c in s.cells) - min(c[a] for c in s.cells)
            for s in shapes for a in (0, 1)
        ), default=0)
        self._margin = margin
        self._height = height = h + 2 * margin
        self._width = width = w + 2 * margin
        self.n = n = width * height
        all_bits = self.all_bits
        # cell_at[bit]: the order cell of that bit, None off the order
        cell_at: list[Cell | None] = [None] * n
        order_bits = 0
        for c in range(w):
            start = (c + margin) * height + margin
            cell_at[start:start + h] = order[c * h:(c + 1) * h]
            order_bits |= (1 << h) - 1 << start
        self.order_bits = order_bits
        if not inside:
            free = all_bits if within is None else self.mask(within)
        self.within_bits = free
        # a placement's cells below its first order cell are free cells
        # outside the order
        outside = free & ~order_bits

        # a step of one cell in x or y moves a bit by sx or sy
        sx = across[0] * height + along[0]
        sy = across[1] * height + along[1]
        # specs[shape * 4 + shape cell j]: the shape, cell j, the shift of its
        # templates and its cells' bits, each minus the bit f of cell j, and
        # its templates; keys[k]: f * len(specs) + the spec of placement k
        specs = []
        keys = []
        stride = 4 * len(shapes)
        for shape in shapes:
            touch1, touch2 = _rim(shape)
            parts = [[a * sx + b * sy for a, b in part] for part in (shape.cells, touch1, touch2)]
            base = min(min(part) for part in parts if part)
            templates = tuple(sum(1 << e - base for e in part) for part in parts)
            for cell, dj in zip(shape.cells, parts[0]):
                steps = [e - dj for e in parts[0]]
                firsts = order_bits
                for e in steps:
                    firsts &= free >> e if e >= 0 else outside << -e
                while firsts:
                    first = firsts & -firsts
                    firsts ^= first
                    keys.append((first.bit_length() - 1) * stride + len(specs))
                specs.append((shape, *cell, base - dj, steps, *templates))

        self.placements: list[Placement] = []
        self.by_pos: list[list[Placement]] = [[] for _ in range(n)]
        placements, by_pos = self.placements, self.by_pos
        keys.sort()
        new = tuple.__new__  # skips the Python frame of Placement.__new__
        for index, key in enumerate(keys):
            first, code = divmod(key, stride)
            shape, a, b, lift, steps, mask, touch1, touch2 = specs[code]
            x, y = cell_at[first]
            shift = first + lift
            p = new(Placement, (
                index, shape, (x - a, y - b), mask << shift, touch1 << shift, touch2 << shift
            ))
            for e in steps:
                by_pos[first + e].append(p)
            placements.append(p)
        if margin:  # by_pos lists placements at order cells only
            by_pos[:] = [ps if cell is not None else [] for ps, cell in zip(by_pos, cell_at)]

        # a cell's neighbours are its bit +- 1 in its line and +- height:
        # line[r] holds those of place r of the middle of three lines
        line = [
            1 << r | ((5 << r >> 1) & (1 << height) - 1) << height | 1 << 2 * height + r
            for r in range(height)
        ]
        self.neighbors = [
            t << c * height >> height & all_bits for c in range(width) for t in line
        ]

    def _places(self, cells: Iterable[Cell]) -> Iterator[tuple[int, int]]:
        """Each cell's line and place in it, counted on the unpadded grid."""
        (x0, y0), (ax, ay), (cx, cy) = self._axes
        for x, y in cells:
            x -= x0
            y -= y0
            yield x * cx + y * cy, x * ax + y * ay

    def mask(self, cells: Iterable[Cell]) -> int:
        """Bits of the given cells; cells off the padded grid are skipped."""
        m, height, width = self._margin, self._height, self._width
        bits = 0
        for c, r in self._places(cells):
            if -m <= c < width - m and -m <= r < height - m:
                bits |= 1 << (c + m) * height + r + m
        return bits

    @property
    def all_bits(self) -> int:
        return (1 << self.n) - 1
