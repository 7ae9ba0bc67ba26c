"""Molecules, configurations and perimeter-type energies on the square lattice.

A molecule occupies four unit cells of the integer lattice; a cell (c, r) is
the closed square [c, c+1] x [r, r+1].  The two built-in shapes R and S are a
mirror pair of L-shaped pieces (three cells stacked vertically plus one side
cell at the top); only translations are admitted, never rotations.  All
geometry is exact: lengths and areas are `fractions.Fraction` values and
comparisons are never subject to floating-point tolerances.

The lattice energies count on a configuration's boards, built when it is
validated: an int per chirality class over its cells' box, the box
halved until it spans at most 64 bits a cell (`_boards`).
`_boundary_lengths` charges each unoccupied side to the chirality class of
its molecule, a popcount per class and direction of shifted masks
(`free_sides`); `perimeter` adds the R-like and S-like lengths and
`weighted_perimeter` weighs them.  `decomposition.decompose` prices its
boundary with `perimeter`, on the same boards.
A side's length inside the open window is its clip, 1 unless the window
boundary cuts its line, and `volume_deficit` takes each cell's area as the
product of its two clips (`covered_area`).  Only a window's first and
last lines can be cut; `Window._cuts` prices each of them once, from the
window bounds.  `free_sides` and `covered_area` take plain masks, cut
lines and a unit, so the interface solver prices Q_T with them too.

The phase map lives here and nowhere else: `phase_shape` gives the shape
of each of the eight modulated phases and `phase_label` the phase of a
built-in molecule, from the residue of its anchor.

Every object in this module is immutable after construction, but for the
occupancy slot a Configuration fills on its first read, and every
function is pure.  Two threads that race to fill the slot build equal
dicts, so the race is benign and concurrent use is safe.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping

Cell = tuple[int, int]

R_LIKE = "R-like"
S_LIKE = "S-like"


class InvalidInput(ValueError):
    """A caller-supplied value or input file is malformed.

    Argument checks and the file decoders raise it; the command line maps
    it to exit code 2.  Any other exception is a bug, not bad input.
    """


class OverlapError(InvalidInput):
    """Two molecules claim the same cell."""

    def __init__(self, cell: Cell, index_a: int, index_b: int):
        self.cell = cell
        self.index_a = index_a
        self.index_b = index_b
        super().__init__(
            f"cell {cell} occupied by molecules #{index_a} and #{index_b}"
        )


class UnlabeledShape(InvalidInput):
    """Phase labels exist only for the built-in shapes R and S."""


class InconsistentScale(InvalidInput):
    """Anchors are not on the epsilon grid."""


# the errors a malformed JSON value raises when it is decoded
_DECODE_ERRORS = (
    TypeError, ValueError, KeyError, IndexError, AttributeError,
    ZeroDivisionError, OverflowError,
)


def _unique_members(pairs: list[tuple[str, object]]) -> dict:
    """The members of one JSON object; a repeated key raises InvalidInput."""
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise InvalidInput(f"repeated JSON key {key!r}")
        out[key] = value
    return out


def load_json(text: str):
    """The JSON value of `text`.  An object that repeats a key raises
    InvalidInput naming it, where `json.loads` would keep the last value."""
    return json.loads(text, object_pairs_hook=_unique_members)


def decode_entry(what: str, decode: Callable, value):
    """decode(value), raising the errors a malformed JSON value causes as
    InvalidInput that names `what`."""
    try:
        return decode(value)
    except _DECODE_ERRORS as exc:
        kind = "" if isinstance(exc, InvalidInput) else f"{type(exc).__name__}: "
        raise InvalidInput(f"{what}: {kind}{exc}") from exc


def json_int(what: str, value) -> int:
    """A JSON integer; a float, string or bool raises InvalidInput naming `what`."""
    if type(value) is not int:
        raise InvalidInput(f"invalid {what} {value!r}: expected an integer")
    return value


def argument(what: str, value, kind: type):
    """value, if it is a `kind`, a type or a tuple of types as `isinstance`
    takes; any other value raises InvalidInput naming `what` and the type
    it has."""
    if not isinstance(value, kind):
        names = " or ".join(k.__name__ for k in (kind if type(kind) is tuple else (kind,)))
        article = "an" if names[0] in "AEIOU" else "a"
        raise InvalidInput(f"{what} must be {article} {names}, not {type(value).__name__}")
    return value


def pair(what: str, value, read: Callable = json_int) -> tuple:
    """The entries of `value`, a tuple or list of exactly two, each read by
    `read(what, entry)`; the library reads every pair here, and any other
    value, such as a triple or a string, raises InvalidInput naming `what`."""
    if isinstance(value, (tuple, list)) and len(value) == 2:
        x, y = value
        return read(what, x), read(what, y)
    raise InvalidInput(f"invalid {what} {value!r}: expected a pair, a tuple or list of two entries")


def label(what: str, value, low: int = 0) -> int:
    """A phase label, an int in low..8 read by `json_int` (low = 1 where a
    phase shape is meant); any other value raises InvalidInput naming `what`."""
    if low <= json_int(what, value) <= 8:
        return value
    raise InvalidInput(f"{what} {value} out of range {low}..8")


def json_rational(what: str, value) -> Fraction:
    """A JSON integer, a rational string such as "-3/8" or a Fraction, kept
    as it is; a float, bool or any other value raises InvalidInput naming `what`.

    A string n or n/d of ASCII digits, with at most one leading "-" on n,
    is read with `int`, which accepts exactly what `Fraction` does there
    and raises its ZeroDivisionError for d = 0; any other string goes
    through `Fraction`'s parser."""
    if type(value) is Fraction:
        return value
    if type(value) is not int and type(value) is not str:
        raise InvalidInput(f"invalid {what} {value!r}: expected an integer or a rational string")
    try:
        if type(value) is str and value.isascii():
            n, slash, d = value.partition("/")
            if (n[1:] if n[:1] == "-" else n).isdigit() and (not slash or d.isdigit()):
                return Fraction(int(n), int(d)) if slash else Fraction(int(n))
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(f"invalid {what} {value!r}: {exc}") from exc


def decode_list(what: str, decode: Callable, data) -> list:
    """decode(entry) for each entry of a JSON list, naming the entry that fails."""
    if not isinstance(data, list):
        raise InvalidInput(f"{what}: expected a JSON list, not {type(data).__name__}")
    return [decode_entry(f"{what} entry {n}", decode, entry) for n, entry in enumerate(data)]


def _region_label(key) -> int:
    """A region label key: ASCII digits of a value in 0..8, read by `label`.
    A leading "-" reads as a sign, so "-1" is out of range, not malformed."""
    if type(key) is not str or not re.fullmatch("-?[0-9]+", key):
        raise InvalidInput(f"label {key!r} is not a string of ASCII digits")
    return label("label", int(key))


def decode_regions(decode: Callable, data: dict) -> dict:
    """{label: [decode(entry), ...]} over a JSON object of lists keyed by
    region labels 0..8, naming the key or entry that fails; two keys that
    decode to one label, such as "1" and "01", raise InvalidInput."""
    out: dict = {}
    for key, entries in data.items():
        lab = decode_entry("region label", _region_label, key)
        if lab in out:
            raise InvalidInput(f"region label {lab} is repeated (key {key!r})")
        out[lab] = decode_list(f"region {key}", decode, entries)
    return out


# -------------------------------------------------------------------
# Shapes and molecules
# -------------------------------------------------------------------

def _edge_connected(cells: Iterable[Cell]) -> bool:
    cells = set(cells)
    start = next(iter(cells))
    seen = {start}
    frontier = [start]
    while frontier:
        c, r = frontier.pop()
        for nb in ((c + 1, r), (c - 1, r), (c, r + 1), (c, r - 1)):
            if nb in cells and nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return len(seen) == len(cells)


@dataclass(frozen=True)
class MoleculeShape:
    """A named 4-cell shape with a chirality tag used by weighted energies.

    Its cells are a tuple of exactly four distinct, edge-connected pairs of
    ints, each read by `json_int` (so a bool is refused), and anything else
    raises InvalidInput: every molecule has four distinct cells, which
    `validate`'s size test relies on.
    """

    name: str
    cells: tuple[Cell, Cell, Cell, Cell]
    chirality_class: str

    def __post_init__(self):
        cells = self.cells
        if type(cells) is not tuple or len(cells) != 4 or not all(
            type(cell) is tuple and len(cell) == 2 for cell in cells
        ):
            raise InvalidInput(
                f"shape {self.name!r} needs 4 distinct cells, a tuple of pairs (c, r)"
            )
        for c, r in cells:
            json_int("shape cell coordinate", c)
            json_int("shape cell coordinate", r)
        if len(set(cells)) != 4:
            raise InvalidInput(f"shape {self.name!r} needs 4 distinct cells")
        if not _edge_connected(self.cells):
            raise InvalidInput(f"shape {self.name!r} is not edge-connected")
        if self.chirality_class not in (R_LIKE, S_LIKE):
            raise InvalidInput(
                f"chirality_class must be {R_LIKE!r} or {S_LIKE!r}"
            )


R = MoleculeShape("R", ((0, 0), (0, 1), (0, 2), (1, 2)), R_LIKE)
S = MoleculeShape("S", ((-1, 0), (-1, 1), (-1, 2), (-2, 2)), S_LIKE)

BUILTIN_SHAPES: Mapping[str, MoleculeShape] = MappingProxyType({"R": R, "S": S})


@dataclass(frozen=True, slots=True)
class Molecule:
    """One translate of a shape: its cells are the shape's cells shifted by
    the anchor.  Slotted, so an instance holds its two fields and no
    `__dict__`; equal molecules have equal shapes and anchors."""

    shape: MoleculeShape
    anchor: Cell

    def cells(self) -> tuple[Cell, Cell, Cell, Cell]:
        # unrolled: every shape has exactly four cells, and the cell walks
        # (the occupancy dict, the overlap report, the frame test, the SVG
        # writer) call it once per molecule
        ax, ay = self.anchor
        (c0, r0), (c1, r1), (c2, r2), (c3, r3) = self.shape.cells
        return (
            (ax + c0, ay + r0), (ax + c1, ay + r1),
            (ax + c2, ay + r2), (ax + c3, ay + r3),
        )


def _anchor(m: Molecule) -> Cell:
    """The anchor of m, whose shape must be a MoleculeShape and whose
    anchor a pair of ints; a float, bool or Fraction coordinate, a shape of
    another type or an anchor that is not a pair raises InvalidInput."""
    if not isinstance(m.shape, MoleculeShape):
        raise InvalidInput(f"invalid molecule shape {m.shape!r}: expected a MoleculeShape")
    a = m.anchor
    if type(a) is not tuple or len(a) != 2:
        raise InvalidInput(f"invalid anchor {a!r}: expected a pair of integers")
    return json_int("anchor coordinate", a[0]), json_int("anchor coordinate", a[1])


def phase_label(m: Molecule) -> int:
    """Label in 1..8 of the zero-energy family the molecule belongs to.

    For R the label is the residue of n1 + n2 mod 4 taken in {1, 2, 3, 4};
    for S it is the residue of n2 - n1 mod 4 taken in {5, 6, 7, 8}.  The
    label is constant along the molecule's own striped pattern, so it names
    one of the eight modulated phases.  A molecule that `_anchor` refuses
    raises InvalidInput.
    """
    n1, n2 = _anchor(m)
    if m.shape.name == "R" and m.shape is R:
        r = (n1 + n2) % 4
        return 4 if r == 0 else r
    if m.shape.name == "S" and m.shape is S:
        r = (n2 - n1) % 4
        return 8 if r == 0 else r + 4
    raise UnlabeledShape(f"shape {m.shape.name!r} has no phase label")


def phase_shape(i: int) -> MoleculeShape:
    """Shape of the molecules of phase i: R for 1..4, S for 5..8.

    With `phase_label` this is the library's one statement of the phase
    map; every other module reads the species of a phase from here.
    """
    return R if label("phase label", i, 1) <= 4 else S


# -------------------------------------------------------------------
# Windows
# -------------------------------------------------------------------

@dataclass(frozen=True)
class Window:
    """An axis-aligned open square, or the whole plane (side is None).

    The bounds and the integer index ranges derived from them are computed
    once per instance, on first use.
    """

    center: tuple[Fraction, Fraction]
    side: Fraction | None

    @classmethod
    def square(cls, side, center=(0, 0)) -> "Window":
        """An open square; `json_rational` reads its side and centre."""
        side = json_rational("window side", side)
        if side <= 0:
            raise InvalidInput("window side must be positive")
        return cls(pair("window centre", center, json_rational), side)

    @classmethod
    def plane(cls) -> "Window":
        return cls((Fraction(0), Fraction(0)), None)

    @property
    def is_plane(self) -> bool:
        return self.side is None

    def bounds(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return self._bounds

    @cached_property
    def _bounds(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        if self.side is None:
            raise InvalidInput("the whole plane has no bounds")
        cx, cy = self.center
        h = self.side / 2
        return (cx - h, cy - h, cx + h, cy + h)

    def cell_range(self) -> tuple[range, range]:
        """Index ranges of lattice cells intersecting the open window."""
        return self._cells

    @cached_property
    def _cells(self) -> tuple[range, range]:
        x0, y0, x1, y1 = self._bounds
        return range(math.floor(x0), math.ceil(x1)), range(math.floor(y0), math.ceil(y1))

    @cached_property
    def _cuts(self) -> tuple[int, tuple[tuple[int, int, int], ...]]:
        """(unit, cuts): (axis, k, e) for each line k of `_cells` that the
        window boundary cuts, only ever a first or last one, priced once:
        its clip, the length of [k, k+1] inside the open window, is
        1 + e / unit, unit the clips' least common denominator."""
        b = self._bounds
        cuts = [(axis, k, clip) for axis, cells in enumerate(self._cells)
                for k in dict.fromkeys((cells[0], cells[-1]))
                if (clip := min(b[axis + 2], k + 1) - max(b[axis], k)) < 1]
        unit = math.lcm(*(clip.denominator for *_, clip in cuts))
        return unit, tuple((axis, k, int(clip * unit) - unit) for axis, k, clip in cuts)

    def contains_cell(self, cell: Cell) -> bool:
        """True iff the open window meets the interior of the closed cell."""
        if self.side is None:
            return True
        xs, ys = self._cells
        return cell[0] in xs and cell[1] in ys


PLANE = Window.plane()


# -------------------------------------------------------------------
# Configurations
# -------------------------------------------------------------------

class Configuration:
    """A validated family of pairwise essentially-disjoint molecules.

    Its boards (`_boards`, a layer per chirality class over its cells' box)
    are its one cell index: validation builds them and every energy counts
    on them.  The occupancy, which maps every occupied cell to the index of
    its owning molecule in `molecules`, is a dict built on its first read
    and kept in a slot; otherwise instances are immutable.
    """

    __slots__ = ("molecules", "_occupancy", "_boards")

    def __init__(self, molecules: Iterable[Molecule]):
        """Validate the molecules, raising OverlapError on the first conflict.

        Each entry must be a Molecule, its shape a MoleculeShape and its
        anchor a pair of ints (`_anchor`), or InvalidInput is raised.  The
        boards of the molecules, a group per shape, hold four cells per
        translate iff the molecules are disjoint; only when a board holds
        fewer are the cells walked one by one, to name the first cell
        claimed twice and its two molecules.
        """
        mols = tuple(molecules)
        groups: dict[int, tuple] = {}
        shape = None
        for n, m in enumerate(mols):
            if not isinstance(m, Molecule):
                raise InvalidInput(f"molecule #{n} is not a Molecule: {m!r}")
            a = m.anchor  # tested inline, and `_anchor` names the fault
            if type(a) is not tuple or len(a) != 2 or type(a[0]) is not int or type(a[1]) is not int:
                _anchor(m)
            if m.shape is not shape:  # molecules mostly come in runs of one shape
                shape = m.shape
                if not isinstance(shape, MoleculeShape):
                    _anchor(m)
                anchors = groups.setdefault(id(shape), (shape.chirality_class == R_LIKE, shape.cells, []))[2]
            anchors.append(a)
        boards = _boards(list(groups.values()))
        if boards is None:
            occupancy: dict[Cell, int] = {}
            for i, m in enumerate(mols):
                for cell in m.cells():
                    j = occupancy.setdefault(cell, i)
                    if j != i:
                        raise OverlapError(cell, j, i)
        self.molecules = mols
        self._occupancy = None
        self._boards = boards

    @property
    def occupancy(self) -> Mapping[Cell, int]:
        """Every occupied cell and the index of its molecule, in molecule
        and then shape-cell order; a dict built on first read."""
        if self._occupancy is None:
            self._occupancy = {cell: i for i, m in enumerate(self.molecules) for cell in m.cells()}
        return self._occupancy

    def __len__(self) -> int:
        return len(self.molecules)

    def __iter__(self) -> Iterator[Molecule]:
        return iter(self.molecules)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return sorted(
            (m.shape.name, m.anchor) for m in self.molecules
        ) == sorted((m.shape.name, m.anchor) for m in other.molecules)

    def __repr__(self) -> str:
        return f"Configuration({len(self.molecules)} molecules)"


def validate(molecules: Iterable[Molecule]) -> Configuration:
    """Build a Configuration, raising OverlapError on the first conflict."""
    return Configuration(molecules)


# -------------------------------------------------------------------
# Energies
# -------------------------------------------------------------------

def _boards(groups: list[tuple[int, tuple[Cell, ...], list[Cell]]]) -> list[tuple] | None:
    """Boards of the cells translated by the offsets of each (layer, cells,
    offsets) group, or None if two translates share a cell.  A board (x0,
    y0, height, width, layers, own) spans its cells' box and an empty rim:
    bit (a - x0) * height + b - y0 of layers[k] marks cell (a, b) in layer
    0 (S-like) or 1 (R-like), so a shift by 1 or height moves a bit onto a
    neighbour's, never across a line.  It counts the cells in its `own`
    ranges ((xlo, xhi), (ylo, yhi)) and holds every translate with a cell
    in or next to them, so two translates that share a cell share the board
    that owns it.  A box of more than 64 bits a cell, plus 64 x 64, is
    halved across its longer side until none is, however far apart the
    cells lie."""
    boards, parts = [], [(groups, None)]
    while parts:
        groups, own = parts.pop()
        if not groups:
            continue
        spans, held = [], 0
        for _, cells, offsets in groups:
            (px, py), (dx, dy) = zip(*offsets), zip(*cells)
            spans.append((min(px) + min(dx), min(py) + min(dy), max(px) + max(dx), max(py) + max(dy)))
            held += len(cells) * len(offsets)
        xlo, ylo, xhi, yhi = zip(*spans)
        x0, y0 = min(xlo) - 1, min(ylo) - 1
        width, height = max(xhi) + 2 - x0, max(yhi) + 2 - y0
        own = own or ((x0, x0 + width), (y0, y0 + height))
        if width * height <= 64 * (held + 64):
            board = _build_board(groups, x0, y0, height, width, own)
            if board is None:
                return None
            boards.append(board)
            continue
        # the box juts out of `own` by at most 4 cells and spans more than
        # 64 on this axis, so its middle line is well inside `own`
        axis = width < height
        mid = (x0, y0)[axis] + (width, height)[axis] // 2
        for lo, hi in ((own[axis][0], mid), (mid, own[axis][1])):
            part = []
            for layer, cells, offsets in groups:
                ds = [cell[axis] for cell in cells]
                top, bottom = hi - min(ds), lo - 1 - max(ds)  # a cell in lo - 1 .. hi
                part.append((layer, cells, [p for p in offsets if bottom <= p[axis] <= top]))
            parts.append(([g for g in part if g[2]], (own[0], (lo, hi)) if axis else ((lo, hi), own[1])))
    return boards


def _build_board(groups: list, x0: int, y0: int, height: int, width: int, own) -> tuple | None:
    """The board of the groups over the box at (x0, y0), or None if it
    holds fewer cells than its translates have, four each.  A group's
    offsets are set as bits of one byte string that `int.from_bytes` reads
    once, shifted once per cell: linear in cells."""
    size = width * height + 7 >> 3
    layers, cells_held = [0, 0], 0
    for layer, cells, offsets in groups:
        shifts = [c * height + r for c, r in cells]
        low = min(shifts)
        base = x0 * height + y0 - low  # bit k - base is the translate's lowest cell
        bits = bytearray(size)
        for a, b in offsets:
            k = a * height + b - base
            bits[k >> 3] |= 1 << (k & 7)
        translates = int.from_bytes(bits, "little")
        for shift in shifts:
            layers[layer] |= translates << shift - low
        cells_held += len(shifts) * len(offsets)
    if (layers[0] | layers[1]).bit_count() != cells_held:
        return None
    return x0, y0, height, width, tuple(layers), own


def _window_bits(board: tuple, window: Window) -> tuple[int, int, list[tuple[int, int, int]]]:
    """(inside, mine, lines): the bits of the board's cells that meet the
    window, those of them in its `own` ranges, and the window's `_cuts`
    with each line k read as its bits of the latter."""
    x0, y0, height, width, _, own = board
    ones = ((1 << width * height) - 1) // ((1 << height) - 1)  # bit 0 of each line

    def span(axis: int, lo: int, hi: int) -> int:  # the cells whose coordinate on the axis is in lo .. hi - 1
        lo, hi = (min(max(v - (x0, y0)[axis], 0), (width, height)[axis]) for v in (lo, hi))
        if hi <= lo:
            return 0
        return (1 << hi * height) - (1 << lo * height) if axis == 0 else ((1 << hi) - (1 << lo)) * ones

    mine = span(0, *own[0]) & span(1, *own[1])
    if window.is_plane:
        return -1, mine, []
    xs, ys = window._cells
    inside = span(0, xs.start, xs.stop) & span(1, ys.start, ys.stop)
    mine &= inside
    return inside, mine, [(axis, e, mine & span(axis, k, k + 1)) for axis, k, e in window._cuts[1]]


def free_sides(mine: tuple[int, ...], vacant: int, height: int, lines: Iterable, unit: int) -> list[int]:
    """For each class of cells in `mine`, the length of their sides that
    face a cell of `vacant`, an int in units of 1/unit, on a board of
    lines `height` bits long that no shift by 1 or height leaves.

    A cut line (kind, excess, bits) clips the sides of its cells `bits` to
    1 + excess / unit.  Kind 0 is cells of whole lines, and clips the sides
    along them (shift 1); kind 1 is one cell of each line, and clips the
    sides across lines (shift height).  On a board of `_boards`, a cut
    column and a cut row.
    """
    # the cells whose west, east, south and north neighbours are vacant, on a board of `_boards`
    facing = (vacant << height, vacant >> height, vacant << 1, vacant >> 1)
    counts = []
    for bits in mine:
        sides = [bits & f for f in facing]
        n = sum(side.bit_count() for side in sides) * unit
        for kind, excess, line in lines:
            # a cut column clips its cells' south and north sides, a cut row their west and east
            along = sides[2:] if kind == 0 else sides[:2]
            n += excess * sum((side & line).bit_count() for side in along)
        counts.append(n)
    return counts


def covered_area(occ: int, lines: Iterable, unit: int) -> int:
    """The area of the cells `occ`, an int in units of 1/unit², clipped by
    the cut lines (kind, excess, bits) of `free_sides`: each cell counts 1,
    less 1 - clip per cut line through it, plus (1 - clip_x)(1 - clip_y)
    on a cut line of each kind, the product of its clips.  Each is a popcount."""
    lines = [(kind, excess, occ & bits) for kind, excess, bits in lines]
    cells = occ.bit_count() * unit + sum(e * bits.bit_count() for _, e, bits in lines)
    corners = (ex * ey * (c & r).bit_count() for kx, ex, c in lines for ky, ey, r in lines if kx < ky)
    return cells * unit + sum(corners)


def _energy_args(config: Configuration, window: Window) -> None:
    """Raise InvalidInput, naming the argument, unless config is a
    Configuration and window a Window."""
    argument("config", config, Configuration)
    argument("window", window, Window)


def _boundary_lengths(config: Configuration, window: Window) -> tuple[Fraction, Fraction]:
    """(R-like, S-like) length of the boundary of the union of molecules
    inside the open window, counted on the configuration's boards.

    Each unoccupied side of an occupied cell is charged to the chirality
    class of that cell's molecule.  The window is open, so a side counts
    only if the cells on both its sides meet the window: per board,
    `free_sides` of the class's counted cells inside against the vacant
    cells inside.  A side on a cut line counts its clip.
    """
    _energy_args(config, window)
    unit = 1 if window.is_plane else window._cuts[0]
    lengths = [0, 0]
    for board in config._boards:
        height, (s_like, r_like) = board[2], board[4]
        inside, mine, lines = _window_bits(board, window)
        vacant = inside & ~(s_like | r_like)
        for k, n in enumerate(free_sides((r_like & mine, s_like & mine), vacant, height, lines, unit)):
            lengths[k] += n
    return Fraction(lengths[0], unit), Fraction(lengths[1], unit)


def perimeter(config: Configuration, window: Window = PLANE) -> Fraction:
    """Length of the boundary of the union of molecules inside the window.

    On the whole plane this equals 4*(#cells) - 2*(#adjacent occupied
    pairs); with a finite window, edges are clipped exactly to the open
    square.
    """
    r_length, s_length = _boundary_lengths(config, window)
    return r_length + s_length


def weighted_perimeter(
    config: Configuration, c_R, c_S, window: Window = PLANE
) -> Fraction:
    """Boundary length with R-like edges weighted c_R and S-like edges c_S.

    Every boundary edge is adjacent to exactly one molecule; that
    molecule's chirality class selects the weight.  A weight is read by
    `json_rational`, so a float or bool raises InvalidInput.
    """
    c_R, c_S = json_rational("weight", c_R), json_rational("weight", c_S)
    if c_R <= 0 or c_S <= 0:
        raise InvalidInput("weights must be positive")
    r_length, s_length = _boundary_lengths(config, window)
    return c_R * r_length + c_S * s_length


def volume_deficit(config: Configuration, window: Window) -> Fraction:
    """Area of the window not covered by molecules, |w \\ E|.

    The covered area is `covered_area` of each board's occupied cells in
    the window, clipped by the window's cut lines.
    """
    _energy_args(config, window)
    if window.is_plane:
        raise InvalidInput("volume deficit is infinite on the whole plane")
    unit, covered = window._cuts[0], 0
    for board in config._boards:
        _, mine, lines = _window_bits(board, window)
        covered += covered_area((board[4][0] | board[4][1]) & mine, lines, unit)
    return window.side ** 2 - Fraction(covered, unit * unit)


# -------------------------------------------------------------------
# The striped zero-energy patterns
# -------------------------------------------------------------------

def pattern_columns(
    i: int, cells: tuple[range, range], cut: tuple[int, int, int] = (0, 0, -1)
) -> list[tuple[int, range]]:
    """The anchors of the phase-i molecules with a cell in xs x ys that meet
    the open half-plane {p x + q y > c}, for cells = (xs, ys) and cut =
    (p, q, c), column by column: (a, bs) for each anchor column a in
    increasing order, with the molecules (phase_shape(i), (a, b)) for b in
    bs.  The default cut is the whole plane; an empty xs or ys gives [].

    This is the one statement of the stripe geometry and of its cut.  Each
    column's anchors form one range of step 4, bounded by the box (the
    shape's rows in a cell column are contiguous, and the inner columns,
    which hold the whole shape, share those bounds), then by the cut (over
    a molecule's closed cells p x + q y peaks at p a + q b plus the
    shape's reach), then aligned to the column's residue: the label of
    (a, b) is, mod 4, its label at the origin plus one per row and `step`
    per column, read off `phase_label`.
    """
    xs, ys = cells
    if not xs or not ys:
        return []
    p, q, c = cut
    shape = phase_shape(i)
    origin = phase_label(Molecule(shape, (0, 0)))
    step = phase_label(Molecule(shape, (1, 0))) - origin
    dxs = [dx for dx, _ in shape.cells]
    dys = [dy for _, dy in shape.cells]
    reach = max(p * dx + q * dy for dx, dy in shape.cells) + max(p, 0) + max(q, 0)
    inner = range(xs.start - min(dxs), xs.stop - max(dxs))
    rows = ys.start - max(dys), ys.stop - min(dys)
    columns = []
    for a in range(xs.start - max(dxs), xs.stop - min(dxs)):
        if a in inner:
            lo, hi = rows
        else:
            col = [dy for dx, dy in shape.cells if a + dx in xs]
            lo, hi = ys.start - max(col), ys.stop - min(col)
        need = c - reach - p * a  # a molecule meets the cut iff q b > need
        if q > 0:
            lo = max(lo, need // q + 1)
        elif q < 0:
            hi = min(hi, -(need // -q))
        elif need >= 0:
            hi = lo
        columns.append((a, range(lo + (i - origin - step * a - lo) % 4, hi, 4)))
    return columns


def phase_pattern(i: int, window: Window) -> Configuration:
    """All phase-i molecules whose cells intersect the window, validated, in
    the column order of `pattern_columns` over the window's cells.

    The result covers every cell of the window, has zero perimeter on the
    erosion of the window by 3, and consists of molecules that all carry
    phase label i.
    """
    if argument("window", window, Window).is_plane:
        raise InvalidInput("a plane-filling pattern is infinite; pass a square")
    columns = pattern_columns(i, window.cell_range())
    shape = phase_shape(i)
    return validate(Molecule(shape, (a, b)) for a, bs in columns for b in bs)


# -------------------------------------------------------------------
# JSON round-trip (shape files and configuration files)
# -------------------------------------------------------------------

def shapes_to_json(shapes: Iterable[MoleculeShape]) -> str:
    payload = [
        {
            "name": s.name,
            "cells": [[c, r] for c, r in s.cells],
            "chirality_class": s.chirality_class,
        }
        for s in shapes
    ]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def shapes_from_json(text: str) -> dict[str, MoleculeShape]:
    """Decode a shape file, [{"name", "cells", "chirality_class"}, ...]."""
    out: dict[str, MoleculeShape] = {}

    def entry(raw) -> None:
        shape = MoleculeShape(raw["name"], tuple(map(tuple, raw["cells"])), raw["chirality_class"])
        if shape.name in out:
            raise InvalidInput(f"duplicate shape name {shape.name!r}")
        out[shape.name] = shape

    decode_list("shape file", entry, decode_entry("shape file", load_json, text))
    return out


def configuration_to_jsonable(config: Configuration) -> list[dict]:
    """[{"shape": name, "anchor": [x, y]}, ...] in molecule order."""
    return [{"shape": m.shape.name, "anchor": list(m.anchor)} for m in config.molecules]


def configuration_to_json(config: Configuration) -> str:
    return json.dumps(configuration_to_jsonable(config), sort_keys=True, indent=2) + "\n"


def configuration_entries(
    data, shapes: Mapping[str, MoleculeShape] | None = None
) -> list[tuple[MoleculeShape, tuple[Fraction, Fraction]]]:
    """Decode a configuration file, [{"shape": name, "anchor": [x, y]}, ...],
    to (shape, rational anchor) pairs for `configuration_on_grid`.  Each
    anchor is two JSON integers or rational strings, read by
    `json_rational`.  Names resolve in `shapes`, then R and S."""
    table = {**BUILTIN_SHAPES, **(shapes or {})}

    def entry(raw) -> tuple[MoleculeShape, tuple[Fraction, Fraction]]:
        shape = table.get(raw["shape"])
        if shape is None:
            raise InvalidInput(f"unknown shape {raw['shape']!r}")
        return shape, pair("anchor", raw["anchor"], json_rational)

    return decode_list("configuration", entry, data)


def configuration_on_grid(
    epsilon, entries: Iterable[tuple[MoleculeShape, tuple]]
) -> Configuration:
    """Validated configuration of the lattice anchors a / epsilon, which
    must be integer points; epsilon = 1 reads a lattice file.

    Epsilon and each anchor coordinate, ints or Fractions, are read once
    with `as_integer_ratio`: x = xn / xd over epsilon = en / ed is
    (xn * ed) / (xd * en), an integer iff that division leaves no remainder."""
    en, ed = epsilon.as_integer_ratio()
    mols = []
    for n, (shape, anchor) in enumerate(entries):
        (xn, xd), (yn, yd) = anchor[0].as_integer_ratio(), anchor[1].as_integer_ratio()
        ax, rx = divmod(xn * ed, xd * en)
        ay, ry = divmod(yn * ed, yd * en)
        if rx or ry:
            raise InconsistentScale(
                f"anchor ({anchor[0]}, {anchor[1]}) of molecule #{n} "
                f"is not on the {epsilon}-grid"
            )
        mols.append(Molecule(shape, (ax, ay)))
    return validate(mols)


def configuration_from_json(
    text: str, shapes: Mapping[str, MoleculeShape] | None = None
) -> Configuration:
    """Decode a lattice configuration file; anchors must be integers."""
    data = decode_entry("configuration", load_json, text)
    return configuration_on_grid(1, configuration_entries(data, shapes))
