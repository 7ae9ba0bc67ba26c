"""Molecules, configurations and perimeter-type energies on the square lattice.

A molecule occupies four unit cells of the integer lattice; a cell (c, r) is
the closed square [c, c+1] x [r, r+1].  The two built-in shapes R and S are a
mirror pair of L-shaped pieces (three cells stacked vertically plus one side
cell at the top); only translations are admitted, never rotations.  All
geometry is exact: lengths and areas are `fractions.Fraction` values and
comparisons are never subject to floating-point tolerances.

The lattice energies share one sweep and one clipping rule.
`_boundary_lengths` makes a single pass over the occupied cells and
charges each unoccupied side to the chirality class of its molecule;
`perimeter` adds the R-like and S-like lengths and `weighted_perimeter`
weighs them.  `Window._clip` is the length of a unit interval inside the
open window, the int 1 or 0 unless the window boundary cuts it.  It clips
each side, and `volume_deficit` takes a cell's area as the product of its
two clips.

The phase map lives here and nowhere else: `phase_shape` gives the shape
of each of the eight modulated phases and `phase_label` the phase of a
built-in molecule, from the residue of its anchor.

Every object in this module is immutable after construction and every
function is pure, so concurrent use from multiple threads is safe.
"""

from __future__ import annotations

import json
import math
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


def json_rational(what: str, value) -> Fraction:
    """A JSON integer or a rational string such as "-3/8"; a float, bool or
    any other value raises InvalidInput naming `what`."""
    if type(value) is not int and type(value) is not str:
        raise InvalidInput(f"invalid {what} {value!r}: expected an integer or a rational string")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(f"invalid {what} {value!r}: {exc}") from exc


def decode_list(what: str, decode: Callable, data) -> list:
    """decode(entry) for each entry of a JSON list, naming the entry that fails."""
    if not isinstance(data, list):
        raise InvalidInput(f"{what}: expected a JSON list, not {type(data).__name__}")
    return [decode_entry(f"{what} entry {n}", decode, entry) for n, entry in enumerate(data)]


def decode_regions(label: Callable, decode: Callable, data: dict) -> dict:
    """{label(key): [decode(entry), ...]} over a JSON object of labelled
    lists, naming the key or entry that fails; two keys that decode to one
    label, such as "1" and "01", raise InvalidInput."""
    out: dict = {}
    for key, entries in data.items():
        lab = decode_entry("region label", label, key)
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
    """A named 4-cell shape with a chirality tag used by weighted energies."""

    name: str
    cells: tuple[Cell, Cell, Cell, Cell]
    chirality_class: str

    def __post_init__(self):
        if len(set(self.cells)) != 4:
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


@dataclass(frozen=True)
class Molecule:
    shape: MoleculeShape
    anchor: Cell

    def cells(self) -> tuple[Cell, Cell, Cell, Cell]:
        # unrolled: every shape has exactly four cells, and this is called
        # for every molecule a set-up or validation looks at
        ax, ay = self.anchor
        (c0, r0), (c1, r1), (c2, r2), (c3, r3) = self.shape.cells
        return (
            (ax + c0, ay + r0), (ax + c1, ay + r1),
            (ax + c2, ay + r2), (ax + c3, ay + r3),
        )


def phase_label(m: Molecule) -> int:
    """Label in 1..8 of the zero-energy family the molecule belongs to.

    For R the label is the residue of n1 + n2 mod 4 taken in {1, 2, 3, 4};
    for S it is the residue of n2 - n1 mod 4 taken in {5, 6, 7, 8}.  The
    label is constant along the molecule's own striped pattern, so it names
    one of the eight modulated phases.
    """
    n1, n2 = m.anchor
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
    if not 1 <= i <= 8:
        raise InvalidInput("phase label must be in 1..8")
    return R if i <= 4 else S


# -------------------------------------------------------------------
# Windows
# -------------------------------------------------------------------

def _int_above(q: Fraction | int) -> int:
    """Smallest integer strictly greater than q."""
    return math.floor(q) + 1


def _int_below(q: Fraction | int) -> int:
    """Largest integer strictly less than q."""
    return math.ceil(q) - 1


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
        side = Fraction(side)
        if side <= 0:
            raise InvalidInput("window side must be positive")
        return cls((Fraction(center[0]), Fraction(center[1])), side)

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
            raise ValueError("the whole plane has no bounds")
        cx, cy = self.center
        h = self.side / 2
        return (cx - h, cy - h, cx + h, cy + h)

    def cell_range(self) -> tuple[range, range]:
        """Index ranges of lattice cells intersecting the open window."""
        return self._cells

    @cached_property
    def _cells(self) -> tuple[range, range]:
        x0, y0, x1, y1 = self._bounds
        return (
            range(_int_above(x0 - 1), _int_below(x1) + 1),
            range(_int_above(y0 - 1), _int_below(y1) + 1),
        )

    @cached_property
    def _whole(self) -> tuple[range, range]:
        """Index ranges of lattice cells contained in the closed window."""
        x0, y0, x1, y1 = self._bounds
        return (
            range(math.ceil(x0), math.floor(x1)),
            range(math.ceil(y0), math.floor(y1)),
        )

    def _clip(self, axis: int, k: int) -> int | Fraction:
        """Length of the unit interval [k, k+1] on axis 0 (x) or 1 (y) inside
        the open window: the int 1 or 0, and a Fraction only where the
        window boundary cuts the interval."""
        if k in self._whole[axis]:
            return 1
        if k not in self._cells[axis]:
            return 0
        bounds = self._bounds
        return min(bounds[axis + 2], k + 1) - max(bounds[axis], k)

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

    The occupancy index maps every occupied cell to the index of its owning
    molecule in `molecules`.  Instances are immutable.
    """

    __slots__ = ("molecules", "_occupancy")

    def __init__(self, molecules: tuple[Molecule, ...], occupancy: dict):
        self.molecules = molecules
        self._occupancy = occupancy

    @property
    def occupancy(self) -> Mapping[Cell, int]:
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
    mols = tuple(molecules)
    occupancy: dict[Cell, int] = {}
    for i, m in enumerate(mols):
        for cell in m.cells():
            j = occupancy.get(cell)
            if j is not None:
                raise OverlapError(cell, j, i)
            occupancy[cell] = i
    return Configuration(mols, occupancy)


# -------------------------------------------------------------------
# Energies
# -------------------------------------------------------------------

def _boundary_lengths(config: Configuration, window: Window) -> tuple[Fraction, Fraction]:
    """(R-like, S-like) length of the boundary of the union of molecules
    inside the open window, in one pass over the occupied cells.

    Each unoccupied side of an occupied cell is charged to the chirality
    class of that cell's molecule.  The window is open, so a side on its
    boundary counts 0: the side x = p counts only if the cells p - 1 and p
    both meet the window, and then with the length that `Window._clip`
    gives the cell's row (likewise for y).  An interior cell costs its four
    occupancy tests; whole sides are added as ints and only cut ones as
    Fractions.
    """
    occ = config.occupancy
    r_like = [m.shape.chirality_class == R_LIKE for m in config.molecules]
    whole = [0, 0]  # S-like, R-like
    cut = [Fraction(0), Fraction(0)]
    plane = window.is_plane
    if not plane:
        xs, ys = window._cells
        clip = window._clip
    for (a, b), owner in occ.items():
        west = (a - 1, b) not in occ
        east = (a + 1, b) not in occ
        south = (a, b - 1) not in occ
        north = (a, b + 1) not in occ
        if not (west or east or south or north):
            continue
        r = r_like[owner]
        if plane:
            whole[r] += west + east + south + north
            continue
        if a not in xs or b not in ys:
            continue
        for sides, axis, k in (
            ((west and a - 1 in xs) + (east and a + 1 in xs), 1, b),
            ((south and b - 1 in ys) + (north and b + 1 in ys), 0, a),
        ):
            if sides:
                length = sides * clip(axis, k)
                if length.__class__ is int:
                    whole[r] += length
                else:
                    cut[r] += length
    return cut[1] + whole[1], cut[0] + whole[0]


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
    molecule's chirality class selects the weight.
    """
    c_R, c_S = Fraction(c_R), Fraction(c_S)
    if c_R <= 0 or c_S <= 0:
        raise InvalidInput("weights must be positive")
    r_length, s_length = _boundary_lengths(config, window)
    return c_R * r_length + c_S * s_length


def volume_deficit(config: Configuration, window: Window) -> Fraction:
    """Area of the window not covered by molecules, |w \\ E|.

    A cell's area inside the window is the product of its two `Window._clip`
    lengths: whole cells count as ints and only the cells that the window
    boundary cuts as Fractions.
    """
    if window.is_plane:
        raise InvalidInput("volume deficit is infinite on the whole plane")
    clip = window._clip
    whole, cut = 0, Fraction(0)
    for (a, b) in config.occupancy:
        width = clip(0, a)
        if width:
            area = width * clip(1, b)
            if area.__class__ is int:
                whole += area
            else:
                cut += area
    return window.side ** 2 - cut - whole


# -------------------------------------------------------------------
# The striped zero-energy patterns
# -------------------------------------------------------------------

def phase_pattern(i: int, window: Window) -> Configuration:
    """All phase-i molecules whose cells intersect the window.

    The result covers every cell of the window, has zero perimeter on the
    erosion of the window by 3, and consists of molecules that all carry
    phase label i.
    """
    if window.is_plane:
        raise InvalidInput("a plane-filling pattern is infinite; pass a square")
    shape = phase_shape(i)
    dxs = [c for c, _ in shape.cells]
    xs, ys = window.cell_range()
    mols = []
    for a in range(xs.start - max(dxs), xs.stop - min(dxs)):
        # the shape's rows whose cells fall in a window column; they are
        # contiguous, so the anchors meeting the window form one range of b
        dys = [r for c, r in shape.cells if a + c in xs]
        first = ys.start - max(dys)
        # within a column the label advances by one per row, mod 4
        first += (i - phase_label(Molecule(shape, (a, first)))) % 4
        mols.extend(Molecule(shape, (a, b)) for b in range(first, ys.stop - min(dys), 4))
    return validate(mols)


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
        shape = MoleculeShape(
            raw["name"],
            tuple(
                (json_int("shape cell", c), json_int("shape cell", r))
                for c, r in raw["cells"]
            ),
            raw["chirality_class"],
        )
        if shape.name in out:
            raise InvalidInput(f"duplicate shape name {shape.name!r}")
        out[shape.name] = shape

    decode_list("shape file", entry, decode_entry("shape file", json.loads, text))
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
        anchor = raw["anchor"]
        if type(anchor) is not list or len(anchor) != 2:
            raise InvalidInput(f"invalid anchor {anchor!r}: expected two coordinates")
        return shape, tuple(json_rational("anchor coordinate", v) for v in anchor)

    return decode_list("configuration", entry, data)


def configuration_on_grid(
    epsilon, entries: Iterable[tuple[MoleculeShape, tuple]]
) -> Configuration:
    """Validated configuration of the lattice anchors a / epsilon, which
    must be integer points; epsilon = 1 reads a lattice file."""
    mols = []
    for n, (shape, anchor) in enumerate(entries):
        ax, ay = Fraction(anchor[0]) / epsilon, Fraction(anchor[1]) / epsilon
        if ax.denominator != 1 or ay.denominator != 1:
            raise InconsistentScale(
                f"anchor ({anchor[0]}, {anchor[1]}) of molecule #{n} "
                f"is not on the {epsilon}-grid"
            )
        mols.append(Molecule(shape, (int(ax), int(ay))))
    return validate(mols)


def configuration_from_json(
    text: str, shapes: Mapping[str, MoleculeShape] | None = None
) -> Configuration:
    """Decode a lattice configuration file; anchors must be integers."""
    data = decode_entry("configuration", json.loads, text)
    return configuration_on_grid(1, configuration_entries(data, shapes))
