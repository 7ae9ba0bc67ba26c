"""Deterministic SVG emission for configurations and polygons.

Output is generated from sorted primitives with fixed formatting, so
equal inputs produce byte-identical files.  Every drawing has one frame
rule: its view is the box of the corner points it draws, grown by a
margin, or the 2 x 2 square about the origin when it draws none, so an
empty drawing is an empty frame.  Molecules are drawn as their four unit
squares filled by a fixed nine-color phase palette (label 0 is the
background); user-defined shapes fall back to neutral gray tones by
chirality class.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .molecules import Configuration, R_LIKE, UnlabeledShape, phase_label

# fixed palette for labels 0..8 (0 = empty phase)
PHASE_PALETTE = (
    "#ffffff",  # 0 empty
    "#e41a1c",  # 1
    "#ff7f00",  # 2
    "#f2c12e",  # 3
    "#a65628",  # 4
    "#377eb8",  # 5
    "#4daf4a",  # 6
    "#66c2a5",  # 7
    "#984ea3",  # 8
)
GRAY_R = "#bbbbbb"
GRAY_S = "#777777"
_CELL_MARGIN = 1  # cells of background around a configuration
_POLYGON_PAD = Fraction(1, 2)  # background around polygons


def _fmt(v) -> str:
    return f"{float(v):.4f}"


def _document(corners: Sequence[tuple], pad, body: Sequence[str], comment: str | None) -> str:
    """The SVG file of the element lines `body`, viewed in the box of the
    `corners` grown by `pad`, or in [-1, 1]^2 when there are none."""
    if not corners:
        corners, pad = [(0, 0)], 1
    xs = [Fraction(p[0]) for p in corners]
    ys = [Fraction(p[1]) for p in corners]
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad
    w, h = float(x1 - x0), float(y1 - y0)
    head = ['<?xml version="1.0" encoding="UTF-8"?>']
    if comment:
        head.append(f"<!-- {comment} -->")
    head.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(x0)} {_fmt(-float(y1))} '
        f'{_fmt(w)} {_fmt(h)}" width="{_fmt(40 * w)}" height="{_fmt(40 * h)}">'
    )
    return "\n".join([*head, *body, "</svg>"]) + "\n"


def configuration_svg(
    config: Configuration,
    comment: str | None = None,
    palette: Sequence[str] = PHASE_PALETTE,
) -> str:
    """Molecules drawn as outlined unit squares, colored by phase."""
    painted = []
    for mol in config.molecules:
        try:
            color = palette[phase_label(mol)]
        except UnlabeledShape:
            color = GRAY_R if mol.shape.chirality_class == R_LIKE else GRAY_S
        painted.extend((cell, color) for cell in mol.cells())
    # y axis flipped so larger rows render higher
    rects = [
        f'<rect x="{_fmt(x)}" y="{_fmt(-(y + 1))}" width="1" height="1" '
        f'fill="{color}" stroke="#333333" stroke-width="0.05"/>'
        for (x, y), color in sorted(painted)
    ]
    corners = [corner for (x, y), _ in painted for corner in ((x, y), (x + 1, y + 1))]
    return _document(corners, _CELL_MARGIN, rects, comment)


def _polygons(
    items: Sequence[tuple[Sequence[tuple], str, str]],
    comment: str | None,
    notes: Sequence[str] = (),
) -> str:
    """Filled polygons given as (vertices, fill, label) triples, then the
    element lines `notes`."""
    body = []
    for polygon, fill, label in items:
        pts = " ".join(f"{_fmt(p[0])},{_fmt(-Fraction(p[1]))}" for p in polygon)
        body.append(
            f'<polygon points="{pts}" fill="{fill}" fill-opacity="0.55" '
            f'stroke="#222222" stroke-width="0.03"/>'
        )
        if label:
            cx = sum(Fraction(p[0]) for p in polygon) / len(polygon)
            cy = sum(Fraction(p[1]) for p in polygon) / len(polygon)
            body.append(
                f'<text x="{_fmt(cx)}" y="{_fmt(-cy)}" font-size="0.3" '
                f'text-anchor="middle">{label}</text>'
            )
    corners = [p for polygon, _, _ in items for p in polygon]
    return _document(corners, _POLYGON_PAD, [*body, *notes], comment)


def partition_svg(
    partition,
    priced_segments,
    comment: str | None = None,
    palette: Sequence[str] = PHASE_PALETTE,
) -> str:
    """A labeled partition with per-segment price annotations."""
    items = []
    for lab in sorted(partition.regions):
        for poly in partition.regions[lab]:
            items.append((list(poly), palette[lab], f"A{lab}"))
    notes = []
    for r in priced_segments:
        seg = r.segment
        mx = (Fraction(seg.a[0]) + Fraction(seg.b[0])) / 2
        my = (Fraction(seg.a[1]) + Fraction(seg.b[1])) / 2
        notes.append(
            f'<text x="{_fmt(mx)}" y="{_fmt(-my)}" font-size="0.18" '
            f'fill="#000000" text-anchor="middle">{seg.i}|{seg.j}: {r.price}</text>'
        )
    return _polygons(items, comment=comment, notes=notes)


def level_set_and_wulff_svg(
    level: Sequence[tuple], wulff: Sequence[tuple], comment: str | None = None
) -> str:
    """The unit level set and its Wulff shape side by side."""
    # shift the Wulff shape to the right of the level set
    xs = [Fraction(p[0]) for p in level] + [Fraction(p[0]) for p in wulff]
    span = max(xs) - min(xs)
    offset = span + 2
    shifted = [(Fraction(p[0]) + offset, Fraction(p[1])) for p in wulff]
    return _polygons(
        [
            (list(level), "#377eb8", "level set"),
            (shifted, "#e41a1c", "Wulff shape"),
        ],
        comment=comment,
    )
