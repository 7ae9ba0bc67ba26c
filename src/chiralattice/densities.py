"""The interface density model f(i, j, .) combining all available sources.

Densities are one-homogeneous values on integer normals (phi scale):
phi(p, q) = sqrt(p^2 + q^2) * f(i, j, nu_unit).  Sources, in order of
precedence per ordered pair and direction:

  table        exact finite-size solver results (the best available
               computational estimate; the table is the arbiter),
  pattern      meshing seams between an R phase and an S phase along the
               anti-diagonals, where the two striped patterns interlock
               flush and the interface costs 2 per unit instead of the
               subadditive 4,
  subadditive  f(i,0,.) + f(0,j,.) through the closed-form hexagons,
  closed_form  the crystalline hexagon gauges, for pairs involving the
               empty phase.

f(i, i, .) = 0, and f(i, j, nu) = f(j, i, -nu) because the table, the
meshing pairs and every lookup key an interface by `interfaces.oriented`,
smaller label first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping

from .gauges import (
    GaugePolygon,
    IntDir,
    envelope_with_points,
    min_envelope,
    phi_closed_form,
)
from .interfaces import DensityRecord, oriented
from .molecules import InvalidInput, R, S, json_int, phase_shape

# flush-meshing seam pairs along the anti-diagonals, `oriented`; phi-scale value 2
MESHING_PAIRS: Mapping[tuple[int, int, IntDir], Fraction] = MappingProxyType({
    (1, 7, (1, -1)): Fraction(2),
    (2, 8, (1, -1)): Fraction(2),
    (3, 7, (1, -1)): Fraction(2),
    (4, 8, (1, -1)): Fraction(2),
    (1, 8, (-1, 1)): Fraction(2),
    (2, 7, (-1, 1)): Fraction(2),
    (3, 8, (-1, 1)): Fraction(2),
    (4, 7, (-1, 1)): Fraction(2),
})


def sum_gauge(a: GaugePolygon, b: GaugePolygon) -> GaugePolygon:
    """Level set of the sum of two gauges (a convex polygon).

    The sum is piecewise linear on the common refinement of the two
    normal fans, so its unit level set has vertices exactly on the rays
    through the vertices of both polygons.
    """
    return envelope_with_points(
        (), [(v, a.gauge(v) + b.gauge(v)) for v in a.vertices + b.vertices]
    )


def subadditive_bound(i: int, j: int, nu: IntDir) -> Fraction:
    """f(i,0,nu) + f(0,j,nu) through the closed forms (phi scale).

    f(0,j,nu) = phi_j(-nu) = phi_j(nu), as both hexagons are centrally
    symmetric, so the bound is phi_i(nu) + phi_j(nu).
    """
    if not (1 <= i <= 8 and 1 <= j <= 8) or i == j:
        raise InvalidInput("subadditive bound needs distinct nonzero phases")
    return phi_closed_form(i).gauge(nu) + phi_closed_form(j).gauge(nu)


@dataclass
class DensityModel:
    """Per-pair density sources with recorded provenance."""

    table: dict[tuple[int, int, IntDir], DensityRecord] = field(default_factory=dict)
    use_patterns: bool = True

    @classmethod
    def closed_form_only(cls) -> "DensityModel":
        return cls(table={}, use_patterns=False)

    @classmethod
    def with_patterns(cls) -> "DensityModel":
        return cls(table={}, use_patterns=True)

    def add_records(self, records: Iterable[DensityRecord]) -> None:
        """Fold solver rows in, keeping the largest exactly-solved T; a row
        and its mirror (j, i, -nu) share one `oriented` key and entry."""
        for rec in records:
            if rec.energy_kind != "surface" or (rec.c_R, rec.c_S) != (1, 1):
                continue
            key = oriented(rec.i, rec.j, (rec.p, rec.q))
            old = self.table.get(key)
            better = old is None or (
                (rec.certificate == "exact", rec.T)
                > (old.certificate == "exact", old.T)
            )
            if better:
                self.table[key] = rec

    def value_and_source(self, i: int, j: int, nu: IntDir) -> tuple[Fraction, str]:
        """phi-scale value at an integer normal, with provenance.

        Both components of nu are read by `json_int`, and nu = (0, 0)
        raises InvalidInput.  The value is 1-homogeneous: at nu = g nu'
        with nu' primitive and g the gcd of its components, it is g times
        the value at nu', from the table, the closed forms, the meshing
        patterns or the subadditive bound, whose source it keeps.
        """
        p, q = json_int("normal component", nu[0]), json_int("normal component", nu[1])
        g = math.gcd(p, q)
        if g == 0:
            raise InvalidInput("normal cannot be zero")
        if i == j:
            return Fraction(0), "zero"
        key = i, j, nu = oriented(i, j, (p // g, q // g))
        entry = self.table.get(key)
        if entry is not None:
            return g * entry.phi_hat, f"table(T={entry.T},{entry.certificate})"
        if i == 0:
            # f(0,j,nu) = phi_j(-nu) = phi_j(nu): the hexagons are centrally symmetric
            return g * phi_closed_form(j).gauge(nu), "closed_form"
        if self.use_patterns and key in MESHING_PAIRS:
            return g * MESHING_PAIRS[key], "pattern"
        return g * subadditive_bound(i, j, nu), "subadditive"

    def value(self, i: int, j: int, nu: IntDir) -> Fraction:
        return self.value_and_source(i, j, nu)[0]

    # -- derived gauges -------------------------------------------------

    def spin_envelope(self) -> GaugePolygon:
        """f**: convex envelope of min_i f(i,0,.), an octagon."""
        _, hull = min_envelope([phi_closed_form(1), phi_closed_form(5)])
        return hull

    def rs_contact_envelope(self) -> GaugePolygon:
        """Convex envelope of f_0 = min over R-phase/S-phase pairs.

        The keys are `oriented`, so an R/S key has the R phase first and
        gives a point at its own normal.
        """
        base = sum_gauge(phi_closed_form(1), phi_closed_form(5))
        values = [(nu, val) for (_, _, nu), val in MESHING_PAIRS.items() if self.use_patterns]
        values += [
            (nu, entry.phi_hat) for (i, j, nu), entry in self.table.items()
            if i and phase_shape(i) is R and phase_shape(j) is S
        ]
        return envelope_with_points([base], [((Fraction(p), Fraction(q)), v) for (p, q), v in values])


# -------------------------------------------------------------------
# Consistency report over solver tables
# -------------------------------------------------------------------

@dataclass
class ConsistencyReport:
    checked_symmetry: int = 0
    checked_sandwich: int = 0
    checked_triangle: int = 0
    checked_lipschitz: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def consistency_check(
    model: DensityModel, records: Iterable[DensityRecord]
) -> ConsistencyReport:
    """Symmetry, sandwich, triangle and continuity screening of a table.

    Symmetry, sandwich, and triangle comparisons are exact rational
    checks; the Lipschitz screen compares unit-normalized values in
    floating point against the closed form's slope bound.  Every failure,
    the screen's included, is a violation and clears the report's `ok`.
    """
    rows = list(records)
    rep = ConsistencyReport()
    by_key: dict[tuple, DensityRecord] = {}
    for r in rows:
        by_key[(r.i, r.j, r.p, r.q, r.T, r.energy_kind, r.c_R, r.c_S)] = r

    for r in rows:
        mirror_key = (r.j, r.i, -r.p, -r.q, r.T, r.energy_kind, r.c_R, r.c_S)
        if mirror_key in by_key:
            rep.checked_symmetry += 1
            if by_key[mirror_key].phi_hat != r.phi_hat:
                rep.violations.append(
                    f"symmetry: ({r.i},{r.j},({r.p},{r.q}),T={r.T}) "
                    f"{r.phi_hat} != {by_key[mirror_key].phi_hat}"
                )
        if r.energy_kind == "surface" and (r.c_R, r.c_S) == (1, 1):
            rep.checked_sandwich += 1
            l1 = Fraction(abs(r.p) + abs(r.q))
            # The l1 bound holds per unit of actual interface; with the
            # boundary data offset from the window center the interface
            # inside Q_T is shorter than the centered crossing by a
            # bounded number of lattice steps, hence the 12/T correction.
            if r.phi_hat < l1 * (1 - Fraction(12, r.T)):
                rep.violations.append(
                    f"sandwich: ({r.i},{r.j},({r.p},{r.q}),T={r.T}) "
                    f"phi_hat {r.phi_hat} below the corrected l1 bound"
                )
            # two-sided screen against the best model value at the same
            # normal (closed form, meshing pattern, or subadditive); the
            # finite-size deviation of an honest row stays within 8/T
            ref = model.value(r.i, r.j, (r.p, r.q))
            if ref:
                slack = ref * Fraction(8, r.T)
                if abs(r.phi_hat - ref) > slack:
                    rep.violations.append(
                        f"model deviation: ({r.i},{r.j},({r.p},{r.q}),T={r.T}) "
                        f"phi_hat {r.phi_hat} vs model {ref}"
                    )
    # triangle inequalities evaluable within equal (nu, T, kind, weights)
    groups: dict[tuple, dict[tuple[int, int], Fraction]] = {}
    for r in rows:
        groups.setdefault(
            (r.p, r.q, r.T, r.energy_kind, r.c_R, r.c_S), {}
        )[(r.i, r.j)] = r.phi_hat
    for (_, _, T, *_rest), vals in groups.items():
        labels = {i for (i, j) in vals} | {j for (i, j) in vals}
        for (i, j), v in vals.items():
            for k in labels:
                if k in (i, j):
                    continue
                if (i, k) in vals and (k, j) in vals:
                    rep.checked_triangle += 1
                    if v > vals[(i, k)] + vals[(k, j)]:
                        rep.violations.append(
                            f"triangle: f({i},{j}) > f({i},{k}) + f({k},{j}) "
                            f"at T={T}: {v} > {vals[(i, k)]} + {vals[(k, j)]}"
                        )
    # Lipschitz screen on unit-normalized values (float; a violation like the rest)
    by_pair: dict[tuple, list[DensityRecord]] = {}
    for r in rows:
        by_pair.setdefault((r.i, r.j, r.T, r.energy_kind, r.c_R, r.c_S), []).append(r)
    C = 4.0  # slope bound of the closed-form hexagons, with margin
    for pair_rows in by_pair.values():
        for a in pair_rows:
            for b in pair_rows:
                if (a.p, a.q) >= (b.p, b.q):
                    continue
                rep.checked_lipschitz += 1
                na = math.hypot(a.p, a.q)
                nb = math.hypot(b.p, b.q)
                fa = float(a.phi_hat) / na
                fb = float(b.phi_hat) / nb
                dist = math.hypot(a.p / na - b.p / nb, a.q / na - b.q / nb)
                if abs(fa - fb) > C * dist + 1.0:
                    rep.violations.append(
                        f"lipschitz screen: ({a.i},{a.j}) between "
                        f"({a.p},{a.q}) and ({b.p},{b.q}) at T={a.T}"
                    )
    return rep
