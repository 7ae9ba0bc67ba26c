"""Differential tests for the boundary-family set-up of interface problems.

`_family_members` takes each phase's anchors from the pattern's columns
and cuts each column once by the reach inequality; the per-cell loop it
replaced (`side_reach`) is one reference, and the filter over two full
`phase_pattern`s on Q_T that came before it (`ref_near_family`) is
another.  `_set_up` builds the family on Q_T itself, tests each member
against the frame once, and states the glued family once for the solver
and the pattern library; the forced and glued parts are checked against
the same parts on the Q_{T+8} family, which every member they keep also
meets.  It works on masks over one grid of Q_T, and prices the forced
part with the lattice energies' side count on them (`_q_t_energy`); the
per-cell set-up it replaced, with its cell-set free zone (`free_cells`)
and the lattice sweep of the forced part, is kept below as the reference
(`ref_set_up`).  The forced price is an int in the units of `_units`.
The solver prices its glued incumbent by `_q_t_energy` too, on the
forced and free members' cells; the validated glued configuration priced
by the lattice sweep (`ref_glued_part`, then `ref_energy`) is the
reference for its value, its overlap verdict and the occupancy of the
free members it prices (`ref_placed`).  The lattice sweep now shares the
side count with the solver, so both prices are also checked against the
per-edge Fraction references of `test_fastpaths`, which build no bitboard.

`pattern_upper_bound` builds the boundary family once and derives the
glued configuration, the wetting patches and the admissibility check from
it; the path it replaced, which rebuilt the family on Q_{T+8} for each of
them, is kept below as well.  Both must give the same answers on the
table and wetting rows.  The reference glues every interior member and
raises when one overlaps the frame; the library glues only those that
miss the forced cells, and where the glued family still overlaps it falls
back to the forced part alone, so it raises only when the frame itself is
inconsistent.
"""

from __future__ import annotations

import fractions
import hashlib
import itertools
import json
import sys
from collections import Counter
from fractions import Fraction as F

import pytest

from chiralattice import interfaces, molecules
from chiralattice.interfaces import (
    Direction,
    InfeasibleBoundary,
    InterfaceProblem,
    NoPattern,
    _family_members,
    _forced_part,
    _frame_test,
    _inner,
    _q_t_energy,
    _set_up,
    _units,
    _wetting_chain,
    _wetting_fill,
    _window_cells,
    admissible,
    direction,
    frame_forced,
    pattern_upper_bound,
    solve_interface,
)
from chiralattice.molecules import (
    R_LIKE, Molecule, OverlapError, R, S, Window, configuration_to_jsonable, phase_label,
    phase_pattern, phase_shape, validate, weighted_perimeter,
)
from chiralattice.placements import PlacementGrid
from conftest import grid_mask
from test_fastpaths import FAMILY_DIRECTIONS, FAMILY_PAIRS, ref_volume, ref_weighted
from test_interfaces import _mirror_molecule, wetting_config
from test_line_bound import (
    TABLE_DIRECTIONS, _table_rows, inside_inner, ref_energy, row_major_order, side_reach,
)

DIRECTIONS = [(1, 1), (1, -1), (1, 0), (0, 1), (3, -1), (-1, 3), (2, 1), (-1, -2)]


# -------------------------------------------------------------------
# References: the per-cell reach and the multi-build pattern path on Q_{T+8}
# -------------------------------------------------------------------

def ref_family_members(i, j, nu, window):
    out = [
        m
        for lab, upper in ((i, True), (j, False))
        if lab != 0
        for m in phase_pattern(lab, window).molecules
        if side_reach(m, nu, upper)
    ]
    out.sort(key=lambda m: (m.shape.name, m.anchor))
    return out


def ref_near_family(prob):
    """The family meeting Q_T as two full phase patterns on Q_T, each
    validated, filtered by the reach of x . nu over each shape."""
    p, q = prob.nu.p, prob.nu.q
    norm4 = 4 * (p * p + q * q)  # (2 |nu|)^2
    window = Window.square(prob.T)
    out = []
    for lab, sign in ((prob.i, 1), (prob.j, -1)):
        if lab == 0:
            continue
        shape = phase_shape(lab)
        reach = max(sign * (p * c + q * r) for c, r in shape.cells)
        reach += max(sign * p, 0) + max(sign * q, 0)
        for m in phase_pattern(lab, window).molecules:
            a, b = m.anchor
            v = sign * (p * a + q * b) + reach
            if v > 0 and v * v > norm4:
                out.append(m)
    out.sort(key=lambda m: (m.shape.name, m.anchor))
    return out


def ref_glued_part(members, forced, free):
    """The forced part plus the members lying in the free zone, validated."""
    frame = set(forced.molecules)
    return validate(m for m in members if m in frame or free.issuperset(m.cells()))


def free_cells(forced, T):
    """The free zone: the cells of the inner square that the forced part
    leaves empty.  Free molecules are exactly those lying in it."""
    inner = _inner(T)
    taken = forced.occupancy
    return {(a, b) for a in inner for b in inner if (a, b) not in taken}


def ref_set_up(prob):
    """(family, forced part, free zone, glued family, its free members) by
    the per-cell set-up that `_set_up` replaced: one frame test per member,
    the forced part validated, the free zone as a cell set and a subset
    test per member."""
    members = _family_members(prob.i, prob.j, prob.nu, (_window_cells(prob.T),) * 2)
    framed = list(map(_frame_test(prob.T), members))
    forced = _forced_part(itertools.compress(members, framed), prob)
    free = free_cells(forced, prob.T)
    inside = [not f and free.issuperset(m.cells()) for m, f in zip(members, framed)]
    glued = [m for m, f, g in zip(members, framed, inside) if f or g]
    return members, forced, free, glued, list(itertools.compress(members, inside))


def ref_placed(grid, members):
    """The occupancy that `_set_up` gives a list of members: the masks of
    their R-like and S-like cells, cell by cell, or None when two of them
    overlap."""
    try:
        validate(members)
    except OverlapError:
        return None
    return tuple(
        grid_mask(grid, (c for m in members if (m.shape.chirality_class == R_LIKE) == r_like
                         for c in m.cells()))
        for r_like in (True, False)
    )


def decode(grid, bits, T):
    """The cells of Q_T among the bits, which must all be cells of Q_T."""
    window = _window_cells(T)
    cells = {c for c in itertools.product(window, window) if grid_mask(grid, [c]) & bits}
    assert grid_mask(grid, cells) == bits
    return cells


def ref_frame_forced(prob):
    search = Window.square(prob.T + 8)
    members = [
        m
        for m in ref_family_members(prob.i, prob.j, prob.nu, search)
        if _frame_test(prob.T)(m)
    ]
    try:
        return validate(members)
    except Exception as exc:
        raise InfeasibleBoundary(
            f"boundary family ({prob.i},{prob.j},{prob.nu.as_tuple()}) forces "
            f"overlapping molecules on the frame of Q_{prob.T}: {exc}"
        ) from exc


def ref_admissible(config, prob):
    forced = {(m.shape.name, m.anchor) for m in ref_frame_forced(prob).molecules}
    actual = {
        (m.shape.name, m.anchor) for m in config.molecules if _frame_test(prob.T)(m)
    }
    return actual == forced


def ref_glued_family_config(prob):
    members = ref_family_members(prob.i, prob.j, prob.nu, Window.square(prob.T + 8))
    relevant = [
        m
        for m in members
        if _frame_test(prob.T)(m)
        or all(inside_inner(c, prob.T) for c in m.cells())
    ]
    try:
        return validate(relevant)
    except Exception as exc:
        raise InfeasibleBoundary(str(exc)) from exc


def ref_wetting_config(prob):
    i, j, nu, T = prob.i, prob.j, prob.nu, prob.T
    mirrored = False
    if j == 0 and 5 <= i <= 8 and (nu.p, nu.q) == (1, 1):
        mirrored = True
        i = i - 4
    elif not (j == 0 and 1 <= i <= 4 and (nu.p, nu.q) == (-1, 1)):
        raise NoPattern("no wetting pattern")
    c = i - 1
    lo = -T // 2
    hi = T // 2
    structure = []
    for t in range(lo - 2, hi + 2):
        structure.append(Molecule(R, (2 * t, 2 * t + 1 + c)))
        structure.append(Molecule(R, (2 * t + 1, 2 * t + 4 + c)))
        structure.append(Molecule(S, (2 * t + 1, 2 * t - 2 + c)))
    for n1 in range(lo - 2, hi + 2):
        for d in range(5 + c, 2 * T):
            structure.append(Molecule(R, (n1, n1 + d)))
    if mirrored:
        structure = [_mirror_molecule(m) for m in structure]
    patches = ref_family_members(prob.i, prob.j, prob.nu, Window.square(T + 8))

    forced = ref_frame_forced(prob)
    occupied = set(forced.occupancy)
    mols = list(forced.molecules)
    for group in (structure, patches):
        for m in sorted(set(group), key=lambda m: (m.shape.name, m.anchor)):
            mcells = m.cells()
            if not all(inside_inner(cc, T) for cc in mcells):
                continue
            if any(cc in occupied for cc in mcells):
                continue
            occupied.update(mcells)
            mols.append(m)
    return validate(mols)


def ref_pattern_upper_bound(i, j, nu, T, weights):
    prob = InterfaceProblem(i, j, Direction(nu.p, nu.q), T, weights)
    candidates = []
    cfg = ref_glued_family_config(prob)
    candidates.append((ref_energy(cfg, prob), cfg))
    try:
        wet = ref_wetting_config(prob)
        candidates.append((ref_energy(wet, prob), wet))
    except NoPattern:
        pass
    candidates.sort(key=lambda t: t[0])
    value, cfg = candidates[0]
    if not ref_admissible(cfg, prob):
        raise NoPattern("library construction failed the admissibility check")
    return value, cfg


# -------------------------------------------------------------------
# Differential tests
# -------------------------------------------------------------------

@pytest.mark.parametrize("pq", DIRECTIONS, ids=str)
def test_side_reach_matches_the_cell_loop(pq):
    # every anchor in [-12, 12]^2 has a molecule of each shape meeting
    # Q_26, and the pairs (i, i + 4) and (i + 4, i) put each label on
    # either side once
    nu = direction(*pq)
    window = Window.square(26)
    for i in range(1, 5):
        for upper, lower in ((i, i + 4), (i + 4, i)):
            got = _family_members(upper, lower, nu, window.cell_range())
            assert got == ref_family_members(upper, lower, nu, window)
            # each side keeps some of its pattern and drops some
            for lab in (upper, lower):
                kept = sum(phase_label(m) == lab for m in got)
                assert 0 < kept < len(phase_pattern(lab, window).molecules), lab


def _glued_or_error(glued):
    try:
        return validate(glued).molecules
    except OverlapError as exc:
        return str(exc)


@pytest.mark.parametrize("T", [8, 9, 12, 13])
def test_family_on_q_t_matches_q_t_plus_8(T):
    # the forced part and the glued part only keep members that meet Q_T,
    # so the family on Q_T gives them molecule for molecule, in order, and
    # an inconsistent frame raises the same message; the frame test sees
    # the members of the Q_{T+8} family that miss Q_T
    feasible = infeasible = 0
    for (i, j), pq in itertools.product(itertools.permutations(range(9), 2), FAMILY_DIRECTIONS):
        prob = InterfaceProblem(i, j, direction(*pq), T)
        far = _family_members(i, j, prob.nu, Window.square(T + 8).cell_range())
        try:
            ref = _forced_part([m for m in far if _frame_test(T)(m)], prob)
        except InfeasibleBoundary as exc:
            with pytest.raises(InfeasibleBoundary) as raised:
                frame_forced(prob)
            assert str(raised.value) == str(exc)
            infeasible += 1
            continue
        _, forced, glued, placed, grid, _, _, free = _set_up(prob)
        assert forced == list(ref.molecules), (i, j, pq)
        ref_free = free_cells(ref, T)
        assert decode(grid, free, T) == ref_free, (i, j, pq)
        ref_glued = [m for m in far if _frame_test(T)(m) or ref_free.issuperset(m.cells())]
        assert _glued_or_error(glued) == _glued_or_error(ref_glued), (i, j, pq)
        interior = [m for m in ref_glued if not _frame_test(T)(m)]
        assert placed == ref_placed(grid, interior), (i, j, pq)
        feasible += 1
    assert feasible > 0 and infeasible > 0


def _set_up_keys():
    """(i, j, nu): each family pair at each family direction, and the
    table keys with their mirrors."""
    for (i, j), pq in itertools.product(FAMILY_PAIRS, FAMILY_DIRECTIONS):
        yield i, j, direction(*pq)
    for i, j, pq in TABLE_DIRECTIONS:
        yield i, j, direction(*pq)
        yield j, i, -direction(*pq)


@pytest.mark.parametrize("T", range(8, 22))
def test_set_up_matches_the_per_cell_reference(T, monkeypatch):
    # the masks give the per-cell set-up's family, forced part, glued
    # family, free members' occupancy and free zone, in both scan orders,
    # and the forced part's price on them is an int in the units of
    # `_units` and over their scale its lattice sweep, at every weight
    # (among them even denominators on both sides) and energy kind; an
    # inconsistent frame raises the same message
    weights = [((1, 1), "surface"), ((1, F(1, 4)), "surface"), ((F(1, 3), 2), "surface"),
               ((F(1, 2), F(3, 4)), "surface"), ((1, 1), "volume")]
    feasible = infeasible = 0
    for scan in (interfaces._scan_order, row_major_order):
        monkeypatch.setattr(interfaces, "_scan_order", scan)
        for i, j, nu in _set_up_keys():
            prob = InterfaceProblem(i, j, nu, T)
            try:
                members, forced, free, glued, interior = ref_set_up(prob)
            except InfeasibleBoundary as exc:
                with pytest.raises(InfeasibleBoundary) as raised:
                    _set_up(prob)
                assert str(raised.value) == str(exc)
                infeasible += 1
                continue
            got = _set_up(prob)
            grid, occ_R, occ_S = got[4:7]
            assert got[:3] == (members, list(forced.molecules), glued), prob
            assert got[3] == ref_placed(grid, interior), prob
            assert decode(grid, got[7], T) == free, prob
            assert grid.order_bits == grid_mask(grid, itertools.product(*[_window_cells(T)] * 2))
            assert (occ_R, occ_S) == ref_placed(grid, forced.molecules), prob
            for w, kind in weights:
                priced = InterfaceProblem(i, j, nu, T, w, kind)
                units = _units(priced)
                base = _q_t_energy(priced, units, grid, occ_R, occ_S)
                assert type(base) is int, priced
                assert F(base, units[0]) == ref_energy(forced, priced), priced
            feasible += 1
    assert feasible > 0 and infeasible > 0


def _pattern_rows():
    for prob in _table_rows():
        yield prob.i, prob.j, prob.nu, prob.T, prob.weights
    for T in (12, 16):
        for weights in [(1, 1), (1, F(1, 4)), (F(1, 4), 1)]:
            for i in range(1, 5):
                yield i, 0, direction(-1, 1), T, weights
            for i in range(5, 9):
                yield i, 0, direction(1, 1), T, weights


def _wetting(build, prob):
    """The molecules of build(prob) as a multiset, or None on NoPattern."""
    try:
        return Counter(build(prob).molecules)
    except NoPattern:
        return None


@pytest.mark.parametrize("T", [8, 12, 16])
def test_pattern_upper_bound_matches_the_multi_build_path(T):
    rows = [row for row in _pattern_rows() if row[3] == T]
    wetting_wins = 0
    for i, j, nu, T, weights in rows:
        value, cfg = pattern_upper_bound(i, j, nu, T, weights)
        ref_value, ref_cfg = ref_pattern_upper_bound(i, j, nu, T, weights)
        assert value == ref_value, (i, j, nu, weights)
        # the wetting fill lists its row before the family, the reference
        # in (shape name, anchor) order
        assert Counter(cfg.molecules) == Counter(ref_cfg.molecules), (i, j, nu, weights)
        prob = InterfaceProblem(i, j, nu, T, weights)
        wetting_wins += value < ref_energy(ref_glued_family_config(prob), prob)
        # the chain on its own, also where the glued family ties with it
        assert _wetting(wetting_config, prob) == _wetting(ref_wetting_config, prob)
    # the wetting rows run at T=12 and 16, where the chain wins on some,
    # so both candidates are compared
    assert (wetting_wins > 0) == (T > 8)
    assert len(rows) == len(TABLE_DIRECTIONS) * 2 + {8: 0, 12: 24, 16: 26}[T]


def ref_wetting_chain(prob):
    """The wetting microstructure over Q_T that `_wetting_chain` cut to the
    inner square: O(T^2) molecules, most of which miss it."""
    zero, i, nu = interfaces.oriented(prob.i, prob.j, prob.nu.as_tuple())
    mirrored = zero == 0 and phase_shape(i) is S
    if zero != 0 or nu != ((-1, -1) if mirrored else (1, -1)):
        raise NoPattern("no wetting pattern")
    c = (i - 1) % 4
    T = prob.T
    lo, hi = -T // 2, T // 2
    structure = []
    for t in range(lo - 2, hi + 2):
        structure.append(Molecule(R, (2 * t, 2 * t + 1 + c)))
        structure.append(Molecule(R, (2 * t + 1, 2 * t + 4 + c)))
        structure.append(Molecule(S, (2 * t + 1, 2 * t - 2 + c)))
    for n1 in range(lo - 2, hi + 2):
        for d in range(5 + c, 2 * T):
            structure.append(Molecule(R, (n1, n1 + d)))
    if mirrored:
        structure = [_mirror_molecule(m) for m in structure]
    return structure


def ref_wetting_fill(chain, members, forced, grid, free):
    """The fill that `_wetting_fill` replaced: each group deduplicated and
    sorted, and each molecule's cells masked one by one; with the R-like
    and S-like cells of the molecules it adds, masked cell by cell."""
    mols, added = list(forced), []
    for group in (chain, members):
        for m in sorted(set(group), key=lambda m: (m.shape.name, m.anchor)):
            bits = grid_mask(grid, m.cells())
            if bits.bit_count() == len(m.shape.cells) and not bits & ~free:
                free ^= bits
                mols.append(m)
                added.append(m)
    return mols, tuple(
        grid_mask(grid, (c for m in added if (m.shape.chirality_class == R_LIKE) == r_like
                         for c in m.cells()))
        for r_like in (True, False)
    )


def test_wetting_chain_keeps_the_fill_of_the_full_chain(monkeypatch):
    # the chain's mirror-species row, cut to the inner square, gives the
    # fill of the full chain (teeth, caps, bulk and row over Q_T), and
    # pattern_upper_bound the same value and molecules, at T = 8..40 and
    # both weight orders, for two R and two S phases, which take the
    # chain's four offsets: every teeth, cap and bulk molecule that fits is
    # a family member, and a chain molecule that misses the inner square
    # never fits
    rows = [
        InterfaceProblem(i, 0, direction(*((-1, 1) if i <= 4 else (1, 1))), T)
        for T in range(8, 41) for i in (1, 2, 7, 8)
    ]
    weights = [(1, F(1, 4)), (F(1, 4), 1)]
    got = []
    for prob in rows:
        chain = _wetting_chain(prob)
        assert chain == sorted(chain, key=lambda m: (m.shape.name, m.anchor)), prob
        assert len(chain) == len(set(chain)) and set(chain) < set(ref_wetting_chain(prob)), prob
        # the chain is the mirror-species row alone, every molecule in the
        # inner square
        mirror = S if phase_shape(prob.i) is R else R
        assert all(m.shape is mirror for m in chain), prob
        assert all(inside_inner(c, prob.T) for m in chain for c in m.cells()), prob
        members, forced, _, _, grid, _, _, free = _set_up(prob)
        got.append((_wetting_fill(chain, members, forced, grid, free), [
            pattern_upper_bound(prob.i, prob.j, prob.nu, prob.T, w) for w in weights
        ]))
    monkeypatch.setattr(interfaces, "_wetting_chain", ref_wetting_chain)
    monkeypatch.setattr(interfaces, "_wetting_fill", ref_wetting_fill)
    wins = 0
    for prob, ((mols, occupancy), bounds) in zip(rows, got):
        chain = ref_wetting_chain(prob)
        members, forced, _, _, grid, _, _, free = _set_up(prob)
        ref_mols, ref_occupancy = ref_wetting_fill(chain, members, forced, grid, free)
        # the same molecules, the row now listed before the family
        fill = Counter(validate(mols).molecules)
        assert fill == Counter(validate(ref_mols).molecules) and occupancy == ref_occupancy, prob
        for w, (value, cfg) in zip(weights, bounds):
            ref_value, ref_cfg = pattern_upper_bound(prob.i, prob.j, prob.nu, prob.T, w)
            assert value == ref_value, (prob, w)
            assert Counter(cfg.molecules) == Counter(ref_cfg.molecules), (prob, w)
            wins += Counter(cfg.molecules) == fill
    assert wins > 0


def test_infeasible_families_raise_the_same_error():
    # pattern_upper_bound raises exactly where the forced frame overlaps,
    # with frame_forced's message; everywhere else some candidate exists
    problems = [
        InterfaceProblem(i, j, direction(*pq), 12)
        for i in range(9)
        for j in range(9)
        if i != j
        for pq in [(1, 1), (3, -1)]
    ]
    infeasible = 0
    for prob in problems:
        try:
            frame_forced(prob)
        except InfeasibleBoundary as exc:
            with pytest.raises(InfeasibleBoundary) as raised:
                pattern_upper_bound(prob.i, prob.j, prob.nu, prob.T)
            assert str(raised.value) == str(exc)
            infeasible += 1
            continue
        value, cfg = pattern_upper_bound(prob.i, prob.j, prob.nu, prob.T)
        assert admissible(cfg, prob) and ref_energy(cfg, prob) == value
    assert 0 < infeasible < len(problems)


# -------------------------------------------------------------------
# The solver's glued incumbent against the validated, swept reference
# -------------------------------------------------------------------

def _glued_rows():
    """The table rows; the table directions and their mirrors at odd T,
    which cuts cells, with the two uneven weights and as volume rows; every
    ordered pair at two normals; and every ordered pair at (1, 3) at T=16,
    where some glued families overlap."""
    yield from _table_rows()
    for T in (9, 13):
        for i, j, nu in TABLE_DIRECTIONS:
            for weights, kind in (
                ((1, 1), "surface"), ((1, F(1, 4)), "surface"), ((F(1, 4), 1), "surface"),
                ((1, 1), "volume"),
            ):
                yield InterfaceProblem(i, j, direction(*nu), T, weights, kind)
                yield InterfaceProblem(j, i, -direction(*nu), T, weights, kind)
    for (i, j), nu in itertools.product(itertools.permutations(range(9), 2), [(1, 1), (3, -1)]):
        yield InterfaceProblem(i, j, direction(*nu), 12)
    for i, j in itertools.permutations(range(9), 2):
        yield InterfaceProblem(i, j, direction(1, 3), 16)


def record_q_t_prices(monkeypatch) -> list:
    """The solver's `_q_t_energy` calls as (grid, occ_R, occ_S, price), in
    the order it makes them: a solve prices its forced part, then its
    glued family unless the free members overlap."""
    seen = []
    priced = interfaces._q_t_energy

    def recording(prob, units, grid, occ_R, occ_S):
        seen.append((grid, occ_R, occ_S, priced(prob, units, grid, occ_R, occ_S)))
        return seen[-1][3]

    monkeypatch.setattr(interfaces, "_q_t_energy", recording)
    return seen


def test_glued_incumbent_matches_the_reference(monkeypatch):
    # the family equals the phase-pattern filter, and the bitboard price of
    # the glued family equals the lattice sweep of the validated glued
    # configuration, with the same overlap verdict: the solver prices it
    # only when its free members do not overlap; their occupancy is that
    # of the reference's members off the frame
    seen = record_q_t_prices(monkeypatch)
    rows = overlaps = infeasible = 0
    for prob in _glued_rows():
        members = ref_near_family(prob)
        assert _family_members(prob.i, prob.j, prob.nu, (_window_cells(prob.T),) * 2) == members, prob
        seen.clear()
        try:
            solve_interface(prob, budget=1)
        except InfeasibleBoundary:
            assert not seen, prob
            infeasible += 1
            continue
        forced = validate(m for m in members if _frame_test(prob.T)(m))
        assert forced == frame_forced(prob), prob
        (grid, forced_R, forced_S, _), *glued = seen  # the forced part is priced first
        assert (forced_R, forced_S) == ref_placed(grid, forced.molecules), prob
        free = {
            (a, b) for a in range(-prob.T, prob.T) for b in range(-prob.T, prob.T)
            if inside_inner((a, b), prob.T) and (a, b) not in forced.occupancy
        }
        try:
            ref = ref_glued_part(members, forced, free)
        except OverlapError:
            assert not glued, prob  # the overlap verdict: the glued family is not priced
            overlaps += 1
            continue
        [(_, occ_R, occ_S, value)] = glued
        scale = _units(prob)[0]
        assert type(value) is int, prob
        interior = [m for m in ref.molecules if m not in forced.molecules]
        assert (occ_R, occ_S) == ref_placed(grid, ref.molecules), prob
        assert (occ_R ^ forced_R, occ_S ^ forced_S) == ref_placed(grid, interior), prob
        assert F(value, scale) == ref_energy(ref, prob), prob
        rows += 1
    assert rows > 200 and overlaps > 0 and infeasible > 0


def _oracle_rows():
    """T = 8..21 over the table directions and their mirrors, each row at
    two of the weights (1, 1), (1, 1/4) and (1/3, 2) and the volume energy,
    in turn, so that every T, direction and energy meet."""
    energies = (((1, 1), "surface"), ((1, F(1, 4)), "surface"), ((F(1, 3), 2), "surface"),
                ((1, 1), "volume"))
    for T, (k, (i, j, nu)), mirror, turn in itertools.product(
        range(8, 22), enumerate(TABLE_DIRECTIONS), (False, True), (0, 1)
    ):
        weights, kind = energies[(T + k + 2 * mirror + turn) % 4]
        if mirror:
            yield InterfaceProblem(j, i, -direction(*nu), T, weights, kind)
        else:
            yield InterfaceProblem(i, j, direction(*nu), T, weights, kind)


def test_q_t_prices_match_the_per_edge_reference(monkeypatch):
    # the solver's forced and glued prices, over the scale, equal the
    # per-edge Fraction references of `test_fastpaths` on the validated
    # forced part and glued family: an oracle that builds no bitboard, as
    # the lattice sweep now counts sides as the solver does
    seen = record_q_t_prices(monkeypatch)
    counts = Counter()
    window = {}
    for prob in _oracle_rows():
        seen.clear()
        solve_interface(prob, budget=1)
        _, forced, glued, placed, *_ = _set_up(prob)
        configs = [validate(forced)] + ([] if placed is None else [validate(glued)])
        assert len(seen) == len(configs), prob
        w = window.setdefault(prob.T, Window.square(prob.T))
        scale = _units(prob)[0]
        for config, (*_, value) in zip(configs, seen):
            if prob.energy_kind == "volume":
                expected = ref_volume(config, w)
            else:
                expected = ref_weighted(config, *prob.weights, w)
            assert type(value) is int and F(value, scale) == expected, prob
            counts[prob.T & 1, prob.energy_kind, len(configs)] += 1
    # both parities and energy kinds, with a glued family priced in each
    assert {key for key in counts if key[2] == 2} == set(
        itertools.product((0, 1), ("surface", "volume"), (2,))
    ), counts


# -------------------------------------------------------------------
# Set-up work
# -------------------------------------------------------------------

def _count_sweeps(monkeypatch, calls):
    """Count lattice sweeps and full phase patterns into `calls`."""
    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        molecules, "_boundary_lengths", counted("sweep", molecules._boundary_lengths)
    )
    monkeypatch.setattr(
        molecules, "volume_deficit", counted("sweep", molecules.volume_deficit)
    )
    monkeypatch.setattr(
        interfaces, "volume_deficit", counted("sweep", molecules.volume_deficit), raising=False
    )
    monkeypatch.setattr(molecules, "phase_pattern", counted("pattern", phase_pattern))
    monkeypatch.setattr(
        interfaces, "phase_pattern", counted("pattern", phase_pattern), raising=False
    )


def _fraction_frames(solve):
    """A count by name of the Python frames of the `fractions` module that
    solve() enters, run under `sys.setprofile`."""
    frames = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            frames[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        solve()
    finally:
        sys.setprofile(None)
    return frames


def test_set_up_work_guard(monkeypatch):
    # over the frontier row, the table problems and a weighted and a
    # volume row at odd T, a solve never sweeps the lattice: it prices the
    # forced part on its masks; it builds no full phase pattern; and it
    # prices in ints from set-up to result: its only Fractions are the
    # result's value, lower and root, and it does no Fraction arithmetic,
    # reading a weight's numerator and denominator alone
    calls = {"sweep": 0, "pattern": 0}
    _count_sweeps(monkeypatch, calls)
    rows = [
        InterfaceProblem(1, 0, direction(1, 1), 20), *_table_rows(),
        InterfaceProblem(1, 0, direction(0, 1), 9, (F(1, 2), 1)),
        InterfaceProblem(1, 0, direction(0, 1), 9, energy_kind="volume"),
    ]
    for prob in rows:
        for budget in (1, 5_000_000):
            calls.update(sweep=0, pattern=0)
            frames = _fraction_frames(lambda: solve_interface(prob, budget=budget))
            assert calls == {"sweep": 0, "pattern": 0}, (prob, budget)
            assert frames.pop("__new__", 0) == 3, (prob, budget)
            assert set(frames) <= {"numerator", "denominator"}, (prob, budget, frames)


# SHA-256 of the (value, config JSON) that `pattern_upper_bound` returns
# on the feasible rows of the test below, in order: a wetting fill lists
# its mirror-species row before the family members
PATTERN_DIGEST = "7f3d0a12f94bf410a3b15cdd06e06d5c19859540d5ee5f0268d80ac61c686c3d"


def test_pattern_upper_bound_prices_each_candidate_on_the_set_up_masks(monkeypatch):
    # the pattern library prices each candidate once on the set-up masks
    # (`_q_t_energy`), as the solver prices its incumbents, and makes no
    # lattice sweep: the glued family when it does not overlap, the wetting
    # fill where it applies, and the forced part alone; with the pairs at
    # (1, 3) at T=16, where some glued families overlap and some frames do,
    # which raises before any pricing.  Each value returned is the lattice
    # sweep of the configuration returned and its per-edge reference
    calls = {"sweep": 0, "pattern": 0}
    _count_sweeps(monkeypatch, calls)
    seen = record_q_t_prices(monkeypatch)
    kinds = set()
    digest = hashlib.sha256()
    pairs = [(i, j, direction(1, 3), 16, (1, 1)) for i, j in itertools.permutations(range(9), 2)]
    for i, j, nu, T, weights in [*_pattern_rows(), *pairs]:
        prob = InterfaceProblem(i, j, nu, T, weights)
        calls.update(sweep=0, pattern=0)
        seen.clear()
        try:
            glued = _glued_or_error(ref_set_up(prob)[3])
        except InfeasibleBoundary:
            with pytest.raises(InfeasibleBoundary):
                pattern_upper_bound(i, j, nu, T, weights)
            assert (calls, seen) == ({"sweep": 0, "pattern": 0}, []), prob
            kinds.add(None)
            continue
        try:
            _wetting_chain(prob)
            wetting = True
        except NoPattern:
            wetting = False
        calls.update(sweep=0, pattern=0)
        value, cfg = pattern_upper_bound(i, j, nu, T, weights)
        expected = 1 + (not isinstance(glued, str)) + wetting
        assert calls == {"sweep": 0, "pattern": 0} and len(seen) == expected, prob
        kinds.add((isinstance(glued, str), wetting))
        window = Window.square(T)
        assert admissible(cfg, prob), prob
        assert value == weighted_perimeter(cfg, *prob.weights, window) == ref_energy(cfg, prob), prob
        assert value == ref_weighted(cfg, *prob.weights, window), prob
        config_json = json.dumps(configuration_to_jsonable(cfg), sort_keys=True)
        digest.update(repr((str(value), config_json)).encode())
    assert kinds == {(False, False), (False, True), (True, False), None}
    assert digest.hexdigest() == PATTERN_DIGEST


def test_root_certified_solve_makes_no_per_cell_pass(monkeypatch):
    # no solve builds a Window: Q_T is read as integer cell ranges; and a
    # solve that certifies at the root masks no cell list, as a grid has no
    # cell-list mask (the tests' is `grid_mask`), and reads no molecule's
    # cells, as its result is validated on the boards of its shapes
    assert not hasattr(PlacementGrid, "mask")
    calls = {"cells": 0, "window": 0}
    cells, window = Molecule.cells, Window.__init__

    def counted_cells(m):
        calls["cells"] += 1
        return cells(m)

    def counted_window(w, *args):
        calls["window"] += 1
        window(w, *args)

    monkeypatch.setattr(Molecule, "cells", counted_cells)
    monkeypatch.setattr(Window, "__init__", counted_window)
    Window.square(8)
    assert calls["window"] == 1  # the counter sees a Window built
    rows = [InterfaceProblem(1, 0, direction(1, 1), 20), *_table_rows()]
    certified = 0
    for prob in rows:
        calls.update(cells=0, window=0)
        res = solve_interface(prob)
        assert calls["window"] == 0, prob
        if res.nodes_explored == 0:
            assert res.certificate == "exact", prob
            assert calls == {"cells": 0, "window": 0}, prob
            certified += 1
    assert certified > 20
