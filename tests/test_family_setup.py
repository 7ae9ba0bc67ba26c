"""Differential tests for the boundary-family set-up of interface problems.

`_family_members` tests each side of the family once per anchor, against
an extreme of x . nu taken once per shape; the per-cell loop it replaced
(`side_reach`) is the reference.  `_near_family` builds the family on Q_T
itself; the consumers built from it are checked against the same
consumers on the Q_{T+8} family, which every member they keep also meets.
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

import itertools
from fractions import Fraction as F

import pytest

from chiralattice.interfaces import (
    Direction,
    InfeasibleBoundary,
    InterfaceProblem,
    NoPattern,
    _energy,
    _family_members,
    _forced_part,
    _free_cells,
    _glued_part,
    _mirror_molecule,
    _near_family,
    admissible,
    direction,
    frame_forced,
    meets_frame,
    pattern_upper_bound,
)
from chiralattice.molecules import (
    Molecule, OverlapError, R, S, Window, phase_label, phase_pattern, validate,
)
from test_fastpaths import FAMILY_DIRECTIONS
from test_interfaces import wetting_config
from test_line_bound import TABLE_DIRECTIONS, _table_rows, inside_inner, side_reach

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


def ref_frame_forced(prob):
    search = Window.square(prob.T + 8)
    members = [
        m
        for m in ref_family_members(prob.i, prob.j, prob.nu, search)
        if meets_frame(m, prob.T)
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
        (m.shape.name, m.anchor) for m in config.molecules if meets_frame(m, prob.T)
    }
    return actual == forced


def ref_glued_family_config(prob):
    members = ref_family_members(prob.i, prob.j, prob.nu, Window.square(prob.T + 8))
    relevant = [
        m
        for m in members
        if meets_frame(m, prob.T)
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
    candidates.append((_energy(cfg, prob), cfg))
    try:
        wet = ref_wetting_config(prob)
        candidates.append((_energy(wet, prob), wet))
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
            got = _family_members(upper, lower, nu, window)
            assert got == ref_family_members(upper, lower, nu, window)
            # each side keeps some of its pattern and drops some
            for lab in (upper, lower):
                kept = sum(phase_label(m) == lab for m in got)
                assert 0 < kept < len(phase_pattern(lab, window).molecules), lab


def _glued_or_error(members, forced, T):
    try:
        return _glued_part(members, forced, _free_cells(forced, T)).molecules
    except OverlapError as exc:
        return str(exc)


@pytest.mark.parametrize("T", [8, 9, 12, 13])
def test_family_on_q_t_matches_q_t_plus_8(T):
    # the forced part and the glued part only keep members that meet Q_T,
    # so the family on Q_T gives them molecule for molecule, in order, and
    # an inconsistent frame raises the same message
    feasible = infeasible = 0
    for (i, j), pq in itertools.product(itertools.permutations(range(9), 2), FAMILY_DIRECTIONS):
        prob = InterfaceProblem(i, j, direction(*pq), T)
        far = _family_members(i, j, prob.nu, Window.square(T + 8))
        try:
            ref = _forced_part(far, prob)
        except InfeasibleBoundary as exc:
            with pytest.raises(InfeasibleBoundary) as raised:
                frame_forced(prob)
            assert str(raised.value) == str(exc)
            infeasible += 1
            continue
        near = _near_family(prob)
        forced = frame_forced(prob)
        assert forced.molecules == ref.molecules, (i, j, pq)
        assert _glued_or_error(near, forced, T) == _glued_or_error(far, ref, T), (i, j, pq)
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
    try:
        return build(prob).molecules
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
        assert cfg.molecules == ref_cfg.molecules, (i, j, nu, weights)
        prob = InterfaceProblem(i, j, nu, T, weights)
        wetting_wins += value < _energy(ref_glued_family_config(prob), prob)
        # the chain on its own, also where the glued family ties with it
        assert _wetting(wetting_config, prob) == _wetting(ref_wetting_config, prob)
    # the wetting rows run at T=12 and 16, where the chain wins on some,
    # so both candidates are compared
    assert (wetting_wins > 0) == (T > 8)
    assert len(rows) == len(TABLE_DIRECTIONS) * 2 + {8: 0, 12: 24, 16: 26}[T]


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
        assert admissible(cfg, prob) and _energy(cfg, prob) == value
    assert 0 < infeasible < len(problems)
