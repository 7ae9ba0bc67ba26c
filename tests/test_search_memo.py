"""Differential tests: the memoised searches against the plain ones.

`enumerate_coverings` and `lemma_check` read one covering DFS memoised on
the frontier state at line entries, and `cluster_min_perimeter` ranks
candidates once and keys translation classes by their occupancy masks and
R counts.  The plain forms that they replaced are kept below as the
reference, each walk starting from the table's first order cell and
reading the placements covering a cell off their masks, not off the
table's branch lists; coverings, verdicts, node and covering counts, cap
stops and witnesses must be equal, and the memo states must be the
distinct keys that the plain walk meets where the memo is kept.
"""

from __future__ import annotations

import pytest

from chiralattice.altpairs import FLAT_PAIR, SKEW_PAIR
from chiralattice.coverings import (
    CapExceeded, _square_table, enumerate_coverings, lemma_check,
)
from chiralattice.interfaces import cluster_min_perimeter
from chiralattice.molecules import BUILTIN_SHAPES, MoleculeShape, R, S, phase_label, validate
from chiralattice.placements import PlacementGrid

_MOLECULE_EDGES = 10


# -------------------------------------------------------------------
# Reference implementations (plain DFS, frozenset cluster keys)
# -------------------------------------------------------------------

def covering_lists(table):
    """covering[i]: the placements covering order cell i, in the table's
    numbering, read off their masks, not off the table's branch lists."""
    covering = [[] for _ in range(table.n)]
    for p in table.placements:
        cells = p.mask & table.order_bits
        while cells:
            low = cells & -cells
            cells ^= low
            covering[low.bit_length() - 1].append(p)
    return covering


def ref_coverings(table, stats):
    """Every covering of the order cells, in DFS order, unmemoised: each
    node tries every placement covering its first free order cell."""
    targets = table.order_bits
    covering = covering_lists(table)
    occupied = 0
    chosen = []
    stack = [iter(covering[(targets & -targets).bit_length() - 1])]
    while stack:
        for p in stack[-1]:
            if p.mask & occupied:
                continue
            stats["nodes"] += 1
            occupied |= p.mask
            chosen.append(p)
            free = targets & ~occupied
            if free:
                stack.append(iter(covering[(free & -free).bit_length() - 1]))
                break
            stats["coverings"] += 1
            yield tuple(chosen)
            occupied ^= chosen.pop().mask
        else:
            stack.pop()
            if chosen:
                occupied ^= chosen.pop().mask


def inner_keys(table, shapes, k, inner_margin):
    """Each placement's inner key: its phase (or shape name, for user
    shapes) if it meets Q_2k-margin, else None."""
    builtin = all(s is BUILTIN_SHAPES.get(s.name) for s in shapes)
    half = k - inner_margin // 2

    def inner_key(mol):
        if not any(-half <= x < half and -half <= y < half for x, y in mol.cells()):
            return None
        return phase_label(mol) if builtin else mol.shape.name

    return [inner_key(p.molecule) for p in table.placements]


def ref_lemma(k, shapes, cap, inner_margin):
    """(holds, complete, nodes, coverings, witness molecules)."""
    table = _square_table(k, shapes)
    keys = inner_keys(table, shapes, k, inner_margin)
    stats = {"nodes": 0, "coverings": 0}

    def result(holds, witness):
        mols = None if witness is None else _molecules(validate(p.molecule for p in witness))
        return (holds, holds is not None, stats["nodes"], stats["coverings"], mols)

    for chosen in ref_coverings(table, stats):
        if len({keys[p.index] for p in chosen} - {None}) > 1:
            return result(False, chosen)
        if cap is not None and stats["coverings"] >= cap:
            return result(None, None)
    return result(True, None)


def ref_enumeration(k, shapes, cap):
    """(coverings as (shape name, anchor) tuples, (nodes, coverings,
    placements) at the cap stop or None when the stream ends first)."""
    table = _square_table(k, shapes)
    stats = {"nodes": 0, "coverings": 0}
    out = []
    for chosen in ref_coverings(table, stats):
        out.append(tuple((p.shape.name, p.anchor) for p in chosen))
        if cap is not None and stats["coverings"] >= cap:
            return out, (stats["nodes"], stats["coverings"], len(table.placements))
    return out, None


def ref_cluster(r, s):
    """(value, witness molecules) by growth with frozenset class keys; the
    candidates are the placements covering an order cell of the halo."""
    total = r + s
    reach = 3 * total
    table = PlacementGrid(((-reach, -reach), (0, 1), (1, 0), 2 * reach + 1, 2 * reach + 1), (R, S))
    covering = covering_lists(table)
    seeds = {p.shape: p for p in table.placements if p.anchor == (0, 0)}
    best = None
    seen = set()

    def canonical(mols):
        min_x = min(a for _, (a, _) in mols)
        min_y = min(b for _, (_, b) in mols)
        return frozenset((n, (a - min_x, b - min_y)) for n, (a, b) in mols)

    def grow(placed, occ, halo, per, nr, ns):
        nonlocal best
        if len(placed) == total:
            if best is None or per < best[0]:
                best = (per, tuple(placed))
            return
        shapes = ([R] if nr < r else []) + ([S] if ns < s else [])
        cand = {}  # by index: a placement hashes all of its fields
        rest = halo
        while rest:
            low = rest & -rest
            rest ^= low
            cand.update(
                (p.index, p) for p in covering[low.bit_length() - 1] if p.shape in shapes
            )
        for p in sorted(cand.values(), key=lambda p: (p.shape.name, p.anchor)):
            if p.mask & occ:
                continue
            key = canonical(frozenset(
                [(q.shape.name, q.anchor) for q in placed] + [(p.shape.name, p.anchor)]
            ))
            if key in seen:
                continue
            seen.add(key)
            grow(
                placed + [p],
                occ | p.mask,
                (halo | p.touch1 | p.touch2) & ~p.mask,
                per + _MOLECULE_EDGES - 2 * p.contacts(occ),
                nr + (p.shape is R),
                ns + (p.shape is S),
            )

    for shape, count in ((R, r), (S, s)):
        if count:
            seed = seeds[shape]
            grow(
                [seed], seed.mask, seed.touch1 | seed.touch2,
                _MOLECULE_EDGES, int(shape is R), int(shape is S),
            )
    value, placed = best
    return value, _molecules(validate(p.molecule for p in placed))


def _molecules(config):
    return [(m.shape.name, *m.anchor) for m in config.molecules]


# -------------------------------------------------------------------
# Equality
# -------------------------------------------------------------------

SHAPE_SETS = {
    "R,S": (R, S),
    "R": (R,),
    "S": (S,),
    "flat": FLAT_PAIR,
    "skew": SKEW_PAIR,
}
CAPS = (None, 1, 2, 7, 100)


@pytest.mark.parametrize("shapes", sorted(SHAPE_SETS))
@pytest.mark.parametrize("margin", (2, 4))
@pytest.mark.parametrize("k", range(2, 9))
def test_lemma_equals_plain_dfs(k, margin, shapes):
    for cap in CAPS:
        rep = lemma_check(k, SHAPE_SETS[shapes], cap=cap, inner_margin=margin)
        got = (
            rep.holds,
            rep.complete,
            rep.search_space.nodes,
            rep.search_space.coverings,
            None if rep.witness is None else _molecules(rep.witness),
        )
        assert got == ref_lemma(k, SHAPE_SETS[shapes], cap, margin), cap


# (nodes, coverings, memo states) of `lemma_check` on the built-in pair at
# the benchmark's largest k, past the reach of the plain DFS above
LEMMA_SEARCH_SPACE = {
    9: (228_653, 9_216, 6_950),
    10: (478_055, 18_432, 15_054),
    11: (1_080_783, 36_864, 32_398),
}


@pytest.mark.parametrize("k", sorted(LEMMA_SEARCH_SPACE))
def test_lemma_search_space_pinned(k):
    rep = lemma_check(k, [R, S])
    space = rep.search_space
    assert rep.holds is True
    assert (space.nodes, space.coverings, space.states) == LEMMA_SEARCH_SPACE[k]


def ref_states(table, keys, wanted, stop=None):
    """(nodes, states) of the plain DFS that `ref_coverings` walks, written
    recursively so that each node knows whether its subtree yields.

    states is the number of distinct (frontier occupancy, phase state) keys
    over the line-entry nodes (those whose first free order cell lies in a
    later line than their parent's) whose subtrees were walked to the end
    and yielded nothing: the memo states of the line-entry memo.  keys
    holds each placement's inner key (None for no key), a phase state is
    None, one key or "mixed", and a covering yields when its state is
    wanted, or always when wanted is None.  The walk stops at the stop-th
    yield, as `lemma_check` stops at its first and a capped enumeration at
    its cap-th, and the nodes then open are not counted.  Frontiers
    are rebuilt from the placement masks: frontier[i] is the order cells
    and the cells of the placements whose first order cell is i or later.
    """
    targets, height = table.order_bits, table.height
    covering = covering_lists(table)
    frontier = [0] * table.n
    bits = targets
    for i in reversed(range(table.n)):
        for p in covering[i]:
            if not p.mask & targets & (1 << i) - 1:  # i is its first order cell
                bits |= p.mask
        frontier[i] = bits
    seen = set()
    nodes = yields = 0

    class Stop(Exception):
        pass

    def walk(occ, i, state):
        nonlocal nodes, yields
        below = False
        for p in covering[i]:
            if p.mask & occ:
                continue
            nodes += 1
            key = keys[p.index]
            child = state if key is None or key == state else ("mixed" if state is not None else key)
            sub = occ | p.mask
            free = targets & ~sub
            if not free:
                if wanted is None or child == wanted:
                    below = True
                    yields += 1
                    if yields == stop:
                        raise Stop
                continue
            j = (free & -free).bit_length() - 1
            if walk(sub, j, child):
                below = True
            elif j // height > i // height:
                seen.add((sub & frontier[j], child))
        return below

    try:
        walk(0, (targets & -targets).bit_length() - 1, None)
    except Stop:
        pass
    return nodes, len(seen)


# R and a twin of it under another name: a user shape set whose phase
# states differ on equal occupancies, so the phase state in the memo key
# is read
TWIN_PAIR = (R, MoleculeShape("R'", R.cells, R.chirality_class))


@pytest.mark.parametrize("margin", (2, 4))
@pytest.mark.parametrize(
    "shapes,k", [("R,S", k) for k in range(4, 8)] + [("twin", k) for k in range(3, 7)]
)
def test_lemma_states_equal_line_entry_keys(shapes, k, margin):
    """Complete walks on the built-in pair, and walks on the twin pair
    that stop at their first violation."""
    shapes = (R, S) if shapes == "R,S" else TWIN_PAIR
    rep = lemma_check(k, shapes, inner_margin=margin)
    assert rep.holds is (shapes != TWIN_PAIR)
    table = _square_table(k, shapes)
    keys = inner_keys(table, shapes, k, margin)
    space = rep.search_space
    assert (space.nodes, space.states) == ref_states(table, keys, "mixed", 1)


@pytest.mark.parametrize("shapes", sorted(SHAPE_SETS))
def test_enumeration_states_equal_line_entry_keys(shapes):
    """Each short stream, read with a cap at its last covering so that the
    CapExceeded carries the walk's counts."""
    checked = 0
    for k in range(2, 7):
        streamed = _enumeration(k, SHAPE_SETS[shapes], ENUMERATION_LIMIT)
        if streamed[1] is not None:
            continue  # a long stream
        cap = len(streamed[0])
        with pytest.raises(CapExceeded) as exc:
            for _ in enumerate_coverings(k, SHAPE_SETS[shapes], cap=cap):
                pass
        table = _square_table(k, SHAPE_SETS[shapes])
        got = (exc.value.stats.nodes, exc.value.stats.states)
        assert got == ref_states(table, [None] * len(table.placements), None, cap), k
        checked += 1
    assert checked


def _enumeration(k, shapes, cap):
    """`ref_enumeration`'s record of `enumerate_coverings`."""
    out = []
    try:
        for config in enumerate_coverings(k, shapes, cap=cap):
            out.append(tuple((m.shape.name, m.anchor) for m in config.molecules))
    except CapExceeded as exc:
        return out, (exc.stats.nodes, exc.stats.coverings, exc.stats.placements)
    return out, None


# coverings compared per case: the flat pair has 672,736 at k = 6 and the
# skew pair 337,872 at k = 3, so longer streams are compared up to here
ENUMERATION_LIMIT = 3000


@pytest.mark.parametrize("shapes", sorted(SHAPE_SETS))
@pytest.mark.parametrize("k", range(2, 7))
def test_enumeration_equals_plain_dfs(k, shapes):
    got = _enumeration(k, SHAPE_SETS[shapes], ENUMERATION_LIMIT)
    assert got == ref_enumeration(k, SHAPE_SETS[shapes], ENUMERATION_LIMIT)
    caps = [cap for cap in CAPS if cap is not None]
    if got[1] is None:
        # the whole stream was compared; a cap at its last covering stops
        # the stream on the next read all the same
        caps.append(len(got[0]))
    for cap in caps:
        assert _enumeration(k, SHAPE_SETS[shapes], cap) == ref_enumeration(
            k, SHAPE_SETS[shapes], cap
        ), cap


@pytest.mark.parametrize(
    "r,s", [(r, t - r) for t in range(1, 6) for r in range(t + 1)]
)
def test_cluster_equals_frozenset_search(r, s):
    value, config = cluster_min_perimeter(r, s)
    assert (value, _molecules(config)) == ref_cluster(r, s)


def test_memo_states_reported():
    rep = lemma_check(6)
    assert 0 < rep.search_space.states < rep.search_space.nodes
    assert "states" not in rep.to_jsonable()["search_space"]
