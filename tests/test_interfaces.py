"""Interface problems: families, admissibility, solver, patterns, clusters."""

import itertools
import random
from fractions import Fraction as F

import pytest

from chiralattice.interfaces import (
    ClusterCapExceeded,
    Direction,
    InfeasibleBoundary,
    InterfaceProblem,
    NoPattern,
    admissible,
    cluster_min_perimeter,
    direction,
    normalized_density,
    pattern_upper_bound,
    solve_interface,
)
from chiralattice.interfaces import (
    _family_members,
    _frame_test,
    _set_up,
    _wetting_chain,
    _wetting_fill,
)
from chiralattice.molecules import (
    InvalidInput,
    Molecule,
    OverlapError,
    R,
    S,
    Window,
    perimeter,
    phase_label,
    validate,
    volume_deficit,
)
from test_fastpaths import phase_molecule
from test_line_bound import inside_inner, ref_energy


def boundary_family(i: int, j: int, nu: Direction, region: Window):
    """The family molecules intersecting the region, as a validated config."""
    if i == j:
        raise InvalidInput("boundary families need distinct phases")
    try:
        return validate(_family_members(i, j, nu, region.cell_range()))
    except OverlapError as exc:
        raise InfeasibleBoundary(
            f"boundary family ({i},{j},{nu.as_tuple()}) is inconsistent: {exc}"
        ) from exc


def glued_family_config(prob: InterfaceProblem):
    """The glued family alone (`_set_up`), as the pattern library builds it.

    Raises InfeasibleBoundary when the frame itself is inconsistent, and
    NoPattern when two of the interior members overlap.
    """
    glued = _set_up(prob)[2]
    try:
        return validate(glued)
    except OverlapError as exc:
        raise NoPattern(f"the glued family overlaps inside Q_{prob.T}: {exc}") from exc


def _mirror_molecule(m: Molecule) -> Molecule:
    """Reflection of an R or S molecule through a vertical axis:
    R(n1, n2) <-> S(-n1, n2)."""
    n1, n2 = m.anchor
    return Molecule(S if m.shape is R else R, (-n1, n2))


def wetting_config(prob: InterfaceProblem):
    """The wetting fill alone (`_wetting_fill` over `_wetting_chain`)."""
    chain = _wetting_chain(prob)  # raises NoPattern before any family is built
    members, forced, _, _, grid, _, _, free = _set_up(prob)
    return validate(_wetting_fill(chain, members, forced, grid, free)[0])


# -------------------------------------------------------------------
# Independent exhaustive oracle (subset enumeration, no branch and bound)
# -------------------------------------------------------------------

def exhaustive_oracle(prob: InterfaceProblem):
    """Minimum energy by enumerating every antichain of free placements."""
    forced = validate(_set_up(prob)[1])
    T = prob.T
    occupied = set(forced.occupancy)
    placements = []
    seen = set()
    for a in range(-T // 2 + 4, T // 2 - 4):
        for b in range(-T // 2 + 4, T // 2 - 4):
            for shape in (R, S):
                for off in shape.cells:
                    anchor = (a - off[0], b - off[1])
                    if (shape.name, anchor) in seen:
                        continue
                    seen.add((shape.name, anchor))
                    mol = Molecule(shape, anchor)
                    cells = mol.cells()
                    if not all(inside_inner(c, T) for c in cells):
                        continue
                    if any(c in occupied for c in cells):
                        continue
                    placements.append((mol, set(cells)))
    best = None
    n = len(placements)
    assert n <= 14, "oracle only runs on tiny instances"
    for mask in range(1 << n):
        chosen = [placements[k] for k in range(n) if mask >> k & 1]
        cells_used: set = set()
        ok = True
        for _, cs in chosen:
            if cells_used & cs:
                ok = False
                break
            cells_used |= cs
        if not ok:
            continue
        cfg = validate(list(forced.molecules) + [m for m, _ in chosen])
        val = ref_energy(cfg, prob)
        if best is None or val < best:
            best = val
    return best


# -------------------------------------------------------------------

def test_direction_basics():
    with pytest.raises(ValueError):
        Direction(0, 0)
    with pytest.raises(ValueError):
        Direction(2, 4)
    assert direction(2, 4).as_tuple() == (1, 2)
    assert Direction(3, -1).norm_inf == 3
    assert Direction(1, 1).norm_l1 == 2
    assert Direction(3, -1).norm_l1 == 4
    assert Direction(0, 1).norm_l1 == 1


def test_problem_validation():
    with pytest.raises(ValueError):
        InterfaceProblem(1, 1, Direction(0, 1), 8)
    with pytest.raises(ValueError):
        InterfaceProblem(1, 0, Direction(0, 1), 6)
    with pytest.raises(ValueError):
        InterfaceProblem(1, 0, Direction(0, 1), 8, (0, 1))


def test_boundary_family_upper_half():
    fam = boundary_family(1, 0, Direction(0, 1), Window.square(20))
    assert len(fam) > 0
    for m in fam.molecules:
        assert phase_label(m) == 1
        assert min(c[1] for c in m.cells()) >= 0  # open upper half plane


def test_boundary_family_mixed_disjoint():
    fam = boundary_family(1, 5, Direction(1, 1), Window.square(20))
    labels = {phase_label(m) for m in fam.molecules}
    assert labels == {1, 5}
    for m in fam.molecules:
        vals = [c[0] + c[1] for c in m.cells()]
        if phase_label(m) == 1:
            assert min(vals) >= 0
        else:
            assert max(vals) <= 0


def test_boundary_family_rejects_equal_phases():
    with pytest.raises(ValueError):
        boundary_family(1, 1, Direction(0, 1), Window.square(8))


def test_family_symmetry_swap():
    nu = Direction(1, 1)
    a = boundary_family(1, 5, nu, Window.square(24))
    b = boundary_family(5, 1, Direction(-1, -1), Window.square(24))
    key = lambda cfg: sorted((m.shape.name, m.anchor) for m in cfg.molecules)
    assert key(a) == key(b)


def test_infeasible_family_detected():
    with pytest.raises(InfeasibleBoundary):
        solve_interface(InterfaceProblem(1, 6, Direction(1, -1), 12))


def test_admissible():
    prob = InterfaceProblem(1, 0, Direction(1, 1), 12)
    fam = boundary_family(1, 0, Direction(1, 1), Window.square(18))
    assert admissible(fam, prob)
    # dropping one frame molecule breaks admissibility
    frame_mols = [m for m in fam.molecules if _frame_test(12)(m)]
    partial = validate([m for m in fam.molecules if m is not frame_mols[0]])
    assert not admissible(partial, prob)
    # a third-phase molecule on the frame breaks admissibility
    bad = validate(list(fam.molecules) + [Molecule(S, (-2, -8))])
    if any(_frame_test(12)(m) and phase_label(m) != 1 for m in bad.molecules):
        assert not admissible(bad, prob)
    # interior extras leave admissibility untouched
    forced = validate(_set_up(prob)[1])
    extra = None
    for cell in [(-1, -1), (0, 0), (-1, 0), (0, -1), (1, 0)]:
        m = phase_molecule(5, cell)
        if all(
            inside_inner(c, 12) and c not in forced.occupancy
            for c in m.cells()
        ):
            extra = m
            break
    if extra is not None:
        assert admissible(validate(list(forced.molecules) + [extra]), prob)


def test_solver_t8_trivial_and_matches_oracle():
    for i, j in [(1, 0), (1, 2), (5, 0)]:
        for pq in [(1, 1), (0, 1)]:
            prob = InterfaceProblem(i, j, direction(*pq), 8)
            res = solve_interface(prob)
            assert res.certificate == "exact"
            assert res.value == exhaustive_oracle(prob)


def test_solver_t12_matches_oracle():
    for i, j, pq in [(1, 0, (1, 1)), (1, 0, (0, 1)), (1, 2, (1, 1)), (1, 7, (1, -1))]:
        prob = InterfaceProblem(i, j, direction(*pq), 12)
        res = solve_interface(prob)
        assert res.certificate == "exact"
        assert res.value == exhaustive_oracle(prob), (i, j, pq)


ORACLE_NORMALS = [(1, 1), (-1, -1), (1, -1), (-1, 1), (1, 0), (-1, 0), (0, 1), (0, -1),
                  (3, -1), (1, 3)]


def test_solver_matches_oracle_on_a_seeded_sweep():
    """300 problems drawn from T = 8..12, every ordered pair of 0..8 and ten
    normals; every feasible one certifies the oracle's minimum."""
    space = [
        (T, i, j, pq)
        for T in range(8, 13)
        for i, j in itertools.permutations(range(9), 2)
        for pq in ORACLE_NORMALS
    ]
    feasible = 0
    for T, i, j, pq in random.Random(20261018).sample(space, 300):
        prob = InterfaceProblem(i, j, direction(*pq), T)
        try:
            res = solve_interface(prob)
        except InfeasibleBoundary:
            continue
        feasible += 1
        assert res.certificate == "exact", (T, i, j, pq)
        assert res.value == exhaustive_oracle(prob), (T, i, j, pq)
    assert feasible > 200


def test_solver_result_is_admissible_and_prices_back():
    prob = InterfaceProblem(1, 0, Direction(1, 1), 12)
    res = solve_interface(prob)
    assert admissible(res.config, prob)
    assert perimeter(res.config, Window.square(12)) == res.value


def test_solver_determinism_and_budget():
    prob = InterfaceProblem(1, 0, Direction(0, 1), 16)
    a = solve_interface(prob, budget=200)
    b = solve_interface(prob, budget=200)
    assert (a.value, a.certificate, a.nodes_explored) == (
        b.value, b.certificate, b.nodes_explored
    )
    full = solve_interface(prob)
    assert full.certificate == "exact"
    assert a.value >= full.value
    if a.certificate == "exact":
        assert a.value == full.value


def test_solver_symmetry_exact():
    for i, j, pq, T in [(1, 0, (1, 1), 12), (1, 2, (0, 1), 8), (5, 6, (1, 1), 8)]:
        nu = direction(*pq)
        a = solve_interface(InterfaceProblem(i, j, nu, T))
        b = solve_interface(InterfaceProblem(j, i, -nu, T))
        assert a.value == b.value
        assert a.certificate == b.certificate == "exact"


def _reflect_label(i: int) -> int:
    """x -> -x sends phase i of R to phase i + 4 of S and back; 0 stays."""
    return i if i == 0 else i + 4 if i <= 4 else i - 4


def test_solver_rs_reflection():
    # x -> -x maps R(n1, n2) to S(-n1, n2) and Q_T, its frame and its inner
    # square to themselves, so (i, j, (p, q), (c_R, c_S)) and
    # (si, sj, (-p, q), (c_S, c_R)) are one problem seen in a mirror: the
    # scan order sweeps the columns from the other side, and the search
    # must agree on every node
    feasible = 0
    for (i, j), pq, weights in itertools.product(
        itertools.permutations(range(9), 2),
        [(1, 1), (1, 0), (3, -1), (2, 1)],
        [(1, 1), (F(2, 3), F(1, 4))],
    ):
        prob = InterfaceProblem(i, j, direction(*pq), 9, weights)
        image = InterfaceProblem(
            _reflect_label(i), _reflect_label(j), direction(-pq[0], pq[1]), 9, weights[::-1]
        )
        try:
            a = solve_interface(prob)
        except InfeasibleBoundary:
            with pytest.raises(InfeasibleBoundary):
                solve_interface(image)
            continue
        b = solve_interface(image)
        assert (a.value, a.certificate, a.nodes_explored, a.lower) == (
            b.value, b.certificate, b.nodes_explored, b.lower,
        ), (i, j, pq, weights)
        assert validate(_mirror_molecule(m) for m in a.config) == b.config
        feasible += 1
    assert feasible == 516


def test_normalized_density_diagonal_trend():
    values = {}
    for T in (8, 12, 16):
        prob = InterfaceProblem(1, 0, Direction(1, 1), T)
        res = solve_interface(prob)
        assert res.certificate == "exact"
        values[T] = normalized_density(prob, res)
    # the gap to the limiting value 2 shrinks as T grows
    gaps = [abs(values[T] - 2) for T in (8, 12, 16)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert abs(values[16] - 2) <= F(3, 10)


def test_volume_solve():
    prob = InterfaceProblem(1, 2, Direction(1, 1), 8, energy_kind="volume")
    res = solve_interface(prob)
    assert res.certificate == "exact"
    assert res.value == exhaustive_oracle(prob)
    assert res.value == volume_deficit(res.config, Window.square(8))
    # j = 0: the empty interior is admissible, so the value is bounded by
    # the deficit of the forced frame alone
    prob2 = InterfaceProblem(1, 0, Direction(1, 1), 8, energy_kind="volume")
    res2 = solve_interface(prob2)
    forced = validate(_set_up(prob2)[1])
    assert res2.value <= volume_deficit(forced, Window.square(8))
    # volume problems at T=12 agree with the oracle too
    prob3 = InterfaceProblem(1, 2, Direction(1, 1), 12, energy_kind="volume")
    res3 = solve_interface(prob3)
    assert res3.value == exhaustive_oracle(prob3)


def test_pattern_upper_bound_sandwiches_solver():
    for i, j, pq in [(1, 0, (1, 1)), (1, 0, (0, 1)), (1, 0, (1, 0)),
                     (1, 0, (3, -1)), (1, 7, (1, -1)), (1, 2, (1, 1))]:
        nu = direction(*pq)
        T = 12
        pv, cfg = pattern_upper_bound(i, j, nu, T)
        prob = InterfaceProblem(i, j, nu, T)
        assert admissible(cfg, prob)
        assert ref_energy(cfg, prob) == pv
        res = solve_interface(prob)
        assert res.value <= pv


@pytest.mark.parametrize("T", [12, 13])
def test_pattern_upper_bound_sandwiches_every_feasible_pair(T):
    # where the glued family overlaps inside the square the bound falls back
    # to another candidate instead of rejecting a feasible problem
    feasible = 0
    for i, j in itertools.permutations(range(9), 2):
        for pq in [(1, 2), (2, -1)]:
            prob = InterfaceProblem(i, j, direction(*pq), T)
            try:
                _set_up(prob)
            except InfeasibleBoundary:
                continue
            pv, cfg = pattern_upper_bound(i, j, prob.nu, T)
            assert admissible(cfg, prob)
            assert ref_energy(cfg, prob) == pv
            assert solve_interface(prob).value <= pv, (i, j, pq)
            feasible += 1
    assert feasible == {12: 98, 13: 91}[T]
    # the solver certifies 34 here; the glued family that skips the
    # members hitting forced cells attains it
    prob = InterfaceProblem(2, 6, direction(1, 2), 12)
    assert pattern_upper_bound(2, 6, prob.nu, 12)[0] == 34 == solve_interface(prob).value
    # here two interior members overlap, and the forced part alone is the bound
    prob = InterfaceProblem(2, 1, direction(1, 2), T)
    with pytest.raises(NoPattern):
        glued_family_config(prob)
    pv, cfg = pattern_upper_bound(2, 1, prob.nu, T)
    assert cfg == validate(_set_up(prob)[1])


def test_truncated_probe_never_exceeds_the_pattern_bound():
    # the solver starts from the pattern library's best construction, so
    # even a one-node probe is at most the library's bound: on every
    # feasible ordered pair at the eight axis and diagonal normals, with
    # unit and uneven weights, the wetting keys among them
    feasible = 0
    for weights, (i, j), pq in itertools.product(
        ((1, 1), (1, F(1, 4))), itertools.permutations(range(9), 2), ORACLE_NORMALS[:8]
    ):
        prob = InterfaceProblem(i, j, direction(*pq), 12, weights)
        try:
            _set_up(prob)
        except InfeasibleBoundary:
            continue
        bound = pattern_upper_bound(i, j, prob.nu, 12, weights)[0]
        assert solve_interface(prob, budget=1).value <= bound, (i, j, pq, weights)
        feasible += 1
    assert feasible == 992


def test_pattern_diagonal_is_optimal():
    # the glued family is exactly optimal in the diagonal directions
    for T in (12, 16):
        prob = InterfaceProblem(1, 0, Direction(1, 1), T)
        pv, _ = pattern_upper_bound(1, 0, Direction(1, 1), T)
        assert pv == solve_interface(prob).value


def test_meshing_pattern_value():
    # the flush seam between phases 1 and 7 along (1,-1) prices at 2 per
    # unit asymptotically: at T=16 the seam is exactly the glued family
    pv, cfg = pattern_upper_bound(1, 7, Direction(1, -1), 16)
    assert pv == 30  # phi-hat 15/8, approaching 2, far below subadditive 4
    prob = InterfaceProblem(1, 7, Direction(1, -1), 16)
    assert solve_interface(prob).value == pv


def test_wetting_pattern():
    nu = Direction(-1, 1)
    plain = glued_family_config(InterfaceProblem(1, 0, nu, 16))
    for weights, wins in [((1, 1), False), ((4, 1), True), ((8, 1), True)]:
        prob = InterfaceProblem(1, 0, nu, 16, weights)
        wet = wetting_config(prob)
        pv = ref_energy(plain, prob)
        wv = ref_energy(wet, prob)
        assert admissible(wet, prob)
        assert (wv < pv) == wins
        best, cfg = pattern_upper_bound(1, 0, nu, 16, weights)
        assert best == min(pv, wv)
        # the mirror problem (0, 1, (1, -1)) is the same interface
        assert pattern_upper_bound(0, 1, -nu, 16, weights)[0] == best
    # the bench's wetting row and its mirror, and the mirrored S case
    for T in (12, 16):
        for (i, j, mnu), weights in [((1, 0, nu), (1, F(1, 4))), ((5, 0, Direction(1, 1)), (1, 4))]:
            original = pattern_upper_bound(i, j, mnu, T, weights)[0]
            assert pattern_upper_bound(j, i, -mnu, T, weights)[0] == original, (i, j, T)
    # at weights (4,1) the wetting construction is exactly optimal at T=16
    prob = InterfaceProblem(1, 0, nu, 16, (4, 1))
    assert ref_energy(wetting_config(prob), prob) == solve_interface(prob).value
    # mirrored variant: S phases against the other diagonal, weights swapped
    probm = InterfaceProblem(5, 0, Direction(1, 1), 16, (1, 4))
    assert ref_energy(wetting_config(probm), probm) == ref_energy(
        wetting_config(prob), prob
    )


def test_wetting_bound_rises_by_one_period_beyond_t_40():
    # the wetting fill of (1, 0, (-1, 1)), one mirror-species row in the
    # boundary family, is the library's bound from T = 16 to 44, past the
    # T <= 40 of the differential tests, and it rises by exactly one seam
    # period's energy every Delta T = 4: 11/2 at weights (1, 1/4) and 22
    # at (4, 1)
    nu = Direction(-1, 1)
    for weights, first, step in [((1, F(1, 4)), F(105, 4), F(11, 2)), ((4, 1), 105, 22)]:
        for k, T in enumerate(range(16, 45, 4)):
            value, cfg = pattern_upper_bound(1, 0, nu, T, weights)
            assert value == first + k * step, (weights, T)
            assert cfg == wetting_config(InterfaceProblem(1, 0, nu, T, weights)), (weights, T)


def test_cluster_values():
    assert cluster_min_perimeter(1, 0)[0] == 10
    assert cluster_min_perimeter(0, 1)[0] == 10
    v20, cfg20 = cluster_min_perimeter(2, 0)
    assert v20 == perimeter(cfg20)
    v11, _ = cluster_min_perimeter(1, 1)
    v21, _ = cluster_min_perimeter(2, 1)
    assert v20 == cluster_oracle(2, 0)
    assert v11 == cluster_oracle(1, 1)
    assert v21 == cluster_oracle(2, 1)
    with pytest.raises(ClusterCapExceeded):
        cluster_min_perimeter(5, 5)
    with pytest.raises(ValueError):
        cluster_min_perimeter(0, 0)


def cluster_oracle(r: int, s: int):
    """Brute force over anchor boxes, independent of the growth search.

    Tries every distinct placement order of the species multiset, with
    each molecule required to touch the part already placed (the optimum
    is edge-connected, and any connected cluster admits such an order).
    """
    from conftest import perimeter_oracle

    box = 4 * (r + s)
    best = None
    positions = [(x, y) for x in range(-box, box + 1) for y in range(-box, box + 1)]

    def rec(mols, occupied, remaining):
        nonlocal best
        if not remaining:
            cfg = validate(mols)
            val = perimeter_oracle(cfg)
            if best is None or val < best:
                best = val
            return
        shape = R if remaining[0] == "R" else S
        for pos in positions:
            mol = Molecule(shape, pos)
            cells = mol.cells()
            if any(c in occupied for c in cells):
                continue
            # prune separated placements: the optimum is edge-connected
            if not any(
                (c[0] + dx, c[1] + dy) in occupied
                for c in cells
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
            ):
                continue
            rec(mols + [mol], occupied | set(cells), remaining[1:])

    for order in sorted(set(itertools.permutations(["R"] * r + ["S"] * s))):
        seed = Molecule(R if order[0] == "R" else S, (0, 0))
        rec([seed], set(seed.cells()), list(order[1:]))
    return best


def test_solver_weighted_matches_oracle():
    # chirality-weighted energies at T=12 against the subset oracle,
    # including a wetting-regime weight pair
    for weights in ((2, 1), (4, 1), (1, 3)):
        prob = InterfaceProblem(1, 0, Direction(-1, 1), 12, weights)
        res = solve_interface(prob)
        assert res.certificate == "exact"
        assert res.value == exhaustive_oracle(prob), weights


def test_solver_weight_one_reduces_to_perimeter():
    prob_w = InterfaceProblem(1, 7, Direction(1, -1), 12, (1, 1))
    prob_p = InterfaceProblem(1, 7, Direction(1, -1), 12)
    assert solve_interface(prob_w).value == solve_interface(prob_p).value


def test_solver_fractional_weights_odd_t_matches_oracle():
    # odd T clips frame edges to half lengths, so forced energies are
    # fractional and the solver's integer scale exceeds the weight
    # denominators
    weights = (F(2, 3), F(1, 4))
    vol = InterfaceProblem(1, 0, Direction(1, 1), 13, weights, "volume")
    assert ref_energy(validate(_set_up(vol)[1]), vol) == F(411, 4)
    for kind in ("surface", "volume"):
        for i, j, pq in [(1, 0, (1, 1)), (1, 0, (0, 1)), (1, 2, (1, 1)), (1, 0, (-1, 1))]:
            prob = InterfaceProblem(i, j, direction(*pq), 13, weights, kind)
            res = solve_interface(prob)
            assert res.certificate == "exact"
            assert res.value == exhaustive_oracle(prob), (kind, i, j, pq)
            assert res.value == ref_energy(res.config, prob)
