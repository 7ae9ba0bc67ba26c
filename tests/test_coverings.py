"""Covering enumeration and the single-phase interior property."""

import dataclasses
import itertools
import random

import pytest

from chiralattice import coverings
from chiralattice.altpairs import FLAT_PAIR, SKEW_PAIR
from chiralattice.coverings import (
    CapExceeded,
    MixedPhases,
    NotCovered,
    enumerate_coverings,
    lemma_check,
    verify_interior_phase,
)
from chiralattice.molecules import (
    InvalidInput,
    Molecule,
    R,
    S,
    UnlabeledShape,
    Window,
    perimeter,
    phase_label,
    phase_pattern,
    validate,
)


def oracle_coverings(k, shapes):
    """Independent recursive enumerator over frozen cell sets."""
    targets = [(c, r) for c in range(-k, k) for r in range(-k, k)]
    placements = {}
    for cell in targets:
        opts = []
        for shape in shapes:
            for off in shape.cells:
                anchor = (cell[0] - off[0], cell[1] - off[1])
                body = frozenset(
                    (anchor[0] + c, anchor[1] + r) for c, r in shape.cells
                )
                opts.append((shape.name, anchor, body))
        placements[cell] = opts

    found = []

    def rec(occupied: frozenset, chosen: tuple):
        missing = [t for t in targets if t not in occupied]
        if not missing:
            found.append(frozenset((n, a) for n, a, _ in chosen))
            return
        cell = min(missing)
        for name, anchor, body in placements[cell]:
            if cell in body and not (body & occupied):
                rec(occupied | body, chosen + ((name, anchor, body),))

    rec(frozenset(), ())
    return found


def test_enumeration_matches_oracle_k2_r_only():
    ours = [
        frozenset((m.shape.name, m.anchor) for m in cfg)
        for cfg in enumerate_coverings(2, [R])
    ]
    oracle = oracle_coverings(2, [R])
    assert len(ours) == len(oracle)
    assert set(ours) == set(oracle)


def test_enumeration_matches_oracle_k2_both():
    ours = [
        frozenset((m.shape.name, m.anchor) for m in cfg)
        for cfg in enumerate_coverings(2, [R, S])
    ]
    oracle = oracle_coverings(2, [R, S])
    assert len(ours) == len(oracle) == 86
    assert set(ours) == set(oracle)
    assert len(set(ours)) == len(ours)  # duplicate-free


def test_striped_patterns_among_coverings():
    coverings = {
        frozenset((m.shape.name, m.anchor) for m in cfg)
        for cfg in enumerate_coverings(2, [R])
    }
    for i in range(1, 5):
        pat = phase_pattern(i, Window.square(4))
        key = frozenset((m.shape.name, m.anchor) for m in pat)
        assert key in coverings
    # R-only coverings of a square are exactly the four striped phases
    assert len(coverings) == 4


def test_empty_shape_set_gives_empty_stream():
    assert list(enumerate_coverings(2, [])) == []


def test_two_shapes_with_one_name_rejected():
    # a configuration names its molecules' shapes, so two distinct shapes
    # named "R" would make it ambiguous; both searches refuse them
    impostor = dataclasses.replace(S, name="R")
    with pytest.raises(InvalidInput, match="two distinct shapes are named 'R'"):
        next(enumerate_coverings(2, [R, impostor]))
    with pytest.raises(InvalidInput, match="two distinct shapes are named 'R'"):
        lemma_check(2, [R, impostor])


def test_cap_exceeded():
    gen = enumerate_coverings(2, [R, S], cap=3)
    got = []
    with pytest.raises(CapExceeded):
        for cfg in gen:
            got.append(cfg)
    assert len(got) == 3


@pytest.mark.parametrize("cap", [0, -1])
def test_non_positive_cap_rejected(cap):
    with pytest.raises(InvalidInput, match="cap must be at least 1"):
        next(enumerate_coverings(2, [R, S], cap=cap))


def test_verify_interior_phase_on_pattern():
    cfg = phase_pattern(3, Window.square(30))
    assert verify_interior_phase(cfg, (0, 0), 4) == 3
    assert verify_interior_phase(cfg, (4, -2), 5) == 3


def test_verify_interior_phase_not_covered():
    cfg = phase_pattern(1, Window.square(6))
    with pytest.raises(NotCovered):
        verify_interior_phase(cfg, (0, 0), 6)
    # a two-phase seam cannot be completed to a covering (that is the
    # content of the single-phase property); gluing the half patterns
    # leaves the seam uncovered
    left = [m for m in phase_pattern(1, Window.square(20)) if all(c[0] < 0 for c in m.cells())]
    right = [m for m in phase_pattern(5, Window.square(20)) if all(c[0] >= 1 for c in m.cells())]
    seam = validate(left + right)
    with pytest.raises(NotCovered):
        verify_interior_phase(seam, (0, 0), 4)


def test_verify_interior_phase_unlabeled():
    mols = []
    occupied = set()
    for c in range(-8, 8):
        for r in range(-8, 8):
            if (c, r) in occupied:
                continue
            m = Molecule(FLAT_PAIR[0], (c, r))
            if any(cc in occupied for cc in m.cells()):
                continue
            occupied.update(m.cells())
            mols.append(m)
    cfg = validate(mols)
    with pytest.raises((UnlabeledShape, NotCovered)):
        verify_interior_phase(cfg, (0, 0), 3)


def ref_verify_interior_phase(config, center, k):
    """The scan that `verify_interior_phase` replaced: after the same cover
    check, every molecule of the configuration is tested against the inner
    window, in the configuration's order."""
    if k < 3:
        raise InvalidInput("k must be at least 3 so the inner square is nonempty")
    cx, cy = center
    occ = config.occupancy
    for c in range(cx - k, cx + k):
        for r in range(cy - k, cy + k):
            if (c, r) not in occ:
                raise NotCovered(f"cell {(c, r)} of Q_{2 * k}({center}) is empty")
    inner = Window.square(2 * k - 4, center)
    found = {}
    for m in config.molecules:
        if not any(inner.contains_cell(c) for c in m.cells()):
            continue
        lab = coverings.phase_label(m)
        if lab not in found:
            found[lab] = m
            if len(found) > 1:
                a, b = list(found.values())[:2]
                return MixedPhases(a, b)
    if not found:
        raise NotCovered("no labeled molecule meets the inner square")
    return next(iter(found))


def _same_verdict(config, centers, ks):
    """Both scans give the same label, MixedPhases pair or error; returns
    the verdicts' kinds."""
    kinds = set()
    for center in centers:
        for k in ks:
            outs = []
            for verify in (verify_interior_phase, ref_verify_interior_phase):
                try:
                    outs.append(verify(config, center, k))
                except (NotCovered, UnlabeledShape) as exc:
                    outs.append((type(exc), str(exc)))
            assert outs[0] == outs[1], (center, k)
            kinds.add(outs[0][0] if isinstance(outs[0], tuple) else type(outs[0]))
    return kinds


def test_verify_interior_phase_reads_the_owners_like_the_full_scan(monkeypatch):
    rng = random.Random(11)
    near = [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)]
    # the lemma's k = 4 coverings, and k = 3 squares inside them
    for cfg in enumerate_coverings(4, [R, S]):
        assert _same_verdict(cfg, [(0, 0)], [4]) == {int}
        assert _same_verdict(cfg, near, [3]) == {int}
    # a two-phase seam, uncovered along x = 0, read across it
    half = Window.square(40)
    left = [m for m in phase_pattern(1, half) if all(c[0] < 0 for c in m.cells())]
    right = [m for m in phase_pattern(5, half) if all(c[0] >= 1 for c in m.cells())]
    seam = validate(left + right)
    centers = [(x, y) for x in range(-14, 15, 2) for y in (-3, 0, 5)]
    assert _same_verdict(seam, centers, [3, 4, 6]) == {int, NotCovered}
    # flat-pair fills of Q_6, alone and mixed with R and S molecules, in a
    # shuffled order: each scan names the first unlabeled molecule
    for shapes in (FLAT_PAIR, (*FLAT_PAIR, R, S)):
        for cfg in itertools.islice(enumerate_coverings(3, shapes), 0, 4000, 20):
            mols = list(cfg.molecules)
            rng.shuffle(mols)
            assert _same_verdict(validate(mols), [(0, 0)], [3]) == {UnlabeledShape}
    # a phase pattern over Q_64 with molecules far outside it, before and
    # after the pattern in the configuration's order
    far = [Molecule(R, (400 + 4 * t, 400)) for t in range(20)]
    pattern = list(phase_pattern(3, Window.square(64)))
    cfg = validate(far[:10] + pattern + far[10:])
    centers = [(x, y) for x in range(-24, 25, 6) for y in range(-24, 25, 8)]
    assert _same_verdict(cfg, centers, [3, 5, 8, 12]) == {int, NotCovered}
    # labels that split the pattern at x = 0 (a mixed seam the lemma rules
    # out for the real phases): the same MixedPhases pair, in a shuffled order
    monkeypatch.setattr(coverings, "phase_label", lambda m: 1 + (m.anchor[0] >= 0))
    rng.shuffle(pattern)
    cfg = validate(pattern)
    centers = [(x, y) for x in range(-10, 11, 2) for y in (-4, 0, 4)]
    assert _same_verdict(cfg, centers, [3, 4, 6]) == {int, MixedPhases}


def test_mixed_phases_detection_unit():
    # MixedPhases is defensive for built-ins: full coverings are single
    # phase by the verified property, so exercise the classifier on the
    # smallest k with a hand-built covering of Q_6 around an off-center
    # point where two stripes of different phases could in principle meet.
    cfg = phase_pattern(2, Window.square(30))
    out = verify_interior_phase(cfg, (1, 1), 3)
    assert out == 2 or isinstance(out, MixedPhases)


def test_lemma_check_builtins_k4():
    report = lemma_check(4, [R, S])
    assert report.holds is True
    assert report.complete
    assert report.witness is None
    assert report.search_space.coverings == 288


def test_lemma_check_names_a_repeated_shape_once():
    # a shape passed twice is one shape of the search, and of its report
    twice, once = lemma_check(4, [R, S, R]), lemma_check(4, [R, S])
    assert twice.shapes == once.shapes == ("R", "S")
    assert (twice.holds, twice.search_space) == (once.holds, once.search_space)


def test_lemma_check_r_only_k4():
    report = lemma_check(4, [R])
    assert report.holds is True
    assert report.search_space.coverings == 4


def test_lemma_soundness_every_covering_single_phase():
    for cfg in enumerate_coverings(4, [R, S]):
        out = verify_interior_phase(cfg, (0, 0), 4)
        assert isinstance(out, int) and 1 <= out <= 8


def test_lemma_margin2_recorded():
    # the measured record for the sharper margin, which no proof covers: it
    # fails at k = 3 and holds from k = 4, with 288 * 2**(k - 4) coverings
    failed = lemma_check(3, [R, S], inner_margin=2)
    assert failed.holds is False and failed.witness is not None
    for k in (4, 5):
        report = lemma_check(k, [R, S], inner_margin=2)
        assert report.holds is True
        assert report.search_space.coverings == 288 * 2 ** (k - 4)
        assert report.inner_margin == 2


def test_lemma_falsified_for_flat_pair():
    report = lemma_check(4, list(FLAT_PAIR))
    assert report.holds is False
    assert report.witness is not None
    w = report.witness
    # the witness is a genuine mixed zero-energy covering
    assert {m.shape.name for m in w} == {"FR", "FS"}
    assert perimeter(w, Window.square(8)) == 0
    inner = Window.square(4)
    kinds_inner = {
        m.shape.name
        for m in w
        if any(inner.contains_cell(c) for c in m.cells())
    }
    assert kinds_inner == {"FR", "FS"}


def test_lemma_falsified_for_skew_pair():
    report = lemma_check(4, list(SKEW_PAIR))
    assert report.holds is False
    assert perimeter(report.witness, Window.square(8)) == 0


def test_lemma_cap_inconclusive():
    report = lemma_check(4, [R, S], cap=1)
    assert report.holds is None
    assert not report.complete


def test_lemma_report_serializes():
    report = lemma_check(4, list(FLAT_PAIR))
    payload = report.to_jsonable()
    assert payload["holds"] is False
    assert payload["witness"]
    assert payload["search_space"]["coverings"] >= 1
