"""The benchmark's four workloads: inputs, timed bodies and output checks.

Each workload has three parts:

- ``build(seed)`` makes the inputs before timing starts;
- ``run(inputs, tracer)`` is the timed body, one closed-loop pass over the
  cases, with each call into the library inside a span named after its
  layer;
- ``check(inputs, raw)`` runs after timing stops.  It turns the raw
  results into ``Outcome`` records: a canonical ``result`` string that is
  compared with the golden value, an ``effort`` string (node and covering
  counts) that only enters the determinism digest, and the identity checks
  that failed.

Only ``continuum`` depends on the seed.  The other workloads certify fixed
problems, so every seed gives them the same inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from chiralattice import cli
from chiralattice.altpairs import FLAT_PAIR, SKEW_PAIR
from chiralattice.coverings import enumerate_coverings, lemma_check
from chiralattice.decomposition import ScaledConfiguration, decompose
from chiralattice.densities import DensityModel, consistency_check
from chiralattice.gauges import min_envelope, phi_closed_form, wulff_shape
from chiralattice.interfaces import (
    InterfaceProblem,
    cluster_min_perimeter,
    density_record,
    direction,
    pattern_upper_bound,
    solve_interface,
)
from chiralattice.limits import (
    PolygonalPartition,
    anchored_admissible,
    extract_interfaces,
    limit_energy,
    rs_lower_bound,
    spin_lower_bound,
)
from chiralattice.molecules import (
    Molecule,
    R,
    S,
    Window,
    perimeter,
    phase_pattern,
    validate,
    volume_deficit,
    weighted_perimeter,
)
from chiralattice.polygeom import polygon_area, predicate_area
from chiralattice.rectregions import rect, symdiff_area

# Today's default, passed explicitly so that CHIRALATTICE_NODE_BUDGET in the
# caller's environment cannot turn an exact certificate into an upper bound.
BUDGET = 5_000_000
DEFAULT_SEED = 20260808  # acceptance criterion 1


@dataclass
class Outcome:
    case: str
    result: str = ""
    effort: str = ""
    failures: list[str] = field(default_factory=list)
    # "required": must match a recorded golden value; "optional": compared
    # when one is recorded; "none": seed-dependent, checked by an oracle
    golden: str = "required"

    def expect(self, ok: bool, why: str) -> None:
        if not ok:
            self.failures.append(why)


@dataclass
class Crash:
    error: str


def _attempt(raw: list, case: str, fn) -> None:
    """Run one case; a case that raises is recorded as failed, not fatal."""
    try:
        raw.append((case, fn()))
    except Exception:
        text = traceback.format_exc()
        sys.stderr.write(f"case {case} raised:\n{text}")
        raw.append((case, Crash(text.strip().splitlines()[-1])))


def _crashed(case: str, crash: Crash) -> Outcome:
    return Outcome(case, result=f"raised {crash.error}", failures=[crash.error])


def _points(poly) -> str:
    return ";".join(f"{x},{y}" for x, y in poly)


# -------------------------------------------------------------------
# Interface solves: table and frontier
# -------------------------------------------------------------------

TABLE_DIRECTIONS = (
    (1, 0, (1, 1)), (1, 0, (0, 1)), (1, 0, (1, 0)), (1, 0, (3, -1)),
    (1, 5, (1, 1)), (1, 7, (1, -1)), (1, 2, (1, 1)), (5, 6, (0, 1)),
)


def _mirror(prob: InterfaceProblem) -> InterfaceProblem:
    return InterfaceProblem(
        prob.j, prob.i, -prob.nu, prob.T, prob.weights, prob.energy_kind
    )


def _kind(prob: InterfaceProblem) -> str:
    if prob.energy_kind == "volume":
        return "volume"
    return "surface" if prob.weights == (1, 1) else "weighted"


def _row_id(prob: InterfaceProblem) -> str:
    c_r, c_s = prob.weights
    return (
        f"{prob.i},{prob.j},({prob.nu.p},{prob.nu.q}) T={prob.T} "
        f"{prob.energy_kind} c={c_r},{c_s}"
    )


def _solve(tr, prob: InterfaceProblem):
    with tr.span("interfaces.solve", T=prob.T, kind=_kind(prob)) as sp:
        res = solve_interface(prob, budget=BUDGET)
        sp["nodes"] = res.nodes_explored
        sp["uncertified"] = int(res.certificate != "exact")
    return res


def _solve_outcome(case: str, res) -> Outcome:
    out = Outcome(
        case,
        result=f"value={res.value} certificate={res.certificate}",
        effort=f"nodes={res.nodes_explored}",
    )
    out.expect(res.certificate == "exact", "certificate is not exact")
    return out


def build_table(seed: int) -> list[InterfaceProblem]:
    rows = []
    for T in (8, 12, 16):
        for i, j, nu in TABLE_DIRECTIONS:
            prob = InterfaceProblem(i, j, direction(*nu), T)
            rows += [prob, _mirror(prob)]
    # the wetting row and the volume row have no mirror in the table
    rows.append(InterfaceProblem(1, 0, direction(-1, 1), 16, (1, Fraction(1, 4))))
    rows.append(InterfaceProblem(1, 0, direction(1, 1), 16, energy_kind="volume"))
    return rows


def run_table(rows: list[InterfaceProblem], tr) -> list:
    raw: list = []
    records = []

    def row(prob):
        with tr.span("interfaces.probe", T=prob.T):
            probe = solve_interface(prob, budget=1)
        res = _solve(tr, prob)
        with tr.span("interfaces.pattern"):
            bound, cfg = pattern_upper_bound(
                prob.i, prob.j, prob.nu, prob.T, prob.weights
            )
        records.append(density_record(prob, res))
        return probe, res, bound, cfg

    def consistency():
        with tr.span("densities.consistency", rows=len(records)):
            return consistency_check(DensityModel.with_patterns(), records)

    for prob in rows:
        _attempt(raw, _row_id(prob), lambda prob=prob: row(prob))
    _attempt(raw, "consistency", consistency)
    return raw


def check_table(rows: list[InterfaceProblem], raw: list) -> list[Outcome]:
    outcomes = []
    values = {}
    for prob, (case, got) in zip(rows, raw):
        if isinstance(got, Crash):
            outcomes.append(_crashed(case, got))
            continue
        probe, res, bound, cfg = got
        if prob.energy_kind == "volume":
            # the library builds surface patterns; price the same
            # admissible configuration with the volume energy instead
            bound = volume_deficit(cfg, Window.square(prob.T))
        out = _solve_outcome(case, res)
        out.result += f" pattern={bound}"
        out.effort += f" probe={probe.value}"
        out.expect(res.value <= bound, f"value above pattern bound {bound}")
        out.expect(probe.value >= res.value, "budget-1 incumbent below the optimum")
        mirror = values.get(_mirror(prob))
        if mirror is not None:
            out.expect(mirror == res.value, f"mirror row has value {mirror}")
        values[prob] = res.value
        outcomes.append(out)
    case, rep = raw[-1]
    if isinstance(rep, Crash):
        return outcomes + [_crashed(case, rep)]
    out = Outcome(
        case,
        result=(
            f"ok={rep.ok} symmetry={rep.checked_symmetry} "
            f"sandwich={rep.checked_sandwich} triangle={rep.checked_triangle} "
            f"lipschitz={rep.checked_lipschitz}"
        ),
    )
    out.expect(rep.ok, "; ".join(rep.violations))
    return outcomes + [out]


def build_frontier(seed: int) -> list[InterfaceProblem]:
    return [InterfaceProblem(1, 0, direction(1, 1), 20)]


def run_frontier(rows: list[InterfaceProblem], tr) -> list:
    raw: list = []
    for prob in rows:
        _attempt(raw, _row_id(prob), lambda prob=prob: _solve(tr, prob))
    return raw


def check_frontier(rows: list[InterfaceProblem], raw: list) -> list[Outcome]:
    return [
        _crashed(case, got) if isinstance(got, Crash) else _solve_outcome(case, got)
        for case, got in raw
    ]


# -------------------------------------------------------------------
# Exhaustive searches: coverings and clusters
# -------------------------------------------------------------------

LEMMA_KS = range(4, 12)
FALSIFY = [(pair, k) for pair in (FLAT_PAIR, SKEW_PAIR) for k in (4, 5, 6)]
CLUSTERS = ((2, 2), (3, 1), (3, 2))


def build_search(seed: int) -> None:
    return None


def _lemma(tr, layer: str, k: int, shapes):
    with tr.span(layer, k=k) as sp:
        rep = lemma_check(k, list(shapes))
        sp["nodes"] = rep.search_space.nodes
        sp["coverings"] = rep.search_space.coverings
    return rep


def _enumerate(tr, k: int) -> int:
    with tr.span("coverings.enumerate", k=k) as sp:
        count = sum(1 for _ in enumerate_coverings(k, [R, S]))
        sp["count"] = count
    return count


def _cluster(tr, r: int, s: int):
    with tr.span("interfaces.cluster", size=(r, s)):
        return cluster_min_perimeter(r, s)


def run_search(_inputs, tr) -> list:
    raw: list = []
    for k in LEMMA_KS:
        _attempt(raw, f"lemma k={k} R,S", lambda k=k: _lemma(tr, "coverings.lemma", k, (R, S)))
    for pair, k in FALSIFY:
        case = f"falsify k={k} {pair[0].name},{pair[1].name}"
        _attempt(raw, case, lambda k=k, pair=pair: _lemma(tr, "coverings.falsify", k, pair))
    _attempt(raw, "enumerate k=4 R,S", lambda: _enumerate(tr, 4))
    for r, s in CLUSTERS:
        _attempt(raw, f"cluster r={r} s={s}", lambda r=r, s=s: _cluster(tr, r, s))
    return raw


def _check_lemma(case: str, rep) -> Outcome:
    out = Outcome(
        case,
        result=(
            f"holds={rep.holds} complete={rep.complete}"
            + (f" coverings={rep.search_space.coverings}" if rep.holds else "")
        ),
        effort=f"nodes={rep.search_space.nodes} coverings={rep.search_space.coverings}",
    )
    if rep.holds is False:
        # a falsification witness is only a verdict if it checks out
        k = rep.k
        witness = validate(list(rep.witness.molecules))
        inner = Window.square(2 * k - 4)
        kinds = {
            m.shape.name
            for m in witness.molecules
            if any(inner.contains_cell(c) for c in m.cells())
        }
        out.expect(perimeter(witness, Window.square(2 * k)) == 0,
                   "witness does not cover the square")
        out.expect(kinds == set(rep.shapes), f"witness meets the inner square with {kinds}")
    return out


def _check_cluster(case: str, got) -> Outcome:
    value, cfg = got
    r, s = (int(part.split("=")[1]) for part in case.split()[1:])
    out = Outcome(case, result=f"value={value}")
    names = [m.shape.name for m in cfg.molecules]
    out.expect(perimeter(cfg) == value, "cluster perimeter differs from its value")
    out.expect((names.count("R"), names.count("S")) == (r, s), "wrong cluster composition")
    return out


def check_search(_inputs, raw: list) -> list[Outcome]:
    outcomes = []
    for case, got in raw:
        kind = case.split()[0]
        if isinstance(got, Crash):
            outcomes.append(_crashed(case, got))
        elif kind in ("lemma", "falsify"):
            outcomes.append(_check_lemma(case, got))
        elif kind == "enumerate":
            outcomes.append(Outcome(case, result=f"count={got}"))
        else:
            outcomes.append(_check_cluster(case, got))
    return outcomes


# -------------------------------------------------------------------
# Exact geometry: energies, decomposition, limits, gauges, CLI
# -------------------------------------------------------------------

N_CONFIGS = 200
MAX_MOLECULES = 50
OFF_GRID = Window.square(21, (Fraction(1, 2), 0))
WEIGHTS = (1, Fraction(1, 4))
SEAM_EPSILONS = (Fraction(1, 16), Fraction(1, 32), Fraction(1, 64))
SEAM_TARGET = {1: [rect(-2, -2, 0, 2)], 2: [rect(0, -2, 2, 2)]}
GRID = 12  # the partition is a GRID x GRID square of triangulated cells
PARTITION_SEED = 9  # the partition is fixed; only the configurations follow --seed
PARTITION_FILE = "bench/out/partition.json"  # relative: it enters the CLI manifest


@dataclass
class ContinuumInputs:
    seed: int
    configs: list[list[Molecule]]
    seams: list[ScaledConfiguration]
    triangles: dict[int, list[tuple]]
    partition: PolygonalPartition
    exterior: PolygonalPartition
    omega_inside: list[tuple]  # the exterior differs from the partition only here
    omega_short: list[tuple]   # misses part of that difference
    cli_runs: list[list[str]]


def random_molecules(rng: random.Random) -> list[Molecule]:
    """Seeded random non-overlapping molecules, as in the test fixtures."""
    n_target = rng.randint(0, MAX_MOLECULES)
    mols: list[Molecule] = []
    occupied: set = set()
    attempts = 0
    while len(mols) < n_target and attempts < 20 * MAX_MOLECULES:
        attempts += 1
        shape = R if rng.random() < 0.5 else S
        mol = Molecule(shape, (rng.randint(-20, 20), rng.randint(-20, 20)))
        cells = mol.cells()
        if any(c in occupied for c in cells):
            continue
        occupied.update(cells)
        mols.append(mol)
    return mols


def perimeter_oracle(molecules: list[Molecule]) -> int:
    """4 * cells - 2 * adjacent pairs, independent of the library."""
    cells = {c for m in molecules for c in m.cells()}
    adjacent = sum(((a + 1, b) in cells) + ((a, b + 1) in cells) for a, b in cells)
    return 4 * len(cells) - 2 * adjacent


def seam(eps: Fraction) -> ScaledConfiguration:
    """Phase 1 left of x = 0 meeting phase 2 right of it (criterion 10)."""
    wlat = Window.square(Fraction(4) / eps + 16)
    left = [m for m in phase_pattern(1, wlat) if all(c[0] + 1 <= 0 for c in m.cells())]
    right = [m for m in phase_pattern(2, wlat) if all(c[0] >= 1 for c in m.cells())]
    return ScaledConfiguration(eps, validate(left + right))


def triangulated_partition(relabel_inside=None) -> dict[int, list[tuple]]:
    """Nine-phase labels on the two triangles of every unit cell.

    Each cell is cut along its rising diagonal.  Lower-right triangles carry
    R phases (1..4) or 0 and upper-left triangles S phases (5..8) or 0;
    triangles of one kind share no edge, so the R and S islands are valid
    inputs for the R/S lower bound.  ``relabel_inside`` is a square (lo, hi):
    R triangles in it get the next R phase, which gives an exterior
    partition that differs from this one only inside that square.
    """
    rng = random.Random(PARTITION_SEED)
    regions: dict[int, list[tuple]] = {lab: [] for lab in range(9)}
    for x in range(GRID):
        for y in range(GRID):
            block = x // 4 + y // 4
            r_lab = rng.choice((0, 1, 2, 3, 4)) if rng.random() < 0.5 else (1, 2, 3, 4, 0)[block % 5]
            s_lab = rng.choice((0, 5, 6, 7, 8)) if rng.random() < 0.5 else (5, 6, 7, 8, 0)[(block + 1) % 5]
            if relabel_inside and r_lab and all(relabel_inside[0] <= v < relabel_inside[1] for v in (x, y)):
                r_lab = r_lab % 4 + 1
            regions[r_lab].append(((x, y), (x + 1, y), (x + 1, y + 1)))
            regions[s_lab].append(((x, y), (x + 1, y + 1), (x, y + 1)))
    return {lab: tris for lab, tris in regions.items() if tris}


def _square(lo: int, hi: int) -> list[tuple]:
    return [(lo, lo), (hi, lo), (hi, hi), (lo, hi)]


def build_continuum(seed: int) -> ContinuumInputs:
    rng = random.Random(seed)
    triangles = triangulated_partition()
    window = _square(0, GRID)
    partition = PolygonalPartition(regions=triangles, window=window)
    exterior = PolygonalPartition(
        regions=triangulated_partition(relabel_inside=(2, GRID - 2)), window=window
    )
    path = Path(PARTITION_FILE)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "window": [[str(x), str(y)] for x, y in window],
        "regions": {
            str(lab): [[[str(x), str(y)] for x, y in tri] for tri in tris]
            for lab, tris in triangles.items()
        },
    }, sort_keys=True))
    return ContinuumInputs(
        seed=seed,
        configs=[random_molecules(rng) for _ in range(N_CONFIGS)],
        seams=[seam(eps) for eps in SEAM_EPSILONS],
        triangles=triangles,
        partition=partition,
        exterior=exterior,
        omega_inside=_square(2, GRID - 2),
        omega_short=_square(3, GRID - 2),
        cli_runs=[["wulff", "all"], ["limit", PARTITION_FILE]],
    )


def _energies(tr, mols: list[Molecule]):
    with tr.span("molecules.validate"):
        cfg = validate(mols)
    with tr.span("molecules.perimeter", cells=len(cfg.occupancy)):
        plane = perimeter(cfg)
    with tr.span("molecules.perimeter_window"):
        window = perimeter(cfg, OFF_GRID)
    with tr.span("molecules.weighted"):
        weighted = weighted_perimeter(cfg, *WEIGHTS, OFF_GRID)
    with tr.span("molecules.volume"):
        volume = volume_deficit(cfg, OFF_GRID)
    return plane, window, weighted, volume


def _decompose(tr, sc: ScaledConfiguration):
    with tr.span("decomposition.decompose", molecules=len(sc.config)) as sp:
        approx = decompose(sc, Window.square(4))
        sp["blocks"] = approx.bad_count + sum(len(r) for r in approx.regions.values())
    areas = []
    for lab in range(9):
        with tr.span("rectregions.symdiff"):
            areas.append(symdiff_area(approx.regions.get(lab, []), SEAM_TARGET.get(lab, [])))
    return approx, areas


def _run_cli(tr, argv: list[str]):
    buf = io.StringIO()
    with tr.span("cli.main"), contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


def run_continuum(inp: ContinuumInputs, tr) -> list:
    raw: list = []
    for n, mols in enumerate(inp.configs):
        _attempt(raw, f"config {n}", lambda mols=mols: _energies(tr, mols))
    for sc in inp.seams:
        _attempt(raw, f"decompose eps={sc.epsilon}", lambda sc=sc: _decompose(tr, sc))

    model = DensityModel.with_patterns()
    islands = [t for lab, tris in inp.triangles.items() if lab for t in tris]
    e_r = [t for lab, tris in inp.triangles.items() if 1 <= lab <= 4 for t in tris]
    e_s = [t for lab, tris in inp.triangles.items() if lab >= 5 for t in tris]

    def extract():
        with tr.span("limits.extract") as sp:
            segments = extract_interfaces(inp.partition)
            sp["segments"] = len(segments)
        return segments

    def timed(layer, fn, *args):
        with tr.span(layer):
            return fn(*args)

    _attempt(raw, "limits extract", extract)
    _attempt(raw, "limits energy", lambda: timed("limits.price", limit_energy, inp.partition, model))
    _attempt(raw, "limits spin", lambda: timed("limits.spin", spin_lower_bound, islands, model))
    _attempt(raw, "limits rs", lambda: timed("limits.rs", rs_lower_bound, e_r, e_s, model))
    for name, omega in (("inside", inp.omega_inside), ("short", inp.omega_short)):
        _attempt(raw, f"limits anchored omega={name}", lambda omega=omega: timed(
            "limits.anchored", anchored_admissible, inp.partition, inp.exterior, omega))
    for lab, tris in inp.triangles.items():
        _attempt(raw, f"predicate_area label={lab}", lambda tris=tris: timed(
            "polygeom.predicate_area", predicate_area, [tris], lambda inside: inside[0]))
    for i in range(1, 9):
        _attempt(raw, f"wulff phase={i}", lambda i=i: timed("gauges.wulff", wulff_shape, phi_closed_form(i)))
    _attempt(raw, "min_envelope 1,5", lambda: timed(
        "gauges.envelope", min_envelope, [phi_closed_form(1), phi_closed_form(5)])[1])
    for argv in inp.cli_runs:
        _attempt(raw, "cli " + " ".join(argv), lambda argv=argv: _run_cli(tr, argv))
    return raw


def check_continuum(inp: ContinuumInputs, raw: list) -> list[Outcome]:
    outcomes = []
    totals = [Fraction(0)] * 4
    for case, got in raw:
        if isinstance(got, Crash):
            outcomes.append(_crashed(case, got))
            continue
        kind, _, arg = case.partition(" ")
        if kind == "config":
            # seed-dependent inputs: no golden per configuration, an oracle instead
            n = int(arg)
            totals = [t + v for t, v in zip(totals, got)]
            out = Outcome(case, result=" ".join(map(str, got)), golden="none")
            out.expect(got[0] == perimeter_oracle(inp.configs[n]),
                       "plane perimeter differs from 4*cells - 2*adjacent pairs")
        elif kind == "decompose":
            approx, areas = got
            rects = ",".join(str(len(approx.regions.get(lab, []))) for lab in range(9))
            out = Outcome(
                case,
                result=f"symdiff={','.join(map(str, areas))} bad={approx.bad_count} rects={rects}",
            )
        elif case == "limits extract":
            out = Outcome(case, result=f"segments={len(got)}")
        elif kind == "predicate_area":
            out = Outcome(case, result=f"area={got}")
            lab = int(arg.split("=")[1])
            out.expect(got == sum(polygon_area(t) for t in inp.triangles[lab]),
                       "area differs from the sum of its triangles")
        elif kind in ("wulff", "min_envelope"):
            vertices = got if kind == "wulff" else got.vertices
            out = Outcome(case, result=_points(vertices))
        elif kind == "cli":
            code, digest = got
            out = Outcome(case, result=f"exit={code} stdout_sha256={digest}")
            out.expect(code == 0, f"exit code {code}")
        else:
            out = Outcome(case, result=str(got))
        outcomes.append(out)
    outcomes.append(Outcome(
        f"molecules totals seed={inp.seed} n={len(inp.configs)}",
        result=" ".join(map(str, totals)),
        golden="optional",
    ))
    return outcomes


@dataclass(frozen=True)
class Workload:
    build: Callable  # (seed) -> inputs
    run: Callable    # (inputs, tracer) -> raw results; the timed body
    check: Callable  # (inputs, raw results) -> list[Outcome]


WORKLOADS = {
    "table": Workload(build_table, run_table, check_table),
    "frontier": Workload(build_frontier, run_frontier, check_frontier),
    "search": Workload(build_search, run_search, check_search),
    "continuum": Workload(build_continuum, run_continuum, check_continuum),
}
