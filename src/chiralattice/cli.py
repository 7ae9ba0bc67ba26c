"""Command-line surface: energies, density tables, figures, and reports.

Subcommands
    energy      perimeter / weighted perimeter / volume deficit of a file
    density     normalized interface densities over a list of sizes (CSV)
    wulff       level sets and Wulff shapes (SVG + JSON)
    lemma       exhaustive single-phase check, with witness on failure
    decompose   scale decomposition into phase regions, convergence table
    limit       limiting partition energy with per-segment breakdown
    cluster     minimal-perimeter molecule clusters

Every output embeds a run manifest (command, parameters, tool version,
input digests, output paths); identical manifests yield byte-identical
outputs.  Exit codes: 0 success (including negative verdicts), 2 invalid
input, 3 cap exceeded / inconclusive.  The library reports every malformed
argument or input file as `InvalidInput` (a ValueError), and `main` is the
one place that maps errors to codes: InvalidInput and OSError give 2,
ClusterCapExceeded gives 3, and any other error is a bug and crashes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
from collections.abc import Callable, Sequence
from fractions import Fraction
from pathlib import Path

from . import __version__
from .coverings import lemma_check
from .decomposition import (
    ScaledConfiguration,
    bad_area_bound,
    convergence_report,
    decompose,
)
from .densities import DensityModel, consistency_check
from .gauges import phi_closed_form, min_envelope, wulff_shape
from .interfaces import (
    DEFAULT_BUDGET,
    ClusterCapExceeded,
    InterfaceProblem,
    cluster_min_perimeter,
    density_record,
    density_table,
    direction,
    read_density_table,
    solve_interface,
)
from .limits import PolygonalPartition, anchored_admissible, limit_energy
from .molecules import (
    BUILTIN_SHAPES,
    InvalidInput,
    Window,
    configuration_entries,
    configuration_from_json,
    configuration_to_jsonable,
    json_int,
    load_json,
    perimeter,
    shapes_from_json,
    volume_deficit,
    weighted_perimeter,
)
from .rectregions import regions_from_jsonable, rects_to_jsonable
from .svgout import (
    PHASE_PALETTE,
    configuration_svg,
    level_set_and_wulff_svg,
    partition_svg,
)


# -------------------------------------------------------------------
# Manifest and output helpers
# -------------------------------------------------------------------

def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def emit(command: str, params: dict, inputs: Sequence[str | None],
         render: Callable[[dict], str], out: str | None = None,
         files: Sequence[tuple[str, str]] = (),
         append: Callable[[dict], str] | None = None) -> None:
    """Write every file of a run, then its stdout.

    The manifest holds the command, the tool version, the parameters, the
    digests of the given `inputs` (None entries are options left unset),
    and as `outputs` exactly the paths written here: the (path, text)
    `files` and `out`.  `render(manifest)` is the stdout text; `out`
    receives the same text, or only `append(manifest)` when it is an
    existing non-empty file.  Two outputs with one absolute path are
    invalid input, reported before anything is written.  Stdout comes
    last, so a run whose file cannot be written prints nothing before it
    exits 2.
    """
    outputs = [path for path, _ in files] + ([out] if out else [])
    written: set[str] = set()
    for path in outputs:
        if os.path.abspath(path) in written:
            raise InvalidInput(f"output {path} would be written twice")
        written.add(os.path.abspath(path))
    manifest = {
        "command": command,
        "version": __version__,
        "parameters": {k: params[k] for k in sorted(params)},
        "inputs": {p: _digest(p) for p in sorted(filter(None, inputs))},
        "outputs": sorted(outputs),
    }
    text = render(manifest)
    for path, content in files:
        Path(path).write_text(content)
    if out:
        path = Path(out)
        if append is not None and path.exists() and path.stat().st_size > 0:
            with path.open("a") as fh:
                fh.write(append(manifest))
        else:
            path.write_text(text)
    sys.stdout.write(text)


def _json(payload: dict):
    """The renderer of `payload` with its manifest, as indented sorted JSON."""
    return lambda manifest: json.dumps(
        {**payload, "manifest": manifest}, sort_keys=True, indent=2
    ) + "\n"


def _read(path: str, decode=load_json):
    """decode(text) of a user-named file, naming the file in input errors."""
    try:
        return decode(Path(path).read_text())
    except (InvalidInput, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidInput(f"{path}: {exc}") from exc


def _numbers(spec: str, what: str, form: str, counts=(), number=Fraction) -> list:
    """The numbers of the comma list `spec`, written in the given form.

    `counts` holds the allowed list lengths (any when empty).
    """
    try:
        values = [number(v) for v in spec.split(",")]
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise InvalidInput(f"invalid {what} {spec!r} ({form}): {exc}") from exc
    if counts and len(values) not in counts:
        raise InvalidInput(f"{what} must be {form}")
    return values


def _parse_window(spec: str | None) -> Window:
    if spec is None:
        return Window.plane()
    values = _numbers(spec, "window", "SIDE or SIDE,CX,CY", (1, 3))
    return Window.square(values[0], values[1:] or (0, 0))


def _parse_weights(spec: str | None) -> tuple:
    return (1, 1) if spec is None else tuple(_numbers(spec, "weights", "C_R,C_S", (2,)))


def _load_shapes(path: str | None):
    return dict(BUILTIN_SHAPES) if path is None else _read(path, shapes_from_json)


# -------------------------------------------------------------------
# Subcommands
# -------------------------------------------------------------------

def cmd_energy(args) -> int:
    shapes = _load_shapes(args.shapes)
    config = _read(args.config, lambda text: configuration_from_json(text, shapes))
    window = _parse_window(args.window)
    c_R, c_S = _parse_weights(args.weights)
    payload = {
        "perimeter": str(perimeter(config, window)),
        "weighted_perimeter": str(weighted_perimeter(config, c_R, c_S, window)),
        "volume_deficit": None if window.is_plane else str(volume_deficit(config, window)),
        "molecules": len(config),
    }
    emit("energy", {"window": args.window, "weights": args.weights, "config": args.config},
         [args.config, args.shapes], _json(payload), args.out)
    return 0


def cmd_density(args) -> int:
    nu = direction(args.p, args.q)
    weights = _parse_weights(args.weights)
    problems = [
        InterfaceProblem(args.i, args.j, nu, T, weights, args.kind)
        for T in _numbers(args.T, "T", "a comma list of sizes", number=int)
    ]
    budget = DEFAULT_BUDGET if args.budget is None else args.budget
    records, witnesses = [], []
    for prob in problems:
        result = solve_interface(prob, budget)
        records.append(density_record(prob, result))
        if args.witness_dir:
            name = f"witness_{args.i}_{args.j}_{nu.p}_{nu.q}_T{prob.T}.svg"
            witnesses.append((
                str(Path(args.witness_dir) / name),
                configuration_svg(result.config, comment=f"T={prob.T}", palette=args.palette),
            ))
    if args.witness_dir:
        Path(args.witness_dir).mkdir(parents=True, exist_ok=True)
    params = {"i": args.i, "j": args.j, "p": nu.p, "q": nu.q, "T": args.T,
              "kind": args.kind, "weights": args.weights, "budget": budget}
    emit("density", params, [], lambda manifest: density_table(records, manifest),
         args.csv, witnesses,
         append=lambda manifest: density_table(records, manifest, header=False))
    if any(rec.certificate != "exact" for rec in records):
        sys.stderr.write("note: some certificates are upper_bound (budget)\n")
    report = consistency_check(DensityModel.with_patterns(), records)
    if not report.ok:
        sys.stderr.write("consistency violations:\n  " + "\n  ".join(report.violations) + "\n")
    return 0


def cmd_wulff(args) -> int:
    labels = (
        list(range(1, 9)) if args.phase == "all"
        else _numbers(args.phase, "phase", "1..8 or 'all'", (1,), int)
    )
    gauges = {i: phi_closed_form(i) for i in labels}
    payload: dict = {"phases": {}}
    # (where the entry goes, its key, gauge, SVG comment, SVG name suffix)
    many = len(labels) > 1
    figures = [
        (payload["phases"], str(i), gauges[i], f"phase {i}", f"_{i}" if many else "")
        for i in labels
    ]
    if args.phase == "all":
        _, envelope = min_envelope([gauges[1], gauges[5]])
        figures.append((payload, "spin_envelope", envelope, "spin envelope", "_envelope"))
    svgs = []
    for entries, key, gauge, comment, suffix in figures:
        wulff = wulff_shape(gauge)
        entries[key] = {
            "level_set": [[str(v[0]), str(v[1])] for v in gauge.vertices],
            "wulff": [[str(v[0]), str(v[1])] for v in wulff],
        }
        if args.svg:
            base = Path(args.svg)
            path = base.with_name(base.stem + suffix + base.suffix) if suffix else base
            svgs.append(
                (str(path), level_set_and_wulff_svg(gauge.vertices, wulff, comment=comment))
            )
    emit("wulff", {"phase": args.phase}, [], _json(payload), args.json, svgs)
    return 0


def cmd_lemma(args) -> int:
    shapes = list(_load_shapes(args.shapes).values())
    report = lemma_check(args.k, shapes, cap=args.cap, inner_margin=args.margin)
    svg = (
        [(args.witness_svg, configuration_svg(
            report.witness, comment=f"violating covering k={args.k}", palette=args.palette
        ))]
        if report.witness is not None and args.witness_svg else []
    )
    emit("lemma", {"k": args.k, "cap": args.cap, "margin": args.margin, "shapes": args.shapes},
         [args.shapes], _json(report.to_jsonable()), args.json, svg)
    return 0 if report.complete else 3


def cmd_decompose(args) -> int:
    epsilons = _numbers(args.epsilon, "epsilon", "a comma list of rationals")
    if any(eps <= 0 for eps in epsilons):
        raise InvalidInput("epsilon must be positive")
    if len(args.configs) != len(epsilons):
        raise InvalidInput("need one configuration file per epsilon")
    window = _parse_window(args.window)
    shapes = _load_shapes(args.shapes)
    runs = [
        (_read(path, lambda text: ScaledConfiguration.from_continuum(
            eps, configuration_entries(load_json(text), shapes))), window)
        for path, eps in zip(args.configs, epsilons)
    ]
    target = args.target and _read(args.target, lambda t: regions_from_jsonable(load_json(t)))

    payload: dict = {"runs": []}
    approxes = [decompose(sc, win) for sc, win in runs]
    for approx in approxes:
        payload["runs"].append(
            {
                "epsilon": str(approx.epsilon),
                "bad_area": str(approx.bad_area()),
                "bad_count": approx.bad_count,
                "boundary_length": str(approx.boundary_length),
                "bad_area_bound": str(bad_area_bound(approx)),
                "regions": {
                    str(lab): rects_to_jsonable(rects)
                    for lab, rects in sorted(approx.regions.items())
                    if rects
                },
            }
        )
    if target:
        rows = convergence_report(approxes, target=target)
        payload["convergence"] = [
            {k: str(v) for k, v in row.items()} for row in rows
        ]
    csvs = [
        (
            str(Path(f"{args.regions_csv}_eps{run['epsilon'].replace('/', '_')}_label{lab}.csv")),
            "x0,y0,x1,y1\n" + "".join(",".join(r) + "\n" for r in rows),
        )
        for run in (payload["runs"] if args.regions_csv else [])
        for lab, rows in run["regions"].items()
    ]
    emit("decompose", {"epsilon": args.epsilon, "window": args.window, "target": args.target},
         [*args.configs, args.target], _json(payload), args.out, csvs)
    return 0


def _load_partition(path: str) -> PolygonalPartition:
    return _read(path, lambda text: PolygonalPartition.from_jsonable(load_json(text)))


def cmd_limit(args) -> int:
    part = _load_partition(args.partition)
    model = DensityModel.with_patterns() if args.model == "patterns" else DensityModel.closed_form_only()
    if args.table:
        model.add_records(_read(args.table, read_density_table))
    total, rows = limit_energy(part, model, detailed=True)
    payload: dict = {
        "total": str(total),
        "total_float": float(total),
        "segments": [
            {
                "from": [str(r.segment.a[0]), str(r.segment.a[1])],
                "to": [str(r.segment.b[0]), str(r.segment.b[1])],
                "labels": [r.segment.i, r.segment.j],
                "normal": list(r.segment.normal),
                "price": str(r.price),
                "source": r.source,
                "contribution": str(r.contribution),
            }
            for r in rows
        ],
    }
    if args.exterior:
        exterior = _load_partition(args.exterior)
        payload["anchored_admissible"] = anchored_admissible(part, exterior)
    svg = (
        [(args.svg, partition_svg(part, rows, comment="partition", palette=args.palette))]
        if args.svg else []
    )
    inputs = [args.partition, args.table, args.exterior]
    emit("limit", {"partition": args.partition, "model": args.model, "table": args.table,
                   "exterior": args.exterior}, inputs, _json(payload), args.out, svg)
    return 0


def cmd_cluster(args) -> int:
    cap = 6 if args.cap is None else args.cap  # after a preset's cluster_cap
    value, config = cluster_min_perimeter(args.r, args.s, cap=cap)
    svg = (
        [(args.svg, configuration_svg(
            config, comment=f"cluster ({args.r},{args.s})", palette=args.palette
        ))]
        if args.svg else []
    )
    payload = {"r": args.r, "s": args.s, "value": str(value),
               "witness": configuration_to_jsonable(config)}
    emit("cluster", {"r": args.r, "s": args.s, "cap": cap}, [], _json(payload), args.json, svg)
    return 0


# -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="chiralattice", description=__doc__)
    ap.add_argument(
        "--preset",
        help="JSON file presetting weights, budget, cluster cap, and palette",
    )
    ap.set_defaults(palette=PHASE_PALETTE)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("energy", help="energies of a configuration file")
    p.add_argument("config")
    p.add_argument("--window", help="SIDE or SIDE,CX,CY (default: whole plane)")
    p.add_argument("--weights", help="C_R,C_S")
    p.add_argument("--shapes", help="extra shape file (JSON)")
    p.add_argument("--out", help="write the JSON record here")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("density", help="normalized interface densities")
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("T", help="comma list of sizes, e.g. 8,12,16")
    p.add_argument("--budget", type=int)
    p.add_argument("--kind", choices=["surface", "volume"], default="surface")
    p.add_argument("--weights", help="C_R,C_S")
    p.add_argument("--csv", help="append-style CSV output path")
    p.add_argument("--witness-dir", help="dump witness configurations as SVG")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("wulff", help="level sets and Wulff shapes")
    p.add_argument("phase", help="1..8 or 'all'")
    p.add_argument("--svg")
    p.add_argument("--json")
    p.set_defaults(func=cmd_wulff)

    p = sub.add_parser("lemma", help="exhaustive single-phase check")
    p.add_argument("k", type=int)
    p.add_argument("--shapes", help="shape file (default: built-in R,S)")
    p.add_argument("--cap", type=int)
    p.add_argument("--margin", type=int, default=4, choices=[2, 4])
    p.add_argument("--json")
    p.add_argument("--witness-svg")
    p.set_defaults(func=cmd_lemma)

    p = sub.add_parser("decompose", help="scale decomposition into regions")
    p.add_argument("configs", nargs="+", help="configuration files (continuum anchors)")
    p.add_argument("--epsilon", required=True, help="comma list, one per file")
    p.add_argument("--window", required=True)
    p.add_argument("--shapes")
    p.add_argument("--target", help="JSON {label: [[x0,y0,x1,y1],...]}")
    p.add_argument("--regions-csv", dest="regions_csv", help="per-label CSV prefix")
    p.add_argument("--out")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("limit", help="limiting partition energy")
    p.add_argument("partition")
    p.add_argument("--model", choices=["closed_form", "patterns"], default="patterns")
    p.add_argument("--table", help="density CSV to refine the model")
    p.add_argument("--exterior", help="exterior partition for anchoring check")
    p.add_argument("--svg", help="render the partition with segment prices")
    p.add_argument("--out")
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("cluster", help="minimal-perimeter clusters")
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)
    p.add_argument("--cap", type=int, help="largest cluster size searched (default 6)")
    p.add_argument("--svg")
    p.add_argument("--json")
    p.set_defaults(func=cmd_cluster)
    return ap


_COLOR = re.compile(r"#(?:[0-9A-Fa-f]{3}){1,2}|[A-Za-z]+")


def _apply_preset(args) -> None:
    """Fill unset options from a preset file (weights, budget, cap, palette)."""
    preset = _read(args.preset)
    if not isinstance(preset, dict):
        raise InvalidInput("preset must be a JSON object")
    if getattr(args, "weights", None) is None and "weights" in preset:
        if not isinstance(preset["weights"], str):
            raise InvalidInput("preset weights must be a string C_R,C_S")
        args.weights = preset["weights"]
    if getattr(args, "budget", None) is None and "budget" in preset:
        args.budget = json_int("preset budget", preset["budget"])
    if args.cmd == "cluster" and args.cap is None and "cluster_cap" in preset:
        args.cap = json_int("preset cluster_cap", preset["cluster_cap"])
    palette = preset.get("palette")
    if palette:
        if not isinstance(palette, list) or len(palette) != 9:
            raise InvalidInput("palette preset needs exactly 9 colors")
        for color in palette:
            # each entry is written into SVG attributes as it stands
            if not isinstance(color, str) or not _COLOR.fullmatch(color):
                raise InvalidInput(
                    f"invalid palette color {color!r}: expected #RGB, #RRGGBB or a color name"
                )
        args.palette = tuple(palette)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.preset:
            _apply_preset(args)
        return args.func(args)
    except (InvalidInput, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ClusterCapExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
