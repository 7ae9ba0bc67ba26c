"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload {table,frontier,search,continuum}
        [--seed N] [--seconds S] [--trace 0|1] [--record-golden]

Run from the repository root.  The library is imported from ``src/`` in a
single process on a single thread.  Set-up (the import, timed in fresh
interpreters, plus building the inputs) is repeated and its median
reported.  The timed body then makes closed-loop passes over the
workload's cases until another pass would overrun ``--seconds`` (at least
one pass).  Every pass is checked against ``golden.json`` and the identity
checks.  Times are rescaled to nominal seconds by ``speed.SpeedMeter``;
the raw seconds are printed too and kept in the result file.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
one untraced and one traced pass run, and the per-layer metrics of the
traced pass are printed.  The last stdout line is one JSON object; a full
result file goes to ``bench/out/``.  The exit code is 1 if any case failed,
and 2 if the library cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
GOLDEN = BENCH / "golden.json"
OUT = BENCH / "out"
IMPORT_REPEATS = 11  # fresh interpreters are cheap, and one import is noisy
BUILD_REPEATS = 3
# Times the import in a fresh interpreter, then rescales it with speed
# probes taken right after it in the same process (see speed.py).
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import chiralattice.cli; "
    "t = time.perf_counter() - t; import statistics, speed; "
    "print(t * speed.PROBE_NOMINAL_S / statistics.median(speed.probe() for _ in range(5)))"
)
# the workloads module imports the library, so it is imported after set-up timing
WORKLOAD_NAMES = ("table", "frontier", "search", "continuum")


def git_rev() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def import_seconds(env: dict) -> float:
    """Nominal seconds to import the package in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout)


@dataclass
class Pass:
    wall: float  # raw seconds, probes excluded
    cpu: float
    factor: float  # nominal seconds per raw second
    outcomes: list
    failures: list[str]


def judge(outcomes, golden: dict | None) -> list[str]:
    """Failure messages of one pass; golden None means recording."""
    failures = []
    for out in outcomes:
        if golden is not None and out.golden != "none":
            want = golden.get(out.case)
            if want is None and out.golden == "required":
                out.failures.append("no golden value recorded")
            elif want is not None and want != out.result:
                out.failures.append(f"golden {want!r}, got {out.result!r}")
        failures += [f"{out.case}: {why}" for why in out.failures]
    return failures


def digest(outcomes) -> str:
    text = "\n".join(f"{o.case}|{o.result}|{o.effort}" for o in outcomes)
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true",
                    help="store this run's results as golden values")
    args = ap.parse_args(argv)

    if not (SRC / "chiralattice" / "__init__.py").is_file():
        sys.stderr.write(f"error: the chiralattice sources are missing under {SRC}\n")
        return 2
    os.chdir(ROOT)
    # the budget is passed explicitly; a stray preset must not reach the library
    os.environ.pop("CHIRALATTICE_NODE_BUDGET", None)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), str(BENCH)]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    imports = [import_seconds(env) for _ in range(IMPORT_REPEATS)]

    sys.path.insert(0, str(SRC))
    import chiralattice
    from speed import SpeedMeter
    from spans import Tracer, layer_metrics
    from workloads import DEFAULT_SEED, WORKLOADS

    if Path(chiralattice.__file__).resolve().parent != SRC / "chiralattice":
        sys.stderr.write(f"error: imported chiralattice from {chiralattice.__file__}\n")
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    workload = WORKLOADS[args.workload]
    builds = []
    for _ in range(BUILD_REPEATS):
        with SpeedMeter() as meter:
            inputs = workload.build(seed)
        builds.append(meter.wall * meter.factor)
    setup_s = statistics.median(imports) + statistics.median(builds)

    golden = None if args.record_golden else json.loads(GOLDEN.read_text())
    run_id = f"{args.workload}-{seed}-{os.getpid()}"
    passes: list[Pass] = []

    def one_pass(tracer):
        with SpeedMeter() as meter, tracer.span("bench.pass"):
            raw = workload.run(inputs, tracer)
        outcomes = workload.check(inputs, raw)
        passes.append(Pass(meter.wall, meter.cpu, meter.factor, outcomes,
                           judge(outcomes, golden)))

    tracer = Tracer(enabled=False, run_id=run_id)
    start = time.perf_counter()
    one_pass(tracer)
    # memory of set-up and one pass, so it does not depend on the pass count
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        tracer = Tracer(enabled=True, run_id=run_id)
        one_pass(tracer)
    else:
        while time.perf_counter() - start + passes[-1].wall <= args.seconds:
            one_pass(tracer)
    outcomes = passes[-1].outcomes
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(sum(1 for o in p.outcomes if o.failures) for p in passes)
    failures = [f for p in passes for f in p.failures]

    if args.trace:
        # span times are raw; rescale them with the traced pass's factor
        factor = passes[1].factor
        scale = {"s": factor, "1/s": 1 / factor}
        metrics = {}
        for name, value in layer_metrics(tracer.spans).items():
            unit = unit_of(name)
            metrics[name] = {"value": value * scale.get(unit, 1), "unit": unit}
        metrics["bench.trace_overhead_s"] = {
            "value": passes[1].wall * factor - passes[0].wall * passes[0].factor,
            "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(p.wall * p.factor for p in passes),
                       "unit": "s"},
            "cpu_s": {"value": statistics.median(p.cpu * p.factor for p in passes),
                      "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ok_frac": {"value": 1 - failed / attempted, "unit": "fraction"},
        }

    if args.record_golden:
        recorded = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
        recorded.update({o.case: o.result for o in outcomes if o.golden != "none"})
        GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")

    pass_digest = digest(outcomes)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{seed}-trace{args.trace}.json").write_text(json.dumps({
        "workload": args.workload,
        "seed": seed,
        "trace": bool(args.trace),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": git_rev(),
        "passes": [
            {"wall_s": p.wall, "cpu_s": p.cpu, "speed_factor": p.factor}
            for p in passes
        ],
        "digest": pass_digest,
        "failures": failures,
        "outcomes": [vars(o) for o in outcomes],
        "spans": tracer.spans,
        **result,
    }, indent=1) + "\n")

    for f in failures:
        sys.stderr.write(f"FAILED {f}\n")
    print(f"workload {args.workload} seed {seed} passes {len(passes)} digest {pass_digest}")
    print("raw seconds per pass, before speed normalisation: "
          + ", ".join(f"wall {p.wall:.4g} cpu {p.cpu:.4g}" for p in passes))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if not failures else 1


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its naming convention."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or ".s." in name:
        return "s"
    if name.endswith("_per_node"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
