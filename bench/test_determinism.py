"""Self-checks of the benchmark: deterministic outputs and declared metrics.

    python3 -m pytest bench/test_determinism.py

Each run is a subprocess of ``bench/run.py`` with one pass (``--seconds 0``).
The digest covers every case's result and its node and covering counts, so
equal digests mean equal certificates and equal search effort.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@functools.lru_cache(maxsize=None)
def run(workload: str, hash_seed: int, trace: int) -> tuple[str, frozenset]:
    """Digest of the last pass and the names of the printed metrics."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED=str(hash_seed)),
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    return lines[0].split(" digest ")[1], frozenset(result["metrics"])


def test_search_is_independent_of_the_hash_seed():
    assert run("search", 0, 0)[0] == run("search", 4242, 0)[0]


def test_continuum_is_independent_of_the_hash_seed_and_of_tracing():
    assert run("continuum", 0, 0)[0] == run("continuum", 4242, 1)[0]


def test_printed_metrics_are_the_declared_ones():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert run("continuum", 0, 0)[1] == {m["name"] for m in spec["end_to_end"]}
    assert run("continuum", 4242, 1)[1] == {m["name"] for m in spec["per_layer"]}
