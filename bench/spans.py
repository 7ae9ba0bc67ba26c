"""In-memory spans around the benchmark's calls into the library.

A span records its name, start, end, parent span and run id, plus counts
read from the returned objects (nodes, coverings, ...).  Spans are only
opened at the benchmark's own call sites; nothing inside the library is
instrumented.  A disabled tracer records nothing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool, run_id: str):
        self.enabled = enabled
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the body; the yielded dict takes counts known only at the end."""
        if not self.enabled:
            yield attrs
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time covered by its child spans.

    Spans come from one thread, so children of a span never overlap and
    their durations can simply be subtracted.
    """
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; layers not exercised read 0."""
    selfs = self_times(spans)

    def pick(name, **tags):
        return [
            (s, t)
            for s, t in zip(spans, selfs)
            if s["name"] == name
            and all(s["attrs"].get(k) == v for k, v in tags.items())
        ]

    def secs(name, **tags):
        return sum(t for _, t in pick(name, **tags))

    def calls(name, **tags):
        return len(pick(name, **tags))

    def total(name, key, **tags):
        return sum(s["attrs"].get(key, 0) for s, _ in pick(name, **tags))

    def rate(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    solve = "interfaces.solve"
    m[f"{solve}.calls"] = calls(solve)
    m[f"{solve}.self_s"] = secs(solve)
    m[f"{solve}.nodes"] = total(solve, "nodes")
    m[f"{solve}.nodes_per_s"] = rate(m[f"{solve}.nodes"], m[f"{solve}.self_s"])
    m[f"{solve}.uncertified"] = total(solve, "uncertified")
    for T in (12, 16, 20):
        m[f"{solve}.nodes.T{T}"] = total(solve, "nodes", T=T)
        m[f"{solve}.s.T{T}"] = secs(solve, T=T)
    for kind in ("weighted", "volume"):
        m[f"{solve}.s.{kind}"] = secs(solve, kind=kind)
    m["interfaces.probe_s"] = secs("interfaces.probe")
    m["interfaces.pattern.self_s"] = secs("interfaces.pattern")
    m["densities.consistency.self_s"] = secs("densities.consistency")
    m["densities.consistency.rows"] = total("densities.consistency", "rows")

    lemma = "coverings.lemma"
    m[f"{lemma}.calls"] = calls(lemma)
    m[f"{lemma}.self_s"] = secs(lemma)
    m[f"{lemma}.nodes"] = total(lemma, "nodes")
    m[f"{lemma}.coverings"] = total(lemma, "coverings")
    m[f"{lemma}.nodes_per_s"] = rate(m[f"{lemma}.nodes"], m[f"{lemma}.self_s"])
    m[f"{lemma}.coverings_per_node"] = rate(m[f"{lemma}.coverings"], m[f"{lemma}.nodes"])
    m["coverings.falsify.self_s"] = secs("coverings.falsify")
    m["coverings.falsify.nodes"] = total("coverings.falsify", "nodes")
    m["coverings.enumerate.self_s"] = secs("coverings.enumerate")
    m["coverings.enumerate.count"] = total("coverings.enumerate", "count")
    cluster = "interfaces.cluster"
    m[f"{cluster}.calls"] = calls(cluster)
    m[f"{cluster}.self_s"] = secs(cluster)
    for r, s in ((2, 2), (3, 1), (3, 2)):
        m[f"{cluster}.s.{r}_{s}"] = secs(cluster, size=(r, s))

    for name in ("perimeter", "perimeter_window", "weighted", "volume", "validate"):
        m[f"molecules.{name}.self_s"] = secs(f"molecules.{name}")
    m["molecules.cells_per_s"] = rate(
        total("molecules.perimeter", "cells"), m["molecules.perimeter.self_s"]
    )
    dec = "decomposition.decompose"
    m[f"{dec}.self_s"] = secs(dec)
    m[f"{dec}.molecules"] = total(dec, "molecules")
    m[f"{dec}.blocks"] = total(dec, "blocks")
    m["rectregions.symdiff.calls"] = calls("rectregions.symdiff")
    m["rectregions.symdiff.self_s"] = secs("rectregions.symdiff")
    for name in ("extract", "price", "spin", "rs", "anchored"):
        m[f"limits.{name}.self_s"] = secs(f"limits.{name}")
    m["limits.segments"] = total("limits.extract", "segments")
    m["polygeom.predicate_area.calls"] = calls("polygeom.predicate_area")
    m["polygeom.predicate_area.self_s"] = secs("polygeom.predicate_area")
    m["gauges.wulff.self_s"] = secs("gauges.wulff")
    m["gauges.envelope.self_s"] = secs("gauges.envelope")
    m["cli.main.calls"] = calls("cli.main")
    m["cli.main.self_s"] = secs("cli.main")
    return m
