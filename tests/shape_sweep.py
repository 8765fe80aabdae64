"""Stage times of the pipeline on the three bundle shapes of
conftest.write_shape_bundle, at growing k.

Run from the repository root as

    PYTHONPATH=src python tests/shape_sweep.py [k ...]

with k 500, 1000, 2000 and 4000 by default. Everything runs in this one
process. A stage's time is its fastest call in 9 rounds, with the cyclic
collector off around each call; a round calls each stage again until its
calls take 20 ms, and the rounds of each size alternate with those of the
other sizes, so that a slow spell of a shared host rarely falls on every
round of one size. For each shape it prints one row of milliseconds
per k and one row of the ratios to the k before it. The bundles are written
to a temporary directory.
"""

from __future__ import annotations

import dataclasses
import gc
import sys
import tempfile
import time
from pathlib import Path

from conftest import SHAPES, write_shape_bundle
from uitaint.gui import extract_views, join_rtable
from uitaint.ir import parse_bundle
from uitaint.pi import classify
from uitaint.pipeline import load_config
from uitaint.report import emit_report, serialize_report
from uitaint.sources_sinks import resolve_sources
from uitaint.taint import build_graph, extract_leaks

STAGES = ("parse", "gui+pi", "sources", "graph", "leaks", "emit", "serialize")
ROUNDS = 9


def _timed(times, stage, fn, *args):
    """fn(*args), called again until the calls take 20 ms, with the collector
    off; times[stage] is the fastest call's seconds."""
    gc.disable()
    try:
        laps, stop = [], time.perf_counter() + 0.02
        while not laps or time.perf_counter() < stop:
            start = time.perf_counter()
            out = fn(*args)
            laps.append(time.perf_counter() - start)
        times[stage] = min(laps)
    finally:
        gc.enable()
    return out


def _label(bundle, widgets, lexicon):
    views = [v for layout in bundle.layouts for v in extract_views(layout, widgets)]
    views, unmatched = join_rtable(views, bundle.rtable)
    views = [v if (kind := classify(v, lexicon)) is None else dataclasses.replace(v, pi=kind)
             for v in views]
    return views, unmatched


def stage_seconds(app) -> dict[str, float]:
    """Stage -> seconds of one analysis of the bundle at app."""
    widgets, lexicon, sinks = load_config()
    times = {}
    bundle = _timed(times, "parse", parse_bundle, app)
    views, unmatched = _timed(times, "gui+pi", _label, bundle, widgets, lexicon)
    sources, diag = _timed(
        times, "sources", resolve_sources, bundle, [v for v in views if v.pi is not None]
    )
    graph = _timed(times, "graph", build_graph, bundle, sources, sinks)
    leaks = _timed(times, "leaks", extract_leaks, graph)
    doc = _timed(times, "emit", emit_report, bundle, views, leaks, diag, unmatched)
    _timed(times, "serialize", serialize_report, doc)
    return times


def main(ks):
    print("| shape | k | " + " | ".join(f"{s} ms" for s in STAGES) + " |")
    print("|---|---|" + "---|" * len(STAGES))
    with tempfile.TemporaryDirectory() as tmp:
        for shape in SHAPES:
            apps = [write_shape_bundle(Path(tmp) / f"{shape}{k}", shape, k) for k in ks]
            runs = [[stage_seconds(app) for app in apps] for _ in range(ROUNDS)]
            last = None
            for i, k in enumerate(ks):
                best = {s: min(r[i][s] for r in runs) for s in STAGES}
                print(f"| {shape} | {k:,} | "
                      + " | ".join(f"{best[s] * 1000:.1f}" for s in STAGES) + " |")
                if last is not None:
                    print(f"| {shape} | ×{k / last[0]:g} | "
                          + " | ".join(f"{best[s] / last[1][s]:.2f}" for s in STAGES) + " |")
                last = (k, best)


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or [500, 1000, 2000, 4000])
