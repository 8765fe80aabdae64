"""Spans around calls into each layer's public functions, kept in memory.

`traced_analyze` is a copy of `uitaint.pipeline.analyze_bundle` with a span
around every stage; the benchmark checks that its report bytes equal the
untraced pipeline's, so this copy cannot drift from the real stage order.
Counts are attached to a span after its end time is taken, so counting is
tracing overhead, not layer time.
"""

from __future__ import annotations

import dataclasses
import json
import time
from contextlib import contextmanager

from uitaint.gui import default_widget_registry, extract_views, join_rtable
from uitaint.ir import parse_bundle
from uitaint.pi import classify, load_default_lexicon
from uitaint.report import emit_report, serialize_report
from uitaint.sources_sinks import load_default_sinks, resolve_sources
from uitaint.taint import build_graph, extract_leaks


@dataclasses.dataclass
class Span:
    id: int
    name: str
    trace: str  # spans of one bundle analysis or one corpus step share this
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = dataclasses.field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str, trace: str):
        parent = self._open[-1].id if self._open else None
        sp = Span(len(self.spans), name, trace, parent, time.perf_counter())
        self.spans.append(sp)
        self._open.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def totals(self, traces: set[str]) -> dict[str, float]:
        """Per-layer metrics summed over the spans of the given traces:
        `<span>_s` for busy time and `<layer>.<count>` for each count."""
        out: dict[str, float] = {}
        for sp in self.spans:
            if sp.trace not in traces:
                continue
            out[f"{sp.name}_s"] = out.get(f"{sp.name}_s", 0.0) + (sp.end - sp.start)
            layer = sp.name.split(".")[0]
            for key, value in sp.counts.items():
                out[f"{layer}.{key}"] = out.get(f"{layer}.{key}", 0) + value
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dataclasses.asdict(sp) for sp in self.spans], fh)


def traced_analyze(tracer: Tracer, app_dir, trace: str) -> str:
    """analyze_bundle + serialize_report, one span per stage."""
    span = lambda name: tracer.span(name, trace)  # noqa: E731
    with span("pipeline.traced"):
        with span("gui.load"):
            widgets = default_widget_registry()
        with span("pi.load"):
            lexicon = load_default_lexicon()
        with span("sources_sinks.load"):
            sinks = load_default_sinks()

        with span("ir.parse") as sp:
            bundle = parse_bundle(app_dir)
        sp.counts["statements"] = sum(1 for _ in bundle.iter_statements())
        sp.counts["code_units"] = len(bundle.code_units)

        with span("gui.extract") as sp:
            views = []
            for layout in bundle.layouts:
                views.extend(extract_views(layout, widgets))
            views, unmatched = join_rtable(views, bundle.rtable)
        sp.counts["views"] = len(views)

        with span("pi.classify") as sp:
            views = [
                v if (kind := classify(v, lexicon)) is None else dataclasses.replace(v, pi=kind)
                for v in views
            ]
        sp.counts["views_labeled"] = sum(1 for v in views if v.pi is not None)

        with span("sources_sinks.resolve") as sp:
            sources, diag = resolve_sources(bundle, [v for v in views if v.pi is not None])
        sp.counts["findviewbyid_sites"] = diag.sites
        sp.counts["sources_resolved"] = diag.resolved

        with span("taint.graph") as sp:
            graph = build_graph(bundle, sources, sinks)
        nodes = set(graph.adjacency)
        for edges in graph.adjacency.values():
            nodes.update(dst for dst, _ in edges)
        sp.counts["nodes"] = len(nodes)
        sp.counts["edges"] = sum(len(edges) for edges in graph.adjacency.values())
        sp.counts["seeds"] = len(graph.seeds)
        sp.counts["sink_feeds"] = sum(len(feeds) for feeds in graph.sink_feeds.values())

        with span("taint.leaks") as sp:
            leaks = extract_leaks(graph)
        sp.counts["leaks"] = len(leaks)
        sp.counts["first_party_leaks"] = sum(1 for lk in leaks if lk.party.value == "first")
        sp.counts["witness_steps"] = sum(lk.path_len for lk in leaks)

        with span("report.emit"):
            doc = emit_report(bundle, views, leaks, diag, unmatched)
        with span("report.serialize") as sp:
            text = serialize_report(doc)
        sp.counts["bytes"] = len(text.encode("utf-8"))
    return text
