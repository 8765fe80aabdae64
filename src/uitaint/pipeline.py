"""End-to-end analysis of one app bundle: layouts to labeled views to taint
graph to report document."""

from __future__ import annotations

import dataclasses
import functools
import logging
from typing import NamedTuple

from .gui import WidgetRegistry, extract_views, join_rtable, load_widget_registry
from .ir import parse_bundle
from .pi import Lexicon, classify, load_lexicon
from .report import emit_report
from .sources_sinks import SinkRegistry, load_sinks, resolve_sources
from .taint import build_graph, extract_leaks

log = logging.getLogger(__name__)


class Config(NamedTuple):
    """The widget registry, PI lexicon and sink registry an analysis uses."""

    widgets: WidgetRegistry
    lexicon: Lexicon
    sinks: SinkRegistry


@functools.cache
def load_config(widgets=None, lexicon=None, sinks=None) -> Config:
    """Load the three config files, each a path or None for the built-in file.

    Memoised, so a process parses each file once however many apps it
    analyzes; a load that raises is not cached.
    """
    return Config(load_widget_registry(widgets), load_lexicon(lexicon), load_sinks(sinks))


def analyze_bundle(app_dir, config: Config | None = None) -> dict:
    """Analyze the bundle at app_dir and return its report document."""
    config = load_config() if config is None else config

    bundle = parse_bundle(app_dir)

    views = []
    for layout in bundle.layouts:
        views.extend(extract_views(layout, config.widgets))
    views, unmatched = join_rtable(views, bundle.rtable)
    views = [
        v if (kind := classify(v, config.lexicon)) is None else dataclasses.replace(v, pi=kind)
        for v in views
    ]

    sources, diag = resolve_sources(bundle, [v for v in views if v.pi is not None])
    graph = build_graph(bundle, sources, config.sinks)
    leaks = extract_leaks(graph)

    log.info(
        "%s: %d views (%d labeled), %d sources, %d leaks",
        bundle.app_package,
        len(views),
        sum(1 for v in views if v.pi is not None),
        len(sources),
        len(leaks),
    )
    return emit_report(bundle, views, leaks, diag, unmatched)
