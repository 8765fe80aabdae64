"""End-to-end analysis of one app bundle: layouts to labeled views to taint
graph to report document."""

from __future__ import annotations

from .gui import ViewElement, extract_views, join_rtable, load_widget_registry
from .ir import parse_bundle
from .pi import classify, load_lexicon
from .report import emit_report
from .sources_sinks import load_sinks, resolve_sources
from .taint import build_graph, extract_leaks


def load_config(widgets=None, lexicon=None, sinks=None) -> tuple:
    """The widget registry, PI lexicon and sink registry loaded from paths,
    None for a built-in file. Each loader parses a file once per process."""
    return load_widget_registry(widgets), load_lexicon(lexicon), load_sinks(sinks)


def analyze_bundle(app_dir, widgets=None, lexicon=None, sinks=None) -> dict:
    """Analyze the bundle at app_dir with the config files at the given
    paths, None for a built-in file, and return its report document."""
    widgets, lexicon, sinks = load_config(widgets, lexicon, sinks)

    bundle = parse_bundle(app_dir)

    views = []
    for layout in bundle.layouts:
        views.extend(extract_views(layout, widgets))
    views, unmatched = join_rtable(views, bundle.rtable)
    views = [
        v if (kind := classify(v, lexicon)) is None
        else ViewElement(
            v.view_class, v.id_name, v.numeric_id, v.hint, v.text, v.layout_file, kind
        )
        for v in views
    ]

    sources, diag = resolve_sources(bundle, [v for v in views if v.pi is not None])
    # the graph's one reference is extract_leaks's argument, so it is freed
    # before the report is built
    leaks = extract_leaks(build_graph(bundle, sources, sinks))
    return emit_report(bundle, views, leaks, diag, unmatched)
