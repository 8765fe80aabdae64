"""Static detector for leaks of user-entered personal information.

Takes decompiled app bundles (layout XML plus a textual three-address IR),
labels input widgets with the kind of personal information they collect,
and taint-tracks findViewById results to configurable sink calls.
"""

__version__ = "0.1.0"

from .errors import AnalysisError
from .ir import parse_bundle, parse_code_unit, render_code_unit, resolve_call
from .gui import extract_views, join_rtable, load_widget_registry, default_widget_registry
from .pi import PiCategory, PiKind, classify, load_default_lexicon, load_lexicon, tokenize
from .sources_sinks import DestCategory, load_default_sinks, load_sinks, resolve_sources
from .taint import Party, build_graph, extract_leaks
from .report import aggregate, emit_report, export_csv, serialize_report
from .fixtures import FixtureSpec, generate
from .pipeline import analyze_bundle, load_config

__all__ = [
    "AnalysisError",
    "DestCategory",
    "FixtureSpec",
    "Party",
    "PiCategory",
    "PiKind",
    "aggregate",
    "analyze_bundle",
    "build_graph",
    "classify",
    "default_widget_registry",
    "emit_report",
    "export_csv",
    "extract_leaks",
    "extract_views",
    "generate",
    "join_rtable",
    "load_config",
    "load_default_lexicon",
    "load_default_sinks",
    "load_lexicon",
    "load_sinks",
    "load_widget_registry",
    "parse_bundle",
    "parse_code_unit",
    "render_code_unit",
    "resolve_call",
    "resolve_sources",
    "serialize_report",
    "tokenize",
]
