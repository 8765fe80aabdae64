"""Static detector for leaks of user-entered personal information.

Takes decompiled app bundles (layout XML plus a textual three-address IR),
labels input widgets with the kind of personal information they collect,
and taint-tracks findViewById results to configurable sink calls.

Importing the package loads no submodule: each name below is imported from
its module on first use (PEP 562), so a command loads only what it runs.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_HOME = {
    "AnalysisError": "errors",
    "FixtureSpec": "fixtures",
    "Party": "taint",
    "aggregate": "report",
    "analyze_bundle": "pipeline",
    "build_graph": "taint",
    "classify": "pi",
    "default_widget_registry": "gui",
    "emit_report": "report",
    "export_csv": "report",
    "extract_leaks": "taint",
    "extract_views": "gui",
    "generate": "fixtures",
    "join_rtable": "gui",
    "load_config": "pipeline",
    "load_default_lexicon": "pi",
    "load_default_sinks": "sources_sinks",
    "load_lexicon": "pi",
    "load_sinks": "sources_sinks",
    "load_widget_registry": "gui",
    "parse_bundle": "ir",
    "parse_code_unit": "ir",
    "render_code_unit": "ir",
    "resolve_call": "ir",
    "resolve_sources": "sources_sinks",
    "serialize_report": "report",
    "tokenize": "pi",
}

__all__ = sorted(_HOME)


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{home}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
