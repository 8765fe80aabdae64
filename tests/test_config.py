"""One config path: each loader memoises by path, and every entry point that
loads configs goes through the loaders."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import uitaint
from uitaint.errors import LexiconSyntaxError, SinkSyntaxError, WidgetSyntaxError
from uitaint.gui import default_widget_registry, load_widget_registry
from uitaint.pi import load_default_lexicon, load_lexicon
from uitaint.pipeline import analyze_bundle, load_config
from uitaint.sources_sinks import load_default_sinks, load_sinks
from conftest import DATA

BUILTIN = Path(uitaint.__file__).parent / "data"

# per config: its loader, the loader's default_* name, its built-in file, a
# file body the loader rejects and the error it raises
CONFIGS = {
    "widgets": (load_widget_registry, default_widget_registry, "widgets.txt",
                "EditText\n", WidgetSyntaxError),
    "lexicon": (load_lexicon, load_default_lexicon, "lexicon.tsv",
                "email\n", LexiconSyntaxError),
    "sinks": (load_sinks, load_default_sinks, "sinks.tsv", "log\n", SinkSyntaxError),
}


def _copy(tmp_path, builtin) -> str:
    path = tmp_path / builtin
    path.write_bytes((BUILTIN / builtin).read_bytes())
    return str(path)


@pytest.mark.parametrize("name", CONFIGS)
def test_each_loader_memoises_by_path(tmp_path, name):
    load, default, builtin, _, _ = CONFIGS[name]
    path = _copy(tmp_path, builtin)
    assert load(path) is load(path)
    assert default() is load(None) is default()
    # a copy of the built-in file is its own entry with an equal value
    assert load(path) is not load(None)
    assert load(path) == load(None)


@pytest.mark.parametrize("name", CONFIGS)
def test_a_load_that_raises_is_retried(tmp_path, name):
    load, _, builtin, bad, error = CONFIGS[name]
    path = tmp_path / builtin
    path.write_text(bad, encoding="utf-8")
    for _ in range(2):  # the error is raised again, not cached as a value
        with pytest.raises(error, match=f"^{re.escape(str(path))}:1: "):
            load(str(path))
    path.write_bytes((BUILTIN / builtin).read_bytes())
    assert load(str(path)) == load(None)


def _copies(tmp_path) -> list[str]:
    return [_copy(tmp_path, builtin) for _, _, builtin, _, _ in CONFIGS.values()]


def test_load_config_returns_the_loaders_objects(tmp_path):
    loaders = [load for load, *_ in CONFIGS.values()]
    for paths in ([None] * 3, _copies(tmp_path)):
        loaded = load_config(*paths)
        assert type(loaded) is tuple
        assert all(obj is load(path) for load, path, obj in zip(loaders, paths, loaded, strict=True))
    assert load_config() is not load_config()  # no memo of its own
    assert load_config() == load_config(None, None, None)


def test_analyze_bundle_takes_paths_and_loads_through_the_memos(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    paths = _copies(tmp_path)
    builtin = analyze_bundle(DATA / "panic_shield")
    load_config(*paths)
    for name in ("gui", "pi", "sources_sinks"):
        monkeypatch.setattr(f"uitaint.{name}.config_lines", _no_parse)
    # every config is a memo hit now, by path or by None
    assert analyze_bundle(DATA / "panic_shield", *paths) == builtin
    assert analyze_bundle(DATA / "panic_shield", sinks=paths[2]) == builtin


def _no_parse(*args):
    raise AssertionError(f"config parsed again: {args}")
