"""Each command loads only the package modules it runs, and the package
namespace loads a module on first use of one of its names."""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import uitaint
from uitaint.errors import IrSyntaxError
from uitaint.ir import parse_bundle
from conftest import DATA, write_bundle

SRC = Path(uitaint.__file__).resolve().parent.parent

# standard modules that only building a dataclass needs
BUILDERS = {"dataclasses", "inspect", "ast"}

# no command logs; only a corpus run's process pool loads logging
LOGGING = "logging"

# run one command through main in a fresh interpreter; print what it loaded
PROBE = """\
import contextlib, io, json, sys
from uitaint.cli import main
err = io.StringIO()
with contextlib.redirect_stderr(err):
    code = main(sys.argv[1:])
print(json.dumps({
    "code": code,
    "modules": sorted(m for m in sys.modules if m.startswith("uitaint")),
    "pool": "concurrent.futures.process" in sys.modules,
    "loaded": sorted(sys.modules),
    "stderr": err.getvalue(),
}))
"""

READERS = {"uitaint", "uitaint.cli", "uitaint.errors", "uitaint.lines", "uitaint.pi",
           "uitaint.report"}
ANALYZER = READERS | {"uitaint.gui", "uitaint.ir", "uitaint.pipeline",
                      "uitaint.sources_sinks", "uitaint.taint"}
FIXTURES = {"uitaint", "uitaint.cli", "uitaint.errors", "uitaint.fixtures", "uitaint.lines",
            "uitaint.pi"}


def _fresh(code: str, *args) -> str:
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path), "SOURCE_DATE_EPOCH": "1700000000"}
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return out.stdout


def _probe(*args) -> dict:
    return json.loads(_fresh(PROBE, *args).splitlines()[-1])


def _run(*args) -> dict:
    result = _probe(*args)
    assert result["code"] == 0
    return result


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A one-bundle and a two-bundle corpus, and a directory of one report."""
    root = tmp_path_factory.mktemp("imports")
    shutil.copytree(DATA / "panic_shield", root / "one" / "panic_shield")
    shutil.copytree(DATA, root / "two")
    (root / "reports").mkdir()
    _run("analyze", "--app", DATA / "panic_shield", "--out", root / "reports" / "panic.json")
    return root


def test_import_uitaint_loads_no_submodule():
    code = "import sys, uitaint; print(sorted(m for m in sys.modules if m.startswith('uitaint')))"
    assert _fresh(code) == "['uitaint']\n"


def test_analyze_loads_the_analyzer_and_no_pool(tmp_path):
    result = _run("analyze", "--app", DATA / "panic_shield", "--out", tmp_path / "r.json")
    assert set(result["modules"]) == ANALYZER
    assert not result["pool"]
    assert LOGGING not in result["loaded"]


@pytest.mark.parametrize("jobs", ["1", "4"])
def test_corpus_of_one_bundle_loads_no_pool(work, tmp_path, jobs):
    result = _run("corpus", "--apps", work / "one", "--out", tmp_path / "r", "-j", jobs)
    assert set(result["modules"]) == ANALYZER
    assert not result["pool"]
    assert LOGGING not in result["loaded"]


def test_corpus_of_two_bundles_at_two_jobs_loads_the_pool(work, tmp_path):
    result = _run("corpus", "--apps", work / "two", "--out", tmp_path / "r", "-j", "2")
    assert set(result["modules"]) == ANALYZER
    assert result["pool"]
    assert LOGGING in result["loaded"]  # concurrent.futures imports it


def test_a_malformed_unit_loads_only_the_analyzer(tmp_path):
    app = write_bundle(tmp_path / "app", code={
        "A.jtac": "class a.A\nmethod static void f():\n  r1 = r9\n",
    })
    with pytest.raises(IrSyntaxError) as raised:
        parse_bundle(app)
    result = _probe("analyze", "--app", app, "--out", tmp_path / "r.json")
    assert result["code"] == 2
    assert set(result["modules"]) == ANALYZER
    assert result["stderr"] == f"IrSyntaxError: {raised.value}\n"
    assert str(raised.value) == "code/A.jtac:3:1: register 'r9' is read but never assigned"


def test_aggregate_loads_only_the_report_reader(work, tmp_path):
    result = _run("aggregate", "--reports", work / "reports", "--out", tmp_path / "s")
    assert set(result["modules"]) == READERS
    assert not result["pool"]
    assert BUILDERS.intersection(result["loaded"]) == _bare_builders()
    assert LOGGING not in result["loaded"]


def test_explain_loads_only_the_report_reader(work):
    result = _run("explain", "--report", work / "reports" / "panic.json", "--leak", "0")
    assert set(result["modules"]) == READERS
    assert not result["pool"]
    assert BUILDERS.intersection(result["loaded"]) == _bare_builders()
    assert LOGGING not in result["loaded"]


def _bare_builders() -> set:
    """The dataclass builders an interpreter that runs nothing has loaded."""
    loaded = json.loads(_fresh("import json, sys; print(json.dumps(list(sys.modules)))"))
    return BUILDERS.intersection(loaded)


def test_gen_fixtures_loads_no_analyzer(tmp_path):
    result = _run("gen-fixtures", "--seed", "3", "--out", tmp_path / "apps")
    assert set(result["modules"]) == FIXTURES
    assert LOGGING not in result["loaded"]


# ---------------------------------------------------------------------------
# the lazy namespace


def test_every_exported_name_is_its_home_modules_object():
    assert len(uitaint.__all__) == 27
    assert not {"PiKind", "PiCategory", "DestCategory"} & set(uitaint.__all__)
    assert uitaint.__all__ == sorted(uitaint.__all__)
    for name in uitaint.__all__:
        value = getattr(uitaint, name)
        assert value is getattr(importlib.import_module(value.__module__), name)


def test_dir_and_star_import_before_any_name_is_used():
    code = ("import json, uitaint; names = dir(uitaint); scope = {}\n"
            "exec('from uitaint import *', scope)\n"
            "print(json.dumps([names, sorted(k for k in scope if k != '__builtins__')]))")
    names, bound = json.loads(_fresh(code))
    assert "__all__" in names
    assert set(uitaint.__all__) <= set(names)
    assert bound == uitaint.__all__


def test_unknown_name_raises_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="module 'uitaint' has no attribute 'nope'"):
        uitaint.nope
