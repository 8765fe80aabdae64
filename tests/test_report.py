"""Report document and corpus aggregation tests."""

from __future__ import annotations

import csv
import enum
import gc
import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uitaint
from uitaint.cli import main
from uitaint.errors import EmptyCorpus
from uitaint.fixtures import FixtureSpec, generate
from uitaint.ir import StmtId, parse_bundle, render_statement
from uitaint.taint import TaintGraph
from uitaint import pipeline
from uitaint.pipeline import analyze_bundle
from uitaint.report import (
    _ITEM_CHECKS,
    aggregate,
    emit_report,
    export_csv,
    serialize_report,
    write_atomic,
    write_summary,
)
from conftest import DATA, HUB_LOG, write_hub_bundle

PANIC = DATA / "panic_shield"


def _leak(party="first", destination="net", pi_kind="email"):
    return {"party": party, "destination": destination, "pi_kind": pi_kind}


def _report(leaks=(), views=()):
    return {"app_package": "com.x.y", "leaks": list(leaks), "views": list(views)}


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# per-app report document


def test_report_is_deterministic_bytes(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    a = serialize_report(analyze_bundle(PANIC))
    b = serialize_report(analyze_bundle(PANIC))
    assert a == b
    doc = json.loads(a)
    assert doc["analyzed_at"] == "2023-11-14T22:13:20Z"
    assert doc["schema_version"] == 1


def test_report_round_trips_through_json(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    doc = analyze_bundle(PANIC)
    assert json.loads(serialize_report(doc)) == doc
    # keys the schema promises
    assert {"app_package", "views_total", "views_labeled", "views", "leaks",
            "diagnostics", "analyzed_at", "schema_version"} <= doc.keys()
    leak = doc["leaks"][0]
    assert {"pi_kind", "pi_category", "party", "destination", "source",
            "sink", "path", "path_text", "path_len",
            "alt_third_party_path"} <= leak.keys()
    assert len(leak["path"]) == len(leak["path_text"]) == leak["path_len"] + 1


# ---------------------------------------------------------------------------
# the report writer against json.dumps


def _json_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


_TEXT = st.text(st.characters(exclude_categories=()))  # non-ASCII and lone surrogates
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**300), max_value=10**300)
    | st.floats()  # nan, ±inf and -0.0 included
    | _TEXT
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=24,
)
_CONTAINERS = st.lists(_VALUES, min_size=1, max_size=4) | st.dictionaries(
    _TEXT, _VALUES, min_size=1, max_size=4
)


@st.composite
def _docs_with_shared_parts(draw):
    """A drawn document holding one container three times at one depth and
    again at others, so the writer's memo is hit; a shared list is also
    written inline as a dict value at depth 3, three times."""
    doc = draw(st.dictionaries(_TEXT, _VALUES, max_size=4))
    shared = draw(_CONTAINERS)
    doc["same depth"] = [shared, shared, shared]
    doc["depth 1"] = shared
    doc["depth 3"] = {"k": [shared]}
    doc["depth 3 in dicts"] = [{"a": shared, "b": shared}, {"a": shared}]
    return doc


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_writer_matches_json_dumps_on_drawn_values(doc):
    assert serialize_report(doc) == _json_dumps(doc)


@settings(max_examples=200, deadline=None)
@given(_docs_with_shared_parts())
def test_writer_matches_json_dumps_with_shared_parts(doc):
    assert serialize_report(doc) == _json_dumps(doc)


class _Str(str):
    pass


class _Float(float):
    pass


class _List(list):
    pass


@pytest.mark.parametrize(
    "value",
    [float("nan"), float("inf"), float("-inf"), -0.0, 1e300, 10**400, True, False, None,
     "\ud800\u00e9\x00\"\\", [], {}, (1, [2]), [[], {}], [1, {"k": [2.5]}],
     _List([_Str("s"), {"k": _List()}]), _Str("s\u00e9"), _Float("-inf"), _Float(2.5),
     enum.IntEnum("N", "A B").B],
)
def test_writer_matches_json_dumps_on_edge_values(value):
    """value under two keys of the document, whose join takes the items of
    a list value, and twice in a list one level down."""
    doc = {"v": value, "w": value, "again": [value, value]}
    assert serialize_report(doc) == _json_dumps(doc)


# An Enum whose value is a report string is still not that string: the writer
# must refuse it as json.dumps does, not write its value.
_StrEnum = enum.Enum("PiKind", {"EMAIL": "email"})


@pytest.mark.parametrize("value", [object(), {1, 2}, b"x", 1j, _StrEnum.EMAIL])
def test_writer_rejects_values_json_cannot_write(value):
    with pytest.raises(TypeError):
        json.dumps({"v": value})
    with pytest.raises(TypeError):
        serialize_report({"ok": 1, "nested": [{"v": value}]})
    with pytest.raises(TypeError):  # an item of a list the document's join takes
        serialize_report({"ok": 1, "spliced": [1, value]})


def test_writer_rejects_a_key_that_is_not_a_string():
    with pytest.raises(TypeError):
        serialize_report({"ok": {1: "a"}})


class _Dict(dict):
    pass


@st.composite
def _docs_sharing_shapes(draw):
    """A drawn document in which many dicts share a few key sets: in different
    insertion orders, at several depths, with one key, as dict subclasses,
    and with keys that are str subclasses equal to plain keys."""
    key_sets = draw(st.lists(st.lists(_TEXT, min_size=2, max_size=4, unique=True),
                             min_size=1, max_size=3))
    key_sets.append([draw(_TEXT)])

    def shaped(depth):
        keys = draw(st.permutations(draw(st.sampled_from(key_sets))))
        keys = [_Str(k) if draw(st.booleans()) else k for k in keys]
        values = [
            shaped(depth + 1) if depth < 3 and draw(st.booleans()) else draw(_SCALARS)
            for _ in keys
        ]
        return draw(st.sampled_from([dict, _Dict]))(zip(keys, values))

    return {"items": [shaped(1) for _ in range(draw(st.integers(1, 6)))], "one": shaped(0)}


@settings(max_examples=200, deadline=None)
@given(_docs_sharing_shapes())
def test_writer_matches_json_dumps_when_dicts_share_shapes(doc):
    assert serialize_report(doc) == _json_dumps(doc)


@pytest.mark.parametrize("bad", [{"a": 1, "b": 2, 3: 4}, {3: 4, "a": 1, "b": 2}, {"a": 1, None: 2}])
def test_writer_rejects_a_key_that_is_not_a_string_beside_a_cached_shape(bad):
    with pytest.raises(TypeError):
        serialize_report({"items": [{"a": 1, "b": 2}, {"b": 2, "a": 1}, bad]})


def test_writer_layouts_match_json_dumps():
    """Documents written in turn, in which the same key sets appear at other
    depths and in other insertion orders, and one of 1,500 dict shapes: each
    shape is laid out once per depth and call."""
    first = {"b": {"y": 1, "x": [2, {"b": 3, "a": 4}]}, "a": [{"x": 5, "y": 6}]}
    second = {
        "x": {"a": {"y": 7, "x": 8}, "b": [{"a": 9, "b": 10}, {"b": 11, "a": 12}]},
        "y": [{"b": {"x": 13, "y": 14}, "a": []}],
        "a": {"y": 15, "x": 16},
        "b": {},
    }
    shapes = {"items": [{f"k{i}": i, "v": [{f"k{i}": None}]} for i in range(1500)]}
    for doc in (first, second, first, [second, first], shapes, shapes):
        assert serialize_report(doc) == _json_dumps(doc)


def test_writer_matches_json_dumps_on_every_built_report(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    bundles = sorted(p for p in DATA.iterdir() if p.is_dir())
    specs = [FixtureSpec(seed=k, n_sources=k % 9, party_mix=(k % 5) / 4) for k in range(12)]
    specs.append(FixtureSpec(seed=99, n_sources=30, n_decoys=8, chain_len=(1, 6)))
    bundles += [generate(spec, tmp_path / f"fx{spec.seed}")[0] for spec in specs]
    reports = [analyze_bundle(b) for b in bundles]
    assert sum(len(r["leaks"]) for r in reports) > 50
    for report in reports:
        assert serialize_report(report) == _json_dumps(report)
    for summary in (aggregate(reports), aggregate(_hand_corpus()), aggregate([_report()])):
        assert serialize_report(summary) == _json_dumps(summary)
        write_summary(summary, tmp_path / "summary.json")
        assert (tmp_path / "summary.json").read_text(encoding="utf-8") == _json_dumps(summary)


def test_writer_peak_memory_above_the_document_is_bounded(tmp_path):
    """Writing a 400-source report allocates at most 2.56 times its text at peak.

    On this fixture (0.83 MB of text) the writer of commit 7610a9e peaked
    at 2.87 times the text above the document, mostly for a set that held
    the id of every container beside the memo. A writer that joined each
    leak's path lists into texts of their own, and memoised them, read
    2.61-2.62; joining every dict from its list values' items reads
    2.50-2.51. The peak cannot fall below twice the text, because the
    final join holds its parts and its result at once.
    """
    bundle, _ = generate(FixtureSpec(seed=1, n_sources=400, n_decoys=40), tmp_path / "fx")
    doc = analyze_bundle(bundle)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        text = serialize_report(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 800_000
    assert (peak - before) / len(text) <= 2.56


# analyze one bundle in a fresh interpreter, then print the report's length
# and how far one serialize_report raised the process's peak resident size
_RSS_PROBE = """\
import gc, resource, sys
from uitaint.pipeline import analyze_bundle
from uitaint.report import serialize_report
doc = analyze_bundle(sys.argv[1])
gc.collect()
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
text = serialize_report(doc)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(len(text), (after - before) * 1024)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_writer_resident_growth_is_below_twice_the_text(tmp_path):
    """Writing a 1,600-leak report grows the peak resident size by at most
    twice its text (2.78 MB).

    A writer that joins the leak list into a text of its own and then
    copies that text into the document holds the freed leak texts, the
    list text and the document at once: 2.70 times the text on CPython
    3.11. Joining the document from the leak texts read 1.79.
    """
    bundle = write_hub_bundle(tmp_path / "hub", 40, 40)
    path = [str(Path(uitaint.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    # Linux starts a child's ru_maxrss at its parent's peak, and pytest's is
    # above the probe's, so a small interpreter starts the probe
    start = "import subprocess, sys; subprocess.run(sys.argv[1:], check=True)"
    probe = [sys.executable, "-c", _RSS_PROBE, str(bundle)]
    out = subprocess.run([sys.executable, "-c", start, *probe], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    size, growth = map(int, out.stdout.split())
    assert size > 2_500_000
    ratio = growth / size
    assert ratio <= 2.0, f"one serialize_report grew ru_maxrss by {ratio:.2f} times the text"


def test_write_atomic_peak_memory_is_a_slice_of_the_text(tmp_path):
    """Writing a 1,600-leak report (2.78 MB) allocates below 0.1 times its
    text at peak, since the text is encoded one slice at a time. It reads
    0.05; encoding the whole text at once, as Path.write_text does, read
    1.00 (tracemalloc, Python 3.11.7)."""
    text = serialize_report(analyze_bundle(write_hub_bundle(tmp_path / "hub", 40, 40)))
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_atomic(out, text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.read_text(encoding="utf-8") == text
    assert (peak - before) / len(text) < 0.1


# ---------------------------------------------------------------------------
# shared parts of the report document


def test_report_shares_one_object_per_path_statement_source_and_sink(tmp_path):
    doc = analyze_bundle(write_hub_bundle(tmp_path / "hub"))
    leaks = doc["leaks"]
    assert len(leaks) == 6
    assert len({id(lk["source"]) for lk in leaks}) == 2
    assert len({id(lk["sink"]) for lk in leaks}) == 3
    steps: dict[tuple, list] = {}
    texts: dict[tuple, str] = {}
    for lk in leaks:
        for other in leaks:
            assert (lk["source"] is other["source"]) == (lk["source"] == other["source"])
            assert (lk["sink"] is other["sink"]) == (lk["sink"] == other["sink"])
        assert lk["source"]["stmt"] == lk["path"][0] and lk["sink"]["stmt"] == lk["path"][-1]
        for step, text in zip(lk["path"], lk["path_text"]):
            assert steps.setdefault(tuple(step), step) is step
            assert texts.setdefault(tuple(step), text) is text
    assert len(steps) == 2 * 2 + 3 * 2  # findViewById and write per source, read and Log.d per sink
    assert serialize_report(doc) == _json_dumps(doc)


def test_path_texts_are_each_statements_own_rendering(tmp_path):
    """Every step's text renders its own statement, also in a bundle where
    many statements repeat one line and so render to one text."""
    spec = FixtureSpec(seed=7, n_sources=60, n_decoys=6, chain_len=(1, 4))
    for app in (PANIC, generate(spec, tmp_path / "fx")[0]):
        bundle = parse_bundle(app)
        leaks = analyze_bundle(app)["leaks"]
        steps = {tuple(step) for lk in leaks for step in lk["path"]}
        texts = {text for lk in leaks for text in lk["path_text"]}
        assert app == PANIC or len(texts) < len(steps) / 2
        for lk in leaks:
            assert lk["path_text"] == [
                render_statement(bundle.statement(StmtId(*step))) for step in lk["path"]
            ]


def test_report_shares_one_sink_dict_per_statement_and_signature_across_categories(tmp_path):
    sinks = tmp_path / "sinks.tsv"
    sinks.write_text(f"log\t{HUB_LOG}\t*\nnet\t{HUB_LOG}\t*\n")
    doc = analyze_bundle(write_hub_bundle(tmp_path / "hub"), sinks=str(sinks))
    leaks = doc["leaks"]
    assert len(leaks) == 2 * 3 * 2  # sources x Log.d statements x categories
    assert {lk["destination"] for lk in leaks} == {"log", "net"}
    assert len({id(lk["sink"]) for lk in leaks}) == 3
    for a, b in itertools.product(leaks, repeat=2):
        assert (a["sink"] is b["sink"]) == (a["sink"] == b["sink"])
    assert serialize_report(doc) == _json_dumps(doc)


# ---------------------------------------------------------------------------
# memory held while one bundle is analyzed and its report written


def test_no_taint_graph_is_alive_while_the_report_is_built(monkeypatch):
    alive = []

    def emit(bundle, *rest):
        gc.collect()
        alive.append(
            sum(1 for o in gc.get_objects() if type(o) is TaintGraph and o.bundle is bundle)
        )
        return emit_report(bundle, *rest)

    monkeypatch.setattr(pipeline, "emit_report", emit)
    assert pipeline.analyze_bundle(PANIC)["leaks"]
    assert alive == [0]


def test_an_analysis_and_its_report_leave_no_reference_cycle(tmp_path):
    """Everything one analysis and its report allocate is freed by
    reference counting alone, so no garbage waits for the collector."""
    bundle, _ = generate(FixtureSpec(seed=7, n_sources=40, n_decoys=4), tmp_path / "fx")
    serialize_report(analyze_bundle(bundle))  # config memos and regex caches
    gc.collect()
    gc.disable()
    try:
        serialize_report(analyze_bundle(bundle))
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def analysis_peaks(tmp_path_factory):
    """n_sources -> (tracemalloc peak of one warm analysis and its report,
    length of the report text) for the bench's 400-source spec and twice it."""
    peaks = {}
    for n in (400, 800):
        spec = FixtureSpec(seed=7, n_sources=n, n_decoys=n // 10)
        bundle, _ = generate(spec, tmp_path_factory.mktemp(f"fx{n}"))
        serialize_report(analyze_bundle(bundle))
        gc.collect()
        tracemalloc.start()
        try:
            text = serialize_report(analyze_bundle(bundle))
            peaks[n] = tracemalloc.get_traced_memory()[1], len(text)
        finally:
            tracemalloc.stop()
    return peaks


def test_analysis_peak_memory_is_bounded_by_the_report_text(analysis_peaks):
    """The graph is freed before the report is built: 4.7 times the text at
    peak against 6.1 with the graph alive beside the document (Python 3.11)."""
    peak, length = analysis_peaks[400]
    assert length > 800_000
    assert peak / length <= 5.4


def test_analysis_peak_memory_grows_linearly_with_the_bundle(analysis_peaks):
    assert analysis_peaks[800][0] / analysis_peaks[400][0] <= 2.2


# ---------------------------------------------------------------------------
# aggregation


def _hand_corpus():
    """Five apps with (first, third) = (0,0), (1,0), (0,1), (1,1), (200,120)."""
    return [
        _report(),
        _report([_leak("first", "net")]),
        _report([_leak("third", "log")]),
        _report([_leak("first", "localstore"), _leak("third", "fileio")]),
        _report(
            [_leak("first", "net") for _ in range(200)]
            + [_leak("third", "net", "phone") for _ in range(120)]
        ),
    ]


def test_leak_stats_match_hand_computation():
    stats = aggregate(_hand_corpus())["leak_stats"]
    assert stats["all_apps"]["apps"] == 5
    assert stats["all_apps"]["total"] == {"median": 1, "average": 64.80, "max": 320}
    assert stats["all_apps"]["first"] == {"median": 1, "average": 40.40, "max": 200}
    assert stats["all_apps"]["third"] == {"median": 1, "average": 24.40, "max": 120}
    assert stats["leaking_apps"]["apps"] == 4
    assert stats["leaking_apps"]["total"] == {"median": 1, "average": 81.00, "max": 320}
    assert stats["leaking_apps"]["first"] == {"median": 1, "average": 50.50, "max": 200}
    assert stats["leaking_apps"]["third"] == {"median": 1, "average": 30.50, "max": 120}


def test_lower_median_not_interpolated():
    reports = [_report([_leak()] * n) for n in (1, 2, 3, 4)]
    stats = aggregate(reports)["leak_stats"]
    # statistics.median would say 2.5; the lower median is 2
    assert stats["all_apps"]["total"]["median"] == 2


def test_destination_table_counts_leaks_and_parties():
    summary = aggregate(_hand_corpus())
    by_dest = {row["destination"]: row for row in summary["destinations"]}
    assert set(by_dest) == {"net", "localstore", "log", "fileio"}
    assert by_dest["net"]["leaks"] == 321
    assert by_dest["net"]["first"] == 201 and by_dest["net"]["third"] == 120
    assert by_dest["net"]["pct_of_leaks"] == round(100 * 321 / 324, 2)
    assert by_dest["localstore"]["leaks"] == 1
    assert sum(r["leaks"] for r in summary["destinations"]) == summary["total_leaks"] == 324


def test_pi_by_destination_counts_apps_once():
    reports = [
        _report([_leak("first", "net", "email")] * 3),     # one app, 3 identical
        _report([_leak("third", "net", "email"),
                 _leak("first", "log", "email")]),
    ]
    summary = aggregate(reports)
    rows = {r["pi"]: r for r in summary["pi_by_destination"]}
    assert len(summary["pi_by_destination"]) == 17
    assert rows["email"]["net"] == 2       # both apps, each counted once
    assert rows["email"]["log"] == 1
    assert rows["email"]["total"] == 3
    assert rows["phone"]["total"] == 0


def test_prevalence_merges_name_kinds():
    reports = [
        _report(views=[{"view_class": "EditText", "pi_kind": "first_name"}]),
        _report(views=[{"view_class": "EditText", "pi_kind": "last_name"},
                       {"view_class": "EditText", "pi_kind": "email"}]),
        _report(),
    ]
    summary = aggregate(reports)
    rows = {r["pi"]: r for r in summary["prevalence"]}
    assert len(summary["prevalence"]) == 16  # name merged, zero rows kept
    assert rows["name"]["apps_collecting"] == 2
    assert rows["name"]["fraction"] == round(2 / 3, 4)
    assert rows["email"]["apps_collecting"] == 1
    assert rows["ssn"]["apps_collecting"] == 0


def test_view_types_shares_and_top_kinds():
    reports = [
        _report(views=[{"view_class": "EditText", "pi_kind": "email"},
                       {"view_class": "EditText", "pi_kind": "phone"}]),
        _report(views=[{"view_class": "EditText", "pi_kind": "email"},
                       {"view_class": "Switch", "pi_kind": "gender"}]),
    ]
    summary = aggregate(reports)
    assert [r["view_class"] for r in summary["view_types"]] == ["EditText", "Switch"]
    edit = summary["view_types"][0]
    assert edit["views"] == 3 and edit["share"] == 0.75
    assert edit["top_pi"] == "email:2;phone:1"


def test_aggregate_is_order_invariant():
    corpus = _hand_corpus()
    docs = [
        aggregate(list(perm))
        for perm in itertools.permutations(corpus)
    ]
    assert all(d == docs[0] for d in docs)


def test_aggregate_rejects_empty():
    with pytest.raises(EmptyCorpus):
        aggregate([])


def test_zero_leak_corpus_has_empty_leaking_basis(tmp_path):
    summary = aggregate([_report(), _report()])
    assert summary["total_leaks"] == 0
    assert summary["leak_stats"]["leaking_apps"] == {
        "apps": 0, "first": None, "third": None, "total": None,
    }
    export_csv(summary, tmp_path)
    rows = _rows(tmp_path / "leak_stats.csv")
    assert rows[0] == ["basis", "party", "median", "average", "max"]
    assert ["leaking_apps", "total", "", "", ""] in rows


# ---------------------------------------------------------------------------
# CSV export


def test_csv_export_round_trips_exactly(tmp_path):
    summary = aggregate(_hand_corpus())
    written = export_csv(summary, tmp_path)
    assert sorted(p.name for p in written) == [
        "destinations.csv", "leak_stats.csv", "pi_by_destination.csv",
        "prevalence.csv", "view_types.csv",
    ]

    rows = _rows(tmp_path / "leak_stats.csv")
    assert ["all_apps", "total", "1", "64.80", "320"] in rows
    assert ["leaking_apps", "first", "1", "50.50", "200"] in rows

    rows = _rows(tmp_path / "destinations.csv")
    by_dest = {r[0]: r for r in rows[1:]}
    assert by_dest["net"] == ["net", "321", "99.07", "201", "120"]

    rows = _rows(tmp_path / "pi_by_destination.csv")
    assert rows[0] == ["pi", "net", "localstore", "log", "fileio", "total"]
    assert len(rows) == 1 + 17 + 1  # header, kinds, totals
    totals = rows[-1]
    assert totals[0] == "total"
    body = [list(map(int, r[1:])) for r in rows[1:-1]]
    assert [sum(col) for col in zip(*body)] == list(map(int, totals[1:]))

    rows = _rows(tmp_path / "prevalence.csv")
    assert len(rows) == 1 + 16
    assert all(len(r) == 3 for r in rows)


def test_summary_json_is_deterministic(tmp_path):
    summary = aggregate(_hand_corpus())
    write_summary(summary, tmp_path / "one.json")
    write_summary(summary, tmp_path / "two.json")
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()
    doc = json.loads((tmp_path / "one.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["n_apps"] == 5


# The hand corpus has a zero-leak app and no labeled view, cases no pinned
# corpus of tests/test_report_bytes.py has: view_types.csv is its header
# alone and every prevalence fraction prints as 0.0000.
HAND_SHA256 = {
    "destinations.csv": "044d34dce6419c3e6e58c4eecc34da0f74201673e7eed3a2b504f466d7471442",
    "leak_stats.csv": "99b3a7fb7ac940bc186e6820169bc00787a31e83f9a27185d8dacb6bff14f322",
    "pi_by_destination.csv": "c0054fa9efcc25f559a5df9421957e52586bef499976a1cc0cf9ad8d0559973b",
    "prevalence.csv": "b60ae8d1fa8de8976993e2039ffb8097fb3218b0fe323c52be9b8fb4f6582dd4",
    "summary.json": "274deb34741f2c32e87d129891b18b22249d839195f778de23846f97a81259cc",
    "view_types.csv": "fdfe8fe749ac230945f347d536c76424a16b689ea49a65b09574cb9166d87f3c",
}


def test_hand_corpus_summary_and_csv_bytes_are_pinned(tmp_path):
    summary = aggregate(_hand_corpus())
    write_summary(summary, tmp_path / "summary.json")
    export_csv(summary, tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == HAND_SHA256
    assert _rows(tmp_path / "view_types.csv") == [["view_class", "views", "share", "top_pi"]]
    assert {row[2] for row in _rows(tmp_path / "prevalence.csv")[1:]} == {"0.0000"}


@pytest.mark.parametrize("corpus", ["hand", "zero_leak", "data"])
def test_aggregate_reads_its_reports_once(corpus):
    reports = {
        "hand": _hand_corpus,
        "zero_leak": lambda: [_report(), _report()],
        "data": lambda: [analyze_bundle(b) for b in sorted(DATA.iterdir())],
    }[corpus]()
    assert aggregate(iter(reports)) == aggregate(reports)


def test_aggregate_rejects_an_empty_iterator():
    with pytest.raises(EmptyCorpus, match="no reports to aggregate"):
        aggregate(iter(()))


def test_aggregate_peak_memory_does_not_grow_with_the_report_count(tmp_path):
    """`uitaint aggregate` over six copies of a 0.83 MB report peaks below
    1.25 times its peak over one copy, since it holds one parsed report at
    a time and keeps only counts. It reads 1.02 times (2.81 against 2.76
    MB); keeping the last report alive while the next was parsed read
    1.72, and parsing every report before folding them 4.51 (tracemalloc,
    Python 3.11.7)."""
    bundle, _ = generate(FixtureSpec(seed=7, n_sources=400, n_decoys=40), tmp_path / "fx")
    text = serialize_report(analyze_bundle(bundle))
    assert len(text) > 800_000
    peaks = {}
    for copies in (1, 1, 6):  # the first run warms imports and caches
        reports = tmp_path / f"reports{copies}"
        reports.mkdir(exist_ok=True)
        for k in range(copies):
            (reports / f"app{k}.json").write_text(text, encoding="utf-8")
        tracemalloc.start()
        try:
            assert main(["aggregate", "--reports", str(reports), "--out", str(tmp_path / "s")]) == 0
            peaks[copies] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[6] / peaks[1] < 1.25, f"six copies peaked at {peaks[6] / peaks[1]:.2f} times one"


def test_aggregate_reads_only_the_keys_parse_report_checks(tmp_path, monkeypatch):
    """Reports cut down to schema_version and the checked keys of each leak
    and view give the same summary and CSV bytes as the full reports, so
    aggregate reads no key that parse_report does not check."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    apps = tmp_path / "apps"
    for seed in (1, 7, 29):
        assert main(["gen-fixtures", "--seed", str(seed), "--out", str(apps)]) == 0
    for bundle in DATA.iterdir():
        shutil.copytree(bundle, apps / bundle.name)
    full, cut = tmp_path / "full", tmp_path / "cut"
    assert main(["corpus", "--apps", str(apps), "--out", str(full)]) == 0
    cut.mkdir()
    for path in full.iterdir():
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc = {"schema_version": doc["schema_version"]} | {
            section: [{key: item[key] for key in checks} for item in doc[section]]
            for section, checks in _ITEM_CHECKS.items()
        }
        (cut / path.name).write_text(json.dumps(doc), encoding="utf-8")
    texts = []
    for reports in (full, cut):
        out = tmp_path / f"summary_{reports.name}"
        assert main(["aggregate", "--reports", str(reports), "--out", str(out)]) == 0
        texts.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert len(texts[0]) == 6 and texts[0] == texts[1]
    summary = json.loads(texts[0]["summary.json"])
    assert summary["total_leaks"] > 0 and summary["view_types"]
