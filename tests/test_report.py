"""Report document and corpus aggregation tests."""

from __future__ import annotations

import csv
import itertools
import json

import pytest

from uitaint.errors import EmptyCorpus
from uitaint.pipeline import analyze_bundle
from uitaint.report import (
    aggregate,
    export_csv,
    serialize_report,
    write_summary,
)
from conftest import DATA

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
