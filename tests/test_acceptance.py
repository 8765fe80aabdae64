"""Acceptance gate: the eight shipping criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines.
Every criterion is asserted at its stated tolerance; a failure prints the
FAIL line and then surfaces as an ordinary pytest failure.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

from uitaint.cli import main as cli_main
from uitaint.fixtures import FixtureSpec, detected_tuples, generate
from uitaint.gui import ViewElement
from uitaint.pi import load_default_lexicon, classify
from uitaint.pipeline import analyze_bundle
from uitaint.report import aggregate
from uitaint.sources_sinks import load_default_sinks, resolve_sources
from uitaint.taint import build_graph, classify_package, extract_leaks
from conftest import (
    DATA,
    enumerate_min_paths,
    mini_labeled_views,
    random_mini_bundle,
)

PANIC = DATA / "panic_shield"
KEEP = DATA / "keep_yoga"
SINKS = load_default_sinks()


@contextmanager
def criterion(num: int, desc: str):
    info = {"note": ""}
    try:
        yield info
    except BaseException:
        print(f"FAIL: criterion {num} — {desc}")
        raise
    print(f"PASS: criterion {num} — {desc}{info['note']}")


# ---------------------------------------------------------------------------
# 1. first-party golden trace


def test_criterion_1_first_party_golden_trace():
    with criterion(1, "first-party golden trace (mental health -> local store)") as info:
        t0 = time.monotonic()
        report = analyze_bundle(PANIC)
        elapsed = time.monotonic() - t0

        (leak,) = report["leaks"]
        assert leak["pi_kind"] == "mental_health"
        assert leak["pi_category"] == "medical"
        assert leak["party"] == "first"
        assert leak["destination"] == "localstore"
        assert "putString" in leak["path_text"][-1]
        assert elapsed < 1.0
        info["note"] = f" ({elapsed:.3f}s)"


# ---------------------------------------------------------------------------
# 2. third-party golden trace


def test_criterion_2_third_party_golden_trace():
    with criterion(2, "third-party golden trace via io.branch relay") as info:
        t0 = time.monotonic()
        report = analyze_bundle(KEEP)
        elapsed = time.monotonic() - t0

        (leak,) = report["leaks"]
        assert leak["party"] == "third"
        assert leak["destination"] == "localstore"
        assert leak["sink"]["stmt"][0].startswith("io.branch.")
        assert elapsed < 1.0
        info["note"] = f" ({elapsed:.3f}s)"


# ---------------------------------------------------------------------------
# 3. classifier conformance on adjacent terms


ADJACENT_TERMS = [
    ("surgery", "medical_history"),
    ("allergy", "medical_history"),
    ("prescription", "medication"),
    ("dosage", "medication"),
    ("dose", "medication"),
    ("drug", "medication"),
    ("glucose", "blood"),
    ("cholesterol", "blood"),
    ("oxygen", "blood"),
    ("pressure", "blood"),
    ("stress", "mental_health"),
    ("panic", "mental_health"),
    ("anxiety", "mental_health"),
    ("depress", "mental_health"),
    ("weightEditText", "weight"),
    ("user_birthday_button", "age"),
]


def test_criterion_3_classifier_conformance():
    with criterion(3, "adjacent-term classifier conformance, zero failures") as info:
        lexicon = load_default_lexicon()
        failures = []
        for id_name, want in ADJACENT_TERMS:
            view = ViewElement("EditText", id_name, 1, None, None, "a.xml")
            got = classify(view, lexicon)
            if got != want:
                failures.append((id_name, want, got))
        assert not failures, failures
        info["note"] = f" ({len(ADJACENT_TERMS)} terms)"


# ---------------------------------------------------------------------------
# 4. shortest-path witnesses vs exhaustive enumeration


def test_criterion_4_shortest_path_correctness():
    desc = "BFS witnesses equal exhaustive minima on 1000 random programs"
    with criterion(4, desc) as info:
        t0 = time.monotonic()
        pairs = 0
        for seed in range(1000):
            rng = random.Random(seed)
            bundle = random_mini_bundle(rng)
            sources, _ = resolve_sources(bundle, mini_labeled_views())
            graph = build_graph(bundle, sources, SINKS)
            leaks = extract_leaks(graph)

            total = 0
            for sp, seed_node in graph.seeds.items():
                oracle = enumerate_min_paths(graph, seed_node, (sp.stmt,))
                got = {
                    (lk.sink_stmt, lk.sink_spec): lk.path
                    for lk in leaks
                    if lk.source == sp
                }
                assert got == oracle, f"seed {seed}: mismatch for {sp.stmt}"
                total += len(oracle)
            # one leak per (source, sink, spec) pair, nothing double-counted
            assert len(leaks) == total, f"seed {seed}: duplicate or missing leaks"
            pairs += total
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0
        info["note"] = f" ({pairs} pairs, {elapsed:.1f}s)"


# ---------------------------------------------------------------------------
# 5. oracle corpus: 200 generated fixtures


def _mixed_specs(n=200, base_seed=5000):
    pi_cycle = [
        None,
        {"email": 2, "phone": 1},
        {"ssn": 1},
        {"mental_health": 1, "blood": 2},
        {"gender": 1, "smoke_alcohol": 1},
    ]
    dest_cycle = [None, {"net": 1}, {"log": 2, "fileio": 1}, {"localstore": 1}]
    return [
        FixtureSpec(
            seed=base_seed + k,
            n_sources=1 + k % 7,
            pi_mix=pi_cycle[k % len(pi_cycle)],
            party_mix=(k % 5) / 4,
            destination_mix=dest_cycle[k % len(dest_cycle)],
            n_decoys=k % 6,
            chain_len=(1, 1 + k % 4),
        )
        for k in range(n)
    ]


def test_criterion_5_oracle_corpus(tmp_path):
    desc = "200-fixture oracle corpus: recall 100%, zero extras"
    with criterion(5, desc) as info:
        t0 = time.monotonic()
        planted = 0
        for k, spec in enumerate(_mixed_specs()):
            bundle, truth = generate(spec, tmp_path / f"fx{k:03d}")
            report = analyze_bundle(bundle)
            detected = detected_tuples(report)
            want = set(truth)
            assert detected >= want, f"fixture {k}: missed {want - detected}"
            assert detected <= want, f"fixture {k}: extras {detected - want}"
            planted += len(want)
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0
        info["note"] = f" ({planted} planted leaks, {elapsed:.1f}s)"


# ---------------------------------------------------------------------------
# 6. party attribution matrix


PARTY_CASES = [
    ("com.gotokeep.yoga.intl", "first"),
    ("com.gotokeep.yoga.intl.ui", "first"),
    ("com.gotokeep.yoga", "first"),
    ("com.gotokeep", "first"),
    ("com.gotokeep.analytics", "first"),
    ("com.gotokeeper", "third"),
    ("com.gotokeep2.yoga", "third"),
    ("io.branch", "third"),
    ("io.branch.ref", "third"),
    ("io.branch.referral.util", "third"),
    ("com.facebook.ads", "third"),
    ("com.google.gson", "third"),
    ("com.unity3d.ads", "third"),
    ("org.json", "third"),
    ("", "third"),
    ("android", "platform"),
    ("android.app", "platform"),
    ("androidx", "platform"),
    ("androidx.core.widget", "platform"),
    ("java.lang", "platform"),
    ("java.io", "platform"),
    ("javax.crypto", "platform"),
    ("kotlin.jvm", "platform"),
    ("kotlinx.coroutines", "platform"),
    ("dalvik.system", "platform"),
]


def test_criterion_6_party_attribution_matrix():
    desc = "package party matrix for com.gotokeep.yoga.intl, zero failures"
    with criterion(6, desc) as info:
        assert len(PARTY_CASES) >= 20
        app = "com.gotokeep.yoga.intl"
        failures = [
            (pkg, want, classify_package(pkg, app))
            for pkg, want in PARTY_CASES
            if classify_package(pkg, app) != want
        ]
        assert not failures, failures
        info["note"] = f" ({len(PARTY_CASES)} cases)"


# ---------------------------------------------------------------------------
# 7. aggregation semantics


def _leak(party, destination, pi_kind="email"):
    return {"party": party, "destination": destination, "pi_kind": pi_kind}


def _report(leaks=(), views=()):
    return {"app_package": "com.x.y", "leaks": list(leaks), "views": list(views)}


def test_criterion_7_aggregation_semantics():
    desc = "hand-checked aggregation: lower median, apps counted once"
    with criterion(7, desc):
        reports = [
            _report(),
            _report([_leak("first", "net")]),
            _report([_leak("third", "log")]),
            _report([_leak("first", "localstore"), _leak("third", "fileio")]),
            _report(
                [_leak("first", "net") for _ in range(200)]
                + [_leak("third", "net", "phone") for _ in range(120)]
            ),
        ]
        stats = aggregate(reports)["leak_stats"]
        # per-app totals 0, 1, 1, 2, 320
        assert stats["all_apps"]["total"] == {"median": 1, "average": 64.80, "max": 320}
        assert stats["all_apps"]["first"] == {"median": 1, "average": 40.40, "max": 200}
        assert stats["all_apps"]["third"] == {"median": 1, "average": 24.40, "max": 120}
        assert stats["leaking_apps"]["apps"] == 4
        assert stats["leaking_apps"]["total"] == {
            "median": 1, "average": 81.00, "max": 320,
        }

        # lower-median convention on an even-sized basis: [1, 2, 3, 4] -> 2
        even = [_report([_leak("first", "net")] * n) for n in (1, 2, 3, 4)]
        assert aggregate(even)["leak_stats"]["all_apps"]["total"]["median"] == 2

        # an app with many paths for one PI-destination pair counts once
        multi = [
            _report([_leak("first", "net", "email")] * 3),
            _report([_leak("third", "net", "email")]),
        ]
        rows = {r["pi"]: r for r in aggregate(multi)["pi_by_destination"]}
        assert rows["email"]["net"] == 2
        assert rows["email"]["total"] == 2


# ---------------------------------------------------------------------------
# 8. determinism


def test_criterion_8_determinism(tmp_path, monkeypatch):
    desc = "byte-identical reports and CSVs across reruns and parallelism"
    with criterion(8, desc) as info:
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        apps = tmp_path / "apps"
        rc = cli_main(
            ["gen-fixtures", "--seed", "8800", "--count", "6", "--out", str(apps)]
        )
        assert rc == 0

        runs = {}
        for name, jobs in (("base", 1), ("rerun", 1), ("par", 3)):
            reports = tmp_path / f"reports_{name}"
            summary = tmp_path / f"summary_{name}"
            assert cli_main(
                ["corpus", "--apps", str(apps), "--out", str(reports),
                 "-j", str(jobs)]
            ) == 0
            assert cli_main(
                ["aggregate", "--reports", str(reports), "--out", str(summary)]
            ) == 0
            runs[name] = (reports, summary)

        base_reports, base_summary = runs["base"]
        report_names = sorted(p.name for p in base_reports.glob("*.json"))
        summary_names = sorted(p.name for p in base_summary.iterdir())
        assert len(report_names) == 6
        for name in ("rerun", "par"):
            reports, summary = runs[name]
            assert sorted(p.name for p in reports.glob("*.json")) == report_names
            assert sorted(p.name for p in summary.iterdir()) == summary_names
            for fname in report_names:
                assert (base_reports / fname).read_bytes() == (
                    reports / fname
                ).read_bytes(), f"{name}: {fname} differs"
            for fname in summary_names:
                assert (base_summary / fname).read_bytes() == (
                    summary / fname
                ).read_bytes(), f"{name}: {fname} differs"
        info["note"] = " (6 apps, 3 runs)"
