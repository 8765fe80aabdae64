"""End-to-end command line tests driven through main(argv)."""

from __future__ import annotations

import json

import pytest

from uitaint.cli import main
from conftest import DATA

PANIC = DATA / "panic_shield"
KEEP = DATA / "keep_yoga"


@pytest.fixture(autouse=True)
def _pin_clock(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")


def _gen_corpus(tmp_path, n=3, seed=300):
    apps = tmp_path / "apps"
    rc = main(["gen-fixtures", "--seed", str(seed), "--count", str(n),
               "--out", str(apps)])
    assert rc == 0
    return apps


# ---------------------------------------------------------------------------
# analyze


def test_analyze_writes_report_file(tmp_path, capsys):
    out = tmp_path / "panic.json"
    rc = main(["analyze", "--app", str(PANIC), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["app_package"] == "com.panic.shield"
    assert len(doc["leaks"]) == 1
    # diagnostics line goes to stderr, not into the report
    assert "1 leak" in capsys.readouterr().err


def test_analyze_stdout_default(capsys):
    rc = main(["analyze", "--app", str(KEEP)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["leaks"][0]["party"] == "third"


def test_analyze_missing_manifest_exits_2(tmp_path, capsys):
    (tmp_path / "code").mkdir()
    rc = main(["analyze", "--app", str(tmp_path)])
    assert rc == 2
    assert "MissingManifest" in capsys.readouterr().err


def test_analyze_bad_config_path_exits_2(tmp_path, capsys):
    rc = main(["analyze", "--app", str(PANIC),
               "--sinks", str(tmp_path / "nope.tsv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "nope.tsv" in err


def test_analyze_malformed_sinks_exits_2(tmp_path, capsys):
    bad = tmp_path / "sinks.tsv"
    bad.write_text("net\tnot a signature\trecv\n")
    rc = main(["analyze", "--app", str(PANIC), "--sinks", str(bad)])
    assert rc == 2
    assert "SinkSyntaxError" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gen-fixtures


def test_gen_fixtures_count_makes_sibling_bundles(tmp_path, capsys):
    apps = _gen_corpus(tmp_path, n=3, seed=300)
    listed = capsys.readouterr().out.splitlines()
    dirs = sorted(p.name for p in apps.iterdir())
    assert dirs == ["fx00000300", "fx00000301", "fx00000302"]
    assert [line.rsplit("/", 1)[-1] for line in listed] == dirs
    for d in apps.iterdir():
        assert (d / "manifest.xml").is_file()
        assert (d / "ground_truth.tsv").is_file()


def test_gen_fixtures_spec_file(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"seed": 17, "n_sources": 2, "n_decoys": 0}))
    rc = main(["gen-fixtures", "--spec", str(spec), "--out", str(tmp_path / "o")])
    assert rc == 0
    bundle = tmp_path / "o" / "fx00000017"
    truth_lines = (bundle / "ground_truth.tsv").read_text().splitlines()
    assert len(truth_lines) == 2


def test_gen_fixtures_seed_overrides_spec(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"seed": 17}))
    rc = main(["gen-fixtures", "--spec", str(spec), "--seed", "400",
               "--out", str(tmp_path / "o")])
    assert rc == 0
    assert (tmp_path / "o" / "fx00000400").is_dir()


def test_gen_fixtures_invalid_spec_exits_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"seed": 1, "party_mix": 7}))
    rc = main(["gen-fixtures", "--spec", str(spec), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "InvalidSpec" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# corpus + aggregate


def test_corpus_then_aggregate(tmp_path, capsys):
    apps = _gen_corpus(tmp_path)
    reports = tmp_path / "reports"
    rc = main(["corpus", "--apps", str(apps), "--out", str(reports)])
    assert rc == 0
    names = sorted(p.name for p in reports.glob("*.json"))
    assert names == ["fx00000300.json", "fx00000301.json", "fx00000302.json"]

    out = tmp_path / "summary"
    rc = main(["aggregate", "--reports", str(reports), "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_apps"] == 3
    for name in ("leak_stats", "destinations", "pi_by_destination",
                 "prevalence", "view_types"):
        assert (out / f"{name}.csv").is_file()


def test_corpus_parallel_matches_serial(tmp_path):
    apps = _gen_corpus(tmp_path)
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert main(["corpus", "--apps", str(apps), "--out", str(serial)]) == 0
    assert main(["corpus", "--apps", str(apps), "--out", str(parallel),
                 "-j", "3"]) == 0
    for p in sorted(serial.glob("*.json")):
        assert p.read_bytes() == (parallel / p.name).read_bytes()


def test_corpus_more_jobs_than_bundles_runs_in_process(tmp_path, monkeypatch):
    apps = _gen_corpus(tmp_path, n=1)
    serial = tmp_path / "serial"
    assert main(["corpus", "--apps", str(apps), "--out", str(serial)]) == 0

    def no_pool(*args, **kwargs):
        raise AssertionError("one bundle needs no worker pool")

    monkeypatch.setattr("uitaint.cli.ProcessPoolExecutor", no_pool)
    wide = tmp_path / "wide"
    assert main(["corpus", "--apps", str(apps), "--out", str(wide), "-j", "4"]) == 0
    (report,) = serial.glob("*.json")
    assert report.read_bytes() == (wide / report.name).read_bytes()


def test_corpus_empty_dir_exits_2(tmp_path, capsys):
    (tmp_path / "apps").mkdir()
    rc = main(["corpus", "--apps", str(tmp_path / "apps"),
               "--out", str(tmp_path / "r")])
    assert rc == 2
    assert "EmptyCorpus" in capsys.readouterr().err


def test_aggregate_empty_dir_exits_2(tmp_path, capsys):
    (tmp_path / "reports").mkdir()
    rc = main(["aggregate", "--reports", str(tmp_path / "reports"),
               "--out", str(tmp_path / "s")])
    assert rc == 2
    assert "EmptyCorpus" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# explain


def _panic_report(tmp_path):
    out = tmp_path / "panic.json"
    assert main(["analyze", "--app", str(PANIC), "--out", str(out)]) == 0
    return out


def test_explain_prints_witness_trace(tmp_path, capsys):
    report = _panic_report(tmp_path)
    capsys.readouterr()
    rc = main(["explain", "--report", str(report), "--leak", "0"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("SOURCE")
    assert lines[-1].startswith("SINK")
    body = lines[1:-1]
    assert len(body) == 3  # findViewById, copy, putString
    assert all(line.endswith(" =>") for line in body[:-1])
    assert "putString" in body[-1]
    assert "findViewById" in body[0]


def test_explain_bad_index_exits_2(tmp_path, capsys):
    report = _panic_report(tmp_path)
    capsys.readouterr()
    rc = main(["explain", "--report", str(report), "--leak", "99"])
    assert rc == 2
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize("epoch", ["abc", "99999999999999999999"])
def test_bad_source_date_epoch_exits_2(monkeypatch, capsys, epoch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    rc = main(["analyze", "--app", str(PANIC)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"BadEnvironment: SOURCE_DATE_EPOCH='{epoch}'" in err
    assert "Traceback" not in err
