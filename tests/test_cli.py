"""End-to-end command line tests driven through main(argv)."""

from __future__ import annotations

import importlib
import json
import os
import shutil
import sys
from collections import Counter
from pathlib import Path

import pytest

import uitaint
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


def test_analyze_code_directory_named_like_a_file_exits_2(tmp_path, capsys):
    app = tmp_path / "app"
    shutil.copytree(PANIC, app)
    (app / "code" / "D.jtac").mkdir()
    assert main(["analyze", "--app", str(app)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"IsADirectoryError: [Errno 21] Is a directory: '{app / 'code' / 'D.jtac'}'"]


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


@pytest.mark.parametrize("fail", ["write", "rename"])
def test_failed_report_write_leaves_the_old_report(tmp_path, monkeypatch, fail):
    out = tmp_path / "reports" / "panic.json"
    out.parent.mkdir()
    out.write_text("old report\n")
    if fail == "write":  # a lone surrogate cannot be encoded, so the write fails midway
        monkeypatch.setattr("uitaint.report.serialize_report", lambda doc: "{\ud800}\n")
    else:
        def no_rename(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr("uitaint.report.os.replace", no_rename)
    rc = main(["analyze", "--app", str(PANIC), "--out", str(out)])
    assert rc == (1 if fail == "write" else 2)
    assert out.read_text() == "old report\n"
    assert [p.name for p in out.parent.iterdir()] == ["panic.json"]


# ---------------------------------------------------------------------------
# integers too long for int(): bad input, not an analyzer bug


@pytest.fixture
def long_int():
    """5,000 decimal digits, more than int() converts at its default limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield "1" * 5000
    sys.set_int_max_str_digits(limit)


def test_too_long_jtac_literal_exits_2_and_corpus_goes_on(tmp_path, capsys, long_int):
    apps = tmp_path / "apps"
    big = apps / "aaa_big"  # sorted before the other two bundles
    shutil.copytree(PANIC, big)
    unit = f"class com.big.Big\nmethod void m():\n  r0 = {long_int}\n"
    (big / "code" / "Big.jtac").write_text(unit)
    shutil.copytree(KEEP, apps / KEEP.name)
    shutil.copytree(PANIC, apps / PANIC.name)
    message = "IrSyntaxError: code/Big.jtac:3:8: integer literal too long"

    assert main(["analyze", "--app", str(big)]) == 2
    assert capsys.readouterr().err == message + "\n"

    reports = tmp_path / "reports"
    assert main(["corpus", "--apps", str(apps), "--out", str(reports), "-j", "1"]) == 2
    assert sorted(p.name for p in reports.iterdir()) == ["keep_yoga.json", "panic_shield.json"]
    err = capsys.readouterr().err
    assert err.splitlines()[0] == f"aaa_big: {message}"
    assert "Traceback" not in err


def test_too_long_rtable_id_exits_2(tmp_path, capsys, long_int):
    app = tmp_path / "app"
    shutil.copytree(PANIC, app)
    rtable = app / "res" / "rtable.txt"
    rtable.write_text(f"# ids\nid huge {long_int}\n")
    assert main(["analyze", "--app", str(app)]) == 2
    assert capsys.readouterr().err == f"RTableSyntaxError: {rtable}:2: id out of 32-bit range\n"


def test_too_long_sink_position_exits_2(tmp_path, capsys, long_int):
    sinks = tmp_path / "sinks.tsv"
    log_d = "<android.util.Log: int d(java.lang.String,java.lang.String)>"
    sinks.write_text(f"log\t{log_d}\targ{long_int}\n")
    assert main(["analyze", "--app", str(PANIC), "--sinks", str(sinks)]) == 2
    assert capsys.readouterr().err == (
        f"BadPosition: {sinks}:1: arg{long_int} out of range for arity 2\n"
    )


def test_too_long_spec_integer_exits_2(tmp_path, capsys, long_int):
    spec = tmp_path / "spec.json"
    spec.write_text(f'{{"seed": {long_int}}}')
    assert main(["gen-fixtures", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"InvalidSpec: bad spec file {spec}: ")
    assert "Traceback" not in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


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


def test_gen_fixtures_spec_file_may_start_with_a_byte_order_mark(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_bytes(b'\xef\xbb\xbf{"seed": 3}')
    rc = main(["gen-fixtures", "--spec", str(spec), "--out", str(tmp_path / "o")])
    assert rc == 0
    assert (tmp_path / "o" / "fx00000003" / "manifest.xml").is_file()


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


@pytest.mark.parametrize(
    "body,message",
    [
        (b"\xff\xfe", "bad spec file"),
        (b'{"seed": 1, "n_sources": "x"}', "n_sources must be an integer, got 'x'"),
        (b'{"seed": 1, "n_sources": 1e400}', "n_sources must be an integer, got inf"),
        (b'{"seed": "a"}', "seed must be an integer, got 'a'"),
        (b'{"seed": 1, "party_mix": "q"}', "party_mix must be a number, got 'q'"),
        (b"[" * 100_000, "bad spec file"),
        # each weight is finite, their total is not
        (b'{"seed": 1, "pi_mix": {"email": 1e308, "phone": 1e308}}',
         "pi_mix weights must have a finite sum"),
        (b'{"seed": 1, "destination_mix": {"net": 1.7e308, "log": 1.7e308}}',
         "destination_mix weights must have a finite sum"),
        (b'{"seed": 1, "pi_mix": {"email": 1' + b"0" * 400 + b"}}",
         "pi_mix weights must have a finite sum"),
        # the first seed is the largest there is; the second, out of range,
        # is refused before the first bundle is written
        (b'{"seed": 18446744073709551615}', "seed out of range: 18446744073709551616"),
    ],
    ids=["not-utf8", "str-count", "huge-float-count", "str-seed", "str-party-mix",
         "nested-too-deep", "pi-mix-overflows", "destination-mix-overflows",
         "int-weight-overflows", "last-seed-out-of-range"],
)
def test_gen_fixtures_bad_spec_file_exits_2(tmp_path, capsys, body, message):
    spec = tmp_path / "spec.json"
    spec.write_bytes(body)
    rc = main(["gen-fixtures", "--spec", str(spec), "--count", "2", "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("InvalidSpec: ") and message in err
    assert "Traceback" not in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_gen_fixtures_count_below_one_is_a_usage_error(tmp_path, capsys):
    rc = main(["gen-fixtures", "--seed", "1", "--count", "0", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == "UsageError: --count must be >= 1, got 0\n"


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

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    wide = tmp_path / "wide"
    assert main(["corpus", "--apps", str(apps), "--out", str(wide), "-j", "4"]) == 0
    (report,) = serial.glob("*.json")
    assert report.read_bytes() == (wide / report.name).read_bytes()


def _count_config_loads(monkeypatch, log):
    """Empty the three loaders' memos and append '<pid> <loader>' to log for
    each config file parsed from now on, in this process or a forked worker."""
    for module, name in (("gui", "load_widget_registry"), ("pi", "load_lexicon"),
                         ("sources_sinks", "load_sinks")):
        home = importlib.import_module(f"uitaint.{module}")
        getattr(home, name).cache_clear()

        def counted(*args, real=home.config_lines, name=name):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {name}\n")
            return real(*args)

        monkeypatch.setattr(home, "config_lines", counted)


def test_serial_corpus_parses_each_config_once(tmp_path, monkeypatch):
    apps = _gen_corpus(tmp_path)
    log = tmp_path / "loads.log"
    _count_config_loads(monkeypatch, log)
    assert main(["corpus", "--apps", str(apps), "--out", str(tmp_path / "r")]) == 0
    assert main(["analyze", "--app", str(PANIC), "--out", str(tmp_path / "p.json")]) == 0
    pid = os.getpid()
    assert sorted(log.read_text().splitlines()) == [
        f"{pid} load_lexicon", f"{pid} load_sinks", f"{pid} load_widget_registry",
    ]


@pytest.mark.parametrize("custom", [False, True], ids=["builtin", "flags"])
def test_every_entry_point_parses_each_config_once(tmp_path, monkeypatch, custom):
    apps = _gen_corpus(tmp_path, n=2)
    flags = _custom_config(tmp_path) if custom else []
    paths = ([str(tmp_path / n) for n in ("widgets.txt", "lexicon.tsv", "sinks.tsv")]
             if custom else [None] * 3)
    log = tmp_path / "loads.log"
    _count_config_loads(monkeypatch, log)
    for k in range(2):
        assert main(["analyze", "--app", str(PANIC), "--out", str(tmp_path / f"p{k}.json"),
                     *flags]) == 0
        assert main(["corpus", "--apps", str(apps), "--out", str(tmp_path / f"r{k}"),
                     *flags]) == 0
    uitaint.analyze_bundle(PANIC, *paths)
    assert uitaint.load_config(*paths) == (
        uitaint.load_widget_registry(paths[0]), uitaint.load_lexicon(paths[1]),
        uitaint.load_sinks(paths[2]),
    )
    if not custom:
        uitaint.default_widget_registry()
        uitaint.load_default_lexicon()
        uitaint.load_default_sinks()
    pid = os.getpid()
    assert sorted(log.read_text().splitlines()) == [
        f"{pid} load_lexicon", f"{pid} load_sinks", f"{pid} load_widget_registry",
    ]


def _custom_config(tmp_path) -> list[str]:
    """Config flags for copies of the built-in files, minus the Log.d sink."""
    data = Path(uitaint.__file__).parent / "data"
    sinks = [line for line in (data / "sinks.tsv").read_text().splitlines(keepends=True)
             if "<android.util.Log: int d(" not in line]
    (tmp_path / "sinks.tsv").write_text("".join(sinks))
    (tmp_path / "lexicon.tsv").write_text((data / "lexicon.tsv").read_text())
    (tmp_path / "widgets.txt").write_text((data / "widgets.txt").read_text())
    return ["--sinks", str(tmp_path / "sinks.tsv"), "--lexicon", str(tmp_path / "lexicon.tsv"),
            "--widgets", str(tmp_path / "widgets.txt")]


def _leak_count(reports) -> int:
    return sum(len(json.loads(p.read_text())["leaks"]) for p in reports.glob("*.json"))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_corpus_custom_config_matches_analyze(tmp_path, monkeypatch, jobs):
    apps = _gen_corpus(tmp_path)
    flags = _custom_config(tmp_path)
    single, builtin = tmp_path / "single", tmp_path / "builtin"
    single.mkdir()
    builtin.mkdir()
    for app in sorted(apps.iterdir()):
        out = f"{app.name}.json"
        assert main(["analyze", "--app", str(app), "--out", str(single / out), *flags]) == 0
        assert main(["analyze", "--app", str(app), "--out", str(builtin / out)]) == 0
    assert _leak_count(single) < _leak_count(builtin)

    log = tmp_path / "loads.log"
    _count_config_loads(monkeypatch, log)
    reports = tmp_path / "reports"
    assert main(["corpus", "--apps", str(apps), "--out", str(reports), "-j", jobs, *flags]) == 0
    names = sorted(p.name for p in single.glob("*.json"))
    assert sorted(p.name for p in reports.glob("*.json")) == names
    for name in names:
        assert (reports / name).read_bytes() == (single / name).read_bytes()
    # each process that loaded the configs parsed each file once
    loads = Counter(log.read_text().splitlines())
    assert set(loads.values()) == {1}
    assert {line.split()[1] for line in loads} == {
        "load_lexicon", "load_sinks", "load_widget_registry",
    }


def test_corpus_empty_dir_exits_2(tmp_path, capsys):
    (tmp_path / "apps").mkdir()
    rc = main(["corpus", "--apps", str(tmp_path / "apps"),
               "--out", str(tmp_path / "r")])
    assert rc == 2
    assert "EmptyCorpus" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,error",
    [("--lexicon", "LexiconSyntaxError"), ("--sinks", "SinkSyntaxError"),
     ("--widgets", "WidgetSyntaxError")],
)
def test_config_not_utf8_exits_2(tmp_path, capsys, flag, error):
    config = tmp_path / "config.txt"
    config.write_bytes(b"\xff\xfe")
    rc = main(["analyze", "--app", str(PANIC), flag, str(config)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"{error}: {config}: not UTF-8 text (invalid start byte)\n"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_corpus_jobs_below_one_exits_2(tmp_path, capsys, jobs):
    apps = _gen_corpus(tmp_path, n=1)
    capsys.readouterr()
    rc = main(["corpus", "--apps", str(apps), "--out", str(tmp_path / "r"), "-j", jobs])
    assert rc == 2
    assert capsys.readouterr().err == f"UsageError: -j must be >= 1, got {jobs}\n"
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_corpus_keeps_good_reports_when_bundles_fail(tmp_path, capsys, jobs):
    apps = _gen_corpus(tmp_path, n=1)
    (good,) = apps.iterdir()
    (apps / "nomanifest" / "code").mkdir(parents=True)
    # a copy of the good bundle plus one unit whose line 3 matches no line form
    bad = apps / "badsyntax"
    shutil.copytree(good, bad)
    (bad / "code" / "Bad.jtac").write_text("class com.bad.Bad\nmethod void m():\n  r0 = ?\n")
    expected = tmp_path / "expected.json"
    assert main(["analyze", "--app", str(good), "--out", str(expected)]) == 0
    capsys.readouterr()

    reports = tmp_path / "reports"
    rc = main(["corpus", "--apps", str(apps), "--out", str(reports), "-j", jobs])
    assert rc == 2
    assert [p.name for p in reports.iterdir()] == [f"{good.name}.json"]
    assert (reports / f"{good.name}.json").read_bytes() == expected.read_bytes()
    err = capsys.readouterr().err.splitlines()
    # one line per failed bundle, in bundle order, the same at every -j
    failures = [line for line in err if "badsyntax" in line or "nomanifest" in line]
    assert len(failures) == 2
    assert failures[0] == "badsyntax: IrSyntaxError: code/Bad.jtac:3:1: expected statement"
    assert failures[1].startswith("nomanifest: MissingManifest: ")
    assert "Traceback" not in "\n".join(err)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_corpus_removes_the_stale_report_of_a_bundle_that_now_fails(tmp_path, capsys, jobs):
    apps = tmp_path / "apps"
    shutil.copytree(DATA, apps)
    reports = tmp_path / "reports"
    assert main(["corpus", "--apps", str(apps), "--out", str(reports), "-j", jobs]) == 0
    kept = (reports / "panic_shield.json").read_bytes()
    (apps / "keep_yoga" / "code" / "PrefHelper.jtac").write_text("class a.B\nmethod void m():\n  r0 = ?\n")
    capsys.readouterr()

    assert main(["corpus", "--apps", str(apps), "--out", str(reports), "-j", jobs]) == 2
    assert sorted(p.name for p in reports.iterdir()) == ["panic_shield.json"]
    assert (reports / "panic_shield.json").read_bytes() == kept
    assert main(["aggregate", "--reports", str(reports), "--out", str(tmp_path / "s")]) == 0
    assert json.loads((tmp_path / "s" / "summary.json").read_text())["n_apps"] == 1


def test_corpus_refuses_an_out_that_holds_a_report_of_no_bundle(tmp_path, capsys, monkeypatch):
    apps = tmp_path / "apps"
    shutil.copytree(DATA, apps)
    reports = tmp_path / "reports"
    assert main(["corpus", "--apps", str(apps), "--out", str(reports)]) == 0
    before = {p.name: p.read_bytes() for p in reports.iterdir()}
    shutil.rmtree(apps / "keep_yoga")
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1800000000")  # a rewrite would change the bytes
    capsys.readouterr()

    assert main(["corpus", "--apps", str(apps), "--out", str(reports)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("UsageError: ") and "keep_yoga.json" in err
    assert {p.name: p.read_bytes() for p in reports.iterdir()} == before


def test_corpus_names_the_first_three_reports_of_no_bundle(tmp_path, capsys):
    apps = tmp_path / "apps"
    shutil.copytree(PANIC, apps / "panic_shield")
    reports = tmp_path / "reports"
    reports.mkdir()
    for name in ("a", "b", "c", "d", "panic_shield"):
        (reports / f"{name}.json").write_text("{}")
    (reports / "notes.txt").write_text("")

    assert main(["corpus", "--apps", str(apps), "--out", str(reports)]) == 2
    err = capsys.readouterr().err
    assert "a.json, b.json, c.json and 1 more" in err
    assert (reports / "panic_shield.json").read_text() == "{}"


@pytest.mark.parametrize("spelling", ["apps/reports", "apps/../apps/./reports", "symlink"])
def test_corpus_skips_its_out_directory_under_apps(tmp_path, capsys, spelling):
    apps = tmp_path / "apps"
    shutil.copytree(DATA, apps)
    if spelling == "symlink":  # apps/reports links to a directory outside apps
        (tmp_path / "elsewhere").mkdir()
        (apps / "reports").symlink_to(tmp_path / "elsewhere")
        spelling = "apps/reports"
    reports = tmp_path / spelling
    runs = []
    for _ in range(2):
        assert main(["corpus", "--apps", str(apps), "--out", str(reports)]) == 0
        assert capsys.readouterr().err.startswith("analyzed 2 bundles, 0 failed")
        runs.append({p.name: p.read_bytes() for p in reports.iterdir()})
    assert runs[0] == runs[1]
    assert sorted(runs[0]) == ["keep_yoga.json", "panic_shield.json"]


@pytest.mark.parametrize("spelling", ["reports", "reports/../reports/.", "link"])
def test_aggregate_into_its_reports_directory_skips_its_own_summary(tmp_path, capsys, spelling):
    reports = tmp_path / "reports"
    assert main(["corpus", "--apps", str(DATA), "--out", str(reports)]) == 0
    elsewhere = tmp_path / "elsewhere"
    assert main(["aggregate", "--reports", str(reports), "--out", str(elsewhere)]) == 0
    expected = {p.name: p.read_bytes() for p in elsewhere.iterdir()}
    if spelling == "link":  # --out is a symlink to --reports
        (tmp_path / "link").symlink_to(reports)
    capsys.readouterr()
    runs = []
    for _ in range(2):
        assert main(["aggregate", "--reports", str(reports), "--out", str(tmp_path / spelling)]) == 0
        assert capsys.readouterr().err.startswith("aggregated 2 reports")
        runs.append({p.name: p.read_bytes() for p in reports.iterdir()})
    assert runs[0] == runs[1]
    assert {name: runs[0][name] for name in expected} == expected
    assert sorted(set(runs[0]) - set(expected)) == ["keep_yoga.json", "panic_shield.json"]


def test_corpus_runs_again_after_aggregate_into_its_out(tmp_path, capsys):
    reports = tmp_path / "reports"
    states = []  # the directory's files after each step
    for _ in range(2):
        assert main(["corpus", "--apps", str(DATA), "--out", str(reports)]) == 0
        states.append({p.name: p.read_bytes() for p in reports.iterdir()})
        assert main(["aggregate", "--reports", str(reports), "--out", str(reports)]) == 0
        assert capsys.readouterr().err.splitlines()[-1].startswith("aggregated 2 reports")
        states.append({p.name: p.read_bytes() for p in reports.iterdir()})
    reports_only = ["keep_yoga.json", "panic_shield.json"]
    assert sorted(states[0]) == reports_only
    assert states[1] == states[2] == states[3]
    assert {name: states[1][name] for name in reports_only} == states[0]
    assert "summary.json" in states[1]


def test_aggregate_into_its_reports_directory_keeps_a_report_named_summary(tmp_path, capsys):
    apps = tmp_path / "apps"
    shutil.copytree(DATA / "keep_yoga", apps / "summary")
    shutil.copytree(DATA / "panic_shield", apps / "panic_shield")
    reports = tmp_path / "reports"
    assert main(["corpus", "--apps", str(apps), "--out", str(reports)]) == 0
    before = {p.name: p.read_bytes() for p in reports.iterdir()}
    assert sorted(before) == ["panic_shield.json", "summary.json"]
    capsys.readouterr()
    assert main(["aggregate", "--reports", str(reports), "--out", str(reports)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert "UsageError" in line and str(reports / "summary.json") in line
    assert {p.name: p.read_bytes() for p in reports.iterdir()} == before


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_corpus_writes_other_reports_after_an_analyzer_bug(tmp_path, capsys, monkeypatch, jobs):
    apps = _gen_corpus(tmp_path)
    (apps / "nomanifest").mkdir()
    expected = tmp_path / "expected"
    assert main(["corpus", "--apps", str(apps), "--out", str(expected)]) == 2
    real = uitaint.pipeline.analyze_bundle

    def buggy(app_dir, *config_paths):
        if Path(app_dir).name == "fx00000301":
            raise RuntimeError("boom")
        return real(app_dir, *config_paths)

    monkeypatch.setattr("uitaint.pipeline.analyze_bundle", buggy)  # forked workers inherit it
    capsys.readouterr()
    reports = tmp_path / "reports"
    # an analyzer bug outranks the bad bundle's exit 2
    assert main(["corpus", "--apps", str(apps), "--out", str(reports), "-j", jobs]) == 1
    names = sorted(p.name for p in reports.iterdir())
    assert names == ["fx00000300.json", "fx00000302.json"]
    for name in names:
        assert (reports / name).read_bytes() == (expected / name).read_bytes()
    err = capsys.readouterr().err
    assert "fx00000301: internal error: RuntimeError: boom" in err.splitlines()
    assert "Traceback" not in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_corpus_writes_other_reports_when_one_cannot_be_written(tmp_path, capsys, jobs):
    apps = _gen_corpus(tmp_path)
    expected = tmp_path / "expected"
    assert main(["corpus", "--apps", str(apps), "--out", str(expected)]) == 0
    reports = tmp_path / "reports"
    (reports / "fx00000301.json").mkdir(parents=True)  # no report can be renamed onto it
    capsys.readouterr()

    assert main(["corpus", "--apps", str(apps), "--out", str(reports), "-j", jobs]) == 2
    for name in ("fx00000300.json", "fx00000302.json"):
        assert (reports / name).read_bytes() == (expected / name).read_bytes()
    assert (reports / "fx00000301.json").is_dir()
    assert sorted(p.name for p in reports.iterdir()) == sorted(p.name for p in expected.iterdir())
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert err[0].startswith("fx00000301: IsADirectoryError: ")
    assert err[1] == f"analyzed 3 bundles, 1 failed -> {reports}"


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
    err = capsys.readouterr().err
    assert "out of range" in err
    assert err.count("\n") == 1 and err.startswith("UsageError: ")


def _minimal_report():
    return {
        "schema_version": 1,
        "leaks": [{"party": "first", "destination": "net", "pi_kind": "email",
                   "path_text": ["r1 = findViewById", "sink(r1)"]}],
        "views": [{"view_class": "EditText", "pi_kind": "email"}],
    }


def _write_report(tmp_path, doc) -> Path:
    reports = tmp_path / "reports"
    reports.mkdir()
    path = reports / "app.json"
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(json.dumps(doc))
    return path


def _with(section, key, value):
    doc = _minimal_report()
    if value is None:
        del doc[section][0][key]
    else:
        doc[section][0][key] = value
    return doc


def _run_on_report(path, command):
    if command == "aggregate":
        return main(["aggregate", "--reports", str(path.parent),
                     "--out", str(path.parent.parent / "summary")])
    return main(["explain", "--report", str(path), "--leak", "0"])


@pytest.mark.parametrize("command", ["aggregate", "explain"])
def test_minimal_report_is_accepted(tmp_path, command):
    assert _run_on_report(_write_report(tmp_path, _minimal_report()), command) == 0


@pytest.mark.parametrize("command", ["aggregate", "explain"])
@pytest.mark.parametrize(
    "doc,message",
    [
        (b"{bad", "not a UTF-8 JSON file"),
        (b"[" * 100_000, "not a UTF-8 JSON file"),
        (b'{"schema_version": 1, "leaks": [], "views": ["\xff"]}', "not a UTF-8 JSON file"),
        ([1, 2], "not a JSON object"),
        ({**_minimal_report(), "schema_version": 2}, "schema_version 2, expected 1"),
        ({"schema_version": 1, "views": []}, "'leaks' is missing or not a list"),
        ({**_minimal_report(), "views": [7]}, "views[0] is not an object"),
        (_with("leaks", "destination", None), "leaks[0] has a missing or bad 'destination': None"),
        (_with("leaks", "path_text", None), "leaks[0] has a missing or bad 'path_text'"),
        (_with("leaks", "path_text", []), "leaks[0] has a missing or bad 'path_text': []"),
        (_with("views", "view_class", None), "views[0] has a missing or bad 'view_class'"),
        (_with("leaks", "party", "fourth"), "leaks[0] has a missing or bad 'party': 'fourth'"),
        (_with("leaks", "destination", "cloud"), "leaks[0] has a missing or bad 'destination': 'cloud'"),
        (_with("leaks", "pi_kind", ["email"]), "leaks[0] has a missing or bad 'pi_kind': ['email']"),
        (_with("views", "pi_kind", "shoe_size"), "views[0] has a missing or bad 'pi_kind': 'shoe_size'"),
    ],
    ids=["bad-json", "deep-nesting", "bad-utf8", "array", "schema-version", "no-leaks", "view-not-object",
         "no-destination", "no-path-text", "empty-path-text", "no-view-class",
         "party-fourth", "bad-destination", "unhashable-pi-kind", "bad-view-pi-kind"],
)
def test_malformed_report_exits_2(tmp_path, capsys, command, doc, message):
    path = _write_report(tmp_path, doc)
    assert _run_on_report(path, command) == 2
    err = capsys.readouterr().err
    assert err.startswith("ReportError: ") and message in err
    assert "Traceback" not in err and err.count("\n") == 1


def test_a_bad_report_after_good_ones_exits_2_before_anything_is_written(tmp_path, capsys):
    """aggregate folds each report as it parses it, so the bad one is read
    after the good ones have been counted; still no summary or CSV appears."""
    reports = _write_report(tmp_path, _minimal_report()).parent
    (reports / "zz.json").write_text(json.dumps(_with("leaks", "party", "fourth")))
    out = tmp_path / "summary"
    assert main(["aggregate", "--reports", str(reports), "--out", str(out)]) == 2
    assert "zz.json: leaks[0] has a missing or bad 'party'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "epoch", ["abc", "99999999999999999999", "٣", "1_700_000_000", " 1700000000", "+5"]
)
def test_bad_source_date_epoch_exits_2(monkeypatch, capsys, epoch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    rc = main(["analyze", "--app", str(PANIC)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"BadEnvironment: SOURCE_DATE_EPOCH='{epoch}'" in err
    assert "Traceback" not in err
