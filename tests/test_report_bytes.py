"""The byte contract: report, summary and CSV bytes pinned by sha256.

The digests were taken with SOURCE_DATE_EPOCH=1700000000 over the bundles of
tests/data and the gen-fixtures bundles at seeds 1, 7 and 29, analyzed by
`uitaint corpus` and folded by `uitaint aggregate`, over a hub-shaped bundle
whose report repeats each `source` and `sink` fragment a dozen times, and
over a bundle with `null` in every atom position.
A change that alters any byte of these files fails here; one that means to
must update the digests and say why.
"""

from __future__ import annotations

import hashlib
import shutil

import pytest

from uitaint.cli import main
from conftest import DATA, write_bundle, write_hub_bundle

REPORT_SHA256 = {
    "fx00000001.json": "f0884e37def5967b438da5097dcef6697a3f06aec70de6494347eba6e821d558",
    "fx00000007.json": "24e4e5b9db99c1557924d2ef34605148785a6f996da1e6413649da2c03c306c3",
    "fx00000029.json": "e84967dfdeafefacb770f1ab1f9f41d15333faeaf99e372c58e56a7d646c07a0",
    "keep_yoga.json": "28efc919934769f4cd3e8ce972150546e7695977bacaeffc38619d9a3306867b",
    "panic_shield.json": "b376eaf14afefd5c9ac9c01807c64e2ee7094406801c16b8f099cc1432224b97",
}

SUMMARY_SHA256 = {
    "destinations.csv": "ccd0d26470c698289fab815d1799a81e9b6f616762f35fd0ea86fca15242c2e7",
    "leak_stats.csv": "3d8eeaade3cc6150a3cc56f48180047fef66145dc302d95462cf304393752815",
    "pi_by_destination.csv": "78a8a9ef2960c86d8953160a406e9d8c39bce3e7613b79d7cf1a75682536f624",
    "prevalence.csv": "2e75f2622858a9fe2deebdfa03791f20b52fde18fc44585ba484780c859b2b2a",
    "summary.json": "ea837fcf748b59dce8691e53eeb97f59cdbee63c2a5f23ff7cd4c8f3eba06795",
    "view_types.csv": "cf85b4cf418ce14b8ab16ae782bbdbe134ab4baac7a02bef7dc57d791e01db31",
}


# 12 sources x 12 Log.d sinks through one static field, every third source
# through a third-party relay: 144 leaks sharing 12 source and 12 sink dicts
HUB_REPORT_SHA256 = {
    "hub.json": "29a2bead4d6bec46649d9093ff700e761276bd5e953545a7665ae97fff8dd376",
}

# null as an assignment, a field-write value, a call argument on and off the
# witness paths, and a return value, in first- and third-party code
NULL_REPORT_SHA256 = {
    "nulls.json": "02be46db9dc64bdbf48f35b40131ecc959f7b8337a4fbecb4f7d8be5f2e1583b",
}

_NULL_MAIN = "com.nul.app.Main"
_NULL_FIELD = f"<{_NULL_MAIN}: java.lang.String cache>"
_NULL_LOG = "<android.util.Log: int d(java.lang.String,java.lang.String)>"
_NULL_CODE = {
    "Main.jtac": f"""\
class {_NULL_MAIN} extends android.app.Activity
field java.lang.String cache
method void onCreate(android.os.Bundle b1):
  r0 = this
  $n = null
  $e = virtualinvoke r0.<{_NULL_MAIN}: android.view.View findViewById(int)>(2130837505)
  $s = virtualinvoke r0.<{_NULL_MAIN}: java.lang.String pick(java.lang.String,java.lang.String)>(null, $e)
  r0.{_NULL_FIELD} = null
  r0.{_NULL_FIELD} = $s
  $c = r0.{_NULL_FIELD}
  staticinvoke {_NULL_LOG}(null, $c)
  $w = staticinvoke <io.nul.sdk.Wrap: java.lang.String wrap(java.lang.String,java.lang.String)>($n, $e)
  staticinvoke {_NULL_LOG}($w, null)
method java.lang.String pick(java.lang.String p0, java.lang.String p1):
  $z = null
  return p1
method java.lang.String none():
  return null
""",
    "Wrap.jtac": """\
class io.nul.sdk.Wrap
method static java.lang.String wrap(java.lang.String p0, java.lang.String p1):
  $x = null
  <io.nul.sdk.Wrap: java.lang.String last> = null
  return p1
""",
}
_NULL_LAYOUT = (
    '<LinearLayout xmlns:android="http://schemas.android.com/apk/res/android">\n'
    '  <EditText android:id="@+id/email" android:hint="Email" />\n'
    "</LinearLayout>\n"
)


def _digests(directory):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
    }


@pytest.mark.parametrize("jobs", [1, 2])
def test_report_summary_and_csv_bytes_are_pinned(tmp_path, monkeypatch, jobs):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    apps = tmp_path / "apps"
    for seed in (1, 7, 29):
        assert main(["gen-fixtures", "--seed", str(seed), "--out", str(apps)]) == 0
    for bundle in DATA.iterdir():
        shutil.copytree(bundle, apps / bundle.name)
    reports, summary = tmp_path / "reports", tmp_path / "summary"
    assert main(["corpus", "--apps", str(apps), "--out", str(reports),
                 "-j", str(jobs)]) == 0
    assert main(["aggregate", "--reports", str(reports), "--out", str(summary)]) == 0
    assert _digests(reports) == REPORT_SHA256
    assert _digests(summary) == SUMMARY_SHA256


def test_hub_shaped_report_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    write_hub_bundle(tmp_path / "apps" / "hub", n_sources=12, n_sinks=12)
    reports = tmp_path / "reports"
    assert main(["corpus", "--apps", str(tmp_path / "apps"), "--out", str(reports)]) == 0
    assert _digests(reports) == HUB_REPORT_SHA256


def test_null_atom_report_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    write_bundle(tmp_path / "apps" / "nulls", package="com.nul.app",
                 rtable="id email 0x7f020001\n", layouts={"main.xml": _NULL_LAYOUT},
                 code=_NULL_CODE)
    reports = tmp_path / "reports"
    assert main(["corpus", "--apps", str(tmp_path / "apps"), "--out", str(reports)]) == 0
    assert _digests(reports) == NULL_REPORT_SHA256
