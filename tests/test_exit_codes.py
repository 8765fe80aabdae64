"""The exit-code contract under mutated input: 0 or 2, never an analyzer bug.

A mutant is one input with one seeded edit: a bit flipped, bytes deleted, a
byte inserted, the tail cut off, a line doubled, or the encoding named by an
XML declaration rewritten. Bundle files run through `corpus` beside the
untouched bundle, the built-in configs through `corpus`, reports through
`aggregate` and `explain`, and SOURCE_DATE_EPOCH through `analyze`. The
mutant counts and the rng seed are fixed, so every run tries the same inputs.
"""

from __future__ import annotations

import os
import random
import re
import shutil
from pathlib import Path

import pytest

import uitaint
from uitaint.cli import main
from uitaint.errors import MalformedManifest, XmlSyntaxError
from uitaint.ir import parse_bundle
from conftest import DATA

PANIC = DATA / "panic_shield"
KEEP = DATA / "keep_yoga"
CONFIGS = Path(uitaint.__file__).parent / "data"
_CONFIG_FLAGS = {"lexicon.tsv": "--lexicon", "sinks.tsv": "--sinks", "widgets.txt": "--widgets"}

# Encodings an XML declaration can name that no text codec decodes for the
# parser: unknown names, non-text codecs, and codecs the parser cannot drive.
UNDECODABLE = ("nope", "mbcs", "rot13", "hex", "base64", "utf-32", "utf-7", "idna", "punycode")
# what the encoding operator writes: those and some the parser takes or
# refuses as a syntax error
_DECLARED = UNDECODABLE + ("utf-8", "utf-16", "latin-1", "ascii", "cp037", "")
_DECLARATION = re.compile(rb'encoding="[^"]*"')
_INSERTED = b'\0\t\n\r "#$-.09:<>@\\\x7f\xc3\xff'
_OPERATORS = ("flip", "delete", "insert", "truncate", "dup-line", "encoding")

SEED = 7


@pytest.fixture(autouse=True)
def _pin_clock(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")


def _mutate(data: bytes, rng: random.Random) -> tuple[bytes, str]:
    """data with one seeded edit, and a name for the edit."""
    op = rng.choice(_OPERATORS)
    if op == "encoding":
        if _DECLARATION.search(data):
            enc = rng.choice(_DECLARED)
            return _DECLARATION.sub(f'encoding="{enc}"'.encode(), data, count=1), f"encoding={enc}"
        op = "flip"
    if not data:
        return bytes([rng.choice(_INSERTED)]), "insert into empty"
    i = rng.randrange(len(data))
    if op == "flip":
        bit = 1 << rng.randrange(8)
        return data[:i] + bytes([data[i] ^ bit]) + data[i + 1:], f"flip {bit:#x} at {i}"
    if op == "delete":
        n = rng.randint(1, 8)
        return data[:i] + data[i + n:], f"delete {n} at {i}"
    if op == "insert":
        byte = bytes([rng.choice(_INSERTED)])
        return data[:i] + byte + data[i:], f"insert {byte!r} at {i}"
    if op == "truncate":
        return data[:i], f"truncate at {i}"
    lines = data.splitlines(keepends=True)
    k = rng.randrange(len(lines))
    return b"".join(lines[:k + 1] + lines[k:]), f"dup-line {k}"


def _run(capsys, argv) -> tuple[int, str]:
    capsys.readouterr()
    rc = main(argv)
    return rc, capsys.readouterr().err


def _broken(rc: int, err: str) -> bool:
    return rc not in (0, 2) or "Traceback" in err or "internal error" in err


def _reports(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _corpus(capsys, apps: Path, out: Path, *config) -> tuple[int, str, dict[str, bytes]]:
    shutil.rmtree(out, ignore_errors=True)
    rc, err = _run(capsys, ["corpus", "--apps", str(apps), "--out", str(out), *config])
    return rc, err, _reports(out) if out.is_dir() else {}


@pytest.fixture
def apps(tmp_path):
    """Copies of the two tests/data bundles, under one directory."""
    apps = tmp_path / "apps"
    shutil.copytree(PANIC, apps / PANIC.name)
    shutil.copytree(KEEP, apps / KEEP.name)
    return apps


# ---------------------------------------------------------------------------
# an XML declaration naming an encoding no text codec decodes


@pytest.mark.parametrize(
    "target,error",
    [("manifest.xml", MalformedManifest),
     ("res/layout/activity_create_hierarchy.xml", XmlSyntaxError)],
    ids=["manifest", "layout"],
)
@pytest.mark.parametrize("encoding", UNDECODABLE)
def test_undecodable_xml_encoding_is_bad_input(tmp_path, capsys, apps, encoding, target, error):
    _, _, clean = _corpus(capsys, apps, tmp_path / "clean")
    path = apps / PANIC.name / target
    path.write_bytes(_DECLARATION.sub(f'encoding="{encoding}"'.encode(), path.read_bytes()))

    with pytest.raises(error, match=re.escape(str(path))):
        parse_bundle(apps / PANIC.name)
    rc, err, reports = _corpus(capsys, apps, tmp_path / "out")
    assert rc == 2
    (failure,) = [line for line in err.splitlines() if not line.startswith("analyzed ")]
    assert failure.startswith(f"{PANIC.name}: {error.__name__}: {path}: ")
    assert reports == {f"{KEEP.name}.json": clean[f"{KEEP.name}.json"]}


# ---------------------------------------------------------------------------
# seeded whole-program mutation


def test_mutated_bundle_files_exit_0_or_2(tmp_path, capsys, apps):
    _, _, clean = _corpus(capsys, apps, tmp_path / "clean")
    files = sorted(p for p in apps.rglob("*") if p.is_file())
    rng = random.Random(SEED)
    failures = []
    for _ in range(300):
        path = rng.choice(files)
        original = path.read_bytes()
        data, edit = _mutate(original, rng)
        path.write_bytes(data)
        rc, err, reports = _corpus(capsys, apps, tmp_path / "out")
        untouched = f"{(KEEP if path.is_relative_to(apps / PANIC.name) else PANIC).name}.json"
        if _broken(rc, err) or reports.get(untouched) != clean[untouched]:
            failures.append(f"{path.relative_to(apps)} {edit}: exit {rc}: {err[-300:]}")
        elif rc == 0 and _corpus(capsys, apps, tmp_path / "again")[2] != reports:
            failures.append(f"{path.relative_to(apps)} {edit}: second run differs")
        path.write_bytes(original)
    assert failures == []


def test_mutated_configs_exit_0_or_2(tmp_path, capsys, apps):
    rng = random.Random(SEED)
    failures = []
    for k in range(120):
        name = rng.choice(sorted(_CONFIG_FLAGS))
        data, edit = _mutate((CONFIGS / name).read_bytes(), rng)
        # a fresh path each time, because the loaders memoise by path
        config = tmp_path / "configs" / str(k) / name
        config.parent.mkdir(parents=True)
        config.write_bytes(data)
        flag = [_CONFIG_FLAGS[name], str(config)]
        rc, err, reports = _corpus(capsys, apps, tmp_path / "out", *flag)
        if _broken(rc, err):
            failures.append(f"{name} {edit}: exit {rc}: {err[-300:]}")
        elif rc == 0 and _corpus(capsys, apps, tmp_path / "again", *flag)[2] != reports:
            failures.append(f"{name} {edit}: second run differs")
    assert failures == []


def test_mutated_reports_exit_0_or_2(tmp_path, capsys, apps):
    _, _, clean = _corpus(capsys, apps, tmp_path / "clean")
    rng = random.Random(SEED)
    failures = []
    for k in range(120):
        name = rng.choice(sorted(clean))
        data, edit = _mutate(clean[name], rng)
        reports = tmp_path / "reports" / str(k)
        reports.mkdir(parents=True)
        for other, text in clean.items():
            (reports / other).write_bytes(data if other == name else text)
        for argv in (["aggregate", "--reports", str(reports), "--out", str(tmp_path / "s")],
                     ["explain", "--report", str(reports / name), "--leak", "0"]):
            rc, err = _run(capsys, argv)
            if _broken(rc, err):
                failures.append(f"{argv[0]} {name} {edit}: exit {rc}: {err[-300:]}")
    assert failures == []


def test_mutated_source_date_epoch_exits_0_or_2(tmp_path, capsys, monkeypatch):
    rng = random.Random(SEED)
    failures = []
    for _ in range(60):
        data, edit = _mutate(b"1700000000", rng)
        monkeypatch.setenv("SOURCE_DATE_EPOCH", os.fsdecode(data.replace(b"\0", b"")))
        rc, err = _run(capsys, ["analyze", "--app", str(PANIC), "--out", str(tmp_path / "r.json")])
        if _broken(rc, err):
            failures.append(f"SOURCE_DATE_EPOCH {edit}: exit {rc}: {err[-300:]}")
    assert failures == []
