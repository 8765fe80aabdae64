"""The line format the widget, lexicon and sink files and rtable.txt share."""

from __future__ import annotations

import pytest

from uitaint.errors import (
    LexiconSyntaxError,
    RTableSyntaxError,
    SinkSyntaxError,
    WidgetSyntaxError,
)
from uitaint.gui import load_widget_registry
from uitaint import ir
from uitaint.ir import parse_bundle
from uitaint.pi import KINDS, load_lexicon
from uitaint.sources_sinks import load_sinks
from conftest import typed, write_bundle

_LOG_D = "<android.util.Log: int d(java.lang.String,java.lang.String)>"


def _rtable(path):
    bundle = write_bundle(path.parent / "app")
    (bundle / "res").mkdir(exist_ok=True)
    (bundle / "res" / "rtable.txt").write_bytes(path.read_bytes())
    return parse_bundle(bundle).rtable


# Per reader: its loader, two good lines, the second's form-feed spelling
# (a form feed where the format allows blanks), a line it rejects, the lines
# every file needs and the error it raises.
READERS = {
    "widgets": (
        load_widget_registry, "input:EditText", "input:Switch", "input:\x0cSwitch",
        "EditText", [], WidgetSyntaxError,
    ),
    "lexicon": (
        load_lexicon, "email\temail", "phone\tmobile number", "phone\tmobile\x0cnumber",
        "email", [f"{k}\tzz{k.replace('_', '')}" for k in KINDS],
        LexiconSyntaxError,
    ),
    "sinks": (
        load_sinks, f"log\t{_LOG_D}\targ1", f"net\t{_LOG_D}\t*", f"net\t{_LOG_D}\t\x0c*",
        f"log\t{_LOG_D}", [], SinkSyntaxError,
    ),
    "rtable": (
        _rtable, "id a 0x7f0800e5", "id b 7", "id b\x0c7", "id c", [], RTableSyntaxError,
    ),
}


def _body(reader, last: str) -> bytes:
    """A file whose line 7 is `last`: comments, blanks and every line end before it."""
    _, first, _, second_ff, _, base, _ = READERS[reader]
    lines = ["# header", "", f"{first}  # trailing comment", " \t ", "#", second_ff, last, *base]
    ends = ["\r\n", "\n", "\r", "\r\n", "\r", "\n", "\n", *["\r\n"] * len(base)]
    return "".join(line + end for line, end in zip(lines, ends)).encode()


@pytest.mark.parametrize("reader", READERS)
def test_reader_skips_comments_and_blanks_at_every_line_end(tmp_path, reader):
    load, first, second, _, _, base, _ = READERS[reader]
    mixed = tmp_path / "mixed.txt"
    mixed.write_bytes(_body(reader, "# the last line is a comment"))
    plain = tmp_path / "plain.txt"
    plain.write_text("\n".join([first, second, *base]) + "\n")
    assert load(mixed) == load(plain)


@pytest.mark.parametrize("reader", READERS)
def test_reader_numbers_lines_from_one(tmp_path, reader):
    load, _, _, _, bad, _, error = READERS[reader]
    path = tmp_path / "bad.txt"
    path.write_bytes(_body(reader, bad))
    with pytest.raises(error) as info:
        load(path)
    where = f"{tmp_path / 'app' / 'res' / 'rtable.txt'}" if reader == "rtable" else f"{path}"
    assert str(info.value).startswith(f"{where}:7: expected ")


@pytest.mark.parametrize("reader", ["widgets", "lexicon", "sinks"])
def test_config_reader_wants_utf8(tmp_path, reader):
    load, first, *_, error = READERS[reader]
    path = tmp_path / "config.txt"
    path.write_bytes(first.encode() + b"\n\xff\n")
    with pytest.raises(error) as info:
        load(path)
    assert str(info.value) == f"{path}: not UTF-8 text (invalid start byte)"


def test_form_feed_does_not_end_an_rtable_line(tmp_path):
    path = tmp_path / "rtable.txt"
    path.write_bytes(b"id a 5\x0cid b 6\n")
    with pytest.raises(RTableSyntaxError) as info:
        _rtable(path)
    where = tmp_path / "app" / "res" / "rtable.txt"
    assert str(info.value) == f"{where}:1: expected 'id <name> <int>'"


@pytest.mark.parametrize("reader", READERS)
def test_reader_skips_a_byte_order_mark(tmp_path, reader):
    load, first, second, _, _, base, _ = READERS[reader]
    body = "\r\n".join([first, second, *base]) + "\r\n"
    marked = tmp_path / "marked.txt"
    marked.write_bytes(b"\xef\xbb\xbf" + body.encode())
    plain = tmp_path / "plain.txt"
    plain.write_bytes(body.encode())
    assert load(marked) == load(plain)


def test_jtac_byte_order_mark_is_skipped(tmp_path):
    text = "class a.A\r\nmethod static void f():\r\n  return\r\n"
    marked = write_bundle(tmp_path / "marked", code={"A.jtac": "\ufeff" + text})
    plain = write_bundle(tmp_path / "plain", code={"A.jtac": text})
    assert typed(parse_bundle(marked).code_units) == typed(parse_bundle(plain).code_units)


@pytest.mark.parametrize("data", [
    b"", b"\xef", b"\xef\xbb", b"\xef\xbb\xbf", b"\xef\xbbx", b"\xef\xbb\xbf\xef\xbb\xbf",
    b"a\r\nb\rc\n\r", b"\r\r\n\n", b"\xff\xfea\x80", b"id a 1\xe2\x82", b"\xe2\x82\r\n",
])
def test_bundle_files_are_read_as_read_text_reads_them(tmp_path, data):
    """A bundle's rtable.txt and .jtac files are read in one piece as bytes,
    with the text Path.read_text(encoding="utf-8-sig", errors="replace") gives."""
    path = tmp_path / "f"
    path.write_bytes(data)
    assert ir._read_text(str(path)) == path.read_text(encoding="utf-8-sig", errors="replace")
