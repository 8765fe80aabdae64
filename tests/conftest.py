"""Shared helpers: throwaway bundles, random mini-programs, oracles, a reference lexer."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from uitaint.errors import IrSyntaxError
from uitaint.gui import ViewElement
from uitaint.ir import AppBundle, RTable, parse_code_unit
from uitaint.pi import PiKind
from uitaint.taint import classify_package, package_of

DATA = Path(__file__).parent / "data"

MANIFEST = '<?xml version="1.0" encoding="utf-8"?>\n<manifest package="{pkg}"/>\n'


def write_bundle(
    root: Path,
    package: str = "com.example.app",
    rtable: str | None = None,
    layouts: dict[str, str] | None = None,
    code: dict[str, str] | None = None,
) -> Path:
    """Lay out a bundle directory under root and return it.

    layouts maps file name -> XML body; code maps file name -> JTAC text.
    """
    root.mkdir(parents=True, exist_ok=True)
    (root / "manifest.xml").write_text(MANIFEST.format(pkg=package), encoding="utf-8")
    if rtable is not None:
        (root / "res").mkdir(exist_ok=True)
        (root / "res" / "rtable.txt").write_text(rtable, encoding="utf-8")
    for name, xml in (layouts or {}).items():
        layout_dir = root / "res" / "layout"
        layout_dir.mkdir(parents=True, exist_ok=True)
        (layout_dir / name).write_text(xml, encoding="utf-8")
    for name, text in (code or {}).items():
        (root / "code").mkdir(exist_ok=True)
        (root / "code" / name).write_text(text, encoding="utf-8")
    return root


@pytest.fixture
def bundle_dir(tmp_path):
    """Factory fixture: call with the same arguments as write_bundle."""

    def factory(**kwargs) -> Path:
        return write_bundle(tmp_path / "app", **kwargs)

    return factory


# ---------------------------------------------------------------------------
# random mini-programs: single-class bundles for shortest-path checking


MINI_CLS = "com.mini.app.M"
MINI_IDS = (100, 101)
_LOG_D = "<android.util.Log: int d(java.lang.String,java.lang.String)>"
_FIND = f"<{MINI_CLS}: android.view.View findViewById(int)>"
MINI_RELAY_CLS = "io.mini.sdk.Relay"
_RELAY = f"<{MINI_RELAY_CLS}: java.lang.String send(java.lang.String)>"


def mini_labeled_views():
    return [
        ViewElement("EditText", f"emailField{n}", n, None, None, "main.xml",
                    PiKind.EMAIL)
        for n in MINI_IDS
    ]


def random_mini_bundle(
    rng: random.Random, n_statements: int = 12, relay: bool = False
) -> AppBundle:
    """One in-memory class of up to n_statements random statements.

    Sources are findViewById calls on the ids of mini_labeled_views, sinks
    are Log.d calls; copies, static-field traffic and opaque library calls
    provide the plumbing in between. With relay, the bundle also holds the
    third-party class io.mini.sdk.Relay (static send(p0): return p0), which
    some statements call; without it the random stream is the same as if
    the option did not exist.
    """
    lines = ["  r0 = this"]
    regs = ["r0"]
    fresh = 0
    for _ in range(rng.randint(1, n_statements)):
        roll = rng.random()
        pick = lambda: rng.choice(regs)
        if roll < 0.2:
            fresh += 1
            lines.append(
                f"  $s{fresh} = virtualinvoke r0.{_FIND}({rng.choice(MINI_IDS)})"
            )
            regs.append(f"$s{fresh}")
        elif roll < 0.45:
            fresh += 1
            lines.append(f"  $c{fresh} = {pick()}")
            regs.append(f"$c{fresh}")
        elif roll < 0.6:
            lines.append(
                f"  <{MINI_CLS}: java.lang.String f{rng.randrange(3)}> = {pick()}"
            )
        elif roll < 0.75:
            fresh += 1
            lines.append(
                f"  $c{fresh} = <{MINI_CLS}: java.lang.String f{rng.randrange(3)}>"
            )
            regs.append(f"$c{fresh}")
        elif roll < 0.9:
            lines.append(f'  staticinvoke {_LOG_D}("t", {pick()})')
        elif relay and roll < 0.95:
            fresh += 1
            lines.append(f"  $c{fresh} = staticinvoke {_RELAY}({pick()})")
            regs.append(f"$c{fresh}")
        else:
            fresh += 1
            lines.append(
                f"  $c{fresh} = virtualinvoke {pick()}."
                f"<ext.lib.Util: java.lang.String via(java.lang.String)>({pick()})"
            )
            regs.append(f"$c{fresh}")
    fields = "".join(f"field java.lang.String f{i}\n" for i in range(3))
    text = (
        f"class {MINI_CLS} extends android.app.Activity\n\n{fields}\n"
        "method void run():\n" + "\n".join(lines) + "\n"
    )
    units = {MINI_CLS: parse_code_unit(text, "M.jtac")}
    if relay:
        units[MINI_RELAY_CLS] = parse_code_unit(
            f"class {MINI_RELAY_CLS}\n"
            "method static java.lang.String send(java.lang.String p0):\n"
            "  return p0\n",
            "Relay.jtac",
        )
    return AppBundle("com.mini.app", [], RTable({}), units)


def enumerate_min_paths(graph, seed_node, prefix):
    """Brute-force oracle: minimal (length, lexicographic) witness per sink.

    Enumerates every simple path from seed_node and returns
    {(sink_sid, spec): full statement-id path} exactly as extract_leaks
    should choose it. Shortest paths never revisit a node, so restricting to
    simple paths is lossless.
    """
    best: dict[tuple, tuple] = {}

    def visit(node, labels, visited):
        for sink_sid, spec in graph.sink_feeds.get(node, ()):
            cand = prefix + labels + (sink_sid,)
            key = (sink_sid, spec)
            prev = best.get(key)
            if prev is None or (len(cand), cand) < (len(prev), prev):
                best[key] = cand
        for succ, label in graph.adjacency.get(node, ()):
            if succ not in visited:
                visit(succ, labels + (label,), visited | {succ})

    visit(seed_node, (), frozenset({seed_node}))
    return best


def brute_force_alt_third_party(graph, seed, sink_key, app_package):
    """Brute-force oracle for Leak.alt_third_party_path.

    Rescans the whole graph: forward reach from the seed, every sink feed,
    a reverse reach from each feed node of sink_key, then every edge. True
    iff some edge labeled by a third-party statement has its tail in the
    forward reach and its head in the reverse reach.
    """
    reverse = {}
    for src, edge_list in graph.adjacency.items():
        for dst, label in edge_list:
            reverse.setdefault(dst, []).append((src, label))
    fwd = set(_reach(graph.adjacency, seed))
    feed_nodes = [
        n for n, fs in graph.sink_feeds.items() if any((s, sp) == sink_key for s, sp in fs)
    ]
    back = set()
    for n in feed_nodes:
        back.update(_reach(reverse, n))
    for src, edge_list in graph.adjacency.items():
        if src not in fwd:
            continue
        for dst, label in edge_list:
            if dst not in back:
                continue
            if classify_package(package_of(label.cls), app_package) == "third":
                return True
    return False


def _reach(adjacency, start):
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for succ, _ in adjacency.get(node, ()):
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


# ---------------------------------------------------------------------------
# reference lexer: the per-character scanner the master-regex ir._lex replaced


_PUNCT = set("<>(),:.=[]")
_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$")
_DIGITS = set("0123456789")  # str.isdigit() also accepts "²" and "٣"
_IDENT_CONT = _IDENT_START | _DIGITS
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}


def reference_lex(text, filename):
    """Oracle for ir._lex: the same stream as (kind, value, line, col) tuples.

    Raises IrSyntaxError with the same message and location on bad input.
    """
    toks = []
    i, n = 0, len(text)
    line, col = 1, 1
    while i < n:
        c = text[i]
        if c in " \t\r":
            i += 1
            col += 1
        elif c == "\n":
            toks.append(("nl", "\n", line, col))
            i += 1
            line += 1
            col = 1
        elif c in _IDENT_START:
            start = i
            while i < n and text[i] in _IDENT_CONT:
                i += 1
            toks.append(("ident", text[start:i], line, col))
            col += i - start
        elif c in _DIGITS or (c == "-" and i + 1 < n and text[i + 1] in _DIGITS):
            start = i
            if c == "-":
                i += 1
            if text[i] == "0" and i + 1 < n and text[i + 1] in "xX":
                i += 2
                while i < n and text[i] in "0123456789abcdefABCDEF":
                    i += 1
                try:
                    value = int(text[start:i], 16)
                except ValueError:
                    raise IrSyntaxError("bad hex literal", filename, line, col)
            else:
                while i < n and text[i] in _DIGITS:
                    i += 1
                value = int(text[start:i])
            toks.append(("int", value, line, col))
            col += i - start
        elif c == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            buf = []
            while True:
                if i >= n or text[i] == "\n":
                    raise IrSyntaxError(
                        "unterminated string literal", filename, start_line, start_col
                    )
                ch = text[i]
                if ch == '"':
                    i += 1
                    col += 1
                    break
                if ch == "\\":
                    if i + 1 >= n or text[i + 1] not in _ESCAPES:
                        raise IrSyntaxError("bad escape in string", filename, line, col)
                    buf.append(_ESCAPES[text[i + 1]])
                    i += 2
                    col += 2
                else:
                    buf.append(ch)
                    i += 1
                    col += 1
            toks.append(("str", "".join(buf), start_line, start_col))
        elif c in _PUNCT:
            toks.append(("punct", c, line, col))
            i += 1
            col += 1
        else:
            raise IrSyntaxError(f"unexpected character {c!r}", filename, line, col)
    toks.append(("eof", None, line, col))
    return toks
