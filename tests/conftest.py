"""Shared helpers: throwaway bundles, random mini-programs, shape bundles,
oracles, and the reference parser, witness search and method lookups."""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

import pytest

from uitaint.errors import IrSyntaxError
from uitaint.gui import ViewElement
from uitaint.ir import (
    INVOKE_KINDS,
    RESERVED,
    AppBundle,
    AssignAtom,
    AssignCast,
    CodeUnit,
    Const,
    FieldRead,
    FieldSig,
    FieldWrite,
    InvokeStmt,
    MethodBody,
    MethodSig,
    ReturnStmt,
    StmtId,
    method_token,
    parse_code_unit,
    render_code_unit,
)
from uitaint.pi import KIND_ORDER
from uitaint.taint import Leak, Party, _third_party_classes, classify_package, package_of

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


_HUB = "com.hub.app.Hub"
_HUB_FIND = f"<{_HUB}: android.view.View findViewById(int)>"
_HUB_FIELD = f"<{_HUB}: java.lang.String shared>"
HUB_LOG = "<android.util.Log: int d(java.lang.String,java.lang.String)>"
_HUB_RELAY = "<io.fakelib.Relay: java.lang.String send(java.lang.String)>"
_HUB_HINTS = ("Email", "Phone", "Address", "Zip", "SSN", "Height", "Weight", "Gender",
              "Dosage", "Surname", "Birthday", "Allergy")


def write_hub_bundle(root: Path, n_sources: int = 2, n_sinks: int = 3) -> Path:
    """n_sources write one static field that n_sinks Log.d sinks read; every
    third source writes it through a third-party relay method."""
    lines = ["  r0 = this"]
    for k in range(n_sources):
        lines.append(f"  $v{k} = virtualinvoke r0.{_HUB_FIND}({0x7F010001 + k})")
        if k % 3 == 2:
            lines += [f"  $u{k} = staticinvoke {_HUB_RELAY}($v{k})", f"  {_HUB_FIELD} = $u{k}"]
        else:
            lines.append(f"  {_HUB_FIELD} = $v{k}")
    for k in range(n_sinks):
        lines += [f"  $s{k} = {_HUB_FIELD}", f'  staticinvoke {HUB_LOG}("t{k}", $s{k})']
    code = (
        f"class {_HUB} extends android.app.Activity\n\nfield java.lang.String shared\n\n"
        "method void onCreate(android.os.Bundle b1):\n" + "\n".join(lines) + "\n"
    )
    relay = (
        "class io.fakelib.Relay\n\n"
        "method static java.lang.String send(java.lang.String p0):\n  return p0\n"
    )
    hints = [_HUB_HINTS[k % len(_HUB_HINTS)] for k in range(n_sources)]
    layout = (
        '<LinearLayout xmlns:android="http://schemas.android.com/apk/res/android">\n'
        + "".join(
            f'  <EditText android:id="@+id/{hint.lower()}{k}" android:hint="{hint}" />\n'
            for k, hint in enumerate(hints)
        )
        + "</LinearLayout>\n"
    )
    return write_bundle(
        root, package="com.hub.app",
        rtable="".join(
            f"id {hint.lower()}{k} 0x{0x7F010001 + k:08x}\n" for k, hint in enumerate(hints)
        ),
        layouts={"main.xml": layout}, code={"Hub.jtac": code, "Relay.jtac": relay},
    )


_SHAPE = "com.shape.app.Main"
_SHAPE_FIND = f"<{_SHAPE}: android.view.View findViewById(int)>"
SHAPES = ("sites", "callers", "methods", "fields")


def write_shape_bundle(root: Path, shape: str, k: int) -> Path:
    """A bundle of one of SHAPES, which each hold k of one thing:

    - "sites": one method with k findViewById($iN) sites, each $iN read from
      an R$id field; every tenth name is missing from the table, and that
      $iN also reads the name before it;
    - "callers": k call sites on one callee of k statements (k >= 2);
    - "methods": k methods, each called once;
    - "fields": k subclasses of the main class, each with a static method
      that writes the main class's field f named through its own class; the
      main class calls each one and reads f through its own name.

    The "sites" views, and the one view of the others, are labeled email;
    a Log.d call sinks the last findViewById or call result, or f.
    """
    main = [f"class {_SHAPE} extends android.app.Activity", "",
            "method void onCreate(android.os.Bundle b1):", "  r0 = this"]
    code = {}
    if shape == "sites":
        names, callees = [f"v{n}" for n in range(k) if n % 10 != 9], []
        for n in range(k):
            main.append(f"  $i{n} = <com.shape.app.R$id: int v{n}>")
            if n % 10 == 9:  # a known id does not cure the missing name
                main.append(f"  $i{n} = <com.shape.app.R$id: int v{n - 1}>")
            main.append(f"  $s{n} = virtualinvoke r0.{_SHAPE_FIND}($i{n})")
        last = f"$s{k - 1}"
    else:
        names = ["v0"]
        main.append(f"  $s = virtualinvoke r0.{_SHAPE_FIND}({0x7F010000})")
        if shape == "callers":
            called = ["relay"] * k
            callees = ["method java.lang.String relay(java.lang.String p0):", "  $c0 = p0",
                       *(f"  $c{n} = $c{n - 1}" for n in range(1, k - 1)), f"  return $c{k - 2}"]
        elif shape == "methods":
            called = [f"m{n}" for n in range(k)]
            callees = [line for m in called for line in
                       (f"method java.lang.String {m}(java.lang.String p0):", "  return p0")]
        elif shape == "fields":
            called, callees = [], []
            main[2:2] = ["field java.lang.String f", ""]
            for n in range(k):
                sub = f"com.shape.app.S{n}"
                main.append(f"  staticinvoke <{sub}: void put(java.lang.String)>($s)")
                code[f"S{n}.jtac"] = (f"class {sub} extends {_SHAPE}\n\n"
                                      "method static void put(java.lang.String p0):\n"
                                      f"  <{sub}: java.lang.String f> = p0\n")
            main.append(f"  $r = <{_SHAPE}: java.lang.String f>")
        else:
            raise ValueError(f"unknown shape {shape!r}")
        sig = "<{}: java.lang.String {}(java.lang.String)>"
        main += [f"  $r{n} = virtualinvoke r0.{sig.format(_SHAPE, m)}($s)"
                 for n, m in enumerate(called)]
        last = f"$r{k - 1}" if called else "$r"
    main.append(f'  staticinvoke {HUB_LOG}("t", {last})')
    layout = (
        '<LinearLayout xmlns:android="http://schemas.android.com/apk/res/android">\n'
        + "".join(f'  <EditText android:id="@+id/{v}" android:hint="Email" />\n' for v in names)
        + "</LinearLayout>\n"
    )
    return write_bundle(
        root, package="com.shape.app",
        rtable="".join(f"id {v} 0x{0x7F010000 + int(v[1:]):08x}\n" for v in names),
        layouts={"main.xml": layout}, code={"Main.jtac": "\n".join(main + callees) + "\n", **code},
    )


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
        ViewElement("EditText", f"emailField{n}", n, None, None, "main.xml", "email")
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
    return AppBundle("com.mini.app", [], {}, units)


def enumerate_min_paths(graph, seed_node, prefix):
    """Brute-force oracle: minimal (length, lexicographic) witness per sink.

    Enumerates every simple path from seed_node and returns
    {(sink_sid, spec): full statement-id path} exactly as extract_leaks
    should choose it. Shortest paths never revisit a node, so restricting to
    simple paths is lossless.
    """
    best: dict[tuple, tuple] = {}

    def visit(node, labels, visited):
        for sink_sid, index in graph.sink_feeds.get(node, ()):
            cand = prefix + labels + (sink_sid,)
            key = (sink_sid, graph.sink_specs[index])
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
        n for n, fs in graph.sink_feeds.items()
        if any((s, graph.sink_specs[i]) == sink_key for s, i in fs)
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
# witness search: taint.extract_leaks as it was before the ordered group
# search, kept as it was


def _lexicographic_bfs(
    adjacency, seed: int, prefix: tuple[StmtId, ...], third: frozenset[str]
):
    """Shortest label paths from seed; equal lengths keep the smallest sequence.

    The search runs over states (node, crossed), where crossed turns true on
    the first edge labeled by a statement of a class in `third` and stays
    true. Returns state -> path, where each path starts with `prefix` and
    appends one statement id per traversed edge. Within one BFS wave every
    candidate has the same length, so plain tuple comparison is the
    lexicographic rule.
    """
    start = (seed, False)
    best = {start: prefix}
    frontier = {start: prefix}
    while frontier:
        wave: dict[tuple[int, bool], tuple[StmtId, ...]] = {}
        for (node, crossed), path in frontier.items():
            for succ, label in adjacency.get(node, ()):
                state = (succ, crossed or label.cls in third)
                if state in best:
                    continue
                cand = path + (label,)
                prev = wave.get(state)
                if prev is None or cand < prev:
                    wave[state] = cand
        best.update(wave)
        frontier = wave
    return best


def reference_extract_leaks(graph) -> list[Leak]:
    """The oracle for taint.extract_leaks: one BFS per seed that copies a
    whole path per state, and a (length, path) compare per sink feed."""
    bundle = graph.bundle
    third = _third_party_classes(bundle.code_units, bundle.app_package)
    keyed = []  # (sort key, leak)
    for sp, seed in graph.seeds.items():
        best = _lexicographic_bfs(graph.adjacency, seed, (sp.stmt,), third)
        source_third = sp.stmt.cls in third
        # sink key (sink statement, spec index: ints hash in C) -> (best path
        # to one of its feed nodes, crossed); only a winner gets the sink
        hits: dict[tuple[StmtId, int], tuple[tuple[StmtId, ...], bool]] = {}
        crossing = set()  # sink keys that a crossed state feeds
        for (node, crossed), path in best.items():
            for key in graph.sink_feeds.get(node, ()):
                if crossed:
                    crossing.add(key)
                # every candidate of a key ends in the same sink statement,
                # so comparing the paths without it picks the same winner
                prev = hits.get(key)
                if prev is None or (len(path), path) < (len(prev[0]), prev[0]):
                    hits[key] = (path, crossed)
        for key, (path, crossed) in hits.items():
            sink_sid, index = key
            party = Party.THIRD if crossed or source_third or sink_sid.cls in third else Party.FIRST
            spec = graph.sink_specs[index]
            leak = Leak(
                sp, sink_sid, spec, party, path + (sink_sid,), len(path),
                party is Party.FIRST and key in crossing,
            )
            keyed.append(((sp.stmt, sink_sid, spec.category, spec.signature), leak))
    keyed.sort(key=itemgetter(0))
    return [leak for _, leak in keyed]


# ---------------------------------------------------------------------------
# method lookups as ir, taint and sources_sinks had them before the bundle's
# method table: a scan of a class's methods and of the callee's returns per
# call site, an index of every statement, and a scan of the method body per
# findViewById site


def reference_resolve_call(call: InvokeStmt, bundle: AppBundle) -> MethodBody | None:
    """The oracle for ir.resolve_call."""
    name, params = call.sig.name, call.sig.param_types
    cls = call.sig.declaring_class
    seen = set()
    while cls is not None and cls in bundle.code_units and cls not in seen:
        seen.add(cls)
        unit = bundle.code_units[cls]
        for m in unit.methods:
            if m.sig.name == name and m.sig.param_types == params:
                return m
        cls = unit.superclass
    return None


def reference_field_declaration(fld: FieldSig, bundle: AppBundle) -> FieldSig:
    """The oracle for the cell taint.build_graph gives a field access: the
    declaration of fld's type and name in the first class up its in-bundle
    superclass chain that declares one, or fld itself when none does."""
    cls = fld.declaring_class
    seen = set()
    while cls is not None and cls in bundle.code_units and cls not in seen:
        seen.add(cls)
        unit = bundle.code_units[cls]
        for f in unit.fields:
            if f.type == fld.type and f.name == fld.name:
                return f
        cls = unit.superclass
    return fld


def reference_statement_index(bundle: AppBundle) -> dict[StmtId, object]:
    """Statement id -> statement over all code in sorted class order: the
    oracle for AppBundle.statement and for the order of iter_statements."""
    units = bundle.code_units
    return {
        s.sid: s for name in sorted(units) for m in units[name].methods for s in m.statements
    }


def reference_add_call_edges(call: InvokeStmt, callee: MethodBody, reg, node, add_edge):
    """The oracle for taint._add_call_edges, which scans a callee's
    statements for its returns once per callee: this scans them at every
    call site."""
    sid, result = call.sid, call.result
    ccls = callee.sig.declaring_class
    cmtok = method_token(callee.sig)
    for i, arg in enumerate(call.args):
        if (n := reg(arg)) is not None:
            add_edge(n, node((ccls, cmtok, callee.params[i])), sid)
    if call.receiver is not None and not callee.is_static:
        add_edge(reg(call.receiver), node((ccls, cmtok, "this")), sid)
    if result is not None:
        for s in callee.statements:
            # the return statement labels the edge so cross-class hops
            # surface in the witness path
            if isinstance(s, ReturnStmt) and isinstance(s.value, str):
                add_edge(node((ccls, cmtok, s.value)), reg(result), s.sid)


def _reference_constant_candidates(reg: str, body, rtable):
    values = set()
    poisoned = False
    for s in body.statements:
        match s:
            case AssignAtom(dst=d, src=int(v)) if d == reg:
                values.add(v)
            case FieldRead(dst=d, fld=f, base=None) if (
                d == reg and f.simple_class_name == "R$id"
            ):
                num = rtable.get(f.name)
                if num is None:
                    poisoned = True
                else:
                    values.add(num)
    return values, poisoned


def reference_resolve_arg(call: InvokeStmt, body, rtable) -> int | None:
    """The id a findViewById call site of body resolves to, or None: the
    oracle for sources_sinks._find_view_sites."""
    arg = call.args[0]
    if isinstance(arg, int):
        return arg
    if not isinstance(arg, str) or arg == "this":
        return None
    values, poisoned = _reference_constant_candidates(arg, body, rtable)
    if poisoned or len(values) != 1:
        return None
    return next(iter(values))


# ---------------------------------------------------------------------------
# lexicon scan: pi.classify as it was before the term table, kept as it was


_CAMEL_LOWER_UPPER = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")
_CAMEL_ACRONYM = re.compile(r"(?<=[A-Z])(?=[A-Z][a-z])")
_NON_ALPHA = re.compile(r"[^A-Za-z]+")


def reference_tokenize(s: str) -> list[str]:
    """pi.tokenize as it was before its one pattern: split at camelCase
    boundaries, then on every run of characters other than ASCII letters."""
    s = _CAMEL_ACRONYM.sub(" ", _CAMEL_LOWER_UPPER.sub(" ", s))
    return [t.lower() for t in _NON_ALPHA.split(s) if t]


def _scan_weight(entry):
    """Character length of the term; longer terms are more specific."""
    return sum(len(t) for t in entry.tokens)


def _scan_matches(tokens, entry):
    """Whole-token containment; multi-token terms must appear contiguously."""
    k = len(entry.tokens)
    return any(tuple(tokens[i : i + k]) == entry.tokens for i in range(len(tokens) - k + 1))


def scan_classify(view, lexicon):
    """Every lexicon entry tried against each signal; the oracle for pi.classify."""
    for signal in (view.id_name, view.hint, view.text):
        if not signal:
            continue
        tokens = reference_tokenize(signal)
        if not tokens:
            continue
        matched = [e for e in lexicon.entries if _scan_matches(tokens, e)]
        if matched:
            best = min(matched, key=lambda e: (-_scan_weight(e), KIND_ORDER[e.kind]))
            return best.kind
    return None


# ---------------------------------------------------------------------------
# reference parser: the one-name-per-token lexer and parser as ir had them
# before its coarse tokens and its line fast path, kept as they were


class UnknownInvokeKind(IrSyntaxError):
    """The reference parser's error for a name that ends in "invoke" and
    is not an invoke kind."""


class MalformedSignature(IrSyntaxError):
    """The reference parser's error for a malformed signature."""


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
# how the renderer spells each character that _ESCAPES decodes to
_UNESCAPES = {c: "\\" + e for e, c in _ESCAPES.items()}

# A string literal without its closing quote: raw characters other than a
# quote, backslash or newline, and the escapes of _ESCAPES.
_STR_BODY = r'"(?:[^"\\\n]|\\[nt"\\r])*'
# One token per match; the leading blanks are skipped without a token.
# Digit and letter classes are spelled out because \d and \w also take
# non-ASCII digits and letters such as "²", "٣" and "é".
_TOKEN = re.compile(
    rf"""[ \t\r]*(?:
      (?P<nl>\n)
    | (?P<ident>[A-Za-z_$][A-Za-z0-9_$]*)
    | (?P<hex>-?0[xX][0-9a-fA-F]*)
    | (?P<int>-?[0-9]+)
    | (?P<str>{_STR_BODY}")
    | (?P<punct>[<>(),:.=\[\]])
    | (?P<eof>\Z)
    | (?P<bad>.)
    )""",
    re.VERBOSE,
)
# An unclosed literal's body stops at its first bad escape, or at the
# newline or end of text that leaves it unterminated.
_STR_PREFIX = re.compile(_STR_BODY)
_ESCAPE = re.compile(r"\\(.)")


@dataclass(slots=True)
class _Tok:
    kind: str  # ident | int | str | punct | nl | eof
    value: object
    line: int
    col: int


def _lex(text, filename):
    toks = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        value = m[kind]
        start = m.end() - len(value)
        col = start - line_start + 1
        if kind == "int":
            value = int(value)
        elif kind == "hex":
            if value[-1] in "xX":
                raise IrSyntaxError("bad hex literal", filename, line, col)
            kind, value = "int", int(value, 16)
        elif kind == "str":
            value = _ESCAPE.sub(lambda e: _ESCAPES[e[1]], value[1:-1])
        elif kind == "nl":
            toks.append(_Tok(kind, value, line, col))
            line, line_start = line + 1, m.end()
            continue
        elif kind == "eof":
            toks.append(_Tok(kind, None, line, col))
            return toks
        elif kind == "bad":
            if value == '"':
                stop = _STR_PREFIX.match(text, start).end()
                if stop < len(text) and text[stop] == "\\":
                    col = stop - line_start + 1
                    raise IrSyntaxError("bad escape in string", filename, line, col)
                raise IrSyntaxError("unterminated string literal", filename, line, col)
            raise IrSyntaxError(f"unexpected character {value!r}", filename, line, col)
        toks.append(_Tok(kind, value, line, col))


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, text, filename):
        self.filename = filename
        self.toks = _lex(text, filename)
        self.toks += self.toks[-1:] * 2  # peek(2) past the end reads eof
        self.pos = 0

    # -- token plumbing

    def peek(self, ahead=0):
        return self.toks[self.pos + ahead]

    def next(self):
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message, tok=None, cls=IrSyntaxError):
        tok = tok or self.peek()
        raise cls(message, self.filename, tok.line, tok.col)

    def at_punct(self, ch):
        t = self.peek()
        return t.kind == "punct" and t.value == ch

    def at_word(self, word):
        t = self.peek()
        return t.kind == "ident" and t.value == word

    def expect_punct(self, ch, cls=IrSyntaxError):
        if not self.at_punct(ch):
            self.error(f"expected {ch!r}", cls=cls)
        return self.next()

    def expect_word(self, word):
        if not self.at_word(word):
            self.error(f"expected {word!r}")
        return self.next()

    def expect_ident(self, what="identifier", cls=IrSyntaxError):
        t = self.peek()
        if t.kind != "ident":
            self.error(f"expected {what}", cls=cls)
        return self.next().value

    def skip_newlines(self):
        while self.peek().kind == "nl":
            self.next()

    def end_line(self):
        t = self.peek()
        if t.kind == "eof":
            return
        if t.kind != "nl":
            self.error("expected end of line")
        self.skip_newlines()

    # -- small grammar pieces

    def qname(self, cls=IrSyntaxError):
        parts = [self.expect_ident("qualified name", cls=cls)]
        while self.at_punct(".") and self.peek(1).kind == "ident":
            self.next()
            parts.append(self.next().value)
        return ".".join(parts)

    def type_name(self, cls=IrSyntaxError):
        name = self.qname(cls=cls)
        while self.at_punct("["):
            self.next()
            self.expect_punct("]", cls=cls)
            name += "[]"
        return name

    def register(self, what="register"):
        t = self.peek()
        if t.kind != "ident":
            self.error(f"expected {what}")
        if t.value in RESERVED:
            self.error(f"{t.value!r} cannot be used as a {what}")
        return self.next().value

    def atom(self):
        t = self.peek()
        if t.kind == "int":
            return self.next().value
        if t.kind == "str":
            value = "".join(_UNESCAPES.get(c, c) for c in self.next().value)
            return Const(f'"{value}"')
        if t.kind == "ident":
            if t.value == "null":
                self.next()
                return Const("null")
            if t.value == "this":
                self.next()
                return "this"
            return self.register()
        self.error("expected atom")

    def field_sig(self):
        """<QName: Type Name> with the angle brackets."""
        self.expect_punct("<", cls=MalformedSignature)
        cls_name = self.qname(cls=MalformedSignature)
        self.expect_punct(":", cls=MalformedSignature)
        ftype = self.type_name(cls=MalformedSignature)
        fname = self.expect_ident("field name", cls=MalformedSignature)
        self.expect_punct(">", cls=MalformedSignature)
        return FieldSig(cls_name, ftype, fname)

    def method_sig(self):
        """<QName: Type Name(Type, ...)> with the angle brackets."""
        self.expect_punct("<", cls=MalformedSignature)
        cls_name = self.qname(cls=MalformedSignature)
        self.expect_punct(":", cls=MalformedSignature)
        rtype = self.type_name(cls=MalformedSignature)
        mname = self.expect_ident("method name", cls=MalformedSignature)
        self.expect_punct("(", cls=MalformedSignature)
        params = []
        if not self.at_punct(")"):
            params.append(self.type_name(cls=MalformedSignature))
            while self.at_punct(","):
                self.next()
                params.append(self.type_name(cls=MalformedSignature))
        self.expect_punct(")", cls=MalformedSignature)
        self.expect_punct(">", cls=MalformedSignature)
        return MethodSig(cls_name, rtype, mname, tuple(params))

    def invoke_call(self):
        """(kind, receiver, signature, arguments) of the call an invoke
        statement makes."""
        kind_tok = self.peek()
        kind = self.expect_ident("invoke kind")
        if kind not in INVOKE_KINDS:
            self.error(f"unknown invoke kind {kind!r}", kind_tok, UnknownInvokeKind)
        receiver = None
        if kind == "staticinvoke":
            if not self.at_punct("<"):
                self.error("staticinvoke takes no receiver")
        else:
            t = self.peek()
            if t.kind != "ident":
                self.error("expected receiver register")
            if t.value == "this":
                self.next()
                receiver = "this"
            else:
                receiver = self.register("receiver")
            self.expect_punct(".")
        sig = self.method_sig()
        self.expect_punct("(")
        args = []
        if not self.at_punct(")"):
            args.append(self.atom())
            while self.at_punct(","):
                self.next()
                args.append(self.atom())
        self.expect_punct(")")
        if len(args) != len(sig.param_types):
            self.error(
                f"{len(args)} argument(s) for {len(sig.param_types)} parameter(s)",
                kind_tok,
            )
        return kind, receiver, sig, tuple(args)

    # -- statements

    def statement(self, make_sid):
        t = self.peek()
        if t.kind == "ident" and t.value == "return":
            self.next()
            value = None
            if self.peek().kind not in ("nl", "eof"):
                value = self.atom()
            stmt = ReturnStmt(make_sid(), value)
        elif t.kind == "ident" and t.value in INVOKE_KINDS:
            stmt = InvokeStmt(make_sid(), None, *self.invoke_call())
        elif t.kind == "ident" and t.value.endswith("invoke"):
            self.error(f"unknown invoke kind {t.value!r}", t, UnknownInvokeKind)
        elif self.at_punct("<"):
            fld = self.field_sig()
            self.expect_punct("=")
            value = self.atom()
            stmt = FieldWrite(make_sid(), fld, None, value)
        elif t.kind == "ident":
            dst = self.register()
            if self.at_punct("="):
                self.next()
                stmt = self.assignment_rhs(dst, make_sid)
            elif self.at_punct("."):
                self.next()
                fld = self.field_sig()
                self.expect_punct("=")
                value = self.atom()
                stmt = FieldWrite(make_sid(), fld, dst, value)
            else:
                self.error("expected '=' or '.' after register")
        else:
            self.error("expected statement")
        self.end_line()
        return stmt

    def assignment_rhs(self, dst, make_sid):
        t = self.peek()
        if t.kind == "ident" and t.value in INVOKE_KINDS:
            return InvokeStmt(make_sid(), dst, *self.invoke_call())
        if t.kind == "ident" and t.value.endswith("invoke"):
            self.error(f"unknown invoke kind {t.value!r}", t, UnknownInvokeKind)
        if self.at_punct("("):
            self.next()
            cast_type = self.type_name()
            self.expect_punct(")")
            src = self.register("cast operand")
            return AssignCast(make_sid(), dst, cast_type, src)
        if self.at_punct("<"):
            fld = self.field_sig()
            return FieldRead(make_sid(), dst, fld, None)
        if t.kind == "ident" and self.peek(1).kind == "punct" and self.peek(1).value == ".":
            if self.peek(2).kind == "punct" and self.peek(2).value == "<":
                base = self.register("base register")
                self.next()  # the dot
                fld = self.field_sig()
                return FieldRead(make_sid(), dst, fld, base)
        return AssignAtom(make_sid(), dst, self.atom())

    # -- declarations

    def method_decl(self, class_name, seen_sigs):
        head = self.expect_word("method")
        is_static = False
        if self.at_word("static"):
            self.next()
            is_static = True
        rtype = self.type_name()
        name_tok = self.peek()
        name = self.expect_ident("method name")
        if name in RESERVED:
            self.error(f"{name!r} cannot be used as a method name", name_tok)
        self.expect_punct("(")
        ptypes, pnames = [], []
        if not self.at_punct(")"):
            while True:
                ptypes.append(self.type_name())
                pnames.append(self.register("parameter"))
                if not self.at_punct(","):
                    break
                self.next()
        self.expect_punct(")")
        self.expect_punct(":")
        self.end_line()
        sig = MethodSig(class_name, rtype, name, tuple(ptypes))
        if (name, sig.param_types) in seen_sigs:
            self.error(f"duplicate method {method_token(sig)}", head)
        seen_sigs.add((name, sig.param_types))
        if len(set(pnames)) != len(pnames):
            self.error("duplicate parameter name", head)

        token = method_token(sig)
        statements = []
        lines = []
        while True:
            self.skip_newlines()
            if self.peek().kind == "eof" or self.at_word("method"):
                break
            if self.at_word("field") or self.at_word("class"):
                self.error("declarations must precede method bodies")
            ordinal = len(statements)
            line = self.peek().line
            stmt = self.statement(lambda: StmtId(class_name, token, ordinal))
            statements.append(stmt)
            lines.append(line)
        body = MethodBody(sig, tuple(pnames), is_static, tuple(statements))
        self._check_registers(body, lines, head)
        return body

    def _check_registers(self, body, lines, head_tok):
        """Every register read must be a parameter, `this`, or assigned somewhere."""
        assigned = set(body.params)
        for s in body.statements:
            match s:
                case AssignAtom(dst=d) | AssignCast(dst=d) | FieldRead(dst=d):
                    assigned.add(d)
                case InvokeStmt(result=str(rn)):
                    assigned.add(rn)

        def reads_of(s):
            out = []
            match s:
                case AssignAtom(src=a) | ReturnStmt(value=a) if isinstance(a, str):
                    out.append(a)
                case AssignCast(src=r):
                    out.append(r)
                case FieldRead(base=str() as b):
                    out.append(b)
                case FieldWrite(base=b, value=v):
                    if isinstance(b, str):
                        out.append(b)
                    if isinstance(v, str):
                        out.append(v)
                case InvokeStmt(receiver=b, args=args):
                    if b is not None:
                        out.append(b)
                    out.extend(a for a in args if isinstance(a, str))
            return out

        for s, line in zip(body.statements, lines):
            for r in reads_of(s):
                if r == "this":
                    if body.is_static:
                        raise IrSyntaxError(
                            "'this' read in a static method", self.filename, line, 1
                        )
                    continue
                if r not in assigned:
                    raise IrSyntaxError(
                        f"register {r!r} is read but never assigned",
                        self.filename,
                        line,
                        1,
                    )

    def code_unit(self):
        self.skip_newlines()
        self.expect_word("class")
        class_name = self.qname()
        superclass = None
        if self.at_word("extends"):
            self.next()
            superclass = self.qname()
        self.end_line()

        fields = []
        while self.at_word("field"):
            self.next()
            ftype = self.type_name()
            fname = self.expect_ident("field name")
            fields.append(FieldSig(class_name, ftype, fname))
            self.end_line()

        methods = []
        seen = set()
        while self.at_word("method"):
            methods.append(self.method_decl(class_name, seen))
            self.skip_newlines()
        if self.peek().kind != "eof":
            self.error("expected 'method' or end of file")
        return CodeUnit(class_name, superclass, tuple(fields), tuple(methods))


def typed(value):
    """value in a form that compares type for type.

    The model's NamedTuples compare as plain tuples, so Const("k") == ("k",)
    and a statement or signature equals a tuple of another type with the
    same items; a code unit's rendering tells its atoms and statements
    apart, and the type tells any other value apart.
    A dict (a bundle's code units) compares value by value.
    """
    if isinstance(value, CodeUnit):
        return value, render_code_unit(value)
    if isinstance(value, dict):
        return {k: typed(v) for k, v in value.items()}
    return type(value), value


def reference_parse_code_unit(text: str, filename: str = "<unit>") -> CodeUnit:
    """Parse one class worth of IR text.

    Raises IrSyntaxError (or its UnknownInvokeKind / MalformedSignature
    refinements) with a file:line:col location on any malformed input.
    """
    return _Parser(text, filename).code_unit()


def reference_parse_method_sig(text: str) -> MethodSig:
    """Parse a canonical `<Class: RetType name(T1,T2)>` signature string."""
    p = _Parser(text, "<signature>")
    p.skip_newlines()
    sig = p.method_sig()
    p.skip_newlines()
    if p.peek().kind != "eof":
        p.error("trailing input after signature", cls=MalformedSignature)
    return sig
