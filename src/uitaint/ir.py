"""Three-address IR for decompiled app code: model, parser, renderer, bundle loader.

A code unit is one class in a Jimple-like textual form, one statement per line:

    class com.example.Main extends android.app.Activity
    field java.lang.String cached
    method void onCreate(android.os.Bundle b1):
      r0 = this
      $r1 = virtualinvoke r0.<com.example.Main: android.view.View findViewById(int)>(2131230960)
      r0.<com.example.Main: java.lang.String cached> = $r1

There is no control flow in this representation; statement order only matters
for the (class, method, ordinal) statement ids. The renderer's spelling is
the language: each line is blank (nothing but blanks, tabs or carriage
returns) or matches the pattern of one line form, down to every blank, but
an integer literal may also be written in 0x hex and a string literal may
hold a raw tab or carriage return. Any other text raises IrSyntaxError at
file:line:col.
"""

from __future__ import annotations

import os
import re
from codecs import BOM_UTF8
from pathlib import Path
from typing import NamedTuple

from .errors import (
    DuplicateClass,
    IrSyntaxError,
    MalformedManifest,
    MissingManifest,
    RTableSyntaxError,
    XmlSyntaxError,
)
from .lines import numbered_lines

INVOKE_KINDS = ("virtualinvoke", "interfaceinvoke", "specialinvoke", "staticinvoke")

# Words the statement parser dispatches on; they cannot name a register.
RESERVED = frozenset(
    {"class", "extends", "field", "method", "static", "return", "null", "this"}
    | set(INVOKE_KINDS)
)

MAX_RESOURCE_ID = 0xFFFFFFFF


# ---------------------------------------------------------------------------
# model

# Model values are NamedTuples, cheaper to define than dataclasses. An atom
# is a register's name (a str, "this" for the receiver), an integer
# constant's int, or a Const, so its type tells it apart. The analysis
# reads no string or null value, so a Const holds its rendered text.


class StmtId(NamedTuple):
    """Unique statement id: (class, method token, ordinal within the body)."""

    cls: str
    method: str
    ordinal: int


class Const(NamedTuple):
    """A string literal or null, as the renderer writes it: "k" or null."""

    text: str


Atom = str | int | Const


class MethodSig(NamedTuple):
    declaring_class: str
    return_type: str
    name: str
    param_types: tuple[str, ...]


class FieldSig(NamedTuple):
    declaring_class: str
    type: str
    name: str

    @property
    def simple_class_name(self):
        return self.declaring_class.rsplit(".", 1)[-1]


class AssignAtom(NamedTuple):
    sid: StmtId
    dst: str
    src: Atom


class AssignCast(NamedTuple):
    sid: StmtId
    dst: str
    cast_type: str
    src: str


class FieldRead(NamedTuple):
    sid: StmtId
    dst: str
    fld: FieldSig
    base: str | None  # None for static reads


class FieldWrite(NamedTuple):
    sid: StmtId
    fld: FieldSig
    base: str | None
    value: Atom


class InvokeStmt(NamedTuple):
    sid: StmtId
    result: str | None
    kind: str  # one of INVOKE_KINDS
    receiver: str | None  # None for staticinvoke
    sig: MethodSig
    args: tuple[Atom, ...]


class ReturnStmt(NamedTuple):
    sid: StmtId
    value: Atom | None


Statement = AssignAtom | AssignCast | FieldRead | FieldWrite | InvokeStmt | ReturnStmt


def method_token(sig: MethodSig) -> str:
    """Short method key used in statement ids; disambiguates overloads."""
    return f"{sig.name}({','.join(sig.param_types)})"


class MethodBody(NamedTuple):
    sig: MethodSig
    params: tuple[str, ...]
    is_static: bool
    statements: tuple[Statement, ...]


class CodeUnit(NamedTuple):
    class_name: str
    superclass: str | None
    fields: tuple[FieldSig, ...]
    methods: tuple[MethodBody, ...]


class LayoutDoc(NamedTuple):
    """A parsed layout XML file; `file` is the name within res/layout/."""

    file: str
    root: xml.etree.ElementTree.Element


class AppBundle:
    """One app. rtable maps layout id names to integer ids; methods, built
    once here, maps (class, method token) to the body of every method, in
    sorted class order, and each method and statement lookup reads it."""

    __slots__ = ("app_package", "layouts", "rtable", "code_units", "methods")

    def __init__(self, app_package: str, layouts: list[LayoutDoc], rtable: dict[str, int],
                 code_units: dict[str, CodeUnit]):
        self.app_package = app_package
        self.layouts = layouts
        self.rtable = rtable
        self.code_units = code_units
        self.methods: dict[tuple[str, str], MethodBody] = {
            (name, method_token(m.sig)): m
            for name in sorted(code_units)
            for m in code_units[name].methods
        }

    def iter_statements(self):
        """Yield (unit, method, statement) over all code in sorted class order."""
        for (cls, _), m in self.methods.items():
            unit = self.code_units[cls]
            for s in m.statements:
                yield unit, m, s

    def statement(self, sid: StmtId) -> Statement:
        return self.methods[sid.cls, sid.method].statements[sid.ordinal]


# ---------------------------------------------------------------------------
# names and literals

# A string literal without its closing quote: raw characters other than a
# quote, backslash or newline, and the escapes \n \t \r \" \\.
_STR_BODY = r'"(?:[^"\\\n]|\\[nt"\\r])*'
# Digit and letter classes are spelled out because \d and \w also take
# non-ASCII digits and letters such as "²", "٣" and "é".
_IDENT = r"[A-Za-z_$][A-Za-z0-9_$]*"


# ---------------------------------------------------------------------------
# parser

# One anchored pattern per line form, spelled as render_code_unit spells it.
# A signature's class, type, name and, for a method, parameter list are
# groups of the line pattern, so nothing matches a signature text again.
_QNAME = rf"{_IDENT}(?:\.{_IDENT})*"
_TYPE = rf"{_QNAME}(?:\[\])*"
# hex before decimal, so that a scan for atoms takes 0x1f whole
_ATOM = rf'-?0[xX][0-9a-fA-F]+|-?[0-9]+|{_STR_BODY}"|{_IDENT}'
_SIG_HEAD = rf"<({_QNAME}): ({_TYPE}) ({_IDENT})"
_CLASS_LINE = re.compile(rf"class ({_QNAME})(?: extends ({_QNAME}))?")
_FIELD_LINE = re.compile(rf"field ({_TYPE}) ({_IDENT})")
_METHOD_LINE = re.compile(
    rf"method (static )?({_TYPE}) ({_IDENT})\(((?:{_TYPE} {_IDENT}(?:, {_TYPE} {_IDENT})*)?)\):"
)
_RETURN_LINE = re.compile(rf"  return(?: ({_ATOM}))?")
_INVOKE_LINE = re.compile(
    rf"  (?:({_IDENT}) = )?({'|'.join(INVOKE_KINDS)}) (?:({_IDENT})\.)?"
    rf"({_SIG_HEAD}\(((?:{_TYPE}(?:,{_TYPE})*)?)\)>)\(((?:{_ATOM})(?:, (?:{_ATOM}))*)?\)"
)
_FIELD_WRITE_LINE = re.compile(rf"  (?:({_IDENT})\.)?({_SIG_HEAD}>) = ({_ATOM})")
_ASSIGN_LINE = re.compile(
    rf"  ({_IDENT}) = (?:(?:({_IDENT})\.)?({_SIG_HEAD}>)|\(({_TYPE})\) ({_IDENT})|({_ATOM}))"
)
_ATOMS = re.compile(_ATOM)
# A method signature exactly as render_method_sig spells it, for
# parse_method_sig; the groups are class, type, name and parameter list.
_SIG = re.compile(rf"{_SIG_HEAD}\(((?:{_TYPE}(?:,{_TYPE})*)?)\)>")


# A model type called as a function runs the NamedTuple's Python __new__;
# _new(type, values) builds the same tuple in C.
_new = tuple.__new__


class _LineError(Exception):
    """An error at (column, message), in the line being read or, where a
    third value is given, in the line of that number. _parse_lines turns
    it into the IrSyntaxError that names the file."""


def _sig(text, shared, cls_name, type_name, name, params=None):
    """The one MethodSig, or FieldSig where params is None, of signature
    text in shared, built from the groups that spell it out."""
    sig = shared.get(text)
    if sig is None:
        if params is None:
            sig = _new(FieldSig, (cls_name, type_name, name))
        else:
            params = tuple(params.split(",")) if params else ()
            sig = _new(MethodSig, (cls_name, type_name, name, params))
        shared[text] = sig
    return sig


def _col(m, g, text):
    """The column of the first atom spelled text in group g of match m.

    Each group the helpers below read holds one atom, but for an invoke
    line's arguments; an argument is read alike wherever it stands, so the
    first one that fails is the first one spelled text.
    """
    return next(a.start() for a in _ATOMS.finditer(m.string, *m.span(g)) if a[0] == text) + 1


def _reg(name, shared, m, g, what="register"):
    """The one copy in shared of a register name that is not reserved, from
    group g of match m."""
    value = shared.get(name)
    if value is None:
        if name in RESERVED:
            raise _LineError(_col(m, g, name), f"{name!r} cannot be used as a {what}")
        value = shared[name] = name
    return value


def _base(name, shared, m, g, what="register"):
    """The register a statement or right-hand side starts with, where a
    name that ends in "invoke" is an invoke kind."""
    if name.endswith("invoke") and name not in INVOKE_KINDS:
        raise _LineError(m.start(g) + 1, f"unknown invoke kind {name!r}")
    return _reg(name, shared, m, g, what)


def _atom(text, shared, m, g):
    """The atom spelled text, from group g of match m. A raw tab or
    carriage return in a string literal is kept as its escape, which is
    how the renderer spells it."""
    first = text[0]
    if first == '"':
        return Const(text.replace("\t", "\\t").replace("\r", "\\r"))
    if first in "-0123456789":
        if "x" in text or "X" in text:
            return int(text, 16)
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            raise _LineError(_col(m, g, text), "integer literal too long") from None
    if text == "null":
        return Const(text)
    if text == "this":
        return "this"
    return _reg(text, shared, m, g)


def _names(*atoms):
    """The names of the registers among atoms."""
    return [a for a in atoms if type(a) is str]


def _statement(line, shared):
    """What _parse_lines keeps of one statement line: (statement type, the
    statement's fields after its sid, the names of the registers it reads in
    the order they are spelled, the name of the register it assigns or
    None)."""
    m = _RETURN_LINE.fullmatch(line) if line[2:8] == "return" else None
    if m:
        value = None if m[1] is None else _atom(m[1], shared, m, 1)
        return ReturnStmt, (value,), _names(value), None
    m = _INVOKE_LINE.fullmatch(line)
    if m:
        dst, kind, recv, sig_text, cls_name, rtype, name, params, args = m.groups()
        result = None if dst is None else _base(dst, shared, m, 1)
        if recv is None:
            if kind != "staticinvoke":
                raise _LineError(m.start(4) + 1, "expected receiver register")
        elif kind == "staticinvoke":
            raise _LineError(m.start(3) + 1, "staticinvoke takes no receiver")
        else:
            recv = "this" if recv == "this" else _reg(recv, shared, m, 3, "receiver")
        sig = _sig(sig_text, shared, cls_name, rtype, name, params)
        args = tuple(_atom(a, shared, m, 9) for a in _ATOMS.findall(args)) if args else ()
        if len(args) != len(sig.param_types):
            message = f"{len(args)} argument(s) for {len(sig.param_types)} parameter(s)"
            raise _LineError(m.start(2) + 1, message)
        return InvokeStmt, (result, kind, recv, sig, args), _names(recv, *args), dst
    m = _ASSIGN_LINE.fullmatch(line)
    if m:
        dst, base, sig_text, cls_name, ftype, name, cast_type, src, atom = m.groups()
        reg = _base(dst, shared, m, 1)
        if sig_text is not None:
            base = None if base is None else _base(base, shared, m, 2, "base register")
            fld = _sig(sig_text, shared, cls_name, ftype, name)
            return FieldRead, (reg, fld, base), _names(base), dst
        if cast_type is not None:
            operand = _reg(src, shared, m, 8, "cast operand")
            return AssignCast, (reg, cast_type, operand), [src], dst
        if atom.endswith("invoke"):
            atom = _base(atom, shared, m, 9)
        else:
            atom = _atom(atom, shared, m, 9)
        return AssignAtom, (reg, atom), _names(atom), dst
    m = _FIELD_WRITE_LINE.fullmatch(line)
    if m:
        base, sig_text, cls_name, ftype, name, value = m.groups()
        base = None if base is None else _base(base, shared, m, 1)
        value = _atom(value, shared, m, 6)
        fld = _sig(sig_text, shared, cls_name, ftype, name)
        return FieldWrite, (fld, base, value), _names(base, value), None
    raise _LineError(1, "expected statement")


def _header(line):
    """What _parse_lines keeps of one method header line, whose checks that
    depend only on its text have passed: (return type, name, parameter
    types, parameter names, is static)."""
    m = _METHOD_LINE.fullmatch(line)
    # after "method ", the word "static" is the keyword, never a return type
    if m is None or (m[1] is None and m[2][:6] == "static" and m[2][6:7] in ("", ".", "[")):
        raise _LineError(1, "expected method header")
    static, rtype, name, params = m.groups()
    if name in RESERVED:
        raise _LineError(m.start(3) + 1, f"{name!r} cannot be used as a method name")
    pairs = [p.split(" ") for p in params.split(", ")] if params else []
    ptypes = tuple(t for t, _ in pairs)
    pnames = tuple(n for _, n in pairs)
    if not RESERVED.isdisjoint(pnames):
        col = m.start(4) + 1
        for t, n in pairs:
            if n in RESERVED:
                raise _LineError(col + len(t) + 1, f"{n!r} cannot be used as a parameter")
            col += len(t) + len(n) + 3
    if len(set(pnames)) != len(pnames):
        raise _LineError(1, "duplicate parameter name")
    return rtype, name, ptypes, pnames, static is not None


def _parse_lines(text, shared, filename):
    """The CodeUnit of text, each of whose lines is blank (nothing but
    blanks, tabs or carriage returns) or spelled as render_code_unit
    spells it.

    Raises IrSyntaxError at filename:line:col on any other text. Signatures
    and registers come from shared (see _sig and _reg), and so does what
    _statement makes of each statement line and _header of each method
    header line; a line either refuses is not kept. The checks that need
    more than one line (a duplicate method, the register check) run for
    every class.
    """
    class_name = superclass = None
    fields, methods, tokens = [], [], set()
    head = None  # (sig, params, is_static, line number) of the method being read
    lines = text.split("\n")
    try:
        for lineno, line in enumerate(lines, 1):
            if line[:2] == "  ":
                entry = shared.get(line)
                if entry is None:
                    if not line.strip(" \t\r"):
                        continue
                    entry = shared[line] = _statement(line, shared)
                if head is None:
                    raise _LineError(1, "statement outside a method"
                                     if class_name else "expected class declaration")
                kind, rest, reads, dst = entry
                sid = _new(StmtId, (class_name, token, len(statements)))
                statements.append(_new(kind, (sid, *rest)))
                read.update(reads)
                if dst is not None:
                    assigned.add(dst)
            elif line[:7] == "method ":
                entry = shared.get(line)
                if entry is None:
                    entry = shared[line] = _header(line)
                rtype, name, ptypes, pnames, is_static = entry
                if class_name is None:
                    raise _LineError(1, "expected class declaration")
                sig = _new(MethodSig, (class_name, rtype, name, ptypes))
                token = method_token(sig)
                if token in tokens:
                    raise _LineError(1, f"duplicate method {token}")
                tokens.add(token)
                if head is not None:
                    methods.append(_method_body(head, statements, read, assigned, lines, shared))
                head = (sig, pnames, is_static, lineno)
                statements, read, assigned = [], set(), set(pnames)
            elif line[:6] == "field ":
                m = _FIELD_LINE.fullmatch(line)
                if m is None:
                    raise _LineError(1, "expected field declaration")
                if class_name is None:
                    raise _LineError(1, "expected class declaration")
                if head is not None:
                    raise _LineError(1, "declarations must precede method bodies")
                fields.append(_new(FieldSig, (class_name, m[1], m[2])))
            elif line[:6] == "class ":
                m = _CLASS_LINE.fullmatch(line)
                if m is None:
                    raise _LineError(1, "expected class declaration")
                if head is not None:
                    raise _LineError(1, "declarations must precede method bodies")
                if class_name is not None:
                    raise _LineError(1, "class already declared")
                class_name, superclass = m.groups()
            elif line.strip(" \t\r"):
                raise _LineError(1, "expected declaration or statement")
        if class_name is None:
            raise _LineError(1, "expected class declaration")
        if head is not None:
            methods.append(_method_body(head, statements, read, assigned, lines, shared))
    except _LineError as e:
        col, message, *at = e.args
        raise IrSyntaxError(message, filename, at[0] if at else lineno, col) from None
    return _new(CodeUnit, (class_name, superclass, tuple(fields), tuple(methods)))


def _method_body(head, statements, read, assigned, lines, shared):
    """The MethodBody of head and statements, which read the registers named
    in read and assign those in assigned; head's last item is the number of
    its header line in lines, and shared holds what _statement made of each
    statement line.

    Every register read must be a parameter or assigned somewhere in the
    body, or be `this` in a method that is not static (`this` is never
    assigned: it is reserved as a parameter and a target). The first read
    that is not raises its error at the line of its statement.
    """
    sig, params, is_static, start = head
    bad = read - assigned
    if bad and (is_static or bad != {"this"}):
        if not is_static:
            bad.discard("this")
        # the method's statement lines follow its header, and each one's
        # entry lists the registers it reads in order; a blank line has none
        at, name = next((n, r) for n in range(start, len(lines))
                        if lines[n][:2] == "  " and lines[n] in shared
                        for r in shared[lines[n]][2] if r in bad)
        if name == "this":
            raise _LineError(1, "'this' read in a static method", at + 1)
        raise _LineError(1, f"register {name!r} is read but never assigned", at + 1)
    return _new(MethodBody, (sig, params, is_static, tuple(statements)))


def parse_code_unit(text: str, filename: str = "<unit>") -> CodeUnit:
    """Parse one class worth of IR text.

    Raises IrSyntaxError with a file:line:col location on any malformed input.
    """
    return _parse_lines(text, {}, filename)


def parse_method_sig(text: str) -> MethodSig:
    """Parse a `<Class: RetType name(T1,T2)>` signature spelled as
    render_method_sig spells it."""
    m = _SIG.fullmatch(text)
    if m is None:
        raise IrSyntaxError("expected method signature", "<signature>", 1, 1)
    return _sig(text, {}, *m.groups())


# ---------------------------------------------------------------------------
# renderer


def render_method_sig(sig: MethodSig) -> str:
    return f"<{sig.declaring_class}: {sig.return_type} {method_token(sig)}>"


def render_field_sig(fld: FieldSig) -> str:
    return f"<{fld.declaring_class}: {fld.type} {fld.name}>"


def render_atom(atom: Atom) -> str:
    match atom:
        case str():
            return atom
        case int():
            return str(atom)
        case Const(text):
            return text
    raise TypeError(f"not an atom: {atom!r}")


def render_statement(stmt: Statement) -> str:
    match stmt:
        case AssignAtom(dst=d, src=a):
            return f"{d} = {render_atom(a)}"
        case AssignCast(dst=d, cast_type=t, src=s):
            return f"{d} = ({t}) {s}"
        case FieldRead(dst=d, fld=f, base=b):
            base = f"{b}." if b is not None else ""
            return f"{d} = {base}{render_field_sig(f)}"
        case FieldWrite(fld=f, base=b, value=v):
            base = f"{b}." if b is not None else ""
            return f"{base}{render_field_sig(f)} = {render_atom(v)}"
        case InvokeStmt(result=r, kind=k, receiver=b, sig=sig, args=args):
            lhs = f"{r} = " if r is not None else ""
            recv = f"{b}." if b is not None else ""
            return f"{lhs}{k} {recv}{render_method_sig(sig)}({', '.join(map(render_atom, args))})"
        case ReturnStmt(value=v):
            return "return" if v is None else f"return {render_atom(v)}"
    raise TypeError(f"not a statement: {stmt!r}")


def render_code_unit(unit: CodeUnit) -> str:
    lines = [f"class {unit.class_name}"]
    if unit.superclass is not None:
        lines[0] += f" extends {unit.superclass}"
    for f in unit.fields:
        lines.append(f"field {f.type} {f.name}")
    for m in unit.methods:
        static = "static " if m.is_static else ""
        params = ", ".join(f"{t} {n}" for t, n in zip(m.sig.param_types, m.params))
        lines.append(f"method {static}{m.sig.return_type} {m.sig.name}({params}):")
        for s in m.statements:
            lines.append(f"  {render_statement(s)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# bundle loading


def parse_rtable(text: str, filename: str = "rtable.txt") -> dict[str, int]:
    """Parse `id <name> <int>` lines in the format of lines.numbered_lines.

    An int is ASCII decimal digits or 0x and ASCII hex digits, no sign.
    """
    entries = {}
    seen_ids = {}
    for where, line in numbered_lines(text, filename):
        parts = line.split()
        if len(parts) != 3 or parts[0] != "id":
            raise RTableSyntaxError(f"{where}: expected 'id <name> <int>'")
        _, name, value = parts
        if not re.fullmatch(r"0[xX][0-9a-fA-F]+|[0-9]+", value):
            raise RTableSyntaxError(f"{where}: bad integer {value!r}")
        try:
            num = int(value, 16) if value.lower().startswith("0x") else int(value, 10)
        except ValueError:  # more digits than int() converts
            num = None
        if num is None or not 0 <= num <= MAX_RESOURCE_ID:
            raise RTableSyntaxError(f"{where}: id out of 32-bit range")
        if name in entries:
            raise RTableSyntaxError(f"{where}: duplicate name {name!r}")
        if num in seen_ids:
            raise RTableSyntaxError(f"{where}: id {value} already bound to {seen_ids[num]!r}")
        entries[name] = num
        seen_ids[num] = name
    return entries


# What opening a path that is absent or not a file raises.
_NOT_A_FILE = (FileNotFoundError, IsADirectoryError, NotADirectoryError)


def _xml_root(path: str, error: type[Exception]):
    """The root element of the XML file at path; a syntax error, or an
    encoding its XML declaration names that no text codec decodes, raises
    error.

    ElementTree is imported here, not with the module, because loading the
    built-in configs needs this module but no XML.
    """
    from xml.etree import ElementTree

    try:
        return ElementTree.parse(path).getroot()
    # LookupError: an unknown or non-text codec; ValueError (and UnicodeError,
    # a subclass): a codec the parser cannot drive, such as utf-32 or idna
    except (ElementTree.ParseError, LookupError, ValueError) as e:
        raise error(f"{path}: {e}")


def _parse_manifest(path: str) -> str:
    try:
        root = _xml_root(path, MalformedManifest)
    except _NOT_A_FILE:
        raise MissingManifest(f"{path} not found") from None
    pkg = root.get("package")
    if pkg is None:
        raise MalformedManifest(f"{path}: root element has no package attribute")
    segments = pkg.split(".")
    if not pkg or any(not seg for seg in segments):
        raise MalformedManifest(f"{path}: bad package name {pkg!r}")
    return pkg


def _read_text(path: str) -> str:
    """The text of a file as Path.read_text(encoding="utf-8-sig",
    errors="replace") reads it: one leading byte-order mark skipped, bad
    bytes replaced, and "\\r\\n" and "\\r" read as "\\n"."""
    with open(path, "rb", buffering=0) as fh:
        data = fh.read()
    if len(data) < 3 and BOM_UTF8.startswith(data):
        return ""  # read_text drops a file that is only the start of a mark
    text = data.decode("utf-8-sig", "replace")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _jtac_files(code_dir: str) -> list[tuple[tuple[str, ...], str]]:
    """(parts, path) of each entry named *.jtac under code_dir, where parts
    are its path components below code_dir.

    Sorted by parts, which is how sorted(Path(code_dir).rglob("*.jtac"))
    orders them, so a DuplicateClass names the same file. Like rglob, it
    lists a directory whose name matches (reading it then fails) and does not
    descend into a symlink to a directory. A code_dir that is absent or not
    a directory holds none.
    """
    found = []
    dirs = [((), code_dir)]
    while dirs:
        parts, top = dirs.pop()
        try:
            with os.scandir(top) as entries:
                for entry in entries:
                    name = entry.name
                    if entry.is_dir(follow_symlinks=False):
                        dirs.append(((*parts, name), entry.path))
                    if name.endswith(".jtac"):
                        found.append(((*parts, name), entry.path))
        except (FileNotFoundError, NotADirectoryError):
            if parts:
                raise
    found.sort()
    return found


def parse_bundle(app_dir) -> AppBundle:
    """Load a decompiled app bundle directory into an AppBundle.

    Layout: manifest.xml (required), res/rtable.txt, res/layout/*.xml and
    code/**/*.jtac (all optional; absent means empty). Every file is read
    exactly once and the result is deterministic for a given directory.
    """
    # every path as str(Path(...)) spells it, so messages name files as
    # Path does, but built without Path objects
    base = str(Path(app_dir))
    prefix = "" if base == "." else os.path.join(base, "")
    app_package = _parse_manifest(prefix + "manifest.xml")

    rtable_path = prefix + os.path.join("res", "rtable.txt")
    try:
        text = _read_text(rtable_path)
    except _NOT_A_FILE:
        rtable = {}
    else:
        rtable = parse_rtable(text, rtable_path)

    layouts = []
    layout_dir = prefix + os.path.join("res", "layout", "")
    try:
        names = sorted(n for n in os.listdir(layout_dir) if n.endswith(".xml"))
    except (FileNotFoundError, NotADirectoryError):
        names = []
    for name in names:
        layouts.append(LayoutDoc(name, _xml_root(layout_dir + name, XmlSyntaxError)))

    code_units = {}
    shared = {}  # one entry per signature, register, statement and header text in this bundle
    for _, path in _jtac_files(prefix + "code"):
        rel = path[len(prefix):]  # code/<parts>, as errors name the file
        unit = _parse_lines(_read_text(path), shared, rel)
        if unit.class_name in code_units:
            raise DuplicateClass(f"{rel}: class {unit.class_name} already defined")
        code_units[unit.class_name] = unit

    return AppBundle(app_package, layouts, rtable, code_units)


def superclass_chain(bundle: AppBundle, cls: str):
    """Yield the code unit of cls, then of each class up its superclass
    chain, until the chain leaves the bundle or comes back to a class it
    has passed. Calls and field accesses bind to a class by this one walk;
    no subclass is ever considered."""
    units = bundle.code_units
    seen = set()
    while cls in units and cls not in seen:
        seen.add(cls)
        unit = units[cls]
        yield unit
        cls = unit.superclass


def resolve_call(call: InvokeStmt, bundle: AppBundle) -> MethodBody | None:
    """The body, in the first class up the superclass chain of the class the
    call's signature names, of the method of the call's method token (name
    and parameter types), or None when no class on the chain has one."""
    token = method_token(call.sig)
    for unit in superclass_chain(bundle, call.sig.declaring_class):
        body = bundle.methods.get((unit.class_name, token))
        if body is not None:
            return body
    return None
