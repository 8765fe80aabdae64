"""Three-address IR for decompiled app code: model, parser, renderer, bundle loader.

A code unit is one class in a Jimple-like textual form, one statement per line:

    class com.example.Main extends android.app.Activity
    field java.lang.String cached
    method void onCreate(android.os.Bundle b1):
      r0 = this
      $r1 = virtualinvoke r0.<com.example.Main: android.view.View findViewById(int)>(2131230960)
      r0.<com.example.Main: java.lang.String cached> = $r1

There is no control flow in this representation; statement order only matters
for the (class, method, ordinal) statement ids.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .errors import (
    DuplicateClass,
    IrSyntaxError,
    MalformedManifest,
    MalformedSignature,
    MissingManifest,
    RTableSyntaxError,
    UnknownInvokeKind,
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


class StmtId(NamedTuple):
    """Unique statement id: (class, method token, ordinal within the body)."""

    cls: str
    method: str
    ordinal: int


@dataclass(frozen=True)
class Reg:
    """A local register. The receiver pseudo-register is spelled "this"."""

    name: str


@dataclass(frozen=True)
class IntConst:
    value: int


@dataclass(frozen=True)
class StrConst:
    value: str


@dataclass(frozen=True)
class NullConst:
    pass


Atom = Reg | IntConst | StrConst | NullConst


@dataclass(frozen=True)
class MethodSig:
    declaring_class: str
    return_type: str
    name: str
    param_types: tuple[str, ...]


@dataclass(frozen=True)
class FieldSig:
    declaring_class: str
    type: str
    name: str

    @property
    def simple_class_name(self):
        return self.declaring_class.rsplit(".", 1)[-1]


@dataclass(frozen=True)
class InvokeExpr:
    kind: str
    receiver: Reg | None
    sig: MethodSig
    args: tuple[Atom, ...]


@dataclass(frozen=True)
class Statement:
    sid: StmtId


@dataclass(frozen=True)
class AssignAtom(Statement):
    dst: Reg
    src: Atom


@dataclass(frozen=True)
class AssignCast(Statement):
    dst: Reg
    cast_type: str
    src: Reg


@dataclass(frozen=True)
class FieldRead(Statement):
    dst: Reg
    fld: FieldSig
    base: Reg | None  # None for static reads


@dataclass(frozen=True)
class FieldWrite(Statement):
    fld: FieldSig
    base: Reg | None
    value: Atom


@dataclass(frozen=True)
class InvokeStmt(Statement):
    result: Reg | None
    expr: InvokeExpr


@dataclass(frozen=True)
class ReturnStmt(Statement):
    value: Atom | None


def method_token(sig: MethodSig) -> str:
    """Short method key used in statement ids; disambiguates overloads."""
    return f"{sig.name}({','.join(sig.param_types)})"


@dataclass
class MethodBody:
    sig: MethodSig
    params: tuple[str, ...]
    is_static: bool
    statements: tuple[Statement, ...]

    @property
    def method_token(self):
        return method_token(self.sig)


@dataclass
class CodeUnit:
    class_name: str
    superclass: str | None
    fields: tuple[FieldSig, ...]
    methods: tuple[MethodBody, ...]

    def find_method(self, name, param_types):
        for m in self.methods:
            if m.sig.name == name and m.sig.param_types == tuple(param_types):
                return m
        return None


@dataclass
class RTable:
    """Resource-id table joining layout id names to integer ids."""

    entries: dict[str, int]

    def lookup(self, name):
        return self.entries.get(name)


@dataclass
class LayoutDoc:
    """A parsed layout XML file; `file` is the name within res/layout/."""

    file: str
    root: ET.Element


@dataclass
class AppBundle:
    app_package: str
    layouts: list[LayoutDoc]
    rtable: RTable
    code_units: dict[str, CodeUnit]
    _stmt_index: dict[StmtId, Statement] | None = field(
        default=None, repr=False, compare=False
    )

    def iter_statements(self):
        """Yield (unit, method, statement) over all code in sorted class order."""
        for name in sorted(self.code_units):
            unit = self.code_units[name]
            for m in unit.methods:
                for s in m.statements:
                    yield unit, m, s

    def statement(self, sid: StmtId) -> Statement:
        if self._stmt_index is None:
            self._stmt_index = {s.sid: s for _, _, s in self.iter_statements()}
        return self._stmt_index[sid]


# ---------------------------------------------------------------------------
# lexer

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
_UNESCAPES = {"\n": "\\n", "\t": "\\t", "\r": "\\r", '"': '\\"', "\\": "\\\\"}

# A string literal without its closing quote: raw characters other than a
# quote, backslash or newline, and the escapes of _ESCAPES.
_STR_BODY = r'"(?:[^"\\\n]|\\[nt"\\r])*'
# Digit and letter classes are spelled out because \d and \w also take
# non-ASCII digits and letters such as "²", "٣" and "é".
_IDENT = r"[A-Za-z_$][A-Za-z0-9_$]*"
# One token per match: a name, a punctuation mark, a line end, a literal or
# the end of the text. The leading blanks are skipped without a token.
_TOKEN = re.compile(
    rf"""[ \t\r]*(?:
      (?P<ident>{_IDENT})
    | (?P<punct>[<>(),:.=\[\]])
    | (?P<nl>\n)
    | (?P<hex>-?0[xX][0-9a-fA-F]*)
    | (?P<int>-?[0-9]+)
    | (?P<str>{_STR_BODY}")
    | (?P<eof>\Z)
    | (?P<bad>.)
    )""",
    re.VERBOSE,
)
# An unclosed literal's body stops at its first bad escape, or at the
# newline or end of text that leaves it unterminated.
_STR_PREFIX = re.compile(_STR_BODY)
_ESCAPE = re.compile(r"\\(.)")


def _unescape(body):
    return _ESCAPE.sub(lambda e: _ESCAPES[e[1]], body)


def _lex(text, filename):
    """Tokens of text as (kind, value, line, col) tuples, the last one eof.

    Kinds are ident, punct, nl, int, str and eof.
    """
    toks = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        value = m[kind]
        start = m.end() - len(value)
        col = start - line_start + 1
        if kind == "nl":
            toks.append((kind, value, line, col))
            line, line_start = line + 1, m.end()
            continue
        elif kind == "int":
            try:
                value = int(value)
            except ValueError:  # more digits than int() converts
                raise IrSyntaxError("integer literal too long", filename, line, col) from None
        elif kind == "hex":
            if value[-1] in "xX":
                raise IrSyntaxError("bad hex literal", filename, line, col)
            kind, value = "int", int(value, 16)
        elif kind == "str":
            value = _unescape(value[1:-1])
        elif kind == "eof":
            toks.append((kind, None, line, col))
            return toks
        elif kind == "bad":
            if value == '"':
                stop = _STR_PREFIX.match(text, start).end()
                if stop < len(text) and text[stop] == "\\":
                    col = stop - line_start + 1
                    raise IrSyntaxError("bad escape in string", filename, line, col)
                raise IrSyntaxError("unterminated string literal", filename, line, col)
            raise IrSyntaxError(f"unexpected character {value!r}", filename, line, col)
        toks.append((kind, value, line, col))


# ---------------------------------------------------------------------------
# parser


class _Parser:
    """Recursive descent over the tokens of _lex: the one grammar of the IR.

    It takes any spelling the grammar allows and gives every error text;
    _parse_lines is a faster way to the same result for rendered text.
    """

    def __init__(self, text, filename):
        self.filename = filename
        toks = _lex(text, filename)
        self.toks = toks + toks[-1:] * 2  # peek(2) past the end reads eof
        self.pos = 0

    # -- token plumbing

    def peek(self, ahead=0):
        return self.toks[self.pos + ahead]

    def next(self):
        tok = self.toks[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def error(self, message, tok=None, cls=IrSyntaxError):
        tok = tok or self.peek()
        raise cls(message, self.filename, tok[2], tok[3])

    def at_punct(self, ch):
        t = self.toks[self.pos]
        return t[0] == "punct" and t[1] == ch

    def at_sig(self, ahead=0):
        """At the '<' that opens a signature."""
        t = self.toks[self.pos + ahead]
        return t[0] == "punct" and t[1] == "<"

    def at_word(self, word):
        t = self.toks[self.pos]
        return t[0] == "ident" and t[1] == word

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
        if t[0] != "ident":
            self.error(f"expected {what}", cls=cls)
        self.pos += 1
        return t[1]

    def skip_newlines(self):
        while self.toks[self.pos][0] == "nl":
            self.pos += 1

    def end_line(self):
        kind = self.toks[self.pos][0]
        if kind == "eof":
            return
        if kind != "nl":
            self.error("expected end of line")
        self.skip_newlines()

    # -- small grammar pieces

    def qname(self, cls=IrSyntaxError):
        t = self.peek()
        if t[0] != "ident":
            self.error("expected qualified name", cls=cls)
        self.pos += 1
        name = t[1]
        while self.at_punct(".") and self.peek(1)[0] == "ident":
            name += "." + self.peek(1)[1]
            self.pos += 2
        return name

    def type_name(self, cls=IrSyntaxError):
        name = self.qname(cls=cls)
        while self.at_punct("["):
            self.next()
            self.expect_punct("]", cls=cls)
            name += "[]"
        return name

    def register(self, what="register"):
        t = self.peek()
        name = self.expect_ident(what)
        if name in RESERVED:
            self.error(f"{name!r} cannot be used as a {what}", t)
        return Reg(name)

    def atom(self):
        kind, value, _, _ = self.peek()
        if kind == "int":
            self.pos += 1
            return IntConst(value)
        if kind == "str":
            self.pos += 1
            return StrConst(value)
        if kind == "ident":
            if value == "null":
                self.pos += 1
                return NullConst()
            if value == "this":
                self.pos += 1
                return Reg("this")
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

    def invoke_expr(self):
        kind_tok = self.peek()
        kind = self.expect_ident("invoke kind")
        if kind not in INVOKE_KINDS:
            self.error(f"unknown invoke kind {kind!r}", kind_tok, UnknownInvokeKind)
        receiver = None
        if kind == "staticinvoke":
            if not self.at_sig():
                self.error("staticinvoke takes no receiver")
        else:
            t = self.peek()
            if t[0] != "ident":
                self.error("expected receiver register")
            if t[1] == "this":
                self.pos += 1
                receiver = Reg("this")
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
        return InvokeExpr(kind, receiver, sig, tuple(args))

    # -- statements

    def statement(self, make_sid):
        t = self.peek()
        if t[0] == "ident" and t[1] == "return":
            self.next()
            value = None
            if self.peek()[0] not in ("nl", "eof"):
                value = self.atom()
            stmt = ReturnStmt(make_sid(), value)
        elif t[0] == "ident" and t[1] in INVOKE_KINDS:
            expr = self.invoke_expr()
            stmt = InvokeStmt(make_sid(), None, expr)
        elif t[0] == "ident" and t[1].endswith("invoke"):
            self.error(f"unknown invoke kind {t[1]!r}", t, UnknownInvokeKind)
        elif self.at_sig():
            fld = self.field_sig()
            self.expect_punct("=")
            value = self.atom()
            stmt = FieldWrite(make_sid(), fld, None, value)
        elif t[0] == "ident":
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
        if t[0] == "ident" and t[1] in INVOKE_KINDS:
            expr = self.invoke_expr()
            return InvokeStmt(make_sid(), dst, expr)
        if t[0] == "ident" and t[1].endswith("invoke"):
            self.error(f"unknown invoke kind {t[1]!r}", t, UnknownInvokeKind)
        if self.at_punct("("):
            self.next()
            cast_type = self.type_name()
            self.expect_punct(")")
            src = self.register("cast operand")
            return AssignCast(make_sid(), dst, cast_type, src)
        if self.at_sig():
            fld = self.field_sig()
            return FieldRead(make_sid(), dst, fld, None)
        if t[0] == "ident" and self.peek(1)[0] == "punct" and self.peek(1)[1] == ".":
            if self.at_sig(2):
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
                pnames.append(self.register("parameter").name)
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
            if self.peek()[0] == "eof" or self.at_word("method"):
                break
            if self.at_word("field") or self.at_word("class"):
                self.error("declarations must precede method bodies")
            ordinal = len(statements)
            line = self.peek()[2]
            stmt = self.statement(lambda: StmtId(class_name, token, ordinal))
            statements.append(stmt)
            lines.append(line)
        body = MethodBody(sig, tuple(pnames), is_static, tuple(statements))
        bad = _bad_read(body)
        if bad is not None:
            index, message = bad
            self.error(message, (None, None, lines[index], 1))
        return body

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
        if self.peek()[0] != "eof":
            self.error("expected 'method' or end of file")
        return CodeUnit(class_name, superclass, tuple(fields), tuple(methods))

    def signature(self):
        self.skip_newlines()
        sig = self.method_sig()
        self.skip_newlines()
        if self.peek()[0] != "eof":
            self.error("trailing input after signature", cls=MalformedSignature)
        return sig


def _reads(s):
    """The registers statement s reads."""
    match s:
        case AssignAtom(src=Reg() as a) | ReturnStmt(value=Reg() as a) | AssignCast(src=a):
            return (a,)
        case FieldRead(base=Reg() as b):
            return (b,)
        case FieldWrite(base=b, value=v):
            return tuple(r for r in (b, v) if isinstance(r, Reg))
        case InvokeStmt(expr=e):
            regs = tuple(a for a in e.args if isinstance(a, Reg))
            return regs if e.receiver is None else (e.receiver, *regs)
    return ()


def _bad_read(body):
    """(statement index, message) of the first bad register read in body, or None.

    Every register read must be a parameter or assigned somewhere in the
    body, or be `this` in a method that is not static.
    """
    assigned = set(body.params)
    for s in body.statements:
        match s:
            case AssignAtom(dst=d) | AssignCast(dst=d) | FieldRead(dst=d):
                assigned.add(d.name)
            case InvokeStmt(result=Reg(name=name)):
                assigned.add(name)
    for index, s in enumerate(body.statements):
        for r in _reads(s):
            if r.name == "this":
                if body.is_static:
                    return index, "'this' read in a static method"
            elif r.name not in assigned:
                return index, f"register {r.name!r} is read but never assigned"
    return None


# ---------------------------------------------------------------------------
# line fast path

# One anchored pattern per line form, spelled as render_code_unit spells it.
_QNAME = rf"{_IDENT}(?:\.{_IDENT})*"
_TYPE = rf"{_QNAME}(?:\[\])*"
_ATOM = rf'-?[0-9]+|{_STR_BODY}"|{_IDENT}'
_SIG_HEAD = rf"<{_QNAME}: {_TYPE} {_IDENT}"
_CLASS_LINE = re.compile(rf"class ({_QNAME})(?: extends ({_QNAME}))?")
_FIELD_LINE = re.compile(rf"field ({_TYPE}) ({_IDENT})")
_METHOD_LINE = re.compile(
    rf"method (static )?({_TYPE}) ({_IDENT})\(((?:{_TYPE} {_IDENT}(?:, {_TYPE} {_IDENT})*)?)\):"
)
_RETURN_LINE = re.compile(rf"  return(?: ({_ATOM}))?")
_INVOKE_LINE = re.compile(
    rf"  (?:({_IDENT}) = )?({'|'.join(INVOKE_KINDS)}) (?:({_IDENT})\.)?"
    rf"({_SIG_HEAD}\((?:{_TYPE}(?:,{_TYPE})*)?\)>)\(((?:{_ATOM})(?:, (?:{_ATOM}))*)?\)"
)
_FIELD_WRITE_LINE = re.compile(rf"  (?:({_IDENT})\.)?({_SIG_HEAD}>) = ({_ATOM})")
_ASSIGN_LINE = re.compile(
    rf"  ({_IDENT}) = (?:(?:({_IDENT})\.)?({_SIG_HEAD}>)|\(({_TYPE})\) ({_IDENT})|({_ATOM}))"
)
_ATOMS = re.compile(_ATOM)
# A signature exactly as render_method_sig / render_field_sig spell it; the
# groups are class, type, name and, for a method, the parameter list.
_SIG = re.compile(rf"<({_QNAME}): ({_TYPE}) ({_IDENT})(?:\(((?:{_TYPE}(?:,{_TYPE})*)?)\))?>")


class _Fallback(Exception):
    """Raised where the line fast path does not take a text."""


def _sig_of(text):
    cls_name, type_name, name, params = _SIG.fullmatch(text).groups()
    if params is None:
        return FieldSig(cls_name, type_name, name)
    params = tuple(params.split(",")) if params else ()
    return MethodSig(cls_name, type_name, name, params)


def _shared(text, shared):
    """The one MethodSig / FieldSig of signature text, or the one Reg of a
    register name that is not reserved, in shared."""
    value = shared.get(text)
    if value is None:
        if text[0] == "<":
            value = _sig_of(text)
        elif text in RESERVED:
            raise _Fallback
        else:
            value = Reg(text)
        shared[text] = value
    return value


def _base(name, shared):
    """The register a statement or right-hand side starts with."""
    if name.endswith("invoke"):
        raise _Fallback  # the grammar reads it as an invoke kind
    return _shared(name, shared)


def _atom(text, shared):
    first = text[0]
    if first == '"':
        return StrConst(_unescape(text[1:-1]))
    if first in "-0123456789":
        try:
            return IntConst(int(text))
        except ValueError:  # more digits than int() converts
            raise _Fallback from None
    if text == "null":
        return NullConst()
    if text == "this":
        return Reg("this")
    return _shared(text, shared)


def _statement(line, sid, shared):
    m = _RETURN_LINE.fullmatch(line) if line[2:8] == "return" else None
    if m:
        value = m[1]
        return ReturnStmt(sid, None if value is None else _atom(value, shared))
    m = _INVOKE_LINE.fullmatch(line)
    if m:
        dst, kind, recv, sig_text, args = m.groups()
        sig = _shared(sig_text, shared)
        args = tuple(_atom(a, shared) for a in _ATOMS.findall(args)) if args else ()
        if len(args) != len(sig.param_types) or (kind == "staticinvoke") != (recv is None):
            raise _Fallback
        if recv == "this":
            recv = Reg("this")
        elif recv is not None:
            recv = _shared(recv, shared)
        result = None if dst is None else _base(dst, shared)
        return InvokeStmt(sid, result, InvokeExpr(kind, recv, sig, args))
    m = _ASSIGN_LINE.fullmatch(line)
    if m:
        dst, base, sig_text, cast_type, src, atom = m.groups()
        dst = _base(dst, shared)
        if sig_text is not None:
            base = None if base is None else _base(base, shared)
            return FieldRead(sid, dst, _shared(sig_text, shared), base)
        if cast_type is not None:
            return AssignCast(sid, dst, cast_type, _shared(src, shared))
        if atom.endswith("invoke"):
            raise _Fallback  # the grammar reads it as an invoke kind
        return AssignAtom(sid, dst, _atom(atom, shared))
    m = _FIELD_WRITE_LINE.fullmatch(line)
    if m:
        base, sig_text, value = m.groups()
        base = None if base is None else _base(base, shared)
        return FieldWrite(sid, _shared(sig_text, shared), base, _atom(value, shared))
    raise _Fallback


def _parse_lines(text, shared):
    """The CodeUnit of text, each of whose lines is blank or spelled as
    render_code_unit spells it and passes the checks of _Parser.

    Raises _Fallback on any other text. Signatures and registers come from
    shared (see _shared).
    """
    class_name = superclass = None
    fields, methods, seen = [], [], set()
    head = None  # (sig, params, is_static) of the method being read
    for line in text.split("\n"):
        if line[:2] == "  ":
            if head is None:
                raise _Fallback
            statements.append(_statement(line, StmtId(class_name, token, len(statements)), shared))
        elif line[:7] == "method ":
            m = _METHOD_LINE.fullmatch(line)
            if m is None or class_name is None:
                raise _Fallback
            if head is not None:
                methods.append(_method_body(head, statements))
            static, rtype, name, params = m.groups()
            pairs = [p.split(" ") for p in params.split(", ")] if params else []
            ptypes = tuple(t for t, _ in pairs)
            pnames = tuple(n for _, n in pairs)
            if (
                name in RESERVED
                # the grammar reads a leading "static" as the keyword
                or (static is None and rtype[:6] == "static" and rtype[6:7] in ("", ".", "["))
                or (name, ptypes) in seen
                or len(set(pnames)) != len(pnames)
                or not RESERVED.isdisjoint(pnames)
            ):
                raise _Fallback
            seen.add((name, ptypes))
            head = (MethodSig(class_name, rtype, name, ptypes), pnames, static is not None)
            token = method_token(head[0])
            statements = []
        elif line[:6] == "field ":
            m = _FIELD_LINE.fullmatch(line)
            if m is None or class_name is None or head is not None:
                raise _Fallback
            fields.append(FieldSig(class_name, m[1], m[2]))
        elif line[:6] == "class ":
            m = _CLASS_LINE.fullmatch(line)
            if m is None or class_name is not None:
                raise _Fallback
            class_name, superclass = m.groups()
        elif line.strip(" \t\r"):
            raise _Fallback
    if class_name is None:
        raise _Fallback
    if head is not None:
        methods.append(_method_body(head, statements))
    return CodeUnit(class_name, superclass, tuple(fields), tuple(methods))


def _method_body(head, statements):
    body = MethodBody(*head, tuple(statements))
    if _bad_read(body) is not None:
        raise _Fallback
    return body


def parse_code_unit(text: str, filename: str = "<unit>") -> CodeUnit:
    """Parse one class worth of IR text.

    Raises IrSyntaxError (or its UnknownInvokeKind / MalformedSignature
    refinements) with a file:line:col location on any malformed input.
    """
    try:
        return _parse_lines(text, {})
    except _Fallback:
        return _Parser(text, filename).code_unit()


def parse_method_sig(text: str) -> MethodSig:
    """Parse a canonical `<Class: RetType name(T1,T2)>` signature string."""
    return _Parser(text, "<signature>").signature()


# ---------------------------------------------------------------------------
# renderer


def render_method_sig(sig: MethodSig) -> str:
    return f"<{sig.declaring_class}: {sig.return_type} {sig.name}({','.join(sig.param_types)})>"


def render_field_sig(fld: FieldSig) -> str:
    return f"<{fld.declaring_class}: {fld.type} {fld.name}>"


def _escape(s):
    return "".join(_UNESCAPES.get(c, c) for c in s)


def render_atom(atom: Atom) -> str:
    match atom:
        case Reg(name):
            return name
        case IntConst(v):
            return str(v)
        case StrConst(v):
            return f'"{_escape(v)}"'
        case NullConst():
            return "null"
    raise TypeError(f"not an atom: {atom!r}")


def render_invoke(expr: InvokeExpr) -> str:
    recv = f"{expr.receiver.name}." if expr.receiver is not None else ""
    args = ", ".join(render_atom(a) for a in expr.args)
    return f"{expr.kind} {recv}{render_method_sig(expr.sig)}({args})"


def render_statement(stmt: Statement) -> str:
    match stmt:
        case AssignAtom(dst=d, src=a):
            return f"{d.name} = {render_atom(a)}"
        case AssignCast(dst=d, cast_type=t, src=s):
            return f"{d.name} = ({t}) {s.name}"
        case FieldRead(dst=d, fld=f, base=b):
            base = f"{b.name}." if b is not None else ""
            return f"{d.name} = {base}{render_field_sig(f)}"
        case FieldWrite(fld=f, base=b, value=v):
            base = f"{b.name}." if b is not None else ""
            return f"{base}{render_field_sig(f)} = {render_atom(v)}"
        case InvokeStmt(result=r, expr=e):
            lhs = f"{r.name} = " if r is not None else ""
            return f"{lhs}{render_invoke(e)}"
        case ReturnStmt(value=v):
            return "return" if v is None else f"return {render_atom(v)}"
    raise TypeError(f"not a statement: {stmt!r}")


def render_code_unit(unit: CodeUnit) -> str:
    lines = [f"class {unit.class_name}"]
    if unit.superclass:
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


def parse_rtable(text: str, filename: str = "rtable.txt") -> RTable:
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
    return RTable(entries)


def _parse_manifest(path: Path) -> str:
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as e:
        raise MalformedManifest(f"{path}: {e}")
    pkg = root.get("package")
    if pkg is None:
        raise MalformedManifest(f"{path}: root element has no package attribute")
    segments = pkg.split(".")
    if not pkg or any(not seg for seg in segments):
        raise MalformedManifest(f"{path}: bad package name {pkg!r}")
    return pkg


def parse_bundle(app_dir) -> AppBundle:
    """Load a decompiled app bundle directory into an AppBundle.

    Layout: manifest.xml (required), res/rtable.txt, res/layout/*.xml and
    code/**/*.jtac (all optional; absent means empty). Every file is read
    exactly once and the result is deterministic for a given directory.
    """
    app_dir = Path(app_dir)
    manifest = app_dir / "manifest.xml"
    if not manifest.is_file():
        raise MissingManifest(f"{manifest} not found")
    app_package = _parse_manifest(manifest)

    rtable_path = app_dir / "res" / "rtable.txt"
    if rtable_path.is_file():
        rtable = parse_rtable(
            rtable_path.read_text(encoding="utf-8-sig", errors="replace"),
            str(rtable_path),
        )
    else:
        rtable = RTable({})

    layouts = []
    layout_dir = app_dir / "res" / "layout"
    if layout_dir.is_dir():
        for path in sorted(layout_dir.glob("*.xml")):
            try:
                root = ET.parse(path).getroot()
            except ET.ParseError as e:
                raise XmlSyntaxError(f"{path}: {e}")
            layouts.append(LayoutDoc(path.name, root))

    code_units = {}
    code_dir = app_dir / "code"
    if code_dir.is_dir():
        shared = {}  # one signature and register object per text in this bundle
        for path in sorted(code_dir.rglob("*.jtac")):
            text = path.read_text(encoding="utf-8-sig", errors="replace")
            try:
                unit = _parse_lines(text, shared)
            except _Fallback:  # only errors name the file
                unit = _Parser(text, str(path.relative_to(app_dir))).code_unit()
            if unit.class_name in code_units:
                rel = path.relative_to(app_dir)
                raise DuplicateClass(f"{rel}: class {unit.class_name} already defined")
            code_units[unit.class_name] = unit

    return AppBundle(app_package, layouts, rtable, code_units)


def resolve_call(expr: InvokeExpr, bundle: AppBundle) -> MethodBody | None:
    """Resolve a call site to a method body within the bundle, or None.

    The statically named class and its superclass chain are searched for a
    matching (name, parameter types) method; the walk stops as soon as the
    chain leaves the bundle. No subclasses are ever considered.
    """
    name, params = expr.sig.name, expr.sig.param_types
    cls = expr.sig.declaring_class
    seen = set()
    while cls is not None and cls in bundle.code_units and cls not in seen:
        seen.add(cls)
        unit = bundle.code_units[cls]
        found = unit.find_method(name, params)
        if found is not None:
            return found
        cls = unit.superclass
    return None
