"""The grammar of the IR text: a lexer and a recursive-descent parser.

ir imports it only for text its line fast path does not take, so a process
that reads only valid bundles and configs never compiles it.
"""

from __future__ import annotations

import re

from .errors import IrSyntaxError, MalformedSignature, UnknownInvokeKind
from .ir import (
    _IDENT, _STR_BODY, INVOKE_KINDS, RESERVED, _bad_read, _unescape, method_token,
    AssignAtom, AssignCast, CodeUnit, FieldRead, FieldSig, FieldWrite, IntConst, InvokeExpr,
    InvokeStmt, MethodBody, MethodSig, NullConst, Reg, ReturnStmt, StmtId, StrConst,
)

# ---------------------------------------------------------------------------
# lexer

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


class Parser:
    """Recursive descent over the tokens of _lex: the one grammar of the IR.

    It takes any spelling the grammar allows and gives every error text;
    ir's line fast path is a faster way to the same result for rendered text.
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
