"""Frontend tests: parsing, rendering, bundle loading, call resolution."""

from __future__ import annotations

import gc
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uitaint import ir
from uitaint.errors import (
    DuplicateClass,
    IrSyntaxError,
    MalformedManifest,
    MissingManifest,
    RTableSyntaxError,
    XmlSyntaxError,
)
from uitaint.ir import (
    AssignAtom,
    AssignCast,
    CodeUnit,
    FieldRead,
    FieldSig,
    FieldWrite,
    InvokeExpr,
    InvokeStmt,
    MethodBody,
    MethodSig,
    NullConst,
    ReturnStmt,
    StmtId,
    StrConst,
    method_token,
    parse_bundle,
    parse_code_unit,
    parse_method_sig,
    parse_rtable,
    render_code_unit,
    render_method_sig,
    render_statement,
    resolve_call,
)
from uitaint.fixtures import FixtureSpec, generate
from uitaint.sources_sinks import load_sinks
from conftest import (
    DATA,
    MalformedSignature,
    UnknownInvokeKind,
    reference_parse_code_unit,
    reference_parse_method_sig,
    typed,
    write_bundle,
    write_hub_bundle,
)

SIMPLE = """\
class com.app.Main extends android.app.Activity

field java.lang.String name

method void onCreate(android.os.Bundle b1):
  r0 = this
  $r1 = virtualinvoke r0.<com.app.Main: android.view.View findViewById(int)>(2131230960)
  $r2 = (android.widget.EditText) $r1
  r0.<com.app.Main: java.lang.String name> = "x"
  $r3 = r0.<com.app.Main: java.lang.String name>
  return

method static int answer():
  return 42
"""


def test_parse_simple_unit_shape():
    unit = parse_code_unit(SIMPLE, "Main.jtac")
    assert unit.class_name == "com.app.Main"
    assert unit.superclass == "android.app.Activity"
    assert unit.fields == (FieldSig("com.app.Main", "java.lang.String", "name"),)
    assert [m.sig.name for m in unit.methods] == ["onCreate", "answer"]

    body = unit.methods[0]
    assert body.params == ("b1",)
    assert not body.is_static
    kinds = [type(s).__name__ for s in body.statements]
    assert kinds == [
        "AssignAtom", "InvokeStmt", "AssignCast", "FieldWrite", "FieldRead",
        "ReturnStmt",
    ]
    assert unit.methods[1].is_static
    assert typed(unit.methods[1].statements[0].value) == typed(42)


def test_statement_ids_are_dense_and_ordered():
    unit = parse_code_unit(SIMPLE)
    body = unit.methods[0]
    sids = [s.sid for s in body.statements]
    assert [s.ordinal for s in sids] == list(range(len(sids)))
    assert all(s.cls == "com.app.Main" for s in sids)
    assert all(s.method == "onCreate(android.os.Bundle)" for s in sids)
    assert sids == sorted(sids)
    assert len(set(sids)) == len(sids)


def test_method_token_includes_param_types():
    sig = parse_method_sig("<a.B: void f(int,java.lang.String[])>")
    assert method_token(sig) == "f(int,java.lang.String[])"
    assert sig.param_types == ("int", "java.lang.String[]")


def test_hex_literals_parse_and_render_decimal():
    unit = parse_code_unit(
        "class a.B\nmethod static int f():\n  r1 = 0x7f0800e5\n  return r1\n"
    )
    stmt = unit.methods[0].statements[0]
    assert typed(stmt.src) == typed(0x7F0800E5)
    assert render_statement(stmt) == "r1 = 2131230949"


def test_string_escapes_round_trip():
    text = (
        'class a.B\nmethod static void f():\n'
        '  r1 = "a\\nb\\tc\\rd\\"e\\\\f"\n  return\n'
    )
    unit = parse_code_unit(text)
    assert typed(unit.methods[0].statements[0].src) == typed(StrConst('a\nb\tc\rd"e\\f'))
    reparsed = parse_code_unit(render_code_unit(unit))
    assert typed(reparsed) == typed(unit)


# ---------------------------------------------------------------------------
# error reporting


@pytest.mark.parametrize(
    "line,exc",
    [
        ("r1 = superinvoke r0.<a.B: void f()>()", IrSyntaxError),
        ("superinvoke r0.<a.B: void f()>()", IrSyntaxError),
        ("r1 = virtualinvoke r0.<a.B void f()>()", IrSyntaxError),
        ("r1 = staticinvoke <a.B: void f(int)>()", IrSyntaxError),
        ("staticinvoke r0.<a.B: void f()>()", IrSyntaxError),
        ("return = 1", IrSyntaxError),
        ("class = 1", IrSyntaxError),
        ('r1 = "unterminated', IrSyntaxError),
        ('r1 = "bad\\q"', IrSyntaxError),
        ("r1 = r9", IrSyntaxError),  # r9 never assigned
        ("r0 = \u00b2", IrSyntaxError),  # superscript two: isdigit() but not int()
        ("r0 = \u0663", IrSyntaxError),  # Arabic-Indic three: int() reads it as 3
    ],
)
def test_statement_errors(line, exc):
    text = f"class a.B\nmethod static void f():\n  r0 = 1\n  {line}\n"
    with pytest.raises(exc):
        parse_code_unit(text)


def test_this_in_static_method_rejected():
    with pytest.raises(IrSyntaxError, match="static"):
        parse_code_unit("class a.B\nmethod static void f():\n  r1 = this\n")


def test_error_carries_location():
    text = "class a.B\nmethod static void f():\n  r1 = superinvoke <a.B: void g()>()\n"
    with pytest.raises(IrSyntaxError) as ei:
        parse_code_unit(text, "Bad.jtac")
    err = ei.value
    assert err.file == "Bad.jtac"
    assert err.line == 3
    assert str(err).startswith("Bad.jtac:3:")


def test_duplicate_method_rejected():
    text = (
        "class a.B\n"
        "method static void f():\n  return\n"
        "method static void f():\n  return\n"
    )
    with pytest.raises(IrSyntaxError, match="duplicate method"):
        parse_code_unit(text)


def test_arg_count_must_match_params():
    text = (
        "class a.B\nmethod static void f():\n"
        "  staticinvoke <a.B: void g(int,int)>(1)\n"
    )
    with pytest.raises(IrSyntaxError, match="argument"):
        parse_code_unit(text)


def test_parse_method_sig_rejects_trailing_junk():
    with pytest.raises(IrSyntaxError, match="^<signature>:1:1: expected method signature$"):
        parse_method_sig("<a.B: void f()> trailing")


# ---------------------------------------------------------------------------
# random round-trip: parse . render . parse == parse


_TYPES = ("int", "boolean", "java.lang.String", "byte[]", "com.gen.Thing",
          "android.view.View", "long[][]")
_CLASSES = ("com.gen.Alpha", "com.gen.sub.Beta", "org.other.Gamma$Inner",
            "io.lib.Delta", "a.b.R$id")
_STRINGS = ("", "plain", "sp ace", 'q"uote', "new\nline", "tab\tsep",
            "back\\slash", "ret\rurn")
_NAMES = ("f0", "f1", "value$x", "m0", "m1", "run2")


class ProgramGen:
    """Seeded generator of random-but-valid code units (models, not text)."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def atom(self, regs):
        pick = self.rng.random()
        if pick < 0.35 and regs:
            return self.rng.choice(regs)
        if pick < 0.6:
            return self.rng.choice((-7, 0, 1, 42, 0x7F0800E5, -2**31))
        if pick < 0.8:
            return StrConst(self.rng.choice(_STRINGS))
        return NullConst()

    def field_sig(self):
        return FieldSig(self.rng.choice(_CLASSES), self.rng.choice(_TYPES),
                        self.rng.choice(_NAMES))

    def method_sig(self, n_params):
        return MethodSig(
            self.rng.choice(_CLASSES),
            self.rng.choice(_TYPES + ("void",)),
            self.rng.choice(_NAMES),
            tuple(self.rng.choice(_TYPES) for _ in range(n_params)),
        )

    def statement(self, sid, regs, is_static):
        """Returns (stmt, newly assigned register or None)."""
        rng = self.rng
        dst = f"$v{sid.ordinal}"
        choice = rng.randrange(6)
        if choice == 0:
            src = "this" if (not is_static and rng.random() < 0.2) \
                else self.atom(regs)
            return AssignAtom(sid, dst, src), dst
        if choice == 1 and regs:
            return AssignCast(sid, dst, rng.choice(_TYPES), rng.choice(regs)), dst
        if choice == 2:
            base = rng.choice(regs) if regs and rng.random() < 0.5 else None
            return FieldRead(sid, dst, self.field_sig(), base), dst
        if choice == 3 and regs:
            base = rng.choice(regs) if rng.random() < 0.5 else None
            return FieldWrite(sid, self.field_sig(), base, self.atom(regs)), None
        # invoke
        kind = rng.choice(("virtualinvoke", "interfaceinvoke", "specialinvoke",
                           "staticinvoke"))
        receiver = None if kind == "staticinvoke" else (
            rng.choice(regs) if regs else None)
        if kind != "staticinvoke" and receiver is None:
            kind = "staticinvoke"
        sig = self.method_sig(rng.randrange(3))
        args = tuple(self.atom(regs) for _ in sig.param_types)
        result = dst if rng.random() < 0.6 else None
        stmt = InvokeStmt(sid, result, InvokeExpr(kind, receiver, sig, args))
        return stmt, result

    def method(self, cls, index):
        rng = self.rng
        n_params = rng.randrange(3)
        sig = MethodSig(cls, rng.choice(_TYPES + ("void",)), f"gen{index}",
                        tuple(rng.choice(_TYPES) for _ in range(n_params)))
        params = tuple(f"p{i}" for i in range(n_params))
        is_static = rng.random() < 0.4
        mtok = method_token(sig)
        regs = list(params)
        statements = []
        for ordinal in range(rng.randrange(1, 9)):
            stmt, new_reg = self.statement(StmtId(cls, mtok, ordinal), regs, is_static)
            statements.append(stmt)
            if new_reg and new_reg not in regs:
                regs.append(new_reg)
        if rng.random() < 0.7:
            value = self.atom(regs) if rng.random() < 0.6 else None
            statements.append(
                ReturnStmt(StmtId(cls, mtok, len(statements)), value)
            )
        return MethodBody(sig, params, is_static, tuple(statements))

    def unit(self):
        rng = self.rng
        cls = rng.choice(_CLASSES)
        superclass = rng.choice((None, "android.app.Activity", "com.gen.Base"))
        fields = tuple(
            FieldSig(cls, rng.choice(_TYPES), f"fld{i}")
            for i in range(rng.randrange(3))
        )
        methods = tuple(self.method(cls, i) for i in range(rng.randrange(1, 5)))
        return CodeUnit(cls, superclass, fields, methods)


@pytest.mark.parametrize("seed", range(60))
def test_round_trip_random_units(seed):
    unit = ProgramGen(random.Random(seed)).unit()
    text = render_code_unit(unit)
    reparsed = parse_code_unit(text)
    assert reparsed == unit, f"round-trip mismatch for seed {seed}:\n{text}"
    assert render_code_unit(reparsed) == text


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet=st.characters(), max_size=120))
def test_parser_raises_only_frontend_errors(text):
    try:
        parse_code_unit(text)
    except IrSyntaxError:
        pass


# ---------------------------------------------------------------------------
# differential: ir's parser against the one-name-per-token reference parser


# Pieces a mutation inserts or swaps in: string and escape delimiters, line
# ends, hex prefixes with no digits, non-ASCII digits and letters, NUL.
_MUTATION_ALPHABET = (
    '"', "\\", "\r", "\n", "0x", "-0x", "\u00b2", "\u0663", "\u00e9", "\x00",
    " ", "\t", "-", "0", "7", "a", "F", "x", "$", "_", ".", "<", "\\n", "\\q",
    '\\"', "0X1f", "-12", "0x\u0663",
)
# Pieces that steer the reference parser: punctuation, dotted names, keywords and
# both forms of signature, so that a token lands where the other is due.
_GRAMMAR_ALPHABET = (
    " ", "  ", ".", "<", ">", ":", "(", ")", ",", "[", "]", "[]", "=", "\n",
    "a", "a.", ".b", "a.b", "r0", "r0.", "$v", "this", "this.", "null", "null.",
    "return", "return.", "virtualinvoke", "staticinvoke", "staticinvoke.",
    "superinvoke", "x.invoke", "class", "method", "method.", "field", "static",
    "static.", "extends", "1", '"s"', "0x", "-", "<a.B: int f>", "<a.B: void g()>",
    "<a.B: void g(int)>", "<a.B: int[] f>", "<a.B:int f>",
)


def _mutate(rng, text):
    """A window of text with one to three random edits."""
    start = rng.randrange(len(text))
    text = text[start:start + rng.randint(1, 300)]
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(3)
        if op == 0:
            text = text[:i] + rng.choice(_MUTATION_ALPHABET) + text[i:]
        elif op == 1:
            text = text[:i] + rng.choice(_MUTATION_ALPHABET) + text[i + 1:]
        else:
            text = text[:i] + text[i + rng.randint(1, 4):]
    return text


_ANCHOR = re.compile(r"^|[<>:(),\[\].]", re.MULTILINE)


def _mutate_anchored(rng, text):
    """text with one to three edits, each at a line start or next to punctuation."""
    for _ in range(rng.randint(1, 3)):
        i = rng.choice([m.start() for m in _ANCHOR.finditer(text)])
        i = min(i + rng.randrange(2), len(text))  # before or after the anchor
        op = rng.randrange(3)
        if op == 0:
            text = text[:i] + rng.choice(_GRAMMAR_ALPHABET) + text[i:]
        elif op == 1:
            text = text[:i] + rng.choice(_GRAMMAR_ALPHABET) + text[i + 1:]
        else:
            text = text[:i] + text[i + rng.randint(1, 4):]
    return text


def _unit_corpus(tmp_path):
    texts = [p.read_text(encoding="utf-8") for p in sorted(DATA.rglob("*.jtac"))]
    for seed in (1, 7, 29):
        app, _ = generate(FixtureSpec(seed=seed, n_sources=12, n_decoys=4),
                          tmp_path / str(seed))
        texts += [p.read_text(encoding="utf-8") for p in sorted(app.rglob("*.jtac"))]
    texts += [render_code_unit(ProgramGen(random.Random(s)).unit()) for s in range(20)]
    return texts + [SIMPLE]


# what the reference parser skips between tokens
_BLANKS = re.compile(r"[ \t\r\n]")


def _register_names(unit):
    """The names of the registers unit's methods take, assign or read, but `this`."""
    names = set()
    for m in unit.methods:
        names.update(m.params)
        for s in m.statements:
            if type(s) is InvokeStmt:
                atoms = (s.result, s.expr.receiver, *s.expr.args)
            else:  # every str field but a cast's type is a register
                atoms = s._replace(cast_type=None) if type(s) is AssignCast else s
            names.update(a for a in atoms if type(a) is str)
    return names - {"this"}


def test_parser_matches_reference_parser(tmp_path):
    def check(parse, ref, render, name, text):
        """What the reference makes of text: ours gives the same value, or
        raises IrSyntaxError at name:line:col where the reference rejects
        text too or text differs from the render of its value in blanks only.
        Returns the value's type, the reference's error class, or "blanks"."""
        try:
            expected = ref(text)
        except IrSyntaxError as e:
            expected = e
        try:
            outcome = parse(text)
        except IrSyntaxError as e:
            assert type(e) is IrSyntaxError and re.match(rf"{re.escape(name)}:\d+:\d+: ", str(e))
            if isinstance(expected, IrSyntaxError):
                return type(expected)
            assert _BLANKS.sub("", text) == _BLANKS.sub("", render(expected)), repr(text)
            return "blanks"
        assert typed(outcome) == typed(expected), repr(text)
        assert typed(parse(render(outcome))) == typed(outcome), repr(text)
        return type(outcome)

    def ours(text):
        return parse_code_unit(text, "T.jtac")

    def ref(text):
        return reference_parse_code_unit(text, "T.jtac")

    texts = _unit_corpus(tmp_path)
    for text in texts:  # the unmutated texts are valid
        assert check(ours, ref, render_code_unit, "T.jtac", text) is CodeUnit

    rng = random.Random(4)
    mutants = [_mutate(rng, rng.choice(texts)) for _ in range(4_000)]
    mutants += [_mutate_anchored(rng, rng.choice(texts)) for _ in range(8_000)]
    reached = {check(ours, ref, render_code_unit, "T.jtac", text) for text in mutants}
    assert reached == {CodeUnit, "blanks", IrSyntaxError, MalformedSignature, UnknownInvokeKind}

    # each reserved word in place of each use of a register, which random
    # edits seldom make: every register position has its own check
    reached = set()
    for text in (SIMPLE, NULLS):
        for name in _register_names(parse_code_unit(text)):
            for use in re.finditer(rf"(?<![\w$.]){re.escape(name)}(?![\w$])", text):
                for word in sorted(ir.RESERVED):
                    mutant = text[:use.start()] + word + text[use.end():]
                    reached.add(check(ours, ref, render_code_unit, "T.jtac", mutant))
    assert reached == {CodeUnit, IrSyntaxError}

    sigs = sorted({m[0] for t in texts for m in re.finditer(r"<[^<>\n]*\([^<>\n]*>", t)})
    sigs += [_mutate_anchored(rng, rng.choice(sigs)) for _ in range(3_000)]
    reached = {check(parse_method_sig, reference_parse_method_sig, render_method_sig,
                     "<signature>", text) for text in sigs}
    assert reached == {MethodSig, "blanks", MalformedSignature, IrSyntaxError}


# A text that starts with a statement line is added to a body whose method
# reads p0 into r0; any other text is the whole unit.
_BODY = "class a.A\nmethod void m(int p0):\n  r0 = p0\n"


@pytest.mark.parametrize("text, message", [
    # lines that match no line form, named by the form their prefix selects
    ("  r0 = a.b\n", "4:1: expected statement"),
    ("  $r = <a.B: void g()>\n", "4:1: expected statement"),
    ("  return.x\n", "4:1: expected statement"),
    ("  r0.x = 1\n", "4:1: expected statement"),
    ("  staticinvoke <a.B: int f>()\n", "4:1: expected statement"),
    ("  r1 = ?\n", "4:1: expected statement"),
    ("  r1 = superinvoke r0.<a.B: void f()>()\n", "4:1: expected statement"),
    ("   r1 = p0\n", "4:1: expected statement"),
    ("  r1 =  p0\n", "4:1: expected statement"),
    ("class a.A\nmethod void a.b():\n", "2:1: expected method header"),
    ("class a.A\nmethod void m( ):\n", "2:1: expected method header"),
    ("class a.A\nmethod static f():\n", "2:1: expected method header"),
    ("class a.A\nmethod static[] f():\n", "2:1: expected method header"),
    ("class a.A\nmethod static.x f():\n", "2:1: expected method header"),
    ("class a.A\nfield long[]x\n", "2:1: expected field declaration"),
    ("class a .A\n", "1:1: expected class declaration"),
    ("class a.A\n\tr1 = p0\n", "2:1: expected declaration or statement"),
    ("class a.A\nr1 = p0\n", "2:1: expected declaration or statement"),
    # lines in their place
    ("", "1:1: expected class declaration"),
    ("\n  \n", "3:1: expected class declaration"),
    ("field int x\nclass a.A\n", "1:1: expected class declaration"),
    ("method void m():\n", "1:1: expected class declaration"),
    ("class a.A\n  return\n", "2:1: statement outside a method"),
    ("class a.A\nclass a.B\n", "2:1: class already declared"),
    ("class a.A\nmethod void m():\n  return\nfield int x\n",
     "4:1: declarations must precede method bodies"),
    ("class a.A\nmethod void m():\n  return\nclass a.C\n",
     "4:1: declarations must precede method bodies"),
    ("class a.A\nmethod void m():\n  return\nmethod void m():\n", "4:1: duplicate method m()"),
    # the checks of a line in the renderer's spelling, at the column of the
    # name, literal, receiver or invoke kind they refuse
    ("  return = 1\n", "4:3: 'return' cannot be used as a register"),
    ("  fooinvoke = 1\n", "4:3: unknown invoke kind 'fooinvoke'"),
    ("  r1 = fooinvoke\n", "4:8: unknown invoke kind 'fooinvoke'"),
    ("  r1 = fooinvoke.<a.B: int f>\n", "4:8: unknown invoke kind 'fooinvoke'"),
    ("  fooinvoke.<a.B: int f> = 1\n", "4:3: unknown invoke kind 'fooinvoke'"),
    ("  r1 = virtualinvoke\n", "4:8: 'virtualinvoke' cannot be used as a register"),
    ("  r1 = this.<a.B: int f>\n", "4:8: 'this' cannot be used as a base register"),
    ("  this.<a.B: int f> = 1\n", "4:3: 'this' cannot be used as a register"),
    ("  r1 = (int) this\n", "4:14: 'this' cannot be used as a cast operand"),
    ("  r1 = class\n", "4:8: 'class' cannot be used as a register"),
    ("  null = staticinvoke <a.B: int g()>()\n", "4:3: 'null' cannot be used as a register"),
    ("  r1 = virtualinvoke null.<a.B: void g()>()\n", "4:22: 'null' cannot be used as a receiver"),
    ("  staticinvoke r0.<a.B: void g()>()\n", "4:16: staticinvoke takes no receiver"),
    ("  virtualinvoke <a.B: void g()>()\n", "4:17: expected receiver register"),
    ("  staticinvoke <a.B: void g(int)>()\n", "4:3: 0 argument(s) for 1 parameter(s)"),
    ("  staticinvoke <a.B: void g(int,int)>(1, static)\n",
     "4:42: 'static' cannot be used as a register"),
    ("  r1 = " + "9" * 5000 + "\n", "4:8: integer literal too long"),
    ("  return -" + "9" * 5000 + "\n", "4:10: integer literal too long"),
    ("class a.A\nmethod void class():\n", "2:13: 'class' cannot be used as a method name"),
    ("class a.A\nmethod void g(int a, int a):\n", "2:1: duplicate parameter name"),
    ("class a.A\nmethod void g(int this):\n", "2:19: 'this' cannot be used as a parameter"),
    ("class a.A\nmethod void g(int a, long[] null):\n",
     "2:29: 'null' cannot be used as a parameter"),
    # the register check, at the line of the first bad read
    ("  r1 = r9\n", "4:1: register 'r9' is read but never assigned"),
    ("  r1 = r0\n\n  \n  return r8\n", "7:1: register 'r8' is read but never assigned"),
    # an invoke reads its receiver before its arguments
    ("  virtualinvoke r7.<a.A: void g(int)>(r6)\n", "4:1: register 'r7' is read but never assigned"),
    ("class a.A\nmethod static void g():\n  r1 = this\n", "3:1: 'this' read in a static method"),
])
def test_error_message_and_column(text, message):
    if text.startswith("  "):
        text = _BODY + text
    with pytest.raises(IrSyntaxError) as info:
        parse_code_unit(text, "T.jtac")
    assert type(info.value) is IrSyntaxError
    assert str(info.value) == f"T.jtac:{message}"


@pytest.mark.parametrize("line", ["", " ", "  ", "   ", "\t", "  \t", "\t  ", " \r"])
def test_whitespace_only_lines_are_blank_lines(line):
    """line before, between and after the lines of SIMPLE leaves its unit as it is."""
    unit = parse_code_unit(SIMPLE)
    lines = SIMPLE.split("\n")
    for i in range(len(lines) + 1):
        text = "\n".join(lines[:i] + [line] + lines[i:])
        assert typed(parse_code_unit(text)) == typed(unit), repr(text)
        assert typed(reference_parse_code_unit(text)) == typed(unit), repr(text)


def _generated_units(tmp_path):
    """Texts of every .jtac file of bundles generated over the range of
    FixtureSpec's options."""
    specs = [FixtureSpec(seed=s) for s in (1, 7, 29)]
    specs += [
        FixtureSpec(seed=100 + k, n_sources=k % 9, party_mix=(k % 5) / 4,
                    pi_mix=({"email": 1}, {"ssn": 2, "blood": 1}, None)[k % 3],
                    destination_mix=({"net": 1}, {"log": 1, "fileio": 2}, None)[k % 3],
                    n_decoys=k % 6, chain_len=(1, 1 + k % 6))
        for k in range(24)
    ]
    texts = []
    for k, spec in enumerate(specs):
        app, _ = generate(spec, tmp_path / f"fx{k}")
        texts += [p.read_text(encoding="utf-8") for p in sorted(app.rglob("*.jtac"))]
    return texts


def test_every_shipped_and_generated_unit_equals_the_reference_parse(tmp_path):
    texts = [p.read_text(encoding="utf-8") for p in sorted(DATA.rglob("*.jtac"))]
    texts += _generated_units(tmp_path)
    assert len(texts) > 100
    for text in texts:
        assert typed(parse_code_unit(text)) == typed(reference_parse_code_unit(text))


def test_every_built_in_sink_signature_equals_the_reference_parse():
    specs = load_sinks(None).specs
    assert len(specs) > 20
    for spec in specs:
        text = render_method_sig(spec.sig)
        assert typed(spec.sig) == typed(reference_parse_method_sig(text))
        assert typed(parse_method_sig(text)) == typed(spec.sig)


NULLS = """\
class a.N
field java.lang.String f
method static java.lang.String g(java.lang.String p0):
  $n = null
  <a.N: java.lang.String f> = null
  staticinvoke <a.Log: void d(java.lang.String,java.lang.String)>(null, p0)
  return null
method static void h():
  return
"""


def test_null_in_every_atom_position_parses_as_null():
    unit = parse_code_unit(NULLS)
    assign, write, call, ret = unit.methods[0].statements
    assert type(assign.src) is NullConst and type(write.value) is NullConst
    assert [type(a) for a in call.expr.args] == [NullConst, str]
    assert type(ret.value) is NullConst
    assert unit.methods[1].statements[0].value is None
    assert render_code_unit(unit) == NULLS
    assert typed(unit) == typed(reference_parse_code_unit(NULLS))


def test_a_register_and_a_string_of_one_spelling_parse_unequal():
    unit = parse_code_unit('class a.B\nmethod void f(int y):\n  x = y\n  x = "y"\n')
    read, const = unit.methods[0].statements
    assert read._replace(sid=const.sid) != const
    assert read.src == "y" and const.src == StrConst("y")


def _registers_and_atoms(s):
    """The register positions of statement s (None where a position is
    empty) and its atom positions."""
    kind = type(s)
    if kind is AssignAtom:
        return (s.dst,), (s.src,)
    if kind is AssignCast:
        return (s.dst, s.src), ()
    if kind is FieldRead:
        return (s.dst, s.base), ()
    if kind is FieldWrite:
        return (s.base,), (s.value,)
    if kind is InvokeStmt:
        return (s.result, s.expr.receiver), s.expr.args
    return (), (() if s.value is None else (s.value,))


_REGISTER = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")


def test_a_register_is_its_name_and_an_integer_constant_its_int(tmp_path):
    """In the bundles of tests/data, fixture seeds 1, 7 and 29 and a hub,
    each statement renders as its line and holds one kind of value per
    position: a register name is a str, an integer constant an int, a
    string constant a StrConst and null a NullConst. Each register name is
    one object wherever a bundle's statements use it."""
    apps = [*sorted(DATA.iterdir()), write_hub_bundle(tmp_path / "hub", 12, 12)]
    apps += [generate(FixtureSpec(seed=seed), tmp_path / f"fx{seed}")[0] for seed in (1, 7, 29)]
    kinds = set()
    for app in apps:
        bundle = parse_bundle(app)
        names = {}  # register name -> its first object in this bundle
        for path in sorted((app / "code").rglob("*.jtac")):
            text = path.read_text(encoding="utf-8")
            unit = bundle.code_units[text.split("\n", 1)[0].split(" ")[1]]
            lines = [line for line in text.split("\n") if line[:2] == "  " and line.strip()]
            stmts = [s for m in unit.methods for s in m.statements]
            assert [f"  {render_statement(s)}" for s in stmts] == lines, path
            for s in stmts:
                registers, atoms = _registers_and_atoms(s)
                for r in registers:
                    assert r is None or type(r) is str and _REGISTER.fullmatch(r), (path, s)
                    assert r is None or names.setdefault(r, r) is r, (path, s)
                for a in atoms:
                    kinds.add(type(a))
                    assert type(a) in (int, StrConst, NullConst) or (
                        type(a) is str and _REGISTER.fullmatch(a) and a != "null"), (path, s)
                    assert type(a) is not str or names.setdefault(a, a) is a, (path, s)
                    assert type(a) is not StrConst or type(a.value) is str, (path, s)
    assert kinds == {str, int, StrConst, NullConst}


class _CountingPattern:
    """A stand-in for a compiled pattern that counts its fullmatch calls."""

    def __init__(self, pattern):
        self.pattern, self.calls = pattern, 0

    def fullmatch(self, text):
        self.calls += 1
        return self.pattern.fullmatch(text)


def test_parse_bundle_keeps_no_signature_memo(tmp_path, monkeypatch):
    log_d = "<a.Log: void d(java.lang.String)>"
    call = f"  staticinvoke {log_d}(null)\n"
    head = "method static void f(int p0, java.lang.String p1):\n"
    code = {
        "A.jtac": "class a.A\n" + head + call * 2 + "method static void g():\n" + call,
        "B.jtac": "class a.B\nmethod static void g():\n" + call + "  return\n" + head,
    }
    statement, header, lines, heads = ir._statement, ir._header, [], []

    def counting_statement(line, shared):
        lines.append(line)
        return statement(line, shared)

    def counting_header(line):
        heads.append(line)
        return header(line)

    monkeypatch.setattr(ir, "_statement", counting_statement)
    monkeypatch.setattr(ir, "_header", counting_header)
    sig_pattern = _CountingPattern(ir._SIG)
    monkeypatch.setattr(ir, "_SIG", sig_pattern)

    def call_sigs(bundle):
        return [s.expr.sig for _, _, s in bundle.iter_statements() if type(s) is InvokeStmt]

    first = call_sigs(parse_bundle(write_bundle(tmp_path / "one", code=code)))
    # each distinct statement and method header line is parsed once per
    # bundle, and a signature is split by its line pattern's groups alone
    assert sorted(lines) == ["  return", call[:-1]]
    assert sorted(heads) == ["method static void f(int p0, java.lang.String p1):",
                             "method static void g():"]
    assert sig_pattern.calls == 0
    second = call_sigs(parse_bundle(write_bundle(tmp_path / "two", code=code)))
    assert sorted(lines) == ["  return", "  return", call[:-1], call[:-1]]
    assert len(heads) == 4 and sig_pattern.calls == 0
    assert parse_method_sig(log_d) == first[0] and sig_pattern.calls == 1  # live
    # one bundle shares one MethodSig per signature text, across its files
    assert len({id(s) for s in first}) == 1 and len(first) == 4
    # two bundles share none, and nothing keeps the first bundle's: once its
    # bundle is gone, its MethodSig has no more references than a fresh one,
    # so no signature, statement or header line entry outlives parse_bundle
    assert first[0] == second[0] and first[0] is not second[0]
    sig, control = first[0], MethodSig(*first[0])
    del first
    gc.collect()
    assert sys.getrefcount(sig) == sys.getrefcount(control)
    # nor does the module hold a cache of its own
    for value in vars(ir).values():
        assert not hasattr(value, "cache_info")
        if isinstance(value, (dict, set, list)):
            held = value.values() if isinstance(value, dict) else value
            assert not any(isinstance(v, (MethodSig, FieldSig)) for v in held)
            assert call[:-1] not in value and head[:-1] not in value


DUPLICATE_HEAD = "method static void f(int p0):\n  return\n"


@pytest.mark.parametrize("twice_name", ["A.jtac", "Z.jtac"])
def test_a_header_repeated_in_one_class_is_a_duplicate_however_the_bundle_shares_it(
    tmp_path, twice_name
):
    """One header line in two classes, and twice in one of them: the
    duplicate check stays per class."""
    twice = "class a.T\n" + DUPLICATE_HEAD * 2
    once = "class a.O\n" + DUPLICATE_HEAD
    alone = parse_bundle(write_bundle(tmp_path / "alone", code={"M.jtac": once}))
    assert typed(alone.code_units) == typed({"a.O": parse_code_unit(once)})
    app = write_bundle(tmp_path / "both", code={"M.jtac": once, twice_name: twice})
    with pytest.raises(IrSyntaxError) as info:
        parse_bundle(app)
    assert str(info.value) == f"code/{twice_name}:4:1: duplicate method f(int)"


REFUSED_HEAD = "method void g(int this):\n  return\n"


def test_a_refused_header_is_not_kept_and_fails_every_file_with_it(tmp_path):
    texts = {"A.jtac": "class a.A\n" + REFUSED_HEAD, "B.jtac": "class a.B\n" + REFUSED_HEAD}
    shared = {}
    for name, text in texts.items():
        with pytest.raises(IrSyntaxError) as info:
            ir._parse_lines(text, shared, name)
        assert str(info.value) == f"{name}:2:19: 'this' cannot be used as a parameter"
        assert REFUSED_HEAD.split("\n")[0] not in shared
    app = write_bundle(tmp_path / "app", code=texts)
    for name in texts:  # the first file in order, then the other
        with pytest.raises(IrSyntaxError) as info:
            parse_bundle(app)
        assert str(info.value) == f"code/{name}:2:19: 'this' cannot be used as a parameter"
        (app / "code" / name).unlink()


def _units_one_by_one(app):
    """{class name: unit} of each .jtac file of the bundle at app, each
    parsed alone with parse_code_unit."""
    units = [parse_code_unit(p.read_text(encoding="utf-8-sig", errors="replace"))
             for p in sorted((app / "code").rglob("*.jtac"))]
    return {u.class_name: u for u in units}


def test_bundle_line_memo_matches_files_parsed_alone(tmp_path):
    apps = [p for p in sorted(DATA.iterdir()) if (p / "code").is_dir()]
    for seed in (1, 7, 29):
        apps.append(generate(FixtureSpec(seed=seed), tmp_path / str(seed))[0])
    spec = FixtureSpec(seed=7, n_sources=400, n_decoys=40)
    apps.append(generate(spec, tmp_path / "400")[0])
    for app in apps:
        units = parse_bundle(app).code_units
        assert units and typed(units) == typed(_units_one_by_one(app)), app


STATIC_THIS = "class a.S\nmethod static void f():\n  r1 = this\n"
VIRTUAL_THIS = "class a.V\nmethod void f():\n  r1 = this\n"


@pytest.mark.parametrize("static_name", ["A.jtac", "Z.jtac"])
def test_line_memo_does_not_carry_the_register_check_across_files(
    tmp_path, static_name
):
    """A line one method of a bundle reads `this` in fails in a static
    method of another file."""
    alone = parse_bundle(write_bundle(tmp_path / "alone", code={"V.jtac": VIRTUAL_THIS}))
    assert typed(alone.code_units) == typed({"a.V": parse_code_unit(VIRTUAL_THIS)})
    app = write_bundle(tmp_path / "both", code={"V.jtac": VIRTUAL_THIS,
                                                static_name: STATIC_THIS})
    with pytest.raises(IrSyntaxError) as info:
        parse_bundle(app)
    assert str(info.value) == f"code/{static_name}:3:1: 'this' read in a static method"


# ---------------------------------------------------------------------------
# call resolution


CHAIN = {
    "A.jtac": (
        "class com.app.A\n"
        "method void f():\n  return\n"
        "method void g(int x1):\n  return\n"
    ),
    "B.jtac": "class com.app.B extends com.app.A\nmethod void f():\n  return\n",
    "C.jtac": "class com.app.C extends com.app.B\nmethod void h():\n  return\n",
}


def _chain_bundle(tmp_path):
    return parse_bundle(write_bundle(tmp_path / "app", code=CHAIN))


def _call(cls, name, params=()):
    sig = MethodSig(cls, "void", name, tuple(params))
    kind = "virtualinvoke"
    return InvokeExpr(kind, "r0", sig, tuple(0 for _ in params))


def test_resolve_exact_class(tmp_path):
    bundle = _chain_bundle(tmp_path)
    body = resolve_call(_call("com.app.B", "f"), bundle)
    assert body is not None and body.sig.declaring_class == "com.app.B"


def test_resolve_walks_superclass_chain(tmp_path):
    bundle = _chain_bundle(tmp_path)
    body = resolve_call(_call("com.app.C", "g", ("int",)), bundle)
    assert body is not None and body.sig.declaring_class == "com.app.A"
    # nearest override wins
    body = resolve_call(_call("com.app.C", "f"), bundle)
    assert body.sig.declaring_class == "com.app.B"


def test_resolve_outside_bundle_is_opaque(tmp_path):
    bundle = _chain_bundle(tmp_path)
    assert resolve_call(_call("com.app.C", "nothere"), bundle) is None
    assert resolve_call(_call("java.util.List", "add", ("int",)), bundle) is None


def test_resolve_survives_superclass_cycle(tmp_path):
    code = {
        "X.jtac": "class a.X extends a.Y\nmethod void f():\n  return\n",
        "Y.jtac": "class a.Y extends a.X\nmethod void g():\n  return\n",
    }
    bundle = parse_bundle(write_bundle(tmp_path / "app", code=code))
    assert resolve_call(_call("a.X", "nope"), bundle) is None
    assert resolve_call(_call("a.X", "g"), bundle).sig.declaring_class == "a.Y"


# ---------------------------------------------------------------------------
# rtable + bundle loading


def test_parse_rtable_accepts_comments_and_hex():
    table = parse_rtable("# header\nid weightEditText 0x7f0800e5\nid other 7\n")
    assert table.get("weightEditText") == 2131230949
    assert table.get("other") == 7
    assert table.get("missing") is None


@pytest.mark.parametrize(
    "body",
    [
        "id a 1\nid a 2\n",        # duplicate name
        "id a 1\nid b 1\n",        # duplicate value
        "id a 0x100000000\n",      # out of 32-bit range
        "id a -1\n",
        "resource a 1\n",
        "id a\n",
        "id a \u0663\n",          # Arabic-Indic three: int() reads it as 3
        "id a +5\n",
        "id a 1_0\n",
        "id a 0x_1\n",
    ],
)
def test_parse_rtable_rejects(body):
    with pytest.raises(RTableSyntaxError):
        parse_rtable(body)


def test_bundle_requires_manifest(tmp_path):
    (tmp_path / "app").mkdir()
    with pytest.raises(MissingManifest):
        parse_bundle(tmp_path / "app")


def test_bundle_rejects_bad_manifest(tmp_path):
    app = tmp_path / "app"
    app.mkdir()
    (app / "manifest.xml").write_text("<manifest/>")
    with pytest.raises(MalformedManifest):
        parse_bundle(app)
    (app / "manifest.xml").write_text('<manifest package="com..app"/>')
    with pytest.raises(MalformedManifest):
        parse_bundle(app)


def test_bundle_rejects_duplicate_class(tmp_path):
    code = {
        "One.jtac": "class a.B\nmethod void f():\n  return\n",
        "Two.jtac": "class a.B\nmethod void g():\n  return\n",
    }
    with pytest.raises(DuplicateClass):
        parse_bundle(write_bundle(tmp_path / "app", code=code))


def test_bundle_rejects_bad_layout_xml(tmp_path):
    app = write_bundle(tmp_path / "app", layouts={"broken.xml": "<a><b></a>"})
    with pytest.raises(XmlSyntaxError):
        parse_bundle(app)


def test_bundle_minimal_is_manifest_only(tmp_path):
    bundle = parse_bundle(write_bundle(tmp_path / "app", package="org.x.y"))
    assert bundle.app_package == "org.x.y"
    assert bundle.layouts == [] and bundle.code_units == {}
    assert bundle.rtable == {}


def test_bundle_orders_classes_and_statements(tmp_path):
    code = {
        "Z.jtac": "class z.Last\nmethod void f():\n  return\n",
        "A.jtac": "class a.First\nmethod void f():\n  r1 = 1\n  return\n",
    }
    bundle = parse_bundle(write_bundle(tmp_path / "app", code=code))
    seen = [(u.class_name, s.sid.ordinal) for u, _, s in bundle.iter_statements()]
    assert seen == [("a.First", 0), ("a.First", 1), ("z.Last", 0)]
    sid = seen and bundle.code_units["a.First"].methods[0].statements[1].sid
    assert isinstance(bundle.statement(sid), ReturnStmt)


# ---------------------------------------------------------------------------
# bundle file discovery


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def test_duplicate_class_names_the_later_file_in_path_component_order(tmp_path):
    # as a string "a.b/C.jtac" sorts first, but by components ("a", ...) does
    app = write_bundle(tmp_path / "app")
    _write(app / "code" / "a.b" / "C.jtac", "class x.Dup\nmethod void f():\n  return\n")
    _write(app / "code" / "a" / "B.jtac", "class x.Dup\nmethod void g():\n  return\n")
    with pytest.raises(DuplicateClass) as info:
        parse_bundle(app)
    assert str(info.value) == "code/a.b/C.jtac: class x.Dup already defined"


def test_directory_named_like_a_code_file_is_read_and_fails(tmp_path):
    app = write_bundle(tmp_path / "app", code={"A.jtac": "class a.A\n"})
    (app / "code" / "D.jtac").mkdir()
    with pytest.raises(IsADirectoryError) as info:
        parse_bundle(app)
    assert info.value.filename == str(app / "code" / "D.jtac")


def test_symlinked_code_directory_is_not_followed(tmp_path):
    app = write_bundle(tmp_path / "app")
    _write(app / "code" / "real" / "A.jtac", "class a.A\n")
    _write(tmp_path / "elsewhere" / "B.jtac", "class a.B\n")
    (app / "code" / "alias").symlink_to(app / "code" / "real", target_is_directory=True)
    (app / "code" / "out").symlink_to(tmp_path / "elsewhere", target_is_directory=True)
    assert list(parse_bundle(app).code_units) == ["a.A"]


def test_hidden_code_and_layout_files_are_read(tmp_path):
    app = write_bundle(tmp_path / "app", layouts={".x.xml": "<LinearLayout/>"})
    _write(app / "code" / ".h" / "C.jtac", "class a.C\n")
    bundle = parse_bundle(app)
    assert list(bundle.code_units) == ["a.C"]
    assert [layout.file for layout in bundle.layouts] == [".x.xml"]


def test_rtable_directory_gives_an_empty_table(tmp_path):
    app = write_bundle(tmp_path / "app")
    (app / "res" / "rtable.txt").mkdir(parents=True)
    assert parse_bundle(app).rtable == {}


def test_code_as_a_regular_file_gives_no_code_units(tmp_path):
    app = write_bundle(tmp_path / "app")
    _write(app / "code", "class a.A\n")
    assert parse_bundle(app).code_units == {}


def test_manifest_directory_is_a_missing_manifest(tmp_path):
    app = tmp_path / "app"
    (app / "manifest.xml").mkdir(parents=True)
    with pytest.raises(MissingManifest) as info:
        parse_bundle(app)
    assert str(info.value) == f"{app / 'manifest.xml'} not found"


def test_error_in_a_nested_code_file_names_it_from_the_bundle(tmp_path):
    app = write_bundle(tmp_path / "app")
    _write(app / "code" / "p" / "Bad.jtac", "class a.A\n  return\n")
    with pytest.raises(IrSyntaxError) as info:
        parse_bundle(app)
    assert str(info.value).startswith("code/p/Bad.jtac:2:")
