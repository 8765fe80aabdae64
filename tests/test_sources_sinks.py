"""Source resolution and sink registry tests."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from uitaint.errors import BadPosition, SinkSyntaxError
from uitaint.gui import ViewElement
from uitaint.ir import parse_bundle, parse_method_sig, render_method_sig
from uitaint.sources_sinks import (
    SinkRegistry,
    SinkSpec,
    load_default_sinks,
    load_sinks,
    resolve_sources,
)
from conftest import write_bundle


def _labeled(numeric_id, kind="weight", id_name="weightEditText"):
    return ViewElement("EditText", id_name, numeric_id, None, None, "a.xml", kind)


def _bundle(tmp_path, body_lines, rtable=None, cls="com.app.Main"):
    text = f"class {cls} extends android.app.Activity\n\nmethod void run():\n"
    text += "".join(f"  {line}\n" for line in body_lines)
    return parse_bundle(
        write_bundle(tmp_path / "app", rtable=rtable, code={"Main.jtac": text})
    )


FIND = "<com.app.Main: android.view.View findViewById(int)>"


def test_literal_argument_resolves(tmp_path):
    bundle = _bundle(tmp_path, ["r0 = this", f"$r1 = virtualinvoke r0.{FIND}(2131230949)"])
    sources, diag = resolve_sources(bundle, [_labeled(2131230949)])
    assert len(sources) == 1
    src = sources[0]
    assert src.view.pi == "weight"
    assert src.result_reg == "$r1"
    assert src.stmt.ordinal == 1
    assert (diag.sites, diag.resolved) == (1, 1)


def test_rtable_field_read_resolves(tmp_path):
    bundle = _bundle(
        tmp_path,
        [
            "r0 = this",
            "$i0 = <com.app.R$id: int weightEditText>",
            f"$r1 = virtualinvoke r0.{FIND}($i0)",
        ],
        rtable="id weightEditText 0x7f0800e5\n",
    )
    sources, diag = resolve_sources(bundle, [_labeled(0x7F0800E5)])
    assert len(sources) == 1 and sources[0].view.numeric_id == 2131230949
    assert diag.resolved == 1


def test_unique_register_constant_resolves(tmp_path):
    bundle = _bundle(
        tmp_path,
        ["r0 = this", "$i0 = 77", f"$r1 = virtualinvoke r0.{FIND}($i0)"],
    )
    sources, diag = resolve_sources(bundle, [_labeled(77)])
    assert len(sources) == 1
    assert diag.resolved == 1


def test_ambiguous_register_constant_skips(tmp_path):
    bundle = _bundle(
        tmp_path,
        [
            "r0 = this",
            "$i0 = 77",
            "$i0 = 78",
            f"$r1 = virtualinvoke r0.{FIND}($i0)",
        ],
    )
    sources, diag = resolve_sources(bundle, [_labeled(77), _labeled(78)])
    assert sources == []
    assert diag.unresolved_arg_skips == 1


def test_unknown_rtable_name_poisons(tmp_path):
    # even though 77 is also assigned, the unknown R$id read makes the
    # argument unresolvable rather than silently half-resolved
    bundle = _bundle(
        tmp_path,
        [
            "r0 = this",
            "$i0 = <com.app.R$id: int ghost>",
            "$i0 = 77",
            f"$r1 = virtualinvoke r0.{FIND}($i0)",
        ],
    )
    sources, diag = resolve_sources(bundle, [_labeled(77)])
    assert sources == []
    assert diag.unresolved_arg_skips == 1


def test_unlabeled_id_skip(tmp_path):
    bundle = _bundle(tmp_path, ["r0 = this", f"$r1 = virtualinvoke r0.{FIND}(5)"])
    sources, diag = resolve_sources(bundle, [_labeled(6)])
    assert sources == []
    assert diag.unlabeled_id_skips == 1


def test_matched_by_name_and_arity_on_any_receiver(tmp_path):
    lines = [
        "r0 = this",
        # different receiver classes all count
        "$a = virtualinvoke r0.<android.app.Activity: android.view.View findViewById(int)>(1)",
        "$b = virtualinvoke r0.<com.custom.Base: android.view.View findViewById(int)>(1)",
        # wrong arity / wrong param type do not
        '$c = virtualinvoke r0.<a.B: android.view.View findViewById(java.lang.String)>("x")',
        "$d = virtualinvoke r0.<a.B: android.view.View findViewById(int,int)>(1, 2)",
    ]
    bundle = _bundle(tmp_path, lines)
    sources, diag = resolve_sources(bundle, [_labeled(1)])
    assert len(sources) == 2
    assert diag.sites == 2


def test_first_matching_view_wins_per_id(tmp_path):
    bundle = _bundle(tmp_path, ["r0 = this", f"$r1 = virtualinvoke r0.{FIND}(9)"])
    first = _labeled(9, "weight", "weightEditText")
    second = _labeled(9, "email", "emailEditText")
    sources, _ = resolve_sources(bundle, [first, second])
    assert sources[0].view is first


def test_tally_invariant(tmp_path):
    lines = [
        "r0 = this",
        f"$a = virtualinvoke r0.{FIND}(1)",     # resolved
        f"$b = virtualinvoke r0.{FIND}(999)",   # unlabeled
        "$i0 = 2",
        "$i0 = 3",
        f"$c = virtualinvoke r0.{FIND}($i0)",   # unresolved
        f"virtualinvoke r0.{FIND}(1)",          # resolved, no result register
    ]
    bundle = _bundle(tmp_path, lines)
    sources, d = resolve_sources(bundle, [_labeled(1)])
    assert d.sites == d.resolved + d.unlabeled_id_skips + d.unresolved_arg_skips
    assert (d.sites, d.resolved, d.unlabeled_id_skips, d.unresolved_arg_skips) \
        == (4, 2, 1, 1)
    assert sources[1].result_reg is None


# ---------------------------------------------------------------------------
# sink registry


def test_default_sinks_load_and_match():
    reg = load_default_sinks()
    put = parse_method_sig(
        "<android.content.SharedPreferences$Editor: "
        "android.content.SharedPreferences$Editor "
        "putString(java.lang.String,java.lang.String)>"
    )
    specs = [reg.specs[i] for i in reg.match(put)]
    assert [s.category for s in specs] == ["localstore"]
    assert specs[0].positions == (2,)  # argument 1


def test_match_ignores_return_type():
    reg = load_default_sinks()
    odd = parse_method_sig(
        "<android.content.SharedPreferences$Editor: void "
        "putString(java.lang.String,java.lang.String)>"
    )
    assert reg.match(odd)


def test_match_is_exact_on_class_name_and_params():
    reg = load_default_sinks()
    for mutated in (
        "<android.content.SharedPreferences: android.content.SharedPreferences$Editor putString(java.lang.String,java.lang.String)>",
        "<android.content.SharedPreferences$Editor: android.content.SharedPreferences$Editor putString(java.lang.String)>",
        "<android.content.SharedPreferences$Editor: android.content.SharedPreferences$Editor putstring(java.lang.String,java.lang.String)>",
    ):
        assert reg.match(parse_method_sig(mutated)) == ()


def _registry(lines: str, tmp_path) -> SinkRegistry:
    p = tmp_path / "sinks.tsv"
    p.write_text(lines)
    return load_sinks(p)


def test_star_expands_to_receiver_and_all_args(tmp_path):
    reg = _registry("log\t<a.B: int d(int,int)>\t*\n", tmp_path)
    (spec,) = reg.specs
    assert spec.positions == (0, 1, 2)  # the receiver, argument 0, argument 1


def test_two_spellings_of_one_argument_are_one_position(tmp_path):
    (spec,) = _registry("log\t<a.B: int d(int,int)>\targ01, arg1\n", tmp_path).specs
    assert spec.positions == (2,)


@st.composite
def _position_lists(draw):
    """(arity, position tokens): recv, or argN spelled with leading zeros."""
    arity = draw(st.integers(0, 4))
    recv = st.just("recv")
    arg = st.builds(
        lambda n, zeros: f"arg{'0' * zeros}{n}", st.integers(0, arity - 1), st.integers(0, 2)
    )
    return arity, draw(st.lists(recv | arg if arity else recv, min_size=1, max_size=6))


@given(_position_lists())
def test_positions_load_to_operand_offsets(tmp_path_factory, drawn):
    arity, tokens = drawn
    params = ",".join(["int"] * arity)
    path = tmp_path_factory.mktemp("sinks") / "sinks.tsv"
    path.write_text(
        f"log\t<a.B: int d({params})>\t{', '.join(tokens)}\n"
        f"net\t<a.B: int d({params})>\t*\n"
    )
    listed, star = load_sinks(path).specs
    want = {0 if t == "recv" else int(t[3:]) + 1 for t in tokens}
    assert listed.positions == tuple(sorted(want))
    assert star.positions == tuple(range(arity + 1))


def test_spec_signature_is_the_rendered_signature(tmp_path):
    hand = _registry(
        "net\t<a.B: void send(java.lang.String)>\targ0\n"
        "  log \t <a.B$C: int[] d(int,long[][],a.B)> \t * \n"
        "localstore\t<a.B: void f()>\trecv\n",
        tmp_path,
    )
    for reg in (load_default_sinks(), hand):
        assert reg.specs
        for spec in reg.specs:
            assert spec.signature == render_method_sig(parse_method_sig(spec.signature))


def test_dual_category_sink(tmp_path):
    sig = "<a.B: void send(java.lang.String)>"
    reg = _registry(f"net\t{sig}\targ0\nlog\t{sig}\targ0\n", tmp_path)
    cats = {reg.specs[i].category for i in reg.match(parse_method_sig(sig))}
    assert cats == {"net", "log"}


@pytest.mark.parametrize(
    "line,exc",
    [
        ("net\t<a.B: void f(int)>\targ1", BadPosition),
        ("net\t<a.B: void f(int)>\targ-1", BadPosition),
        ("net\t<a.B: void f(int)>\tself", BadPosition),
        ("net\t<a.B: void f(int)>\targ\u00b2", BadPosition),  # isdigit() but not int()
        ("net\t<a.B: void f(int,int,int,int)>\targ\u0663", BadPosition),  # int() reads 3
        ("net\t<a.B: void f(int)>\t", SinkSyntaxError),
        ("net\t<a.B: void f(int)>", SinkSyntaxError),
        ("teleport\t<a.B: void f(int)>\targ0", SinkSyntaxError),
        ("net\t<a.B void f(int)>\targ0", SinkSyntaxError),
        ("net\t<a.B: void f(int%)>\targ0", SinkSyntaxError),  # a lexical error
        ("net\t<a.B: void f(int, int)>\targ0", SinkSyntaxError),  # not the rendered spelling
        ("net\t<a.B: int f>\targ0", SinkSyntaxError),  # a field signature
    ],
)
def test_sink_file_errors(tmp_path, line, exc):
    with pytest.raises(exc):
        _registry(line + "\n", tmp_path)


def test_duplicate_sig_category_rejected(tmp_path):
    sig = "<a.B: void f(int)>"
    editor = "android.content.SharedPreferences$Editor"
    put = "putString(java.lang.String,java.lang.String)>\targ1\n"
    for text in [
        f"net\t{sig}\targ0\nnet\t{sig}\t*\n",
        # match ignores the return type, so these two would match one call twice
        f"localstore\t<{editor}: {editor} {put}localstore\t<{editor}: void {put}",
    ]:
        with pytest.raises(SinkSyntaxError, match="duplicate"):
            _registry(text, tmp_path)


def test_match_sink_on_statement(tmp_path):
    bundle = _bundle(
        tmp_path,
        [
            "r0 = this",
            'virtualinvoke r0.<android.util.Log: int d(java.lang.String,java.lang.String)>("t", "m")',
        ],
    )
    stmts = [s for _, _, s in bundle.iter_statements()]
    reg = load_default_sinks()
    (i,) = reg.match(stmts[1].sig)
    assert reg.specs[i].category == "log"
