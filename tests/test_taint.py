"""Taint engine tests: edge rules, shortest witnesses, party attribution."""

from __future__ import annotations

import dataclasses
import random
import tracemalloc
from pathlib import Path

import pytest

import uitaint
from uitaint.fixtures import FixtureSpec, generate
from uitaint.gui import extract_views, join_rtable
from uitaint.ir import (
    AppBundle,
    CodeUnit,
    StmtId,
    parse_bundle,
    parse_method_sig,
)
from uitaint.pi import classify
from uitaint.pipeline import load_config
from uitaint.sources_sinks import (
    SourcePoint,
    load_default_sinks,
    load_sinks,
    resolve_sources,
)
from uitaint.taint import (
    Party,
    TaintGraph,
    build_graph,
    classify_package,
    extract_leaks,
)
from conftest import (
    DATA,
    brute_force_alt_third_party,
    enumerate_min_paths,
    mini_labeled_views,
    random_mini_bundle,
    reference_extract_leaks,
    write_bundle,
    write_hub_bundle,
)
from uitaint.gui import ViewElement

SINKS = load_default_sinks()

FIND = "<com.app.Main: android.view.View findViewById(int)>"
LOG_D = "<android.util.Log: int d(java.lang.String,java.lang.String)>"
PUT_STRING = (
    "<android.content.SharedPreferences$Editor: "
    "android.content.SharedPreferences$Editor putString(java.lang.String,java.lang.String)>"
)


def _view(numeric_id=100, kind="email"):
    return ViewElement("EditText", "emailField", numeric_id, None, None, "m.xml", kind)


def _main(body_lines, extra_decls=""):
    text = f"class com.app.Main extends android.app.Activity\n{extra_decls}\n"
    text += "method void onCreate(android.os.Bundle b1):\n"
    text += "".join(f"  {line}\n" for line in body_lines)
    return text


def _leaks(tmp_path, code, views=None, sinks=SINKS, package="com.app"):
    bundle = parse_bundle(
        write_bundle(tmp_path / "app", package=package, code=code)
    )
    sources, _ = resolve_sources(bundle, views or [_view()])
    graph = build_graph(bundle, sources, sinks)
    return extract_leaks(graph)


def _ordinals(leak):
    return [sid.ordinal for sid in leak.path]


def test_direct_flow_through_copy(tmp_path):
    code = {
        "Main.jtac": _main(
            [
                "r0 = this",
                f"$r1 = virtualinvoke r0.{FIND}(100)",
                "$r2 = $r1",
                f'staticinvoke {LOG_D}("t", $r2)',
            ]
        )
    }
    (leak,) = _leaks(tmp_path, code)
    assert leak.source.view.pi == "email"
    assert leak.sink_spec.category == "log"
    assert leak.path_len == 2
    assert _ordinals(leak) == [1, 2, 3]


def test_cast_propagates(tmp_path):
    code = {
        "Main.jtac": _main(
            [
                "r0 = this",
                f"$r1 = virtualinvoke r0.{FIND}(100)",
                "$r2 = (android.widget.EditText) $r1",
                f'staticinvoke {LOG_D}("t", $r2)',
            ]
        )
    }
    (leak,) = _leaks(tmp_path, code)
    assert _ordinals(leak) == [1, 2, 3]


def test_constants_do_not_taint(tmp_path):
    code = {
        "Main.jtac": _main(
            [
                "r0 = this",
                f"$r1 = virtualinvoke r0.{FIND}(100)",
                '$r2 = "safe"',
                f'staticinvoke {LOG_D}("t", $r2)',
            ]
        )
    }
    assert _leaks(tmp_path, code) == []


def test_four_edge_chain_through_field_and_getter(tmp_path):
    # findViewById -> getText -> field write -> field read -> putString
    code = {
        "Main.jtac": _main(
            [
                "r0 = this",
                f"$r1 = virtualinvoke r0.{FIND}(100)",
                "$r2 = virtualinvoke $r1.<android.widget.EditText: java.lang.String getText()>()",
                "r0.<com.app.Main: java.lang.String stash> = $r2",
                "$r3 = r0.<com.app.Main: java.lang.String stash>",
                "$r4 = staticinvoke <com.app.Main: android.content.SharedPreferences$Editor ed()>()",
                f'interfaceinvoke $r4.{PUT_STRING}("k", $r3)',
            ],
            extra_decls="\nfield java.lang.String stash\n",
        )
        + "\nmethod static android.content.SharedPreferences$Editor ed():\n  return null\n"
    }
    (leak,) = _leaks(tmp_path, code)
    assert leak.path_len == 4
    assert _ordinals(leak) == [1, 2, 3, 4, 6]
    assert leak.sink_spec.category == "localstore"
    assert leak.party is Party.FIRST


def test_field_is_cell_keyed_by_signature_not_base(tmp_path):
    # write through one register, read through another: same cell
    code = {
        "Main.jtac": _main(
            [
                "r0 = this",
                "r9 = r0",
                f"$r1 = virtualinvoke r0.{FIND}(100)",
                "r0.<com.app.Main: java.lang.String stash> = $r1",
                "$r2 = r9.<com.app.Main: java.lang.String stash>",
                f'staticinvoke {LOG_D}("t", $r2)',
            ],
            extra_decls="\nfield java.lang.String stash\n",
        )
    }
    (leak,) = _leaks(tmp_path, code)
    assert _ordinals(leak) == [2, 3, 4, 5]
    # a different field with the same name elsewhere is a different cell
    code2 = {
        "Main.jtac": _main(
            [
                "r0 = this",
                f"$r1 = virtualinvoke r0.{FIND}(100)",
                "r0.<com.app.Main: java.lang.String stash> = $r1",
                "$r2 = r0.<com.app.Other: java.lang.String stash>",
                f'staticinvoke {LOG_D}("t", $r2)',
            ],
            extra_decls="\nfield java.lang.String stash\n",
        )
    }
    assert _leaks(tmp_path / "b", code2) == []


def test_diamond_keeps_lexicographically_first_witness(tmp_path):
    code = {
        "Main.jtac": _main(
            [
                "r0 = this",
                f"$s = virtualinvoke r0.{FIND}(100)",
                "$a = $s",
                "$b = $s",
                "$c = $a",
                "$c = $b",
                f'staticinvoke {LOG_D}("t", $c)',
            ]
        )
    }
    leaks = _leaks(tmp_path, code)
    assert len(leaks) == 1  # one (source, sink, spec) pair, not one per path
    assert _ordinals(leaks[0]) == [1, 2, 4, 6]


def test_in_bundle_call_binds_args_and_return(tmp_path):
    code = {
        "Main.jtac": _main(
            [
                "r0 = this",
                f"$s = virtualinvoke r0.{FIND}(100)",
                "$t = staticinvoke <com.app.Helper: java.lang.String wrap(java.lang.String)>($s)",
                f'staticinvoke {LOG_D}("t", $t)',
            ]
        ),
        "Helper.jtac": (
            "class com.app.Helper\n"
            "method static java.lang.String wrap(java.lang.String p0):\n"
            "  $x = p0\n"
            "  return $x\n"
        ),
    }
    (leak,) = _leaks(tmp_path, code)
    # the callee's copy and return statements are visible on the path
    assert [(s.cls.rsplit(".", 1)[-1], s.ordinal) for s in leak.path] == [
        ("Main", 1), ("Main", 2), ("Helper", 0), ("Helper", 1), ("Main", 3),
    ]


def test_in_bundle_receiver_taints_callee_this(tmp_path):
    code = {
        "Main.jtac": _main(
            [
                "r0 = this",
                f"$s = virtualinvoke r0.{FIND}(100)",
                "$w = virtualinvoke $s.<com.app.Wrapper: java.lang.String self()>()",
                f'staticinvoke {LOG_D}("t", $w)',
            ]
        ),
        "Wrapper.jtac": (
            "class com.app.Wrapper\n"
            "method java.lang.String self():\n"
            "  r0 = this\n"
            "  return r0\n"
        ),
    }
    (leak,) = _leaks(tmp_path, code)
    assert leak.path_len == 4


def test_opaque_call_taints_result_and_receiver(tmp_path):
    code = {
        "Main.jtac": _main(
            [
                "r0 = this",
                f"$s = virtualinvoke r0.{FIND}(100)",
                "$sb = staticinvoke <com.app.Main: java.lang.StringBuilder fresh()>()",
                "$r = virtualinvoke $sb.<java.lang.StringBuilder: java.lang.StringBuilder append(java.lang.String)>($s)",
                "$out = virtualinvoke $sb.<java.lang.StringBuilder: java.lang.String toString()>()",
                f'staticinvoke {LOG_D}("t", $out)',
            ]
        )
        + "\nmethod static java.lang.StringBuilder fresh():\n  return null\n"
    }
    # append taints the receiver $sb; toString then carries it to $out
    (leak,) = _leaks(tmp_path, code)
    assert _ordinals(leak) == [1, 3, 4, 5]


def test_unreached_sink_is_silent(tmp_path):
    code = {
        "Main.jtac": _main(
            [
                "r0 = this",
                f"$s = virtualinvoke r0.{FIND}(100)",
                "r0.<com.app.Main: java.lang.String dead> = $s",
                f'staticinvoke {LOG_D}("t", "const")',
            ],
            extra_decls="\nfield java.lang.String dead\n",
        )
    }
    assert _leaks(tmp_path, code) == []


# ---------------------------------------------------------------------------
# party attribution


@pytest.mark.parametrize(
    "pkg,expected,app",
    [
        pytest.param(pkg, expected, "com.gotokeep.yoga.intl", id=f"{pkg}-{expected}")
        for pkg, expected in (
            ("android.view", "platform"),
            ("androidx.core.widget", "platform"),
            ("java.io", "platform"),
            ("javax.crypto", "platform"),
            ("kotlin.jvm", "platform"),
            ("kotlinx.coroutines", "platform"),
            ("dalvik.system", "platform"),
            ("com.gotokeep.yoga.intl", "first"),
            ("com.gotokeep.yoga", "first"),
            ("com.gotokeep", "first"),
            ("com.gotokeep.other.tool", "first"),
            ("com.gotokeeper", "third"),
            ("io.branch.referral", "third"),
            ("com.facebook.ads", "third"),
            ("", "third"),
        )
    ]
    # an app package of one, two or three segments is first party, and so
    # is a package under it
    + [(p, "first", app) for app in ("app", "com.app", "com.app.pro") for p in (app, f"{app}.ui")],
)
def test_classify_package(pkg, expected, app):
    assert classify_package(pkg, app) == expected


def test_party_ignores_sink_callee_signature(tmp_path):
    # Log.d lives in the android.* platform namespace, yet the leak is
    # first-party because every path statement is app code
    code = {
        "Main.jtac": _main(
            [
                "r0 = this",
                f"$s = virtualinvoke r0.{FIND}(100)",
                f'staticinvoke {LOG_D}("t", $s)',
            ]
        )
    }
    (leak,) = _leaks(tmp_path, code)
    assert leak.party is Party.FIRST
    assert not leak.alt_third_party_path


def test_third_party_stmt_on_path_flips_party(tmp_path):
    code = {
        "Main.jtac": _main(
            [
                "r0 = this",
                f"$s = virtualinvoke r0.{FIND}(100)",
                "$t = staticinvoke <io.sdk.Relay: java.lang.String send(java.lang.String)>($s)",
                f'staticinvoke {LOG_D}("t", $t)',
            ]
        ),
        "Relay.jtac": (
            "class io.sdk.Relay\n"
            "method static java.lang.String send(java.lang.String p0):\n"
            "  return p0\n"
        ),
    }
    (leak,) = _leaks(tmp_path, code)
    assert leak.party is Party.THIRD
    assert not leak.alt_third_party_path  # diagnostic applies to First only


def test_first_party_with_third_party_alternative(tmp_path):
    code = {
        "Main.jtac": _main(
            [
                "r0 = this",
                f"$s = virtualinvoke r0.{FIND}(100)",
                "$d = $s",
                "$t = staticinvoke <io.sdk.Relay: java.lang.String send(java.lang.String)>($s)",
                "$d = $t",
                f'staticinvoke {LOG_D}("t", $d)',
            ]
        ),
        "Relay.jtac": (
            "class io.sdk.Relay\n"
            "method static java.lang.String send(java.lang.String p0):\n"
            "  return p0\n"
        ),
    }
    (leak,) = _leaks(tmp_path, code)
    assert leak.party is Party.FIRST  # shortest witness stays in app code
    assert leak.alt_third_party_path


def test_no_alternative_flag_when_relay_is_a_dead_end(tmp_path):
    code = {
        "Main.jtac": _main(
            [
                "r0 = this",
                f"$s = virtualinvoke r0.{FIND}(100)",
                "$d = $s",
                "$t = staticinvoke <io.sdk.Relay: java.lang.String send(java.lang.String)>($s)",
                f'staticinvoke {LOG_D}("t", $d)',
            ]
        ),
        "Relay.jtac": (
            "class io.sdk.Relay\n"
            "method static java.lang.String send(java.lang.String p0):\n"
            "  return p0\n"
        ),
    }
    (leak,) = _leaks(tmp_path, code)
    assert leak.party is Party.FIRST
    assert not leak.alt_third_party_path


def test_no_alternative_flag_when_only_the_relay_result_is_tainted(tmp_path):
    # the library call taints the relay's result as its receiver, but no
    # tainted value ever enters the relay, so its return edge is off-route
    code = {
        "Main.jtac": _main(
            [
                "r0 = this",
                f"$s = virtualinvoke r0.{FIND}(100)",
                '$t = staticinvoke <io.sdk.Relay: java.lang.String send(java.lang.String)>("x")',
                "$u = virtualinvoke $t.<ext.lib.Util: java.lang.String via(java.lang.String)>($s)",
                f'staticinvoke {LOG_D}("t", $t)',
            ]
        ),
        "Relay.jtac": (
            "class io.sdk.Relay\n"
            "method static java.lang.String send(java.lang.String p0):\n"
            "  return p0\n"
        ),
    }
    (leak,) = _leaks(tmp_path, code)
    assert leak.party is Party.FIRST
    assert not leak.alt_third_party_path


def test_classify_party_on_raw_paths():
    def party(path, app):
        """The party of the one leak of a graph whose witness is path:
        (source, edge labels..., sink)."""
        source, *labels, sink = path
        nodes = list(range(len(labels) + 1))
        units = {sid.cls: CodeUnit(sid.cls, None, (), ()) for sid in path}
        graph = TaintGraph(
            bundle=AppBundle(app, [], {}, units),
            adjacency={a: {(b, label)} for a, b, label in zip(nodes, nodes[1:], labels)},
            seeds={SourcePoint(source, _view(), "r0"): nodes[0]},
            sink_feeds={nodes[-1]: {(sink, 0)}},
            sink_specs=SINKS.specs,
        )
        (leak,) = extract_leaks(graph)
        assert leak.path == path
        return leak.party

    app = "com.app.x"
    first = StmtId("com.app.x.Main", "m()", 0)
    third = StmtId("io.lib.Thing", "m()", 0)
    platform = StmtId("android.util.Log", "d()", 0)
    assert party((first, first), app) is Party.FIRST
    assert party((first, platform, first), app) is Party.FIRST
    assert party((first, third, first), app) is Party.THIRD
    assert party((third, first), app) is Party.THIRD  # the source's class counts
    assert party((first, third), app) is Party.THIRD  # and the sink's


# ---------------------------------------------------------------------------
# properties


def test_adding_sinks_never_removes_leaks(tmp_path):
    code = {
        "Main.jtac": _main(
            [
                "r0 = this",
                f"$s = virtualinvoke r0.{FIND}(100)",
                f'staticinvoke {LOG_D}("t", $s)',
                'virtualinvoke $s.<com.app.Main: void custom(java.lang.String)>("x")',
            ]
        )
    }
    base = _leaks(tmp_path, code, sinks=SINKS)
    wider = tmp_path / "sinks.tsv"
    wider.write_text(
        (Path(uitaint.__file__).parent / "data" / "sinks.tsv").read_text()
        + "net\t<com.app.Main: void custom(java.lang.String)>\trecv\n"
    )
    extra = load_sinks(wider)
    assert extra.specs[:-1] == SINKS.specs
    widened = _leaks(tmp_path / "again", code, sinks=extra)

    def key(lk):
        return (lk.source.stmt, lk.sink_stmt, lk.sink_spec.category)

    assert set(map(key, base)) < set(map(key, widened))


def test_register_renaming_does_not_change_leaks(tmp_path):
    lines = [
        "r0 = this",
        f"$s = virtualinvoke r0.{FIND}(100)",
        "$mid = $s",
        f'staticinvoke {LOG_D}("t", $mid)',
    ]
    renamed = [l.replace("$s", "$zz9").replace("$mid", "q$1") for l in lines]
    a = _leaks(tmp_path / "a", {"Main.jtac": _main(lines)})
    b = _leaks(tmp_path / "b", {"Main.jtac": _main(renamed)})
    assert [(_ordinals(x), x.path_len, x.party) for x in a] == [
        (_ordinals(x), x.path_len, x.party) for x in b
    ]


@pytest.mark.parametrize("seed", range(40))
def test_bfs_matches_enumeration_oracle(seed):
    rng = random.Random(seed)
    bundle = random_mini_bundle(rng)
    sources, _ = resolve_sources(bundle, mini_labeled_views())
    graph = build_graph(bundle, sources, SINKS)
    leaks = extract_leaks(graph)

    expected_total = 0
    for sp, seed_node in graph.seeds.items():
        oracle = enumerate_min_paths(graph, seed_node, (sp.stmt,))
        got = {
            (lk.sink_stmt, lk.sink_spec): lk.path
            for lk in leaks
            if lk.source == sp
        }
        assert got == oracle, f"seed {seed}: witness mismatch for {sp.stmt}"
        expected_total += len(oracle)
    assert len(leaks) == expected_total


def test_alt_flag_matches_brute_force_oracle():
    # 30 statements rather than 12: at 12, 1,000 programs set the flag on
    # only two leaks, at 30 on fifteen
    flagged = 0
    for seed in range(1000):
        rng = random.Random(seed)
        bundle = random_mini_bundle(rng, n_statements=30, relay=True)
        sources, _ = resolve_sources(bundle, mini_labeled_views())
        graph = build_graph(bundle, sources, SINKS)
        for lk in extract_leaks(graph):
            want = lk.party is Party.FIRST and brute_force_alt_third_party(
                graph,
                graph.seeds[lk.source],
                (lk.sink_stmt, lk.sink_spec),
                bundle.app_package,
            )
            assert lk.alt_third_party_path == want, f"seed {seed}: {lk.path}"
            flagged += want
    assert flagged > 0


def test_leaks_do_not_depend_on_edge_or_feed_order():
    # 60 statements rather than 30: at 30, none of these 300 programs has a
    # sink whose witness a first-found rule would pick by visiting order
    for seed in range(300):
        rng = random.Random(seed)
        bundle = random_mini_bundle(rng, n_statements=60, relay=True)
        sources, _ = resolve_sources(bundle, mini_labeled_views())
        graph = build_graph(bundle, sources, SINKS)

        def shuffled(table):
            return {k: rng.sample(sorted(v, key=repr), len(v)) for k, v in table.items()}

        other = graph._replace(
            adjacency=shuffled(graph.adjacency), sink_feeds=shuffled(graph.sink_feeds)
        )
        assert extract_leaks(other) == extract_leaks(graph), f"seed {seed}"


def _hand_graph(tmp_path, lines):
    code = {
        "Main.jtac": _main(lines),
        "Relay.jtac": (
            "class io.sdk.Relay\n"
            "method static java.lang.String send(java.lang.String p0):\n"
            "  return p0\n"
        ),
    }
    bundle = parse_bundle(write_bundle(tmp_path / "app", package="com.app", code=code))
    sources, _ = resolve_sources(bundle, [_view()])
    return build_graph(bundle, sources, SINKS)


def _shared_label_graph(tmp_path):
    """Statement 2 labels three edges: $s -> $t and $s -> r0 put $t and r0
    in one wave of one path, and both feed sinks."""
    return _hand_graph(
        tmp_path,
        [
            "r0 = this",
            f"$s = virtualinvoke r0.{FIND}(100)",
            "$t = virtualinvoke r0.<ext.lib.Util: java.lang.String via(java.lang.String)>($s)",
            "$u = $t",
            "$u = r0",
            f'staticinvoke {LOG_D}("t", $u)',
            f'staticinvoke {LOG_D}("t", r0)',
        ],
    )


def _crossed_later_graph(tmp_path):
    """$a feeds the sink first by a first-party path, then again after the
    third-party relay: a first-party witness with an alternative route, so
    a later hit of the sink key must set the flag and keep the witness."""
    return _hand_graph(
        tmp_path,
        [
            "r0 = this",
            f"$s = virtualinvoke r0.{FIND}(100)",
            "$r = staticinvoke <io.sdk.Relay: java.lang.String send(java.lang.String)>($s)",
            "$a = $r",
            "$a = $s",
            f'staticinvoke {LOG_D}("t", $a)',
        ],
    )


def _mini_graph(seed):
    bundle = random_mini_bundle(random.Random(seed))
    sources, _ = resolve_sources(bundle, mini_labeled_views())
    return build_graph(bundle, sources, SINKS)


_DIFFERENTIAL_INPUTS = {
    **{f"mini-{seed}": lambda tmp, seed=seed: _mini_graph(seed) for seed in range(40)},
    **{
        f"fixture-{seed}": lambda tmp, seed=seed: _graph(
            generate(FixtureSpec(seed=seed), tmp / "fx")[0]
        )
        for seed in (1, 7, 29)
    },
    "hub-12x12": lambda tmp: _graph(write_hub_bundle(tmp / "hub", 12, 12)),
    "chains-60": lambda tmp: _graph(
        generate(
            FixtureSpec(seed=3, n_sources=20, chain_len=(60, 60), party_mix=0.5), tmp / "fx"
        )[0]
    ),
    "shared-label": _shared_label_graph,
    "crossed-later": _crossed_later_graph,
}


@pytest.mark.parametrize("name", list(_DIFFERENTIAL_INPUTS))
def test_leaks_match_the_reference_search(tmp_path, name):
    graph = _DIFFERENTIAL_INPUTS[name](tmp_path)
    leaks = extract_leaks(graph)
    assert leaks == reference_extract_leaks(graph)
    reversed_graph = graph._replace(
        adjacency={k: list(v)[::-1] for k, v in graph.adjacency.items()},
        sink_feeds={k: list(v)[::-1] for k, v in graph.sink_feeds.items()},
    )
    assert extract_leaks(reversed_graph) == leaks
    assert reference_extract_leaks(reversed_graph) == leaks


def _leak_peak(tmp_path, chain_len):
    """tracemalloc peak of one extract_leaks call on 40 chains of chain_len."""
    spec = FixtureSpec(seed=3, n_sources=40, n_decoys=0, chain_len=(chain_len, chain_len))
    graph = _graph(generate(spec, tmp_path / str(chain_len))[0])
    extract_leaks(graph)
    tracemalloc.start()
    try:
        extract_leaks(graph)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_witness_search_memory_grows_linearly_with_chain_length(tmp_path):
    # a search that copies a path per state peaks at 3.7 times
    ratio = _leak_peak(tmp_path, 800) / _leak_peak(tmp_path, 400)
    assert ratio <= 2.5, ratio


def test_leaks_are_sorted_and_deterministic(tmp_path):
    code = {
        "Main.jtac": _main(
            [
                "r0 = this",
                f"$a = virtualinvoke r0.{FIND}(100)",
                f"$b = virtualinvoke r0.{FIND}(101)",
                f'staticinvoke {LOG_D}("t", $b)',
                f'staticinvoke {LOG_D}("t", $a)',
            ]
        )
    }
    views = [_view(100), _view(101, "phone")]
    leaks = _leaks(tmp_path, code, views=views)
    keys = [(lk.source.stmt, lk.sink_stmt) for lk in leaks]
    assert keys == sorted(keys)
    assert len(leaks) == 2


@pytest.fixture(scope="module")
def isolated_app(tmp_path_factory):
    """The bundle of 400 planted flows at fixture seed 7."""
    spec = FixtureSpec(seed=7, n_sources=400, n_decoys=40)
    return generate(spec, tmp_path_factory.mktemp("isolated") / "fx")[0]


def _graph(app):
    """The graph of the bundle at app."""
    widgets, lexicon, sinks = load_config()
    bundle = parse_bundle(app)
    views = [v for layout in bundle.layouts for v in extract_views(layout, widgets)]
    views, _ = join_rtable(views, bundle.rtable)
    labeled = [dataclasses.replace(v, pi=kind) for v in views
               if (kind := classify(v, lexicon)) is not None]
    sources, _ = resolve_sources(bundle, labeled)
    return build_graph(bundle, sources, sinks)


def test_graph_counts_of_the_400_flow_fixture(isolated_app):
    graph = _graph(isolated_app)
    nodes = set(graph.adjacency)
    for edges in graph.adjacency.values():
        nodes.update(dst for dst, _ in edges)
    assert len(nodes) == 3603
    assert sum(len(edges) for edges in graph.adjacency.values()) == 3385
    assert len(graph.seeds) == 413
    assert sum(len(feeds) for feeds in graph.sink_feeds.values()) == 400


@pytest.mark.parametrize("name", ["isolated", "keep_yoga", "panic_shield"])
def test_node_ids_are_dense_and_set_by_build_order(request, name):
    app = request.getfixturevalue("isolated_app") if name == "isolated" else DATA / name
    graph = _graph(app)
    nodes = set(graph.adjacency) | set(graph.seeds.values()) | set(graph.sink_feeds)
    for edges in graph.adjacency.values():
        nodes.update(dst for dst, _ in edges)
    assert all(type(n) is int for n in nodes)
    assert nodes == set(range(len(nodes)))
    again = _graph(app)
    assert again.adjacency == graph.adjacency
    assert again.seeds == graph.seeds
    assert again.sink_feeds == graph.sink_feeds
