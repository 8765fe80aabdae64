"""The bundle's method table: every method and statement lookup against the
scans it replaced, and a count of the loops over each body that source and
graph building make."""

from __future__ import annotations

import dataclasses
import random

import pytest

from uitaint.fixtures import FixtureSpec, generate
from uitaint.gui import extract_views, join_rtable
from uitaint.ir import AppBundle, InvokeStmt, parse_bundle, parse_code_unit, resolve_call
from uitaint.pi import classify
from uitaint.pipeline import load_config
from uitaint.sources_sinks import _find_view_sites, resolve_sources
from uitaint import taint
from uitaint.taint import build_graph
from conftest import (
    SHAPES,
    mini_labeled_views,
    random_mini_bundle,
    reference_add_call_edges,
    reference_resolve_arg,
    reference_resolve_call,
    reference_statement_index,
    write_hub_bundle,
    write_shape_bundle,
)

_OVERLOADS = (("f", ""), ("f", "int"), ("g", "int"))


def _hierarchy_bundle(rng: random.Random) -> AppBundle:
    """Six classes, each extending one of them (itself and cycles included),
    a class outside the bundle or nothing, and each declaring some of three
    overloads; h.Caller calls every overload on each of them and on a class
    outside the bundle. The classes are in random order."""
    names = [f"h.C{i}" for i in range(6)]
    units = {}
    for name in names:
        sup = rng.choice([*names, "android.app.Activity", None])
        lines = [f"class {name}" + (f" extends {sup}" if sup else "")]
        for m, p in _OVERLOADS:
            if rng.random() < 0.4:
                lines += [f"method void {m}({p and p + ' p0'}):", "  return"]
        units[name] = parse_code_unit("\n".join(lines) + "\n", name)
    calls = ["class h.Caller", "method void run():", "  r0 = this"]
    calls += [f"  virtualinvoke r0.<{name}: void {m}({p})>({p and '1'})"
              for name in [*names, "h.Outside"] for m, p in _OVERLOADS]
    units["h.Caller"] = parse_code_unit("\n".join(calls) + "\n", "Caller")
    # a bundle's classes come in file order, not class order
    return AppBundle("h", [], {}, dict(rng.sample(sorted(units.items()), len(units))))


def _bundles(case, root):
    if case == "mini":
        return [random_mini_bundle(random.Random(seed), 30, relay=seed % 2 == 0)
                for seed in range(20)]
    if case == "hierarchy":
        return [_hierarchy_bundle(random.Random(seed)) for seed in range(40)]
    if case.startswith("seed"):
        spec = FixtureSpec(seed=int(case[4:]), n_sources=40, n_decoys=8)
        return [parse_bundle(generate(spec, root / "fx")[0])]
    if case == "hub":
        return [parse_bundle(write_hub_bundle(root / "hub", 12, 5))]
    return [parse_bundle(write_shape_bundle(root / case, case, 30))]


@pytest.fixture(
    scope="module", params=["mini", "hierarchy", "seed1", "seed7", "seed29", "hub", *SHAPES]
)
def bundles(request, tmp_path_factory):
    return _bundles(request.param, tmp_path_factory.mktemp(request.param))


def test_resolve_call_matches_the_superclass_scan(bundles):
    calls = 0
    for bundle in bundles:
        for _, _, s in bundle.iter_statements():
            if type(s) is InvokeStmt:
                calls += 1
                assert resolve_call(s.expr, bundle) is reference_resolve_call(s.expr, bundle)
    assert calls


def test_statement_lookup_matches_the_statement_index(bundles):
    for bundle in bundles:
        index = reference_statement_index(bundle)
        assert [s for _, _, s in bundle.iter_statements()] == list(index.values())
        for sid, stmt in index.items():
            assert bundle.statement(sid) is stmt


def test_find_view_sites_match_the_per_site_scan(bundles):
    for bundle in bundles:
        for method in bundle.methods.values():
            want = [
                (s.sid, reference_resolve_arg(s.expr, method, bundle.rtable))
                for s in method.statements
                if type(s) is InvokeStmt
                and s.expr.sig.name == "findViewById" and s.expr.sig.param_types == ("int",)
            ]
            got = [(s.sid, value) for s, value in _find_view_sites(method, bundle.rtable)]
            assert got == want


def _labeled_views(bundle, widgets, lexicon):
    views = [v for layout in bundle.layouts for v in extract_views(layout, widgets)]
    views, _ = join_rtable(views, bundle.rtable)
    return [dataclasses.replace(v, pi=kind) for v in views
            if (kind := classify(v, lexicon)) is not None]


def test_graph_matches_the_per_call_site_return_scan(bundles, monkeypatch):
    def rescan(sid, expr, result, callee, returns, *closures):
        reference_add_call_edges(sid, expr, result, callee, *closures)

    widgets, lexicon, sinks = load_config()
    for bundle in bundles:
        labeled = _labeled_views(bundle, widgets, lexicon) or mini_labeled_views()
        sources, _ = resolve_sources(bundle, labeled)
        got = build_graph(bundle, sources, sinks)
        with monkeypatch.context() as m:
            m.setattr(taint, "_add_call_edges", rescan)
            want = build_graph(bundle, sources, sinks)
        assert got[1:] == want[1:]  # adjacency, seeds, sink feeds and specs


class _Loops(tuple):
    """A tuple that counts the loops over it."""

    loops = 0

    def __iter__(self):
        self.loops += 1
        return super().__iter__()


@pytest.mark.parametrize("k", [50, 200])
@pytest.mark.parametrize("shape", SHAPES)
def test_sources_and_graph_loop_over_each_body_a_bounded_number_of_times(tmp_path, shape, k):
    widgets, lexicon, sinks = load_config()
    bundle = parse_bundle(write_shape_bundle(tmp_path / "app", shape, k))
    counted, units = [], {}
    for name, unit in bundle.code_units.items():
        methods = _Loops(m._replace(statements=_Loops(m.statements)) for m in unit.methods)
        counted += [methods, *(m.statements for m in methods)]
        units[name] = unit._replace(methods=methods)
    bundle = AppBundle(bundle.app_package, bundle.layouts, bundle.rtable, units)
    labeled = _labeled_views(bundle, widgets, lexicon)
    for t in counted:
        t.loops = 0
    sources, _ = resolve_sources(bundle, labeled)
    graph = build_graph(bundle, sources, sinks)
    assert sources and graph.sink_feeds
    # at most two loops over a body in each pass: one that reads its
    # statements and one that collects its constants or its returns
    assert max(t.loops for t in counted) <= 4
