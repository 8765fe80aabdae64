"""Flow-insensitive, field-based taint propagation.

The taint graph's nodes are dense int ids, numbered in build order: one per
method-local register (keyed by class, method and name) and one per field
cell (keyed by the field's signature in the class that declares it, shared
by every object instance). Edges are labeled with the statement that induces
them; a leak is the shortest labeled path from a findViewById source to a
tainted position of a registered sink call.
"""

from __future__ import annotations

from enum import Enum
from operator import itemgetter
from typing import NamedTuple

from .ir import (
    AppBundle,
    AssignAtom,
    AssignCast,
    FieldRead,
    FieldSig,
    FieldWrite,
    InvokeStmt,
    MethodBody,
    ReturnStmt,
    StmtId,
    method_token,
    resolve_call,
    superclass_chain,
)
from .sources_sinks import SinkRegistry, SinkSpec, SourcePoint


class Party(Enum):
    FIRST = "first"
    THIRD = "third"


PLATFORM_PACKAGE_PREFIXES = (
    "android",
    "androidx",
    "java",
    "javax",
    "kotlin",
    "kotlinx",
    "dalvik",
)

class TaintGraph(NamedTuple):
    bundle: AppBundle
    # node id -> (successor id, label) of each edge it starts
    adjacency: dict[int, set[tuple[int, StmtId]]]
    seeds: dict[SourcePoint, int]  # source -> the id of its result register
    # node id -> (sink statement, index in sink_specs) of each sink call it feeds
    sink_feeds: dict[int, set[tuple[StmtId, int]]]
    sink_specs: tuple[SinkSpec, ...]  # the registry's


class Leak(NamedTuple):
    """One source-to-sink flow, carrying its shortest witness path."""

    source: SourcePoint
    sink_stmt: StmtId
    sink_spec: SinkSpec
    party: Party
    path: tuple[StmtId, ...]
    path_len: int
    alt_third_party_path: bool = False


def build_graph(
    bundle: AppBundle, sources: list[SourcePoint], registry: SinkRegistry
) -> TaintGraph:
    """Construct the taint graph for a bundle.

    Edge rules, all flow-insensitive:
      assignments and casts copy operand to destination (constants add no
      edge); field reads and writes go through the cell of the field's
      declaration, so a field named through a subclass is its superclass's;
      calls resolved in the bundle bind arguments to parameters, the receiver
      to the callee's `this`, and return atoms to the call result; calls that
      leave the bundle get a conservative summary (arguments and receiver
      taint the result, and arguments taint the receiver).
    """
    adjacency: dict[int, set[tuple[int, StmtId]]] = {}
    sink_feeds: dict[int, set[tuple[StmtId, int]]] = {}
    # node ids in build order, keyed by a register's (class, method token,
    # name) or by a field's FieldSig (class, type, name); the two never
    # collide, because a method token contains "(" and a type never does
    ids: dict[tuple[str, str, str], int] = {}
    cells: dict[FieldSig, int] = {}  # a field signature as written -> its cell's node
    returns = {}  # callee (class, method token) -> its statements that return a register

    def node(key) -> int:
        return ids.setdefault(key, len(ids))

    def cell(f: FieldSig) -> int:
        n = cells.get(f)
        if n is None:
            n = cells[f] = node(_declaration(f, bundle))
        return n

    def add_edge(src: int, dst: int, label: StmtId):
        adjacency.setdefault(src, set()).add((dst, label))

    for (cls, mtok), method in bundle.methods.items():

        def reg(atom):
            """The node of a register atom of this method, or None for a constant."""
            return ids.setdefault((cls, mtok, atom), len(ids)) if type(atom) is str else None

        # dispatch on the exact type and unpack: class patterns, which test
        # each case in turn, cost about four times as much per statement
        for stmt in method.statements:
            kind = type(stmt)
            if kind is AssignAtom:
                sid, d, a = stmt
                if (n := reg(a)) is not None:
                    add_edge(n, reg(d), sid)
            elif kind is AssignCast:
                sid, d, _, s = stmt
                add_edge(reg(s), reg(d), sid)
            elif kind is FieldRead:
                sid, d, f, _ = stmt
                add_edge(cell(f), reg(d), sid)
            elif kind is FieldWrite:
                sid, f, _, v = stmt
                if (n := reg(v)) is not None:
                    add_edge(n, cell(f), sid)
            elif kind is InvokeStmt:
                sid, _, _, recv, sig, args = stmt
                callee = resolve_call(stmt, bundle)
                if callee is not None:
                    _add_call_edges(stmt, callee, returns, reg, node, add_edge)
                else:
                    _add_opaque_edges(stmt, reg, add_edge)
                if sink_ids := registry.match(sig):
                    operands = (recv, *args)
                    for i in sink_ids:
                        for pos in registry.specs[i].positions:
                            if (n := reg(operands[pos])) is not None:
                                sink_feeds.setdefault(n, set()).add((sid, i))
            # a ReturnStmt contributes edges only at resolved call sites

    seeds = {
        sp: node((sp.stmt.cls, sp.stmt.method, sp.result_reg))
        for sp in sources
        if sp.result_reg is not None
    }
    return TaintGraph(bundle, adjacency, seeds, sink_feeds, registry.specs)


def _declaration(f: FieldSig, bundle: AppBundle) -> FieldSig:
    """The signature of the field f names in the first class up f's
    superclass chain that declares a field of f's type and name, or f itself
    when none does."""
    for unit in superclass_chain(bundle, f.declaring_class):
        declared = FieldSig(unit.class_name, f.type, f.name)
        if declared in unit.fields:
            return declared
    return f


def _add_call_edges(call: InvokeStmt, callee: MethodBody, returns, reg, node, add_edge):
    sid, result, _, recv, _, args = call
    ccls = callee.sig.declaring_class
    cmtok = method_token(callee.sig)
    for i, arg in enumerate(args):
        if (n := reg(arg)) is not None:
            add_edge(n, node((ccls, cmtok, callee.params[i])), sid)
    if recv is not None and not callee.is_static:
        add_edge(reg(recv), node((ccls, cmtok, "this")), sid)
    if result is not None:
        rets = returns.get((ccls, cmtok))
        if rets is None:  # a callee's body is scanned once, at its first call
            rets = returns[ccls, cmtok] = [
                s for s in callee.statements if type(s) is ReturnStmt and type(s.value) is str
            ]
        for s in rets:
            # the return statement labels the edge so cross-class hops
            # surface in the witness path
            add_edge(node((ccls, cmtok, s.value)), reg(result), s.sid)


def _add_opaque_edges(call: InvokeStmt, reg, add_edge):
    # only registers that gain an edge get an id, so the ids stay dense
    sid, result, _, recv, _, args = call
    args = [a for a in args if type(a) is str]
    if result is not None:
        for a in args if recv is None else [*args, recv]:
            add_edge(reg(a), reg(result), sid)
    if recv is not None:
        for a in args:
            add_edge(reg(a), reg(recv), sid)


def package_of(class_name: str) -> str:
    return class_name.rsplit(".", 1)[0] if "." in class_name else ""


def _org_prefix(app_package: str) -> str:
    return ".".join(app_package.split(".")[:2])


def _pkg_matches(pkg: str, prefix: str) -> bool:
    return pkg == prefix or pkg.startswith(prefix + ".")


def classify_package(pkg: str, app_package: str) -> str:
    """Classify a package as "platform", "first" or "third" party.

    First party is the app's org prefix, the first two segments of
    app_package, and every package under it, app_package among them.
    """
    for prefix in PLATFORM_PACKAGE_PREFIXES:
        if _pkg_matches(pkg, prefix):
            return "platform"
    if _pkg_matches(pkg, _org_prefix(app_package)):
        return "first"
    return "third"


def _third_party_classes(class_names, app_package: str) -> frozenset[str]:
    return frozenset(
        c for c in class_names if classify_package(package_of(c), app_package) == "third"
    )


def extract_leaks(graph: TaintGraph) -> list[Leak]:
    """All (source, sink statement, sink spec) leaks with shortest witness paths.

    For each pair exactly one leak is reported; among equal-length shortest
    paths the lexicographically smallest statement-id sequence is retained.
    Output is sorted by (source stmt, sink stmt, category, signature).

    One search per source runs over states (node, crossed), where crossed
    turns true on the first edge labeled by a statement of a third-party
    class. It appends groups of states that share one path in (length, path)
    order: a group takes its successors in label order, the new states that
    one label reaches form one group (a statement can label several edges),
    and a state joins the first group that reaches it. So a sink key's first
    hit is its witness, whose path is rebuilt from (parent group, label).

    A leak is third party iff its source, its sink or an edge label sits in
    a third-party class (the winning group's crossed bit); only the
    enclosing class of each statement counts, never the platform signature a
    sink call invokes. A first-party leak is flagged alt_third_party_path iff
    a crossed group holds a feed node of its key: some path from the source
    to the sink takes an edge labeled by a third-party statement.
    """
    bundle = graph.bundle
    third = _third_party_classes(bundle.code_units, bundle.app_package)
    adjacency, sink_feeds = graph.adjacency, graph.sink_feeds
    keyed = []  # (sort key, leak)
    for sp, seed in graph.seeds.items():
        # group g: the nodes of states (node, crossed[g]) whose path is group
        # parent[g]'s plus label[g]; group 0 is the seed, labeled by the source
        parent, label, crossed, groups = [-1], [sp.stmt], [False], [[seed]]
        seen = ({seed}, set())  # nodes in a group, per crossed bit
        hits: dict[tuple[StmtId, int], int] = {}  # sink key -> its first group
        crossing = set()  # sink keys that a crossed group feeds
        for g, nodes in enumerate(groups):  # grows while it is read
            c = crossed[g]
            edges = []
            for node in nodes:
                for key in sink_feeds.get(node, ()):
                    hits.setdefault(key, g)
                    if c:
                        crossing.add(key)
                edges += adjacency.get(node, ())
            if len(edges) > 1:  # most groups have one edge or none
                edges.sort(key=itemgetter(1))
            last = None
            for succ, lab in edges:
                if lab != last:
                    last, fresh = lab, None
                    cc = c or lab.cls in third
                    done = seen[cc]
                if succ not in done:
                    done.add(succ)
                    if fresh is None:
                        fresh = []
                        parent.append(g)
                        label.append(lab)
                        crossed.append(cc)
                        groups.append(fresh)
                    fresh.append(succ)
        source_third = sp.stmt.cls in third
        for key, g in hits.items():
            sink_sid, index = key
            party = Party.THIRD if crossed[g] or source_third or sink_sid.cls in third else Party.FIRST
            path = [sink_sid]
            while g >= 0:
                path.append(label[g])
                g = parent[g]
            path.reverse()
            spec = graph.sink_specs[index]
            leak = Leak(
                sp, sink_sid, spec, party, tuple(path), len(path) - 1,
                party is Party.FIRST and key in crossing,
            )
            keyed.append(((sp.stmt, sink_sid, spec.category, spec.signature), leak))
    keyed.sort(key=itemgetter(0))
    return [leak for _, leak in keyed]
