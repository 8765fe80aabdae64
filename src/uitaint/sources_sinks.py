"""Taint sources and sinks.

Sources are findViewById call sites whose integer argument resolves to a
PI-labeled view. Sinks come from a registry of exact method signatures, each
assigned a destination category and the argument/receiver positions that
leak when tainted.
"""

from __future__ import annotations

import functools
import re
from typing import NamedTuple

from .errors import BadPosition, IrSyntaxError, SinkSyntaxError
from .gui import ViewElement
from .ir import (
    AppBundle,
    AssignAtom,
    FieldRead,
    InvokeExpr,
    InvokeStmt,
    MethodSig,
    StmtId,
    parse_method_sig,
)
from .lines import config_lines
from .pi import DESTINATIONS


class SinkSpec(NamedTuple):
    """One sink signature with its destination and tainted positions.

    positions are ascending offsets into a call's (receiver, *args): 0 is
    the receiver and i + 1 is argument i, resolved from the registry file's
    `recv`, `argN` and `*` at load time. signature is sig's text in the
    registry file, which parse_method_sig accepts only as the renderer
    spells it.
    """

    category: str  # one of pi.DESTINATIONS
    sig: MethodSig
    positions: tuple[int, ...]
    signature: str


class SinkRegistry(NamedTuple):
    """The sink specs and their lookup by signature."""

    specs: tuple[SinkSpec, ...]
    # (class, name, parameter types) -> the indexes in specs of its specs;
    # the key ignores the return type: dispatch never depends on it and
    # decompilers disagree about covariant returns
    index: dict[tuple, tuple[int, ...]]

    def match(self, sig: MethodSig) -> tuple[int, ...]:
        return self.index.get((sig.declaring_class, sig.name, sig.param_types), ())


def _parse_positions(raw: str, arity: int, where: str) -> tuple[int, ...]:
    raw = raw.strip()
    if raw == "*":
        return tuple(range(arity + 1))
    if not raw:
        raise SinkSyntaxError(f"{where}: empty position list")
    positions = set()
    for token in raw.split(","):
        token = token.strip()
        if token == "recv":
            positions.add(0)
        elif m := re.fullmatch(r"arg([0-9]+)", token):
            try:
                index = int(m[1])
            except ValueError:  # more digits than int() converts
                index = arity
            if index >= arity:
                raise BadPosition(f"{where}: {token} out of range for arity {arity}")
            positions.add(index + 1)
        else:
            raise BadPosition(f"{where}: bad position {token!r}")
    return tuple(sorted(positions))


@functools.cache
def load_sinks(path) -> SinkRegistry:
    """Load `<category>\\t<signature>\\t<positions>` lines from path, or the
    built-in file for None, into a registry. Memoised by path, like
    `gui.load_widget_registry`."""
    specs = []
    index = {}
    seen = set()
    for where, line in config_lines(path, "sinks.tsv", SinkSyntaxError):
        parts = line.split("\t")
        if len(parts) != 3:
            raise SinkSyntaxError(f"{where}: expected '<category>\\t<signature>\\t<positions>'")
        category, sig_text, pos_text = (p.strip() for p in parts)
        if category not in DESTINATIONS:
            raise SinkSyntaxError(f"{where}: unknown category {category!r}")
        try:
            sig = parse_method_sig(sig_text)
        except IrSyntaxError as e:
            raise SinkSyntaxError(f"{where}: {e.message}")
        # match ignores the return type, so a duplicate does too
        key = (sig.declaring_class, sig.name, sig.param_types)
        if (key, category) in seen:
            raise SinkSyntaxError(f"{where}: duplicate sink {sig_text}")
        seen.add((key, category))
        positions = _parse_positions(pos_text, len(sig.param_types), where)
        index[key] = index.get(key, ()) + (len(specs),)
        specs.append(SinkSpec(category, sig, positions, sig_text))
    return SinkRegistry(tuple(specs), index)


def load_default_sinks() -> SinkRegistry:
    return load_sinks(None)


class SourcePoint(NamedTuple):
    """A findViewById call site resolved to a labeled view."""

    stmt: StmtId
    view: ViewElement  # its pi is the source's kind
    result_reg: str | None


class SourceDiagnostics:
    __slots__ = ("sites", "resolved", "unlabeled_id_skips", "unresolved_arg_skips")

    def __init__(self):
        self.sites = self.resolved = self.unlabeled_id_skips = self.unresolved_arg_skips = 0


def _is_find_view_by_id(expr: InvokeExpr) -> bool:
    # matched by name and arity on any receiver class: decompiled bundles
    # call it through Activity, View, Dialog and arbitrary subclasses
    return expr.sig.name == "findViewById" and expr.sig.param_types == ("int",)


def _register_constants(body, rtable) -> dict[str, set]:
    """Register name -> every integer constant assigned to it anywhere in body.

    A static read of an R$id field counts through the resource table; a read
    of a name the table lacks adds None, which poisons the register.
    """
    found = {}
    for s in body.statements:
        kind = type(s)
        if kind is AssignAtom and type(s.src) is int:
            value = s.src
        elif kind is FieldRead and s.base is None and s.fld.simple_class_name == "R$id":
            value = rtable.get(s.fld.name)
        else:
            continue
        found.setdefault(s.dst, set()).add(value)
    return found


def _find_view_sites(body, rtable):
    """Yield (statement, resolved id or None) for each findViewById call site
    of body, in order.

    A constant argument is its id. A register argument resolves when body
    gives it one constant and no poison; one pass over body, at its first
    register-argument site, collects the constants of every register.
    """
    constants = None
    for stmt in body.statements:
        if type(stmt) is not InvokeStmt or not _is_find_view_by_id(stmt.expr):
            continue
        arg = stmt.expr.args[0]
        if type(arg) is int:
            yield stmt, arg
        elif type(arg) is str:
            if constants is None:
                constants = _register_constants(body, rtable)
            values = constants.get(arg, ())
            yield stmt, next(iter(values)) if len(values) == 1 else None
        else:
            yield stmt, None


def resolve_sources(
    bundle: AppBundle, labeled_views: list[ViewElement]
) -> tuple[list[SourcePoint], SourceDiagnostics]:
    """Find findViewById call sites that fetch a PI-labeled view.

    Every call site is accounted for exactly once in the diagnostics:
    sites == resolved + unlabeled_id_skips + unresolved_arg_skips.
    """
    by_id: dict[int, ViewElement] = {}
    for v in labeled_views:
        if v.pi is None or v.numeric_id is None:
            continue
        by_id.setdefault(v.numeric_id, v)

    sources = []
    diag = SourceDiagnostics()
    for method in bundle.methods.values():
        for stmt, value in _find_view_sites(method, bundle.rtable):
            diag.sites += 1
            if value is None:
                diag.unresolved_arg_skips += 1
                continue
            view = by_id.get(value)
            if view is None:
                diag.unlabeled_id_skips += 1
                continue
            diag.resolved += 1
            sources.append(SourcePoint(stmt.sid, view, stmt.result))
    return sources, diag
