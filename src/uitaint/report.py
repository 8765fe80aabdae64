"""Per-app reports and corpus-level aggregation.

Reports are JSON documents with sorted keys so that the same analysis always
produces the same bytes. The analysis timestamp honors SOURCE_DATE_EPOCH so
whole corpus runs can be reproduced bit for bit.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import time
from collections import Counter
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import BadEnvironment, EmptyCorpus, ReportError
from .pi import CATEGORY_OF, DESTINATIONS, KIND_ORDER, KINDS, PI_GROUPS

if TYPE_CHECKING:  # aggregate, explain and the writers run without the analyzer
    from collections.abc import Iterable

    from .gui import ViewElement
    from .ir import AppBundle, StmtId
    from .sources_sinks import SourceDiagnostics
    from .taint import Leak

SCHEMA_VERSION = 1

_PARTIES = ("first", "third")

# what aggregate and explain read from each leak and view of a report file
_ITEM_CHECKS = {
    "leaks": {
        "party": _PARTIES.__contains__,
        "destination": DESTINATIONS.__contains__,
        "pi_kind": KINDS.__contains__,
        "path_text": lambda x: isinstance(x, list) and len(x) > 0,
    },
    "views": {"pi_kind": KINDS.__contains__, "view_class": lambda x: isinstance(x, str)},
}


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        # as `date +%s` prints it; int() would also take "+5", " 5", "1_000"
        # and non-ASCII digits such as "٣"
        if epoch is not None and not re.fullmatch("-?[0-9]+", epoch):
            raise ValueError("not ASCII digits with an optional leading '-'")
        stamp = time.gmtime(int(epoch) if epoch is not None else int(time.time()))
    except (ValueError, OverflowError, OSError) as exc:
        raise BadEnvironment(f"SOURCE_DATE_EPOCH={epoch!r}: {exc}") from exc
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", stamp)


def _view_doc(v: ViewElement):
    doc = {
        "layout_file": v.layout_file,
        "view_class": v.view_class,
        "id_name": v.id_name,
        "numeric_id": v.numeric_id,
        "hint": v.hint,
        "text": v.text,
    }
    if v.pi is not None:
        doc["pi_kind"] = v.pi
        doc["pi_category"] = CATEGORY_OF[v.pi]
    return doc


def emit_report(
    bundle: AppBundle,
    views: list[ViewElement],
    leaks: list[Leak],
    diagnostics: SourceDiagnostics,
    unmatched_ids: list[str],
) -> dict:
    """Build the per-app report document (plain dict, JSON-serializable).

    The document shares sub-objects: the path steps of every leak use one
    ``[cls, method, ordinal]`` list and one rendered text per statement, and
    the leaks of one source statement, or of one (sink statement,
    signature), share one ``source`` or ``sink`` dict: two equal ``sink``
    dicts are always one object. Treat the document as read-only; an edit
    to one leak's path step or source would show in every leak that shares
    it.
    A ``source``/``sink`` dict has a statement list and view dict of its
    own: shared with the path and ``views`` as well, each would be written
    exactly twice, and the writer's memo of them costs more memory than it
    saves time.
    """
    # imported here, so report readers load no analyzer
    from .ir import render_statement
    from .taint import Party

    labeled = [v for v in views if v.pi is not None]
    steps: dict[StmtId, tuple[list, str]] = {}  # one step and text per statement
    sources: dict[StmtId, dict] = {}  # one source dict per statement
    # one sink dict per (sink statement, signature), also where a signature
    # is registered in two categories
    sinks: dict[tuple[StmtId, str], dict] = {}
    third, parties = Party.THIRD, (Party.FIRST.value, Party.THIRD.value)
    leak_docs = []
    for lk in leaks:
        sp, spec = lk.source, lk.sink_spec
        source = sources.get(sp.stmt)
        if source is None:
            source = sources[sp.stmt] = {"stmt": list(sp.stmt), "view": _view_doc(sp.view)}
        sink = sinks.get(key := (lk.sink_stmt, spec.signature))
        if sink is None:
            sink = sinks[key] = {"stmt": list(lk.sink_stmt), "signature": spec.signature}
        path, path_text = [], []
        for s in lk.path:
            step_text = steps.get(s)
            if step_text is None:
                step_text = steps[s] = (list(s), render_statement(bundle.statement(s)))
            step, text = step_text
            path.append(step)
            path_text.append(text)
        leak_docs.append({
            "pi_kind": sp.view.pi,
            "pi_category": CATEGORY_OF[sp.view.pi],
            "party": parties[lk.party is third],
            "destination": spec.category,
            "source": source,
            "sink": sink,
            "path": path,
            "path_text": path_text,
            "path_len": lk.path_len,
            "alt_third_party_path": lk.alt_third_party_path,
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "app_package": bundle.app_package,
        "analyzed_at": _timestamp(),
        "views_total": len(views),
        "views_labeled": len(labeled),
        "views": [_view_doc(v) for v in labeled],
        "leaks": leak_docs,
        "diagnostics": {
            "findviewbyid_sites": diagnostics.sites,
            "sources_resolved": diagnostics.resolved,
            "unlabeled_id_skips": diagnostics.unlabeled_id_skips,
            "unresolved_arg_skips": diagnostics.unresolved_arg_skips,
            "unmatched_rtable_ids": list(unmatched_ids),
            "first_party_leaks_with_third_party_alternative": sum(
                1 for lk in leaks if lk.alt_third_party_path
            ),
        },
    }


_INF = float("inf")


def _float(o: float) -> str:
    if o != o:
        return "NaN"
    if o == _INF:
        return "Infinity"
    if o == -_INF:
        return "-Infinity"
    return float.__repr__(o)


# each JSON scalar type and how json.dumps writes it; all but float in C
_SCALARS = {
    str: json.encoder.encode_basestring_ascii,
    int: int.__repr__,
    float: _float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _dict_layout(shape: tuple, sep: str, close: str) -> tuple:
    """(getter of the values in sorted key order, the text before the first
    value, the text after each value) of a dict whose keys in insertion
    order are shape."""
    keys = sorted(shape)
    # itemgetter of one key returns the value, not a 1-tuple
    get = itemgetter(*keys) if len(keys) > 1 else lambda d, k=keys[0]: (d[k],)
    texts = [sep + _SCALARS[str](k) + ": " for k in keys]
    return get, "{" + texts[0][1:], (*texts[1:], close)


def serialize_report(doc: dict) -> str:
    """Exactly ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"`` for a
    document with string keys, written without the pure-Python encoder.

    Each dict shape (its keys in insertion order) is laid out once per
    depth and call: its sorted keys, each key's ``"key": `` text with
    the separator and indentation before it, and an itemgetter of its
    values in that order. A dict's text is one join of its layout's texts
    and its values' texts, where a non-empty list value gives its
    brackets, separators and items' texts, not a text of its own: the
    report's leaks are not joined into a second report-sized text first,
    nor each leak's path into a text that its leak then copies. A list's
    text is one join of its items' texts on the separator, with the
    brackets fixed onto the first and last. A dict or list item reached
    again at the same depth (emit_report shares path statements, sources
    and sinks) is rendered once per call: its text is memoised from the
    second time it is reached, so one that appears once costs a memo entry
    and no text. The document's closing bracket ends in the final newline.
    The document must not change while it is written. A value json cannot
    write raises TypeError. The per-call state is an argument of
    module-level functions, not a closure's, so a call leaves no reference
    cycle and its memos die when it returns.
    """
    if isinstance(doc, (dict, list, tuple)) and doc:
        return _render(doc, 0, [])
    write = _SCALARS.get(type(doc))
    return (_render(doc, 0, []) if write is None else write(doc)) + "\n"


def _level(depth: int) -> tuple:
    """The memo of containers by id, the dict layouts by shape, the
    separator, the dict closer and the list closer at depth; the
    document's closers end in its final newline."""
    close = "\n" + "  " * depth
    end = "" if depth else "\n"
    return {}, {}, "," + close + "  ", close + "}" + end, close + "]" + end


def _render(o, depth: int, levels: list) -> str:
    """The text of o, any value but a str, int, float, bool or None, at
    depth; levels holds each depth's _level."""
    while len(levels) < depth + 3:  # up to the grandchildren's level
        levels.append(_level(len(levels)))
    memo, layouts, sep, dict_close, list_close = levels[depth]
    child = depth + 1
    child_memo = levels[child][0]
    scalar = _SCALARS.get
    if isinstance(o, dict):
        if not o:
            return "{}"
        shape = tuple(o)
        layout = layouts.get(shape)
        if layout is None:
            layout = layouts[shape] = _dict_layout(shape, sep, dict_close)
        get, head, tails = layout
        _, _, item_sep, _, items_close = levels[child]
        item_memo = levels[child + 1][0]
        out = [head]
        for v, tail in zip(get(o), tails):
            write = scalar(type(v))
            if write is not None:
                out.append(write(v))
            elif not (isinstance(v, (list, tuple)) and v):
                out.append(child_memo.get(id(v)) or _render(v, child, levels))
            else:  # the list's items, inline and never memoised
                out.append("[" + item_sep[1:])
                for item in v:
                    write = scalar(type(item))
                    if write is not None:
                        out += write(item), item_sep
                    else:
                        out += item_memo.get(id(item)) or _render(item, child + 1, levels), item_sep
                out[-1] = items_close
            out.append(tail)
        text = "".join(out)
    elif isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        texts = []
        append = texts.append
        for v in o:
            write = scalar(type(v))
            if write is not None:
                append(write(v))
            else:
                append(child_memo.get(id(v)) or _render(v, child, levels))
        texts[0] = "[" + sep[1:] + texts[0]
        texts[-1] += list_close
        text = sep.join(texts)
    else:  # a subclass of str, int or float, as json takes them
        base = next((t for t in (str, int, float) if isinstance(o, t)), None)
        if base is None:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        return _SCALARS[base](o)
    key = id(o)
    memo[key] = text if key in memo else ""  # "": reached once, no text kept
    return text


_SLICE = 1 << 16  # characters per write


def write_slices(fh, text: str) -> None:
    """Write text to the text-mode file fh a slice at a time, so only one
    slice is ever encoded at once, not a bytes copy of the whole text."""
    for start in range(0, len(text), _SLICE):
        fh.write(text[start:start + _SLICE])


def write_atomic(path, text: str) -> None:
    """Write text to path as UTF-8 through a temp file in the same directory
    and a rename, so a failed write leaves whatever was at path untouched.

    The temp name ends in .tmp, so aggregate's *.json glob never reads one.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            write_slices(fh, text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def parse_report(path) -> dict:
    """Read a report file; ReportError unless aggregate and explain can read it."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
        raise ReportError(f"{path}: not a UTF-8 JSON file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ReportError(f"{path}: not a JSON object")
    if (version := doc.get("schema_version")) != SCHEMA_VERSION:
        raise ReportError(f"{path}: schema_version {version!r}, expected {SCHEMA_VERSION}")
    for section, checks in _ITEM_CHECKS.items():
        items = doc.get(section)
        if not isinstance(items, list):
            raise ReportError(f"{path}: {section!r} is missing or not a list")
        for i, item in enumerate(items):
            if not isinstance(item, dict):
                raise ReportError(f"{path}: {section}[{i}] is not an object")
            for key, valid in checks.items():
                if not valid(item.get(key)):
                    raise ReportError(
                        f"{path}: {section}[{i}] has a missing or bad {key!r}: {item.get(key)!r}"
                    )
    return doc


# ---------------------------------------------------------------------------
# aggregation and CSV export

_STATS = ("median", "average", "max")  # of one party's leak counts per app
_LEAK_PARTIES = (*_PARTIES, "total")

# each summary table's columns, in CSV order; aggregate builds its rows from them
_COLUMNS = {
    "leak_stats": ("basis", "party", *_STATS),
    "destinations": ("destination", "leaks", "pct_of_leaks", *_PARTIES),
    "pi_by_destination": ("pi", *DESTINATIONS, "total"),
    "prevalence": ("pi", "apps_collecting", "fraction"),
    "view_types": ("view_class", "views", "share", "top_pi"),
}
# each float column's decimal places: aggregate rounds to them, export_csv prints them
_PLACES = {"average": 2, "pct_of_leaks": 2, "fraction": 4, "share": 4}


def _row(columns: tuple, values) -> dict:
    """The row of columns holding values, each float column rounded to its places."""
    return {c: round(v, _PLACES[c]) if c in _PLACES else v for c, v in zip(columns, values)}


def aggregate(reports: Iterable[dict]) -> dict:
    """Fold per-app reports into the corpus summary document.

    reports is read once, and only counts are kept: each app's first-,
    third-party and total leak counts, and counters keyed by table cell.
    No part of a report outlives its fold, so an iterable that parses
    reports as it goes holds one at a time.
    Leak-count stats use the lower median and are computed twice: over all
    apps and over apps with at least one leak (None cells when no app
    leaks). The per-PI destination table counts each app at most once per
    (PI, destination) cell; the destination table counts every leak.
    """
    apps = []  # (first, third, total) leaks of each app
    dest_party = Counter()  # (destination, party) -> leaks
    pi_dest = Counter()  # (PI kind, destination) -> apps with such a leak
    groups = Counter()  # PI group -> apps with a labeled view of a kind in it
    view_kinds = Counter()  # (view class, PI kind) -> labeled views
    for leaks, views in map(itemgetter("leaks", "views"), reports):
        dest_party.update((leak["destination"], leak["party"]) for leak in leaks)
        first = sum(leak["party"] == "first" for leak in leaks)
        apps.append((first, len(leaks) - first, len(leaks)))
        pi_dest.update({(leak["pi_kind"], leak["destination"]) for leak in leaks})
        kinds = {view["pi_kind"] for view in views}
        groups.update(name for name, group in PI_GROUPS if not kinds.isdisjoint(group))
        view_kinds.update((view["view_class"], view["pi_kind"]) for view in views)
        del leaks, views  # before the next report is read
    if not apps:
        raise EmptyCorpus("no reports to aggregate")
    total_leaks = dest_party.total()

    leak_stats = {}
    for basis, rows in (("all_apps", apps), ("leaking_apps", [a for a in apps if a[2]])):
        stats = leak_stats[basis] = {"apps": len(rows), **dict.fromkeys(_LEAK_PARTIES)}
        for party, counts in zip(_LEAK_PARTIES, map(sorted, zip(*rows))):
            median = counts[(len(counts) - 1) // 2]  # the lower one, not interpolated
            stats[party] = _row(_STATS, (median, sum(counts) / len(counts), counts[-1]))

    destinations = []
    for dest in DESTINATIONS:
        first, third = (dest_party[dest, party] for party in _PARTIES)
        leaks = first + third
        pct = 100.0 * leaks / total_leaks if total_leaks else 0.0
        destinations.append(_row(_COLUMNS["destinations"], (dest, leaks, pct, first, third)))

    pi_by_destination = []
    for kind in KINDS:
        cells = [pi_dest[kind, dest] for dest in DESTINATIONS]
        pi_by_destination.append(_row(_COLUMNS["pi_by_destination"], (kind, *cells, sum(cells))))

    prevalence = [
        _row(_COLUMNS["prevalence"], (name, groups[name], groups[name] / len(apps)))
        for name, _ in PI_GROUPS
    ]

    class_views, top = Counter(), {}  # per view class: labeled views, "kind:n" texts
    by_count = sorted(view_kinds.items(), key=lambda kv: (-kv[1], KIND_ORDER[kv[0][1]]))
    for (view_class, kind), n in by_count:
        class_views[view_class] += n
        top.setdefault(view_class, []).append(f"{kind}:{n}")
    labeled = class_views.total()
    view_types = [
        _row(_COLUMNS["view_types"], (view_class, n, n / labeled, ";".join(top[view_class][:3])))
        for view_class, n in sorted(class_views.items(), key=lambda kv: (-kv[1], kv[0]))
    ]

    return {
        "schema_version": SCHEMA_VERSION,
        "n_apps": len(apps),
        "total_leaks": total_leaks,
        "leak_stats": leak_stats,
        "destinations": destinations,
        "pi_by_destination": pi_by_destination,
        "prevalence": prevalence,
        "view_types": view_types,
    }


def write_summary(summary: dict, path) -> None:
    write_atomic(path, serialize_report(summary))


def export_csv(summary: dict, out_dir) -> list[Path]:
    """Write one CSV per summary table into out_dir; returns the paths written.

    leak_stats has a row per (basis, party), its cells empty where no app
    leaks, and pi_by_destination ends in a row of column totals.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stats, pi_rows = summary["leak_stats"], summary["pi_by_destination"]
    pi_columns = _COLUMNS["pi_by_destination"]
    totals = ("total", *(sum(row[c] for row in pi_rows) for c in pi_columns[1:]))
    tables = dict(
        summary,
        leak_stats=[
            dict(zip(_COLUMNS["leak_stats"], (basis, party)),
                 **(stats[basis][party] or dict.fromkeys(_STATS, "")))
            for basis in stats for party in _LEAK_PARTIES
        ],
        pi_by_destination=[*pi_rows, dict(zip(pi_columns, totals))],
    )
    written = []
    for name, columns in _COLUMNS.items():
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in tables[name]:
            values = (row[c] for c in columns)
            writer.writerow(
                f"{v:.{_PLACES[c]}f}" if isinstance(v, float) else v
                for c, v in zip(columns, values)
            )
        written.append(out_dir / f"{name}.csv")
        write_atomic(written[-1], buf.getvalue())
    return written
