"""GUI element extraction from layout XML files.

Walks layout documents in document order, keeps the elements that can accept
user input according to a widget registry, and joins their id names against
the bundle's resource-id table.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

from .errors import WidgetSyntaxError
from .ir import LayoutDoc
from .lines import config_lines


# A dataclass, where the rest of the model is NamedTuples: bench/tracing.py
# labels views with dataclasses.replace. The program builds each view with
# ViewElement(...), which costs half as much.
@dataclass(frozen=True)
class ViewElement:
    """One input-capable element of a layout file."""

    view_class: str
    id_name: str | None
    numeric_id: int | None
    hint: str | None
    text: str | None
    layout_file: str
    pi: str | None = None  # one of pi.KINDS once classified


class WidgetRegistry(NamedTuple):
    """The view classes that accept user input."""

    input_capable: frozenset[str]

    def is_input(self, tag: str) -> bool:
        # dotted tags are custom views; assume they accept input
        return tag in self.input_capable or "." in tag


@functools.cache
def load_widget_registry(path) -> WidgetRegistry:
    """Load a registry file, or the built-in one for None: `input:Name` lines.

    `container:Name` lines are accepted and ignored; the layout walker
    descends into every tag whatever the registry says. Memoised by path,
    so a process parses each file once and its callers share the result;
    a load that raises is not cached.
    """
    inputs = set()
    for where, line in config_lines(path, "widgets.txt", WidgetSyntaxError):
        kind, sep, name = line.partition(":")
        name = name.strip()
        kind = kind.strip()
        if not sep or not name or " " in name:
            raise WidgetSyntaxError(f"{where}: expected 'input:Name' or 'container:Name'")
        if kind == "input":
            inputs.add(name)
        elif kind != "container":
            raise WidgetSyntaxError(f"{where}: unknown widget kind {kind!r}")
    return WidgetRegistry(frozenset(inputs))


def default_widget_registry() -> WidgetRegistry:
    return load_widget_registry(None)


def _local_name(qualified: str) -> str:
    """Strip an ElementTree `{namespace}` prefix."""
    return qualified.rsplit("}", 1)[-1]


def _attr(element, wanted: str) -> str | None:
    """Fetch an attribute by local name, whatever its namespace prefix."""
    for key, value in element.attrib.items():
        if _local_name(key) == wanted:
            return value
    return None


def _clean_id(value: str) -> str:
    for prefix in ("@+id/", "@id/"):
        if value.startswith(prefix):
            return value[len(prefix):]
    return value


def extract_views(layout: LayoutDoc, registry: WidgetRegistry) -> list[ViewElement]:
    """Collect input-capable view elements from one layout, in document order.

    Container and unknown tags are traversed but not emitted; dotted tags are
    treated as custom views and always emitted.
    """
    views = []
    for element in layout.root.iter():
        if not isinstance(element.tag, str):
            continue
        tag = _local_name(element.tag)
        if not registry.is_input(tag):
            continue
        raw_id = _attr(element, "id")
        views.append(
            ViewElement(
                view_class=tag,
                id_name=_clean_id(raw_id) if raw_id is not None else None,
                numeric_id=None,
                hint=_attr(element, "hint"),
                text=_attr(element, "text"),
                layout_file=layout.file,
            )
        )
    return views


def join_rtable(views: list[ViewElement], rtable: dict) -> tuple[list[ViewElement], list[str]]:
    """Fill numeric ids from the resource table, id name -> integer id.

    Returns the same-length view list plus one warning string per view whose
    id name has no table entry.
    """
    joined = []
    warnings = []
    for v in views:
        if v.id_name is None:
            joined.append(v)
            continue
        num = rtable.get(v.id_name)
        if num is None:
            warnings.append(v.id_name)
            joined.append(v)
        else:
            joined.append(
                ViewElement(v.view_class, v.id_name, num, v.hint, v.text, v.layout_file, v.pi)
            )
    return joined, warnings
