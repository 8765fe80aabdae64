"""Layout extraction tests: widget filtering, id/hint/text capture, rtable join."""

from __future__ import annotations

import dataclasses
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given
from hypothesis import strategies as st

from uitaint import pipeline
from uitaint.errors import WidgetSyntaxError
from uitaint.fixtures import FixtureSpec, generate
from uitaint.gui import (
    ViewElement,
    default_widget_registry,
    extract_views,
    join_rtable,
    load_widget_registry,
)
from uitaint.ir import LayoutDoc, parse_bundle
from uitaint.pi import classify
from uitaint.pipeline import load_config
from conftest import DATA

ANDROID = "http://schemas.android.com/apk/res/android"

PROFILE = f"""\
<?xml version="1.0" encoding="utf-8"?>
<LinearLayout xmlns:android="{ANDROID}" android:orientation="vertical">
  <TextView android:id="@+id/title" android:text="Your profile" />
  <EditText android:id="@+id/weightEditText" android:hint="Weight (kg)" />
  <LinearLayout>
    <Button android:id="@+id/user_birthday_button" android:text="Birthday" />
  </LinearLayout>
  <ProgressBar android:id="@+id/busy" />
</LinearLayout>
"""


def _layout(xml: str, name: str = "profile.xml") -> LayoutDoc:
    return LayoutDoc(name, ET.fromstring(xml))


def test_extracts_inputs_in_document_order():
    views = extract_views(_layout(PROFILE), default_widget_registry())
    assert [(v.view_class, v.id_name) for v in views] == [
        ("EditText", "weightEditText"),
        ("Button", "user_birthday_button"),
    ]
    weight = views[0]
    assert weight.hint == "Weight (kg)"
    assert weight.text is None
    assert weight.layout_file == "profile.xml"
    assert weight.numeric_id is None  # joined later
    assert views[1].text == "Birthday"


def test_matches_naive_walk_oracle():
    """Same answer as a hand-rolled recursive walk over the XML tree."""
    registry = default_widget_registry()
    root = ET.fromstring(PROFILE)

    expected = []

    def walk(el):
        tag = el.tag.rsplit("}", 1)[-1]
        if registry.is_input(tag):
            expected.append(tag)
        for child in el:
            walk(child)

    walk(root)
    got = [v.view_class for v in extract_views(_layout(PROFILE), registry)]
    assert got == expected


def test_dotted_tags_are_custom_input_views():
    xml = """<FrameLayout>
      <com.vendor.widget.FancyInput id="@+id/fancy" />
      <UnknownPlainTag id="@+id/nope" />
    </FrameLayout>"""
    views = extract_views(_layout(xml), default_widget_registry())
    assert [(v.view_class, v.id_name) for v in views] == [
        ("com.vendor.widget.FancyInput", "fancy")
    ]


def test_id_prefixes_are_stripped():
    xml = f"""<LinearLayout xmlns:android="{ANDROID}">
      <EditText android:id="@id/reused" />
      <EditText android:id="plain" />
      <EditText />
    </LinearLayout>"""
    views = extract_views(_layout(xml), default_widget_registry())
    assert [v.id_name for v in views] == ["reused", "plain", None]


def test_attributes_match_by_local_name():
    # a different namespace prefix (or none) still carries id/hint/text
    xml = """<LinearLayout xmlns:app="http://example.com/apk/custom">
      <EditText app:id="@+id/emailField" app:hint="Email" />
      <EditText id="@+id/bare" text="hello" />
    </LinearLayout>"""
    views = extract_views(_layout(xml), default_widget_registry())
    assert [(v.id_name, v.hint, v.text) for v in views] == [
        ("emailField", "Email", None),
        ("bare", None, "hello"),
    ]


def test_registry_file_round_trip(tmp_path):
    p = tmp_path / "widgets.txt"
    p.write_text("# comment\ninput:EditText\ncontainer:LinearLayout\n\ninput:Switch\n")
    reg = load_widget_registry(p)
    assert reg.is_input("EditText") and reg.is_input("Switch")
    assert not reg.is_input("LinearLayout")
    assert not reg.is_input("TextView")


@pytest.mark.parametrize("line", ["EditText", "input:", "widget:EditText", "input:A B"])
def test_registry_file_rejects(tmp_path, line):
    p = tmp_path / "widgets.txt"
    p.write_text(line + "\n")
    with pytest.raises(WidgetSyntaxError):
        load_widget_registry(p)


def test_default_registry_covers_standard_inputs():
    reg = default_widget_registry()
    for tag in ("EditText", "CheckBox", "RadioButton", "Switch", "SeekBar",
                "Spinner", "DatePicker", "Button"):
        assert reg.is_input(tag), tag
    for tag in ("LinearLayout", "FrameLayout", "ScrollView"):
        assert not reg.is_input(tag), tag


# ---------------------------------------------------------------------------
# rtable join


def _view(id_name, **kw):
    args = dict(view_class="EditText", id_name=id_name, numeric_id=None,
                hint=None, text=None, layout_file="a.xml")
    args.update(kw)
    return ViewElement(**args)


def test_join_fills_numeric_ids_and_warns():
    views = [_view("weightEditText"), _view("ghost"), _view(None)]
    joined, warnings = join_rtable(views, {"weightEditText": 0x7F0800E5})
    assert joined[0].numeric_id == 2131230949
    assert joined[1].numeric_id is None
    assert joined[2].numeric_id is None
    assert warnings == ["ghost"]


@given(
    st.lists(
        st.sampled_from(["a", "b", "c", "d", None]).map(_view), max_size=8
    ),
    st.dictionaries(st.sampled_from(["a", "b", "c"]), st.integers(0, 2**31), max_size=3),
)
def test_join_preserves_cardinality_and_order(views, entries):
    joined, warnings = join_rtable(views, entries)
    assert len(joined) == len(views)
    assert [v.id_name for v in joined] == [v.id_name for v in views]
    # every named view either got its table value or was warned about
    for before, after in zip(views, joined):
        if before.id_name is None:
            assert after.numeric_id is None
        elif before.id_name in entries:
            assert after.numeric_id == entries[before.id_name]
        else:
            assert before.id_name in warnings


def test_view_element_stays_a_dataclass():
    # bench/tracing.py labels views with dataclasses.replace
    assert dataclasses.is_dataclass(ViewElement)


def _replace_labeled_views(app):
    """The views of the bundle at app, each joined and labeled with
    dataclasses.replace: the reference for the pipeline's direct builds."""
    widgets, lexicon, _ = load_config()
    bundle = parse_bundle(app)
    views = [v for layout in bundle.layouts for v in extract_views(layout, widgets)]
    joined = []
    for v in views:
        num = None if v.id_name is None else bundle.rtable.get(v.id_name)
        joined.append(v if num is None else dataclasses.replace(v, numeric_id=num))
    return [v if (kind := classify(v, lexicon)) is None else dataclasses.replace(v, pi=kind)
            for v in joined]


def test_pipeline_labels_the_views_that_dataclasses_replace_gives(tmp_path, monkeypatch):
    seen, emit = [], pipeline.emit_report

    def emit_report(bundle, views, *rest):
        seen.append(views)
        return emit(bundle, views, *rest)

    monkeypatch.setattr(pipeline, "emit_report", emit_report)
    apps = [p for p in sorted(DATA.iterdir()) if p.is_dir()]
    apps += [generate(FixtureSpec(seed=seed), tmp_path / str(seed))[0] for seed in (1, 7, 29)]
    for app in apps:
        pipeline.analyze_bundle(app)
        views, expected = seen.pop(), _replace_labeled_views(app)
        assert views == expected and any(v.pi is not None for v in views), app
        assert [type(v) for v in views] == [ViewElement] * len(views)
