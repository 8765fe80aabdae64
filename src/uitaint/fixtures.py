"""Deterministic synthesis of app bundles with planted, annotated leaks.

Each generated bundle carries a ground_truth.tsv listing exactly the leaks the
analyzer must find, one tab-joined PlantedLeak per line: same seed, same bytes.
Planted flows live in isolated classes with single-use registers so the
flow-insensitive engine can neither miss them nor smear taint between them;
decoys are guaranteed non-flows.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .errors import InvalidSpec
from .pi import DESTINATIONS, KINDS

_MAX_SEED = 2**64 - 1

# id-name stem per PI kind; every stem hits the default lexicon.
_ID_STEM = {
    "email": "email",
    "first_name": "firstName",
    "last_name": "lastName",
    "phone": "phone",
    "address": "address",
    "zip": "zip",
    "ssn": "ssn",
    "credit_card": "card",
    "age": "birthday",
    "height": "height",
    "weight": "weight",
    "gender": "gender",
    "medical_history": "surgery",
    "medication": "dosage",
    "blood": "glucose",
    "mental_health": "anxiety",
    "smoke_alcohol": "alcohol",
}

_VIEW_GETTERS = {
    "EditText": "java.lang.String getText()",
    "AutoCompleteTextView": "java.lang.String getText()",
    "CheckBox": "boolean isChecked()",
    "Switch": "boolean isChecked()",
    "RadioButton": "boolean isChecked()",
    "SeekBar": "int getProgress()",
    "Spinner": "java.lang.Object getSelectedItem()",
}
_VIEW_CLASSES = tuple(_VIEW_GETTERS)

_PUT_STRING = (
    "<android.content.SharedPreferences$Editor: "
    "android.content.SharedPreferences$Editor "
    "putString(java.lang.String,java.lang.String)>"
)
_LOG_D = "<android.util.Log: int d(java.lang.String,java.lang.String)>"
_STREAM_WRITE = "<java.io.OutputStream: void write(byte[])>"
_FILE_WRITE = "<java.io.FileWriter: void write(java.lang.String)>"

_SINK_SIG = {
    "localstore": _PUT_STRING,
    "log": _LOG_D,
    "net": _STREAM_WRITE,
    "fileio": _FILE_WRITE,
}

_FLOW_ID_BASE = 0x7F090000
_DECOY_ID_BASE = 0x7F0A0000


@dataclass(frozen=True)
class FixtureSpec:
    """Parameters for one generated bundle."""

    seed: int
    n_sources: int = 5
    pi_mix: dict[str, float] | None = None
    party_mix: float = 0.5
    destination_mix: dict[str, float] | None = None
    n_decoys: int = 3
    chain_len: tuple[int, int] = (1, 3)

    def __post_init__(self):
        # JSON gives bools, floats and strings where ints belong; reject them
        # here rather than let a comparison or range() fail later
        for name in ("seed", "n_sources", "n_decoys"):
            if not _is_int(getattr(self, name)):
                raise InvalidSpec(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not _is_real(self.party_mix):
            raise InvalidSpec(f"party_mix must be a number, got {self.party_mix!r}")
        if not all(_is_int(n) for n in self.chain_len):
            raise InvalidSpec(f"chain_len must be two integers, got {self.chain_len!r}")
        if not 0 <= self.seed <= _MAX_SEED:
            raise InvalidSpec(f"seed out of range: {self.seed}")
        if self.n_sources < 0:
            raise InvalidSpec(f"n_sources must be >= 0, got {self.n_sources}")
        if self.n_decoys < 0:
            raise InvalidSpec(f"n_decoys must be >= 0, got {self.n_decoys}")
        if not 0.0 <= self.party_mix <= 1.0:
            raise InvalidSpec(f"party_mix must be in [0, 1], got {self.party_mix}")
        lo, hi = self.chain_len
        if lo < 1 or hi < lo:
            raise InvalidSpec(f"chain_len must satisfy 1 <= lo <= hi, got {self.chain_len}")
        _check_mix("pi_mix", self.pi_mix, KINDS)
        _check_mix("destination_mix", self.destination_mix, DESTINATIONS)

    @classmethod
    def from_dict(cls, doc: dict) -> FixtureSpec:
        known = {"seed", "n_sources", "pi_mix", "party_mix", "destination_mix",
                 "n_decoys", "chain_len"}
        extra = set(doc) - known
        if extra:
            raise InvalidSpec(f"unknown spec fields: {sorted(extra)}")
        if "seed" not in doc:
            raise InvalidSpec("spec requires a seed")
        kwargs = dict(doc)
        if "chain_len" in kwargs:
            try:
                lo, hi = kwargs["chain_len"]
            except (TypeError, ValueError):
                raise InvalidSpec(
                    f"chain_len must be a [lo, hi] pair, got {kwargs['chain_len']!r}"
                ) from None
            kwargs["chain_len"] = (lo, hi)
        return cls(**kwargs)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _check_mix(name: str, mix: dict[str, float] | None, valid: tuple[str, ...]) -> None:
    if mix is None:
        return
    if not isinstance(mix, dict):
        raise InvalidSpec(f"{name} must map names to weights, got {mix!r}")
    unknown = set(mix) - set(valid)
    if unknown:
        raise InvalidSpec(f"{name} has unknown keys: {sorted(unknown)}")
    if not all(_is_real(w) and 0 <= w < math.inf for w in mix.values()):
        raise InvalidSpec(f"{name} weights must be finite nonnegative numbers")
    if not any(w > 0 for w in mix.values()):
        raise InvalidSpec(f"{name} needs at least one positive weight")
    # random.choices totals the weights generate passes it as a float this
    # way, and raises if the total is not finite
    try:
        total = list(itertools.accumulate(_weighted(mix, valid)[1]))[-1] + 0.0
    except OverflowError:  # an int weight too large for a float
        total = math.inf
    if not math.isfinite(total):
        raise InvalidSpec(f"{name} weights must have a finite sum")


class PlantedLeak(NamedTuple):
    """One planted leak, spelled as detected_tuples spells the leak that finds it."""

    pi: str
    party: str  # "first" | "third"
    category: str
    source_id_name: str
    sink_sig: str


def detected_tuples(report: dict) -> set[tuple]:
    """Project a per-app report's leaks onto ground-truth tuples."""
    return {
        (leak["pi_kind"], leak["party"], leak["destination"],
         leak["source"]["view"]["id_name"], leak["sink"]["signature"])
        for leak in report.get("leaks", ())
    }


# ---------------------------------------------------------------------------
# generation


def _weighted(mix: dict[str, float] | None, names: tuple[str, ...]):
    """The names a mix draws, in names order, and their weights; every name
    at equal weight when there is no mix."""
    if mix is None:
        return names, None
    drawn = [n for n in names if mix.get(n, 0) > 0]
    return drawn, [mix[n] for n in drawn]


class _Flow(NamedTuple):
    index: int
    pi: str
    third: bool
    category: str
    view_class: str
    id_name: str
    numeric_id: int
    chain_hops: int
    literal_arg: bool


def _sink_lines(category: str, owner: str, value_reg: str):
    """Statements calling the category's sink on value_reg, plus any helper
    methods the owner class must declare."""
    if category == "localstore":
        stmts = [
            f"$ed = staticinvoke <{owner}: android.content.SharedPreferences$Editor prefs()>()",
            f'interfaceinvoke $ed.{_PUT_STRING}("k", {value_reg})',
        ]
        helpers = [("android.content.SharedPreferences$Editor prefs()", "return null")]
    elif category == "log":
        stmts = [f'staticinvoke {_LOG_D}("fx", {value_reg})']
        helpers = []
    elif category == "net":
        stmts = [
            f"$by = virtualinvoke {value_reg}.<java.lang.String: byte[] getBytes()>()",
            f"$os = staticinvoke <{owner}: java.io.OutputStream netOut()>()",
            f"virtualinvoke $os.{_STREAM_WRITE}($by)",
        ]
        helpers = [("java.io.OutputStream netOut()", "return null")]
    else:  # fileio
        stmts = [
            f"$fw = staticinvoke <{owner}: java.io.FileWriter fileOut()>()",
            f"virtualinvoke $fw.{_FILE_WRITE}({value_reg})",
        ]
        helpers = [("java.io.FileWriter fileOut()", "return null")]
    return stmts, helpers


def _flow_unit(flow: _Flow, pkg: str) -> str:
    """Render one planted flow as jtac text."""
    cls = f"{pkg}.Flow{flow.index}"
    body = ["  r0 = this"]
    if flow.literal_arg:
        body.append(
            f"  $v = virtualinvoke r0.<{cls}: android.view.View findViewById(int)>"
            f"({flow.numeric_id})"
        )
    else:
        body.append(f"  $id = <{pkg}.R$id: int {flow.id_name}>")
        body.append(
            f"  $v = virtualinvoke r0.<{cls}: android.view.View findViewById(int)>($id)"
        )
    getter = _VIEW_GETTERS[flow.view_class]
    body.append(
        f"  $t0 = virtualinvoke $v.<android.widget.{flow.view_class}: {getter}>()"
    )
    reg = "$t0"
    for hop in range(1, flow.chain_hops + 1):
        body.append(f"  $t{hop} = {reg}")
        reg = f"$t{hop}"
    if flow.third:
        relay = f"io.fakelib.sdk{flow.index}.Relay{flow.index}"
        body.append(
            f"  $u = staticinvoke <{relay}: java.lang.String send(java.lang.String)>({reg})"
        )
        reg = "$u"
    sink_stmts, helpers = _sink_lines(flow.category, cls, reg)
    body.extend("  " + s for s in sink_stmts)

    lines = [f"class {cls} extends android.app.Activity", "", "method void run():"]
    lines.extend(body)
    for sig, ret in helpers:
        lines.append("")
        lines.append(f"method static {sig}:")
        lines.append(f"  {ret}")
    return "\n".join(lines) + "\n"


def _relay_unit(index: int) -> str:
    return (
        f"class io.fakelib.sdk{index}.Relay{index}\n\n"
        "method static java.lang.String send(java.lang.String p0):\n"
        "  return p0\n"
    )


def _decoy_unit(kind: int, index: int, pkg: str, numeric_id: int) -> str | None:
    """Decoy kinds: 0 = labeled view never looked up (no code unit);
    1 = sink fed only constants; 2 = taint stored to a field never read."""
    cls = f"{pkg}.Decoy{index}"
    if kind == 1:
        return (
            f"class {cls}\n\n"
            "method void noop():\n"
            f"  $ed = staticinvoke <{cls}: android.content.SharedPreferences$Editor prefs()>()\n"
            f'  interfaceinvoke $ed.{_PUT_STRING}("k", "v")\n\n'
            "method static android.content.SharedPreferences$Editor prefs():\n"
            "  return null\n"
        )
    if kind == 2:
        return (
            f"class {cls} extends android.app.Activity\n\n"
            "field java.lang.String dead\n\n"
            "method void run():\n"
            "  r0 = this\n"
            f"  $v = virtualinvoke r0.<{cls}: android.view.View findViewById(int)>"
            f"({numeric_id})\n"
            "  $t = virtualinvoke $v.<android.widget.EditText: java.lang.String getText()>()\n"
            f"  r0.<{cls}: java.lang.String dead> = $t\n"
        )
    return None  # kind 0: layout + rtable only


def generate(spec: FixtureSpec, out_dir) -> tuple[Path, tuple[PlantedLeak, ...]]:
    """Write the bundle described by spec into out_dir.

    Returns the bundle directory and its planted leaks; ground_truth.tsv is
    written inside the bundle so the oracle travels with the fixture.
    """
    out_dir = Path(out_dir)
    rng = random.Random(spec.seed)
    pkg = f"com.fx{spec.seed}.app"

    kinds, kind_weights = _weighted(spec.pi_mix, KINDS)
    cats, cat_weights = _weighted(spec.destination_mix, DESTINATIONS)
    lo, hi = spec.chain_len

    flows = []
    for i in range(spec.n_sources):
        pi = rng.choices(kinds, weights=kind_weights)[0]
        flows.append(
            _Flow(
                index=i,
                pi=pi,
                third=rng.random() < spec.party_mix,
                category=rng.choices(cats, weights=cat_weights)[0],
                view_class=rng.choice(_VIEW_CLASSES),
                id_name=f"{_ID_STEM[pi]}Input{i}",
                numeric_id=_FLOW_ID_BASE + i,
                chain_hops=rng.randint(lo, hi),
                literal_arg=rng.random() < 0.5,
            )
        )

    decoys = []
    stems = sorted(_ID_STEM.values())
    for j in range(spec.n_decoys):
        kind = j % 3
        stem = rng.choice(stems)
        suffix = "Shown" if kind == 0 else "Dead"
        decoys.append((kind, j, f"{stem}{suffix}{j}", _DECOY_ID_BASE + j))

    # --- write the bundle
    (out_dir / "res" / "layout").mkdir(parents=True, exist_ok=True)
    (out_dir / "code").mkdir(parents=True, exist_ok=True)

    (out_dir / "manifest.xml").write_text(
        f'<?xml version="1.0" encoding="utf-8"?>\n<manifest package="{pkg}"/>\n',
        encoding="utf-8",
    )

    rtable_lines = [f"id {f.id_name} 0x{f.numeric_id:08x}" for f in flows]
    rtable_lines += [
        f"id {name} 0x{num:08x}" for kind, _, name, num in decoys if kind != 1
    ]
    (out_dir / "res" / "rtable.txt").write_text(
        "".join(line + "\n" for line in rtable_lines), encoding="utf-8"
    )

    layout = ['<?xml version="1.0" encoding="utf-8"?>']
    layout.append('<LinearLayout xmlns:android="http://schemas.android.com/apk/res/android">')
    for f in flows:
        layout.append(f'  <{f.view_class} android:id="@+id/{f.id_name}" />')
    for kind, _, name, _num in decoys:
        if kind != 1:
            layout.append(f'  <EditText android:id="@+id/{name}" />')
    layout.append("</LinearLayout>")
    (out_dir / "res" / "layout" / "main.xml").write_text(
        "\n".join(layout) + "\n", encoding="utf-8"
    )

    for f in flows:
        (out_dir / "code" / f"Flow{f.index}.jtac").write_text(_flow_unit(f, pkg), encoding="utf-8")
        if f.third:
            (out_dir / "code" / f"Relay{f.index}.jtac").write_text(
                _relay_unit(f.index), encoding="utf-8"
            )
    for kind, j, _, num in decoys:
        text = _decoy_unit(kind, j, pkg, num)
        if text is not None:
            (out_dir / "code" / f"Decoy{j}.jtac").write_text(text, encoding="utf-8")

    truth = tuple(
        PlantedLeak(f.pi, "third" if f.third else "first", f.category, f.id_name,
                    _SINK_SIG[f.category])
        for f in flows
    )
    (out_dir / "ground_truth.tsv").write_text(
        "".join("\t".join(leak) + "\n" for leak in truth), encoding="utf-8"
    )
    return out_dir, truth
