"""Seeded inputs for the three benchmark workloads.

Every workload is a directory of bundle directories, so the same inputs feed
both the in-process pipeline and `uitaint corpus`. The `isolated` and
`corpus` bundles come from the program's own fixture generator; the `hub`
bundle is laid out here, statement by statement, so its oracle can name the
exact witness of every leak.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from uitaint.fixtures import FixtureSpec, generate

ISOLATED_SOURCES = 400  # planted flows in the one isolated bundle
ISOLATED_DECOYS = ISOLATED_SOURCES // 10
HUB_SOURCES = 40  # n findViewById sources writing the shared field
HUB_SINKS = 40  # m Log.d sinks reading it
CORPUS_APPS = 200  # default-spec fixtures in the corpus

LOG_D = "<android.util.Log: int d(java.lang.String,java.lang.String)>"

# id-name stem -> PI kind for hub views; each stem is a plain lexicon term.
HUB_STEMS = {
    "email": "email",
    "phone": "phone",
    "address": "address",
    "zip": "zip",
    "ssn": "ssn",
    "height": "height",
    "weight": "weight",
    "gender": "gender",
    "dosage": "medication",
    "glucose": "blood",
    "anxiety": "mental_health",
    "alcohol": "smoke_alcohol",
}

# Hub source groups: how each source's value reaches the shared field.
DIRECT, DIRECT_AND_RELAY, RELAY_ONLY = "direct", "direct+relay", "relay"


@dataclass
class Workload:
    apps_dir: Path  # one subdirectory per bundle, in sorted order
    bundles: list[Path]
    # in-process analyses of each bundle per round, so that analysis takes
    # about as much of a round as each `uitaint corpus` run
    passes: int
    hub: HubLayout | None = None


def build(name: str, seed: int, root: Path) -> Workload:
    """Write the workload's bundles under root/apps; same seed, same bytes."""
    apps = root / "apps"
    if name == "isolated":
        spec = FixtureSpec(seed=seed, n_sources=ISOLATED_SOURCES, n_decoys=ISOLATED_DECOYS)
        generate(spec, apps / "isolated")
        return Workload(apps, [apps / "isolated"], passes=2)
    if name == "hub":
        hub = write_hub(apps / "hub", seed, HUB_SOURCES, HUB_SINKS)
        return Workload(apps, [apps / "hub"], passes=2, hub=hub)
    if name == "corpus":
        base = seed * CORPUS_APPS
        bundles = []
        for k in range(CORPUS_APPS):
            bundle = apps / f"fx{base + k:08d}"
            generate(FixtureSpec(seed=base + k), bundle)
            bundles.append(bundle)
        return Workload(apps, bundles, passes=1)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# hub bundle


@dataclass
class HubSource:
    index: int
    kind: str
    group: str
    steps: list[tuple[tuple, str]]  # witness from findViewById to the field write


@dataclass
class HubSink:
    index: int
    steps: list[tuple[tuple, str]]  # field read, then the Log.d call


@dataclass
class HubLayout:
    app_package: str
    sources: list[HubSource]
    sinks: list[HubSink]


class _Method:
    """Collects one method's statement lines and their statement ids."""

    def __init__(self, cls: str, token: str):
        self.cls, self.token, self.lines = cls, token, []

    def add(self, text: str) -> tuple[tuple, str]:
        self.lines.append(text)
        return (self.cls, self.token, len(self.lines) - 1), text


def write_hub(bundle: Path, seed: int, n: int, m: int) -> HubLayout:
    """One class whose n sources write one static field that m Log.d sinks read.

    Sources are split into thirds by a seeded shuffle: `direct` sources write
    the field themselves, `direct+relay` sources also write it through their
    own third-party relay, and `relay` sources write it only through the
    relay. Every leak's shortest witness is therefore known in advance.
    """
    rng = random.Random(seed)
    pkg = f"com.hub{seed}.app"
    cls = f"{pkg}.Hub"
    field = f"<{cls}: java.lang.String shared>"
    groups = [(DIRECT, DIRECT_AND_RELAY, RELAY_ONLY)[i * 3 // n] for i in range(n)]
    rng.shuffle(groups)
    stems = sorted(HUB_STEMS)

    (bundle / "res" / "layout").mkdir(parents=True, exist_ok=True)
    (bundle / "code").mkdir(parents=True, exist_ok=True)
    (bundle / "manifest.xml").write_text(
        f'<?xml version="1.0" encoding="utf-8"?>\n<manifest package="{pkg}"/>\n',
        encoding="utf-8",
    )

    sources, methods, rtable, layout = [], [], [], []
    for i in range(n):
        stem = rng.choice(stems)
        id_name, numeric_id = f"{stem}Hub{i}", 0x7F090000 + i
        rtable.append(f"id {id_name} 0x{numeric_id:08x}")
        layout.append(f'  <EditText android:id="@+id/{id_name}" />')

        body = _Method(cls, f"src{i}()")
        body.add("r0 = this")
        steps = [
            body.add(f"$v = virtualinvoke r0.<{cls}: android.view.View findViewById(int)>({numeric_id})"),
            body.add("$t = virtualinvoke $v.<android.widget.EditText: java.lang.String getText()>()"),
        ]
        if groups[i] != RELAY_ONLY:
            steps.append(body.add(f"{field} = $t"))
        if groups[i] != DIRECT:
            relay = f"io.fakelib.hub{i}.Relay{i}"
            relay_steps = [
                body.add(f"$u = staticinvoke <{relay}: java.lang.String send(java.lang.String)>($t)"),
                ((relay, "send(java.lang.String)", 0), "return p0"),
                body.add(f"{field} = $u"),
            ]
            if groups[i] == RELAY_ONLY:
                steps += relay_steps
            (bundle / "code" / f"Relay{i}.jtac").write_text(
                f"class {relay}\n\n"
                "method static java.lang.String send(java.lang.String p0):\n"
                "  return p0\n",
                encoding="utf-8",
            )
        methods.append(body)
        sources.append(HubSource(i, HUB_STEMS[stem], groups[i], steps))

    sinks = []
    for j in range(m):
        body = _Method(cls, f"snk{j}()")
        steps = [body.add(f"$s = {field}"), body.add(f'staticinvoke {LOG_D}("hub{j}", $s)')]
        methods.append(body)
        sinks.append(HubSink(j, steps))

    text = [f"class {cls} extends android.app.Activity", "", "field java.lang.String shared"]
    for body in methods:
        name = body.token[: -len("()")]
        text += ["", f"method void {name}():", *("  " + line for line in body.lines)]
    (bundle / "code" / "Hub.jtac").write_text("\n".join(text) + "\n", encoding="utf-8")
    (bundle / "res" / "rtable.txt").write_text("".join(r + "\n" for r in rtable), encoding="utf-8")
    (bundle / "res" / "layout" / "hub.xml").write_text(
        '<?xml version="1.0" encoding="utf-8"?>\n'
        '<LinearLayout xmlns:android="http://schemas.android.com/apk/res/android">\n'
        + "".join(v + "\n" for v in layout)
        + "</LinearLayout>\n",
        encoding="utf-8",
    )
    return HubLayout(pkg, sources, sinks)
