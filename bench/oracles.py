"""Leak oracles computed apart from the analyzer.

Each checker takes a parsed report and returns a list of problems (empty
when the report is right). Expectations come from the inputs alone: the
generator's ground_truth.tsv and code files for fixture bundles, and the
hub writer's own layout for the hub bundle. Party is recomputed from the
class names on each witness path by the package rule: a leak is third-party
iff some witness statement sits in a package that is neither the platform
nor the app's two-segment organisation prefix.
"""

from __future__ import annotations

import re
from pathlib import Path

PLATFORM = ("android", "androidx", "java", "javax", "kotlin", "kotlinx", "dalvik")
DESTINATIONS = ("net", "localstore", "log", "fileio")
PI_KINDS = (
    "email", "first_name", "last_name", "phone", "address", "zip", "ssn",
    "credit_card", "age", "height", "weight", "gender", "medical_history",
    "medication", "blood", "mental_health", "smoke_alcohol",
)


def _under(pkg: str, prefix: str) -> bool:
    return pkg == prefix or pkg.startswith(prefix + ".")


def party_of(classes, app_package: str) -> str:
    org = ".".join(app_package.split(".")[:2])
    for cls in classes:
        pkg = cls.rsplit(".", 1)[0] if "." in cls else ""
        if any(_under(pkg, p) for p in PLATFORM):
            continue
        if pkg == app_package or _under(pkg, org):
            continue
        return "third"
    return "first"


def _common_problems(report: dict, app_package: str) -> list[str]:
    problems = []
    if report.get("app_package") != app_package:
        problems.append(f"app_package {report.get('app_package')!r} != {app_package!r}")
    for k, leak in enumerate(report["leaks"]):
        path = leak["path"]
        where = f"leak {k}"
        if leak["path_len"] != len(path) - 1 or len(leak["path_text"]) != len(path):
            problems.append(f"{where}: path_len/path_text disagree with path")
        if not path or path[0] != leak["source"]["stmt"] or path[-1] != leak["sink"]["stmt"]:
            problems.append(f"{where}: witness does not run from source to sink")
        expected = party_of((step[0] for step in path), app_package)
        if leak["party"] != expected:
            problems.append(f"{where}: party {leak['party']} but path says {expected}")
    return problems


# ---------------------------------------------------------------------------
# generated fixture bundles (isolated, corpus)


_METHOD = re.compile(r"method (?:static )?\S+ (\w+)\((.*)\):")
_CALL = re.compile(r"staticinvoke <([\w.$]+): \S+ (\w+)\(([^)]*)\)>")


def read_code(bundle: Path) -> dict[tuple[str, str], list[str]]:
    """(class, method token) -> statement lines, straight from the .jtac text."""
    code: dict[tuple[str, str], list[str]] = {}
    for path in sorted((bundle / "code").rglob("*.jtac")):
        cls, body = None, None
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.startswith("class "):
                cls = line.split()[1]
            elif m := _METHOD.fullmatch(line):
                types = [p.split()[0] for p in m[2].split(",") if p.strip()]
                body = code.setdefault((cls, f"{m[1]}({','.join(types)})"), [])
            elif line.startswith("  ") and line.strip():
                body.append(line.strip())
    return code


class FixtureOracle:
    """Expected leaks of one generated bundle.

    Planted flows are straight-line `run()` methods in classes of their own,
    so each flow's witness is its `run()` statements from the findViewById
    call to the sink, minus the calls to the flow class's own helpers (they
    fetch a sink receiver and carry no data), with the callee's `return`
    inserted after a call into another bundle class (the third-party relay).
    No flow shares a register or field with another, so no first-party leak
    has a third-party alternative route.
    """

    def __init__(self, bundle: Path):
        manifest = (bundle / "manifest.xml").read_text(encoding="utf-8")
        self.app_package = re.search(r'package="([^"]+)"', manifest)[1]
        self.truth = [
            tuple(line.split("\t"))
            for line in (bundle / "ground_truth.tsv").read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        self.code = read_code(bundle)

    def witness(self, cls: str) -> list[tuple[list, str]]:
        lines = self.code[(cls, "run()")]
        start = next(i for i, s in enumerate(lines) if "findViewById(int)>" in s)
        steps = []
        for ordinal in range(start, len(lines)):
            text = lines[ordinal]
            call = _CALL.search(text)
            if call and call[1] == cls:
                continue
            steps.append(([cls, "run()", ordinal], text))
            callee = call and (call[1], f"{call[2]}({call[3]})")
            if callee in self.code:
                ret = next(i for i, s in enumerate(self.code[callee]) if s.startswith("return"))
                steps.append(([*callee, ret], self.code[callee][ret]))
        return steps

    def check(self, report: dict) -> list[str]:
        problems = _common_problems(report, self.app_package)
        found = [
            (lk["pi_kind"], lk["party"], lk["destination"],
             lk["source"]["view"]["id_name"], lk["sink"]["signature"])
            for lk in report["leaks"]
        ]
        if sorted(found) != sorted(self.truth):
            missing = set(self.truth) - set(found)
            extra = set(found) - set(self.truth)
            problems.append(
                f"leaks differ from ground truth: {len(missing)} missing, {len(extra)} "
                f"unexpected, {len(found)} found for {len(self.truth)} planted"
            )
        for k, leak in enumerate(report["leaks"]):
            if leak["alt_third_party_path"]:
                problems.append(f"leak {k}: alt_third_party_path on an isolated flow")
            steps = list(zip(leak["path"], leak["path_text"]))
            try:
                expected = self.witness(leak["source"]["stmt"][0])
            except (KeyError, StopIteration):
                expected = None
            if steps != expected:
                problems.append(f"leak {k}: witness is not the planted flow's statements")
        return problems


def summary_problems(summary: dict, truths: list[list[tuple]]) -> list[str]:
    """Check corpus totals against per-app ground-truth tuples.

    truths[i] lists app i's (pi, party, destination, ...) tuples. The
    destination table counts leaks; the PI x destination table counts apps.
    """
    problems = []
    total = sum(len(t) for t in truths)
    if summary["n_apps"] != len(truths):
        problems.append(f"n_apps {summary['n_apps']} != {len(truths)}")
    if summary["total_leaks"] != total:
        problems.append(f"total_leaks {summary['total_leaks']} != {total}")

    rows = {r["destination"]: r for r in summary["destinations"]}
    if sorted(rows) != sorted(DESTINATIONS):
        problems.append(f"destination rows {sorted(rows)}")
    for dest in DESTINATIONS:
        first = sum(1 for t in truths for lk in t if lk[2] == dest and lk[1] == "first")
        third = sum(1 for t in truths for lk in t if lk[2] == dest and lk[1] == "third")
        pct = round(100.0 * (first + third) / total, 2) if total else 0.0
        want = {"destination": dest, "leaks": first + third, "pct_of_leaks": pct,
                "first": first, "third": third}
        if rows.get(dest) != want:
            problems.append(f"destination {dest}: {rows.get(dest)} != {want}")

    cells = {r["pi"]: r for r in summary["pi_by_destination"]}
    if sorted(cells) != sorted(PI_KINDS):
        problems.append(f"pi_by_destination rows {sorted(cells)}")
    for kind in PI_KINDS:
        want = {"pi": kind}
        for dest in DESTINATIONS:
            want[dest] = sum(1 for t in truths if any(lk[0] == kind and lk[2] == dest for lk in t))
        want["total"] = sum(want[d] for d in DESTINATIONS)
        if cells.get(kind) != want:
            problems.append(f"pi_by_destination {kind}: {cells.get(kind)} != {want}")
    return problems


# ---------------------------------------------------------------------------
# hub bundle


class HubOracle:
    """Every (source, sink) pair leaks, along the witness the writer laid out.

    `direct` and `direct+relay` sources leak first-party in 4 steps, the
    latter with a third-party alternative route; `relay` sources leak
    third-party in 6 steps.
    """

    def __init__(self, layout):
        self.app_package = layout.app_package
        self.sources = {src.steps[0][0]: src for src in layout.sources}
        self.sinks = {snk.steps[-1][0]: snk for snk in layout.sinks}
        self.truth = [
            (src.kind, "third" if src.group == "relay" else "first", "log")
            for src in layout.sources
            for _ in layout.sinks
        ]

    def check(self, report: dict) -> list[str]:
        problems = _common_problems(report, self.app_package)
        seen = set()
        for k, leak in enumerate(report["leaks"]):
            src = self.sources.get(tuple(leak["source"]["stmt"]))
            snk = self.sinks.get(tuple(leak["sink"]["stmt"]))
            if src is None or snk is None:
                problems.append(f"leak {k}: not a planted source/sink pair")
                continue
            if (src.index, snk.index) in seen:
                problems.append(f"leak {k}: pair ({src.index}, {snk.index}) reported twice")
            seen.add((src.index, snk.index))
            relay_only = src.group == "relay"
            want = {
                "pi_kind": src.kind,
                "destination": "log",
                "party": "third" if relay_only else "first",
                "path_len": 6 if relay_only else 4,
                "alt_third_party_path": src.group == "direct+relay",
            }
            got = {key: leak[key] for key in want}
            if got != want:
                problems.append(f"leak {k} ({src.group}): {got} != {want}")
            steps = [(tuple(sid), text) for sid, text in zip(leak["path"], leak["path_text"])]
            if steps != src.steps + snk.steps:
                problems.append(f"leak {k}: witness is not the laid-out statement sequence")
        missing = len(self.sources) * len(self.sinks) - len(seen)
        if missing:
            problems.append(f"{missing} of {len(self.sources)}x{len(self.sinks)} pairs missing")
        return problems


# ---------------------------------------------------------------------------
# self-check


def self_check(check, report: dict) -> list[str]:
    """Faults in the oracle: a correct report it rejects, or a corrupted one
    it accepts. Each corruption is made in place and undone."""
    if check(report):
        return ["oracle rejects the analyzer's own report"]
    k = next((i for i, lk in enumerate(report["leaks"]) if len(lk["path"]) >= 3), None)
    if k is None:
        return ["no leak with a witness of three steps to corrupt"]
    leak = report["leaks"][k]

    def drop():
        report["leaks"].pop(k)
        return lambda: report["leaks"].insert(k, leak)

    def flip(key, new):
        def apply():
            old = leak[key]
            leak[key] = new(old)
            return lambda: leak.__setitem__(key, old)
        return apply

    def swap():
        for key in ("path", "path_text"):
            leak[key][1], leak[key][2] = leak[key][2], leak[key][1]
        return swap

    faults = []
    for name, corrupt in (
        ("leak dropped", drop),
        ("party flipped", flip("party", lambda p: "first" if p == "third" else "third")),
        ("alt_third_party_path flipped", flip("alt_third_party_path", lambda a: not a)),
        ("witness step swapped", swap),
    ):
        undo = corrupt()
        try:
            if not check(report):
                faults.append(f"oracle accepts a report with a {name}")
        finally:
            undo()
    if check(report):
        faults.append("report not restored after the self-check")
    return faults
