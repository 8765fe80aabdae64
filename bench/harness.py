"""Rounds, samples and checks behind bench/run.py.

A trace-0 round analyzes every bundle in process, then runs `uitaint corpus`
at -j nproc and at -j 1, each followed by `uitaint aggregate` and one setup
probe. A trace-1 round runs the traced copy of the pipeline on every bundle,
then `uitaint corpus`, `aggregate` and `export_csv` in process, each inside
a span. Every report is compared byte for byte with the first one made for
its bundle, and the first ones are checked against the oracles.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from oracles import FixtureOracle, HubOracle, self_check, summary_problems
from tracing import Tracer, traced_analyze
from uitaint import AnalysisError, analyze_bundle, cli, serialize_report
from uitaint.report import aggregate, export_csv, write_summary
from workloads import build

EPOCH = "1700000000"  # SOURCE_DATE_EPOCH, so report bytes are comparable
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import uitaint\n"
    "uitaint.default_widget_registry()\n"
    "uitaint.load_default_lexicon()\n"
    "uitaint.load_default_sinks()\n"
    "print(time.perf_counter() - t)\n"
)

END_TO_END_UNITS = {
    "analyze_s": "s",
    "apps_per_s": "apps/s",
    "apps_per_s_serial": "apps/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name == "report.bytes" else "count"


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.work = work
        self.jobs = len(os.sched_getaffinity(0))
        self.w = build(workload, seed, work)
        if self.w.hub is not None:
            self.oracles = [HubOracle(self.w.hub)]
        else:
            self.oracles = [FixtureOracle(b) for b in self.w.bundles]
        self.truths = [o.truth for o in self.oracles]
        self.refs: list[str | None] = [None] * len(self.w.bundles)
        self.summary_ref: dict[str, bytes] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    # -- checks ------------------------------------------------------------

    def _same_report(self, i: int, text: str, what: str) -> None:
        if self.refs[i] is None:
            self.refs[i] = text
        elif text != self.refs[i]:
            self.problems.append(f"{self.w.bundles[i].name}: {what} report bytes differ")

    def _check_written(self, reports: Path, what: str) -> None:
        for i, bundle in enumerate(self.w.bundles):
            path = reports / f"{bundle.name}.json"
            if path.is_file():
                self._same_report(i, path.read_text(encoding="utf-8"), what)
            else:
                self.problems.append(f"{bundle.name}: {what} wrote no report")

    def _check_summary(self, summary_dir: Path, what: str) -> None:
        files = {p.name: p.read_bytes() for p in sorted(summary_dir.iterdir())}
        if self.summary_ref is None:
            self.summary_ref = files
            doc = json.loads(files["summary.json"])
            self.problems += [f"summary: {p}" for p in summary_problems(doc, self.truths)]
        elif files != self.summary_ref:
            self.problems.append(f"{what} summary or CSV bytes differ")

    def check_reports(self) -> None:
        """Oracle checks on the reference reports, then the oracle self-check."""
        for i, (oracle, text) in enumerate(zip(self.oracles, self.refs)):
            if text is None:
                continue
            report = json.loads(text)
            name = self.w.bundles[i].name
            self.problems += [f"{name}: {p}" for p in oracle.check(report)[:20]]
            if i == 0:
                self.problems += [f"self-check: {f}" for f in self_check(oracle.check, report)]

    # -- trace 0: end-to-end ---------------------------------------------------

    def setup_time(self) -> float:
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=self.work,
            capture_output=True, text=True, check=True,
        )
        return float(out.stdout)

    def _cli(self, *args) -> tuple[float, int, int]:
        """Run `uitaint <args>`; returns (seconds, exit code, peak RSS in KiB)
        of the command and the worker processes it waited for."""
        with open(self.work / "cli.log", "ab") as log:
            t = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "uitaint.cli", *map(str, args)],
                cwd=self.work, stdout=subprocess.DEVNULL, stderr=log,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - t
        proc.returncode = os.waitstatus_to_exitcode(status)
        return seconds, proc.returncode, usage.ru_maxrss

    def plain_round(self, r: int, samples: dict[str, list[float]]) -> None:
        """In-process analyses of every bundle, then `uitaint corpus` at -j
        nproc and at -j 1, each followed by `aggregate` and a setup probe."""
        n = len(self.w.bundles)
        for _ in range(self.w.passes):
            for i, bundle in enumerate(self.w.bundles):
                self.attempted += 1
                t = time.perf_counter()
                try:
                    text = serialize_report(analyze_bundle(bundle))
                except AnalysisError as exc:
                    self.failed += 1
                    print(f"{bundle.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                    continue
                samples["analyze"].append(time.perf_counter() - t)
                self._same_report(i, text, "analyze_bundle")
                del text

        for jobs, key in ((self.jobs, "corpus_parallel"), (1, "corpus_serial")):
            samples["setup"].append(self.setup_time())
            out = self.work / f"r{r}-j{jobs}"
            self.attempted += n
            corpus_s, code, rss = self._cli(
                "corpus", "--apps", self.w.apps_dir, "--out", out / "reports", "-j", jobs
            )
            samples["peak_rss_kib"].append(rss)
            if code != 0:
                self.failed += n
                print(f"uitaint corpus -j {jobs} exited {code}", file=sys.stderr)
                continue
            aggregate_s, code, _ = self._cli(
                "aggregate", "--reports", out / "reports", "--out", out / "summary"
            )
            if code != 0:
                self.problems.append(f"uitaint aggregate exited {code}")
                continue
            samples[key].append(corpus_s + aggregate_s)
            self._check_written(out / "reports", f"corpus -j {jobs}")
            self._check_summary(out / "summary", f"aggregate after -j {jobs}")
            shutil.rmtree(out)

    # -- trace 1: per layer ------------------------------------------------------

    def traced_round(self, r: int, tracer, samples: list[dict]) -> None:
        n = len(self.w.bundles)
        traces = set()
        texts = []
        for bundle in self.w.bundles:
            self.attempted += 1
            trace = f"r{r}/{bundle.name}"
            traces.add(trace)
            texts.append(traced_analyze(tracer, bundle, trace))

        trace = f"r{r}/corpus"
        traces.add(trace)
        out = self.work / f"r{r}"
        self.attempted += n
        with tracer.span("cli.corpus", trace) as sp:
            code = cli.main(
                ["corpus", "--apps", str(self.w.apps_dir), "--out", str(out / "reports"),
                 "-j", str(self.jobs)]
            )
        sp.counts["reports_written"] = len(list((out / "reports").glob("*.json")))
        if code != 0:
            self.failed += n
        # the traced copy of the pipeline must give analyze_bundle's bytes
        self._check_written(out / "reports", "uitaint corpus")
        for i, text in enumerate(texts):
            self._same_report(i, text, "traced pipeline")

        reports = [json.loads(t) for t in texts]
        del texts
        with tracer.span("report.aggregate", trace):
            summary = aggregate(reports)
        with tracer.span("report.export_csv", trace):
            export_csv(summary, out / "summary")
        del reports
        write_summary(summary, out / "summary" / "summary.json")
        self._check_summary(out / "summary", "traced aggregate")
        shutil.rmtree(out)
        samples.append(tracer.totals(traces))


def _rounds(seconds: float, one_round) -> None:
    """Run whole rounds until the next one, as long as the last, would end
    past the deadline; at least one."""
    deadline = time.perf_counter() + seconds
    r = 0
    while True:
        gc.collect()
        t = time.perf_counter()
        one_round(r)
        r += 1
        now = time.perf_counter()
        if now + (now - t) > deadline:
            return


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path, out_dir: Path) -> dict:
    os.environ["SOURCE_DATE_EPOCH"] = EPOCH
    bench = Bench(workload, seed, work)
    if trace:
        tracer = Tracer()
        samples: list[dict] = []
        _rounds(seconds, lambda r: bench.traced_round(r, tracer, samples))
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{workload}-seed{seed}.json")
        # counts repeat exactly from round to round; times take the median
        metrics = {
            name: {"value": statistics.median_low([s[name] for s in samples]), "unit": _unit(name)}
            for name in sorted(samples[0])
        }
    else:
        bench.setup_time()  # compiles bytecode, which a user's install pays once
        samples = {
            "analyze": [], "corpus_parallel": [], "corpus_serial": [], "setup": [],
            "peak_rss_kib": [],
        }
        _rounds(seconds, lambda r: bench.plain_round(r, samples))
        # Work over time summed across the run: on a shared host the speed
        # drifts by tens of percent within seconds, and the mean of a few
        # dozen seconds-long samples spreads less from run to run than their
        # median does. setup_s samples are short and many, so it is a median.
        n = len(bench.w.bundles)
        values = {
            "analyze_s": statistics.fmean(samples["analyze"]),
            "apps_per_s": n / statistics.fmean(samples["corpus_parallel"]),
            "apps_per_s_serial": n / statistics.fmean(samples["corpus_serial"]),
            "setup_s": statistics.median(samples["setup"]),
            "peak_rss_mb": max(samples["peak_rss_kib"]) / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    bench.check_reports()
    for problem in bench.problems[:50]:
        print(f"FAIL {problem}", file=sys.stderr)
    return {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
