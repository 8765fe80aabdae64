"""Command-line entry points.

Exit codes are the machine contract: 0 success, 1 analysis failure (a bug or
unexpected condition inside the analyzer), 2 bad input, configuration, or
usage. Corpus analysis parallelizes over apps only, so reports are
byte-identical whatever -j is.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from pathlib import Path

from .errors import AnalysisError, EmptyCorpus, InvalidSpec, ReportError, UsageError

# Each command imports the package modules it runs when it runs, so
# `aggregate` and `explain` never load the analyzer or dataclasses, and only
# a corpus run with two or more workers loads the process pool.


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uitaint",
        description="Detect leaks of user-entered personal information in "
        "decompiled app bundles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze one app bundle")
    p.add_argument("--app", required=True, help="bundle directory")
    _config_flags(p)
    p.add_argument("--out", help="report file (default: stdout)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("corpus", help="analyze every bundle under a directory")
    p.add_argument("--apps", required=True, help="directory of bundle directories")
    p.add_argument("--out", required=True, help="directory for report files")
    _config_flags(p)
    p.add_argument("-j", "--jobs", type=int, default=1, metavar="N",
                   help="worker processes, at most one per bundle (default 1)")
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("aggregate", help="fold reports into corpus statistics")
    p.add_argument("--reports", required=True, help="directory of report files")
    p.add_argument("--out", required=True, help="directory for summary + CSVs")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("gen-fixtures", help="generate oracle bundles")
    p.add_argument("--seed", type=int, help="base seed (overrides the spec file)")
    p.add_argument("--spec", help="JSON file of FixtureSpec fields")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--count", type=int, default=1, metavar="M",
                   help="generate M bundles at consecutive seeds (default 1)")
    p.set_defaults(func=cmd_gen_fixtures)

    p = sub.add_parser("explain", help="print one leak's witness trace")
    p.add_argument("--report", required=True, help="report file")
    p.add_argument("--leak", type=int, required=True, help="leak index")
    p.set_defaults(func=cmd_explain)

    return parser


def _config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sinks", help="sink registry TSV (default: built-in)")
    p.add_argument("--lexicon", help="PI lexicon TSV (default: built-in)")
    p.add_argument("--widgets", help="widget registry file (default: built-in)")


def _diag_line(report: dict) -> str:
    d = report["diagnostics"]
    return (
        f"{report['app_package']}: {len(report['leaks'])} leaks, "
        f"{report['views_labeled']}/{report['views_total']} views labeled, "
        f"findViewById sites={d['findviewbyid_sites']} "
        f"resolved={d['sources_resolved']} "
        f"unlabeled-id-skips={d['unlabeled_id_skips']} "
        f"unresolved-arg-skips={d['unresolved_arg_skips']}"
    )


def cmd_analyze(args) -> int:
    from .pipeline import analyze_bundle
    from .report import serialize_report, write_atomic, write_slices

    report = analyze_bundle(args.app, args.widgets, args.lexicon, args.sinks)
    text = serialize_report(report)
    if args.out:
        write_atomic(args.out, text)
    else:
        write_slices(sys.stdout, text)
    print(_diag_line(report), file=sys.stderr)
    return 0


def _failure(exc: Exception) -> tuple[int, str]:
    """The exit code and stderr line of an exception: 2 for bad input or a
    failed write, 1 for any other exception (an analyzer bug)."""
    if isinstance(exc, (AnalysisError, OSError)):
        return 2, f"{type(exc).__name__}: {exc}"
    return 1, f"internal error: {type(exc).__name__}: {exc}"


def _analyze_one(app_dir: str, out_dir: str, config_paths: tuple) -> tuple[int, str]:
    """Worker for corpus analysis: write the report of the bundle at app_dir
    to out_dir/<bundle>.json; takes config paths so the job pickles.

    Returns (0, ""), or the bundle's exit code and failure line from
    `_failure`, prefixed by the bundle's name. The line is built here, so no
    exception object has to cross the process pool. A failed bundle's
    earlier report is removed, so aggregate never counts it.
    """
    from .pipeline import analyze_bundle
    from .report import serialize_report, write_atomic

    name = Path(app_dir).name
    report = Path(out_dir) / f"{name}.json"
    try:
        write_atomic(report, serialize_report(analyze_bundle(app_dir, *config_paths)))
        return 0, ""
    except Exception as exc:
        code, line = _failure(exc)
    with contextlib.suppress(IsADirectoryError):  # no report: aggregate refuses it by itself
        report.unlink(missing_ok=True)
    return code, f"{name}: {line}"


def cmd_corpus(args) -> int:
    from .pipeline import load_config

    if args.jobs < 1:
        raise UsageError(f"-j must be >= 1, got {args.jobs}")
    apps_dir = Path(args.apps)
    out_dir = Path(args.out)
    # out_dir may sit under apps_dir, itself or as a symlink, and its
    # reports are no bundle
    apps_real = apps_dir.resolve()
    outs = {out_dir.resolve(), out_dir.parent.resolve() / out_dir.name}
    apps = sorted(p for p in apps_dir.iterdir() if p.is_dir() and apps_real / p.name not in outs)
    if not apps:
        raise EmptyCorpus(f"no app bundles under {apps_dir}")
    # aggregate would count these as reports of this run; it skips its own summary
    names = {p.name for p in apps} | {"summary"}
    strays = sorted(p.name for p in out_dir.glob("*.json") if p.stem not in names)
    if strays:
        more = f" and {len(strays) - 3} more" if len(strays) > 3 else ""
        raise UsageError(
            f"{out_dir} holds reports of no bundle under {apps_dir}: "
            f"{', '.join(strays[:3])}{more}"
        )
    out_dir.mkdir(parents=True, exist_ok=True)

    paths = (args.widgets, args.lexicon, args.sinks)
    load_config(*paths)  # a bad config fails once, here; forked workers inherit the memos
    job = functools.partial(_analyze_one, out_dir=str(out_dir), config_paths=paths)
    app_dirs = [str(p) for p in apps]
    workers = min(args.jobs, len(apps))
    failed = []  # exit code of each failed bundle
    with contextlib.ExitStack() as stack:
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            results = pool.map(job, app_dirs, chunksize=max(1, len(apps) // (4 * workers)))
        else:
            results = map(job, app_dirs)
        # results arrive in sorted bundle order, so the failure lines do too
        for code, line in results:
            if code:
                failed.append(code)
                print(line, file=sys.stderr)
    print(f"analyzed {len(apps)} bundles, {len(failed)} failed -> {out_dir}", file=sys.stderr)
    return min(failed, default=0)  # an analyzer bug (1) outranks bad input (2)


def cmd_aggregate(args) -> int:
    from .report import aggregate, export_csv, parse_report, write_summary

    reports_dir = Path(args.reports)
    out_dir = Path(args.out)
    paths = sorted(reports_dir.glob("*.json"))
    if out_dir.resolve() == reports_dir.resolve():  # an earlier run's summary is no report
        paths = [p for p in paths if p.name != "summary.json"]
        with contextlib.suppress(OSError, ReportError):  # but a bundle's report would be lost
            parse_report(own := reports_dir / "summary.json")
            raise UsageError(f"{own} is a bundle's report; aggregate into another --out")
    summary = aggregate(map(parse_report, paths))  # one report parsed at a time
    out_dir.mkdir(parents=True, exist_ok=True)
    write_summary(summary, out_dir / "summary.json")
    export_csv(summary, out_dir)
    print(
        f"aggregated {summary['n_apps']} reports, {summary['total_leaks']} leaks -> {out_dir}",
        file=sys.stderr,
    )
    return 0


def cmd_gen_fixtures(args) -> int:
    import dataclasses

    from .fixtures import FixtureSpec, generate

    if args.count < 1:
        raise UsageError(f"--count must be >= 1, got {args.count}")
    doc = {}
    if args.spec:
        try:
            doc = json.loads(Path(args.spec).read_text(encoding="utf-8-sig"))
        except (ValueError, RecursionError) as exc:  # bad UTF-8, JSON or int; nested too deep
            raise InvalidSpec(f"bad spec file {args.spec}: {exc}") from exc
        if not isinstance(doc, dict):
            raise InvalidSpec(f"spec file {args.spec} must hold a JSON object")
    if args.seed is not None:
        doc["seed"] = args.seed
    spec = FixtureSpec.from_dict(doc)
    dataclasses.replace(spec, seed=spec.seed + args.count - 1)  # check the last seed before any write

    out_dir = Path(args.out)
    for k in range(args.count):
        one = dataclasses.replace(spec, seed=spec.seed + k)
        print(generate(one, out_dir / f"fx{one.seed:08d}")[0])
    print(f"generated {args.count} bundle(s) -> {out_dir}", file=sys.stderr)
    return 0


def cmd_explain(args) -> int:
    from .report import parse_report

    report = parse_report(args.report)
    leaks = report["leaks"]
    if not 0 <= args.leak < len(leaks):
        raise UsageError(f"leak index {args.leak} out of range (report has {len(leaks)})")
    leak = leaks[args.leak]
    lines = leak["path_text"]
    print("SOURCE")
    for line in lines[:-1]:
        print(f"{line} =>")
    print(lines[-1])
    print("SINK")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        code, line = _failure(exc)
        if code == 1:  # an analyzer bug: show where
            import traceback

            traceback.print_exc()
        print(line, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
