"""Stage-by-stage benchmark for uitaint.

    python3 bench/run.py --workload {isolated,hub,corpus} --seed N \
        --seconds S --trace {0,1}

The program is imported from the `src/` directory next to `bench/`. The run
builds its workload from the seed, repeats whole rounds until the next one
would end past S seconds, checks every report against the oracles in
`oracles.py`, and prints one JSON object as the last line of stdout:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1. See
bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORKLOADS = ("isolated", "hub", "corpus")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "uitaint" / "__init__.py").is_file():
        print(f"error: no uitaint package under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    # the in-process analyses and every uitaint subprocess use these sources
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    import harness

    work = BENCH / "work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = harness.run(
            args.workload, args.seed, args.seconds, bool(args.trace), work, BENCH / "out"
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
