#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload square --seed 1 --seconds 10 --trace 0

Run it from the repository root: it imports fbv from ./src and nothing else.
The last line of standard output is the result, one JSON object with the keys
correct, attempted, failed and metrics (the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1). The line before it is the
run's record: the stream fingerprint, sample counts and failures. The full
record, spans included, is written to perfbench/out/. See perfbench/README.md.
"""

import os

# numpy reads these when it loads: keep every numeric library to one thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("square", "static", "lobby")


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="time to spend measuring; minimum sample counts may exceed it")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=0.4,
                   help="clip size as a fraction of 320x240 (default 0.4 = 128x96); "
                        "1 gives the test suite's reference clips")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _args(argv)
    if args.seed < 0 or args.seconds <= 0 or not 0.1 <= args.scale <= 1.0:
        print("run.py: needs --seed >= 0, --seconds > 0 and --scale in [0.1, 1]",
              file=sys.stderr)
        return 2
    if not (SRC / "fbv" / "__init__.py").is_file():
        print(f"run.py: no fbv sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import harness
    import_s = time.perf_counter() - t0
    import fbv
    if Path(fbv.__file__).resolve().parent != SRC / "fbv":
        print(f"run.py: imported fbv from {fbv.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    result, record = harness.run_workload(args.workload, args.seed, args.seconds,
                                          bool(args.trace), args.scale, import_s)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-scale{args.scale}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**record, "result": result}, indent=1) + "\n")
    summary = {k: v for k, v in record.items() if k not in ("spans", "samples")}
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
