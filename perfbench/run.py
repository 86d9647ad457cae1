"""Run one workload of the deepkt benchmark and print its result.

    python3 perfbench/run.py --workload train --seed 1 --seconds 40 --trace 0

Workloads: train, eval_long, baselines (see NOTES.md).  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  The line before it holds provenance, per-model figures
and any failed check.  Traced runs also write their spans to
``.perfbench/trace-<workload>-seed<seed>.jsonl.gz``.  The exit code is 0 when
every check passed, 1 when one failed and 2 when the deepkt sources are
missing.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# Pin BLAS to one thread before numpy loads: the deep models' matrices are at
# most a few hundred rows, where a second thread only adds contention and
# noise, and one thread keeps every workload's timing off the second core.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "eval_long", "baselines"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "deepkt" / "__init__.py").is_file():
        print(f"perfbench: no deepkt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench  # imports deepkt from SRC

    result, report = bench.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), trace_dir=ROOT / ".perfbench")
    for problem in report["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
