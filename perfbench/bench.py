"""pce-mincut benchmark: one workload per run, checked, printed as JSON.

    python3 perfbench/bench.py --workload paired-k6 --seed 0 --seconds 10 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/``. BLAS is pinned to one thread before numpy loads. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``). The lines before
it give the environment and every metric with its unit; the full result
and the spans of a traced run are written under ``perfbench/out/``.
The exit code is 1 when an output check fails and 2 when the run cannot
start or crashes.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the keys of workloads.WORKLOADS, repeated so that a bad name is refused
# before numpy is imported
WORKLOAD_NAMES = ("paired-k6", "iterative-large", "baselines")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measure whole passes until this much time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, print 'ready' and exit (times set-up)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "pce_mincut" / "__init__.py").is_file():
        print(f"bench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import runner
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        workload.setup(args.seed)
        print("ready", flush=True)
        return 0

    setup_s = None
    if not args.trace:
        setup_s = runner.measure_setup(Path(__file__).resolve(), args.workload, args.seed)
    run = runner.execute(workload, args.seed, args.seconds, bool(args.trace), HERE / "out")
    if setup_s is not None:
        run["metrics"]["setup_s"] = setup_s
    env = runner.environment(args.workload, args.seed, BLAS_THREAD_VARS)

    correct = not run["errors"]
    print(json.dumps({"env": env}))
    for line in runner.render(args.workload, run["metrics"], run["per_layer"]):
        print(line)
    for err in run["errors"]:
        print(f"CHECK FAILED: {err}")
    result = {"env": env, "correct": correct, **run}
    out = HERE / "out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(runner.result_line(correct, run, bool(args.trace)), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # a crash must not look like a result
        import traceback

        traceback.print_exc()
        sys.exit(2)
