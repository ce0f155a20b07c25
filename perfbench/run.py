"""Repository benchmark for banger.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a banger source tree. The first run builds the
`banger` CLI and the traced replay from source (Release) into
.bench_build/perfbench; generated inputs go to .bench_work/. Workloads
and metrics are described in perfbench/README.md and BENCHMARK.json.

Human-readable figures go to stdout first; the last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402

BUILD = os.path.join(".bench_build", "perfbench")


def build():
    """Configures and builds the binaries; returns (banger, perfbench_trace)."""
    if not (os.path.isfile(os.path.join("src", "CMakeLists.txt"))
            and os.path.isfile(os.path.join("tools", "banger_main.cpp"))):
        raise SystemExit("perfbench: run from the root of a banger source tree "
                         "(src/ and tools/ not found)")
    log = sys.stderr
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=log, stderr=log, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(workloads.NPROC),
                    "--target", "banger", "perfbench_trace"],
                   stdout=log, stderr=log, check=True)
    return os.path.join(BUILD, "banger"), os.path.join(BUILD, "perfbench_trace")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        exe, trace_exe = build()
    except subprocess.CalledProcessError as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    with open("BENCHMARK.json", encoding="utf-8") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    work = os.path.join(".bench_work", "%s-s%d-t%d"
                        % (args.workload, args.seed, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = workloads.Context(exe, trace_exe, work, args.seed, args.seconds)
    if args.trace:
        metrics = workloads.traced(ctx, args.workload)
    else:
        metrics = workloads.WORKLOADS[args.workload](ctx)

    print("workload %s  seed %d  seconds %g  trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    for line in ctx.report:
        print("  " + line)
    for reason, count in sorted(ctx.tally.reasons.items()):
        print("  failed: %s x%d" % (reason, count))
    for reason in ctx.invalid:
        print("  INVALID RUN: " + reason)
    if set(metrics) != set(units):
        print("perfbench: metrics %s differ from BENCHMARK.json"
              % sorted(set(metrics) ^ set(units)), file=sys.stderr)
        return 1
    result = {
        "correct": ctx.tally.failed == 0 and not ctx.invalid,
        "attempted": ctx.tally.attempted,
        "failed": ctx.tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
