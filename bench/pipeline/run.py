#!/usr/bin/env python3
"""Build pipeline_bench from source and run it on one workload or all.

    python3 bench/pipeline/run.py --workload NAME|all --seed N
        [--seconds S] [--trace 0|1] [--scale F] [--json FILE]
        [--trace-out FILE] [--describe] [--binary PATH]

Run from any directory inside a checkout.  The package builds into
$CARGO_TARGET_DIR (default: .bench_build at the repository root); a
build that is up to date costs a second.  Build output goes to stderr,
so the last stdout line is always the result object

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

of the one workload, or for `all` the combined result with metrics named
<workload>/<metric>.  --json writes the end-to-end metrics as a
tzgeo-bench-v1 report whose rows carry max_ratio = 1 + the bound from
BENCHMARK.json, for tools/tzgeo_bench_diff.  --binary runs a prebuilt
pipeline_bench instead of building.  The exit code is 0 only when the
build succeeded and every operation was correct.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ["forum-dump", "twitter-crowd", "investigate", "live-monitor"]
RUN_TIMEOUT_S = 170


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()


def build():
    out = build_dir()
    if not any((out / name).exists() for name in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(out), "--target", "pipeline_bench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return out / "pipeline_bench"


def bounded_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def run_workload(binary, workload, args):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.scale != 1.0:
        cmd += ["--scale", str(args.scale)]
    golden = HERE / f"expected_seed{args.seed}.json"
    if golden.exists():
        cmd += ["--golden", str(golden)]
    if args.describe:
        cmd += ["--describe"]
    if args.trace_out:
        cmd += ["--trace-out", f"{args.trace_out}.{workload}" if args.workload == "all"
                else args.trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {workload} ran longer than {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if args.describe:
        print("\n".join(lines))
        return proc.returncode, None, None
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"run.py: {workload} printed no result (exit {proc.returncode})")
    return proc.returncode, result, lines[-1]


def check_names(workload, result, expected):
    names = [m["name"] for m in expected]
    if sorted(result["metrics"]) != sorted(names):
        sys.exit(f"run.py: {workload} metrics differ from BENCHMARK.json")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--json", help="write a tzgeo-bench-v1 report (end-to-end metrics)")
    parser.add_argument("--trace-out", help="write the traced run's spans as JSON")
    parser.add_argument("--describe", action="store_true")
    parser.add_argument("--binary", help="pipeline_bench to run instead of the built one")
    args = parser.parse_args()
    if args.json and args.trace:
        parser.error("--json reports the end-to-end metrics of --trace 0 runs")

    try:
        binary = Path(args.binary) if args.binary else build()
        end_to_end, per_layer = bounded_metrics()
    except (subprocess.CalledProcessError, OSError, ValueError, KeyError) as error:
        sys.exit(f"run.py: cannot build or find the benchmark: {error}")

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    last_line = None
    status = 0
    for workload in workloads:
        code, result, last_line = run_workload(binary, workload, args)
        status = status or code
        if result is not None:
            check_names(workload, result, per_layer if args.trace else end_to_end)
            results[workload] = result
    if args.describe:
        return status

    if args.json:
        bounds = {m["name"]: m["bound"] for m in end_to_end}
        rows = [{"name": f"{w}/{name}", "unit": m["unit"], "value": m["value"],
                 "max_ratio": 1 + bounds[name]}
                for w, r in results.items() for name, m in r["metrics"].items()]
        report = {"schema": "tzgeo-bench-v1", "binary": "pipeline_bench", "results": rows}
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")

    if len(results) == 1:
        print(last_line)
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }))
    return status


if __name__ == "__main__":
    sys.exit(main())
