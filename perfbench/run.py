#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 perfbench/run.py --workload decode --seed 7 --seconds 15 --trace 0
    python3 perfbench/run.py --write-benchmark-json

On first use it configures and builds perfbench/ (which compiles the
library from the repository's src/) into .bench_build/ at the checkout
root; later runs rebuild incrementally.  It then runs one seeded workload
and relays the benchmark's output: every metric by name and unit, host
provenance (nproc, compiler, build type, session workers, CPU steal share),
and the modeled-output digest.  The last line of standard output is one
JSON object with exactly the keys correct, attempted, failed and metrics.
The exit code is non-zero when the build fails, a value mismatches its
reference, or an operation fails.

--write-benchmark-json regenerates BENCHMARK.json at the checkout root
from the benchmark's metric registry and the workload list below.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_SECONDS = 20
RUN_TIMEOUT_SECONDS = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

# Why each workload exists; the parameters live in the C++ sources and are
# printed by every run.
WORKLOADS = [
    ("decode",
     "closed-loop OPT-125M batch-8 decode on 4 tensor-parallel ranks: "
     "skinny shard-slice kernels, fan-out, prepared-operand cache, "
     "fingerprinting"),
    ("gemm_serving",
     "open-loop 70/30 interactive/batch GEMMs via the SLO scheduler on 4 "
     "data-parallel ranks: wide kernels, admission, EDF, cache always hits"),
    ("conversations",
     "open-loop TokenEngine conversations, 4 MiB/unit MRAM: token engine, "
     "LUT/KV residency and cost charging; modeled only, kernels idle"),
]
# Runnable by the same command but not gated: the fig09/fig10 grid and the
# gap to the paper's ratios.  Its ~5 ms single-threaded units swing with
# the host's other tenants by more than any bound allows (see README.md).
UNGATED_WORKLOADS = ["paper_grid"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("CMakeLists.txt and src/ must sit next to perfbench/ "
             "(run from a full checkout)")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = [cmake, "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if subprocess.run([cmake, "--build", str(BUILD), "-j", jobs,
                       "--target", "perfbench"],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return BUILD / "perfbench"


def run_workload(binary, args):
    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_SECONDS} s")
    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(proc.stdout)
        fail("the benchmark printed no result line")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    return proc.returncode


def write_benchmark_json(binary):
    registry = json.loads(subprocess.run(
        [str(binary), "--list-metrics"], stdout=subprocess.PIPE, text=True,
        check=True).stdout)
    benchmark = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": registry["end_to_end"],
        "per_layer": registry["per_layer"],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark, indent=2) +
                                         "\n")
    print("wrote BENCHMARK.json")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[n for n, _ in WORKLOADS] + UNGATED_WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args()
    if not args.write_benchmark_json and args.workload is None:
        parser.error("--workload is required")
    binary = build()
    if args.write_benchmark_json:
        write_benchmark_json(binary)
        return 0
    return run_workload(binary, args)


if __name__ == "__main__":
    sys.exit(main())
