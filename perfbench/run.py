#!/usr/bin/env python3
"""Build and run one workload of the FLARE repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <paper_static|multicell_churn|
        control_plane> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (the FLARE libraries plus the flare_perfbench program)
in Release mode under .bench_build/, then runs it. The last line
of stdout is the result envelope; build output goes to stderr.

BENCHMARK.json at the repository root is the one list of metric names and
units: the program reports values by name, and this script attaches the
units, reports a per-layer metric the workload did not measure as 0 (its
layer does no work there) and fails the run on a name the file does not
list or a missing end-to-end metric.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("paper_static", "multicell_churn", "control_plane")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def metric_specs(trace):
    """(name, unit) of every metric the run must report, in file order."""
    path = ROOT / "BENCHMARK.json"
    try:
        bench = json.loads(path.read_text())
        specs = bench["per_layer" if trace == "1" else "end_to_end"]
        return [(spec["name"], spec["unit"]) for spec in specs]
    except (OSError, ValueError, KeyError, TypeError) as err:
        fail(f"cannot read the metric list from {path}: {err}")


def envelope(raw, trace):
    """The result envelope for the program's last stdout line."""
    try:
        run = json.loads(raw)
        values = run["values"]
        correct = run["correct"] is True
        attempted, failed = int(run["attempted"]), int(run["failed"])
    except (ValueError, KeyError, TypeError) as err:
        fail(f"unreadable result line ({err}): {raw[:200]!r}")
    specs = metric_specs(trace)
    listed = {name for name, _ in specs}
    for name in sorted(set(values) - listed):
        print(f"perfbench: check failed: {name} is not in BENCHMARK.json",
              file=sys.stderr)
        correct = False
    metrics = {}
    for name, unit in specs:
        if name not in values and trace == "0":
            fail(f"the run did not report end-to-end metric {name}")
        metrics[name] = {"value": values.get(name, 0), "unit": unit}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no FLARE sources under {ROOT / 'src'}")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "-j", jobs,
         "--target", "flare_perfbench"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return BUILD_DIR / "flare_perfbench"


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if done.returncode == 0:
            return "git:" + done.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    metric_specs(args.trace)  # fail before building when the file is bad
    binary = build()
    work_dir = BUILD_DIR / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", str(work_dir), "--source-id", source_id()]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail(f"flare_perfbench exited with code {done.returncode}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(envelope(lines[-1], args.trace)), flush=True)


if __name__ == "__main__":
    main()
