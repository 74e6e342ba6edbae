#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <search|cp|wire|drift> --seed N \
        --seconds S --trace <0|1>

Builds the planner, the network daemon and the perfbench program from source
into $CARGO_TARGET_DIR (default .bench_build) under the checkout, runs one
workload, and prints the program's detail record followed, as the last line,
by {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics.

On top of the program's own checks this script keeps the exact-count
self-check across runs: the per-class counts (RG expansions or CP branches,
replay calls, SLRG sets, compiled actions) of every run are stored in the
build directory, and a later run of the same build that reports different
counts for the same class fails.  Exit code 0 means every answer was correct.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("search", "cp", "wire", "drift")
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out: Path) -> Path:
    """Configures and builds the perfbench program and the daemon; returns the bin dir."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no planner sources under {ROOT / 'src'}")
    out.mkdir(parents=True, exist_ok=True)
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs, "--target", "perfbench",
                    "sekitei_netd"], check=True, **quiet)
    return out


def expected_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_counts(store: Path, build_id: str, counts: dict) -> list:
    """Compares this run's exact counts with earlier runs of the same build.

    A rebuilt program may legitimately do different work, so the store
    starts over whenever the program binary changes.
    """
    data = json.loads(store.read_text()) if store.is_file() else {}
    seen = data.get("counts", {}) if data.get("build") == build_id else {}
    problems = [f"exact counts of {key} changed across runs: {seen[key]} -> {value}"
                for key, value in counts.items() if key in seen and seen[key] != value]
    if not problems:
        seen.update(counts)
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps({"build": build_id, "counts": seen}, sort_keys=True))
        tmp.replace(store)
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        out = build(build_dir())
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    workdir = out / "run"
    workdir.mkdir(exist_ok=True)
    cmd = [str(out / "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--netd", str(out / "sekitei_netd")]
    # Its own process group, so that a timeout also takes down the daemon the
    # program started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 2
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = stdout.strip().splitlines()
    try:
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"perfbench: program exited {proc.returncode} without a result", file=sys.stderr)
        return 2

    want = expected_metrics(bool(args.trace))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        print(f"perfbench: metrics {sorted(got.items())} do not match BENCHMARK.json "
              f"{sorted(want.items())}", file=sys.stderr)
        return 2

    counts = {f"{args.workload}:{key}": c for key, c in detail.get("counts", {}).items()}
    binary = (out / "perfbench").stat()
    problems = check_counts(out / "counts.json", f"{binary.st_size}-{binary.st_mtime_ns}", counts)
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    if problems:
        result["correct"] = False
    for e in detail.get("errors", []):
        print(f"perfbench: {e}", file=sys.stderr)

    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
