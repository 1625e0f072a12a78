#!/usr/bin/env python3
"""Repository benchmark: build the driver, run one workload, print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/ (which builds libsattn from src/) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls only rebuild what changed.
Build output goes to stderr. The driver's stdout is passed through; its last
line is the result object, whose metric names and units are checked against
BENCHMARK.json before this script exits 0. Traced runs write a Chrome trace
and a per-layer self-time table under <build dir>/perfbench-out/.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def build_dir() -> Path:
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build() -> Path:
    out = build_dir() / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "-j", jobs, "--target", "perfbench_driver"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return out / "perfbench_driver"


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    driver = build()
    out_dir = build_dir() / "perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.pop("SATTN_TRACE", None)  # the driver switches tracing itself
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", str(out_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: driver exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")

    def fail(why: str) -> None:
        # The driver's output goes to stderr too, so a failed run's log shows why.
        sys.stderr.write(proc.stdout)
        sys.exit(f"perfbench: {why} ({' '.join(cmd)})")

    if proc.returncode not in (0, 1):
        fail(f"driver failed with exit code {proc.returncode}"
             + (" (killed by a signal)" if proc.returncode < 0 else ""))
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the driver's last output line is not a result object")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    expected = declared_metrics(bool(args.trace))
    if printed != expected:
        fail(f"printed metrics {sorted(printed.items())} do not match "
             f"BENCHMARK.json {sorted(expected.items())}")
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.stderr.write("".join(l + "\n" for l in lines if l.startswith("check failed")))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
