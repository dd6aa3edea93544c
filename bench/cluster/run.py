#!/usr/bin/env python3
"""Build the cluster benchmark and run one workload.

    python3 bench/cluster/run.py --workload W --seed N --seconds T --trace 0|1 [--out ROW.json]

Builds bench/cluster, together with the proxy sources under src/ that it
measures, into .bench_build/cluster at the repository root, then runs
cluster_bench and passes its output through. The last line on stdout is
the JSON result: end-to-end metrics with --trace 0, per-layer metrics
with --trace 1. With --trace 1 the client spans are written to
.bench_build/cluster/traces/. Build output goes to stderr.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "cluster"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def configure_and_build():
    """Returns None on success, else the failed command and its output."""
    # Configure on every run: it is quick once cached, and it re-stamps the
    # git sha that every result row carries.
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
    if not (BUILD / "CMakeCache.txt").exists() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", str(BUILD), "--target", "cluster_bench", "-j", jobs]):
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            return " ".join(cmd), done.stdout
    return None


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"the proxy sources are missing ({ROOT / 'src'}); run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    failure = configure_and_build()
    if failure is not None and BUILD.exists():
        # A build tree left by a checkout at another path (CMake refuses a
        # cache made for a different source directory), or by another
        # generator, or half-written by a killed build: start it over once.
        sys.stderr.write(failure[1])
        print(f"run.py: {failure[0]} failed; retrying in a clean {BUILD}", file=sys.stderr)
        shutil.rmtree(BUILD)
        failure = configure_and_build()
    if failure is not None:
        sys.stderr.write(failure[1])
        fail("build failed: " + failure[0])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--out", help="also write the full result row (all metrics, sample counts, checks) here")
    args = parser.parse_args()

    build()
    cmd = [str(BUILD / "cluster_bench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.spans.json")]
    if args.out:
        cmd += ["--out", str(Path(args.out).resolve())]
    sys.stdout.flush()
    try:
        # A disk-tier workload makes its scratch directory in the build tree.
        return subprocess.run(cmd, cwd=BUILD, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"cluster_bench did not finish within {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
