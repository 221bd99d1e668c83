#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is server_records, cluster_strided, cluster_parity, or all (each of
the three in turn).

Run from the repository root.  The first call configures and builds
perfbench/ (the pario sources plus the load generator) into the build
directory named by $CARGO_TARGET_DIR, default .bench_build; later calls
rebuild only what changed.  Every call runs the benchmark's self-tests,
then the load generator, whose last stdout line is the JSON result.  The
exit code is non-zero when the build, a self-test, or the run fails,
including any operation that failed or returned wrong bytes.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("server_records", "cluster_strided", "cluster_parity")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build incrementally; output goes to stderr.
    The compiler's temporary files stay inside the build directory."""
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, cwd=ROOT, env=env)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", "4"],
                   check=True, stdout=sys.stderr, cwd=ROOT, env=env)


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest():
    """sha256 over the library and benchmark sources (path + content)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "cluster" / "cluster.hpp").exists():
        log(f"pario sources not found under {ROOT / 'src'}")
        return 1
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        build(build_dir)
        subprocess.run([str(build_dir / "perfbench_selftest")], check=True,
                       stdout=sys.stderr, timeout=60)
    except (OSError, subprocess.SubprocessError) as e:
        log(f"build or self-test failed: {e}")
        return 1

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        cmd = [str(build_dir / "perfbench"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--git-sha", git_sha(), "--source-digest", source_digest()]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
            status = status or proc.returncode
        except subprocess.TimeoutExpired:
            log(f"{workload} run exceeded {RUN_TIMEOUT_S} s")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
