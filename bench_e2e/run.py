#!/usr/bin/env python3
"""Builds bench_e2e from this checkout, then runs it with the given flags.

Usage, from the repository root:
  python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds the benchmark package (this directory's
CMakeLists.txt, which compiles ../src) into $CARGO_TARGET_DIR/bench_e2e, or
.bench_build/bench_e2e when the variable is unset; later calls only re-check
the build. Build output goes to stderr, so the last line on stdout is the
benchmark's JSON result. FCA_* variables are dropped so the environment
cannot change a workload, and TMPDIR points into bench_out/ so every file the
run writes stays inside the checkout.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850


def build(build_dir, env):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
                       stdout=sys.stderr, env=env, check=True,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", build_dir, "-j",
                    str(os.cpu_count() or 1), "--target", "bench_e2e"],
                   stdout=sys.stderr, env=env, check=True,
                   timeout=BUILD_TIMEOUT_S)


def main():
    build_root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(build_root), "bench_e2e")
    out_dir = os.path.join(ROOT, "bench_out")
    env = {k: v for k, v in os.environ.items() if not k.startswith("FCA_")}
    env["TMPDIR"] = os.path.join(out_dir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    try:
        build(build_dir, env)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"run.py: building bench_e2e failed: {e}", file=sys.stderr)
        return 1
    cmd = [os.path.join(build_dir, "bench_e2e"),
           "--spec", os.path.join(ROOT, "BENCHMARK.json"),
           "--out-dir", out_dir, *sys.argv[1:]]
    os.chdir(ROOT)
    os.execve(cmd[0], cmd, env)


if __name__ == "__main__":
    sys.exit(main())
