#!/usr/bin/env python3
"""Builds the lake benchmark in Release and runs one workload.

    python3 lakebench/run.py --workload explore_warm --seed 1 --seconds 20 --trace 0

Run from the repository root (or any checkout of it). The build tree goes
to $CARGO_TARGET_DIR (default .bench_build) under the checkout root, the
lake to .bench_lake/ and the traced run's spans to .bench_trace/; every
run removes its own lake. The benchmark binary's last stdout line is the
result JSON; build output goes to stderr. Extra flags (--corrupt FAMILY)
are passed through. The exit code is nonzero when the build fails, a check
fails, or the run errs.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", build_dir, "--target", "lakebench",
                "-j", jobs]
    # A configured tree re-runs its own configure step when a CMakeLists
    # changes, so later runs only pay for the no-op build check.
    configured = os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
    for cmd in ([compile_] if configured else [configure, compile_]):
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            return None
    return os.path.join(build_dir, "lakebench")


def main(argv):
    if "--workload" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "lakebench")
    binary = build(build_dir)
    if binary is None:
        print("lakebench: build failed", file=sys.stderr)
        return 1
    workload = argv[argv.index("--workload") + 1]
    lake_dir = os.path.join(ROOT, ".bench_lake",
                            "%s-%d" % (workload, os.getpid()))
    trace_dir = os.path.join(ROOT, ".bench_trace")
    try:
        proc = subprocess.run([binary] + argv + ["--lake-dir", lake_dir,
                                                 "--trace-dir", trace_dir])
        return proc.returncode
    finally:
        shutil.rmtree(lake_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(lake_dir))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
