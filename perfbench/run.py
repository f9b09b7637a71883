#!/usr/bin/env python3
"""Build and run the warp-swp benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload livermore|population|apps|session-repeat \
        [--seed N] [--seconds S] [--trace 0|1] [--population-seed N] \
        [--trace-out FILE]

Configures perfbench/ (a CMake project that builds the library from the
repository's src/ and include/) into .bench_build/ at the repository root,
builds the benchmark, then runs it with the arguments given. The last line
of standard output is the result as one JSON object. With --trace 1 and no
--trace-out, the Chrome trace-event file goes to
.bench_build/trace-<workload>-seed<seed>.json.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "swp_perfbench")


def configured_source():
    """The source directory the build tree was configured from, if any."""
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    for need in ("src/CMakeLists.txt", "include/swp"):
        if not os.path.exists(os.path.join(ROOT, need)):
            sys.stderr.write(
                "run.py: %s not found beside perfbench/; run the benchmark "
                "from a warp-swp checkout\n" % need)
            return False
    source = configured_source()
    if source is not None and os.path.realpath(source) != os.path.realpath(HERE):
        shutil.rmtree(BUILD)
        source = None
    steps = []
    if source is None:
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "swp_perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout.decode(errors="replace"))
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def value_of(args, flag, default):
    for i, arg in enumerate(args[:-1]):
        if arg == flag:
            return args[i + 1]
    return default


def main():
    args = sys.argv[1:]
    if not build():
        return 2
    if value_of(args, "--trace", "0") == "1" and "--trace-out" not in args:
        name = "trace-%s-seed%s.json" % (value_of(args, "--workload", "x"),
                                         value_of(args, "--seed", "1988"))
        args += ["--trace-out", os.path.join(BUILD, name)]
    sys.stdout.flush()
    return subprocess.run([BINARY] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
