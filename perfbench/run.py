#!/usr/bin/env python3
"""Build and run the D-Watch benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload room_walk --seed 1 --seconds 20 --trace 0

Configures the repository's own CMake tree (Release, LTO, no tests,
benches or examples) with the benchmark program attached, builds it, runs
it with the given arguments and passes its output through. The last line
of stdout is the result object. The build tree is $CARGO_TARGET_DIR
(default .bench_build) under the checkout. Extra arguments after the four
above are handed to the program unchanged (e.g. --inject rfid:200).
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """Content hash of the sources the binary is built from."""
    h = hashlib.sha256()
    for top in ("src", os.path.relpath(HERE, ROOT)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".cmake")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def commit_id():
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                                 cwd=ROOT, capture_output=True, text=True,
                                 timeout=10)
            if out.returncode == 0:
                return out.stdout.strip() + "+src:" + source_digest()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return "src:" + source_digest()


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("run from the root of a D-Watch checkout (no CMakeLists.txt/src)")
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    tree = os.path.join(build_root, "dwatch")
    os.makedirs(build_root, exist_ok=True)
    log_path = os.path.join(build_root, "build.log")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", tree,
                      "-DCMAKE_BUILD_TYPE=Release", "-DDWATCH_LTO=ON",
                      "-DDWATCH_BUILD_TESTS=OFF", "-DDWATCH_BUILD_BENCH=OFF",
                      "-DDWATCH_BUILD_EXAMPLES=OFF",
                      "-DCMAKE_PROJECT_dwatch_INCLUDE="
                      + os.path.join(HERE, "attach.cmake")])
    steps.append(["cmake", "--build", tree, "--target", "dwatch_perfbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=880).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step failed to run: {e}")
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed: {' '.join(cmd)} (see {log_path})")
    binary = os.path.join(tree, "perfbench", "dwatch_perfbench")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return binary


def main():
    args = sys.argv[1:]
    if "--workload" not in args:
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1")
    binary = build()
    cmd = [binary, *args, "--commit", commit_id()]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.exit(rc)


if __name__ == "__main__":
    main()
