#!/usr/bin/env python3
"""Build molocd and molocbench from this checkout, then run one workload.

    python3 perfbench/run.py --workload hall-walk --seed 1 --seconds 10 --trace 0

Run it from the repository root.  Build output goes to stderr; the last
line of stdout is molocbench's JSON result.  Everything the run writes
stays under the build directory (``$CARGO_TARGET_DIR`` when set, else
``.bench_build``).  The exit code is molocbench's: nonzero when any
answer was wrong, the build failed, or the run did not finish in time.
See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# One run must finish within 180 s of its start once built.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    """Configures (once) and builds molocd and molocbench; False on error."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "molocbench", "molocd"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return False
    return True


def source_stamp():
    """(git sha or 'none', sha256 over every file under src/)."""
    sha = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if got.returncode == 0:
            sha = got.stdout.strip()
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return sha, digest.hexdigest()[:16]


def reap_group(pgid):
    """Kills whatever is left of the run's process group and waits."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--net-threads", default="2",
                        help="molocd --net-threads")
    parser.add_argument("--threads", default="1", help="molocd --threads")
    parser.add_argument("--smoke", action="store_true",
                        help="quick functional run; never recordable")
    parser.add_argument("--record", default="",
                        help="also write the machine-stamped result here")
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        print("run.py: build failed", file=sys.stderr)
        return 1
    sha, digest = source_stamp()
    work = os.path.join(out, "work", "%s-%d" % (args.workload, os.getpid()))
    traces = os.path.join(out, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(out, "molocbench"),
           "--molocd", os.path.join(out, "moloc", "molocd"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--net-threads", args.net_threads, "--threads", args.threads,
           "--work-dir", work, "--git-sha", sha, "--src-digest", digest,
           "--spans", os.path.join(traces, args.workload + ".spans.tsv")]
    if args.smoke:
        cmd.append("--smoke")
    if args.record:
        cmd += ["--record", os.path.abspath(args.record)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        reap_group(proc.pid)
        stdout, _ = proc.communicate()
        print("run.py: molocbench exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        code = 1
    finally:
        reap_group(proc.pid)
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(stdout if stdout.endswith("\n") or not stdout
                     else stdout + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
