#!/usr/bin/env python3
"""Builds dgsd and the perfbench binary from source, then runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload read_hot|read_cold|write_mix \
        --seed N --seconds S --trace 0|1

Both builds go to $CARGO_TARGET_DIR (default .bench_build); perfbench's
graph files and Unix sockets go to .bench_build/perfbench-work. The last
line of standard output is the JSON result; build output goes to
standard error. Exits non-zero, without a result, if a build fails or
the run finds a wrong answer, a failed request or a no-op delta op.
"""

import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", "Cargo.toml", "-p", "dgs-serve", "--bin", "dgsd"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def reap(pgid):
    """Kills whatever perfbench left in its process group and waits
    until the group is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not build(target):
        return 1
    exe = os.path.join(target, "release")
    cmd = [os.path.join(exe, "perfbench"),
           "--dgsd", os.path.join(exe, "dgsd"),
           "--work", os.path.join(".bench_build", "perfbench-work")] + sys.argv[1:]
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        reap(proc.pid)
    return code


if __name__ == "__main__":
    sys.exit(main())
