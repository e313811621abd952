#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark and the achilles CLI
from source with dune, runs one workload, and relays its output; the last
line is one JSON object with the keys correct, attempted, failed, metrics.
Exits non-zero, printing no result, when the tree cannot be built or the
run fails.
"""

import argparse
import os
import signal
import subprocess
import sys

BENCH = "_build/default/perfbench/bench.exe"
CLI = "_build/default/bin/achilles_cli.exe"
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def stop_group(proc):
    """SIGTERM the run's process group, SIGKILL after a grace period."""
    for sig, grace in ((signal.SIGTERM, 3), (signal.SIGKILL, None)):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            return
        try:
            proc.wait(timeout=grace)
            return
        except subprocess.TimeoutExpired:
            pass
    proc.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    achilles = sorted(k for k in os.environ if k.startswith("ACHILLES_"))
    if achilles:
        fail("refusing to measure with " + ", ".join(achilles) + " set", 2)
    for needed in ("dune-project", "lib", "bin", "perfbench/dune"):
        if not os.path.exists(needed):
            fail(f"{needed} not found: run from the repository root", 2)

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./bin/achilles_cli.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}", 3)
    if build.returncode != 0:
        fail("build failed", 3)

    cmd = [BENCH, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--cli", CLI]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        fail(f"no result within {RUN_TIMEOUT}s", 4)
    except BaseException:
        stop_group(proc)
        raise
    # the run reaps its own children; this catches any it could not
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if proc.returncode != 0:
        fail(f"run failed with exit code {proc.returncode}", 1)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
