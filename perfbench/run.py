#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe and bin/batfish_cli.exe with dune, runs the named
workload in its own process, and relays its output. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. Files the run writes (configs, result.json, layer table,
Chrome trace) go under perfbench/out/. Exits non-zero without printing a
result when the sources are missing, the build fails or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def commit():
    """The checked-out commit, when this is a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def reap_group(pgid):
    """Kill whatever is left of a process group (a daemon the workload
    failed to stop) and wait, up to a few seconds, until it is gone."""
    deadline = time.time() + 5
    while time.time() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        except PermissionError:
            return
        time.sleep(0.05)


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group and make sure nothing of the group
    outlives it (the serve workload starts a daemon)."""
    p = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kw)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        reap_group(p.pid)
        p.communicate()
        fail("timed out after %d s: %s" % (timeout, " ".join(cmd)))
    reap_group(p.pid)
    return p.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--domains", type=int, help="engine domains (default: nproc; more is refused)")
    ap.add_argument("--clients", type=int, help="serve load generators (default: min(2, nproc))")
    args = ap.parse_args()

    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s at %s: run from the root of a source checkout" % (need, ROOT))

    # no shared dune cache: the build reads and writes inside the checkout only
    build_env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run_group(["dune", "build", "--root", ".", "./perfbench/main.exe",
                         "./bin/batfish_cli.exe"], BUILD_TIMEOUT_S,
                        stdout=sys.stderr, env=build_env)
    if code != 0:
        fail("build failed")

    cmd = [os.path.join("_build", "default", "perfbench", "main.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", os.path.join("_build", "default", "bin", "batfish_cli.exe"),
           "--out", os.path.join("perfbench", "out"), "--commit", commit()]
    if args.domains is not None:
        cmd += ["--domains", str(args.domains)]
    if args.clients is not None:
        cmd += ["--clients", str(args.clients)]
    env = dict(os.environ)
    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    env["OCAML_RUNTIME_EVENTS_DIR"] = out_dir  # ring file of the traced run
    code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True, env=env)
    lines = out.rstrip("\n").split("\n") if out else []
    if code != 0 or not lines:
        sys.stdout.write(out or "")
        fail("workload exited with code %d" % code)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        fail("last line is not a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result keys: %s" % sorted(result))
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
