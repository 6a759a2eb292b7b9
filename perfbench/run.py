#!/usr/bin/env python3
"""Build the store from source and run one benchmark workload.

    python3 perfbench/run.py --workload kv-mixed --seed 1 --seconds 10 --trace 0

Run from the root of a source tree. The benchmark program is a dune
package of its own (perfbench/ledger/). It is built in a separate
workspace under .bench_build/: a copy of the store's lib/ and bin/ plus
the package's modules, under the package's dune-project. Then
ledger.exe runs in a process group of its own. Whatever it started is
killed and waited for before this script exits. The last line of
standard output is its JSON result.

--corrupt expected|storage feeds the checks a wrong expected value or a
snapshot total below the replication bound (see selftest.py).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("kv-mixed", "paper-sessions", "bulk-coded")
BUILD_DIR = ".bench_build"
PACKAGE = os.path.join("perfbench", "ledger")
STORE_SOURCES = ("lib", "bin")
TARGETS = ("./bin/store_server.exe", "./perfbench/ledger.exe")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    return code


def stage():
    """Lay out the build workspace: the package's dune-project at its
    root, the store's sources beside it, the package's modules in
    perfbench/. Copies keep their modification times, so dune rebuilds
    only what changed."""
    src = os.path.join(BUILD_DIR, "src")
    os.makedirs(src, exist_ok=True)
    skip = shutil.ignore_patterns("_build", ".*")
    for d in STORE_SOURCES + ("perfbench",):
        shutil.rmtree(os.path.join(src, d), ignore_errors=True)
    for d in STORE_SOURCES:
        shutil.copytree(d, os.path.join(src, d), ignore=skip)
    shutil.copytree(PACKAGE, os.path.join(src, "perfbench"),
                    ignore=shutil.ignore_patterns("_build", ".*", "dune-project"))
    shutil.copy2(os.path.join(PACKAGE, "dune-project"), os.path.join(src, "dune-project"))
    return src


def build(src, out):
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", src, "--build-dir", out,
           "--profile", "release"] + list(TARGETS)
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        return str(e)
    return None if r.returncode == 0 else "dune build exited %d" % r.returncode


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False
    except PermissionError:
        return True


def reap_group(pgid):
    """SIGKILL whatever is left in ledger.exe's process group and wait
    until the group is empty. Returns True if anything was left."""
    if not group_alive(pgid):
        return False
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    deadline = time.time() + 10
    while group_alive(pgid) and time.time() < deadline:
        time.sleep(0.05)
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--corrupt", choices=("expected", "storage"))
    args = p.parse_args()
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    for path in ("lib/store/client.ml", "bin/store_server.ml",
                 os.path.join(PACKAGE, "dune-project")):
        if not os.path.exists(path):
            return fail("no %s here: run from the root of the store's source tree" % path)
    out = os.path.abspath(os.path.join(BUILD_DIR, "build"))
    try:
        err = build(stage(), out)
    except OSError as e:
        err = "staging the build workspace failed: %s" % e
    if err:
        return fail(err)
    ledger = os.path.join(out, "default", "perfbench", "ledger.exe")
    server = os.path.join(out, "default", "bin", "store_server.exe")
    cmd = [ledger, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--server-exe", server,
           "--clk-tck", str(os.sysconf("SC_CLK_TCK"))]
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap_group(proc.pid)
        proc.wait()
        return fail("ledger.exe did not finish within %d s" % RUN_TIMEOUT_S, 3)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    leftovers = reap_group(proc.pid)
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        return fail("ledger.exe exited %d without a result" % proc.returncode, 3)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return fail("ledger.exe's last line is not JSON: %r" % lines[-1][:200], 3)
    if leftovers:
        print("perfbench: processes outlived ledger.exe", file=sys.stderr)
        result["correct"] = False
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
