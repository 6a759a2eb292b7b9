#!/usr/bin/env python3
"""Show that the benchmark's checks fail when they should.

    python3 perfbench/selftest.py

Runs paper-sessions three times for one second each: once clean (must
report correct), once with a corrupted expected value in the model, and
once with a snapshot total below the replication bound (both must
report not correct). Exits 0 only if all three behave.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "paper-sessions",
           "--seed", "1", "--seconds", "1", "--trace", "0"] + extra
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        print("run %s exited %d without a result" % (extra, r.returncode))
        return None
    checks = [l for l in r.stderr.splitlines() if l.startswith("check failed")]
    return json.loads(lines[-1])["correct"], checks


def main():
    ok = True
    for extra, want in (([], True), (["--corrupt", "expected"], False),
                        (["--corrupt", "storage"], False)):
        got = run(extra)
        if got is None:
            return 1
        correct, checks = got
        verdict = "ok" if correct == want else "WRONG"
        ok = ok and correct == want
        print("%-24s correct=%-5s (want %s) %s" % (" ".join(extra) or "clean", correct, want, verdict))
        for c in checks[:2]:
            print("    " + c)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
