#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload table_rows --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --smoke

Every argument is passed to the perfbench binary. The Go build cache, the
binary and everything the benchmark writes stay under .bench_build/ in the
current directory. The exit code is the benchmark's; a failed build exits
with 2 and prints no result.
"""

import ctypes
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    root = os.getcwd()
    work = os.path.join(root, ".bench_build")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(work, "gocache"),
        "GOMODCACHE": os.path.join(work, "gomodcache"),
        "GOPATH": os.path.join(work, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(work, "config"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GO111MODULE": "on",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(work, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    def die_with_parent():
        ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG

    args = [binary] + sys.argv[1:]
    child = subprocess.Popen(args, cwd=root, env=env, preexec_fn=die_with_parent)

    def forward(signum, _frame):
        child.send_signal(signum)

    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
