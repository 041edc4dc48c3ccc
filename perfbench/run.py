#!/usr/bin/env python3
"""Build and run syncsim's performance ledger (the Go program in this directory).

Run from the repository root:

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 10 --trace 0

The program is built into .bench_build/ with its Go build cache, temporary
files and telemetry counters there too, so a run writes only inside the
checkout. Every argument is passed through; the last line of standard output
is the run's JSON result. A failed build exits 1 without printing a result.
"""

import os
import signal
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    binary = os.path.join(build, "perfbench", "perfbench")
    env = dict(os.environ)
    env.update(
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOWORK="off",
        CGO_ENABLED="0",
        GOMAXPROCS="2",
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        # The go command keeps its telemetry counters under the user
        # config directory; keep them inside the checkout too.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)

    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    child = subprocess.Popen([binary] + sys.argv[1:], cwd=root, env=env)

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
