#!/usr/bin/env python3
"""Build the perfbench program from this checkout's sources and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Go build cache, temporary files and the binary go under the directory
named by CARGO_TARGET_DIR (default .bench_build), so nothing is written
outside the checkout. Without the repository's sources the build fails and
this script exits non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")


def main():
    go = shutil.which("go")
    if go is None:
        sys.exit("perfbench: the go toolchain is not on PATH")
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ)
    # Runtime tuning from the caller's environment would change what is
    # measured; the program sets its own GOMAXPROCS.
    for var in ("GOGC", "GOMEMLIMIT", "GODEBUG", "GOMAXPROCS", "GOFLAGS"):
        env.pop(var, None)
    dirs = {
        "GOCACHE": "gocache",
        "GOPATH": "gopath",
        "GOTMPDIR": "tmp",
        "TMPDIR": "tmp",
        "XDG_CONFIG_HOME": "config",
    }
    for var, sub in dirs.items():
        env[var] = os.path.join(out, sub)
        os.makedirs(env[var], exist_ok=True)
    env["GOTOOLCHAIN"] = "local"
    env["GOWORK"] = "off"
    env["CGO_ENABLED"] = "0"

    binary = os.path.join(out, "perfbench")
    build = subprocess.run([go, "build", "-o", binary, "."], cwd=BENCH, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    sys.stdout.flush()
    run = subprocess.run([binary, "--out", os.path.join(out, "trace")] + sys.argv[1:],
                         cwd=ROOT, env=env)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
