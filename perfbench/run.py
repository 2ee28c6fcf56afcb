#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper-run --seed 1 --seconds 10 --trace 0

The Go benchmark (a module of its own in this directory) is built into
.bench_build/ with the Go build cache, temporary files and module cache
kept there too, so a run reads and writes only inside the checkout. The
benchmark's output is passed through unchanged; its last line is the JSON
result.
"""
import os
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isdir(os.path.join(root, "internal")):
        print("perfbench: run from the repository root (no go.mod or internal/ here)", file=sys.stderr)
        return 2
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "CGO_ENABLED": "0",
    })
    for d in ("gocache", "tmp", "gopath", "config"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    # The benchmark runs in its own process group so that, on a timeout,
    # its load-generator, server and dataset-building children go with it.
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=root, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return_code = 1
    except KeyboardInterrupt:
        return_code = 130
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    return return_code


if __name__ == "__main__":
    sys.exit(main())
