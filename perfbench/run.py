#!/usr/bin/env python3
"""Build and run one perfbench workload from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe and bin/cc_serve.exe with dune (build output goes
to stderr), runs the workload, and passes its standard output through: the
last line is one JSON object {correct, attempted, failed, metrics}. The
printed metric names are checked against BENCHMARK.json. A fuller record of
each run, and the Chrome trace of a traced run, are written to
_perfbench_out/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

OUT_DIR = "_perfbench_out"
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170
REQUIRED = ["dune-project", "lib", "bin/cc_serve.ml", "perfbench/dune", "BENCHMARK.json"]


def die(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_rev():
    """The git revision, or a digest of the sources when this is no git
    checkout, so every result names the code it measured."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    for top in ("lib", "bin", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli", "dune")):
                    path = os.path.join(root, name)
                    digest.update(path.encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    and wait for it."""
    proc = subprocess.Popen(cmd, process_group=0, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die(5, "%s did not finish within %d s" % (cmd[0], timeout))
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        die(3, "not at the root of a repository checkout (missing %s)" % ", ".join(missing))
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(2, "unknown workload %r" % args.workload)

    code, _ = run_group(
        ["dune", "build", "--root", ".", "./perfbench/main.exe", "./bin/cc_serve.exe"],
        BUILD_TIMEOUT_S,
        stdout=sys.stderr,
    )
    if code != 0:
        die(4, "build failed")

    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [
        os.path.join("_build", "default", "perfbench", "main.exe"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--serve-exe", os.path.join("_build", "default", "bin", "cc_serve.exe"),
        "--out", OUT_DIR,
        "--git-rev", source_rev(),
    ]
    code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(out)
    sys.stdout.flush()

    lines = out.strip().splitlines()
    if not lines:
        die(6, "the workload printed nothing")
    result = json.loads(lines[-1])
    kind = "per_layer" if args.trace == "1" else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[kind]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if result["correct"] and got != want:
        die(7, "printed metrics do not match BENCHMARK.json %s" % kind)
    sys.exit(code)


if __name__ == "__main__":
    main()
