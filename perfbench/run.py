#!/usr/bin/env python3
"""Build and run one perfbench workload from the root of a source tree.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune (dev profile, the tree's default),
runs it, and relays its report; the last line of standard output is the
result JSON.  Exits non-zero without a result when the tree cannot be
built.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
PROFILE = "dev"
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
SPANS_DIR = os.path.join("perfbench", "out")


def source_digest(root):
    """Digest of the simulator's sources: the revision stamp when the tree
    is not a git checkout."""
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "out")
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def revision(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=root, env=env, capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return source_digest(root)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    root = os.getcwd()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the root of the source tree")
    # Keep every dune side effect inside the tree.
    env = dict(os.environ,
               DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.join(root, "_build", ".cache"))
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--profile", PROFILE,
             "--display", "quiet", "./perfbench/main.exe"],
            env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: build timed out")
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", revision(root), "--profile", PROFILE]
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            SPANS_DIR, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    try:
        run = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
