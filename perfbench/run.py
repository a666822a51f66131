#!/usr/bin/env python3
"""Build and run the ENT end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 20 --trace 0

Builds the release `ent-serve` daemon from the workspace and the
`perfbench` binary (its own package in this directory) into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs the binary with the
same arguments. The last line of standard output is the result object;
see NOTES.md for the workloads and metrics. Exits non-zero, printing no
result, when the build fails, a correctness gate fails or the run is
invalid.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target_abs = target if os.path.isabs(target) else os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target_abs)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "ent-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if not os.path.isfile(os.path.join(root, "Cargo.toml")):
            print("perfbench: run from the repository root (no Cargo.toml here)", file=sys.stderr)
            return 2
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, timeout=850)
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 2
    commit = "unknown"
    try:
        # Stop at the checkout: a checkout that is not a repository of its
        # own must not report an enclosing repository's commit.
        git_env = dict(env, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                               text=True, timeout=10, env=git_env)
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    release = os.path.join(target_abs, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--serve-bin", os.path.join(release, "ent-serve"),
           "--out-dir", os.path.join(target_abs, "perfbench"),
           "--commit", commit]
    return subprocess.run(cmd, cwd=root, env=env, timeout=175).returncode


if __name__ == "__main__":
    sys.exit(main())
