#!/usr/bin/env python3
"""Build and run the serving benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (its own
Cargo workspace, path-depending on the repository crates) in release
mode into $CARGO_TARGET_DIR (default `.bench_build`), then runs the
untraced binary (`--trace 0`: end-to-end metrics) or the traced one
(`--trace 1`: per-layer metrics). The last line of standard output is
the JSON result; earlier lines carry provenance. Exits non-zero without
a result when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("spanner_serve", "durable_small")


def source_digest():
    """SHA-256 over the sources the benchmark builds (a git rev stand-in
    for checkouts that are not git repositories)."""
    h = hashlib.sha256()
    for top in ("crates", "vendor", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "target" and not d.startswith("."))
            for f in sorted(filenames):
                if f.endswith((".rs", ".toml", ".lock")):
                    p = os.path.join(dirpath, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def git_rev():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        return out.stdout.strip() if out.returncode == 0 else "none (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        return "none (git unavailable)"


def fs_type(path):
    """Filesystem type of the mount holding `path` (from /proc/self/mounts)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) >= 3 and path.startswith(parts[1]) and len(parts[1]) > len(best):
                    best, kind = parts[1], parts[2]
    except OSError:
        pass
    return kind


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest, "--bins"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
        timeout=850,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".bench_scratch")
    os.makedirs(scratch, exist_ok=True)
    env["PERFBENCH_GIT_REV"] = git_rev()
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    env["PERFBENCH_SCRATCH_FS"] = fs_type(scratch)
    exe = os.path.join(target, "release", "perfbench_traced" if args.trace else "perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--scratch", ".bench_scratch"]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=170)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        print(f"perfbench: run failed (exit {run.returncode})", file=sys.stderr)
        return run.returncode or 4
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(run.stdout)
        print("perfbench: last line is not JSON", file=sys.stderr)
        return 5
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
