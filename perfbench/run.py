#!/usr/bin/env python3
"""Build the benchmark from source, run one workload, record the machine.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `perfbench` and the `ccserve` daemon in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs the workload, and passes
its output through: the last line of standard output is the JSON result.
Each result is also appended, together with the machine it was measured on
(commit, nproc, date, rustc), to `<target dir>/perfbench/results.jsonl`.
Exits non-zero when the build fails, the result is missing, or a
correctness gate failed; with the benchmark's own code 3, and no result,
when the run was invalid because its load generator fell behind.
"""

import datetime
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """The commit when run in a git checkout, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("crates", "perfbench", "Cargo.toml", "Cargo.lock"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for base, dirs, names in os.walk(path):
            dirs.sort()
            files.extend(os.path.join(base, n) for n in sorted(names))
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:16]


def machine():
    try:
        rustc = subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rustc = "unknown"
    return {
        "commit": source_id(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "rustc": rustc,
    }


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    out_dir = os.path.join(target, "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    binary = os.path.join(target, "release", "perfbench")
    run = subprocess.run(
        [binary, *sys.argv[1:], "--out", out_dir], env=env, stdout=subprocess.PIPE, text=True
    )
    lines = run.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(run.stdout)
        fail(f"no result line (exit {run.returncode})", run.returncode or 1)

    host = machine()
    with open(os.path.join(out_dir, "results.jsonl"), "a") as fh:
        fh.write(json.dumps(dict(host, args=sys.argv[1:], result=result)) + "\n")
    for line in lines[:-1]:
        print(line)
    print("machine: " + json.dumps(host))
    print(lines[-1])
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
