#!/usr/bin/env python3
"""Build and run the judge benchmark from the root of a checkout.

    python3 wdtpbench/run.py --workload resident|fresh|routed --seed N \
        --seconds S --trace 0|1

Builds the repository's `serve_judge` and this directory's `wdtpbench`
package (release, offline) into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs one workload. The last line of standard output
is the JSON result; the line before it records the run's metadata. Exits
non-zero, printing no result, when the judge cannot be built or run, and
with code 1 after printing the result when any verdict was wrong.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path("wdtpbench")
JUDGE_PACKAGE = Path("crates/server/Cargo.toml")


def build(target_dir, *cargo_args):
    """Runs one quiet release build; its output goes to stderr."""
    command = ["cargo", "build", "--release", "--offline", "--quiet", *cargo_args]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    done = subprocess.run(command, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"run.py: `{' '.join(command)}` failed with exit code {done.returncode}")


def source_revision():
    """The git commit when there is one; otherwise a digest of the sources."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
        if done.returncode == 0:
            return done.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(Path("crates").rglob("*")):
        if path.is_file() and path.suffix in (".rs", ".toml"):
            digest.update(str(path).encode())
            digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["resident", "fresh", "routed"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not JUDGE_PACKAGE.is_file() or not (BENCH_DIR / "Cargo.toml").is_file():
        sys.exit(f"run.py: run from the root of a checkout: {JUDGE_PACKAGE} is missing")
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    build(target_dir, "-p", "wdte-server", "--bin", "serve_judge")
    build(target_dir, "--manifest-path", str(BENCH_DIR / "Cargo.toml"))

    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    command = [
        str(target_dir / "release" / "wdtpbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--judge-bin", str(target_dir / "release" / "serve_judge"),
        "--build-dir", str(target_dir / "wdtpbench"),
        "--commit", source_revision(),
        "--rustc", rustc or "unknown",
    ]
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
