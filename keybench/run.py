#!/usr/bin/env python3
"""Builds keybench from this source tree and runs one workload.

    python3 keybench/run.py --workload distill|kms-fleet|e2e --seed N \
        --seconds S --trace 0|1 [--steps N]

Run it from the repository root. The first call configures and builds a
Release tree under .bench_build/keybench (or $CARGO_TARGET_DIR/keybench when
that variable is set); later calls only rebuild what changed. The workload's
output is passed through, with the context line extended by the source
digest and git revision, and its last line is the result JSON.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return (ROOT / base / "keybench").resolve()


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("keybench: no stack sources next to the benchmark "
                 f"({ROOT / 'src'} is missing); nothing to build")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    with open(log_path, "w") as log:
        steps = [
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", str(out), "-j2", "--target", "keybench"],
        ]
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                sys.stderr.write("\n".join(tail) + "\n")
                sys.exit(f"keybench: build failed (see {log_path})")
    return out / "keybench"


def source_digest():
    """SHA-256 over every file of the stack's sources and the benchmark."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*")
                           if p.is_file() and "__pycache__" not in p.parts):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_revision():
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["distill", "kms-fleet", "e2e"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steps", type=int, default=0)
    args = parser.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--steps", str(args.steps)]
    try:
        result = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("keybench: workload run timed out")
    sys.stderr.write(result.stderr)
    lines = result.stdout.splitlines()
    stamp = (f'"src_sha256": "{source_digest()}", '
             f'"git_sha": "{git_revision()}", ')
    for line in lines:
        if line.startswith("# context {"):
            line = "# context {" + stamp + line[len("# context {"):]
        print(line)
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
