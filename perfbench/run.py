#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--size full|tiny]

Run from the repository root. Builds the program's `paper-report` binary and
this directory's `mp-perfbench` package in release mode (offline, into
$CARGO_TARGET_DIR, default `.bench_build`), then runs the workload. The last
line of standard output is the result object; see README.md in this
directory.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def source_revision(root):
    """The git revision, or outside a git repository a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "src", "vendor", "perfbench"):
        path = os.path.join(root, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = sorted(os.path.join(d, f) for d, _, names in os.walk(path) for f in names)
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isdir(os.path.join(root, "crates", "bench"))):
        sys.stderr.write("error: run from the repository root: the program's sources "
                         "(Cargo.toml, crates/) are not here\n")
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    env.setdefault("MP_BENCH_GIT_REV", source_revision(root))
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "mp-bench", "--bin", "paper-report"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for command in builds:
        # Build output goes to stderr; stdout carries only the result.
        if subprocess.run(command, env=env, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("error: build failed: %s\n" % " ".join(command))
            return 1
    release = os.path.join(target, "release")
    # A relative state directory keeps the daemon's unix socket path short.
    state = os.path.relpath(os.path.join(target, "perfbench"), root)
    bench = os.path.join(release, "mp-perfbench")
    argv = [bench, *sys.argv[1:],
            "--paper-report", os.path.join(release, "paper-report"),
            "--state-dir", state]
    return subprocess.run(argv, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
