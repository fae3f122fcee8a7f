#!/usr/bin/env python3
"""Build and run the libmframe end-to-end benchmark.

    python3 perfbench/run.py --workload <paper_signoff|nn_synth|iterate>
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout. The benchmark is built from source
(Release) under .bench_build/ in that checkout; the first run builds it.
The last line of standard output is the result object. See README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_signoff", "nn_synth", "iterate")
DEFAULT_SEEDS = {"paper_signoff": 1, "nn_synth": 42, "iterate": 7}


def git(*args):
    """Output of a git command in the checkout, or None outside git."""
    try:
        out = subprocess.run(["git", "-C", ROOT] + list(args),
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_id():
    """Commit of the checkout, or a digest of its sources outside git.

    A work tree with uncommitted changes is named by its commit plus the
    digest of the sources it runs."""
    head = git("rev-parse", "HEAD")
    if head is None:
        return sources_digest()
    if git("status", "--porcelain", "--", "src", "perfbench"):
        return head + "+" + sources_digest()
    return head


def sources_digest():
    """Digest of src/ and perfbench/."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def build(build_dir):
    """Configure (once) and build the benchmark; returns the binary path."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=840).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("perfbench: build failed (%s)" % " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    seed = DEFAULT_SEEDS[a.workload] if a.seed is None else a.seed
    if seed < 0:
        p.error("--seed must be non-negative")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no libmframe sources at %s/src; run from the "
                 "root of a full checkout" % ROOT)
    build_root = os.path.join(ROOT, ".bench_build")
    binary = build(os.path.join(build_root, "perfbench"))
    cmd = [binary, "--workload", a.workload, "--seed", str(seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--root", ROOT, "--workdir", os.path.join(build_root, "run"),
           "--commit", source_id()]
    sys.stdout.flush()
    result = subprocess.run(cmd, timeout=170)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
