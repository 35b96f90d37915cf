#!/usr/bin/env python3
"""Build and run wavebench, the campaign-level benchmark of wavedyn.

Run from the root of a wavedyn checkout:

    python3 wavebench/run.py --workload suite-cold --seed 1 --seconds 25 --trace 0

The first run configures and builds wavebench/CMakeLists.txt (Release)
into .bench_build/wavebench, or into $CARGO_TARGET_DIR/wavebench when
that is set; later runs only rebuild what changed. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result. The
exit code is the benchmark's (0 = every check passed).

    python3 wavebench/run.py --workload suite-cold --seed 1 --cli-check

instead builds wavedyn_cli as well and checks that `wavedyn_cli run` on
the workload's campaign spec prints byte-for-byte the report the
benchmark measured (suite-cold and explore-sweep).
"""

import argparse
import filecmp
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("suite-cold", "suite-warm", "explore-sweep")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "wavebench")


def build(targets):
    out = build_dir()
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not any(os.path.exists(os.path.join(out, f))
               for f in ("build.ninja", "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       stdout=sys.stderr, check=True)
    par = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "--parallel", par,
                    "--target"] + targets, stdout=sys.stderr, check=True)
    return out


def cli_check(args, out):
    work = os.path.join(out, "work")
    emit = os.path.join(work, "cli-check")
    shutil.rmtree(emit, ignore_errors=True)
    bench = subprocess.run(
        [os.path.join(out, "wavebench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "1", "--trace", "0",
         "--work-dir", work, "--emit", emit],
        stdout=sys.stderr)
    if bench.returncode != 0:
        return bench.returncode
    spec = os.path.join(emit, args.workload + ".spec.json")
    want = os.path.join(emit, args.workload + ".report.txt")
    got = os.path.join(emit, args.workload + ".cli.txt")
    with open(got, "wb") as sink:
        cli = subprocess.run(
            [os.path.join(out, "wavedyn_cli"), "run", spec, "--jobs", "2",
             "--no-cache"], stdout=sink, stderr=sys.stderr)
    same = cli.returncode == 0 and filecmp.cmp(want, got, shallow=False)
    print("cli-check %s seed=%d: wavedyn_cli run report %s the benchmark's"
          % (args.workload, args.seed, "equals" if same else "DIFFERS from"))
    return 0 if same else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--cli-check", action="store_true")
    args = p.parse_args()

    try:
        out = build(["wavebench", "wavedyn_cli"] if args.cli_check
                    else ["wavebench"])
    except (OSError, subprocess.CalledProcessError) as err:
        print("wavebench: build failed: %s" % err, file=sys.stderr)
        return 1
    if args.cli_check:
        return cli_check(args, out)

    cmd = [os.path.join(out, "wavebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", os.path.join(out, "work")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
