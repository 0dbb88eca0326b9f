#!/usr/bin/env python3
"""Builds and runs the vtrain benchmark driver.

    python3 perfbench/run.py --workload mtnlg_dse --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a vtrain checkout.  The first call configures and
builds the library and the driver (Release) under .bench_build/ (or
$CARGO_TARGET_DIR); later calls rebuild incrementally.  The driver's
report goes to stdout; its last line is the JSON result, which this
script checks against BENCHMARK.json before passing it on.  Build logs
go to stderr.

--smoke runs every workload on tiny inputs, untraced and traced, and
checks the result schema, the digest agreement of the traced layer
path with the library's own results, and the oracle comparisons.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures once, then builds incrementally; returns the binary."""
    for needed in ("CMakeLists.txt", "src", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found next to perfbench/: run from a "
                 "full vtrain checkout")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs,
                    "--target", "perfbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def commit_stamp():
    """git HEAD when available, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            return subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                check=True, capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "CMakeLists.txt", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    """Returns the parsed result, or None with a reason on stderr."""
    try:
        result = json.loads(line)
    except ValueError:
        print("perfbench: last line is not JSON", file=sys.stderr)
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: result keys differ", file=sys.stderr)
        return None
    if list(result["metrics"]) != expected_metrics(trace):
        print("perfbench: metric names differ from BENCHMARK.json",
              file=sys.stderr)
        return None
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(
                m["value"], (int, float)):
            print(f"perfbench: malformed metric {name}", file=sys.stderr)
            return None
    return result


def run_driver(binary, argv, trace):
    env = dict(os.environ, PERFBENCH_COMMIT=commit_stamp())
    try:
        proc = subprocess.run([binary] + argv, cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"driver exited with {proc.returncode}")
    result = check_result(lines[-1], trace)
    if result is None:
        fail("driver printed a malformed result")
    return proc.stdout, result


def smoke(binary, args):
    failures = 0
    for workload in ("mtnlg_dse", "mtnlg_batch", "serve_mixed"):
        for trace in (0, 1):
            argv = ["--workload", workload, "--seed", "1", "--seconds", "1",
                    "--trace", str(trace), "--smoke"] + thread_args(args)
            text, result = run_driver(binary, argv, trace)
            traced_ok = trace == 0 or "digest of the spanned layer path " \
                "DIFFERS" not in text
            ok = (result["correct"] and result["failed"] == 0
                  and traced_ok)
            failures += 0 if ok else 1
            print(f"smoke {workload} trace={trace}: "
                  f"{'ok' if ok else 'FAILED'} "
                  f"(attempted {result['attempted']}, "
                  f"failed {result['failed']})")
    print("smoke: " + ("all checks passed" if failures == 0
                       else f"{failures} FAILED"))
    return 0 if failures == 0 else 1


def thread_args(args):
    return ["--dse-threads", str(args.dse_threads),
            "--batch-threads", str(args.batch_threads),
            "--serve-threads", str(args.serve_threads),
            "--client-threads", str(args.client_threads),
            "--open-connections", str(args.open_connections)]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--dse-threads", type=int, default=1)
    p.add_argument("--batch-threads", type=int, default=2)
    p.add_argument("--serve-threads", type=int, default=2)
    p.add_argument("--client-threads", type=int, default=2)
    p.add_argument("--open-connections", type=int, default=8)
    args = p.parse_args()
    if not args.smoke and not args.workload:
        fail("--workload is required (or --smoke)")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")
    if args.smoke:
        return smoke(binary, args)
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    text, _ = run_driver(binary, argv + thread_args(args), args.trace)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
