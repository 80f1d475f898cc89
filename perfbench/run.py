#!/usr/bin/env python3
"""PrivIM benchmark: builds the program from source, runs one workload and
prints its metrics.

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The last line of standard output is one
JSON object: {"correct": ..., "attempted": ..., "failed": ..., "metrics":
{name: {"value": v, "unit": u}}}. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics
(a layer the workload does not exercise reads 0). The line before it holds
the host context: CPU, build type, thread counts, source revision and a
spin-loop probe timed before and after the run. The exit code is 0 only
when every output check passed.

The build goes to $CARGO_TARGET_DIR (default .bench_build) inside the
checkout; generated inputs go to a per-run directory under it that is
removed afterwards. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PREP_TIMEOUT_S = 40
RUN_TIMEOUT_S = 130


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        fail("cannot read %s: %s" % (path, err))


def build(build_dir):
    """Configures once, then builds the binary (a no-op when up to date)."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("the program's sources (CMakeLists.txt, src/) are not here")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", "4"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def source_revision():
    """The git commit, or a digest of the sources when there is no git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def check_metrics(metrics, expected):
    """Every metric must be declared with its unit; declared per-layer
    metrics the workload does not measure read 0."""
    for name, metric in metrics.items():
        if name not in expected:
            fail("undeclared metric " + name)
        if metric["unit"] != expected[name]:
            fail("metric %s has unit %s, declared %s" %
                 (name, metric["unit"], expected[name]))
    return {name: metrics.get(name, {"value": 0, "unit": unit})
            for name, unit in expected.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    configs = load_json(os.path.join(HERE, "workloads.json"))
    if args.workload not in configs or args.workload not in [
            w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    config = json.dumps(configs[args.workload])
    layer = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[layer]}

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    binary = build(build_dir)
    work = os.path.join(build_dir, "work", "%s-%d-%d" %
                        (args.workload, args.seed, os.getpid()))
    os.makedirs(work, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", work, "--config", config]
    try:
        prep = subprocess.run([binary, "prep"] + common, cwd=ROOT,
                              timeout=PREP_TIMEOUT_S)
        if prep.returncode != 0:
            fail("input preparation failed")
        run = subprocess.run(
            [binary, "run", "--seconds", str(args.seconds),
             "--trace", str(args.trace)] + common,
            cwd=ROOT, timeout=RUN_TIMEOUT_S, capture_output=True, text=True)
    except subprocess.TimeoutExpired as err:
        fail("timed out: %s" % err)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail("the run failed")
    result = json.loads(lines[-1])

    context = result.get("context", {})
    context.update({"workload": args.workload, "seed": args.seed,
                    "trace": args.trace, "cpu": cpu_model(),
                    "revision": source_revision()})
    if "error" in result:
        context["error"] = result["error"]
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": check_metrics(result["metrics"], expected),
    }))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
