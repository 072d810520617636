#!/usr/bin/env python3
"""Troxy benchmark: builds the driver from source and runs one workload.

    python3 perfbench/run.py --workload ordered-writes --seed 1 --seconds 10 --trace 0

Run from the repository root. Without --workload every workload runs in
turn. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics that
BENCHMARK.json names (--trace 0), or its per-layer metrics (--trace 1).
host_us_per_req is listed with the per-layer metrics and taken from the
untraced run.

--trace 1 runs the workload twice: untraced with the normal build, then
traced (spans around every call into a layer) with a gprof (-pg, static)
build. The per-layer metrics come from the traced run, the host self time
per layer from gprof, and trace.overhead_us_per_req is the traced run's
host_us_per_req minus the untraced one. Both runs must produce the same
simulated digest.

Build trees, traces and profiles go to .bench_build/ in the repository
root. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build"
WORKLOADS = ["ordered-writes", "kv-read-mostly", "sharded-cross", "leader-crash"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

BUILDS = {
    "release": [],
    # gprof samples only the executable's own text, so the profiled build
    # links statically to see libc's allocator too.
    "pg": ["-DCMAKE_CXX_FLAGS=-pg", "-DCMAKE_EXE_LINKER_FLAGS=-pg -static"],
}

# Function-name prefixes that map gprof self time onto layers, first match
# wins. Allocator entry points are matched on the whole name first.
LAYER_PREFIXES = [
    ("troxy::crypto::", "crypto"),
    ("troxy::sim::", "sim"),
    ("troxy::net::", "net"),
    ("troxy::enclave::", "enclave"),
    ("troxy::hybster::", "hybster"),
    ("troxy::troxy_core::", "troxy"),
    ("troxy::apps::", "apps"),
    ("troxy::bench::", "bench"),
    ("perfbench::", "bench"),
    ("troxy::", "common"),
    ("std::", "std-templates"),
    ("__gnu_cxx::", "std-templates"),
]
LAYERS = ["crypto", "sim", "net", "enclave", "hybster", "troxy", "apps",
          "std-templates", "alloc", "bench", "common", "other"]
ALLOC_RE = re.compile(
    r"\b(operator new|operator delete|malloc|free|calloc|realloc|memalign|"
    r"aligned_alloc|_int_malloc|_int_free|_int_realloc|_int_memalign|"
    r"malloc_consolidate|unlink_chunk|sysmalloc|tcache_\w+|cfree)\b")
FLAT_ROW_RE = re.compile(
    r"^\s*([\d.]+)\s+[\d.]+\s+[\d.]+\s+(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(\S.*)$")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(kind):
    """Configures (once) and builds one driver tree; returns the binary."""
    tree = BUILD_ROOT / kind
    tree.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_ROOT / f"build-{kind}.log"
    with open(log_path, "a") as out:
        steps = []
        if not (tree / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(tree),
                          "-DCMAKE_BUILD_TYPE=Release"] + BUILDS[kind])
        steps.append(["cmake", "--build", str(tree), "--target",
                      "perfbench_driver", "-j3"])
        for step in steps:
            result = subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S)
            if result.returncode != 0:
                if not (tree / "perfbench_driver").exists():
                    # A failed first configure must not leave a cache that
                    # skips configuring next time.
                    (tree / "CMakeCache.txt").unlink(missing_ok=True)
                raise RuntimeError(f"{kind} build failed, see {log_path}")
    return tree / "perfbench_driver"


def run_driver(binary, args, cwd=None):
    """Runs the driver; echoes its report and returns its JSON result."""
    result = subprocess.run([str(binary)] + args, cwd=cwd,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, timeout=RUN_TIMEOUT_S)
    lines = result.stdout.rstrip("\n").split("\n")
    if result.returncode != 0 or not lines or not lines[-1].startswith("{"):
        log(result.stdout[-4000:])
        log(result.stderr[-4000:])
        raise RuntimeError(f"driver exited with code {result.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def classify_function(name):
    if ALLOC_RE.search(name):
        return "alloc"
    # Qualified name: the last top-level token before the argument list
    # (skips a template function's return type).
    name = name.replace("(anonymous namespace)", "{anon}")
    depth = 0
    start = 0
    end = len(name)
    for i, c in enumerate(name):
        if c in "<[":
            depth += 1
        elif c in ">]":
            depth -= 1
        elif c == "(" and depth == 0 and not name[start:i].endswith("operator"):
            end = i
            break
        elif c == " " and depth == 0:
            start = i + 1
    qualified = name[start:end]
    for prefix, layer in LAYER_PREFIXES:
        if qualified.startswith(prefix):
            return layer
    return "other"


def self_time_by_layer(binary, workdir):
    result = subprocess.run(["gprof", "-b", "-p", str(binary),
                             str(workdir / "gmon.out")],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, timeout=120)
    if result.returncode != 0:
        raise RuntimeError("gprof failed: " + result.stderr[-2000:])
    shares = {layer: 0.0 for layer in LAYERS}
    for line in result.stdout.splitlines():
        match = FLAT_ROW_RE.match(line)
        if match:
            shares[classify_function(match.group(2))] += float(match.group(1))
    (workdir / "flat-profile.txt").write_text(result.stdout)
    return shares


def pick(result, group, names):
    available = result[group]
    missing = [n for n in names if n not in available]
    if missing:
        raise RuntimeError(f"driver did not report {', '.join(missing)}")
    return {n: available[n] for n in names}


def run_workload(workload, seed, seconds, trace, spec):
    common = ["--workload", workload, "--seed", str(seed),
              "--seconds", str(seconds)]
    # Both trees are built up front, so a checkout's first run pays for
    # every build and later runs, traced or not, start at once.
    release = build("release")
    profiled = build("pg")
    if not trace:
        result = run_driver(release, common)
        return result, pick(result, "end_to_end",
                            [m["name"] for m in spec["end_to_end"]])

    print(f"== untraced run ({workload})")
    plain = run_driver(release, common + ["--no-knee"])
    workdir = BUILD_ROOT / "gprof" / f"{workload}-seed{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "gmon.out").unlink(missing_ok=True)
    trace_path = BUILD_ROOT / "traces" / f"{workload}-seed{seed}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    print(f"== traced run ({workload}, -pg build, spans in {trace_path})")
    traced = run_driver(profiled, common + ["--trace", "--trace-out",
                                            str(trace_path)], cwd=workdir)
    shares = self_time_by_layer(profiled, workdir)
    layer = dict(traced["per_layer"])
    for name, share in shares.items():
        layer[f"{name}.host_self_pct"] = {"value": share, "unit": "%"}
    overhead = (traced["end_to_end"]["host_us_per_req"]["value"] -
                plain["end_to_end"]["host_us_per_req"]["value"])
    layer["trace.overhead_us_per_req"] = {"value": overhead, "unit": "us"}
    layer["host_us_per_req"] = plain["end_to_end"]["host_us_per_req"]
    print("host self time by layer (gprof, traced run):")
    for name in LAYERS:
        print(f"  {name + '.host_self_pct':40s} {shares[name]:16.2f} %")
    print(f"  {'trace.overhead_us_per_req':40s} {overhead:16.6f} us "
          f"(traced {traced['end_to_end']['host_us_per_req']['value']:.3f}"
          f" vs untraced {plain['end_to_end']['host_us_per_req']['value']:.3f})")
    same = plain["digest"] == traced["digest"]
    print(f"simulated digest untraced {plain['digest']} traced "
          f"{traced['digest']}: {'identical' if same else 'DIFFERENT'}")
    combined = {
        "correct": plain["correct"] and traced["correct"] and same,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "per_layer": layer,
    }
    return combined, pick(combined, "per_layer",
                          [m["name"] for m in spec["per_layer"]])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [args.workload] if args.workload else WORKLOADS
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for workload in workloads:
            result, picked = run_workload(workload, args.seed, args.seconds,
                                          args.trace == 1, spec)
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            if args.workload:
                metrics = picked
            else:
                metrics.update({f"{workload}.{k}": v
                                for k, v in picked.items()})
    except (RuntimeError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError) as error:
        log(f"perfbench: {error}")
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
