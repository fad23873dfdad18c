#!/usr/bin/env python3
"""TPC-C benchmark for CompliantDB: builds tpcc_bench and runs one workload.

    python3 perfbench/run.py --workload tpcc_mem --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. It builds perfbench/ (with the library
sources in src/) into .bench_build/, runs the workload in a fresh directory
under .bench_build/runs/, deletes that directory once the run has ended,
and prints the correctness verdicts followed, as the last line, by one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics. README.md explains the workloads and the figures.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "cmake", "tpcc_bench")

# A run repeats one episode EPISODES times (README.md, "The run"); an
# episode takes about 4.5 s (tpcc_mem) or 6 s (tpcc_disk_hor) on a
# 4-vCPU x86 VM. Its measured slots are --seconds times the
# workload's rate below, split evenly over the episodes. The slot count is
# a function of --seconds alone, never of the elapsed time, so counters
# and the compliance log repeat exactly for a given seed and length.
EPISODES = {"tpcc_mem": 10, "tpcc_disk_hor": 8}
SLOTS_PER_SECOND = {"tpcc_mem": 3000, "tpcc_disk_hor": 480}

# Per-layer metrics of the commit pipeline, taken from tpcc_mem's 2-writer
# replica; workloads without one report 0 (not exercised).
PIPELINE_METRICS = ("txn.scheduler.concurrent_frac",
                    "txn.scheduler.conflict_waits_per_ktxn",
                    "txn.epoch.slots_per_epoch")

BUILD_TIMEOUT_S = 840
# All tpcc_bench runs of one invocation together, after the build.
RUN_BUDGET_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt next to perfbench/: run from a full "
             "checkout of the repository")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", os.path.dirname(BINARY),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", os.path.dirname(BINARY), "-j", jobs],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            sys.stderr.write(r.stdout.decode(errors="replace")[-4000:])
            fail("build failed: " + " ".join(cmd))


def fresh_dir(name):
    path = os.path.join(BUILD, "runs", name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


def drive(workload, seed, slots, episodes, extra, tag, deadline):
    """Runs tpcc_bench once in a fresh directory; returns its JSON result."""
    data = fresh_dir("%s-%d-%d-%s" % (workload, seed, os.getpid(), tag))
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--slots", str(slots), "--episodes", str(episodes),
           "--dir", data] + extra
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("tpcc_bench timed out: " + " ".join(cmd))
    finally:
        shutil.rmtree(data, ignore_errors=True)
    if r.returncode != 0:
        fail("tpcc_bench failed with code %d: %s" % (r.returncode, " ".join(cmd)))
    lines = r.stdout.decode().strip().splitlines()
    if not lines:
        fail("tpcc_bench printed nothing: " + " ".join(cmd))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SLOTS_PER_SECOND))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    episodes = EPISODES[args.workload]
    slots = max(1, SLOTS_PER_SECOND[args.workload] * args.seconds // episodes)
    extra = []
    if args.trace:
        trace_dir = os.path.join(BUILD, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        spans = os.path.join(trace_dir, "%s-%d.json" % (args.workload, args.seed))
        extra = ["--trace", "1", "--spans", spans]
    result = drive(args.workload, args.seed, slots, episodes, extra, "run", deadline)
    verdicts = dict(result["verdicts"])
    correct = result["correct"]
    metrics = dict(result["metrics"])
    if args.trace:
        print("spans: " + os.path.relpath(spans, ROOT))

    pipeline = {"txn.pipeline.txns_per_s": 0.0, "txn.pipeline.speedup": 0.0,
                "txn.pipeline.sealed_per_ktxn": 0.0}
    if args.workload == "tpcc_mem":
        # The 2-writer replica: one episode of tpcc_mem's data, seed and
        # slot schedule through the commit pipeline. Its compliance log
        # must be byte for byte the one-writer log.
        rep = drive("tpcc_mem_2w", args.seed, slots, 1, ["--no-audit"], "2w",
                    deadline)
        same = rep["info"]["l_digest"] == result["info"]["l_digest"]
        verdicts["l_2_writers_identical_to_1_writer"] = same
        correct = correct and same and rep["correct"]
        pipeline = {k: rep["metrics"][k] for k in PIPELINE_METRICS}
        pipeline["txn.pipeline.txns_per_s"] = rep["metrics"]["txns_per_s"]
        # Both rates over wall time: the replica's one episode against the
        # median one-writer episode.
        one_writer = statistics.median(result["info"]["episode_txns_per_s"])
        pipeline["txn.pipeline.speedup"] = (rep["metrics"]["txns_per_s"]
                                            / one_writer)
        pipeline["txn.pipeline.sealed_per_ktxn"] = (
            rep["metrics"]["audit.epoch.sealed_per_ktxn"])
    metrics.update(pipeline)

    info = result["info"]
    print("workload %s seed %d: %d episodes of %d slots: write_threads=%s "
          "scheduler=%s shipper=%s cache_pages=%d db_pages=%d..%d run_fs=%s "
          "flush=fflush, no fsync"
          % (args.workload, args.seed, episodes, slots, info["write_threads"],
             info["scheduler_mode"], info["shipper_mode"], info["cache_pages"],
             info["db_pages_start"], info["db_pages_end"], info["run_fs"]))
    print("info " + json.dumps(info, sort_keys=True))
    for key, value in verdicts.items():
        print("verdict %s: %s" % (key, json.dumps(value)))

    out = {}
    for m in wanted:
        if m["name"] not in metrics:
            fail("tpcc_bench did not report metric " + m["name"])
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": bool(correct), "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": out}))


if __name__ == "__main__":
    main()
