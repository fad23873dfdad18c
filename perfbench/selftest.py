#!/usr/bin/env python3
"""Self-test of the TPC-C benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks, on short runs, that:
  * each workload prints every metric named in BENCHMARK.json, with its
    unit, in both the timed (--trace 0) and the traced (--trace 1) run;
  * tpcc_mem's 2-writer replica writes a compliance log byte-identical to
    the one-writer log;
  * when the adversary (Mala) alters a STOCK row, or a HISTORY row, of a
    finished run's data file, the re-audit names the altered key and counts
    the finding as unexpected, not as the known HISTORY-tree defect;
  * on a longer run (tpcc_mem, seed 1, one episode of 20000 slots), where
    the known HISTORY-tree defect shows, every audit problem is classified
    as that defect; the count is printed.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SECONDS = "1"
failures = []


def check(ok, what):
    print("%s %s" % ("PASS" if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def run_bench(workload, trace):
    r = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", SECONDS, "--trace", str(trace)],
        stdout=subprocess.PIPE, cwd=run.ROOT, timeout=600)
    lines = r.stdout.decode().strip().splitlines()
    if r.returncode != 0 or not lines:
        return None, lines
    return json.loads(lines[-1]), lines


def single_episode(slots, seed, extra):
    """Runs one tpcc_mem episode of `slots` slots; returns its verdicts."""
    data = run.fresh_dir("selftest-%d-%d" % (seed, slots))
    try:
        r = subprocess.run(
            [run.BINARY, "--workload", "tpcc_mem", "--seed", str(seed),
             "--slots", str(slots), "--episodes", "1", "--dir", data] + extra,
            stdout=subprocess.PIPE, timeout=600)
    finally:
        shutil.rmtree(data, ignore_errors=True)
    if r.returncode != 0:
        return {}
    return json.loads(r.stdout.decode().strip().splitlines()[-1])["verdicts"]


def tamper(table):
    """Runs tpcc_mem briefly, has Mala edit one `table` row of the closed
    data file, re-audits, and returns tpcc_bench's verdicts."""
    return single_episode(1000, 7, ["--tamper", table])


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    run.build()
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result, lines = run_bench(w["name"], trace)
            check(result is not None, "%s --trace %d exits 0 with a result"
                  % (w["name"], trace))
            if result is None:
                continue
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            check(got == want, "%s --trace %d prints every %s metric with its unit"
                  % (w["name"], trace, group))
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  "%s --trace %d: no failed operation" % (w["name"], trace))
            if w["name"] == "tpcc_mem" and trace == 0:
                check("verdict l_2_writers_identical_to_1_writer: true" in lines,
                      "tpcc_mem: 2 writers write L byte-identical to 1 writer")

    for table in ("stock", "history"):
        v = tamper(table)
        check(v.get("tamper_problems_naming_key", 0) > 0,
              "tampered %s row: the audit names the altered key (%s problems)"
              % (table, v.get("tamper_audit_problems")))
        check(v.get("tamper_unexpected_problems", 0) > 0,
              "tampered %s row: counted as unexpected, not as the known "
              "HISTORY-tree defect" % table)

    v = single_episode(20000, 1, [])
    check(v.get("audit_unexpected_problems") == 0,
          "20000 slots: every audit problem is the known HISTORY-tree defect")
    print("INFO 20000 slots, seed 1: %s known HISTORY-tree defect problems"
          % v.get("audit_known_history_defect_problems"))

    print("selftest: %d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
