"""Determinism self-test of the benchmark, at a reduced size.

    python3 bench/selftest.py

Run from the root of a checkout.  For each workload it makes two traced
passes with the same seed and checks that every count is identical, that
the span file round-trips through json.loads and is well formed, and that
the metric names match BENCHMARK.json.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SEED = 7
LIMIT = 12


def traced_pass(workload, spans_path):
    out = subprocess.run(
        [sys.executable, "-I", os.path.join(HERE, "worker.py"),
         "--workload", workload, "--seed", str(SEED), "--root", ROOT,
         "--limit", str(LIMIT), "--trace-out", spans_path],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


class SelfTestError(Exception):
    pass


def check(ok, message):
    if not ok:
        raise SelfTestError(message)


def check_spans(path):
    with open(path) as fh:
        doc = json.loads(fh.read())
    names = doc["names"]
    for sid, (name, parent, start, end) in enumerate(doc["spans"]):
        check(0 <= name < len(names), "span %d has no name" % sid)
        check(-1 <= parent < sid, "span %d has parent %d" % (sid, parent))
        check(start <= end, "span %d ends before it starts" % sid)
        if parent >= 0:
            p_start, p_end = doc["spans"][parent][2:]
            check(p_start <= start and end <= p_end,
                  "span %d is not inside its parent" % sid)
    return len(doc["spans"])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    work = os.path.join(ROOT, ".bench_work")
    os.makedirs(work, exist_ok=True)
    for workload in sorted(WORKLOADS):
        paths = [os.path.join(work, "selftest-%s-%d.json" % (workload, i))
                 for i in (1, 2)]
        first, second = (traced_pass(workload, p) for p in paths)
        for run in (first, second):
            check(not run["failures"], run["failures"])
            check(not run["missing"], run["missing"])
        counts = {k: v for k, v in first["layers"].items()
                  if not k.endswith("_s")}
        again = {k: v for k, v in second["layers"].items()
                 if not k.endswith("_s")}
        check(counts == again, "%s counts differ between runs: %s" % (
            workload, sorted(k for k in counts if counts[k] != again.get(k))))
        check(first["outputs"] == second["outputs"], workload)
        spans = [check_spans(p) for p in paths]
        check(spans[0] == spans[1], "%s span counts differ" % workload)
        emitted = set(first["layers"]) | {"trace.overhead_s"}
        check(emitted == declared, "BENCHMARK.json per_layer differs: %s"
              % sorted(emitted ^ declared))
        for p in paths:
            os.remove(p)
        print("%s: %d jobs, %d spans, %d counts identical" % (
            workload, len(first["latencies"]), spans[0], len(counts)))
    print("selftest passed")


if __name__ == "__main__":
    try:
        main()
    except SelfTestError as exc:
        sys.stderr.write("selftest failed: %s\n" % exc)
        sys.exit(1)
