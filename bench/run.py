"""dflab benchmark: fresh-process workloads with checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass of a workload runs in a new
interpreter (bench/worker.py) that imports dflab from this checkout's
src/, because dflab keeps module-level caches that a second pass in the
same process would find warm; users of `dflab compute` and `dflab search`
pay the cold cost on every invocation.

--trace 0: passes over the same inputs run back to back for about S
seconds; the last line of stdout holds the end-to-end metrics, medians
over the passes (see end_to_end).  The speed of a shared
machine drifts by 15-40 % between runs, so every time of a pass is scaled
to a reference speed: the worker times a fixed piece of pure-Python work
between jobs (workloads.reference_sample), and the pass's times are
multiplied by REF_NOMINAL_S / (median of those samples).  The unscaled
values are in the details line.
--trace 1: one untraced pass, then one traced pass that wraps every dflab
layer; the last line holds the per-layer metrics of the traced pass, and
the spans go to .bench_work/trace-<workload>.json.

The line before the last holds details: the pass count, the job count N
behind the percentiles, failures and outcome tallies.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".bench_work")
# the whole run, every pass included, ends within this many seconds
BUDGET_S = 170
# jobs beyond the tail percentile: job_tail_ms is the 11th-slowest job
TAIL_BEYOND = 10
# scaled times read as if every reference sample had taken this long
REF_NOMINAL_S = 0.0075


class PassFailed(RuntimeError):
    pass


def run_pass(workload, seed, deadline, trace_out=None):
    """Run one worker; returns its result with wall and set-up times."""
    cmd = [sys.executable, "-I", os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--root", ROOT]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise PassFailed("%s pass exceeded the time budget" % workload)
    if proc.returncode != 0 or not out.strip():
        raise PassFailed("%s worker exited with %d" % (workload,
                                                       proc.returncode))
    result = json.loads(out.strip().splitlines()[-1])
    if result["first_job_at"] is None:
        raise PassFailed("%s worker ran no job" % workload)
    result["setup_s"] = result["first_job_at"] - started
    result["loop_s"] = (result["done_at"] - result["first_job_at"]
                        - sum(result["reference"]))
    result["wall_s"] = result["done_at"] - started
    return result


def end_to_end(passes, scales):
    """Metrics of passes over the same jobs, their times multiplied by the
    pass's scale.  A job's latency is its median over the passes; the
    other metrics are medians over the passes of their value in one pass.
    """
    per_job = [statistics.median(t * s for t, s in zip(lat, scales))
               for lat in zip(*(p["latencies"] for p in passes))]
    ranked = sorted(per_job, reverse=True)
    n = len(ranked)

    def median(fn):
        return statistics.median(fn(p, s) for p, s in zip(passes, scales))

    return {
        "jobs_per_s": (median(lambda p, s: n / (p["loop_s"] * s)), "1/s"),
        "job_p50_ms": (1000 * statistics.median(per_job), "ms"),
        "job_tail_ms": (1000 * ranked[min(TAIL_BEYOND, n - 1)], "ms"),
        "setup_s": (median(lambda p, s: p["setup_s"] * s), "s"),
        "peak_rss_mib": (median(lambda p, s: p["peak_rss_mib"]), "MiB"),
    }


def details(passes):
    scales = [REF_NOMINAL_S / statistics.median(p["reference"])
              for p in passes]
    n = len(passes[0]["latencies"])
    raw = end_to_end(passes, [1.0] * len(passes))
    return scales, {
        "unscaled": {name: value for name, (value, _) in raw.items()},
        "speed_scales": scales,
        "jobs_per_pass": n,
        "tail_percentile": round(100 * (n - TAIL_BEYOND - 1) / n, 2)
        if n > TAIL_BEYOND else 0,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dflab", "__init__.py")):
        sys.stderr.write("no src/dflab under %s: run from the root of a "
                         "dflab checkout\n" % ROOT)
        return 2
    start = time.monotonic()
    deadline = start + BUDGET_S
    os.makedirs(WORK, exist_ok=True)
    # users run installed bytecode; compile it once, outside every pass
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    compileall.compile_dir(HERE, quiet=1)

    try:
        if args.trace:
            plain = run_pass(args.workload, args.seed, deadline)
            trace_file = os.path.join(WORK, "trace-%s.json" % args.workload)
            traced = run_pass(args.workload, args.seed, deadline, trace_file)
            passes = [plain, traced]
            metrics = {name: (value, _layer_unit(name))
                       for name, value in traced["layers"].items()}
            # the traced pass takes no reference samples
            metrics["trace.overhead_s"] = (
                traced["wall_s"] - plain["wall_s"] + sum(plain["reference"]),
                "s")
            with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
                declared = [m["name"] for m in json.load(fh)["per_layer"]]
            info = {"spans": trace_file,
                    "absent": [n for n in declared if n not in metrics],
                    "missing_targets": traced["missing"]}
        else:
            passes = []
            while True:
                passes.append(run_pass(args.workload, args.seed, deadline))
                # start another pass only if at least half of it fits
                mean_wall = statistics.mean(p["wall_s"] for p in passes)
                if time.monotonic() - start + mean_wall / 2 > args.seconds:
                    break
            scales, info = details(passes)
            metrics = end_to_end(passes, scales)
    except PassFailed as exc:
        sys.stderr.write("benchmark aborted: %s\n" % exc)
        return 1

    failures = ["%s: %s" % tuple(f) for p in passes for f in p["failures"]]
    for line in failures:
        sys.stderr.write("failed job %s\n" % line)
    # a job that fails several checks counts once; a failed check on the
    # whole pass counts as one job
    failed = sum(min(len({f[0] for f in p["failures"]}), len(p["latencies"]))
                 for p in passes)
    info.update(workload=args.workload, seed=args.seed, passes=len(passes),
                failures=failures[:20],
                outcomes=passes[-1]["notes"])
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(len(p["latencies"]) for p in passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_yield")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
