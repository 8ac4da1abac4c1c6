"""One pass of one workload in a fresh interpreter.

    python3 -I bench/worker.py --workload NAME --seed N --root CHECKOUT
        [--trace-out FILE] [--limit N]

Imports dflab from CHECKOUT/src and nowhere else, runs the workload once,
and prints one JSON object: job latencies, failures, output digests, the
monotonic clock readings at the first job and at the end of the job loop,
and the peak resident set.  With --trace-out it wraps the dflab layers
first, adds the per-layer metrics and writes the span file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("--limit", type=int, default=0)
    args = parser.parse_args(argv)

    root = os.path.realpath(args.root)
    package = os.path.join(root, "src", "dflab")
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import dflab
    if os.path.dirname(os.path.realpath(dflab.__file__)) != package:
        raise SystemExit("dflab imported from %s, not from %s"
                         % (dflab.__file__, package))

    import workloads
    tracer = None
    if args.trace_out:
        from tracer import install_tracer
        tracer = install_tracer()

    work_dir = os.path.join(root, ".bench_work")
    os.makedirs(work_dir, exist_ok=True)
    # the traced pass is not scaled, so it takes no reference samples
    jobs = workloads.Jobs(sample_reference=tracer is None)
    workloads.WORKLOADS[args.workload](jobs, args.seed, args.limit, work_dir)
    workloads.check_pinned_outputs(args.workload, args.seed, args.limit,
                                   jobs)
    out = jobs.result()
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mib"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        from tracer import layer_metrics
        out["layers"] = layer_metrics(tracer)
        out["missing"] = sorted(tracer.missing)
        tracer.write_spans(args.trace_out)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
