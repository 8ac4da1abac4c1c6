"""Rewrite bench/pinned.json from the code in this checkout.

    python3 bench/pin.py

Run from the root of a checkout whose outputs are known to be right.  It
records the outcome digest of every cox_search record, by chain, and the
per-job output digests of the default seed for the other workloads.  The
benchmark fails a job whose output differs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def outputs(workload):
    out = subprocess.run(
        [sys.executable, "-I", os.path.join(HERE, "worker.py"),
         "--workload", workload, "--seed", str(DEFAULT_SEED),
         "--root", os.getcwd()],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])["outputs"]


def main():
    pinned = {}
    for workload in sorted(WORKLOADS):
        got = outputs(workload)
        if None in got:
            raise SystemExit("%s has failed jobs; nothing pinned" % workload)
        pinned[workload] = dict(got) if workload == "cox_search" else got
    with open(os.path.join(HERE, "pinned.json"), "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
