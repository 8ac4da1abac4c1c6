"""Inputs and output checks of the three benchmark workloads.

Every workload is a closed loop with one client: one process, jobs back to
back.  A workload function fills a Jobs object with the job latencies,
timed only around the library call that is the job, the jobs that failed,
and one digest per job of its output.  A job fails when it raises an exception that is
not a documented diagnosis, ends in a pipeline mismatch, or fails its
output check; it then still counts as attempted.

The inputs depend only on the seed.  ``limit`` shrinks a workload for the
determinism self-test.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import shutil
import sys
import tempfile
import time
import traceback
from fractions import Fraction

# seed whose per-job output digests are in pinned.json
DEFAULT_SEED = 1

_HERE = os.path.dirname(os.path.abspath(__file__))


def _pinned():
    with open(os.path.join(_HERE, "pinned.json")) as fh:
        return json.load(fh)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# least seconds between two reference samples
SAMPLE_EVERY_S = 0.05


def reference_sample():
    """Time a fixed piece of pure-Python work like dflab's own: Fraction
    arithmetic, tuples and dicts.  run.py scales a pass's times by it.

    It keeps little memory alive, so peak_rss_mib does not depend on how
    many samples a pass takes, and it runs with the cyclic collector off,
    so its time does not grow with the heap dflab has built."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        seen = {}
        for i in range(1, 1500):
            acc += Fraction(i % 7, i % 11 + 1)
            seen[i % 13] = sum(x * y for x, y in zip((i, 2, 3), (4, i, 6)))
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Jobs:
    """Latencies, failures and output digests of one pass."""

    def __init__(self, sample_reference=True):
        self.sample_reference = sample_reference
        self.latencies = []
        self.failures = []
        self.outputs = []
        self.notes = {}
        self.reference = []
        self.first_job_at = None
        self.done_at = None
        self._sampled_at = None

    def start(self):
        """Call before each job, outside its timing: marks the end of set-up
        and takes a reference sample every SAMPLE_EVERY_S."""
        now = time.monotonic()
        if self.first_job_at is None:
            self.first_job_at = now
        if not self.sample_reference:
            return
        if self._sampled_at is None:
            self.reference += [reference_sample() for _ in range(2)]
        elif now - self._sampled_at < SAMPLE_EVERY_S:
            return
        self.reference.append(reference_sample())
        self._sampled_at = time.monotonic()

    def fail(self, index, why):
        self.failures.append([str(index), why])

    def note(self, key):
        self.notes[key] = self.notes.get(key, 0) + 1

    def result(self):
        return {
            "first_job_at": self.first_job_at,
            "done_at": self.done_at,
            "latencies": self.latencies,
            "failures": self.failures,
            "outputs": self.outputs,
            "notes": self.notes,
            "reference": self.reference,
        }


def _unexpected(jobs, index, exc):
    sys.stderr.write("job %s raised:\n" % index)
    traceback.print_exception(type(exc), exc, exc.__traceback__)
    jobs.fail(index, "unexpected %s: %s" % (type(exc).__name__, exc))


# ---------------------------------------------------------------------------
# cox_search: the 44-record Hirzebruch search in cox mode

def cox_search(jobs, seed, limit, work_dir):
    """search_destabilizers on the anticanonical first Hirzebruch surface.

    The search space is fixed by the bounds, so the seed selects nothing
    here.  A job is one search record; its latency is the evaluate call the
    search makes for it.  With a limit, chains of length one only.
    """
    from dflab import stability_lab
    from dflab.errors import ConsistencyError, ExponentTooSmall, NotStabilized
    from dflab.lattice_geometry import hirzebruch_anticanonical

    variety = hirzebruch_anticanonical()
    bounds = stability_lab.SearchBounds(
        n_max=1 if limit else 2, d_max=2, g_max=1, r_list=(1,), mode="cox")
    expected = (NotStabilized, ExponentTooSmall, ConsistencyError)
    evaluate = stability_lab.evaluate

    def timed_evaluate(*args, **kwargs):
        index = len(jobs.latencies)
        jobs.start()
        t0 = time.perf_counter()
        try:
            return evaluate(*args, **kwargs)
        except expected:
            raise
        except Exception as exc:
            # the search would abort on it; record it and let the search
            # file the record as a mismatch instead
            _unexpected(jobs, index, exc)
            raise ConsistencyError("unexpected %s" % type(exc).__name__) \
                from exc
        finally:
            jobs.latencies.append(time.perf_counter() - t0)

    stability_lab.evaluate = timed_evaluate
    tmp = tempfile.mkdtemp(dir=work_dir)
    try:
        stream = os.path.join(tmp, "records.jsonl")
        report = stability_lab.search_destabilizers(
            variety, bounds, workers=1, stream_path=stream)
        jobs.done_at = time.monotonic()
        with open(stream) as fh:
            streamed = [json.loads(line) for line in fh if line.strip()]
    finally:
        stability_lab.evaluate = evaluate
        shutil.rmtree(tmp)

    pinned = _pinned()["cox_search"]
    for rec in report.records:
        chain = json.dumps(rec["chain"])
        jobs.outputs.append([chain, record_digest(rec)])
        jobs.note(rec["status"])
        if rec["status"] == "mismatch":
            jobs.fail(chain, "mismatch: %s" % rec["diagnosis"])
        elif pinned.get(chain) != record_digest(rec):
            jobs.fail(chain, "record differs from the pinned one")
    if len(streamed) != len(report.records):
        jobs.fail("stream", "%d streamed records for %d"
                  % (len(streamed), len(report.records)))
    if not limit:
        _check_criterion_9(jobs, variety, report)


def record_digest(rec):
    """Digest of a search record's outcome; the key and the wording of the
    diagnosis are left out."""
    return digest("%s|%s|%s|%s|%s" % (rec["status"], rec["DF"],
                                      rec["DF_intersection"],
                                      rec["consistent"], rec["trivial"]))


def report_digest(report):
    """Digest of the invariants in a compute report."""
    deco = report["decomposition"]
    return digest("%s|%s|%s|%s|%s|%s|%s|%s" % (
        report["DF"], report.get("closure_DF"),
        report.get("integrally_closed"), report["consistent"],
        deco["T1"], deco["T2"], deco["T3"], deco["DF"]))


def _check_criterion_9(jobs, variety, report):
    """The pinned outcome of the 44-record search: totals, the minimum, the
    witness chain on the rigid curve, and the 4/3 record."""
    idx = variety.polytope.facets.index(((0, 1), 0))

    def gen(e):
        return [0] * idx + [e] + [0] * (3 - idx)

    cone = [r for r in report.records if r["chain"] == [[gen(1)]]]
    checks = {
        "total": report.total == 44,
        "decided": len(report.decided) == 36,
        "undecided": len(report.undecided) == 8,
        "mismatches": report.mismatches == [],
        "minimum": report.minimum == Fraction(-4, 3),
        "witness": report.witness is not None
        and report.witness["chain"] == [[gen(2)], [gen(1)]],
        "destabilizers": report.witness is not None
        and [r["key"] for r in report.destabilizers]
        == [report.witness["key"]],
        "cone": len(cone) == 1 and cone[0]["DF"] == "4/3",
        "diagnosed": all(r["diagnosis"] for r in report.undecided),
    }
    for name, ok in checks.items():
        if not ok:
            jobs.fail("criterion-9", name)


# ---------------------------------------------------------------------------
# chart_compute: JSON jobs through cli.compute_envelope

def _variety_json(kind, *args):
    if kind == "P":
        return {"type": "projective_space", "n": args[0], "d": args[1]}
    if kind == "box":
        return {"type": "box", "sides": list(args)}
    return {"type": "hirzebruch"}


def _job(variety, chain, r, **extra):
    job = {
        "variety": variety,
        "flag_ideal": {"ideals": [{"gens": [list(g) for g in gens]}
                                  for gens in chain]},
        "r": r,
        "pipeline": "both",
    }
    job.update(extra)
    return job


M2 = [(1, 0), (0, 1)]
M3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

# the acceptance suite: (variety, chain, r, DF); integrally closed
SUITE = [
    (_variety_json("P", 1, 1), [[(1,)]], 1, "0"),
    (_variety_json("P", 1, 2), [[(2,)]], 1, "1"),
    (_variety_json("P", 1, 2), [[(1,)]], 1, "1/2"),
    (_variety_json("P", 1, 3), [[(2,)], [(1,)]], 1, "1"),
    (_variety_json("P", 1, 3), [[(3,)], [(1,)]], 1, "2"),
    (_variety_json("P", 1, 1), [[(2,)]], 2, "1"),
    (_variety_json("P", 2, 2), [[(2, 0), (1, 1), (0, 2)]], 1, "1"),
    (_variety_json("P", 2, 1), [M2], 1, "0"),
    (_variety_json("P", 2, 2), [M2], 1, "1/2"),
    (_variety_json("P", 2, 2), [[(2, 0), (1, 1), (0, 2)], M2], 1, "0"),
    (_variety_json("P", 2, 2), [[(2, 0), (0, 1)]], 1, "1"),
    (_variety_json("box", 1, 1), [M2], 1, "1/6"),
    (_variety_json("box", 1, 1), [[(2, 0), (1, 1), (0, 2)]], 2, "10/3"),
    (_variety_json("hirzebruch"), [M2], 1, "4/3"),
    (_variety_json("P", 3, 1), [M3], 1, "0"),
]

# criterion 7: (variety, chain, r, counting DF, closed-formula DF); not
# integrally closed, so the closed formula is a lower bound
CLOSURE_GAP = [
    (_variety_json("P", 2, 2), [[(2, 0), (0, 2)]], 1, "2", "1"),
    (_variety_json("P", 2, 2), [[(3, 0), (0, 3)]], 2, "27", "15"),
    (_variety_json("P", 1, 3), [[(3,)], [(3,)]], 1, "6", "3"),
    (_variety_json("P", 1, 2), [[(2,)], [(2,)]], 1, "2", "0"),
    (_variety_json("P", 2, 2), [[(2, 0), (0, 2)], M2], 1, "0", "0"),
]

# heavier fixed jobs: (variety, chain, r, DF)
HEAVY = [
    (_variety_json("P", 2, 2), [[(2, 0), (1, 1), (0, 2)]], 3, "21"),
    (_variety_json("P", 3, 1), [M3], 2, "1/6"),
    (_variety_json("P", 3, 1), [[(2, 0, 0), (0, 1, 0), (0, 0, 1)], M3], 2,
     "4/9"),
    (_variety_json("box", 1, 1, 1), [M3], 1, "1/8"),
]

# suite jobs with a sample window too narrow to fit, so the window is
# extended: (suite index, K_range)
NARROW = [(8, [1, 3]), (11, [1, 4]), (13, [2, 5]), (3, [1, 2])]

# stock varieties of dimension at most two for the random chains
SMALL = [
    (_variety_json("P", 1, 1), 1), (_variety_json("P", 1, 2), 1),
    (_variety_json("P", 1, 3), 1), (_variety_json("P", 2, 1), 2),
    (_variety_json("P", 2, 2), 2), (_variety_json("box", 1, 1), 2),
    (_variety_json("box", 1, 2), 2), (_variety_json("hirzebruch"), 2),
]

CHART_RANDOM = 64


def _random_small_ideal(rng, n, extra):
    """Point-supported ideal whose largest generator degree is two: pure
    powers of degree one or two (two on a random axis), and with extra set
    one mixed square-free generator."""
    top = rng.randrange(n)
    gens = [tuple((2 if i == top else rng.randint(1, 2)) if j == i else 0
                  for j in range(n)) for i in range(n)]
    if extra and n > 1:
        mixed = [0] * n
        for i in rng.sample(range(n), 2):
            mixed[i] = 1
        gens.append(tuple(mixed))
    return gens


def _degree_two_part(gens, n):
    """Generators of the ideal's elements of degree at least two; the
    result is contained in the ideal and has generators of degree two.
    Generator lists need not be minimal: dflab minimalizes them."""
    out = []
    for g in gens:
        if sum(g) >= 2:
            out.append(g)
        else:
            out.extend(tuple(x + (j == i) for i, x in enumerate(g))
                       for j in range(n))
    return sorted(set(out))


def chart_jobs(seed):
    """The compute jobs of one seed, each (job, pinned values or None).

    The random chains are stratified so that every seed has the same mix:
    job i runs on SMALL[i % 8]; rounds of eight alternate between one
    ideal and a two-step chain, and every other pair of rounds adds a
    mixed generator.  r is the largest generator degree, two, so no random
    job is cut off by a small exponent.
    """
    out = []
    for variety, chain, r, df in SUITE:
        out.append((_job(variety, chain, r), {"DF": df, "hull": df,
                                               "closed": True}))
    for variety, chain, r, df, hull in CLOSURE_GAP:
        out.append((_job(variety, chain, r), {"DF": df, "hull": hull,
                                               "closed": False}))
    for variety, chain, r, df in HEAVY:
        out.append((_job(variety, chain, r), {"DF": df, "hull": df,
                                               "closed": True}))
    for index, window in NARROW:
        variety, chain, r, df = SUITE[index]
        out.append((_job(variety, chain, r, K_range=window),
                    {"DF": df, "hull": df, "closed": True}))
    rng = random.Random("chart_compute:%d" % seed)
    for i in range(CHART_RANDOM):
        variety, n = SMALL[i % len(SMALL)]
        rnd = i // len(SMALL)
        top = _random_small_ideal(rng, n, extra=(rnd // 2) % 2)
        chain = [_degree_two_part(top, n), top] if rnd % 2 else [top]
        r = max(sum(g) for gens in chain for g in gens)
        out.append((_job(variety, chain, r), None))
    return out


def chart_compute(jobs, seed, limit, work_dir):
    from dflab import cli
    from dflab.errors import ExponentTooSmall, NotStabilized

    todo = chart_jobs(seed)
    if limit:
        todo = todo[::max(1, len(todo) // limit)][:limit]
    for index, (job, want) in enumerate(todo):
        jobs.start()
        t0 = time.perf_counter()
        try:
            envelope = cli.compute_envelope(job)
            diagnosis = None
        except (NotStabilized, ExponentTooSmall) as exc:
            envelope, diagnosis = None, exc
        except Exception as exc:
            jobs.latencies.append(time.perf_counter() - t0)
            jobs.outputs.append(None)
            _unexpected(jobs, index, exc)
            continue
        jobs.latencies.append(time.perf_counter() - t0)
        if diagnosis is not None:
            # the documented exit-2 outcome of `dflab compute`
            jobs.outputs.append(digest("exit2:" + type(diagnosis).__name__))
            jobs.note("exit2")
            if want is not None:
                jobs.fail(index, "pinned job undecided: %s" % diagnosis)
            continue
        report = envelope["report"]
        why = _check_report(report, want)
        jobs.outputs.append(None if why else report_digest(report))
        if why:
            jobs.fail(index, why)
        else:
            jobs.note("consistent")
    jobs.done_at = time.monotonic()


def _check_report(report, want):
    if report.get("consistent") is not True:
        return "consistent is %r" % (report.get("consistent"),)
    if not all(report.get("checks", {}).values()):
        return "self-check failed"
    hull = report["decomposition"]["DF"]
    if Fraction(hull) > Fraction(report["DF"]):
        return "closed formula exceeds the count"
    if want is None:
        return None
    if report["DF"] != want["DF"] or hull != want["hull"]:
        return "DF %s / %s, pinned %s / %s" % (
            report["DF"], hull, want["DF"], want["hull"])
    if report.get("integrally_closed") is not want["closed"]:
        return "integrally_closed is %r" % (report.get("integrally_closed"),)
    if not want["closed"] and report.get("closure_DF") != want["hull"]:
        return "closure DF %s, pinned %s" % (report.get("closure_DF"),
                                             want["hull"])
    return None


# ---------------------------------------------------------------------------
# closed_formula: df_intersection only

CLOSED_CASES = 192


def closed_flags(seed):
    """Random point-supported flags in the shape of criterion 6.

    The generator is criterion 6's, stratified so that every seed has the
    same mix: case i runs on the (i % 8)-th stock variety, rounds of eight
    alternate between one ideal and a two-step chain, and the round number
    also decides which ideals get a mixed generator.  Exponents and the
    mixed generators are random.  r is the largest generator degree.

    The two-step chains on P^3 are the exception: their cost varies
    fivefold between draws and they take most of the time, so they are
    drawn once, from criterion 6's seed, and are the same for every seed.
    """
    from dflab.lattice_geometry import box, hirzebruch_anticanonical, \
        projective_space
    from dflab.monomial_algebra import MonomialIdeal, validate_flag_ideal

    varieties = [
        projective_space(1, 1), projective_space(1, 2),
        projective_space(2, 1), projective_space(2, 2),
        box((1, 1)), box((1, 2)), hirzebruch_anticanonical(),
        projective_space(3, 1),
    ]
    seeded = random.Random("closed_formula:%d" % seed)
    fixed = random.Random(20260819)
    out = []
    for case in range(CLOSED_CASES):
        v = varieties[case % len(varieties)]
        n = v.dim
        rnd = case // len(varieties)
        rng = fixed if n == 3 and rnd % 2 else seeded

        def rand_ideal(extra):
            gens = [tuple(rng.randint(1, 3) if j == i else 0
                          for j in range(n)) for i in range(n)]
            if extra:
                mixed = [0] * n
                while not any(mixed):
                    mixed = [rng.randint(0, 2) for _ in range(n)]
                if sum(mixed) > 3:
                    mixed = [1] * n
                gens.append(tuple(mixed))
            return MonomialIdeal.make(n, gens)

        b = rand_ideal(extra=(rnd // 2) % 2)
        if rnd % 2:
            chain = [rand_ideal(extra=(rnd // 4) % 2).product(b), b]
        else:
            chain = [b]
        r = max(sum(g) for i in chain for g in i.gens)
        out.append((v, validate_flag_ideal(chain), r))
    return out


def closed_formula(jobs, seed, limit, work_dir):
    from dflab import intersection_engine

    flags = closed_flags(seed)
    if limit:
        flags = flags[:limit]
    for index, (variety, flag, r) in enumerate(flags):
        jobs.start()
        t0 = time.perf_counter()
        try:
            deco = intersection_engine.df_intersection(variety, flag, r)
        except Exception as exc:
            jobs.latencies.append(time.perf_counter() - t0)
            jobs.outputs.append(None)
            _unexpected(jobs, index, exc)
            continue
        jobs.latencies.append(time.perf_counter() - t0)
        jobs.outputs.append(digest("%s|%s|%s" % (deco.df, deco.t1, deco.t3)))
        why = None
        if flag.support != "point":
            why = "flag is not point-supported"
        elif deco.t3 < 0:
            why = "T3 = %s < 0" % deco.t3
        for ray in deco.rays:
            if ray.discrepancy < 1 or ray.face_degree < 0 or ray.order < 1:
                why = "ray %r breaks a >= 1, face degree >= 0, ord >= 1" % (
                    ray.to_json_dict(),)
        if why:
            jobs.fail(index, why)
    jobs.done_at = time.monotonic()


WORKLOADS = {
    "cox_search": cox_search,
    "chart_compute": chart_compute,
    "closed_formula": closed_formula,
}


def check_pinned_outputs(workload, seed, limit, jobs):
    """Compare per-job output digests with those pinned for the default
    seed; other seeds, and the shrunken workloads of the self-test, have
    no pinned digests."""
    if seed != DEFAULT_SEED or limit or workload == "cox_search":
        return
    pinned = _pinned()[workload]
    if len(jobs.outputs) != len(pinned):
        jobs.fail("pinned", "%d outputs for %d pinned"
                  % (len(jobs.outputs), len(pinned)))
        return
    for index, (got, want) in enumerate(zip(jobs.outputs, pinned)):
        if got != want:
            jobs.fail(index, "output digest %s, pinned %s" % (got, want))
