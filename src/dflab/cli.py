"""Command line front end.

Three subcommands:

  compute   evaluate one flag ideal on one variety (JSON job in, JSON out)
  verify    run the self-check battery, or re-run a job against its cache
  search    sweep every chain of monomial ideals inside stated bounds

Exit codes: 0 success, 1 invalid input or a path that cannot be read or
written, 2 the exponent or sample range was too small to decide, 3 an exact
consistency check failed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import pathlib
import sys
import tempfile

from . import __version__
from .errors import (
    ConsistencyError,
    ExponentTooSmall,
    InvalidInput,
    NotStabilized,
    as_integer,
)
from .lattice_geometry import (
    box,
    hirzebruch_anticanonical,
    make_variety,
    projective_space,
)
from .monomial_algebra import FlagIdeal, MonomialIdeal, validate_flag_ideal
from .stability_lab import SearchBounds, search_destabilizers
from .weight_engine import (
    FitOptions,
    evaluate,
    hilbert_at,
    hilbert_polynomial,
    riemann_roch_holds,
    weight_sequence,
)


def _dump(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _list(value, what):
    """value as a tuple, or InvalidInput unless it is an array."""
    if not isinstance(value, (list, tuple)):
        raise InvalidInput("%s must be a list, not %r" % (what, value))
    return tuple(value)


def _check_fields(obj, known, what):
    """InvalidInput naming the first key of obj that is not in known."""
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise InvalidInput("unknown %s field %r" % (what, unknown[0]))


def build_variety(obj):
    if not isinstance(obj, dict):
        raise InvalidInput("variety must be an object")
    kind = obj.get("type", "polytope")
    if kind == "polytope":
        _check_fields(obj, ("type", "vertices", "chart_vertex"), "variety")
        if "vertices" not in obj:
            raise InvalidInput("polytope variety needs vertices")
        verts = [_list(v, "vertex")
                 for v in _list(obj["vertices"], "vertices")]
        chart = _list(obj["chart_vertex"], "chart_vertex") \
            if "chart_vertex" in obj else None
        return make_variety(verts, chart)
    if kind == "projective_space":
        _check_fields(obj, ("type", "n", "d"), "variety")
        return projective_space(obj.get("n", 1), obj.get("d", 1))
    if kind == "box":
        _check_fields(obj, ("type", "sides"), "variety")
        return box(_list(obj.get("sides", [1]), "sides"))
    if kind == "hirzebruch":
        _check_fields(obj, ("type",), "variety")
        return hirzebruch_anticanonical()
    raise InvalidInput("unknown variety type %r" % (kind,))


def build_flag(obj, variety):
    if not isinstance(obj, dict):
        raise InvalidInput("flag_ideal must be an object")
    _check_fields(obj, ("mode", "ideals", "N"), "flag_ideal")
    mode = obj.get("mode", "chart")
    if mode not in ("chart", "cox"):
        raise InvalidInput("unknown mode %r" % (mode,))
    ideals_obj = obj.get("ideals")
    if not isinstance(ideals_obj, list) or not ideals_obj:
        raise InvalidInput("flag_ideal needs a nonempty ideals list")
    if "N" in obj and as_integer(obj["N"], "N") != len(ideals_obj):
        raise InvalidInput("N disagrees with the number of ideals")
    nvars = variety.dim if mode == "chart" else len(variety.polytope.facets)
    chain = []
    for entry in ideals_obj:
        if not isinstance(entry, dict) or "gens" not in entry:
            raise InvalidInput(
                "each ideal must be an object with gens, not %r" % (entry,))
        _check_fields(entry, ("gens",), "ideal")
        gens = _list(entry["gens"], "gens")
        chain.append(MonomialIdeal.make(
            nvars, [_list(g, "generator") for g in gens]))
    return validate_flag_ideal(
        chain, mode=mode, variety=variety if mode == "cox" else None)


def _fit_options(job):
    kwargs = {}
    if "K_range" in job:
        window = _list(job["K_range"], "K_range")
        if len(window) != 2:
            raise InvalidInput("K_range must be [k_min, k_max], not %r"
                               % (job["K_range"],))
        kwargs["window"] = tuple(as_integer(k, "K_range entry")
                                 for k in window)
    if "K_cap" in job:
        kwargs["cap"] = as_integer(job["K_cap"], "K_cap")
    if "guard" in job:
        kwargs["guard"] = as_integer(job["guard"], "guard")
    return FitOptions(**kwargs)


def load_job(args):
    try:
        if args.job and args.job != "-":
            with open(args.job, encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
        job = json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidInput("job is not valid JSON: %s" % exc) from None
    if not isinstance(job, dict):
        raise InvalidInput("job must be a JSON object")
    return job


@functools.cache
def _source_digest():
    """sha256 over the name and bytes of each *.py file of the package, in
    name order; read once per process."""
    digest = hashlib.sha256()
    for path in sorted(pathlib.Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def job_key(job):
    """Cache key of a job: the job, the dflab version and the digest of the
    package sources that computed it, so a cache written by other code is
    not replayed, even under the same version."""
    return hashlib.sha256(json.dumps(
        {"job": job, "version": __version__, "source": _source_digest()},
        sort_keys=True).encode()).hexdigest()[:24]


def _write_atomic(path, text):
    """Write text to path so that readers see either no file or all of it:
    the bytes go to a temporary file in the same directory, which is then
    renamed over path."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with open(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def compute_envelope(job):
    _check_fields(job, ("variety", "flag_ideal", "r", "pipeline", "K_range",
                       "K_cap", "guard"), "job")
    variety = build_variety(job.get("variety", {}))
    flag = build_flag(job.get("flag_ideal", {}), variety)
    r = as_integer(job.get("r", 1), "r")
    if r < 1:
        raise InvalidInput("r must be a positive integer")
    report = evaluate(variety, flag, r, pipeline=job.get("pipeline", "both"),
                      options=_fit_options(job))
    return {
        "job": job,
        "flag": {
            "mode": flag.mode,
            "N": flag.big_n,
            "t_power": flag.t_power,
            "support": flag.support,
            "trivial": flag.trivial,
            "chain": [[list(g) for g in i.gens] for i in flag.chain],
        },
        "report": report.to_json_dict(),
    }


def _print_table(envelope, out):
    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(prefix + "." + k if prefix else k, obj[k])
        elif isinstance(obj, list):
            out.write("%-40s %s\n" % (prefix, json.dumps(obj)))
        else:
            out.write("%-40s %s\n" % (prefix, obj))

    walk("", envelope["report"])


def _cache_lookup(cache_dir, job):
    """The job's file in cache_dir, which is created if missing, and the
    envelope text stored there: None when there is none, and "" when it
    holds no envelope (bytes that are not UTF-8, or JSON cut short)."""
    os.makedirs(cache_dir, exist_ok=True)
    cache_file = os.path.join(cache_dir, job_key(job) + ".json")
    if not os.path.exists(cache_file):
        return cache_file, None
    try:
        with open(cache_file, encoding="utf-8") as fh:
            text = fh.read()
        envelope = json.loads(text)
    except ValueError:   # bytes that are not UTF-8, or not JSON
        envelope = None
    ok = isinstance(envelope, dict) and "report" in envelope
    return cache_file, text if ok else ""


def cmd_compute(args):
    """Print the job's envelope, replayed from --cache-dir when it holds
    one.  Both formats render the dumped bytes, so a computed and a
    replayed run print the same."""
    job = load_job(args)
    cache_file = text = None
    if args.cache_dir:
        cache_file, text = _cache_lookup(args.cache_dir, job)
    if not text:
        text = _dump(compute_envelope(job))
        if cache_file:
            _write_atomic(cache_file, text)
    if args.format == "table":
        _print_table(json.loads(text), sys.stdout)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args):
    if args.job:
        return _verify_job(args)
    return _verify_battery(args)


def _verify_job(args):
    job = load_job(args)
    envelope = compute_envelope(job)
    text = _dump(envelope)
    ok = True
    messages = []
    if args.cache_dir:
        cache_file, cached = _cache_lookup(args.cache_dir, job)
        if cached is None:
            messages.append("no cached result; stored a fresh one")
            _write_atomic(cache_file, text)
        elif cached != text:
            ok = False
            messages.append("cached result differs from recomputation")
    report = envelope["report"]
    for name, value in sorted(report.get("checks", {}).items()):
        if not value:
            ok = False
            messages.append("check failed: %s" % name)
    sys.stdout.write(_dump({
        "verified": ok,
        "messages": messages,
        "report": report,
    }))
    return 0 if ok else 3


def _battery_cases():
    return [
        ("segment", projective_space(1, 1)),
        ("segment_twice", projective_space(1, 2)),
        ("segment_thrice", projective_space(1, 3)),
        ("plane", projective_space(2, 1)),
        ("plane_twice", projective_space(2, 2)),
        ("square", box((1, 1))),
        ("hirzebruch", hirzebruch_anticanonical()),
        ("space", projective_space(3, 1)),
    ]


def _verify_battery(args):
    """Run every line of the self-check battery and print the summary.

    A line that raises one of dflab's own errors is that line's FAIL, with
    the error as its detail, and the lines after it still run; any FAIL
    makes the summary read verified: false and the exit code 3."""
    results = []

    def record(name, check):
        try:
            ok, detail = bool(check()), ""
        except (InvalidInput, NotStabilized, ExponentTooSmall,
                ConsistencyError) as exc:
            ok, detail = False, "%s: %s" % (type(exc).__name__, exc)
        results.append({"check": name, "ok": ok, "detail": detail})
        sys.stdout.write("[%s] %s%s\n" % (
            name, "PASS" if ok else "FAIL", " " + detail if detail else ""))

    # Ehrhart coefficients against the intersection numbers
    for name, variety in _battery_cases():
        record("riemann_roch_%s" % name, lambda v=variety: riemann_roch_holds(
            v, 1, hilbert_polynomial(v, 1)))

    variety = projective_space(1, 2)

    def t_power_shift():
        # multiplying the flag ideal by t shifts weights by exactly -K h(K)
        flag = validate_flag_ideal([MonomialIdeal.make(1, [(2,)])])
        raw = FlagIdeal(
            nvars=1, mode="chart",
            chain=(MonomialIdeal.zero(1), MonomialIdeal.make(1, [(2,)])),
            support="point", t_power=0)
        ks = range(1, 7)
        lhs = weight_sequence(variety, raw, 1, ks)
        rhs = weight_sequence(variety, flag, 1, ks)
        return all(lhs[k] == rhs[k] - k * hilbert_at(variety, 1, k)
                   for k in ks)

    def trivial_flag():
        # the trivial configuration carries zero weight and zero invariant;
        # its weight is built, not fitted, so the line also reads the
        # report's checks on its Hilbert fit
        trivial = validate_flag_ideal([MonomialIdeal.unit(1)])
        report = evaluate(variety, trivial, 1, pipeline="both")
        return (report.trivial and report.df == 0
                and report.weight_poly(5) == 0
                and report.checks and all(report.checks.values()))

    def cache_integrity():
        # byte-stable output: the same job rendered twice is identical
        job = {"variety": {"type": "projective_space", "n": 1, "d": 2},
               "flag_ideal": {"ideals": [{"gens": [[2]]}]}, "r": 1}
        return _dump(compute_envelope(job)) == _dump(compute_envelope(job))

    record("t_power_shift", t_power_shift)
    record("trivial_flag", trivial_flag)
    record("cache_integrity", cache_integrity)

    ok_all = all(r["ok"] for r in results)
    sys.stdout.write(_dump({"verified": ok_all, "results": results}))
    return 0 if ok_all else 3


def cmd_search(args):
    if args.workers < 1:
        raise InvalidInput(
            "--workers must be at least 1, not %d" % args.workers)
    job = load_job(args)
    _check_fields(job, ("variety", "bounds", "K_range", "K_cap", "guard"),
                 "search job")
    variety = build_variety(job.get("variety", {}))
    if "bounds" not in job:
        raise InvalidInput("search job needs bounds")
    bounds = SearchBounds.from_json(job["bounds"])
    _check_fields(job["bounds"], bounds.to_json_dict(), "bounds")
    options = _fit_options(job)
    report = search_destabilizers(
        variety, bounds, options=options, workers=args.workers,
        stream_path=args.stream)
    sys.stdout.write(_dump(report.to_json_dict()))
    if report.mismatches:
        return 3
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are invalid input (exit 1), not
    argparse's exit 2, which the CLI uses for undecided results."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InvalidInput(message)


def main(argv=None):
    parser = _Parser(
        prog="dflab",
        description="exact stability invariants of flag ideals on toric varieties")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="evaluate one flag ideal")
    p_compute.add_argument("--job", help="JSON job file, or - for stdin")
    p_compute.add_argument("--format", choices=("json", "table"),
                           default="json")
    p_compute.add_argument("--cache-dir", help="reuse identical results")
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser("verify", help="self checks or cache audit")
    p_verify.add_argument("--job", help="JSON job file to re-verify")
    p_verify.add_argument("--cache-dir", help="compare against cached result")
    p_verify.set_defaults(func=cmd_verify)

    p_search = sub.add_parser("search", help="sweep flag ideals in bounds")
    p_search.add_argument("--job", help="JSON job file, or - for stdin")
    p_search.add_argument("--stream", help="JSONL record stream with resume")
    p_search.add_argument("--workers", type=int, default=1,
                          help="parallel processes (default 1)")
    p_search.set_defaults(func=cmd_search)

    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (InvalidInput, OSError) as exc:
        # OSError: a job, stream or cache path that cannot be read or written
        sys.stderr.write("invalid input: %s\n" % exc)
        return 1
    except (NotStabilized, ExponentTooSmall) as exc:
        kind = type(exc).__name__
        sys.stderr.write("%s: %s\n" % (kind, exc))
        return 2
    except ConsistencyError as exc:
        sys.stderr.write("consistency failure: %s\n" % exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
