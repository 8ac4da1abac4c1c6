"""Bounded search for destabilizing flag ideals.

The search space is every chain of monomial ideals drawn from a bounded
generator pool (degree and generator-count caps, chain length cap),
evaluated at each requested exponent.  Every record carries the exact
invariant or a diagnosis of why the pair (ideal, r) could not be decided;
pipeline mismatches are collected separately and are expected to be empty.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product

from .errors import (
    ConsistencyError,
    ExponentTooSmall,
    InvalidInput,
    NotStabilized,
    as_integer,
)
from .monomial_algebra import (
    MonomialIdeal,
    minimalize,
    pure_powers,
    validate_flag_ideal,
)
from .weight_engine import FitOptions, evaluate


@dataclass(frozen=True)
class SearchBounds:
    n_max: int          # longest chain
    d_max: int          # max total degree of a generator
    g_max: int          # max number of generators per ideal
    r_list: tuple       # exponents to try
    mode: str = "chart"

    @staticmethod
    def from_json(obj):
        try:
            bounds = SearchBounds(
                n_max=as_integer(obj["N_max"], "N_max"),
                d_max=as_integer(obj["d_max"], "d_max"),
                g_max=as_integer(obj["g_max"], "g_max"),
                r_list=tuple(as_integer(r, "r_list entry")
                             for r in obj["r_list"]),
                mode=obj.get("mode", "chart"),
            )
        except KeyError as exc:
            raise InvalidInput("search bounds need %s" % exc) from None
        except (TypeError, ValueError) as exc:
            raise InvalidInput("malformed search bounds: %s" % exc) from None
        for name, value in (("N_max", bounds.n_max), ("d_max", bounds.d_max),
                            ("g_max", bounds.g_max)):
            if value < 1:
                raise InvalidInput(
                    "%s must be at least 1, not %d" % (name, value))
        if (not bounds.r_list or min(bounds.r_list) < 1
                or len(set(bounds.r_list)) < len(bounds.r_list)):
            raise InvalidInput("r_list must list distinct exponents of at "
                               "least 1, not %r" % (list(bounds.r_list),))
        return bounds

    def to_json_dict(self):
        return {
            "N_max": self.n_max,
            "d_max": self.d_max,
            "g_max": self.g_max,
            "r_list": list(self.r_list),
            "mode": self.mode,
        }


def _exponent_vectors(nvars, d_max):
    out = [v for v in product(range(d_max + 1), repeat=nvars)
           if 0 < sum(v) <= d_max]
    return sorted(out, key=lambda v: (sum(v), v))


def candidate_ideals(nvars, bounds):
    """All candidate monomial ideals inside the bounds, smallest first.

    Candidates are antichains (minimal generating sets) of nonzero
    exponent vectors.  In chart mode only point-supported ideals are kept,
    because only those define a finite-colength chart subscheme that the
    counting pipeline can consume.
    """
    vectors = _exponent_vectors(nvars, bounds.d_max)
    out = []
    for size in range(1, bounds.g_max + 1):
        for combo in combinations(vectors, size):
            if minimalize(combo) != tuple(sorted(combo, key=lambda g: (sum(g), g))):
                continue
            if bounds.mode == "chart" and None in pure_powers(combo, range(nvars)):
                continue
            out.append(MonomialIdeal.make(nvars, combo))
    return sorted(out, key=lambda i: (len(i.gens), i.gens))


def enumerate_flag_ideals(variety, bounds):
    """Every increasing chain of candidates with length up to N_max."""
    nvars = variety.dim if bounds.mode == "chart" else len(variety.polytope.facets)
    cands = candidate_ideals(nvars, bounds)
    chains = []
    # depth-first, children in candidate order: a chain precedes its
    # extensions, and siblings keep the order of cands
    stack = [(c,) for c in reversed(cands)] if bounds.n_max > 0 else []
    while stack:
        chain = stack.pop()
        chains.append(chain)
        if len(chain) < bounds.n_max:
            stack.extend(chain + (c,) for c in reversed(cands)
                         if c.includes(chain[-1]))
    return chains


def preset_normal_cone(ideal):
    """Chain for the deformation to the normal cone of V(ideal)."""
    if ideal.is_zero or ideal.is_unit:
        raise InvalidInput("normal cone preset needs a proper nonzero ideal")
    return (ideal,)


# ---------------------------------------------------------------------------
# search driver

def record_key(mode, chain_gens, r, variety, options=None):
    """Content hash of a search record's input, fit options included: a
    record decided under one sample window, guard or cap is not reused
    under another.  The default window is written out, so it hashes like
    the same window given explicitly."""
    options = options or FitOptions()
    payload = json.dumps({
        "mode": mode,
        "chain": [[list(g) for g in gens] for gens in chain_gens],
        "r": r,
        "vertices": [list(v) for v in variety.polytope.vertices],
        "chart": list(variety.chart_vertex),
        "window": list(options.window_for(variety.dim)),
        "guard": options.guard,
        "cap": options.cap,
    }, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _evaluate_task(task):
    """The records of one chain from (variety, mode, chain of ideals,
    (record_key, r) pairs, options), in pair order; module level so worker
    processes can import it.  Every r reuses the chain's one flag."""
    variety, mode, chain, pairs, options = task
    flag = validate_flag_ideal(
        chain, mode=mode, variety=variety if mode == "cox" else None)
    records = []
    for key, r in pairs:
        rec = {
            "key": key,
            "mode": mode,
            "chain": [[list(g) for g in i.gens] for i in chain],
            "r": r,
            "status": "ok",
            "DF": None,
            "DF_intersection": None,
            "consistent": None,
            "trivial": False,
            "diagnosis": None,
        }
        records.append(rec)
        try:
            report = evaluate(variety, flag, r, pipeline="both",
                              options=options)
        except NotStabilized as exc:
            rec["status"] = "undecided"
            rec["diagnosis"] = (
                "weights follow a period-%d quasi-polynomial; the exponent "
                "r=%d is too small for this ideal" % (exc.quasi_period, r)
                if exc.hint == "quasi_polynomial" else
                "weights did not stabilize inside the sample cap")
        except ExponentTooSmall as exc:
            rec["status"] = "undecided"
            rec["diagnosis"] = str(exc)
        except ConsistencyError as exc:
            rec["status"] = "mismatch"
            rec["diagnosis"] = str(exc)
        else:
            rec["trivial"] = report.trivial
            rec["DF"] = str(report.df)
            if report.decomposition is not None:
                rec["DF_intersection"] = str(report.decomposition.df)
            rec["consistent"] = report.consistent
            if report.notes:
                rec["diagnosis"] = "; ".join(report.notes)
    return records


@dataclass
class SearchReport:
    bounds: SearchBounds
    records: list = field(default_factory=list)
    total: int = 0

    @property
    def decided(self):
        return [r for r in self.records if r["status"] == "ok"]

    @property
    def undecided(self):
        return [r for r in self.records if r["status"] == "undecided"]

    @property
    def mismatches(self):
        return [r for r in self.records if r["status"] == "mismatch"]

    @property
    def minimum(self):
        best = self.witness
        return None if best is None else Fraction(best["DF"])

    @property
    def witness(self):
        """The first decided record of least DF, or None."""
        return min(self.decided, key=lambda r: Fraction(r["DF"]),
                   default=None)

    @property
    def destabilizers(self):
        return [r for r in self.decided if Fraction(r["DF"]) < 0]

    def to_json_dict(self):
        out = {
            "bounds": self.bounds.to_json_dict(),
            "total": self.total,
            "records": self.records,
            "decided": len(self.decided),
            "undecided": len(self.undecided),
            "mismatches": len(self.mismatches),
            "minimum": str(self.minimum) if self.minimum is not None else None,
            "witness": self.witness,
            "destabilizers": [r["key"] for r in self.destabilizers],
        }
        return out


def _load_stream(path):
    """Records already on a JSONL stream, by key.

    A last line without its newline is the tail of a write that was cut
    off; it is dropped and truncated from the file, so that appended
    records start on a line of their own.  A complete line that is not a
    JSON object with a "key" raises InvalidInput naming its number.
    """
    if not os.path.exists(path):
        return {}
    with open(path, "rb+") as fh:
        data = fh.read()
        end = data.rfind(b"\n") + 1
        if end < len(data):
            fh.truncate(end)
    done = {}
    for number, line in enumerate(data[:end].splitlines(), 1):
        if line.strip():
            try:
                rec = json.loads(line)
                done[rec["key"]] = rec
            except (ValueError, KeyError, TypeError):
                raise InvalidInput(
                    "line %d of the stream %s is not a JSON object with a "
                    "key" % (number, path)) from None
    return done


def search_destabilizers(variety, bounds, options=None, workers=1,
                         stream_path=None):
    """Evaluate every chain within bounds at every exponent in r_list.

    Results come back in a deterministic order regardless of worker count.
    Each chain is one task that evaluates the exponents it still lacks, in
    r_list order.  With stream_path set, a chain's records are appended to
    a JSONL file when it finishes, and existing records in the file are
    reused instead of being recomputed (resume semantics keyed by the
    content hash).
    """
    options = options or FitOptions()
    keys = []
    tasks = []
    done = _load_stream(stream_path) if stream_path else {}
    for chain in enumerate_flag_ideals(variety, bounds):
        gens = tuple(i.gens for i in chain)
        pairs = [(record_key(bounds.mode, gens, r, variety, options), r)
                 for r in bounds.r_list]
        keys += [key for key, _ in pairs]
        pairs = [(key, r) for key, r in pairs if key not in done]
        if pairs:
            tasks.append((variety, bounds.mode, chain, pairs, options))

    parallel = workers and workers > 1 and len(tasks) > 1
    if parallel:
        from multiprocessing import get_context  # slow to import; pools only
    with (open(stream_path, "a") if stream_path else nullcontext()) as fh, \
            (get_context("fork").Pool(workers) if parallel
             else nullcontext()) as pool:
        for recs in (pool.imap if parallel else map)(_evaluate_task, tasks):
            for rec in recs:
                done[rec["key"]] = rec
                if fh:
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")
                    fh.flush()

    return SearchReport(bounds=bounds, records=[done[k] for k in keys],
                        total=len(keys))
