"""End-to-end tests of the command line front end."""

import io
import json
import sys

import pytest

from dflab import cli, stability_lab
from dflab.errors import ConsistencyError


COMPUTE_JOB = {
    "variety": {"type": "projective_space", "n": 1, "d": 2},
    "flag_ideal": {"ideals": [{"gens": [[2]]}]},
    "r": 1,
}


def write_job(tmp_path, job, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(job))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# compute

def test_compute_envelope(tmp_path, capsys):
    path = write_job(tmp_path, COMPUTE_JOB)
    code, out, err = run(capsys, ["compute", "--job", path])
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["job"] == COMPUTE_JOB
    assert doc["flag"] == {
        "mode": "chart",
        "N": 1,
        "t_power": 0,
        "support": "point",
        "trivial": False,
        "chain": [[[2]]],
    }
    report = doc["report"]
    assert report["DF"] == "1"
    assert report["consistent"] is True
    assert report["decomposition"]["T1"] == "-4"
    # rendering is byte stable
    code2, out2, _ = run(capsys, ["compute", "--job", path])
    assert code2 == 0
    assert out2 == out


def test_compute_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(COMPUTE_JOB)))
    code, out, _ = run(capsys, ["compute", "--job", "-"])
    assert code == 0
    assert json.loads(out)["report"]["DF"] == "1"


def test_compute_quasi_regime_exits_two(tmp_path, capsys):
    job = {"variety": {"type": "projective_space", "n": 1, "d": 1},
           "flag_ideal": {"ideals": [{"gens": [[2]]}]}, "r": 1}
    code, out, err = run(capsys, ["compute", "--job", write_job(tmp_path, job)])
    assert code == 2
    assert out == ""
    assert "NotStabilized" in err
    assert "quasi" in err

    job["r"] = 2
    code, out, err = run(capsys, ["compute", "--job",
                                  write_job(tmp_path, job, "job2.json")])
    assert code == 0
    assert json.loads(out)["report"]["DF"] == "1"


@pytest.mark.parametrize("mangle, name", [
    (lambda j: j.update(r=-1), "negative_r"),
    (lambda j: j.update(pipeline="fast"), "bad_pipeline"),
    (lambda j: j["flag_ideal"].update(N=3), "wrong_N"),
    (lambda j: j.update(variety={"type": "moebius"}), "bad_variety"),
    (lambda j: j["flag_ideal"].update(
        ideals=[{"gens": [[1]]}, {"gens": [[2]]}]), "chain_violation"),
    # an ideal is an object with gens: an entry with a misspelt key is not
    # the zero ideal, and a bare list of generators is not an ideal
    (lambda j: j["flag_ideal"].update(ideals=[{"gns": [[2]]}]),
     "ideal_without_gens"),
    (lambda j: j["flag_ideal"].update(ideals=[[[2]]]), "bare_list_ideal"),
])
def test_compute_rejects_bad_jobs(tmp_path, capsys, mangle, name):
    job = json.loads(json.dumps(COMPUTE_JOB))
    mangle(job)
    code, out, err = run(capsys, ["compute", "--job", write_job(tmp_path, job)])
    assert code == 1
    assert out == ""
    assert "invalid input" in err


def _with(job, **fields):
    out = json.loads(json.dumps(job))
    out.update(fields)
    return out


# (x^3, y^3) on P^2(2) at r = 1 is a quasi-polynomial of period 3; with no
# guard window the fit accepted it and reported DF = 7
QUASI_JOB = {"variety": {"type": "projective_space", "n": 2, "d": 2},
             "flag_ideal": {"ideals": [{"gens": [[3, 0], [0, 3]]}]}, "r": 1}


@pytest.mark.parametrize("job", [
    _with(COMPUTE_JOB, K_range=[0, 8]),
    _with(COMPUTE_JOB, K_range=[-3, 5]),
    _with(COMPUTE_JOB, K_range=[6, 2]),
    _with(COMPUTE_JOB, guard=0),
    _with(QUASI_JOB, guard=0),
], ids=["starts_at_0", "starts_below_0", "ends_before_start", "guard_0",
        "guard_0_quasi"])
def test_compute_rejects_bad_fit_window(tmp_path, capsys, job):
    code, out, err = run(capsys, ["compute", "--job", write_job(tmp_path, job)])
    assert code == 1
    assert out == ""
    assert "invalid input" in err
    assert "Traceback" not in err


def test_quasi_job_with_guard_reports_the_period(tmp_path, capsys):
    code, _, err = run(capsys, ["compute", "--job",
                                write_job(tmp_path, QUASI_JOB)])
    assert code == 2
    assert "period 3" in err


# x^4 on P^1(2) reaches past the chart polytope at r = 1: the counts still
# fit, and the report carries the precheck's note, but the closed formula's
# exponent guard leaves the pipelines together undecided
CLIPPED_JOB = {"variety": {"type": "projective_space", "n": 1, "d": 2},
               "flag_ideal": {"ideals": [{"gens": [[4]]}]}, "r": 1}
CLIPPED_NOTE = ("exceptional locus may be clipped at r=1; expect a "
                "quasi-polynomial or an exponent error")


def test_compute_notes_a_clipped_locus(tmp_path, capsys):
    job = _with(CLIPPED_JOB, pipeline="counting")
    code, out, err = run(capsys, ["compute", "--job", write_job(tmp_path, job)])
    assert (code, err) == (0, "")
    report = json.loads(out)["report"]
    assert (report["DF"], report["notes"]) == ("3/2", [CLIPPED_NOTE])


def test_compute_clipped_locus_with_both_pipelines_exits_two(tmp_path,
                                                            capsys):
    job = _with(CLIPPED_JOB, pipeline="both")
    code, out, err = run(capsys, ["compute", "--job", write_job(tmp_path, job)])
    assert (code, out) == (2, "")
    assert err == ("ExponentTooSmall: newton polyhedron support point (4,) "
                   "leaves the chart polytope at exponent r=1\n")


def test_compute_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["compute", "--job", str(path)])
    assert code == 1
    assert "invalid input" in err


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_compute_rejects_a_job_that_is_not_utf8(tmp_path, capsys, monkeypatch,
                                               source):
    raw = b"\xff\xfe{"
    path = tmp_path / "job.json"
    path.write_bytes(raw)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw),
                                                       encoding="utf-8"))
    code, out, err = run(capsys, ["compute", "--job",
                                  str(path) if source == "file" else "-"])
    assert (code, out) == (1, "")
    assert err.startswith("invalid input: job is not valid JSON: ")
    assert len(err.splitlines()) == 1


def test_compute_table_format(tmp_path, capsys):
    path = write_job(tmp_path, COMPUTE_JOB)
    code, out, _ = run(capsys, ["compute", "--job", path, "--format", "table"])
    assert code == 0
    lines = dict()
    for line in out.splitlines():
        key, _, value = line.partition(" ")
        lines[key] = value.strip()
    assert lines["DF"] == "1"
    assert lines["decomposition.T3"] == "8"
    assert lines["checks.weak_riemann_roch"] == "True"


def test_compute_cache_replay(tmp_path, capsys):
    path = write_job(tmp_path, COMPUTE_JOB)
    cache = tmp_path / "cache"
    code, out, _ = run(capsys, ["compute", "--job", path,
                                "--cache-dir", str(cache)])
    assert code == 0
    files = list(cache.iterdir())
    assert len(files) == 1

    # the second run serves the cached bytes verbatim
    sentinel = json.loads(out)
    sentinel["report"]["DF"] = "999"
    files[0].write_text(json.dumps(sentinel, sort_keys=True, indent=2) + "\n")
    code, out2, _ = run(capsys, ["compute", "--job", path,
                                 "--cache-dir", str(cache)])
    assert code == 0
    assert json.loads(out2)["report"]["DF"] == "999"


def test_table_of_a_replayed_job_matches_the_computed_one(tmp_path, capsys):
    # m^2 on P^2(2) at r = 2: decomposition.rays holds objects, whose keys
    # a table rendered from the unsorted envelope would print in another
    # order than one rendered from the cached, sorted bytes
    job = {"variety": {"type": "projective_space", "n": 2, "d": 2},
           "flag_ideal": {"ideals": [{"gens": [[2, 0], [1, 1], [0, 2]]}]},
           "r": 2}
    path = write_job(tmp_path, job)
    argv = ["compute", "--job", path, "--format", "table",
            "--cache-dir", str(tmp_path / "cache")]
    code, fresh, _ = run(capsys, argv)
    assert code == 0
    assert len(list((tmp_path / "cache").iterdir())) == 1
    code, replayed, _ = run(capsys, argv)
    assert code == 0
    assert "decomposition.rays" in fresh
    assert replayed == fresh


def test_cache_key_hashes_the_package_sources(monkeypatch):
    key = cli.job_key(COMPUTE_JOB)
    assert len(cli._source_digest()) == 64
    monkeypatch.setattr(cli, "_source_digest", lambda: "0" * 64)
    assert cli.job_key(COMPUTE_JOB) != key
    monkeypatch.undo()
    assert cli.job_key(COMPUTE_JOB) == key


def test_compute_cache_of_another_version_is_recomputed(tmp_path, capsys,
                                                        monkeypatch):
    path = write_job(tmp_path, COMPUTE_JOB)
    cache = tmp_path / "cache"
    monkeypatch.setattr(cli, "__version__", "0.0.0")
    code, out, _ = run(capsys, ["compute", "--job", path,
                                "--cache-dir", str(cache)])
    assert code == 0
    [old] = cache.iterdir()
    # the other version's envelope holds a value this version would not give
    stale = json.loads(out)
    stale["report"]["DF"] = "999"
    old.write_text(json.dumps(stale, sort_keys=True, indent=2) + "\n")
    monkeypatch.undo()
    code, out, _ = run(capsys, ["compute", "--job", path,
                                "--cache-dir", str(cache)])
    assert code == 0
    assert json.loads(out)["report"]["DF"] == "1"
    assert len(list(cache.iterdir())) == 2
    # verify --job looks under the same key, so it sees the fresh envelope
    code, out, _ = run(capsys, ["verify", "--job", path,
                                "--cache-dir", str(cache)])
    assert code == 0
    assert json.loads(out)["messages"] == []


@pytest.mark.parametrize("command", ["compute", "verify"])
def test_interrupted_cache_write_leaves_no_envelope(tmp_path, capsys,
                                                    monkeypatch, command):
    path = write_job(tmp_path, COMPUTE_JOB)
    cache = tmp_path / "cache"
    cache.mkdir()

    class Killed(BaseException):
        pass

    class TornFile:
        """A file whose write lands half its bytes, then the process dies."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            self.fh.flush()
            raise Killed()

    def torn_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        return TornFile(fh) if "w" in mode else fh

    monkeypatch.setattr(cli, "open", torn_open, raising=False)
    with pytest.raises(Killed):
        cli.main([command, "--job", path, "--cache-dir", str(cache)])
    capsys.readouterr()
    monkeypatch.undo()
    # nothing half written sits under a name a later run would read
    assert list(cache.iterdir()) == []
    code, out, _ = run(capsys, ["compute", "--job", path,
                                "--cache-dir", str(cache)])
    assert code == 0
    assert json.loads(out)["report"]["DF"] == "1"


# a cache entry that holds no envelope, here bytes that are not UTF-8 or
# an envelope cut short, is computed again and rewritten, in either format
BROKEN_ENTRIES = pytest.mark.parametrize("mangle", [
    lambda stored: b"\xff" + stored[1:],
    lambda stored: stored[:len(stored) // 2],
], ids=["not_utf8", "cut_short"])


@BROKEN_ENTRIES
@pytest.mark.parametrize("fmt", ["json", "table"])
def test_compute_rewrites_a_broken_cache_entry(tmp_path, capsys, mangle, fmt):
    path = write_job(tmp_path, COMPUTE_JOB)
    cache = tmp_path / "cache"
    argv = ["compute", "--job", path, "--format", fmt,
            "--cache-dir", str(cache)]
    code, fresh, _ = run(capsys, argv)
    assert code == 0
    [entry] = cache.iterdir()
    stored = entry.read_bytes()
    entry.write_bytes(mangle(stored))
    assert run(capsys, argv) == (0, fresh, "")
    assert list(cache.iterdir()) == [entry]
    assert entry.read_bytes() == stored


# ---------------------------------------------------------------------------
# verify

def test_verify_job_round_trip(tmp_path, capsys):
    path = write_job(tmp_path, COMPUTE_JOB)
    cache = tmp_path / "cache"
    code, out, _ = run(capsys, ["verify", "--job", path,
                                "--cache-dir", str(cache)])
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] is True
    assert doc["messages"] == ["no cached result; stored a fresh one"]

    code, out, _ = run(capsys, ["verify", "--job", path,
                                "--cache-dir", str(cache)])
    assert code == 0
    assert json.loads(out)["messages"] == []


def test_verify_job_detects_tampered_cache(tmp_path, capsys):
    path = write_job(tmp_path, COMPUTE_JOB)
    cache = tmp_path / "cache"
    run(capsys, ["verify", "--job", path, "--cache-dir", str(cache)])
    cached = next(cache.iterdir())
    cached.write_text(cached.read_text().replace('"1"', '"7"'))
    code, out, _ = run(capsys, ["verify", "--job", path,
                                "--cache-dir", str(cache)])
    assert code == 3
    doc = json.loads(out)
    assert doc["verified"] is False
    assert "cached result differs from recomputation" in doc["messages"]


@BROKEN_ENTRIES
def test_verify_job_reports_a_broken_cache_entry(tmp_path, capsys, mangle):
    path = write_job(tmp_path, COMPUTE_JOB)
    cache = tmp_path / "cache"
    run(capsys, ["verify", "--job", path, "--cache-dir", str(cache)])
    [entry] = cache.iterdir()
    entry.write_bytes(mangle(entry.read_bytes()))
    code, out, err = run(capsys, ["verify", "--job", path,
                                  "--cache-dir", str(cache)])
    assert (code, err) == (3, "")
    doc = json.loads(out)
    assert doc["verified"] is False
    assert doc["messages"] == ["cached result differs from recomputation"]


def test_verify_job_fails_a_failed_check(tmp_path, capsys, monkeypatch):
    import dflab.weight_engine as we
    monkeypatch.setattr(we, "riemann_roch_holds", lambda *args: False)
    path = write_job(tmp_path, COMPUTE_JOB)
    code, out, _ = run(capsys, ["verify", "--job", path])
    assert code == 3
    doc = json.loads(out)
    assert doc["verified"] is False
    assert doc["messages"] == ["check failed: weak_riemann_roch"]


def test_verify_battery_fails_on_a_corrupted_hilbert_fit(capsys, monkeypatch):
    # the Riemann-Roch lines read the Ehrhart fits: one off coefficient
    # fails every one of them and the battery exits 3
    fit = cli.hilbert_polynomial

    def corrupted(variety, r):
        poly = fit(variety, r)
        coeffs = list(poly.coeffs)
        coeffs[-1] += 1
        return type(poly)(tuple(coeffs), poly.k0)

    monkeypatch.setattr(cli, "hilbert_polynomial", corrupted)
    code, out, _ = run(capsys, ["verify"])
    assert code == 3
    for name in ("segment", "plane", "hirzebruch", "space"):
        assert "[riemann_roch_%s] FAIL" % name in out
    assert "[t_power_shift] PASS" in out


def test_verify_battery_fails_on_a_corrupted_weight(capsys, monkeypatch):
    # the shift law compares two counted weight sequences: one off sample
    # in the first of them fails it
    count = cli.weight_sequence
    calls = []

    def corrupted(variety, flag, r, ks):
        weights = count(variety, flag, r, ks)
        if not calls:
            weights[max(weights)] += 1
        calls.append(flag)
        return weights

    monkeypatch.setattr(cli, "weight_sequence", corrupted)
    code, out, _ = run(capsys, ["verify"])
    assert code == 3
    assert "[t_power_shift] FAIL" in out


BATTERY_LINES = ["riemann_roch_" + name for name in (
    "segment", "segment_twice", "segment_thrice", "plane", "plane_twice",
    "square", "hirzebruch", "space")] + [
    "t_power_shift", "trivial_flag", "cache_integrity"]


def corrupt_fits(monkeypatch, degrees=None):
    """Add 1 to every coefficient of each fit_polynomial result of a degree
    in degrees (all degrees when None)."""
    import dflab.weight_engine as we
    fit = we.fit_polynomial

    def corrupted(samples, max_degree, guard=2):
        poly = fit(samples, max_degree, guard)
        if degrees is not None and max_degree not in degrees:
            return poly
        return type(poly)(tuple(c + 1 for c in poly.coeffs), poly.k0)

    monkeypatch.setattr(we, "fit_polynomial", corrupted)


def test_verify_battery_survives_a_raising_line(capsys, monkeypatch):
    # with every fit off by one, cache_integrity's compute job raises
    # ConsistencyError: that line fails with the message, and the battery
    # still prints every line and its summary, and exits 3
    corrupt_fits(monkeypatch)
    code, out, _ = run(capsys, ["verify"])
    assert code == 3
    lines = out[:out.index("\n{") + 1].splitlines()
    assert [line[1:line.index("]")] for line in lines] == BATTERY_LINES
    assert "[cache_integrity] FAIL ConsistencyError: " in out
    assert "[t_power_shift] PASS" in out
    summary = json.loads(out[out.index("\n{") + 1:])
    assert summary["verified"] is False
    assert [r["check"] for r in summary["results"]] == BATTERY_LINES
    failed = [r for r in summary["results"] if not r["ok"]]
    assert "hull integral" in failed[-1]["detail"]


def test_verify_battery_trivial_flag_reads_its_hilbert_fit(capsys,
                                                           monkeypatch):
    # the trivial flag's zero weight is built, not fitted; its line fails
    # when its Hilbert fit (degree 1 on P^1) breaks weak Riemann-Roch, as
    # do the Riemann-Roch lines of the segments and not those of surfaces
    corrupt_fits(monkeypatch, degrees=(1,))
    code, out, _ = run(capsys, ["verify"])
    assert code == 3
    assert "[trivial_flag] FAIL" in out
    assert "[riemann_roch_segment] FAIL" in out
    assert "[riemann_roch_plane] PASS" in out
    assert "[t_power_shift] PASS" in out


def test_verify_battery_passes(capsys):
    code, out, _ = run(capsys, ["verify"])
    assert code == 0
    assert "FAIL" not in out
    for name in ("riemann_roch_segment", "riemann_roch_hirzebruch",
                 "riemann_roch_space", "t_power_shift", "trivial_flag",
                 "cache_integrity"):
        assert "[%s] PASS" % name in out
    summary = json.loads(out[out.index("\n{") + 1:])
    assert summary["verified"] is True
    assert all(r["ok"] for r in summary["results"])


# ---------------------------------------------------------------------------
# search

SEARCH_JOB = {
    "variety": {"type": "projective_space", "n": 1, "d": 1},
    "bounds": {"N_max": 1, "d_max": 2, "g_max": 1, "r_list": [1, 2]},
}


def test_search_cli(tmp_path, capsys):
    path = write_job(tmp_path, SEARCH_JOB)
    code, out, _ = run(capsys, ["search", "--job", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 4
    assert doc["minimum"] == "0"
    assert doc["mismatches"] == 0
    assert doc["destabilizers"] == []


def test_search_cli_stream_resume(tmp_path, capsys):
    path = write_job(tmp_path, SEARCH_JOB)
    stream = tmp_path / "records.jsonl"
    code, out, _ = run(capsys, ["search", "--job", path,
                                "--stream", str(stream)])
    assert code == 0
    lines = stream.read_text().splitlines()
    assert len(lines) == 4
    code, out2, _ = run(capsys, ["search", "--job", path,
                                 "--stream", str(stream)])
    assert code == 0
    assert out2 == out
    assert stream.read_text().splitlines() == lines


def test_search_cli_needs_bounds(tmp_path, capsys):
    job = {"variety": SEARCH_JOB["variety"]}
    code, _, err = run(capsys, ["search", "--job", write_job(tmp_path, job)])
    assert code == 1
    assert "bounds" in err


def test_search_files_a_consistency_failure_as_a_mismatch(tmp_path, capsys,
                                                          monkeypatch):
    # a ConsistencyError out of one record's evaluation is that record's
    # mismatch: the search runs on, counts it, prints the report and
    # exits 3
    evaluate = stability_lab.evaluate

    def failing(variety, flag, r, **kwargs):
        if flag.chain[-1].gens == ((2,),) and r == 2:
            raise ConsistencyError("made-up disagreement")
        return evaluate(variety, flag, r, **kwargs)

    monkeypatch.setattr(stability_lab, "evaluate", failing)
    code, out, err = run(capsys, ["search", "--job",
                                  write_job(tmp_path, SEARCH_JOB)])
    assert code == 3
    assert err == ""
    doc = json.loads(out)
    assert (doc["total"], doc["decided"], doc["undecided"],
            doc["mismatches"]) == (4, 2, 1, 1)
    assert [(rec["chain"], rec["r"], rec["DF"], rec["diagnosis"])
            for rec in doc["records"] if rec["status"] == "mismatch"] == \
        [([[[2]]], 2, None, "made-up disagreement")]


def test_compute_consistency_failure_exits_three(tmp_path, capsys,
                                                 monkeypatch):
    def failing(*args, **kwargs):
        raise ConsistencyError("made-up disagreement")

    monkeypatch.setattr(cli, "evaluate", failing)
    code, out, err = run(capsys, ["compute", "--job",
                                  write_job(tmp_path, COMPUTE_JOB)])
    assert code == 3
    assert out == ""
    assert err == "consistency failure: made-up disagreement\n"


def test_search_worker_pool(tmp_path, capsys):
    path = write_job(tmp_path, SEARCH_JOB)
    base = run(capsys, ["search", "--job", path])
    pooled = run(capsys, ["search", "--job", path, "--workers", "2"])
    assert pooled == base


# ---------------------------------------------------------------------------
# malformed fields

@pytest.mark.parametrize("command, job", [
    ("compute", _with(COMPUTE_JOB, r="a")),
    ("compute", _with(COMPUTE_JOB, variety={"type": "projective_space",
                                             "n": "x"})),
    ("compute", _with(COMPUTE_JOB, variety={"type": "box", "sides": 3})),
    ("compute", _with(COMPUTE_JOB, variety={"type": "polytope",
                                             "vertices": [[0], ["a"]]})),
    ("compute", _with(COMPUTE_JOB, flag_ideal={"ideals": [{"gens": [["a"]]}]})),
    ("compute", _with(COMPUTE_JOB, K_range=[1])),
    ("search", _with(SEARCH_JOB, bounds={"N_max": 1, "d_max": 2,
                                         "r_list": [1]})),
    ("compute", _with(COMPUTE_JOB, K_range=[1, 8], K_cap=-5)),
    ("compute", _with(COMPUTE_JOB, K_cap=4, pipeline="intersection")),
    ("search", _with(SEARCH_JOB, K_cap=4)),
    ("compute", _with(COMPUTE_JOB, variety={"type": "box", "sides": []})),
    ("compute", _with(COMPUTE_JOB, variety={"type": "polytope",
                                             "vertices": [[]]})),
], ids=["r", "variety_n", "sides", "vertex_entry", "generator_entry",
        "K_range_length", "bounds_without_g_max",
        "K_cap_below_window", "K_cap_unused", "search_K_cap", "no_sides",
        "empty_vertex"])
def test_malformed_job_fields_exit_one(tmp_path, capsys, command, job):
    code, out, err = run(capsys, [command, "--job", write_job(tmp_path, job)])
    assert code == 1
    assert out == ""
    assert "invalid input" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# usage errors and non-integral numbers are invalid input (exit 1); exit 2
# means undecided

@pytest.mark.parametrize("argv", [
    ["search", "--workers", "two"],
    ["compute", "--no-such-flag"],
], ids=["bad_workers", "unknown_flag"])
def test_usage_errors_exit_one(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert "usage:" in err
    assert "invalid input" in err
    assert "Traceback" not in err


PLANE = {"ideals": [{"gens": [[1, 0], [0, 1]]}]}


# a JSON true is a bool, and True == 1 in Python, but it is not an integer
@pytest.mark.parametrize("job", [
    _with(COMPUTE_JOB, r=1.9, pipeline="intersection"),
    _with(COMPUTE_JOB, flag_ideal={"ideals": [{"gens": [[1.5]]}]}),
    _with(COMPUTE_JOB, K_range=[1.5, 8]),
    _with(COMPUTE_JOB, r=True),
    _with(COMPUTE_JOB, variety={"type": "projective_space", "n": 2},
          flag_ideal={"ideals": [{"gens": [[1, 0], [0, True]]}]}),
    _with(COMPUTE_JOB, guard=True),
    _with(COMPUTE_JOB, variety={"type": "box", "sides": [True, 1]},
          flag_ideal=PLANE),
    _with(COMPUTE_JOB, variety={"type": "projective_space", "n": True}),
    _with(COMPUTE_JOB, flag_ideal=PLANE, variety={
        "type": "polytope", "vertices": [[0, 0], [True, 0], [0, True]]}),
    _with(COMPUTE_JOB, flag_ideal=PLANE, variety={
        "type": "polytope", "vertices": [[0, 0], [1, 0], [0, 1]],
        "chart_vertex": [False, 0]}),
    _with(COMPUTE_JOB, r=float("inf")),
    _with(COMPUTE_JOB, variety={"type": "box", "sides": [1, float("-inf")]},
          flag_ideal=PLANE),
    _with(COMPUTE_JOB, flag_ideal=PLANE, variety={
        "type": "polytope", "vertices": [[0, 0], [float("inf"), 0], [0, 1]]}),
], ids=["r", "generator", "K_range", "r_bool", "generator_bool",
        "guard_bool", "sides_bool", "n_bool", "vertex_bool",
        "chart_vertex_bool", "r_infinite", "sides_infinite",
        "vertex_infinite"])
def test_non_integral_numbers_exit_one(tmp_path, capsys, job):
    code, out, err = run(capsys, ["compute", "--job", write_job(tmp_path, job)])
    assert code == 1
    assert out == ""
    assert "invalid input" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("bounds", [
    {"N_max": 1.7, "d_max": 2, "g_max": 1, "r_list": [1]},
    {"N_max": 1, "d_max": 2.9, "g_max": 1, "r_list": [1]},
    {"N_max": 1, "d_max": 2, "g_max": 1.5, "r_list": [1]},
    {"N_max": 1, "d_max": 2, "g_max": 1, "r_list": [1.5]},
    {"N_max": "1", "d_max": 2, "g_max": 1, "r_list": [1]},
    {"N_max": 1, "d_max": 2, "g_max": 1, "r_list": [1, 0]},
    {"N_max": -1, "d_max": 2, "g_max": 1, "r_list": [1]},
    {"N_max": 0, "d_max": 2, "g_max": 1, "r_list": [1]},
    {"N_max": 1, "d_max": 0, "g_max": 1, "r_list": [1]},
    {"N_max": 1, "d_max": 2, "g_max": 0, "r_list": [1]},
    {"N_max": True, "d_max": 2, "g_max": 1, "r_list": [1]},
    {"N_max": 1, "d_max": 2, "g_max": 1, "r_list": [True]},
    {"N_max": 1, "d_max": 2, "g_max": 1, "r_list": []},
    {"N_max": 1, "d_max": 2, "g_max": 1, "r_list": [1, 1]},
    {"N_max": float("inf"), "d_max": 2, "g_max": 1, "r_list": [1]},
], ids=["N_max", "d_max", "g_max", "r_list", "string", "r_zero",
        "N_max_negative", "N_max_zero", "d_max_zero", "g_max_zero",
        "N_max_bool", "r_list_bool", "r_list_empty", "r_list_repeat",
        "N_max_infinite"])
def test_bad_search_bounds_exit_one(tmp_path, capsys, bounds):
    job = _with(SEARCH_JOB, bounds=bounds)
    code, out, err = run(capsys, ["search", "--job", write_job(tmp_path, job)])
    assert code == 1
    assert out == ""
    assert "invalid input" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# an unknown flag mode is named as such, not as a generator of the wrong
# arity: the mode is checked before it sizes the generators

@pytest.mark.parametrize("gens", [[[2]], [[2, 0]], [[1, 1, 1, 1]]],
                         ids=["chart_arity", "other_arity", "cox_arity"])
def test_unknown_flag_mode_exits_one(tmp_path, capsys, gens):
    job = _with(COMPUTE_JOB, flag_ideal={"mode": "foo",
                                         "ideals": [{"gens": gens}]})
    code, out, err = run(capsys, ["compute", "--job", write_job(tmp_path, job)])
    assert (code, out) == (1, "")
    assert err == "invalid input: unknown mode 'foo'\n"


# ---------------------------------------------------------------------------
# a field that nothing reads is invalid input, named in one line, so that a
# misspelt field cannot leave its default in force without a word

@pytest.mark.parametrize("command, job, unknown", [
    ("compute", _with(COMPUTE_JOB, pipline="intersection"),
     "job field 'pipline'"),
    ("compute", _with(COMPUTE_JOB, K_rnage=[0, 8]), "job field 'K_rnage'"),
    ("compute", _with(COMPUTE_JOB, variety=dict(COMPUTE_JOB["variety"],
                                                 sides=[1])),
     "variety field 'sides'"),
    ("compute", _with(COMPUTE_JOB, variety={"type": "box", "sides": [1],
                                             "n": 1}), "variety field 'n'"),
    ("compute", _with(COMPUTE_JOB, variety={"type": "hirzebruch", "d": 2}),
     "variety field 'd'"),
    ("compute", _with(COMPUTE_JOB, variety={
        "vertices": [[0], [2]], "chart": [0]}), "variety field 'chart'"),
    ("compute", _with(COMPUTE_JOB, flag_ideal={
        "ideals": [{"gens": [[2]]}], "mdoe": "cox"}),
     "flag_ideal field 'mdoe'"),
    ("compute", _with(COMPUTE_JOB, flag_ideal={
        "ideals": [{"gens": [[2]], "level": 0}]}), "ideal field 'level'"),
    ("search", _with(SEARCH_JOB, r=2), "search job field 'r'"),
    ("search", _with(SEARCH_JOB, workers=2), "search job field 'workers'"),
    ("search", _with(SEARCH_JOB, bounds=dict(SEARCH_JOB["bounds"], n_max=3)),
     "bounds field 'n_max'"),
    ("search", _with(SEARCH_JOB, variety={"type": "projective_space",
                                           "n": 1, "dd": 2}),
     "variety field 'dd'"),
], ids=["pipeline", "K_range", "projective_space", "box", "hirzebruch",
        "polytope", "flag_ideal", "ideal", "search_r", "search_workers",
        "bounds", "search_variety"])
def test_unknown_fields_exit_one(tmp_path, capsys, command, job, unknown):
    code, out, err = run(capsys, [command, "--job", write_job(tmp_path, job)])
    assert (code, out) == (1, "")
    assert err == "invalid input: unknown %s\n" % unknown


def test_every_known_field_is_read(tmp_path, capsys):
    # a job that gives every field its default computes what the bare job
    # does, and the same holds for a search
    full = _with(COMPUTE_JOB, pipeline="both", K_range=[1, 7], K_cap=40,
                 guard=2, flag_ideal={"mode": "chart", "N": 1,
                                      "ideals": [{"gens": [[2]]}]})
    reports = []
    for job in (COMPUTE_JOB, full):
        code, out, _ = run(capsys, ["compute", "--job",
                                    write_job(tmp_path, job)])
        assert code == 0
        reports.append(json.loads(out)["report"])
    assert reports[0] == reports[1]
    full = _with(SEARCH_JOB, K_range=[1, 7], K_cap=40, guard=2,
                 bounds=dict(SEARCH_JOB["bounds"], mode="chart"))
    outs = [run(capsys, ["search", "--job", write_job(tmp_path, job)])
            for job in (SEARCH_JOB, full)]
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# a worker count below 1 is invalid input; the count comes from --workers
# alone, and is checked before the job is read, whose workers field is
# unknown

@pytest.mark.parametrize("argv, job", [
    (["--workers=0"], {}),
    (["--workers=-2"], {}),
    (["--workers", "0"], {"workers": 2}),
], ids=["flag_zero", "flag_negative", "flag_zero_over_job"])
def test_worker_count_below_one_exits_one(tmp_path, capsys, argv, job):
    path = write_job(tmp_path, dict(SEARCH_JOB, **job))
    code, out, err = run(capsys, ["search", "--job", path] + argv)
    assert code == 1
    assert out == ""
    assert "must be at least 1" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# a path that cannot be read or written, or a stream line that is not a
# record, is invalid input too: exit 1 with a one-line message

@pytest.mark.parametrize("argv, stream", [
    (["compute", "--job", "{tmp}/missing.json"], None),
    (["search", "--job", "{search}", "--stream", "{tmp}/no/s.jsonl"], None),
    (["compute", "--job", "{compute}", "--cache-dir", "{compute}"], None),
    (["search", "--job", "{search}", "--stream", "{tmp}/s.jsonl"],
     "not json\n"),
    (["search", "--job", "{search}", "--stream", "{tmp}/s.jsonl"],
     '{"DF": "0"}\n'),
], ids=["missing_job", "stream_directory", "cache_dir_is_a_file",
        "stream_not_json", "stream_without_key"])
def test_unusable_paths_and_streams_exit_one(tmp_path, capsys, argv, stream):
    paths = {"tmp": str(tmp_path),
             "compute": write_job(tmp_path, COMPUTE_JOB),
             "search": write_job(tmp_path, SEARCH_JOB, "search.json")}
    if stream is not None:
        (tmp_path / "s.jsonl").write_text(stream)
    code, out, err = run(capsys, [a.format(**paths) for a in argv])
    assert code == 1
    assert out == ""
    assert err.startswith("invalid input: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# a job, variety or flag_ideal of the wrong shape is invalid input

@pytest.mark.parametrize("job", [
    _with(COMPUTE_JOB, variety=[1]),
    _with(COMPUTE_JOB, variety={"type": "polytope"}),
    _with(COMPUTE_JOB, flag_ideal=[1]),
    _with(COMPUTE_JOB, flag_ideal={"ideals": []}),
    [],
], ids=["variety_not_an_object", "polytope_without_vertices",
        "flag_ideal_not_an_object", "no_ideals", "job_is_a_list"])
def test_misshapen_jobs_exit_one(tmp_path, capsys, job):
    code, out, err = run(capsys, ["compute", "--job", write_job(tmp_path, job)])
    assert code == 1
    assert out == ""
    assert err.startswith("invalid input: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_a_level_table_too_large_to_index_exits_one(tmp_path, capsys):
    # x^(10^20) puts 10^20 + 1 cells on one axis of the level table of J
    job = {"variety": {"type": "projective_space", "n": 2, "d": 2},
           "flag_ideal": {"ideals": [{"gens": [[10 ** 20, 0], [0, 1]]}]},
           "r": 1}
    code, out, err = run(capsys, ["compute", "--job", write_job(tmp_path, job)])
    assert code == 1
    assert out == ""
    assert err == ("invalid input: the level table of J^1 has "
                   "200000000000000000002 cells, too many to index\n")


def test_compute_on_the_stock_hirzebruch_surface(tmp_path, capsys):
    # m on F1 with its anticanonical polarization at r = 2
    job = {"variety": {"type": "hirzebruch"},
           "flag_ideal": {"ideals": [{"gens": [[1, 0], [0, 1]]}]}, "r": 2}
    code, out, _ = run(capsys, ["compute", "--job", write_job(tmp_path, job)])
    assert code == 0
    report = json.loads(out)["report"]
    assert (report["DF"], report["consistent"]) == ("20/3", True)


def test_intersection_envelope_holds_the_closed_formula_alone():
    # m^2 on P^2(2) at r = 2 through the closed formula only
    job = {"variety": {"type": "projective_space", "n": 2, "d": 2},
           "flag_ideal": {"ideals": [{"gens": [[2, 0], [1, 1], [0, 2]]}]},
           "r": 2, "pipeline": "intersection"}
    report = cli.compute_envelope(job)["report"]
    assert set(report) == {"DF", "decomposition", "normalization",
                           "pipeline", "r", "trivial"}
    assert (report["DF"], report["decomposition"]["DF"]) == ("8", "8")
