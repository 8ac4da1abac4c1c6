"""Tests for the bounded destabilizer search."""

import gc
import json
from fractions import Fraction

import pytest

import dflab.lattice_geometry as lg
import dflab.monomial_algebra as ma
import dflab.stability_lab as lab
from dflab.errors import ExponentTooSmall, InvalidInput, NotStabilized
from dflab.intersection_engine import df_intersection
from dflab.lattice_geometry import (
    box,
    hirzebruch_anticanonical,
    projective_space,
)
from dflab.monomial_algebra import MonomialIdeal, validate_flag_ideal
from dflab.stability_lab import (
    SearchBounds,
    candidate_ideals,
    enumerate_flag_ideals,
    preset_normal_cone,
    record_key,
    search_destabilizers,
)
from dflab.weight_engine import FitOptions, evaluate


LINE_BOUNDS = SearchBounds(n_max=1, d_max=2, g_max=1, r_list=(1, 2))


def test_bounds_json_round_trip():
    b = SearchBounds(n_max=2, d_max=3, g_max=2, r_list=(1, 2), mode="cox")
    assert SearchBounds.from_json(b.to_json_dict()) == b
    assert SearchBounds.from_json(
        {"N_max": 1, "d_max": 1, "g_max": 1, "r_list": [1]}).mode == "chart"


# ---------------------------------------------------------------------------
# enumeration

def test_candidates_one_variable():
    cands = candidate_ideals(1, LINE_BOUNDS)
    assert [c.gens for c in cands] == [((1,),), ((2,),)]


def test_candidates_two_variables_are_point_supported():
    bounds = SearchBounds(n_max=1, d_max=2, g_max=3, r_list=(1,))
    cands = candidate_ideals(2, bounds)
    assert {frozenset(c.gens) for c in cands} == {
        frozenset({(0, 1), (1, 0)}),
        frozenset({(0, 1), (2, 0)}),
        frozenset({(0, 2), (1, 0)}),
        frozenset({(0, 2), (2, 0)}),
        frozenset({(0, 2), (1, 1), (2, 0)}),
    }
    # antichains only: nothing here contains a redundant generator
    for c in cands:
        for g in c.gens:
            trimmed = MonomialIdeal.make(2, [h for h in c.gens if h != g])
            assert not trimmed.contains(g)


def test_chain_enumeration_allows_repeats():
    v = projective_space(1, 1)
    bounds = SearchBounds(n_max=2, d_max=2, g_max=1, r_list=(1,))
    chains = enumerate_flag_ideals(v, bounds)
    as_gens = [tuple(i.gens for i in chain) for chain in chains]
    x, x2 = ((1,),), ((2,),)
    assert as_gens == [
        (x,), (x, x), (x2,), (x2, x), (x2, x2)]
    # every chain passes validation: levels only grow along the chain
    for chain in chains:
        validate_flag_ideal(list(chain))


def test_chain_enumeration_empty_without_degrees():
    v = projective_space(1, 1)
    bounds = SearchBounds(n_max=2, d_max=0, g_max=1, r_list=(1,))
    assert enumerate_flag_ideals(v, bounds) == []


def test_chain_enumeration_leaves_no_reference_cycles():
    v = hirzebruch_anticanonical()
    bounds = SearchBounds(n_max=2, d_max=2, g_max=1, r_list=(1,), mode="cox")
    gc.collect()
    gc.disable()
    try:
        assert len(enumerate_flag_ideals(v, bounds)) == 44
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_normal_cone_preset():
    ideal = MonomialIdeal.make(2, [(1, 0), (0, 1)])
    assert preset_normal_cone(ideal) == (ideal,)
    with pytest.raises(InvalidInput):
        preset_normal_cone(MonomialIdeal.zero(2))
    with pytest.raises(InvalidInput):
        preset_normal_cone(MonomialIdeal.unit(2))


def test_record_key_is_stable_and_sensitive():
    v = projective_space(1, 1)
    w = projective_space(1, 2)
    gens = (((1,),),)
    key = record_key("chart", gens, 1, v)
    assert key == record_key("chart", gens, 1, v)
    assert len(key) == 16
    assert int(key, 16) >= 0
    assert key != record_key("chart", gens, 2, v)
    assert key != record_key("chart", (((2,),),), 1, v)
    assert key != record_key("chart", gens, 1, w)
    # fit options are part of the input; the default window hashes like
    # the same window given explicitly
    assert key == record_key("chart", gens, 1, v, FitOptions())
    assert key == record_key("chart", gens, 1, v, FitOptions(window=(1, 7)))
    assert key != record_key("chart", gens, 1, v, FitOptions(window=(1, 4)))
    assert key != record_key("chart", gens, 1, v, FitOptions(guard=3))
    assert key != record_key("chart", gens, 1, v, FitOptions(cap=12))


def test_record_key_rejects_a_cap_below_the_window():
    # the default window on P^1 is (1, 7), which a cap of 4 cannot hold
    v = projective_space(1, 1)
    with pytest.raises(InvalidInput):
        record_key("chart", (((1,),),), 1, v, FitOptions(cap=4))


# ---------------------------------------------------------------------------
# search driver

def test_search_on_the_line():
    v = projective_space(1, 1)
    report = search_destabilizers(v, LINE_BOUNDS)
    assert report.total == 4
    assert len(report.records) == 4
    assert report.mismatches == []
    assert report.destabilizers == []
    assert report.minimum == 0

    by_case = {(tuple(tuple(tuple(g) for g in gens) for gens in r["chain"]),
                r["r"]): r for r in report.records}
    x, x2 = (((1,),),), (((2,),),)
    assert by_case[(x, 1)]["DF"] == "0"
    assert by_case[(x, 2)]["DF"] == "1/2"
    assert by_case[(x2, 2)]["DF"] == "1"
    hard = by_case[(x2, 1)]
    assert hard["status"] == "undecided"
    assert "period-2" in hard["diagnosis"]
    assert "r=1" in hard["diagnosis"]

    wit = report.witness
    assert wit["chain"] == [[[1]]]
    assert wit["r"] == 1
    # decided records carry both pipeline values and agree
    for rec in report.decided:
        assert rec["consistent"] is True
        assert Fraction(rec["DF_intersection"]) <= Fraction(rec["DF"])


def test_search_is_deterministic_across_workers():
    v = projective_space(1, 1)
    serial = search_destabilizers(v, LINE_BOUNDS, workers=1)
    parallel = search_destabilizers(v, LINE_BOUNDS, workers=2)
    assert serial.records == parallel.records


def test_search_stream_and_resume(tmp_path, monkeypatch):
    v = projective_space(1, 1)
    stream = tmp_path / "records.jsonl"
    first = search_destabilizers(v, LINE_BOUNDS, stream_path=str(stream))
    lines = stream.read_text().splitlines()
    assert len(lines) == 4
    for line in lines:
        json.loads(line)

    # resume: every record is on file, so no task may run again
    def boom(task):
        raise AssertionError("resume recomputed a finished record")

    monkeypatch.setattr(lab, "_evaluate_task", boom)
    second = search_destabilizers(v, LINE_BOUNDS, stream_path=str(stream))
    assert second.records == first.records
    assert stream.read_text().splitlines() == lines


def test_search_resume_evaluates_only_missing_exponents(tmp_path,
                                                       monkeypatch):
    v = projective_space(1, 1)
    fresh = tmp_path / "fresh.jsonl"
    full = search_destabilizers(v, LINE_BOUNDS, stream_path=str(fresh))
    lines = fresh.read_text().splitlines()
    # an earlier run with r_list (1,) left only the r=1 records
    stream = tmp_path / "records.jsonl"
    first = [line for line in lines if json.loads(line)["r"] == 1]
    stream.write_text("".join(line + "\n" for line in first))
    seen = []

    def spy(variety, flag, r, **kwargs):
        seen.append(r)
        return evaluate(variety, flag, r, **kwargs)

    monkeypatch.setattr(lab, "evaluate", spy)
    resumed = search_destabilizers(v, LINE_BOUNDS, stream_path=str(stream))
    assert seen == [2, 2]
    assert resumed.records == full.records
    assert stream.read_text().splitlines() == first + [
        line for line in lines if json.loads(line)["r"] == 2]


def test_chart_search_builds_one_polyhedron_per_chain(monkeypatch):
    v = projective_space(2, 2)
    bounds = SearchBounds(n_max=1, d_max=2, g_max=2, r_list=(1, 2, 3))
    chains = enumerate_flag_ideals(v, bounds)
    calls = []
    build = ma.newton_polyhedron

    def counted(flag):
        calls.append(flag.chain)
        return build(flag)

    monkeypatch.setattr(ma, "newton_polyhedron", counted)
    report = search_destabilizers(v, bounds)
    assert calls == chains
    # each record holds what evaluate gives its (chain, r) on its own
    assert len(report.records) == 3 * len(chains)
    for rec, (chain, r) in zip(report.records,
                               [(c, r) for c in chains for r in (1, 2, 3)]):
        assert (rec["chain"], rec["r"]) == (
            [[list(g) for g in i.gens] for i in chain], r)
        try:
            rep = evaluate(v, validate_flag_ideal(list(chain)), r)
        except (NotStabilized, ExponentTooSmall):
            assert rec["status"] == "undecided"
            continue
        assert rec["status"] == "ok"
        assert (rec["DF"], rec["DF_intersection"], rec["consistent"]) == (
            str(rep.df), str(rep.decomposition.df), rep.consistent)


def test_search_files_an_exponent_error_as_undecided():
    # (x^4) on P^1(2) at r = 1 counts to a polynomial, but the closed
    # formula's exponent guard fires: the record is undecided, with the
    # guard's message as its diagnosis
    v = projective_space(1, 2)
    bounds = SearchBounds(n_max=1, d_max=4, g_max=1, r_list=(1,))
    report = search_destabilizers(v, bounds)
    flag = validate_flag_ideal([MonomialIdeal.make(1, [(4,)])])
    with pytest.raises(ExponentTooSmall) as exc:
        df_intersection(v, flag, 1)
    rec = report.records[-1]
    assert (rec["chain"], rec["status"], rec["DF"]) == (
        [[[4]]], "undecided", None)
    assert rec["diagnosis"] == str(exc.value)
    assert "support point (4,)" in rec["diagnosis"]
    assert report.mismatches == []


def test_search_resume_drops_torn_last_line(tmp_path):
    v = projective_space(1, 1)
    bounds = SearchBounds(n_max=1, d_max=2, g_max=1, r_list=(2,))
    stream = tmp_path / "records.jsonl"
    first = search_destabilizers(v, bounds, stream_path=str(stream))
    lines = stream.read_text().splitlines(keepends=True)
    assert len(lines) == 2
    # a kill mid-write leaves the last record cut short, without newline
    stream.write_text(lines[0] + lines[1][:len(lines[1]) // 2])
    second = search_destabilizers(v, bounds, stream_path=str(stream))
    assert second.records == first.records
    # the torn tail was cut off before the recomputed record went on file
    text = stream.read_text()
    assert text.endswith("\n")
    assert [json.loads(line) for line in text.splitlines()] == first.records


@pytest.mark.parametrize("line", ["not json", '{"DF": "0"}', "[1, 2]"],
                         ids=["not_json", "no_key", "not_an_object"])
def test_search_resume_rejects_a_malformed_line(tmp_path, line):
    v = projective_space(1, 1)
    bounds = SearchBounds(n_max=1, d_max=2, g_max=1, r_list=(2,))
    stream = tmp_path / "records.jsonl"
    search_destabilizers(v, bounds, stream_path=str(stream))
    lines = stream.read_text().splitlines(keepends=True)
    stream.write_text(lines[0] + line + "\n" + lines[1][:10])
    with pytest.raises(InvalidInput, match="line 2 of the stream"):
        search_destabilizers(v, bounds, stream_path=str(stream))
    # the torn tail is still cut off; the complete lines are kept
    assert stream.read_text() == lines[0] + line + "\n"


def test_search_resume_ignores_records_of_other_fit_options(tmp_path):
    # records left undecided by a narrow window and a low cap must not be
    # replayed by a resume that runs with the default options
    v = hirzebruch_anticanonical()
    bounds = SearchBounds(n_max=1, d_max=2, g_max=1, r_list=(1,), mode="cox")
    stream = str(tmp_path / "records.jsonl")
    narrow = search_destabilizers(
        v, bounds, options=FitOptions(window=(1, 4), cap=4),
        stream_path=stream)
    fresh = search_destabilizers(v, bounds)
    assert len(narrow.undecided) > len(fresh.undecided)
    resumed = search_destabilizers(v, bounds, stream_path=stream)
    assert resumed.records == fresh.records
    assert len(resumed.undecided) == len(fresh.undecided) == 3


def test_witness_round_trip():
    v = projective_space(1, 1)
    report = search_destabilizers(v, LINE_BOUNDS)
    wit = report.witness
    chain = [MonomialIdeal.make(1, [tuple(g) for g in gens])
             for gens in wit["chain"]]
    rep = evaluate(v, validate_flag_ideal(chain), wit["r"])
    assert str(rep.df) == wit["DF"]


def test_search_respects_lattice_symmetry():
    bounds = SearchBounds(n_max=1, d_max=2, g_max=2, r_list=(2,))
    tall = search_destabilizers(box((1, 2)), bounds)
    wide = search_destabilizers(box((2, 1)), bounds)
    sig_tall = sorted((r["status"], r["DF"]) for r in tall.records)
    sig_wide = sorted((r["status"], r["DF"]) for r in wide.records)
    assert sig_tall == sig_wide
    assert tall.minimum == wide.minimum


def test_cox_search_covers_divisor_ideals():
    v = hirzebruch_anticanonical()
    bounds = SearchBounds(n_max=1, d_max=1, g_max=1, r_list=(1,), mode="cox")
    report = search_destabilizers(v, bounds)
    assert report.total == 4
    assert report.mismatches == []
    for rec in report.records:
        assert rec["status"] == "ok"
        # no closed formula in cox mode, so no cross check either
        assert rec["consistent"] is None
        assert rec["DF_intersection"] is None
        Fraction(rec["DF"])
    curve = [r for r in report.records if r["chain"] == [[[0, 0, 1, 0]]]]
    assert len(curve) == 1
    assert curve[0]["DF"] == "4/3"


def test_cox_search_enumerates_each_scale_once(monkeypatch):
    # the 44-record cox search on F1 (criterion 9) reads krP at 448
    # samples over 32 distinct scales, each sample reading the store once,
    # for the fibres and their stored count; every record shares the
    # search's variety, whose fibre store enumerates each scale once
    v = hirzebruch_anticanonical()
    bounds = SearchBounds(n_max=2, d_max=2, g_max=1, r_list=(1,), mode="cox")
    enumerated = []
    reads = []
    enumerate_fibres = lg.fibres
    read = lg.PolarizedToricVariety.dilate_fibres

    def counted_fibres(poly, k):
        enumerated.append(k)
        return enumerate_fibres(poly, k)

    def counted_read(variety, k):
        reads.append(k)
        return read(variety, k)

    monkeypatch.setattr(lg, "fibres", counted_fibres)
    monkeypatch.setattr(lg.PolarizedToricVariety, "dilate_fibres",
                        counted_read)
    report = search_destabilizers(v, bounds)
    assert report.total == 44
    assert len(reads) == 448
    assert sorted(enumerated) == sorted(set(reads))
    assert len(enumerated) == 32


def test_search_report_json_shape():
    v = projective_space(1, 1)
    report = search_destabilizers(v, LINE_BOUNDS)
    doc = report.to_json_dict()
    assert doc["bounds"] == LINE_BOUNDS.to_json_dict()
    assert doc["total"] == 4
    assert doc["decided"] == 3
    assert doc["undecided"] == 1
    assert doc["mismatches"] == 0
    assert doc["minimum"] == "0"
    assert doc["destabilizers"] == []
    assert doc["witness"]["key"] in {r["key"] for r in report.records}
