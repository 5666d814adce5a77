"""Tests of the benchmark's own code: spans and self time, timing summaries,
output digests and metric names."""
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import layers  # noqa: E402
import run  # noqa: E402
from spans import Span, Tracer, covered, self_times, wrapper_seconds  # noqa: E402
from stats import (  # noqa: E402
    METRIC_NAME,
    DigestBook,
    digest_files,
    digest_values,
    summarize,
    tail_percentile,
)


def test_self_time_subtracts_what_children_cover():
    spans = [
        Span("job", 0.0, 10.0, None, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("b", 2.5, 6.0, 0, 0),      # overlaps a: the union counts once
        Span("a.inner", 1.5, 2.0, 1, 0),
        Span("late", 9.0, 12.0, 0, 0),  # only the part inside its parent counts
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (5.0 + 1.0))
    assert own[1] == pytest.approx(2.0 - 0.5)
    assert own[2] == pytest.approx(3.5)
    assert own[3] == pytest.approx(0.5)
    assert own[4] == pytest.approx(3.0)


def test_covered_merges_and_clips():
    assert covered([], 0.0, 1.0) == 0.0
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.5, 5.5) == pytest.approx(3.0)
    assert covered([(1.0, 2.0), (1.2, 1.8)], 0.0, 10.0) == pytest.approx(1.0)


def test_tracer_records_parents_and_restores():
    ns = SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2
    original_inner, original_outer = ns.inner, ns.outer

    def boom():
        raise KeyError("x")
    ns.boom = boom

    tracer = Tracer()
    tracer.job = 7
    tracer.wrap(ns, "inner", "m.inner", note=lambda attrs, a, k, r: attrs.update(out=r))
    tracer.wrap(ns, "outer", "m.outer")
    tracer.wrap(ns, "boom", "m.boom")
    assert ns.outer(1) == 4
    with pytest.raises(KeyError):
        ns.boom()
    tracer.restore()
    assert ns.inner is original_inner and ns.outer is original_outer and ns.boom is boom

    outer, inner, failed = tracer.spans
    assert (outer.name, outer.parent, inner.name, inner.parent) == ("m.outer", None, "m.inner", 0)
    assert inner.attrs == {"out": 2}
    assert failed.attrs == {"error": "KeyError"} and failed.parent is None
    assert all(s.job == 7 and s.end >= s.start for s in tracer.spans)
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert tracer.note_seconds > 0.0      # one note ran


def test_trace_cost_is_wrapped_calls_times_wrapper_cost_plus_notes(monkeypatch):
    assert 0.0 < wrapper_seconds(calls=2000, rounds=3) < 1e-3
    monkeypatch.setattr("spans.wrapper_seconds", lambda: 1e-3)
    a, b = Tracer(), Tracer()
    a.spans = [Span("x", 0.0, 1.0, None, 0)] * 4
    a.note_seconds = 0.01
    b.spans, b.note_seconds = [], 0.0
    cost = run.trace_cost([a, b], [1.014, 2.0])
    assert cost["overhead"] == pytest.approx((0.014 / 1.0 + 0.0) / 2)
    assert cost["jobs"] == 2 and cost["wrapped_calls"] == 2 and cost["wrapper_s"] == 1e-3


def test_median_and_tail_rule_state_sample_counts():
    assert summarize([3.0, 1.0, 2.0]) == {"median": 2.0, "samples": 3}
    assert summarize([1.0, 2.0, 3.0, 4.0]) == {"median": 2.5, "samples": 4}
    assert tail_percentile(list(range(99))) is None      # 9.9 samples beyond p90
    p, _ = tail_percentile(list(range(100)))
    assert p == 90.0
    assert tail_percentile(list(range(999)))[0] == 90.0
    assert tail_percentile(list(range(1000)))[0] == 99.0
    assert tail_percentile(list(range(10000)))[0] == 99.9
    s = summarize([float(i) for i in range(100)])
    assert s["samples"] == 100 and s["p90"] == pytest.approx(np.percentile(range(100), 90))
    with pytest.raises(ValueError):
        summarize([])


def test_digest_book_compares_with_first_digest(tmp_path):
    book = DigestBook(tmp_path / "d.json")
    assert book.check("w/seed1", "aaa")
    assert book.check("w/seed1", "aaa")
    assert not book.check("w/seed1", "bbb")
    assert book.check("w/seed2", "bbb")
    again = DigestBook(tmp_path / "d.json")     # a later process
    assert again.check("w/seed1", "aaa") and not again.check("w/seed2", "aaa")


def test_digests_see_content_and_names(tmp_path):
    (tmp_path / "rom").mkdir()
    (tmp_path / "rom" / "A.mtx").write_text("1")
    (tmp_path / "report.json").write_text("{}")
    d1 = digest_files(tmp_path, ["report.json", "rom"])
    assert d1 == digest_files(tmp_path, ["rom", "report.json"])
    (tmp_path / "rom" / "A.mtx").write_text("2")
    assert digest_files(tmp_path, ["report.json", "rom"]) != d1

    a = np.array([1.0, 2.0])
    assert digest_values({"x": a, "e": 0.5}) == digest_values({"e": 0.5, "x": a.copy()})
    assert digest_values({"x": a}) != digest_values({"x": np.nextafter(a, 3.0)})   # bit for bit
    assert digest_values({"x": a}) != digest_values({"y": a})


def test_factorizations_from_shift_list():
    z = 0.3 + 0.4j
    assert layers.factorizations([1.0, -1.0, 1.0, -1.0]) == 2
    assert layers.factorizations([z, z.conjugate(), 0.5, z, z.conjugate()]) == 2
    assert layers.factorizations([z, z.conjugate(), z.conjugate(), z]) == 2
    assert layers.factorizations([]) == 0


def test_job_metrics_count_full_order_calls_by_n():
    spans = [
        Span("bounds.build_bound_report", 0.0, 4.0, None, 0),
        Span("dense_stein.tl_gramian_dense", 0.5, 1.5, 0, 0, {"n": 900}),
        Span("dense_stein.tl_gramian_dense", 1.5, 1.6, 0, 0, {"n": 10}),
        Span("system.spectral_radius", 2.0, 3.0, 0, 0, {"n": 900}),
        Span("lowrank.rksm", 5.0, 7.0, None, 0,
             {"iterations": 4, "columns_built": 8, "rank": 6, "deflated": 1,
              "residual": 1e-9, "factorizations": 2}),
    ]
    m = layers.job_metrics(spans, 900)
    assert m["dense_stein.full_order_calls"] == 1
    assert m["system.full_order_eigensolves"] == 1
    assert m["bounds.build_bound_report_s"] == pytest.approx(4.0 - 2.1)
    assert m["lowrank.rank_per_column"] == pytest.approx(0.75)
    assert m["lowrank.s_per_iteration"] == pytest.approx(0.5)
    assert m["lowrank.residual_max"] == 1e-9
    empty = layers.job_metrics([], 900)
    assert empty["lowrank.rksm_calls"] == 0 and empty["lowrank.rank_per_column"] == 0.0


def test_metric_names_are_well_formed_and_match_the_emitted_ones():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in doc["end_to_end"]]
    per_layer = [m["name"] for m in doc["per_layer"]]
    names = e2e + per_layer + [w["name"] for w in doc["workloads"]]
    assert all(METRIC_NAME.fullmatch(n) for n in names)
    assert [n for n in ["ok.name-1_x", "bad name", "", "x/y"] if METRIC_NAME.fullmatch(n)] == ["ok.name-1_x"]
    assert all(len(n) <= 64 and n[0].isalnum() for n in names)
    assert len(set(names)) == len(names)
    assert set(e2e) == set(run.END_TO_END_UNITS)
    assert per_layer == list(run.per_layer_units())
    for m in doc["end_to_end"] + doc["per_layer"]:
        units = run.END_TO_END_UNITS if m["name"] in e2e else run.per_layer_units()
        assert m["unit"] == units[m["name"]]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert METRIC_NAME.pattern == "[A-Za-z0-9_.-]+"
    assert all(METRIC_NAME.fullmatch(n) for n in run.END_TO_END_UNITS)
