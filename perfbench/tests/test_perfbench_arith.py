"""Tests for the benchmark's own arithmetic and tracing (no ``repro`` needed).

Run with ``python -m pytest perfbench/tests -q`` from the repo root.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import benchlib  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402


def _span(id, start, end, parent=None, name="x", **attrs):
    return {
        "id": id,
        "parent": parent,
        "name": name,
        "start": start,
        "end": end,
        "thread": 0,
        "request": id if parent is None else parent,
        "attrs": attrs,
    }


# -- self time ---------------------------------------------------------


def test_covered_merges_overlapping_children_once():
    # Two worker-thread children overlap on [2, 3]: covered = [1, 6] = 5.
    assert benchlib.covered((0.0, 10.0), [(1.0, 3.0), (2.0, 6.0)]) == pytest.approx(5.0)


def test_covered_clips_children_to_the_parent():
    assert benchlib.covered((0.0, 10.0), [(-2.0, 1.0), (9.0, 12.0)]) == pytest.approx(2.0)
    assert benchlib.covered((0.0, 10.0), [(11.0, 12.0)]) == 0.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 3.0, parent=1),
        _span(3, 2.0, 6.0, parent=1),  # overlaps span 2: another thread
        _span(4, 2.0, 2.5, parent=3),  # grandchild: not subtracted from 1
        _span(5, 7.0, 8.0, parent=1),
    ]
    selfs = benchlib.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[3] == pytest.approx(4.0 - 0.5)
    assert selfs[4] == pytest.approx(0.5)


def test_tracer_links_worker_thread_children_to_their_parent():
    tracer = tracing.Tracer()
    child = tracer.wrap(lambda: threading.get_ident(), "child")

    def parent():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(lambda _: child(), range(4)))

    traced_parent = tracer.wrap(parent, "parent")
    original_submit = ThreadPoolExecutor.submit
    tracer._set(ThreadPoolExecutor, "submit", tracing._context_submit(ThreadPoolExecutor.submit))
    try:
        traced_parent()
    finally:
        tracer.uninstall()
    assert ThreadPoolExecutor.submit is original_submit
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (root,) = by_name["parent"]
    assert len(by_name["child"]) == 4
    for s in by_name["child"]:
        assert s.parent == root.id
        assert s.request == root.id
        assert s.thread != root.thread
    spans = [s.as_dict() for s in tracer.spans]
    selfs = benchlib.self_times(spans)
    children = [(s["start"], s["end"]) for s in spans if s["parent"] == root.id]
    assert selfs[root.id] == pytest.approx(
        root.end - root.start - benchlib.covered((root.start, root.end), children)
    )


def test_tracer_passes_same_name_nesting_through():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda: 1, "step")
    outer = tracer.wrap(lambda: inner() + 1, "step")
    assert outer() == 2
    assert len(tracer.spans) == 1


def test_registry_wrapping_counts_builds_and_is_undone():
    tracer = tracing.Tracer()
    registry = {"rook": lambda params: params + 1}
    original = registry["rook"]
    tracer.patch_items(registry, "graphs.construct")
    assert registry["rook"](1) == 2
    tracer.uninstall()
    assert registry["rook"] is original
    m = layers.layer_metrics([s.as_dict() for s in tracer.spans], {})
    assert m["graphs.builds"]["value"] == 1


def test_layer_metrics_dense_step_excludes_the_sampler():
    spans = [
        _span(1, 0.0, 4.0, name="ensemble.run", method="batched", threads=2,
              replicas=4, steps_sum=10, steps_max=5),
        _span(2, 0.5, 3.5, parent=1, name="dense.step", updates=400),
        _span(3, 1.0, 3.0, parent=2, name="graphs.sample", bytes=4800),
    ]
    m = layers.layer_metrics(spans, {})
    assert list(m) == list(layers.UNITS)
    assert m["dense.step_s"]["value"] == pytest.approx(1.0)
    assert m["graphs.sample_s"]["value"] == pytest.approx(2.0)
    assert m["ensemble.self_s"]["value"] == pytest.approx(1.0)
    assert m["ensemble.live_ratio"]["value"] == pytest.approx(10 / 20)
    assert m["dense.vertex_updates"]["value"] == 400
    assert m["service.requests"]["value"] == 0


# -- percentile rule ---------------------------------------------------


def test_p99_needs_ten_samples_beyond_it():
    assert benchlib.samples_beyond(1000, 0.99) == 10
    assert benchlib.samples_beyond(999, 0.99) == 9
    assert benchlib.tail_percentile(list(range(1000))) == 989
    assert benchlib.tail_percentile(list(range(999))) is None


def test_short_samples_report_their_maximum_as_the_tail():
    assert benchlib.latency_tail([3.0, 1.0, 2.0]) == (3.0, "max")
    assert benchlib.latency_tail([float(i) for i in range(2000)]) == (1979.0, "p99")


def test_window_tails_take_one_p99_per_window():
    # Two windows of 1000; the remainder (500 samples) joins the second.
    values = [1.0] * 990 + [5.0] * 10 + [2.0] * 1480 + [9.0] * 20
    assert benchlib.window_tails(values) == [1.0, 9.0]
    assert benchlib.window_tails(values[:999]) == []
    with pytest.raises(ValueError):
        benchlib.window_tails(values, window=500)


def test_nearest_rank_median():
    assert benchlib.nearest_rank([5, 1, 3, 2, 4], 0.5) == 3
    assert benchlib.nearest_rank([4, 1, 3, 2], 0.5) == 2


# -- failures and units ------------------------------------------------


def test_failure_ratio():
    assert benchlib.failure_ratio(0, 10) == 0.0
    assert benchlib.failure_ratio(3, 12) == 0.25
    with pytest.raises(ValueError):
        benchlib.failure_ratio(1, 0)
    with pytest.raises(ValueError):
        benchlib.failure_ratio(5, 4)


def test_unit_conversions():
    assert benchlib.ms(0.25) == 250.0
    assert benchlib.mib(2048) == 2.0
    assert benchlib.per_second(70, 2.0) == 35.0


# -- the traced service window -----------------------------------------


def test_window_drops_priming_and_stats_spans():
    spans = [
        _span(1, 0.5, 0.9, name="service.dispatch"),  # priming request
        _span(2, 1.0, 1.2, name="service.dispatch"),
        _span(3, 1.05, 1.1, parent=2, name="service.engine"),
        _span(4, 1.9, 2.0, name="service.dispatch"),
        _span(5, 2.1, 2.2, name="service.dispatch"),  # /v1/stats after the loop
    ]
    kept = benchlib.in_window(spans, 1.0, 2.0)
    assert [s["id"] for s in kept] == [2, 3, 4]
    # service.http_s: client latency minus the in-window dispatch time.
    m = layers.layer_metrics(kept, {"client_latency_s": 0.5})
    assert m["service.http_s"]["value"] == pytest.approx(0.5 - 0.3)
    assert m["service.dispatch_self_s"]["value"] == pytest.approx(0.3 - 0.05)


def test_every_per_layer_metric_says_what_it_should_move():
    assert set(layers.MOVES) == set(layers.UNITS)
