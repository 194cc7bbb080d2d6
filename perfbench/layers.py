"""Per-layer metrics from a traced run's spans and counters.

Every metric of ``BENCHMARK.json``'s ``per_layer`` list is computed for
every workload; a layer that does no work on a workload reads 0.  Times
are totals over the traced phase, in seconds; ``*_self_s`` and the
dense step time are self times (a span minus what its children cover).
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from benchlib import self_times

UNITS = {
    m["name"]: m["unit"]
    for m in json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
    )["per_layer"]
}
"""Name -> unit of every per-layer metric, in ``BENCHMARK.json`` order."""

# name -> (the end-to-end metric it should move, on which workload),
# written into every traced run's record file.
MOVES = {
    "graphs.sample_calls": ("throughput_per_s", "report_grid (~1/3 of a pass); not service_mix"),
    "graphs.sample_s": ("throughput_per_s", "report_grid (~1/3 of a pass); not service_mix"),
    "graphs.sample_bytes": ("throughput_per_s", "report_grid; not service_mix"),
    "graphs.build_calls": ("throughput_per_s", "report_grid (18 hosts, 8-entry memo)"),
    "graphs.builds": ("throughput_per_s", "report_grid (18 hosts, 8-entry memo)"),
    "graphs.build_s": ("throughput_per_s", "report_grid (~15% of a pass)"),
    "dense.step_calls": ("throughput_per_s, latency_p50_ms", "report_grid (dense points)"),
    "dense.step_s": ("throughput_per_s, latency_p50_ms", "report_grid (dense points)"),
    "dense.vertex_updates": ("throughput_per_s, latency_p50_ms", "report_grid (dense points)"),
    "ensemble.calls": ("throughput_per_s", "report_grid"),
    "ensemble.self_s": ("throughput_per_s", "report_grid"),
    "ensemble.rounds": ("throughput_per_s", "report_grid"),
    "ensemble.live_ratio": ("throughput_per_s", "report_grid"),
    "ensemble.threads": ("throughput_per_s", "report_grid"),
    "ensemble.chain_share": ("throughput_per_s", "report_grid"),
    "kernels.chain_step_calls": ("latency_p50_ms (cold requests), throughput_per_s", "service_mix; report_grid"),
    "kernels.chain_step_s": ("latency_p50_ms (cold requests), throughput_per_s", "service_mix; report_grid"),
    "spec.canonical_calls": ("latency_p50_ms", "service_mix"),
    "spec.canonical_s": ("latency_p50_ms", "service_mix"),
    "cache.get_calls": ("latency_p50_ms, throughput_per_s", "service_mix (reads)"),
    "cache.get_s": ("latency_p50_ms, throughput_per_s", "service_mix (reads)"),
    "cache.hit_ratio": ("latency_p50_ms, throughput_per_s", "service_mix (reads)"),
    "cache.put_calls": ("throughput_per_s", "report_grid (writes)"),
    "cache.put_s": ("throughput_per_s", "report_grid (writes)"),
    "cache.put_bytes": ("throughput_per_s", "report_grid (writes)"),
    "queue.ops": ("throughput_per_s", "report_grid (~1% today)"),
    "queue.s": ("throughput_per_s", "report_grid (~1% today)"),
    "queue.retries": ("throughput_per_s", "report_grid"),
    "sweeps.points": ("throughput_per_s", "report_grid"),
    "sweeps.point_s": ("throughput_per_s", "report_grid"),
    "sweeps.point_failed": ("throughput_per_s", "report_grid"),
    "sweeps.orchestration_s": ("throughput_per_s", "report_grid"),
    "service.requests": ("throughput_per_s", "service_mix"),
    "service.failed": ("latency_p99_ms, throughput_per_s", "service_mix"),
    "service.rejected_4xx": ("latency_p50_ms", "service_mix"),
    "service.http_s": ("latency_p50_ms, latency_p99_ms", "service_mix"),
    "service.dispatch_self_s": ("latency_p50_ms, latency_p99_ms", "service_mix"),
    "service.parse_s": ("latency_p50_ms", "service_mix"),
    "service.engine_self_s": ("latency_p50_ms", "service_mix"),
    "service.batcher_wait_s": ("latency_p99_ms", "service_mix"),
    "service.coalesced": ("throughput_per_s", "service_mix"),
    "service.engine_calls": ("throughput_per_s", "service_mix"),
    "service.cache_hit_ratio": ("latency_p50_ms, throughput_per_s", "service_mix"),
    "service.warm_p50_ms": ("latency_p50_ms", "service_mix"),
    "service.cold_p50_ms": ("latency_p99_ms", "service_mix"),
    "service.burst_p50_ms": ("latency_p99_ms", "service_mix"),
    "service.bad_p50_ms": ("latency_p50_ms", "service_mix"),
    "process.import_s": ("setup_s", "every workload"),
    "trace.overhead_ratio": ("none (tracing cost: untraced over traced throughput)", "every workload"),
    "trace.spans": ("none (spans recorded in the traced phase)", "every workload"),
}

# Counters that pass straight through to a metric of the same name.
_PASSTHROUGH = (
    "service.requests",
    "service.failed",
    "service.rejected_4xx",
    "service.coalesced",
    "service.engine_calls",
    "service.cache_hit_ratio",
    "service.warm_p50_ms",
    "service.cold_p50_ms",
    "service.burst_p50_ms",
    "service.bad_p50_ms",
    "process.import_s",
    "trace.overhead_ratio",
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, counters):
    """``{metric: value}`` for every per-layer metric."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return sum(s["end"] - s["start"] for s in by_name[name])

    def self_busy(name):
        return sum(selfs[s["id"]] for s in by_name[name])

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in by_name[name])

    ens = by_name["ensemble.run"]
    replica_rounds = sum(s["attrs"].get("replicas", 0) * s["attrs"].get("steps_max", 0) for s in ens)
    gets = by_name["cache.get"]
    m = {
        "graphs.sample_calls": calls("graphs.sample"),
        "graphs.sample_s": busy("graphs.sample"),
        "graphs.sample_bytes": attr_sum("graphs.sample", "bytes"),
        "graphs.build_calls": calls("graphs.build"),
        "graphs.builds": calls("graphs.construct"),
        "graphs.build_s": busy("graphs.build"),
        "dense.step_calls": calls("dense.step"),
        "dense.step_s": self_busy("dense.step"),
        "dense.vertex_updates": attr_sum("dense.step", "updates"),
        "ensemble.calls": len(ens),
        "ensemble.self_s": self_busy("ensemble.run"),
        "ensemble.rounds": attr_sum("ensemble.run", "steps_max"),
        "ensemble.live_ratio": _ratio(attr_sum("ensemble.run", "steps_sum"), replica_rounds),
        "ensemble.threads": max((s["attrs"].get("threads", 0) for s in ens), default=0),
        "ensemble.chain_share": _ratio(
            sum(s["attrs"].get("method") == "count_chain" for s in ens), len(ens)
        ),
        "kernels.chain_step_calls": calls("kernels.chain_step"),
        "kernels.chain_step_s": busy("kernels.chain_step"),
        "spec.canonical_calls": calls("spec.canonical"),
        "spec.canonical_s": busy("spec.canonical"),
        "cache.get_calls": len(gets),
        "cache.get_s": busy("cache.get"),
        "cache.hit_ratio": _ratio(sum(bool(s["attrs"].get("hit")) for s in gets), len(gets)),
        "cache.put_calls": calls("cache.put"),
        "cache.put_s": busy("cache.put"),
        "cache.put_bytes": attr_sum("cache.put", "bytes"),
        "queue.ops": calls("queue.op"),
        "queue.s": busy("queue.op"),
        "queue.retries": attr_sum("sweeps.run", "retries"),
        "sweeps.points": calls("sweeps.point"),
        "sweeps.point_s": busy("sweeps.point"),
        "sweeps.point_failed": attr_sum("sweeps.run", "failed"),
        "sweeps.orchestration_s": self_busy("sweeps.run"),
        "service.http_s": max(0.0, counters.get("client_latency_s", 0.0) - busy("service.dispatch")),
        "service.dispatch_self_s": self_busy("service.dispatch"),
        "service.parse_s": busy("service.parse"),
        "service.engine_self_s": self_busy("service.engine"),
        "service.batcher_wait_s": self_busy("service.batcher"),
        "trace.spans": len(spans),
    }
    for name in _PASSTHROUGH:
        m[name] = counters.get(name, 0)
    return {name: {"value": m[name], "unit": unit} for name, unit in UNITS.items()}
