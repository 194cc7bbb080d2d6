"""End-to-end benchmark of the ``repro`` library, its sweeps and its service.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload report_grid --seed 1 --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

``report_grid``
    Cold passes over the quick ``sweep_spec`` grids of E1, E2, E8, E9,
    E11-E15 through ``run_sweeps(..., spool=<fresh>, workers=0)``, each
    in a fresh process (so the host memo starts empty) on a fresh cache.
``service_mix``
    A ``repro serve --port 0`` process driven by a two-connection closed
    loop (see ``mix.py``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

* ``setup_s``: median over several cold set-ups, each from process
  start (``import repro`` included) to the first timed operation (for
  ``service_mix``, to the end of priming: the untimed warm-up run of
  the mix that follows is not set-up);
* ``throughput_per_s``: grid points per second (the median over cold
  passes) or requests per second;
* ``latency_p50_ms``: per cold grid pass, or per request at the client;
* ``latency_p99_ms``: for ``service_mix``, the median over the run's
  consecutive windows of 1000 requests of each window's p99 (so >= 10
  samples lie beyond each p99); for ``report_grid``, whose few passes
  leave fewer than 10 samples beyond any p99, the largest pass.  The
  record file says which;
* ``peak_rss_mb``: VmHWM of the process doing the work (the server for
  ``service_mix``).

With ``--trace 1`` the first half of the run is untraced and the second
half runs under ``tracing.Tracer``; the last line carries the per-layer
metrics (``layers.py``), including ``trace.overhead_ratio`` (untraced
over traced throughput).  Spans go to ``.perfbench_out/``.

Each run works in fresh cache, spool and service dirs under
``.perfbench_work/`` in the checkout, removed at the end.  Before any
timing, an untimed pass byte-compiles and imports the library, so
``.pyc`` compilation never lands in ``setup_s``.  A record file with the
environment (cores, load, machine speed, versions, kernel, thread
layout, commit) and the raw samples is written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import mix  # noqa: E402
from benchlib import (  # noqa: E402
    calibration_s,
    emit,
    failure_ratio,
    host_environment,
    in_window,
    latency_tail,
    mib,
    ms,
    per_second,
    window_tails,
)

WORKLOADS = ("report_grid", "service_mix")
SETUP_COUNT = 8
"""Cold set-ups per run, spread over the run: the measuring processes'
own, plus set-up-only processes; ``setup_s`` is their median.  On a
shared host the machine's speed drifts over seconds, so set-ups taken
back to back tend to read alike; spreading them samples more of the run."""
RUN_BUDGET_S = 170.0

IMPORT_PASS = """
import json, numpy, repro, repro.io.cli, repro.service.app, repro.harness.registry
from repro.core.dense import dense_kernel_name, resolve_dense_threads
print(json.dumps({"repro_version": repro.__version__,
                  "numpy_version": numpy.__version__,
                  "dense_kernel": dense_kernel_name(),
                  "auto_dense_threads_n16384_k3_r96": resolve_dense_threads(128 * 128, 3, 96)}))
"""


class BenchError(RuntimeError):
    pass


def isolated_env(root, work):
    """The parent environment without ``REPRO_*`` knobs, pointed at this
    run's own dirs (never ``~/.cache/repro-*``)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONUNBUFFERED="1",
        TMPDIR=str(tmp),
        REPRO_CACHE_DIR=str(work / "default-cache"),
        REPRO_SERVICE_SPOOL=str(work / "default-spool"),
    )
    return env


def _run(cmd, env, root, timeout):
    proc = subprocess.run(
        cmd, env=env, cwd=root, capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1:3]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def import_pass(env, root, timeout):
    """Untimed: byte-compile and import the library once."""
    _run([sys.executable, "-m", "compileall", "-q", "src/repro"], env, root, timeout)
    lines = _run([sys.executable, "-c", IMPORT_PASS], env, root, timeout).splitlines()
    return json.loads(lines[-1])


class Budget:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time budget")
        return left


# ----------------------------------------------------------------------
# report_grid: one worker process per cold pass
# ----------------------------------------------------------------------


def run_worker(args, env, root, work, budget, measure, spans_out=None):
    """One ``work.py`` process: set-up, then one cold pass if *measure*."""
    cmd = [
        sys.executable,
        str(BENCH_DIR / "work.py"),
        "--seed", str(args.seed),
        "--workdir", str(work / f"worker-{time.monotonic_ns()}"),
    ]
    if measure:
        cmd.append("--measure")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    cmd += ["--spawned-at", repr(time.monotonic())]
    out = _run(cmd, env, root, budget.left())
    return json.loads(out.splitlines()[-1])


def _rate(p):
    return per_second(p["work"], p["s"])


def grid_workload(args, env, root, work, budget, record):
    """Cold passes, each in a fresh process as one ``repro report``
    invocation would be, until the run's (untraced) time is used."""
    start = time.monotonic()
    untraced_s = args.seconds / 2 if args.trace else args.seconds
    runs = []
    setup_runs = []
    while not runs or time.monotonic() - start < untraced_s:
        setup_runs.append(run_worker(args, env, root, work, budget, measure=False))
        runs.append(run_worker(args, env, root, work, budget, measure=True))
    measured = list(runs)
    if args.trace:
        measured.append(run_worker(args, env, root, work, budget, True, record["spans_file"]))
    setup_runs += measured
    while len(setup_runs) < SETUP_COUNT:
        setup_runs.append(run_worker(args, env, root, work, budget, measure=False))
    setups = [r["setup_s"] for r in setup_runs]
    imports = [r["import_s"] for r in setup_runs]
    record["setups_s"] = setups
    record["env"].update(runs[0]["env"])

    parts = [r[k] for r in measured for k in ("pass", "finish")]
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    # A seeded point gives the same bytes in every process.
    reference = measured[0]["finish"]["digests"]
    failed += sum(
        a != b for r in measured[1:] for a, b in zip(r["finish"]["digests"], reference)
    )
    passes = [r["pass"] for r in runs]
    record["samples"] = [{"s": p["s"], "work": p["work"]} for p in passes]
    if args.trace:
        import layers
        import tracing

        counters, spans = tracing.load(record["spans_file"])
        counters["process.import_s"] = median(imports)
        counters["trace.overhead_ratio"] = median(map(_rate, passes)) / _rate(measured[-1]["pass"])
        return attempted, failed, layers.layer_metrics(spans, counters)
    latencies = [p["s"] for p in passes]
    tail, tail_kind = latency_tail(latencies)
    record["latency_tail"] = {"kind": tail_kind, "samples": len(latencies)}
    return attempted, failed, {
        "setup_s": (median(setups), "s"),
        "throughput_per_s": (median(map(_rate, passes)), "1/s"),
        "latency_p50_ms": (ms(median(latencies)), "ms"),
        "latency_p99_ms": (ms(tail), "ms"),
        "peak_rss_mb": (mib(max(r["peak_rss_kib"] for r in runs)), "MB"),
    }


# ----------------------------------------------------------------------
# service_mix
# ----------------------------------------------------------------------


def drive_server(cmd, env, root, seed, seconds):
    """Start, prime and drive one server; returns what it measured."""
    server, setup_s, warm, failed = mix.start_and_prime(cmd, env, root, seed)
    try:
        primed = mix.engine_stats(server.port)
        warmup = mix.Client(server.port, seed, warm, phase=0)
        warmup.run(mix.WARMUP_S, min_requests=0)
        before = mix.engine_stats(server.port)
        client = mix.Client(server.port, seed, warm, phase=1)
        cpu0 = time.process_time()
        wall = client.run(seconds)
        client_cpu_s = time.process_time() - cpu0
        after = mix.engine_stats(server.port)
        rss_kib = server.peak_rss_kib()
    finally:
        server.stop()
    # The client loop's share of the server's counters, priming excluded.
    stats = {k: after[k] - before[k] for k in ("requests", "cache_hits", "engine_calls", "coalesced")}
    records = client.records
    failed += sum(not ok for _, _, ok in warmup.records + records)
    failed += warmup.burst_failures() + client.burst_failures()
    # The engine-call gates are three more checked operations.
    failed += primed["engine_calls"] != mix.PRIMED
    failed += before["engine_calls"] - primed["engine_calls"] != warmup.flights()
    failed += stats["engine_calls"] != client.flights()
    return {
        "setup_s": setup_s,
        "records": records,
        "wall_s": wall,
        "stats": stats,
        "rss_kib": rss_kib,
        "window": client.window,
        "client_cpu_share": client_cpu_s / wall,
        "attempted": mix.PRIMED + len(warmup.records) + len(records) + 3,
        "failed": failed,
    }


def _kind_p50_ms(records, kind):
    lat = [lat for k, lat, _ in records if k == kind]
    return ms(median(lat)) if lat else 0.0


def service_workload(args, env, root, work, budget, record):
    plain = [sys.executable, "-m", "repro"]
    setups = []
    attempted = failed = 0

    def setup_only(count):
        nonlocal attempted, failed
        for _ in range(count):
            budget.left()
            server, setup_s, _, bad = mix.start_and_prime(
                plain, env, str(work / f"setup-{len(setups)}"), args.seed
            )
            server.stop()
            setups.append(setup_s)
            attempted += mix.PRIMED
            failed += bad

    # The set-up-only servers straddle the measured one, so that their
    # median spans the run rather than its first seconds.
    setup_only(SETUP_COUNT // 2)
    seconds = args.seconds / 2 if args.trace else args.seconds
    main = drive_server(plain, env, str(work / "untraced"), args.seed, seconds)
    setups.append(main["setup_s"])
    setup_only(SETUP_COUNT - len(setups))
    record["setups_s"] = setups
    attempted += main["attempted"]
    failed += main["failed"]
    records = main["records"]
    tput = per_second(len(records), main["wall_s"])
    if args.trace:
        import layers
        import tracing

        traced_cmd = [sys.executable, str(BENCH_DIR / "serve_traced.py"), record["spans_file"]]
        traced = drive_server(traced_cmd, env, str(work / "traced"), args.seed, seconds)
        attempted += traced["attempted"]
        failed += traced["failed"]
        counters, spans = tracing.load(record["spans_file"])
        # Only the server's work for the client loop: not the priming
        # requests before it, nor the /v1/stats call after it.
        spans = in_window(spans, *traced["window"])
        trecs = traced["records"]
        stats = traced["stats"]
        counters.update(
            {
                "client_latency_s": sum(lat for _, lat, _ in trecs),
                "service.requests": len(trecs),
                "service.failed": sum(not ok for _, _, ok in trecs),
                "service.rejected_4xx": sum(k == "bad" and ok for k, _, ok in trecs),
                "service.coalesced": stats["coalesced"],
                "service.engine_calls": stats["engine_calls"],
                "service.cache_hit_ratio": stats["cache_hits"] / stats["requests"],
                "trace.overhead_ratio": tput / per_second(len(trecs), traced["wall_s"]),
            }
        )
        for kind in ("warm", "cold", "burst", "bad"):
            counters[f"service.{kind}_p50_ms"] = _kind_p50_ms(records, kind)
        return attempted, failed, layers.layer_metrics(spans, counters)
    latencies = [lat for _, lat, _ in records]
    tails = window_tails(latencies, window=mix.MIN_REQUESTS)
    if tails:
        tail = median(tails)
        record["latency_tail"] = {"kind": "median_window_p99", "window_p99s": tails}
    else:  # the loop hit its hard deadline first
        tail, tail_kind = latency_tail(latencies)
        record["latency_tail"] = {"kind": tail_kind, "samples": len(latencies)}
    record["requests"] = {
        kind: {
            "count": sum(k == kind for k, _, _ in records),
            "p50_ms": _kind_p50_ms(records, kind),
        }
        for kind in ("warm", "cold", "burst", "bad")
    }
    record["server_stats"] = main["stats"]
    record["client_cpu_share"] = main["client_cpu_share"]
    return attempted, failed, {
        "setup_s": (median(setups), "s"),
        "throughput_per_s": (tput, "1/s"),
        "latency_p50_ms": (ms(median(latencies)), "ms"),
        "latency_p99_ms": (ms(tail), "ms"),
        "peak_rss_mb": (mib(main["rss_kib"]), "MB"),
    }


# ----------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    budget = Budget(RUN_BUDGET_S)
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = root / ".perfbench_work" / tag
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": host_environment(root),
        "spans_file": str(out_dir / f"spans-{tag}.jsonl"),
    }
    try:
        env = isolated_env(root, work)
        record["env"].update(import_pass(env, root, budget.left()))
        runner = service_workload if args.workload == "service_mix" else grid_workload
        attempted, failed, metrics = runner(args, env, root, work, budget, record)
    except (BenchError, RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["env"]["calibration_s_at_end"] = calibration_s()
    if args.trace:
        import layers

        record["per_layer_moves"] = {
            name: {"should_move": move, "on": on} for name, (move, on) in layers.MOVES.items()
        }
    else:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    record.update(attempted=attempted, failed=failed, metrics=metrics)
    record["failure_ratio"] = failure_ratio(failed, attempted)
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    emit({"env": record["env"]})
    emit({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics})
    return 0


if __name__ == "__main__":
    sys.exit(main())
