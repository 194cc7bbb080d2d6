"""The dense path's one stream layout and its machine independence.

Load-bearing claims:

1. **pool-width invariance** — the replica-block layout is a pure
   function of the workload, so pool widths 1/2/4 produce bit-identical
   :class:`EnsembleResult` values (steps, winners, trajectories, final
   opinions) for every protocol family;
2. **machine independence** — a seeded point above the block threshold
   with nothing pinned gives the same bytes whatever the core count
   (``_auto_workers`` patched to 1, 2 and 4);
3. **single-stream compatibility** — below the threshold the whole
   ensemble advances on the caller's stream on every machine (goldens
   stay valid), and the two layouts agree in distribution (KS);
4. **layout policy** — the block layout engages exactly when the
   per-round sample count crosses :data:`DENSE_AUTO_THREAD_MIN_SAMPLES`,
   and the partition never depends on the pool width;
5. **no knob** — ``threads`` is gone from ``run_ensemble``, the
   protocol spec, its canonical content, and the request layer.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from scipy import stats

from repro.core import dense
from repro.core.dense import (
    DENSE_AUTO_THREAD_MIN_SAMPLES,
    replica_blocks,
    resolve_dense_threads,
)
from repro.core.dynamics import TieRule
from repro.core.ensemble import run_ensemble
from repro.core.protocols import BestOfK, NoisyBestOfK, ZealotBestOfK
from repro.graphs.generators import erdos_renyi
from repro.graphs.implicit import CompleteGraph, RookGraph
from repro.sweeps.spec import (
    HostSpec,
    InitSpec,
    Point,
    ProtocolSpec,
    canonical_point,
    point_from_canonical,
)

KS_ALPHA = 1e-3  # deterministic seeds: failures mean real drift, not noise

SMALL_BATCH = 4096  # forces many replica blocks on the test hosts


@pytest.fixture(scope="module")
def er_host():
    return erdos_renyi(300, 0.08, seed=7)


@pytest.fixture()
def blocks_always(monkeypatch):
    """Force the replica-block layout on small test workloads."""
    monkeypatch.setattr(dense, "DENSE_AUTO_THREAD_MIN_SAMPLES", 1)


def with_workers(monkeypatch, count):
    """Pretend the machine has *count* cores."""
    monkeypatch.setattr(dense, "_auto_workers", lambda: count)


def result_fields(res):
    return (
        res.steps,
        res.winners,
        res.converged,
        res.final_totals,
    )


def assert_results_equal(a, b):
    for x, y in zip(result_fields(a), result_fields(b)):
        assert np.array_equal(x, y)
    assert (a.blue_trajectories is None) == (b.blue_trajectories is None)
    if a.blue_trajectories is not None:
        assert len(a.blue_trajectories) == len(b.blue_trajectories)
        for ta, tb in zip(a.blue_trajectories, b.blue_trajectories):
            assert np.array_equal(ta, tb)
    assert (a.final_opinions is None) == (b.final_opinions is None)
    if a.final_opinions is not None:
        assert np.array_equal(a.final_opinions, b.final_opinions)


# -- 1. pool-width invariance ------------------------------------------


@pytest.mark.usefixtures("blocks_always")
class TestThreadCountInvariance:
    def run(self, er_host, monkeypatch, workers, **kw):
        with_workers(monkeypatch, workers)
        return run_ensemble(
            er_host,
            replicas=48,
            k=3,
            seed=101,
            delta=0.12,
            max_steps=400,
            max_batch_bytes=SMALL_BATCH,
            **kw,
        )

    def test_bit_identical_across_1_2_4(self, er_host, monkeypatch):
        base = self.run(er_host, monkeypatch, 1)
        assert base.threads == 1
        for t in (2, 4):
            res = self.run(er_host, monkeypatch, t)
            assert res.threads == t
            assert_results_equal(base, res)

    def test_keep_final_opinions_identical(self, er_host, monkeypatch):
        a = self.run(er_host, monkeypatch, 1, keep_final=True)
        b = self.run(er_host, monkeypatch, 4, keep_final=True)
        assert a.final_opinions is not None
        assert_results_equal(a, b)

    @pytest.mark.parametrize(
        "protocol",
        [
            BestOfK(4, tie_rule=TieRule.KEEP_SELF),
            NoisyBestOfK(0.05, k=3),
            ZealotBestOfK(10, k=3),
        ],
        ids=["even-k-keep", "noisy", "zealot"],
    )
    def test_protocol_families_thread_identically(
        self, er_host, monkeypatch, protocol
    ):
        runs = []
        for t in (1, 3):
            with_workers(monkeypatch, t)
            runs.append(
                run_ensemble(
                    er_host,
                    replicas=32,
                    protocol=protocol,
                    seed=55,
                    delta=0.1,
                    max_steps=300,
                    max_batch_bytes=SMALL_BATCH,
                )
            )
        assert_results_equal(runs[0], runs[1])


# -- 2. machine independence -------------------------------------------


class TestMachineIndependence:
    def test_seeded_point_bytes_ignore_the_core_count(self, monkeypatch):
        # RookGraph(128) at R=96 is past the block threshold with the
        # real constants: nothing is pinned, only the core count moves.
        host = RookGraph(128)
        assert host.num_vertices * 3 * 96 >= DENSE_AUTO_THREAD_MIN_SAMPLES
        runs = {}
        for cores in (1, 2, 4):
            with_workers(monkeypatch, cores)
            runs[cores] = run_ensemble(
                host, replicas=96, k=3, seed=7, delta=0.1
            )
        for cores in (2, 4):
            assert_results_equal(runs[1], runs[cores])
        assert [runs[c].threads for c in (1, 2, 4)] == [1, 2, 4]


# -- 3. single-stream compatibility + distribution equivalence ---------


class TestSerialCompatibility:
    def test_small_workload_auto_is_serial(self, er_host, monkeypatch):
        runs = []
        for cores in (1, 4):
            with_workers(monkeypatch, cores)
            runs.append(
                run_ensemble(
                    er_host, replicas=20, k=3, seed=9, delta=0.1, max_steps=200
                )
            )
        assert runs[0].threads == 0 and runs[1].threads == 0
        assert_results_equal(runs[0], runs[1])

    def test_serial_vs_threaded_ks_equivalent(self, er_host, monkeypatch):
        # Different stream layouts, same dynamics: consensus times and
        # win rates must agree in distribution.
        kw = dict(replicas=400, k=3, delta=0.1, max_steps=500,
                  record_trajectories=False)
        serial = run_ensemble(er_host, seed=17, **kw)
        monkeypatch.setattr(dense, "DENSE_AUTO_THREAD_MIN_SAMPLES", 1)
        with_workers(monkeypatch, 2)
        threaded = run_ensemble(
            er_host, seed=17, max_batch_bytes=SMALL_BATCH, **kw
        )
        assert serial.threads == 0 and threaded.threads == 2
        assert serial.converged.all() and threaded.converged.all()
        assert (
            stats.ks_2samp(serial.steps, threaded.steps).pvalue > KS_ALPHA
        )
        blue_gap = abs(
            serial.blue_wins / serial.replicas
            - threaded.blue_wins / threaded.replicas
        )
        assert blue_gap < 0.1


# -- 4. layout policy + auto-routing pin -------------------------------


class TestThreadPolicy:
    def test_auto_policy_thresholds_on_samples(self, monkeypatch):
        # R·n·k below the threshold: one stream; at/above: blocks on
        # a pool as wide as the machine — one core included.
        n, k = 4096, 3
        small_r = (DENSE_AUTO_THREAD_MIN_SAMPLES // (n * k)) - 1
        big_r = (DENSE_AUTO_THREAD_MIN_SAMPLES // (n * k)) + 1
        for cores in (1, 4):
            with_workers(monkeypatch, cores)
            assert resolve_dense_threads(n, k, small_r) == 0
            assert resolve_dense_threads(n, k, big_r) == cores

    def test_blocks_cover_and_ignore_thread_count(self):
        blocks = replica_blocks(100, 300, 3, SMALL_BATCH)
        assert blocks[0][0] == 0 and blocks[-1][1] == 100
        assert all(lo < hi for lo, hi in blocks)
        flat = [r for lo, hi in blocks for r in range(lo, hi)]
        assert flat == list(range(100))
        # pure function of the workload: same args, same partition
        assert blocks == replica_blocks(100, 300, 3, SMALL_BATCH)
        assert len(blocks) >= dense.DENSE_BLOCKS_TARGET

    def test_auto_routing_pins(self, er_host, monkeypatch):
        with_workers(monkeypatch, 2)
        # Exchangeable host: count chain, as ever.
        chain = run_ensemble(
            CompleteGraph(512), replicas=8, k=3, seed=1, delta=0.1
        )
        assert chain.method == "count_chain" and chain.threads == 0
        # Dense host, small workload: batched on one stream.
        small = run_ensemble(er_host, replicas=8, k=3, seed=1, delta=0.1)
        assert small.method == "batched" and small.threads == 0
        # Dense host, workload past the threshold: batched in blocks.
        big_r = DENSE_AUTO_THREAD_MIN_SAMPLES // (er_host.num_vertices * 3) + 1
        big = run_ensemble(
            er_host,
            replicas=big_r,
            k=3,
            seed=1,
            delta=0.1,
            max_steps=3,
            record_trajectories=False,
        )
        assert big.method == "batched" and big.threads == 2


# -- 5. no threads knob anywhere ---------------------------------------


class TestSpecPlumbing:
    def point(self, spec):
        return Point(
            host=HostSpec.of("complete", n=64),
            protocol=spec,
            init=InitSpec.iid(0.1),
            trials=4,
            max_steps=50,
            seed=(1,),
        )

    def test_engine_and_spec_take_no_threads(self, er_host):
        with pytest.raises(TypeError):
            run_ensemble(er_host, replicas=2, seed=1, delta=0.1, threads=2)
        with pytest.raises(TypeError):
            ProtocolSpec(threads=2)
        with pytest.raises(TypeError):
            resolve_dense_threads(100, 3, 10, "auto")

    def test_canonical_content_round_trips_without_threads(self):
        p = self.point(ProtocolSpec())
        content = canonical_point(p)
        assert "threads" not in content["protocol"]
        assert point_from_canonical(content) == dataclasses.replace(p)

    def test_request_layer_rejects_threads(self):
        from repro.service.requests import RequestError, parse_protocol

        with pytest.raises(RequestError, match="threads"):
            parse_protocol({"kind": "best_of_k", "threads": 2})


# -- 6. one above-threshold point, the same bytes on every backend -----


class TestExecutionBackendParity:
    def test_inline_pool_spool_and_service_agree(self, tmp_path):
        import json
        import threading
        import urllib.request

        from repro.io.results import payload_to_dict
        from repro.service import ServiceApp, ServiceConfig, make_server
        from repro.service.requests import parse_point_request
        from repro.sweeps import SweepCache, SweepSpec, run_sweeps
        from repro.sweeps.runner import execute_point

        request = {
            "host": {"family": "rook", "side": 128},
            "protocol": "best-of-3",
            "init": {"delta": 0.1},
            "trials": 96,
            "max_steps": 4,
            "seed": 7,
        }
        point = parse_point_request(request)
        assert 128 * 128 * 3 * 96 >= DENSE_AUTO_THREAD_MIN_SAMPLES
        # A second, small point so jobs=2 really fans out to a pool.
        companion = parse_point_request(
            dict(request, host={"family": "rook", "side": 16}, trials=4)
        )
        spec = SweepSpec("parity", (point, companion))

        def canonical_bytes(payload):
            return json.dumps(payload_to_dict(payload), sort_keys=True)

        inline = canonical_bytes(execute_point(point))
        (pool,) = run_sweeps([spec], jobs=2)
        (spool,) = run_sweeps(
            [spec],
            cache=SweepCache(tmp_path / "spool-cache"),
            spool=tmp_path / "spool",
            workers=1,
        )
        assert canonical_bytes(pool.ensembles[0]) == inline
        assert canonical_bytes(spool.ensembles[0]) == inline

        app = ServiceApp(
            ServiceConfig(
                cache_dir=str(tmp_path / "service-cache"),
                spool_root=str(tmp_path / "jobs"),
                port=0,
            )
        )
        server = make_server(app, host="127.0.0.1", port=0)
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            post = urllib.request.Request(
                f"http://{host}:{port}/v1/ensemble",
                data=json.dumps(request).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(post, timeout=120) as resp:
                served = json.load(resp)
        finally:
            server.shutdown()
            server.server_close()
        assert served["cached"] is False
        assert json.dumps(served["result"], sort_keys=True) == inline
