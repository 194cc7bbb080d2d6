"""Service core proofs (ISSUE 7): request canonicalisation, the
cache-fronted engine facade, single-flight micro-batching, the
protocol-aware cost model, and the ``REPRO_CACHE_DIR`` deployment knob.

The headline guarantees:

* K concurrent identical ensemble requests are served by exactly ONE
  engine call (the rest ride the leader's flight or the cache);
* a micro-batched response is bit-identical to an unbatched
  ``execute_point`` of the same point — coalescing can change *where* a
  result comes from, never what it is;
* differently-phrased but semantically identical request bodies
  canonicalise to the same point (hence the same cache key, flight,
  and job id).
"""

from __future__ import annotations

import json
import socket
import threading

import numpy as np
import pytest

from repro.service import (
    MicroBatcher,
    RequestError,
    ServiceApp,
    ServiceConfig,
    ServiceEngine,
    make_server,
    parse_compare_request,
    parse_point_request,
    parse_sweep_request,
)
from repro.service.app import MAX_BODY_BYTES
from repro.sweeps import (
    HostSpec,
    InitSpec,
    Point,
    ProtocolSpec,
    SweepCache,
    count_chain_width,
    default_cache_dir,
    estimated_cost,
    queue_key,
)
from repro.sweeps import runner


def _point(n=128, delta=0.2, trials=3, seed=(0, 1), label="p", max_steps=200):
    return Point(
        host=HostSpec.of("complete", n=n),
        protocol=ProtocolSpec.best_of(3),
        init=InitSpec.iid(delta),
        trials=trials,
        max_steps=max_steps,
        seed=seed,
        label=label,
    )


class TestProtocolParse:
    def test_names_map_to_specs(self):
        assert ProtocolSpec.parse("voter") == ProtocolSpec.best_of(1)
        assert ProtocolSpec.parse("best-of-3") == ProtocolSpec.best_of(3)
        assert ProtocolSpec.parse("best-of-5-keep") == ProtocolSpec.best_of(5)
        assert ProtocolSpec.parse("best-of-2-rand") == ProtocolSpec.best_of(
            2, tie_rule="random"
        )

    def test_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="cannot parse protocol"):
            ProtocolSpec.parse("best-of-zebra")
        with pytest.raises(ValueError, match="tie-rule suffix"):
            ProtocolSpec.parse("best-of-3-maybe")

    def test_cli_parser_delegates_to_the_same_grammar(self):
        from repro.io.cli import _parse_protocol

        assert _parse_protocol("best-of-2-rand") == ProtocolSpec.parse(
            "best-of-2-rand"
        )


class TestEstimatedCost:
    """The protocol-aware model: chain-routed points pay slot width."""

    def test_complete_host_chain_point_pays_one_slot(self):
        p = _point(n=4096, trials=4, max_steps=100)
        assert count_chain_width(p.host) == 1
        assert estimated_cost(p) == 1 * 4 * 100

    def test_multipartite_pays_one_slot_per_part(self):
        host = HostSpec.of("complete_multipartite", sizes=(100, 200, 300))
        assert count_chain_width(host) == 3

    def test_two_clique_bridge_pays_clique_and_bridge_slots(self):
        host = HostSpec.of("two_clique_bridge", half=1000, bridges=2)
        assert count_chain_width(host) == 2 + 2 * 2

    def test_dense_families_have_no_chain_width(self):
        assert count_chain_width(HostSpec.of("ring_lattice", n=64, d=4)) is None

    def test_noisy_protocol_doubles_the_estimate(self):
        base = _point(n=256, trials=4, max_steps=100)
        noisy = Point(
            host=base.host,
            protocol=ProtocolSpec.noisy(0.1),
            init=base.init,
            trials=4,
            max_steps=100,
            seed=(0,),
        )
        assert estimated_cost(noisy) == 2 * estimated_cost(base)

    def test_paired_async_pays_dense_times_two(self):
        paired = Point(
            host=HostSpec.of("complete", n=512),
            protocol=ProtocolSpec.async_vs_sync(),
            init=InitSpec.iid(0.1),
            trials=4,
            max_steps=100,
            seed=(0,),
        )
        # async_vs_sync never chain-routes: dense n per round, twice.
        assert estimated_cost(paired) == 512 * 2 * 4 * 100

    def test_largest_first_order_is_truthful_for_mega_n_chains(self):
        # A mega-n complete-host chain point is CHEAP; a modest dense
        # point is not.  The old vertex-count model inverted this.
        mega = _point(n=1_000_000, trials=4, max_steps=100)
        dense = Point(
            host=HostSpec.of("ring_lattice", n=4096, d=8),
            protocol=ProtocolSpec.best_of(3),
            init=InitSpec.iid(0.1),
            trials=4,
            max_steps=100,
            seed=(0,),
        )
        assert estimated_cost(mega) < estimated_cost(dense)


class TestCacheDirEnv:
    def test_repro_cache_dir_is_respected(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "vol"))
        assert default_cache_dir() == tmp_path / "vol"
        assert SweepCache().root == tmp_path / "vol"

    def test_specific_override_wins_over_deployment_var(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "specific"))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "vol"))
        assert default_cache_dir() == tmp_path / "specific"


class TestRequestCanonicalisation:
    def test_string_and_dict_protocols_yield_the_same_point(self):
        base = {
            "host": {"family": "complete", "n": 256},
            "init": {"delta": 0.1},
            "trials": 5,
            "max_steps": 100,
            "seed": 3,
        }
        a = parse_point_request({**base, "protocol": "best-of-3"})
        b = parse_point_request(
            {**base, "protocol": {"kind": "best_of_k", "k": 3}}
        )
        assert queue_key(a) == queue_key(b)

    def test_init_sugar_forms(self):
        base = {"host": {"family": "complete", "n": 64}}
        assert parse_point_request(
            {**base, "init": {"delta": 0.2}}
        ).init == InitSpec.iid(0.2)
        assert parse_point_request(
            {**base, "init": {"blue": 7}}
        ).init == InitSpec.count(7)
        assert parse_point_request(
            {**base, "init": {"blue": 7, "strategy": "high_degree"}}
        ).init == InitSpec.adversarial(7, "high_degree")

    def test_defaults_applied(self):
        p = parse_point_request({"host": {"family": "complete", "n": 64}})
        assert (p.trials, p.max_steps, p.seed) == (10, 2000, (0,))
        assert p.protocol == ProtocolSpec.best_of(3)
        assert p.init == InitSpec.iid(0.1)

    def test_validation_failures_are_request_errors(self):
        with pytest.raises(RequestError, match='needs a "host"'):
            parse_point_request({"trials": 3})
        with pytest.raises(RequestError, match="unknown host family"):
            parse_point_request({"host": {"family": "moebius", "n": 4}})
        with pytest.raises(RequestError, match="unknown ensemble request field"):
            parse_point_request(
                {"host": {"family": "complete", "n": 4}, "stpes": 9}
            )
        with pytest.raises(RequestError, match="cannot parse protocol"):
            parse_point_request(
                {"host": {"family": "complete", "n": 4}, "protocol": "bozo"}
            )
        with pytest.raises(RequestError, match="delta must be in"):
            parse_point_request(
                {"host": {"family": "complete", "n": 4}, "init": {"delta": 0.7}}
            )
        with pytest.raises(RequestError, match="seed must be"):
            parse_point_request(
                {"host": {"family": "complete", "n": 4}, "seed": "lucky"}
            )

    def test_compare_needs_two_protocols_and_labels_rows(self):
        with pytest.raises(RequestError, match="at least 2"):
            parse_compare_request(
                {"host": {"family": "complete", "n": 4}, "protocols": ["voter"]}
            )
        points = parse_compare_request(
            {
                "host": {"family": "complete", "n": 64},
                "protocols": ["voter", "best-of-3"],
                "trials": 3,
            }
        )
        assert len(points) == 2
        assert len({p.label for p in points}) == 2  # distinguishable rows
        assert points[0].seed == points[1].seed  # same entropy, same init

    def test_sweep_request_matches_python_grid(self):
        spec = parse_sweep_request(
            {
                "name": "t",
                "hosts": [{"family": "complete", "n": 128}],
                "protocols": ["best-of-3"],
                "inits": [{"delta": 0.1}, {"delta": 0.2}],
                "trials": 4,
                "max_steps": 50,
                "seed": 9,
            }
        )
        from repro.sweeps import SweepSpec

        direct = SweepSpec.grid(
            "t",
            hosts=[HostSpec.of("complete", n=128)],
            protocols=[ProtocolSpec.best_of(3)],
            inits=[InitSpec.iid(0.1), InitSpec.iid(0.2)],
            trials=4,
            max_steps=50,
            seed=9,
        )
        assert spec == direct  # identical points, seeds, and labels


class TestServiceConfig:
    def test_env_values_and_overrides(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SERVICE_PORT", "9000")
        monkeypatch.setenv("REPRO_SERVICE_WORKERS", "2")
        monkeypatch.setenv("REPRO_SERVICE_BATCH_WINDOW_MS", "50")
        cfg = ServiceConfig.from_env(spool_root=str(tmp_path))
        assert cfg.port == 9000
        assert cfg.job_workers == 2
        assert cfg.batch_window_s == pytest.approx(0.05)
        assert cfg.resolved_spool_root() == tmp_path
        # None overrides leave env/default values alone.
        assert ServiceConfig.from_env(port=None).port == 9000
        assert ServiceConfig.from_env(port=8123).port == 8123

    def test_validation(self):
        with pytest.raises(ValueError, match="port"):
            ServiceConfig(port=99999)
        with pytest.raises(ValueError, match="job_workers"):
            ServiceConfig(job_workers=-1)
        with pytest.raises(TypeError, match="unknown ServiceConfig field"):
            ServiceConfig.from_env(bogus=1)

    def test_default_spool_root_is_not_inside_the_cache(self, monkeypatch):
        # The cache GC globs */*.json — job manifests must never live
        # where they could be evicted as entries.
        monkeypatch.delenv("REPRO_SWEEP_CACHE", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        spool = ServiceConfig().resolved_spool_root()
        cache = default_cache_dir()
        assert not str(spool).startswith(str(cache))


class TestServiceEngine:
    def test_miss_then_warm_hit_with_stats(self, tmp_path):
        engine = ServiceEngine(SweepCache(tmp_path / "cache"))
        point = _point()
        cold, cached_cold = engine.execute(point)
        warm, cached_warm = engine.execute(point)
        assert (cached_cold, cached_warm) == (False, True)
        np.testing.assert_array_equal(cold.steps, warm.steps)
        stats = engine.stats()
        assert stats["requests"] == 2
        assert stats["engine_calls"] == 1
        assert stats["cache_hits"] == 1
        assert stats["cache_hit_rate"] == 0.5
        assert stats["cache_entries"] == 1

    def test_result_is_bit_identical_to_unbatched_execute_point(self, tmp_path):
        engine = ServiceEngine(
            SweepCache(tmp_path / "cache"), batch_window_s=0.05
        )
        point = _point(n=256, seed=(4, 2))
        payload, _ = engine.execute(point)
        direct = runner.execute_point(point)
        np.testing.assert_array_equal(payload.steps, direct.steps)
        np.testing.assert_array_equal(payload.winners, direct.winners)

    def test_concurrent_identical_requests_one_engine_call(
        self, tmp_path, monkeypatch
    ):
        K = 8
        calls = []
        real = runner.execute_point

        def counting(point):
            calls.append(queue_key(point))
            return real(point)

        monkeypatch.setattr(runner, "execute_point", counting)
        engine = ServiceEngine(
            SweepCache(tmp_path / "cache"), batch_window_s=0.2
        )
        point = _point(n=256, seed=(1, 2, 3))
        barrier = threading.Barrier(K)
        results: list = [None] * K
        flags: list = [None] * K

        def worker(i):
            barrier.wait()
            results[i], flags[i] = engine.execute(point)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(K)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert len(calls) == 1  # exactly one engine call for the burst
        assert sum(1 for f in flags if not f) == 1  # one computed, K-1 warm
        ref = results[0]
        for res in results[1:]:  # everyone got the same (bit-identical) answer
            np.testing.assert_array_equal(res.steps, ref.steps)
            np.testing.assert_array_equal(res.winners, ref.winners)
        stats = engine.stats()
        assert stats["engine_calls"] == 1
        assert stats["requests"] == K
        assert stats["cache_hits"] == K - 1

    def test_distinct_points_do_not_coalesce(self, tmp_path):
        engine = ServiceEngine(SweepCache(tmp_path / "cache"))
        a, _ = engine.execute(_point(seed=(0,)))
        b, _ = engine.execute(_point(seed=(1,)))
        assert engine.stats()["engine_calls"] == 2
        assert engine.batcher.coalesced == 0


class TestMicroBatcher:
    def test_leader_failure_propagates_to_followers(self):
        batcher = MicroBatcher(window_s=0.1)
        point = _point()
        boom = RuntimeError("engine exploded")
        errors = []
        barrier = threading.Barrier(3)

        def compute(_):
            raise boom

        def worker():
            barrier.wait()
            try:
                batcher.run(point, compute)
            except RuntimeError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(errors) == 3
        assert all(e is boom for e in errors)
        assert batcher.coalesced == 2

    def test_flight_closes_after_completion(self):
        batcher = MicroBatcher()
        point = _point()
        assert batcher.run(point, lambda p: 1) == 1
        # A later request starts a fresh flight (no stale result served).
        assert batcher.run(point, lambda p: 2) == 2

    def test_rejects_negative_window(self):
        with pytest.raises(ValueError, match="window_s"):
            MicroBatcher(window_s=-1.0)


@pytest.fixture()
def live_address(tmp_path):
    """``(host, port)`` of a live service on an ephemeral port."""
    app = ServiceApp(
        ServiceConfig(
            cache_dir=str(tmp_path / "cache"),
            spool_root=str(tmp_path / "jobs"),
            port=0,
        )
    )
    server = make_server(app, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address[:2]
    server.shutdown()
    server.server_close()


def _raw_post(address, content_length: str, body: bytes = b""):
    """POST over a bare socket with a verbatim ``Content-Length`` header;
    ``(status, decoded JSON body)`` of the reply."""
    head = (
        "POST /v1/ensemble HTTP/1.0\r\n"
        "Host: localhost\r\n"
        f"Content-Length: {content_length}\r\n\r\n"
    )
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(head.encode("ascii") + body)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    assert reply, "connection closed without an HTTP reply"
    status_line, _, rest = reply.partition(b"\r\n")
    _, _, payload = rest.partition(b"\r\n\r\n")
    return int(status_line.split()[1]), json.loads(payload)


class TestRequestFraming:
    """Malformed or oversized bodies get an HTTP answer, not a dropped
    connection or a handler thread stuck reading."""

    def test_non_integer_content_length_is_400(self, live_address):
        status, body = _raw_post(live_address, "abc")
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_negative_content_length_is_400(self, live_address):
        status, body = _raw_post(live_address, "-5")
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_oversized_body_is_413_without_reading_it(self, live_address):
        # No body bytes follow: a handler that tried to read them would
        # block until the socket timeout instead of answering.
        status, body = _raw_post(live_address, str(MAX_BODY_BYTES + 1))
        assert status == 413
        assert str(MAX_BODY_BYTES) in body["error"]

    def test_threads_field_is_a_400(self, live_address):
        request = json.dumps(
            {
                "host": {"family": "complete", "n": 64},
                "protocol": {"kind": "best_of_k", "threads": 2},
            }
        ).encode("utf-8")
        status, body = _raw_post(live_address, str(len(request)), request)
        assert status == 400
        assert "threads" in body["error"]
