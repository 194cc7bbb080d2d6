"""The ``service_mix`` workload: a real ``repro serve`` process and a client.

The server runs in its own process (fresh cache and spool dirs), so the
client here, which imports neither ``repro`` nor numpy, never shares its
GIL.  The client is a closed loop over two connections (threads); each
thread sends its next request only after the previous reply.  Requests
follow a fixed mix, in cycles of six rounds shuffled from the seed:

* three rounds of warm hits on the 64 points primed during set-up;
* one round of cold ``K_n`` points (n = 2^16, 32 trials, fresh seeds);
* one coalesced burst: both threads post the same fresh point at a barrier;
* one round of malformed bodies, which must get a 400.

Each round is one request per thread, so by request count the mix is
1/2 warm, 1/6 cold, 1/6 burst, 1/6 malformed.  A short untimed run of
the same mix (its own fresh seeds) warms the server up before the
measured one.
"""

from __future__ import annotations

import json
import os
import random
import socket
import subprocess
import threading
import time

from benchlib import peak_rss_kib

PRIMED = 64
MIN_REQUESTS = 1000  # so that >= 10 samples lie beyond the p99
WARMUP_S = 3.0
ROUNDS = ("warm", "warm", "warm", "cold", "burst", "bad")
COLD_N = 1 << 16
COLD_TRIALS = 32
START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0

BAD_BODIES = (
    b'{"host": ',
    b'{"host": {"family": "complete", "n": 64}, "bogus": 1}',
    b'{"trials": 4}',
    b'{"host": {"family": "no_such_family"}}',
    b'{"host": {"family": "complete", "n": 64}, "trials": "many"}',
    b"[1, 2, 3]",
)


def _body(obj):
    return json.dumps(obj, sort_keys=True).encode("utf-8")


def primed_bodies(seed):
    """64 cheap points: count-chain ``K_n`` of several sizes and a small
    dense rook host."""
    bodies = []
    for j in range(PRIMED):
        if j % 4 == 3:
            host = {"family": "rook", "side": 16}
        else:
            host = {"family": "complete", "n": 1 << (10 + 2 * (j % 4))}
        bodies.append(
            _body({"host": host, "trials": 16, "init": {"delta": 0.1}, "seed": [seed, 0, j]})
        )
    return bodies


def cold_body(seed, stream, *key):
    return _body(
        {
            "host": {"family": "complete", "n": COLD_N},
            "trials": COLD_TRIALS,
            "init": {"delta": 0.05},
            "seed": [seed, stream, *key],
        }
    )


def request(port, method, path, body=None):
    """One request on a fresh connection.  The server speaks HTTP/1.0 and
    closes the connection after its reply, so the reply is read to EOF;
    a bare socket keeps the client's own CPU cost per request small.
    Returns ``(status, body)``; ``status`` is ``None`` when the exchange
    itself failed."""
    head = f"{method} {path} HTTP/1.0\r\nHost: 127.0.0.1\r\n"
    if body is not None:
        head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
    chunks = []
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=REQUEST_TIMEOUT_S) as sock:
            sock.sendall(head.encode("ascii") + b"\r\n" + (body or b""))
            while chunk := sock.recv(65536):
                chunks.append(chunk)
    except OSError:
        return None, b""
    header, sep, reply = b"".join(chunks).partition(b"\r\n\r\n")
    parts = header.split(b" ", 2)
    if not sep or len(parts) < 2 or not parts[1].isdigit():
        return None, b""
    return int(parts[1]), reply


def _as_cached(body):
    return body.replace(b'"cached": false', b'"cached": true', 1)


class Server:
    """One ``repro serve --port 0`` process on fresh dirs under *root*."""

    def __init__(self, cmd, env, root):
        os.makedirs(root, exist_ok=True)
        self.log_path = os.path.join(root, "server.log")
        self.spawned_at = time.monotonic()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                cmd
                + [
                    "serve",
                    "--host",
                    "127.0.0.1",
                    "--port",
                    "0",
                    "--cache-dir",
                    os.path.join(root, "cache"),
                    "--spool-root",
                    os.path.join(root, "spool"),
                ],
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        self.port = self._wait_for_port()

    def _wait_for_port(self):
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            with open(self.log_path, "rb") as log:
                for line in log:
                    if line.startswith(b"repro service listening on "):
                        return int(line.rsplit(b":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"server did not start; log: {self.log_path}")

    def peak_rss_kib(self):
        return peak_rss_kib(self.proc.pid)

    def stop(self):
        """SIGTERM, then wait.  (Not SIGINT: a shell that starts a job in
        the background makes it ignore SIGINT.)"""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def start_and_prime(cmd, env, root, seed):
    """Start a server and prime it.  Returns ``(server, setup_s,
    expected warm bodies, failed primes)``."""
    server = Server(cmd, env, root)
    warm = []
    failed = 0
    for body in primed_bodies(seed):
        status, reply = request(server.port, "POST", "/v1/ensemble", body)
        failed += status != 200 or b'"cached": false' not in reply
        warm.append(_as_cached(reply))
    return server, time.monotonic() - server.spawned_at, warm, failed


class Client:
    """The two-connection closed loop against one primed server.  Each
    *phase* (warm-up, measured run) draws its own fresh cold points."""

    def __init__(self, port, seed, warm, phase):
        self.port = port
        self.seed = seed
        self.phase = phase
        self.primed = primed_bodies(seed)
        self.warm = warm
        self.lock = threading.Lock()
        self.records = []  # (kind, latency_s, ok), in order of start
        self._timed = []  # (start, kind, latency_s, ok)
        self.bursts = {}  # cycle -> replies of both threads
        self.sent = 0
        self.stop = False

    def _send(self, body):
        t0 = time.perf_counter()
        status, reply = request(self.port, "POST", "/v1/ensemble", body)
        latency = time.perf_counter() - t0
        with self.lock:
            self.sent += 1
        return latency, status, reply

    def _round(self, kind, tid, cycle, rng, burst_barrier):
        """One request of *kind*; returns ``(latency_s, ok)``."""
        if kind == "warm":
            j = rng.randrange(PRIMED)
            latency, status, reply = self._send(self.primed[j])
            return latency, status == 200 and reply == self.warm[j]
        if kind == "cold":
            latency, status, reply = self._send(cold_body(self.seed, 1, self.phase, tid, cycle))
            return latency, status == 200 and b'"cached": false' in reply
        if kind == "burst":
            burst_barrier.wait()
            latency, status, reply = self._send(cold_body(self.seed, 2, self.phase, cycle))
            with self.lock:
                self.bursts.setdefault(cycle, []).append(reply)
            return latency, status == 200
        body = BAD_BODIES[(cycle * 2 + tid) % len(BAD_BODIES)]
        latency, status, _ = self._send(body)
        return latency, status == 400

    def _thread(self, tid, cycle_barrier, burst_barrier):
        rng = random.Random(self.seed * 7919 + tid)
        records = []
        cycle = 0
        try:
            while True:
                cycle_barrier.wait()
                if self.stop:
                    break
                rounds = list(ROUNDS)
                random.Random(self.seed * 1_000_003 + cycle).shuffle(rounds)
                for kind in rounds:
                    start = time.perf_counter()
                    latency, ok = self._round(kind, tid, cycle, rng, burst_barrier)
                    records.append((start, kind, latency, ok))
                cycle += 1
        except threading.BrokenBarrierError:
            pass
        except BaseException:
            cycle_barrier.abort()
            burst_barrier.abort()
            raise
        finally:
            with self.lock:
                self._timed.extend(records)

    def run(self, seconds, min_requests=MIN_REQUESTS):
        """Drive the mix for *seconds*, and on until at least
        *min_requests* requests were sent.  Returns the loop's wall time;
        ``self.window`` is its ``(start, end)`` on ``time.perf_counter()``,
        the system-wide monotonic clock the server's spans use too."""
        start = time.perf_counter()
        deadline = start + seconds
        hard_deadline = start + seconds + 60

        def decide():
            now = time.perf_counter()
            self.stop = now >= hard_deadline or (
                now >= deadline and self.sent >= min_requests
            )

        cycle_barrier = threading.Barrier(2, action=decide, timeout=2 * REQUEST_TIMEOUT_S)
        burst_barrier = threading.Barrier(2, timeout=2 * REQUEST_TIMEOUT_S)
        threads = [
            threading.Thread(target=self._thread, args=(tid, cycle_barrier, burst_barrier))
            for tid in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self.window = (start, time.perf_counter())
        self.records = [r[1:] for r in sorted(self._timed)]
        return self.window[1] - start

    def burst_failures(self):
        """Burst pairs whose two replies differ beyond the cached flag."""
        return sum(
            len(pair) != 2 or _as_cached(pair[0]) != _as_cached(pair[1])
            for pair in self.bursts.values()
        )

    def flights(self):
        """Engine calls the mix should have caused beyond priming."""
        cold = sum(kind == "cold" for kind, _, _ in self.records)
        return cold + len(self.bursts)


def engine_stats(port):
    status, reply = request(port, "GET", "/v1/stats")
    if status != 200:
        raise RuntimeError(f"/v1/stats answered {status}")
    return json.loads(reply)
