"""Arithmetic and process helpers shared by the benchmark's programs.

Stdlib only: the orchestrator (``run.py``) and the service client must
not import ``repro`` or numpy, so that set-up timings of the processes
they start stay cold and the client never shares the server's GIL.
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import sys
import time

P99_MIN_BEYOND = 10
"""A percentile is reported only when at least this many samples lie
beyond it; otherwise it would rest on a handful of outliers."""


# ----------------------------------------------------------------------
# Percentiles and ratios
# ----------------------------------------------------------------------


def nearest_rank(values, q):
    """The nearest-rank ``q``-quantile (``0 < q <= 1``) of *values*."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count, q):
    """How many of *count* samples lie strictly above the nearest-rank
    ``q``-quantile."""
    return count - max(1, math.ceil(q * count))


def tail_percentile(values, q=0.99, min_beyond=P99_MIN_BEYOND):
    """The ``q``-quantile, or ``None`` when fewer than *min_beyond*
    samples lie beyond it (the percentile rule)."""
    if samples_beyond(len(values), q) < min_beyond:
        return None
    return nearest_rank(values, q)


def latency_tail(values, q=0.99):
    """``(value, kind)``: the ``q``-quantile when the percentile rule
    allows it (``kind == "p99"``), else the largest sample
    (``kind == "max"``), which is the honest tail of a short sample."""
    tail = tail_percentile(values, q)
    if tail is None:
        return max(values), "max"
    return tail, "p99"


def window_tails(values, q=0.99, window=1000):
    """The ``q``-quantile of each run of *window* consecutive samples
    (the last window takes the remainder), or ``[]`` when there are fewer
    than *window* samples.  Their median is a tail that a few seconds of
    contention on a shared host cannot move on its own."""
    count = len(values) // window
    bounds = [i * window for i in range(count)] + [len(values)] if count else []
    tails = [tail_percentile(values[a:b], q) for a, b in zip(bounds, bounds[1:])]
    if None in tails:
        raise ValueError(f"a window of {window} samples is too short for q={q}")
    return tails


def failure_ratio(failed, attempted):
    """Failed operations as a share of those attempted."""
    if attempted <= 0:
        raise ValueError("attempted must be positive")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def per_second(count, seconds):
    if seconds <= 0:
        raise ValueError("seconds must be positive")
    return count / seconds


def ms(seconds):
    return seconds * 1000.0


def mib(kib):
    return kib / 1024.0


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------


def covered(interval, children):
    """Length of the part of *interval* that the *children* intervals
    cover, counting overlapping children (e.g. on worker threads) once."""
    lo, hi = interval
    clipped = sorted(
        (max(lo, a), min(hi, b)) for a, b in children if min(hi, b) > max(lo, a)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def in_window(spans, lo, hi):
    """The spans that start and end within ``[lo, hi]``: a traced
    server's work for the client loop, without the priming requests
    before it or the ``/v1/stats`` call after it."""
    return [s for s in spans if lo <= s["start"] and s["end"] <= hi]


def self_times(spans):
    """``{span id: self time}``: each span's duration minus the part of
    its interval that its direct children cover, whichever thread the
    children ran on."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - covered((s["start"], s["end"]), children.get(s["id"], ()))
        for s in spans
    }


# ----------------------------------------------------------------------
# Process and environment
# ----------------------------------------------------------------------


def peak_rss_kib(pid="self"):
    """Peak resident set size (``VmHWM``) of a live process, in KiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


def calibration_s(loops=1_000_000):
    """Wall time of a fixed pure-Python loop: how fast this machine runs
    right now, recorded so that a contended run reads as such."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += i * i % 7
    return time.perf_counter() - t0


def git_commit(root):
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_environment(root):
    """The parts of the environment a reader needs to judge a result."""
    return {
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "calibration_s_at_start": calibration_s(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(root),
    }


def emit(obj):
    """Print one JSON object on its own stdout line."""
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")
    sys.stdout.flush()
