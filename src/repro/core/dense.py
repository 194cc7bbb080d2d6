"""The dense-path hot loop: batched Best-of-k rounds (DESIGN.md §2.10).

This module is the library's dense inner kernel, split out of
:mod:`repro.core.ensemble` so the hot path has exactly one home.  Two
pieces live here:

* :func:`step_best_of_k_batch` — one synchronous Best-of-k round for a
  whole ``(R, n)`` batch, chunked along the replica axis so per-chunk
  scratch stays cache-resident.
* the **replica layout** — :func:`resolve_dense_threads` and
  :func:`replica_blocks` decide how the engine splits an ensemble into
  random streams.  Below :data:`DENSE_AUTO_THREAD_MIN_SAMPLES` the whole
  ensemble is one block on the caller's stream; at or above it the
  replicas partition into fixed blocks with one spawned stream each.
  The layout is a pure function of the workload ``(R, n, k,
  max_batch_bytes)``; the core count only sets how many blocks advance
  at once, so seeded results are the same bytes on every machine.
"""

from __future__ import annotations

import os

import numpy as np

from repro.core.dynamics import TieRule
from repro.core.opinions import OPINION_DTYPE
from repro.util.validation import check_positive_int

__all__ = [
    "DEFAULT_BATCH_BYTES",
    "DENSE_AUTO_THREAD_MIN_SAMPLES",
    "DENSE_BLOCKS_TARGET",
    "MAX_AUTO_THREADS",
    "dense_kernel_name",
    "replica_blocks",
    "resolve_dense_threads",
    "step_best_of_k_batch",
]

DEFAULT_BATCH_BYTES = 2 * 2**20
"""Default cap on the per-round sample-tensor footprint (bytes).

The dense path chunks the replica axis so that one chunk's scratch
(uniform draws + neighbour ids + gathered opinions, ~13 bytes per sample)
stays under this.  Two jobs at once: it bounds peak memory at large
``n·k·R``, and — measured, not theoretical — it keeps each chunk's
multi-pass kernels (draw, shift, gather, reduce) cache-resident instead
of streaming 100s of MB through DRAM per pass: a 64 MB cap is ~30× slower
than this one on a ``(100, 2¹⁴)`` rook round.  At small ``n`` the cap is
far above ``n·k·R`` and whole ensembles advance in one fully-vectorised
chunk, which is where batching beats the per-trial loop outright (the
per-call overhead regime).
"""

_BYTES_PER_SAMPLE = 13  # float64 draw (8) + int32 id (4) + uint8 gather (1)

DENSE_AUTO_THREAD_MIN_SAMPLES = 1 << 22
"""Per-round sample count ``R·n·k`` at which the engine switches from
one stream to the replica-block layout.

Below it the whole ensemble advances on the caller's stream (small
seeded runs — the harness grids, the goldens — keep their pre-1.8
bytes); at or above it the round is DRAM-bound enough that per-block
streams and a thread pool pay.  The threshold is a pure function of the
workload, so the layout — and therefore the result bytes — is
machine-independent.
"""

DENSE_BLOCKS_TARGET = 16
"""Minimum block count the partition aims for when ``R`` permits, so an
``R``-replica ensemble exposes enough parallelism for every pool width
without tying the partition to the pool size."""

MAX_AUTO_THREADS = 16
"""Cap on the block pool's width (diminishing returns past the memory
bandwidth of one socket)."""


# ----------------------------------------------------------------------
# Replica layout
# ----------------------------------------------------------------------


def _auto_workers() -> int:
    return max(1, min(os.cpu_count() or 1, MAX_AUTO_THREADS))


def resolve_dense_threads(n: int, k: int, replicas: int) -> int:
    """Pool width for a dense run: ``0`` for the single-stream layout.

    Returns ``0`` when the per-round sample count ``R·n·k`` is below
    :data:`DENSE_AUTO_THREAD_MIN_SAMPLES` (one block on the caller's
    stream), else the machine's worker count ``min(cores,
    MAX_AUTO_THREADS)`` (≥ 1) for the replica-block layout.  Only the
    ``0``-vs-positive decision touches the result bytes, and it depends
    on the workload alone.
    """
    if n * k * replicas < DENSE_AUTO_THREAD_MIN_SAMPLES:
        return 0
    return _auto_workers()


def replica_blocks(
    replicas: int, n: int, k: int, max_batch_bytes: int = DEFAULT_BATCH_BYTES
) -> list[tuple[int, int]]:
    """Deterministic ``[lo, hi)`` replica blocks for the block layout.

    Block size is the cache-resident chunk size of
    :func:`step_best_of_k_batch`, further split so at least
    :data:`DENSE_BLOCKS_TARGET` blocks exist when ``R`` permits.  A pure
    function of the workload — the pool width never enters — so block →
    replica assignment (and with it every spawned stream) is the same on
    every machine.
    """
    bytes_chunk = max(1, int(max_batch_bytes) // max(n * k * _BYTES_PER_SAMPLE, 1))
    target_chunk = max(1, -(-replicas // DENSE_BLOCKS_TARGET))
    block = max(1, min(bytes_chunk, target_chunk))
    return [(lo, min(lo + block, replicas)) for lo in range(0, replicas, block)]


def dense_kernel_name() -> str:
    """Name of the dense round implementation (always ``"numpy"``)."""
    return "numpy"


# ----------------------------------------------------------------------
# Batched dense round
# ----------------------------------------------------------------------


def step_best_of_k_batch(
    graph,
    opinions,
    k: int,
    rng,
    *,
    tie_rule: TieRule = TieRule.KEEP_SELF,
    out=None,
    max_batch_bytes: int = DEFAULT_BATCH_BYTES,
):
    """One synchronous Best-of-k round for a whole ``(R, n)`` batch.

    Row ``r`` of *opinions* is one replica's opinion vector; rows advance
    independently (each gets its own neighbour draws) but in one set of
    vectorised kernels.  The sample tensor is processed in replica chunks
    sized so the per-chunk scratch stays under *max_batch_bytes*.

    The per-chunk gather is a flat ``take`` over the row-major opinion
    buffer: sample ids are shifted by precomputed row offsets *in place*
    (reusing the sample buffer as the flat-index buffer), and the
    gathered opinions and vote counts land in scratch buffers allocated
    once per call and reused across chunks.
    """
    n = graph.num_vertices
    if opinions.ndim != 2 or opinions.shape[1] != n:
        raise ValueError(
            f"opinions must have shape (R, {n}), got {opinions.shape}"
        )
    k = check_positive_int(k, "k")
    replicas = opinions.shape[0]
    if out is None:
        out = np.empty_like(opinions)
    elif out is opinions:
        raise ValueError("out must not alias opinions (synchronous update)")
    elif out.shape != opinions.shape:
        raise ValueError(
            f"out shape {out.shape} does not match opinions {opinions.shape}"
        )
    vertices = graph.vertex_ids
    vote_dtype = np.uint8 if k < 256 else np.int64
    half = k // 2  # votes > half <=> strict blue majority, for any parity
    chunk = max(1, int(max_batch_bytes) // max(n * k * _BYTES_PER_SAMPLE, 1))
    chunk = min(chunk, replicas)
    # Flat row-major view for the flat-take gather (copies only when the
    # caller passed a non-contiguous matrix; the engine's buffers are
    # contiguous).
    flat_ops = np.ascontiguousarray(opinions).reshape(-1)
    # Row offsets can exceed int32 when R·n does even though ids fit.
    offset_dtype = (
        np.int64 if replicas * n > np.iinfo(np.int32).max else np.int32
    )
    gathered = np.empty((chunk, n, k), dtype=OPINION_DTYPE)
    votes = np.empty((chunk, n), dtype=vote_dtype)
    for lo in range(0, replicas, chunk):
        hi = min(lo + chunk, replicas)
        rows = hi - lo
        samples = graph.sample_neighbors_batch(vertices, k, rng, rows)
        offsets = np.arange(lo, hi, dtype=offset_dtype) * n
        if np.can_cast(offset_dtype, samples.dtype):
            samples += offsets[:, None, None].astype(samples.dtype)
            flat_idx = samples
        else:
            flat_idx = samples.astype(offset_dtype)
            flat_idx += offsets[:, None, None]
        np.take(flat_ops, flat_idx, out=gathered[:rows])
        np.sum(gathered[:rows], axis=2, dtype=vote_dtype, out=votes[:rows])
        np.greater(votes[:rows], half, out=out[lo:hi])
        if k % 2 == 0:
            tied = votes[:rows] == half
            if tie_rule is TieRule.KEEP_SELF:
                out[lo:hi][tied] = opinions[lo:hi][tied]
            elif tie_rule is TieRule.RANDOM:
                n_tied = int(np.count_nonzero(tied))
                if n_tied:
                    out[lo:hi][tied] = (rng.random(n_tied) < 0.5).astype(
                        OPINION_DTYPE
                    )
            else:  # pragma: no cover - exhaustiveness guard
                raise ValueError(f"unknown tie rule {tie_rule!r}")
    return out
