"""Batched ensemble engine: ``R`` replicas per round, not ``R`` run loops.

Every ensemble consumer in the library (the experiment harness, Theorem 1
verification, trajectory bundles, the baselines) used to drive Monte-Carlo
replicas through a per-trial Python loop around
:meth:`repro.core.dynamics.BestOfKDynamics.run`.  This module replaces
that with a single engine that advances all live replicas together
(DESIGN.md §2.3):

* **Batched dense path** — the ensemble state is one ``(R, n)`` ``uint8``
  matrix; one round is one batched neighbour draw
  (:meth:`repro.graphs.Graph.sample_neighbors_batch`), one flat
  ``np.take`` gather over precomputed row offsets, and one row reduction
  for *all* live replicas.  Absorbed replicas are compacted out of the
  matrix so finished runs stop costing work; the sample tensor is chunked
  along the replica axis (with an ``int32`` index path for ``n < 2**31``)
  to bound peak memory at large ``n·k·R``, and the per-chunk scratch
  (sample ids, gathered opinions, vote counts) is preallocated once per
  round and reused across chunks.
* **Exact count-chain fast path** — hosts made of exchangeable parts
  (``K_n``, complete multipartite families, the two-clique bridge with
  its explicitly tracked bridge endpoints) advertise a
  :class:`~repro.core.kernels.CountChainKernel`: conditioned on the
  per-part blue counts the configuration is irrelevant, so one round of
  ``R`` replicas is a handful of vectorised binomial operations — O(parts)
  work per replica per round instead of O(n·k) memory traffic.  The
  chains are *exactly* distributed like the dense simulation's count
  process (not an approximation), and their binomials switch to
  :func:`~repro.core.kernels.binomial_draw`'s Gaussian/Poisson regime
  above 2³¹, which makes ``n = 10¹⁰``-scale Theorem 1 sweeps feasible.

Since the Protocol layer (DESIGN.md §2.6) the engine is dynamics-generic:
``run_ensemble(protocol=...)`` drives any :class:`repro.core.protocols.
Protocol` — noisy/zealot/async Best-of-k, the voter model, deterministic
local majority, q-colour plurality — through the same two paths.  The
protocol supplies the batched step, the count-chain transition (an
adoption law plus optional pinned slots), and the termination semantics;
the engine owns the loop, compaction, and bookkeeping.  Passing
``k``/``tie_rule`` instead of a protocol builds the default ``BestOfK``
and is unchanged draw-for-draw from the pre-Protocol engine.

Randomness: the engine consumes one generator for the whole batch, so
results are deterministic given a seed but not bitwise-identical to the
old sequential loop; equivalence is distributional (covered by
``tests/test_core_ensemble.py``, ``tests/test_count_chain_kernels.py``
and ``tests/test_protocols.py``).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Literal

import numpy as np

from repro.core.dense import (
    DEFAULT_BATCH_BYTES,
    replica_blocks,
    resolve_dense_threads,
    step_best_of_k_batch,
)
from repro.core.dynamics import TieRule
from repro.core.kernels import (
    CountChainKernel,
    binomial_draw,
    count_chain_step,
    majority_win_probability,
)
from repro.core.opinions import (
    BLUE,
    OPINION_DTYPE,
    RED,
    exact_count_opinions,
    random_opinions,
)
from repro.graphs.base import Graph
from repro.util.rng import SeedLike, as_generator, spawn_generators
from repro.util.validation import check_in_range, check_positive_int

__all__ = [
    "DEFAULT_BATCH_BYTES",
    "EnsembleResult",
    "majority_win_probability",
    "binomial_draw",
    "count_chain_step",
    "step_best_of_k_batch",
    "build_initial_matrix",
    "run_ensemble",
]

# ``DEFAULT_BATCH_BYTES`` and ``step_best_of_k_batch`` moved to
# :mod:`repro.core.dense` in 1.8 (the hot-path module); re-exported here
# because the public import path predates the split.

EnsembleMethod = Literal["auto", "batched", "count_chain"]


# ----------------------------------------------------------------------
# Result type
# ----------------------------------------------------------------------


@dataclass
class EnsembleResult:
    """Outcome of a batched ensemble run.

    Attributes
    ----------
    n:
        Number of vertices of the host graph.
    replicas:
        Number of replicas ``R`` simulated.
    steps:
        ``(R,)`` rounds executed per replica (the consensus time where
        ``converged``; the round budget otherwise).
    winners:
        ``(R,)`` winner codes (``RED``/``BLUE``); ``-1`` for replicas that
        did not absorb within the budget.
    converged:
        ``(R,)`` boolean absorption mask.
    method:
        Engine path used (``"batched"`` or ``"count_chain"``).
    blue_trajectories:
        Per-replica blue-count trajectories ``[B_0, …, B_steps]`` (ragged
        list, present when recording was requested).  For multi-colour
        protocols this is the protocol's progress statistic (plurality:
        the leading-colour count).
    final_opinions:
        ``(R, n)`` terminal opinion matrix (dense path with
        ``keep_final=True`` only).
    final_totals:
        ``(R,)`` terminal blue totals (progress statistic), recorded on
        both paths — the zealot payloads read ordinary-blue counts off
        it without needing trajectories.
    threads:
        Width of the pool the dense replica blocks ran on (``0`` for
        the single-stream layout — always the case below the workload
        threshold and on the count-chain path).  Never part of the
        result bytes.
    """

    n: int
    replicas: int
    steps: np.ndarray
    winners: np.ndarray
    converged: np.ndarray
    method: str
    blue_trajectories: list[np.ndarray] | None = field(default=None, repr=False)
    final_opinions: np.ndarray | None = field(default=None, repr=False)
    final_totals: np.ndarray | None = field(default=None, repr=False)
    threads: int = 0

    @property
    def converged_count(self) -> int:
        return int(np.count_nonzero(self.converged))

    @property
    def unconverged(self) -> int:
        return self.replicas - self.converged_count

    @property
    def red_wins(self) -> int:
        return int(np.count_nonzero(self.winners == RED))

    @property
    def blue_wins(self) -> int:
        return int(np.count_nonzero(self.winners == BLUE))

    @property
    def converged_steps(self) -> np.ndarray:
        """Consensus times of the converged replicas only."""
        return self.steps[self.converged]

    def fraction_matrix(self, horizon: int) -> np.ndarray:
        """Aligned ``(R, horizon + 1)`` blue-*fraction* matrix.

        Absorbed replicas are padded with their terminal value; replicas
        that ran past *horizon* are truncated there.  Requires recorded
        trajectories.
        """
        if self.blue_trajectories is None:
            raise ValueError(
                "fraction_matrix requires the run to record trajectories "
                "(record_trajectories=True)"
            )
        horizon = check_positive_int(horizon, "horizon")
        out = np.empty((self.replicas, horizon + 1), dtype=np.float64)
        for i, traj in enumerate(self.blue_trajectories):
            frac = traj[: horizon + 1] / self.n
            out[i, : frac.size] = frac
            if frac.size <= horizon:
                out[i, frac.size :] = frac[-1]
        return out


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------


def run_ensemble(
    graph: Graph,
    *,
    replicas: int,
    protocol=None,
    k: int = 3,
    tie_rule: TieRule = TieRule.KEEP_SELF,
    seed: SeedLike = None,
    max_steps: int = 10_000,
    delta: float | None = None,
    initializer: Callable[[int, np.random.Generator], np.ndarray] | None = None,
    initial_opinions: np.ndarray | None = None,
    initial_blue_counts: np.ndarray | int | None = None,
    record_trajectories: bool = True,
    keep_final: bool = False,
    method: EnsembleMethod = "auto",
    max_batch_bytes: int = DEFAULT_BATCH_BYTES,
) -> EnsembleResult:
    """Run *replicas* independent dynamics runs as one batched simulation.

    *protocol* is any :class:`repro.core.protocols.Protocol` (noisy /
    zealot / async Best-of-k, voter, local majority, plurality, …);
    omitting it builds the default ``BestOfK(k, tie_rule=tie_rule)`` —
    the paper's protocol, draw-for-draw identical to the pre-Protocol
    engine (``k``/``tie_rule`` are ignored when *protocol* is given).

    Exactly one initial-condition source must be given:

    * ``delta`` — the paper's i.i.d. configuration (blue w.p. ``1/2 − δ``),
      drawn per replica from independent spawned streams;
    * ``initializer`` — ``(n, rng) -> opinions``, called once per replica
      with its own spawned stream;
    * ``initial_opinions`` — an explicit ``(R, n)`` (or broadcastable
      ``(n,)``) opinion matrix;
    * ``initial_blue_counts`` — exact initial counts (scalar or ``(R,)``);
      uniform placement on the dense path, split across a kernel's slots
      by the uniform-placement law on the chain path.

    The protocol's :meth:`~repro.core.protocols.Protocol.prepare_state`
    runs after initialisation (zealots pin their vertices BLUE here).

    ``method="auto"`` routes any host that advertises a
    :meth:`~repro.graphs.Graph.count_chain_kernel` (``K_n``, complete
    bipartite/multipartite families, the two-clique bridge) to its exact
    count chain when the protocol supports it (Best-of-k and its noisy /
    zealot overlays do) and per-vertex output (``keep_final``) is not
    requested; everything else uses the batched dense path.  The routing
    is lossless for counts, consensus times, and winners: conditioned on
    the kernel's slot counts, the host's update law does not depend on
    the placement within slots, whatever the initial condition.

    The dense path's stream layout is a pure function of the workload
    (DESIGN.md §2.10): small workloads advance on one stream (seeded
    results stay byte-identical to 1.7); once the per-round sample count
    ``R·n·k`` reaches :data:`repro.core.dense.DENSE_AUTO_THREAD_MIN_SAMPLES`
    the replicas partition into fixed blocks, each with its own spawned
    generator, advanced on a thread pool as wide as the machine allows.
    The core count sets only the pool width, so a seeded run gives the
    same bytes on every machine.
    """
    from repro.core.protocols import BestOfK

    replicas = check_positive_int(replicas, "replicas")
    max_steps = check_positive_int(max_steps, "max_steps")
    if protocol is None:
        protocol = BestOfK(k, tie_rule=tie_rule)
    n = graph.num_vertices
    given = [
        name
        for name, val in (
            ("delta", delta),
            ("initializer", initializer),
            ("initial_opinions", initial_opinions),
            ("initial_blue_counts", initial_blue_counts),
        )
        if val is not None
    ]
    if len(given) != 1:
        raise ValueError(
            "provide exactly one of delta, initializer, initial_opinions, "
            f"initial_blue_counts (got {given or 'none'})"
        )
    if delta is not None:
        delta = check_in_range(delta, "delta", 0.0, 0.5)

    init_ss, dyn_ss = spawn_generators(seed, 2)
    rng = as_generator(dyn_ss)

    kernel = graph.count_chain_kernel()
    chain_ok = kernel is not None and protocol.supports_kernel(kernel)
    if method == "auto":
        method = "count_chain" if chain_ok and not keep_final else "batched"
    if method == "count_chain":
        if kernel is None:
            raise ValueError(
                f"{type(graph).__name__} advertises no exact count-chain "
                "kernel (only exchangeable-part hosts such as CompleteGraph, "
                "complete multipartite families, and the two-clique bridge "
                "do); use method='batched'"
            )
        if not chain_ok:
            raise ValueError(
                f"{type(protocol).__name__} has no count-chain transition "
                "on this host; use method='batched'"
            )
        if keep_final:
            raise ValueError(
                "the count-chain path tracks counts only; keep_final "
                "requires method='batched'"
            )
        state0 = _initial_kernel_state(
            kernel, protocol, replicas, init_ss, delta, initializer,
            initial_opinions, initial_blue_counts,
        )
        return _run_count_chain(
            kernel, protocol, state0, rng, max_steps, record_trajectories
        )
    if method != "batched":
        raise ValueError(
            f"unknown method {method!r}; expected 'auto', 'batched', or "
            "'count_chain'"
        )
    init_matrix = _initial_matrix(
        n, replicas, init_ss, delta, initializer, initial_opinions,
        initial_blue_counts, dtype=protocol.opinion_dtype,
    )
    init_matrix = protocol.prepare_state(init_matrix)
    return _run_batched(
        graph, protocol, init_matrix, rng, max_steps,
        record_trajectories, keep_final, max_batch_bytes,
    )


def build_initial_matrix(
    n: int,
    replicas: int,
    seed: SeedLike = None,
    *,
    delta: float | None = None,
    initializer: Callable[[int, np.random.Generator], np.ndarray] | None = None,
    initial_blue_counts: np.ndarray | int | None = None,
    dtype=OPINION_DTYPE,
) -> np.ndarray:
    """Materialise the ``(R, n)`` initial matrix an engine run would use.

    Public for paired executions (E14's sync/async comparison): build
    the shared initial configurations once from *seed*'s init stream,
    then hand the same matrix to several ``run_ensemble(protocol=...)``
    calls via ``initial_opinions``.
    """
    init_ss = spawn_generators(seed, 1)[0]
    return _initial_matrix(
        n, replicas, init_ss, delta, initializer, None, initial_blue_counts,
        dtype=dtype,
    )


def _initial_matrix(
    n: int,
    replicas: int,
    init_ss,
    delta,
    initializer,
    initial_opinions,
    initial_blue_counts,
    dtype=OPINION_DTYPE,
) -> np.ndarray:
    """Materialise the ``(R, n)`` initial opinion matrix."""
    if initial_opinions is not None:
        mat = np.asarray(initial_opinions, dtype=dtype)
        if mat.ndim == 1:
            mat = np.broadcast_to(mat, (replicas, n))
        if mat.shape != (replicas, n):
            raise ValueError(
                f"initial_opinions must have shape ({replicas}, {n}) or "
                f"({n},), got {np.asarray(initial_opinions).shape}"
            )
        return np.array(mat, dtype=dtype, copy=True)
    gens = spawn_generators(init_ss, replicas)
    mat = np.empty((replicas, n), dtype=dtype)
    if delta is not None:
        for i, gen in enumerate(gens):
            mat[i] = random_opinions(n, delta, rng=gen)
    elif initializer is not None:
        for i, gen in enumerate(gens):
            row = np.asarray(initializer(n, gen))
            if row.shape != (n,):
                raise ValueError(
                    f"initializer returned shape {row.shape}, expected ({n},)"
                )
            mat[i] = row.astype(dtype, copy=False)
    else:
        counts = np.broadcast_to(
            np.asarray(initial_blue_counts, dtype=np.int64), (replicas,)
        )
        for i, gen in enumerate(gens):
            mat[i] = exact_count_opinions(n, int(counts[i]), rng=gen)
    return mat


def _initial_kernel_state(
    kernel: CountChainKernel,
    protocol,
    replicas: int,
    init_ss,
    delta,
    initializer,
    initial_opinions,
    initial_blue_counts,
) -> np.ndarray:
    """Initial ``(R, slots)`` kernel state, avoiding O(R·n) memory when
    possible (the whole point of the chain path at large ``n``).

    The protocol's pinned slots (zealots) flow into the count laws —
    slot-count draws reproduce "initialise, then pin BLUE" exactly;
    materialised rows go through ``prepare_state`` before projection.
    """
    pinned = protocol.kernel_pinned(kernel)
    if delta is not None or initial_blue_counts is not None:
        return kernel.initial_state(
            replicas, init_ss, delta=delta, blue_counts=initial_blue_counts,
            pinned=pinned,
        )
    n = kernel.n
    if initial_opinions is not None:
        mat = np.asarray(initial_opinions)
        if mat.ndim == 1:
            if mat.shape != (n,):
                raise ValueError(
                    f"initial_opinions must have shape ({replicas}, {n}) or "
                    f"({n},), got {mat.shape}"
                )
            # Shared row: project once, repeat — never materialise (R, n).
            row = protocol.prepare_state(
                mat[None, :].astype(protocol.opinion_dtype, copy=True)
            )
            return np.repeat(
                kernel.state_from_opinions(row), replicas, axis=0
            )
        if mat.shape != (replicas, n):
            raise ValueError(
                f"initial_opinions must have shape ({replicas}, {n}) or "
                f"({n},), got {mat.shape}"
            )
        mat = protocol.prepare_state(
            mat.astype(protocol.opinion_dtype, copy=True)
        )
        return kernel.state_from_opinions(mat)
    # Initialiser: materialise one replica row at a time and project; the
    # chain is exact conditioned on any placement's slot counts.
    gens = spawn_generators(init_ss, replicas)
    state = np.empty((replicas, kernel.num_slots), dtype=np.int64)
    for i, gen in enumerate(gens):
        row = np.asarray(initializer(n, gen))
        if row.shape != (n,):
            raise ValueError(
                f"initializer returned shape {row.shape}, expected ({n},)"
            )
        row = protocol.prepare_state(
            row[None, :].astype(protocol.opinion_dtype, copy=True)
        )
        state[i] = kernel.state_from_opinions(row)[0]
    return state


def _run_count_chain(
    kernel: CountChainKernel,
    protocol,
    state0: np.ndarray,
    rng: np.random.Generator,
    max_steps: int,
    record_trajectories: bool,
) -> EnsembleResult:
    n = kernel.n
    replicas = state0.shape[0]
    totals0 = kernel.blue_totals(state0)
    steps = np.zeros(replicas, dtype=np.int64)
    winners = np.full(replicas, -1, dtype=np.int64)
    converged = np.zeros(replicas, dtype=bool)
    final_totals = np.asarray(totals0, dtype=np.int64).copy()
    traj: list[list[int]] | None = (
        [[int(c)] for c in totals0] if record_trajectories else None
    )
    absorbed = protocol.absorbed(totals0, n)
    w0 = protocol.winners(totals0[absorbed], n)
    converged[absorbed] = w0 >= 0
    winners[absorbed] = w0
    live = np.nonzero(~absorbed)[0]
    state = state0[live]
    t = 0
    while live.size and t < max_steps:
        state = protocol.kernel_step(kernel, state, rng)
        totals = kernel.blue_totals(state)
        t += 1
        if traj is not None:
            for idx, c in zip(live, totals):
                traj[idx].append(int(c))
        done = protocol.absorbed(totals, n)
        if done.any():
            hit = live[done]
            w = protocol.winners(totals[done], n)
            converged[hit] = w >= 0
            steps[hit] = t
            winners[hit] = w
            final_totals[hit] = totals[done]
            live = live[~done]
            state = state[~done]
    if live.size:
        steps[live] = t
        final_totals[live] = kernel.blue_totals(state)
    return EnsembleResult(
        n=n,
        replicas=replicas,
        steps=steps,
        winners=winners,
        converged=converged,
        method="count_chain",
        blue_trajectories=(
            [np.asarray(rows, dtype=np.int64) for rows in traj]
            if traj is not None
            else None
        ),
        final_totals=final_totals,
    )


def _run_batched(
    graph: Graph,
    protocol,
    init_matrix: np.ndarray,
    rng: np.random.Generator,
    max_steps: int,
    record_trajectories: bool,
    keep_final: bool,
    max_batch_bytes: int,
) -> EnsembleResult:
    """Dense path: fan the replicas out over their stream layout.

    Below the workload threshold the whole matrix is one block on *rng*.
    At or above it, the fixed :func:`repro.core.dense.replica_blocks`
    partition gives each contiguous ``[lo, hi)`` row range its own
    spawned stream and its own compaction and bookkeeping, so the merge
    is a concatenation in block order.  Blocks depend only on the
    workload, never on the pool width: any width computes bit-identical
    results, and the pool merely decides how many blocks advance at once
    (the heavy per-round kernels release the GIL inside numpy).
    """
    n = graph.num_vertices
    replicas = init_matrix.shape[0]
    k = int(getattr(protocol, "k", 1))
    workers = resolve_dense_threads(n, k, replicas)
    if workers == 0:
        return _run_block(
            graph, protocol, init_matrix, rng, max_steps,
            record_trajectories, keep_final, max_batch_bytes,
        )
    blocks = replica_blocks(replicas, n, k, max_batch_bytes)
    gens = spawn_generators(rng, len(blocks))
    width = min(workers, len(blocks))
    # Touch the shared vertex-id cache once before fan-out so worker
    # threads only read it (other per-graph protocol memos are filled by
    # a single atomic tuple assignment — benign if two blocks race).
    _ = graph.vertex_ids

    def run_block(i: int) -> EnsembleResult:
        lo, hi = blocks[i]
        return _run_block(
            graph, protocol, init_matrix[lo:hi], gens[i], max_steps,
            record_trajectories, keep_final, max_batch_bytes,
        )

    if width == 1:
        parts = [run_block(i) for i in range(len(blocks))]
    else:
        with ThreadPoolExecutor(max_workers=width) as pool:
            parts = list(pool.map(run_block, range(len(blocks))))
    traj: list[np.ndarray] | None = None
    if record_trajectories:
        traj = [t for part in parts for t in part.blue_trajectories]
    return EnsembleResult(
        n=n,
        replicas=replicas,
        steps=np.concatenate([p.steps for p in parts]),
        winners=np.concatenate([p.winners for p in parts]),
        converged=np.concatenate([p.converged for p in parts]),
        method="batched",
        blue_trajectories=traj,
        final_opinions=(
            np.concatenate([p.final_opinions for p in parts])
            if keep_final
            else None
        ),
        final_totals=np.concatenate([p.final_totals for p in parts]),
        threads=width,
    )


def _run_block(
    graph: Graph,
    protocol,
    init_matrix: np.ndarray,
    rng: np.random.Generator,
    max_steps: int,
    record_trajectories: bool,
    keep_final: bool,
    max_batch_bytes: int,
) -> EnsembleResult:
    """One sub-ensemble on one stream: the loop, compaction, bookkeeping."""
    n = graph.num_vertices
    replicas = init_matrix.shape[0]
    dtype = init_matrix.dtype
    steps = np.zeros(replicas, dtype=np.int64)
    winners = np.full(replicas, -1, dtype=np.int64)
    converged = np.zeros(replicas, dtype=bool)
    final = (
        np.empty((replicas, n), dtype=dtype) if keep_final else None
    )
    counts0 = protocol.totals(init_matrix)
    final_totals = np.asarray(counts0, dtype=np.int64).copy()
    traj: list[list[int]] | None = (
        [[int(c)] for c in counts0] if record_trajectories else None
    )
    absorbed = protocol.absorbed(counts0, n, state=init_matrix, prev=None)
    w0 = protocol.winners(counts0[absorbed], n, state=init_matrix[absorbed])
    converged[absorbed] = w0 >= 0
    winners[absorbed] = w0
    if final is not None:
        final[absorbed] = init_matrix[absorbed]
    live = np.nonzero(~absorbed)[0]
    ops = init_matrix[live].copy()
    buffer = np.empty_like(ops)
    t = 0
    while live.size and t < max_steps:
        protocol.step_batch(
            graph, ops, rng, out=buffer, max_batch_bytes=max_batch_bytes
        )
        ops, buffer = buffer, ops
        t += 1
        counts = protocol.totals(ops)
        if traj is not None:
            for idx, c in zip(live, counts):
                traj[idx].append(int(c))
        # After the swap, ``buffer`` holds the pre-round state —
        # deterministic protocols detect fixed points against it.
        done = protocol.absorbed(counts, n, state=ops, prev=buffer)
        if done.any():
            hit = live[done]
            w = protocol.winners(counts[done], n, state=ops[done])
            converged[hit] = w >= 0
            steps[hit] = t
            winners[hit] = w
            final_totals[hit] = counts[done]
            if final is not None:
                final[hit] = ops[done]
            # Compact: absorbed replicas stop costing sampling work.
            keep = ~done
            live = live[keep]
            ops = ops[keep]
            buffer = buffer[: ops.shape[0]]
    if live.size:
        steps[live] = t
        final_totals[live] = protocol.totals(ops)
        if final is not None:
            final[live] = ops
    return EnsembleResult(
        n=n,
        replicas=replicas,
        steps=steps,
        winners=winners,
        converged=converged,
        method="batched",
        blue_trajectories=(
            [np.asarray(rows, dtype=np.int64) for rows in traj]
            if traj is not None
            else None
        ),
        final_opinions=final,
        final_totals=final_totals,
    )
