"""Point execution: map a declarative :class:`~repro.sweeps.spec.Point`
to an actual simulation.

This module owns the name → code registries for *hosts* and
*initialisers* so that points stay pure data.  Protocols are no longer
dispatched here: :meth:`ProtocolSpec.build` returns a first-class
:class:`repro.core.protocols.Protocol` (or a mapping of them, for paired
comparisons) and every kind executes through the one batched engine,
:func:`repro.core.ensemble.run_ensemble` — including the extension
protocols, which historically ran bespoke per-trial loops through a
``_EXECUTORS`` table in this file.  ``execute_point`` is a module-level
function, picklable by reference, which is what the scheduler ships to
worker processes.

Host graphs are memoised per process: a sweep typically holds many
points on the same host (protocol or bias axes), and rebuilding a
random-regular or Erdős–Rényi host per point would dominate small
ensembles.  The memo is keyed by the frozen :class:`HostSpec`, so two
points naming the same family + params (including the generator seed)
share one graph object — exactly the quenched-host convention the
pre-sweep experiment loops used.

Payload shapes
--------------
``best_of_k`` points summarise to a
:class:`~repro.analysis.experiments.ConsensusEnsemble`; every other
protocol's :meth:`~repro.core.protocols.Protocol.summarize` returns a
plain JSON-native dict of per-trial arrays (``async_vs_sync`` nests one
dict per paired component).  Both shapes serialise through
:func:`repro.io.results.payload_to_dict` for the cache.

Seed contract
-------------
A point's ``seed`` tuple is the root entropy of its engine run:
``run_ensemble`` spawns ``(init, dynamics)`` streams from it, exactly as
the rewired ``best_of_k`` experiments always did.  Paired points spawn
one extra child per component (``spawn_key=(1 + j,)``) for the
components' dynamics streams, so the paired chains share initial
configurations but never randomness.  :func:`point_streams` (the
historical per-trial sibling-stream layout, with ``Point.spawn_base``
naming a slice offset) remains available for consumers that reproduce
the pre-Protocol per-trial loops.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import Callable, Mapping

import numpy as np

from repro.analysis.experiments import ConsensusEnsemble
from repro.core.ensemble import (
    EnsembleResult,
    build_initial_matrix,
    run_ensemble,
)
from repro.core.opinions import adversarial_opinions
from repro.graphs.base import Graph
from repro.graphs.generators import (
    erdos_renyi,
    random_regular,
    ring_lattice,
    star_polluted,
    two_clique_bridge,
)
from repro.graphs.implicit import (
    CompleteGraph,
    CompleteMultipartiteGraph,
    RookGraph,
)
from repro.sweeps import hoststore
from repro.sweeps.spec import HostSpec, Point
from repro.util.rng import as_generator

__all__ = [
    "build_host",
    "execute_point",
    "execute_point_tracked",
    "host_access_counts",
    "host_families",
    "point_streams",
]


def _require_seed(params: dict, family: str):
    """Randomised families must carry an explicit generator seed.

    A ``None`` seed would draw the host from OS entropy *per process* —
    each worker would memoise a different graph, breaking both the
    jobs-invariance guarantee and the cache (whose key could no longer
    determine the graph it labels).
    """
    try:
        return params["seed"]
    except KeyError:
        raise ValueError(
            f"host family {family!r} is randomised; HostSpec needs an "
            "explicit seed param (e.g. HostSpec.of"
            f"({family!r}, ..., seed=(0, 1)))"
        ) from None


_HOST_BUILDERS: dict[str, Callable[[dict], Graph]] = {
    "complete": lambda p: CompleteGraph(p["n"]),
    "complete_multipartite": lambda p: CompleteMultipartiteGraph(
        list(p["sizes"])
    ),
    "rook": lambda p: RookGraph(p["side"]),
    "erdos_renyi": lambda p: erdos_renyi(
        p["n"], p["p"], seed=_require_seed(p, "erdos_renyi")
    ),
    "random_regular": lambda p: random_regular(
        p["n"], p["d"], seed=_require_seed(p, "random_regular")
    ),
    "ring_lattice": lambda p: ring_lattice(p["n"], p["d"]),
    "star_polluted": lambda p: star_polluted(p["core"], p["pendants"]),
    "two_clique_bridge": lambda p: two_clique_bridge(
        p["half"], bridges=p.get("bridges", 1)
    ),
}


def host_families() -> list[str]:
    """Names accepted by :attr:`HostSpec.family`."""
    return sorted(_HOST_BUILDERS)


_HOST_BUILD_COUNT = 0
"""From-scratch host constructions in this process (memo hits excluded).

Together with :func:`repro.sweeps.hoststore.attach_count` this is the
"rebuild count" the scheduler reports: a warm pool with a shared host
store should show zero worker-side builds for the shareable families.
"""

_HOST_MEMO_LOCK = threading.Lock()
"""Serialises host construction + the build counter across threads.

The request path must be reentrant: the service's threaded HTTP server
drives :func:`execute_point` from many handler threads at once, and
without the lock two concurrent requests for the same quenched host
would each construct their own graph (``lru_cache`` has no per-key
locking) and tear the build counter.  Holding one lock across *all*
constructions is deliberate — a host build is per-process setup cost,
and per-key locking would buy parallel construction nobody needs at the
price of a lock table.
"""


@lru_cache(maxsize=8)
def _build_host_cached(host: HostSpec) -> Graph:
    global _HOST_BUILD_COUNT
    try:
        builder = _HOST_BUILDERS[host.family]
    except KeyError:
        raise ValueError(
            f"unknown host family {host.family!r}; known: "
            f"{', '.join(host_families())}"
        ) from None
    _HOST_BUILD_COUNT += 1
    return builder(host.param_dict())


def build_host(host: HostSpec) -> Graph:
    """The host graph for *host*: shared-store attach, memo, or build.

    A worker whose pool published *host* to the shared host store
    (:mod:`repro.sweeps.hoststore`) maps the parent's CSR arrays
    zero-copy instead of regenerating the quenched graph; everything
    else falls back to the per-process memoised constructor.  Thread
    safe: concurrent callers (service handler threads) get the *same*
    memoised graph object.
    """
    graph = hoststore.lookup(host)
    if graph is not None:
        return graph
    with _HOST_MEMO_LOCK:
        return _build_host_cached(host)


def host_access_counts() -> tuple[int, int]:
    """This process's ``(from-scratch builds, shared-store attaches)``."""
    with _HOST_MEMO_LOCK:
        return _HOST_BUILD_COUNT, hoststore.attach_count()


def point_streams(point: Point, count: int) -> list[np.random.Generator]:
    """The point's first *count* sibling random streams.

    Stream ``j`` is ``SeedSequence(point.seed, spawn_key=
    (point.spawn_base + j,))``, i.e. child ``spawn_base + j`` of the
    point's root entropy under NumPy's spawn convention — the layout the
    historical per-trial extension loops consumed (kept for
    equivalence tests and external consumers; the engine path seeds
    itself from ``point.seed`` directly).
    """
    return [
        as_generator(
            np.random.SeedSequence(
                point.seed, spawn_key=(point.spawn_base + j,)
            )
        )
        for j in range(count)
    ]


def _init_kwargs(point: Point, graph: Graph) -> dict:
    """Engine initial-condition kwargs for the point's :class:`InitSpec`.

    The one remaining name → code mapping besides hosts: ``iid_delta``
    and ``exact_count`` pass straight through to the engine; the
    ``adversarial`` placements close over the host graph (they are
    computed on it).
    """
    init = point.init
    if init.kind == "iid_delta":
        return {"delta": init.delta}
    if init.kind == "exact_count":
        return {"initial_blue_counts": init.blue}
    if init.kind == "adversarial":
        blue, strategy = init.blue, init.strategy

        def initializer(n: int, rng: np.random.Generator) -> np.ndarray:
            return adversarial_opinions(graph, blue, strategy, rng=rng)

        return {"initializer": initializer}
    raise ValueError(  # pragma: no cover - InitSpec validates kinds
        f"unknown init kind {init.kind!r}"
    )


def _run_shared_init(
    graph: Graph, point: Point, components: Mapping[str, object]
) -> dict:
    """Run paired protocols from shared initial configurations.

    Every component sees the *same* per-trial initial opinion matrix
    (built from the point's init stream — child 0 of its seed, exactly
    where a single run's initialisers draw from) but its own dynamics
    stream (child ``1 + j``).  The payload nests each component's
    per-trial dict under its name.
    """
    matrix = build_initial_matrix(
        graph.num_vertices,
        point.trials,
        seed=point.seed,
        **_init_kwargs(point, graph),
    )
    payload: dict = {}
    for j, (name, protocol) in enumerate(components.items()):
        res = run_ensemble(
            graph,
            protocol=protocol,
            replicas=point.trials,
            seed=np.random.SeedSequence(point.seed, spawn_key=(1 + j,)),
            max_steps=point.max_steps,
            initial_opinions=matrix,
            record_trajectories=protocol.record_trajectories,
        )
        payload[name] = protocol.summarize_component(res)
    return payload


def execute_point(point: Point) -> "ConsensusEnsemble | dict":
    """Run the simulation a point describes and summarise it.

    Protocol dispatch is ``point.protocol.build()`` → ``run_ensemble``:
    a single protocol executes one engine run (count-chain routed on
    exchangeable hosts) and summarises itself; a mapping of protocols
    (``async_vs_sync``) executes one run per component from shared
    initial configurations.  ``best_of_k`` points feed ``point.seed``
    verbatim to the engine as the root entropy — unchanged from the
    pre-Protocol runner, so their experiment tables are bit-identical.
    """
    from repro.sweeps import faults

    faults.maybe_inject(point)  # no-op unless REPRO_FAULTS is armed
    graph = build_host(point.host)
    built = point.protocol.build()
    if isinstance(built, Mapping):
        return _run_shared_init(graph, point, built)
    res = run_ensemble(
        graph,
        protocol=built,
        replicas=point.trials,
        seed=point.seed,
        max_steps=point.max_steps,
        record_trajectories=built.record_trajectories,
        **_init_kwargs(point, graph),
    )
    payload = built.summarize(res)
    if isinstance(payload, EnsembleResult):
        return ConsensusEnsemble.from_ensemble_result(payload)
    return payload


def execute_point_tracked(point: Point):
    """:func:`execute_point` plus this point's host-access deltas.

    The scheduler ships this to pool workers so the parent can aggregate
    how many points forced a from-scratch host build versus a shared
    store attach — worker-process counters are invisible to the parent
    otherwise.  Returns ``(payload, builds, attaches)``.
    """
    builds0, attaches0 = host_access_counts()
    payload = execute_point(point)
    builds1, attaches1 = host_access_counts()
    return payload, builds1 - builds0, attaches1 - attaches0
