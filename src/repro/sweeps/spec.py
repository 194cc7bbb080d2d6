"""Declarative sweep grids: hosts × protocols × initial conditions.

A *sweep* is the unit of experiment-scale work in this library: a list
of fully-described simulation **points**, each of which can be executed
anywhere (inline, in a worker process, on another machine) and cached by
content.  The harness experiments declare their grids as
:class:`SweepSpec` values instead of hand-rolled nested loops, which is
what lets the scheduler fan them out over processes and the cache skip
re-simulation of already-seen points.

Everything in a :class:`Point` is plain data — strings, ints, floats,
and tuples of ints — so points pickle cheaply across process boundaries
and serialise canonically for content addressing.  Callables never cross
the boundary: a point names its host family / protocol / initialiser and
:mod:`repro.sweeps.runner` owns the mapping from names to code.

Seed policy
-----------
A point's ``seed`` tuple is fed verbatim to the engine as a
:class:`numpy.random.SeedSequence` entropy pool (the library-wide
convention from :mod:`repro.util.rng`).  Explicit seeds keep the rewired
harness experiments bit-identical to their pre-sweep loops; grids built
with :meth:`SweepSpec.grid` derive a per-point seed deterministically
from the root seed and the point's own content hash
(:func:`derive_point_seed`), so adding, removing, or reordering points
never shifts the randomness of their neighbours.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - type-only imports (cycle guard)
    from repro.core.protocols import Protocol
    from repro.graphs.base import Graph

__all__ = [
    "ADVERSARIAL_STRATEGIES",
    "PROTOCOL_KINDS",
    "HostSpec",
    "ProtocolSpec",
    "InitSpec",
    "Point",
    "SweepSpec",
    "canonical_point",
    "canonical_json",
    "point_from_canonical",
    "derive_point_seed",
    "host_vertex_count",
    "count_chain_width",
    "estimated_cost",
]

_SCALAR_TYPES = (str, int, float, bool)


def _freeze_param(value: Any) -> Any:
    """Normalise a host parameter into hashable, JSON-stable form."""
    if isinstance(value, _SCALAR_TYPES) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        frozen = tuple(_freeze_param(v) for v in value)
        if not all(isinstance(v, int) for v in frozen):
            raise TypeError(f"sequence params must be ints (seeds), got {value!r}")
        return frozen
    raise TypeError(f"unsupported host param type {type(value).__name__}: {value!r}")


def _thaw(value: Any) -> Any:
    """Tuples back to lists for JSON emission."""
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    return value


@dataclass(frozen=True)
class HostSpec:
    """A host graph named by family + constructor parameters.

    ``params`` is a sorted tuple of ``(name, value)`` pairs so the spec
    is hashable and canonicalises deterministically.  Use
    :meth:`HostSpec.of` rather than the raw constructor.
    """

    family: str
    params: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def of(cls, family: str, **params: Any) -> "HostSpec":
        frozen = tuple(
            sorted((k, _freeze_param(v)) for k, v in params.items())
        )
        return cls(family=family, params=frozen)

    def param_dict(self) -> dict[str, Any]:
        return dict(self.params)

    def build(self) -> "Graph":
        """Construct the host graph (delegates to the runner registry)."""
        from repro.sweeps.runner import build_host

        return build_host(self)


PROTOCOL_KINDS = (
    "best_of_k",
    "noisy_best_of_k",
    "async_vs_sync",
    "zealot_best_of_k",
)


@dataclass(frozen=True)
class ProtocolSpec:
    """The dynamics at a point.

    Four kinds:

    * ``"best_of_k"`` — the paper's synchronous Best-of-``k`` with a tie
      rule (the ensemble-engine path);
    * ``"noisy_best_of_k"`` — ε-noisy Best-of-3 (E13): with probability
      ``eta`` a vertex adopts a coin flip instead of the sample majority;
    * ``"async_vs_sync"`` — the E14 comparison: each trial runs one
      synchronous Best-of-``k`` chain *and* one asynchronous sweep chain
      from the same initial configuration;
    * ``"zealot_best_of_k"`` — Best-of-3 with ``zealots`` pinned-blue
      vertices (E15).

    ``eta`` / ``zealots`` are only meaningful (and only allowed) for
    their respective kinds, so a point cannot silently carry a parameter
    its dynamics would ignore.  Every kind takes a general ``k`` (the
    historical k=3-only restriction on the noisy/zealot runners is
    gone); :meth:`build` turns the spec into the
    :class:`repro.core.protocols.Protocol` object the ensemble engine
    executes.
    """

    kind: str = "best_of_k"
    k: int = 3
    tie_rule: str = "keep_self"  # TieRule value ("keep_self" | "random")
    eta: float | None = None
    zealots: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in PROTOCOL_KINDS:
            raise ValueError(f"unknown protocol kind {self.kind!r}")
        if self.k < 1:
            raise ValueError(f"protocol needs k >= 1, got {self.k}")
        if self.tie_rule not in ("keep_self", "random"):
            raise ValueError(f"unknown tie rule {self.tie_rule!r}")
        if self.kind == "noisy_best_of_k":
            if self.eta is None or not 0.0 <= self.eta <= 1.0:
                raise ValueError(
                    f"noisy_best_of_k needs eta in [0, 1], got {self.eta}"
                )
        elif self.eta is not None:
            raise ValueError(f"eta is not a parameter of {self.kind!r}")
        if self.kind == "zealot_best_of_k":
            if self.zealots is None or self.zealots < 0:
                raise ValueError(
                    f"zealot_best_of_k needs zealots >= 0, got {self.zealots}"
                )
        elif self.zealots is not None:
            raise ValueError(f"zealots is not a parameter of {self.kind!r}")

    @classmethod
    def best_of(cls, k: int, *, tie_rule: str = "keep_self") -> "ProtocolSpec":
        return cls(kind="best_of_k", k=k, tie_rule=tie_rule)

    @classmethod
    def noisy(cls, eta: float, *, k: int = 3) -> "ProtocolSpec":
        return cls(kind="noisy_best_of_k", k=k, eta=float(eta))

    @classmethod
    def async_vs_sync(cls, *, k: int = 3) -> "ProtocolSpec":
        return cls(kind="async_vs_sync", k=k)

    @classmethod
    def with_zealots(cls, zealots: int, *, k: int = 3) -> "ProtocolSpec":
        return cls(kind="zealot_best_of_k", k=k, zealots=int(zealots))

    @classmethod
    def parse(cls, name: str) -> "ProtocolSpec":
        """Parse a human-facing protocol name into a spec.

        The grammar shared by the ``repro sweep`` CLI and the service's
        request layer: ``voter`` (Best-of-1), ``best-of-K``,
        ``best-of-K-keep``, ``best-of-K-rand``.  Richer kinds (noisy,
        zealot, paired async) have no short name — declare them as
        structured protocol objects instead.
        """
        if name == "voter":
            return cls.best_of(1)
        parts = name.split("-")
        # best-of-K, best-of-K-keep, best-of-K-rand
        if len(parts) in (3, 4) and parts[:2] == ["best", "of"] and parts[2].isdigit():
            k = int(parts[2])
            tie = "keep_self"
            if len(parts) == 4:
                if parts[3] not in ("keep", "rand"):
                    raise ValueError(f"unknown tie-rule suffix in {name!r}")
                tie = "keep_self" if parts[3] == "keep" else "random"
            return cls.best_of(k, tie_rule=tie)
        raise ValueError(
            f"cannot parse protocol {name!r} (try voter, best-of-3, "
            "best-of-2-rand)"
        )

    def build(self) -> "Protocol | dict[str, Protocol]":
        """The executable :class:`repro.core.protocols.Protocol` of this spec.

        ``async_vs_sync`` builds a *paired* mapping of protocols —
        ``{"sync": BestOfK, "async": AsyncSweepBestOfK}`` — which the
        runner executes from shared initial configurations.  This is the
        single point where declarative protocol data meets code: the
        runner holds no per-kind executors (DESIGN.md §2.6).
        """
        from repro.core.dynamics import TieRule
        from repro.core.protocols import (
            AsyncSweepBestOfK,
            BestOfK,
            NoisyBestOfK,
            ZealotBestOfK,
        )

        tie = TieRule(self.tie_rule)
        if self.kind == "best_of_k":
            return BestOfK(self.k, tie_rule=tie)
        if self.kind == "noisy_best_of_k":
            assert self.eta is not None  # __post_init__ guarantees it
            return NoisyBestOfK(self.eta, k=self.k, tie_rule=tie)
        if self.kind == "zealot_best_of_k":
            assert self.zealots is not None  # __post_init__ guarantees it
            return ZealotBestOfK(self.zealots, k=self.k, tie_rule=tie)
        if self.kind == "async_vs_sync":
            return {
                "sync": BestOfK(self.k, tie_rule=tie),
                "async": AsyncSweepBestOfK(self.k),
            }
        raise ValueError(  # pragma: no cover - __post_init__ validates
            f"unknown protocol kind {self.kind!r}"
        )


ADVERSARIAL_STRATEGIES = ("high_degree", "low_degree", "block", "cluster")


@dataclass(frozen=True)
class InitSpec:
    """Initial opinions: i.i.d. bias, an exact count, or adversarial.

    ``"adversarial"`` places exactly ``blue`` blue opinions with one of
    the :data:`ADVERSARIAL_STRATEGIES` (E12's contrast with the paper's
    i.i.d. hypothesis); the placement is computed on the point's host
    graph by :func:`repro.core.opinions.adversarial_opinions`.
    """

    kind: str  # "iid_delta" | "exact_count" | "adversarial"
    delta: float | None = None
    blue: int | None = None
    strategy: str | None = None

    def __post_init__(self) -> None:
        if self.kind == "iid_delta":
            if self.delta is None or self.blue is not None:
                raise ValueError("iid_delta init needs delta (and no blue)")
            if not 0.0 <= self.delta <= 0.5:
                # Same domain as repro.core.opinions.random_opinions —
                # fail at declaration time, not mid-sweep in a worker.
                raise ValueError(f"delta must be in [0, 0.5], got {self.delta}")
        elif self.kind == "exact_count":
            if self.blue is None or self.delta is not None:
                raise ValueError("exact_count init needs blue (and no delta)")
            if self.blue < 0:
                raise ValueError(f"blue count must be >= 0, got {self.blue}")
        elif self.kind == "adversarial":
            if self.blue is None or self.delta is not None:
                raise ValueError("adversarial init needs blue (and no delta)")
            if self.blue < 0:
                raise ValueError(f"blue count must be >= 0, got {self.blue}")
            if self.strategy not in ADVERSARIAL_STRATEGIES:
                raise ValueError(
                    f"unknown adversarial strategy {self.strategy!r}; known: "
                    f"{', '.join(ADVERSARIAL_STRATEGIES)}"
                )
        else:
            raise ValueError(f"unknown init kind {self.kind!r}")
        if self.kind != "adversarial" and self.strategy is not None:
            raise ValueError(f"strategy is not a parameter of {self.kind!r}")

    @classmethod
    def iid(cls, delta: float) -> "InitSpec":
        return cls(kind="iid_delta", delta=float(delta))

    @classmethod
    def count(cls, blue: int) -> "InitSpec":
        return cls(kind="exact_count", blue=int(blue))

    @classmethod
    def adversarial(cls, blue: int, strategy: str) -> "InitSpec":
        return cls(kind="adversarial", blue=int(blue), strategy=strategy)


@dataclass(frozen=True)
class Point:
    """One fully-described ensemble simulation.

    ``label`` is presentation-only and deliberately excluded from the
    canonical form — renaming a point must not invalidate its cache
    entry or change its derived seed.

    ``spawn_base`` offsets the point's random streams: protocols that
    consume per-trial sibling streams (the extension runners in
    :mod:`repro.sweeps.runner`) draw stream ``j`` from
    ``SeedSequence(seed, spawn_key=(spawn_base + j,))``.  A harness
    whose historical loop carved one shared spawn fan-out into
    per-point slices (E13's ``spawn_generators(seed, 2·len(etas))``)
    declares each slice via its offset, keeping the rewired tables
    byte-identical.  It is part of the canonical content only when
    non-zero, so pre-existing points keep their keys and derived seeds.
    """

    host: HostSpec
    protocol: ProtocolSpec
    init: InitSpec
    trials: int
    max_steps: int
    seed: tuple[int, ...]
    label: str = ""
    spawn_base: int = 0

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.spawn_base < 0:
            raise ValueError(f"spawn_base must be >= 0, got {self.spawn_base}")
        seed = (self.seed,) if isinstance(self.seed, int) else self.seed
        object.__setattr__(self, "seed", tuple(int(s) for s in seed))


def canonical_point(point: Point) -> dict[str, Any]:
    """The content of *point* as a nested, JSON-native dict (no label).

    Optional fields (``eta``, ``zealots``, ``strategy``, ``spawn_base``)
    appear only when set, so points that predate them canonicalise to
    exactly the bytes they always did — their cache keys and
    grid-derived seeds are stable across this schema's growth.
    """
    init: dict[str, Any] = {"kind": point.init.kind}
    if point.init.delta is not None:
        init["delta"] = point.init.delta
    if point.init.blue is not None:
        init["blue"] = point.init.blue
    if point.init.strategy is not None:
        init["strategy"] = point.init.strategy
    protocol: dict[str, Any] = {
        "kind": point.protocol.kind,
        "k": point.protocol.k,
        "tie_rule": point.protocol.tie_rule,
    }
    if point.protocol.eta is not None:
        protocol["eta"] = point.protocol.eta
    if point.protocol.zealots is not None:
        protocol["zealots"] = point.protocol.zealots
    content: dict[str, Any] = {
        "host": {
            "family": point.host.family,
            "params": {k: _thaw(v) for k, v in point.host.params},
        },
        "protocol": protocol,
        "init": init,
        "trials": point.trials,
        "max_steps": point.max_steps,
        "seed": list(point.seed),
    }
    if point.spawn_base:
        content["spawn_base"] = point.spawn_base
    return content


def point_from_canonical(
    content: Mapping[str, Any], *, label: str = ""
) -> Point:
    """Rebuild a :class:`Point` from its :func:`canonical_point` form.

    The inverse that lets a point cross a durable boundary (the sweep
    work queue, a remote worker) as plain JSON instead of a pickle:
    ``point_from_canonical(canonical_point(p))`` canonicalises back to
    exactly the same bytes, so the round trip preserves cache keys and
    derived seeds.  *label* is presentation-only and travels separately
    (it is excluded from the canonical form by design).
    """
    proto = content["protocol"]
    init = content["init"]
    return Point(
        host=HostSpec.of(content["host"]["family"], **content["host"]["params"]),
        protocol=ProtocolSpec(
            kind=proto["kind"],
            k=proto["k"],
            tie_rule=proto["tie_rule"],
            eta=proto.get("eta"),
            zealots=proto.get("zealots"),
        ),
        init=InitSpec(
            kind=init["kind"],
            delta=init.get("delta"),
            blue=init.get("blue"),
            strategy=init.get("strategy"),
        ),
        trials=int(content["trials"]),
        max_steps=int(content["max_steps"]),
        seed=tuple(content["seed"]),
        label=label,
        spawn_base=int(content.get("spawn_base", 0)),
    )


def canonical_json(payload: Mapping[str, Any]) -> str:
    """Canonical JSON: sorted keys, no whitespace — the hashing form."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def derive_point_seed(root: int | Sequence[int], point: Point) -> tuple[int, ...]:
    """Deterministic per-point seed tuple from a sweep root seed.

    Hashes the point's canonical content *without* its seed field and
    appends four 32-bit words of the digest to the root entropy.  Two
    distinct points therefore get statistically independent streams, and
    a point's stream is invariant to its position in the grid.
    """
    content = canonical_point(point)
    del content["seed"]
    digest = hashlib.sha256(canonical_json(content).encode("ascii")).digest()
    words = tuple(
        int.from_bytes(digest[4 * i : 4 * i + 4], "big") for i in range(4)
    )
    root_tuple = (root,) if isinstance(root, int) else tuple(int(r) for r in root)
    return root_tuple + words


def host_vertex_count(host: HostSpec) -> int:
    """Vertex count of *host* read off its parameters (no construction).

    Used by the scheduler's cost model; families whose size is not
    derivable from the declared parameters fall back to the ``n`` param
    (or 1), which only degrades the *ordering* heuristic, never
    correctness.
    """
    params = host.param_dict()
    family = host.family
    if family == "rook":
        return int(params["side"]) ** 2
    if family == "two_clique_bridge":
        return 2 * int(params["half"])
    if family == "star_polluted":
        return int(params["core"]) + int(params["pendants"])
    if family == "complete_multipartite":
        return int(sum(params["sizes"]))
    return int(params.get("n", 1))


_COUNT_CHAIN_PROTOCOLS = ("best_of_k", "noisy_best_of_k", "zealot_best_of_k")
"""Protocol kinds with an exact count-chain transition on kernel hosts.

Mirrors :meth:`repro.core.protocols.Protocol.supports_kernel` for the
declared kinds (``async_vs_sync`` pairs a dense sweep chain, so it never
chain-routes).  Kept as declared data so the cost model below needs no
host or protocol construction.
"""

_PROTOCOL_COST_FACTORS = {
    "best_of_k": 1,
    "zealot_best_of_k": 1,
    # Noisy rounds mix an extra binomial draw per slot (chain path) or an
    # extra length-n coin-flip pass (dense path) into every transition.
    "noisy_best_of_k": 2,
    # Paired comparison: one synchronous chain AND one asynchronous sweep
    # chain per trial, always on the dense path.
    "async_vs_sync": 2,
}


def count_chain_width(host: HostSpec) -> int | None:
    """Slot count of *host*'s exact count-chain kernel, or ``None``.

    Read off the declared parameters (no graph construction), mirroring
    :meth:`repro.graphs.Graph.count_chain_kernel` routing: complete
    hosts run a 1-slot chain, complete multipartite hosts one slot per
    part, and the two-clique bridge two clique slots plus one per bridge
    endpoint.  ``None`` means the dense per-vertex path.
    """
    params = host.param_dict()
    family = host.family
    if family == "complete":
        return 1
    if family == "complete_multipartite":
        return len(tuple(params["sizes"]))
    if family == "two_clique_bridge":
        return 2 + 2 * int(params.get("bridges", 1))
    return None


def estimated_cost(point: Point) -> int:
    """Protocol-aware scheduling cost estimate of one point.

    Per-round work times ``trials · max_steps``: dense-path points pay
    ``n`` per round per trial, count-chain-routed points (kernel host ×
    chain-capable protocol) pay only their kernel's slot count, and the
    protocol kind contributes a constant factor (noisy mixing, paired
    async chains).  Still a deliberately crude upper bound — most
    ensembles absorb long before ``max_steps`` — but it is monotone in
    every axis that can make a point a straggler *and* no longer ranks a
    mega-n chain point above a modest dense one, which keeps
    largest-first submission order (and the job queue's ETAs) truthful
    for noisy/zealot/paired points.
    """
    kind = point.protocol.kind
    width = None
    if kind in _COUNT_CHAIN_PROTOCOLS:
        width = count_chain_width(point.host)
    per_round = width if width is not None else host_vertex_count(point.host)
    factor = _PROTOCOL_COST_FACTORS.get(kind, 1)
    return per_round * factor * point.trials * point.max_steps


@dataclass(frozen=True)
class SweepSpec:
    """A named, ordered collection of points (the declarative grid)."""

    name: str
    points: tuple[Point, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))

    def __len__(self) -> int:
        return len(self.points)

    @classmethod
    def grid(
        cls,
        name: str,
        *,
        hosts: Iterable[HostSpec],
        protocols: Iterable[ProtocolSpec],
        inits: Iterable[InitSpec],
        trials: int,
        max_steps: int,
        seed: int | Sequence[int] = 0,
    ) -> "SweepSpec":
        """Cartesian product ``hosts × protocols × inits`` with derived seeds.

        Each point's seed comes from :func:`derive_point_seed`, so the
        grid can be filtered or extended without perturbing the
        randomness of the surviving points.  Duplicate axis values are
        deduplicated: content-identical points carry identical derived
        seeds, so a repeat would re-simulate the exact same ensemble and
        masquerade as an independent replicate in the results.
        """
        points: list[Point] = []
        seen: set[str] = set()
        for host, protocol, init in itertools.product(hosts, protocols, inits):
            draft = Point(
                host=host,
                protocol=protocol,
                init=init,
                trials=trials,
                max_steps=max_steps,
                seed=(),
                label="",
            )
            bits = [host.family]
            bits += [
                f"{name}={value}"
                for name, value in host.params
                if name != "seed"  # sizes/degrees identify the host; seeds don't
            ]
            bits.append(f"k={protocol.k}/{protocol.tie_rule}")
            bits.append(
                f"delta={init.delta}" if init.kind == "iid_delta" else f"B0={init.blue}"
            )
            point = dataclasses.replace(
                draft,
                seed=derive_point_seed(seed, draft),
                label=" ".join(bits),
            )
            content = canonical_json(canonical_point(point))
            if content not in seen:
                seen.add(content)
                points.append(point)
        return cls(name=name, points=tuple(points))
