"""Multi-replica fleet serving: cluster simulation with cache-aware routing.

The paper's serving section (§2.3) is about *clusters*, not engines:
Mooncake [55] routes requests to the replica whose KV cache already holds
their prefix, DistServe [69] sheds load to protect goodput, and both scale
replica counts with demand.  This module lifts the repository's
single-engine simulator to that level, twice over:

* :class:`EngineFleet` — N real :class:`~repro.inference.scheduler.
  ServingEngine` replicas driven through :meth:`ServingEngine.step` behind
  a pluggable :class:`~repro.inference.router.Router`.  Token-level
  fidelity: a fleet of one replica follows a **bit-identical** trajectory
  to a bare engine (the metamorphic anchor in ``tests/test_fleet.py``).
* :class:`ClusterFleet` — a request-granular fleet model for *scale*:
  each request is one service interval (prefill + decode from the replica
  model's closed-form latency), which keeps the event count at O(1) per
  request and makes million-request router studies tractable.

Both understand :data:`~repro.faults.REPLICA_DEATH` faults (whole-replica
loss: queue re-routed, in-flight work retried with backoff on survivors)
and queue-depth-driven autoscaling (:class:`AutoscalePolicy`).

``ClusterFleet.run`` is the perf_opt core.  The naive fleet DES
(``benchmarks/perf/_legacy_fleet.py``, frozen) keeps one global event heap
holding every future arrival, finish, and tick — pops cost O(log n) over
millions of entries, replica deaths leave stale finish records that need
epoch-tag lazy invalidation, and router metrics are recomputed by scanning
per-replica Python objects.  The optimized loop shards the heap: arrivals
stay an index into the sorted workload columns, each replica keeps its own
small finish heap (bounded by its concurrency ``slots``), and the next
event emerges from a top-of-heap tournament over the per-replica minima —
a death simply discards one replica's heap, no tombstones.  The three
built-in policies run inline against incrementally maintained packed
integer load keys (an O(R) membership rebuild only on the rare death /
spawn / drain events): the least-loaded argmin is a peek into a lazily
invalidated ``(key, replica)`` heap, O(log R) amortized instead of an
O(R) scan, random routing consumes buffered uniform draws, and
prefix-aware routing scans per-prefix *holder lists* — only the
replicas that actually cache a prefix — instead of the whole fleet.
Custom routers still see the NumPy-column
:class:`~repro.inference.router.RouterState` contract.
Golden parity with the frozen baseline is bitwise (``FleetResult.
equals``), exactly as PR 1/PR 4 pinned the single-engine and prep
kernels.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from math import log
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError, SchedulerError
from ..faults import REPLICA_DEATH, FaultEvent, FaultPlan, RetryPolicy
from ..utils import derive_rng, percentile
from .request import SLO, Request
from .router import Router, RouterState, load_heap_peek, load_heap_push
from .scheduler import STEP_IDLE, ServingEngine

if TYPE_CHECKING:  # pools imports fleet; the reverse edge is lazy
    from .pools import PoolSpec

_INF = float("inf")


# ============================================================== workloads
@dataclass(frozen=True)
class FleetWorkload:
    """A fleet-scale request trace in structure-of-arrays form.

    One float64/int64 column per field instead of per-request objects:
    million-request traces stay cheap to generate, slice, and feed to the
    vectorized fleet loop.  ``prefix_code`` is an integer prefix family id
    (``-1`` = no shared prefix) and ``prefix_tokens`` the shared length —
    the columnar analogue of :attr:`Request.prefix_id`.
    """

    arrival_s: np.ndarray
    prompt_tokens: np.ndarray
    output_tokens: np.ndarray
    prefix_code: np.ndarray
    prefix_tokens: np.ndarray

    def __post_init__(self) -> None:
        n = self.arrival_s.shape[0]
        for name in ("prompt_tokens", "output_tokens", "prefix_code", "prefix_tokens"):
            if getattr(self, name).shape[0] != n:
                raise ConfigError(f"workload column {name!r} length mismatch")
        # NaN passes the sortedness test below and inf sorts last; either
        # would stall the DES loops, so reject them here.
        if n and not bool(np.isfinite(self.arrival_s).all()):
            raise ConfigError("arrival_s must be finite")
        if n and bool(np.any(self.arrival_s[1:] < self.arrival_s[:-1])):
            raise ConfigError("arrival_s must be sorted non-decreasing")
        if n and (int(self.prompt_tokens.min()) < 1 or int(self.output_tokens.min()) < 1):
            raise ConfigError("prompt/output token counts must be >= 1")

    @property
    def n(self) -> int:
        """Number of requests in the trace."""
        return int(self.arrival_s.shape[0])

    def head(self, count: int) -> "FleetWorkload":
        """The first ``count`` requests (for smoke-scale runs)."""
        return FleetWorkload(
            arrival_s=self.arrival_s[:count],
            prompt_tokens=self.prompt_tokens[:count],
            output_tokens=self.output_tokens[:count],
            prefix_code=self.prefix_code[:count],
            prefix_tokens=self.prefix_tokens[:count],
        )

    def to_requests(self) -> List[Request]:
        """Materialize :class:`Request` objects (for :class:`EngineFleet`)."""
        out: List[Request] = []
        for i in range(self.n):
            code = int(self.prefix_code[i])
            out.append(
                Request(
                    request_id=f"req-{i:07d}",
                    arrival_s=float(self.arrival_s[i]),
                    prompt_tokens=int(self.prompt_tokens[i]),
                    output_tokens=int(self.output_tokens[i]),
                    prefix_id=None if code < 0 else f"prefix-{code}",
                    prefix_tokens=0 if code < 0 else int(self.prefix_tokens[i]),
                )
            )
        return out


def fleet_poisson_workload(
    num_requests: int,
    *,
    rate_rps: float = 100.0,
    prompt_mean: int = 512,
    prompt_sigma: float = 0.5,
    output_mean: int = 64,
    output_sigma: float = 0.6,
    max_tokens: int = 8192,
    num_prefixes: int = 0,
    prefix_tokens: int = 512,
    prefix_fraction: float = 0.0,
    seed: int = 0,
) -> FleetWorkload:
    """Draw a Poisson-arrival trace with lognormal lengths, fully vectorized.

    A ``prefix_fraction`` share of requests carry one of ``num_prefixes``
    shared system prompts of ``prefix_tokens`` tokens prepended to their
    unique part — the workload shape under which prefix-aware routing pays
    (Mooncake's production traces).  All randomness flows through
    ``derive_rng(seed, "fleet", "workload")``.
    """
    if num_requests <= 0:
        raise ConfigError("num_requests must be positive")
    if rate_rps <= 0.0:
        raise ConfigError("rate_rps must be positive")
    if not 0.0 <= prefix_fraction <= 1.0:
        raise ConfigError("prefix_fraction must be in [0, 1]")
    if prefix_fraction > 0.0 and num_prefixes <= 0:
        raise ConfigError("prefix_fraction > 0 needs num_prefixes > 0")
    rng = derive_rng(seed, "fleet", "workload")
    arrival = np.cumsum(rng.exponential(1.0 / rate_rps, num_requests))
    prompts = np.clip(
        np.rint(np.exp(rng.normal(log(float(prompt_mean)), prompt_sigma, num_requests))),
        1,
        max_tokens,
    ).astype(np.int64)
    outputs = np.clip(
        np.rint(np.exp(rng.normal(log(float(output_mean)), output_sigma, num_requests))),
        1,
        max_tokens,
    ).astype(np.int64)
    codes = np.full(num_requests, -1, dtype=np.int64)
    ptoks = np.zeros(num_requests, dtype=np.int64)
    if prefix_fraction > 0.0:
        shared = rng.random(num_requests) < prefix_fraction
        drawn = rng.integers(0, num_prefixes, num_requests, dtype=np.int64)
        codes = np.where(shared, drawn, codes)
        ptoks = np.where(shared, np.int64(prefix_tokens), ptoks)
        prompts = prompts + ptoks
    return FleetWorkload(
        arrival_s=arrival,
        prompt_tokens=prompts,
        output_tokens=outputs,
        prefix_code=codes,
        prefix_tokens=ptoks,
    )


# ================================================================= config
@dataclass(frozen=True)
class ReplicaModel:
    """Closed-form per-replica service model for :class:`ClusterFleet`.

    A replica serves up to ``slots`` requests concurrently within
    ``kv_capacity_tokens`` of KV budget (a request reserves
    ``prompt + output`` tokens for its lifetime).  Service time is the
    single-engine :class:`~repro.inference.scheduler.IterationCost` shape
    collapsed to one interval per request: prefill pays the compute-bound
    token cost once (minus block-rounded prefix hits), then each output
    token streams at ``per_output_token_s``.
    """

    slots: int = 64
    kv_capacity_tokens: int = 262_144
    base_s: float = 0.006
    per_prefill_token_s: float = 0.00011
    per_output_token_s: float = 0.0095
    block_tokens: int = 64

    def __post_init__(self) -> None:
        if self.slots <= 0:
            raise ConfigError("slots must be positive")
        if self.kv_capacity_tokens <= 0:
            raise ConfigError("kv_capacity_tokens must be positive")
        # Chained comparisons reject NaN and inf as well as non-positives.
        if not (0.0 < self.base_s < _INF and 0.0 < self.per_prefill_token_s < _INF):
            raise ConfigError("latency coefficients must be positive and finite")
        if not 0.0 < self.per_output_token_s < _INF:
            raise ConfigError("per_output_token_s must be positive and finite")
        if self.block_tokens <= 0:
            raise ConfigError("block_tokens must be positive")


@dataclass(frozen=True)
class AutoscalePolicy:
    """Queue-depth-driven replica scaling.

    Every ``interval_s`` of simulated time the fleet compares mean queued
    requests per routable replica against the watermarks: above
    ``high_queue_per_replica`` a new replica spawns after ``spawn_delay_s``
    (model load + warmup); below ``low_queue_per_replica`` the
    highest-indexed replica drains (stops taking traffic, finishes its
    backlog, then retires).
    """

    min_replicas: int = 1
    max_replicas: int = 8
    high_queue_per_replica: float = 8.0
    low_queue_per_replica: float = 1.0
    interval_s: float = 5.0
    spawn_delay_s: float = 10.0

    def __post_init__(self) -> None:
        if self.min_replicas <= 0 or self.max_replicas < self.min_replicas:
            raise ConfigError("need 0 < min_replicas <= max_replicas")
        # Chained comparisons: a NaN watermark would silently disable scaling.
        if not 0.0 <= self.low_queue_per_replica < self.high_queue_per_replica < _INF:
            raise ConfigError("need 0 <= low watermark < high watermark, both finite")
        if not (0.0 < self.interval_s < _INF and 0.0 <= self.spawn_delay_s < _INF):
            raise ConfigError("interval_s must be positive, spawn_delay_s >= 0, both finite")


# ================================================================ results
@dataclass
class FleetResult:
    """Per-request outcome columns plus fleet counters from a cluster run.

    The trailing block only fills on disaggregated runs
    (:mod:`repro.inference.pools`): which decode replica served each
    request, when its decode admission happened, and the pool-level
    counters (KV handoffs, migrations, re-prefills).  Plain colocated
    runs leave the arrays ``None`` and the counters 0.
    """

    replica: np.ndarray
    start_s: np.ndarray
    first_token_s: np.ndarray
    finish_s: np.ndarray
    retries: np.ndarray
    rejected: np.ndarray
    prefix_hit_tokens: np.ndarray
    completed: int
    rejected_total: int
    deaths: int
    spawns: int
    drains: int
    reroutes: int
    served_per_replica: np.ndarray
    sim_end_s: float
    decode_replica: Optional[np.ndarray] = None
    decode_start_s: Optional[np.ndarray] = None
    handoffs: int = 0
    migrations: int = 0
    shipped_migrations: int = 0
    reprefills: int = 0

    def equals(self, other: "FleetResult") -> bool:
        """Bitwise parity: every column and counter identical.

        The optional decode columns are compared when both sides carry
        them (every pool-DES parity case does); a plain run's ``None``
        against a pool run's array is not a comparison the parity suite
        makes, so it is treated as "no shared column to compare".
        """

        def opt_eq(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> bool:
            if a is None or b is None:
                return True
            return np.array_equal(a, b, equal_nan=np.issubdtype(a.dtype, np.floating))

        return (
            np.array_equal(self.replica, other.replica)
            and np.array_equal(self.start_s, other.start_s, equal_nan=True)
            and np.array_equal(self.first_token_s, other.first_token_s, equal_nan=True)
            and np.array_equal(self.finish_s, other.finish_s, equal_nan=True)
            and np.array_equal(self.retries, other.retries)
            and np.array_equal(self.rejected, other.rejected)
            and np.array_equal(self.prefix_hit_tokens, other.prefix_hit_tokens)
            and np.array_equal(self.served_per_replica, other.served_per_replica)
            and opt_eq(self.decode_replica, other.decode_replica)
            and opt_eq(self.decode_start_s, other.decode_start_s)
            and self.completed == other.completed
            and self.rejected_total == other.rejected_total
            and self.deaths == other.deaths
            and self.spawns == other.spawns
            and self.drains == other.drains
            and self.reroutes == other.reroutes
            and self.handoffs == other.handoffs
            and self.migrations == other.migrations
            and self.shipped_migrations == other.shipped_migrations
            and self.reprefills == other.reprefills
            and self.sim_end_s == other.sim_end_s
        )


@dataclass
class FleetReport:
    """Router-policy comparison row: tails, throughput, shedding, balance."""

    policy: str
    requests: int
    completed: int
    rejected: int
    shed_rate: float
    throughput_rps: float
    ttft_p50: float
    ttft_p95: float
    ttft_p99: float
    latency_p50: float
    latency_p99: float
    prefix_hit_rate: float
    mean_retries: float
    imbalance: float
    deaths: int
    spawns: int
    drains: int
    sim_end_s: float

    def row(self) -> Dict[str, float]:
        """Flat dict for table rendering / BENCH JSON."""
        return {
            "completed": self.completed,
            "shed_rate": round(self.shed_rate, 4),
            "throughput_rps": round(self.throughput_rps, 2),
            "ttft_p50_s": round(self.ttft_p50, 4),
            "ttft_p95_s": round(self.ttft_p95, 4),
            "ttft_p99_s": round(self.ttft_p99, 4),
            "latency_p99_s": round(self.latency_p99, 4),
            "prefix_hit_rate": round(self.prefix_hit_rate, 4),
            "imbalance": round(self.imbalance, 3),
        }


def summarize_fleet(
    workload: FleetWorkload, result: FleetResult, *, policy: str = ""
) -> FleetReport:
    """Aggregate a :class:`FleetResult` into a policy-comparison row."""
    done = np.logical_and(~result.rejected, np.isfinite(result.finish_s))
    n_done = int(done.sum())
    if n_done == 0:
        raise SchedulerError("fleet run completed zero requests")
    ttft = result.first_token_s[done] - workload.arrival_s[done]
    latency = result.finish_s[done] - workload.arrival_s[done]
    span = float(result.finish_s[done].max() - workload.arrival_s.min())
    served = result.served_per_replica
    active = served[served > 0]
    mean_served = float(active.mean()) if active.shape[0] else 0.0
    imbalance = float(active.max()) / mean_served if mean_served > 0.0 else 0.0
    with_prefix = np.logical_and(done, workload.prefix_code >= 0)
    n_prefix = int(with_prefix.sum())
    hits = int(np.count_nonzero(result.prefix_hit_tokens[with_prefix]))
    return FleetReport(
        policy=policy,
        requests=workload.n,
        completed=n_done,
        rejected=result.rejected_total,
        shed_rate=result.rejected_total / workload.n,
        throughput_rps=n_done / span if span > 0.0 else 0.0,
        ttft_p50=percentile(ttft.tolist(), 50.0),
        ttft_p95=percentile(ttft.tolist(), 95.0),
        ttft_p99=percentile(ttft.tolist(), 99.0),
        latency_p50=percentile(latency.tolist(), 50.0),
        latency_p99=percentile(latency.tolist(), 99.0),
        prefix_hit_rate=hits / n_prefix if n_prefix else 0.0,
        mean_retries=float(result.retries.mean()),
        imbalance=imbalance,
        deaths=result.deaths,
        spawns=result.spawns,
        drains=result.drains,
        sim_end_s=result.sim_end_s,
    )


# ========================================================== cluster fleet
class ClusterFleet:
    """Request-granular fleet DES over sharded per-replica event heaps.

    Each replica owns a small finish heap (never larger than its ``slots``
    concurrency), the next finish comes from a tournament over the heap
    tops, and arrivals are consumed straight off the sorted workload
    columns — no global heap, no stale-event tombstones.  Event order is
    total and deterministic: at equal timestamps, death < spawn < finish <
    retry < arrival < autoscale tick, finishes tie-break on (replica,
    request), and the frozen naive baseline realizes the identical order
    through one global priority heap, which the parity suite exploits.

    Router decisions are batched out of the per-request path: the three
    built-in policies are specialized inline — the seeded-uniform stream
    is drawn in vectorized blocks, and the least-loaded / prefix-aware
    argmin reads a packed integer load key that admission and completion
    maintain *incrementally* (O(1) per state change, plus one O(log R)
    push into a lazily invalidated load heap) instead of being recomputed
    by scanning replicas per decision, which is what the naive baseline
    does.  A custom :class:`~repro.inference.router.Router`
    subclass still works: the fleet falls back to syncing the
    :class:`~repro.inference.router.RouterState` columns and calling
    ``route`` per request (correct, but off the fast path).
    """

    def __init__(
        self,
        n_replicas: int,
        router: Router,
        *,
        model: Optional[ReplicaModel] = None,
        faults: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        shed_slo: Optional[SLO] = None,
        autoscale: Optional[AutoscalePolicy] = None,
        pools: Optional["PoolSpec"] = None,
        decode_router: Optional[Router] = None,
    ) -> None:
        if n_replicas <= 0:
            raise ConfigError("n_replicas must be positive")
        if pools is not None and pools.total != n_replicas:
            raise ConfigError(
                f"pool spec covers {pools.total} replicas but n_replicas={n_replicas}"
            )
        if pools is None and decode_router is not None:
            raise ConfigError("decode_router needs a pool spec to route over")
        self.router = router
        self.model = model or ReplicaModel()
        self.retry = retry or RetryPolicy()
        self.shed_slo = shed_slo
        self.autoscale = autoscale
        self.pools = pools
        self.decode_router = decode_router
        self.n_replicas = n_replicas
        self.max_replicas = (
            max(n_replicas, autoscale.max_replicas) if autoscale else n_replicas
        )
        self._faults = faults
        self._deaths: List[FaultEvent] = (
            faults.of_kind(REPLICA_DEATH) if faults is not None else []
        )
        self.fault_log: List[FaultEvent] = []

    # The loop below is the optimized counterpart of
    # benchmarks/perf/_legacy_fleet.py:LegacyClusterFleet.run — any change
    # here must preserve bitwise FleetResult parity with that frozen code.
    def run(self, workload: FleetWorkload) -> FleetResult:
        """Simulate the trace to completion; returns per-request outcomes."""
        if self.pools is not None:
            from .pools import run_pool_fleet  # lazy: pools imports fleet

            return run_pool_fleet(self, workload)
        model = self.model
        n = workload.n
        need_l: List[int] = (workload.prompt_tokens + workload.output_tokens).tolist()
        need_max = max(need_l)
        if need_max > model.kv_capacity_tokens:
            raise ConfigError(
                "a request needs more KV than one replica holds "
                f"({need_max} > {model.kv_capacity_tokens})"
            )
        # Scalar-read copies of the workload columns: list indexing beats
        # ndarray scalar indexing by ~4x in the per-event hot path.
        arr_l: List[float] = workload.arrival_s.tolist()
        prompt_l: List[int] = workload.prompt_tokens.tolist()
        out_l: List[int] = workload.output_tokens.tolist()
        code_l: List[int] = workload.prefix_code.tolist()
        ptok_l: List[int] = workload.prefix_tokens.tolist()

        max_replicas = self.max_replicas
        state = RouterState(max_replicas, model.kv_capacity_tokens)
        state.routable[: self.n_replicas] = True
        state.rebuild_routable()
        router = self.router
        router.bind(state)
        # Policy specialization: the built-in routers run inline against
        # incrementally maintained integer keys (mode 0-2); anything else
        # goes through the generic column-sync path (mode 3).
        from .router import LeastLoadedRouter, PrefixAwareRouter, RandomRouter

        if type(router) is RandomRouter:
            mode = 0
            route_rng = derive_rng(router.seed, "fleet", "router")
        elif type(router) is LeastLoadedRouter:
            mode = 1
        elif type(router) is PrefixAwareRouter:
            mode = 2
        else:
            mode = 3

        huge = 1 << 62
        span = model.kv_capacity_tokens + 1
        alive = [True] * self.n_replicas + [False] * (max_replicas - self.n_replicas)
        draining = [False] * max_replicas
        routable_f = list(alive)
        routable_l = [r for r in range(max_replicas) if routable_f[r]]
        alive_count = self.n_replicas
        depth_l = [0] * max_replicas
        running_l = [0] * max_replicas
        kv_l = [0] * max_replicas
        key_l = [0 if routable_f[r] else huge for r in range(max_replicas)]
        # Least-loaded index over key_l (router.load_heap_peek), kept only
        # by the policies that read the argmin; unroutable replicas hold
        # ``huge``, which no heap entry carries.
        use_heap = mode == 1 or mode == 2
        kheap: List[Tuple[int, int]] = (
            [(0, r) for r in range(self.n_replicas)] if use_heap else []
        )
        # Prefix caches: code -> cached tokens per replica slot, plus a
        # per-code *holder list* (replicas with a non-zero cache entry) so
        # the prefix-aware scan touches only replicas that can possibly
        # hit — O(holders), not O(R), per decision.
        prefix_tab: Dict[int, List[int]] = {}
        holders: Dict[int, List[int]] = {}
        generic = mode == 3
        block_route = (
            router.block_tokens if isinstance(router, PrefixAwareRouter) else model.block_tokens
        )

        queues: List[Deque[int]] = [deque() for _ in range(max_replicas)]
        heaps: List[List[Tuple[float, int]]] = [[] for _ in range(max_replicas)]
        tops: List[float] = [_INF] * max_replicas
        # Tournament heap over per-replica top finishes: ``(top, replica)``
        # entries, lazily invalidated — an entry is live iff it still
        # equals ``tops[replica]``.  ``fin_min`` caches the live minimum.
        fheap: List[Tuple[float, int]] = []
        fin_min = _INF

        # first_token_s / finish_s are NOT tracked per event: both derive
        # exactly (same IEEE expression order as the loop's scalars) from
        # start_s and the hit column, so they are vectorized at the end.
        res_rep = [-1] * n
        res_start = [float("nan")] * n
        res_retry = [0] * n
        res_rej = [False] * n
        res_hit = [0] * n
        served = [0] * max_replicas
        completed = 0
        rejected = 0
        deaths = spawns = drains = reroutes = 0

        retry_heap: List[Tuple[float, int, int]] = []
        retry_seq = 0
        spawn_heap: List[float] = []
        death_list = self._deaths
        di = 0
        scale = self.autoscale
        tick = scale.interval_s if scale is not None else _INF
        shed = self.shed_slo
        # +inf sentinel: "t - arrival > shed_ttft" is then never true, so
        # the hot loop needs no separate shed-enabled test.
        shed_ttft = shed.ttft_s if shed is not None else _INF
        retry_policy = self.retry
        slots = model.slots
        kv_cap = model.kv_capacity_tokens
        base = model.base_s
        per_pf = model.per_prefill_token_s
        per_out = model.per_output_token_s
        block = model.block_tokens
        clock = 0.0
        ptr = 0
        rng_buf: List[float] = []
        rng_ptr = 0
        heappush = heapq.heappush
        heappop = heapq.heappop

        def try_start(r: int, t: float) -> None:
            nonlocal rejected, fin_min
            q = queues[r]
            top = tops[r]
            rt = routable_f[r]
            while q and running_l[r] < slots:
                i = q[0]
                if t - arr_l[i] > shed_ttft:
                    q.popleft()
                    depth_l[r] -= 1
                    if rt:
                        key_l[r] -= span
                    res_rej[i] = True
                    rejected += 1
                    continue
                need = need_l[i]
                if kv_l[r] + need > kv_cap:
                    break
                q.popleft()
                depth_l[r] -= 1
                running_l[r] += 1
                kv_l[r] += need
                if rt:
                    key_l[r] += need  # depth-1/running+1 cancel in the key
                hit = 0
                code = code_l[i]
                if code >= 0:
                    pt = ptok_l[i]
                    col = prefix_tab.get(code)
                    if col is None:
                        col = [0] * max_replicas
                        col[r] = pt
                        prefix_tab[code] = col
                        if pt > 0:
                            holders[code] = [r]
                        if generic:
                            state.record_prefix(code, r, pt)
                    else:
                        cached = col[r]
                        m = cached if cached < pt else pt
                        hit = m - m % block
                        if pt > cached:
                            col[r] = pt
                            if cached == 0:
                                holders.setdefault(code, []).append(r)
                            if generic:
                                state.record_prefix(code, r, pt)
                eff = prompt_l[i] - hit
                if eff < 1:
                    eff = 1
                first = t + (base + eff * per_pf)
                fin = first + (out_l[i] - 1) * per_out
                res_rep[i] = r
                res_start[i] = t
                res_hit[i] = hit
                heappush(heaps[r], (fin, i))
                if fin < top:
                    top = fin
            if top != tops[r]:  # tops only ever drop inside try_start
                tops[r] = top
                heappush(fheap, (top, r))
                if top < fin_min:
                    fin_min = top

        def route_to(i: int, t: float) -> None:
            nonlocal rng_buf, rng_ptr
            if not routable_l:
                raise SchedulerError("no routable replicas")
            if mode == 0:
                if rng_ptr >= len(rng_buf):
                    rng_buf = route_rng.random(8192).tolist()
                    rng_ptr = 0
                u = rng_buf[rng_ptr]
                rng_ptr += 1
                k = len(routable_l)
                j = int(u * k)
                if j >= k:
                    j = k - 1
                r = routable_l[j]
            elif mode == 1:
                r = load_heap_peek(kheap, key_l)
            elif mode == 2:
                r = -1
                code = code_l[i]
                pt = ptok_l[i]
                if code >= 0 and pt > 0:
                    hl = holders.get(code)
                    if hl is not None:
                        # Only holders can hit; pick by lexicographic
                        # (-hit, load key, index) — identical to the
                        # ascending-index two-pass scan of the baseline.
                        col = prefix_tab[code]
                        best = 0
                        bk = 0
                        for r2 in hl:
                            if not routable_f[r2]:
                                continue
                            c = col[r2]
                            m = c if c < pt else pt
                            h = m - m % block_route
                            if h <= 0:
                                continue
                            if h > best:
                                best = h
                                bk = key_l[r2]
                                r = r2
                            elif h == best:
                                k2 = key_l[r2]
                                if k2 < bk or (k2 == bk and r2 < r):
                                    bk = k2
                                    r = r2
                if r < 0:  # no prefix, or no routable replica caches it
                    r = load_heap_peek(kheap, key_l)
            else:
                state.queue_depth[:] = depth_l
                state.running[:] = running_l
                state.kv_used[:] = kv_l
                r = router.route(code_l[i], ptok_l[i])
            queues[r].append(i)
            depth_l[r] += 1
            if routable_f[r]:
                key_l[r] += span
            if running_l[r] < slots:
                try_start(r, t)
            if use_heap:  # modes 1-2 only ever pick routable replicas
                load_heap_push(kheap, key_l, r, routable_l)

        def membership_changed() -> None:
            nonlocal routable_l
            routable_l = [r for r in range(max_replicas) if routable_f[r]]
            state.rebuild_routable()
            router.on_membership_change()

        def drop_prefixes(r: int) -> None:
            for code, col in prefix_tab.items():
                if col[r]:
                    col[r] = 0
                    holders[code].remove(r)

        def retire(r: int) -> None:
            nonlocal alive_count, drains
            alive[r] = False
            draining[r] = False
            alive_count -= 1
            drains += 1
            depth_l[r] = 0
            running_l[r] = 0
            kv_l[r] = 0
            drop_prefixes(r)
            state.reset_counters(r)
            state.clear_replica(r)

        while completed + rejected < n:
            t_death = death_list[di].at_s if di < len(death_list) else _INF
            t_spawn = spawn_heap[0] if spawn_heap else _INF
            t_retry = retry_heap[0][0] if retry_heap else _INF
            t_tick = tick
            t_rare_hi = t_death if t_death <= t_spawn else t_spawn
            if t_rare_hi == _INF and t_retry == _INF and t_tick == _INF:
                # No rare event can ever interleave again: only finishes
                # and arrivals remain.  Ticks drive draining and deaths
                # are spent, so every finishing replica is routable and
                # the membership guards drop out of the loop.
                while True:
                    t_arr = arr_l[ptr] if ptr < n else _INF
                    if fin_min <= t_arr:
                        if fin_min == _INF:
                            break
                        r = fheap[0][1]
                        heappop(fheap)
                        fin, i = heappop(heaps[r])
                        h = heaps[r]
                        if h:
                            top = h[0][0]
                            tops[r] = top
                            heappush(fheap, (top, r))
                        else:
                            tops[r] = _INF
                        while fheap:  # discard stale entries off the head
                            f0, r0 = fheap[0]
                            if tops[r0] == f0:
                                fin_min = f0
                                break
                            heappop(fheap)
                        else:
                            fin_min = _INF
                        running_l[r] -= 1
                        kv_l[r] -= need_l[i]
                        key_l[r] -= span + need_l[i]
                        completed += 1
                        served[r] += 1
                        clock = fin
                        if queues[r]:
                            try_start(r, fin)
                        if use_heap:
                            load_heap_push(kheap, key_l, r, routable_l)
                        continue
                    # Arrival.  The two cheapest policies are inlined —
                    # one uniform draw / one load-heap peek — the rest go
                    # through route_to (identical decisions either way).
                    clock = t_arr
                    if mode == 0:
                        if rng_ptr >= len(rng_buf):
                            rng_buf = route_rng.random(8192).tolist()
                            rng_ptr = 0
                        u = rng_buf[rng_ptr]
                        rng_ptr += 1
                        k = len(routable_l)
                        if k == 0:
                            raise SchedulerError("no routable replicas")
                        j = int(u * k)
                        if j >= k:
                            j = k - 1
                        r = routable_l[j]
                    elif mode == 1:
                        if not routable_l:
                            raise SchedulerError("no routable replicas")
                        r = load_heap_peek(kheap, key_l)
                    else:
                        route_to(ptr, t_arr)
                        ptr += 1
                        continue
                    queues[r].append(ptr)
                    depth_l[r] += 1
                    key_l[r] += span
                    if running_l[r] < slots:
                        try_start(r, t_arr)
                    if use_heap:
                        load_heap_push(kheap, key_l, r, routable_l)
                    ptr += 1
                if completed + rejected >= n:
                    break
            # Hot inner loop: finishes and arrivals strictly ordered ahead
            # of every rare event (ties per the priority ladder above).
            while True:
                t_arr = arr_l[ptr] if ptr < n else _INF
                t_fin = fin_min
                if (
                    t_fin < t_rare_hi
                    and t_fin <= t_retry
                    and t_fin <= t_arr
                    and t_fin <= t_tick
                ):
                    r = fheap[0][1]  # head is live: fheap[0][0] == fin_min
                    heappop(fheap)
                    fin, i = heappop(heaps[r])
                    if heaps[r]:
                        top = heaps[r][0][0]
                        tops[r] = top
                        heappush(fheap, (top, r))
                    else:
                        tops[r] = _INF
                    while fheap:  # discard stale entries off the head
                        f0, r0 = fheap[0]
                        if tops[r0] == f0:
                            fin_min = f0
                            break
                        heappop(fheap)
                    else:
                        fin_min = _INF
                    running_l[r] -= 1
                    kv_l[r] -= need_l[i]
                    if routable_f[r]:
                        key_l[r] -= span + need_l[i]
                    completed += 1
                    served[r] += 1
                    clock = fin
                    if queues[r]:
                        try_start(r, fin)
                    if use_heap and routable_f[r]:
                        load_heap_push(kheap, key_l, r, routable_l)
                    if draining[r] and running_l[r] == 0 and not queues[r]:
                        retire(r)
                    continue
                if (
                    t_arr < t_rare_hi
                    and t_arr < t_retry
                    and t_arr < t_fin
                    and t_arr <= t_tick
                ):
                    clock = t_arr
                    route_to(ptr, t_arr)
                    ptr += 1
                    continue
                break
            if completed + rejected >= n:
                break
            # Rare event dispatch: smallest (time, priority).
            best_t = t_death
            best_kind = 0
            if t_spawn < best_t:
                best_t, best_kind = t_spawn, 1
            if t_retry < best_t:
                best_t, best_kind = t_retry, 2
            if t_tick < best_t:
                best_t, best_kind = t_tick, 3
            if best_t == _INF:
                raise SchedulerError(
                    "fleet stalled: queued work but no runnable event "
                    f"({completed + rejected}/{n} settled)"
                )
            clock = best_t
            if best_kind == 0:
                event = death_list[di]
                di += 1
                cands = [r for r in range(max_replicas) if alive[r] and not draining[r]]
                if not cands:
                    cands = [r for r in range(max_replicas) if alive[r]]
                victim = -1
                if event.target is not None:
                    name = event.target
                    if name.startswith("replica-"):
                        slot = int(name[len("replica-") :])
                        if 0 <= slot < max_replicas and alive[slot]:
                            victim = slot
                elif cands:
                    victim = cands[deaths % len(cands)]
                if victim < 0:
                    continue  # nothing to kill (all dead or bad target)
                self.fault_log.append(event)
                deaths += 1
                r = victim
                alive[r] = False
                draining[r] = False
                routable_f[r] = False
                key_l[r] = huge
                alive_count -= 1
                state.routable[r] = False
                membership_changed()
                in_flight = sorted(heaps[r])
                heaps[r] = []
                tops[r] = _INF
                while fheap:  # victim's entries just went stale
                    f0, r0 = fheap[0]
                    if tops[r0] == f0:
                        fin_min = f0
                        break
                    heappop(fheap)
                else:
                    fin_min = _INF
                # repro-lint: disable=R010 — runs only on rare REPLICA_DEATH
                # fault events, and the copy is required before .clear()
                stranded = list(queues[r])
                queues[r].clear()
                depth_l[r] = 0
                running_l[r] = 0
                kv_l[r] = 0
                drop_prefixes(r)
                state.reset_counters(r)
                state.clear_replica(r)
                for _, i in in_flight:
                    res_retry[i] += 1
                    res_rep[i] = -1
                    res_start[i] = float("nan")
                    res_hit[i] = 0
                    if retry_policy.exhausted(res_retry[i]):
                        res_rej[i] = True
                        rejected += 1
                    else:
                        ready = event.end_s + retry_policy.delay_s(res_retry[i])
                        heappush(retry_heap, (ready, retry_seq, i))
                        retry_seq += 1
                for i in stranded:
                    reroutes += 1
                    route_to(i, event.at_s)
            elif best_kind == 1:
                heappop(spawn_heap)
                slot = -1
                for r in range(max_replicas):
                    if not alive[r]:
                        slot = r
                        break
                if slot >= 0:
                    alive[slot] = True
                    draining[slot] = False
                    routable_f[slot] = True
                    key_l[slot] = 0
                    alive_count += 1
                    spawns += 1
                    state.routable[slot] = True
                    membership_changed()
                    if use_heap:
                        load_heap_push(kheap, key_l, slot, routable_l)
            elif best_kind == 2:
                _, _, i = heappop(retry_heap)
                route_to(i, best_t)
            else:
                tick = tick + scale.interval_s  # type: ignore[union-attr]
                nr = len(routable_l)
                if nr > 0 and scale is not None:
                    waiting = 0
                    for r in routable_l:
                        waiting += depth_l[r]
                    per = waiting / nr
                    if (
                        per > scale.high_queue_per_replica
                        and alive_count + len(spawn_heap) < scale.max_replicas
                    ):
                        heappush(spawn_heap, best_t + scale.spawn_delay_s)
                    elif per < scale.low_queue_per_replica and nr > scale.min_replicas:
                        r = routable_l[nr - 1]
                        draining[r] = True
                        routable_f[r] = False
                        key_l[r] = huge
                        state.routable[r] = False
                        membership_changed()
                        if running_l[r] == 0 and not queues[r]:
                            retire(r)

        start_col = np.asarray(res_start, dtype=np.float64)
        hit_col = np.asarray(res_hit, dtype=np.int64)
        eff_col = np.maximum(workload.prompt_tokens - hit_col, 1)
        first_col = start_col + (base + eff_col * per_pf)
        fin_col = first_col + (workload.output_tokens - 1) * per_out
        return FleetResult(
            replica=np.asarray(res_rep, dtype=np.int64),
            start_s=start_col,
            first_token_s=first_col,
            finish_s=fin_col,
            retries=np.asarray(res_retry, dtype=np.int64),
            rejected=np.asarray(res_rej, dtype=np.bool_),
            prefix_hit_tokens=hit_col,
            completed=completed,
            rejected_total=rejected,
            deaths=deaths,
            spawns=spawns,
            drains=drains,
            reroutes=reroutes,
            served_per_replica=np.asarray(served, dtype=np.int64),
            sim_end_s=clock,
        )


# =========================================================== engine fleet
class _EngineReplica:
    """One fleet slot: a live engine, its arrival deque, and liveness."""

    def __init__(self, engine: ServingEngine) -> None:
        self.engine = engine
        self.pending: Deque[Request] = deque()
        self.active = False
        self.draining = False

    def idle(self) -> bool:
        engine = self.engine
        return (
            not self.pending
            and not engine.running
            and not engine._preempted
            and not engine._retry_queue
        )


class EngineFleet:
    """N token-level :class:`ServingEngine` replicas behind a router.

    Replicas advance through :meth:`ServingEngine.step`, each on its own
    clock; the fleet interleaves replica steps with routed arrivals,
    replica-death faults, fleet-level retries, and autoscale ticks in
    deterministic (time, priority) order.  With one replica and no fleet
    faults, the driven engine's trajectory — every timestamp, iteration
    count, and KV decision — is bit-identical to ``engine.run()`` on the
    same requests, whatever the router policy (the ROADMAP item-5
    metamorphic invariant).  Routers see the same :class:`RouterState`
    columns as :class:`ClusterFleet`, refreshed from live engine state
    before every decision; prefix-hit columns are optimistic route-time
    estimates, as in a real cluster's routing tier.
    """

    def __init__(
        self,
        engine_factory: Callable[[], ServingEngine],
        n_replicas: int,
        router: Router,
        *,
        faults: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        autoscale: Optional[AutoscalePolicy] = None,
    ) -> None:
        if n_replicas <= 0:
            raise ConfigError("n_replicas must be positive")
        self.engine_factory = engine_factory
        self.router = router
        self.retry = retry or RetryPolicy()
        self.autoscale = autoscale
        self.max_replicas = (
            max(n_replicas, autoscale.max_replicas) if autoscale else n_replicas
        )
        self.replicas: List[Optional[_EngineReplica]] = [
            _EngineReplica(engine_factory()) for _ in range(n_replicas)
        ] + [None] * (self.max_replicas - n_replicas)
        sample = self.replicas[0].engine  # type: ignore[union-attr]
        capacity = getattr(sample.allocator, "capacity_tokens", None)
        self._kv_proxy = capacity is None
        self.state = RouterState(
            self.max_replicas,
            int(capacity) if capacity is not None else max(sample.max_running, 1),
        )
        for r in range(n_replicas):
            self.state.routable[r] = True
        self.state.rebuild_routable()
        self.router.bind(self.state)
        self._deaths: List[FaultEvent] = (
            faults.of_kind(REPLICA_DEATH) if faults is not None else []
        )
        self.fault_log: List[FaultEvent] = []
        self.assignments: Dict[str, int] = {}
        self._prefix_codes: Dict[str, int] = {}
        self.retries = 0
        self.rejected = 0
        self.deaths = 0
        self.spawns = 0
        self.drains = 0
        self.reroutes = 0

    # --------------------------------------------------------- router feed
    def _code_of(self, request: Request) -> int:
        if request.prefix_id is None or request.prefix_tokens <= 0:
            return -1
        code = self._prefix_codes.get(request.prefix_id)
        if code is None:
            code = len(self._prefix_codes)
            self._prefix_codes[request.prefix_id] = code
        return code

    def _refresh_columns(self) -> None:
        state = self.state
        for r in state.routable_indices.tolist():
            w = self.replicas[r]
            assert w is not None
            engine = w.engine
            state.queue_depth[r] = len(w.pending)
            state.running[r] = len(engine.running) + len(engine._preempted)
            if self._kv_proxy:
                state.kv_used[r] = len(engine.running)
            else:
                state.kv_used[r] = engine.allocator.stats.reserved_tokens  # type: ignore[union-attr]

    def _route(self, request: Request, count_reroute: bool = False) -> None:
        self._refresh_columns()
        code = self._code_of(request)
        r = self.router.route(code, request.prefix_tokens)
        if code >= 0:
            self.state.record_prefix(code, r, request.prefix_tokens)
        w = self.replicas[r]
        assert w is not None
        w.pending.append(request)
        w.active = True
        self.assignments[request.request_id] = r
        if count_reroute:
            self.reroutes += 1

    def _retire(self, r: int) -> None:
        self.replicas[r] = None
        self.state.routable[r] = False
        self.state.rebuild_routable()
        self.state.reset_counters(r)
        self.state.clear_replica(r)
        self.drains += 1
        self.router.on_membership_change()

    def _absorb_death(
        self,
        event: FaultEvent,
        retry_heap: List[Tuple[float, int, Request]],
        seq: List[int],
    ) -> None:
        cands = [
            r
            for r in range(self.max_replicas)
            if self.replicas[r] is not None and not self.replicas[r].draining  # type: ignore[union-attr]
        ]
        if not cands:
            cands = [r for r in range(self.max_replicas) if self.replicas[r] is not None]
        victim = -1
        if event.target is not None:
            name = event.target
            if name.startswith("replica-"):
                slot = int(name[len("replica-") :])
                if 0 <= slot < self.max_replicas and self.replicas[slot] is not None:
                    victim = slot
        elif cands:
            victim = cands[self.deaths % len(cands)]
        if victim < 0:
            return
        self.fault_log.append(event)
        self.deaths += 1
        w = self.replicas[victim]
        assert w is not None
        engine = w.engine
        in_flight = list(engine.running.values()) + engine._preempted
        stranded = list(w.pending)
        carried = sorted(engine._retry_queue)
        self.replicas[victim] = None
        self.state.routable[victim] = False
        self.state.rebuild_routable()
        self.state.reset_counters(victim)
        self.state.clear_replica(victim)
        self.router.on_membership_change()
        for run_seq in in_flight:
            request = run_seq.request
            request.retries += 1
            self.retries += 1
            request.admitted_s = None
            request.first_token_s = None
            request.token_times = []
            request.prefix_hit = False
            if self.retry.exhausted(request.retries):
                request.rejected = True
                self.rejected += 1
                continue
            ready = event.end_s + self.retry.delay_s(request.retries)
            heapq.heappush(retry_heap, (max(ready, event.at_s), seq[0], request))
            seq[0] += 1
        for ready, _, request in carried:
            heapq.heappush(retry_heap, (max(ready, event.at_s), seq[0], request))
            seq[0] += 1
        if not self.state.routable_indices.shape[0] and (stranded or retry_heap):
            raise SchedulerError("replica_death left the fleet with no replicas")
        for request in stranded:
            self._route(request, count_reroute=True)

    # ------------------------------------------------------------ main loop
    def run(self, requests: Sequence[Request]) -> List[Request]:
        """Route and serve ``requests`` across the fleet to completion."""
        order = sorted(requests, key=lambda r: r.arrival_s)
        n = len(order)
        ptr = 0
        retry_heap: List[Tuple[float, int, Request]] = []
        seq = [0]
        spawn_heap: List[float] = []
        di = 0
        scale = self.autoscale
        tick = scale.interval_s if scale is not None else _INF
        while True:
            t_death = self._deaths[di].at_s if di < len(self._deaths) else _INF
            t_spawn = spawn_heap[0] if spawn_heap else _INF
            t_retry = retry_heap[0][0] if retry_heap else _INF
            t_arr = order[ptr].arrival_s if ptr < n else _INF
            t_step = _INF
            r_step = -1
            for r in range(self.max_replicas):
                w = self.replicas[r]
                if w is not None and w.active and w.engine.now < t_step:
                    t_step = w.engine.now
                    r_step = r
            work_left = ptr < n or retry_heap or r_step >= 0
            t_tick = tick if (scale is not None and work_left) else _INF
            # Deterministic order: death < spawn < retry < arrival < step < tick.
            best_t, best_kind = t_death, 0
            if t_spawn < best_t:
                best_t, best_kind = t_spawn, 1
            if t_retry < best_t:
                best_t, best_kind = t_retry, 2
            if t_arr < best_t:
                best_t, best_kind = t_arr, 3
            if t_step < best_t:
                best_t, best_kind = t_step, 4
            if t_tick < best_t:
                best_t, best_kind = t_tick, 5
            if best_t == _INF:
                if di < len(self._deaths):
                    di += 1  # faults scheduled after the fleet drained: no-op
                    continue
                break
            if best_kind == 0:
                di += 1
                self._absorb_death(self._deaths[di - 1], retry_heap, seq)
            elif best_kind == 1:
                heapq.heappop(spawn_heap)
                slot = -1
                for r in range(self.max_replicas):
                    if self.replicas[r] is None:
                        slot = r
                        break
                if slot >= 0:
                    self.replicas[slot] = _EngineReplica(self.engine_factory())
                    self.spawns += 1
                    self.state.routable[slot] = True
                    self.state.rebuild_routable()
                    self.router.on_membership_change()
            elif best_kind == 2:
                _, _, request = heapq.heappop(retry_heap)
                self._route(request, count_reroute=True)
            elif best_kind == 3:
                self._route(order[ptr])
                ptr += 1
            elif best_kind == 4:
                w = self.replicas[r_step]
                assert w is not None
                if w.engine.step(w.pending) == STEP_IDLE:
                    w.active = False
                    if w.draining and w.idle():
                        self._retire(r_step)
            else:
                tick = tick + scale.interval_s  # type: ignore[union-attr]
                routable = self.state.routable_indices.tolist()
                nr = len(routable)
                if nr > 0 and scale is not None:
                    waiting = sum(
                        len(self.replicas[r].pending) for r in routable  # type: ignore[union-attr]
                    )
                    per = waiting / nr
                    live = sum(1 for w in self.replicas if w is not None)
                    if (
                        per > scale.high_queue_per_replica
                        and live + len(spawn_heap) < scale.max_replicas
                    ):
                        heapq.heappush(spawn_heap, best_t + scale.spawn_delay_s)
                    elif per < scale.low_queue_per_replica and nr > scale.min_replicas:
                        r = routable[nr - 1]
                        w = self.replicas[r]
                        assert w is not None
                        w.draining = True
                        self.state.routable[r] = False
                        self.state.rebuild_routable()
                        self.router.on_membership_change()
                        if w.idle():
                            self._retire(r)
        return list(requests)
