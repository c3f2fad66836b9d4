"""The two fleet-DES workloads: ``fleet_disagg`` and ``fleet_colocated``.

Both serve the same Mooncake-style trace shape: lognormal prompts around
512 tokens, 16-token outputs, and 80% of requests sharing one of R/2
2048-token prefixes, at a Poisson rate just under fleet capacity.

* ``fleet_disagg`` runs it through ``ClusterFleet(pools=PoolSpec(...))``,
  that is ``run_pool_fleet``, on 64 prefill + 64 decode replicas with
  prefix-aware prefill routing, least-loaded decode routing and the full
  rare-event scenario: replica deaths, KV transfer-fail and degraded
  windows, retries, a TTFT shed SLO, hot-spot migration and warm-up
  autoscale.
* ``fleet_colocated`` runs it through the flat ``ClusterFleet.run`` loop
  with ``LeastLoadedRouter`` over 512 colocated replicas and no faults,
  so the O(R) least-loaded argmin dominates.

The output checks compare a ``head()`` slice of the trace, under the same
configuration rule, bit for bit against the frozen naive twins in
``benchmarks/perf``.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench.clock import Stopwatch
from repro.faults import KV_DEGRADED, KV_TRANSFER_FAIL, REPLICA_DEATH, FaultPlan, RetryPolicy
from repro.inference import (
    SLO,
    AutoscalePolicy,
    ClusterFleet,
    FleetResult,
    FleetWorkload,
    LeastLoadedRouter,
    MigrationPolicy,
    PoolSpec,
    PrefixAwareRouter,
    ReplicaModel,
    fleet_phase_breakdown,
    fleet_poisson_workload,
    summarize_fleet,
)

MODEL = ReplicaModel(slots=32, kv_capacity_tokens=131072)


@dataclass(frozen=True)
class Shape:
    """One fleet workload's layout and per-replica arrival rate."""

    name: str
    layer: str
    prefill: int
    decode: int
    colocated: int
    rate_per_replica: float
    faulty: bool
    #: Requests in the full-size trace.
    requests: int

    @property
    def replicas(self) -> int:
        return self.prefill + self.decode + self.colocated


# The decode pool bounds the disaggregated fleet (~200 req/s per decode
# replica at 16 output tokens), so it runs at a lower rate per replica
# slot than the colocated one; both sit just under capacity.
# Trace lengths keep one DES run under a second of host time, as the
# calibrated clock needs (see perfbench.clock): 3.7 s of simulated arrivals
# for the disaggregated fleet, 0.8 s for the (much faster) colocated one.
DISAGG = Shape("fleet_disagg", "inference.pools", 64, 64, 0, 85.0, True, 40_000)
COLOCATED = Shape("fleet_colocated", "inference.fleet", 0, 0, 512, 125.0, False, 50_000)

#: Parity-check head per size; "smoke" is the self-test's toy scale.
PARITY = {"full": 8_000, "smoke": 1_000}
SMOKE_REQUESTS = 3_000


@dataclass
class Setup:
    shape: Shape
    seed: int
    workload: FleetWorkload
    parity_requests: int
    fleet: ClusterFleet
    phases: Dict[str, float] = field(default_factory=dict)


@dataclass
class Outcome:
    result: FleetResult
    des_s: float
    sim: Dict[str, float]
    counts: Dict[str, float]


def _trace(shape: Shape, n: int, seed: int) -> FleetWorkload:
    return fleet_poisson_workload(
        n,
        rate_rps=shape.rate_per_replica * shape.replicas,
        prompt_mean=512,
        output_mean=16,
        num_prefixes=max(shape.replicas // 2, 1),
        prefix_tokens=2048,
        prefix_fraction=0.8,
        seed=seed,
    )


def _fault_plan(shape: Shape, horizon: float, seed: int) -> Optional[FaultPlan]:
    if not shape.faulty:
        return None
    return FaultPlan.seeded(
        seed=seed,
        horizon_s=horizon,
        rates={
            REPLICA_DEATH: shape.replicas / 8 / horizon,
            KV_TRANSFER_FAIL: 4.0 / horizon,
            KV_DEGRADED: 4.0 / horizon,
        },
        mean_duration_s={KV_TRANSFER_FAIL: horizon / 16.0, KV_DEGRADED: horizon / 16.0},
        degraded_severity=0.5,
    )


def _fleet_kwargs(shape: Shape, horizon: float, faults: Optional[FaultPlan]) -> Dict[str, object]:
    """Everything but the routers, shared by the fleet and its frozen twin."""
    kwargs: Dict[str, object] = {"model": MODEL, "faults": faults, "retry": RetryPolicy()}
    if shape.prefill:
        kwargs["pools"] = PoolSpec(
            prefill=shape.prefill,
            decode=shape.decode,
            warmup_s=max(horizon / 32.0, 0.25),
            migration=MigrationPolicy(hot_queue_ratio=2.0, min_queue=4),
        )
    if shape.faulty:
        n = shape.replicas
        kwargs["shed_slo"] = SLO(ttft_s=2.0)
        kwargs["autoscale"] = AutoscalePolicy(
            min_replicas=max(n // 4, 2),
            max_replicas=n + n // 4,
            high_queue_per_replica=8.0,
            low_queue_per_replica=0.25,
            interval_s=max(horizon / 16.0, 0.5),
            spawn_delay_s=max(horizon / 8.0, 1.0),
        )
    return kwargs


def _build_fleet(shape: Shape, kwargs: Dict[str, object]) -> ClusterFleet:
    if shape.prefill:
        return ClusterFleet(
            shape.replicas,
            PrefixAwareRouter(block_tokens=MODEL.block_tokens),
            decode_router=LeastLoadedRouter(),
            **kwargs,
        )
    return ClusterFleet(shape.replicas, LeastLoadedRouter(), **kwargs)


def setup(shape: Shape, seed: int, size_name: str) -> Setup:
    """Generate the trace and fault plan from ``seed``; build the fleet."""
    n = shape.requests if size_name == "full" else SMOKE_REQUESTS
    parity = PARITY[size_name]
    t0 = time.perf_counter()
    workload = _trace(shape, n, seed)
    t1 = time.perf_counter()
    horizon = float(workload.arrival_s[-1])
    faults = _fault_plan(shape, horizon, seed)
    t2 = time.perf_counter()
    fleet = _build_fleet(shape, _fleet_kwargs(shape, horizon, faults))
    return Setup(
        shape=shape,
        seed=seed,
        workload=workload,
        parity_requests=parity,
        fleet=fleet,
        phases={
            "inference.workload.build": t1 - t0,
            "faults.plan.build": t2 - t1,
        },
    )


def instrument(s: Setup, tracer) -> None:
    """Nothing to wrap: the DES is one span around ``ClusterFleet.run``."""


def run(s: Setup, tracer, watch: Stopwatch) -> Outcome:
    """Simulate the trace to completion, then summarise it; the DES is one
    ``watch`` lap and ``des_s`` its calibrated host time."""
    workload = s.workload
    t0 = time.perf_counter()
    with tracer.span(s.shape.layer):
        result = s.fleet.run(workload)
    des_s = time.perf_counter() - t0
    des_s *= watch.lap()
    with tracer.span("inference.metrics"):
        report = summarize_fleet(workload, result)
        phases = fleet_phase_breakdown(workload, result)
    sim = {
        "sim.ttft_p50_s": report.ttft_p50,
        "sim.ttft_p95_s": report.ttft_p95,
        "sim.transfer_p95_s": phases.transfer.p95_s,
    }
    counts = {
        "completed": result.completed,
        "rejected": result.rejected_total,
        "retries": int(result.retries.sum()),
        "reroutes": result.reroutes,
        "deaths": result.deaths,
        "spawns": result.spawns,
        "prefix_hit_ratio": report.prefix_hit_rate,
    }
    if s.shape.prefill:
        counts["handoffs"] = result.handoffs
        counts["migrations"] = result.migrations
        counts["ship_ratio"] = (
            result.shipped_migrations / result.migrations if result.migrations else 0.0
        )
        counts["reprefills"] = result.reprefills
    else:
        counts["imbalance"] = report.imbalance
    return Outcome(result=result, des_s=des_s, sim=sim, counts=counts)


def digest(s: Setup, out: Outcome) -> str:
    """Hash of the per-request outcome columns and the fleet counters."""
    r = out.result
    h = hashlib.sha256()
    columns = [
        r.replica, r.start_s, r.first_token_s, r.finish_s, r.retries, r.rejected,
        r.prefix_hit_tokens, r.served_per_replica, r.decode_replica, r.decode_start_s,
    ]
    for column in columns:
        if column is not None:
            h.update(np.ascontiguousarray(column).tobytes())
    counters = (
        r.completed, r.rejected_total, r.deaths, r.spawns, r.drains, r.reroutes,
        r.handoffs, r.migrations, r.shipped_migrations, r.reprefills, r.sim_end_s,
    )
    h.update(repr(counters).encode())
    return h.hexdigest()


def check(s: Setup, out: Outcome) -> List[str]:
    """Conservation and timeline order on every pass."""
    failures: List[str] = []
    r = out.result
    n = s.workload.n
    if r.completed + r.rejected_total != n:
        failures.append(f"completed {r.completed} + rejected {r.rejected_total} != {n}")
    done = np.logical_and(~r.rejected, np.isfinite(r.finish_s))
    if int(done.sum()) != r.completed:
        failures.append(f"{int(done.sum())} finished rows but completed={r.completed}")
    arrival = s.workload.arrival_s[done]
    start, first, finish = r.start_s[done], r.first_token_s[done], r.finish_s[done]
    ordered = (arrival <= start) & (start <= first) & (first <= finish)
    if not bool(ordered.all()):
        failures.append(f"{int((~ordered).sum())} requests break arrival<=start<=first<=finish")
    return failures


def deep_check(s: Setup, out: Outcome) -> List[str]:
    """Bitwise parity with the frozen naive twin on a head() slice."""
    # Imported here: the twins live in the repo's perf suite, which only
    # this check needs.
    from benchmarks.perf._legacy_disagg import LegacyPoolFleet
    from benchmarks.perf._legacy_fleet import LegacyClusterFleet

    shape = s.shape
    head = s.workload.head(s.parity_requests)
    horizon = float(head.arrival_s[-1])
    kwargs = _fleet_kwargs(shape, horizon, _fault_plan(shape, horizon, s.seed))
    current = _build_fleet(shape, kwargs).run(head)
    if shape.prefill:
        twin = LegacyPoolFleet(
            shape.replicas, "prefix-aware", "least-loaded",
            block_tokens=MODEL.block_tokens, **kwargs,
        )
    else:
        twin = LegacyClusterFleet(shape.replicas, "least-loaded", **kwargs)
    if not current.equals(twin.run(head)):
        return [f"{shape.name}: FleetResult differs from the frozen twin on head({head.n})"]
    return []


def per_layer(s: Setup, out: Outcome) -> Dict[str, float]:
    """The DES layer's outcome counts under its own layer name."""
    metrics = {f"{s.shape.layer}.{k}": v for k, v in out.counts.items()}
    metrics[f"{s.shape.layer}.requests_per_s"] = s.workload.n / out.des_s
    return metrics


def operations(s: Setup, out: Outcome) -> int:
    """Simulated requests settled (served or shed)."""
    return s.workload.n


def pass_stats(s: Setup, out: Outcome) -> Dict[str, object]:
    """``items_per_s`` is simulated requests per host second of the DES."""
    return {"items_per_s": s.workload.n / out.des_s}


def extras(stats: Sequence[Dict[str, object]]) -> Dict[str, Tuple[float, str]]:
    return {
        "sim_requests_per_s": (statistics.median(st["items_per_s"] for st in stats), "req/s"),
    }
