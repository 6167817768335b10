"""Sharded, replicated multi-worker serving with deterministic failover.

The ROADMAP's next step past a fast single node: run N shard workers — each
an independent :class:`repro.serving.RecommendationService` with its own
cache, batched search and telemetry over the shared frozen artifacts — behind
a consistent-hash router with R-way replication, seeded failure injection,
admission control and cluster-wide telemetry:

* :class:`ConsistentHashRing` — user-keyed ring with virtual nodes; stable
  under shard add/remove (bounded key churn), deterministic across processes.
* :class:`HealthModel` / :func:`random_schedule` — shard status registry with
  clock-driven scripted transitions and seeded chaos schedules.
* :class:`AdmissionController` — per-shard queue bounds per dispatch burst;
  overflow spills to replicas, saturation sheds to the fallback tier chain.
* :class:`ClusterTelemetry` — exact cluster percentiles/QPS/tier mix merged
  from the shards' raw telemetry windows.
* :class:`ClusterService` — the facade: same ``serve``/``serve_many`` surface
  as a single service, so :class:`repro.simulate.ReplayDriver` and the whole
  oracle battery run against a cluster unchanged; elastic ``add_shard`` /
  ``remove_shard`` with cache warm-migration along the ring's bounded remap.
* :class:`Autoscaler` / :class:`AutoscaleConfig` — deterministic, seeded
  grow/shrink decisions at virtual-time ticks from shed-rate and
  queue-utilization signals, wrapped around the same serving facade.

Typical use::

    cluster = ClusterService.from_cadrl(
        model, transe=transe,
        config=ClusterConfig(num_shards=4, replication_factor=2))
    cluster.health.fail(1)                      # deterministic failover
    responses = cluster.serve_many(requests)    # 100% still served
    print(cluster.telemetry_snapshot()["routing"])
"""

from .admission import AdmissionController, AdmissionStats
from .autoscale import AutoscaleConfig, Autoscaler, ScaleEvent
from .breaker import BreakerConfig, BreakerTransition, CircuitBreaker
from .config import ClusterConfig
from .health import HealthEvent, HealthModel, ShardStatus, random_schedule
from .ring import ConsistentHashRing, stable_hash64
from .service import (
    ClusterService,
    ClusterUnavailableError,
    RoutingStats,
    ScaleReport,
    ShardWorker,
)
from .telemetry import ClusterTelemetry, merge_telemetry_states

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "AutoscaleConfig",
    "Autoscaler",
    "BreakerConfig",
    "BreakerTransition",
    "CircuitBreaker",
    "ClusterConfig",
    "ClusterService",
    "ClusterTelemetry",
    "ClusterUnavailableError",
    "ConsistentHashRing",
    "HealthEvent",
    "HealthModel",
    "RoutingStats",
    "ScaleEvent",
    "ScaleReport",
    "ShardStatus",
    "ShardWorker",
    "merge_telemetry_states",
    "random_schedule",
    "stable_hash64",
]
