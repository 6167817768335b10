"""Replay a workload trace through a recommendation service.

The :class:`ReplayDriver` feeds a :class:`~repro.simulate.workload.Workload`
through anything with the :class:`repro.serving.RecommendationService` facade
(``serve_many`` over ``RecommendationRequest``\\ s) and collects one
:class:`RequestRecord` per request — tier, provenance, cache hit, latency and
the returned items — which the oracles and the report layer consume.

Two replay modes:

* **open-loop** (default) — requests are dispatched in arrival order and
  grouped into micro-batches by trace time: every request arriving within
  ``batch_window_s`` of the batch's first request joins its ``serve_many``
  call.  Bursty arrival processes therefore produce large batches and quiet
  periods produce singletons, exercising batched serving the way wall-clock
  traffic would — without any real sleeping, so replays stay fast and
  deterministic.
* **closed-loop** — arrival times are ignored and requests are driven
  back-to-back in fixed-size batches, measuring sustainable throughput.

Replays are bit-for-bit deterministic **when run in virtual time**: construct
the service with a :class:`TraceClock` and hand the same clock to the driver,
which advances it to each batch's arrival time.  Cache TTL and stale dynamics
then follow trace time instead of wall time, per-request latencies read as
0 ms (virtual time measures behaviour, not speed), and the tier chooser's
full-search cost estimate stays pinned at its configured prior
(``ServingConfig.assumed_full_search_ms`` — zero-latency observations are
discarded), so budget-based tier routing is a pure function of the trace and
the same seed reproduces the identical result trace (checkable via
:meth:`ReplayResult.signature`).  Without a trace clock the service measures
real latencies — useful for throughput reports, but tier choices near the
latency-budget boundary may then legitimately differ between runs.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..rl.trajectory import RecommendationPath
from ..serving.fallback import ServingTier
from .workload import SimulatedRequest, Workload


class TraceClock:
    """A manually advanced monotonic clock for virtual-time replays.

    Inject one instance into both the service (``clock=trace_clock``) and the
    :class:`ReplayDriver`; the driver then moves time to each batch's arrival
    timestamp and the whole serving stack (cache TTLs, telemetry, the
    full-search cost estimator) experiences the trace's timeline.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("a monotonic clock cannot move backwards")
        self.now += seconds

    def advance_to(self, timestamp: float) -> None:
        """Move to ``timestamp`` if it is in the future (never backwards)."""
        self.now = max(self.now, float(timestamp))


@dataclass(frozen=True)
class RequestRecord:
    """Everything observed about one replayed request."""

    index: int
    arrival_s: float
    user_entity: int
    top_k: int
    exclude_items: Tuple[int, ...]
    latency_budget_ms: Optional[float]
    allow_stale: bool
    tier: ServingTier
    source_tier: ServingTier
    cache_hit: bool
    latency_ms: float
    items: Tuple[int, ...]
    paths: Tuple[RecommendationPath, ...] = ()
    #: The answer was degraded by cluster backpressure (admission shedding),
    #: not by the request's own latency budget.
    shed: bool = False
    #: Artifact generation whose tables computed the payload (live updates);
    #: 0 for single-generation services.
    generation: int = 0
    #: Fault provenance copied from the response (``None`` on the fault-free
    #: path): which defense degraded this answer — see
    #: :class:`repro.serving.RecommendationResponse`.
    fault: Optional[str] = None

    def cache_key(self) -> Tuple[int, int, frozenset]:
        """The result-cache key this request mapped to."""
        return (self.user_entity, self.top_k, frozenset(self.exclude_items))


@dataclass
class ReplayConfig:
    """How a trace is driven through the service."""

    mode: str = "open"            # "open" honours arrival times, "closed" doesn't
    batch_window_s: float = 0.05  # open-loop micro-batch window (trace time)
    batch_size: int = 32          # closed-loop batch size
    max_batch_size: int = 256     # open-loop safety bound per serve_many call
    record_paths: bool = True     # keep explanation paths on the records

    def validate(self) -> None:
        if self.mode not in ("open", "closed"):
            raise ValueError("mode must be 'open' or 'closed'")
        if self.batch_window_s < 0:
            raise ValueError("batch_window_s must be non-negative")
        if self.batch_size <= 0 or self.max_batch_size <= 0:
            raise ValueError("batch sizes must be positive")


@dataclass
class ReplayResult:
    """The records of one replay plus wall-clock bookkeeping."""

    workload: Workload
    replay_config: ReplayConfig
    records: List[RequestRecord] = field(default_factory=list)
    wall_seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------ #
    # aggregates (the report layer builds on these)
    # ------------------------------------------------------------------ #
    def tier_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.tier.value] = counts.get(record.tier.value, 0) + 1
        return counts

    def source_tier_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.source_tier.value] = counts.get(record.source_tier.value, 0) + 1
        return counts

    def cache_hit_rate(self) -> float:
        """Hit fraction over the replayed requests; NaN for an empty replay."""
        if not self.records:
            return float("nan")
        return sum(record.cache_hit for record in self.records) / len(self.records)

    def latencies_ms(self) -> List[float]:
        return [record.latency_ms for record in self.records]

    def replay_qps(self) -> float:
        """Served requests per wall-clock second; NaN when undefined.

        A replay with no records, or one whose wall-clock span is zero or
        near-zero (single-request traces, mocked clocks), has no meaningful
        rate — returning 0.0 would read as "infinitely slow" and dividing by
        a near-zero span as "infinitely fast", so the answer is NaN (the
        repository-wide "NaN not 0.0" convention for undefined measurements).
        """
        if not self.records or self.wall_seconds <= 0.0:
            return float("nan")
        return len(self.records) / self.wall_seconds

    def signature(self) -> str:
        """Hash of the *served results* (items, tiers, hits) — latency excluded.

        Two replays of the same workload against identically-initialised
        services must produce the same signature; wall-clock latency is the
        only non-deterministic observation and is deliberately left out.
        """
        digest = hashlib.sha256()
        for record in self.records:
            digest.update(repr((record.index, record.user_entity, record.top_k,
                                record.exclude_items, record.tier.value,
                                record.source_tier.value, record.cache_hit,
                                record.shed, record.generation, record.fault,
                                record.items)).encode("utf-8"))
        return digest.hexdigest()


class ReplayDriver:
    """Drives workload traces through one service instance.

    ``clock`` enables virtual-time replay: pass the :class:`TraceClock` the
    service was constructed with and the driver advances it to each batch's
    arrival time before serving, making the replay deterministic.

    ``wall_timer`` measures the replay's real elapsed time for the throughput
    report (``ReplayResult.wall_seconds``); it is injected — defaulting to
    ``time.perf_counter`` — so the driver itself never reads the wall clock
    directly and tests can substitute a deterministic timer.
    """

    def __init__(self, service, clock: Optional[TraceClock] = None,
                 wall_timer: Callable[[], float] = time.perf_counter) -> None:
        if not (hasattr(service, "serve_many") or hasattr(service, "serve")):
            raise TypeError("service must expose serve_many() or serve()")
        self.service = service
        self.clock = clock
        self.wall_timer = wall_timer

    # ------------------------------------------------------------------ #
    def replay(self, workload: Workload,
               config: Optional[ReplayConfig] = None) -> ReplayResult:
        """Feed the whole trace through the service and collect records."""
        config = config or ReplayConfig()
        config.validate()
        result = ReplayResult(workload=workload, replay_config=config)
        start = self.wall_timer()
        for batch in self._batches(workload, config):
            if self.clock is not None:
                self.clock.advance_to(batch[0].arrival_s)
            responses = self._serve_batch([entry.to_request() for entry in batch])
            for entry, response in zip(batch, responses):
                result.records.append(RequestRecord(
                    index=entry.index,
                    arrival_s=entry.arrival_s,
                    user_entity=entry.user_entity,
                    top_k=entry.top_k,
                    exclude_items=entry.exclude_items,
                    latency_budget_ms=entry.latency_budget_ms,
                    allow_stale=entry.allow_stale,
                    tier=response.tier,
                    source_tier=response.source_tier,
                    cache_hit=response.cache_hit,
                    latency_ms=response.latency_ms,
                    items=tuple(response.items),
                    paths=tuple(response.paths) if config.record_paths else (),
                    shed=getattr(response, "shed", False),
                    generation=getattr(response, "generation", 0),
                    fault=getattr(response, "fault", None),
                ))
        result.wall_seconds = self.wall_timer() - start
        return result

    # ------------------------------------------------------------------ #
    def _serve_batch(self, requests: Sequence) -> Sequence:
        if hasattr(self.service, "serve_many"):
            return self.service.serve_many(requests)
        return [self.service.serve(request) for request in requests]

    @staticmethod
    def _batches(workload: Workload,
                 config: ReplayConfig) -> Iterable[List[SimulatedRequest]]:
        """Group the trace into serve_many batches per the replay mode."""
        if config.mode == "closed":
            entries = list(workload)
            for offset in range(0, len(entries), config.batch_size):
                yield entries[offset:offset + config.batch_size]
            return
        batch: List[SimulatedRequest] = []
        window_start = 0.0
        for entry in workload:
            if batch and (entry.arrival_s - window_start > config.batch_window_s
                          or len(batch) >= config.max_batch_size):
                yield batch
                batch = []
            if not batch:
                window_start = entry.arrival_s
            batch.append(entry)
        if batch:
            yield batch
