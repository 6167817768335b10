"""The benchmark's two workloads: ``train`` and ``serve_hot``.

Each workload runs in one process, with the program imported from the
checkout's ``src/``.  It sets itself up several times (reporting the median
set-up time), then runs its timed region and checks every output.  With
tracing on, the same steps run with spans around the calls into each layer,
and :func:`layer_metrics` turns the spans and the layers' own counters into
the per-layer metrics.

Models are trained with one fixed run seed; the workload seed generates the
serve workload's request trace (see :func:`run_train` for why the train
workload's work does not depend on it).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster import ClusterConfig, ClusterService
from repro.darl import CADRL
from repro.darl.inference import PathRecommender
from repro.darl.trainer import DARLTrainer
from repro.data.splits import test_user_items, train_user_items
from repro.eval.metrics import aggregate_metrics, all_metrics, as_percentages
from repro.cggnn import CGGNN
from repro.kg.entities import EntityType
from repro.kg.graph import KnowledgeGraph
from repro.pipeline import Pipeline, PipelineResult, RunConfig
from repro.pipeline import stages as pipeline_stages
from repro.serving import (
    RecommendationRequest,
    RecommendationService,
    ServingConfig,
    ServingTier,
    TieredRanker,
)
from repro.simulate import (
    RequestRecord,
    UserPopulation,
    WorkloadConfig,
    generate_workload,
    run_oracles,
)

from tracer import Tracer

CLOCK = time.perf_counter


# --------------------------------------------------------------------------- #
# sizes
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Size:
    """Every knob that sets how much work a workload does."""

    train_scale: float
    hot_scale: float
    #: Open-loop arrival rate of ``serve_hot``; the run records the share of
    #: the replay the cluster spent serving (``open_loop_busy_share``).
    hot_rate: float
    hot_warm_requests: int
    hot_shards: int
    hot_replicas: int
    hot_cache_per_shard: int
    hot_cold_standins: int
    #: Largest open-loop burst and the closed-loop burst size.
    max_burst: int
    closed_burst: int
    setup_repeats: Dict[str, int]
    #: Identical repeats of each timed pass; the latency and throughput
    #: figures are taken over all of them (see :func:`report_passes`).
    eval_sweeps: int
    #: Open-loop replays of ``serve_hot``'s trace after each of its set-ups;
    #: the trace lasts ``seconds`` divided by the number of replays in a run.
    open_replays: int
    #: Closed-loop passes after each open-loop replay.
    closed_passes: int
    #: Shrinks every training stage (used by the benchmark's own tests).
    tiny: bool = False


SIZES = {
    "full": Size(train_scale=2.0, hot_scale=1.0, hot_rate=250.0,
                 hot_warm_requests=2000, hot_shards=4, hot_replicas=2,
                 hot_cache_per_shard=32, hot_cold_standins=16, max_burst=64,
                 closed_burst=32, setup_repeats={"train": 7, "serve_hot": 3},
                 eval_sweeps=24, open_replays=2, closed_passes=1),
    "tiny": Size(train_scale=0.25, hot_scale=0.25, hot_rate=200.0,
                 hot_warm_requests=100, hot_shards=4, hot_replicas=2,
                 hot_cache_per_shard=8, hot_cold_standins=4, max_burst=16,
                 closed_burst=8, setup_repeats={"train": 2, "serve_hot": 2},
                 eval_sweeps=2, open_replays=1, closed_passes=2, tiny=True),
}

#: The run seed every workload trains with.
TRAIN_SEED = 0


def smoke_config(scale: float, size: Size) -> RunConfig:
    """The ``smoke`` run configuration at ``scale``, evaluating every test user."""
    config = RunConfig.from_profile("smoke", seed=TRAIN_SEED)
    config.data.scale = scale
    config.eval.max_eval_users = None
    if size.tiny:
        config.model.transe.epochs = 3
        config.model.cggnn_training.epochs = 2
        config.model.darl.epochs = 1
    return config


# --------------------------------------------------------------------------- #
# bookkeeping
# --------------------------------------------------------------------------- #
@dataclass
class Outcome:
    """Everything one run measured and checked."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    phases: Dict[str, Dict[str, int]] = field(default_factory=dict)
    info: Dict[str, Any] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    tracer: Optional[Tracer] = None

    def count(self, phase: str, attempted: int, failed: int = 0) -> None:
        entry = self.phases.setdefault(
            phase, {"attempted": 0, "succeeded": 0, "failed": 0})
        entry["attempted"] += attempted
        entry["failed"] += failed
        entry["succeeded"] += attempted - failed

    def problem(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    def check(self, ok: bool, message: str) -> None:
        """One whole-run check, counted as an operation of phase ``check``."""
        self.count("check", 1, 0 if ok else 1)
        if not ok:
            self.problem(message)

    @property
    def attempted(self) -> int:
        return sum(entry["attempted"] for entry in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(entry["failed"] for entry in self.phases.values())


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 for no values."""
    if not len(values):
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def dataset_digest(dataset, split) -> str:
    return digest({
        "interactions": [[i.user_id, i.item_id, list(i.mentioned_feature_ids)]
                         for i in dataset.interactions],
        "products": [[p.item_id, p.brand_id, p.category_id, list(p.feature_ids)]
                     for p in dataset.products],
        "train": [[i.user_id, i.item_id] for i in split.train],
        "test": [[i.user_id, i.item_id] for i in split.test],
    })


def graph_digest(graph: KnowledgeGraph) -> str:
    adjacency = graph.adjacency()
    hasher = hashlib.sha256()
    for array in (adjacency.indptr, adjacency.triplets, adjacency.entity_category):
        hasher.update(np.ascontiguousarray(array).tobytes())
    return hasher.hexdigest()


def timed(function: Callable[[], Any]) -> Tuple[Any, float]:
    start = CLOCK()
    value = function()
    return value, CLOCK() - start


# --------------------------------------------------------------------------- #
# tracing: spans around the calls into each layer
# --------------------------------------------------------------------------- #
def _batch_size(_self, requests, *args, **kwargs) -> int:
    return len(requests)


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the workloads reach."""
    tracer.wrap(Pipeline, "run", "pipeline.run")
    tracer.wrap(pipeline_stages, "load_dataset", "data.generate")
    tracer.wrap(pipeline_stages, "split_interactions", "data.split")
    tracer.wrap(pipeline_stages, "build_knowledge_graph", "kg.build")
    tracer.wrap(KnowledgeGraph, "adjacency", "kg.compile", first_only=True)
    tracer.wrap(pipeline_stages, "train_transe", "embeddings.train")
    tracer.wrap(pipeline_stages, "train_cggnn", "cggnn.train")
    tracer.wrap(CGGNN, "forward", "cggnn.forward")
    tracer.wrap(DARLTrainer, "train", "darl.train")
    tracer.wrap(pipeline_stages, "evaluate_recommender", "eval.evaluate")
    tracer.wrap(PathRecommender, "recommend_requests",
                "inference.recommend_requests", size_of=_batch_size)
    tracer.wrap(PathRecommender, "recommend", "inference.recommend")
    tracer.wrap(PathRecommender, "warm_milestones", "inference.warm_milestones",
                size_of=_batch_size)
    tracer.wrap(ClusterService, "serve_many", "cluster.serve_many",
                size_of=_batch_size)
    tracer.wrap(RecommendationService, "serve_many", "serving.serve_many",
                size_of=_batch_size)
    tracer.wrap(RecommendationService, "serve", "serving.serve")
    tracer.wrap(TieredRanker, "fallback_items", "serving.fallback")


def install_stage_spans(tracer: Tracer, pipeline: Pipeline) -> None:
    for name, stage in pipeline.stages.items():
        tracer.wrap(stage, "run", f"stage.{name}")


def traced_block(tracer: Optional[Tracer], pipeline: Optional[Pipeline] = None):
    """A context that installs every span (no-op without a tracer)."""
    if tracer is None:
        return contextlib.nullcontext()

    def install(t: Tracer) -> None:
        install_layer_spans(t)
        if pipeline is not None:
            install_stage_spans(t, pipeline)

    return tracer.installed(install)


Call = Tuple[tuple, Any, float]


@contextlib.contextmanager
def recorded_calls(owner: Any, attr: str) -> Iterator[List[Call]]:
    """Every call of ``owner.attr`` as (arguments, answer, seconds).

    A measurement hook rather than a span (it records none): it stays on in
    untraced runs, where the train workload takes per-user eval latency and
    answers from it.
    """
    calls: List[Call] = []

    def keep(args: tuple, answer: Any, seconds: float) -> None:
        calls.append((args[1:], answer, seconds))

    with Tracer().installed(lambda hook: hook.wrap(owner, attr, None, on_call=keep)):
        yield calls


# --------------------------------------------------------------------------- #
# train
# --------------------------------------------------------------------------- #
TIMED_STAGES = ("embed", "cggnn", "train", "eval")


def data_and_kg(config: RunConfig, tracer: Optional[Tracer] = None):
    """The data and kg stages through ``Pipeline``; returns it and its context."""
    pipeline = Pipeline(config)
    with traced_block(tracer, pipeline):
        result = pipeline.run(until=("kg",))
    return pipeline, result.context


def run_stages(pipeline: Pipeline, context, names: Sequence[str],
               tracer: Optional[Tracer] = None) -> float:
    """Run the named stages (in pipeline order) on a context; returns wall time.

    Continues a pipeline whose earlier stages already filled ``context``, as
    ``Pipeline.run`` would, so set-up and timed region can be split.
    """
    with traced_block(tracer, pipeline):
        start = CLOCK()
        root = tracer.open("pipeline.run") if tracer is not None else None
        for name in pipeline.resolve((names[-1],)):
            if name in names:
                pipeline.stages[name].run(context)
        if root is not None:
            tracer.close(root)
        return CLOCK() - start


def train_pass(pipeline: Pipeline, context, tracer: Optional[Tracer] = None
               ) -> Tuple[float, List[Call]]:
    """The timed region: embed → cggnn → train → eval on a set-up context."""
    with recorded_calls(CADRL, "recommend_items") as calls:
        elapsed = run_stages(pipeline, context, TIMED_STAGES, tracer)
    return elapsed, calls


def check_eval_answers(context, calls: Sequence[Call], outcome: Outcome,
                       phase: str) -> str:
    """Validate every top-k answer of the eval stage; returns their digest."""
    top_k = context.config.eval.top_k
    train_items = train_user_items(context.split)
    num_items = context.dataset.num_items
    answers = []
    bad = 0
    for (user, *_), items, _ in calls:
        answers.append([int(user), [int(item) for item in items]])
        problems = []
        if len(items) != top_k or len(set(items)) != len(items):
            problems.append(f"{len(items)} items / duplicates")
        if any(not 0 <= item < num_items for item in items):
            problems.append("unknown item id")
        if set(items) & set(train_items.get(user, ())):
            problems.append("recommended a training purchase")
        if problems:
            bad += 1
            outcome.problem(f"{phase}: user {user}: {', '.join(problems)}")
    outcome.count(phase, len(calls), bad)
    return digest(sorted(answers))


def run_train(seed: int, seconds: float, size: Size, trace: bool) -> Outcome:
    """Set up data + kg, then time one embed → cggnn → train → eval pass.

    The input is the fixed smoke dataset and run seed: a seed-dependent
    dataset, split or initialisation moves NDCG by about ±15% (26.5–35.6 at
    scale 2), more than any regression bound could absorb, so ``seed`` is
    recorded but does not change the work.  Per-request latency is that of
    the eval stage's recommendations over ``eval_sweeps`` warm repeats of
    the stage, run back to back (see :func:`report_passes`).
    """
    outcome = Outcome()
    config = smoke_config(size.train_scale, size)
    setups = []
    for _ in range(size.setup_repeats["train"]):
        (pipeline, context), elapsed = timed(lambda: data_and_kg(config))
        setups.append(elapsed)
        outcome.count("setup", 2)
    outcome.info["setup_runs_s"] = setups
    outcome.info["dataset_digest"] = dataset_digest(context.dataset, context.split)
    outcome.info["graph_digest"] = graph_digest(context.graph)
    outcome.info["config_fingerprint"] = config.fingerprint()
    outcome.info["signature"] = digest([outcome.info["dataset_digest"],
                                        outcome.info["config_fingerprint"]])
    tracer = Tracer() if trace else None
    if tracer is not None:
        # A traced set-up supplies the data and kg spans.
        traced_pipeline, traced_context = data_and_kg(config, tracer)
        outcome.count("setup", 2)

    gc.collect()
    train_s, calls = train_pass(pipeline, context)
    outcome.count("timed", len(TIMED_STAGES))
    answers = check_eval_answers(context, calls, outcome, "eval")
    outcome.info["answer_digest"] = answers
    eval_metrics = context.eval_metrics
    quality = {name: float(eval_metrics["metrics"][name])
               for name in ("ndcg", "recall", "hit_ratio", "precision")}
    for name, value in quality.items():
        outcome.check(math.isfinite(value) and value > 0.0, f"eval {name} = {value}")
    outcome.check(eval_metrics["num_users"] == len(test_user_items(context.split)),
                  "eval did not cover every test user")

    if tracer is not None:
        gc.collect()
        traced_s, traced_calls = train_pass(traced_pipeline, traced_context, tracer)
        outcome.count("timed", len(TIMED_STAGES))
        outcome.check(check_eval_answers(traced_context, traced_calls, outcome,
                                         "traced_eval") == answers,
                      "tracing changed the eval answers")
        outcome.metrics.update(layer_metrics(
            tracer, traced_context, [traced_context.cadrl.recommender],
            busy_ratio=traced_s / train_s))
        outcome.tracer = tracer
        return outcome

    sweeps = []
    for _ in range(size.eval_sweeps):
        with recorded_calls(CADRL, "recommend_items") as sweep:
            pipeline.stages["eval"].run(context)
        outcome.check(check_eval_answers(context, sweep, outcome, "eval_sweep")
                      == answers and context.eval_metrics == eval_metrics,
                      "a repeated eval changed the answers")
        latencies = [latency for *_, latency in sweep]
        sweeps.append(ServeLog(latencies_s=latencies, busy_s=sum(latencies)))
    outcome.metrics.update({
        "setup_s": (statistics.median(setups), "s"),
        "train_s": (train_s, "s"),
    })
    report_passes(outcome, sweeps, sweeps)
    outcome.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    add_quality(outcome, quality)
    return outcome


# --------------------------------------------------------------------------- #
# shared serve helpers
# --------------------------------------------------------------------------- #
def train_model(config: RunConfig, tracer: Optional[Tracer] = None
                ) -> Tuple[PipelineResult, float]:
    """The pipeline up to ``train``; returns it and the embed → train time."""
    pipeline, context = data_and_kg(config, tracer)
    elapsed = run_stages(pipeline, context, ("embed", "cggnn", "train"), tracer)
    return PipelineResult(config=config, context=context), elapsed


def make_record(index: int, request: RecommendationRequest, response,
                arrival_s: float, latency_ms: float, keep_paths: bool = True
                ) -> RequestRecord:
    return RequestRecord(
        index=index, arrival_s=arrival_s, user_entity=request.user_entity,
        top_k=request.top_k, exclude_items=tuple(sorted(request.exclude_items)),
        latency_budget_ms=request.latency_budget_ms,
        allow_stale=request.allow_stale, tier=response.tier,
        source_tier=response.source_tier, cache_hit=response.cache_hit,
        latency_ms=latency_ms, items=tuple(response.items),
        paths=tuple(response.paths) if keep_paths else (), shed=response.shed,
        generation=response.generation, fault=response.fault)


def quality_probe(service, result, size: Size, outcome: Outcome, first_index: int
                  ) -> Tuple[Dict[str, float], List[RequestRecord]]:
    """Served quality under the eval protocol, after the timed region.

    Every test user asks the service once for 10 items excluding their
    training purchases; the answers are scored @10 against the held-out
    items (in percent) and returned as records for the oracles.
    """
    builder = result.context.builder
    held_out = {builder.user_to_entity(user): {builder.item_to_entity(item)
                                                for item in items}
                for user, items in sorted(test_user_items(result.split).items())}
    requests = [RecommendationRequest(
        user_entity=user, top_k=10,
        exclude_items=frozenset(result.graph.purchased_items(user)))
        for user in held_out]
    log = closed_loop(service, requests, size.closed_burst, outcome, None,
                      first_index=first_index)
    outcome.count("probe", len(requests), log.failed)
    scores = [all_metrics(list(record.items), held_out[record.user_entity], 10)
              for record in log.records]
    return as_percentages(aggregate_metrics(scores)), log.records


def audit(service, records: Sequence[RequestRecord], outcome: Outcome,
          seed: int) -> None:
    """The oracle battery over every record; each flagged record fails once."""
    reports, elapsed = timed(lambda: run_oracles(service, records, seed=seed))
    outcome.info["oracle_s"] = elapsed
    flagged = set()
    for report in reports:
        outcome.info.setdefault("oracles", {})[report.oracle] = {
            "checked": report.checked, "findings": report.mismatches}
        for finding in report.findings:
            flagged.add(finding.index)
            outcome.problem(str(finding))
    outcome.count("oracle", len(records), len(flagged))


def add_quality(outcome: Outcome, quality: Dict[str, float]) -> None:
    for name in ("ndcg", "recall", "hit_ratio", "precision"):
        outcome.metrics[name] = (float(quality[name]), "%")


def cache_totals(services: Sequence[RecommendationService]) -> Dict[str, Any]:
    return {"lookups": [s.cache.stats.hits + s.cache.stats.misses for s in services],
            "hits": sum(s.cache.stats.hits for s in services),
            "misses": sum(s.cache.stats.misses for s in services),
            "evictions": sum(s.cache.stats.evictions for s in services)}


# --------------------------------------------------------------------------- #
# timed serve passes
# --------------------------------------------------------------------------- #
def wait_until(deadline: float) -> None:
    """Spin until ``deadline``.

    The generator never sleeps: on a shared virtual machine a thread that
    sleeps between requests comes back to a slower CPU, and the requests it
    then serves pay for it (see the README).
    """
    while CLOCK() < deadline:
        pass


@dataclass
class ServeLog:
    """What one timed serve pass produced."""

    records: List[RequestRecord] = field(default_factory=list)
    latencies_s: List[float] = field(default_factory=list)
    #: How late the generator sent each request (open loop).
    waits_s: List[float] = field(default_factory=list)
    busy_s: float = 0.0
    #: Wall time from the pass's start to its last answer.
    span_s: float = 0.0
    bursts: int = 0
    failed: int = 0

    def answers(self) -> List[Tuple[int, ...]]:
        return [record.items for record in self.records]


def serve_burst(service, burst: Sequence[RecommendationRequest], log: ServeLog,
                outcome: Outcome, tracer: Optional[Tracer]) -> Tuple[Any, float]:
    """One ``serve_many`` call; exceptions and unanswered requests fail it."""
    if tracer is not None:
        tracer.tag = f"burst-{log.bursts}"
    log.bursts += 1
    start = CLOCK()
    try:
        responses = service.serve_many(burst)
    except Exception as error:  # repro: ignore[EXC001] a failing burst is reported and counted as failed requests; the run goes on
        outcome.problem(f"burst {log.bursts}: {type(error).__name__}: {error}")
        responses = None
    done = CLOCK()
    log.busy_s += done - start
    if responses is None or len(responses) != len(burst):
        log.failed += len(burst)
        return None, done
    return responses, done


def open_loop(service, trace: Sequence[Tuple[float, RecommendationRequest]],
              size: Size, outcome: Outcome, tracer: Optional[Tracer],
              keep_paths: bool = True) -> ServeLog:
    """Send each burst when its first request is due, from this one thread.

    A burst is every request already due when the generator is free (at most
    ``max_burst``); each request is timed from its due time, so a stall
    charges the requests queued behind it.
    """
    log = ServeLog()
    start = CLOCK() + 0.005
    index, total = 0, len(trace)
    while index < total:
        wait_until(start + trace[index][0])
        sent = CLOCK()
        stop = index + 1
        while (stop < total and stop - index < size.max_burst
               and start + trace[stop][0] <= sent):
            stop += 1
        burst = [request for _, request in trace[index:stop]]
        responses, done = serve_burst(service, burst, log, outcome, tracer)
        for offset, (arrival, request) in enumerate(trace[index:stop]):
            due = start + arrival
            log.waits_s.append(sent - due)
            log.latencies_s.append(done - due)
            if responses is not None:
                log.records.append(make_record(
                    index + offset, request, responses[offset], arrival,
                    (done - due) * 1000.0, keep_paths))
        index = stop
    log.span_s = CLOCK() - start
    return log


def closed_loop(service, requests: Sequence[RecommendationRequest], burst_size: int,
                outcome: Outcome, tracer: Optional[Tracer], first_index: int = 0,
                keep_paths: bool = True) -> ServeLog:
    """Back-to-back fixed-size bursts, each request timed from its burst's send.

    ``keep_paths=False`` drops the explanation paths from the records: the
    timed passes keep none, so the objects the harness holds on to do not
    set off collections that the program alone would not; an untimed audit
    pass keeps them for the oracles.
    """
    log = ServeLog()
    start = CLOCK()
    for offset in range(0, len(requests), burst_size):
        burst = requests[offset:offset + burst_size]
        sent = CLOCK()
        responses, done = serve_burst(service, burst, log, outcome, tracer)
        for position, request in enumerate(burst):
            log.latencies_s.append(done - sent)
            if responses is not None:
                log.records.append(make_record(
                    first_index + offset + position, request, responses[position],
                    sent - start, (done - sent) * 1000.0, keep_paths))
    return log


def pass_figures(log: ServeLog) -> Dict[str, float]:
    """One pass's own p50 and p99 latency and requests per second served."""
    return {"p50_ms": percentile(log.latencies_s, 50) * 1000.0,
            "p99_ms": percentile(log.latencies_s, 99) * 1000.0,
            "throughput_rps": _ratio(len(log.latencies_s), log.busy_s)}


def report_passes(outcome: Outcome, latency_passes: Sequence[ServeLog],
                  throughput_passes: Sequence[ServeLog]) -> None:
    """p50/p99 and throughput over the repeats of the timed passes.

    p50 is taken over the requests of all latency passes together, and
    throughput is all requests of the throughput passes over their summed
    serve time, so the shared host's slow and fast stretches average out
    over the run.  p99 is taken over the requests of the better half of the
    latency passes, ranked by their own p99.  Every repeat does the same
    work from the same state (in the open loop, on the same arrival
    schedule), so the program's own slow requests and queueing recur in
    each; a stall of the host does not, and in an open loop it delays every
    request that arrives while it lasts, so pooled over a whole run a few
    such stalls set the top 1%.  The median repeat and every repeat's own
    figures go to ``info``.
    """
    pooled = [latency for log in latency_passes for latency in log.latencies_s]
    ranked = sorted(latency_passes, key=lambda log: percentile(log.latencies_s, 99))
    tail = [latency for log in ranked[:max(1, len(ranked) // 2)]
            for latency in log.latencies_s]
    outcome.metrics.update({
        "p50_ms": (percentile(pooled, 50) * 1000.0, "ms"),
        "p99_ms": (percentile(tail, 99) * 1000.0, "ms"),
        "throughput_rps": (_ratio(sum(len(log.latencies_s) for log in throughput_passes),
                                  sum(log.busy_s for log in throughput_passes)),
                           "req/s"),
    })
    outcome.info["samples"] = {"p50_ms": len(pooled), "p99_ms": len(tail)}
    for name in ("p50_ms", "p99_ms", "throughput_rps"):
        logs = throughput_passes if name == "throughput_rps" else latency_passes
        values = [pass_figures(log)[name] for log in logs]
        outcome.info.setdefault("median_pass", {})[name] = statistics.median(values)
        outcome.info.setdefault("passes", {})[name] = values


def check_repeats(logs: Sequence[ServeLog], outcome: Outcome, what: str) -> None:
    """Repeats of one pass from identical state must give identical answers."""
    outcome.check(all(log.answers() == logs[0].answers() for log in logs[1:]),
                  f"repeats of the {what} gave different answers")


def audit_pass(service, requests: Sequence[RecommendationRequest], size: Size,
               outcome: Outcome, timed: ServeLog, first_index: int
               ) -> List[RequestRecord]:
    """An untimed closed-loop repeat of a timed pass that keeps the paths.

    It runs after the timed region from the state the timed pass started
    from, so it must return the same answers; its records give the oracles
    the explanation paths the timed passes drop.
    """
    log = closed_loop(service, requests, size.closed_burst, outcome, None,
                      first_index=first_index)
    outcome.count("audit", len(requests), log.failed)
    check_repeats([timed, log], outcome, "timed pass and its audit")
    return log.records


# --------------------------------------------------------------------------- #
# serve_hot
# --------------------------------------------------------------------------- #
def hot_replays(size: Size) -> int:
    """Timed open-loop replays in one untraced ``serve_hot`` run."""
    return size.setup_repeats["serve_hot"] * size.open_replays


def hot_traces(result, seed: int, seconds: float, size: Size):
    """The warm-up trace and the timed open-loop trace, one seeded stream.

    Both share the seeded Zipf popularity, so the warm-up heats the users the
    timed trace asks for.  The timed part lasts ``seconds`` divided by the
    replays of a run (see :func:`hot_replays`) and is re-based to start at 0.
    """
    graph = result.graph
    standins = tuple(graph.entities.ids_of_type(EntityType.FEATURE)
                     [:size.hot_cold_standins])
    population = UserPopulation.from_graph(graph, extra_cold_users=standins)
    timed_count = max(1, int(round(size.hot_rate * seconds / hot_replays(size))))
    workload = generate_workload(population, WorkloadConfig(
        num_requests=size.hot_warm_requests + timed_count, seed=seed,
        arrival="poisson", mean_qps=size.hot_rate, cold_fraction=0.1,
        top_k_choices=(5, 10), exclude_purchased_fraction=0.25,
        tight_budget_fraction=0.15, tight_budget_ms=0.0), graph)
    warm = workload.requests[:size.hot_warm_requests]
    rest = workload.requests[size.hot_warm_requests:]
    origin = rest[0].arrival_s
    timed_trace = [(entry.arrival_s - origin, entry.to_request()) for entry in rest]
    return workload.signature(), [entry.to_request() for entry in warm], timed_trace


def hot_cluster(result, size: Size, warm: Sequence[RecommendationRequest]
                ) -> ClusterService:
    """A fresh 4x2 cluster, warmed by the warm-up trace in closed loop."""
    cluster = ClusterService.from_cadrl(
        result.cadrl, transe=result.transe,
        config=ClusterConfig(num_shards=size.hot_shards,
                             replication_factor=size.hot_replicas),
        serving_config=ServingConfig(cache_capacity=size.hot_cache_per_shard))
    for offset in range(0, len(warm), size.closed_burst):
        cluster.serve_many(warm[offset:offset + size.closed_burst])
    return cluster


def prime(cluster: ClusterService, trace, size: Size, outcome: Outcome) -> None:
    """One untimed closed-loop pass over the timed trace.

    A pass over the whole trace leaves the cache as the trace's end left it,
    whatever state it started from; after this pass every timed pass over
    the trace starts from that same state and does identical work.
    """
    log = closed_loop(cluster, [request for _, request in trace], size.closed_burst,
                      outcome, None, keep_paths=False)
    outcome.count("prime", len(trace), log.failed)


def hot_timed(cluster: ClusterService, trace, size: Size, outcome: Outcome,
              tracer: Optional[Tracer], replays: int
              ) -> Tuple[List[ServeLog], List[ServeLog]]:
    """``replays`` open-loop replays on one primed cluster, each followed by
    ``closed_passes`` closed-loop passes over the same trace.

    Every pass starts from the state :func:`prime` left (the answers are
    checked to be identical).  Returns the open and the closed logs.  No
    timed pass keeps explanation paths (see :func:`closed_loop`).
    """
    opened: List[ServeLog] = []
    closed: List[ServeLog] = []
    requests = [request for _, request in trace]
    for _ in range(replays):
        gc.collect()
        log = open_loop(cluster, trace, size, outcome, tracer, keep_paths=False)
        outcome.count("open_loop", len(trace), log.failed)
        opened.append(log)
        for _ in range(size.closed_passes):
            log = closed_loop(cluster, requests, size.closed_burst, outcome, tracer,
                              first_index=len(trace) * (len(closed) + 1),
                              keep_paths=False)
            outcome.count("closed_loop", len(trace), log.failed)
            closed.append(log)
    return opened, closed


def run_serve_hot(seed: int, seconds: float, size: Size, trace: bool) -> Outcome:
    """Set-up rounds, each followed by open- and closed-loop replays.

    An untraced run sets up ``setup_repeats`` times (reporting the median)
    and replays the timed trace ``open_replays`` times on each round's
    fresh cluster, so the replays spread over the whole run rather than one
    stretch of it.  Every round serves the same model (training is seeded),
    and every replay must give the same answers.
    """
    outcome = Outcome()
    config = smoke_config(size.hot_scale, size)
    setups: List[float] = []
    train_times: List[float] = []
    opened: List[ServeLog] = []
    closed: List[ServeLog] = []
    warm = None
    tracer = Tracer() if trace else None
    for _ in range(1 if trace else size.setup_repeats["serve_hot"]):
        result = cluster = None
        gc.collect()
        start = CLOCK()
        result, train_s = train_model(config, tracer)
        model_s = CLOCK() - start
        if warm is None:  # the traces are inputs, generated outside the timing
            signature, warm, timed_trace = hot_traces(result, seed, seconds, size)
        start = CLOCK()
        cluster = hot_cluster(result, size, warm)
        setups.append(model_s + CLOCK() - start)
        train_times.append(train_s)
        outcome.count("setup", len(warm))
        prime(cluster, timed_trace, size, outcome)
        if tracer is None:
            round_open, round_closed = hot_timed(cluster, timed_trace, size, outcome,
                                                 None, size.open_replays)
            opened += round_open
            closed += round_closed
    outcome.info["setup_runs_s"] = setups
    outcome.info["signature"] = signature

    if tracer is not None:
        plain_open, plain_closed = hot_timed(cluster, timed_trace, size, outcome,
                                             None, replays=1)
        before = hot_counters(cluster)
        with traced_block(tracer):
            opened, closed = hot_timed(cluster, timed_trace, size, outcome, tracer,
                                       replays=1)
        counters = hot_delta(before, hot_counters(cluster))
        check_repeats(plain_open + plain_closed + opened + closed, outcome,
                      "untraced and traced passes")
        busy = (sum(log.busy_s for log in opened + closed)
                / sum(log.busy_s for log in plain_open + plain_closed))
        outcome.metrics.update(layer_metrics(
            tracer, result.context,
            [worker.service.recommender for worker in cluster.workers],
            busy_ratio=busy, counters=counters,
            records=[record for log in opened + closed for record in log.records],
            harness=opened[0]))
        outcome.tracer = tracer
    else:
        check_repeats(opened + closed, outcome, "timed passes")
        outcome.metrics.update({
            "setup_s": (statistics.median(setups), "s"),
            "train_s": (statistics.median(train_times), "s"),
        })
        report_passes(outcome, opened, closed)
        outcome.info["generator_late_p99_ms"] = [percentile(log.waits_s, 99) * 1000.0
                                                 for log in opened]
        outcome.info["open_loop_busy_share"] = [log.busy_s / log.span_s
                                                for log in opened]
        outcome.info["cache_hit_rate"] = (sum(r.cache_hit for r in opened[0].records)
                                          / max(1, len(opened[0].records)))
        outcome.info["answer_digest"] = digest(opened[0].answers())
    records = [record for log in opened + closed for record in log.records]
    records += audit_pass(cluster, [request for _, request in timed_trace], size,
                          outcome, closed[0], len(records))
    if not trace:
        quality, probed = quality_probe(cluster, result, size, outcome, len(records))
        records += probed
        add_quality(outcome, quality)
    audit(cluster, records, outcome, seed)
    if not trace:
        outcome.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return outcome


def hot_counters(cluster: ClusterService) -> Dict[str, Any]:
    counters = cache_totals([worker.service for worker in cluster.workers])
    counters["routing"] = cluster.routing.as_dict()
    return counters


def hot_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "lookups": [b - a for a, b in zip(before["lookups"], after["lookups"])],
        "hits": after["hits"] - before["hits"],
        "misses": after["misses"] - before["misses"],
        "evictions": after["evictions"] - before["evictions"],
        "routing": {key: after["routing"][key] - before["routing"][key]
                    for key in after["routing"]},
    }


# --------------------------------------------------------------------------- #
# per-layer metrics
# --------------------------------------------------------------------------- #
PER_LAYER_UNITS = {
    "data.generate_s": "s", "data.split_s": "s", "data.interactions": "count",
    "kg.build_s": "s", "kg.compile_s": "s", "kg.entities": "count",
    "kg.triplets": "count",
    "embeddings.train_s": "s", "embeddings.epoch_ms": "ms",
    "cggnn.train_s": "s", "cggnn.forward_calls": "count", "cggnn.forward_ms": "ms",
    "darl.train_s": "s", "darl.episodes": "count", "darl.episodes_per_s": "1/s",
    "inference.calls": "count", "inference.queries": "count",
    "inference.self_s": "s", "inference.ms_per_query": "ms",
    "inference.milestone_s": "s", "inference.compiled": "bool",
    "serving.requests": "count", "serving.self_s": "s",
    "serving.cache_hit_rate": "ratio", "serving.cache_evictions": "count",
    "serving.tier_full_share": "ratio", "serving.tier_cache_share": "ratio",
    "serving.tier_embedding_share": "ratio", "serving.tier_stale_share": "ratio",
    "serving.fallback_calls": "count", "serving.fallback_s": "s",
    "serving.burst_size_mean": "count",
    "cluster.self_s": "s", "cluster.shed": "count", "cluster.overflow": "count",
    "cluster.failover": "count", "cluster.retried": "count",
    "cluster.peak_shard_share": "ratio",
    "eval.s": "s", "eval.users": "count",
    "pipeline.self_s": "s",
    "harness.queue_wait_p99_ms": "ms", "harness.bursts": "count",
    "trace.overhead_ratio": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def layer_metrics(tracer: Tracer, context, recommenders: Sequence[PathRecommender],
                  busy_ratio: float,
                  counters: Optional[Dict[str, Any]] = None,
                  records: Sequence[RequestRecord] = (),
                  harness: Optional[ServeLog] = None) -> Dict[str, Tuple[float, str]]:
    """Per-layer numbers from the spans plus the layers' own counters."""
    config = context.config
    graph = context.graph
    counters = counters or {"lookups": [], "hits": 0, "misses": 0, "evictions": 0,
                            "routing": {}}
    routing = counters.get("routing", {})
    forwards = tracer.select("cggnn.forward")
    darl_s = tracer.total("darl.train")
    episodes = (len(train_user_items(context.split)) * config.model.darl.epochs
                * config.model.darl.episodes_per_user) if darl_s else 0
    inference_top = tracer.outermost("inference")
    queries = sum(span.size for span in inference_top)
    serve_many = tracer.select("serving.serve_many")
    tiers = [record.tier for record in records]
    lookups = counters["lookups"]
    eval_s = tracer.total("eval.evaluate")
    embed_s = tracer.total("embeddings.train")
    # Whether the serving recommenders built their compiled score tables
    # (read from the recommender's lazily filled slot; no public accessor).
    compiled = any(getattr(r, "_compiled", None) is not None for r in recommenders)
    values = {
        "data.generate_s": tracer.total("data.generate"),
        "data.split_s": tracer.total("data.split"),
        "data.interactions": context.dataset.num_interactions,
        "kg.build_s": tracer.total("kg.build"),
        "kg.compile_s": tracer.total("kg.compile"),
        "kg.entities": graph.num_entities,
        "kg.triplets": graph.num_triplets,
        "embeddings.train_s": embed_s,
        "embeddings.epoch_ms": _ratio(embed_s * 1000.0, config.model.transe.epochs),
        "cggnn.train_s": tracer.total("cggnn.train"),
        "cggnn.forward_calls": len(forwards),
        "cggnn.forward_ms": _ratio(sum(s.duration for s in forwards) * 1000.0,
                                   len(forwards)),
        "darl.train_s": darl_s,
        "darl.episodes": episodes,
        "darl.episodes_per_s": _ratio(episodes, darl_s),
        "inference.calls": len(inference_top),
        "inference.queries": queries,
        "inference.self_s": tracer.self_total("inference"),
        "inference.ms_per_query": _ratio(tracer.total("inference") * 1000.0, queries),
        "inference.milestone_s": tracer.total("inference.warm_milestones"),
        "inference.compiled": 1.0 if compiled else 0.0,
        "serving.requests": sum(lookups),
        "serving.self_s": tracer.self_total("serving"),
        "serving.cache_hit_rate": _ratio(counters["hits"],
                                         counters["hits"] + counters["misses"]),
        "serving.cache_evictions": counters["evictions"],
        "serving.tier_full_share": _ratio(tiers.count(ServingTier.FULL), len(tiers)),
        "serving.tier_cache_share": _ratio(tiers.count(ServingTier.CACHE), len(tiers)),
        "serving.tier_embedding_share": _ratio(tiers.count(ServingTier.EMBEDDING),
                                               len(tiers)),
        "serving.tier_stale_share": _ratio(tiers.count(ServingTier.STALE), len(tiers)),
        "serving.fallback_calls": len(tracer.select("serving.fallback")),
        "serving.fallback_s": tracer.total("serving.fallback"),
        "serving.burst_size_mean": _ratio(sum(s.size for s in serve_many),
                                          len(serve_many)),
        "cluster.self_s": tracer.self_total("cluster"),
        "cluster.shed": routing.get("shed", 0),
        "cluster.overflow": routing.get("overflow", 0),
        "cluster.failover": routing.get("failover", 0),
        "cluster.retried": routing.get("retries", 0),
        "cluster.peak_shard_share": _ratio(max(lookups), sum(lookups))
        if routing else 0.0,
        "eval.s": eval_s,
        "eval.users": (context.eval_metrics or {}).get("num_users", 0)
        if eval_s else 0,
        "pipeline.self_s": tracer.self_total("pipeline"),
        "harness.queue_wait_p99_ms": percentile(harness.waits_s, 99) * 1000.0
        if harness is not None else 0.0,
        "harness.bursts": harness.bursts if harness is not None else 0,
        "trace.overhead_ratio": busy_ratio,
    }
    return {name: (float(value), PER_LAYER_UNITS[name])
            for name, value in values.items()}


RUNNERS = {"train": run_train, "serve_hot": run_serve_hot}
