"""The single command-line entry point: ``python -m repro <command>``.

Commands
--------
``run``
    Execute the full pipeline (data → kg → embed → cggnn → train → eval →
    serve-check) for a profile or a JSON :class:`~repro.pipeline.RunConfig`,
    persisting every stage into ``--out``.  Re-running with the same
    configuration skips completed stages via their fingerprints.
``train``
    Like ``run`` but stops after the ``train`` stage (no eval/serve-check).
``eval``
    Evaluate a persisted (or freshly trained) stack under the paper's
    ranking protocol and print the metrics.
``serve-demo``
    Boot a :class:`repro.serving.RecommendationService` — from ``--artifacts``
    when given, training otherwise — and push warm-up + burst traffic through
    it, printing the telemetry snapshot.
``simulate``
    Replay a seeded synthetic workload (``repro.simulate``) against the
    serving stack and verify the answers with the correctness oracles.
    ``--shards N --replicas R`` serves through a :mod:`repro.cluster`
    topology instead of a single service, ``--fail-shard K`` injects a
    deterministic boot-time shard failure, and the replay runs in virtual
    time by default, so the same ``--seed`` reproduces the identical result
    signature bit for bit.  ``--live-ingest N`` turns on the live-update
    loop (``repro.live``): scheduled mid-trace ingestion bursts, a
    warm-start refresh and a zero-downtime generation swap, verified by the
    cross-generation oracle; add ``--expect-no-shed`` to fail the run if
    any request was shed.  ``--autoscale --min-shards A --max-shards B``
    resizes the cluster mid-replay from shed/queue signals at virtual-time
    ticks (``repro.cluster.Autoscaler``), verified by the scaling oracle.
    ``--faults PLAN.json`` (or ``--chaos-seed N`` for a seeded random plan)
    runs the fault-injection plane (``repro.faults``): a fault-free baseline
    replay of the identical stack first, then the faulted replay with
    per-shard circuit breakers, bounded retries and the fault ledger,
    audited by the fault-tolerance oracle — every request answered, every
    divergent answer carrying ledger-explained ``fault`` provenance.
    ``--scenario NAME|SPEC.json`` reshapes the generated trace through a
    :mod:`repro.scenarios` pipeline (flash crowds, cache busters,
    shard-targeted hot keys, …), and ``--save-trace``/``--trace`` round-trip
    the final trace to disk for bit-identical replay elsewhere.
``explore``
    Sweep scenarios × cluster configs (``repro.scenarios.Explorer``): k
    seeded episodes per cell through the replay driver and the oracle
    battery, aggregated into a deterministic comparison matrix (same seed ⇒
    bit-identical matrix signature; exit 1 on any oracle mismatch).
``experiments``
    Run the paper's tables/figures.
``lint``
    Run the AST-based invariant linter (``repro.analysis``) over the given
    paths: seeded-RNG injection (DET001), no wall-clock reads outside the
    timing allowlist (CLK001), NaN-not-0.0 undefined measurements (NAN001),
    mutable defaults (MUT001), overbroad excepts (EXC001) and set-iteration
    hazards in signature code (SIG001).  Exit 0 clean, 1 findings, 2 usage.
``bench``
    Run the seeded performance benchmarks (``repro.perf``): TransE epochs/s,
    DARL rollouts/s and beam-search serving QPS (cold & warm), each measured
    against the frozen scalar reference in the same run.  Writes
    ``BENCH_<timestamp>.json`` and fails on regressions vs the committed
    baseline.

Examples
--------
::

    python -m repro run --profile smoke --out artifacts/smoke
    python -m repro eval --artifacts artifacts/smoke
    python -m repro serve-demo --artifacts artifacts/smoke
    python -m repro simulate --artifacts artifacts/smoke --requests 500
    python -m repro simulate --shards 4 --replicas 2 --fail-shard 1 --seed 7
    python -m repro simulate --shards 4 --live-ingest 25 --expect-no-shed
    python -m repro simulate --autoscale --min-shards 2 --max-shards 6 --max-queue 8
    python -m repro simulate --shards 4 --faults examples/fault_plans/latency_storm.json
    python -m repro simulate --shards 4 --chaos-seed 11 --live-ingest 25
    python -m repro simulate --scenario cache-buster --save-trace /tmp/trace.json
    python -m repro simulate --trace /tmp/trace.json --shards 4
    python -m repro explore --scenario flash-crowd --scenario hot-shard --shards 1 --shards 4
    python -m repro experiments --profile smoke --only table1 fig5
    python -m repro bench --profile smoke --out benchmarks
    python -m repro lint src/ tests/ --format json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from .analysis.cli import add_lint_arguments, run_lint_command
from .pipeline import Pipeline, PipelineError, PipelineResult, RunConfig, load_pipeline


# --------------------------------------------------------------------------- #
# shared plumbing
# --------------------------------------------------------------------------- #
def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile", default="smoke", choices=("smoke", "paper"),
                        help="canonical configuration preset (default: smoke)")
    parser.add_argument("--dataset", default="beauty",
                        help="dataset preset name (default: beauty)")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed for model and split (default: 0)")
    parser.add_argument("--config", type=Path, default=None, metavar="FILE",
                        help="JSON RunConfig file; overrides --profile/--dataset/--seed")


def _resolve_config(arguments: argparse.Namespace) -> RunConfig:
    if arguments.config is not None:
        return RunConfig.load(arguments.config)
    return RunConfig.from_profile(arguments.profile, dataset=arguments.dataset,
                                  seed=arguments.seed)


def _run_pipeline(arguments: argparse.Namespace,
                  until: Optional[Sequence[str]] = None) -> PipelineResult:
    config = _resolve_config(arguments)
    out = getattr(arguments, "out", None)
    force = getattr(arguments, "force", False)
    pipeline = Pipeline(config, store=out, force=force)
    start = time.perf_counter()
    result = pipeline.run(until=until)
    elapsed = time.perf_counter() - start
    print(f"pipeline finished in {elapsed:.1f}s"
          + (f" (artifacts: {result.artifacts_dir})" if result.artifacts_dir else ""))
    print(result.summary())
    return result


def _result_for_serving(arguments: argparse.Namespace) -> PipelineResult:
    """A trained stack: loaded from ``--artifacts`` if given, else trained."""
    artifacts = getattr(arguments, "artifacts", None)
    if artifacts is not None:
        result = load_pipeline(artifacts, until=("train",))
        print(f"loaded trained stack from {artifacts}")
        return result
    return _run_pipeline(arguments, until=("train",))


def _print_metrics(metrics: dict) -> None:
    print(json.dumps(metrics, indent=2, sort_keys=True, default=str))


def _prepare_workload(arguments: argparse.Namespace, service,
                      workload_seed: int):
    """The simulate trace, from whichever source the flags name.

    ``--trace PATH`` loads a previously saved trace (schema-checked);
    otherwise the trace is generated from the seeded config.  Either way an
    optional ``--scenario NAME|SPEC.json`` then reshapes it against the
    serving topology (the context carries the cluster's own hash ring), and
    ``--save-trace PATH`` persists the final trace for bit-identical replay
    elsewhere.  Shared by the plain and faulted simulate paths.
    """
    from .simulate import (UserPopulation, Workload, WorkloadConfig,
                           WorkloadSchemaError, generate_workload)

    population = UserPopulation.from_graph(service.graph)
    trace_path = getattr(arguments, "trace", None)
    if trace_path is not None:
        try:
            workload = Workload.load(trace_path)
        except WorkloadSchemaError as error:
            raise SystemExit(f"error: --trace {trace_path}: {error}")
        print(f"trace: loaded {len(workload)} requests from {trace_path} "
              f"(signature {workload.signature()[:16]}…)")
    else:
        workload = generate_workload(
            population,
            WorkloadConfig(num_requests=arguments.requests,
                           seed=workload_seed,
                           arrival=arguments.arrival),
            service.graph)
    scenario_name = getattr(arguments, "scenario", None)
    if scenario_name is not None:
        from .scenarios import ScenarioContext, ScenarioError, load_scenario

        try:
            scenario = load_scenario(scenario_name)
            workload = scenario.apply(workload, ScenarioContext(
                graph=service.graph, population=population,
                ring=getattr(service, "ring", None)))
        except ScenarioError as error:
            raise SystemExit(f"error: --scenario {scenario_name}: {error}")
        print(f"scenario: {scenario.name} "
              f"({len(scenario.transforms)} transforms, "
              f"signature {scenario.signature()[:16]}…)")
    save_path = getattr(arguments, "save_trace", None)
    if save_path is not None:
        save_path.parent.mkdir(parents=True, exist_ok=True)
        workload.save(save_path)
        print(f"trace: saved {len(workload)} requests to {save_path} "
              f"(signature {workload.signature()[:16]}…)")
    return population, workload


# --------------------------------------------------------------------------- #
# commands
# --------------------------------------------------------------------------- #
def _command_run(arguments: argparse.Namespace) -> int:
    until = tuple(arguments.stages) if arguments.stages else None
    result = _run_pipeline(arguments, until=until)
    if result.eval_metrics is not None:
        print("\neval metrics (%):")
        _print_metrics(result.eval_metrics["metrics"])
    if result.serve_report is not None:
        status = "ok" if result.serve_report["ok"] else "FAILED"
        print(f"serve-check: {status} "
              f"({result.serve_report['checked_users']} users)")
    return 0


def _command_train(arguments: argparse.Namespace) -> int:
    _run_pipeline(arguments, until=("train",))
    return 0


def _command_eval(arguments: argparse.Namespace) -> int:
    if arguments.artifacts is not None:
        # Restore the stack from disk and compute eval only if its artifact is
        # missing.  The train stage must already be complete — an eval command
        # must never silently retrain — and the single Pipeline.run below
        # loads each cached stage exactly once.
        from .pipeline import ArtifactStore

        store = ArtifactStore(arguments.artifacts)
        if not store.config_path.exists():
            raise PipelineError(f"{store.root} has no config.json; "
                                "not a pipeline artifact directory")
        config = RunConfig.load(store.config_path)
        if not store.is_complete("train", config.stage_fingerprints()["train"]):
            raise PipelineError(f"{store.root} does not hold a complete trained "
                                "stack for its config.json; run "
                                "`python -m repro train` first")
        result = Pipeline(config, store=store).run(until=("eval",))
    else:
        result = _run_pipeline(arguments, until=("eval",))
    print("\neval metrics (%):")
    _print_metrics(result.eval_metrics["metrics"])
    print(f"evaluated users: {result.eval_metrics['num_users']}")
    return 0


def _command_serve_demo(arguments: argparse.Namespace) -> int:
    result = _result_for_serving(arguments)
    service = result.service()
    builder = result.context.builder
    audience = [builder.user_to_entity(user)
                for user in range(min(arguments.users, result.dataset.num_users))]

    start = time.perf_counter()
    service.warm_up(audience, top_k=arguments.top_k)
    print(f"warm-up of {len(audience)} users: {time.perf_counter() - start:.2f}s")

    burst = service.build_requests(audience * 3, top_k=arguments.top_k)
    start = time.perf_counter()
    responses = service.serve_many(burst)
    elapsed = time.perf_counter() - start
    hits = sum(response.cache_hit for response in responses)
    print(f"burst of {len(burst)} requests: {elapsed * 1000:.1f}ms "
          f"({hits} cache hits, {len(burst) / max(elapsed, 1e-9):.0f} QPS)")

    print("\ntelemetry snapshot:")
    _print_metrics(service.telemetry_snapshot())
    return 0


def _command_simulate_faults(arguments: argparse.Namespace) -> int:
    """The ``simulate --faults/--chaos-seed`` path: clean twin, then chaos.

    Two identically-built clustered stacks replay the same workload: the
    first fault-free (the baseline the standard oracle battery verifies),
    the second with the :class:`repro.faults.FaultInjector` installed.  The
    fault-tolerance oracle then audits the faulted records against the
    baseline and the fault ledger.
    """
    import dataclasses
    import tempfile

    from .cluster import CircuitBreaker, ClusterConfig
    from .faults import FaultInjector, FaultPlan, ShardDownFault, chaos_plan
    from .simulate import (
        ReplayDriver,
        TraceClock,
        render_report,
        run_fault_oracles,
        run_live_oracles,
        run_oracles,
        summarize,
    )

    if arguments.faults is not None and arguments.chaos_seed is not None:
        raise SystemExit("error: pass --faults PLAN.json or --chaos-seed N, "
                         "not both")
    if arguments.wall_clock:
        raise SystemExit("error: fault replays are virtual-time only "
                         "(the injector and breakers run on the trace "
                         "clock); drop --wall-clock")
    if arguments.autoscale:
        raise SystemExit("error: --faults/--chaos-seed cannot be combined "
                         "with --autoscale yet")

    result = _result_for_serving(arguments)
    config = result.config
    live = bool(arguments.live_ingest)

    # Fault replays always run the cluster path (breakers and failover live
    # in the router); a 1-shard cluster is legal but has nowhere to fail over.
    shards = (arguments.shards if arguments.shards is not None
              else config.cluster.num_shards)
    if arguments.replicas is not None:
        replicas = arguments.replicas
    elif arguments.shards is None:
        replicas = config.cluster.replication_factor
    else:
        replicas = min(2, shards)
    failed_shards = tuple(arguments.fail_shard or ())
    bad = [shard for shard in failed_shards if not 0 <= shard < shards]
    if bad:
        raise SystemExit(f"error: --fail-shard {bad} outside the "
                         f"{shards}-shard topology")
    workload_seed = (arguments.workload_seed
                     if arguments.workload_seed is not None
                     else arguments.seed)

    cluster_config = ClusterConfig(
        num_shards=shards,
        replication_factor=min(replicas, shards),
        virtual_nodes=config.cluster.virtual_nodes,
        max_queue_per_shard=(arguments.max_queue
                             if arguments.max_queue is not None
                             else config.cluster.max_queue_per_shard),
        seed=config.cluster.seed)

    def build_stack():
        clock = TraceClock()
        kwargs = {"clock": clock}
        if arguments.cache_capacity is not None:
            kwargs["serving_config"] = dataclasses.replace(
                config.serving, cache_capacity=arguments.cache_capacity)
        breaker = CircuitBreaker(clock)
        service = result.cluster_service(cluster_config=cluster_config,
                                         breaker=breaker, **kwargs)
        return clock, service

    clock, service = build_stack()
    population, workload = _prepare_workload(arguments, service, workload_seed)
    print(f"workload: {len(workload)} requests over {workload.duration_s:.2f}s "
          f"of trace time, seed {workload_seed} "
          f"(signature {workload.signature()[:16]}…)")

    if arguments.faults is not None:
        plan = FaultPlan.load(arguments.faults).resolve(workload.duration_s)
        origin = str(arguments.faults)
    else:
        plan = chaos_plan(arguments.chaos_seed, num_shards=shards,
                          duration_s=workload.duration_s,
                          include_live=live)
        origin = f"chaos seed {arguments.chaos_seed}"
    if failed_shards:
        # --fail-shard in fault mode is just a one-event plan entry: a
        # permanent shard-down window starting at t=0 on the injector.
        plan = FaultPlan(events=plan.events + tuple(
            ShardDownFault(at_s=0.0, shard_id=shard)
            for shard in failed_shards))
    print(f"fault plan: {len(plan.events)} events from {origin} "
          f"(signature {plan.signature()[:16]}…)")
    print(f"cluster: {shards} shards × {cluster_config.replication_factor} "
          f"replicas, circuit breakers on, "
          f"{cluster_config.max_retries} retries per request")

    workdir = Path(tempfile.mkdtemp(prefix="repro-faults-")) if live else None

    def build_session(stack_service, stack_clock, injector, name):
        if not live:
            return None
        from .live import (
            GenerationBundle,
            IngestEvent,
            LiveSession,
            RefreshConfig,
            SwapEvent,
        )
        from .pipeline.artifacts import ArtifactStore

        duration = workload.duration_s
        schedule = [IngestEvent(at_s=fraction * duration,
                                count=arguments.live_ingest,
                                seed=workload_seed + offset)
                    for offset, fraction in
                    enumerate(arguments.ingest_at or [0.35])]
        schedule += [SwapEvent(at_s=fraction * duration)
                     for fraction in (arguments.swap_at or [0.6])]
        root = workdir / name
        root.mkdir(parents=True, exist_ok=True)
        return LiveSession(
            stack_service, GenerationBundle.from_pipeline(result),
            clock=stack_clock,
            refresh_config=RefreshConfig(
                transe_epochs=arguments.refresh_epochs,
                cggnn_epochs=max(1, arguments.refresh_epochs // 2),
                seed=workload_seed),
            schedule=schedule,
            store=ArtifactStore(root / "store"),
            injector=injector,
            log_path=root / "updates.jsonl")

    # ---- pass 1: the fault-free twin (the oracle baseline) ------------- #
    baseline_session = build_session(service, clock, None, "baseline")
    baseline_replay = ReplayDriver(baseline_session or service,
                                   clock=clock).replay(workload)
    if baseline_session is not None:
        baseline_reports = run_live_oracles(
            baseline_session, baseline_replay.records,
            full_search_sample=arguments.oracle_sample, seed=0)
    else:
        baseline_reports = run_oracles(
            service, baseline_replay.records,
            full_search_sample=arguments.oracle_sample, seed=0)
    print(f"baseline replay     {len(baseline_replay.records)} answered, "
          f"signature {baseline_replay.signature()[:32]}…")

    # ---- pass 2: the same stack with the fault plan installed ---------- #
    fault_clock, fault_service = build_stack()
    injector = FaultInjector(plan, fault_clock)
    injector.install(fault_service)
    fault_session = build_session(fault_service, fault_clock, injector,
                                  "faulted")
    fault_replay = ReplayDriver(fault_session or fault_service,
                                clock=fault_clock).replay(workload)
    reports = baseline_reports + run_fault_oracles(
        fault_replay.records, baseline_replay.records, injector.ledger)

    summary = summarize(fault_replay, reports)
    summary["workload_seed"] = workload_seed
    summary["replay_signature"] = fault_replay.signature()
    summary["baseline_signature"] = baseline_replay.signature()
    snapshot = fault_service.telemetry_snapshot()
    for key in ("routing", "admission", "health", "topology"):
        summary[key] = snapshot[key]
    if "breaker" in snapshot:
        summary["breaker"] = snapshot["breaker"]
    if fault_session is not None:
        summary["live"] = fault_session.telemetry_snapshot()["live"]
    ledger = injector.ledger
    faulted_answers = sum(1 for record in fault_replay.records
                          if record.fault is not None)
    summary["faults"] = {
        "plan_signature": plan.signature(),
        "plan_events": len(plan.events),
        "ledger_entries": len(ledger),
        "ledger_signature": ledger.signature(),
        "ledger_kinds": {kind: ledger.count(kind) for kind in ledger.kinds()},
        "answered": len(fault_replay.records),
        "faulted_answers": faulted_answers,
    }
    print()
    print(render_report(summary))
    routing = summary["routing"]
    print("routing             "
          + "  ".join(f"{key}={routing[key]}"
                      for key in ("primary", "failover", "overflow", "shed",
                                  "retries", "faulted")))
    if "breaker" in summary:
        print("breaker             "
              + "  ".join(f"{shard}={state}"
                          for shard, state in sorted(summary["breaker"].items())))
    print(f"fault ledger        {len(ledger)} entries: "
          + "  ".join(f"{kind}={ledger.count(kind)}"
                      for kind in ledger.kinds()))
    print(f"faulted answers     {faulted_answers} of "
          f"{len(fault_replay.records)} carry fault provenance")
    print(f"replay signature    {fault_replay.signature()[:32]}…")
    if arguments.summary_json is not None:
        arguments.summary_json.parent.mkdir(parents=True, exist_ok=True)
        arguments.summary_json.write_text(
            json.dumps(summary, indent=2, sort_keys=True, default=str) + "\n")
        print(f"wrote summary to {arguments.summary_json}")
    failed = [report for report in reports if not report.ok]
    for report in failed:
        print(f"ORACLE FAILED: {report.summary()}")
        for finding in report.findings[:10]:
            print(f"  {finding}")
    return 1 if failed else 0


def _command_simulate(arguments: argparse.Namespace) -> int:
    from .simulate import (
        ReplayDriver,
        TraceClock,
        render_report,
        run_oracles,
        summarize,
    )

    if arguments.faults is not None or arguments.chaos_seed is not None:
        return _command_simulate_faults(arguments)

    result = _result_for_serving(arguments)
    config = result.config

    live = bool(arguments.live_ingest)
    if live and arguments.wall_clock:
        raise SystemExit("error: --live-ingest replays run in virtual time; "
                         "drop --wall-clock")
    autoscale = bool(arguments.autoscale)
    if autoscale and arguments.wall_clock:
        raise SystemExit("error: --autoscale decisions are evaluated at "
                         "virtual-time ticks; drop --wall-clock")
    if autoscale and live:
        raise SystemExit("error: --autoscale cannot be combined with "
                         "--live-ingest (one resharding actor per replay)")
    if autoscale and arguments.fail_shard:
        raise SystemExit("error: --autoscale cannot be combined with "
                         "--fail-shard yet")
    min_shards = arguments.min_shards if arguments.min_shards is not None else 2
    max_shards = arguments.max_shards if arguments.max_shards is not None else 6
    if autoscale and min_shards > max_shards:
        raise SystemExit(f"error: --min-shards {min_shards} exceeds "
                         f"--max-shards {max_shards}")

    # Topology: CLI flags override the run's persisted cluster spec.
    if autoscale:
        # The autoscaled cluster boots at its floor (or an explicit --shards
        # within the range) and earns its capacity from the trace.
        shards = arguments.shards if arguments.shards is not None else min_shards
        if not min_shards <= shards <= max_shards:
            raise SystemExit(f"error: --shards {shards} outside the autoscale "
                             f"range [{min_shards}, {max_shards}]")
    else:
        shards = (arguments.shards if arguments.shards is not None
                  else config.cluster.num_shards)
    failed_shards = tuple(arguments.fail_shard or ())
    if failed_shards:
        bad = [shard for shard in failed_shards if not 0 <= shard < shards]
        if bad:
            raise SystemExit(
                f"error: --fail-shard {bad} outside the {shards}-shard "
                f"topology; pass --shards N with N > {max(failed_shards)}")
        if set(failed_shards) >= set(range(shards)):
            raise SystemExit(
                "error: --fail-shard would take every shard down; "
                "leave at least one healthy (or raise --shards)")
    # Live generation swaps flip shards through the cluster facade, so a
    # live replay always runs the cluster path (a 1-shard cluster is fine);
    # autoscaling needs the cluster facade to reshard at all.
    clustered = shards > 1 or bool(failed_shards) or live or autoscale
    if arguments.replicas is not None:
        replicas = arguments.replicas
    elif arguments.shards is None:
        replicas = config.cluster.replication_factor
    else:
        replicas = min(2, shards)

    # Virtual time (default) pins the replay to the trace's timeline, so the
    # whole run — tier choices, failover, the result signature — is a pure
    # function of the seeds; --wall-clock opts into real latencies instead.
    clock = None if arguments.wall_clock else TraceClock()
    service_kwargs = {"clock": clock} if clock is not None else {}
    if arguments.cache_capacity is not None:
        import dataclasses

        service_kwargs["serving_config"] = dataclasses.replace(
            config.serving, cache_capacity=arguments.cache_capacity)
    if clustered:
        from .cluster import ClusterConfig

        cluster_config = ClusterConfig(
            num_shards=shards,
            replication_factor=min(replicas, shards),
            virtual_nodes=config.cluster.virtual_nodes,
            max_queue_per_shard=(arguments.max_queue if arguments.max_queue
                                 is not None
                                 else config.cluster.max_queue_per_shard),
            seed=config.cluster.seed,
            failed_shards=failed_shards)
        service = result.cluster_service(cluster_config=cluster_config,
                                         **service_kwargs)
        print(f"cluster: {shards} shards × {cluster_config.replication_factor} "
              f"replicas"
              + (f", failed at boot: {sorted(failed_shards)}" if failed_shards
                 else ""))
    else:
        service = result.service(**service_kwargs)

    # An explicit --workload-seed wins; otherwise the master --seed drives
    # workload generation too, so one flag reproduces the entire replay.
    workload_seed = (arguments.workload_seed if arguments.workload_seed is not None
                     else arguments.seed)
    population, workload = _prepare_workload(arguments, service, workload_seed)
    print(f"workload: {len(workload)} requests over {workload.duration_s:.2f}s "
          f"of trace time, seed {workload_seed} "
          f"(signature {workload.signature()[:16]}…)")

    autoscaler = None
    if autoscale:
        from .cluster import AutoscaleConfig, Autoscaler

        tick = (arguments.scale_tick if arguments.scale_tick is not None
                else max(workload.duration_s / 40.0, 1e-3))
        autoscaler = Autoscaler(
            service,
            AutoscaleConfig(min_shards=min_shards, max_shards=max_shards,
                            tick_interval_s=tick, seed=workload_seed),
            clock=clock)
        print(f"autoscale: [{min_shards}, {max_shards}] shards, "
              f"tick {tick:.3f}s of trace time, seed {workload_seed}")

    session = None
    if live:
        from .live import (
            GenerationBundle,
            IngestEvent,
            LiveSession,
            RefreshConfig,
            SwapEvent,
        )

        duration = workload.duration_s
        schedule = [IngestEvent(at_s=fraction * duration,
                                count=arguments.live_ingest,
                                seed=workload_seed + offset)
                    for offset, fraction in
                    enumerate(arguments.ingest_at or [0.35])]
        schedule += [SwapEvent(at_s=fraction * duration)
                     for fraction in (arguments.swap_at or [0.6])]
        session = LiveSession(
            service, GenerationBundle.from_pipeline(result), clock=clock,
            refresh_config=RefreshConfig(
                transe_epochs=arguments.refresh_epochs,
                cggnn_epochs=max(1, arguments.refresh_epochs // 2),
                seed=workload_seed),
            schedule=schedule)
        print(f"live: {len(schedule)} scheduled events "
              f"({arguments.live_ingest} deltas per ingest, "
              f"{arguments.refresh_epochs}-epoch warm refresh)")

    replay = ReplayDriver(session or autoscaler or service,
                          clock=clock).replay(workload)
    if session is not None:
        from .simulate import run_live_oracles

        reports = run_live_oracles(session, replay.records,
                                   full_search_sample=arguments.oracle_sample,
                                   seed=0)
    elif autoscaler is not None:
        from .simulate import run_autoscale_oracles

        reports = run_autoscale_oracles(autoscaler, replay.records,
                                        full_search_sample=arguments.oracle_sample,
                                        seed=0)
    else:
        reports = run_oracles(service, replay.records,
                              full_search_sample=arguments.oracle_sample, seed=0)
    summary = summarize(replay, reports)
    summary["workload_seed"] = workload_seed
    summary["replay_signature"] = replay.signature()
    if clustered:
        snapshot = service.telemetry_snapshot()
        summary["routing"] = snapshot["routing"]
        summary["admission"] = snapshot["admission"]
        summary["health"] = snapshot["health"]
        summary["topology"] = snapshot["topology"]
    if session is not None:
        live_snapshot = session.telemetry_snapshot()["live"]
        summary["live"] = live_snapshot
    if autoscaler is not None:
        summary["autoscale"] = autoscaler.autoscale_snapshot()
    print()
    print(render_report(summary))
    if clustered:
        routing = summary["routing"]
        print(f"routing             "
              + "  ".join(f"{key}={routing[key]}"
                          for key in ("primary", "failover", "overflow", "shed")))
    if session is not None:
        generations = {}
        for record in replay.records:
            generations[record.generation] = generations.get(record.generation, 0) + 1
        summary["live"]["records_by_generation"] = {
            str(generation): count
            for generation, count in sorted(generations.items())}
        print(f"live                generation={live_snapshot['generation']}  "
              + "  ".join(f"gen{generation}={count}"
                          for generation, count in sorted(generations.items())))
        for swap in live_snapshot["swaps"]:
            print(f"  swap → gen {swap['generation']}: "
                  f"flipped shards {swap['flip_order']}, "
                  f"{swap['invalidated_entries']} cache entries invalidated "
                  f"({swap['preserved_entries']} preserved), "
                  f"{swap['touched_entities']} entities touched")
    if autoscaler is not None:
        scaling = summary["autoscale"]
        print(f"autoscale           shards={scaling['current_shards']} "
              f"(started {scaling['initial_shards']})  "
              f"ups={scaling['scale_ups']}  downs={scaling['scale_downs']}  "
              f"shard_ticks={scaling['shard_ticks']}  "
              f"migrated={scaling['migrated_entries']}")
        for event in autoscaler.events:
            print(f"  t={event.at_s:7.2f}s scale-{event.action}: "
                  f"{event.from_shards} → {event.to_shards} shards "
                  f"(shard {event.shard_id}, {event.reason}, "
                  f"{event.migrated_entries} entries migrated)")
    print(f"replay signature    {replay.signature()[:32]}…")
    if arguments.expect_no_shed:
        shed = sum(record.shed for record in replay.records)
        if shed:
            print(f"SHED CHECK FAILED: {shed} of {len(replay.records)} "
                  f"requests were shed", file=sys.stderr)
            return 1
        print(f"shed check ok       0 of {len(replay.records)} requests shed")
    if arguments.summary_json is not None:
        arguments.summary_json.parent.mkdir(parents=True, exist_ok=True)
        arguments.summary_json.write_text(
            json.dumps(summary, indent=2, sort_keys=True, default=str) + "\n")
        print(f"wrote summary to {arguments.summary_json}")
    failed = [report for report in reports if not report.ok]
    for report in failed:
        print(f"ORACLE FAILED: {report.summary()}")
    return 1 if failed else 0


def _command_explore(arguments: argparse.Namespace) -> int:
    """Sweep scenarios × cluster configs: k seeded episodes per cell.

    Every episode builds a fresh virtual-time cluster from the trained
    stack, generates a seeded trace, reshapes it through the scenario,
    replays it and runs the oracle battery; the cells aggregate into a
    deterministic comparison matrix (same seeds ⇒ bit-identical
    ``signature``).  Exit 1 if any oracle found a mismatch or any request
    went unanswered.
    """
    import dataclasses

    from .scenarios import (ClusterSpec, Explorer, ExplorerConfig,
                            ScenarioError, load_scenario, render_matrix,
                            scenario_names)
    from .simulate import UserPopulation, WorkloadConfig

    result = _result_for_serving(arguments)
    config = result.config

    try:
        scenarios = [load_scenario(name)
                     for name in (arguments.scenario
                                  or ["baseline", "flash-crowd", "hot-shard"])]
    except ScenarioError as error:
        raise SystemExit(f"error: {error}")
    specs = []
    for shards in (arguments.shards or [1, 4]):
        if shards <= 0:
            raise SystemExit(f"error: --shards {shards} must be positive")
        replicas = min(arguments.replicas, shards)
        specs.append(ClusterSpec(
            name=f"{shards}-shard",
            num_shards=shards,
            replication_factor=replicas,
            virtual_nodes=config.cluster.virtual_nodes,
            max_queue_per_shard=(arguments.max_queue
                                 if arguments.max_queue is not None
                                 else config.cluster.max_queue_per_shard),
            seed=config.cluster.seed))

    service_kwargs = {}
    if arguments.cache_capacity is not None:
        service_kwargs["serving_config"] = dataclasses.replace(
            config.serving, cache_capacity=arguments.cache_capacity)

    def make_service(cluster_config, clock):
        return result.cluster_service(cluster_config=cluster_config,
                                      clock=clock, **service_kwargs)

    explorer = Explorer(
        make_service,
        population=UserPopulation.from_graph(result.graph),
        graph=result.graph,
        config=ExplorerConfig(
            episodes=arguments.episodes,
            seed=arguments.seed,
            workload=WorkloadConfig(num_requests=arguments.requests,
                                    seed=0,
                                    arrival=arguments.arrival),
            full_search_sample=arguments.oracle_sample))
    print(f"explore: {len(scenarios)} scenarios × {len(specs)} cluster "
          f"configs × {arguments.episodes} episodes "
          f"({arguments.requests} requests each, seed {arguments.seed}; "
          f"registry: {', '.join(scenario_names())})")
    matrix = explorer.run(scenarios, specs,
                          progress=lambda line: print(f"  {line}"))
    print()
    print(render_matrix(matrix))
    if arguments.matrix_json is not None:
        arguments.matrix_json.parent.mkdir(parents=True, exist_ok=True)
        payload = matrix.to_dict()
        payload["signature"] = matrix.signature()
        arguments.matrix_json.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote matrix to {arguments.matrix_json}")
    mismatches = matrix.total_oracle_mismatches()
    if mismatches:
        print(f"ORACLE FAILED: {mismatches} mismatches across the matrix",
              file=sys.stderr)
        return 1
    if not matrix.all_answered():
        print("ANSWER CHECK FAILED: some requests went unanswered",
              file=sys.stderr)
        return 1
    return 0


def _command_bench(arguments: argparse.Namespace) -> int:
    from .perf import (
        compare_with_baseline,
        default_baseline_path,
        load_baseline,
        render_report,
        run_bench,
        write_bench_json,
    )

    document = run_bench(arguments.profile, artifacts=arguments.artifacts)
    path = write_bench_json(document, arguments.out)
    print(render_report(document))
    print(f"\nwrote {path}")

    baseline_path = arguments.baseline or default_baseline_path(arguments.profile)
    baseline_path = Path(baseline_path)
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; regression gate skipped")
        return 0
    regressions = compare_with_baseline(document, load_baseline(baseline_path),
                                        threshold=arguments.threshold)
    if regressions:
        print(f"\nREGRESSIONS vs {baseline_path} "
              f"(threshold {arguments.threshold:.0%}):", file=sys.stderr)
        for regression in regressions:
            print(f"  {regression.describe()}", file=sys.stderr)
        return 3
    print(f"regression gate ok vs {baseline_path} "
          f"(threshold {arguments.threshold:.0%})")
    return 0


def _command_experiments(arguments: argparse.Namespace) -> int:
    from .experiments import EXPERIMENTS

    selected = arguments.only or list(EXPERIMENTS)
    for key in selected:
        if key not in EXPERIMENTS:
            raise SystemExit(f"unknown experiment {key!r}; "
                             f"choose from {sorted(EXPERIMENTS)}")
    for key in selected:
        module = EXPERIMENTS[key]
        print(f"\n===== {key} =====")
        start = time.perf_counter()
        result = module.run(profile=arguments.profile)
        print(module.report(result))
        print(f"[{key} finished in {time.perf_counter() - start:.1f}s]")
    return 0


# --------------------------------------------------------------------------- #
# parser
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Unified CLI over the CADRL reproduction: pipeline runs, "
                    "artifact persistence, serving and simulation.")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run the full pipeline (train + eval + serve-check)")
    _add_config_arguments(run)
    run.add_argument("--out", type=Path, default=None, metavar="DIR",
                     help="artifact directory (enables fingerprint caching)")
    run.add_argument("--force", action="store_true",
                     help="recompute every stage even when cached")
    run.add_argument("--stages", nargs="*", default=None,
                     help="target stages (dependencies are pulled in automatically)")
    run.set_defaults(handler=_command_run)

    train = commands.add_parser("train", help="run the pipeline up to the train stage")
    _add_config_arguments(train)
    train.add_argument("--out", type=Path, default=None, metavar="DIR")
    train.add_argument("--force", action="store_true")
    train.set_defaults(handler=_command_train)

    evaluate = commands.add_parser("eval", help="ranking metrics of a trained stack")
    _add_config_arguments(evaluate)
    evaluate.add_argument("--artifacts", type=Path, default=None, metavar="DIR",
                          help="persisted pipeline directory to evaluate")
    evaluate.set_defaults(handler=_command_eval)

    serve = commands.add_parser("serve-demo",
                                help="boot the serving facade and push demo traffic")
    _add_config_arguments(serve)
    serve.add_argument("--artifacts", type=Path, default=None, metavar="DIR",
                       help="boot from a persisted pipeline instead of training")
    serve.add_argument("--users", type=int, default=20,
                       help="audience size for warm-up/burst traffic (default: 20)")
    serve.add_argument("--top-k", type=int, default=5, dest="top_k")
    serve.set_defaults(handler=_command_serve_demo)

    simulate = commands.add_parser("simulate",
                                   help="replay a seeded workload with correctness oracles")
    _add_config_arguments(simulate)
    simulate.add_argument("--artifacts", type=Path, default=None, metavar="DIR")
    simulate.add_argument("--requests", type=int, default=500)
    simulate.add_argument("--workload-seed", type=int, default=None,
                          dest="workload_seed",
                          help="workload generation seed (default: --seed, so "
                               "one flag reproduces the whole replay)")
    simulate.add_argument("--arrival", default="bursty",
                          choices=("uniform", "poisson", "bursty"))
    simulate.add_argument("--oracle-sample", type=int, default=50, dest="oracle_sample")
    simulate.add_argument("--shards", type=int, default=None, metavar="N",
                          help="serve through an N-shard cluster "
                               "(default: the run config's cluster spec)")
    simulate.add_argument("--replicas", type=int, default=None, metavar="R",
                          help="replication factor (default: min(2, N) when "
                               "--shards is given)")
    simulate.add_argument("--faults", type=Path, default=None,
                          metavar="PLAN.json",
                          help="fault-injection plan (repro.faults schema); "
                               "replays a fault-free baseline first and "
                               "audits the faulted replay against it")
    simulate.add_argument("--chaos-seed", type=int, default=None,
                          dest="chaos_seed", metavar="N",
                          help="derive a seeded random fault plan instead of "
                               "loading one (repro.faults.chaos_plan)")
    simulate.add_argument("--fail-shard", type=int, action="append",
                          default=None, dest="fail_shard", metavar="K",
                          help="mark shard K DOWN at boot (repeatable) — "
                               "deterministic failover injection")
    simulate.add_argument("--autoscale", action="store_true",
                          help="resize the cluster at virtual-time ticks from "
                               "shed/queue signals (deterministic, seeded); "
                               "boots at --min-shards")
    simulate.add_argument("--min-shards", type=int, default=None,
                          dest="min_shards", metavar="N",
                          help="autoscale floor (default 2)")
    simulate.add_argument("--max-shards", type=int, default=None,
                          dest="max_shards", metavar="N",
                          help="autoscale ceiling (default 6)")
    simulate.add_argument("--scale-tick", type=float, default=None,
                          dest="scale_tick", metavar="SECONDS",
                          help="autoscale decision interval in trace seconds "
                               "(default: duration / 20)")
    simulate.add_argument("--max-queue", type=int, default=None,
                          dest="max_queue", metavar="N",
                          help="override the per-shard admission queue bound "
                               "(smaller = earlier shedding)")
    simulate.add_argument("--wall-clock", action="store_true",
                          help="measure real latencies instead of the "
                               "deterministic virtual-time replay")
    simulate.add_argument("--cache-capacity", type=int, default=None,
                          dest="cache_capacity", metavar="N",
                          help="override the per-service result-cache "
                               "capacity (cache-pressure experiments: each "
                               "shard owns its own cache of this size)")
    simulate.add_argument("--live-ingest", type=int, default=0,
                          dest="live_ingest", metavar="N",
                          help="enable live mode: synthesize N graph deltas "
                               "per scheduled ingest burst (0 = off)")
    simulate.add_argument("--ingest-at", type=float, action="append",
                          dest="ingest_at", metavar="FRAC",
                          help="fire an ingest burst at FRAC of the trace "
                               "duration (repeatable; default 0.35)")
    simulate.add_argument("--swap-at", type=float, action="append",
                          dest="swap_at", metavar="FRAC",
                          help="refresh and swap to the next artifact "
                               "generation at FRAC of the trace duration "
                               "(repeatable; default 0.6)")
    simulate.add_argument("--refresh-epochs", type=int, default=2,
                          dest="refresh_epochs", metavar="N",
                          help="warm-start TransE refresh epochs per "
                               "generation swap (default 2)")
    simulate.add_argument("--expect-no-shed", action="store_true",
                          dest="expect_no_shed",
                          help="exit non-zero if any request was shed "
                               "(the zero-downtime gate for live replays)")
    simulate.add_argument("--summary-json", type=Path, default=None,
                          dest="summary_json", metavar="FILE",
                          help="dump the machine-readable replay summary")
    simulate.add_argument("--scenario", default=None, metavar="NAME|SPEC.json",
                          help="reshape the workload through a scenario: a "
                               "registered name (repro.scenarios) or a JSON "
                               "spec file (see examples/scenarios/)")
    simulate.add_argument("--trace", type=Path, default=None, metavar="FILE",
                          help="replay a saved workload trace instead of "
                               "generating one (schema-checked)")
    simulate.add_argument("--save-trace", type=Path, default=None,
                          dest="save_trace", metavar="FILE",
                          help="save the final (possibly scenario-reshaped) "
                               "trace for bit-identical replay elsewhere")
    simulate.set_defaults(handler=_command_simulate)

    explore = commands.add_parser(
        "explore",
        help="sweep scenarios × cluster configs, k seeded episodes per cell")
    _add_config_arguments(explore)
    explore.add_argument("--artifacts", type=Path, default=None, metavar="DIR")
    explore.add_argument("--scenario", action="append", default=None,
                         metavar="NAME|SPEC.json",
                         help="scenario row of the matrix (repeatable; "
                              "default: baseline, flash-crowd, hot-shard)")
    explore.add_argument("--shards", type=int, action="append", default=None,
                         metavar="N",
                         help="cluster-config column with N shards "
                              "(repeatable; default: 1 and 4)")
    explore.add_argument("--replicas", type=int, default=2, metavar="R",
                         help="replication factor per column, capped at the "
                              "shard count (default: 2)")
    explore.add_argument("--episodes", type=int, default=3, metavar="K",
                         help="seeded episodes per cell (default: 3)")
    explore.add_argument("--requests", type=int, default=300,
                         help="requests per episode trace (default: 300)")
    explore.add_argument("--arrival", default="bursty",
                         choices=("uniform", "poisson", "bursty"))
    explore.add_argument("--max-queue", type=int, default=None,
                         dest="max_queue", metavar="N",
                         help="override the per-shard admission queue bound")
    explore.add_argument("--cache-capacity", type=int, default=None,
                         dest="cache_capacity", metavar="N",
                         help="override the per-service result-cache capacity")
    explore.add_argument("--oracle-sample", type=int, default=25,
                         dest="oracle_sample",
                         help="exact-replay oracle sample per episode "
                              "(default: 25)")
    explore.add_argument("--matrix-json", type=Path, default=None,
                         dest="matrix_json", metavar="FILE",
                         help="dump the comparison matrix (with its "
                              "signature) as JSON")
    explore.set_defaults(handler=_command_explore)

    bench = commands.add_parser("bench",
                                help="seeded performance benchmarks with a "
                                     "regression gate")
    bench.add_argument("--profile", default="medium", choices=("smoke", "medium"),
                       help="benchmark preset (default: medium)")
    bench.add_argument("--out", type=Path, default=Path("benchmarks"),
                       metavar="DIR", help="directory for BENCH_<timestamp>.json "
                                           "(default: benchmarks)")
    bench.add_argument("--artifacts", type=Path, default=None, metavar="DIR",
                       help="reuse a persisted pipeline instead of training "
                            "the bench stack")
    bench.add_argument("--baseline", type=Path, default=None, metavar="FILE",
                       help="baseline JSON to gate against (default: "
                            "benchmarks/bench_baseline_<profile>.json)")
    bench.add_argument("--threshold", type=float, default=0.30,
                       help="allowed fractional drop of gated speedups "
                            "(default: 0.30)")
    bench.set_defaults(handler=_command_bench)

    experiments = commands.add_parser("experiments",
                                      help="run the paper's tables and figures")
    experiments.add_argument("--profile", default="smoke", choices=("smoke", "paper"))
    experiments.add_argument("--only", nargs="*", default=None,
                             help="subset of experiment keys (e.g. table1 fig5)")
    experiments.set_defaults(handler=_command_experiments)

    lint = commands.add_parser("lint",
                               help="AST invariant linter over the repo's "
                                    "determinism/clock/NaN conventions")
    add_lint_arguments(lint)
    lint.set_defaults(handler=run_lint_command)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    arguments = build_parser().parse_args(argv)
    try:
        return arguments.handler(arguments)
    except PipelineError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
