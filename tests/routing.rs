//! Routing-tier properties, end to end: placement parity with static
//! hashing (same per-tenant walk multiset for deterministic workloads),
//! bounded migration under oscillating load (hysteresis + dwell), drained
//! shard classes never receiving queries, and the PR 4 sink-conservation
//! property extended to *mixed* accelerator/CPU fleets under routed
//! execution.

use ridgewalker_suite::accel::{Accelerator, AcceleratorConfig};
use ridgewalker_suite::algo::{BackendClass, PreparedGraph, QuerySet, WalkQuery, WalkSpec};
use ridgewalker_suite::graph::generators::{Dataset, ScaleFactor};
use ridgewalker_suite::rng::{RandomSource, SplitMix64};
use ridgewalker_suite::route::{
    AdaptiveConfig, AdaptivePolicy, LeastLoadedPolicy, RoutePolicy, Router, StaticHashPolicy,
};
use ridgewalker_suite::service::{
    mixed_fleet_service, AccelShardMode, CompletedWalk, DynWalkBackend, ServiceConfig, ShardSpec,
    TenantId, WalkService,
};
use ridgewalker_suite::sink::CollectingSink;
use std::collections::HashMap;
use std::sync::Arc;

fn setup() -> (Arc<PreparedGraph>, WalkSpec) {
    let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
    let spec = WalkSpec::urw(12);
    (Arc::new(PreparedGraph::new(g, &spec).unwrap()), spec)
}

const CPU_SEED: u64 = 0x5EED_C0DE;

/// A 2-accel + 2-CPU fleet (the bench's shape, test-sized).
fn mixed(
    prepared: &Arc<PreparedGraph>,
    spec: &WalkSpec,
    mode: AccelShardMode,
) -> WalkService<DynWalkBackend> {
    let accel = Accelerator::new(AcceleratorConfig::new().pipelines(4).poll_quantum(128));
    let plan = [
        ShardSpec::Accel(mode),
        ShardSpec::Accel(mode),
        ShardSpec::Cpu {
            threads: 1,
            poll_chunk: 4,
        },
        ShardSpec::Cpu {
            threads: 1,
            poll_chunk: 4,
        },
    ];
    mixed_fleet_service(
        ServiceConfig::new(4)
            .max_batch(32)
            .max_delay_ticks(2)
            .sink_spill_capacity(48),
        &accel,
        prepared.clone(),
        spec,
        &plan,
        CPU_SEED,
    )
}

/// An all-CPU fleet whose shards share one seed, so a query's walk is
/// identical no matter which shard serves it — the "deterministic
/// workload" of the placement-parity property.
fn cpu_fleet(prepared: &Arc<PreparedGraph>, spec: &WalkSpec) -> WalkService<DynWalkBackend> {
    let accel = Accelerator::new(AcceleratorConfig::new().pipelines(2));
    let plan = [ShardSpec::Cpu {
        threads: 2,
        poll_chunk: 8,
    }; 3];
    mixed_fleet_service(
        ServiceConfig::new(3).max_batch(32).max_delay_ticks(2),
        &accel,
        prepared.clone(),
        spec,
        &plan,
        CPU_SEED,
    )
}

/// One step of a randomized but replayable schedule.
#[derive(Debug, Clone, Copy)]
enum Op {
    Submit { tenant: usize, count: usize },
    Tick,
}

fn random_schedule(seed: u64, tenants: usize, per_tenant: usize) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed);
    let mut remaining = vec![per_tenant; tenants];
    let mut ops = Vec::new();
    while remaining.iter().any(|&r| r > 0) {
        if rng.next_u64().is_multiple_of(2) {
            let t = (rng.next_u64() as usize) % tenants;
            if remaining[t] > 0 {
                let count = (1 + (rng.next_u64() as usize) % 24).min(remaining[t]);
                remaining[t] -= count;
                ops.push(Op::Submit { tenant: t, count });
            }
        } else {
            ops.push(Op::Tick);
        }
    }
    for _ in 0..4 {
        ops.push(Op::Tick);
    }
    ops
}

fn pools(nv: usize, tenants: &[TenantId], per_tenant: usize) -> Vec<(TenantId, Vec<WalkQuery>)> {
    tenants
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            (
                t,
                QuerySet::random(nv, per_tenant, 0xAB ^ i as u64)
                    .queries()
                    .to_vec(),
            )
        })
        .collect()
}

/// Replays `ops` through a router; `on_tick` consumes deliveries.
fn replay_router<P: RoutePolicy>(
    router: &mut Router<P>,
    ops: &[Op],
    pools: &[(TenantId, Vec<WalkQuery>)],
    on_tick: &mut dyn FnMut(&mut Router<P>),
) {
    let mut offsets = vec![0usize; pools.len()];
    for op in ops {
        match *op {
            Op::Submit { tenant, count } => {
                let (tid, pool) = &pools[tenant];
                let end = offsets[tenant] + count;
                while offsets[tenant] < end {
                    let taken = router.submit(*tid, &pool[offsets[tenant]..end]);
                    offsets[tenant] += taken;
                    if taken == 0 {
                        on_tick(router);
                    }
                }
            }
            Op::Tick => on_tick(router),
        }
    }
}

/// Per-tenant multiset of `(query id, walked vertices)` — the
/// placement-invariant payload (tick stamps legitimately differ between
/// placements).
fn walks_by_tenant(walks: &[CompletedWalk]) -> HashMap<TenantId, Vec<(u64, Vec<u32>)>> {
    let mut map: HashMap<TenantId, Vec<(u64, Vec<u32>)>> = HashMap::new();
    for w in walks {
        map.entry(w.tenant)
            .or_default()
            .push((w.path.query, w.path.vertices.clone()));
    }
    for group in map.values_mut() {
        group.sort();
    }
    map
}

/// Full per-tenant multiset including tick stamps, for the conservation
/// property (identical schedule + identical placements ⇒ identical
/// stamps).
fn by_tenant(walks: Vec<CompletedWalk>) -> HashMap<TenantId, Vec<CompletedWalk>> {
    let mut map: HashMap<TenantId, Vec<CompletedWalk>> = HashMap::new();
    for w in walks {
        map.entry(w.tenant).or_default().push(w);
    }
    for group in map.values_mut() {
        group.sort_by(|a, b| {
            (a.path.query, &a.path.vertices, a.arrival_tick).cmp(&(
                b.path.query,
                &b.path.vertices,
                b.arrival_tick,
            ))
        });
    }
    map
}

/// Property (a): on a deterministic workload (same-seed CPU shards), any
/// placement policy delivers the exact per-tenant walk multiset static
/// vertex-hashing delivers — routing moves *where* a walk executes,
/// never *what* it computes.
#[test]
fn routed_execution_matches_static_hash_walk_multisets() {
    let (prepared, spec) = setup();
    let nv = prepared.graph().vertex_count();
    let tenants = [TenantId(1), TenantId(2), TenantId(33)];
    let per_tenant = 100;
    let pools = pools(nv, &tenants, per_tenant);

    for sched_seed in [0x11u64, 0x12] {
        let ops = random_schedule(sched_seed, tenants.len(), per_tenant);

        // Baseline: the service's own static hashing, no router.
        let mut baseline_svc = cpu_fleet(&prepared, &spec);
        let mut baseline: Vec<CompletedWalk> = Vec::new();
        {
            let mut offsets = vec![0usize; pools.len()];
            for op in &ops {
                match *op {
                    Op::Submit { tenant, count } => {
                        let (tid, pool) = &pools[tenant];
                        let end = offsets[tenant] + count;
                        while offsets[tenant] < end {
                            let taken = baseline_svc.submit(*tid, &pool[offsets[tenant]..end]);
                            offsets[tenant] += taken;
                            if taken == 0 {
                                baseline.extend(baseline_svc.tick());
                            }
                        }
                    }
                    Op::Tick => baseline.extend(baseline_svc.tick()),
                }
            }
        }
        baseline.extend(baseline_svc.drain());
        assert_eq!(baseline.len(), tenants.len() * per_tenant);
        let want = walks_by_tenant(&baseline);

        let policies: Vec<(&str, Box<dyn RoutePolicy + Send>)> = vec![
            ("static-hash", Box::new(StaticHashPolicy)),
            ("least-loaded", Box::new(LeastLoadedPolicy)),
            (
                "adaptive",
                Box::new(AdaptivePolicy::new(AdaptiveConfig {
                    min_dwell_ticks: 4,
                    ..AdaptiveConfig::default()
                })),
            ),
        ];
        for (name, policy) in policies {
            let mut router = Router::new(cpu_fleet(&prepared, &spec), policy);
            let mut got: Vec<CompletedWalk> = Vec::new();
            replay_router(&mut router, &ops, &pools, &mut |r| got.extend(r.tick()));
            got.extend(router.drain());
            assert_eq!(
                got.len(),
                tenants.len() * per_tenant,
                "{name}/{sched_seed:#x}: every query answered exactly once"
            );
            assert_eq!(
                walks_by_tenant(&got),
                want,
                "{name}/{sched_seed:#x}: placement must not change walk content"
            );
        }
    }
}

/// Property (b): under load that oscillates every tick, the dwell clock
/// bounds migrations to at most one per tenant per `min_dwell_ticks`
/// window (plus the staggered slack), while a dwell-free JSQ policy flaps
/// orders of magnitude more.
#[test]
fn hysteresis_bounds_migrations_under_oscillating_load() {
    let (prepared, spec) = setup();
    let nv = prepared.graph().vertex_count();
    let tenant = TenantId(7);
    let queries = QuerySet::random(nv, 2_000, 3);
    let noise_queries = QuerySet::random(nv, 4_000, 4);

    // A slow fleet (4 q/tick/shard) so the injected antiphase bursts
    // actually pile up and flip the least-loaded ranking every tick.
    let slow_fleet = || {
        let accel = Accelerator::new(AcceleratorConfig::new().pipelines(2));
        let plan = [ShardSpec::Cpu {
            threads: 2,
            poll_chunk: 2,
        }; 2];
        mixed_fleet_service(
            ServiceConfig::new(2).max_batch(16).max_delay_ticks(1),
            &accel,
            prepared.clone(),
            &spec,
            &plan,
            CPU_SEED,
        )
    };

    let min_dwell = 32u64;
    let ticks = 400u64;
    let run = |policy: Box<dyn RoutePolicy + Send>| -> u64 {
        let mut router = Router::new(slow_fleet(), policy);
        let mut qi = 0;
        let mut ni = 0;
        for tick in 0..ticks {
            // Antiphase noise injected *around* the policy: every tick
            // the burst lands on the other shard, so whichever shard the
            // probe tenant sits on looks wrong a tick later.
            let burst = &noise_queries.queries()[ni..(ni + 8).min(noise_queries.queries().len())];
            ni += burst.len();
            let _ = router
                .service_mut()
                .submit_routed(TenantId(100), burst, (tick % 2) as usize);
            let probe = &queries.queries()[qi..(qi + 3).min(queries.queries().len())];
            qi += probe.len();
            let _ = router.submit(tenant, probe);
            let _ = router.tick();
        }
        let _ = router.drain();
        router.migrations()
    };

    let adaptive_migrations = run(Box::new(AdaptivePolicy::new(AdaptiveConfig {
        min_dwell_ticks: min_dwell,
        ..AdaptiveConfig::default()
    })));
    let jsq_migrations = run(Box::new(LeastLoadedPolicy));

    // One bound tenant, allowed one move per (staggered ≥ min_dwell)
    // window; the initial free bind is not a migration.
    let bound = ticks / min_dwell + 1;
    assert!(
        adaptive_migrations <= bound,
        "dwell must bound flapping: {adaptive_migrations} migrations > {bound} over {ticks} ticks"
    );
    assert!(
        jsq_migrations > bound * 4,
        "sanity: dwell-free JSQ ({jsq_migrations}) must flap far more than the dwell bound ({bound})"
    );
}

/// Property (c): a drained shard class stops receiving queries — at the
/// placement boundary, under every policy — while the fleet keeps
/// serving and tenants bound to the drained class migrate off it.
#[test]
fn drained_shard_class_never_receives_queries() {
    let (prepared, spec) = setup();
    let nv = prepared.graph().vertex_count();
    let qs = QuerySet::random(nv, 900, 6);
    let policies: Vec<(&str, Box<dyn RoutePolicy + Send>)> = vec![
        ("static-hash", Box::new(StaticHashPolicy)),
        ("least-loaded", Box::new(LeastLoadedPolicy)),
        (
            "adaptive",
            Box::new(AdaptivePolicy::new(AdaptiveConfig {
                min_dwell_ticks: 4,
                ..AdaptiveConfig::default()
            })),
        ),
    ];
    for (name, policy) in policies {
        let service = mixed(&prepared, &spec, AccelShardMode::Incremental);
        let mut router = Router::new(service, policy);
        // Warm traffic across the whole fleet.
        for chunk in qs.queries()[..300].chunks(25) {
            assert_eq!(router.submit(TenantId(1), chunk), 25, "{name}");
            let _ = router.tick();
        }
        assert_eq!(router.drain_class(BackendClass::Accelerator), 2, "{name}");
        let accel_before: Vec<u64> = router
            .shard_snapshots()
            .iter()
            .filter(|s| s.class == BackendClass::Accelerator)
            .map(|s| s.submitted)
            .collect();
        // Keep submitting; the drained class must stay frozen.
        for chunk in qs.queries()[300..].chunks(25) {
            assert_eq!(router.submit(TenantId(1), chunk), 25, "{name}");
            let _ = router.tick();
        }
        let done = router.drain();
        let accel_after: Vec<u64> = router
            .shard_snapshots()
            .iter()
            .filter(|s| s.class == BackendClass::Accelerator)
            .map(|s| s.submitted)
            .collect();
        assert_eq!(
            accel_before, accel_after,
            "{name}: drained accelerator shards received queries"
        );
        let cpu_routed: u64 = router
            .shard_snapshots()
            .iter()
            .filter(|s| s.class == BackendClass::Cpu)
            .map(|s| s.submitted)
            .sum();
        assert_eq!(cpu_routed + accel_after.iter().sum::<u64>(), 900, "{name}");
        assert!(done.len() <= 900, "{name}");
        assert_eq!(router.queue_depth(), 0, "{name}: fleet ran dry");
        if name != "static-hash" {
            let bound = router.binding(TenantId(1)).expect("tenant bound");
            assert_eq!(
                router.shard_snapshots()[bound].class,
                BackendClass::Cpu,
                "{name}: tenant must have migrated off the drained class"
            );
        }
    }
}

/// PR 4's conservation property on a *mixed* fleet under routed
/// execution: streaming the deliveries of a routed run into a
/// backpressuring sink yields the exact per-tenant `CompletedWalk`
/// multiset the identical routed run yields through legacy `tick`/
/// `drain` — for both accelerator shard modes, under static hashing and
/// both load-aware policies.
#[test]
fn routed_mixed_fleet_sink_delivery_conserves_every_walk() {
    let (prepared, spec) = setup();
    let nv = prepared.graph().vertex_count();
    let tenants = [TenantId(3), TenantId(9)];
    let per_tenant = 110;
    let pools = pools(nv, &tenants, per_tenant);

    let make_policy = |which: usize| -> Box<dyn RoutePolicy + Send> {
        match which {
            0 => Box::new(LeastLoadedPolicy),
            1 => Box::new(AdaptivePolicy::new(AdaptiveConfig {
                min_dwell_ticks: 8,
                ..AdaptiveConfig::default()
            })),
            _ => Box::new(StaticHashPolicy),
        }
    };

    for mode in [AccelShardMode::Batch, AccelShardMode::Incremental] {
        for which in 0..3 {
            let ops = random_schedule(0x3C ^ which as u64, tenants.len(), per_tenant);

            // Legacy consumption of the routed run.
            let mut legacy_router = Router::new(mixed(&prepared, &spec, mode), make_policy(which));
            let mut legacy: Vec<CompletedWalk> = Vec::new();
            replay_router(&mut legacy_router, &ops, &pools, &mut |r| {
                legacy.extend(r.tick());
            });
            legacy.extend(legacy_router.drain());

            // Streaming consumption of the identical routed run, through
            // a backpressuring 32-walk window (the spill path must be
            // exercised for conservation to mean anything).
            let mut sink_router = Router::new(mixed(&prepared, &spec, mode), make_policy(which));
            let mut sink = CollectingSink::unbounded().capacity(32);
            replay_router(&mut sink_router, &ops, &pools, &mut |r| {
                r.tick_into(&mut sink);
            });
            sink_router.drain_into(&mut sink);
            let stats = sink_router.stats();
            let sunk = sink.into_walks();

            assert_eq!(
                legacy.len(),
                tenants.len() * per_tenant,
                "{mode:?}/{which}: routed legacy path must answer everything"
            );
            assert_eq!(
                by_tenant(legacy),
                by_tenant(sunk),
                "{mode:?}/{which}: per-tenant multisets must match exactly"
            );
            assert_eq!(stats.completed, (tenants.len() * per_tenant) as u64);
            assert_eq!(stats.sink_accepted, (tenants.len() * per_tenant) as u64);
            assert_eq!(stats.sink_spill_depth, 0, "{mode:?}/{which}: spill ran dry");
            // Per-tenant attribution survives routing.
            assert_eq!(stats.per_tenant.len(), tenants.len());
            for t in &stats.per_tenant {
                assert_eq!(t.completed, per_tenant as u64, "{mode:?}/{which}");
            }
        }
    }
}

/// PR 8's elastic-fleet property: once [`Router::begin_retire`] marks
/// the tail shard ineligible, that shard's `submitted` counter never
/// advances again — drain-in-place means *no* new queries, not merely
/// fewer — while the rest of the fleet keeps serving; the retirement
/// completes only once the victim runs dry; and the whole stream is
/// conserved across the scale-down. Holds at the placement boundary
/// under every policy.
#[test]
fn retiring_shard_never_receives_queries_after_drain_begins() {
    let (prepared, spec) = setup();
    let nv = prepared.graph().vertex_count();
    let qs = QuerySet::random(nv, 600, 0x7E71);
    let policies: Vec<(&str, Box<dyn RoutePolicy + Send>)> = vec![
        ("static-hash", Box::new(StaticHashPolicy)),
        ("least-loaded", Box::new(LeastLoadedPolicy)),
        (
            "adaptive",
            Box::new(AdaptivePolicy::new(AdaptiveConfig {
                min_dwell_ticks: 4,
                ..AdaptiveConfig::default()
            })),
        ),
    ];
    for (name, policy) in policies {
        let mut router = Router::new(cpu_fleet(&prepared, &spec), policy);
        let mut walks: Vec<CompletedWalk> = Vec::new();
        // Warm traffic across the whole fleet so the victim has real
        // backlog when the drain begins.
        for chunk in qs.queries()[..300].chunks(25) {
            assert_eq!(router.submit(TenantId(1), chunk), 25, "{name}");
            walks.extend(router.tick());
        }
        let victim = router.begin_retire().expect("live fleet > 1 shard");
        assert_eq!(victim, 2, "{name}: the tail shard is the victim");
        let frozen_at = router.shard_snapshots()[victim].submitted;
        // Retirement must not complete while traffic is still flowing
        // *and* the victim still has backlog — and the victim must stay
        // frozen at every step, not merely at the end.
        for chunk in qs.queries()[300..].chunks(25) {
            assert_eq!(router.submit(TenantId(1), chunk), 25, "{name}");
            walks.extend(router.tick());
            assert_eq!(
                router.shard_snapshots()[victim].submitted,
                frozen_at,
                "{name}: retiring shard received queries after drain began"
            );
        }
        // Drive the drain home: tick until the victim runs dry and the
        // retirement barrier fires.
        let mut spins = 0;
        let retired = loop {
            if let Some((shard, harvested)) = router.try_finish_retire() {
                break (shard, harvested);
            }
            walks.extend(router.tick());
            spins += 1;
            assert!(spins < 2000, "{name}: retirement never completed");
        };
        assert_eq!(retired.0, victim, "{name}");
        walks.extend(retired.1);
        walks.extend(router.drain());
        assert_eq!(
            router.shard_snapshots().len(),
            2,
            "{name}: the fleet shrank by one shard"
        );
        let routed: u64 = router.shard_snapshots().iter().map(|s| s.submitted).sum();
        assert_eq!(
            routed + frozen_at,
            600,
            "{name}: every query landed on a live shard or pre-dates the drain"
        );
        assert_eq!(
            walks.len(),
            600,
            "{name}: conservation across the scale-down"
        );
        assert_eq!(router.queue_depth(), 0, "{name}: fleet ran dry");
    }
}
