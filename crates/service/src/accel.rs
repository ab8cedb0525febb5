//! Accelerator-backed shards, with the execution mode selected at runtime.
//!
//! The serving layer is generic over `B: WalkBackend`; this module picks
//! the cycle-level shard implementation per deployment instead of per
//! type: the detached micro-batch backend (one simulation per poll, pays
//! pipeline fill/drain at every batch boundary) or the incremental
//! backend (one persistent machine per shard, submissions join the
//! running pipeline). Both ship as `Box<dyn WalkBackend + Send>` shards,
//! so a fleet can even mix modes — or mix accelerator and CPU shards —
//! behind one `WalkService`.

use crate::{ServiceConfig, WalkService};
use grw_algo::{ParallelBackend, PreparedGraph, WalkBackend, WalkSpec};
use ridgewalker::Accelerator;
use std::sync::Arc;

/// How an accelerator shard executes its micro-batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccelShardMode {
    /// One detached cycle-level simulation per poll. Every micro-batch
    /// pays pipeline fill at its head and drain at its tail — the
    /// LightRW-style per-batch bubble cost.
    Batch,
    /// One persistent machine per shard; queries join the running
    /// pipeline at the next issue slot, so sustained load never re-pays
    /// fill/drain. Prefer this under continuous traffic.
    #[default]
    Incremental,
}

/// A runtime-selected shard backend.
pub type DynWalkBackend = Box<dyn WalkBackend + Send>;

/// The deterministic per-shard seed rule every fleet constructor uses:
/// shard `i`'s accelerator machine runs on `base_seed` decorrelated by a
/// golden-ratio multiple of the shard index. Elastic fleets reuse this
/// rule when growing — a shard appended at index `i` gets exactly the
/// seed it would have had in a fleet *born* with `i + 1` shards, so scale
/// events never change what any shard samples.
///
/// (CPU shards deliberately do **not** use this: they share one seed so
/// walk content is placement-invariant — see
/// [`mixed_fleet_service`].)
pub fn fleet_shard_seed(base_seed: u64, shard: usize) -> u64 {
    base_seed ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// What one shard of a heterogeneous fleet is made of.
///
/// A fleet plan is a `&[ShardSpec]`, one entry per shard — e.g. two
/// incremental accelerator shards fronted by two CPU overflow shards:
///
/// ```text
/// [Accel(Incremental), Accel(Incremental), Cpu{..}, Cpu{..}]
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardSpec {
    /// A cycle-level accelerator shard in the given execution mode.
    Accel(AccelShardMode),
    /// A software shard on `threads` worker threads. `poll_chunk` bounds
    /// the queries each worker executes per service tick, which sets the
    /// shard's tick-time service rate (`threads × poll_chunk` per tick) —
    /// the knob that makes CPU shards meaningfully slower (or faster)
    /// than accelerator shards in simulated time.
    Cpu {
        /// Worker threads.
        threads: usize,
        /// Queries each worker executes per poll.
        poll_chunk: usize,
    },
}

/// Builds a [`WalkService`] over a *heterogeneous* fleet: shard `i` is
/// whatever `plan[i]` says — accelerator shards (batch or incremental
/// mode, seeds decorrelated by shard index exactly like
/// [`accelerator_service`]) mixed with CPU [`ParallelBackend`] shards.
///
/// Every CPU shard uses the same `cpu_seed`: software backends key their
/// randomness by `(seed, query id)`, so a query's path is identical no
/// matter *which* CPU shard serves it — placement policies can move
/// tenants between CPU shards without changing walk output (the
/// multiset-parity property the routing tests pin down). Accelerator
/// shards stay decorrelated per shard, as in a homogeneous fleet.
///
/// # Panics
///
/// Panics if `plan.len() != cfg.shards`, if the plan is empty, or if a
/// CPU spec has zero threads or poll chunk.
pub fn mixed_fleet_service(
    cfg: ServiceConfig,
    accel: &Accelerator,
    prepared: Arc<PreparedGraph>,
    spec: &WalkSpec,
    plan: &[ShardSpec],
    cpu_seed: u64,
) -> WalkService<DynWalkBackend> {
    assert_eq!(
        plan.len(),
        cfg.shards,
        "fleet plan must name exactly one spec per shard"
    );
    let base = *accel.config();
    WalkService::new(cfg, |shard| {
        shard_backend_from(base, prepared.clone(), spec, plan[shard], shard, cpu_seed)
    })
}

/// The backend that shard `shard` receives in any fleet built from these
/// ingredients — the single-shard form of the fleet constructors, public
/// so elastic fleets can *append* shards after construction
/// ([`WalkService::append_shard`]) under the exact seed discipline a
/// fleet born at that size would have used: a shard appended at index
/// `i` is indistinguishable from one constructed at index `i`.
pub fn shard_backend(
    accel: &Accelerator,
    prepared: Arc<PreparedGraph>,
    spec: &WalkSpec,
    shard_spec: ShardSpec,
    shard: usize,
    cpu_seed: u64,
) -> DynWalkBackend {
    shard_backend_from(*accel.config(), prepared, spec, shard_spec, shard, cpu_seed)
}

fn shard_backend_from(
    base: ridgewalker::AcceleratorConfig,
    prepared: Arc<PreparedGraph>,
    spec: &WalkSpec,
    shard_spec: ShardSpec,
    shard: usize,
    cpu_seed: u64,
) -> DynWalkBackend {
    match shard_spec {
        ShardSpec::Accel(mode) => {
            let shard_accel = Accelerator::new(base.seed(fleet_shard_seed(base.seed, shard)));
            match mode {
                AccelShardMode::Batch => {
                    Box::new(shard_accel.backend(prepared, spec)) as DynWalkBackend
                }
                AccelShardMode::Incremental => {
                    Box::new(shard_accel.incremental_backend(prepared, spec))
                }
            }
        }
        ShardSpec::Cpu {
            threads,
            poll_chunk,
        } => Box::new(
            ParallelBackend::new(prepared, spec.clone(), cpu_seed, threads)
                .chunk_per_thread(poll_chunk),
        ) as DynWalkBackend,
    }
}

/// Builds a [`WalkService`] whose shards are accelerator instances in the
/// chosen execution `mode`, sharing one prepared graph. Each shard's
/// machine derives its randomness seed from the base configuration's seed
/// and the shard index, so shards are decorrelated but the whole service
/// stays deterministic for a fixed submission/tick sequence.
pub fn accelerator_service(
    cfg: ServiceConfig,
    accel: &Accelerator,
    prepared: Arc<PreparedGraph>,
    spec: &WalkSpec,
    mode: AccelShardMode,
) -> WalkService<DynWalkBackend> {
    // A homogeneous fleet is the all-accelerator special case of the
    // mixed constructor (the CPU seed is irrelevant — no CPU shards).
    let plan = vec![ShardSpec::Accel(mode); cfg.shards];
    mixed_fleet_service(cfg, accel, prepared, spec, &plan, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TenantId;
    use grw_algo::QuerySet;
    use grw_graph::generators::{Dataset, ScaleFactor};
    use ridgewalker::AcceleratorConfig;

    fn setup() -> (Arc<PreparedGraph>, WalkSpec) {
        let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
        let spec = WalkSpec::urw(10);
        (Arc::new(PreparedGraph::new(g, &spec).unwrap()), spec)
    }

    #[test]
    fn both_modes_answer_every_query_and_report_cycles() {
        let (prepared, spec) = setup();
        let accel = Accelerator::new(AcceleratorConfig::new().pipelines(2));
        for mode in [AccelShardMode::Batch, AccelShardMode::Incremental] {
            let mut svc = accelerator_service(
                ServiceConfig::new(2).max_batch(64),
                &accel,
                prepared.clone(),
                &spec,
                mode,
            );
            let qs = QuerySet::random(prepared.graph().vertex_count(), 500, 9);
            assert_eq!(svc.submit(TenantId(4), qs.queries()), 500, "{mode:?}");
            let done = svc.drain();
            assert_eq!(done.len(), 500, "{mode:?}");
            let stats = svc.stats();
            assert!(stats.simulated_cycles.unwrap() > 0, "{mode:?}");
            assert!(stats.msteps_per_sec_simulated.unwrap() > 0.0, "{mode:?}");
            assert!(stats.pipeline_bubble_ratio.is_some(), "{mode:?}");
            assert!(stats.pipeline_utilization.unwrap() > 0.0, "{mode:?}");
        }
    }

    #[test]
    fn mixed_fleet_serves_and_reports_per_shard_classes() {
        use grw_algo::BackendClass;
        let (prepared, spec) = setup();
        let accel = Accelerator::new(AcceleratorConfig::new().pipelines(2));
        let plan = [
            ShardSpec::Accel(AccelShardMode::Incremental),
            ShardSpec::Accel(AccelShardMode::Batch),
            ShardSpec::Cpu {
                threads: 2,
                poll_chunk: 8,
            },
        ];
        let mut svc = mixed_fleet_service(
            ServiceConfig::new(3).max_batch(32),
            &accel,
            prepared.clone(),
            &spec,
            &plan,
            0xC0FFEE,
        );
        let qs = QuerySet::random(prepared.graph().vertex_count(), 400, 5);
        assert_eq!(svc.submit(TenantId(2), qs.queries()), 400);
        let done = svc.drain();
        assert_eq!(done.len(), 400);
        let snaps = svc.shard_snapshots();
        assert_eq!(snaps.len(), 3);
        assert_eq!(snaps[0].class, BackendClass::Accelerator);
        assert_eq!(snaps[1].class, BackendClass::Accelerator);
        assert_eq!(snaps[2].class, BackendClass::Cpu);
        assert!(
            snaps[0].awaiting_injection.is_some(),
            "incremental shard reports its occupancy split"
        );
        for s in &snaps {
            assert_eq!(s.backlog(), 0, "drained fleet holds nothing");
            assert!(s.completed > 0, "hash spreads over every shard");
            assert!(s.ewma_latency_ticks.is_some());
            assert!(s.cost_hint > 0.0);
        }
        // A mixed fleet cannot merge cycle clocks (the CPU shard has
        // none), so simulated throughput is unavailable — by design.
        assert!(svc.stats().simulated_cycles.is_none());
    }

    #[test]
    fn submit_routed_pins_queries_to_the_chosen_shard() {
        let (prepared, spec) = setup();
        let accel = Accelerator::new(AcceleratorConfig::new().pipelines(2));
        let plan = [
            ShardSpec::Accel(AccelShardMode::Incremental),
            ShardSpec::Cpu {
                threads: 1,
                poll_chunk: 64,
            },
        ];
        let mut svc = mixed_fleet_service(
            ServiceConfig::new(2).max_batch(16),
            &accel,
            prepared.clone(),
            &spec,
            &plan,
            7,
        );
        let qs = QuerySet::random(prepared.graph().vertex_count(), 100, 8);
        assert_eq!(svc.submit_routed(TenantId(1), qs.queries(), 1), 100);
        assert_eq!(svc.drain().len(), 100);
        let snaps = svc.shard_snapshots();
        assert_eq!(snaps[0].submitted, 0, "nothing hashed to shard 0");
        assert_eq!(snaps[1].submitted, 100);
        assert_eq!(snaps[1].completed, 100);
        let stats = svc.stats();
        assert_eq!(stats.per_tenant.len(), 1);
        assert_eq!(stats.per_tenant[0].completed, 100);
    }

    #[test]
    fn incremental_service_is_deterministic_for_a_fixed_schedule() {
        let (prepared, spec) = setup();
        let accel = Accelerator::new(AcceleratorConfig::new().pipelines(2));
        let run = || {
            let mut svc = accelerator_service(
                ServiceConfig::new(2).max_batch(32).max_delay_ticks(1),
                &accel,
                prepared.clone(),
                &spec,
                AccelShardMode::Incremental,
            );
            let qs = QuerySet::random(prepared.graph().vertex_count(), 300, 2);
            let mut out = Vec::new();
            for chunk in qs.queries().chunks(50) {
                assert_eq!(svc.submit(TenantId(1), chunk), 50);
                out.extend(svc.tick());
            }
            out.extend(svc.drain());
            out.sort_by_key(|c| c.path.query);
            out
        };
        let a = run();
        let b = run();
        assert_eq!(a.len(), 300);
        assert_eq!(a, b);
    }
}
