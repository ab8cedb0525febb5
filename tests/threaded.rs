//! Serving on a worker thread. `WalkService` and `Router` are `Send`
//! (backends and attached sinks are `Send` boxes), so an application may
//! build the runtime on one thread and own it on another. The property:
//! a service built here, moved onto a worker thread and driven there,
//! completes the same multiset of walks — per tenant, paths *and* tick
//! stamps included — as the same service driven on the calling thread,
//! under arbitrary schedules, scale events, both accelerator shard modes,
//! routed mixed fleets, and backpressuring sinks; and `finish()` under
//! load on the worker loses nothing and the thread joins.
//!
//! Like `tests/properties.rs`, randomness is hand-rolled (no `proptest`
//! in the container): many seeded cases per property, every case derived
//! from a fixed master seed, deterministic across runs.

use ridgewalker_suite::accel::{Accelerator, AcceleratorConfig};
use ridgewalker_suite::algo::{
    PreparedGraph, QuerySet, ReferenceBackend, WalkBackend, WalkQuery, WalkSpec,
};
use ridgewalker_suite::graph::generators::{Dataset, ScaleFactor};
use ridgewalker_suite::rng::{RandomSource, SplitMix64};
use ridgewalker_suite::route::{Router, StaticHashPolicy};
use ridgewalker_suite::service::{
    accelerator_service, mixed_fleet_service, AccelShardMode, CompletedWalk, ServiceConfig,
    ShardSpec, SinkAck, SinkReport, TenantId, WalkService, WalkSink,
};
use std::sync::Arc;
use std::thread;

/// The full identity of a completed walk — if any component differs
/// between the two threads, the property is broken.
type WalkKey = (u16, u64, u64, u64, u64, Vec<u32>);

fn keys(walks: Vec<CompletedWalk>) -> Vec<WalkKey> {
    let mut keys: Vec<WalkKey> = walks
        .into_iter()
        .map(|c| {
            (
                c.tenant.0,
                c.path.query,
                c.arrival_tick,
                c.flushed_tick,
                c.completed_tick,
                c.path.vertices,
            )
        })
        .collect();
    keys.sort();
    keys
}

/// Runs `drive` on the runtime `build` makes, once on the calling thread
/// and once after moving the freshly built runtime onto a worker thread,
/// and returns both results (calling thread first).
fn here_and_on_worker<T, R>(build: impl Fn() -> T, drive: impl Fn(T) -> R + Sync) -> (R, R)
where
    T: Send,
    R: Send,
{
    let here = drive(build());
    let runtime = build();
    let drive = &drive;
    let worker = thread::scope(|s| {
        s.spawn(move || drive(runtime))
            .join()
            .expect("worker thread panicked")
    });
    (here, worker)
}

/// One random drive schedule: interleaved submit chunks (rotating
/// tenants) and ticks, then finish. The schedule is derived entirely from
/// `seed`, never from service state.
fn drive_schedule<B: WalkBackend>(
    mut svc: WalkService<B>,
    queries: &[WalkQuery],
    seed: u64,
) -> (Vec<WalkKey>, u64, u64) {
    let mut rng = SplitMix64::new(seed);
    let mut walks = Vec::new();
    let mut offset = 0;
    while offset < queries.len() {
        if rng.next_bool(0.6) {
            let chunk = 1 + rng.next_below(48) as usize;
            let end = (offset + chunk).min(queries.len());
            let tenant = TenantId(1 + (rng.next_below(4)) as u16);
            let mut part = &queries[offset..end];
            while !part.is_empty() {
                let taken = svc.submit(tenant, part);
                part = &part[taken..];
                if taken == 0 {
                    walks.extend(svc.tick());
                }
            }
            offset = end;
        } else {
            walks.extend(svc.tick());
        }
    }
    for _ in 0..rng.next_below(4) {
        walks.extend(svc.tick());
    }
    let (rest, stats) = svc.finish();
    walks.extend(rest);
    (keys(walks), stats.completed, stats.steps)
}

#[test]
fn walk_multisets_match_across_random_schedules() {
    let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
    let spec = WalkSpec::urw(12);
    let p = Arc::new(PreparedGraph::new(g, &spec).unwrap());
    let nv = p.graph().vertex_count();
    for case in 0..12u64 {
        let qs = QuerySet::random(nv, 300, 0x5EED ^ case);
        let shards = 1 + (case % 4) as usize;
        let build = || {
            let p = p.clone();
            let spec = spec.clone();
            WalkService::new(
                ServiceConfig::new(shards)
                    .max_batch(16 + 8 * (case as usize % 3))
                    .buffer_capacity(512),
                move |shard| ReferenceBackend::new(p.clone(), spec.clone(), 0xD1CE ^ shard as u64),
            )
        };
        let (here, worker) = here_and_on_worker(build, |svc| {
            drive_schedule(svc, qs.queries(), 0xCA5E ^ case)
        });
        assert_eq!(here.0.len(), 300, "case {case}: stream conservation");
        assert_eq!(here.1, 300, "case {case}: stats.completed");
        assert_eq!(
            here, worker,
            "case {case} ({shards} shards): walk multisets (with tick stamps) must match"
        );
    }
}

/// The elastic form of the property: the random schedule interleaves
/// *scale events* — appends and drain-in-place retirements — with
/// submissions and ticks. The schedule, including the live-shard count
/// that decides whether a scale event is an append or a retire, is
/// derived purely from the seed and test-tracked state. Appended shards
/// get the same pure seed function of their index a fleet born at that
/// size would have used.
#[test]
fn walk_multisets_match_across_random_scale_schedules() {
    let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
    let spec = WalkSpec::urw(12);
    let p = Arc::new(PreparedGraph::new(g, &spec).unwrap());
    let nv = p.graph().vertex_count();
    const MAX_SHARDS: usize = 4;
    let make = |shard: usize| ReferenceBackend::new(p.clone(), spec.clone(), 0xD1CE ^ shard as u64);
    for case in 0..8u64 {
        let qs = QuerySet::random(nv, 260, 0x51CA ^ case);
        let build = || {
            WalkService::new(
                ServiceConfig::new(2).max_batch(16).buffer_capacity(512),
                make,
            )
        };
        let drive = |mut svc: WalkService<ReferenceBackend<Arc<PreparedGraph>>>| {
            let mut rng = SplitMix64::new(0xE1A5 ^ case);
            let mut walks = Vec::new();
            let mut offset = 0;
            // Test-tracked live count: the appended shard's index is the
            // count *before* the append.
            let mut live = 2usize;
            let mut scale_events = 0u32;
            while offset < qs.queries().len() {
                let roll = rng.next_below(10);
                if roll < 5 {
                    let chunk = 1 + rng.next_below(48) as usize;
                    let end = (offset + chunk).min(qs.queries().len());
                    let tenant = TenantId(1 + (rng.next_below(4)) as u16);
                    let mut part = &qs.queries()[offset..end];
                    while !part.is_empty() {
                        let taken = svc.submit(tenant, part);
                        part = &part[taken..];
                        if taken == 0 {
                            walks.extend(svc.tick());
                        }
                    }
                    offset = end;
                } else if roll < 8 {
                    walks.extend(svc.tick());
                } else if rng.next_bool(0.5) && live < MAX_SHARDS {
                    let shard = svc.append_shard(make(live));
                    assert_eq!(shard, live, "append index must equal live count");
                    live += 1;
                    scale_events += 1;
                } else if live > 1 {
                    walks.extend(svc.retire_shard());
                    live -= 1;
                    scale_events += 1;
                }
            }
            if scale_events == 0 {
                // A seed whose rolls never drew a scale event still must
                // exercise the property: force one append/retire pair.
                assert_eq!(svc.append_shard(make(live)), live);
                walks.extend(svc.retire_shard());
                scale_events = 2;
            }
            for _ in 0..rng.next_below(4) {
                walks.extend(svc.tick());
            }
            let (rest, stats) = svc.finish();
            walks.extend(rest);
            (keys(walks), stats.completed, stats.steps, scale_events)
        };
        let (here, worker) = here_and_on_worker(build, drive);
        assert_eq!(here.0.len(), 260, "case {case}: stream conservation");
        assert_eq!(here.1, 260, "case {case}: stats.completed");
        assert!(
            here.3 > 0,
            "case {case}: the schedule must actually exercise scale events"
        );
        assert_eq!(
            here, worker,
            "case {case}: walk multisets (with tick stamps) must match across scale events"
        );
    }
}

#[test]
fn parity_holds_for_both_accelerator_shard_modes() {
    let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
    let spec = WalkSpec::ppr(16);
    let p = Arc::new(PreparedGraph::new(g, &spec).unwrap());
    let qs = QuerySet::random(p.graph().vertex_count(), 400, 31);
    let accel = Accelerator::new(AcceleratorConfig::new().pipelines(4).seed(7));
    for shard_mode in [AccelShardMode::Batch, AccelShardMode::Incremental] {
        let build = || {
            accelerator_service(
                ServiceConfig::new(2).max_batch(64).buffer_capacity(512),
                &accel,
                p.clone(),
                &spec,
                shard_mode,
            )
        };
        let (here, worker) =
            here_and_on_worker(build, |svc| drive_schedule(svc, qs.queries(), 0xACCE1));
        assert_eq!(here.1, 400, "{shard_mode:?}: conservation");
        assert_eq!(here, worker, "{shard_mode:?}: accelerator fleet parity");
    }
}

#[test]
fn routed_mixed_fleet_matches_across_drivers() {
    let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
    let spec = WalkSpec::urw(12);
    let p = Arc::new(PreparedGraph::new(g, &spec).unwrap());
    let qs = QuerySet::random(p.graph().vertex_count(), 480, 17);
    let accel = Accelerator::new(AcceleratorConfig::new().pipelines(4).seed(5));
    let plan = [
        ShardSpec::Accel(AccelShardMode::Incremental),
        ShardSpec::Accel(AccelShardMode::Incremental),
        ShardSpec::Cpu {
            threads: 1,
            poll_chunk: 4,
        },
        ShardSpec::Cpu {
            threads: 1,
            poll_chunk: 4,
        },
    ];
    // The whole router — service, policy and routing state — is what
    // moves to the worker thread; the thread that drives it must not
    // change a single placement or completion.
    let build = || {
        let svc = mixed_fleet_service(
            ServiceConfig::new(4).max_batch(32).buffer_capacity(1024),
            &accel,
            p.clone(),
            &spec,
            &plan,
            0xC0FFEE,
        );
        Router::new(svc, StaticHashPolicy)
    };
    let drive = |mut router: Router<StaticHashPolicy>| {
        let mut walks = Vec::new();
        let mut offset = 0;
        while offset < qs.queries().len() {
            let end = (offset + 40).min(qs.queries().len());
            let tenant = TenantId(1 + (offset / 40 % 3) as u16);
            let mut part = &qs.queries()[offset..end];
            while !part.is_empty() {
                let taken = router.submit(tenant, part);
                part = &part[taken..];
                if taken == 0 {
                    walks.extend(router.tick());
                }
            }
            offset = end;
        }
        let migrations = router.migrations();
        let (rest, stats) = router.finish();
        walks.extend(rest);
        (keys(walks), stats.completed, stats.steps, migrations)
    };
    let (here, worker) = here_and_on_worker(build, drive);
    assert_eq!(here.0.len(), 480, "routed stream conservation");
    assert_eq!(here.1, 480, "routed stats.completed");
    assert_eq!(
        here, worker,
        "routed mixed-fleet parity across driving threads"
    );
}

/// A sink that accepts at most `window` walks between flushes — the
/// backpressure pattern of a bounded downstream consumer. It moves to the
/// worker thread with the service, so it is plain owned state (`Send`
/// comes for free).
struct GatedSink {
    window: usize,
    since_flush: usize,
    accepted: u64,
    refused: u64,
    flushes: u64,
}

impl WalkSink for GatedSink {
    fn accept(&mut self, _walk: &CompletedWalk) -> SinkAck {
        if self.since_flush >= self.window {
            self.refused += 1;
            return SinkAck::Backpressured;
        }
        self.since_flush += 1;
        self.accepted += 1;
        SinkAck::Accepted
    }

    fn flush(&mut self) {
        self.since_flush = 0;
        self.flushes += 1;
    }

    fn report(&self) -> SinkReport {
        SinkReport {
            accepted: self.accepted,
            refused: self.refused,
            flushes: self.flushes,
            ..SinkReport::default()
        }
    }
}

#[test]
fn backpressuring_sinks_on_worker_threads_conserve_every_walk() {
    let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
    let spec = WalkSpec::urw(10);
    let p = Arc::new(PreparedGraph::new(g, &spec).unwrap());
    let qs = QuerySet::random(p.graph().vertex_count(), 600, 23);
    // The sink is attached on the calling thread and travels to the
    // worker inside the service; a tiny window forces refusals, spills
    // and forced flushes on the worker thread itself.
    let build = || {
        let p = p.clone();
        let spec = spec.clone();
        let mut svc = WalkService::new(
            ServiceConfig::new(3).max_batch(32).buffer_capacity(1024),
            move |shard| ReferenceBackend::new(p.clone(), spec.clone(), 0xD1CE ^ shard as u64),
        );
        svc.attach_sink(Box::new(GatedSink {
            window: 7,
            since_flush: 0,
            accepted: 0,
            refused: 0,
            flushes: 0,
        }));
        svc
    };
    let drive = |mut svc: WalkService<ReferenceBackend<Arc<PreparedGraph>>>| {
        assert_eq!(svc.submit(TenantId(1), qs.queries()), 600);
        for _ in 0..3 {
            // Sunk walks never come back through tick().
            assert!(svc.tick().is_empty());
        }
        let report = svc.sink_report().expect("a sink is attached");
        let (rest, stats) = svc.finish();
        assert!(rest.is_empty(), "every walk was delivered to the sink");
        (report.accepted, stats)
    };
    let (here, worker) = here_and_on_worker(build, drive);
    for (who, (accepted_by_tick_three, stats)) in [("calling thread", &here), ("worker", &worker)] {
        assert!(*accepted_by_tick_three <= 600, "{who}: sink over-accepted");
        assert_eq!(
            stats.completed, 600,
            "{who}: conservation through backpressure"
        );
        assert_eq!(stats.sink_accepted, 600, "{who}");
        assert!(
            stats.sink_backpressured > 0,
            "{who}: the 7-walk window must actually push back"
        );
        assert!(stats.sink_forced_flushes > 0, "{who}");
    }
    assert_eq!(here.0, worker.0, "same sink progress on either thread");
    assert_eq!(here.1.sink_backpressured, worker.1.sink_backpressured);
    assert_eq!(here.1.steps, worker.1.steps);
}

#[test]
fn shutdown_under_load_joins_cleanly_and_loses_nothing() {
    let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
    let spec = WalkSpec::urw(14);
    let p = Arc::new(PreparedGraph::new(g, &spec).unwrap());
    let nv = p.graph().vertex_count();
    for case in 0..6u64 {
        let qs = QuerySet::random(nv, 350, 0xDEAD ^ case);
        let p2 = p.clone();
        let spec2 = spec.clone();
        let svc = WalkService::new(
            ServiceConfig::new(2 + (case % 3) as usize)
                .max_batch(24)
                .buffer_capacity(512),
            move |shard| ReferenceBackend::new(p2.clone(), spec2.clone(), case ^ shard as u64),
        );
        // Load the service up on the worker, tick a few times (or not at
        // all), then finish immediately — everything accepted must come
        // out, and the worker must return.
        let queries = qs.queries().to_vec();
        let worker = thread::spawn(move || {
            let mut svc = svc;
            let accepted = svc.submit(TenantId(9), &queries);
            let mut walks = Vec::new();
            for _ in 0..case {
                walks.extend(svc.tick());
            }
            let queued_at_finish = svc.queue_depth();
            let (rest, stats) = svc.finish();
            walks.extend(rest);
            (accepted, queued_at_finish, walks.len(), stats)
        });
        let (accepted, queued_at_finish, delivered, stats) =
            worker.join().expect("worker thread joins cleanly");
        assert_eq!(accepted, 350);
        if case == 0 {
            assert!(queued_at_finish > 0, "finish() must run with work queued");
        }
        assert_eq!(stats.completed, 350, "case {case}: finish loses nothing");
        assert_eq!(stats.submitted, 350);
        assert_eq!(
            delivered, 350,
            "case {case}: every accepted walk surfaces by shutdown"
        );
    }
}
