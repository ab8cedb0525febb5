//! The streaming execution spine, end to end: `WalkBackend` determinism
//! against the legacy batch API, and the sharded multi-tenant
//! `WalkService` built on top of it.
//!
//! Randomized cases are hand-rolled like `tests/properties.rs`: every
//! case derives from a fixed seed, so runs are reproducible.

use ridgewalker_suite::accel::{Accelerator, AcceleratorConfig};
use ridgewalker_suite::algo::{
    run_streamed, ParallelBackend, ParallelEngine, PreparedGraph, QuerySet, ReferenceBackend,
    ReferenceEngine, WalkBackend, WalkEngine, WalkQuery, WalkSpec,
};
use ridgewalker_suite::graph::generators::{Dataset, ScaleFactor};
use ridgewalker_suite::rng::{RandomSource, SplitMix64};
use ridgewalker_suite::service::{
    accelerator_service, shard_backend, AccelShardMode, CompletedWalk, DynWalkBackend,
    ServiceConfig, ServiceStats, ShardSpec, TenantId, WalkService,
};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

#[test]
fn parallel_backend_submit_poll_is_bit_identical_to_legacy_run() {
    let g = Dataset::CitPatents.generate(ScaleFactor::Tiny);
    let spec = WalkSpec::urw(16);
    let p = PreparedGraph::new(g.clone(), &spec).unwrap();
    let qs = QuerySet::random(g.vertex_count(), 500, 7);
    let legacy = ParallelEngine::new(9, 4).run(&p, &spec, qs.queries());

    // Stream the same workload through the backend in adversarial little
    // pieces: tiny queue, odd chunking, interleaved submit/poll.
    let mut backend = ParallelBackend::new(&p, spec.clone(), 9, 4)
        .queue_capacity(37)
        .chunk_per_thread(5);
    let mut collected = Vec::new();
    let queries = qs.queries();
    let mut offset = 0;
    while offset < queries.len() {
        let end = (offset + 13).min(queries.len());
        let mut part = &queries[offset..end];
        while !part.is_empty() {
            let taken = backend.submit(part);
            part = &part[taken..];
            if taken == 0 {
                collected.extend(backend.poll());
            }
        }
        offset = end;
    }
    collected.extend(backend.drain());
    collected.sort_by_key(|w| w.query);
    assert_eq!(
        legacy, collected,
        "streaming must be bit-identical to run()"
    );

    // And the engine's own run() (now a shim over the backend) agrees with
    // the sequential reference.
    let reference = ReferenceEngine::new(9).run(&p, &spec, qs.queries());
    assert_eq!(legacy, reference);
}

#[test]
fn accelerator_backend_single_batch_matches_run() {
    let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
    let spec = WalkSpec::ppr(24);
    let p = PreparedGraph::new(g.clone(), &spec).unwrap();
    let qs = QuerySet::random(g.vertex_count(), 256, 1);
    let accel = Accelerator::new(AcceleratorConfig::new().pipelines(4).seed(3));
    let batch = accel.run(&p, &spec, qs.queries());
    let mut backend = accel.backend(&p, &spec);
    let streamed = run_streamed(&mut backend, qs.queries());
    assert_eq!(batch.paths, streamed);
    assert_eq!(backend.cumulative_report().cycles, batch.cycles);
}

#[test]
fn incremental_backend_survives_arbitrary_submit_poll_schedules() {
    use ridgewalker_suite::rng::{RandomSource, SplitMix64};

    let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
    let spec = WalkSpec::urw(14);
    let p = PreparedGraph::new(g.clone(), &spec).unwrap();
    let qs = QuerySet::random(g.vertex_count(), 400, 7);
    let accel = Accelerator::new(AcceleratorConfig::new().pipelines(4).seed(11));
    // Ground truth: the detached batch run over the whole stream. The
    // incremental machine keys each query's randomness by its submission
    // index, so *any* submit/poll interleaving that preserves submission
    // order must reproduce these exact paths.
    let baseline = accel.run(&p, &spec, qs.queries());

    for sched_seed in [0x11u64, 0x22, 0x33, 0x44, 0x55] {
        let mut rng = SplitMix64::new(sched_seed);
        let mut backend = accel
            .incremental_backend(&p, &spec)
            .queue_capacity(48)
            .poll_quantum(64);
        let queries = qs.queries();
        let mut offset = 0;
        let mut got = Vec::new();
        while offset < queries.len() {
            if rng.next_u64().is_multiple_of(2) {
                let k = 1 + (rng.next_u64() % 7) as usize;
                let end = (offset + k).min(queries.len());
                offset += backend.submit(&queries[offset..end]);
            } else {
                got.extend(backend.poll());
            }
        }
        got.extend(backend.drain());
        assert_eq!(backend.in_flight(), 0, "schedule {sched_seed:#x}");

        // No query lost, none duplicated.
        assert_eq!(got.len(), 400, "schedule {sched_seed:#x}");
        let mut ids: Vec<u64> = got.iter().map(|w| w.query).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 400, "duplicate ids under {sched_seed:#x}");

        // Bit-identical paths, independent of the schedule.
        got.sort_by_key(|w| w.query);
        assert_eq!(
            got, baseline.paths,
            "schedule {sched_seed:#x} changed walk contents"
        );
    }
}

#[test]
fn incremental_service_shards_beat_batch_shards_on_bubbles() {
    use ridgewalker_suite::bench::{run_serving_comparison, ServingWorkload};

    // The acceptance check at serving scale: the identical open-loop
    // stream through batch-mode and incremental-mode accelerator shards.
    let cmp = run_serving_comparison(ServingWorkload::smoke());
    assert_eq!(cmp.batch.completed, cmp.incremental.completed);
    assert!(cmp.batch.steps > 0 && cmp.incremental.steps > 0);
    assert!(
        cmp.incremental.bubble_ratio < cmp.batch.bubble_ratio,
        "incremental bubbles {:.4} must undercut batch {:.4}",
        cmp.incremental.bubble_ratio,
        cmp.batch.bubble_ratio
    );
    assert!(
        cmp.incremental.utilization > cmp.batch.utilization,
        "incremental util {:.4} vs batch {:.4}",
        cmp.incremental.utilization,
        cmp.batch.utilization
    );
    assert!(
        cmp.incremental.msteps_simulated > cmp.batch.msteps_simulated,
        "a fuller pipeline must also be a faster one"
    );
    // The CI perf record built from this comparison must stay parseable.
    let json = cmp.to_json();
    assert!(json.contains("\"bench\": \"serving\""), "{json}");
    assert!(json.contains("bubble_improvement"), "{json}");
    assert!(!json.contains("inf"), "non-finite ratio leaked: {json}");
}

#[test]
fn service_answers_every_query_exactly_once_and_routes_tenants() {
    let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
    let spec = WalkSpec::urw(12);
    let nv = g.vertex_count();
    let prepared = Arc::new(PreparedGraph::new(g, &spec).unwrap());

    let make = {
        let prepared = prepared.clone();
        let spec = spec.clone();
        move |shard: usize| {
            ParallelBackend::new(prepared.clone(), spec.clone(), 0xABAD ^ shard as u64, 2)
        }
    };
    let mut service =
        WalkService::new(ServiceConfig::new(3).max_batch(64).max_delay_ticks(2), make);

    // A 10k-query mixed-tenant workload, interleaved in waves.
    let workloads = [
        (TenantId(10), QuerySet::random(nv, 4_000, 1)),
        (TenantId(20), QuerySet::random(nv, 3_500, 2)),
        (TenantId(30), QuerySet::random(nv, 2_500, 3)),
    ];
    let mut starts: HashMap<(TenantId, u64), u32> = HashMap::new();
    for (t, qs) in &workloads {
        for q in qs.queries() {
            starts.insert((*t, q.id), q.start);
        }
    }

    let mut done = Vec::new();
    let wave = 512;
    let mut offset = 0;
    loop {
        let mut any = false;
        for (t, qs) in &workloads {
            let queries = qs.queries();
            if offset >= queries.len() {
                continue;
            }
            let end = (offset + wave).min(queries.len());
            let mut part = &queries[offset..end];
            while !part.is_empty() {
                let taken = service.submit(*t, part);
                part = &part[taken..];
                if taken == 0 {
                    done.extend(service.tick());
                }
            }
            any = true;
        }
        done.extend(service.tick());
        if !any {
            break;
        }
        offset += wave;
    }
    done.extend(service.drain());

    // Exactly once, for the right tenant, starting where asked.
    assert_eq!(done.len(), 10_000);
    let mut seen: HashSet<(TenantId, u64)> = HashSet::new();
    for c in &done {
        let key = (c.tenant, c.path.query);
        assert!(seen.insert(key), "duplicate delivery for {key:?}");
        let expected_start = starts[&key];
        assert_eq!(
            c.path.vertices[0], expected_start,
            "path must answer the tenant's actual query"
        );
    }
    assert_eq!(seen.len(), starts.len());
    assert_eq!(service.queue_depth(), 0);

    let stats = service.stats();
    assert_eq!(stats.submitted, 10_000);
    assert_eq!(stats.completed, 10_000);
    assert!(stats.batches_flushed > 0);
    assert_eq!(
        stats.per_shard_submitted.iter().sum::<u64>(),
        10_000,
        "shard routing must conserve queries"
    );
    assert!(
        stats.per_shard_submitted.iter().all(|&n| n > 1_000),
        "vertex-hash partitioning should spread load: {:?}",
        stats.per_shard_submitted
    );
}

#[test]
fn service_over_accelerator_shards_reports_simulated_time_per_clock() {
    use ridgewalker_suite::sim::FpgaPlatform;

    let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
    let spec = WalkSpec::urw(12);
    let nv = g.vertex_count();
    let prepared = Arc::new(PreparedGraph::new(g, &spec).unwrap());

    // Heterogeneous shards: different boards, different clocks. Simulated
    // time must be the max of each shard's cycles through its *own* clock.
    let platforms = [FpgaPlatform::AlveoU250, FpgaPlatform::AlveoU55c];
    let make = {
        let prepared = prepared.clone();
        let spec = spec.clone();
        move |shard: usize| {
            Accelerator::new(
                AcceleratorConfig::new()
                    .platform(platforms[shard])
                    .pipelines(4),
            )
            .backend(prepared.clone(), &spec)
        }
    };
    let mut service = WalkService::new(ServiceConfig::new(2).max_batch(256), make);
    let qs = QuerySet::random(nv, 1_000, 4);
    assert_eq!(service.submit(TenantId(0), qs.queries()), 1_000);
    let done = service.drain();
    assert_eq!(done.len(), 1_000);

    let stats = service.stats();
    let expected_secs = (0..2)
        .map(|i| {
            let t = service.backend(i).telemetry();
            t.cycles.unwrap() as f64 / (t.clock_mhz.unwrap() * 1e6)
        })
        .fold(0.0f64, f64::max);
    let got = stats.simulated_seconds.expect("all shards report cycles");
    assert!(
        (got - expected_secs).abs() < 1e-12,
        "simulated time {got} vs slowest shard {expected_secs}"
    );
    let msteps = stats.msteps_per_sec_simulated.expect("time is positive");
    assert!(
        (msteps - stats.steps as f64 / expected_secs / 1e6).abs() < 1e-6,
        "simulated MStep/s must use per-clock time"
    );
}

#[test]
fn service_is_deterministic_for_a_fixed_submission_sequence() {
    let g = Dataset::AsSkitter.generate(ScaleFactor::Tiny);
    let spec = WalkSpec::urw(10);
    let nv = g.vertex_count();
    let prepared = Arc::new(PreparedGraph::new(g, &spec).unwrap());

    let run = || {
        let prepared = prepared.clone();
        let spec = spec.clone();
        let mut service = WalkService::new(
            ServiceConfig::new(2).max_batch(32).max_delay_ticks(1),
            move |shard| {
                ParallelBackend::new(prepared.clone(), spec.clone(), 0xD15C ^ shard as u64, 3)
            },
        );
        let mut out = Vec::new();
        for wave in 0..5u64 {
            let qs = QuerySet::random(nv, 100, wave);
            let batch: Vec<_> = qs
                .queries()
                .iter()
                .map(|q| ridgewalker_suite::algo::WalkQuery {
                    id: q.id + wave * 100,
                    start: q.start,
                })
                .collect();
            assert_eq!(service.submit(TenantId(wave as u16), &batch), 100);
            out.extend(service.tick());
        }
        out.extend(service.drain());
        out.sort_by_key(|c| (c.tenant, c.path.query));
        out
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same submissions, same ticks -> same paths");
    assert_eq!(a.len(), 500);

    // Random schedules: submit/tick interleavings over 1-4 CPU shards,
    // the same with live append/retire scale events, and accelerator
    // fleets in both shard modes. Each schedule runs twice and must
    // conserve every walk — `finish()` usually lands mid-load — and
    // reproduce it, tick stamps included.
    let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
    let spec = WalkSpec::urw(12);
    let p = Arc::new(PreparedGraph::new(g, &spec).unwrap());
    let nv = p.graph().vertex_count();
    let cpu = |shard: usize| -> DynWalkBackend {
        Box::new(ReferenceBackend::new(
            p.clone(),
            spec.clone(),
            0xD1CE ^ shard as u64,
        ))
    };
    let mut finishes_under_load = 0;
    // Cases 20.. reuse tenant-local ids: drawn from 0..8, every id
    // repeats inside a shard while earlier uses are queued or in flight.
    for case in 0..26u64 {
        let scale = (12..20).contains(&case) || case == 25;
        let shards = if scale { 2 } else { 1 + (case % 4) as usize };
        let cfg = ServiceConfig::new(shards)
            .max_batch(16 + 8 * (case as usize % 3))
            .buffer_capacity(512);
        let qs = QuerySet::random(nv, 300, 0x5EED ^ case);
        let queries = if case >= 20 {
            reuse_ids(qs.queries(), case)
        } else {
            qs.queries().to_vec()
        };
        let run = || drive_schedule(WalkService::new(cfg, cpu), &cpu, &queries, case, scale);
        let (walks, stats, load) = run();
        assert_eq!(walks.len(), 300, "case {case}: stream conservation");
        assert_eq!(stats.completed, 300, "case {case}");
        let (again, again_stats, _) = run();
        assert_eq!(walks, again, "case {case}: same schedule, same walks");
        assert_eq!(stats.steps, again_stats.steps, "case {case}");
        finishes_under_load += usize::from(load > 0);
    }

    let spec = WalkSpec::ppr(16);
    let p = Arc::new(PreparedGraph::new(p.graph().clone(), &spec).unwrap());
    let qs = QuerySet::random(nv, 400, 31);
    let accel = Accelerator::new(AcceleratorConfig::new().pipelines(4).seed(7));
    for mode in [AccelShardMode::Batch, AccelShardMode::Incremental] {
        let append = |shard: usize| {
            shard_backend(&accel, p.clone(), &spec, ShardSpec::Accel(mode), shard, 0)
        };
        // Accelerator shards complete out of order, so reused ids come
        // back in a different order than they went in.
        for (scale, reuse) in [(false, false), (true, false), (false, true), (true, true)] {
            let queries = if reuse {
                reuse_ids(qs.queries(), 0xACCE1)
            } else {
                qs.queries().to_vec()
            };
            let run = || {
                let cfg = ServiceConfig::new(2).max_batch(64).buffer_capacity(512);
                let svc = accelerator_service(cfg, &accel, p.clone(), &spec, mode);
                drive_schedule(svc, &append, &queries, 0xACCE1, scale)
            };
            let (walks, stats, load) = run();
            let input = format!("{mode:?}/scale {scale}/reuse {reuse}");
            assert_eq!(walks.len(), 400, "{input}: conservation");
            assert_eq!(stats.completed, 400, "{input}");
            assert_eq!(walks, run().0, "{input}: accelerator fleet replay");
            finishes_under_load += usize::from(load > 0);
        }
    }
    assert!(
        finishes_under_load > 0,
        "some schedule must call finish() with work still queued"
    );
}

/// `queries` with their ids replaced by draws from `0..8`, so one
/// tenant-local id is in use many times at once.
fn reuse_ids(queries: &[WalkQuery], seed: u64) -> Vec<WalkQuery> {
    let mut rng = SplitMix64::new(0x1D ^ seed);
    queries
        .iter()
        .map(|q| WalkQuery {
            id: rng.next_below(8),
            start: q.start,
        })
        .collect()
}

/// One random drive schedule over `svc`: interleaved submit chunks
/// (rotating tenants) and ticks — plus, when `scale` is set, shard
/// appends (backends from `append`) and drain-in-place retirements —
/// then `finish()` after 0-3 trailing ticks. The schedule derives from
/// `seed` and test-tracked state only, never from service state, so two
/// runs replay the identical command sequence. Returns every walk
/// (sorted), the final stats, and the queue depth `finish()` found.
///
/// Checks on the way that, per tenant and local id, the `arrival_tick`s
/// delivered are exactly the ticks the queries were accepted at (as
/// multisets: a reused id may complete out of order).
fn drive_schedule(
    mut svc: WalkService<DynWalkBackend>,
    append: &dyn Fn(usize) -> DynWalkBackend,
    queries: &[WalkQuery],
    seed: u64,
    scale: bool,
) -> (Vec<CompletedWalk>, ServiceStats, usize) {
    const MAX_SHARDS: usize = 4;
    let mut rng = SplitMix64::new(0xCA5E ^ seed);
    let mut walks = Vec::new();
    let mut live = svc.shard_count();
    let mut scale_events = 0;
    let mut offset = 0;
    let mut submit_ticks: HashMap<(TenantId, u64), Vec<u64>> = HashMap::new();
    while offset < queries.len() {
        let roll = rng.next_below(10);
        if roll < 6 {
            let end = (offset + 1 + rng.next_below(48) as usize).min(queries.len());
            let tenant = TenantId(1 + rng.next_below(4) as u16);
            let mut part = &queries[offset..end];
            while !part.is_empty() {
                let taken = svc.submit(tenant, part);
                for q in &part[..taken] {
                    submit_ticks
                        .entry((tenant, q.id))
                        .or_default()
                        .push(svc.now());
                }
                part = &part[taken..];
                if taken == 0 {
                    walks.extend(svc.tick());
                }
            }
            offset = end;
        } else if roll < 8 || !scale {
            walks.extend(svc.tick());
        } else if rng.next_bool(0.5) && live < MAX_SHARDS {
            assert_eq!(svc.append_shard(append(live)), live, "append index");
            live += 1;
            scale_events += 1;
        } else if live > 1 {
            walks.extend(svc.retire_shard());
            live -= 1;
            scale_events += 1;
        }
    }
    if scale && scale_events == 0 {
        // A seed whose rolls drew no scale event still exercises one.
        assert_eq!(svc.append_shard(append(live)), live);
        walks.extend(svc.retire_shard());
    }
    for _ in 0..rng.next_below(4) {
        walks.extend(svc.tick());
    }
    let load = svc.queue_depth();
    let (rest, stats) = svc.finish();
    walks.extend(rest);
    walks.sort_by(|a, b| {
        (a.tenant, a.path.query, a.arrival_tick).cmp(&(b.tenant, b.path.query, b.arrival_tick))
    });
    let mut arrival_ticks: HashMap<(TenantId, u64), Vec<u64>> = HashMap::new();
    for w in &walks {
        let ticks = arrival_ticks.entry((w.tenant, w.path.query)).or_default();
        ticks.push(w.arrival_tick);
    }
    // Submit ticks never decrease, and the sort above orders each
    // key's arrival ticks, so equal vectors are equal multisets.
    assert_eq!(
        arrival_ticks, submit_ticks,
        "arrival ticks per (tenant, id)"
    );
    (walks, stats, load)
}
