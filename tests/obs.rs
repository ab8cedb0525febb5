//! Observability's load-bearing property: the event journal is
//! **deterministic**. For a fixed seed and submission schedule the
//! canonical trace — every admission, flush, delivery, and scale event,
//! tick-stamped and sorted by `(tick, shard, seq)` — is *byte-identical*
//! from one run to the next, because every stamp is a machine tick and
//! never a wall clock. A trace diff is therefore a real behavioural diff,
//! never scheduler noise.
//!
//! Also pinned here: the spill-depth gauge regression. `sink_spill_depth`
//! reports *live* backlog, so once a drain has run the spill dry it must
//! read zero — a cumulative count leaking into the gauge is exactly the
//! drift this test exists to catch.

use ridgewalker_suite::accel::{Accelerator, AcceleratorConfig};
use ridgewalker_suite::algo::{PreparedGraph, QuerySet, ReferenceBackend, WalkSpec};
use ridgewalker_suite::graph::generators::{Dataset, ScaleFactor};
use ridgewalker_suite::obs::{jsonl_field, jsonl_num, Obs, SpanSet};
use ridgewalker_suite::service::{
    shard_backend, AccelShardMode, DynWalkBackend, ServiceConfig, ShardSpec, TenantId, WalkService,
};
use ridgewalker_suite::sink::CollectingSink;
use std::sync::Arc;

/// Plays a fixed stream with a mid-run scale schedule (grow to three
/// shards after the second chunk, shrink back after the fourth) and
/// returns the canonical trace.
fn trace_of_fixed_run() -> String {
    let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
    let spec = WalkSpec::urw(8);
    let p = Arc::new(PreparedGraph::new(g, &spec).unwrap());
    let make = |shard: usize| ReferenceBackend::new(p.clone(), spec.clone(), 0xD1CE ^ shard as u64);
    let cfg = ServiceConfig::new(2).max_batch(8).max_delay_ticks(1);
    let mut d = WalkService::new(cfg, make);
    let obs = Obs::new();
    d.attach_obs(obs.clone());
    let qs = QuerySet::random(200, 300, 77);
    let mut walks = Vec::new();
    for (i, chunk) in qs.queries().chunks(50).enumerate() {
        assert_eq!(d.submit(TenantId(2), chunk), 50);
        walks.extend(d.tick());
        match i {
            1 => assert_eq!(d.append_shard(make(2)), 2),
            3 => walks.extend(d.retire_shard()),
            _ => {}
        }
    }
    let (rest, stats) = d.finish();
    walks.extend(rest);
    assert_eq!(walks.len(), 300, "conservation across the scale schedule");
    assert_eq!(stats.completed, 300);
    assert_eq!(obs.dropped(), 0, "the stream must fit the journal ring");
    obs.trace_jsonl()
}

#[test]
fn fixed_seed_trace_is_bit_identical_across_runs() {
    let det = trace_of_fixed_run();
    let again = trace_of_fixed_run();
    assert!(!det.is_empty());
    assert_eq!(det, again, "canonical JSONL must match byte for byte");

    // The trace actually covers the run: one admission and one delivery
    // per query, batches in between, stamped with logical ticks only.
    let count = |ev: &str| {
        det.lines()
            .filter(|l| jsonl_field(l, "ev") == Some(ev))
            .count()
    };
    assert_eq!(count("query_admitted"), 300);
    assert_eq!(count("query_delivered"), 300);
    assert!(count("batch_flushed") >= 300 / 8, "micro-batch boundaries");
    for l in det.lines() {
        assert!(
            jsonl_field(l, "tick").is_some(),
            "every event is tick-stamped: {l}"
        );
    }

    // Provenance rides on the same canonical order: the span trees (and
    // with them the whole phase attribution) reconstruct from the trace.
    let spans = SpanSet::from_trace(&det);
    assert_eq!(spans.spans.len(), 300, "one span per delivered query");
    assert_eq!(spans.dropped, 0);
    // Fleet scale events are journaled by the Router, not the raw
    // service, so a raw-service trace annotates no spans with them — the
    // end-to-end annotation check lives with the autoscale bench.
    assert!(spans.spans.iter().all(|s| s.scale_events == 0));
}

/// Both sink-delivery regimes: a sink attached to the service
/// (`attach_sink`, then `drain`) and one borrowed per call
/// (`drain_into`).
#[test]
fn spill_depth_reads_zero_after_drain_in_both_regimes() {
    let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
    let spec = WalkSpec::urw(10);
    let p = Arc::new(PreparedGraph::new(g, &spec).unwrap());
    let qs = QuerySet::random(p.graph().vertex_count(), 400, 29);
    // A tiny window forces refusals into the spill buffer.
    let window = || CollectingSink::unbounded().capacity(5);
    for attached in [true, false] {
        let mut d = WalkService::new(
            ServiceConfig::new(2).max_batch(16).buffer_capacity(512),
            |shard| ReferenceBackend::new(p.clone(), spec.clone(), 0xBEEF ^ shard as u64),
        );
        if attached {
            d.attach_sink(Box::new(window()));
        }
        assert_eq!(d.submit(TenantId(3), qs.queries()), 400);
        if attached {
            assert!(d.drain().is_empty(), "sunk walks never surface");
        } else {
            assert_eq!(d.drain_into(&mut window()), 400);
        }
        let stats = d.stats();
        assert_eq!(stats.completed, 400, "attached={attached}: conservation");
        assert_eq!(
            stats.sink_accepted, 400,
            "attached={attached}: all delivered"
        );
        assert!(
            stats.sink_spilled > 0,
            "attached={attached}: the 5-walk window must actually spill"
        );
        assert_eq!(
            stats.sink_spill_depth, 0,
            "attached={attached}: a finished drain leaves the spill dry — the \
             depth gauge reports live backlog, not a cumulative count"
        );
        // The cumulative counter keeps the history the gauge must not: a
        // second stats() call right after must agree with the first.
        let again = d.stats();
        assert_eq!(
            again.sink_spilled, stats.sink_spilled,
            "attached={attached}"
        );
        assert_eq!(again.sink_spill_depth, 0, "attached={attached}");
    }
}

/// The tentpole invariant: for *every* delivered query, under a mid-run
/// scale schedule with a backpressuring sink, the reconstructed phases
/// sum **exactly** to the end-to-end latency —
/// `batch-wait + backend-service + sink-wait == accepted - arrival`,
/// tick for tick, no residuals. Checked in both shard regimes: CPU shards
/// that finish a batch inside its tick, and accelerator shards whose
/// walks span ticks (so the backend-service phase is non-zero too).
#[test]
fn phase_decomposition_sums_exactly_in_both_regimes() {
    let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
    let spec = WalkSpec::urw(8);
    let p = Arc::new(PreparedGraph::new(g, &spec).unwrap());
    let accel = Accelerator::new(AcceleratorConfig::new().pipelines(4).poll_quantum(16));
    for accel_shards in [false, true] {
        let make = |shard: usize| -> DynWalkBackend {
            if accel_shards {
                let mode = ShardSpec::Accel(AccelShardMode::Incremental);
                shard_backend(&accel, p.clone(), &spec, mode, shard, 0)
            } else {
                Box::new(ReferenceBackend::new(
                    p.clone(),
                    spec.clone(),
                    0xFACE ^ shard as u64,
                ))
            }
        };
        let mut d = WalkService::new(
            ServiceConfig::new(2)
                .max_batch(8)
                .max_delay_ticks(1)
                .buffer_capacity(512),
            make,
        );
        let obs = d.attach_fresh_obs();
        // A tight accept window prices the sink-wait phase, and the
        // mid-run scale schedule exercises migration/scale annotation
        // while spans are open.
        d.attach_sink(Box::new(CollectingSink::unbounded().capacity(5)));
        let qs = QuerySet::random(200, 300, 99);
        for (i, chunk) in qs.queries().chunks(50).enumerate() {
            assert_eq!(d.submit(TenantId(4), chunk), 50);
            d.tick();
            match i {
                1 => assert_eq!(d.append_shard(make(2)), 2),
                3 => assert!(d.retire_shard().is_empty(), "sunk"),
                _ => {}
            }
        }
        let rest = d.drain();
        let label = if accel_shards { "accel" } else { "cpu" };
        assert!(rest.is_empty(), "{label}: sunk walks never surface");
        let stats = d.stats();
        assert_eq!(stats.completed, 300, "{label}: conservation");
        assert_eq!(obs.dropped(), 0, "{label}: stream fits the ring");

        let spans = SpanSet::from_trace(&obs.trace_jsonl());
        assert_eq!(spans.spans.len(), 300, "{label}: one span per query");
        assert_eq!(spans.unmatched_accepts, 0, "{label}");
        let mut sink_wait_total = 0u64;
        for s in &spans.spans {
            assert_eq!(
                s.phases().iter().sum::<u64>(),
                s.total(),
                "{label}: span (tenant {}, query {}) must decompose exactly: \
                 {:?} vs total {}",
                s.tenant,
                s.query,
                s.phases(),
                s.total()
            );
            assert!(
                s.accepted_tick.is_some(),
                "{label}: with a sink attached every span closes at accept"
            );
            sink_wait_total += s.phases()[2];
        }
        assert!(
            sink_wait_total > 0,
            "{label}: the 5-walk window must make some walks wait"
        );
        // The aggregate face of the same invariant.
        let sum = spans.summary();
        assert_eq!(sum.count, 300);
        assert_eq!(sum.phase_sums.iter().sum::<u64>(), sum.total_sum);
        if accel_shards {
            assert!(sum.phase_sums[1] > 0, "accelerator walks span ticks");
        }
    }
}

/// `ServiceConfig::journal_capacity` regression: a ring too small for
/// the stream *counts* what it dropped — in the handle, in the trace's
/// leading meta line, and in the span reconstruction — never silently.
#[test]
fn journal_overflow_is_counted_never_silent() {
    let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
    let spec = WalkSpec::urw(8);
    let p = Arc::new(PreparedGraph::new(g, &spec).unwrap());
    let make = |shard: usize| ReferenceBackend::new(p.clone(), spec.clone(), 0xC0DE ^ shard as u64);
    let mut d = WalkService::new(
        ServiceConfig::new(2)
            .max_batch(8)
            .max_delay_ticks(1)
            .buffer_capacity(512)
            .journal_capacity(64),
        make,
    );
    assert_eq!(d.journal_capacity(), 64);
    let obs = d.attach_fresh_obs();
    let qs = QuerySet::random(200, 300, 55);
    assert_eq!(d.submit(TenantId(5), qs.queries()), 300);
    let (walks, stats) = d.finish();
    assert_eq!(walks.len(), 300);
    assert_eq!(stats.completed, 300);

    // ~900 events through a 64-slot ring: most of the stream is gone,
    // and every layer says so.
    assert!(obs.dropped() > 0, "the ring must overflow");
    let trace = obs.trace_jsonl();
    let first = trace.lines().next().expect("non-empty trace");
    assert_eq!(
        jsonl_field(first, "ev"),
        Some("journal_overflow"),
        "the trace leads with the overflow meta line"
    );
    assert_eq!(jsonl_num(first, "dropped"), Some(obs.dropped() as f64));
    let spans = SpanSet::from_trace(&trace);
    assert_eq!(spans.dropped, obs.dropped(), "reconstruction carries it");
    // The ring keeps the *newest* events: what remains is the tail of
    // the run, so the surviving spans are real (exact), just fewer.
    assert_eq!(trace.lines().count(), 65, "64 events + 1 meta line");
    for s in &spans.spans {
        assert_eq!(s.phases().iter().sum::<u64>(), s.total());
    }
}
