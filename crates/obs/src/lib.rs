//! # grw_obs — unified metrics + deterministic event tracing
//!
//! The serving stack grew five layers that each invented their own
//! telemetry (`ServiceStats`, `ShardSnapshot`, backend sampling
//! telemetry, `SinkReport`, the scale policy's internal streaks). This
//! crate is the one place they all record into:
//!
//! * [`MetricsRegistry`] — cheap atomic counters, gauges and
//!   log2-bucketed histograms addressed by static name + label set
//!   (tenant, shard, walk class), with Prometheus-style text exposition
//!   and a JSON snapshot in the `BENCH_*.json` conventions.
//! * [`Journal`] / [`Event`] — a bounded ring of structured events
//!   (query admitted / flushed / delivered, micro-batch boundaries,
//!   router migrations, every scale verdict with the control-law inputs
//!   that produced it, sink spills, alias-cache epochs) stamped with
//!   the logical machine tick, never the wall clock — a fixed seed
//!   reproduces the identical trace.
//! * `obsdump` (a bin in this crate) — renders a trace into per-tenant
//!   / per-shard timelines and a span-style phase breakdown in
//!   markdown.
//!
//! ## Recording topology
//!
//! [`Obs`] is the shared hub (cheap to clone — one `Arc`). Each
//! recording source — a `ShardRunner`, the service's spill-delivery path —
//! holds a [`ShardObs`]: a *local* event buffer plus pre-bound metric
//! handles, so the hot path takes no lock. Buffers flow back to the hub
//! at the same barriers the stats collectors already use (reports,
//! drains, retirement, `finish`), and the hub's journal sorts
//! canonically by `(tick, shard, seq)` — which is what makes the
//! exported trace identical from run to run for a fixed seed and
//! schedule.
//!
//! Everything is `std`-only, like the rest of the workspace.

mod journal;
pub mod provenance;
mod registry;

pub use journal::{jsonl_field, jsonl_num, Event, EventKind, Journal, ScaleInputs, GLOBAL_SHARD};
pub use provenance::{parse_trace, PhaseSummary, QuerySpan, SpanSet, TraceDiff, PHASE_NAMES};
pub use registry::{
    log2_bucket, Counter, Gauge, Histogram, Labels, MetricsRegistry, HISTOGRAM_BUCKETS,
};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default hub journal capacity (events). Big enough that every smoke
/// bench fits untruncated; a figure-scale run that overflows it keeps
/// the *newest* events and reports the drop count.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1 << 16;

/// Events a [`ShardObs`] local buffer is pre-faulted for at attach time
/// (it still grows past this if a run buffers more between barriers).
const SHARD_BUFFER_WARM: usize = 4096;

/// Sequence base for spill-delivery recorders ([`ShardObs::seq_base`]).
///
/// The canonical event order is `(tick, shard, seq)`, and a shard can
/// have *two* recording sources — its runner and its spill-delivery
/// path — plus hub-level events attributed to it. Giving each source
/// class a disjoint `seq` range makes the canonical order total (no two
/// events ever share a key), which is what keeps the sorted trace
/// string byte-identical from run to run.
pub const SEQ_BASE_SPILL: u64 = 1 << 48;

/// Sequence base for events recorded directly on the hub (router and
/// scale-policy events) — disjoint from runner (`0..`) and spill
/// ([`SEQ_BASE_SPILL`]) ranges; see [`SEQ_BASE_SPILL`].
pub const SEQ_BASE_HUB: u64 = 1 << 49;

#[derive(Debug)]
struct ObsInner {
    registry: MetricsRegistry,
    journal: Mutex<Journal>,
    /// Sequence source for events recorded directly on the hub (router
    /// and policy events — coordinator-thread only, so deterministic).
    seq: AtomicU64,
}

/// The shared observability hub: one registry + one journal. Clone it
/// freely — clones share the same state.
#[derive(Debug, Clone)]
pub struct Obs {
    inner: Arc<ObsInner>,
}

impl Default for Obs {
    fn default() -> Self {
        Self::new()
    }
}

impl Obs {
    /// A live hub with the [default journal capacity](DEFAULT_JOURNAL_CAPACITY).
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// A live hub holding at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            inner: Arc::new(ObsInner {
                registry: MetricsRegistry::new(),
                journal: Mutex::new(Journal::new(capacity)),
                seq: AtomicU64::new(SEQ_BASE_HUB),
            }),
        }
    }

    /// A disabled hub: every handle is a no-op and nothing is journaled
    /// — the baseline arm of the instrumentation-overhead comparison.
    pub fn disabled() -> Self {
        Self {
            inner: Arc::new(ObsInner {
                registry: MetricsRegistry::disabled(),
                journal: Mutex::new(Journal::new(1)),
                seq: AtomicU64::new(SEQ_BASE_HUB),
            }),
        }
    }

    /// Whether this hub records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.registry.is_enabled()
    }

    /// The metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.inner.registry
    }

    /// Records one event directly on the hub (sequence assigned here).
    /// Use [`ShardObs`] for per-shard hot paths instead.
    pub fn record(&self, tick: u64, shard: u32, kind: EventKind) {
        if !self.is_enabled() {
            return;
        }
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        self.inner
            .journal
            .lock()
            .expect("journal lock")
            .push(Event {
                tick,
                shard,
                seq,
                kind,
            });
    }

    /// Merges a batch of already-stamped events (a worker buffer, a
    /// runner buffer) into the hub journal.
    pub fn absorb(&self, events: Vec<Event>) {
        if events.is_empty() || !self.is_enabled() {
            return;
        }
        let mut journal = self.inner.journal.lock().expect("journal lock");
        for e in events {
            journal.push(e);
        }
    }

    /// Events dropped to the journal's capacity bound.
    pub fn dropped(&self) -> u64 {
        self.inner.journal.lock().expect("journal lock").dropped()
    }

    /// The journal in canonical `(tick, shard, seq)` order.
    pub fn journal(&self) -> Vec<Event> {
        self.inner.journal.lock().expect("journal lock").sorted()
    }

    /// The canonical trace: one JSONL line per event, canonical order,
    /// trailing newline. Identical across runs for a fixed seed and
    /// schedule — the artifact the trace-determinism tests compare and
    /// `obsdump` renders.
    ///
    /// A journal that overflowed its ring leads the trace with one
    /// `{"ev": "journal_overflow", "dropped": N}` meta line, so a
    /// truncated trace is never mistaken for a complete one by any
    /// reader (`obsdump` turns it into a warning banner and marks phase
    /// breakdowns as lower bounds).
    pub fn trace_jsonl(&self) -> String {
        let (events, dropped) = {
            let journal = self.inner.journal.lock().expect("journal lock");
            (journal.sorted(), journal.dropped())
        };
        let mut out = String::with_capacity(events.len() * 96);
        if dropped > 0 {
            out.push_str(&format!(
                "{{\"ev\": \"journal_overflow\", \"dropped\": {dropped}}}\n"
            ));
        }
        for e in &events {
            out.push_str(&e.jsonl());
            out.push('\n');
        }
        out
    }

    /// A per-shard recording source bound to this hub: local event
    /// buffer (lock-free hot path) plus pre-bound metric handles.
    pub fn shard_obs(&self, shard: u32) -> ShardObs {
        let r = &self.inner.registry;
        let labels = Labels::shard(shard);
        // Pre-fault the local buffer for the same reason the hub ring
        // is pre-faulted in `Journal::new`: first-touch page faults
        // belong at attach time, not in the recording hot path.
        let mut buf = Vec::new();
        if self.is_enabled() {
            buf.resize(
                SHARD_BUFFER_WARM,
                Event {
                    tick: 0,
                    shard: 0,
                    seq: 0,
                    kind: EventKind::RetireBegun,
                },
            );
            buf.clear();
        }
        ShardObs {
            enabled: self.is_enabled(),
            shard,
            seq: 0,
            buf,
            hub: Some(self.clone()),
            admitted: r.counter("grw_queries_admitted_total", labels),
            delivered: r.counter("grw_queries_delivered_total", labels),
            batches: r.counter("grw_batches_flushed_total", labels),
            latency: r.histogram("grw_query_latency_ticks", labels),
            phase_batch_wait: r.histogram("grw_phase_batch_wait_ticks", labels),
            phase_backend: r.histogram("grw_phase_backend_service_ticks", labels),
            phase_sink_wait: r.histogram("grw_phase_sink_wait_ticks", labels),
            spilled: r.counter("grw_sink_spilled_total", labels),
            forced_flushes: r.counter("grw_sink_forced_flushes_total", labels),
            spill_depth: r.gauge("grw_sink_spill_depth", labels),
            tenant_delivered: BTreeMap::new(),
            tenant_phases: BTreeMap::new(),
            last_alias_epoch: None,
        }
    }
}

/// One locally pre-binned histogram accumulation (buckets, count, sum) —
/// the unit [`ShardObs::settle`] batches per phase before a handful of
/// `absorb_prebinned` calls.
#[derive(Clone)]
struct PreBinned {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for PreBinned {
    fn default() -> Self {
        Self {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl PreBinned {
    #[inline]
    fn add(&mut self, v: u64) {
        self.buckets[log2_bucket(v)] += 1;
        self.count += 1;
        self.sum += v;
    }

    fn settle_into(&self, h: &Histogram) {
        h.absorb_prebinned(&self.buckets, self.count, self.sum);
    }
}

/// A per-shard (or per-source) recorder: the admission/delivery hot
/// path is a single local `Vec` push — no locks, no atomics — and the
/// pre-bound registry handles settle in one bulk pass when the buffer
/// is exported. Ship the buffer back to the hub
/// with [`flush`](Self::flush) (same-thread) or
/// [`take_events`](Self::take_events) (across a report channel, merged
/// at the coordinator with [`Obs::absorb`]).
#[derive(Debug)]
pub struct ShardObs {
    enabled: bool,
    shard: u32,
    seq: u64,
    buf: Vec<Event>,
    hub: Option<Obs>,
    admitted: Counter,
    delivered: Counter,
    batches: Counter,
    latency: Histogram,
    phase_batch_wait: Histogram,
    phase_backend: Histogram,
    phase_sink_wait: Histogram,
    spilled: Counter,
    forced_flushes: Counter,
    spill_depth: Gauge,
    tenant_delivered: BTreeMap<u16, Counter>,
    /// Per-tenant phase histograms (batch-wait, backend-service,
    /// sink-wait), registered lazily like `tenant_delivered`.
    tenant_phases: BTreeMap<u16, [Histogram; 3]>,
    last_alias_epoch: Option<(u64, u64, u64)>,
}

impl Default for ShardObs {
    fn default() -> Self {
        Self::disabled()
    }
}

impl ShardObs {
    /// A recorder that records nothing — the default every runner
    /// starts with until a hub is attached.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            shard: GLOBAL_SHARD,
            seq: 0,
            buf: Vec::new(),
            hub: None,
            admitted: Counter::noop(),
            delivered: Counter::noop(),
            batches: Counter::noop(),
            latency: Histogram::noop(),
            phase_batch_wait: Histogram::noop(),
            phase_backend: Histogram::noop(),
            phase_sink_wait: Histogram::noop(),
            spilled: Counter::noop(),
            forced_flushes: Counter::noop(),
            spill_depth: Gauge::noop(),
            tenant_delivered: BTreeMap::new(),
            tenant_phases: BTreeMap::new(),
            last_alias_epoch: None,
        }
    }

    /// Whether this recorder records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Moves this recorder's sequence counter to `base` — used to give a
    /// second recording source for the same shard (the spill-delivery
    /// path, [`SEQ_BASE_SPILL`]) a seq range disjoint from its runner's,
    /// so the canonical `(tick, shard, seq)` order stays total.
    pub fn seq_base(mut self, base: u64) -> Self {
        self.seq = base;
        self
    }

    #[inline]
    fn push(&mut self, tick: u64, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.buf.push(Event {
            tick,
            shard: self.shard,
            seq,
            kind,
        });
    }

    /// A query was accepted into the micro-batcher. Buffer-push only —
    /// the admitted counter settles in bulk at the next export barrier
    /// (see [`settle`](Self::flush)).
    #[inline]
    pub fn query_admitted(&mut self, tick: u64, tenant: u16, query: u64) {
        if !self.enabled {
            return;
        }
        self.push(tick, EventKind::QueryAdmitted { tenant, query });
    }

    /// A micro-batch boundary. Buffer-push only; counters settle at the
    /// next export barrier.
    #[inline]
    pub fn batch_flushed(&mut self, tick: u64, batch: u64, taken: usize, reason: &'static str) {
        if !self.enabled {
            return;
        }
        self.push(
            tick,
            EventKind::BatchFlushed {
                batch,
                taken: taken as u32,
                reason,
            },
        );
    }

    /// A walk was delivered at `tick`. Buffer-push only; the delivery
    /// counters and the latency histogram settle in bulk at the next
    /// export barrier.
    #[inline]
    pub fn query_delivered(
        &mut self,
        tick: u64,
        tenant: u16,
        query: u64,
        arrival_tick: u64,
        flushed_tick: u64,
        steps: u32,
    ) {
        if !self.enabled {
            return;
        }
        self.push(
            tick,
            EventKind::QueryDelivered {
                tenant,
                query,
                arrival_tick,
                flushed_tick,
                steps,
            },
        );
    }

    /// A downstream sink accepted the walk at `tick` — the delivery-side
    /// backpressure stamp. Recorded on the spill-delivery recorder (seq
    /// range [`SEQ_BASE_SPILL`]) so canonical ordering stays total.
    #[inline]
    pub fn sink_accepted(
        &mut self,
        tick: u64,
        tenant: u16,
        query: u64,
        arrival_tick: u64,
        completed_tick: u64,
    ) {
        if !self.enabled {
            return;
        }
        self.push(
            tick,
            EventKind::SinkAccepted {
                tenant,
                query,
                arrival_tick,
                completed_tick,
            },
        );
    }

    /// Settles the metric side of everything currently buffered in one
    /// pass: local sums, then a handful of atomic adds. Runs exactly
    /// once per event — at the export barrier, right before the buffer
    /// leaves this recorder — which keeps the per-event recording cost
    /// at a single `Vec` push (the admission/delivery hot path cannot
    /// afford three atomics per walk).
    fn settle(&mut self) {
        let (mut admitted, mut delivered, mut batches) = (0u64, 0u64, 0u64);
        let mut latency = PreBinned::default();
        // Phase accumulators: [batch-wait, backend-service, sink-wait],
        // shard-level and lazily per tenant — same index order as the
        // `tenant_phases` handle arrays.
        let mut phases = [
            PreBinned::default(),
            PreBinned::default(),
            PreBinned::default(),
        ];
        let mut by_tenant: BTreeMap<u16, u64> = BTreeMap::new();
        let mut tenant_phase: BTreeMap<u16, [PreBinned; 3]> = BTreeMap::new();
        for e in &self.buf {
            match e.kind {
                EventKind::QueryAdmitted { .. } => admitted += 1,
                EventKind::BatchFlushed { .. } => batches += 1,
                EventKind::QueryDelivered {
                    tenant,
                    arrival_tick,
                    flushed_tick,
                    ..
                } => {
                    delivered += 1;
                    latency.add(e.tick.saturating_sub(arrival_tick));
                    let batch_wait = flushed_tick.saturating_sub(arrival_tick);
                    let backend = e.tick.saturating_sub(flushed_tick);
                    phases[0].add(batch_wait);
                    phases[1].add(backend);
                    *by_tenant.entry(tenant).or_insert(0) += 1;
                    let tp = tenant_phase.entry(tenant).or_default();
                    tp[0].add(batch_wait);
                    tp[1].add(backend);
                }
                EventKind::SinkAccepted {
                    tenant,
                    completed_tick,
                    ..
                } => {
                    let sink_wait = e.tick.saturating_sub(completed_tick);
                    phases[2].add(sink_wait);
                    tenant_phase.entry(tenant).or_default()[2].add(sink_wait);
                }
                _ => {}
            }
        }
        if admitted > 0 {
            self.admitted.add(admitted);
        }
        if batches > 0 {
            self.batches.add(batches);
        }
        if delivered > 0 {
            self.delivered.add(delivered);
            latency.settle_into(&self.latency);
        }
        phases[0].settle_into(&self.phase_batch_wait);
        phases[1].settle_into(&self.phase_backend);
        phases[2].settle_into(&self.phase_sink_wait);
        if let Some(hub) = &self.hub {
            for (tenant, n) in by_tenant {
                self.tenant_delivered
                    .entry(tenant)
                    .or_insert_with(|| {
                        hub.registry()
                            .counter("grw_tenant_delivered_total", Labels::tenant(tenant))
                    })
                    .add(n);
            }
            for (tenant, tp) in tenant_phase {
                let handles = self.tenant_phases.entry(tenant).or_insert_with(|| {
                    let r = hub.registry();
                    let l = Labels::tenant(tenant);
                    [
                        r.histogram("grw_phase_batch_wait_ticks", l),
                        r.histogram("grw_phase_backend_service_ticks", l),
                        r.histogram("grw_phase_sink_wait_ticks", l),
                    ]
                });
                for (acc, h) in tp.iter().zip(handles.iter()) {
                    acc.settle_into(h);
                }
            }
        }
    }

    /// A sink refused a walk; it was parked at spill depth `depth`.
    #[inline]
    pub fn sink_spilled(&mut self, tick: u64, depth: usize) {
        if !self.enabled {
            return;
        }
        self.spilled.inc();
        self.spill_depth.set(depth as i64);
        self.push(
            tick,
            EventKind::SinkSpilled {
                depth: depth as u32,
            },
        );
    }

    /// The spill bound forced a sink flush.
    #[inline]
    pub fn sink_forced_flush(&mut self, tick: u64) {
        if !self.enabled {
            return;
        }
        self.forced_flushes.inc();
        self.push(tick, EventKind::SinkForcedFlush);
    }

    /// Updates the spill-depth gauge without journaling an event (the
    /// drain path emptying the buffer).
    #[inline]
    pub fn set_spill_depth(&mut self, depth: usize) {
        if self.enabled {
            self.spill_depth.set(depth as i64);
        }
    }

    /// Records the shard's cumulative alias-cache telemetry at an
    /// observation epoch — deduplicated, so an unchanged cache (or a
    /// workload that never touches it) journals nothing.
    pub fn alias_cache_epoch(&mut self, tick: u64, hits: u64, builds: u64, evictions: u64) {
        if !self.enabled {
            return;
        }
        let now = (hits, builds, evictions);
        if now == (0, 0, 0) || self.last_alias_epoch == Some(now) {
            return;
        }
        self.last_alias_epoch = Some(now);
        self.push(
            tick,
            EventKind::AliasCacheEpoch {
                hits,
                builds,
                evictions,
            },
        );
    }

    /// Drains the local buffer (for shipping across a report channel;
    /// merge at the coordinator with [`Obs::absorb`]), settling the
    /// buffered events' metric side first.
    pub fn take_events(&mut self) -> Vec<Event> {
        if !self.buf.is_empty() {
            self.settle();
        }
        std::mem::take(&mut self.buf)
    }

    /// Pushes the local buffer into the hub (same-thread sources),
    /// settling the buffered events' metric side first.
    pub fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        self.settle();
        let events = std::mem::take(&mut self.buf);
        if let Some(hub) = &self.hub {
            hub.absorb(events);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_obs_buffers_locally_and_flushes_to_the_hub() {
        let obs = Obs::new();
        let mut s0 = obs.shard_obs(0);
        let mut s1 = obs.shard_obs(1);
        s0.query_admitted(1, 7, 40);
        s1.query_admitted(1, 7, 41);
        s0.query_delivered(3, 7, 40, 1, 2, 8);
        assert!(obs.journal().is_empty(), "events buffer until a barrier");
        s0.flush();
        obs.absorb(s1.take_events());
        let journal = obs.journal();
        assert_eq!(journal.len(), 3);
        // Canonical order: tick, then shard, then per-source seq.
        assert_eq!(journal[0].key(), (1, 0, 0));
        assert_eq!(journal[1].key(), (1, 1, 0));
        assert_eq!(journal[2].key(), (3, 0, 1));
        // Metrics settled at the export barriers above.
        let r = obs.registry();
        assert_eq!(
            r.counter_value("grw_queries_admitted_total", Labels::shard(0)),
            Some(1)
        );
        assert_eq!(
            r.counter_value("grw_queries_delivered_total", Labels::shard(0)),
            Some(1)
        );
        assert_eq!(
            r.counter_value("grw_tenant_delivered_total", Labels::tenant(7)),
            Some(1)
        );
    }

    #[test]
    fn disabled_hub_records_nothing_anywhere() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        let mut s = obs.shard_obs(0);
        s.query_admitted(1, 1, 0);
        s.query_delivered(2, 1, 0, 1, 1, 4);
        s.sink_accepted(3, 1, 0, 1, 2);
        s.sink_spilled(3, 5);
        s.flush();
        obs.record(4, GLOBAL_SHARD, EventKind::RetireBegun);
        assert!(obs.journal().is_empty());
        assert!(obs.trace_jsonl().is_empty());
        assert!(obs.registry().render_prometheus().is_empty());
    }

    #[test]
    fn alias_epochs_deduplicate() {
        let obs = Obs::new();
        let mut s = obs.shard_obs(2);
        s.alias_cache_epoch(1, 0, 0, 0); // all-zero: nothing to say
        s.alias_cache_epoch(2, 5, 1, 0);
        s.alias_cache_epoch(3, 5, 1, 0); // unchanged: deduped
        s.alias_cache_epoch(4, 9, 2, 1);
        s.flush();
        let kinds: Vec<u64> = obs.journal().iter().map(|e| e.tick).collect();
        assert_eq!(kinds, vec![2, 4]);
    }

    #[test]
    fn trace_jsonl_is_sorted_and_line_per_event() {
        let obs = Obs::new();
        obs.record(5, 1, EventKind::RetireBegun);
        obs.record(2, 0, EventKind::ShardAppended { reactivated: false });
        let trace = obs.trace_jsonl();
        let lines: Vec<&str> = trace.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("shard_appended"));
        assert!(lines[1].contains("retire_begun"));
    }
}
