//! # grw_service — a sharded, multi-tenant walk-serving layer
//!
//! The ROADMAP north star is a production-scale system serving heavy walk
//! traffic. This crate is that serving layer, built entirely on the
//! streaming [`WalkBackend`] interface from `grw_algo`:
//!
//! * **Sharding** — N backend shards, each bound to the shared graph
//!   (`Arc<PreparedGraph>` fits the backend's `Borrow` bound), with
//!   queries partitioned by a hash of their start vertex. Any backend
//!   works: software engines ([`grw_algo::ParallelBackend`]), the
//!   cycle-level accelerator (`ridgewalker::AcceleratorBackend`), or a
//!   mix via trait objects.
//! * **Micro-batching** — a coalescing front-end parks incoming queries
//!   per shard and flushes size- or deadline-bounded micro-batches
//!   ([`FlushReason`]), the standard latency/throughput trade of a
//!   high-traffic serving tier.
//! * **Multi-tenancy** — tenants submit queries with their own id spaces;
//!   the service namespaces ids ([`TenantId::namespace`]) on the way in
//!   and routes every completed path back to its tenant on the way out.
//! * **Result streaming** — completed walks can stream into bounded
//!   [`WalkSink`] consumers ([`WalkService::tick_into`],
//!   [`WalkService::attach_sink`]) instead of accumulating in returned
//!   `Vec`s, with a conservation guarantee (every delivered walk reaches
//!   exactly one sink route exactly once) and a bounded spill buffer
//!   absorbing sink backpressure. Concrete sinks (skip-gram corpora, PPR
//!   aggregation, histograms, per-tenant fan-out) live in the `grw_sink`
//!   crate.
//! * **One runtime** — the per-shard step logic lives in one
//!   `ShardRunner` unit, and [`WalkService`] steps every runner inline
//!   in shard order on the caller's thread. Paths, tick stamps and obs
//!   traces are a pure function of the seed and the submission/tick
//!   sequence; `grw_route::Router` wraps this same type.
//! * **Observability** — [`ServiceStats`]: throughput in MStep/s (wall
//!   time, plus simulated time when backends report cycles), wall-clock
//!   walks/s, queue depth (total and per shard), micro-batch p50/p99
//!   latency, per-query end-to-end latency (arrival → delivery,
//!   bounded-reservoir percentiles plus exact mean/max), flush-reason
//!   and shard-balance breakdowns. Every [`CompletedWalk`] also carries
//!   its own arrival/flush/delivery tick stamps for exact per-query
//!   measurement.
//!
//! Time is a logical *tick*: every [`WalkService::tick`] call advances the
//! deadline clock, flushes what is due, and polls every shard. Paths are
//! therefore a deterministic function of the submission/tick sequence —
//! wall time only shows up in the latency statistics.
//!
//! # Example
//!
//! ```
//! use grw_algo::{ParallelBackend, PreparedGraph, QuerySet, WalkSpec};
//! use grw_graph::CsrGraph;
//! use grw_service::{ServiceConfig, TenantId, WalkService};
//! use std::sync::Arc;
//!
//! let g = CsrGraph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0)], true);
//! let spec = WalkSpec::urw(6);
//! let prepared = Arc::new(PreparedGraph::new(g, &spec).unwrap());
//! let mut service = WalkService::new(ServiceConfig::new(2), |shard| {
//!     ParallelBackend::new(prepared.clone(), spec.clone(), 0xFEED ^ shard as u64, 2)
//! });
//!
//! let queries = QuerySet::random(8, 100, 1);
//! let accepted = service.submit(TenantId(7), queries.queries());
//! assert_eq!(accepted, 100);
//! let done = service.drain();
//! assert_eq!(done.len(), 100);
//! assert!(done.iter().all(|c| c.tenant == TenantId(7)));
//! println!("{}", service.stats());
//! ```

pub mod accel;
mod batch;
mod runner;
pub mod sink;
mod stats;
mod tenant;

pub use accel::{
    accelerator_service, fleet_shard_seed, mixed_fleet_service, shard_backend, AccelShardMode,
    DynWalkBackend, ShardSpec,
};
pub use batch::FlushReason;
pub use sink::{SinkAck, SinkReport, WalkSink};
pub use stats::{percentile, ServiceStats, TenantStats};
pub use tenant::{TenantId, LOCAL_ID_BITS, MAX_LOCAL_ID};

use grw_algo::{BackendClass, BackendTelemetry, WalkBackend, WalkPath, WalkQuery};
use grw_obs::{Obs, GLOBAL_SHARD, SEQ_BASE_SPILL};
use grw_rng::SplitMix64;
use runner::ShardRunner;
use sink::SpillDelivery;
use stats::StatsCollector;
use std::time::Instant;

/// Smoothing factor for the per-shard latency EWMA: each delivery moves
/// the estimate 1/8 of the way to its own latency — responsive enough for
/// load-aware routing, smooth enough to ride out single-batch noise.
const LATENCY_EWMA_ALPHA: f64 = 0.125;

/// Configuration of a [`WalkService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Number of backend shards.
    pub shards: usize,
    /// Micro-batch size bound: a shard flushes as soon as this many
    /// queries have coalesced.
    pub max_batch: usize,
    /// Micro-batch deadline bound, in service ticks: a non-empty buffer
    /// never waits longer than this.
    pub max_delay_ticks: u64,
    /// Per-shard coalescing-buffer capacity (the service-level
    /// backpressure point).
    pub buffer_capacity: usize,
    /// Capacity of each latency reservoir (bounded uniform samples behind
    /// the percentile statistics; memory stays O(capacity) for week-long
    /// runs).
    pub latency_reservoir: usize,
    /// Completed walks the service will hold for a backpressured sink
    /// before forcing a flush — the delivery-side bound on resident
    /// paths when streaming through [`WalkSink`]s.
    pub sink_spill_capacity: usize,
    /// Event capacity of the observability journal built by
    /// [`WalkService::attach_fresh_obs`]. A run that outgrows it keeps
    /// the newest events and *counts* the drop (surfaced by `obsdump` as
    /// a warning banner) — overflow is never silent. Raise it for
    /// figure-scale runs whose traces must stay complete.
    pub journal_capacity: usize,
}

impl ServiceConfig {
    /// A sensible default configuration with `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        Self {
            shards,
            max_batch: 256,
            max_delay_ticks: 4,
            buffer_capacity: 1024,
            latency_reservoir: 4096,
            sink_spill_capacity: 1024,
            journal_capacity: grw_obs::DEFAULT_JOURNAL_CAPACITY,
        }
    }

    /// Sets the micro-batch size bound.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn max_batch(mut self, n: usize) -> Self {
        assert!(n > 0, "micro-batch size must be positive");
        self.max_batch = n;
        self
    }

    /// Sets the micro-batch deadline bound in ticks.
    pub fn max_delay_ticks(mut self, ticks: u64) -> Self {
        self.max_delay_ticks = ticks;
        self
    }

    /// Sets the per-shard buffer capacity.
    ///
    /// # Panics
    ///
    /// Panics if `n < max_batch` (a buffer must hold one full batch).
    pub fn buffer_capacity(mut self, n: usize) -> Self {
        assert!(n >= self.max_batch, "buffer must hold one full batch");
        self.buffer_capacity = n;
        self
    }

    /// Sets the latency-reservoir capacity.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn latency_reservoir(mut self, n: usize) -> Self {
        assert!(n > 0, "reservoir capacity must be positive");
        self.latency_reservoir = n;
        self
    }

    /// Sets the sink spill-buffer capacity (resident completed walks the
    /// service holds for a backpressured sink).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn sink_spill_capacity(mut self, n: usize) -> Self {
        assert!(n > 0, "spill capacity must be positive");
        self.sink_spill_capacity = n;
        self
    }

    /// Sets the event capacity of the journal behind
    /// [`WalkService::attach_fresh_obs`].
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn journal_capacity(mut self, n: usize) -> Self {
        assert!(n > 0, "journal capacity must be positive");
        self.journal_capacity = n;
        self
    }
}

/// A completed walk, routed back to the tenant that asked for it.
///
/// `path.query` is the *tenant-local* query id again — the namespacing
/// applied at submission is undone before delivery.
///
/// The three tick stamps trace the query through the serving tier:
/// accepted at `arrival_tick`, flushed to a backend at `flushed_tick`,
/// delivered at `completed_tick` — so end-to-end latency and its batching
/// component are both observable per query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedWalk {
    /// The tenant that submitted the query.
    pub tenant: TenantId,
    /// The walk, keyed by the tenant's own query id.
    pub path: WalkPath,
    /// Service tick at which the query was accepted.
    pub arrival_tick: u64,
    /// Service tick at which its micro-batch was flushed to a backend.
    pub flushed_tick: u64,
    /// Service tick at which the path was delivered. Queries delivered by
    /// [`WalkService::drain`] carry the tick current when drain ran (drain
    /// does not advance the clock).
    pub completed_tick: u64,
}

impl CompletedWalk {
    /// End-to-end latency in service ticks (arrival → delivery).
    pub fn latency_ticks(&self) -> u64 {
        self.completed_tick - self.arrival_tick
    }

    /// Ticks spent coalescing in the micro-batch buffer (arrival → flush);
    /// always ≤ [`latency_ticks`](Self::latency_ticks).
    pub fn batching_delay_ticks(&self) -> u64 {
        self.flushed_tick - self.arrival_tick
    }
}

/// A point-in-time, per-shard view of the live signals a routing tier
/// places tenants with: what the shard is (class, static cost prior),
/// how loaded it is (coalescing-buffer depth, backend residency and its
/// awaiting/executing split where reported), and how it has been
/// performing (per-shard latency EWMA, pipeline bubble ratio).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    /// Shard index within the service.
    pub shard: usize,
    /// Execution substrate of the shard's backend.
    pub class: BackendClass,
    /// The backend's static relative cost prior (lower = cheaper).
    pub cost_hint: f64,
    /// Queries parked in the shard's coalescing buffer.
    pub queued: usize,
    /// Queries resident inside the backend (accepted, not yet returned).
    pub in_flight: usize,
    /// Backend-internal admission backlog (the accelerator machine's
    /// awaiting-injection count), when the backend reports the split.
    pub awaiting_injection: Option<usize>,
    /// Queries actually executing in the backend's compute (the machine's
    /// in-pipeline count), when reported.
    pub executing: Option<usize>,
    /// Queries routed to this shard since the service started.
    pub submitted: u64,
    /// Walks this shard has delivered.
    pub completed: u64,
    /// EWMA of per-query end-to-end latency delivered by this shard, in
    /// ticks; `None` until the first delivery.
    pub ewma_latency_ticks: Option<f64>,
    /// The shard backend's cumulative pipeline bubble ratio, when it
    /// reports a pipeline-cycle breakdown.
    pub bubble_ratio: Option<f64>,
    /// The shard backend's cumulative sampling-kernel counters (rejection
    /// trials, alias builds, second-order edge-cache hits/evictions).
    pub sampling: grw_sim::stats::SamplingCounters,
}

impl ShardSnapshot {
    /// Total queries this shard is responsible for right now (parked in
    /// its buffer plus resident in its backend).
    pub fn backlog(&self) -> usize {
        self.queued + self.in_flight
    }
}

/// The sharded, multi-tenant serving front-end over N walk backends.
///
/// See the crate docs for the full model; the lifecycle is
/// [`submit`](Self::submit) → [`tick`](Self::tick)* →
/// [`drain`](Self::drain), with [`stats`](Self::stats) available at any
/// point.
pub struct WalkService<B: WalkBackend> {
    cfg: ServiceConfig,
    runners: Vec<ShardRunner<B>>,
    tick: u64,
    started: Instant,
    collector: StatsCollector,
    /// Completed walks a backpressured sink could not take yet, oldest
    /// first; bounded by [`ServiceConfig::sink_spill_capacity`].
    spill: SpillDelivery,
    /// The subscribed sink, when delivery is in streaming mode: `tick`
    /// and `drain` route every completed walk here and return nothing.
    attached: Option<Box<dyn WalkSink + Send>>,
    /// Telemetry of shards retired by [`retire_shard`](Self::retire_shard),
    /// folded into [`stats`](Self::stats) rollups so fleet-lifetime step
    /// counters survive scale-down events.
    retired_telemetry: Vec<BackendTelemetry>,
    /// Observability hub (disabled until [`attach_obs`](Self::attach_obs)):
    /// runners and the spill record into per-source buffers that flush
    /// into this hub at barriers.
    obs: Obs,
}

impl<B: WalkBackend> WalkService<B> {
    /// Builds a service whose `shard`-th backend comes from
    /// `make_backend(shard)`.
    pub fn new(cfg: ServiceConfig, mut make_backend: impl FnMut(usize) -> B) -> Self {
        let runners = (0..cfg.shards)
            .map(|i| ShardRunner::new(&cfg, make_backend(i)))
            .collect();
        Self {
            cfg,
            runners,
            tick: 0,
            started: Instant::now(),
            collector: StatsCollector::new(cfg.latency_reservoir),
            spill: SpillDelivery::new(cfg.sink_spill_capacity),
            attached: None,
            retired_telemetry: Vec::new(),
            obs: Obs::disabled(),
        }
    }

    /// Attaches an observability hub: every shard runner gets a
    /// per-shard recorder (queries admitted/delivered, micro-batch
    /// boundaries, latency histograms) and the service-global spill gets
    /// one under [`GLOBAL_SHARD`]. Recording is buffered per source and
    /// flushed into the hub at barriers ([`drain`](Self::drain),
    /// [`retire_shard`](Self::retire_shard), or an explicit
    /// [`flush_obs`](Self::flush_obs)); a disabled hub makes every
    /// recording call a no-op. Attaching never changes walk content or
    /// tick stamps.
    pub fn attach_obs(&mut self, obs: Obs) {
        for (i, r) in self.runners.iter_mut().enumerate() {
            r.set_obs(obs.shard_obs(i as u32));
        }
        self.spill
            .set_obs(obs.shard_obs(GLOBAL_SHARD).seq_base(SEQ_BASE_SPILL));
        self.obs = obs;
    }

    /// Builds a live hub sized by [`ServiceConfig::journal_capacity`],
    /// attaches it, and returns a handle — the one-liner for callers
    /// that want the config to govern how much trace a run can keep.
    pub fn attach_fresh_obs(&mut self) -> Obs {
        let obs = Obs::with_capacity(self.cfg.journal_capacity);
        self.attach_obs(obs.clone());
        obs
    }

    /// The configured journal capacity
    /// ([`ServiceConfig::journal_capacity`]).
    pub fn journal_capacity(&self) -> usize {
        self.cfg.journal_capacity
    }

    /// Flushes every per-source event buffer into the hub and journals
    /// per-shard alias-cache epochs — the explicit export barrier for
    /// callers that want the trace current without draining.
    pub fn flush_obs(&mut self) {
        for r in &mut self.runners {
            r.record_alias_epoch();
            r.obs.flush();
        }
        self.spill.obs.flush();
    }

    /// Grows the live fleet by one shard and returns its index (always
    /// the new highest). The shard starts empty at the current tick and
    /// is part of the vertex-hash partition from the very next
    /// submission — appends land at a micro-batch boundary by
    /// construction, because the service only mutates between `submit` /
    /// `tick` calls.
    ///
    /// Determinism: a shard's walks are a pure function of its own
    /// command stream, so a fleet grown at tick T produces the same
    /// walks as a fleet born at size N+1 receiving the same per-shard
    /// streams. Derive the backend's seed deterministically from the
    /// fleet seed and this index (see
    /// [`fleet_shard_seed`]) to keep scale
    /// events reproducible.
    pub fn append_shard(&mut self, backend: B) -> usize {
        let shard = self.runners.len();
        self.runners.push(ShardRunner::new(&self.cfg, backend));
        if self.obs.is_enabled() {
            self.runners[shard].set_obs(self.obs.shard_obs(shard as u32));
        }
        self.cfg.shards = self.runners.len();
        shard
    }

    /// Shrinks the live fleet by one shard — the highest-index one —
    /// draining it in place first so walk conservation holds: everything
    /// the shard had accepted completes and is returned (or streamed
    /// into the attached sink), then the shard leaves the vertex-hash
    /// partition. Retirement is LIFO so surviving shard indices never
    /// shift under routers or placement policies.
    ///
    /// The retired backend's telemetry stays folded into
    /// [`stats`](Self::stats), so fleet-lifetime counters (steps,
    /// sampling, cycles) survive scale-down.
    ///
    /// # Panics
    ///
    /// Panics if the fleet has only one shard (a service always has at
    /// least one), or if the retiring backend stalls while draining.
    pub fn retire_shard(&mut self) -> Vec<CompletedWalk> {
        assert!(self.runners.len() > 1, "cannot retire the last shard");
        let mut runner = self.runners.pop().expect("fleet is non-empty");
        let walks = runner.drain_all(&mut self.collector);
        runner.record_alias_epoch();
        runner.obs.flush();
        self.retired_telemetry.push(runner.backend.telemetry());
        self.cfg.shards = self.runners.len();
        self.route_or_return(walks)
    }

    /// The shard a start vertex routes to (stable vertex-hash partition).
    pub fn shard_of(&self, start: u32) -> usize {
        (SplitMix64::mix(u64::from(start)) % self.cfg.shards as u64) as usize
    }

    /// Offers queries on behalf of `tenant`; accepts a prefix and returns
    /// its length (service-level backpressure: a full shard buffer stops
    /// acceptance).
    ///
    /// Query ids are tenant-local and must fit [`MAX_LOCAL_ID`]; the
    /// completed paths come back keyed by the same local ids.
    pub fn submit(&mut self, tenant: TenantId, queries: &[WalkQuery]) -> usize {
        self.submit_inner(tenant, queries, None)
    }

    /// [`submit`](Self::submit) with the placement decided by the caller:
    /// every accepted query parks in shard `shard`'s coalescing buffer
    /// instead of its vertex-hash home. This is the routing hook a
    /// placement tier (the `grw_route` crate) drives — the service itself
    /// never migrates queries, so a query accepted here executes and
    /// completes on `shard` exactly as if the hash had chosen it.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn submit_routed(
        &mut self,
        tenant: TenantId,
        queries: &[WalkQuery],
        shard: usize,
    ) -> usize {
        assert!(shard < self.runners.len(), "shard {shard} out of range");
        self.submit_inner(tenant, queries, Some(shard))
    }

    /// Shared acceptance loop behind [`submit`](Self::submit) (vertex-hash
    /// placement) and [`submit_routed`](Self::submit_routed) (explicit
    /// placement).
    fn submit_inner(
        &mut self,
        tenant: TenantId,
        queries: &[WalkQuery],
        fixed_shard: Option<usize>,
    ) -> usize {
        let mut accepted = 0;
        for q in queries {
            let internal = tenant.namespace_query(q);
            let shard = fixed_shard.unwrap_or_else(|| self.shard_of(q.start));
            if !self.runners[shard].accept(internal, self.tick, &mut self.collector) {
                break;
            }
            accepted += 1;
        }
        if accepted > 0 {
            self.collector.record_submitted(tenant, accepted as u64);
        }
        accepted
    }

    /// Advances the logical clock one tick: flushes every micro-batch that
    /// is due (size or deadline), polls every shard, and returns the walks
    /// that completed.
    ///
    /// With a sink [attached](Self::attach_sink), the completed walks are
    /// streamed into it instead and the returned `Vec` is empty.
    pub fn tick(&mut self) -> Vec<CompletedWalk> {
        let out = self.advance_tick();
        self.route_or_return(out)
    }

    /// [`tick`](Self::tick), delivering into `sink` instead of returning a
    /// `Vec`: every walk completing this tick is offered to the sink (or
    /// parked in the bounded spill buffer if it pushes back). Returns the
    /// number of walks that completed this tick.
    ///
    /// The spill buffer belongs to the *delivery stream*, not to any one
    /// sink value: walks spilled by this call are re-offered to whatever
    /// sink the next delivery call passes. Consecutive `tick_into`/
    /// [`drain_into`](Self::drain_into) calls therefore form one logical
    /// route — to hand the stream to a *different* consumer without
    /// leaking spilled walks across, run the spill dry first (a
    /// `drain_into` with the old sink, or keep ticking it until
    /// [`ServiceStats::sink_spill_depth`] is zero).
    ///
    /// # Panics
    ///
    /// Panics if a sink is [attached](Self::attach_sink) (one route per
    /// walk — mixing subscription and explicit delivery would make the
    /// destination ambiguous), or if the sink refuses delivery after a
    /// flush while the spill buffer is full (a sink-contract violation).
    pub fn tick_into<S: WalkSink + ?Sized>(&mut self, sink: &mut S) -> usize {
        assert!(
            self.attached.is_none(),
            "detach the subscribed sink before delivering into another"
        );
        let out = self.advance_tick();
        self.spill
            .deliver(out, sink, self.tick, &mut self.collector)
    }

    /// Flushes everything and runs every shard dry; returns the remaining
    /// walks. Afterwards [`ServiceStats::queue_depth`] is zero.
    ///
    /// With a sink [attached](Self::attach_sink), the walks are streamed
    /// into it (running the spill buffer dry and flushing the sink at the
    /// end) and the returned `Vec` is empty.
    ///
    /// # Panics
    ///
    /// Panics if a backend refuses its remaining work without making any
    /// progress (a backend bug, not a reachable service state).
    pub fn drain(&mut self) -> Vec<CompletedWalk> {
        if let Some(mut sink) = self.attached.take() {
            self.drain_into_sink(&mut sink);
            self.attached = Some(sink);
            self.flush_obs();
            return Vec::new();
        }
        let out = self.drain_collect();
        let out = self.route_or_return(out);
        self.flush_obs();
        out
    }

    /// [`drain`](Self::drain), delivering into `sink`: every remaining
    /// walk reaches the sink round by round as the shards run dry — the
    /// resident completed-path count never exceeds one poll round plus
    /// the spill buffer, even when the backlog is huge — then the spill
    /// buffer is emptied (forcing sink flushes where needed) and the sink
    /// is flushed so downstream consumers see the tail. Returns the
    /// number of walks drained.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`tick_into`](Self::tick_into),
    /// or if the sink keeps refusing spilled walks across flushes.
    pub fn drain_into<S: WalkSink + ?Sized>(&mut self, sink: &mut S) -> usize {
        assert!(
            self.attached.is_none(),
            "detach the subscribed sink before delivering into another"
        );
        let delivered = self.drain_into_sink(sink);
        self.flush_obs();
        delivered
    }

    /// Clean shutdown: [`drain`](Self::drain)s every shard and returns
    /// the remaining walks with the final [`stats`](Self::stats).
    pub fn finish(mut self) -> (Vec<CompletedWalk>, ServiceStats) {
        let walks = self.drain();
        (walks, self.stats())
    }

    /// The drain loop in streaming form: each round's completions go
    /// straight into the sink instead of accumulating in a `Vec`.
    fn drain_into_sink<S: WalkSink + ?Sized>(&mut self, sink: &mut S) -> usize {
        let mut delivered = 0;
        loop {
            let (out, progressed) = self.drain_round();
            delivered += self
                .spill
                .deliver(out, sink, self.tick, &mut self.collector);
            if self.queue_depth() == 0 {
                break;
            }
            assert!(
                progressed,
                "service stalled: backends hold work but complete nothing"
            );
        }
        self.spill.run_dry(sink, self.tick, &mut self.collector);
        sink.flush();
        delivered
    }

    /// Subscribes `sink` to the delivery stream: from now on [`tick`] and
    /// [`drain`] route every completed walk into it and return empty
    /// `Vec`s. Returns the previously attached sink, if any — after
    /// running any spilled walks into it, so replacing one subscription
    /// with another never leaks the old subscription's walks into the new
    /// sink. (Walks spilled by earlier *explicit* `tick_into` calls have
    /// no owning sink value and go to the new subscription — see
    /// [`tick_into`](Self::tick_into) on running the spill dry before
    /// switching consumers.)
    ///
    /// [`tick`]: Self::tick
    /// [`drain`]: Self::drain
    pub fn attach_sink(
        &mut self,
        sink: Box<dyn WalkSink + Send>,
    ) -> Option<Box<dyn WalkSink + Send>> {
        let previous = self.detach_sink();
        self.attached = Some(sink);
        previous
    }

    /// Ends the subscription and returns the sink, first running any
    /// spilled walks into it (conservation: they belong to its route) and
    /// flushing it.
    pub fn detach_sink(&mut self) -> Option<Box<dyn WalkSink + Send>> {
        let mut sink = self.attached.take()?;
        self.spill
            .run_dry(&mut sink, self.tick, &mut self.collector);
        sink.flush();
        Some(sink)
    }

    /// The attached sink's own counters, when one is subscribed.
    pub fn sink_report(&self) -> Option<SinkReport> {
        self.attached.as_ref().map(|s| s.report())
    }

    /// Completed walks currently parked in the spill buffer, O(1) — the
    /// per-tick residency observation (the same number as
    /// [`ServiceStats::sink_spill_depth`], without building a full stats
    /// snapshot).
    pub fn spill_depth(&self) -> usize {
        self.spill.depth()
    }

    /// Shared clock/flush/poll step behind [`tick`](Self::tick) and
    /// [`tick_into`](Self::tick_into): every runner steps inline, in
    /// shard order, against the one global collector.
    fn advance_tick(&mut self) -> Vec<CompletedWalk> {
        self.tick += 1;
        let mut out = Vec::new();
        for r in &mut self.runners {
            r.run_tick(self.tick, &mut self.collector, &mut out);
        }
        out
    }

    /// One round of the drain loop: flushes the coalescing buffers as far
    /// as the backends accept, runs every shard dry once, and returns
    /// `(completions of this round, whether any backend made progress)`.
    fn drain_round(&mut self) -> (Vec<CompletedWalk>, bool) {
        for r in &mut self.runners {
            r.drain_buffers(&mut self.collector);
        }
        let mut out = Vec::new();
        let mut progressed = false;
        for r in &mut self.runners {
            progressed |= r.drain_backend(&mut self.collector, &mut out);
        }
        (out, progressed)
    }

    /// The drain loop in collecting form, behind the `Vec`-returning
    /// [`drain`](Self::drain).
    fn drain_collect(&mut self) -> Vec<CompletedWalk> {
        let mut delivered = Vec::new();
        loop {
            let (out, progressed) = self.drain_round();
            delivered.extend(out);
            if self.queue_depth() == 0 {
                return delivered;
            }
            // Buffers still hold pushback from a previously-full backend;
            // draining must have freed capacity for the next round.
            assert!(
                progressed,
                "service stalled: backends hold work but complete nothing"
            );
        }
    }

    /// Streams `out` into the attached sink when one is subscribed
    /// (returning an empty `Vec`), or hands it back to the caller.
    fn route_or_return(&mut self, out: Vec<CompletedWalk>) -> Vec<CompletedWalk> {
        let Some(mut sink) = self.attached.take() else {
            if self.spill.is_empty() {
                return out;
            }
            // Walks spilled by an earlier explicit `tick_into` were never
            // consumed by any sink; a caller switching back to `Vec`
            // delivery gets them here (oldest first) instead of having
            // them stranded in the spill buffer forever.
            let mut all = self.spill.take_all();
            all.extend(out);
            return all;
        };
        self.spill
            .deliver(out, &mut sink, self.tick, &mut self.collector);
        self.attached = Some(sink);
        Vec::new()
    }

    /// Queries parked in buffers plus queries in flight inside backends.
    pub fn queue_depth(&self) -> usize {
        self.runners.iter().map(|r| r.queue_depth()).sum()
    }

    /// Point-in-time service statistics.
    pub fn stats(&self) -> ServiceStats {
        let rollup = stats::rollup_telemetry(
            self.runners
                .iter()
                .map(|r| r.backend.telemetry())
                .chain(self.retired_telemetry.iter().copied()),
        );
        ServiceStats::build(
            &self.collector,
            self.cfg.shards,
            self.queue_depth(),
            rollup.steps,
            self.started.elapsed().as_secs_f64(),
            rollup.simulated,
            rollup.pipeline,
            self.runners.iter().map(|r| r.submitted).collect(),
            self.runners.iter().map(|r| r.queue_depth()).collect(),
            self.spill.depth(),
            rollup.sampling,
        )
    }

    /// The current logical tick.
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// Number of backend shards.
    pub fn shard_count(&self) -> usize {
        self.runners.len()
    }

    /// Immutable access to a shard's backend (telemetry, reports).
    pub fn backend(&self, shard: usize) -> &B {
        &self.runners[shard].backend
    }

    /// Live per-shard signals for load-aware placement: one
    /// [`ShardSnapshot`] per shard, cheap enough to take before every
    /// routing decision (no latency-sample copies, just counters and the
    /// backend telemetry call).
    pub fn shard_snapshots(&self) -> Vec<ShardSnapshot> {
        self.runners
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let t = r.backend.telemetry();
                ShardSnapshot {
                    shard: i,
                    class: r.backend.backend_class(),
                    cost_hint: r.backend.cost_hint(),
                    queued: r.queued(),
                    in_flight: r.backend.in_flight(),
                    awaiting_injection: t.occupancy_split.map(|(a, _)| a),
                    executing: t.occupancy_split.map(|(_, e)| e),
                    submitted: r.submitted,
                    completed: r.completed,
                    ewma_latency_ticks: r.ewma_latency_ticks,
                    bubble_ratio: t.pipeline.map(|m| m.bubble_ratio()),
                    sampling: t.sampling,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grw_algo::{ParallelBackend, PreparedGraph, QuerySet, ReferenceBackend, WalkSpec};
    use grw_graph::generators::{Dataset, ScaleFactor};
    use std::sync::Arc;

    fn shared() -> (Arc<PreparedGraph>, WalkSpec) {
        let g = Dataset::WebGoogle.generate(ScaleFactor::Tiny);
        let spec = WalkSpec::urw(8);
        (Arc::new(PreparedGraph::new(g, &spec).unwrap()), spec)
    }

    fn service(
        shards: usize,
        cfg: ServiceConfig,
    ) -> (
        WalkService<ParallelBackend<Arc<PreparedGraph>>>,
        Arc<PreparedGraph>,
    ) {
        let (p, spec) = shared();
        let prepared = p.clone();
        let svc = WalkService::new(cfg.max_batch(32), move |shard| {
            ParallelBackend::new(prepared.clone(), spec.clone(), 0xBEEF ^ shard as u64, 2)
        });
        assert_eq!(svc.stats().shards, shards);
        (svc, p)
    }

    #[test]
    fn every_query_is_answered_exactly_once_for_its_tenant() {
        let (mut svc, p) = service(3, ServiceConfig::new(3));
        let nv = p.graph().vertex_count();
        let tenants = [TenantId(0), TenantId(1), TenantId(9)];
        let mut expected = std::collections::HashSet::new();
        for (i, &t) in tenants.iter().enumerate() {
            let qs = QuerySet::random(nv, 200, i as u64);
            assert_eq!(svc.submit(t, qs.queries()), 200);
            for q in qs.queries() {
                expected.insert((t, q.id));
            }
        }
        let mut done = Vec::new();
        for _ in 0..3 {
            done.extend(svc.tick());
        }
        done.extend(svc.drain());
        assert_eq!(done.len(), 600);
        let mut seen = std::collections::HashSet::new();
        for c in &done {
            assert!(
                seen.insert((c.tenant, c.path.query)),
                "duplicate delivery {:?}/{}",
                c.tenant,
                c.path.query
            );
        }
        assert_eq!(seen, expected, "every query answered exactly once");
        assert_eq!(svc.queue_depth(), 0);
        let stats = svc.stats();
        assert_eq!(stats.completed, 600);
        assert_eq!(stats.per_shard_submitted.iter().sum::<u64>(), 600);
        assert!(
            stats.per_shard_submitted.iter().all(|&n| n > 0),
            "hash balance"
        );
    }

    #[test]
    fn paths_are_deterministic_across_runs_and_backend_kinds() {
        let run = || {
            let (mut svc, _) = service(2, ServiceConfig::new(2));
            let qs = QuerySet::random(100, 300, 7);
            svc.submit(TenantId(3), qs.queries());
            let mut out = svc.drain();
            out.sort_by_key(|c| c.path.query);
            out
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        // Same sharding and seeds but sequential reference backends:
        // bit-identical, because software backends key RNG by (seed, id).
        let (p, spec) = shared();
        let prepared = p.clone();
        let mut svc = WalkService::new(ServiceConfig::new(2).max_batch(32), move |shard| {
            ReferenceBackend::new(prepared.clone(), spec.clone(), 0xBEEF ^ shard as u64)
        });
        let qs = QuerySet::random(100, 300, 7);
        svc.submit(TenantId(3), qs.queries());
        let mut c = svc.drain();
        c.sort_by_key(|x| x.path.query);
        let a_paths: Vec<_> = a.iter().map(|x| &x.path).collect();
        let c_paths: Vec<_> = c.iter().map(|x| &x.path).collect();
        assert_eq!(a_paths, c_paths);
    }

    #[test]
    fn deadline_flushes_a_trickle() {
        let (mut svc, _) = service(2, ServiceConfig::new(2).max_delay_ticks(3));
        // One lonely query: far below max_batch.
        svc.submit(TenantId(0), &[WalkQuery { id: 1, start: 5 }]);
        assert!(svc.tick().is_empty());
        assert!(svc.tick().is_empty());
        let done = svc.tick(); // deadline reached -> flush + poll
        assert_eq!(done.len(), 1, "deadline must flush a below-size batch");
        assert_eq!(svc.stats().flushed_by_deadline, 1);
    }

    #[test]
    fn backpressure_stops_acceptance_prefix_wise() {
        let (p, spec) = shared();
        let prepared = p.clone();
        // Tiny backend queues + tiny buffers force pushback.
        let mut svc = WalkService::new(
            ServiceConfig::new(1).max_batch(4).buffer_capacity(4),
            move |_| ReferenceBackend::new(prepared.clone(), spec.clone(), 1).queue_capacity(4),
        );
        let qs = QuerySet::random(50, 100, 2);
        let accepted = svc.submit(TenantId(0), qs.queries());
        assert!(
            accepted < 100,
            "bounded service must push back, took {accepted}"
        );
        let done = svc.drain();
        assert_eq!(done.len(), accepted);
        // The rejected suffix can be resubmitted afterwards.
        let rest = svc.submit(TenantId(0), &qs.queries()[accepted..]);
        assert!(rest > 0);
        assert_eq!(svc.drain().len(), rest);
    }

    #[test]
    fn stats_track_throughput_and_latency() {
        let (mut svc, _) = service(2, ServiceConfig::new(2));
        let qs = QuerySet::random(100, 400, 3);
        svc.submit(TenantId(5), qs.queries());
        let done = svc.drain();
        let stats = svc.stats();
        assert_eq!(stats.completed, 400);
        assert!(
            stats.batches_flushed >= 12,
            "32-sized batches over 400 queries"
        );
        assert!(stats.steps > 0);
        let expected_steps: u64 = done.iter().map(|c| c.path.steps()).sum();
        assert_eq!(stats.steps, expected_steps);
        assert!(stats.msteps_per_sec_wall > 0.0);
        assert!(stats.p99_batch_latency_us >= stats.p50_batch_latency_us);
        assert!(
            stats.simulated_cycles.is_none(),
            "software backends report no cycle clock"
        );
    }

    #[test]
    fn per_query_latency_spans_batching_delay() {
        let (mut svc, p) = service(2, ServiceConfig::new(2).max_delay_ticks(2));
        let nv = p.graph().vertex_count();
        // Trickle queries over several ticks so arrival ticks differ.
        let qs = QuerySet::random(nv, 120, 4);
        let mut done = Vec::new();
        for chunk in qs.queries().chunks(10) {
            assert_eq!(svc.submit(TenantId(2), chunk), 10);
            done.extend(svc.tick());
        }
        done.extend(svc.drain());
        assert_eq!(done.len(), 120);
        for c in &done {
            assert!(
                c.arrival_tick <= c.flushed_tick && c.flushed_tick <= c.completed_tick,
                "tick stamps must be ordered: {c:?}"
            );
            assert!(c.latency_ticks() >= c.batching_delay_ticks());
        }
        let stats = svc.stats();
        let exact_mean =
            done.iter().map(|c| c.latency_ticks()).sum::<u64>() as f64 / done.len() as f64;
        assert!((stats.mean_query_latency_ticks - exact_mean).abs() < 1e-9);
        let exact_max = done.iter().map(|c| c.latency_ticks()).max().unwrap();
        assert_eq!(stats.max_query_latency_ticks, exact_max);
        assert!(stats.p99_query_latency_ticks >= stats.p50_query_latency_ticks);
    }

    #[test]
    fn latency_reservoir_stays_bounded() {
        let (mut svc, p) = service(2, ServiceConfig::new(2).latency_reservoir(32));
        let nv = p.graph().vertex_count();
        let qs = QuerySet::random(nv, 500, 6);
        svc.submit(TenantId(1), qs.queries());
        let done = svc.drain();
        assert_eq!(done.len(), 500);
        let stats = svc.stats();
        // Percentiles still come out despite only 32 retained samples, and
        // the exact aggregates cover all 500 deliveries.
        assert_eq!(stats.completed, 500);
        assert!(stats.p99_query_latency_ticks >= stats.p50_query_latency_ticks);
        assert!(stats.mean_query_latency_ticks >= 0.0);
    }

    #[test]
    fn duplicate_local_ids_on_different_shards_stay_separate() {
        let (mut svc, p) = service(2, ServiceConfig::new(2));
        let nv = p.graph().vertex_count() as u32;
        // Two queries sharing one tenant-local id, landing on different
        // shards: batch accounting must not cross-credit them.
        let a = (0..nv).find(|&v| svc.shard_of(v) == 0).unwrap();
        let b = (0..nv).find(|&v| svc.shard_of(v) == 1).unwrap();
        let queries = [WalkQuery { id: 5, start: a }, WalkQuery { id: 5, start: b }];
        assert_eq!(svc.submit(TenantId(1), &queries), 2);
        let done = svc.drain();
        assert_eq!(done.len(), 2);
        let mut starts: Vec<u32> = done.iter().map(|c| c.path.vertices[0]).collect();
        starts.sort_unstable();
        let mut want = vec![a, b];
        want.sort_unstable();
        assert_eq!(starts, want);
        assert!(done.iter().all(|c| c.path.query == 5));
        assert_eq!(svc.stats().batches_flushed, 2);
    }

    #[test]
    fn a_local_id_reused_on_one_shard_keeps_each_querys_own_stamps() {
        let (p, spec) = shared();
        // One shard executing one query per poll, so the first use of the
        // id is still in flight when the second arrives.
        let mut svc = WalkService::new(ServiceConfig::new(1).max_delay_ticks(1), move |_| {
            ReferenceBackend::new(p.clone(), spec.clone(), 0xBEEF).poll_chunk(1)
        });
        let (a, b) = (3, 11);
        let first = [WalkQuery { id: 1, start: 0 }, WalkQuery { id: 7, start: a }];
        assert_eq!(svc.submit(TenantId(4), &first), 2);
        let mut done = svc.tick(); // tick 1: flushes both, runs id 1
        assert_eq!(done.len(), 1);
        assert_eq!(
            svc.stats().queue_depth,
            1,
            "the first id-7 query is in flight"
        );
        assert_eq!(svc.submit(TenantId(4), &[WalkQuery { id: 7, start: b }]), 1);
        while done.len() < 3 {
            done.extend(svc.tick());
        }
        let stamps = |start: u32| {
            let c = done
                .iter()
                .find(|c| c.path.query == 7 && c.path.vertices[0] == start)
                .expect("each use of the id completes");
            (c.arrival_tick, c.flushed_tick, c.completed_tick)
        };
        assert_eq!(stamps(a), (0, 1, 2));
        assert_eq!(stamps(b), (1, 2, 3));
        assert_eq!(svc.stats().batches_flushed, 2);
        assert_eq!(svc.collector.batch_latencies_ticks.seen(), 2);
        assert_eq!(svc.stats().queue_depth, 0);
    }

    /// Test sink: collects walks, optionally refusing while its window
    /// buffer is full (flush moves the window into `taken`).
    struct WindowSink {
        window: Vec<CompletedWalk>,
        taken: Vec<CompletedWalk>,
        capacity: usize,
        refused: u64,
        flushes: u64,
    }

    impl WindowSink {
        fn new(capacity: usize) -> Self {
            Self {
                window: Vec::new(),
                taken: Vec::new(),
                capacity,
                refused: 0,
                flushes: 0,
            }
        }

        fn all(&self) -> Vec<&CompletedWalk> {
            self.taken.iter().chain(self.window.iter()).collect()
        }
    }

    impl WalkSink for WindowSink {
        fn accept(&mut self, walk: &CompletedWalk) -> SinkAck {
            if self.window.len() >= self.capacity {
                self.refused += 1;
                return SinkAck::Backpressured;
            }
            self.window.push(walk.clone());
            SinkAck::Accepted
        }

        fn flush(&mut self) {
            self.flushes += 1;
            self.taken.append(&mut self.window);
        }

        fn report(&self) -> SinkReport {
            SinkReport {
                accepted: (self.taken.len() + self.window.len()) as u64,
                refused: self.refused,
                flushes: self.flushes,
                emitted: self.taken.len() as u64,
                buffered: self.window.len(),
                peak_buffered: self.capacity.min(self.taken.len() + self.window.len()),
            }
        }
    }

    #[test]
    fn tick_into_delivers_the_same_multiset_as_tick() {
        let run_legacy = || {
            let (mut svc, _) = service(2, ServiceConfig::new(2).max_delay_ticks(1));
            let qs = QuerySet::random(100, 200, 5);
            svc.submit(TenantId(3), qs.queries());
            let mut out = Vec::new();
            for _ in 0..6 {
                out.extend(svc.tick());
            }
            out.extend(svc.drain());
            out
        };
        let (mut svc, _) = service(2, ServiceConfig::new(2).max_delay_ticks(1));
        let qs = QuerySet::random(100, 200, 5);
        svc.submit(TenantId(3), qs.queries());
        let mut sink = WindowSink::new(usize::MAX);
        let mut delivered = 0;
        for _ in 0..6 {
            delivered += svc.tick_into(&mut sink);
        }
        delivered += svc.drain_into(&mut sink);
        assert_eq!(delivered, 200);
        let mut legacy = run_legacy();
        let mut sunk: Vec<CompletedWalk> = sink.all().into_iter().cloned().collect();
        legacy.sort_by_key(|c| c.path.query);
        sunk.sort_by_key(|c| c.path.query);
        assert_eq!(legacy, sunk, "sink delivery must match the Vec path");
        let stats = svc.stats();
        assert_eq!(stats.sink_accepted, 200);
        assert_eq!(stats.sink_spilled, 0);
        assert_eq!(stats.sink_spill_depth, 0);
    }

    #[test]
    fn backpressured_sink_spills_within_bound_and_loses_nothing() {
        let (mut svc, _) = service(
            2,
            ServiceConfig::new(2)
                .max_delay_ticks(1)
                .sink_spill_capacity(8),
        );
        let qs = QuerySet::random(100, 300, 9);
        svc.submit(TenantId(1), qs.queries());
        // A sink that takes only 4 walks between flushes: most deliveries
        // bounce at least once.
        let mut sink = WindowSink::new(4);
        let mut delivered = 0;
        loop {
            delivered += svc.tick_into(&mut sink);
            let depth = svc.stats().sink_spill_depth;
            assert!(depth <= 8, "spill must stay bounded, saw {depth}");
            if svc.queue_depth() == 0 {
                break;
            }
        }
        delivered += svc.drain_into(&mut sink);
        assert_eq!(delivered, 300);
        assert_eq!(sink.all().len(), 300, "conservation through backpressure");
        let stats = svc.stats();
        assert_eq!(stats.sink_accepted, 300);
        assert!(stats.sink_backpressured > 0, "tiny sink must push back");
        assert!(stats.sink_spilled > 0);
        assert!(stats.sink_forced_flushes > 0);
        assert_eq!(stats.sink_spill_depth, 0, "drain_into runs the spill dry");
        assert!(svc.stats().to_string().contains("sink delivery"));
    }

    #[test]
    fn attached_sink_makes_tick_and_drain_stream() {
        let (mut svc, _) = service(2, ServiceConfig::new(2));
        let qs = QuerySet::random(100, 150, 8);
        svc.submit(TenantId(2), qs.queries());
        svc.attach_sink(Box::new(WindowSink::new(usize::MAX)));
        assert!(svc.tick().is_empty(), "subscription swallows deliveries");
        assert!(svc.drain().is_empty());
        assert_eq!(svc.queue_depth(), 0);
        let report = svc.sink_report().expect("sink attached");
        assert_eq!(report.accepted, 150);
        let sink = svc.detach_sink().expect("sink attached");
        assert_eq!(sink.report().accepted, 150);
        assert!(svc.sink_report().is_none());
        // Detached: tick/drain return Vecs again.
        svc.submit(TenantId(2), qs.queries());
        assert_eq!(svc.drain().len(), 150);
    }

    #[test]
    fn forced_flush_that_unblocks_the_sink_delivers_directly() {
        // Spill capacity below the sink's window: a forced flush empties
        // both, so the walk that triggered it goes straight into the sink
        // instead of waiting a tick in the spill.
        let (mut svc, _) = service(
            1,
            ServiceConfig::new(1)
                .max_delay_ticks(1)
                .sink_spill_capacity(1),
        );
        let qs = QuerySet::random(100, 60, 12);
        svc.submit(TenantId(3), qs.queries());
        let mut sink = WindowSink::new(8);
        while svc.queue_depth() > 0 {
            svc.tick_into(&mut sink);
        }
        svc.drain_into(&mut sink);
        assert_eq!(sink.all().len(), 60, "conservation");
        let stats = svc.stats();
        assert_eq!(stats.sink_accepted, 60);
        assert!(
            stats.sink_forced_flushes > 0,
            "the 1-deep spill forces flushes"
        );
        assert!(
            stats.sink_spilled < 60,
            "unblocking flushes must deliver directly, not re-spill everything"
        );
    }

    #[test]
    fn switching_back_to_vec_delivery_returns_spilled_walks() {
        let (mut svc, _) = service(
            2,
            ServiceConfig::new(2)
                .max_delay_ticks(1)
                .sink_spill_capacity(64),
        );
        let qs = QuerySet::random(100, 120, 11);
        svc.submit(TenantId(6), qs.queries());
        // A sink that accepts nothing between flushes forces everything
        // into the spill buffer.
        let mut stubborn = WindowSink::new(1);
        while svc.queue_depth() > 0 {
            svc.tick_into(&mut stubborn);
        }
        let spilled = svc.spill_depth();
        assert!(spilled > 0, "setup: some walks must be parked");
        // Back to Vec delivery: the spilled walks come home instead of
        // being stranded (conservation across consumption-mode switches).
        let rest = svc.drain();
        assert_eq!(rest.len() + stubborn.all().len(), 120);
        assert_eq!(svc.spill_depth(), 0);
        assert!(rest.len() >= spilled, "spilled walks lead the returned Vec");
    }

    #[test]
    #[should_panic(expected = "detach the subscribed sink")]
    fn tick_into_refuses_while_a_sink_is_attached() {
        let (mut svc, _) = service(1, ServiceConfig::new(1));
        svc.attach_sink(Box::new(WindowSink::new(4)));
        let mut other = WindowSink::new(4);
        let _ = svc.tick_into(&mut other);
    }

    #[test]
    fn append_and_retire_conserve_walks_and_steps() {
        let (p, spec) = shared();
        let prepared = p.clone();
        let sp = spec.clone();
        let mut svc = WalkService::new(ServiceConfig::new(2).max_batch(16), move |shard| {
            ReferenceBackend::new(prepared.clone(), sp.clone(), 0xBEEF ^ shard as u64)
        });
        let nv = p.graph().vertex_count();
        let qs = QuerySet::random(nv, 300, 13);
        let mut done = Vec::new();
        assert_eq!(svc.submit(TenantId(1), &qs.queries()[..150]), 150);
        done.extend(svc.tick());
        // Grow: the appended shard immediately joins the hash partition.
        let shard = svc.append_shard(ReferenceBackend::new(p.clone(), spec.clone(), 0xBEEF ^ 2));
        assert_eq!(shard, 2);
        assert_eq!(svc.shard_count(), 3);
        assert_eq!(svc.submit(TenantId(1), &qs.queries()[150..]), 150);
        assert!(
            svc.shard_snapshots()[2].submitted > 0,
            "hash placement must spread onto the appended shard"
        );
        // Shrink while the tail shard still holds work: it drains in
        // place, so nothing is lost.
        done.extend(svc.retire_shard());
        assert_eq!(svc.shard_count(), 2);
        assert!(svc.shard_snapshots().iter().all(|s| s.shard < 2));
        for v in 0..nv as u32 {
            assert!(svc.shard_of(v) < 2, "hash partition follows the live fleet");
        }
        done.extend(svc.drain());
        assert_eq!(done.len(), 300, "conservation across scale events");
        let mut seen = std::collections::HashSet::new();
        assert!(done.iter().all(|c| seen.insert(c.path.query)));
        // The retired backend's steps stay in the rollup.
        let stats = svc.stats();
        assert_eq!(stats.completed, 300);
        assert_eq!(
            stats.steps,
            done.iter().map(|c| c.path.steps()).sum::<u64>(),
            "retired shards keep contributing their telemetry"
        );
        assert_eq!(stats.shards, 2);
    }

    #[test]
    #[should_panic(expected = "cannot retire the last shard")]
    fn the_last_shard_cannot_retire() {
        let (p, spec) = shared();
        let mut svc = WalkService::new(ServiceConfig::new(1), move |_| {
            ReferenceBackend::new(p.clone(), spec.clone(), 7)
        });
        let _ = svc.retire_shard();
    }

    #[test]
    fn mixed_start_vertices_route_stably() {
        let (svc, _) = service(4, ServiceConfig::new(4));
        for v in 0..100u32 {
            assert_eq!(
                svc.shard_of(v),
                svc.shard_of(v),
                "routing is a pure function"
            );
            assert!(svc.shard_of(v) < 4);
        }
    }
}
