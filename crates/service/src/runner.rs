//! The per-shard execution unit stepped by [`WalkService`](crate::WalkService).
//!
//! [`ShardRunner`] owns everything one shard needs to serve traffic: its
//! backend, its micro-batch coalescer, and the per-query bookkeeping
//! (arrival ticks, batch membership, latency EWMA). The step logic —
//! micro-batcher flush → backend submit/poll → delivery accounting —
//! runs inline on the caller's thread, one shard after another, when the
//! service ticks.
//!
//! # The slot arena
//!
//! Every accepted query gets the next *acceptance sequence number* and one
//! [`Slot`] in a dense `VecDeque` indexed by `seq − slot_base`, holding
//! its arrival tick and, once flushed, its batch id. Batch ids are stamped
//! *by position*: the micro-batcher is FIFO in acceptance order — a flush
//! takes its oldest parked queries, and backend pushback
//! ([`unshift`](crate::batch::MicroBatcher::unshift)) puts the refused
//! suffix back at the front — so the parked queries are always the newest
//! slots, and the `taken` queries of a flush are the oldest `taken` of
//! those. Batch records live the same way in a `VecDeque` indexed by
//! `batch_id − batch_base`. Both deques drop their front as it completes,
//! so they span only the oldest undelivered query (batch) to the newest.
//!
//! Backends may complete out of order and tenants may reuse a local id
//! while an earlier query with that id is still queued or in flight, so
//! one map is left: an internal query id resolves to the chain of its
//! undelivered slots (linked through [`Slot::next_same_id`], oldest
//! first), and a completed path settles the oldest. That is one map
//! insert on acceptance and one removal on delivery per query, and no
//! per-query heap allocation once the deques and the map have grown to
//! the shard's working set. The map keeps std's randomly seeded hasher,
//! because internal ids are chosen by callers; it is never iterated, so
//! its order cannot leak into walks, ticks or stats.
//!
//! A runner's evolution depends only on its *own* command sequence
//! (accepts and tick advances, in order), so a shard produces
//! bit-identical walks — including tick stamps — for the same stream,
//! whatever the rest of the fleet does.
//!
//! Stats flow through the service's one [`StatsCollector`], passed into
//! every mutating call.

use crate::batch::MicroBatcher;
use crate::stats::StatsCollector;
use crate::{CompletedWalk, FlushReason, ServiceConfig, TenantId, LATENCY_EWMA_ALPHA};
use grw_algo::{WalkBackend, WalkPath, WalkQuery};
use grw_obs::ShardObs;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// A micro-batch in flight, for latency accounting.
#[derive(Debug, Clone, Copy)]
struct BatchInFlight {
    remaining: usize,
    flushed_at: Instant,
    flushed_tick: u64,
}

/// [`Slot::batch`] of a query still parked in the micro-batcher.
const UNFLUSHED: u64 = u64::MAX;

/// One accepted query's bookkeeping, at index `seq − slot_base` of the
/// arena.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The namespaced query id (checks the positional stamping in debug
    /// builds).
    id: u64,
    arrival_tick: u64,
    /// The batch the query was flushed in, or [`UNFLUSHED`].
    batch: u64,
    /// Sequence number of the next undelivered slot with the same `id`;
    /// meaningful only while this slot is not its chain's tail.
    next_same_id: u64,
    delivered: bool,
}

/// The undelivered slots of one internal id: sequence numbers of the
/// oldest and the newest, linked through [`Slot::next_same_id`].
#[derive(Debug, Clone, Copy)]
struct Chain {
    head: u64,
    tail: u64,
}

/// One shard's complete serving state: backend, coalescing buffer, and
/// per-query accounting. See the [module docs](self).
pub(crate) struct ShardRunner<B: WalkBackend> {
    pub(crate) backend: B,
    batcher: MicroBatcher,
    /// The shard's logical clock — synchronized with the service clock
    /// by every [`accept`](Self::accept) / [`run_tick`](Self::run_tick)
    /// call.
    tick: u64,
    /// Accepted, not yet retired queries in acceptance order: slot `seq`
    /// lives at `slots[seq − slot_base]`. Delivered slots stay as
    /// tombstones until every older slot is delivered too.
    slots: VecDeque<Slot>,
    /// Sequence number of `slots[0]`.
    slot_base: u64,
    /// Internal query id -> its undelivered slots, oldest first.
    chains: HashMap<u64, Chain>,
    /// Flushed batches not yet retired: batch `id` lives at
    /// `batches[id − batch_base]`; the next flush gets id
    /// `batch_base + batches.len()`.
    batches: VecDeque<BatchInFlight>,
    /// Id of `batches[0]`.
    batch_base: u64,
    pub(crate) submitted: u64,
    pub(crate) completed: u64,
    /// EWMA of per-query end-to-end latency delivered by this shard, in
    /// ticks; `None` until the shard has delivered anything.
    pub(crate) ewma_latency_ticks: Option<f64>,
    /// Observability recorder for this shard — disabled (all no-ops)
    /// until a hub is attached via [`set_obs`](Self::set_obs).
    pub(crate) obs: ShardObs,
}

impl<B: WalkBackend> ShardRunner<B> {
    pub(crate) fn new(cfg: &ServiceConfig, backend: B) -> Self {
        Self {
            backend,
            batcher: MicroBatcher::new(cfg.max_batch, cfg.max_delay_ticks, cfg.buffer_capacity),
            tick: 0,
            slots: VecDeque::new(),
            slot_base: 0,
            chains: HashMap::new(),
            batches: VecDeque::new(),
            batch_base: 0,
            submitted: 0,
            completed: 0,
            ewma_latency_ticks: None,
            obs: ShardObs::disabled(),
        }
    }

    /// Installs this shard's observability recorder.
    pub(crate) fn set_obs(&mut self, obs: ShardObs) {
        self.obs = obs;
    }

    /// Journals the shard's cumulative alias-cache telemetry at an
    /// export barrier (deduplicated inside the recorder — unchanged or
    /// all-zero counters journal nothing).
    pub(crate) fn record_alias_epoch(&mut self) {
        if !self.obs.is_enabled() {
            return;
        }
        let s = self.backend.telemetry().sampling;
        self.obs
            .alias_cache_epoch(self.tick, s.cache_hits, s.alias_builds, s.cache_evictions);
    }

    /// Offers one already-namespaced query at tick `now`. On a full
    /// buffer the runner tries to make room once by flushing a full
    /// batch; `false` means the shard is saturated and the caller must
    /// stop accepting (prefix semantics).
    pub(crate) fn accept(&mut self, internal: WalkQuery, now: u64, c: &mut StatsCollector) -> bool {
        self.tick = now;
        if !self.batcher.push(internal, now) {
            self.flush(FlushReason::Size, c);
            if !self.batcher.push(internal, now) {
                return false;
            }
        }
        self.submitted += 1;
        let (tenant, local) = TenantId::unpack(internal.id);
        self.obs.query_admitted(now, tenant.0, local);
        let seq = self.slot_base + self.slots.len() as u64;
        self.slots.push_back(Slot {
            id: internal.id,
            arrival_tick: now,
            batch: UNFLUSHED,
            next_same_id: seq,
            delivered: false,
        });
        match self.chains.entry(internal.id) {
            Entry::Occupied(mut e) => {
                let chain = e.get_mut();
                self.slots[(chain.tail - self.slot_base) as usize].next_same_id = seq;
                chain.tail = seq;
            }
            Entry::Vacant(e) => {
                e.insert(Chain {
                    head: seq,
                    tail: seq,
                });
            }
        }
        if self.batcher.due(now) == Some(FlushReason::Size) {
            self.flush(FlushReason::Size, c);
        }
        true
    }

    /// Advances the shard to tick `now`: flushes every micro-batch that
    /// is due (size or deadline), polls the backend once, and appends
    /// the walks that completed, fully accounted, to `out`.
    pub(crate) fn run_tick(
        &mut self,
        now: u64,
        c: &mut StatsCollector,
        out: &mut Vec<CompletedWalk>,
    ) {
        self.tick = now;
        while let Some(reason) = self.batcher.due(now) {
            if !self.flush(reason, c) {
                break;
            }
        }
        let paths = self.backend.poll();
        out.extend(paths.into_iter().map(|p| self.deliver(p, c)));
    }

    /// Pushes the coalescing buffer into the backend as far as it will
    /// accept (the flush half of one drain round).
    pub(crate) fn drain_buffers(&mut self, c: &mut StatsCollector) {
        while !self.batcher.is_empty() {
            if !self.flush(FlushReason::Drain, c) {
                break;
            }
        }
    }

    /// Runs the backend dry once, appends its completions to `out` and
    /// returns whether the backend made progress — the execute half of
    /// one drain round.
    pub(crate) fn drain_backend(
        &mut self,
        c: &mut StatsCollector,
        out: &mut Vec<CompletedWalk>,
    ) -> bool {
        let paths = self.backend.drain();
        let progressed = !paths.is_empty();
        out.extend(paths.into_iter().map(|p| self.deliver(p, c)));
        progressed
    }

    /// The full drain loop for one shard in isolation (the retiring
    /// shard's path): alternates buffer flushes and backend drains until
    /// nothing is parked or in flight.
    ///
    /// # Panics
    ///
    /// Panics if the backend refuses its remaining work without making
    /// any progress (a backend bug, not a reachable service state).
    pub(crate) fn drain_all(&mut self, c: &mut StatsCollector) -> Vec<CompletedWalk> {
        let mut out = Vec::new();
        loop {
            self.drain_buffers(c);
            let progressed = self.drain_backend(c, &mut out);
            if self.queue_depth() == 0 {
                return out;
            }
            assert!(
                progressed,
                "shard stalled: backend holds work but completes nothing"
            );
        }
    }

    /// Queries parked in the coalescing buffer.
    pub(crate) fn queued(&self) -> usize {
        self.batcher.len()
    }

    /// Queries parked plus queries in flight inside the backend.
    pub(crate) fn queue_depth(&self) -> usize {
        self.batcher.len() + self.backend.in_flight()
    }

    /// Takes one micro-batch out of the buffer and submits it to the
    /// backend. Returns `false` when the backend accepted nothing
    /// (pushback) — the batch goes back to the buffer.
    fn flush(&mut self, reason: FlushReason, c: &mut StatsCollector) -> bool {
        // The flush cursor: the batcher holds exactly the newest unflushed
        // slots, in order, so the batch starts at the first of them.
        let first = self.slots.len() - self.batcher.len();
        let batch = self.batcher.take_batch();
        if batch.is_empty() {
            return false;
        }
        let taken = self.backend.submit(&batch);
        if taken < batch.len() {
            self.batcher.unshift(&batch[taken..]);
        }
        if taken == 0 {
            return false;
        }
        let id = self.batch_base + self.batches.len() as u64;
        self.batches.push_back(BatchInFlight {
            remaining: taken,
            flushed_at: Instant::now(),
            flushed_tick: self.tick,
        });
        for (slot, q) in self.slots.range_mut(first..first + taken).zip(&batch) {
            debug_assert_eq!(slot.id, q.id, "the batcher flushes in acceptance order");
            slot.batch = id;
        }
        c.batches_flushed += 1;
        match reason {
            FlushReason::Size => c.flushed_by_size += 1,
            FlushReason::Deadline => c.flushed_by_deadline += 1,
            FlushReason::Drain => c.flushed_by_drain += 1,
        }
        let reason_tag = match reason {
            FlushReason::Size => "size",
            FlushReason::Deadline => "deadline",
            FlushReason::Drain => "drain",
        };
        self.obs.batch_flushed(self.tick, id, taken, reason_tag);
        true
    }

    /// Un-namespaces a completed path and settles its batch and
    /// per-query latency accounting against the oldest undelivered slot
    /// of its internal id.
    fn deliver(&mut self, mut path: WalkPath, c: &mut StatsCollector) -> CompletedWalk {
        let internal = path.query;
        let (tenant, local) = TenantId::unpack(internal);
        path.query = local;
        c.completed += 1;
        let seq = match self.chains.entry(internal) {
            Entry::Occupied(mut e) => {
                let chain = *e.get();
                if chain.head == chain.tail {
                    e.remove();
                } else {
                    e.get_mut().head =
                        self.slots[(chain.head - self.slot_base) as usize].next_same_id;
                }
                chain.head
            }
            Entry::Vacant(_) => panic!("completed path must have an arrival record"),
        };
        let slot = &mut self.slots[(seq - self.slot_base) as usize];
        debug_assert_eq!(slot.id, internal);
        assert!(
            slot.batch != UNFLUSHED,
            "completed path must belong to a flushed batch"
        );
        slot.delivered = true;
        let (arrival_tick, batch_id) = (slot.arrival_tick, slot.batch);
        while self.slots.front().is_some_and(|s| s.delivered) {
            self.slots.pop_front();
            self.slot_base += 1;
        }
        let b = self
            .batches
            .get_mut((batch_id - self.batch_base) as usize)
            .expect("batch record exists until its last path returns");
        b.remaining -= 1;
        let flushed_tick = b.flushed_tick;
        if b.remaining == 0 {
            c.record_batch_done(b.flushed_at.elapsed(), self.tick - flushed_tick);
            while self.batches.front().is_some_and(|b| b.remaining == 0) {
                self.batches.pop_front();
                self.batch_base += 1;
            }
        }
        let latency = self.tick - arrival_tick;
        c.record_query_done(tenant, latency, path.steps());
        self.obs.query_delivered(
            self.tick,
            tenant.0,
            local,
            arrival_tick,
            flushed_tick,
            path.steps() as u32,
        );
        self.completed += 1;
        self.ewma_latency_ticks = Some(match self.ewma_latency_ticks {
            Some(prev) => prev + LATENCY_EWMA_ALPHA * (latency as f64 - prev),
            None => latency as f64,
        });
        CompletedWalk {
            tenant,
            path,
            arrival_tick,
            flushed_tick,
            completed_tick: self.tick,
        }
    }
}
