//! Service-level measurement: throughput, queue depth, batch and
//! per-query latency.
//!
//! Latency samples are kept in bounded reservoirs ([`Reservoir`], Vitter's
//! Algorithm R with a deterministic RNG), so a service that runs for weeks
//! holds a fixed-size uniform sample instead of an unbounded `Vec` — the
//! percentiles stay representative of the whole run while memory stays
//! O(capacity).

use crate::TenantId;
use grw_rng::{RandomSource, SplitMix64};
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// Fixed seed for reservoir replacement decisions: sampling stays
/// deterministic for a fixed submission/tick sequence.
const RESERVOIR_SEED: u64 = 0x5EED_0F1A_7E0C_1E00;

/// A bounded uniform sample of a `u64` stream (Algorithm R).
///
/// Until `capacity` values have been offered the sample is exact; after
/// that each new value replaces a random slot with probability
/// `capacity / seen`, keeping every offered value equally likely to be in
/// the sample.
#[derive(Debug, Clone)]
pub(crate) struct Reservoir {
    cap: usize,
    seen: u64,
    sample: Vec<u64>,
    rng: SplitMix64,
}

impl Reservoir {
    pub(crate) fn new(cap: usize) -> Self {
        assert!(cap > 0, "reservoir capacity must be positive");
        Self {
            cap,
            seen: 0,
            sample: Vec::new(),
            rng: SplitMix64::new(RESERVOIR_SEED),
        }
    }

    pub(crate) fn push(&mut self, v: u64) {
        self.seen += 1;
        if self.sample.len() < self.cap {
            self.sample.push(v);
        } else {
            let j = self.rng.next_u64() % self.seen;
            if (j as usize) < self.cap {
                self.sample[j as usize] = v;
            }
        }
    }

    /// Values currently held (≤ capacity).
    pub(crate) fn sample(&self) -> &[u64] {
        &self.sample
    }

    /// Values offered over the stream's lifetime.
    pub(crate) fn seen(&self) -> u64 {
        self.seen
    }
}

/// Per-tenant counters and a bounded latency reservoir.
///
/// Each tenant's latency sample is its own [`Reservoir`] of the
/// configured capacity, so the per-tenant breakdown stays O(tenants ×
/// capacity) no matter how long the service runs.
#[derive(Debug, Clone)]
pub(crate) struct TenantCollector {
    pub submitted: u64,
    pub completed: u64,
    pub steps: u64,
    pub latencies_ticks: Reservoir,
    pub latency_sum: u64,
    pub latency_max: u64,
}

impl TenantCollector {
    fn new(reservoir_cap: usize) -> Self {
        Self {
            submitted: 0,
            completed: 0,
            steps: 0,
            latencies_ticks: Reservoir::new(reservoir_cap),
            latency_sum: 0,
            latency_max: 0,
        }
    }
}

/// Tracks latency reservoirs and aggregate counters.
#[derive(Debug, Clone)]
pub(crate) struct StatsCollector {
    pub submitted: u64,
    pub completed: u64,
    pub batches_flushed: u64,
    pub flushed_by_size: u64,
    pub flushed_by_deadline: u64,
    pub flushed_by_drain: u64,
    /// Completed micro-batch latencies, in microseconds of wall time.
    pub batch_latencies_us: Reservoir,
    /// Completed micro-batch latencies, in service ticks.
    pub batch_latencies_ticks: Reservoir,
    /// Per-query end-to-end latencies (arrival → delivery), in ticks.
    pub query_latencies_ticks: Reservoir,
    /// Exact sum of per-query latencies (for the mean; never sampled).
    pub query_latency_sum: u64,
    /// Exact maximum per-query latency.
    pub query_latency_max: u64,
    /// Walks accepted by a sink (streaming delivery).
    pub sink_accepted: u64,
    /// Sink accept attempts refused with backpressure.
    pub sink_backpressured: u64,
    /// Walks parked in the service's bounded spill buffer.
    pub sink_spilled: u64,
    /// Sink flushes the service forced to keep delivery moving.
    pub sink_forced_flushes: u64,
    /// Per-tenant breakdown, keyed for a stable report order. Each entry
    /// is reservoir-bounded; the map itself is bounded by the `u16`
    /// tenant-id space (in practice: tenants actually seen).
    pub tenants: BTreeMap<TenantId, TenantCollector>,
    /// Capacity for per-tenant latency reservoirs (same bound as the
    /// service-wide ones).
    reservoir_cap: usize,
}

impl StatsCollector {
    pub(crate) fn new(reservoir_cap: usize) -> Self {
        Self {
            submitted: 0,
            completed: 0,
            batches_flushed: 0,
            flushed_by_size: 0,
            flushed_by_deadline: 0,
            flushed_by_drain: 0,
            batch_latencies_us: Reservoir::new(reservoir_cap),
            batch_latencies_ticks: Reservoir::new(reservoir_cap),
            query_latencies_ticks: Reservoir::new(reservoir_cap),
            query_latency_sum: 0,
            query_latency_max: 0,
            sink_accepted: 0,
            sink_backpressured: 0,
            sink_spilled: 0,
            sink_forced_flushes: 0,
            tenants: BTreeMap::new(),
            reservoir_cap,
        }
    }

    pub(crate) fn record_batch_done(&mut self, wall: Duration, ticks: u64) {
        self.batch_latencies_us.push(wall.as_micros() as u64);
        self.batch_latencies_ticks.push(ticks);
    }

    fn tenant_mut(&mut self, tenant: TenantId) -> &mut TenantCollector {
        let cap = self.reservoir_cap;
        self.tenants
            .entry(tenant)
            .or_insert_with(|| TenantCollector::new(cap))
    }

    pub(crate) fn record_submitted(&mut self, tenant: TenantId) {
        self.submitted += 1;
        self.tenant_mut(tenant).submitted += 1;
    }

    pub(crate) fn record_query_done(&mut self, tenant: TenantId, latency_ticks: u64, steps: u64) {
        self.query_latencies_ticks.push(latency_ticks);
        self.query_latency_sum += latency_ticks;
        self.query_latency_max = self.query_latency_max.max(latency_ticks);
        let t = self.tenant_mut(tenant);
        t.completed += 1;
        t.steps += steps;
        t.latencies_ticks.push(latency_ticks);
        t.latency_sum += latency_ticks;
        t.latency_max = t.latency_max.max(latency_ticks);
    }
}

/// Backend telemetry summed/merged across a fleet's shards — the
/// aggregation the service feeds into [`ServiceStats::build`].
pub(crate) struct TelemetryRollup {
    pub steps: u64,
    /// `(slowest shard's cycles, slowest shard's simulated seconds)` when
    /// every backend reports a cycle clock.
    pub simulated: Option<(u64, f64)>,
    pub pipeline: Option<grw_sim::stats::UtilizationMeter>,
    pub sampling: grw_sim::stats::SamplingCounters,
}

/// Merges per-shard [`BackendTelemetry`](grw_algo::BackendTelemetry):
/// steps and sampling counters sum; pipeline occupancy merges by raw
/// counts (available only when every backend reports a breakdown);
/// simulated wall time is the slowest shard's cycles *through its own
/// clock*, because shards are parallel devices and cycle counts from
/// different platforms are not commensurable directly.
pub(crate) fn rollup_telemetry(
    telemetries: impl Iterator<Item = grw_algo::BackendTelemetry>,
) -> TelemetryRollup {
    let mut steps = 0;
    let mut sim: Option<(u64, f64)> = Some((0, 0.0));
    let mut pipeline: Option<grw_sim::stats::UtilizationMeter> =
        Some(grw_sim::stats::UtilizationMeter::new());
    let mut sampling = grw_sim::stats::SamplingCounters::default();
    for t in telemetries {
        steps += t.steps;
        sampling.merge(&t.sampling);
        pipeline = match (pipeline, t.pipeline) {
            (Some(mut acc), Some(m)) => {
                acc.merge(&m);
                Some(acc)
            }
            _ => None,
        };
        sim = match (sim, t.cycles) {
            (Some((max_cycles, max_secs)), Some(c)) => match t.clock_mhz {
                Some(clock) if clock > 0.0 => {
                    Some((max_cycles.max(c), max_secs.max(c as f64 / (clock * 1e6))))
                }
                // No clock reported yet (no work run): zero time.
                _ if c == 0 => Some((max_cycles, max_secs)),
                // Cycles without a clock cannot become time.
                _ => None,
            },
            // One shard without a cycle counter disables simulated time.
            _ => None,
        };
    }
    TelemetryRollup {
        steps,
        simulated: sim,
        pipeline,
        sampling,
    }
}

/// Nearest-rank percentile of an unsorted sample; 0 for an empty one.
///
/// Public because latency consumers (the load bench) compute percentiles
/// over their own exact sample sets with the same convention the service
/// statistics use.
pub fn percentile(sample: &[u64], p: f64) -> u64 {
    if sample.is_empty() {
        return 0;
    }
    let mut sorted = sample.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Per-tenant slice of the service statistics — what one tenant
/// submitted, got back, and waited, so routing decisions and capacity
/// reports are attributable to the tenant that caused them.
///
/// Percentiles come from a per-tenant bounded reservoir (same capacity as
/// the service-wide one); mean and max are exact over every delivery.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStats {
    /// The tenant this row describes.
    pub tenant: TenantId,
    /// Queries the service accepted from this tenant.
    pub submitted: u64,
    /// Walks delivered back to this tenant.
    pub completed: u64,
    /// Total hops across this tenant's delivered walks.
    pub steps: u64,
    /// Median end-to-end latency in ticks (bounded reservoir).
    pub p50_latency_ticks: u64,
    /// 99th-percentile end-to-end latency in ticks (bounded reservoir).
    pub p99_latency_ticks: u64,
    /// Exact mean end-to-end latency in ticks.
    pub mean_latency_ticks: f64,
    /// Exact maximum end-to-end latency in ticks.
    pub max_latency_ticks: u64,
}

/// A point-in-time report of service health and performance.
///
/// Throughput follows the paper's MStep/s definition (hops executed per
/// second). Wall-clock throughput measures this process; when every shard
/// backend reports simulated cycles (the accelerator model), the report
/// also includes throughput in *simulated* time, with the shards treated
/// as N parallel devices (time = the slowest shard's cycles).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    /// Number of backend shards.
    pub shards: usize,
    /// Queries accepted since the service started.
    pub submitted: u64,
    /// Paths returned to tenants.
    pub completed: u64,
    /// Queries parked in coalescing buffers or in-flight in backends.
    pub queue_depth: usize,
    /// Micro-batches flushed to backends.
    pub batches_flushed: u64,
    /// … of which flushed because they reached the size bound.
    pub flushed_by_size: u64,
    /// … of which flushed because they aged past the deadline bound.
    pub flushed_by_deadline: u64,
    /// … of which flushed by an explicit drain.
    pub flushed_by_drain: u64,
    /// Total hops executed across shards.
    pub steps: u64,
    /// Wall-clock seconds since the service started.
    pub wall_seconds: f64,
    /// Hops per second of wall time, in millions.
    pub msteps_per_sec_wall: f64,
    /// Completed walks per second of wall time — the serving tier's QPS.
    /// Wall-clock like `msteps_per_sec_wall`: real on a live service,
    /// not meaningful across machines (the QPS bench gates only the
    /// deterministic counters).
    pub walks_per_sec_wall: f64,
    /// Slowest shard's simulated cycles, when all backends report cycles.
    pub simulated_cycles: Option<u64>,
    /// Slowest shard's simulated seconds (each shard's cycles through its
    /// own clock — cycle counts across platforms are not commensurable).
    pub simulated_seconds: Option<f64>,
    /// Hops per second of simulated time, in millions (shards in
    /// parallel), when available.
    pub msteps_per_sec_simulated: Option<f64>,
    /// Pipeline bubble ratio merged across shards by raw pipeline-cycle
    /// counts, when every backend reports a breakdown — the serving-level
    /// view of the paper's zero-bubble claim.
    pub pipeline_bubble_ratio: Option<f64>,
    /// Fraction of pipeline-cycles doing useful work, merged across
    /// shards (fill/drain idling counts against this, unlike the bubble
    /// ratio).
    pub pipeline_utilization: Option<f64>,
    /// The merged raw pipeline-cycle counts behind the two ratios, for
    /// callers that window or re-weight them (e.g. a serving bench
    /// measuring waste only while the service held backlog).
    pub pipeline_cycles: Option<grw_sim::stats::UtilizationMeter>,
    /// Median micro-batch completion latency (flush → last path), µs wall.
    pub p50_batch_latency_us: u64,
    /// 99th-percentile micro-batch completion latency, µs wall.
    pub p99_batch_latency_us: u64,
    /// Median micro-batch completion latency in service ticks.
    pub p50_batch_latency_ticks: u64,
    /// 99th-percentile micro-batch completion latency in service ticks.
    pub p99_batch_latency_ticks: u64,
    /// Median per-query end-to-end latency (arrival → delivery) in ticks,
    /// from a bounded uniform reservoir over every delivered query.
    pub p50_query_latency_ticks: u64,
    /// 99th-percentile per-query end-to-end latency in ticks (reservoir).
    pub p99_query_latency_ticks: u64,
    /// Exact mean per-query end-to-end latency in ticks.
    pub mean_query_latency_ticks: f64,
    /// Exact maximum per-query end-to-end latency in ticks.
    pub max_query_latency_ticks: u64,
    /// Queries routed to each shard (hash balance check).
    pub per_shard_submitted: Vec<u64>,
    /// Per-shard queue depth right now (coalescing buffer + backend
    /// in-flight) — the load-imbalance view `queue_depth` sums away.
    pub per_shard_queue_depth: Vec<usize>,
    /// Walks accepted by a sink under streaming delivery
    /// (`tick_into`/`drain_into` or an attached sink).
    pub sink_accepted: u64,
    /// Sink accept attempts refused with backpressure.
    pub sink_backpressured: u64,
    /// Walks that had to wait in the service's bounded spill buffer.
    pub sink_spilled: u64,
    /// Sink flushes the service forced to keep delivery moving.
    pub sink_forced_flushes: u64,
    /// Completed walks currently parked in the spill buffer (bounded by
    /// `ServiceConfig::sink_spill_capacity`).
    pub sink_spill_depth: usize,
    /// Sampling-kernel counters (rejection trials, alias builds,
    /// second-order edge-cache hits/evictions) summed across shard
    /// backends.
    pub sampling: grw_sim::stats::SamplingCounters,
    /// Per-tenant breakdown (queries, walks, latency percentiles), in
    /// ascending tenant order. Each row's percentile sample is
    /// reservoir-bounded.
    pub per_tenant: Vec<TenantStats>,
}

impl ServiceStats {
    /// `simulated` is `(slowest shard's cycles, slowest shard's simulated
    /// seconds)` when every shard backend reports a cycle clock.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn build(
        c: &StatsCollector,
        shards: usize,
        queue_depth: usize,
        steps: u64,
        wall_seconds: f64,
        simulated: Option<(u64, f64)>,
        pipeline: Option<grw_sim::stats::UtilizationMeter>,
        per_shard_submitted: Vec<u64>,
        per_shard_queue_depth: Vec<usize>,
        sink_spill_depth: usize,
        sampling: grw_sim::stats::SamplingCounters,
    ) -> Self {
        let msteps_wall = if wall_seconds > 0.0 {
            steps as f64 / wall_seconds / 1e6
        } else {
            0.0
        };
        let walks_wall = if wall_seconds > 0.0 {
            c.completed as f64 / wall_seconds
        } else {
            0.0
        };
        let (simulated_cycles, simulated_seconds, msteps_sim) = match simulated {
            Some((cycles, secs)) if secs > 0.0 => {
                (Some(cycles), Some(secs), Some(steps as f64 / secs / 1e6))
            }
            Some((cycles, secs)) => (Some(cycles), Some(secs), None),
            None => (None, None, None),
        };
        let delivered = c.query_latencies_ticks.seen();
        ServiceStats {
            shards,
            submitted: c.submitted,
            completed: c.completed,
            queue_depth,
            batches_flushed: c.batches_flushed,
            flushed_by_size: c.flushed_by_size,
            flushed_by_deadline: c.flushed_by_deadline,
            flushed_by_drain: c.flushed_by_drain,
            steps,
            wall_seconds,
            msteps_per_sec_wall: msteps_wall,
            walks_per_sec_wall: walks_wall,
            simulated_cycles,
            simulated_seconds,
            msteps_per_sec_simulated: msteps_sim,
            pipeline_bubble_ratio: pipeline.map(|m| m.bubble_ratio()),
            pipeline_utilization: pipeline.map(|m| m.utilization()),
            pipeline_cycles: pipeline,
            p50_batch_latency_us: percentile(c.batch_latencies_us.sample(), 50.0),
            p99_batch_latency_us: percentile(c.batch_latencies_us.sample(), 99.0),
            p50_batch_latency_ticks: percentile(c.batch_latencies_ticks.sample(), 50.0),
            p99_batch_latency_ticks: percentile(c.batch_latencies_ticks.sample(), 99.0),
            p50_query_latency_ticks: percentile(c.query_latencies_ticks.sample(), 50.0),
            p99_query_latency_ticks: percentile(c.query_latencies_ticks.sample(), 99.0),
            mean_query_latency_ticks: if delivered > 0 {
                c.query_latency_sum as f64 / delivered as f64
            } else {
                0.0
            },
            max_query_latency_ticks: c.query_latency_max,
            per_shard_submitted,
            per_shard_queue_depth,
            sink_accepted: c.sink_accepted,
            sink_backpressured: c.sink_backpressured,
            sink_spilled: c.sink_spilled,
            sink_forced_flushes: c.sink_forced_flushes,
            sink_spill_depth,
            sampling,
            per_tenant: c
                .tenants
                .iter()
                .map(|(&tenant, t)| TenantStats {
                    tenant,
                    submitted: t.submitted,
                    completed: t.completed,
                    steps: t.steps,
                    p50_latency_ticks: percentile(t.latencies_ticks.sample(), 50.0),
                    p99_latency_ticks: percentile(t.latencies_ticks.sample(), 99.0),
                    mean_latency_ticks: if t.completed > 0 {
                        t.latency_sum as f64 / t.completed as f64
                    } else {
                        0.0
                    },
                    max_latency_ticks: t.latency_max,
                })
                .collect(),
        }
    }
}

impl fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "service: {} shards | {} submitted, {} completed, {} queued",
            self.shards, self.submitted, self.completed, self.queue_depth
        )?;
        writeln!(
            f,
            "batches: {} flushed ({} size, {} deadline, {} drain)",
            self.batches_flushed,
            self.flushed_by_size,
            self.flushed_by_deadline,
            self.flushed_by_drain
        )?;
        write!(
            f,
            "throughput: {} steps in {:.3}s wall -> {:.2} MStep/s, {:.0} walks/s",
            self.steps, self.wall_seconds, self.msteps_per_sec_wall, self.walks_per_sec_wall
        )?;
        if let (Some(cycles), Some(msteps)) = (self.simulated_cycles, self.msteps_per_sec_simulated)
        {
            write!(f, " | {cycles} simulated cycles -> {msteps:.1} MStep/s")?;
        }
        writeln!(f)?;
        if let (Some(bubble), Some(util)) = (self.pipeline_bubble_ratio, self.pipeline_utilization)
        {
            writeln!(
                f,
                "pipelines: {:.2}% bubbles, {:.2}% utilized",
                bubble * 100.0,
                util * 100.0
            )?;
        }
        writeln!(
            f,
            "batch latency: p50 {}us / p99 {}us (p50 {} / p99 {} ticks)",
            self.p50_batch_latency_us,
            self.p99_batch_latency_us,
            self.p50_batch_latency_ticks,
            self.p99_batch_latency_ticks
        )?;
        writeln!(
            f,
            "query latency: p50 {} / p99 {} ticks (mean {:.2}, max {})",
            self.p50_query_latency_ticks,
            self.p99_query_latency_ticks,
            self.mean_query_latency_ticks,
            self.max_query_latency_ticks
        )?;
        if self.sink_accepted + self.sink_spilled + self.sink_backpressured > 0 {
            writeln!(
                f,
                "sink delivery: {} accepted, {} backpressured, {} spilled ({} forced flushes, {} in spill)",
                self.sink_accepted,
                self.sink_backpressured,
                self.sink_spilled,
                self.sink_forced_flushes,
                self.sink_spill_depth
            )?;
        }
        if self.per_tenant.len() > 1 {
            writeln!(f, "shard load: {:?}", self.per_shard_submitted)?;
            const SHOWN: usize = 8;
            for t in self.per_tenant.iter().take(SHOWN) {
                writeln!(
                    f,
                    "  {}: {} submitted, {} completed | latency p50 {} / p99 {} ticks (mean {:.2}, max {})",
                    t.tenant,
                    t.submitted,
                    t.completed,
                    t.p50_latency_ticks,
                    t.p99_latency_ticks,
                    t.mean_latency_ticks,
                    t.max_latency_ticks
                )?;
            }
            write!(f, "tenants: {}", self.per_tenant.len())?;
            if self.per_tenant.len() > SHOWN {
                write!(f, " ({} shown)", SHOWN)?;
            }
            Ok(())
        } else {
            write!(f, "shard load: {:?}", self.per_shard_submitted)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn reservoir_is_exact_below_capacity() {
        let mut r = Reservoir::new(8);
        for v in 0..5u64 {
            r.push(v);
        }
        assert_eq!(r.sample(), &[0, 1, 2, 3, 4]);
        assert_eq!(r.seen(), 5);
    }

    #[test]
    fn reservoir_stays_bounded_and_representative() {
        let mut r = Reservoir::new(64);
        for v in 0..100_000u64 {
            r.push(v);
        }
        assert_eq!(r.sample().len(), 64, "memory stays O(capacity)");
        assert_eq!(r.seen(), 100_000);
        // A uniform sample of 0..100k has a mean near 50k; a broken
        // reservoir that keeps the first or last values would be far off.
        let mean = r.sample().iter().sum::<u64>() as f64 / 64.0;
        assert!(
            (mean - 50_000.0).abs() < 15_000.0,
            "sample mean {mean} not representative"
        );
    }

    #[test]
    fn collector_tracks_exact_query_aggregates() {
        let mut c = StatsCollector::new(4);
        for l in [3u64, 9, 1, 7, 5, 11] {
            c.record_query_done(TenantId(2), l, 2);
        }
        assert_eq!(c.query_latencies_ticks.seen(), 6);
        assert_eq!(c.query_latencies_ticks.sample().len(), 4, "bounded");
        assert_eq!(c.query_latency_sum, 36, "mean is exact, not sampled");
        assert_eq!(c.query_latency_max, 11);
        let t = &c.tenants[&TenantId(2)];
        assert_eq!(t.completed, 6);
        assert_eq!(t.steps, 12);
        assert_eq!(t.latency_sum, 36);
        assert_eq!(t.latencies_ticks.sample().len(), 4, "per-tenant bounded");
    }

    #[test]
    fn per_tenant_breakdown_separates_tenants() {
        let mut c = StatsCollector::new(16);
        c.record_submitted(TenantId(1));
        c.record_submitted(TenantId(1));
        c.record_submitted(TenantId(7));
        c.record_query_done(TenantId(1), 4, 3);
        c.record_query_done(TenantId(1), 8, 3);
        c.record_query_done(TenantId(7), 20, 5);
        let s = ServiceStats::build(
            &c,
            1,
            0,
            11,
            0.1,
            None,
            None,
            vec![3],
            vec![0],
            0,
            grw_sim::stats::SamplingCounters::default(),
        );
        assert_eq!(s.per_tenant.len(), 2);
        let t1 = &s.per_tenant[0];
        assert_eq!((t1.tenant, t1.submitted, t1.completed), (TenantId(1), 2, 2));
        assert!((t1.mean_latency_ticks - 6.0).abs() < 1e-12);
        assert_eq!(t1.max_latency_ticks, 8);
        let t7 = &s.per_tenant[1];
        assert_eq!((t7.tenant, t7.completed, t7.steps), (TenantId(7), 1, 5));
        assert_eq!(t7.p99_latency_ticks, 20);
        let text = s.to_string();
        assert!(text.contains("tenant7"), "{text}");
        assert!(text.contains("tenants: 2"), "{text}");
    }

    #[test]
    fn display_mentions_the_essentials() {
        let mut c = StatsCollector::new(16);
        c.submitted = 10;
        c.completed = 10;
        c.batches_flushed = 2;
        c.flushed_by_size = 1;
        c.flushed_by_deadline = 1;
        c.record_query_done(TenantId(0), 4, 1);
        c.record_query_done(TenantId(0), 8, 1);
        // 1000 cycles at 320 MHz = 3.125 µs of simulated time.
        let s = ServiceStats::build(
            &c,
            2,
            0,
            500,
            0.5,
            Some((1000, 3.125e-6)),
            Some(grw_sim::stats::UtilizationMeter::from_counts(90, 10, 20)),
            vec![5, 5],
            vec![0, 0],
            0,
            grw_sim::stats::SamplingCounters::default(),
        );
        let text = s.to_string();
        assert!(text.contains("2 shards"), "{text}");
        assert!(text.contains("MStep/s"), "{text}");
        assert!(text.contains("p99"), "{text}");
        assert!(text.contains("bubbles"), "{text}");
        assert!(text.contains("query latency"), "{text}");
        assert!((s.msteps_per_sec_wall - 0.001).abs() < 1e-9);
        assert!((s.msteps_per_sec_simulated.unwrap() - 160.0).abs() < 1e-6);
        assert!((s.pipeline_bubble_ratio.unwrap() - 0.1).abs() < 1e-12);
        assert!((s.pipeline_utilization.unwrap() - 0.75).abs() < 1e-12);
        assert!((s.mean_query_latency_ticks - 6.0).abs() < 1e-12);
        assert_eq!(s.max_query_latency_ticks, 8);
        assert_eq!(s.p99_query_latency_ticks, 8);
    }
}
