//! Latency provenance: per-query **span reconstruction** and exact,
//! additive **phase attribution** on top of the deterministic event
//! journal.
//!
//! A delivered query leaves three stamps in the trace — admission
//! (`query_admitted`), delivery (`query_delivered`, which carries its
//! own arrival and flush ticks), and, when a sink is attached, the sink
//! accept (`sink_accepted`). [`SpanSet::reconstruct`] joins them in
//! canonical `(tick, shard, seq)` order into one [`QuerySpan`] per
//! delivered query and decomposes its end-to-end latency into phases
//! that **sum exactly**:
//!
//! ```text
//! batch_wait      = flushed   − arrival      (micro-batcher residency)
//! backend_service = completed − flushed      (backend-resident)
//! sink_wait       = accepted  − completed    (sink backpressure; 0 without a sink)
//! ─────────────────────────────────────────
//! total           = end − arrival            (end = accepted, or completed)
//! ```
//!
//! The sum telescopes, so `sum(phases) == total` holds *exactly* for
//! every span — not approximately, not modulo rounding — and because the
//! canonical trace is byte-identical from one run of a fixed seed and
//! schedule to the next, so is every reconstructed span. That identity is
//! what makes a phase-level diff ([`SpanSet::summary`] compared across
//! two traces, see the `obsdiff` bin) a real behavioural explanation
//! rather than scheduler noise.
//!
//! Everything here is a pure function of a trace: feed it a live
//! journal (`Obs::journal()`) or a parsed on-disk `TRACE_*.jsonl`
//! ([`parse_trace`]).

use crate::journal::{jsonl_num, Event, EventKind};

/// Phase index order used everywhere in this module: the names for
/// [`QuerySpan::phases`], [`PhaseSummary::phase_sums`], and the
/// per-phase metric families in the registry.
pub const PHASE_NAMES: [&str; 3] = ["batch-wait", "backend-service", "sink-wait"];

/// One delivered query's reconstructed span: every stamp of its
/// lifetime plus the fleet events that intersected it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpan {
    /// Owning tenant.
    pub tenant: u16,
    /// Tenant-local query id.
    pub query: u64,
    /// Shard that delivered the walk.
    pub shard: u32,
    /// Admission tick.
    pub arrival_tick: u64,
    /// Micro-batch flush tick.
    pub flushed_tick: u64,
    /// Walk-completion (delivery) tick.
    pub completed_tick: u64,
    /// Sink-accept tick, when a sink consumed the walk.
    pub accepted_tick: Option<u64>,
    /// Steps in the delivered walk.
    pub steps: u32,
    /// Router migrations of this tenant whose tick falls inside
    /// `[arrival, end]` — the span crossed a re-binding.
    pub migrations: u32,
    /// Fleet scale events (append / retire-begun / retired) whose tick
    /// falls inside `[arrival, end]`.
    pub scale_events: u32,
}

impl QuerySpan {
    /// The span's terminus: the sink-accept tick when a sink consumed
    /// the walk, else the completion tick.
    pub fn end_tick(&self) -> u64 {
        self.accepted_tick.unwrap_or(self.completed_tick)
    }

    /// End-to-end latency in ticks.
    pub fn total(&self) -> u64 {
        self.end_tick() - self.arrival_tick
    }

    /// The additive phase decomposition, in [`PHASE_NAMES`] order.
    /// Invariant (property-tested in `tests/obs.rs`):
    /// `phases().sum() == total()` exactly.
    pub fn phases(&self) -> [u64; 3] {
        [
            self.flushed_tick - self.arrival_tick,
            self.completed_tick - self.flushed_tick,
            self.accepted_tick
                .map(|a| a - self.completed_tick)
                .unwrap_or(0),
        ]
    }

    /// Renders the span as a one-line timeline, the exemplar format
    /// `obsdump` prints for the percentile worst offenders:
    ///
    /// ```text
    /// admitted @120 ──(batch-wait 2)── flushed @122 ──(backend 5)── completed @127 ──(sink-wait 2)── accepted @129
    /// ```
    pub fn timeline(&self) -> String {
        let [bw, be, sw] = self.phases();
        let mut out = format!(
            "admitted @{} ──(batch-wait {bw})── flushed @{} ──(backend {be})── completed @{}",
            self.arrival_tick, self.flushed_tick, self.completed_tick
        );
        if let Some(a) = self.accepted_tick {
            out.push_str(&format!(" ──(sink-wait {sw})── accepted @{a}"));
        }
        out
    }
}

/// Aggregate phase statistics over a set of spans — the unit `obsdiff`
/// compares between two traces. All tick-valued aggregates are exact
/// integer sums; means are derived.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseSummary {
    /// Spans aggregated.
    pub count: u64,
    /// Per-phase tick sums, in [`PHASE_NAMES`] order.
    pub phase_sums: [u64; 3],
    /// Per-phase p99 (nearest-rank), in [`PHASE_NAMES`] order.
    pub phase_p99: [u64; 3],
    /// Sum of end-to-end latencies. Equals the sum of `phase_sums` —
    /// the aggregate face of the per-span exact-sum invariant.
    pub total_sum: u64,
    /// p99 end-to-end latency (nearest-rank).
    pub total_p99: u64,
    /// Worst end-to-end latency.
    pub total_max: u64,
}

impl PhaseSummary {
    /// Mean ticks spent in phase `i` ([`PHASE_NAMES`] order); 0 when
    /// empty.
    pub fn phase_mean(&self, i: usize) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.phase_sums[i] as f64 / self.count as f64
        }
    }

    /// Mean end-to-end latency; 0 when empty. Because the per-span
    /// phases sum exactly, this equals the sum of the phase means — a
    /// latency delta between two summaries therefore decomposes
    /// *additively* into per-phase mean deltas.
    pub fn total_mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_sum as f64 / self.count as f64
        }
    }

    /// Renders the summary as the flat one-line JSON object the bench
    /// records embed as their `"phases"` block. Exact integer sums (not
    /// derived means) are emitted so [`from_flat_json`](Self::from_flat_json)
    /// round-trips losslessly and `obsdiff` can attribute a regression
    /// between two records without their traces.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"count\": {}, ",
                "\"batch_wait_sum\": {}, \"batch_wait_p99\": {}, ",
                "\"backend_sum\": {}, \"backend_p99\": {}, ",
                "\"sink_wait_sum\": {}, \"sink_wait_p99\": {}, ",
                "\"total_sum\": {}, \"total_p99\": {}, \"total_max\": {}}}"
            ),
            self.count,
            self.phase_sums[0],
            self.phase_p99[0],
            self.phase_sums[1],
            self.phase_p99[1],
            self.phase_sums[2],
            self.phase_p99[2],
            self.total_sum,
            self.total_p99,
            self.total_max,
        )
    }

    /// Parses a `"phases"` block produced by [`to_json`](Self::to_json)
    /// (pass the braced object substring). Returns `None` when any field
    /// is missing — a record without a phases block diffs as absent, not
    /// as zeros.
    pub fn from_flat_json(obj: &str) -> Option<Self> {
        let num = |k: &str| jsonl_num(obj, k).map(|v| v as u64);
        Some(Self {
            count: num("count")?,
            phase_sums: [
                num("batch_wait_sum")?,
                num("backend_sum")?,
                num("sink_wait_sum")?,
            ],
            phase_p99: [
                num("batch_wait_p99")?,
                num("backend_p99")?,
                num("sink_wait_p99")?,
            ],
            total_sum: num("total_sum")?,
            total_p99: num("total_p99")?,
            total_max: num("total_max")?,
        })
    }
}

/// Nearest-rank percentile of a sorted slice.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The spans reconstructed from one trace, plus everything the
/// reconstruction noticed about the trace's completeness.
#[derive(Debug, Clone, Default)]
pub struct SpanSet {
    /// Reconstructed spans, in canonical (delivery) order.
    pub spans: Vec<QuerySpan>,
    /// Events the journal dropped to its capacity bound before this
    /// trace was exported (from the `journal_overflow` meta line or
    /// `Obs::dropped`). Non-zero means every breakdown here is a
    /// **lower bound**: early spans are missing entirely.
    pub dropped: u64,
    /// `sink_accepted` events that matched no delivered span — only
    /// possible when the matching `query_delivered` was dropped by an
    /// overflowing journal.
    pub unmatched_accepts: u64,
}

impl SpanSet {
    /// Reconstructs spans from events in canonical `(tick, shard, seq)`
    /// order (sort first if the source is not already canonical —
    /// `Obs::journal()` and `parse_trace` both are).
    ///
    /// Join rules: a `query_delivered` event *opens* a span (it carries
    /// its own arrival and flush stamps); a `sink_accepted` event
    /// *closes* the earliest-open span with the same
    /// `(tenant, query, arrival, completed)` key — FIFO matching in
    /// canonical order, so re-used tenant-local ids cannot cross-wire.
    /// Migration and scale events annotate every span whose lifetime
    /// `[arrival, end]` contains their tick.
    pub fn reconstruct(events: &[Event]) -> Self {
        let mut spans: Vec<QuerySpan> = Vec::new();
        // (tenant, query, arrival, completed) -> indices of spans still
        // awaiting their sink accept, in open order.
        let mut open: std::collections::HashMap<
            (u16, u64, u64, u64),
            std::collections::VecDeque<usize>,
        > = std::collections::HashMap::new();
        let mut unmatched_accepts = 0u64;
        // (tick, tenant) per migration; tick per scale event.
        let mut migrations: Vec<(u64, u16)> = Vec::new();
        let mut scale_ticks: Vec<u64> = Vec::new();
        for e in events {
            match &e.kind {
                EventKind::QueryDelivered {
                    tenant,
                    query,
                    arrival_tick,
                    flushed_tick,
                    steps,
                } => {
                    let idx = spans.len();
                    spans.push(QuerySpan {
                        tenant: *tenant,
                        query: *query,
                        shard: e.shard,
                        arrival_tick: *arrival_tick,
                        flushed_tick: *flushed_tick,
                        completed_tick: e.tick,
                        accepted_tick: None,
                        steps: *steps,
                        migrations: 0,
                        scale_events: 0,
                    });
                    open.entry((*tenant, *query, *arrival_tick, e.tick))
                        .or_default()
                        .push_back(idx);
                }
                EventKind::SinkAccepted {
                    tenant,
                    query,
                    arrival_tick,
                    completed_tick,
                } => {
                    match open
                        .get_mut(&(*tenant, *query, *arrival_tick, *completed_tick))
                        .and_then(|q| q.pop_front())
                    {
                        Some(idx) => spans[idx].accepted_tick = Some(e.tick),
                        None => unmatched_accepts += 1,
                    }
                }
                EventKind::Migration { tenant, .. } => migrations.push((e.tick, *tenant)),
                EventKind::ShardAppended { .. }
                | EventKind::RetireBegun
                | EventKind::ShardRetired { .. } => scale_ticks.push(e.tick),
                _ => {}
            }
        }
        for s in &mut spans {
            let (lo, hi) = (s.arrival_tick, s.end_tick());
            s.migrations = migrations
                .iter()
                .filter(|(t, ten)| *ten == s.tenant && (lo..=hi).contains(t))
                .count() as u32;
            s.scale_events = scale_ticks
                .iter()
                .filter(|t| (lo..=hi).contains(*t))
                .count() as u32;
        }
        Self {
            spans,
            dropped: 0,
            unmatched_accepts,
        }
    }

    /// Reconstructs from a canonical JSONL trace string, honouring its
    /// `journal_overflow` meta line.
    pub fn from_trace(trace: &str) -> Self {
        let (events, dropped) = parse_trace(trace);
        let mut set = Self::reconstruct(&events);
        set.dropped = dropped;
        set
    }

    /// Aggregate phase statistics over every span (or a filtered
    /// subset via [`summary_of`](Self::summary_of)).
    pub fn summary(&self) -> PhaseSummary {
        Self::summarize(self.spans.iter())
    }

    /// Aggregate phase statistics over the spans matching `keep`.
    pub fn summary_of<F: Fn(&QuerySpan) -> bool>(&self, keep: F) -> PhaseSummary {
        Self::summarize(self.spans.iter().filter(|s| keep(s)))
    }

    fn summarize<'a, I: Iterator<Item = &'a QuerySpan>>(spans: I) -> PhaseSummary {
        let mut out = PhaseSummary::default();
        let mut phase_vals: [Vec<u64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        let mut totals: Vec<u64> = Vec::new();
        for s in spans {
            out.count += 1;
            let phases = s.phases();
            for i in 0..3 {
                out.phase_sums[i] += phases[i];
                phase_vals[i].push(phases[i]);
            }
            let t = s.total();
            out.total_sum += t;
            totals.push(t);
        }
        for (i, vals) in phase_vals.iter_mut().enumerate() {
            vals.sort_unstable();
            out.phase_p99[i] = percentile(vals, 99.0);
        }
        totals.sort_unstable();
        out.total_p99 = percentile(&totals, 99.0);
        out.total_max = totals.last().copied().unwrap_or(0);
        out
    }

    /// Tenants present, ascending.
    pub fn tenants(&self) -> Vec<u16> {
        let mut t: Vec<u16> = self.spans.iter().map(|s| s.tenant).collect();
        t.sort_unstable();
        t.dedup();
        t
    }

    /// Shards present, ascending.
    pub fn shards(&self) -> Vec<u32> {
        let mut s: Vec<u32> = self.spans.iter().map(|s| s.shard).collect();
        s.sort_unstable();
        s.dedup();
        s
    }

    /// The percentile exemplars: the *actual* spans sitting at p50, p99
    /// and max end-to-end latency (nearest-rank; ties broken by
    /// canonical order, so the choice is deterministic). Labels are
    /// `"p50"`, `"p99"`, `"max"`; duplicates collapse, so a small set
    /// may return fewer than three.
    pub fn exemplars(&self) -> Vec<(&'static str, &QuerySpan)> {
        if self.spans.is_empty() {
            return Vec::new();
        }
        let mut order: Vec<usize> = (0..self.spans.len()).collect();
        order.sort_by_key(|&i| (self.spans[i].total(), i));
        let pick = |p: f64| {
            let rank = ((p / 100.0) * order.len() as f64).ceil() as usize;
            order[rank.clamp(1, order.len()) - 1]
        };
        let mut out: Vec<(&'static str, usize)> = Vec::new();
        for (label, idx) in [
            ("p50", pick(50.0)),
            ("p99", pick(99.0)),
            ("max", *order.last().unwrap()),
        ] {
            if !out.iter().any(|(_, i)| *i == idx) {
                out.push((label, idx));
            }
        }
        out.into_iter().map(|(l, i)| (l, &self.spans[i])).collect()
    }
}

/// A phase-attributed comparison of two runs — the engine behind the
/// `obsdiff` bin and the perf gate's regression explanation.
///
/// Built either from two full traces ([`TraceDiff::from_traces`], which
/// also diffs the event census) or from two bench records' `"phases"`
/// blocks ([`TraceDiff::from_summaries`], no census). Because every
/// span's phases sum *exactly* to its end-to-end latency, the per-phase
/// mean deltas here sum exactly to the end-to-end mean delta: the
/// attribution is additive accounting, not a heuristic.
#[derive(Debug, Clone, Default)]
pub struct TraceDiff {
    /// Phase summary of the baseline side.
    pub baseline: PhaseSummary,
    /// Phase summary of the current side.
    pub current: PhaseSummary,
    /// Events the baseline journal dropped (its breakdown is a lower
    /// bound when non-zero).
    pub baseline_dropped: u64,
    /// Events the current journal dropped.
    pub current_dropped: u64,
    /// Event census (kind tag → count) per side; empty when built from
    /// bench records rather than traces.
    pub baseline_census: std::collections::BTreeMap<&'static str, u64>,
    /// Current side of the census.
    pub current_census: std::collections::BTreeMap<&'static str, u64>,
}

impl TraceDiff {
    /// Compares two canonical JSONL traces: span-level phase summaries
    /// plus the full event census.
    pub fn from_traces(baseline: &str, current: &str) -> Self {
        let census = |events: &[Event]| {
            let mut c: std::collections::BTreeMap<&'static str, u64> =
                std::collections::BTreeMap::new();
            for e in events {
                *c.entry(e.kind.tag()).or_default() += 1;
            }
            c
        };
        let (base_events, base_dropped) = parse_trace(baseline);
        let (cur_events, cur_dropped) = parse_trace(current);
        Self {
            baseline: SpanSet::reconstruct(&base_events).summary(),
            current: SpanSet::reconstruct(&cur_events).summary(),
            baseline_dropped: base_dropped,
            current_dropped: cur_dropped,
            baseline_census: census(&base_events),
            current_census: census(&cur_events),
        }
    }

    /// Compares two already-aggregated phase summaries (the `"phases"`
    /// blocks of two bench records). No event census.
    pub fn from_summaries(baseline: PhaseSummary, current: PhaseSummary) -> Self {
        Self {
            baseline,
            current,
            ..Self::default()
        }
    }

    /// End-to-end mean latency delta (current − baseline), in ticks.
    pub fn delta_mean(&self) -> f64 {
        self.current.total_mean() - self.baseline.total_mean()
    }

    /// Per-phase mean deltas in [`PHASE_NAMES`] order. Sums exactly to
    /// [`delta_mean`](Self::delta_mean).
    pub fn phase_mean_deltas(&self) -> [f64; 3] {
        [0, 1, 2].map(|i| self.current.phase_mean(i) - self.baseline.phase_mean(i))
    }

    /// The phase that explains the largest share of a *positive* mean
    /// latency delta — the regression's name. `None` when no phase's
    /// mean grew (an improvement or a flat diff).
    pub fn top_regressed_phase(&self) -> Option<&'static str> {
        let deltas = self.phase_mean_deltas();
        let (mut best, mut best_delta) = (None, 0.0f64);
        for (i, d) in deltas.iter().enumerate() {
            if *d > best_delta {
                best = Some(PHASE_NAMES[i]);
                best_delta = *d;
            }
        }
        best
    }

    /// One-sentence verdict: which phase moved, by how much, carrying
    /// what share of the end-to-end delta. This is the line the perf
    /// gate prints under a failed metric.
    pub fn verdict(&self) -> String {
        let total = self.delta_mean();
        if total.abs() < 1e-9 {
            return "mean end-to-end latency is unchanged".to_string();
        }
        let deltas = self.phase_mean_deltas();
        // The dominant mover in the delta's own direction.
        let (mut idx, mut mag) = (0usize, f64::MIN);
        for (i, d) in deltas.iter().enumerate() {
            let aligned = d * total.signum();
            if aligned > mag {
                (idx, mag) = (i, aligned);
            }
        }
        let share = (deltas[idx] / total * 100.0).round();
        let direction = if total > 0.0 {
            "regression"
        } else {
            "improvement"
        };
        format!(
            "{} explains {share:.0}% of the {total:+.2}-tick mean latency {direction} ({:+.2} ticks)",
            PHASE_NAMES[idx], deltas[idx]
        )
    }

    /// Renders the full markdown report: latency table, additive phase
    /// attribution with the verdict, and (in trace mode) the event
    /// census shifts.
    pub fn render_markdown(&self, baseline_label: &str, current_label: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# Trace diff — phase attribution\n");
        let _ = writeln!(
            out,
            "Baseline: `{baseline_label}` — current: `{current_label}`\n"
        );
        if self.baseline_dropped > 0 || self.current_dropped > 0 {
            let _ = writeln!(
                out,
                "> **Warning:** journal overflow (baseline dropped {}, current \
                 dropped {}); every figure below is a lower bound over the \
                 surviving spans.\n",
                self.baseline_dropped, self.current_dropped
            );
        }
        let _ = writeln!(out, "| | baseline | current | Δ |");
        let _ = writeln!(out, "|---|---|---|---|");
        let _ = writeln!(
            out,
            "| delivered spans | {} | {} | {:+} |",
            self.baseline.count,
            self.current.count,
            self.current.count as i64 - self.baseline.count as i64
        );
        let _ = writeln!(
            out,
            "| mean latency (ticks) | {:.2} | {:.2} | {:+.2} |",
            self.baseline.total_mean(),
            self.current.total_mean(),
            self.delta_mean()
        );
        let _ = writeln!(
            out,
            "| p99 latency (ticks) | {} | {} | {:+} |",
            self.baseline.total_p99,
            self.current.total_p99,
            self.current.total_p99 as i64 - self.baseline.total_p99 as i64
        );
        let _ = writeln!(
            out,
            "| max latency (ticks) | {} | {} | {:+} |",
            self.baseline.total_max,
            self.current.total_max,
            self.current.total_max as i64 - self.baseline.total_max as i64
        );

        let _ = writeln!(out, "\n## Phase attribution\n");
        let _ = writeln!(
            out,
            "Phases sum exactly per span, so the mean deltas below sum \
             exactly to the end-to-end mean delta — additive accounting, \
             not correlation.\n"
        );
        let _ = writeln!(out, "| phase | baseline mean | current mean | Δ | p99 Δ |");
        let _ = writeln!(out, "|---|---|---|---|---|");
        let deltas = self.phase_mean_deltas();
        for (i, name) in PHASE_NAMES.iter().enumerate() {
            let _ = writeln!(
                out,
                "| {name} | {:.2} | {:.2} | {:+.2} | {:+} |",
                self.baseline.phase_mean(i),
                self.current.phase_mean(i),
                deltas[i],
                self.current.phase_p99[i] as i64 - self.baseline.phase_p99[i] as i64
            );
        }
        let _ = writeln!(out, "\n**{}.**", self.verdict());

        if !self.baseline_census.is_empty() || !self.current_census.is_empty() {
            let _ = writeln!(out, "\n## Event census\n");
            let _ = writeln!(out, "| event | baseline | current | Δ |");
            let _ = writeln!(out, "|---|---|---|---|");
            let keys: std::collections::BTreeSet<&&str> = self
                .baseline_census
                .keys()
                .chain(self.current_census.keys())
                .collect();
            for k in keys {
                let b = self.baseline_census.get(*k).copied().unwrap_or(0);
                let c = self.current_census.get(*k).copied().unwrap_or(0);
                let _ = writeln!(out, "| {k} | {b} | {c} | {:+} |", c as i64 - b as i64);
            }
        }
        out
    }
}

/// Parses a canonical JSONL trace (the output of `Obs::trace_jsonl` or
/// an on-disk `TRACE_*.jsonl`) into events in their written (canonical)
/// order, plus the dropped-event count from the `journal_overflow` meta
/// line (0 when absent). Unparsable lines are skipped.
pub fn parse_trace(trace: &str) -> (Vec<Event>, u64) {
    let mut events = Vec::new();
    let mut dropped = 0u64;
    for line in trace.lines() {
        if let Some(e) = Event::parse_jsonl(line) {
            events.push(e);
        } else if line.contains("\"ev\": \"journal_overflow\"") {
            dropped = jsonl_num(line, "dropped").map(|d| d as u64).unwrap_or(0);
        }
    }
    (events, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::GLOBAL_SHARD;

    fn ev(tick: u64, shard: u32, seq: u64, kind: EventKind) -> Event {
        Event {
            tick,
            shard,
            seq,
            kind,
        }
    }

    fn delivered(tick: u64, shard: u32, seq: u64, query: u64, arrival: u64, flushed: u64) -> Event {
        ev(
            tick,
            shard,
            seq,
            EventKind::QueryDelivered {
                tenant: 1,
                query,
                arrival_tick: arrival,
                flushed_tick: flushed,
                steps: 4,
            },
        )
    }

    fn accepted(tick: u64, seq: u64, query: u64, arrival: u64, completed: u64) -> Event {
        ev(
            tick,
            GLOBAL_SHARD,
            seq,
            EventKind::SinkAccepted {
                tenant: 1,
                query,
                arrival_tick: arrival,
                completed_tick: completed,
            },
        )
    }

    #[test]
    fn phases_sum_exactly_with_and_without_sink() {
        let events = vec![
            delivered(7, 0, 0, 10, 2, 4),
            accepted(9, 100, 10, 2, 7),
            delivered(8, 1, 0, 11, 3, 5),
        ];
        let set = SpanSet::reconstruct(&events);
        assert_eq!(set.spans.len(), 2);
        let s = &set.spans[0];
        assert_eq!(s.phases(), [2, 3, 2]);
        assert_eq!(s.total(), 7);
        assert_eq!(s.phases().iter().sum::<u64>(), s.total());
        let no_sink = &set.spans[1];
        assert_eq!(no_sink.accepted_tick, None);
        assert_eq!(no_sink.phases(), [2, 3, 0]);
        assert_eq!(no_sink.phases().iter().sum::<u64>(), no_sink.total());
    }

    #[test]
    fn fifo_matching_survives_reused_query_ids() {
        // Two spans with the identical join key: FIFO pairs the first
        // accept with the first delivery.
        let events = vec![
            delivered(5, 0, 0, 1, 1, 2),
            delivered(5, 0, 1, 1, 1, 2),
            accepted(6, 100, 1, 1, 5),
            accepted(8, 101, 1, 1, 5),
        ];
        let set = SpanSet::reconstruct(&events);
        assert_eq!(set.spans[0].accepted_tick, Some(6));
        assert_eq!(set.spans[1].accepted_tick, Some(8));
        assert_eq!(set.unmatched_accepts, 0);
    }

    #[test]
    fn orphan_accepts_are_counted_not_invented() {
        let events = vec![accepted(6, 100, 9, 1, 5)];
        let set = SpanSet::reconstruct(&events);
        assert!(set.spans.is_empty());
        assert_eq!(set.unmatched_accepts, 1);
    }

    #[test]
    fn fleet_events_annotate_intersecting_spans_only() {
        let events = vec![
            delivered(10, 0, 0, 1, 4, 6),
            delivered(30, 0, 1, 2, 25, 27),
            ev(
                3,
                1,
                200,
                EventKind::Migration {
                    tenant: 1,
                    from: 0,
                    to: 1,
                    cost: 0.5,
                },
            ),
            ev(
                8,
                1,
                201,
                EventKind::Migration {
                    tenant: 1,
                    from: 1,
                    to: 0,
                    cost: 0.5,
                },
            ),
            ev(
                9,
                2,
                202,
                EventKind::Migration {
                    tenant: 3,
                    from: 0,
                    to: 2,
                    cost: 0.5,
                },
            ),
            ev(26, 2, 300, EventKind::ShardAppended { reactivated: false }),
        ];
        let set = SpanSet::reconstruct(&events);
        // Span 1 lives [4, 10]: one own-tenant migration at 8 (the one
        // at 3 precedes arrival, tenant 3's at 9 is not ours).
        assert_eq!(set.spans[0].migrations, 1);
        assert_eq!(set.spans[0].scale_events, 0);
        // Span 2 lives [25, 30]: the append at 26 intersects.
        assert_eq!(set.spans[1].migrations, 0);
        assert_eq!(set.spans[1].scale_events, 1);
    }

    #[test]
    fn summary_sums_match_and_percentiles_are_nearest_rank() {
        let events: Vec<Event> = (0..100)
            .map(|i| delivered(10 + i, 0, i, i, i, 5 + i))
            .collect();
        let set = SpanSet::reconstruct(&events);
        let sum = set.summary();
        assert_eq!(sum.count, 100);
        // Every span: batch-wait 5, backend 5, sink-wait 0, total 10.
        assert_eq!(sum.phase_sums, [500, 500, 0]);
        assert_eq!(sum.total_sum, 1000);
        assert_eq!(sum.phase_sums.iter().sum::<u64>(), sum.total_sum);
        assert_eq!(sum.total_p99, 10);
        assert_eq!(sum.total_max, 10);
        assert_eq!(sum.phase_p99, [5, 5, 0]);
        assert!((sum.total_mean() - 10.0).abs() < 1e-12);
        assert!((sum.phase_mean(0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn exemplars_pick_real_spans_deterministically() {
        let events: Vec<Event> = (0..10)
            .map(|i| delivered(10 + i, 0, i, i, 10, 10))
            .collect();
        let set = SpanSet::reconstruct(&events);
        let ex = set.exemplars();
        let labels: Vec<&str> = ex.iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, vec!["p50", "p99"]);
        assert_eq!(ex[0].1.total(), 4); // nearest-rank p50 of 0..=9
        assert_eq!(ex[1].1.total(), 9); // p99 == max span; "max" collapsed
        assert!(set.exemplars().iter().all(|(_, s)| set.spans.contains(s)));
    }

    #[test]
    fn timeline_renders_the_documented_format() {
        let span = QuerySpan {
            tenant: 3,
            query: 41,
            shard: 1,
            arrival_tick: 120,
            flushed_tick: 122,
            completed_tick: 127,
            accepted_tick: Some(129),
            steps: 8,
            migrations: 0,
            scale_events: 0,
        };
        assert_eq!(
            span.timeline(),
            "admitted @120 ──(batch-wait 2)── flushed @122 ──(backend 5)── \
             completed @127 ──(sink-wait 2)── accepted @129"
        );
    }

    #[test]
    fn phase_summary_json_round_trips() {
        let events = vec![delivered(7, 0, 0, 10, 2, 4), accepted(9, 100, 10, 2, 7)];
        let sum = SpanSet::reconstruct(&events).summary();
        let parsed = PhaseSummary::from_flat_json(&sum.to_json()).expect("parses");
        assert_eq!(parsed, sum);
        assert_eq!(PhaseSummary::from_flat_json("{\"count\": 3}"), None);
    }

    #[test]
    fn diff_attributes_the_regressed_phase_additively() {
        // Baseline: batch-wait 2, backend 3, no sink. Current: identical
        // batching/backend, but a sink now holds every walk 6 ticks.
        let base: Vec<Event> = (0..50).map(|i| delivered(10, 0, i, i, 5, 7)).collect();
        let mut cur = base.clone();
        cur.extend((0..50).map(|i| accepted(16, 1000 + i, i, 5, 10)));
        let base_trace: String = base.iter().map(|e| e.jsonl() + "\n").collect();
        let cur_trace: String = cur.iter().map(|e| e.jsonl() + "\n").collect();
        let diff = TraceDiff::from_traces(&base_trace, &cur_trace);
        assert_eq!(diff.top_regressed_phase(), Some("sink-wait"));
        // Additivity: phase mean deltas sum exactly to the total delta.
        let sum: f64 = diff.phase_mean_deltas().iter().sum();
        assert!((sum - diff.delta_mean()).abs() < 1e-9);
        assert!((diff.delta_mean() - 6.0).abs() < 1e-9);
        assert!(diff.verdict().contains("sink-wait explains 100%"));
        // Census: the current trace gained 50 sink_accepted events.
        let md = diff.render_markdown("a", "b");
        assert!(md.contains("| sink_accepted | 0 | 50 | +50 |"), "{md}");
        assert!(md.contains("**sink-wait explains 100%"));
    }

    #[test]
    fn diff_of_identical_traces_is_flat() {
        let base: Vec<Event> = (0..10).map(|i| delivered(9, 0, i, i, 4, 6)).collect();
        let trace: String = base.iter().map(|e| e.jsonl() + "\n").collect();
        let diff = TraceDiff::from_traces(&trace, &trace);
        assert_eq!(diff.top_regressed_phase(), None);
        assert_eq!(diff.verdict(), "mean end-to-end latency is unchanged");
    }

    #[test]
    fn diff_from_record_summaries_names_the_phase_without_a_census() {
        let mut base = PhaseSummary {
            count: 100,
            phase_sums: [100, 300, 0],
            total_sum: 400,
            ..PhaseSummary::default()
        };
        let mut cur = base;
        cur.phase_sums[0] = 400; // batch-wait tripled
        cur.total_sum = 700;
        base.phase_p99 = [1, 3, 0];
        cur.phase_p99 = [4, 3, 0];
        let diff = TraceDiff::from_summaries(base, cur);
        assert_eq!(diff.top_regressed_phase(), Some("batch-wait"));
        let md = diff.render_markdown("old", "new");
        assert!(!md.contains("## Event census"));
        assert!(md.contains("batch-wait explains 100%"), "{md}");
    }

    #[test]
    fn from_trace_reads_the_overflow_meta_line() {
        let trace = format!(
            "{{\"ev\": \"journal_overflow\", \"dropped\": 42}}\n{}\n{}\n",
            delivered(7, 0, 0, 10, 2, 4).jsonl(),
            accepted(9, 100, 99, 0, 0).jsonl(), // orphan: its delivery was dropped
        );
        let set = SpanSet::from_trace(&trace);
        assert_eq!(set.dropped, 42);
        assert_eq!(set.spans.len(), 1);
        assert_eq!(set.unmatched_accepts, 1);
    }
}
