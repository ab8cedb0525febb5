//! Metric names, the result line, and the small statistics the workloads
//! share.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
/// `BENCHMARK.json` lists the same names and units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_qps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("msteps", "MStep/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// does not pass through reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.generate_s", "s"),
    ("algo.prepare_s", "s"),
    ("algo.kernel_ns_per_step", "ns/step"),
    ("algo.backend_poll_ns_per_step", "ns/step"),
    ("algo.backend_submit_ns_per_query", "ns/query"),
    ("algo.empty_poll_ratio", "ratio"),
    ("algo.steps", "count"),
    ("algo.scanned_words_per_step", "words/step"),
    ("algo.rejection_trials_per_sample", "trials/sample"),
    ("algo.cache_hit_ratio", "ratio"),
    ("service.tick_self_ns_per_query", "ns/query"),
    ("route.submit_ns_per_query", "ns/query"),
    ("service.ticks", "count"),
    ("service.batches", "count"),
    ("route.migrations", "count"),
    ("service.digest", "hash"),
    ("service.mean_batch_size", "queries/batch"),
    ("service.deadline_flush_ratio", "ratio"),
    ("service.refused_ratio", "ratio"),
    ("sink.accept_ns_per_walk", "ns/walk"),
    ("sink.pairs", "count"),
    ("sink.backpressure_ratio", "ratio"),
    ("obs.flush_ns", "ns"),
    ("obs.events", "count"),
    ("obs.dropped", "count"),
    ("obs.cost_ratio", "ratio"),
    ("core.host_ns_per_cycle", "ns/cycle"),
    ("core.sim_cycles", "count"),
    ("core.steps", "count"),
    ("core.bubble_ratio", "ratio"),
    ("core.pipeline_utilization", "ratio"),
    ("core.bandwidth_utilization", "ratio"),
    ("core.txns_per_step", "txns/step"),
    ("trace.overhead_ratio", "ratio"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Queries offered to the system under test.
    pub attempted: u64,
    /// Queries whose delivery or output failed a check, plus one per
    /// failed run-level check (accounting, determinism).
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

impl Outcome {
    /// Sets metric `name` (one of [`END_TO_END`] or [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Adds a human-readable line printed with the metrics.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a failed run-level check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.notes.push(format!("CHECK FAILED: {}", what.into()));
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Prints the human-readable report and, last, the one-line JSON
    /// result: end-to-end metrics for an untraced run, per-layer metrics
    /// for a traced one.
    ///
    /// # Panics
    ///
    /// Panics if an untraced run left an end-to-end metric unset (every
    /// workload reports all of them).
    pub fn print(&self, header: &str, traced: bool) {
        println!("{header}");
        let list = if traced { PER_LAYER } else { END_TO_END };
        let mut json = String::new();
        for (i, &(name, unit)) in list.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            let value = if value.is_finite() { value } else { 0.0 };
            println!("{name:<34} {value:>16} {unit}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            );
        }
        for line in &self.notes {
            println!("# {line}");
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{:<34} {error_rate:>16} ratio ({} failed / {} attempted)",
            "error_rate", self.failed, self.attempted
        );
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        );
    }
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip form gives it.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Median of `values` (mean of the middle pair for even lengths); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    // `struct rusage` on LP64 Linux: two `struct timeval`s (2 × i64
    // each) followed by fourteen `long`s, the first being `ru_maxrss`
    // in KiB.
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        longs: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage {
        times: [0; 4],
        longs: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value with the layout of
    // `struct rusage` on LP64 Linux, which is all `getrusage` writes.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage.longs[0] as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn numbers_stay_json() {
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(0.125), "0.125");
        assert_eq!(json_number(1e21), "1000000000000000000000.0");
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, (name, unit)) in all.iter().enumerate() {
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(all[i + 1..].iter().all(|(n, _)| n != name), "{name} twice");
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let doc: String = include_str!("../../BENCHMARK.json")
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            doc.matches("\"better\":").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists a metric the benchmark does not print"
        );
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 1.0);
    }
}
