//! CI perf-regression gate over the `BENCH_*.json` records.
//!
//! Compares the current smoke-run bench records against the committed
//! baselines in `benchmarks/baselines/` and fails (exit code 1) when any
//! gated metric regresses beyond the tolerance band, naming every
//! offending metric. Only *deterministic* metrics are gated — simulated
//! cycles, tick latencies, saturation in queries/tick — never wall-clock
//! rates, so the gate is stable across CI runner hardware. Improvements
//! beyond the band pass but are flagged so the baseline gets refreshed.
//!
//! ```text
//! perf_gate <baseline_dir> <current_dir> [--tolerance 0.2]
//! ```
//!
//! `--tolerance` is only the *default* band. A baseline may carry
//! per-metric overrides in a `gate` block mirroring the metric paths —
//! throughput metrics tight, latency tails loose:
//!
//! ```json
//! {"gate": {"summary": {"saturation_qpt": 0.15,
//!                       "high_load_mean_latency_ticks": 0.35}}, ...}
//! ```
//!
//! The bench generators emit these blocks themselves, so refreshing a
//! baseline (re-running the bench and copying its output) keeps the
//! bands.
//!
//! Baselines are regenerated by running the smoke benches and copying
//! their output:
//!
//! ```text
//! SERVING_SMOKE=1 cargo run --release --example serving_accel
//! LOAD_SMOKE=1 cargo run --release --example latency_load
//! cp BENCH_serving.json BENCH_load_*.json benchmarks/baselines/
//! ```

use grw_bench::Json;
use grw_obs::{PhaseSummary, TraceDiff};
use std::path::Path;
use std::process::ExitCode;

/// Which way "better" points for a gated metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    HigherIsBetter,
    LowerIsBetter,
}

/// One gated metric: a dotted JSON path plus its tolerance floor.
struct Metric {
    path: &'static str,
    direction: Direction,
    /// Absolute slack added on top of the relative band — keeps
    /// near-zero baselines (bubble ratios, small tick counts) from
    /// failing on ±1 noise.
    abs_floor: f64,
}

const fn higher(path: &'static str) -> Metric {
    Metric {
        path,
        direction: Direction::HigherIsBetter,
        abs_floor: 0.0,
    }
}

const fn lower(path: &'static str, abs_floor: f64) -> Metric {
    Metric {
        path,
        direction: Direction::LowerIsBetter,
        abs_floor,
    }
}

/// Gated metrics for `BENCH_serving.json`.
const SERVING_METRICS: &[Metric] = &[
    higher("batch.msteps_simulated"),
    higher("incremental.msteps_simulated"),
    lower("batch.simulated_cycles", 0.0),
    lower("incremental.simulated_cycles", 0.0),
    lower("batch.bubble_ratio", 0.05),
    lower("incremental.bubble_ratio", 0.05),
    lower("incremental.p99_batch_latency_ticks", 2.0),
];

/// Gated metrics for every `BENCH_load_<workload>.json`.
const LOAD_METRICS: &[Metric] = &[
    higher("summary.saturation_qpt"),
    lower("calibration.solo_latency_ticks", 2.0),
    lower("summary.low_load_mean_latency_ticks", 2.0),
    lower("summary.high_load_mean_latency_ticks", 2.0),
    lower("summary.low_load_model_error", 0.05),
    higher("phases.count"),
    lower("phases.total_sum", 64.0),
    lower("phases.batch_wait_sum", 64.0),
    lower("phases.backend_sum", 64.0),
    lower("phases.sink_wait_sum", 64.0),
];

/// Gated metrics for `BENCH_sinks.json` — all deterministic (logical
/// ticks and exact counts, no wall clock).
const SINK_METRICS: &[Metric] = &[
    higher("summary.walks_delivered"),
    higher("summary.pairs_emitted"),
    lower("summary.sink_peak_resident", 16.0),
    lower("summary.ticks", 8.0),
    higher("phases.count"),
    lower("phases.total_sum", 64.0),
    lower("phases.batch_wait_sum", 64.0),
    lower("phases.backend_sum", 64.0),
    lower("phases.sink_wait_sum", 64.0),
];

/// Gated metrics for `BENCH_routing.json` — worst-case p99 per policy
/// across the workload matrix, the adaptive policy's migration count
/// (flap bound) and its fast-class routing share. All logical ticks and
/// exact counts.
// `summary.p99_improvement` is recorded but deliberately NOT gated: it
// is derived from the two gated p99s, and gating the ratio would fail
// CI when the *baseline* arm improves (static p99 drops, ratio shrinks,
// nothing got worse).
const ROUTING_METRICS: &[Metric] = &[
    lower("summary.p99_adaptive", 8.0),
    lower("summary.p99_least_loaded", 8.0),
    lower("summary.p99_static", 16.0),
    lower("summary.migrations_adaptive", 16.0),
    higher("summary.routed_accel_adaptive"),
];

/// Gated metrics for `BENCH_sampling.json`. The sampler counters
/// (cache hits, alias builds, reservoir scan words, total steps) are
/// seed-deterministic and gated tight; the two speedups are wall-clock
/// *ratios* of the two arms on the same machine in the same run — the
/// absolute rates cancel, so they are stable enough to gate, but they
/// carry the wide bands the bench emits in its `gate` block.
const SAMPLING_METRICS: &[Metric] = &[
    higher("summary.node2vec_speedup_skewed"),
    higher("summary.min_speedup"),
    higher("summary.cache_hit_ratio"),
    higher("summary.cache_hits"),
    lower("summary.alias_builds", 0.0),
    lower("summary.legacy_scanned_words", 0.0),
    higher("summary.total_steps"),
];

/// Gated metrics for `BENCH_qps.json` — only the determinism counters.
/// The bench's headline is a wall-clock QPS, but that depends on the
/// runner's hardware, so it is not gated; what CI pins is the walk and
/// step counts, and that every run of the stream — the headline run and
/// each obs-overhead window run, live hub and disabled hub alike —
/// completes the identical walk multiset (`checksum_match` is 1 when the
/// digests, walk counts, and step counts all agree).
// `obs_overhead` is the one wall-clock-derived number gated here: it is
// a same-machine same-run ratio (absolute ±3% floor, 0% relative band
// from the bench's own gate block), pinning the claim that full
// observability costs under 3% of serving throughput.
const QPS_METRICS: &[Metric] = &[
    higher("summary.completed"),
    higher("summary.steps"),
    higher("summary.checksum_match"),
    lower("summary.obs_overhead", 0.03),
    // The headline run's phase attribution is pure logical ticks: the
    // bench gates it at ±0% like `completed`/`steps`.
    higher("phases.count"),
    lower("phases.total_sum", 0.0),
    lower("phases.batch_wait_sum", 0.0),
    lower("phases.backend_sum", 0.0),
    lower("phases.sink_wait_sum", 0.0),
];

/// Gated metrics for `BENCH_autoscale.json` — all deterministic (logical
/// fleet-ticks, CRN arrival streams, seeded policy stagger). The two
/// SLO-held booleans pin the bench's headline claims: the autoscaled arm
/// must keep holding the SLO (1 stays 1) and the under-provisioned
/// control must keep breaching it (0 stays 0). `scale_downs` is gated
/// higher-is-better: losing the fleet's ability to shrink is the
/// regression this bench exists to catch, extra shrinks on a cheaper
/// policy are an improvement. `summary.cost_vs_over` is recorded but NOT
/// gated — it is the ratio of the two gated fleet-tick counts, and
/// gating a derived ratio fails CI when only the baseline arm moves.
const AUTOSCALE_METRICS: &[Metric] = &[
    lower("summary.p99_autoscaled", 8.0),
    lower("summary.p99_static_over", 8.0),
    lower("summary.fleet_ticks_autoscaled", 64.0),
    lower("summary.fleet_ticks_static_over", 64.0),
    lower("summary.scale_ups", 2.0),
    higher("summary.scale_downs"),
    higher("summary.slo_held_autoscaled"),
    lower("summary.slo_held_static_under", 0.0),
    higher("phases.count"),
    lower("phases.total_sum", 64.0),
    lower("phases.batch_wait_sum", 64.0),
    lower("phases.backend_sum", 64.0),
    lower("phases.sink_wait_sum", 64.0),
];

/// Outcome of one metric comparison.
#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    /// Better than baseline by more than the band (refresh suggested).
    Improved,
    Regressed,
    MissingCurrent,
    /// Baseline value is null — nothing to gate.
    SkippedNull,
    /// The metric exists in the current record but not in the baseline:
    /// a bench gained a metric since the baseline was captured. Not a
    /// failure, but called out loudly so the baseline gets refreshed —
    /// until then the new metric is flying without a gate.
    UngatedNew,
}

/// Compares one metric value pair under the tolerance band.
fn judge(metric: &Metric, base: f64, current: f64, tolerance: f64) -> Verdict {
    let band = (tolerance * base.abs()).max(metric.abs_floor);
    let worse = match metric.direction {
        Direction::HigherIsBetter => base - current,
        Direction::LowerIsBetter => current - base,
    };
    if worse > band {
        Verdict::Regressed
    } else if worse < -band {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

/// Rebuilds a record's `"phases"` block as a [`PhaseSummary`], if the
/// record carries one. Integer sums round-trip exactly through the JSON.
fn phase_summary_of(record: &Json) -> Option<PhaseSummary> {
    let num = |k: &str| {
        record
            .get(&format!("phases.{k}"))
            .and_then(Json::as_f64)
            .map(|v| v as u64)
    };
    Some(PhaseSummary {
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

/// The tolerance band for one metric: the baseline's per-metric override
/// from its `gate` block when present, the CLI default otherwise.
fn tolerance_for(base: &Json, metric: &Metric, default: f64) -> f64 {
    base.get(&format!("gate.{}", metric.path))
        .and_then(Json::as_f64)
        .filter(|t| t.is_finite() && *t >= 0.0)
        .unwrap_or(default)
}

/// Compares every gated metric of one bench file pair; appends
/// `file:metric` for each regression to `offenders` and returns how many
/// were found.
fn gate_file(
    name: &str,
    base: &Json,
    current: &Json,
    default_tolerance: f64,
    offenders: &mut Vec<String>,
) -> usize {
    let metrics: &[Metric] = if name.starts_with("BENCH_load_") {
        LOAD_METRICS
    } else if name.starts_with("BENCH_sinks") {
        SINK_METRICS
    } else if name.starts_with("BENCH_routing") {
        ROUTING_METRICS
    } else if name.starts_with("BENCH_sampling") {
        SAMPLING_METRICS
    } else if name.starts_with("BENCH_qps") {
        QPS_METRICS
    } else if name.starts_with("BENCH_autoscale") {
        AUTOSCALE_METRICS
    } else {
        SERVING_METRICS
    };
    let mut regressions = 0;
    let mut gated = 0;
    for m in metrics {
        let base_v = base.get(m.path).and_then(Json::as_f64);
        let cur_v = current.get(m.path).and_then(Json::as_f64);
        let tolerance = tolerance_for(base, m, default_tolerance);
        let verdict = match (base_v, cur_v) {
            (None, None) => Verdict::SkippedNull,
            (None, Some(_)) => Verdict::UngatedNew,
            (Some(_), None) => Verdict::MissingCurrent,
            (Some(b), Some(c)) => judge(m, b, c, tolerance),
        };
        if base_v.is_some() {
            gated += 1;
        }
        let fmt_v = |v: Option<f64>| v.map_or("null".to_string(), |x| format!("{x:.4}"));
        let delta = match (base_v, cur_v) {
            (Some(b), Some(c)) if b != 0.0 => format!("{:+.1}%", (c - b) / b.abs() * 100.0),
            _ => "-".to_string(),
        };
        let tag = match verdict {
            Verdict::Ok => "ok",
            Verdict::Improved => "IMPROVED (refresh baseline?)",
            Verdict::Regressed => "REGRESSED",
            Verdict::MissingCurrent => "MISSING IN CURRENT",
            Verdict::SkippedNull => "skipped (null baseline)",
            Verdict::UngatedNew => "ungated (new) - refresh baseline to gate it",
        };
        println!(
            "  {:<44} base {:>12} -> cur {:>12}  {:>7}  ±{:>2.0}%  {}",
            m.path,
            fmt_v(base_v),
            fmt_v(cur_v),
            delta,
            tolerance * 100.0,
            tag
        );
        if matches!(verdict, Verdict::Regressed | Verdict::MissingCurrent) {
            offenders.push(format!("{name}:{}", m.path));
            regressions += 1;
        }
    }
    // A baseline where *every* gated metric is null protects nothing —
    // the file would silently wave any regression through. That is a
    // broken baseline, not a clean pass.
    if gated == 0 {
        offenders.push(format!("{name}:<no gated metrics in baseline>"));
        regressions += 1;
    }
    // A failing file with phase attribution on both sides gets its delta
    // explained, not just measured: the exact per-phase decomposition
    // names where the regressed latency lives (the same verdict
    // `obsdiff` renders in full from the two records).
    if regressions > 0 {
        if let (Some(b), Some(c)) = (phase_summary_of(base), phase_summary_of(current)) {
            let diff = TraceDiff::from_summaries(b, c);
            println!("  phase attribution: {}", diff.verdict());
        }
    }
    regressions
}

fn load_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let mut tolerance = 0.2;
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        if arg == "--tolerance" {
            tolerance = it
                .next()
                .and_then(|t| t.parse::<f64>().ok())
                .expect("--tolerance needs a numeric value");
        } else if arg.starts_with("--") {
            eprintln!("unknown flag {arg}");
            return ExitCode::from(2);
        } else {
            positional.push(arg);
        }
    }
    if positional.len() != 2 {
        eprintln!("usage: perf_gate <baseline_dir> <current_dir> [--tolerance 0.2]");
        return ExitCode::from(2);
    }
    let baseline_dir = Path::new(positional[0]);
    let current_dir = Path::new(positional[1]);

    let mut names: Vec<String> = match std::fs::read_dir(baseline_dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect(),
        Err(e) => {
            eprintln!("cannot list {}: {e}", baseline_dir.display());
            return ExitCode::FAILURE;
        }
    };
    names.sort();
    if names.is_empty() {
        eprintln!("no BENCH_*.json baselines in {}", baseline_dir.display());
        return ExitCode::FAILURE;
    }

    println!(
        "perf gate: {} baseline(s), default tolerance ±{:.0}% (baselines may override per metric)\n",
        names.len(),
        tolerance * 100.0
    );
    let mut regressions = 0;
    let mut offenders: Vec<String> = Vec::new();
    for name in &names {
        println!("{name}:");
        let base = match load_json(&baseline_dir.join(name)) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("  {e}");
                offenders.push(format!("{name}:<unreadable baseline>"));
                regressions += 1;
                continue;
            }
        };
        let current = match load_json(&current_dir.join(name)) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("  {e} (did the bench step run?)");
                offenders.push(format!("{name}:<missing current record>"));
                regressions += 1;
                continue;
            }
        };
        regressions += gate_file(name, &base, &current, tolerance, &mut offenders);
        println!();
    }

    if regressions > 0 {
        eprintln!("perf gate FAILED: {regressions} regression(s) beyond the tolerance band:");
        for o in &offenders {
            eprintln!("  - {o}");
        }
        ExitCode::FAILURE
    } else {
        println!("perf gate passed");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const M_HI: Metric = higher("x");
    const M_LO: Metric = lower("x", 0.0);
    const M_LO_FLOOR: Metric = lower("x", 0.05);

    #[test]
    fn within_band_passes_both_directions() {
        assert_eq!(judge(&M_HI, 100.0, 90.0, 0.2), Verdict::Ok);
        assert_eq!(judge(&M_HI, 100.0, 110.0, 0.2), Verdict::Ok);
        assert_eq!(judge(&M_LO, 100.0, 110.0, 0.2), Verdict::Ok);
    }

    #[test]
    fn regressions_fail_in_the_worse_direction_only() {
        assert_eq!(judge(&M_HI, 100.0, 70.0, 0.2), Verdict::Regressed);
        assert_eq!(judge(&M_HI, 100.0, 130.0, 0.2), Verdict::Improved);
        assert_eq!(judge(&M_LO, 100.0, 130.0, 0.2), Verdict::Regressed);
        assert_eq!(judge(&M_LO, 100.0, 70.0, 0.2), Verdict::Improved);
    }

    #[test]
    fn absolute_floor_shields_near_zero_baselines() {
        // A 0.01 -> 0.04 bubble-ratio change is +300% relative but within
        // the 0.05 absolute floor.
        assert_eq!(judge(&M_LO_FLOOR, 0.01, 0.04, 0.2), Verdict::Ok);
        assert_eq!(judge(&M_LO_FLOOR, 0.01, 0.10, 0.2), Verdict::Regressed);
    }

    fn gate(name: &str, base: &Json, cur: &Json, tol: f64) -> (usize, Vec<String>) {
        let mut offenders = Vec::new();
        let n = gate_file(name, base, cur, tol, &mut offenders);
        (n, offenders)
    }

    #[test]
    fn sink_benches_pick_the_sink_metric_set() {
        let base =
            Json::parse(r#"{"summary": {"walks_delivered": 100, "sink_peak_resident": 10}}"#)
                .unwrap();
        // A halved delivery count regresses; a residency jump past both
        // the band and the absolute floor regresses too.
        let bad = Json::parse(r#"{"summary": {"walks_delivered": 50, "sink_peak_resident": 40}}"#)
            .unwrap();
        let (n, offenders) = gate("BENCH_sinks.json", &base, &bad, 0.2);
        assert_eq!(n, 2);
        assert_eq!(
            offenders,
            vec![
                "BENCH_sinks.json:summary.walks_delivered",
                "BENCH_sinks.json:summary.sink_peak_resident"
            ],
            "failures name the offending metrics"
        );
        assert_eq!(gate("BENCH_sinks.json", &base, &base, 0.2).0, 0);
    }

    #[test]
    fn routing_benches_pick_the_routing_metric_set() {
        let base = Json::parse(
            r#"{"summary": {"p99_adaptive": 100, "migrations_adaptive": 500, "routed_accel_adaptive": 8000}}"#,
        )
        .unwrap();
        let bad = Json::parse(
            r#"{"summary": {"p99_adaptive": 160, "migrations_adaptive": 500, "routed_accel_adaptive": 8000}}"#,
        )
        .unwrap();
        let (n, offenders) = gate("BENCH_routing.json", &base, &bad, 0.2);
        assert_eq!(n, 1);
        assert_eq!(offenders, vec!["BENCH_routing.json:summary.p99_adaptive"]);
        assert_eq!(gate("BENCH_routing.json", &base, &base, 0.2).0, 0);
    }

    #[test]
    fn sampling_benches_pick_the_sampling_metric_set() {
        // The bench emits its own gate block: wide bands on the
        // wall-clock speedup ratios, tight bands on the deterministic
        // sampler counters.
        let base = Json::parse(
            r#"{"gate": {"summary": {"node2vec_speedup_skewed": 0.50, "cache_hits": 0.05,
                                     "total_steps": 0.0}},
                "summary": {"node2vec_speedup_skewed": 2.6, "cache_hits": 4500,
                            "total_steps": 160000}}"#,
        )
        .unwrap();
        // Speedup halved (outside even the 50% band), hit count drifted
        // past the 5% band, and the deterministic step count changed at
        // all: three regressions.
        let bad = Json::parse(
            r#"{"summary": {"node2vec_speedup_skewed": 1.1, "cache_hits": 4000,
                            "total_steps": 159000}}"#,
        )
        .unwrap();
        let (n, offenders) = gate("BENCH_sampling.json", &base, &bad, 0.2);
        assert_eq!(n, 3);
        assert_eq!(
            offenders,
            vec![
                "BENCH_sampling.json:summary.node2vec_speedup_skewed",
                "BENCH_sampling.json:summary.cache_hits",
                "BENCH_sampling.json:summary.total_steps",
            ]
        );
        assert_eq!(gate("BENCH_sampling.json", &base, &base, 0.2).0, 0);
    }

    #[test]
    fn qps_benches_gate_determinism_but_never_the_wall_clock() {
        // The bench emits ±0% bands on its counters. A 10x wall-clock
        // swing passes untouched; a checksum mismatch (1 -> 0: some run
        // of the stream completed different walks) or any drift in the
        // deterministic counters fails.
        let base = Json::parse(
            r#"{"gate": {"summary": {"completed": 0.0, "steps": 0.0, "checksum_match": 0.0}},
                "summary": {"completed": 4096, "steps": 240000, "checksum_match": 1,
                            "qps_wall": 500000.0}}"#,
        )
        .unwrap();
        let slower_but_same_walks = Json::parse(
            r#"{"summary": {"completed": 4096, "steps": 240000, "checksum_match": 1,
                            "qps_wall": 50000.0}}"#,
        )
        .unwrap();
        assert_eq!(
            gate("BENCH_qps.json", &base, &slower_but_same_walks, 0.2).0,
            0
        );
        let diverged = Json::parse(
            r#"{"summary": {"completed": 4096, "steps": 239000, "checksum_match": 0,
                            "qps_wall": 500000.0}}"#,
        )
        .unwrap();
        let (n, offenders) = gate("BENCH_qps.json", &base, &diverged, 0.2);
        assert_eq!(n, 2);
        assert_eq!(
            offenders,
            vec![
                "BENCH_qps.json:summary.steps",
                "BENCH_qps.json:summary.checksum_match",
            ]
        );
    }

    #[test]
    fn gate_file_counts_missing_metrics() {
        let base = Json::parse(r#"{"summary": {"saturation_qpt": 1.0}}"#).unwrap();
        let cur = Json::parse(r#"{"summary": {}}"#).unwrap();
        let (n, offenders) = gate("BENCH_load_urw.json", &base, &cur, 0.2);
        assert_eq!(n, 1, "present baseline + missing current = regression");
        assert_eq!(
            offenders,
            vec!["BENCH_load_urw.json:summary.saturation_qpt"]
        );
        // A metric the current record gained since the baseline was
        // captured is reported ("ungated (new)") but never fails.
        let richer = Json::parse(
            r#"{"summary": {"saturation_qpt": 1.0, "low_load_mean_latency_ticks": 3.0}}"#,
        )
        .unwrap();
        let (n, _) = gate("BENCH_load_urw.json", &base, &richer, 0.2);
        assert_eq!(n, 0, "new metrics are ungated, not regressions");
    }

    #[test]
    fn baselines_gating_nothing_fail_instead_of_passing_silently() {
        let empty = Json::parse(r#"{"summary": {}}"#).unwrap();
        let cur = Json::parse(r#"{"summary": {"saturation_qpt": 1.0}}"#).unwrap();
        let (n, offenders) = gate("BENCH_load_urw.json", &empty, &cur, 0.2);
        assert_eq!(n, 1);
        assert_eq!(
            offenders,
            vec!["BENCH_load_urw.json:<no gated metrics in baseline>"]
        );
    }

    #[test]
    fn autoscale_benches_pick_the_autoscale_metric_set() {
        // The headline claims are pinned: the autoscaled arm stops
        // holding the SLO (1 -> 0) and the under-provisioned control
        // starts holding it (0 -> 1, the bench lost its contrast), and
        // the fleet forgets how to shrink (1 -> 0 scale-downs).
        let base = Json::parse(
            r#"{"gate": {"summary": {"slo_held_autoscaled": 0.0}},
                "summary": {"p99_autoscaled": 70, "fleet_ticks_autoscaled": 3695,
                            "scale_ups": 3, "scale_downs": 1,
                            "slo_held_autoscaled": 1, "slo_held_static_under": 0}}"#,
        )
        .unwrap();
        let bad = Json::parse(
            r#"{"summary": {"p99_autoscaled": 70, "fleet_ticks_autoscaled": 3695,
                            "scale_ups": 3, "scale_downs": 0,
                            "slo_held_autoscaled": 0, "slo_held_static_under": 1}}"#,
        )
        .unwrap();
        let (n, offenders) = gate("BENCH_autoscale.json", &base, &bad, 0.2);
        assert_eq!(n, 3);
        assert_eq!(
            offenders,
            vec![
                "BENCH_autoscale.json:summary.scale_downs",
                "BENCH_autoscale.json:summary.slo_held_autoscaled",
                "BENCH_autoscale.json:summary.slo_held_static_under",
            ]
        );
        assert_eq!(gate("BENCH_autoscale.json", &base, &base, 0.2).0, 0);
    }

    #[test]
    fn phase_blocks_are_gated_and_their_diff_names_the_phase() {
        let base = Json::parse(
            r#"{"summary": {"walks_delivered": 100},
                "phases": {"count": 100, "batch_wait_sum": 100, "batch_wait_p99": 2,
                           "backend_sum": 300, "backend_p99": 5,
                           "sink_wait_sum": 0, "sink_wait_p99": 0,
                           "total_sum": 400, "total_p99": 8, "total_max": 10}}"#,
        )
        .unwrap();
        // Injected regression: the same spans now spend 8 extra ticks
        // each waiting for the sink — past the 64-tick absolute floor
        // and the relative band on both the phase and the total.
        let cur = Json::parse(
            r#"{"summary": {"walks_delivered": 100},
                "phases": {"count": 100, "batch_wait_sum": 100, "batch_wait_p99": 2,
                           "backend_sum": 300, "backend_p99": 5,
                           "sink_wait_sum": 800, "sink_wait_p99": 12,
                           "total_sum": 1200, "total_p99": 20, "total_max": 24}}"#,
        )
        .unwrap();
        let (_, offenders) = gate("BENCH_sinks.json", &base, &cur, 0.2);
        assert!(offenders.contains(&"BENCH_sinks.json:phases.sink_wait_sum".to_string()));
        assert!(offenders.contains(&"BENCH_sinks.json:phases.total_sum".to_string()));
        // The attribution the gate prints on failure names the phase and
        // decomposes the delta additively.
        let diff = TraceDiff::from_summaries(
            phase_summary_of(&base).unwrap(),
            phase_summary_of(&cur).unwrap(),
        );
        assert_eq!(diff.top_regressed_phase(), Some("sink-wait"));
        assert!(diff.verdict().contains("sink-wait"), "{}", diff.verdict());
        let mean_delta: f64 = diff.phase_mean_deltas().iter().sum();
        assert!((mean_delta - 8.0).abs() < 1e-9, "additive: {mean_delta}");
        // Identical records stay clean.
        assert_eq!(gate("BENCH_sinks.json", &base, &base, 0.2).0, 0);
        // Records without a phases block skip the phase gates silently.
        let bare = Json::parse(r#"{"summary": {"walks_delivered": 100}}"#).unwrap();
        assert_eq!(gate("BENCH_sinks.json", &bare, &bare, 0.2).0, 0);
        assert!(phase_summary_of(&bare).is_none());
    }

    #[test]
    fn baseline_gate_block_overrides_the_default_band() {
        // 1.0 -> 0.84 saturation is -16%: regressed under the metric's
        // own 10% band even though the CLI default of 20% would pass it.
        let base = Json::parse(
            r#"{"gate": {"summary": {"saturation_qpt": 0.10}},
                "summary": {"saturation_qpt": 1.0}}"#,
        )
        .unwrap();
        let cur = Json::parse(r#"{"summary": {"saturation_qpt": 0.84}}"#).unwrap();
        let (n, offenders) = gate("BENCH_load_urw.json", &base, &cur, 0.2);
        assert_eq!(n, 1, "tight per-metric band must fire");
        assert_eq!(
            offenders,
            vec!["BENCH_load_urw.json:summary.saturation_qpt"]
        );
        // The same drift with a loose 30% override passes.
        let loose = Json::parse(
            r#"{"gate": {"summary": {"saturation_qpt": 0.30}},
                "summary": {"saturation_qpt": 1.0}}"#,
        )
        .unwrap();
        assert_eq!(gate("BENCH_load_urw.json", &loose, &cur, 0.2).0, 0);
        // Metrics without an override keep the CLI default.
        let m = &LOAD_METRICS[0];
        assert_eq!(tolerance_for(&base, m, 0.2), 0.10);
        assert_eq!(
            tolerance_for(&Json::parse(r#"{"summary": {}}"#).unwrap(), m, 0.2),
            0.2
        );
    }
}
