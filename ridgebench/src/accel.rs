//! The `accel-urw` workload: the paper's own measurement. The default
//! accelerator (U55C, zero-bubble, asynchronous) runs one fixed batch of
//! URW-80 queries on the AsSkitter stand-in from empty pipelines, once
//! per episode. All wall time is in the cycle model, none in the service.

use crate::calib;
use crate::check::{valid_path, walk_hash};
use crate::report::{median, peak_rss_mib, ratio, Outcome};
use crate::serve::kernel_rung;
use crate::trace;
use crate::{Args, SETUP_REPEATS};
use grw_algo::{PreparedGraph, QuerySet, WalkQuery, WalkSpec};
use grw_graph::generators::{Dataset, ScaleFactor};
use grw_graph::CsrGraph;
use ridgewalker::{Accelerator, AcceleratorConfig, RunReport};
use std::sync::Arc;
use std::time::Instant;

/// Queries in the batch every episode simulates.
const BATCH: usize = 16_384;
/// Walk length cap (the paper's URW-80).
const MAX_LEN: u32 = 80;
/// Episodes every run completes, however short `--seconds` is.
const MIN_EPISODES: usize = 3;

/// The simulated facts of one run; every episode must agree.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Facts {
    cycles: u64,
    steps: u64,
    digest: u64,
    random_txns: u64,
    msteps: f64,
    bubble_ratio: f64,
    pipeline_utilization: f64,
    bandwidth_utilization: f64,
    scanned_words_per_step: f64,
    rejection_trials_per_sample: f64,
    cache_hit_ratio: f64,
}

/// Checks one report against its queries; returns the failed count.
fn check(graph: &CsrGraph, queries: &[WalkQuery], report: &RunReport) -> u64 {
    let mut failed = 0;
    if report.paths.len() != queries.len() {
        failed += queries.len().abs_diff(report.paths.len()) as u64;
    }
    for (q, p) in queries.iter().zip(&report.paths) {
        let steps = p.vertices.len() as u32 - 1;
        // A URW walk stops early only at a vertex with no way out.
        let stopped_right = steps == MAX_LEN || graph.degree(p.last()) == 0;
        if p.query != q.id || !valid_path(graph, q.start, MAX_LEN, &p.vertices) || !stopped_right {
            failed += 1;
        }
    }
    let path_steps: u64 = report.paths.iter().map(|p| p.steps()).sum();
    if report.steps != path_steps || report.terminations.total() != queries.len() as u64 {
        failed += 1;
    }
    failed
}

fn facts(report: &RunReport) -> Facts {
    Facts {
        cycles: report.cycles,
        steps: report.steps,
        digest: report.paths.iter().fold(0u64, |d, p| {
            d.wrapping_add(walk_hash(0, p.query, &p.vertices))
        }),
        random_txns: report.random_txns,
        msteps: report.msteps_per_sec,
        bubble_ratio: report.bubble_ratio,
        pipeline_utilization: report.pipeline_utilization,
        bandwidth_utilization: report.bandwidth_utilization,
        scanned_words_per_step: ratio(report.sampling.scanned_words as f64, report.steps as f64),
        rejection_trials_per_sample: ratio(
            report.sampling.rejection_trials as f64,
            report.sampling.samples as f64,
        ),
        cache_hit_ratio: report.sampling.cache_hit_ratio(),
    }
}

/// Runs the workload as `args` asks and reports its metrics.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let spec = WalkSpec::urw(MAX_LEN);
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous set-up first: at most one prepared graph is
        // live, so `peak_rss_mib` sees the run's own footprint.
        drop(prepared.take());
        let started = Instant::now();
        let graph = trace::span("graph.generate", || {
            Dataset::AsSkitter.generate(ScaleFactor::Small)
        });
        let generate_s = started.elapsed().as_secs_f64();
        let t = Instant::now();
        let p = trace::span("algo.prepare", || {
            PreparedGraph::new(graph, &spec).expect("the stand-in graph suits URW")
        });
        let prepare_s = t.elapsed().as_secs_f64();
        let accel = trace::span("fleet.build", || Accelerator::new(AcceleratorConfig::new()));
        let total_s = started.elapsed().as_secs_f64();
        let scale = calib::scale();
        setups.push((total_s * scale, generate_s * scale, prepare_s * scale));
        prepared = Some((Arc::new(p), accel));
    }
    let (prepared, accel) = prepared.expect("set up at least once");
    let pick = |f: fn(&(f64, f64, f64)) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let graph = prepared.graph();
    let queries = QuerySet::random(graph.vertex_count(), BATCH, args.seed ^ 0xACCE_1000);
    let queries = queries.queries();

    // A traced run alternates untraced and traced episodes within the
    // same measured time; the only span inside an episode is the
    // `Accelerator::run` call itself. Each episode keeps its wall time
    // and its time in reference seconds (see `calib`).
    let arms: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let mut rounds: Vec<Vec<(f64, f64, Facts)>> = Vec::new();
    let mut measured_s = 0.0;
    while rounds.len() < MIN_EPISODES || measured_s < args.seconds {
        let mut round = Vec::new();
        for &traced in arms {
            let previous = trace::set_enabled(traced);
            let t0 = Instant::now();
            let report = trace::span("core.run", || accel.run(&prepared, &spec, queries));
            let wall_s = t0.elapsed().as_secs_f64();
            trace::set_enabled(previous);
            let ref_s = wall_s * calib::scale();
            measured_s += wall_s;
            out.attempted += queries.len() as u64;
            out.failed += check(graph, queries, &report);
            round.push((wall_s, ref_s, facts(&report)));
        }
        rounds.push(round);
    }
    let first = rounds[0][0].2;
    if rounds.iter().flatten().any(|(_, _, f)| *f != first) {
        out.fail("simulated counts differ between episodes of one seed");
    }
    // Every query of a batch is delivered when its run returns, so each
    // episode's latency percentiles all equal its wall time.
    let episodes: Vec<f64> = rounds.iter().map(|r| r[0].1).collect();
    let episode_s = median(&episodes);
    out.note(format!(
        "{} episodes of {BATCH} queries; timings are medians over episodes in reference seconds",
        episodes.len()
    ));
    out.note(format!(
        "wall clock: {} s per episode, machine speed {} of the reference core (medians)",
        median(&rounds.iter().map(|r| r[0].0).collect::<Vec<_>>()),
        median(&rounds.iter().map(|r| r[0].1 / r[0].0).collect::<Vec<_>>()),
    ));

    if !args.trace {
        out.set("throughput_qps", BATCH as f64 / episode_s);
        out.set("latency_p50_us", episode_s * 1e6);
        out.set("latency_p99_us", episode_s * 1e6);
        out.note(format!(
            "sim_msteps {} MStep/s (simulated time, exact)",
            first.msteps
        ));
        out.set("msteps", first.msteps);
        out.set("setup_s", pick(|s| s.0));
        out.set("peak_rss_mib", peak_rss_mib());
        return out;
    }

    out.set("graph.generate_s", pick(|s| s.1));
    out.set("algo.prepare_s", pick(|s| s.2));
    out.set(
        "algo.kernel_ns_per_step",
        kernel_rung(&prepared, &spec, queries, args.seed, args.seconds / 6.0),
    );
    out.set("algo.steps", first.steps as f64);
    out.set("algo.scanned_words_per_step", first.scanned_words_per_step);
    out.set(
        "algo.rejection_trials_per_sample",
        first.rejection_trials_per_sample,
    );
    out.set("algo.cache_hit_ratio", first.cache_hit_ratio);
    out.set(
        "core.host_ns_per_cycle",
        episode_s * 1e9 / first.cycles as f64,
    );
    out.set("core.sim_cycles", first.cycles as f64);
    out.set("core.steps", first.steps as f64);
    out.set("core.bubble_ratio", first.bubble_ratio);
    out.set("core.pipeline_utilization", first.pipeline_utilization);
    out.set("core.bandwidth_utilization", first.bandwidth_utilization);
    out.set(
        "core.txns_per_step",
        ratio(first.random_txns as f64, first.steps as f64),
    );
    out.set(
        "trace.overhead_ratio",
        median(&rounds.iter().map(|r| r[0].1 / r[1].1).collect::<Vec<_>>()),
    );
    out
}
