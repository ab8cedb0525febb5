//! Table III-style markdown comparison report over `BENCH_*.json`.
//!
//! Reads the bench records in a directory (normally the committed
//! baselines in `benchmarks/baselines/`) and renders one markdown
//! document of comparison tables — the serving-tier analogue of the
//! paper's cross-platform summary table:
//!
//! ```text
//! report <bench_dir> [output.md]
//! ```
//!
//! With no output path the document goes to stdout. The committed copy
//! lives at `benchmarks/TABLE.md`:
//!
//! ```text
//! cargo run --release -p grw_bench --bin report -- benchmarks/baselines benchmarks/TABLE.md
//! ```
//!
//! Wall-clock columns (QPS, speedups measured in seconds) are the
//! numbers of whatever machine produced the records — context, not
//! CI-gated claims; the deterministic counters next to them are the
//! gated ones.

use grw_bench::{Json, Table};
use std::path::Path;
use std::process::ExitCode;

fn load(dir: &Path, name: &str) -> Option<Json> {
    let text = std::fs::read_to_string(dir.join(name)).ok()?;
    match Json::parse(&text) {
        Ok(doc) => Some(doc),
        Err(e) => {
            eprintln!("warning: cannot parse {name}: {e} (section skipped)");
            None
        }
    }
}

fn num(doc: &Json, path: &str) -> Option<f64> {
    doc.get(path).and_then(Json::as_f64)
}

/// Formats a looked-up number with `decimals` places, `-` when absent.
fn cell(doc: &Json, path: &str, decimals: usize) -> String {
    match num(doc, path) {
        Some(v) => format!("{v:.decimals$}"),
        None => "-".to_string(),
    }
}

fn section(out: &mut String, title: &str, body: &str) {
    out.push_str("## ");
    out.push_str(title);
    out.push_str("\n\n");
    out.push_str(body);
    out.push('\n');
}

/// Batch vs incremental accelerator shard modes (`BENCH_serving.json`).
fn serving(doc: &Json) -> String {
    let mut t = Table::new(vec![
        "shard mode",
        "walks",
        "steps",
        "MStep/s (simulated)",
        "simulated cycles",
        "bubble ratio",
        "p99 batch latency (ticks)",
    ]);
    for (label, path) in [("batch", "batch"), ("incremental", "incremental")] {
        t.row(vec![
            label.to_string(),
            cell(doc, &format!("{path}.completed"), 0),
            cell(doc, &format!("{path}.steps"), 0),
            cell(doc, &format!("{path}.msteps_simulated"), 1),
            cell(doc, &format!("{path}.simulated_cycles"), 0),
            cell(doc, &format!("{path}.bubble_ratio"), 3),
            cell(doc, &format!("{path}.p99_batch_latency_ticks"), 0),
        ]);
    }
    let mut body = t.markdown();
    if let Some(imp) = num(doc, "bubble_improvement") {
        body.push_str(&format!(
            "\nIncremental shards cut the serving-level bubble ratio {imp:.1}x.\n"
        ));
    }
    body
}

/// One row per workload from the `BENCH_load_<slug>.json` sweeps.
fn loads(dir: &Path) -> Option<String> {
    let mut t = Table::new(vec![
        "workload",
        "saturation (q/tick)",
        "low-rho mean latency (ticks)",
        "predicted M/M/n (ticks)",
        "model error",
        "high-rho mean latency (ticks)",
    ]);
    for slug in ["urw", "ppr", "deepwalk", "node2vec"] {
        let Some(doc) = load(dir, &format!("BENCH_load_{slug}.json")) else {
            continue;
        };
        let name = doc
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or(slug)
            .to_string();
        t.row(vec![
            name,
            cell(&doc, "summary.saturation_qpt", 3),
            cell(&doc, "summary.low_load_mean_latency_ticks", 1),
            cell(&doc, "summary.low_load_predicted_latency_ticks", 1),
            cell(&doc, "summary.low_load_model_error", 4),
            cell(&doc, "summary.high_load_mean_latency_ticks", 1),
        ]);
    }
    (!t.is_empty()).then(|| t.markdown())
}

/// Placement policies on the mixed fleet (`BENCH_routing.json`).
fn routing(doc: &Json) -> String {
    let mut t = Table::new(vec!["policy", "worst-case p99 (ticks)", "migrations"]);
    for (label, p99, migrations) in [
        ("static-hash", "summary.p99_static", None),
        (
            "least-loaded",
            "summary.p99_least_loaded",
            Some("summary.migrations_least_loaded"),
        ),
        (
            "adaptive",
            "summary.p99_adaptive",
            Some("summary.migrations_adaptive"),
        ),
    ] {
        t.row(vec![
            label.to_string(),
            cell(doc, p99, 0),
            migrations.map_or("-".to_string(), |m| cell(doc, m, 0)),
        ]);
    }
    let mut body = t.markdown();
    if let Some(imp) = num(doc, "summary.p99_improvement") {
        body.push_str(&format!(
            "\nAdaptive placement improves worst-case p99 latency {imp:.1}x over static hashing.\n"
        ));
    }
    body
}

/// Legacy vs runtime-adaptive sampler kernels (`BENCH_sampling.json`).
fn sampling(doc: &Json) -> String {
    let mut t = Table::new(vec!["metric", "value"]);
    for (label, path, decimals) in [
        (
            "Node2Vec speedup on skewed graphs",
            "summary.node2vec_speedup_skewed",
            2,
        ),
        ("worst-cell speedup", "summary.min_speedup", 2),
        ("second-order cache hit ratio", "summary.cache_hit_ratio", 3),
        ("cache hits", "summary.cache_hits", 0),
        ("alias tables built", "summary.alias_builds", 0),
        ("legacy words scanned", "summary.legacy_scanned_words", 0),
        ("total steps (both arms)", "summary.total_steps", 0),
    ] {
        t.row(vec![label.to_string(), cell(doc, path, decimals)]);
    }
    t.markdown()
}

/// Bounded sink delivery vs drain-to-`Vec` (`BENCH_sinks.json`).
fn sinks(doc: &Json) -> String {
    let mut t = Table::new(vec![
        "consumption path",
        "walks",
        "ticks",
        "peak resident paths",
        "final resident paths",
    ]);
    for (label, path) in [("drain-to-Vec", "legacy"), ("CorpusSink", "sink")] {
        t.row(vec![
            label.to_string(),
            cell(doc, &format!("{path}.completed"), 0),
            cell(doc, &format!("{path}.ticks"), 0),
            cell(doc, &format!("{path}.peak_resident_paths"), 0),
            cell(doc, &format!("{path}.final_resident_paths"), 0),
        ]);
    }
    let mut body = t.markdown();
    if let Some(pairs) = num(doc, "corpus.pairs_emitted") {
        body.push_str(&format!(
            "\nThe sink run streamed {pairs:.0} skip-gram pairs while staying within its spill bound.\n"
        ));
    }
    body
}

/// Wall-clock QPS of the serving runtime (`BENCH_qps.json`).
fn qps(doc: &Json) -> String {
    let mut t = Table::new(vec![
        "walks",
        "steps",
        "wall QPS",
        "p50 latency (us)",
        "p99 latency (us)",
        "obs overhead",
    ]);
    t.row(vec![
        cell(doc, "service.completed", 0),
        cell(doc, "service.steps", 0),
        cell(doc, "service.qps_wall", 0),
        cell(doc, "service.p50_latency_us", 0),
        cell(doc, "service.p99_latency_us", 0),
        cell(doc, "summary.obs_overhead", 4),
    ]);
    let mut body = t.markdown();
    let digests_match = num(doc, "summary.checksum_match") == Some(1.0);
    body.push_str(&format!(
        "\nWalk multisets {} across every run, obs on and off (digest {}). \
         Wall-clock columns are machine-dependent and not CI-gated.\n",
        if digests_match { "match" } else { "DIVERGE" },
        cell(doc, "summary.walk_digest", 0),
    ));
    body
}

/// Elastic fleet vs static provisioning (`BENCH_autoscale.json`).
fn autoscale(doc: &Json) -> String {
    let held = |path: &str| match num(doc, path) {
        Some(v) if v >= 1.0 => "yes".to_string(),
        Some(_) => "NO".to_string(),
        None => "-".to_string(),
    };
    let mut t = Table::new(vec![
        "arm",
        "p99 latency (ticks)",
        "fleet-ticks",
        "holds SLO",
    ]);
    t.row(vec![
        "autoscaled".to_string(),
        cell(doc, "summary.p99_autoscaled", 0),
        cell(doc, "summary.fleet_ticks_autoscaled", 0),
        held("summary.slo_held_autoscaled"),
    ]);
    t.row(vec![
        "static-over".to_string(),
        cell(doc, "summary.p99_static_over", 0),
        cell(doc, "summary.fleet_ticks_static_over", 0),
        "-".to_string(),
    ]);
    t.row(vec![
        "static-under".to_string(),
        cell(doc, "summary.p99_static_under", 0),
        cell(doc, "summary.fleet_ticks_static_under", 0),
        held("summary.slo_held_static_under"),
    ]);
    let mut body = t.markdown();
    if let (Some(cost), Some(target)) = (
        num(doc, "summary.cost_vs_over"),
        num(doc, "calibration.slo_target_ticks"),
    ) {
        if cost > 0.0 {
            body.push_str(&format!(
                "\nThe SLO-driven policy held the p99 target of {target:.1} ticks at \
                 {:.2}x fewer fleet-ticks than static over-provisioning ({} scale-ups, \
                 {} scale-downs, peak {} shards).\n",
                1.0 / cost,
                cell(doc, "summary.scale_ups", 0),
                cell(doc, "summary.scale_downs", 0),
                cell(doc, "summary.peak_shards_autoscaled", 0),
            ));
        }
    }
    body
}

fn render(dir: &Path) -> Option<String> {
    let mut out = String::from(
        "# Benchmark comparison tables\n\n\
         Generated from the committed `BENCH_*.json` baselines by:\n\n\
         ```text\n\
         cargo run --release -p grw_bench --bin report -- benchmarks/baselines benchmarks/TABLE.md\n\
         ```\n\n\
         Regenerate after refreshing any baseline. Deterministic counters\n\
         (walks, steps, ticks, digests) are CI-gated by `perf_gate`;\n\
         wall-clock columns are whatever machine produced the records and\n\
         are never gated.\n\n",
    );
    let mut sections = 0;
    if let Some(doc) = load(dir, "BENCH_serving.json") {
        section(
            &mut out,
            "Serving: batch vs incremental accelerator shards",
            &serving(&doc),
        );
        sections += 1;
    }
    if let Some(body) = loads(dir) {
        section(&mut out, "Latency vs offered load", &body);
        sections += 1;
    }
    if let Some(doc) = load(dir, "BENCH_routing.json") {
        section(&mut out, "Tenant placement policies", &routing(&doc));
        sections += 1;
    }
    if let Some(doc) = load(dir, "BENCH_sampling.json") {
        section(
            &mut out,
            "Runtime-adaptive sampling kernels",
            &sampling(&doc),
        );
        sections += 1;
    }
    if let Some(doc) = load(dir, "BENCH_sinks.json") {
        section(&mut out, "Bounded sink delivery", &sinks(&doc));
        sections += 1;
    }
    if let Some(doc) = load(dir, "BENCH_qps.json") {
        section(&mut out, "Serving QPS (wall clock)", &qps(&doc));
        sections += 1;
    }
    if let Some(doc) = load(dir, "BENCH_autoscale.json") {
        section(
            &mut out,
            "Elastic autoscaling vs static provisioning",
            &autoscale(&doc),
        );
        sections += 1;
    }
    (sections > 0).then_some(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.len() < 2 || args.len() > 3 {
        eprintln!("usage: report <bench_dir> [output.md]");
        return ExitCode::from(2);
    }
    let dir = Path::new(&args[1]);
    let Some(doc) = render(dir) else {
        eprintln!("no readable BENCH_*.json records in {}", dir.display());
        return ExitCode::FAILURE;
    };
    match args.get(2) {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &doc) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {path}");
        }
        None => print!("{doc}"),
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qps_section_renders_the_service_run() {
        let doc = Json::parse(
            r#"{"summary": {"checksum_match": 1, "walk_digest": 123, "obs_overhead": 0.0125},
                "service": {"completed": 100, "steps": 600, "qps_wall": 1000.0,
                            "p50_latency_us": 10, "p99_latency_us": 50}}"#,
        )
        .unwrap();
        let body = qps(&doc);
        assert!(body.contains("| 100 | 600 | 1000 | 10 | 50 | 0.0125 |"));
        assert!(body.contains("multisets match across every run"));
        assert!(body.contains("digest 123"));
        let diverged = Json::parse(r#"{"summary": {"checksum_match": 0}}"#).unwrap();
        assert!(qps(&diverged).contains("DIVERGE"));
    }

    #[test]
    fn autoscale_section_renders_all_three_arms() {
        let doc = Json::parse(
            r#"{"calibration": {"slo_target_ticks": 78.2},
                "summary": {"p99_autoscaled": 70, "p99_static_over": 56,
                            "p99_static_under": 497,
                            "fleet_ticks_autoscaled": 3695,
                            "fleet_ticks_static_over": 4552,
                            "fleet_ticks_static_under": 1482,
                            "cost_vs_over": 0.8118,
                            "peak_shards_autoscaled": 4,
                            "scale_ups": 3, "scale_downs": 1,
                            "slo_held_autoscaled": 1, "slo_held_static_under": 0}}"#,
        )
        .unwrap();
        let body = autoscale(&doc);
        assert!(body.contains("| autoscaled | 70 | 3695 | yes |"));
        assert!(body.contains("| static-over | 56 | 4552 | - |"));
        assert!(body.contains("| static-under | 497 | 1482 | NO |"));
        assert!(body.contains("1.23x fewer fleet-ticks"));
        assert!(body.contains("3 scale-ups, 1 scale-downs, peak 4 shards"));
    }

    #[test]
    fn missing_fields_render_as_dashes_not_panics() {
        let doc = Json::parse(r#"{"summary": {}}"#).unwrap();
        let body = serving(&doc);
        assert!(body.contains("| batch | - | - | - | - | - | - |"));
        let body = routing(&doc);
        assert!(body.contains("| static-hash | - | - |"));
    }
}
