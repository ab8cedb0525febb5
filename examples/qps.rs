//! Wall-clock QPS of the serving runtime.
//!
//! Replays one open-loop arrival stream against a CPU shard fleet behind
//! one `WalkService` and reports wall-clock QPS, submit→harvest latency
//! percentiles, the obs overhead, and the walk-multiset digest (which
//! every run of the stream — obs on or off — must reproduce). Writes
//! `BENCH_qps.json`; CI gates only the deterministic counters and the
//! obs-overhead ceiling, never the wall-clock numbers.
//!
//! ```text
//! cargo run --release --example qps               # figure scale
//! QPS_SMOKE=1 cargo run --release --example qps   # CI smoke
//! ```

use ridgewalker_suite::bench::qps::{run_qps_bench, QpsConfig};

fn main() {
    let smoke = std::env::var_os("QPS_SMOKE").is_some() || std::env::args().any(|a| a == "--smoke");
    let cfg = if smoke {
        QpsConfig::smoke()
    } else {
        QpsConfig::full()
    };

    println!(
        "serving QPS bench ({} mode): {} queries, walk_len {}, {} shards, {} arrival\n",
        if smoke { "smoke" } else { "full" },
        cfg.queries,
        cfg.walk_len,
        cfg.shards,
        cfg.arrival.name(),
    );

    let report = run_qps_bench(&cfg);
    let d = &report.service;
    println!(
        "  {:.0} walks/s wall ({:.3}s, {} ticks), latency p50 {}us p99 {}us max {}us",
        d.qps_wall, d.wall_seconds, d.ticks, d.p50_latency_us, d.p99_latency_us, d.max_latency_us,
    );
    println!(
        "  obs overhead {:.2}% | digest {} | {} walks | {} steps (identical in every run)\n",
        report.obs_overhead * 100.0,
        d.walk_digest,
        d.completed,
        d.steps
    );

    std::fs::write(report.file_name(), report.to_json()).expect("write bench json");
    println!("wrote {}", report.file_name());
}
