//! `ridgebench` — one wall-clock benchmark for the RidgeWalker stack.
//!
//! ```text
//! ridgebench --workload <ppr-serve|node2vec-corpus|accel-urw> --seed <n>
//!            --seconds <s> --trace <0|1>
//! ```
//!
//! It calls only the stack's public API, builds `WalkService` directly
//! and hands it to `Router::new` (no driver-selection types), and runs on
//! one thread. An untraced run (`--trace 0`) prints the end-to-end
//! metrics; a traced run (`--trace 1`) prints the per-layer metrics and
//! writes its spans to `traces/` in this package's directory. The last
//! line of standard output is the JSON result. See `README.md` for the
//! workloads and the layer → metric map.

mod accel;
mod calib;
mod check;
mod report;
mod serve;
mod trace;

use std::process::ExitCode;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 11;

const USAGE: &str = "usage: ridgebench --workload <ppr-serve|node2vec-corpus|accel-urw> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

const WORKLOADS: [&str; 3] = ["ppr-serve", "node2vec-corpus", "accel-urw"];

/// Checked command-line arguments.
pub struct Args {
    workload: &'static str,
    /// Seed every query set and tenant assignment derives from.
    pub seed: u64,
    /// Seconds of measurement per arm.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        *WORKLOADS
                            .iter()
                            .find(|&&w| w == value)
                            .ok_or(format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
                "--seconds" => {
                    let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                    if !(1..=600).contains(&s) {
                        return Err(format!("seconds {s} out of 1..=600"));
                    }
                    seconds = Some(s as f64);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad trace flag {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("ridgebench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    trace::set_enabled(args.trace);
    let outcome = match args.workload {
        "ppr-serve" => serve::Serve::ppr_serve().run(&args),
        "node2vec-corpus" => serve::Serve::node2vec_corpus().run(&args),
        _ => accel::run(&args),
    };
    trace::set_enabled(false);
    let header = format!(
        "ridgebench workload={} seed={} seconds={} trace={} nproc={nproc}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if args.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
        let file = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        let meta = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"nproc\": {nproc}}}",
            args.workload, args.seed, args.seconds
        );
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&file, trace::to_jsonl(&meta)));
        if let Err(e) = written {
            eprintln!("ridgebench: cannot write {}: {e}", file.display());
            return ExitCode::FAILURE;
        }
    }
    outcome.print(&header, args.trace);
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
