//! The two serving workloads: `ppr-serve` and `node2vec-corpus`.
//!
//! Both drive the same stack — a `Router` with `AdaptivePolicy::default()`
//! over a 4-shard `WalkService` of `ReferenceBackend`s, obs attached — and
//! differ in how queries arrive and where walks go. The run is a sequence
//! of *episodes*: each builds a fresh router and replays the identical
//! query stream through it, so every episode must produce the identical
//! exact counts (steps, digest, ticks, batches, migrations) — the
//! determinism check — and the timings are medians over episodes, each
//! in reference seconds (see `calib`).

use crate::calib;
use crate::check::Ledger;
use crate::report::{median, peak_rss_mib, ratio, Outcome};
use crate::trace::{self, TimedBackend, TimedSink};
use crate::{Args, SETUP_REPEATS};
use grw_algo::walkstats::cooccurrence_pairs;
use grw_algo::{
    Node2VecMethod, PreparedGraph, QuerySet, ReferenceBackend, WalkBackend, WalkPath, WalkQuery,
    WalkSpec,
};
use grw_graph::generators::{Dataset, ScaleFactor};
use grw_obs::Obs;
use grw_rng::SplitMix64;
use grw_route::{AdaptivePolicy, Router};
use grw_service::{
    percentile, CompletedWalk, DynWalkBackend, ServiceConfig, SinkAck, SinkReport, TenantId,
    WalkService, WalkSink,
};
use grw_sink::{CorpusSink, SkipGramPair};
use std::hint::black_box;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Backend shards behind the router.
const SHARDS: usize = 4;
/// Logical tenants (not threads: the benchmark is single-threaded).
const TENANTS: usize = 8;
/// Skip-gram pairs the corpus sink buffers before pushing back.
const CORPUS_CAPACITY: usize = 1 << 17;
/// Rounds every run completes, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// One serving workload's shape.
pub struct Serve {
    dataset: Dataset,
    weighted: bool,
    spec: WalkSpec,
    per_tenant: usize,
    /// Closed loop: queries each tenant keeps outstanding, resubmitting
    /// as walks come back. `None`: every remaining query is offered each
    /// tick, as fast as the service accepts them.
    window: Option<usize>,
    max_batch: usize,
    /// Skip-gram window of the corpus sink walks stream into via
    /// `tick_into`; `None` returns walks from `tick`.
    corpus_window: Option<usize>,
}

impl Serve {
    /// Closed-loop PPR serving: short walks, so service, router and obs
    /// bookkeeping dominate wall time.
    pub fn ppr_serve() -> Self {
        Self {
            dataset: Dataset::AsSkitter,
            weighted: false,
            spec: WalkSpec::Ppr {
                alpha: 0.15,
                max_len: 80,
            },
            per_tenant: 8192,
            window: Some(64),
            max_batch: 64,
            corpus_window: None,
        }
    }

    /// Offline Node2Vec corpus generation: long second-order walks, so
    /// the sampler and the corpus sink dominate wall time.
    pub fn node2vec_corpus() -> Self {
        Self {
            dataset: Dataset::LiveJournal,
            weighted: true,
            spec: WalkSpec::node2vec(80, Node2VecMethod::Reservoir),
            per_tenant: 256,
            window: None,
            max_batch: 256,
            corpus_window: Some(5),
        }
    }
}

/// How one episode runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    /// Obs attached, no spans: the end-to-end configuration.
    Plain,
    /// Obs attached, spans on, timed backend and sink wrappers.
    Traced,
    /// Obs disabled, no spans: the obs-cost side arm.
    NoObs,
}

/// Exact counts of one episode; every episode of a run must agree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    steps: u64,
    digest: u64,
    ticks: u64,
    batches: u64,
    deadline_flushes: u64,
    migrations: u64,
    offered: u64,
    refused: u64,
    pairs: u64,
    sink_refused: u64,
    scanned_words: u64,
    samples: u64,
    rejection_trials: u64,
    cache_hits: u64,
    alias_builds: u64,
}

struct Episode {
    wall_s: f64,
    /// Turns this episode's wall time into reference seconds.
    scale: f64,
    queries: u64,
    /// Percentiles of submit→delivery wall time over the episode's
    /// walks, in ns.
    p50_ns: u64,
    p99_ns: u64,
    counts: Counts,
    failed: u64,
    /// Journal events (kept + dropped) and drops; traced arm only.
    obs_events: (u64, u64),
}

/// Records the walks delivered through `tick_into` so the episode can
/// check them after its clock stops: ids in `got`, vertices appended to
/// one pre-sized arena (no allocation per walk). The copy runs outside
/// the timed sink, in a `bench.collect` span of its own, so it is not
/// counted as service or sink time.
struct Collect<S> {
    inner: S,
    /// Tenant, query id and arena range of every accepted walk.
    got: Vec<(TenantId, u64, Range<usize>)>,
    vertices: Vec<u32>,
}

impl<S: WalkSink> WalkSink for Collect<S> {
    fn accept(&mut self, walk: &CompletedWalk) -> SinkAck {
        let ack = self.inner.accept(walk);
        if ack == SinkAck::Accepted {
            trace::span("bench.collect", || {
                let from = self.vertices.len();
                self.vertices.extend_from_slice(&walk.path.vertices);
                let to = self.vertices.len();
                self.got.push((walk.tenant, walk.path.query, from..to));
            });
        }
        ack
    }

    fn flush(&mut self) {
        self.inner.flush();
    }

    fn report(&self) -> SinkReport {
        self.inner.report()
    }
}

type Corpus = CorpusSink<fn(&[SkipGramPair])>;

/// The corpus consumer: reads every pair it is handed, as a writer would.
fn consume_pairs(pairs: &[SkipGramPair]) {
    black_box(pairs.iter().fold(0u32, |acc, p| acc ^ p.center ^ p.context));
}

fn tenant(owner: usize) -> TenantId {
    TenantId(owner as u16 + 1)
}

/// Inverse of [`tenant`]; out of range for an unknown tenant.
fn owner(tenant: TenantId) -> usize {
    usize::from(tenant.0).wrapping_sub(1)
}

impl Serve {
    fn generate(&self) -> grw_graph::CsrGraph {
        if self.weighted {
            self.dataset.generate_weighted(ScaleFactor::Small)
        } else {
            self.dataset.generate(ScaleFactor::Small)
        }
    }

    /// Each tenant's query stream, derived from the seed alone.
    fn queries(&self, vertices: usize, seed: u64) -> Vec<Vec<WalkQuery>> {
        (0..TENANTS)
            .map(|t| {
                QuerySet::random(
                    vertices,
                    self.per_tenant,
                    SplitMix64::mix(seed ^ ((t as u64) << 32)),
                )
                .queries()
                .to_vec()
            })
            .collect()
    }

    fn build(
        &self,
        prepared: &Arc<PreparedGraph>,
        seed: u64,
        arm: Arm,
    ) -> (Router<AdaptivePolicy>, Obs) {
        let config = ServiceConfig::new(SHARDS)
            .max_batch(self.max_batch)
            .max_delay_ticks(1);
        let service = WalkService::new(config, |shard| -> DynWalkBackend {
            let backend = ReferenceBackend::new(
                prepared.clone(),
                self.spec.clone(),
                SplitMix64::mix(seed ^ 0xB4C3) ^ shard as u64,
            );
            if arm == Arm::Traced {
                Box::new(TimedBackend(backend))
            } else {
                Box::new(backend)
            }
        });
        let mut router = Router::new(service, AdaptivePolicy::default());
        let obs = if arm == Arm::NoObs {
            let obs = Obs::disabled();
            router.attach_obs(obs.clone());
            obs
        } else {
            router.attach_fresh_obs()
        };
        (router, obs)
    }

    /// Runs one episode: builds a fresh router, replays `queries`
    /// through it until every walk is back, then checks what came out.
    fn episode(
        &self,
        prepared: &Arc<PreparedGraph>,
        queries: &[Vec<WalkQuery>],
        seed: u64,
        arm: Arm,
    ) -> Episode {
        let (mut router, obs) = self.build(prepared, seed, arm);
        let total: usize = queries.iter().map(Vec::len).sum();
        let mut sink = self.corpus_window.map(|w| Collect {
            inner: TimedSink(Corpus::new(w, CORPUS_CAPACITY, consume_pairs)),
            got: Vec::with_capacity(total),
            vertices: Vec::with_capacity(total * (self.spec.max_len() as usize + 1)),
        });
        let mut next = [0usize; TENANTS];
        let mut want: Vec<usize> = queries
            .iter()
            .map(|q| self.window.unwrap_or(q.len()))
            .collect();
        let mut submitted_ns: Vec<Vec<u64>> = queries.iter().map(|q| vec![0; q.len()]).collect();
        let mut latencies = Vec::with_capacity(total);
        // Walks returned from `tick`; walks delivered into the sink are
        // recorded by `Collect` instead.
        let mut walks: Vec<CompletedWalk> = Vec::with_capacity(total);
        let mut seen = 0;
        // (tenant, query id) of the walks delivered by the latest tick.
        let mut fresh: Vec<(TenantId, u64)> = Vec::new();
        let (mut offered, mut refused, mut ticks) = (0u64, 0u64, 0u64);
        // A healthy episode needs a few ticks per query at most; past
        // this the service has stalled and the missing walks count as
        // failed.
        let tick_cap = 16 * total as u64 + 1024;

        let previous = trace::set_enabled(arm == Arm::Traced);
        let started = Instant::now();
        trace::span("episode", || {
            while seen < total && ticks < tick_cap {
                for owner in 0..TENANTS {
                    let end = (next[owner] + want[owner]).min(queries[owner].len());
                    if next[owner] == end {
                        continue;
                    }
                    let offer = &queries[owner][next[owner]..end];
                    let at = started.elapsed().as_nanos() as u64;
                    let taken = trace::span("route.submit", || router.submit(tenant(owner), offer));
                    submitted_ns[owner][next[owner]..next[owner] + taken].fill(at);
                    offered += offer.len() as u64;
                    refused += (offer.len() - taken) as u64;
                    next[owner] += taken;
                    if self.window.is_some() {
                        want[owner] -= taken;
                    }
                }
                fresh.clear();
                match sink.as_mut() {
                    None => {
                        walks.extend(trace::span("service.tick", || router.tick()));
                        let got = &walks[seen..];
                        fresh.extend(got.iter().map(|w| (w.tenant, w.path.query)));
                    }
                    Some(sink) => {
                        trace::span("service.tick", || router.tick_into(sink));
                        // The downstream consumer takes the tick's pairs.
                        sink.flush();
                        fresh.extend(sink.got[seen..].iter().map(|&(t, query, _)| (t, query)));
                    }
                }
                let at = started.elapsed().as_nanos() as u64;
                for &(t, query) in &fresh {
                    let owner = owner(t);
                    if let Some(&sent) = submitted_ns.get(owner).and_then(|s| s.get(query as usize))
                    {
                        latencies.push(at - sent);
                        if self.window.is_some() {
                            want[owner] += 1;
                        }
                    }
                }
                seen += fresh.len();
                ticks += 1;
            }
            // The export barrier the stack's own callers use: once, when
            // the stream is done, so the per-shard obs buffers grow with
            // the run as they do in service.
            trace::span("route.flush_obs", || router.flush_obs());
        });
        let wall_s = started.elapsed().as_secs_f64();
        trace::set_enabled(previous);
        let scale = calib::scale();

        // Checks and counts, off the clock.
        let graph = prepared.graph();
        let mut ledger = Ledger::new(graph, self.spec.max_len(), queries);
        let mut expected_pairs = 0;
        let mut check = |t: TenantId, query: u64, vertices: &[u32]| {
            if ledger.deliver(owner(t), query, vertices) {
                if let Some(window) = self.corpus_window {
                    let path = WalkPath {
                        query,
                        vertices: vertices.to_vec(),
                    };
                    expected_pairs += cooccurrence_pairs(&[path], window);
                }
            }
        };
        match &sink {
            None => walks
                .iter()
                .for_each(|w| check(w.tenant, w.path.query, &w.path.vertices)),
            Some(sink) => sink
                .got
                .iter()
                .for_each(|(t, query, r)| check(*t, *query, &sink.vertices[r.clone()])),
        }
        let stats = router.stats();
        let mut failed = ledger.bad + ledger.missing();
        if stats.steps != ledger.steps || stats.completed != total as u64 {
            failed += 1;
        }
        let (pairs, sink_refused) = match &sink {
            Some(s) => {
                let report = s.report();
                if report.emitted != expected_pairs || report.accepted != total as u64 {
                    failed += 1;
                }
                (report.emitted, stats.sink_backpressured)
            }
            None => (0, 0),
        };
        let obs_events = if arm == Arm::Traced {
            (obs.journal().len() as u64 + obs.dropped(), obs.dropped())
        } else {
            (0, 0)
        };
        let s = stats.sampling;
        Episode {
            wall_s,
            scale,
            queries: total as u64,
            p50_ns: percentile(&latencies, 50.0),
            p99_ns: percentile(&latencies, 99.0),
            counts: Counts {
                steps: ledger.steps,
                digest: ledger.digest,
                ticks,
                batches: stats.batches_flushed,
                deadline_flushes: stats.flushed_by_deadline,
                migrations: router.migrations(),
                offered,
                refused,
                pairs,
                sink_refused,
                scanned_words: s.scanned_words,
                samples: s.samples,
                rejection_trials: s.rejection_trials,
                cache_hits: s.cache_hits,
                alias_builds: s.alias_builds,
            },
            failed,
            obs_events,
        }
    }
}

/// Bare-kernel rung: every query of the stream through one
/// `ReferenceBackend`, no service around it; returns reference ns per
/// step.
fn kernel_ns_per_step(
    prepared: &Arc<PreparedGraph>,
    spec: &WalkSpec,
    queries: &[WalkQuery],
    seed: u64,
) -> f64 {
    let mut backend = ReferenceBackend::new(prepared.clone(), spec.clone(), seed)
        .queue_capacity(queries.len().max(1));
    let started = Instant::now();
    let taken = trace::span("kernel.submit", || backend.submit(queries));
    let paths = trace::span("kernel.drain", || backend.drain());
    let wall = started.elapsed().as_nanos() as f64 * calib::scale();
    assert_eq!(
        (taken, paths.len()),
        (queries.len(), queries.len()),
        "a bare backend with room for the whole stream completes all of it"
    );
    ratio(wall, paths.iter().map(|p| p.steps()).sum::<u64>() as f64)
}

/// Runs the bare-kernel rung at least `MIN_ROUNDS` times and for at
/// least `seconds`; returns the median ns per step.
pub fn kernel_rung(
    prepared: &Arc<PreparedGraph>,
    spec: &WalkSpec,
    queries: &[WalkQuery],
    seed: u64,
    seconds: f64,
) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds {
        samples.push(kernel_ns_per_step(prepared, spec, queries, seed));
    }
    median(&samples)
}

struct Setup {
    prepared: Arc<PreparedGraph>,
    generate_s: f64,
    prepare_s: f64,
    total_s: f64,
}

impl Serve {
    /// Graph generation, preparation and fleet construction, timed in
    /// reference seconds.
    fn set_up(&self, seed: u64) -> Setup {
        let started = Instant::now();
        let graph = trace::span("graph.generate", || self.generate());
        let generate_s = started.elapsed().as_secs_f64();
        let t = Instant::now();
        let prepared = trace::span("algo.prepare", || {
            PreparedGraph::new(graph, &self.spec).expect("the stand-in graph suits the walk")
        });
        let prepare_s = t.elapsed().as_secs_f64();
        let prepared = Arc::new(prepared);
        drop(trace::span("fleet.build", || {
            self.build(&prepared, seed, Arm::Plain)
        }));
        let total_s = started.elapsed().as_secs_f64();
        let scale = calib::scale();
        Setup {
            prepared,
            generate_s: generate_s * scale,
            prepare_s: prepare_s * scale,
            total_s: total_s * scale,
        }
    }

    /// Runs the workload as `args` asks and reports its metrics.
    pub fn run(&self, args: &Args) -> Outcome {
        let mut out = Outcome::default();
        // Only the timings of the repeated set-ups are kept: each
        // prepared graph is dropped before the next set-up starts, so at
        // most one is ever live and `peak_rss_mib` sees the run's own
        // footprint.
        let mut timings = Vec::with_capacity(SETUP_REPEATS);
        let mut prepared = None;
        for _ in 0..SETUP_REPEATS {
            drop(prepared.take());
            let s = self.set_up(args.seed);
            timings.push((s.total_s, s.generate_s, s.prepare_s));
            prepared = Some(s.prepared);
        }
        let prepared = prepared.expect("set up at least once");
        let pick =
            |f: fn(&(f64, f64, f64)) -> f64| median(&timings.iter().map(f).collect::<Vec<_>>());
        let (setup_s, generate_s, prepare_s) = (pick(|s| s.0), pick(|s| s.1), pick(|s| s.2));
        let queries = self.queries(prepared.graph().vertex_count(), args.seed);

        // Untraced runs measure the end-to-end configuration only; a
        // traced run interleaves it with the traced and obs-disabled
        // arms within the same measured time, so every ratio compares
        // neighbouring episodes. Only episode time counts toward
        // `--seconds`: set-up and checks come on top.
        let arms: &[Arm] = if args.trace {
            &[Arm::Plain, Arm::Traced, Arm::NoObs]
        } else {
            &[Arm::Plain]
        };
        let mut rounds: Vec<Vec<Episode>> = Vec::new();
        let mut measured_s = 0.0;
        while rounds.len() < MIN_ROUNDS || measured_s < args.seconds {
            let round: Vec<Episode> = arms
                .iter()
                .map(|&arm| self.episode(&prepared, &queries, args.seed, arm))
                .collect();
            measured_s += round.iter().map(|e| e.wall_s).sum::<f64>();
            rounds.push(round);
        }

        let first = rounds[0][0].counts;
        for (i, round) in rounds.iter().enumerate() {
            for e in round {
                out.attempted += e.queries;
                out.failed += e.failed;
                if e.counts != first {
                    out.fail(format!(
                        "round {i}: exact counts differ from round 0: {:?} vs {first:?}",
                        e.counts
                    ));
                }
            }
        }
        // Every timing is a median over episodes, each in reference
        // seconds: the calibration slice after an episode takes out the
        // machine's speed at that moment, and the median ignores the
        // episodes it could not fully correct.
        let plain: Vec<&Episode> = rounds.iter().map(|r| &r[0]).collect();
        let per =
            |f: &dyn Fn(&Episode) -> f64| median(&plain.iter().map(|e| f(e)).collect::<Vec<_>>());
        out.note(format!(
            "{} episodes of {} queries, {} latency samples; timings are medians over episodes \
             in reference seconds",
            plain.len(),
            plain[0].queries,
            plain[0].queries * plain.len() as u64,
        ));
        out.note(format!(
            "wall clock: {} queries/s, machine speed {} of the reference core (medians)",
            per(&|e| e.queries as f64 / e.wall_s),
            per(&|e| e.scale),
        ));

        if !args.trace {
            out.set(
                "throughput_qps",
                per(&|e| e.queries as f64 / (e.wall_s * e.scale)),
            );
            out.set("latency_p50_us", per(&|e| e.p50_ns as f64 * e.scale / 1e3));
            out.set("latency_p99_us", per(&|e| e.p99_ns as f64 * e.scale / 1e3));
            out.set(
                "msteps",
                per(&|e| e.counts.steps as f64 / (e.wall_s * e.scale) / 1e6),
            );
            out.set("setup_s", setup_s);
            out.set("peak_rss_mib", peak_rss_mib());
            return out;
        }

        let all: Vec<WalkQuery> = queries
            .iter()
            .flatten()
            .enumerate()
            .map(|(id, q)| WalkQuery {
                id: id as u64,
                start: q.start,
            })
            .collect();
        let kernel = kernel_rung(&prepared, &self.spec, &all, args.seed, args.seconds / 6.0);
        let traced: Vec<&Episode> = rounds.iter().map(|r| &r[1]).collect();
        let delivered = traced.iter().map(|e| e.queries).sum::<u64>() as f64;
        // Span times come from the traced episodes; one factor, their
        // median, turns them into reference nanoseconds.
        let k = median(&traced.iter().map(|e| e.scale).collect::<Vec<_>>());
        let c = first;
        out.set("graph.generate_s", generate_s);
        out.set("algo.prepare_s", prepare_s);
        out.set("algo.kernel_ns_per_step", kernel);
        let backend_ns = trace::agg("backend.poll").total_ns + trace::agg("backend.drain").total_ns;
        out.set(
            "algo.backend_poll_ns_per_step",
            ratio(
                backend_ns as f64 * k,
                trace::counter("backend.steps") as f64,
            ),
        );
        out.set(
            "algo.backend_submit_ns_per_query",
            ratio(
                trace::agg("backend.submit").total_ns as f64 * k,
                trace::counter("backend.taken") as f64,
            ),
        );
        out.set(
            "algo.empty_poll_ratio",
            ratio(
                trace::counter("backend.empty_polls") as f64,
                trace::counter("backend.polls") as f64,
            ),
        );
        out.set("algo.steps", c.steps as f64);
        out.set(
            "algo.scanned_words_per_step",
            ratio(c.scanned_words as f64, c.steps as f64),
        );
        out.set(
            "algo.rejection_trials_per_sample",
            ratio(c.rejection_trials as f64, c.samples as f64),
        );
        out.set(
            "algo.cache_hit_ratio",
            ratio(c.cache_hits as f64, (c.cache_hits + c.alias_builds) as f64),
        );
        out.set(
            "service.tick_self_ns_per_query",
            ratio(trace::agg("service.tick").self_ns as f64 * k, delivered),
        );
        out.set(
            "route.submit_ns_per_query",
            ratio(trace::agg("route.submit").total_ns as f64 * k, delivered),
        );
        out.set("service.ticks", c.ticks as f64);
        out.set("service.batches", c.batches as f64);
        out.set("route.migrations", c.migrations as f64);
        out.set("service.digest", (c.digest & 0xFFFF_FFFF) as f64);
        out.set(
            "service.mean_batch_size",
            ratio(plain[0].queries as f64, c.batches as f64),
        );
        out.set(
            "service.deadline_flush_ratio",
            ratio(c.deadline_flushes as f64, c.batches as f64),
        );
        out.set(
            "service.refused_ratio",
            ratio(c.refused as f64, c.offered as f64),
        );
        out.set(
            "sink.accept_ns_per_walk",
            ratio(
                trace::agg("sink.accept").total_ns as f64 * k,
                trace::counter("sink.accepted") as f64,
            ),
        );
        out.set("sink.pairs", c.pairs as f64);
        out.set(
            "sink.backpressure_ratio",
            ratio(
                c.sink_refused as f64,
                (c.sink_refused + plain[0].queries) as f64,
            ),
        );
        let flush = trace::agg("route.flush_obs");
        out.set(
            "obs.flush_ns",
            ratio(flush.total_ns as f64 * k, flush.count as f64),
        );
        let (events, dropped) = traced[0].obs_events;
        out.set("obs.events", events as f64);
        out.set("obs.dropped", dropped as f64);
        out.set(
            "obs.cost_ratio",
            median(
                &rounds
                    .iter()
                    .map(|r| (r[0].wall_s * r[0].scale) / (r[2].wall_s * r[2].scale))
                    .collect::<Vec<_>>(),
            ),
        );
        out.set(
            "trace.overhead_ratio",
            median(
                &rounds
                    .iter()
                    .map(|r| (r[0].wall_s * r[0].scale) / (r[1].wall_s * r[1].scale))
                    .collect::<Vec<_>>(),
            ),
        );
        if traced.iter().any(|e| e.obs_events != traced[0].obs_events) {
            out.fail("obs journal sizes differ between traced episodes");
        }
        out
    }
}
