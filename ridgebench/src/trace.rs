//! Spans taken from outside the stack: the benchmark times its own calls
//! into each layer's public functions, and the [`TimedBackend`] /
//! [`TimedSink`] wrappers time the calls the service makes into its
//! backends and sinks.
//!
//! A span records its name, start, end and the span that was open when it
//! began (its parent). Spans are kept in memory — the first [`RAW_CAP`] in
//! full, every one in the per-name aggregate — and written out as JSONL
//! when the run ends. A span's *self* time is its duration minus the
//! durations of its direct children.
//!
//! Recording is per thread (the benchmark is single-threaded) and off by
//! default: with tracing off, [`span`] and [`count`] are one thread-local
//! flag test each, and untraced episodes do not wrap their backends.

use grw_algo::{BackendClass, BackendTelemetry, WalkBackend, WalkPath, WalkQuery};
use grw_service::{CompletedWalk, SinkAck, SinkReport, WalkSink};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Raw spans kept for the written trace; later spans only enter the
/// aggregates, so memory stays bounded however long the run is.
const RAW_CAP: usize = 50_000;

/// One closed span. `id`s are assigned in opening order; `parent` is the
/// id of the span that was open when this one began.
#[derive(Debug, Clone, Copy)]
struct Span {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Totals per span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Spans closed under this name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus the time covered by direct children.
    pub self_ns: u64,
}

struct Open {
    id: u64,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

struct Tracer {
    epoch: Instant,
    next_id: u64,
    stack: Vec<Open>,
    raw: Vec<Span>,
    agg: BTreeMap<&'static str, Agg>,
    counters: BTreeMap<&'static str, u64>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: 0,
            stack: Vec::new(),
            raw: Vec::new(),
            agg: BTreeMap::new(),
            counters: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str) {
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.stack.push(Open {
            id,
            name,
            start_ns,
            child_ns: 0,
        });
    }

    fn close(&mut self) {
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("span closed without being opened");
        let dur = end_ns - open.start_ns;
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.id
        });
        let agg = self.agg.entry(open.name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        if self.raw.len() < RAW_CAP {
            self.raw.push(Span {
                id: open.id,
                parent,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
            });
        }
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::new());
}

/// Whether spans are being recorded on this thread.
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Turns recording on or off; returns the previous setting.
pub fn set_enabled(on: bool) -> bool {
    ENABLED.with(|e| e.replace(on))
}

/// Runs `f` inside a span named `name` (just runs it when recording is
/// off).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    TRACER.with(|t| t.borrow_mut().open(name));
    let out = f();
    TRACER.with(|t| t.borrow_mut().close());
    out
}

/// Adds `n` to the counter `name` (no-op when recording is off).
pub fn count(name: &'static str, n: u64) {
    if enabled() {
        TRACER.with(|t| *t.borrow_mut().counters.entry(name).or_default() += n);
    }
}

/// The aggregate of every span closed under `name` so far.
pub fn agg(name: &str) -> Agg {
    TRACER.with(|t| t.borrow().agg.get(name).copied().unwrap_or_default())
}

/// The counter `name` so far.
pub fn counter(name: &str) -> u64 {
    TRACER.with(|t| t.borrow().counters.get(name).copied().unwrap_or(0))
}

/// Renders the recorded spans as JSONL: one `meta` line, one line per
/// raw span, then one `agg` line per span name and one `counter` line per
/// counter.
pub fn to_jsonl(meta: &str) -> String {
    TRACER.with(|t| {
        let t = t.borrow();
        let mut out = String::with_capacity(t.raw.len() * 96);
        let spans = t.next_id;
        let kept = t.raw.len();
        let _ = writeln!(out, "{{\"meta\": {meta}, \"spans\": {spans}, \"kept\": {kept}}}");
        for s in &t.raw {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, parent, s.name, s.start_ns, s.end_ns
            );
        }
        for (name, a) in &t.agg {
            let _ = writeln!(
                out,
                "{{\"agg\": \"{name}\", \"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                a.count, a.total_ns, a.self_ns
            );
        }
        for (name, n) in &t.counters {
            let _ = writeln!(out, "{{\"counter\": \"{name}\", \"value\": {n}}}");
        }
        out
    })
}

/// A backend shard whose `submit`/`poll`/`drain` calls are spans, with
/// the work they did as counters: queries taken, polls (and empty polls),
/// paths and steps returned.
pub struct TimedBackend<B>(pub B);

impl<B: WalkBackend> TimedBackend<B> {
    fn returned(&self, paths: &[WalkPath]) {
        count("backend.paths", paths.len() as u64);
        count("backend.steps", paths.iter().map(WalkPath::steps).sum());
    }
}

impl<B: WalkBackend> WalkBackend for TimedBackend<B> {
    fn submit(&mut self, queries: &[WalkQuery]) -> usize {
        let taken = span("backend.submit", || self.0.submit(queries));
        count("backend.taken", taken as u64);
        taken
    }

    fn poll(&mut self) -> Vec<WalkPath> {
        let out = span("backend.poll", || self.0.poll());
        count("backend.polls", 1);
        count("backend.empty_polls", u64::from(out.is_empty()));
        self.returned(&out);
        out
    }

    fn drain(&mut self) -> Vec<WalkPath> {
        let out = span("backend.drain", || self.0.drain());
        self.returned(&out);
        out
    }

    fn capacity_hint(&self) -> usize {
        self.0.capacity_hint()
    }

    fn in_flight(&self) -> usize {
        self.0.in_flight()
    }

    fn telemetry(&self) -> BackendTelemetry {
        self.0.telemetry()
    }

    fn backend_class(&self) -> BackendClass {
        self.0.backend_class()
    }

    fn cost_hint(&self) -> f64 {
        self.0.cost_hint()
    }
}

/// A sink whose `accept`/`flush` calls are spans, with accepted and
/// refused walks as counters.
pub struct TimedSink<S>(pub S);

impl<S: WalkSink> WalkSink for TimedSink<S> {
    fn accept(&mut self, walk: &CompletedWalk) -> SinkAck {
        let ack = span("sink.accept", || self.0.accept(walk));
        match ack {
            SinkAck::Accepted => count("sink.accepted", 1),
            SinkAck::Backpressured => count("sink.refused", 1),
        }
        ack
    }

    fn flush(&mut self) {
        span("sink.flush", || self.0.flush());
    }

    fn report(&self) -> SinkReport {
        self.0.report()
    }
}
