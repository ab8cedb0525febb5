//! The tracing half of the observability layer: structured [`Event`]s
//! stamped with the machine's logical tick (never the wall clock), a
//! bounded ring [`Journal`], and a canonical JSONL serialization.
//!
//! Determinism is the design constraint everything else follows from:
//! an event's identity is `(tick, shard, seq, kind)` where `seq` is a
//! per-source monotone counter, so a fixed seed and submission schedule
//! reproduce the identical trace: per-shard event streams are a pure
//! function of that shard's own command stream, so the *sorted* trace is
//! bit-identical from one run to the next.

use std::fmt::Write as _;

/// Every input the [`TargetSlo`](../../grw_route/struct.TargetSlo.html)
/// control law read when it produced one scale verdict — the payload of
/// [`EventKind::ScaleDecision`], so a surprising scale event (or a
/// surprising *absence* of one) can be explained from the trace alone.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScaleInputs {
    /// Arrival-rate EWMA λ̂ (queries/tick) at decision time.
    pub lambda_hat: f64,
    /// The guard-band floor `target × (1 − band)` both directions are
    /// held against.
    pub floor: f64,
    /// Worst per-shard latency EWMA among eligible shards with backlog.
    pub worst_ewma: f64,
    /// Worst per-shard queueing (drain-time) estimate.
    pub worst_wait: f64,
    /// Whether either live signal breached the floor this step.
    pub pressured: bool,
    /// Whether the shrunken fleet would absorb the current backlog
    /// under the floor.
    pub fits_smaller: bool,
    /// Whether λ̂ keeps a band-sized headroom on the shrunken fleet.
    pub occupancy_fits: bool,
    /// M/M/1-shaped post-shrink latency prediction (the shrink guard).
    pub predicted_shrunk: f64,
    /// Consecutive pressured observations, after this one.
    pub breach_streak: u64,
    /// Consecutive slack observations, after this one.
    pub slack_streak: u64,
    /// Live (eligible) fleet size observed.
    pub shards: u32,
    /// Why a wanted scale event did *not* fire this step (`"breach-streak"`,
    /// `"up-cooldown"`, `"at-max-shards"`, `"slack-streak"`,
    /// `"down-cooldown"`, `"at-min-shards"`); `None` when the verdict
    /// fired or nothing was wanted.
    pub suppressed: Option<&'static str>,
}

impl ScaleInputs {
    fn jsonl(&self, out: &mut String) {
        let _ = write!(
            out,
            "\"lambda_hat\": {:.6}, \"floor\": {:.3}, \"worst_ewma\": {:.3}, \
             \"worst_wait\": {:.3}, \"pressured\": {}, \"fits_smaller\": {}, \
             \"occupancy_fits\": {}, \"predicted_shrunk\": {:.3}, \
             \"breach_streak\": {}, \"slack_streak\": {}, \"shards\": {}, \
             \"suppressed\": {}",
            self.lambda_hat,
            self.floor,
            self.worst_ewma,
            self.worst_wait,
            self.pressured,
            self.fits_smaller,
            self.occupancy_fits,
            if self.predicted_shrunk.is_finite() {
                self.predicted_shrunk
            } else {
                -1.0 // JSON has no Infinity; -1 is unambiguous (waits are >= 0)
            },
            self.breach_streak,
            self.slack_streak,
            self.shards,
            match self.suppressed {
                Some(s) => format!("\"{s}\""),
                None => "null".to_string(),
            },
        );
    }
}

/// What happened. Serving-layer kinds are recorded per shard by the
/// `ShardRunner` / spill-delivery machinery; routing-layer kinds by the
/// `Router`.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A query was accepted into a shard's micro-batcher.
    QueryAdmitted {
        /// Submitting tenant.
        tenant: u16,
        /// Tenant-local query id — the span join key shared with
        /// [`QueryDelivered`](Self::QueryDelivered) and
        /// [`SinkAccepted`](Self::SinkAccepted).
        query: u64,
    },
    /// A micro-batch boundary: the batcher released a batch to the
    /// backend.
    BatchFlushed {
        /// Shard-local batch id.
        batch: u64,
        /// Queries in the batch.
        taken: u32,
        /// What released it (`"size"`, `"deadline"`, `"drain"`).
        reason: &'static str,
    },
    /// A walk completed and was delivered (the event's own tick is the
    /// completion tick).
    QueryDelivered {
        /// Owning tenant.
        tenant: u16,
        /// Tenant-local query id.
        query: u64,
        /// When the query was admitted.
        arrival_tick: u64,
        /// When its micro-batch flushed to the backend.
        flushed_tick: u64,
        /// Steps in the delivered walk.
        steps: u32,
    },
    /// A sink consumed the walk (the event's own tick is the accept
    /// tick) — the delivery-side terminus of a query's span, so sink
    /// backpressure shows up as `tick − completed` in the trace.
    SinkAccepted {
        /// Owning tenant.
        tenant: u16,
        /// Tenant-local query id.
        query: u64,
        /// When the query was admitted.
        arrival_tick: u64,
        /// When its walk completed (the matching
        /// [`QueryDelivered`](Self::QueryDelivered) tick).
        completed_tick: u64,
    },
    /// A sink refused a walk and it was parked in the bounded spill
    /// buffer.
    SinkSpilled {
        /// Spill depth after parking.
        depth: u32,
    },
    /// The spill bound would have breached; the sink was force-flushed.
    SinkForcedFlush,
    /// The router re-bound a tenant to a different shard at a
    /// micro-batch boundary.
    Migration {
        /// Migrating tenant.
        tenant: u16,
        /// Shard the tenant was bound to.
        from: u32,
        /// Shard the tenant is now bound to.
        to: u32,
        /// Destination backlog at migration time — the queueing cost the
        /// placement accepted.
        cost: f64,
    },
    /// A scale policy's verdict for one control step — recorded for
    /// *every* step verdict, suppressed ones included (see
    /// [`ScaleInputs::suppressed`]).
    ScaleDecision {
        /// `"up"`, `"down"`, or `"hold"`.
        decision: &'static str,
        /// The control-law inputs that produced the verdict.
        inputs: Box<ScaleInputs>,
    },
    /// The fleet grew by one shard (the event's shard).
    ShardAppended {
        /// Whether a draining shard was reactivated instead of a new
        /// one appended.
        reactivated: bool,
    },
    /// The fleet began retiring the event's shard (drain-in-place).
    RetireBegun,
    /// The event's shard ran dry and left the fleet.
    ShardRetired {
        /// Walks reclaimed by the retirement drain.
        reclaimed: u32,
    },
    /// Cumulative second-order alias-cache telemetry for the event's
    /// shard at an observation epoch (an export barrier).
    AliasCacheEpoch {
        /// Cache hits so far.
        hits: u64,
        /// Alias rows built so far.
        builds: u64,
        /// Rows evicted so far.
        evictions: u64,
    },
}

impl EventKind {
    /// Stable kind tag, used as the JSONL `ev` field.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::QueryAdmitted { .. } => "query_admitted",
            EventKind::BatchFlushed { .. } => "batch_flushed",
            EventKind::QueryDelivered { .. } => "query_delivered",
            EventKind::SinkAccepted { .. } => "sink_accepted",
            EventKind::SinkSpilled { .. } => "sink_spilled",
            EventKind::SinkForcedFlush => "sink_forced_flush",
            EventKind::Migration { .. } => "migration",
            EventKind::ScaleDecision { .. } => "scale_decision",
            EventKind::ShardAppended { .. } => "shard_appended",
            EventKind::RetireBegun => "retire_begun",
            EventKind::ShardRetired { .. } => "shard_retired",
            EventKind::AliasCacheEpoch { .. } => "alias_cache_epoch",
        }
    }
}

/// Sentinel shard id for events that belong to no single shard (the
/// service-global spill, router-level events).
pub const GLOBAL_SHARD: u32 = u32::MAX;

/// One journal entry. Identity (and canonical order) is
/// `(tick, shard, seq)`: `tick` is the logical machine tick at record
/// time, `seq` a per-source monotone counter — never a wall clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Logical tick when the event was recorded.
    pub tick: u64,
    /// Recording shard, or [`GLOBAL_SHARD`].
    pub shard: u32,
    /// Per-source sequence number (ties events on the same tick into
    /// their true per-shard order).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Canonical sort key: per-shard streams interleave by tick, ties
    /// break by shard then per-source order.
    pub fn key(&self) -> (u64, u32, u64) {
        (self.tick, self.shard, self.seq)
    }

    /// One canonical JSONL line (no trailing newline). Field order is
    /// fixed, so traces compare with plain string equality.
    pub fn jsonl(&self) -> String {
        let mut out = String::with_capacity(96);
        let shard = if self.shard == GLOBAL_SHARD {
            "null".to_string()
        } else {
            self.shard.to_string()
        };
        let _ = write!(
            out,
            "{{\"ev\": \"{}\", \"tick\": {}, \"shard\": {shard}, \"seq\": {}",
            self.kind.tag(),
            self.tick,
            self.seq
        );
        match &self.kind {
            EventKind::QueryAdmitted { tenant, query } => {
                let _ = write!(out, ", \"tenant\": {tenant}, \"query\": {query}");
            }
            EventKind::BatchFlushed {
                batch,
                taken,
                reason,
            } => {
                let _ = write!(
                    out,
                    ", \"batch\": {batch}, \"taken\": {taken}, \"reason\": \"{reason}\""
                );
            }
            EventKind::QueryDelivered {
                tenant,
                query,
                arrival_tick,
                flushed_tick,
                steps,
            } => {
                let _ = write!(
                    out,
                    ", \"tenant\": {tenant}, \"query\": {query}, \"arrival\": {arrival_tick}, \
                     \"flushed\": {flushed_tick}, \"steps\": {steps}"
                );
            }
            EventKind::SinkAccepted {
                tenant,
                query,
                arrival_tick,
                completed_tick,
            } => {
                let _ = write!(
                    out,
                    ", \"tenant\": {tenant}, \"query\": {query}, \"arrival\": {arrival_tick}, \
                     \"completed\": {completed_tick}"
                );
            }
            EventKind::SinkSpilled { depth } => {
                let _ = write!(out, ", \"depth\": {depth}");
            }
            EventKind::SinkForcedFlush => {}
            EventKind::Migration {
                tenant,
                from,
                to,
                cost,
            } => {
                let _ = write!(
                    out,
                    ", \"tenant\": {tenant}, \"from\": {from}, \"to\": {to}, \"cost\": {cost:.3}"
                );
            }
            EventKind::ScaleDecision { decision, inputs } => {
                let _ = write!(out, ", \"decision\": \"{decision}\", ");
                inputs.jsonl(&mut out);
            }
            EventKind::ShardAppended { reactivated } => {
                let _ = write!(out, ", \"reactivated\": {reactivated}");
            }
            EventKind::RetireBegun => {}
            EventKind::ShardRetired { reclaimed } => {
                let _ = write!(out, ", \"reclaimed\": {reclaimed}");
            }
            EventKind::AliasCacheEpoch {
                hits,
                builds,
                evictions,
            } => {
                let _ = write!(
                    out,
                    ", \"hits\": {hits}, \"builds\": {builds}, \"evictions\": {evictions}"
                );
            }
        }
        out.push('}');
        out
    }

    /// Parses one canonical JSONL line (the output of
    /// [`jsonl`](Self::jsonl)) back into an [`Event`] — the reader half
    /// of the trace format, used by `obsdiff` and the provenance layer
    /// to reconstruct spans from an on-disk `TRACE_*.jsonl`. Returns
    /// `None` for junk lines, unknown event kinds, and the
    /// `journal_overflow` meta line.
    pub fn parse_jsonl(line: &str) -> Option<Event> {
        let ev = jsonl_field(line, "ev")?;
        let num = |f: &str| jsonl_num(line, f);
        let int = |f: &str| num(f).map(|v| v as u64);
        let tick = int("tick")?;
        let seq = int("seq")?;
        let shard = match jsonl_field(line, "shard")? {
            "null" => GLOBAL_SHARD,
            s => s.parse().ok()?,
        };
        let tenant = || int("tenant").map(|t| t as u16);
        let kind = match ev {
            "query_admitted" => EventKind::QueryAdmitted {
                tenant: tenant()?,
                query: int("query")?,
            },
            "batch_flushed" => EventKind::BatchFlushed {
                batch: int("batch")?,
                taken: int("taken")? as u32,
                reason: match jsonl_field(line, "reason")? {
                    "size" => "size",
                    "deadline" => "deadline",
                    "drain" => "drain",
                    _ => return None,
                },
            },
            "query_delivered" => EventKind::QueryDelivered {
                tenant: tenant()?,
                query: int("query")?,
                arrival_tick: int("arrival")?,
                flushed_tick: int("flushed")?,
                steps: int("steps")? as u32,
            },
            "sink_accepted" => EventKind::SinkAccepted {
                tenant: tenant()?,
                query: int("query")?,
                arrival_tick: int("arrival")?,
                completed_tick: int("completed")?,
            },
            "sink_spilled" => EventKind::SinkSpilled {
                depth: int("depth")? as u32,
            },
            "sink_forced_flush" => EventKind::SinkForcedFlush,
            "migration" => EventKind::Migration {
                tenant: tenant()?,
                from: int("from")? as u32,
                to: int("to")? as u32,
                cost: num("cost")?,
            },
            "scale_decision" => EventKind::ScaleDecision {
                decision: match jsonl_field(line, "decision")? {
                    "up" => "up",
                    "down" => "down",
                    "hold" => "hold",
                    _ => return None,
                },
                inputs: Box::new(ScaleInputs {
                    lambda_hat: num("lambda_hat")?,
                    floor: num("floor")?,
                    worst_ewma: num("worst_ewma")?,
                    worst_wait: num("worst_wait")?,
                    pressured: jsonl_field(line, "pressured")? == "true",
                    fits_smaller: jsonl_field(line, "fits_smaller")? == "true",
                    occupancy_fits: jsonl_field(line, "occupancy_fits")? == "true",
                    predicted_shrunk: num("predicted_shrunk")?,
                    breach_streak: int("breach_streak")?,
                    slack_streak: int("slack_streak")?,
                    shards: int("shards")? as u32,
                    suppressed: match jsonl_field(line, "suppressed")? {
                        "null" => None,
                        "breach-streak" => Some("breach-streak"),
                        "up-cooldown" => Some("up-cooldown"),
                        "at-max-shards" => Some("at-max-shards"),
                        "slack-streak" => Some("slack-streak"),
                        "down-cooldown" => Some("down-cooldown"),
                        "at-min-shards" => Some("at-min-shards"),
                        _ => return None,
                    },
                }),
            },
            "shard_appended" => EventKind::ShardAppended {
                reactivated: jsonl_field(line, "reactivated")? == "true",
            },
            "retire_begun" => EventKind::RetireBegun,
            "shard_retired" => EventKind::ShardRetired {
                reclaimed: int("reclaimed")? as u32,
            },
            "alias_cache_epoch" => EventKind::AliasCacheEpoch {
                hits: int("hits")?,
                builds: int("builds")?,
                evictions: int("evictions")?,
            },
            _ => return None,
        };
        Some(Event {
            tick,
            shard,
            seq,
            kind,
        })
    }
}

/// A bounded event ring: at capacity the *oldest* entry is dropped (the
/// tail of a trace is what explains the incident you are holding), and
/// the drop count is reported so a truncated trace is never mistaken
/// for a complete one.
#[derive(Debug)]
pub struct Journal {
    events: std::collections::VecDeque<Event>,
    capacity: usize,
    dropped: u64,
}

impl Journal {
    /// An empty journal holding at most `capacity` events.
    ///
    /// The ring is allocated *and pre-faulted* up front: a large ring
    /// comes from the OS as untouched pages that would otherwise fault
    /// one by one on the recording path, billing the construction cost
    /// to the serving hot loop. Writing through the whole buffer here
    /// moves every fault to construction time.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let mut events = std::collections::VecDeque::with_capacity(capacity);
        for _ in 0..capacity {
            events.push_back(Event {
                tick: 0,
                shard: 0,
                seq: 0,
                kind: EventKind::RetireBegun,
            });
        }
        events.clear();
        Self {
            events,
            capacity,
            dropped: 0,
        }
    }

    /// Appends one event, evicting the oldest at capacity.
    pub fn push(&mut self, event: Event) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Events dropped to the capacity bound so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the journal holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The held events in canonical `(tick, shard, seq)` order.
    pub fn sorted(&self) -> Vec<Event> {
        let mut events: Vec<Event> = self.events.iter().cloned().collect();
        events.sort_by_key(Event::key);
        events
    }
}

/// Minimal field extraction from one of our own JSONL lines — enough
/// for `obsdump` without a parser dependency (the writer and reader
/// live in this crate, so the format is fully under our control).
pub fn jsonl_field<'a>(line: &'a str, field: &str) -> Option<&'a str> {
    let needle = format!("\"{field}\": ");
    let at = line.find(&needle)? + needle.len();
    let rest = &line[at..];
    let end = rest
        .char_indices()
        .find(|(i, c)| {
            if rest.starts_with('"') {
                *c == '"' && *i > 0
            } else {
                *c == ',' || *c == '}'
            }
        })
        .map(|(i, _)| i)?;
    let raw = &rest[..end];
    Some(raw.strip_prefix('"').unwrap_or(raw))
}

/// `jsonl_field` parsed as `f64` (integers included).
pub fn jsonl_num(line: &str, field: &str) -> Option<f64> {
    jsonl_field(line, field)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delivered(tick: u64, shard: u32, seq: u64) -> Event {
        Event {
            tick,
            shard,
            seq,
            kind: EventKind::QueryDelivered {
                tenant: 3,
                query: 41,
                arrival_tick: tick.saturating_sub(2),
                flushed_tick: tick.saturating_sub(1),
                steps: 8,
            },
        }
    }

    #[test]
    fn jsonl_lines_are_canonical_and_self_readable() {
        let e = delivered(12, 1, 5);
        let line = e.jsonl();
        assert_eq!(
            line,
            "{\"ev\": \"query_delivered\", \"tick\": 12, \"shard\": 1, \"seq\": 5, \
             \"tenant\": 3, \"query\": 41, \"arrival\": 10, \"flushed\": 11, \"steps\": 8}"
        );
        assert_eq!(jsonl_field(&line, "ev"), Some("query_delivered"));
        assert_eq!(jsonl_num(&line, "tick"), Some(12.0));
        assert_eq!(jsonl_num(&line, "arrival"), Some(10.0));
        assert_eq!(jsonl_num(&line, "missing"), None);
    }

    #[test]
    fn every_event_kind_round_trips_through_parse_jsonl() {
        let kinds = vec![
            EventKind::QueryAdmitted {
                tenant: 2,
                query: 17,
            },
            EventKind::BatchFlushed {
                batch: 4,
                taken: 9,
                reason: "deadline",
            },
            EventKind::QueryDelivered {
                tenant: 2,
                query: 17,
                arrival_tick: 3,
                flushed_tick: 4,
                steps: 8,
            },
            EventKind::SinkAccepted {
                tenant: 2,
                query: 17,
                arrival_tick: 3,
                completed_tick: 7,
            },
            EventKind::SinkSpilled { depth: 5 },
            EventKind::SinkForcedFlush,
            EventKind::Migration {
                tenant: 2,
                from: 0,
                to: 1,
                cost: 2.125,
            },
            EventKind::ScaleDecision {
                decision: "hold",
                inputs: Box::new(ScaleInputs {
                    lambda_hat: 2.5,
                    floor: 9.0,
                    worst_ewma: 10.5,
                    worst_wait: 3.0,
                    pressured: true,
                    breach_streak: 2,
                    shards: 3,
                    suppressed: Some("breach-streak"),
                    ..ScaleInputs::default()
                }),
            },
            EventKind::ShardAppended { reactivated: true },
            EventKind::RetireBegun,
            EventKind::ShardRetired { reclaimed: 12 },
            EventKind::AliasCacheEpoch {
                hits: 8,
                builds: 2,
                evictions: 1,
            },
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            let e = Event {
                tick: 10 + i as u64,
                shard: if i % 2 == 0 { i as u32 } else { GLOBAL_SHARD },
                seq: i as u64,
                kind,
            };
            let parsed = Event::parse_jsonl(&e.jsonl())
                .unwrap_or_else(|| panic!("unparsable: {}", e.jsonl()));
            assert_eq!(parsed, e, "round trip must be lossless");
        }
        assert_eq!(Event::parse_jsonl("not json"), None);
        assert_eq!(
            Event::parse_jsonl("{\"ev\": \"mystery\", \"tick\": 1, \"shard\": 0, \"seq\": 0}"),
            None
        );
    }

    #[test]
    fn global_shard_serializes_as_null() {
        let e = Event {
            tick: 1,
            shard: GLOBAL_SHARD,
            seq: 0,
            kind: EventKind::SinkForcedFlush,
        };
        assert!(e.jsonl().contains("\"shard\": null"));
        assert_eq!(jsonl_field(&e.jsonl(), "shard"), Some("null"));
    }

    #[test]
    fn scale_decision_carries_every_policy_input() {
        let e = Event {
            tick: 40,
            shard: GLOBAL_SHARD,
            seq: 7,
            kind: EventKind::ScaleDecision {
                decision: "hold",
                inputs: Box::new(ScaleInputs {
                    lambda_hat: 2.5,
                    floor: 9.0,
                    worst_ewma: 10.5,
                    worst_wait: 3.0,
                    pressured: true,
                    predicted_shrunk: f64::INFINITY,
                    breach_streak: 2,
                    shards: 3,
                    suppressed: Some("breach-streak"),
                    ..ScaleInputs::default()
                }),
            },
        };
        let line = e.jsonl();
        for field in [
            "lambda_hat",
            "floor",
            "worst_ewma",
            "worst_wait",
            "pressured",
            "fits_smaller",
            "occupancy_fits",
            "predicted_shrunk",
            "breach_streak",
            "slack_streak",
            "shards",
            "suppressed",
        ] {
            assert!(line.contains(&format!("\"{field}\": ")), "missing {field}");
        }
        assert_eq!(jsonl_field(&line, "suppressed"), Some("breach-streak"));
        assert_eq!(
            jsonl_num(&line, "predicted_shrunk"),
            Some(-1.0),
            "infinity flattens to the -1 sentinel"
        );
    }

    #[test]
    fn journal_ring_drops_oldest_and_counts() {
        let mut j = Journal::new(3);
        for seq in 0..5 {
            j.push(delivered(seq, 0, seq));
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.dropped(), 2);
        let ticks: Vec<u64> = j.sorted().iter().map(|e| e.tick).collect();
        assert_eq!(ticks, vec![2, 3, 4]);
    }

    #[test]
    fn canonical_sort_orders_tick_then_shard_then_seq() {
        let mut j = Journal::new(16);
        j.push(delivered(2, 0, 1));
        j.push(delivered(1, 1, 0));
        j.push(delivered(1, 0, 3));
        j.push(delivered(1, 0, 2));
        let keys: Vec<_> = j.sorted().iter().map(Event::key).collect();
        assert_eq!(keys, vec![(1, 0, 2), (1, 0, 3), (1, 1, 0), (2, 0, 1)]);
    }
}
