//! The live signals a placement decision reads.
//!
//! A policy never talks to backends directly: the [`Router`] hands it a
//! [`FleetView`] — per-shard [`ShardSnapshot`]s (occupancy, latency EWMA,
//! pipeline bubbles), the eligibility mask (drained shards), and the
//! calibrated per-class saturation rates ([`ClassRates`]) that anchor the
//! cost model. Everything here is a cheap, point-in-time read; nothing
//! holds locks or borrows into the service across ticks.
//!
//! [`Router`]: crate::Router

use grw_algo::BackendClass;
use grw_service::ShardSnapshot;

/// Calibrated per-shard saturation rates μ̂ (queries per tick) by backend
/// class, for the workload the fleet is serving.
///
/// The numbers come from a closed-loop calibration run — `grw_bench`'s
/// load harness holds a single-shard service of each class at a fixed
/// backlog window and measures its sustained queries/tick. With no
/// calibration a policy falls back to the backend's static
/// [`cost_hint`](grw_algo::WalkBackend::cost_hint) prior.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClassRates {
    entries: Vec<(BackendClass, f64)>,
}

impl ClassRates {
    /// No calibration: every rate falls back to the cost-hint prior.
    pub fn none() -> Self {
        Self::default()
    }

    /// Builder: records class `c`'s per-shard saturation rate.
    ///
    /// # Panics
    ///
    /// Panics if `per_shard_qpt` is not finite and positive.
    pub fn with(mut self, c: BackendClass, per_shard_qpt: f64) -> Self {
        self.set(c, per_shard_qpt);
        self
    }

    /// Records (or overwrites) class `c`'s per-shard saturation rate.
    ///
    /// # Panics
    ///
    /// Panics if `per_shard_qpt` is not finite and positive.
    pub fn set(&mut self, c: BackendClass, per_shard_qpt: f64) {
        assert!(
            per_shard_qpt.is_finite() && per_shard_qpt > 0.0,
            "saturation rate must be finite and positive, got {per_shard_qpt}"
        );
        if let Some(e) = self.entries.iter_mut().find(|(class, _)| *class == c) {
            e.1 = per_shard_qpt;
        } else {
            self.entries.push((c, per_shard_qpt));
        }
    }

    /// Class `c`'s calibrated per-shard rate, if one was recorded.
    pub fn get(&self, c: BackendClass) -> Option<f64> {
        self.entries
            .iter()
            .find(|(class, _)| *class == c)
            .map(|&(_, r)| r)
    }
}

/// Point-in-time view of the fleet a policy places against.
#[derive(Debug, Clone, Copy)]
pub struct FleetView<'a> {
    /// Current service tick.
    pub now: u64,
    /// One snapshot per shard, indexed by shard id.
    pub shards: &'a [ShardSnapshot],
    /// `eligible[shard]` is false while the shard is drained — policies
    /// must never place there.
    pub eligible: &'a [bool],
    /// Calibrated per-class saturation rates for the current workload.
    pub rates: &'a ClassRates,
}

/// The static prior on a shard's service rate implied by its backend's
/// [`cost_hint`](grw_algo::WalkBackend::cost_hint): queries/tick is the
/// reciprocal of the per-query cost. Cost hints fold in both parallelism
/// (pipelines, worker threads) and the prepared graph's sampler cost
/// factor, so a shard whose adaptive strategy table makes sampling
/// cheaper (e.g. a cached second-order Node2Vec kernel on a hub-heavy
/// graph) gets a proportionally higher prior rate before any calibration
/// or latency history exists.
pub fn cost_hint_rate(cost_hint: f64) -> f64 {
    1.0 / cost_hint.max(1e-9)
}

impl<'a> FleetView<'a> {
    /// Whether `shard` may receive new queries.
    pub fn is_eligible(&self, shard: usize) -> bool {
        self.eligible.get(shard).copied().unwrap_or(false)
    }

    /// Snapshots of the shards that may receive queries.
    pub fn eligible_shards(&self) -> impl Iterator<Item = &'a ShardSnapshot> + '_ {
        self.shards
            .iter()
            .filter(move |s| self.is_eligible(s.shard))
    }

    /// Estimated service rate of one shard in queries/tick: the
    /// calibrated class rate when available, else the static cost-hint
    /// prior (`1 / cost_hint`).
    pub fn service_rate(&self, s: &ShardSnapshot) -> f64 {
        self.rates
            .get(s.class)
            .unwrap_or_else(|| cost_hint_rate(s.cost_hint))
            .max(1e-9)
    }

    /// Estimated ticks for `s` to absorb its current backlog plus
    /// `incoming` additional queries — the first-order queueing-delay
    /// term of every load-aware policy here.
    pub fn drain_time(&self, s: &ShardSnapshot, incoming: usize) -> f64 {
        (s.backlog() + incoming) as f64 / self.service_rate(s)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn snap(shard: usize, class: BackendClass, backlog: usize) -> ShardSnapshot {
        ShardSnapshot {
            shard,
            class,
            cost_hint: if class == BackendClass::Accelerator {
                0.25
            } else {
                1.0
            },
            queued: backlog,
            in_flight: 0,
            awaiting_injection: None,
            executing: None,
            submitted: 0,
            completed: 0,
            ewma_latency_ticks: None,
            bubble_ratio: None,
            sampling: Default::default(),
        }
    }

    #[test]
    fn cheaper_sampling_raises_the_prior_rate() {
        // A 0.8 sampler cost factor (adaptive kernels on a skewed graph)
        // scales the shard's cost hint down and its prior rate up.
        let legacy = cost_hint_rate(1.0);
        let adaptive = cost_hint_rate(0.8);
        assert!(adaptive > legacy);
        assert!((adaptive - 1.25).abs() < 1e-12);
        // Degenerate hints never divide by zero.
        assert!(cost_hint_rate(0.0).is_finite());
    }

    #[test]
    fn rates_record_and_overwrite_per_class() {
        let mut r = ClassRates::none().with(BackendClass::Accelerator, 4.0);
        assert_eq!(r.get(BackendClass::Accelerator), Some(4.0));
        assert_eq!(r.get(BackendClass::Cpu), None);
        r.set(BackendClass::Accelerator, 8.0);
        r.set(BackendClass::Cpu, 1.0);
        assert_eq!(r.get(BackendClass::Accelerator), Some(8.0));
        assert_eq!(r.get(BackendClass::Cpu), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_rates_are_rejected() {
        let _ = ClassRates::none().with(BackendClass::Cpu, 0.0);
    }

    #[test]
    fn drain_time_prefers_calibration_over_the_prior() {
        let shards = vec![snap(0, BackendClass::Accelerator, 8)];
        let eligible = vec![true];
        // Calibrated at 2 q/tick: 8 backlogged + 2 incoming = 5 ticks.
        let rates = ClassRates::none().with(BackendClass::Accelerator, 2.0);
        let view = FleetView {
            now: 0,
            shards: &shards,
            eligible: &eligible,
            rates: &rates,
        };
        assert!((view.drain_time(&shards[0], 2) - 5.0).abs() < 1e-12);
        // Uncalibrated: the 0.25 cost hint implies 4 q/tick.
        let none = ClassRates::none();
        let view = FleetView {
            rates: &none,
            ..view
        };
        assert!((view.drain_time(&shards[0], 2) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn eligibility_masks_drained_shards() {
        let shards = vec![
            snap(0, BackendClass::Accelerator, 0),
            snap(1, BackendClass::Cpu, 0),
        ];
        let eligible = vec![true, false];
        let rates = ClassRates::none();
        let view = FleetView {
            now: 3,
            shards: &shards,
            eligible: &eligible,
            rates: &rates,
        };
        assert!(view.is_eligible(0));
        assert!(!view.is_eligible(1));
        assert!(!view.is_eligible(9), "out of range is never eligible");
        let names: Vec<usize> = view.eligible_shards().map(|s| s.shard).collect();
        assert_eq!(names, vec![0]);
    }
}
