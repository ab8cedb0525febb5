//! Neighbor sampling algorithms, with explicit memory-cost accounting.
//!
//! Every sampler returns a [`SampleOutcome`] describing not only *which*
//! local neighbor index was chosen but also *what it cost*: how many uniform
//! candidate trials, alias-entry reads, sequential scan words and
//! binary-search membership probes were needed. The cycle-level hardware
//! models charge these quantities against their memory channels, so the
//! functional layer and the performance layer can never drift apart.
//!
//! Each outcome additionally carries the [`SampleMethod`] that produced it.
//! With the runtime-adaptive strategy layer ([`crate::SamplerConfig`]) the
//! kernel is no longer a function of the walk spec alone — it varies per
//! vertex degree bucket — so the cost models key on the outcome's method
//! instead of the spec.

mod edge_cache;
mod marks;
mod metapath;
mod rejection;
mod reservoir;
mod second_order;
mod uniform;

pub use edge_cache::{AliasSlot, EdgeAliasCache};
pub use marks::NeighborMarks;
pub use metapath::typed_reservoir;
pub use rejection::node2vec_rejection;
pub use reservoir::{node2vec_reservoir, weighted_reservoir};
pub use second_order::second_order_alias;
pub use uniform::{alias_onthefly, alias_sample, uniform_sample};

/// The sampling kernel that produced a [`SampleOutcome`].
///
/// This is what the cycle-level cost models dispatch on: the same walk
/// spec can mix kernels per degree bucket under the adaptive strategy
/// layer, and each kernel has a distinct memory signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SampleMethod {
    /// Direct uniform index draw (URW/PPR, and the first hop of an
    /// unweighted second-order walk).
    Uniform,
    /// Table-free weighted pick: the vertex's alias row is recomputed on
    /// the fly from its weights (a sequential scan) instead of read from
    /// the shared table. Same draw→index mapping as [`SampleMethod::Alias`].
    InverseTransform,
    /// Prebuilt per-vertex alias table read (DeepWalk, Table I).
    Alias,
    /// KnightKing-style second-order rejection trials.
    Rejection,
    /// Single-pass weighted reservoir scan.
    Reservoir,
    /// Reservoir scan restricted to a vertex type (MetaPath).
    TypedReservoir,
    /// Per-edge second-order alias table, built on demand and optionally
    /// served from the bounded [`EdgeAliasCache`].
    SecondOrderAlias,
}

impl SampleMethod {
    /// Lowercase name as recorded in bench JSON and reports.
    pub fn name(&self) -> &'static str {
        match self {
            SampleMethod::Uniform => "uniform",
            SampleMethod::InverseTransform => "inverse_transform",
            SampleMethod::Alias => "alias",
            SampleMethod::Rejection => "rejection",
            SampleMethod::Reservoir => "reservoir",
            SampleMethod::TypedReservoir => "typed_reservoir",
            SampleMethod::SecondOrderAlias => "second_order_alias",
        }
    }
}

/// The result of sampling one neighbor, with its memory cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleOutcome {
    /// Chosen local index into the current vertex's neighbor list.
    pub local_index: u32,
    /// Uniform candidate draws made (rejection trials; 1 for direct picks).
    pub uniform_trials: u32,
    /// Alias-table entry reads (DeepWalk: 1 per trial).
    pub alias_reads: u32,
    /// Sequential words scanned from the neighbor list (reservoir methods,
    /// on-the-fly alias rows, second-order table builds).
    pub scanned: u32,
    /// Random membership-probe reads, as modelled for a binary search in
    /// N(prev) (the host kernels may resolve membership more cheaply).
    pub membership_probes: u32,
    /// Which kernel produced this sample.
    pub method: SampleMethod,
    /// 1 when a second-order alias table was served from the edge cache.
    pub cache_hits: u32,
    /// 1 when an alias row was (re)built at sample time.
    pub alias_builds: u32,
}

impl SampleOutcome {
    /// A cost-free direct pick of `local_index` (used for degree-1 cases).
    pub fn direct(local_index: u32) -> Self {
        Self {
            local_index,
            uniform_trials: 1,
            alias_reads: 0,
            scanned: 0,
            membership_probes: 0,
            method: SampleMethod::Uniform,
            cache_hits: 0,
            alias_builds: 0,
        }
    }

    /// Total *random* 64-bit transactions this sample costs on the column
    /// side, excluding the final neighbor fetch: alias reads and membership
    /// probes are row-buffer misses; scans are charged separately as
    /// sequential traffic.
    pub fn random_reads(&self) -> u32 {
        self.alias_reads + self.membership_probes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_outcome_is_minimal() {
        let o = SampleOutcome::direct(3);
        assert_eq!(o.local_index, 3);
        assert_eq!(o.uniform_trials, 1);
        assert_eq!(o.random_reads(), 0);
        assert_eq!(o.scanned, 0);
        assert_eq!(o.method, SampleMethod::Uniform);
        assert_eq!(o.cache_hits + o.alias_builds, 0);
    }

    #[test]
    fn random_reads_sums_probe_like_costs() {
        let o = SampleOutcome {
            local_index: 0,
            uniform_trials: 2,
            alias_reads: 2,
            scanned: 8,
            membership_probes: 5,
            method: SampleMethod::Rejection,
            cache_hits: 0,
            alias_builds: 0,
        };
        assert_eq!(o.random_reads(), 7);
    }

    #[test]
    fn method_names_are_stable() {
        assert_eq!(SampleMethod::Uniform.name(), "uniform");
        assert_eq!(SampleMethod::SecondOrderAlias.name(), "second_order_alias");
    }
}
