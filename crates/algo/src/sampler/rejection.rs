//! Node2Vec rejection sampling (KnightKing-style).
//!
//! The second-order Node2Vec kernel biases the choice of the next vertex
//! `x ∈ N(cur)` by where `x` stands relative to the previous vertex `prev`:
//!
//! * weight `1/p` if `x == prev` (return),
//! * weight `1`   if `x ∈ N(prev)` (stay close),
//! * weight `1/q` otherwise (move away).
//!
//! Rejection sampling draws a uniform candidate and accepts it with
//! probability `w(x) / M`, `M = max(1/p, 1, 1/q)`. Each trial costs one
//! random column read (the candidate) plus a binary search over `N(prev)`
//! for the membership test — `ceil(log2(deg(prev)))` probes. This cost
//! asymmetry is why GPU Node2Vec keeps relatively more of its performance
//! (Fig. 9d): the probes enjoy locality that URW's pointer chases lack.

use super::{SampleMethod, SampleOutcome};
use grw_graph::{CsrGraph, VertexId};
use grw_rng::RandomSource;

/// Bias weight of candidate `x` given the previous vertex.
fn bias(graph: &CsrGraph, prev: VertexId, x: VertexId, p: f64, q: f64) -> (f64, u32) {
    if x == prev {
        (1.0 / p, 0)
    } else {
        // Binary search in N(prev): ceil(log2(deg)) probes, minimum 1.
        let deg = graph.degree(prev).max(1);
        let probes = 32 - (deg - 1).leading_zeros().min(31);
        if graph.has_edge(prev, x) {
            (1.0, probes.max(1))
        } else {
            (1.0 / q, probes.max(1))
        }
    }
}

/// Samples the next Node2Vec neighbor of `cur` by rejection.
///
/// `prev` is the previously visited vertex; pass `None` on the first hop,
/// which degenerates to uniform sampling. Returns `None` for dead ends.
///
/// Membership stays a binary search on the host too, unlike the scanning
/// kernels' [`super::NeighborMarks`]: a step makes about one probe per
/// trial, so marking all of `N(prev)` would cost more than it saves.
///
/// # Panics
///
/// Panics if `p` or `q` is not strictly positive.
pub fn node2vec_rejection<G: RandomSource>(
    graph: &CsrGraph,
    cur: VertexId,
    prev: Option<VertexId>,
    p: f64,
    q: f64,
    rng: &mut G,
) -> Option<SampleOutcome> {
    assert!(p > 0.0 && q > 0.0, "Node2Vec parameters must be positive");
    let degree = graph.degree(cur);
    if degree == 0 {
        return None;
    }
    let prev = match prev {
        Some(v) => v,
        None => return super::uniform_sample(degree, rng),
    };
    let envelope = (1.0 / p).max(1.0).max(1.0 / q);
    let neighbors = graph.neighbors(cur);
    let mut trials = 0u32;
    let mut probes = 0u32;
    // The envelope guarantees termination w.p. 1; the iteration cap only
    // guards against pathological RNGs and is far above the mean.
    for _ in 0..10_000 {
        trials += 1;
        let idx = rng.next_below(u64::from(degree)) as u32;
        let candidate = neighbors[idx as usize];
        let (w, cost) = bias(graph, prev, candidate, p, q);
        probes += cost;
        if rng.next_f64() < w / envelope {
            return Some(SampleOutcome {
                local_index: idx,
                uniform_trials: trials,
                alias_reads: 0,
                scanned: 0,
                membership_probes: probes,
                method: SampleMethod::Rejection,
                cache_hits: 0,
                alias_builds: 0,
            });
        }
    }
    // Accept the last candidate after the cap (probability ~0 of reaching).
    Some(SampleOutcome {
        local_index: 0,
        uniform_trials: trials,
        alias_reads: 0,
        scanned: 0,
        membership_probes: probes,
        method: SampleMethod::Rejection,
        cache_hits: 0,
        alias_builds: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use grw_rng::SplitMix64;

    /// cur = 0 with neighbors {1 (the previous vertex), 2 (neighbor of 1),
    /// 3 (stranger)}; prev = 1 with neighbor {2}.
    fn fixture() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 0)], true)
    }

    #[test]
    fn first_hop_is_uniform() {
        let g = fixture();
        let mut rng = SplitMix64::new(1);
        let o = node2vec_rejection(&g, 0, None, 2.0, 0.5, &mut rng).unwrap();
        assert_eq!(o.membership_probes, 0);
        assert!(o.local_index < 3);
    }

    #[test]
    fn dead_end_returns_none() {
        let g = fixture();
        let mut rng = SplitMix64::new(1);
        assert!(node2vec_rejection(&g, 3, Some(0), 2.0, 0.5, &mut rng).is_none());
    }

    #[test]
    fn empirical_distribution_matches_biases() {
        let g = fixture();
        // p = 2, q = 0.5: w(return to 1) = 0.5, w(2 ∈ N(1)) = 1, w(3) = 2.
        // Normalised: 1/7, 2/7, 4/7.
        let mut rng = SplitMix64::new(42);
        let mut counts = [0u32; 3];
        let n = 60_000;
        for _ in 0..n {
            let o = node2vec_rejection(&g, 0, Some(1), 2.0, 0.5, &mut rng).unwrap();
            counts[o.local_index as usize] += 1;
        }
        let freqs: Vec<f64> = counts.iter().map(|&c| f64::from(c) / n as f64).collect();
        let expect = [1.0 / 7.0, 2.0 / 7.0, 4.0 / 7.0];
        for (i, (&f, &e)) in freqs.iter().zip(&expect).enumerate() {
            assert!((f - e).abs() < 0.01, "index {i}: {f} vs {e}");
        }
    }

    #[test]
    fn neutral_parameters_reduce_to_uniform() {
        let g = fixture();
        let mut rng = SplitMix64::new(9);
        let mut counts = [0u32; 3];
        let n = 60_000;
        for _ in 0..n {
            let o = node2vec_rejection(&g, 0, Some(1), 1.0, 1.0, &mut rng).unwrap();
            counts[o.local_index as usize] += 1;
            // With p = q = 1 every candidate is accepted on the first trial.
            assert_eq!(o.uniform_trials, 1);
        }
        for &c in &counts {
            let f = f64::from(c) / n as f64;
            assert!((f - 1.0 / 3.0).abs() < 0.01, "freq {f}");
        }
    }

    #[test]
    fn trials_and_probes_are_counted() {
        let g = fixture();
        let mut rng = SplitMix64::new(3);
        let mut total_trials = 0u64;
        let n = 10_000;
        for _ in 0..n {
            let o = node2vec_rejection(&g, 0, Some(1), 2.0, 0.5, &mut rng).unwrap();
            total_trials += u64::from(o.uniform_trials);
            assert!(o.membership_probes <= o.uniform_trials * 2);
        }
        // Mean acceptance = E[w]/M = (7/6)/2 ≈ 0.583 → mean trials ≈ 1.71.
        let mean = total_trials as f64 / n as f64;
        assert!((1.5..2.0).contains(&mean), "mean trials {mean}");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_p_panics() {
        let g = fixture();
        let mut rng = SplitMix64::new(0);
        let _ = node2vec_rejection(&g, 0, Some(1), 0.0, 0.5, &mut rng);
    }
}
