//! Weighted reservoir sampling (LightRW-style single-pass selection).
//!
//! Reservoir sampling scans a neighbor list once, keeping candidate `i`
//! with probability `w_i / W_i` where `W_i` is the running weight prefix.
//! It is exact for arbitrary weights, needs no precomputed tables, and is
//! what LightRW (and RidgeWalker's weighted Node2Vec/MetaPath, Table I)
//! use on weighted graphs. The cost is the scan itself: `deg` sequential
//! words, which the hardware models charge at the sequential (open-row)
//! rate.

use super::{NeighborMarks, SampleMethod, SampleOutcome};
use grw_graph::{CsrGraph, VertexId};
use grw_rng::RandomSource;

/// Selects an index from `weights` in one pass; returns `None` when the
/// list is empty or all weights are non-positive.
///
/// # Example
///
/// ```
/// use grw_algo::sampler::weighted_reservoir;
/// use grw_rng::SplitMix64;
///
/// let mut rng = SplitMix64::new(3);
/// let o = weighted_reservoir(&[1.0, 2.0, 3.0], &mut rng).unwrap();
/// assert!(o.local_index < 3);
/// assert_eq!(o.scanned, 3);
/// ```
pub fn weighted_reservoir<G: RandomSource>(weights: &[f32], rng: &mut G) -> Option<SampleOutcome> {
    let mut total = 0.0f64;
    let mut chosen: Option<u32> = None;
    for (i, &w) in weights.iter().enumerate() {
        let w = f64::from(w);
        if w <= 0.0 {
            continue;
        }
        total += w;
        if rng.next_f64() < w / total {
            chosen = Some(i as u32);
        }
    }
    chosen.map(|local_index| SampleOutcome {
        local_index,
        uniform_trials: 1,
        alias_reads: 0,
        scanned: weights.len() as u32,
        membership_probes: 0,
        method: SampleMethod::Reservoir,
        cache_hits: 0,
        alias_builds: 0,
    })
}

/// Node2Vec on weighted graphs: one reservoir pass over `N(cur)` with each
/// weight multiplied by the second-order bias (`1/p` return, `1` shared
/// neighbor, `1/q` otherwise).
///
/// The host kernel marks `N(prev)` in `marks` once per step (`deg(prev)`
/// writes), so each scanned neighbor's membership test is one load. The
/// reported `membership_probes` is the *modelled* cost of LightRW's
/// kernel, a `ceil(log2 deg(prev))`-probe binary search per scanned
/// neighbor other than `prev`, which the hardware cost models charge; it
/// does not count host work.
///
/// Pass `prev = None` on the first hop for a plain weighted pick.
///
/// # Panics
///
/// Panics if `p` or `q` is not strictly positive, or if the graph carries
/// no weights.
pub fn node2vec_reservoir<G: RandomSource>(
    graph: &CsrGraph,
    cur: VertexId,
    prev: Option<VertexId>,
    p: f64,
    q: f64,
    marks: &mut NeighborMarks,
    rng: &mut G,
) -> Option<SampleOutcome> {
    assert!(p > 0.0 && q > 0.0, "Node2Vec parameters must be positive");
    let weights = graph
        .neighbor_weights(cur)
        .expect("node2vec_reservoir requires a weighted graph");
    if weights.is_empty() {
        return None;
    }
    let neighbors = graph.neighbors(cur);
    let (return_bias, outward_bias) = (1.0 / p, 1.0 / q);
    let probes_per_test = prev.map_or(0, |pv| {
        marks.mark_neighbors(graph, pv);
        let deg = graph.degree(pv).max(1);
        (32 - (deg - 1).leading_zeros().min(31)).max(1)
    });
    let mut total = 0.0f64;
    let mut chosen: Option<u32> = None;
    let mut probes = 0u32;
    for (i, (&w, &x)) in weights.iter().zip(neighbors).enumerate() {
        let bias = match prev {
            None => 1.0,
            Some(pv) if x == pv => return_bias,
            Some(_) => {
                probes += probes_per_test;
                if marks.contains(x) {
                    1.0
                } else {
                    outward_bias
                }
            }
        };
        let w = f64::from(w) * bias;
        if w <= 0.0 {
            continue;
        }
        total += w;
        if rng.next_f64() < w / total {
            chosen = Some(i as u32);
        }
    }
    chosen.map(|local_index| SampleOutcome {
        local_index,
        uniform_trials: 1,
        alias_reads: 0,
        scanned: neighbors.len() as u32,
        membership_probes: probes,
        method: SampleMethod::Reservoir,
        cache_hits: 0,
        alias_builds: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::SamplerRuntime;
    use grw_graph::generators::RmatConfig;
    use grw_rng::SplitMix64;

    #[test]
    fn empty_list_yields_none() {
        let mut rng = SplitMix64::new(0);
        assert!(weighted_reservoir(&[], &mut rng).is_none());
    }

    #[test]
    fn all_zero_weights_yield_none() {
        let mut rng = SplitMix64::new(0);
        assert!(weighted_reservoir(&[0.0, 0.0], &mut rng).is_none());
    }

    #[test]
    fn distribution_is_weight_proportional() {
        let weights = [1.0f32, 3.0, 6.0];
        let mut rng = SplitMix64::new(17);
        let mut counts = [0u32; 3];
        let n = 100_000;
        for _ in 0..n {
            counts[weighted_reservoir(&weights, &mut rng).unwrap().local_index as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let f = f64::from(c) / n as f64;
            let e = f64::from(weights[i]) / 10.0;
            assert!((f - e).abs() < 0.01, "index {i}: {f} vs {e}");
        }
    }

    #[test]
    fn negative_weights_are_skipped() {
        let mut rng = SplitMix64::new(2);
        for _ in 0..100 {
            let o = weighted_reservoir(&[-1.0, 2.0, -3.0], &mut rng).unwrap();
            assert_eq!(o.local_index, 1);
        }
    }

    #[test]
    fn scan_cost_is_the_degree() {
        let mut rng = SplitMix64::new(2);
        let o = weighted_reservoir(&[1.0; 17], &mut rng).unwrap();
        assert_eq!(o.scanned, 17);
    }

    fn weighted_fixture() -> CsrGraph {
        // cur = 0 → {1, 2, 3} all weight 1; prev = 1 → {2}.
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 0)], true)
            .with_weights(|_, _, _| 1.0)
    }

    #[test]
    fn node2vec_reservoir_matches_rejection_distribution() {
        let g = weighted_fixture();
        let mut rng = SplitMix64::new(5);
        let mut marks = NeighborMarks::new();
        let mut counts = [0u32; 3];
        let n = 60_000;
        for _ in 0..n {
            let o = node2vec_reservoir(&g, 0, Some(1), 2.0, 0.5, &mut marks, &mut rng).unwrap();
            counts[o.local_index as usize] += 1;
        }
        // Same target distribution as the rejection test: 1/7, 2/7, 4/7.
        let expect = [1.0 / 7.0, 2.0 / 7.0, 4.0 / 7.0];
        for (i, (&c, &e)) in counts.iter().zip(&expect).enumerate() {
            let f = f64::from(c) / n as f64;
            assert!((f - e).abs() < 0.01, "index {i}: {f} vs {e}");
        }
    }

    #[test]
    fn first_hop_ignores_bias() {
        let g = weighted_fixture();
        let mut rng = SplitMix64::new(6);
        let o =
            node2vec_reservoir(&g, 0, None, 2.0, 0.5, &mut NeighborMarks::new(), &mut rng).unwrap();
        assert_eq!(o.membership_probes, 0);
    }

    #[test]
    #[should_panic(expected = "weighted graph")]
    fn unweighted_graph_panics() {
        let g = CsrGraph::from_edges(2, &[(0, 1)], true);
        let mut rng = SplitMix64::new(0);
        let _ = node2vec_reservoir(&g, 0, None, 2.0, 0.5, &mut NeighborMarks::new(), &mut rng);
    }

    /// The binary-search kernel the marks replaced, kept verbatim as the
    /// bit-identity oracle.
    fn node2vec_reservoir_oracle<G: RandomSource>(
        graph: &CsrGraph,
        cur: VertexId,
        prev: Option<VertexId>,
        p: f64,
        q: f64,
        rng: &mut G,
    ) -> Option<SampleOutcome> {
        assert!(p > 0.0 && q > 0.0, "Node2Vec parameters must be positive");
        let weights = graph
            .neighbor_weights(cur)
            .expect("node2vec_reservoir requires a weighted graph");
        if weights.is_empty() {
            return None;
        }
        let neighbors = graph.neighbors(cur);
        let mut total = 0.0f64;
        let mut chosen: Option<u32> = None;
        let mut probes = 0u32;
        for (i, (&w, &x)) in weights.iter().zip(neighbors).enumerate() {
            let bias = match prev {
                None => 1.0,
                Some(pv) if x == pv => 1.0 / p,
                Some(pv) => {
                    let deg = graph.degree(pv).max(1);
                    probes += (32 - (deg - 1).leading_zeros().min(31)).max(1);
                    if graph.has_edge(pv, x) {
                        1.0
                    } else {
                        1.0 / q
                    }
                }
            };
            let w = f64::from(w) * bias;
            if w <= 0.0 {
                continue;
            }
            total += w;
            if rng.next_f64() < w / total {
                chosen = Some(i as u32);
            }
        }
        chosen.map(|local_index| SampleOutcome {
            local_index,
            uniform_trials: 1,
            alias_reads: 0,
            scanned: neighbors.len() as u32,
            membership_probes: probes,
            method: SampleMethod::Reservoir,
            cache_hits: 0,
            alias_builds: 0,
        })
    }

    /// Skewed weighted RMAT graph where about one edge in seven weighs 0.
    fn weighted_rmat(scale: u32, seed: u64) -> CsrGraph {
        RmatConfig::graph500(scale, 8)
            .seed(seed)
            .generate()
            .with_weights(|src, dst, _| {
                let h = src.wrapping_mul(0x9E37_79B9) ^ dst.wrapping_mul(0x85EB_CA6B);
                if h % 7 == 0 {
                    0.0
                } else {
                    0.25 + (h % 13) as f32 * 0.5
                }
            })
    }

    #[test]
    fn marked_kernel_is_bit_identical_to_the_binary_search_oracle() {
        // One runtime across both graphs (different vertex counts), so the
        // marks outlive a graph and must grow without leaking stale sets.
        let mut rt = SamplerRuntime::disabled();
        let mut pick = SplitMix64::new(0x0A11);
        let mut calls = 0u32;
        for (scale, seed) in [(9, 3), (11, 4)] {
            let g = weighted_rmat(scale, seed);
            let n = g.vertex_count() as u64;
            let hub = (0..n as VertexId).max_by_key(|&v| g.degree(v)).unwrap();
            let zero_weights = (0..n as VertexId)
                .flat_map(|v| g.neighbor_weights(v).unwrap())
                .filter(|&&w| w == 0.0)
                .count();
            assert!(zero_weights > 0, "the fixture must carry zero weights");
            if scale == 11 {
                // Cross the u32 epoch wraparound with the first graph's
                // stamps still in the array.
                rt.marks_mut().set_epoch(u32::MAX - 100);
            }
            let (mut hub_prevs, mut returns, mut strangers, mut firsts) = (0, 0, 0, 0);
            for i in 0..6_000u32 {
                let cur = pick.next_below(n) as VertexId;
                let prev = match i % 4 {
                    // A hub prev: deg(prev) far above deg(cur).
                    0 => Some(hub),
                    // prev in N(cur), so the scan meets the return edge.
                    1 if g.degree(cur) > 0 => {
                        let ns = g.neighbors(cur);
                        Some(ns[pick.next_below(ns.len() as u64) as usize])
                    }
                    // Usually a vertex not adjacent to cur.
                    2 => Some(pick.next_below(n) as VertexId),
                    _ => None,
                };
                match prev {
                    Some(pv) if pv == hub => hub_prevs += 1,
                    Some(pv) if g.neighbors(cur).contains(&pv) => returns += 1,
                    Some(_) => strangers += 1,
                    None => firsts += 1,
                }
                let (p, q) = if i % 3 == 0 { (2.0, 0.5) } else { (0.25, 4.0) };
                let mut want_rng = SplitMix64::new(u64::from(i) ^ (seed << 32));
                let mut got_rng = want_rng;
                let want = node2vec_reservoir_oracle(&g, cur, prev, p, q, &mut want_rng);
                let got = node2vec_reservoir(&g, cur, prev, p, q, rt.marks_mut(), &mut got_rng);
                assert_eq!(got, want, "outcome at cur {cur}, prev {prev:?}");
                assert_eq!(got_rng, want_rng, "RNG state at cur {cur}, prev {prev:?}");
                calls += 1;
            }
            assert!(g.degree(hub) > 16 * (g.edge_count() / g.vertex_count()) as u32);
            assert!(hub_prevs > 0 && returns > 0 && strangers > 0 && firsts > 0);
        }
        assert!(calls >= 10_000);
    }
}
