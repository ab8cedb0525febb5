//! Output checks shared by every workload: exactly-once delivery, path
//! validity against the CSR graph, and the order-independent walk digest
//! whose equality across episodes shows the run is deterministic.

use grw_algo::WalkQuery;
use grw_graph::CsrGraph;
use grw_rng::SplitMix64;

/// Hash of one delivered walk's identity: owner, query id and every
/// vertex. Summed (wrapping) over a run it gives a digest that does not
/// depend on delivery order.
pub fn walk_hash(owner: u64, query: u64, vertices: &[u32]) -> u64 {
    let mut h = SplitMix64::mix(owner.wrapping_mul(0x1_0000_0001) ^ query ^ 0x5157_4A1C);
    for &v in vertices {
        h = SplitMix64::mix(h ^ u64::from(v));
    }
    h
}

/// Whether `vertices` is a legal walk for a query starting at `start`:
/// it begins there, every hop follows a CSR edge, and it takes at most
/// `max_len` hops.
pub fn valid_path(graph: &CsrGraph, start: u32, max_len: u32, vertices: &[u32]) -> bool {
    vertices.first() == Some(&start)
        && vertices.len() as u64 - 1 <= u64::from(max_len)
        && vertices
            .windows(2)
            .all(|hop| graph.has_edge(hop[0], hop[1]))
}

/// Per-owner ledger of one episode's queries: which have been delivered,
/// how many deliveries were wrong, and the digest of the good ones.
pub struct Ledger<'a> {
    graph: &'a CsrGraph,
    max_len: u32,
    queries: &'a [Vec<WalkQuery>],
    delivered: Vec<Vec<bool>>,
    /// Deliveries that were duplicates, unknown, or invalid paths.
    pub bad: u64,
    /// Wrapping sum of [`walk_hash`] over the good deliveries.
    pub digest: u64,
    /// Hops over the good deliveries.
    pub steps: u64,
}

impl<'a> Ledger<'a> {
    /// A ledger over `queries[owner][local id]`.
    pub fn new(graph: &'a CsrGraph, max_len: u32, queries: &'a [Vec<WalkQuery>]) -> Self {
        Self {
            graph,
            max_len,
            queries,
            delivered: queries.iter().map(|q| vec![false; q.len()]).collect(),
            bad: 0,
            digest: 0,
            steps: 0,
        }
    }

    /// Records one delivery of query `id` of `owner`; returns whether it
    /// was good.
    pub fn deliver(&mut self, owner: usize, id: u64, vertices: &[u32]) -> bool {
        let Some(q) = self.queries.get(owner).and_then(|qs| qs.get(id as usize)) else {
            self.bad += 1;
            return false;
        };
        let seen = &mut self.delivered[owner][id as usize];
        if *seen || !valid_path(self.graph, q.start, self.max_len, vertices) {
            self.bad += 1;
            return false;
        }
        *seen = true;
        self.digest = self
            .digest
            .wrapping_add(walk_hash(owner as u64, id, vertices));
        self.steps += vertices.len() as u64 - 1;
        true
    }

    /// Queries never delivered.
    pub fn missing(&self) -> u64 {
        self.delivered
            .iter()
            .flatten()
            .filter(|&&seen| !seen)
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)], true)
    }

    #[test]
    fn paths_must_start_right_follow_edges_and_fit() {
        let g = ring();
        assert!(valid_path(&g, 0, 3, &[0, 1, 2, 3]));
        assert!(!valid_path(&g, 1, 3, &[0, 1]), "wrong start");
        assert!(!valid_path(&g, 0, 3, &[0, 2]), "not an edge");
        assert!(!valid_path(&g, 0, 2, &[0, 1, 2, 3]), "too long");
        assert!(!valid_path(&g, 0, 2, &[]), "empty");
    }

    #[test]
    fn ledger_counts_duplicates_unknowns_and_missing() {
        let g = ring();
        let qs = vec![vec![
            WalkQuery { id: 0, start: 0 },
            WalkQuery { id: 1, start: 2 },
        ]];
        let mut l = Ledger::new(&g, 4, &qs);
        assert!(l.deliver(0, 0, &[0, 1]));
        assert!(!l.deliver(0, 0, &[0, 1]), "duplicate");
        assert!(!l.deliver(1, 0, &[0]), "unknown owner");
        assert!(!l.deliver(0, 7, &[0]), "unknown id");
        assert_eq!((l.bad, l.missing(), l.steps), (3, 1, 1));
    }

    #[test]
    fn digest_ignores_order_but_not_content() {
        let g = ring();
        let qs = vec![vec![
            WalkQuery { id: 0, start: 0 },
            WalkQuery { id: 1, start: 1 },
        ]];
        let mut a = Ledger::new(&g, 4, &qs);
        a.deliver(0, 0, &[0, 1]);
        a.deliver(0, 1, &[1, 2]);
        let mut b = Ledger::new(&g, 4, &qs);
        b.deliver(0, 1, &[1, 2]);
        b.deliver(0, 0, &[0, 1]);
        assert_eq!(a.digest, b.digest);
        let mut c = Ledger::new(&g, 4, &qs);
        c.deliver(0, 1, &[1, 2, 3]);
        c.deliver(0, 0, &[0, 1]);
        assert_ne!(a.digest, c.digest);
    }
}
