//! O(1) membership tests against one neighbor list.
//!
//! Every second-order kernel asks, for each candidate `x ∈ N(cur)`,
//! whether `x ∈ N(prev)`. A binary search pays `log2 deg(prev)` dependent
//! loads per candidate; marking `N(prev)` once per step turns each test
//! into one load and compare. This is the host analogue of what the
//! hardware models assume: the previous hop already fetched `N(prev)`,
//! so membership is resolved on chip (the LightRW/KnightKing trick).

use grw_graph::{CsrGraph, VertexId};

/// An epoch-stamped mark array over vertex ids.
///
/// [`NeighborMarks::mark_neighbors`] costs `deg(v)` writes and replaces
/// the marked set; [`NeighborMarks::contains`] is a single load and
/// compare. Bumping the epoch unmarks everything at once, so the array is
/// only cleared when the `u32` epoch wraps. The array is sized to the
/// graph on first use, so runtimes whose kernels never test membership
/// never allocate it.
///
/// # Example
///
/// ```
/// use grw_algo::sampler::NeighborMarks;
/// use grw_graph::CsrGraph;
///
/// let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3)], true);
/// let mut marks = NeighborMarks::new();
/// marks.mark_neighbors(&g, 0);
/// assert!(marks.contains(1) && marks.contains(2) && !marks.contains(3));
/// marks.mark_neighbors(&g, 1);
/// assert!(marks.contains(3) && !marks.contains(1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct NeighborMarks {
    stamps: Vec<u32>,
    /// The stamp of the current set; 0 only before the first mark, and
    /// never a live stamp, so fresh (zeroed) slots are always unmarked.
    epoch: u32,
}

impl NeighborMarks {
    /// An empty set that has not allocated yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes the marked set exactly `N(v)` in `graph`.
    pub fn mark_neighbors(&mut self, graph: &CsrGraph, v: VertexId) {
        let n = graph.vertex_count();
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        for &x in graph.neighbors(v) {
            self.stamps[x as usize] = epoch;
        }
    }

    /// Whether `x` is in the set last passed to
    /// [`NeighborMarks::mark_neighbors`] (`false` before any mark).
    #[inline]
    pub fn contains(&self, x: VertexId) -> bool {
        self.stamps.get(x as usize) == Some(&self.epoch)
    }

    /// Moves the epoch without touching the stamps, so tests can cross
    /// the wraparound with stale stamps still in the array.
    #[cfg(test)]
    pub(crate) fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 → {1, 2}; 1 → {3}; 2 → {0, 3}; 3 → {}.
    fn fixture() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 0), (2, 3)], true)
    }

    fn marked(marks: &NeighborMarks) -> Vec<VertexId> {
        (0..4).filter(|&x| marks.contains(x)).collect()
    }

    #[test]
    fn nothing_is_marked_before_the_first_mark() {
        let marks = NeighborMarks::new();
        assert!(!marks.contains(0));
        assert!(marks.stamps.is_empty(), "no allocation before first use");
    }

    #[test]
    fn each_mark_replaces_the_set() {
        let g = fixture();
        let mut marks = NeighborMarks::new();
        marks.mark_neighbors(&g, 0);
        assert_eq!(marked(&marks), [1, 2]);
        marks.mark_neighbors(&g, 2);
        assert_eq!(marked(&marks), [0, 3]);
        marks.mark_neighbors(&g, 3);
        assert_eq!(marked(&marks), [] as [VertexId; 0]);
    }

    #[test]
    fn epoch_wraparound_clears_stale_stamps() {
        let g = fixture();
        let mut marks = NeighborMarks::new();
        // Stamp N(0) = {1, 2} with epoch 1, the first epoch after a wrap.
        marks.mark_neighbors(&g, 0);
        marks.set_epoch(u32::MAX - 1);
        marks.mark_neighbors(&g, 1);
        assert_eq!(marks.epoch, u32::MAX);
        assert_eq!(marked(&marks), [3]);
        // Wraps to epoch 1: the stale {1, 2} stamps must not resurface.
        marks.mark_neighbors(&g, 3);
        assert_eq!(marks.epoch, 1);
        assert_eq!(marked(&marks), [] as [VertexId; 0]);
        marks.mark_neighbors(&g, 2);
        assert_eq!(marked(&marks), [0, 3]);
    }

    #[test]
    fn marks_grow_to_a_larger_graph() {
        let small = fixture();
        let big = CsrGraph::from_edges(10, &[(0, 9), (0, 4)], true);
        let mut marks = NeighborMarks::new();
        marks.mark_neighbors(&small, 0);
        marks.mark_neighbors(&big, 0);
        assert!(marks.contains(9) && marks.contains(4) && !marks.contains(1));
        // Back on the smaller graph, the larger array still answers.
        marks.mark_neighbors(&small, 2);
        assert_eq!(marked(&marks), [0, 3]);
        assert!(!marks.contains(9));
    }
}
