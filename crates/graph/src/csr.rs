//! Flat compressed-sparse-row (CSR) adjacency storage.
//!
//! The seed implementation stored adjacency as `Vec<Vec<usize>>` — one heap
//! allocation per node and a pointer chase per neighbor-list access. Every hot
//! path in the workspace (greedy routing, pairwise partner draws, BFS,
//! flooding) walks neighbor lists, so adjacency is now a single flat layout:
//!
//! * `offsets[u] .. offsets[u + 1]` indexes the slice of `neighbors` holding
//!   `u`'s neighbors (sorted by node index),
//! * `neighbors` stores node indices as `u32` (half the memory of `usize`,
//!   twice the cache density; networks beyond `u32::MAX` nodes are far outside
//!   the simulable regime and rejected at construction).
//!
//! [`GeometricGraph`](crate::GeometricGraph) additionally keeps one
//! row-blocked scan mirror aligned with these rows (each neighbor's
//! coordinates rounded to `f32`, plus its index) so the greedy-routing inner
//! loop streams contiguous memory instead of gathering positions by index;
//! that layout lives in `geometric.rs` because only the graph knows its
//! positions.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Immutable CSR adjacency over `n` nodes.
///
/// # Example
///
/// ```
/// use geogossip_graph::csr::CsrAdjacency;
/// let adj = CsrAdjacency::from_lists(&[vec![1], vec![0, 2], vec![1]]);
/// assert_eq!(adj.len(), 3);
/// assert_eq!(adj.neighbors(1), &[0, 2]);
/// assert_eq!(adj.degree(0), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CsrAdjacency {
    /// `offsets[u]..offsets[u+1]` spans node `u`'s neighbors; length `n + 1`.
    offsets: Vec<u32>,
    /// Concatenated neighbor lists, each sorted ascending.
    neighbors: Vec<u32>,
}

impl CsrAdjacency {
    /// Builds CSR storage from per-node neighbor lists (used by tests and by
    /// callers that assemble adjacency incrementally).
    ///
    /// Each list is sorted during construction.
    ///
    /// # Panics
    ///
    /// Panics if the node or edge count does not fit in `u32`.
    pub fn from_lists(lists: &[Vec<usize>]) -> Self {
        let mut builder = CsrBuilder::with_capacity(lists.len(), lists.iter().map(Vec::len).sum());
        for list in lists {
            builder.start_row();
            for &v in list {
                builder.push_neighbor(v);
            }
        }
        builder.finish()
    }

    /// Assembles CSR storage from pre-computed raw arrays — the entry point of
    /// the two-pass parallel graph build, which produces exact `offsets` by
    /// prefix-summing a degree pass and fills `neighbors` row-by-row into
    /// disjoint slices.
    ///
    /// The caller guarantees each row `offsets[u]..offsets[u+1]` is sorted
    /// ascending (checked in debug builds, along with offset monotonicity).
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is empty or its last entry does not equal
    /// `neighbors.len()`.
    pub fn from_raw_parts(offsets: Vec<u32>, neighbors: Vec<u32>) -> Self {
        assert!(!offsets.is_empty(), "offsets must hold at least the 0 row");
        assert_eq!(
            *offsets.last().expect("non-empty") as usize,
            neighbors.len(),
            "final offset must seal the neighbor array"
        );
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(offsets
            .windows(2)
            .all(|w| neighbors[w[0] as usize..w[1] as usize]
                .windows(2)
                .all(|p| p[0] < p[1])));
        CsrAdjacency { offsets, neighbors }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the structure has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of directed adjacency entries (twice the undirected edge
    /// count for symmetric graphs).
    pub fn entry_count(&self) -> usize {
        self.neighbors.len()
    }

    /// Neighbors of `u`, sorted by node index.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn neighbors(&self, u: usize) -> &[u32] {
        &self.neighbors[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// The CSR range of `u`'s neighbors, for callers that keep auxiliary
    /// arrays aligned with [`CsrAdjacency::raw_neighbors`].
    #[inline]
    pub fn neighbor_range(&self, u: usize) -> std::ops::Range<usize> {
        self.offsets[u] as usize..self.offsets[u + 1] as usize
    }

    /// The full concatenated neighbor array.
    pub fn raw_neighbors(&self) -> &[u32] {
        &self.neighbors
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: usize) -> usize {
        (self.offsets[u + 1] - self.offsets[u]) as usize
    }

    /// Iterator over all node degrees.
    pub fn degrees(&self) -> impl Iterator<Item = usize> + '_ {
        self.offsets.windows(2).map(|w| (w[1] - w[0]) as usize)
    }

    /// Whether `u` lists `v` as a neighbor (binary search).
    pub fn contains_edge(&self, u: usize, v: usize) -> bool {
        self.neighbors(u).binary_search(&(v as u32)).is_ok()
    }

    /// Whether the graph is connected (BFS from node 0). Graphs with zero or
    /// one node count as connected.
    pub fn is_connected(&self) -> bool {
        let n = self.len();
        if n <= 1 {
            return true;
        }
        let mut visited = vec![false; n];
        let mut stack = vec![0u32];
        visited[0] = true;
        let mut count = 1usize;
        while let Some(u) = stack.pop() {
            for &v in self.neighbors(u as usize) {
                if !visited[v as usize] {
                    visited[v as usize] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == n
    }

    /// Connected components, each sorted by node index, in order of their
    /// smallest member.
    pub fn components(&self) -> Vec<Vec<usize>> {
        let n = self.len();
        let mut visited = vec![false; n];
        let mut out = Vec::new();
        for start in 0..n {
            if visited[start] {
                continue;
            }
            let mut comp = Vec::new();
            let mut stack = vec![start as u32];
            visited[start] = true;
            while let Some(u) = stack.pop() {
                comp.push(u as usize);
                for &v in self.neighbors(u as usize) {
                    if !visited[v as usize] {
                        visited[v as usize] = true;
                        stack.push(v);
                    }
                }
            }
            comp.sort_unstable();
            out.push(comp);
        }
        out
    }

    /// Breadth-first hop distances from `source` (`usize::MAX` when
    /// unreachable).
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn bfs_distances(&self, source: usize) -> Vec<usize> {
        let n = self.len();
        let mut dist = vec![usize::MAX; n];
        let mut queue = VecDeque::new();
        dist[source] = 0;
        queue.push_back(source as u32);
        while let Some(u) = queue.pop_front() {
            let du = dist[u as usize];
            for &v in self.neighbors(u as usize) {
                if dist[v as usize] == usize::MAX {
                    dist[v as usize] = du + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }
}

/// Streaming CSR builder: call [`CsrBuilder::start_row`] once per node in
/// index order, then [`CsrBuilder::push_neighbor`] for each of its neighbors.
///
/// Offset semantics: `offsets[u]` is where row `u` *starts*, so a row is
/// closed (sorted, end offset recorded) when the next row starts or when
/// [`CsrBuilder::finish`] seals the structure.
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
    row_open: bool,
}

impl CsrBuilder {
    /// Creates a builder, pre-allocating for `nodes` rows and `entries`
    /// neighbor slots.
    pub fn with_capacity(nodes: usize, entries: usize) -> Self {
        assert!(
            nodes <= u32::MAX as usize,
            "CSR adjacency indexes nodes as u32"
        );
        let mut offsets = Vec::with_capacity(nodes + 1);
        offsets.push(0);
        CsrBuilder {
            offsets,
            neighbors: Vec::with_capacity(entries),
            row_open: false,
        }
    }

    /// Starts the next node's neighbor row, sorting and closing the previous
    /// one.
    pub fn start_row(&mut self) {
        if self.row_open {
            self.close_row();
        }
        self.row_open = true;
    }

    /// Appends a neighbor to the current row.
    ///
    /// # Panics
    ///
    /// Panics if no row was started or the index does not fit in `u32`.
    pub fn push_neighbor(&mut self, v: usize) {
        assert!(
            self.row_open,
            "start_row must be called before push_neighbor"
        );
        assert!(v <= u32::MAX as usize, "CSR adjacency indexes nodes as u32");
        self.neighbors.push(v as u32);
        assert!(
            self.neighbors.len() <= u32::MAX as usize,
            "CSR adjacency offsets are u32; too many edges"
        );
    }

    /// Seals the structure.
    pub fn finish(mut self) -> CsrAdjacency {
        if self.row_open {
            self.close_row();
        }
        CsrAdjacency {
            offsets: self.offsets,
            neighbors: self.neighbors,
        }
    }

    /// Sorts the open row and records its end offset.
    fn close_row(&mut self) {
        let start = *self.offsets.last().expect("offsets always non-empty") as usize;
        self.neighbors[start..].sort_unstable();
        self.offsets.push(self.neighbors.len() as u32);
        self.row_open = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> CsrAdjacency {
        CsrAdjacency::from_lists(
            &(0..n)
                .map(|i| {
                    let mut v = Vec::new();
                    if i > 0 {
                        v.push(i - 1);
                    }
                    if i + 1 < n {
                        v.push(i + 1);
                    }
                    v
                })
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn from_lists_round_trips_and_sorts() {
        let adj = CsrAdjacency::from_lists(&[vec![2, 1], vec![0], vec![0]]);
        assert_eq!(adj.neighbors(0), &[1, 2]);
        assert_eq!(adj.neighbors(1), &[0]);
        assert_eq!(adj.degree(0), 2);
        assert_eq!(adj.entry_count(), 4);
        assert!(adj.contains_edge(0, 2));
        assert!(!adj.contains_edge(1, 2));
    }

    #[test]
    fn empty_and_singleton_are_connected() {
        assert!(CsrAdjacency::from_lists(&[]).is_connected());
        assert!(CsrAdjacency::from_lists(&[vec![]]).is_connected());
    }

    #[test]
    fn path_graph_is_connected_with_expected_bfs() {
        let adj = path(10);
        assert!(adj.is_connected());
        let dist = adj.bfs_distances(0);
        assert_eq!(dist, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn split_graph_components_cover_all_nodes() {
        let adj = CsrAdjacency::from_lists(&[vec![1], vec![0], vec![3], vec![2], vec![]]);
        assert!(!adj.is_connected());
        let comps = adj.components();
        assert_eq!(comps, vec![vec![0, 1], vec![2, 3], vec![4]]);
    }

    #[test]
    fn degrees_iterator_matches_per_node_degree() {
        let adj = path(6);
        let degs: Vec<usize> = adj.degrees().collect();
        assert_eq!(degs, vec![1, 2, 2, 2, 2, 1]);
        for (u, &d) in degs.iter().enumerate() {
            assert_eq!(adj.degree(u), d);
        }
    }

    #[test]
    fn neighbor_range_aligns_with_raw_array() {
        let adj = path(5);
        for u in 0..5 {
            assert_eq!(
                &adj.raw_neighbors()[adj.neighbor_range(u)],
                adj.neighbors(u)
            );
        }
    }
}
