//! Construction of the geometric random graph `G(n, r)`.

use crate::connectivity::ConnectivityReport;
use crate::csr::{CsrAdjacency, CsrBuilder};
use crate::degree::DegreeSummary;
use geogossip_geometry::point::NodeId;
use geogossip_geometry::topology::wrap_delta;
use geogossip_geometry::{unit_square, Point, Rect, Topology, UniformGrid};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// A geometric graph over a fixed set of sensor positions.
///
/// Nodes are identified by their index into the position vector
/// ([`NodeId`]); edges connect every pair of nodes within Euclidean
/// distance `radius`. The adjacency structure is immutable after
/// construction — the paper's network never changes during a run.
///
/// Adjacency is stored in a flat CSR layout ([`CsrAdjacency`]): one `u32`
/// offset array plus one concatenated `u32` neighbor array. Alongside it sits
/// one row-blocked scan mirror holding each neighbor's coordinates rounded to
/// `f32` plus its index ([`GeometricGraph::scan_block`]), so the greedy
/// routing inner loop ("which neighbor is closest to the target?") streams one
/// contiguous 12-byte-per-neighbor row instead of pointer-chasing per-node
/// `Vec`s and gathering positions by index. Together that is 16 bytes per
/// directed adjacency entry; exact `f64` coordinates are read only from
/// [`GeometricGraph::position`].
///
/// Besides adjacency the graph keeps the spatial grid it was built with, so
/// downstream code (greedy geographic routing, leader lookup) can answer
/// nearest-node queries without rebuilding an index.
///
/// # Example
///
/// ```
/// use geogossip_graph::GeometricGraph;
/// use geogossip_geometry::Point;
///
/// let pts = vec![
///     Point::new(0.1, 0.1),
///     Point::new(0.15, 0.1),
///     Point::new(0.9, 0.9),
/// ];
/// let g = GeometricGraph::build(pts, 0.1);
/// assert_eq!(g.degree(0.into()), 1);     // only its close companion
/// assert_eq!(g.degree(2.into()), 0);     // isolated far corner
/// assert!(!g.is_connected());
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeometricGraph {
    positions: Vec<Point>,
    radius: f64,
    topology: Topology,
    adjacency: CsrAdjacency,
    /// Half-width scan mirror of the neighbor rows, row-blocked: row `i`
    /// occupies `3·offsets[i] .. 3·offsets[i+1]` as `[x_bits… y_bits… idx…]`
    /// — each coordinate rounded to `f32` and stored as its bit pattern, the
    /// neighbor indices copied alongside. The greedy-routing hot loop
    /// streams this **single** contiguous 12-byte-per-neighbor array per
    /// hop: the coordinate halves feed the vectorized approximate argmin
    /// (half the traffic of `f64` coordinates), and the index third lets the
    /// walk resolve near-minimal candidates exactly against
    /// [`GeometricGraph::position`] (a table small enough to sit in L2/L3).
    /// Derived data — always exactly `(positions[j].x as f32).to_bits()` and
    /// likewise for `y`, plus the CSR neighbor row (see
    /// [`GeometricGraph::scan_block`]).
    scan_rows: Vec<u32>,
    grid: UniformGrid,
    edge_count: usize,
}

/// Builds the row-blocked scan mirror from the CSR rows and the positions
/// (see the `scan_rows` field docs for the layout). The reference build's
/// derivation, independent of the fill pass that writes the same rows in
/// place.
fn build_scan_mirror(adjacency: &CsrAdjacency, positions: &[Point]) -> Vec<u32> {
    let bits = |v: f64| (v as f32).to_bits();
    let mut mirror = Vec::with_capacity(3 * adjacency.entry_count());
    for i in 0..adjacency.len() {
        let row = adjacency.neighbors(i);
        mirror.extend(row.iter().map(|&j| bits(positions[j as usize].x)));
        mirror.extend(row.iter().map(|&j| bits(positions[j as usize].y)));
        mirror.extend_from_slice(row);
    }
    mirror
}

impl GeometricGraph {
    /// Builds `G(n, r)` from explicit positions and a connectivity radius on
    /// the plain unit square (the paper's model).
    ///
    /// Construction uses a spatial grid with cell side `≥ r`, so the expected
    /// cost is `O(n + m)` where `m` is the number of edges.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not strictly positive and finite.
    pub fn build(positions: Vec<Point>, radius: f64) -> Self {
        Self::build_with_topology(positions, radius, Topology::UnitSquare)
    }

    /// Builds `G(n, r)` under an explicit [`Topology`].
    ///
    /// On [`Topology::Torus`] two sensors are adjacent when their wrapped
    /// distance is within `radius`, so boundary sensors get the same expected
    /// degree as bulk sensors; torus neighbor sets are always supersets of the
    /// unit-square neighbor sets at equal radius (enforced by
    /// `tests/torus_properties.rs`). Torus adjacency enumerates *wrapped grid
    /// cells* directly (`UniformGrid::for_each_candidate_range_torus`), so
    /// every cell — and therefore every neighbor — is visited at most once per
    /// row even at radii approaching `1/2`; rows need no dedup pass. Greedy
    /// routing and `nearest_node` likewise use the wrapped metric on the
    /// torus, so routing across the seam is modelled faithfully (see
    /// `geogossip_routing::greedy`).
    ///
    /// # Construction pipeline
    ///
    /// The build is a two-pass parallel pipeline over the spatial grid
    /// (cell side `radius / 3`, which keeps candidate windows ~37% smaller
    /// in area than radius-sized cells):
    ///
    /// 1. the node *positions* are mirrored into the grid's cell order once,
    ///    so candidate distance checks stream contiguous memory instead of
    ///    gathering `positions[j]` per candidate,
    /// 2. a parallel **degree pass** counts each node's neighbors — walking
    ///    the nodes in *cell order*, so consecutive queries share hot
    ///    candidate windows,
    /// 3. an exclusive prefix sum turns the counts into exact CSR `offsets`,
    /// 4. a parallel **fill pass** re-queries each node in *index order* —
    ///    so each chunk writes its disjoint slice of the final neighbor and
    ///    scan arrays strictly sequentially — sorting each row by packed
    ///    `(neighbor, slot)` keys and recovering the coordinates from the
    ///    cell-ordered mirror (cache-hot; no post-sort position gather ever
    ///    touches main memory).
    ///
    /// Both passes split their iteration space into one contiguous chunk per
    /// core, and every chunk's output is an independent pure function of
    /// `positions`, so the result is bit-identical to the preserved
    /// sequential reference build ([`GeometricGraph::build_reference`],
    /// pinned by `tests/build_pipeline_properties.rs`) regardless of thread
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not strictly positive and finite, or if a torus
    /// radius is `≥ 1/2` (wrap-around would make neighbor sets ambiguous).
    pub fn build_with_topology(positions: Vec<Point>, radius: f64, topology: Topology) -> Self {
        let chunks = rayon::current_num_threads().max(1);
        Self::build_two_pass(positions, radius, topology, chunks)
    }

    /// The two-pass pipeline behind [`GeometricGraph::build_with_topology`],
    /// with an explicit chunk count so tests can exercise the multi-chunk
    /// structure on any machine.
    #[doc(hidden)]
    pub fn build_two_pass(
        positions: Vec<Point>,
        radius: f64,
        topology: Topology,
        chunks: usize,
    ) -> Self {
        Self::build_two_pass_inner(positions, radius, topology, chunks, false)
    }

    /// [`GeometricGraph::build_two_pass`] with the `u64` row-key path forced,
    /// so tests can pin the wide-key fill against the `u32` fast path without
    /// building a 65 537-node graph.
    #[doc(hidden)]
    pub fn build_two_pass_wide_keys(
        positions: Vec<Point>,
        radius: f64,
        topology: Topology,
        chunks: usize,
    ) -> Self {
        Self::build_two_pass_inner(positions, radius, topology, chunks, true)
    }

    fn build_two_pass_inner(
        positions: Vec<Point>,
        radius: f64,
        topology: Topology,
        chunks: usize,
        wide_keys: bool,
    ) -> Self {
        let (grid, n) = Self::validate_and_grid(&positions, radius, topology);
        let chunk_len = n.div_ceil(chunks.max(1)).max(1);

        // Cell-ordered mirror of the positions, aligned with `grid.entries()`:
        // the candidates of one query cell are one contiguous slice of this
        // array, which turns the filter's memory traffic from random gathers
        // into linear streams (a ~4x difference for a million-node build on
        // one core of a machine with slow memory).
        let cell_pts: Vec<Point> = grid
            .entries()
            .iter()
            .map(|&e| positions[e as usize])
            .collect();
        let scan = NeighborScan {
            grid: &grid,
            cell_pts: &cell_pts,
            radius,
            topology,
        };

        // Pass 1: per-node degrees. Nodes are visited in cell order (slot
        // order), so each query's candidate windows overlap the previous
        // query's — the whole pass streams `cell_pts` roughly once instead
        // of refetching ~5 KB of windows per spatially-random node. Each
        // chunk counts a contiguous slot range into its own buffer.
        let entries = grid.entries();
        // One contiguous chunk per core; the same layout drives both passes
        // (pass 1 interprets a range as slots, pass 2 as rows — both spaces
        // have n elements).
        let chunk_ranges: Vec<Range<usize>> = (0..n)
            .step_by(chunk_len)
            .map(|lo| lo..(lo + chunk_len).min(n))
            .collect();
        let deg_parts: Vec<Vec<u32>> = chunk_ranges
            .clone()
            .into_par_iter()
            .map(|slots| {
                let mut degs = Vec::with_capacity(slots.len());
                for s in slots {
                    degs.push(scan.count_row(cell_pts[s]));
                }
                degs
            })
            .collect();

        // Scatter the slot-ordered counts to node order and prefix-sum them
        // into exact CSR offsets.
        let mut offsets = vec![0u32; n + 1];
        for (s, deg) in deg_parts.into_iter().flatten().enumerate() {
            offsets[entries[s] as usize + 1] = deg;
        }
        let mut acc = 0u64;
        for slot in offsets.iter_mut() {
            acc += u64::from(*slot);
            assert!(
                acc <= u32::MAX as u64,
                "CSR adjacency offsets are u32; too many edges"
            );
            *slot = acc as u32;
        }

        // Pass 2: fill the neighbor rows and the scan rows in place. Both
        // final arrays are allocated once at their exact size and split into
        // one disjoint slice per chunk at the chunk's first CSR offset, so
        // every chunk writes its own rows strictly sequentially (no scattered
        // writes — the other half of the memory-traffic story) and nothing is
        // copied afterwards. Each row sorts packed (neighbor, slot) keys; the
        // coordinates are then recovered from the cell-ordered mirror at the
        // packed slot, whose ~5 KB of candidate windows the query just
        // streamed — a cache-hot gather at any n. Keys are `u32` when both
        // halves fit in 16 bits (n ≤ 65 536), halving the sort's memory
        // traffic exactly where whole-row sorting dominates the build.
        let total = *offsets.last().expect("offsets non-empty") as usize;
        let mut neighbors = vec![0u32; total];
        let mut scan_rows = vec![0u32; 3 * total];
        let mut jobs = Vec::with_capacity(chunk_ranges.len());
        let mut nbr_rest = neighbors.as_mut_slice();
        let mut scan_rest = scan_rows.as_mut_slice();
        for rows in chunk_ranges {
            let span = (offsets[rows.end] - offsets[rows.start]) as usize;
            let (nbr_out, nbr_tail) = nbr_rest.split_at_mut(span);
            let (scan_out, scan_tail) = scan_rest.split_at_mut(3 * span);
            nbr_rest = nbr_tail;
            scan_rest = scan_tail;
            jobs.push((rows, nbr_out, scan_out));
        }
        let wide = wide_keys || n > (1usize << 16);
        jobs.into_par_iter()
            .map(|(rows, nbr_out, scan_out)| {
                if wide {
                    fill_chunk::<u64>(&scan, &positions, &offsets, rows, nbr_out, scan_out)
                } else {
                    fill_chunk::<u32>(&scan, &positions, &offsets, rows, nbr_out, scan_out)
                }
            })
            .collect::<()>();

        // Adjacency is symmetric under both metrics, so every undirected edge
        // contributed exactly two directed entries.
        debug_assert_eq!(total % 2, 0, "asymmetric adjacency");
        let edge_count = total / 2;
        let adjacency = CsrAdjacency::from_raw_parts(offsets, neighbors);
        GeometricGraph {
            positions,
            radius,
            topology,
            adjacency,
            scan_rows,
            grid,
            edge_count,
        }
    }

    /// The preserved sequential reference build — the pre-parallel
    /// implementation kept verbatim (nested-`Vec` spatial grid with its
    /// conservative candidate windows, one streaming [`CsrBuilder`] scan,
    /// image-queried torus adjacency with a sort+dedup per row, and a
    /// separate post-hoc scan-mirror pass over `positions`) — so that:
    ///
    /// * the two-pass parallel pipeline can be checked **bit-for-bit**
    ///   against an independent implementation (offsets, neighbors, scan
    ///   rows, edge count; `tests/build_pipeline_properties.rs`), and
    /// * the speedup stays on record: the historical `graph_build` rows of
    ///   `BENCH_baseline.json` time both builds on the same instances.
    ///
    /// Not a hot path — use [`GeometricGraph::build_with_topology`].
    ///
    /// # Panics
    ///
    /// Same contract as [`GeometricGraph::build_with_topology`].
    pub fn build_reference(positions: Vec<Point>, radius: f64, topology: Topology) -> Self {
        Self::validate_params(&positions, radius, topology);
        let n = positions.len();
        let grid = ReferenceGrid::build(&positions, radius.max(1e-9));
        // Expected degree at the connectivity radius is Θ(log n); reserve for
        // it so the flat neighbor array grows without repeated reallocation.
        let expected_entries = if n > 1 {
            n * ((n as f64).ln().ceil() as usize + 4)
        } else {
            0
        };
        let mut builder = CsrBuilder::with_capacity(n, expected_entries);
        let mut edge_count = 0usize;
        let mut wrapped: Vec<usize> = Vec::new();
        for i in 0..n {
            builder.start_row();
            match topology {
                Topology::UnitSquare => {
                    for j in grid.neighbors_within(&positions, positions[i], radius) {
                        if j != i {
                            builder.push_neighbor(j);
                            if j > i {
                                edge_count += 1;
                            }
                        }
                    }
                }
                Topology::Torus => {
                    // Query the grid at every periodic image of p that can
                    // reach the unit square; a sensor within `radius` of any
                    // image is within wrapped distance `radius` of p. The
                    // clamped out-of-bounds queries stay complete because the
                    // reference grid's candidate span covers one extra cell
                    // and the cell side is at least `radius`.
                    let p = positions[i];
                    wrapped.clear();
                    for dx in [-1.0, 0.0, 1.0] {
                        for dy in [-1.0, 0.0, 1.0] {
                            let q = Point::new(p.x + dx, p.y + dy);
                            if q.x < -radius
                                || q.x > 1.0 + radius
                                || q.y < -radius
                                || q.y > 1.0 + radius
                            {
                                continue;
                            }
                            wrapped.extend(grid.neighbors_within(&positions, q, radius));
                        }
                    }
                    wrapped.sort_unstable();
                    wrapped.dedup();
                    let r2 = radius * radius;
                    for &j in &wrapped {
                        if j != i && topology.distance_squared(p, positions[j]) <= r2 {
                            builder.push_neighbor(j);
                            if j > i {
                                edge_count += 1;
                            }
                        }
                    }
                }
            }
        }
        let adjacency = builder.finish();
        // The graph still carries the *current* grid type for nearest-node
        // queries (and derives the same f32 scan mirror); only the adjacency
        // construction above is the preserved code path.
        let grid = UniformGrid::build(unit_square(), &positions, radius.max(1e-9));
        let scan_rows = build_scan_mirror(&adjacency, &positions);
        GeometricGraph {
            positions,
            radius,
            topology,
            adjacency,
            scan_rows,
            grid,
            edge_count,
        }
    }

    /// Shared construction preamble: parameter validation plus the spatial
    /// grid the two-pass build queries.
    ///
    /// The grid cell side is `radius / 3` rather than `radius`: a radius
    /// query then scans a 7×7 cell window of area `(7r/3)² ≈ 5.4 r²` instead
    /// of a 3×3 window of `9 r²` — ~40% fewer candidate distance checks, the
    /// dominant cost of construction. Queries at any radius stay complete
    /// (the window span adapts), and the grid's cell cap keeps the finer
    /// tiling at `O(n)` cells.
    fn validate_and_grid(
        positions: &[Point],
        radius: f64,
        topology: Topology,
    ) -> (UniformGrid, usize) {
        Self::validate_params(positions, radius, topology);
        let grid = UniformGrid::build(unit_square(), positions, (radius / 3.0).max(1e-9));
        (grid, positions.len())
    }

    /// Construction parameter checks shared by both build paths.
    fn validate_params(positions: &[Point], radius: f64, topology: Topology) {
        assert!(
            radius.is_finite() && radius > 0.0,
            "connectivity radius must be positive and finite"
        );
        assert!(
            topology == Topology::UnitSquare || radius < 0.5,
            "torus adjacency requires radius < 1/2"
        );
        assert!(
            positions.len() <= u32::MAX as usize,
            "CSR adjacency indexes nodes as u32"
        );
    }

    /// Builds the graph at the standard connectivity radius
    /// `r = c·sqrt(log n / n)` used throughout the paper.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two positions are supplied.
    pub fn build_at_connectivity_radius(positions: Vec<Point>, c: f64) -> Self {
        let r = geogossip_geometry::connectivity_radius(positions.len(), c);
        Self::build(positions, r)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The connectivity radius the graph was built with.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// The surface topology the adjacency was built under.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// The sensor positions, indexed by [`NodeId`].
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Position of one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn position(&self, node: NodeId) -> Point {
        self.positions[node.index()]
    }

    /// The CSR adjacency structure.
    pub fn adjacency(&self) -> &CsrAdjacency {
        &self.adjacency
    }

    /// Neighbors of `node` (all nodes within the connectivity radius), sorted
    /// by index.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn neighbors(&self, node: NodeId) -> &[u32] {
        self.adjacency.neighbors(node.index())
    }

    /// The half-width scan view of `node`'s neighbor row: CSR-aligned
    /// `(x_bits, y_bits, indices)` slices of one contiguous row-blocked
    /// `u32` array.
    ///
    /// The first two slices are exactly the neighbors'
    /// [`GeometricGraph::position`] coordinates rounded to `f32` and stored as
    /// bit patterns (`f32::from_bits` recovers them for free; pinned by
    /// tests), so `|x32 − x| ≤ 2⁻²⁴` on the unit square; the third is the CSR
    /// neighbor row itself. The greedy-routing hot loop streams this single
    /// 12-byte-per-neighbor array per hop — the random-access memory traffic
    /// the per-hop argmin is bound by at large `n` — and resolves
    /// near-minimal candidates exactly from [`GeometricGraph::position`].
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn scan_block(&self, node: NodeId) -> (&[u32], &[u32], &[u32]) {
        let range = self.adjacency.neighbor_range(node.index());
        let row = &self.scan_rows[3 * range.start..3 * range.end];
        let (xs, rest) = row.split_at(range.len());
        let (ys, idx) = rest.split_at(range.len());
        (xs, ys, idx)
    }

    /// Degree of `node`.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.adjacency.degree(node.index())
    }

    /// Whether `a` and `b` are adjacent (within the connectivity radius).
    pub fn are_adjacent(&self, a: NodeId, b: NodeId) -> bool {
        self.adjacency.contains_edge(a.index(), b.index())
    }

    /// The spatial grid built over the node positions (cell side
    /// `radius / 3`, capped at `O(n)` cells — see
    /// [`UniformGrid::build`]).
    pub fn grid(&self) -> &UniformGrid {
        &self.grid
    }

    /// The node nearest to an arbitrary position, under the metric the graph
    /// was built with (wrapped distance on the torus, so a target across the
    /// seam resolves to its true wrapped-nearest sensor).
    ///
    /// Returns `None` only for the empty graph. This is the primitive behind
    /// the Dimakis-style "route towards a uniformly random location and talk
    /// to the node nearest it" step.
    pub fn nearest_node(&self, target: Point) -> Option<NodeId> {
        match self.topology {
            Topology::UnitSquare => self.grid.nearest(&self.positions, target),
            Topology::Torus => self.grid.nearest_torus(&self.positions, target),
        }
        .map(NodeId)
    }

    /// Whether the graph is connected (single BFS component).
    ///
    /// The empty graph and the single-node graph count as connected.
    pub fn is_connected(&self) -> bool {
        self.adjacency.is_connected()
    }

    /// Connected components as lists of node indices.
    pub fn components(&self) -> Vec<Vec<usize>> {
        self.adjacency.components()
    }

    /// Connectivity summary (component count, largest component, isolated
    /// nodes).
    pub fn connectivity_report(&self) -> ConnectivityReport {
        ConnectivityReport::from_csr(&self.adjacency)
    }

    /// Degree summary statistics (min / mean / max / isolated count).
    pub fn degree_summary(&self) -> DegreeSummary {
        DegreeSummary::from_degrees(self.adjacency.degrees())
    }

    /// Breadth-first hop distances from `source` to every node
    /// (`usize::MAX` for unreachable nodes).
    ///
    /// Used by tests and by the routing experiments to compare greedy
    /// geographic paths against shortest paths.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn bfs_distances(&self, source: NodeId) -> Vec<usize> {
        self.adjacency.bfs_distances(source.index())
    }

    /// Iterator over all undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.len()).flat_map(move |u| {
            self.adjacency
                .neighbors(u)
                .iter()
                .filter(move |&&v| v as usize > u)
                .map(move |&v| (u, v as usize))
        })
    }
}

/// The query primitive shared by the degree pass and the fill pass: candidate
/// cells from the grid, candidate *positions* from the cell-ordered mirror
/// (`cell_pts[slot]`, a linear stream), membership by the topology's metric.
/// Both passes call the same scan, so they agree on every row by
/// construction; only what they do with the hits differs.
struct NeighborScan<'a> {
    grid: &'a UniformGrid,
    /// Positions permuted into grid entry order, aligned with
    /// `grid.entries()`.
    cell_pts: &'a [Point],
    radius: f64,
    topology: Topology,
}

impl NeighborScan<'_> {
    /// Degree of the node at position `p` (its own entry excluded).
    ///
    /// Branch-free: every candidate contributes `(d² ≤ r²)` to a pure
    /// counting reduction (which the compiler vectorizes — acceptance at the
    /// connectivity radius is ~58%, the worst case for a branchy scan), and
    /// the node itself — always a candidate at distance zero — is subtracted
    /// at the end. No neighbor identity is ever loaded.
    #[inline]
    fn count_row(&self, p: Point) -> u32 {
        let cell_pts = self.cell_pts;
        let r2 = self.radius * self.radius;
        let mut hits = 0u32;
        match self.topology {
            Topology::UnitSquare => self.grid.for_each_candidate_range(p, self.radius, |range| {
                for q in &cell_pts[range] {
                    let dx = q.x - p.x;
                    let dy = q.y - p.y;
                    hits += u32::from(dx * dx + dy * dy <= r2);
                }
            }),
            Topology::Torus => self
                .grid
                .for_each_candidate_range_torus(p, self.radius, |range| {
                    for q in &cell_pts[range] {
                        let dx = wrap_delta(q.x - p.x);
                        let dy = wrap_delta(q.y - p.y);
                        hits += u32::from(dx * dx + dy * dy <= r2);
                    }
                }),
        }
        hits - 1
    }

    /// Collects the row of node `i` at position `p` into `keys` as packed
    /// `(neighbor, slot)` values, returning the row length (which always
    /// equals `expected`, the degree-pass count — asserted in debug builds).
    /// The buffer is compacted branch-free — every candidate is written
    /// unconditionally at the current cursor, and the cursor advances only
    /// for accepted neighbors, so `expected + 1` slots suffice (a rejected
    /// candidate after the final accept writes one past the row).
    /// Coordinates are *not* copied here: the packed slot recovers them from
    /// the cell-ordered mirror after the row sort, while the queried windows
    /// are still cache-hot.
    ///
    /// On the torus the wrapped-cell enumeration visits each grid cell at
    /// most once, so a neighbor reachable through several periodic images
    /// (radius near `1/2`) is still reported exactly once — rows need no
    /// dedup.
    #[inline]
    fn collect_row<K: PackedKey>(
        &self,
        i: usize,
        p: Point,
        expected: usize,
        keys: &mut Vec<K>,
    ) -> usize {
        let entries = self.grid.entries();
        let cell_pts = self.cell_pts;
        let r2 = self.radius * self.radius;
        if keys.len() < expected + 1 {
            keys.resize(expected + 1, K::default());
        }
        let mut t = 0usize;
        match self.topology {
            Topology::UnitSquare => self.grid.for_each_candidate_range(p, self.radius, |range| {
                for slot in range {
                    let q = cell_pts[slot];
                    let dx = q.x - p.x;
                    let dy = q.y - p.y;
                    let j = entries[slot];
                    keys[t] = K::pack(j, slot);
                    t += usize::from((dx * dx + dy * dy <= r2) & (j as usize != i));
                }
            }),
            Topology::Torus => self
                .grid
                .for_each_candidate_range_torus(p, self.radius, |range| {
                    for slot in range {
                        let q = cell_pts[slot];
                        let dx = wrap_delta(q.x - p.x);
                        let dy = wrap_delta(q.y - p.y);
                        let j = entries[slot];
                        keys[t] = K::pack(j, slot);
                        t += usize::from((dx * dx + dy * dy <= r2) & (j as usize != i));
                    }
                }),
        }
        t
    }
}

/// A row-sort key packing `(neighbor index, grid slot)` so that sorting keys
/// sorts rows by neighbor index while carrying the slot along for the
/// post-sort coordinate lookup. `u64` packs 32+32 bits and always works;
/// `u32` packs 16+16 bits and is used when `n ≤ 65 536` (both halves then
/// fit), halving the sort's memory traffic.
trait PackedKey: Copy + Ord + Default {
    /// Packs a neighbor index and its grid slot.
    fn pack(neighbor: u32, slot: usize) -> Self;
    /// The neighbor index.
    fn neighbor(self) -> u32;
    /// The grid slot (index into the cell-ordered position mirror).
    fn slot(self) -> usize;
}

impl PackedKey for u64 {
    #[inline(always)]
    fn pack(neighbor: u32, slot: usize) -> Self {
        (u64::from(neighbor) << 32) | slot as u64
    }
    #[inline(always)]
    fn neighbor(self) -> u32 {
        (self >> 32) as u32
    }
    #[inline(always)]
    fn slot(self) -> usize {
        (self & u64::from(u32::MAX)) as usize
    }
}

impl PackedKey for u32 {
    #[inline(always)]
    fn pack(neighbor: u32, slot: usize) -> Self {
        (neighbor << 16) | slot as u32
    }
    #[inline(always)]
    fn neighbor(self) -> u32 {
        self >> 16
    }
    #[inline(always)]
    fn slot(self) -> usize {
        (self & 0xffff) as usize
    }
}

/// Fills the CSR entries of one contiguous row range (pass 2 of the build)
/// into `nbr_out` and `scan_out`, that range's slices of the final neighbor
/// and scan arrays (both starting at `offsets[rows.start]`): query each row, sort its packed
/// keys, recover coordinates from the cell-ordered mirror. Generic over the
/// key width so the `n ≤ 65 536` case sorts `u32`s.
fn fill_chunk<K: PackedKey>(
    scan: &NeighborScan<'_>,
    positions: &[Point],
    offsets: &[u32],
    rows: Range<usize>,
    nbr_out: &mut [u32],
    scan_out: &mut [u32],
) {
    let base = offsets[rows.start];
    let mut keys: Vec<K> = Vec::new();
    for i in rows {
        let lo = (offsets[i] - base) as usize;
        let hi = (offsets[i + 1] - base) as usize;
        let len = scan.collect_row(i, positions[i], hi - lo, &mut keys);
        debug_assert_eq!(len, hi - lo, "degree pass and fill pass disagree");
        let row = &mut keys[..len];
        row.sort_unstable();
        let nbrs = &mut nbr_out[lo..hi];
        let (xs, rest) = scan_out[3 * lo..3 * hi].split_at_mut(len);
        let (ys, idx) = rest.split_at_mut(len);
        for (k, &key) in row.iter().enumerate() {
            let q = scan.cell_pts[key.slot()];
            nbrs[k] = key.neighbor();
            xs[k] = (q.x as f32).to_bits();
            ys[k] = (q.y as f32).to_bits();
        }
        idx.copy_from_slice(nbrs);
    }
}

/// The spatial grid of the seed implementation, preserved verbatim for
/// [`GeometricGraph::build_reference`]: per-cell `Vec` buckets (one heap
/// allocation each), clamped query cells with a one-cell slack margin (5×5
/// candidate windows at the connectivity radius), no cell-count cap. Kept
/// private to the reference build — everything else uses [`UniformGrid`].
struct ReferenceGrid {
    bounds: Rect,
    cols: usize,
    rows: usize,
    cell_w: f64,
    cell_h: f64,
    cells: Vec<Vec<usize>>,
}

impl ReferenceGrid {
    fn build(points: &[Point], cell_side: f64) -> Self {
        let bounds = unit_square();
        let mut cols = ((bounds.width() / cell_side).floor() as usize).max(1);
        let mut rows = ((bounds.height() / cell_side).floor() as usize).max(1);
        // The one deviation from the seed code: the cell-count cap, shared
        // with `UniformGrid` as a construction invariant so the preserved
        // path cannot abort on a tiny-but-valid radius either. It never binds
        // at benchmarked radii, so the preserved performance is unchanged.
        let cap = 1024usize.max(4 * points.len());
        if cols.saturating_mul(rows) > cap {
            let scale = (cap as f64 / (cols as f64 * rows as f64)).sqrt();
            cols = ((cols as f64 * scale).floor() as usize).max(1);
            rows = ((rows as f64 * scale).floor() as usize).max(1);
        }
        let cell_w = bounds.width() / cols as f64;
        let cell_h = bounds.height() / rows as f64;
        let mut cells = vec![Vec::new(); cols * rows];
        for (i, &p) in points.iter().enumerate() {
            cells[bounds.grid_index_of(p, cols, rows)].push(i);
        }
        ReferenceGrid {
            bounds,
            cols,
            rows,
            cell_w,
            cell_h,
            cells,
        }
    }

    fn neighbors_within<'a>(
        &'a self,
        points: &'a [Point],
        query: Point,
        radius: f64,
    ) -> impl Iterator<Item = usize> + 'a {
        let r2 = radius * radius;
        self.candidate_cells(query, radius)
            .flat_map(move |cell| self.cells[cell].iter().copied())
            .filter(move |&i| points[i].distance_squared(query) <= r2)
    }

    fn candidate_cells(&self, query: Point, radius: f64) -> impl Iterator<Item = usize> + '_ {
        let col_span = (radius / self.cell_w).ceil() as isize + 1;
        let row_span = (radius / self.cell_h).ceil() as isize + 1;
        let qc = self.bounds.grid_index_of(query, self.cols, self.rows);
        let (qcol, qrow) = ((qc % self.cols) as isize, (qc / self.cols) as isize);
        let cols = self.cols as isize;
        let rows = self.rows as isize;
        (-row_span..=row_span).flat_map(move |dr| {
            (-col_span..=col_span).filter_map(move |dc| {
                let c = qcol + dc;
                let r = qrow + dr;
                if c >= 0 && c < cols && r >= 0 && r < rows {
                    Some((r * cols + c) as usize)
                } else {
                    None
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geogossip_geometry::connectivity_radius;
    use geogossip_geometry::sampling::sample_unit_square;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn random_graph(n: usize, c: f64, seed: u64) -> GeometricGraph {
        let pts = sample_unit_square(n, &mut ChaCha8Rng::seed_from_u64(seed));
        GeometricGraph::build_at_connectivity_radius(pts, c)
    }

    #[test]
    fn adjacency_matches_brute_force() {
        let g = random_graph(300, 1.5, 1);
        let pts = g.positions().to_vec();
        let r = g.radius();
        for i in 0..pts.len() {
            let brute: Vec<u32> = (0..pts.len())
                .filter(|&j| j != i && pts[i].distance(pts[j]) <= r)
                .map(|j| j as u32)
                .collect();
            assert_eq!(g.neighbors(NodeId(i)), brute.as_slice());
        }
    }

    #[test]
    fn scan_block_is_the_f32_rounding_of_positions() {
        let g = random_graph(250, 1.5, 9);
        for i in 0..g.len() {
            let nbrs = g.neighbors(NodeId(i));
            let (xs32, ys32, idx) = g.scan_block(NodeId(i));
            assert_eq!(xs32.len(), nbrs.len());
            assert_eq!(ys32.len(), nbrs.len());
            assert_eq!(idx, nbrs);
            for k in 0..nbrs.len() {
                let p = g.position(NodeId(idx[k] as usize));
                assert_eq!(xs32[k], (p.x as f32).to_bits());
                assert_eq!(ys32[k], (p.y as f32).to_bits());
            }
        }
    }

    #[test]
    fn adjacency_is_symmetric() {
        let g = random_graph(400, 1.2, 2);
        for (u, v) in g.edges() {
            assert!(g.are_adjacent(NodeId(u), NodeId(v)));
            assert!(g.are_adjacent(NodeId(v), NodeId(u)));
        }
    }

    #[test]
    fn edge_count_matches_edges_iterator() {
        let g = random_graph(250, 1.3, 3);
        assert_eq!(g.edge_count(), g.edges().count());
        assert_eq!(g.adjacency().entry_count(), 2 * g.edge_count());
    }

    #[test]
    fn connected_at_large_radius_constant() {
        // c = 2 is comfortably above the connectivity threshold.
        let g = random_graph(800, 2.0, 4);
        assert!(g.is_connected());
        assert_eq!(g.components().len(), 1);
        assert!(g.connectivity_report().is_connected());
    }

    #[test]
    fn disconnected_at_tiny_radius() {
        let pts = sample_unit_square(200, &mut ChaCha8Rng::seed_from_u64(5));
        let g = GeometricGraph::build(pts, 0.001);
        assert!(!g.is_connected());
        assert!(g.components().len() > 1);
    }

    #[test]
    fn nearest_node_returns_a_valid_node() {
        let g = random_graph(150, 1.5, 6);
        let target = Point::new(0.42, 0.58);
        let nearest = g.nearest_node(target).unwrap();
        let d = g.position(nearest).distance(target);
        for i in 0..g.len() {
            assert!(g.position(NodeId(i)).distance(target) >= d - 1e-12);
        }
    }

    #[test]
    fn bfs_distances_are_consistent_with_adjacency() {
        let g = random_graph(300, 2.0, 7);
        let dist = g.bfs_distances(NodeId(0));
        assert_eq!(dist[0], 0);
        for (u, v) in g.edges() {
            if dist[u] != usize::MAX && dist[v] != usize::MAX {
                assert!(
                    dist[u].abs_diff(dist[v]) <= 1,
                    "edge ({u},{v}) spans bfs levels"
                );
            }
        }
    }

    #[test]
    fn degree_summary_reports_isolated_nodes() {
        let pts = vec![Point::new(0.1, 0.1), Point::new(0.9, 0.9)];
        let g = GeometricGraph::build(pts, 0.05);
        let s = g.degree_summary();
        assert_eq!(s.isolated, 2);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn standard_radius_matches_helper() {
        let g = random_graph(600, 1.4, 8);
        assert!((g.radius() - connectivity_radius(600, 1.4)).abs() < 1e-15);
    }

    #[test]
    fn empty_graph_is_connected_and_has_no_nearest() {
        let g = GeometricGraph::build(Vec::new(), 0.1);
        assert!(g.is_connected());
        assert!(g.nearest_node(Point::new(0.5, 0.5)).is_none());
        assert!(g.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn rejects_nonpositive_radius() {
        let _ = GeometricGraph::build(vec![Point::new(0.5, 0.5)], 0.0);
    }
}
