//! Property tests for the two-pass parallel construction pipeline.
//!
//! The parallel build (degree pass → exact prefix-summed offsets → parallel
//! row-slice fill) must be **bit-identical** to the preserved sequential
//! reference build across sizes, radii and topologies: same CSR offsets, same
//! sorted neighbor rows, same scan rows, same edge count — and every scan
//! row is the `f32` rounding of the positions it names.
//! Determinism is structural — every row is a pure function of the positions
//! and lands in a disjoint slice — so these tests hold for any thread count.
//!
//! Also pinned here: the torus build reports each neighbor exactly once even
//! when a node reaches it through several periodic images (radius near `1/2`),
//! and the grid cell-count cap keeps tiny radii from allocating unbounded
//! memory.

use geogossip_geometry::point::NodeId;
use geogossip_geometry::sampling::sample_unit_square;
use geogossip_geometry::Topology;
use geogossip_graph::GeometricGraph;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Asserts `g`'s scan rows are its neighbor rows plus the `f32` rounding of
/// those neighbors' positions.
fn assert_scan_rows_match_positions(g: &GeometricGraph) {
    for i in 0..g.len() {
        let (xs32, ys32, idx) = g.scan_block(NodeId(i));
        assert_eq!(idx, g.neighbors(NodeId(i)), "scan idx row {i} differs");
        for (k, &j) in idx.iter().enumerate() {
            let p = g.position(NodeId(j as usize));
            assert_eq!(xs32[k], (p.x as f32).to_bits(), "scan xs row {i}");
            assert_eq!(ys32[k], (p.y as f32).to_bits(), "scan ys row {i}");
        }
    }
}

/// Asserts every observable construction output of `a` and `b` is identical.
fn assert_bit_identical(a: &GeometricGraph, b: &GeometricGraph) {
    assert_eq!(a.positions(), b.positions());
    assert_eq!(a.adjacency(), b.adjacency(), "CSR offsets/neighbors differ");
    assert_eq!(a.edge_count(), b.edge_count());
    for g in [a, b] {
        assert_scan_rows_match_positions(g);
    }
    for i in 0..a.len() {
        let (an, bn) = (a.neighbors(NodeId(i)), b.neighbors(NodeId(i)));
        assert_eq!(an, bn, "neighbor row {i} differs");
        let (ax32, ay32, aidx) = a.scan_block(NodeId(i));
        let (bx32, by32, bidx) = b.scan_block(NodeId(i));
        assert_eq!(ax32, bx32, "scan mirror xs row {i} differs");
        assert_eq!(ay32, by32, "scan mirror ys row {i} differs");
        assert_eq!(aidx, bidx, "scan mirror idx row {i} differs");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parallel_build_matches_sequential_reference(
        n in 2usize..250,
        seed in 0u64..500,
        radius in 0.01f64..0.45,
        torus in 0usize..2,
    ) {
        let topology = if torus == 1 { Topology::Torus } else { Topology::UnitSquare };
        let pts = sample_unit_square(n, &mut ChaCha8Rng::seed_from_u64(seed));
        let parallel = GeometricGraph::build_with_topology(pts.clone(), radius, topology);
        let reference = GeometricGraph::build_reference(pts, radius, topology);
        assert_bit_identical(&parallel, &reference);
    }
}

#[test]
fn chunked_fill_is_identical_for_any_chunk_count() {
    // The chunk count only changes how the disjoint row slices are handed
    // out, never what lands in them — including chunk counts that do not
    // divide n and exceed n.
    for topology in [Topology::UnitSquare, Topology::Torus] {
        let n = 257;
        let pts = sample_unit_square(n, &mut ChaCha8Rng::seed_from_u64(9));
        let r = geogossip_geometry::connectivity_radius(n, 1.5);
        let one = GeometricGraph::build_two_pass(pts.clone(), r, topology, 1);
        for chunks in [2, 3, 7, 64, 300] {
            let many = GeometricGraph::build_two_pass(pts.clone(), r, topology, chunks);
            assert_bit_identical(&one, &many);
        }
    }
}

#[test]
fn wide_and_narrow_row_keys_build_identical_graphs() {
    // n ≤ 65 536 uses packed u32 row keys; larger n uses u64. The forced
    // wide-key build must be indistinguishable from the fast path.
    for topology in [Topology::UnitSquare, Topology::Torus] {
        let n = 400;
        let pts = sample_unit_square(n, &mut ChaCha8Rng::seed_from_u64(11));
        let r = geogossip_geometry::connectivity_radius(n, 1.5);
        let narrow = GeometricGraph::build_with_topology(pts.clone(), r, topology);
        for chunks in [1, 3] {
            let wide = GeometricGraph::build_two_pass_wide_keys(pts.clone(), r, topology, chunks);
            assert_bit_identical(&narrow, &wide);
        }
    }
}

#[test]
fn parallel_build_matches_reference_at_connectivity_radius_scale() {
    // One larger instance per topology, at the standard radius regime, so the
    // chunked fill actually spans several chunks' worth of rows.
    for (topology, seed) in [(Topology::UnitSquare, 1u64), (Topology::Torus, 2u64)] {
        let n = 6000;
        let pts = sample_unit_square(n, &mut ChaCha8Rng::seed_from_u64(seed));
        let r = geogossip_geometry::connectivity_radius(n, 1.5);
        let parallel = GeometricGraph::build_with_topology(pts.clone(), r, topology);
        let reference = GeometricGraph::build_reference(pts, r, topology);
        assert_bit_identical(&parallel, &reference);
        assert!(parallel.edge_count() > 0);
    }
}

#[test]
fn torus_rows_have_no_duplicates_at_near_half_radius() {
    // At radius 0.49 nearly every pair is adjacent and a node can reach the
    // same neighbor through several periodic images; the wrapped-cell query
    // must still report each neighbor exactly once per row.
    let n = 180;
    let pts = sample_unit_square(n, &mut ChaCha8Rng::seed_from_u64(3));
    let radius = 0.49;
    let g = GeometricGraph::build_with_topology(pts.clone(), radius, Topology::Torus);
    for i in 0..n {
        let row = g.neighbors(NodeId(i));
        assert!(
            row.windows(2).all(|w| w[0] < w[1]),
            "row {i} is not strictly ascending (duplicate or unsorted)"
        );
        let brute: Vec<u32> = (0..n)
            .filter(|&j| j != i && Topology::Torus.distance(pts[i], pts[j]) <= radius)
            .map(|j| j as u32)
            .collect();
        assert_eq!(row, brute.as_slice(), "row {i} mismatches brute force");
    }
    assert_eq!(
        g.adjacency().entry_count(),
        2 * g.edge_count(),
        "entry/edge bookkeeping broken by dedup"
    );
}

#[test]
fn tiny_radius_build_is_memory_bounded() {
    // Regression: radius 1e-7 once requested ~10^14 grid cells. The capped
    // grid keeps cell count at O(n) and the build completes instantly.
    let pts = sample_unit_square(100, &mut ChaCha8Rng::seed_from_u64(4));
    let g = GeometricGraph::build(pts, 1e-7);
    assert!(
        g.grid().cell_count() <= 1024,
        "cell cap violated: {}",
        g.grid().cell_count()
    );
    assert_eq!(g.edge_count(), 0);
    assert_eq!(g.len(), 100);
    // The reference build shares the same capped grid.
    let pts = sample_unit_square(100, &mut ChaCha8Rng::seed_from_u64(4));
    let r = GeometricGraph::build_reference(pts, 1e-7, Topology::UnitSquare);
    assert!(r.grid().cell_count() <= 1024);
}
