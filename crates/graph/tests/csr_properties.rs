//! Property tests for the CSR adjacency refactor: on arbitrary random
//! instances, the flat CSR layout must agree exactly with the brute-force
//! O(n²) neighbor computation, and CSR-derived graph algorithms must agree
//! with independent oracles.

use geogossip_geometry::point::NodeId;
use geogossip_geometry::sampling::sample_unit_square;
use geogossip_graph::{CsrAdjacency, GeometricGraph, UnionFind};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// CSR adjacency matches the brute-force O(n²) neighbor computation for
    /// arbitrary sizes, radii, and placements.
    #[test]
    fn csr_matches_brute_force(n in 1usize..250, seed in 0u64..1000, radius in 0.01f64..0.5) {
        let pts = sample_unit_square(n, &mut ChaCha8Rng::seed_from_u64(seed));
        let g = GeometricGraph::build(pts.clone(), radius);
        let mut entries = 0usize;
        for i in 0..n {
            let brute: Vec<u32> = (0..n)
                .filter(|&j| j != i && pts[i].distance(pts[j]) <= radius)
                .map(|j| j as u32)
                .collect();
            prop_assert_eq!(g.neighbors(NodeId(i)), brute.as_slice());
            prop_assert_eq!(g.degree(NodeId(i)), brute.len());
            entries += brute.len();
        }
        prop_assert_eq!(g.adjacency().entry_count(), entries);
        prop_assert_eq!(2 * g.edge_count(), entries);
    }

    /// CSR round-trips through explicit lists.
    #[test]
    fn from_lists_round_trips(n in 0usize..120, seed in 0u64..500) {
        let pts = sample_unit_square(n, &mut ChaCha8Rng::seed_from_u64(seed));
        let g = GeometricGraph::build(pts, 0.15);
        let lists: Vec<Vec<usize>> = (0..n)
            .map(|u| g.neighbors(NodeId(u)).iter().map(|&v| v as usize).collect())
            .collect();
        let rebuilt = CsrAdjacency::from_lists(&lists);
        prop_assert_eq!(&rebuilt, g.adjacency());
    }

    /// CSR component structure agrees with a union-find oracle fed the same
    /// edges.
    #[test]
    fn components_match_union_find(n in 1usize..250, seed in 0u64..500, radius in 0.02f64..0.3) {
        let pts = sample_unit_square(n, &mut ChaCha8Rng::seed_from_u64(seed));
        let g = GeometricGraph::build(pts, radius);
        let mut uf = UnionFind::new(n);
        for (u, v) in g.edges() {
            uf.union(u, v);
        }
        let comps = g.components();
        prop_assert_eq!(comps.len(), uf.component_count());
        prop_assert_eq!(g.is_connected(), uf.component_count() <= 1);
        let mut covered: Vec<usize> = comps.concat();
        covered.sort_unstable();
        prop_assert_eq!(covered, (0..n).collect::<Vec<_>>());
    }
}
