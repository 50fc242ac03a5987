//! Footprint of building the virtual-tree embedding. The installed paths
//! are one route table per node and each center's Dijkstra is dropped once
//! its paths are installed, so the build's allocation high-water mark stays
//! in the tens of KB on the `rand-mid` graphs; one `ShortestPaths` kept per
//! center costs megabytes there.
//!
//! One `#[test]` in its own test binary: the counting allocator of
//! [`dsf_bench::alloc_meter`] is process-global, and no other test may
//! allocate while it meters.

use dsf_bench::alloc_meter::{current_bytes, peak_bytes, reset_peak};
use dsf_congest::CongestConfig;
use dsf_embed::distributed::le_lists_distributed;
use dsf_embed::{random_ranks, Embedding, EmbeddingConfig};
use dsf_graph::generators;

/// Allowed high-water mark of [`Embedding::from_lists`] above the bytes
/// live at its start.
const BUDGET_BYTES: usize = 256 << 10;

#[test]
fn from_lists_peak_stays_within_budget() {
    let grid = generators::grid(16, 20, 16, 1);
    let rmat = generators::rmat(360, 4, 16, 1);
    let grid_sqrt_n = (grid.n() as f64).sqrt().ceil() as usize;
    for (name, g, truncate) in [
        ("grid(16,20)", &grid, Some(grid_sqrt_n)),
        ("rmat(360)", &rmat, None),
    ] {
        // The solver reads the graph parameters once per graph, before any
        // embedding is built; do the same so they are not metered here.
        g.parameters();
        for seed in 1..=3 {
            let ranks = random_ranks(g.n(), seed);
            let (lists, _) = le_lists_distributed(g, &ranks, &CongestConfig::for_graph(g)).unwrap();
            let cfg = EmbeddingConfig { seed, truncate };
            // The peak, not the live delta: the consumed lists are freed
            // inside the call.
            reset_peak();
            let base = current_bytes();
            let emb = Embedding::from_lists(g, &cfg, ranks, lists);
            let peak = peak_bytes() - base;
            drop(emb);
            println!("{name} seed {seed}: from_lists peak {peak} B");
            assert!(
                peak <= BUDGET_BYTES,
                "{name} seed {seed}: from_lists peaked {peak} B above its start, budget {BUDGET_BYTES} B"
            );
        }
    }
}
