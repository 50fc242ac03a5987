//! The Khan et al. \[14\] baseline: per-component sequential selection on the
//! virtual tree — `Õ(sk)` rounds.
//!
//! Identical embedding substrate as `dsf_core::randomized`, but the routing
//! phases handle one label at a time: component `λ+1` starts climbing only
//! after component `λ` finished, so the `k` components pay the `Õ(s)` tree
//! traversal **sequentially**. The improved algorithm's whole point
//! (Section 5, "Overview of our algorithm") is to multiplex them.

use dsf_congest::{CongestConfig, RoundLedger, SimError};
use dsf_core::primitives::build_bfs_tree;
use dsf_core::randomized::selection::run_selection_stage;
use dsf_embed::{distributed::le_lists_distributed, random_ranks, Embedding, EmbeddingConfig};
use dsf_graph::{NodeId, WeightedGraph};
use dsf_steiner::{ForestSolution, Instance, InstanceBuilder};

/// Configuration of the baseline.
#[derive(Debug, Clone)]
pub struct KhanConfig {
    /// Embedding seed.
    pub seed: u64,
    /// Independent embeddings tried; lightest kept (as in \[14\]).
    pub repetitions: usize,
}

impl Default for KhanConfig {
    fn default() -> Self {
        KhanConfig {
            seed: 1,
            repetitions: 3,
        }
    }
}

/// Result of the baseline run.
#[derive(Debug, Clone)]
pub struct KhanOutput {
    /// The solution.
    pub forest: ForestSolution,
    /// Round accounting (the headline number for E4/E11).
    pub rounds: RoundLedger,
}

/// Runs the \[14\] baseline.
///
/// # Example
///
/// ```
/// use dsf_baselines::khan::{solve_khan, KhanConfig};
/// use dsf_graph::{generators, NodeId};
/// use dsf_steiner::InstanceBuilder;
///
/// let g = generators::gnp_connected(16, 0.25, 9, 5);
/// let inst = InstanceBuilder::new(&g)
///     .component(&[NodeId(0), NodeId(11)])
///     .build()
///     .unwrap();
/// let cfg = KhanConfig { seed: 3, repetitions: 2 };
/// let out = solve_khan(&g, &inst, &cfg).unwrap();
/// assert!(inst.is_feasible(&g, &out.forest));
/// ```
///
/// # Errors
///
/// Propagates simulator errors.
pub fn solve_khan(
    g: &WeightedGraph,
    inst: &Instance,
    cfg: &KhanConfig,
) -> Result<KhanOutput, SimError> {
    let congest = CongestConfig::for_graph(g);
    let mut ledger = RoundLedger::new();
    let minimal = inst.make_minimal();
    if minimal.k() == 0 {
        return Ok(KhanOutput {
            forest: ForestSolution::empty(),
            rounds: ledger,
        });
    }
    let bfs = build_bfs_tree(g, NodeId(0), &congest)?;
    ledger.record("BFS tree construction", &bfs.metrics);

    let mut best: Option<(ForestSolution, u64)> = None;
    for rep in 0..cfg.repetitions.max(1) {
        let seed = cfg.seed.wrapping_add(rep as u64);
        let ranks = random_ranks(g.n(), seed);
        let (lists, le_metrics) = le_lists_distributed(g, &ranks, &congest)?;
        let emb = Embedding::from_lists(g, &EmbeddingConfig::new(seed), ranks, lists);
        ledger.record(format!("rep {rep}: LE-list construction"), &le_metrics);

        // Sequential per-component selection: each component pays the full
        // phase ladder on its own.
        let mut union = ForestSolution::empty();
        for (ci, comp) in minimal.components().iter().enumerate() {
            let single = InstanceBuilder::new(g)
                .component(comp)
                .build()
                .expect("one valid component");
            let sel = run_selection_stage(g, &emb, &single, &bfs, &congest)?;
            ledger.absorb(&format!("rep {rep}: component {ci}: "), sel.ledger);
            union = union.union(&sel.forest);
        }
        // The per-component trees overlap, so their union can contain
        // cycles. Reduce to a lightest spanning forest of the union (same
        // connectivity, hence still feasible) and prune to a minimal
        // feasible subset, as every other solver does before returning.
        let forest = union
            .lightest_spanning_forest(g)
            .prune_to_minimal(g, &minimal);
        let w = forest.weight(g);
        if best.as_ref().is_none_or(|(_, bw)| w < *bw) {
            best = Some((forest, w));
        }
    }
    let (forest, _) = best.expect("at least one repetition");
    Ok(KhanOutput {
        forest,
        rounds: ledger,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsf_graph::generators;
    use dsf_steiner::random_instance;

    #[test]
    fn baseline_is_feasible() {
        for seed in 0..4 {
            let g = generators::gnp_connected(20, 0.2, 9, seed);
            let inst = random_instance(&g, 3, 2, seed + 3);
            let out = solve_khan(&g, &inst, &KhanConfig::default()).unwrap();
            assert!(inst.is_feasible(&g, &out.forest), "seed {seed}");
        }
    }

    #[test]
    fn rounds_grow_with_k_faster_than_improved() {
        // The headline comparison: on the same graph, the baseline's
        // selection cost scales with k while the improved algorithm
        // multiplexes. k=6 vs k=1 should show a clear multiple.
        let g = generators::gnp_connected(36, 0.12, 10, 5);
        let cfg = KhanConfig {
            seed: 2,
            repetitions: 1,
        };
        let small = random_instance(&g, 1, 2, 1);
        let large = random_instance(&g, 6, 2, 1);
        let r_small = solve_khan(&g, &small, &cfg).unwrap().rounds.total();
        let r_large = solve_khan(&g, &large, &cfg).unwrap().rounds.total();
        assert!(
            r_large as f64 >= 2.5 * r_small as f64,
            "expected sequential scaling: k=1 -> {r_small}, k=6 -> {r_large}"
        );
    }

    #[test]
    fn empty_instance() {
        let g = generators::path(4, 1);
        let inst = dsf_steiner::InstanceBuilder::new(&g).build().unwrap();
        let out = solve_khan(&g, &inst, &KhanConfig::default()).unwrap();
        assert!(out.forest.is_empty());
    }
}
