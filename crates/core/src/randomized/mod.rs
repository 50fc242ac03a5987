//! The randomized `O(log n)`-approximation (Section 5, Theorem 5.2).
//!
//! Structure:
//!
//! 1. **Virtual tree stage** — the probabilistic tree embedding of \[14\]
//!    ([`dsf_embed`]): LE lists are constructed by the simulated CONGEST
//!    protocol (the `Õ(min{s,√n})` dominant cost); ancestor chains and
//!    one route table per node (its installed paths' next hops) are
//!    derived from them ([`Embedding::from_lists`]). Footnote 2's `s` and `D` come from
//!    [`WeightedGraph::parameters`]. When `s > √n` the tree is
//!    truncated at the `√n` highest-rank nodes `S` and every node learns
//!    its closest `S`-member instead ([`dsf_embed::TruncatedChain`]).
//! 2. **Selection stage** ([`selection`]) — phases `i = 0..=L`: label
//!    custody climbs the ancestor chains; `(λ, dest)` requests are routed
//!    along the installed shortest paths with *first-message-per-`(λ,dest)`*
//!    filtering and per-edge round-robin multiplexing — the paper's key
//!    pipelining idea giving `Õ(s̃ + k)` per destination set. Every
//!    traversed edge joins `F`.
//! 3. **Second stage** ([`reduced`], `s > √n` only) — the `F`-reduced
//!    instance (Definition 5.1) is formed by clustering terminals around
//!    `S` in `(V, F)` and merging labels via the helper graph `(Λ, E_Λ)`
//!    (Lemma G.12); the reduced instance (≤ `√n` super-terminals) is
//!    solved by the `\[17\]`-substitute coordinator solver and mapped back.
//!
//! The driver repeats stage 1+2 `repetitions` times (the paper uses
//! `c·log n`) and keeps the lightest forest (Markov + amplification
//! argument in the proof of Theorem 5.2).

pub mod reduced;
pub mod selection;

use dsf_congest::{CongestConfig, RoundLedger, SimError};
use dsf_embed::{distributed::le_lists_distributed, random_ranks, Embedding, EmbeddingConfig};
use dsf_graph::{NodeId, WeightedGraph};
use dsf_steiner::{ForestSolution, Instance};

use crate::primitives::build_bfs_tree;

/// Configuration of the randomized solver.
#[derive(Debug, Clone)]
pub struct RandConfig {
    /// Base seed; repetition `r` uses `seed + r`.
    pub seed: u64,
    /// Number of independent embeddings tried (paper: `c·log n`); the
    /// lightest result is returned.
    pub repetitions: usize,
    /// Truncation override: `None` = automatic (`s > √n`), `Some(b)` =
    /// forced on/off (used by experiments to exercise both paths).
    pub force_truncation: Option<bool>,
    /// Bandwidth override.
    pub bandwidth_bits: Option<usize>,
}

impl Default for RandConfig {
    fn default() -> Self {
        RandConfig {
            seed: 1,
            repetitions: 3,
            force_truncation: None,
            bandwidth_bits: None,
        }
    }
}

/// Result of the randomized algorithm.
#[derive(Debug, Clone)]
pub struct RandOutput {
    /// The returned solution (`F` or `F ∪ F'`).
    pub forest: ForestSolution,
    /// Itemized round accounting over all repetitions.
    pub rounds: RoundLedger,
    /// Whether the `s > √n` truncated path ran.
    pub truncated: bool,
    /// Weight of the optimal solution on the chosen virtual tree
    /// (Lemma G.8 upper-bounds the stage-1 weight by this).
    pub tree_opt_weight: u64,
    /// Stage-1 weight of the chosen repetition.
    pub stage1_weight: u64,
}

/// Solves DSF-IC with the randomized algorithm
/// (Theorem 5.2: `O(log n)`-approximate, `Õ(k + min{s,√n} + D)` rounds
/// w.h.p.).
///
/// # Example
///
/// ```
/// use dsf_core::randomized::{solve_randomized, RandConfig};
/// use dsf_graph::{generators, NodeId};
/// use dsf_steiner::InstanceBuilder;
///
/// let g = generators::gnp_connected(16, 0.25, 9, 5);
/// let inst = InstanceBuilder::new(&g)
///     .component(&[NodeId(0), NodeId(11)])
///     .component(&[NodeId(3), NodeId(14)])
///     .build()
///     .unwrap();
/// let cfg = RandConfig { seed: 7, repetitions: 2, ..RandConfig::default() };
/// let out = solve_randomized(&g, &inst, &cfg).unwrap();
/// assert!(inst.is_feasible(&g, &out.forest));
/// // Deterministic per seed: the same config reproduces the run.
/// let again = solve_randomized(&g, &inst, &cfg).unwrap();
/// assert_eq!(out.forest, again.forest);
/// ```
///
/// # Errors
///
/// Propagates CONGEST model violations from the simulator.
pub fn solve_randomized(
    g: &WeightedGraph,
    inst: &Instance,
    cfg: &RandConfig,
) -> Result<RandOutput, SimError> {
    let mut congest = CongestConfig::for_graph(g);
    if let Some(b) = cfg.bandwidth_bits {
        congest.bandwidth_bits = b;
    }
    let mut ledger = RoundLedger::new();
    let minimal = inst.make_minimal();

    if minimal.k() == 0 {
        return Ok(RandOutput {
            forest: ForestSolution::empty(),
            rounds: ledger,
            truncated: false,
            tree_opt_weight: 0,
            stage1_weight: 0,
        });
    }

    // Footnote 2: s can be determined in O(D + min{s,√n}) rounds; we
    // read it (and D) off the graph's parameters and charge that bound.
    let params = g.parameters();
    let s = params.shortest_path_diameter as usize;
    let sqrt_n = (g.n() as f64).sqrt().ceil() as usize;
    let truncated = cfg.force_truncation.unwrap_or(s > sqrt_n);
    ledger.charge(
        "determine s and n (footnote 2): O(D + min{s,√n})",
        (params.diameter as usize + s.min(sqrt_n)) as u64,
    );

    let bfs = build_bfs_tree(g, NodeId(0), &congest)?;
    ledger.record("BFS tree construction", &bfs.metrics);

    let mut best: Option<(ForestSolution, u64, u64, Vec<NodeId>)> = None;
    for rep in 0..cfg.repetitions.max(1) {
        let seed = cfg.seed.wrapping_add(rep as u64);
        let emb_cfg = EmbeddingConfig {
            seed,
            truncate: truncated.then_some(sqrt_n),
        };
        // Virtual tree construction: the LE-list protocol is simulated (the
        // dominant Õ(min{s,√n}) part) and its lists build the embedding;
        // path-pointer establishment is charged per [14] (one pipelined
        // downcast per level).
        let ranks = random_ranks(g.n(), seed);
        let (lists, le_metrics) = le_lists_distributed(g, &ranks, &congest)?;
        let emb = Embedding::from_lists(g, &emb_cfg, ranks, lists);
        ledger.record(format!("rep {rep}: LE-list construction"), &le_metrics);
        // Every chain level has an installed path, so `hops_to` is defined
        // on each pair asked here.
        let mut max_hops = 0u64;
        for v in g.nodes() {
            for &c in &emb.chains[v.idx()] {
                let h = emb.hops_to(v, c).expect("chain levels are installed");
                max_hops = max_hops.max(u64::from(h));
            }
        }
        ledger.charge(
            format!("rep {rep}: ancestor path establishment (charged, [14])"),
            max_hops + emb.top_level as u64 + 1,
        );

        let sel = selection::run_selection_stage(g, &emb, &minimal, &bfs, &congest)?;
        ledger.absorb(&format!("rep {rep}: "), sel.ledger);
        // Rank repetitions by what the final cleanup will actually keep
        // (the spanning-forest reduction of the overlapping label paths),
        // not by the raw union weight — a lighter union can reduce worse.
        let w = sel.forest.lightest_spanning_forest(g).weight(g);
        let tree_opt = emb.tree_opt_weight(&minimal);
        // Lemma G.8: stage-1 weight is bounded by the tree optimum (the
        // reduction only removes edges, so the bound carries over).
        debug_assert!(
            w <= tree_opt,
            "stage-1 weight {w} exceeds tree optimum {tree_opt}"
        );
        // Stage 2 clusters around the chosen embedding's S; keep only that.
        if best.as_ref().is_none_or(|(_, bw, _, _)| w < *bw) {
            best = Some((sel.forest, w, tree_opt, emb.s_set));
        }
    }
    ledger.charge("select lightest repetition: O(D) each", bfs.height() as u64);
    let (stage1, stage1_weight, tree_opt_weight, s_set) = best.expect("at least one repetition");

    let forest = if truncated {
        let second = reduced::solve_reduced(g, &minimal, &stage1, &s_set, &mut ledger)?;
        stage1.union(&second)
    } else {
        stage1
    }
    // Overlapping per-label tree paths (stage 1) and stage-2 paths closing
    // against stage-1 edges can both create cycles; restore the forest
    // invariant without touching connectivity.
    .lightest_spanning_forest(g);

    Ok(RandOutput {
        forest,
        rounds: ledger,
        truncated,
        tree_opt_weight,
        stage1_weight,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsf_graph::generators;
    use dsf_steiner::{exact, random_instance, InstanceBuilder};

    #[test]
    fn feasible_on_random_instances() {
        for seed in 0..6 {
            let g = generators::gnp_connected(24, 0.2, 10, seed);
            let inst = random_instance(&g, 3, 2, seed + 9);
            let out = solve_randomized(&g, &inst, &RandConfig::default()).unwrap();
            assert!(inst.is_feasible(&g, &out.forest), "seed {seed}");
        }
    }

    #[test]
    fn truncated_path_is_feasible() {
        for seed in 0..4 {
            let g = generators::gnp_connected(30, 0.12, 14, seed + 20);
            let inst = random_instance(&g, 3, 3, seed);
            let cfg = RandConfig {
                force_truncation: Some(true),
                ..RandConfig::default()
            };
            let out = solve_randomized(&g, &inst, &cfg).unwrap();
            assert!(out.truncated);
            assert!(inst.is_feasible(&g, &out.forest), "seed {seed}");
        }
    }

    #[test]
    fn approximation_is_logarithmicish() {
        // Not a proof — a sanity band: with 3 repetitions the ratio to OPT
        // on tiny instances should stay below ~3·ln n.
        let mut worst: f64 = 0.0;
        for seed in 0..8 {
            let g = generators::gnp_connected(16, 0.25, 10, seed + 40);
            let inst = random_instance(&g, 2, 2, seed);
            let out = solve_randomized(&g, &inst, &RandConfig::default()).unwrap();
            let opt = exact::solve(&g, &inst).weight;
            worst = worst.max(out.forest.weight(&g) as f64 / opt as f64);
        }
        let bound = 3.0 * (16f64).ln();
        assert!(worst <= bound, "worst ratio {worst} > {bound}");
    }

    #[test]
    fn stage1_weight_bounded_by_tree_optimum() {
        let g = generators::random_geometric(25, 0.3, 5);
        let inst = random_instance(&g, 2, 3, 5);
        let out = solve_randomized(&g, &inst, &RandConfig::default()).unwrap();
        assert!(out.stage1_weight <= out.tree_opt_weight);
    }

    #[test]
    fn empty_instance() {
        let g = generators::path(4, 1);
        let inst = InstanceBuilder::new(&g).build().unwrap();
        let out = solve_randomized(&g, &inst, &RandConfig::default()).unwrap();
        assert!(out.forest.is_empty());
    }

    #[test]
    fn single_pair_on_path_uses_the_path() {
        let g = generators::path(8, 2);
        let inst = InstanceBuilder::new(&g)
            .component(&[NodeId(0), NodeId(7)])
            .build()
            .unwrap();
        let out = solve_randomized(&g, &inst, &RandConfig::default()).unwrap();
        assert!(inst.is_feasible(&g, &out.forest));
        // The only topology is the path itself.
        assert_eq!(out.forest.weight(&g), 14);
    }
}
