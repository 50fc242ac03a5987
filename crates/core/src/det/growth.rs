//! The growth-phase variant (Section 4.2): the distributed emulation of
//! **Algorithm 2** (rounded moat radii).
//!
//! Moats change their activity status only at *checkpoints* — radii where
//! the cumulative growth hits the threshold `μ̂`, which then advances by
//! the factor `1 + ε/2` (quantized exactly as the centralized
//! [`dsf_steiner::moat_rounded`], so the two runs are comparable
//! merge-for-merge). Between checkpoints, merge phases end only at merges
//! that involve an inactive moat (Definition 4.19); merged moats stay
//! active (Algorithm 2 line 33).
//!
//! That is the only difference from Algorithm 1, and the code keeps it
//! so: [`solve_growth`] runs the same phase loop as
//! [`super::solve_deterministic`], with the rounded phase-end rule in
//! place of the exact one.
//!
//! The payoff (Corollary 4.20): the number of *growth phases* is
//! `O(log WD / ε)` (Lemma F.1), so the expensive global activity
//! recomputation — in the paper, the small/large-moat machinery with
//! matchings (Appendix F.1) — happens `O(log n/ε)` times instead of once
//! per component. We reproduce the checkpoint structure at message level
//! and charge each checkpoint's activity recomputation at the paper's
//! `O(k + D)` bound (Lemma 2.4 machinery; see DESIGN.md §3 for the
//! small/large-moat substitution note). Experiment E12 compares the
//! resulting round counts against the plain Theorem-4.17 driver as `t`
//! grows.

use dsf_congest::{CongestConfig, RoundLedger, SimError};
use dsf_graph::dyadic::Dyadic;
use dsf_graph::{NodeId, WeightedGraph};
use dsf_steiner::{ForestSolution, Instance};

use super::driver::{grow, PhaseEnd};

/// Configuration of the growth-phase solver.
#[derive(Debug, Clone)]
pub struct GrowthConfig {
    /// The `ε` of the `(2+ε)` approximation (a positive dyadic, e.g.
    /// `Dyadic::new(1, 1)` for `ε = 1/2`).
    pub eps: Dyadic,
}

impl Default for GrowthConfig {
    fn default() -> Self {
        GrowthConfig {
            eps: Dyadic::new(1, 1),
        }
    }
}

/// Result of the growth-phase algorithm.
#[derive(Debug, Clone)]
pub struct GrowthOutput {
    /// The minimal feasible solution.
    pub forest: ForestSolution,
    /// Round accounting.
    pub rounds: RoundLedger,
    /// Number of growth phases (checkpoints); Lemma F.1: `O(log WD/ε)`.
    pub growth_phases: usize,
    /// Number of merge phases (Voronoi recomputations).
    pub merge_phases: usize,
    /// Merge log: `(v, w, μ cumulative in its merge phase, merge phase)`.
    pub merges: Vec<(NodeId, NodeId, Dyadic, usize)>,
}

/// Solves DSF-IC with the distributed growth-phase algorithm
/// (Corollary 4.20: `(2+ε)`-approximate): the Theorem 4.17 phase loop
/// under Algorithm 2's checkpoint rule.
///
/// # Errors
///
/// Propagates CONGEST model violations from the simulator.
///
/// # Panics
///
/// Panics if `eps` is not positive or internal invariants break.
pub fn solve_growth(
    g: &WeightedGraph,
    inst: &Instance,
    cfg: &GrowthConfig,
) -> Result<GrowthOutput, SimError> {
    assert!(cfg.eps.is_positive(), "epsilon must be positive");
    let congest = CongestConfig::for_graph(g);
    let Some(mut run) = grow(g, inst, &congest, PhaseEnd::Rounded { eps: cfg.eps })? else {
        return Ok(GrowthOutput {
            forest: ForestSolution::empty(),
            rounds: RoundLedger::new(),
            growth_phases: 0,
            merge_phases: 0,
            merges: Vec::new(),
        });
    };
    let (forest, hops) = run.realize(g, run.fmin.iter().copied());
    run.charge_token_marking(hops);
    Ok(GrowthOutput {
        forest,
        rounds: run.ledger,
        growth_phases: run.checkpoints,
        merge_phases: run.phases,
        merges: run
            .merges
            .iter()
            .map(|m| (m.v, m.w, m.mu, m.phase))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsf_graph::generators;
    use dsf_steiner::{exact, moat_rounded, random_instance, InstanceBuilder};

    #[test]
    fn matches_centralized_algorithm_two_merges() {
        // The *merge sequences* must coincide (Lemma 4.13 transported to
        // Algorithm 2). Exact weight equality is not guaranteed: the paper
        // assumes unique path weights (Section 2), and under shortest-path
        // ties the two implementations may realize a merge with different
        // equal-weight paths whose unions differ. We therefore compare the
        // merge logs exactly and keep the weights within a small tie slack.
        for seed in 0..6 {
            let g = generators::gnp_connected(15, 0.25, 9, seed);
            let inst = random_instance(&g, 2, 2, seed + 21);
            let out = solve_growth(&g, &inst, &GrowthConfig::default()).unwrap();
            assert!(inst.is_feasible(&g, &out.forest), "seed {seed}");
            let central = moat_rounded::grow_rounded(&g, &inst, Dyadic::new(1, 1));
            let dist_pairs: Vec<(NodeId, NodeId)> =
                out.merges.iter().map(|&(v, w, _, _)| (v, w)).collect();
            let cent_pairs: Vec<(NodeId, NodeId)> =
                central.merges.iter().map(|m| (m.v, m.w)).collect();
            assert_eq!(dist_pairs, cent_pairs, "seed {seed}: merge order differs");
            let (dw, cw) = (
                out.forest.weight(&g) as f64,
                central.forest.weight(&g) as f64,
            );
            assert!(
                (dw - cw).abs() <= 0.25 * cw + 2.0,
                "seed {seed}: weights diverge beyond tie slack: {dw} vs {cw}"
            );
        }
    }

    #[test]
    fn two_plus_eps_approximation() {
        for seed in 0..5 {
            let g = generators::gnp_connected(14, 0.3, 8, seed + 60);
            let inst = random_instance(&g, 3, 2, seed);
            for eps in [Dyadic::new(1, 2), Dyadic::from_int(1)] {
                let out = solve_growth(&g, &inst, &GrowthConfig { eps }).unwrap();
                assert!(inst.is_feasible(&g, &out.forest));
                let opt = exact::solve(&g, &inst).weight as f64;
                assert!(
                    out.forest.weight(&g) as f64 <= (2.0 + eps.to_f64()) * opt + 1e-6,
                    "seed {seed}"
                );
            }
        }
    }

    #[test]
    fn growth_phase_count_matches_centralized() {
        let g = generators::path(30, 40);
        let inst = InstanceBuilder::new(&g)
            .component(&[NodeId(0), NodeId(29)])
            .build()
            .unwrap();
        let out = solve_growth(&g, &inst, &GrowthConfig::default()).unwrap();
        let central = moat_rounded::grow_rounded(&g, &inst, Dyadic::new(1, 1));
        // Same schedule, same instance: phase counts within ±1 (the
        // distributed run may skip the trailing checkpoint).
        let diff = (out.growth_phases as i64 - central.growth_phases as i64).abs();
        assert!(
            diff <= 1,
            "{} vs {}",
            out.growth_phases,
            central.growth_phases
        );
    }

    #[test]
    fn empty_instance() {
        let g = generators::path(3, 1);
        let inst = InstanceBuilder::new(&g).build().unwrap();
        let out = solve_growth(&g, &inst, &GrowthConfig::default()).unwrap();
        assert!(out.forest.is_empty());
        assert_eq!(out.growth_phases, 0);
    }
}
