//! Local-search post-processing for Steiner forests (Groß, Gupta, Kumar,
//! Matuschke, *A Local-Search Algorithm for Steiner Forest*,
//! arXiv:1707.02753).
//!
//! [`improve`] is the public name of the one forest improver in this
//! crate, [`repair::optimize`] run unscoped: the paper's edge-swap and
//! path-replace moves (replace generalized to whole degree-2 segments),
//! plus whole-component reroutes and Steiner-vertex elimination, iterated
//! to a fixpoint. Groß et al. prove forests that survive the swap/replace
//! moves are constant-approximate regardless of the starting solution;
//! the extra move families only shave further.

use dsf_graph::WeightedGraph;

use crate::instance::Instance;
use crate::repair;
use crate::solution::ForestSolution;

/// Improves `f` to a local optimum of [`repair::optimize`]'s move
/// families. Never increases weight, never breaks feasibility,
/// deterministic; idempotent at a local optimum.
///
/// # Example
///
/// ```
/// use dsf_graph::{generators, NodeId};
/// use dsf_steiner::{local_search, InstanceBuilder};
///
/// let g = generators::gnp_connected(20, 0.25, 10, 5);
/// let inst = InstanceBuilder::new(&g)
///     .component(&[NodeId(1), NodeId(18)])
///     .build()
///     .unwrap();
/// // Start from a deliberately bloated solution: every edge.
/// let all: dsf_steiner::ForestSolution = (0..g.m() as u32).map(dsf_graph::EdgeId).collect();
/// let better = local_search::improve(&g, &inst, &all);
/// assert!(inst.is_feasible(&g, &better));
/// assert!(better.weight(&g) <= all.weight(&g));
/// ```
pub fn improve(g: &WeightedGraph, inst: &Instance, f: &ForestSolution) -> ForestSolution {
    repair::optimize(g, inst, f, None).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use dsf_graph::{generators, EdgeId, GraphBuilder, NodeId};

    /// Square 0-1-2-3-0 with one heavy side; demand {0, 2}.
    fn square() -> (WeightedGraph, Instance) {
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap(); // e0
        b.add_edge(NodeId(1), NodeId(2), 1).unwrap(); // e1
        b.add_edge(NodeId(2), NodeId(3), 1).unwrap(); // e2
        b.add_edge(NodeId(3), NodeId(0), 9).unwrap(); // e3
        let g = b.build().unwrap();
        let inst = InstanceBuilder::new(&g)
            .component(&[NodeId(0), NodeId(2)])
            .build()
            .unwrap();
        (g, inst)
    }

    #[test]
    fn replace_move_reroutes_a_heavy_detour() {
        let (g, inst) = square();
        // Feasible but silly: reach node 2 over the heavy side.
        let bad = ForestSolution::from_edges(vec![EdgeId(2), EdgeId(3)]);
        let (out, moves) = repair::optimize(&g, &inst, &bad, None);
        assert_eq!(out.edges(), &[EdgeId(0), EdgeId(1)]);
        assert_eq!(out.weight(&g), 2);
        assert!(moves > 0);
        assert_eq!(improve(&g, &inst, &bad), out);
    }

    #[test]
    fn swap_move_trades_a_heavy_tree_edge_for_a_light_chord() {
        // Triangle 0-1 (7), 1-2 (1), 0-2 (1); demand {0, 1}. The direct
        // heavy edge is swapped for the two light ones... which pruning
        // then cannot split, so the local optimum is the 2-edge path.
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 7).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 1).unwrap();
        b.add_edge(NodeId(0), NodeId(2), 1).unwrap();
        let g = b.build().unwrap();
        let inst = InstanceBuilder::new(&g)
            .component(&[NodeId(0), NodeId(1)])
            .build()
            .unwrap();
        let bad = ForestSolution::from_edges(vec![EdgeId(0)]);
        let out = improve(&g, &inst, &bad);
        assert_eq!(out.weight(&g), 2);
        assert!(inst.is_feasible(&g, &out));
    }

    #[test]
    fn idempotent_at_a_local_optimum() {
        for seed in 0..5 {
            let g = generators::gnp_connected(22, 0.25, 12, seed);
            let inst = crate::random_instance(&g, 3, 3, seed);
            let all: ForestSolution = (0..g.m() as u32).map(EdgeId).collect();
            let once = improve(&g, &inst, &all);
            let (twice, moves) = repair::optimize(&g, &inst, &once, None);
            assert_eq!(once, twice, "seed {seed}");
            assert_eq!(moves, 0, "seed {seed}: local optimum still had moves");
        }
    }

    #[test]
    fn never_increases_weight_or_breaks_feasibility() {
        for seed in 0..5 {
            let g = generators::gnp_connected(24, 0.2, 10, seed + 50);
            let inst = crate::random_instance(&g, 4, 2, seed);
            let start = crate::greedy::solve_greedy(&g, &inst);
            let out = improve(&g, &inst, &start);
            assert!(out.weight(&g) <= start.weight(&g), "seed {seed}");
            assert!(inst.is_feasible(&g, &out), "seed {seed}");
            assert!(out.is_forest(&g), "seed {seed}");
        }
    }

    #[test]
    fn empty_solution_stays_empty() {
        let g = generators::path(4, 1);
        let inst = InstanceBuilder::new(&g).build().unwrap();
        let (out, moves) = repair::optimize(&g, &inst, &ForestSolution::empty(), None);
        assert!(out.is_empty());
        assert_eq!(moves, 0);
    }
}
