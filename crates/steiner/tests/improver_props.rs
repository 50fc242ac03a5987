//! Property-based tests for the forest improver `repair::optimize` (and
//! `local_search::improve`, its unscoped public name): on random
//! corpus-style instances it is feasibility-preserving (via the
//! conformance oracle's `assert_feasible_forest`), never heavier than its
//! start, deterministic, and idempotent at a local optimum.

use proptest::prelude::*;

use dsf_graph::{generators, EdgeId};
use dsf_steiner::{greedy, local_search, random_instance, repair, ForestSolution};
use dsf_workloads::conformance::assert_feasible_forest;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Feasibility is preserved from any feasible starting point — here
    /// the full edge set, the loosest feasible solution there is.
    #[test]
    fn improve_preserves_feasibility(seed in 0u64..500, n in 8usize..26, k in 1usize..4) {
        let g = generators::gnp_connected(n, 0.25, 12, seed);
        let inst = random_instance(&g, k, 2, seed);
        let all: ForestSolution = (0..g.m() as u32).map(EdgeId).collect();
        let out = local_search::improve(&g, &inst, &all);
        assert_feasible_forest(&g, &inst, &out, &format!("improve, seed {seed}"));
        prop_assert!(out.weight(&g) <= all.weight(&g));
    }

    /// Accepted moves strictly decrease weight: `optimize` asserts that
    /// per move in debug builds, so a run reaching its fixpoint under
    /// `cargo test` is the per-move check. End to end, the result is
    /// never heavier than the start, and a second pass accepts nothing.
    #[test]
    fn accepted_moves_strictly_decrease_weight(seed in 0u64..500, n in 8usize..24) {
        let g = generators::gnp_connected(n, 0.3, 10, seed);
        let inst = random_instance(&g, 3, 2, seed);
        let all: ForestSolution = (0..g.m() as u32).map(EdgeId).collect();
        let (out, _) = repair::optimize(&g, &inst, &all, None);
        prop_assert!(out.weight(&g) <= all.weight(&g));
        let (again, moves) = repair::optimize(&g, &inst, &out, None);
        prop_assert_eq!(moves, 0);
        prop_assert_eq!(again, out);
    }

    /// Same input, same output — byte-for-byte, move count included.
    #[test]
    fn improve_is_deterministic(seed in 0u64..500, n in 8usize..22) {
        let g = generators::gnp_connected(n, 0.25, 11, seed);
        let inst = random_instance(&g, 2, 3, seed);
        let start = greedy::solve_greedy(&g, &inst);
        let a = repair::optimize(&g, &inst, &start, None);
        let b = repair::optimize(&g, &inst, &start, None);
        prop_assert_eq!(a, b);
    }

    /// A local optimum is a fixed point: improving twice changes nothing
    /// and the second pass accepts zero moves.
    #[test]
    fn improve_is_idempotent_at_a_local_optimum(seed in 0u64..500, n in 8usize..22) {
        let g = generators::gnp_connected(n, 0.3, 9, seed);
        let inst = random_instance(&g, 3, 2, seed);
        let once = local_search::improve(&g, &inst, &greedy::solve_greedy(&g, &inst));
        let (again, moves) = repair::optimize(&g, &inst, &once, None);
        prop_assert_eq!(&again, &once);
        prop_assert_eq!(moves, 0, "second pass still found moves");
    }

    /// Improving the greedy solution never does worse than greedy — the
    /// pairing the conformance lab reports as `greedy+local_search`.
    #[test]
    fn improved_greedy_never_loses_to_greedy(seed in 0u64..500, n in 10usize..24) {
        let g = generators::gnp_connected(n, 0.25, 10, seed);
        let inst = random_instance(&g, 3, 3, seed);
        let start = greedy::solve_greedy(&g, &inst);
        let out = local_search::improve(&g, &inst, &start);
        prop_assert!(out.weight(&g) <= start.weight(&g));
        assert_feasible_forest(&g, &inst, &out, &format!("greedy+improve, seed {seed}"));
    }
}
