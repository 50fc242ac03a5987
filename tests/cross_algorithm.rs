//! Cross-crate integration: every solver on common instance suites, with
//! the paper's inequality chain checked end-to-end:
//!
//! `dual ≤ OPT ≤ W(det) ≤ 2·OPT`, `W(growth) ≤ (2+ε)·OPT`,
//! `W(randomized) ≤ O(log n)·OPT`, and all outputs feasible.
//!
//! The assertions themselves live in `workloads::conformance` — the same
//! oracle layer the corpus tier (`tests/conformance.rs`) and
//! `bench_runner --conformance` run.

use steiner_forest::baselines::khan::{solve_khan, KhanConfig};
use steiner_forest::baselines::solve_collect_at_root;
use steiner_forest::core::det::{solve_growth, GrowthConfig};
use steiner_forest::graph::dyadic::Dyadic;
use steiner_forest::prelude::*;
use steiner_forest::steiner::{exact, moat, moat_rounded, random_instance};
use steiner_forest::workloads::conformance::{
    assert_feasible_forest, assert_ledger_budget, assert_ratio_le, det_merge_pairs,
    moat_merge_pairs, randomized_log_factor,
};

fn suite() -> Vec<(WeightedGraph, Instance)> {
    let mut cases = Vec::new();
    for seed in 0..4u64 {
        let g = generators::gnp_connected(16, 0.25, 10, seed);
        let inst = random_instance(&g, 3, 2, seed + 50);
        cases.push((g, inst));
    }
    for seed in 0..2u64 {
        let g = generators::random_geometric(16, 0.4, seed);
        let inst = random_instance(&g, 2, 3, seed);
        cases.push((g, inst));
    }
    let g = generators::grid(3, 5, 6, 1);
    let inst = random_instance(&g, 2, 2, 9);
    cases.push((g, inst));
    cases
}

#[test]
fn inequality_chain_holds_everywhere() {
    for (i, (g, inst)) in suite().into_iter().enumerate() {
        let ctx = format!("case {i}");
        let opt = exact::solve(&g, &inst).weight as f64;
        let central = moat::grow(&g, &inst);
        let dual = central.dual.to_f64();
        assert!(dual <= opt + 1e-9, "{ctx}: dual {dual} > OPT {opt}");

        let det = solve_deterministic(&g, &inst, &DetConfig::default()).unwrap();
        let wd = det.forest.weight(&g);
        assert_feasible_forest(&g, &inst, &det.forest, &format!("{ctx}: det"));
        assert!(opt <= wd as f64 + 1e-9, "{ctx}: det below OPT");
        assert_ratio_le(wd, 2.0, opt, &format!("{ctx}: det ratio"));

        let growth = solve_growth(&g, &inst, &GrowthConfig::default()).unwrap();
        assert_feasible_forest(&g, &inst, &growth.forest, &format!("{ctx}: growth"));
        assert_ratio_le(
            growth.forest.weight(&g),
            2.5,
            opt,
            &format!("{ctx}: growth ratio"),
        );

        let rand = solve_randomized(&g, &inst, &RandConfig::default()).unwrap();
        assert_feasible_forest(&g, &inst, &rand.forest, &format!("{ctx}: rand"));
        assert_ratio_le(
            rand.forest.weight(&g),
            randomized_log_factor(g.n()),
            opt,
            &format!("{ctx}: rand ratio"),
        );
    }
}

#[test]
fn baselines_agree_on_feasibility_and_quality() {
    for (i, (g, inst)) in suite().into_iter().enumerate() {
        let ctx = format!("case {i}");
        let collect = solve_collect_at_root(&g, &inst).unwrap();
        assert_feasible_forest(&g, &inst, &collect.forest, &format!("{ctx}: collect"));
        // Collect-at-root runs Algorithm 1 centrally: identical output.
        let central = moat::grow(&g, &inst);
        assert_eq!(collect.forest, central.forest, "{ctx}");

        let khan = solve_khan(&g, &inst, &KhanConfig::default()).unwrap();
        assert_feasible_forest(&g, &inst, &khan.forest, &format!("{ctx}: khan"));
    }
}

#[test]
fn deterministic_equals_centralized_merge_for_merge() {
    for (i, (g, inst)) in suite().into_iter().enumerate() {
        let det = solve_deterministic(&g, &inst, &DetConfig::default()).unwrap();
        let central = moat::grow(&g, &inst);
        assert_eq!(
            det_merge_pairs(&det),
            moat_merge_pairs(&central),
            "case {i}: merge sequences differ"
        );
        assert_eq!(
            det.forest.weight(&g),
            central.forest.weight(&g),
            "case {i}: weights differ"
        );

        // Algorithm 2: the same phase loop under the checkpoint rule
        // replays the centralized rounded run merge for merge.
        let cfg = GrowthConfig::default();
        let growth = solve_growth(&g, &inst, &cfg).unwrap();
        let rounded = moat_rounded::grow_rounded(&g, &inst, cfg.eps);
        let growth_pairs: Vec<(NodeId, NodeId)> =
            growth.merges.iter().map(|&(v, w, _, _)| (v, w)).collect();
        let rounded_pairs: Vec<(NodeId, NodeId)> =
            rounded.merges.iter().map(|m| (m.v, m.w)).collect();
        assert_eq!(
            growth_pairs, rounded_pairs,
            "case {i}: growth merge sequence differs from Algorithm 2"
        );
        assert_eq!(
            growth.growth_phases, rounded.growth_phases,
            "case {i}: growth phases differ from Algorithm 2"
        );
    }
}

#[test]
fn growth_eps_sweep_shrinks_checkpoints() {
    let g = generators::path(30, 20);
    let inst = InstanceBuilder::new(&g)
        .component(&[NodeId(0), NodeId(29)])
        .build()
        .unwrap();
    let tight = solve_growth(
        &g,
        &inst,
        &GrowthConfig {
            eps: Dyadic::new(1, 3), // 1/8
        },
    )
    .unwrap();
    let loose = solve_growth(
        &g,
        &inst,
        &GrowthConfig {
            eps: Dyadic::from_int(2),
        },
    )
    .unwrap();
    assert!(
        loose.growth_phases < tight.growth_phases,
        "larger ε must mean fewer checkpoints: {} vs {}",
        loose.growth_phases,
        tight.growth_phases
    );
}

#[test]
fn ledgers_are_internally_consistent() {
    let g = generators::gnp_connected(20, 0.2, 8, 3);
    let inst = random_instance(&g, 3, 2, 3);
    let det = solve_deterministic(&g, &inst, &DetConfig::default()).unwrap();
    assert_eq!(
        det.rounds.total(),
        det.rounds.simulated() + det.rounds.charged()
    );
    assert!(det.rounds.simulated() > 0, "core stages must be simulated");
    assert!(det.rounds.messages() > 0);
    // Every simulated stage respects the CONGEST bandwidth budget.
    let b = CongestConfig::for_graph(&g).bandwidth_bits;
    assert_ledger_budget(&det.rounds, b, "det ledger");
    let growth = solve_growth(&g, &inst, &GrowthConfig::default()).unwrap();
    assert_ledger_budget(&growth.rounds, b, "growth ledger");
    // Phase structure appears in the ledger labels.
    let n_phases = det
        .rounds
        .entries()
        .iter()
        .filter(|e| e.label.contains("terminal decomposition"))
        .count();
    assert_eq!(n_phases, det.phases);
}
