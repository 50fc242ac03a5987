//! Quickstart: build a network, pose a Steiner forest instance, solve it
//! with the paper's deterministic distributed algorithm, and inspect the
//! round ledger.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use steiner_forest::prelude::*;

fn main() {
    // A random connected network of 30 nodes (the CONGEST graph is both
    // the communication topology and the problem instance).
    let g = generators::gnp_connected(30, 0.15, 20, 42);
    let p = g.parameters();
    println!(
        "network: n={} m={} D={} WD={} s={}",
        p.n, p.m, p.diameter, p.weighted_diameter, p.shortest_path_diameter
    );

    // Two input components: each set of terminals must end up connected.
    let inst = InstanceBuilder::new(&g)
        .component(&[NodeId(0), NodeId(5), NodeId(9)])
        .component(&[NodeId(12), NodeId(20), NodeId(28)])
        .build()
        .expect("disjoint components");

    // The deterministic distributed algorithm (Theorem 4.17):
    // 2-approximate, O(ks + t) rounds, bit-for-bit emulating the
    // centralized moat-growing Algorithm 1.
    let out = solve_deterministic(&g, &inst, &DetConfig::default()).expect("model respected");
    assert!(inst.is_feasible(&g, &out.forest));

    println!(
        "\nsolution: {} edges, weight {}, {} merge phases",
        out.forest.len(),
        out.forest.weight(&g),
        out.phases
    );
    println!("\nround ledger (simulated vs charged):\n{}", out.rounds);

    // The randomized algorithm (Theorem 5.2): O(log n)-approximate,
    // Õ(k + min{s,√n} + D) rounds.
    let rand = solve_randomized(&g, &inst, &RandConfig::default()).expect("model respected");
    assert!(inst.is_feasible(&g, &rand.forest));
    println!(
        "\nrandomized: weight {} (tree opt {}), rounds {}, truncated: {}",
        rand.forest.weight(&g),
        rand.tree_opt_weight,
        rand.rounds.total(),
        rand.truncated
    );
}
