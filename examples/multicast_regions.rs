//! Streaming multicast: regional subscriber groups must each be spanned by
//! a distribution tree, quickly — rounds matter more than a few percent of
//! link weight. This is the regime of the paper's *randomized* algorithm
//! (Theorem 5.2): `O(log n)`-approximate but only `Õ(k + min{s,√n} + D)`
//! rounds, versus the `Õ(sk)` of the Khan et al. baseline.
//!
//! ```text
//! cargo run --example multicast_regions
//! ```

use steiner_forest::baselines::khan::{solve_khan, KhanConfig};
use steiner_forest::prelude::*;
use steiner_forest::steiner::random_instance;

fn main() {
    // A continental overlay network.
    let g = generators::gnp_connected(48, 0.1, 16, 3);
    let p = g.parameters();
    println!(
        "overlay: n={} m={} D={} s={} (√n ≈ {:.1})",
        p.n,
        p.m,
        p.diameter,
        p.shortest_path_diameter,
        (p.n as f64).sqrt()
    );

    // Six regional multicast groups of three subscribers each.
    let inst = random_instance(&g, 6, 3, 11);
    println!("groups: k={} terminals t={}", inst.k(), inst.t());

    let fast = solve_randomized(
        &g,
        &inst,
        &RandConfig {
            seed: 11,
            repetitions: 3,
            ..RandConfig::default()
        },
    )
    .expect("model respected");
    assert!(inst.is_feasible(&g, &fast.forest));

    let baseline = solve_khan(
        &g,
        &inst,
        &KhanConfig {
            seed: 11,
            repetitions: 3,
        },
    )
    .expect("model respected");
    assert!(inst.is_feasible(&g, &baseline.forest));

    // The careful deterministic algorithm for reference quality.
    let careful = solve_deterministic(&g, &inst, &DetConfig::default()).expect("model respected");

    println!("\n{:<28} {:>8} {:>8}", "algorithm", "rounds", "weight");
    println!(
        "{:<28} {:>8} {:>8}",
        "randomized (this paper)",
        fast.rounds.total(),
        fast.forest.weight(&g)
    );
    println!(
        "{:<28} {:>8} {:>8}",
        "Khan et al. [14] baseline",
        baseline.rounds.total(),
        baseline.forest.weight(&g)
    );
    println!(
        "{:<28} {:>8} {:>8}",
        "deterministic (2-approx)",
        careful.rounds.total(),
        careful.forest.weight(&g)
    );
    println!(
        "\nspeedup over [14]: {:.2}x in rounds",
        baseline.rounds.total() as f64 / fast.rounds.total() as f64
    );
}
