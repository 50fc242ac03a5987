//! VPN provisioning: the classic motivation for Steiner forests — an ISP
//! must reserve capacity so that each customer's offices can reach each
//! other, paying per reserved link.
//!
//! Offices file *connection requests* (the DSF-CR form, Definition 2.1);
//! the network first converts them to input components with the Lemma 2.3
//! transformation (distributed, O(t + D) rounds), then provisions links
//! with the deterministic algorithm.
//!
//! ```text
//! cargo run --example vpn_provisioning
//! ```

use steiner_forest::core::transforms;
use steiner_forest::prelude::*;

fn main() {
    // A metro-area backbone: geometric graph, weights = link distances.
    let g = generators::random_geometric(40, 0.25, 7);
    let p = g.parameters();
    println!(
        "backbone: n={} m={} D={} s={}",
        p.n, p.m, p.diameter, p.shortest_path_diameter
    );

    // Customer Alpha: offices 1, 7, 15 request pairwise reachability
    // (requests are asymmetric: each office only knows its own peers).
    // Customer Beta: offices 22 and 33.
    let mut requests = ConnectionRequests::new(g.n());
    requests.request(NodeId(1), NodeId(7));
    requests.request(NodeId(7), NodeId(15));
    requests.request(NodeId(22), NodeId(33));

    let congest = CongestConfig::for_graph(&g);
    let (inst, transform_ledger) =
        transforms::cr_to_ic(&g, &requests, &congest).expect("model respected");
    println!(
        "\nLemma 2.3 transformation: {} components from {} requests in {} rounds",
        inst.k(),
        3,
        transform_ledger.total()
    );

    let out = solve_deterministic(&g, &inst, &DetConfig::default()).expect("model respected");
    assert!(inst.is_feasible(&g, &out.forest));
    println!(
        "provisioned {} links, total reserved capacity {}",
        out.forest.len(),
        out.forest.weight(&g)
    );

    // Sanity: both customers are connected, and the two VPNs may share
    // links only if that is cheaper — the forest never merges them
    // unnecessarily.
    let comps = g.components_of(out.forest.edges());
    assert_eq!(comps[1], comps[7]);
    assert_eq!(comps[7], comps[15]);
    assert_eq!(comps[22], comps[33]);
    println!(
        "customer networks share infrastructure: {}",
        comps[1] == comps[22]
    );
    println!(
        "\ntotal rounds (transform + solve): {}",
        transform_ledger.total() + out.rounds.total()
    );
}
