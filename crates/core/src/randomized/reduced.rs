//! The `F`-reduced instance (Definition 5.1) and its second-stage solve —
//! the `s > √n` completion of the randomized algorithm.
//!
//! After stage 1, every terminal is either fully connected to its component
//! in `(V, F)` or lies within `Õ(√n)` hops of an `S`-node *inside*
//! `(V, F)` (Lemma G.9). Terminals cluster around their closest `S`-node in
//! `(V, F)` (sets `T_v`, Corollary G.11); labels whose terminals share a
//! cluster merge via the helper graph `(Λ, E_Λ)` (Lemma G.12); contracting
//! each cluster yields the reduced graph `Ĝ` whose ≤ `√n` super-terminals
//! carry the merged labels.
//!
//! **Substitution (see DESIGN.md):** the paper solves the reduced instance
//! with the spanner machinery of \[17\] in `Õ(√n + D)` rounds. We solve it
//! with the centralized 2-approximate moat grower at a coordinator — a
//! *stronger* approximation (2 ≤ O(log n), so Theorem 5.2's end-to-end
//! ratio is preserved) — and charge the stage at the paper's stated round
//! bound, itemized separately in the ledger.

use std::collections::{HashMap, VecDeque};

use dsf_congest::{RoundLedger, SimError};
use dsf_graph::union_find::UnionFind;
use dsf_graph::{EdgeId, GraphBuilder, NodeId, WeightedGraph};
use dsf_steiner::{moat, ForestSolution, Instance, InstanceBuilder};

/// Assigns every node of `(V, F)` to its closest `S`-node by hop distance
/// (ties: smaller `S`-id), up to `hop_cap` hops — the sets `T_v` of
/// Corollary G.11, extended to all nodes (only terminals are used).
fn cluster_assignment(
    g: &WeightedGraph,
    f: &ForestSolution,
    s_set: &[NodeId],
    hop_cap: usize,
) -> Vec<Option<NodeId>> {
    let n = g.n();
    let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for &e in f.edges() {
        let ed = g.edge(e);
        adj[ed.u.idx()].push(ed.v);
        adj[ed.v.idx()].push(ed.u);
    }
    let mut owner: Vec<Option<NodeId>> = vec![None; n];
    let mut depth = vec![0usize; n];
    let mut q = VecDeque::new();
    // Multi-source BFS; iterating sorted S gives the smaller-id tie-break.
    let mut sorted_s: Vec<NodeId> = s_set.to_vec();
    sorted_s.sort_unstable();
    for &s in &sorted_s {
        owner[s.idx()] = Some(s);
        q.push_back(s);
    }
    while let Some(v) = q.pop_front() {
        if depth[v.idx()] >= hop_cap {
            continue;
        }
        let mut nbs = adj[v.idx()].clone();
        nbs.sort_unstable();
        for u in nbs {
            if owner[u.idx()].is_none() {
                owner[u.idx()] = owner[v.idx()];
                depth[u.idx()] = depth[v.idx()] + 1;
                q.push_back(u);
            }
        }
    }
    owner
}

/// Builds and solves the `F`-reduced instance around the truncation set
/// `S` (`s_set`); returns the inducing edge set `F'` in the original graph.
///
/// # Errors
///
/// Propagates simulator errors (none arise: all stage costs here are
/// charged, as documented).
pub fn solve_reduced(
    g: &WeightedGraph,
    minimal: &Instance,
    stage1: &ForestSolution,
    s_set: &[NodeId],
    ledger: &mut RoundLedger,
) -> Result<ForestSolution, SimError> {
    let n = g.n();
    assert!(!s_set.is_empty(), "reduced stage requires a truncation");
    let sqrt_n = (n as f64).sqrt().ceil() as u64;
    let log_n = (n.max(2) as f64).log2().ceil() as u64;
    let diameter = u64::from(g.parameters().diameter);

    // Corollary G.11: cluster terminals around S inside (V, F).
    let hop_cap = (2 * sqrt_n * log_n) as usize;
    let owner = cluster_assignment(g, stage1, s_set, hop_cap);
    ledger.charge(
        "cluster assignment on (V,F) (Cor. G.11): O(√n log n)",
        2 * sqrt_n * log_n,
    );

    // Helper graph (Λ, E_Λ): labels sharing a cluster merge (Lemma G.12).
    let k = minimal.k();
    let mut label_uf = UnionFind::new(k);
    let mut cluster_label: HashMap<NodeId, usize> = HashMap::new();
    for v in g.nodes() {
        if let (Some(l), Some(c)) = (minimal.label(v), owner[v.idx()]) {
            match cluster_label.get(&c) {
                Some(&first) => {
                    label_uf.union(first, l.idx());
                }
                None => {
                    cluster_label.insert(c, l.idx());
                }
            }
        }
    }
    ledger.charge(
        "helper graph components (Lemma G.12): O(√n + k + D)",
        sqrt_n + k as u64 + diameter,
    );

    // Contract each cluster's terminals: node -> reduced-node id.
    // Reduced ids: one per S-node with assigned terminals, then Vr nodes.
    let mut cluster_id: HashMap<NodeId, u32> = HashMap::new();
    let mut rep: Vec<u32> = vec![u32::MAX; n];
    let mut next = 0u32;
    for v in g.nodes() {
        if minimal.label(v).is_some() {
            if let Some(c) = owner[v.idx()] {
                let id = *cluster_id.entry(c).or_insert_with(|| {
                    let id = next;
                    next += 1;
                    id
                });
                rep[v.idx()] = id;
            }
        }
    }
    for v in g.nodes() {
        if rep[v.idx()] == u32::MAX {
            rep[v.idx()] = next;
            next += 1;
        }
    }
    let reduced_n = next as usize;

    // Reduced edges: minimum weight per pair, remembering the inducing
    // original edge (Definition 5.1's Ŵ).
    let mut best: HashMap<(u32, u32), (u64, EdgeId)> = HashMap::new();
    for (ei, e) in g.edges().iter().enumerate() {
        let (ru, rv) = (rep[e.u.idx()], rep[e.v.idx()]);
        if ru == rv {
            continue;
        }
        let key = (ru.min(rv), ru.max(rv));
        let cand = (e.w, EdgeId(ei as u32));
        match best.get(&key) {
            Some(&(w, _)) if w <= e.w => {}
            _ => {
                best.insert(key, cand);
            }
        }
    }
    let mut rb = GraphBuilder::new(reduced_n);
    let mut reduced_to_orig: HashMap<EdgeId, EdgeId> = HashMap::new();
    let mut keys: Vec<(u32, u32)> = best.keys().copied().collect();
    keys.sort_unstable();
    for key in keys {
        let (w, orig) = best[&key];
        let re = rb
            .add_edge(NodeId(key.0), NodeId(key.1), w)
            .expect("deduplicated reduced edges");
        reduced_to_orig.insert(re, orig);
    }
    let reduced_g = rb.build().expect("contraction preserves connectivity");

    // Reduced terminals: clusters, labeled by their merged label class.
    let mut class_members: HashMap<usize, Vec<NodeId>> = HashMap::new();
    for (&c, &first_label) in &cluster_label {
        let class = label_uf.find(first_label);
        class_members
            .entry(class)
            .or_default()
            .push(NodeId(cluster_id[&c]));
    }
    let mut ib = InstanceBuilder::new(&reduced_g);
    let mut classes: Vec<usize> = class_members.keys().copied().collect();
    classes.sort_unstable();
    for class in classes {
        let mut members = class_members[&class].clone();
        members.sort_unstable();
        members.dedup();
        ib = ib.component(&members);
    }
    let reduced_inst = ib.build().expect("clusters are distinct reduced nodes");

    // Coordinator solve ([17] substitute; approximation factor 2).
    let run = moat::grow(&reduced_g, &reduced_inst);
    ledger.charge(
        "[17]-substitute second stage (charged at paper bound): Õ(√n + D)",
        sqrt_n * log_n + diameter,
    );

    let mapped: Vec<EdgeId> = run
        .forest
        .edges()
        .iter()
        .map(|re| reduced_to_orig[re])
        .collect();
    Ok(ForestSolution::from_edges(mapped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsf_congest::CongestConfig;
    use dsf_embed::{Embedding, EmbeddingConfig};
    use dsf_graph::generators;
    use dsf_steiner::random_instance;

    #[test]
    fn cluster_assignment_respects_forest_and_ties() {
        // Path 0-1-2-3-4 with F = all edges; S = {0, 4}.
        let g = generators::path(5, 1);
        let f: ForestSolution = (0..4).map(EdgeId).collect();
        let owner = cluster_assignment(&g, &f, &[NodeId(0), NodeId(4)], 10);
        assert_eq!(owner[1], Some(NodeId(0)));
        assert_eq!(owner[3], Some(NodeId(4)));
        // Equidistant: smaller S id.
        assert_eq!(owner[2], Some(NodeId(0)));
        // Empty F: only S nodes assigned.
        let owner2 = cluster_assignment(&g, &ForestSolution::empty(), &[NodeId(0)], 10);
        assert_eq!(owner2[0], Some(NodeId(0)));
        assert_eq!(owner2[1], None);
    }

    #[test]
    fn hop_cap_limits_assignment() {
        let g = generators::path(6, 1);
        let f: ForestSolution = (0..5).map(EdgeId).collect();
        let owner = cluster_assignment(&g, &f, &[NodeId(0)], 2);
        assert_eq!(owner[2], Some(NodeId(0)));
        assert_eq!(owner[3], None);
    }

    #[test]
    fn reduced_solve_completes_the_solution() {
        for seed in 0..4 {
            let g = generators::gnp_connected(28, 0.15, 10, seed + 11);
            let inst = random_instance(&g, 3, 2, seed);
            let minimal = inst.make_minimal();
            let cfg = CongestConfig::for_graph(&g);
            let bfs = crate::primitives::build_bfs_tree(&g, NodeId(0), &cfg).unwrap();
            let emb = Embedding::build(
                &g,
                &EmbeddingConfig {
                    seed,
                    truncate: Some(6),
                },
            );
            let sel =
                crate::randomized::selection::run_selection_stage(&g, &emb, &minimal, &bfs, &cfg)
                    .unwrap();
            let mut ledger = RoundLedger::new();
            let second = solve_reduced(&g, &minimal, &sel.forest, &emb.s_set, &mut ledger).unwrap();
            let union = sel.forest.union(&second);
            assert!(inst.is_feasible(&g, &union), "seed {seed}");
            assert!(ledger.charged() > 0);
        }
    }
}
