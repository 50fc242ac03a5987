//! The selection stage (Section 5, Steps 2–4): label custody climbs the
//! virtual tree; requests are routed physically with filtering and
//! multiplexing; traversed edges form the stage-1 output `F`.

use std::collections::{HashSet, VecDeque};

use dsf_congest::{
    id_bits, run, CongestConfig, Message, NodeCtx, Outbox, Protocol, RoundLedger, SimError,
};
use dsf_embed::{Embedding, Route};
use dsf_graph::{EdgeId, NodeId, WeightedGraph};
use dsf_steiner::{ForestSolution, Instance};

use crate::primitives::BfsOutcome;
use crate::transforms::multi_holder_labels;

/// A routed request: "connect label `label` towards destination `dest`"
/// (the paper's `(λ, v_i)` messages).
#[derive(Debug, Clone, Copy)]
pub struct RouteMsg {
    label: u32,
    dest: NodeId,
}

impl Message for RouteMsg {
    fn encoded_bits(&self) -> usize {
        id_bits(self.label as usize + 1) + id_bits(self.dest.0 as usize + 1)
    }
}

#[derive(Debug)]
struct RouteNode<'a> {
    /// This node's route table in the embedding (installed shortest paths).
    routes: &'a [Route],
    /// With truncation, `(closest S-member, next hop towards it)` on the
    /// S-Voronoi tree, consulted after `routes`.
    fallback: Option<(NodeId, NodeId)>,
    /// Locally originated requests (Step 3b's `list`).
    initial: Vec<RouteMsg>,
    /// One FIFO per neighbor — the round-robin multiplexing over
    /// destinations that yields the paper's pipelining.
    queues: Vec<VecDeque<RouteMsg>>,
    /// First-message filter per `(λ, dest)` (Step 3c).
    seen: HashSet<(u32, NodeId)>,
    /// Requests that terminated here (`dest == self`), with their last hop
    /// (`None` = originated locally), in arrival order.
    arrived: Vec<(u32, Option<NodeId>)>,
    /// Edges over which this node *received* a forwarded request
    /// ("each traversed edge is added to F").
    traversed: Vec<EdgeId>,
}

impl RouteNode<'_> {
    fn next_hop(&self, dest: NodeId) -> Option<NodeId> {
        match self.routes.binary_search_by_key(&dest, |r| r.dest) {
            Ok(i) => Some(self.routes[i].next),
            Err(_) => self.fallback.and_then(|(s, h)| (s == dest).then_some(h)),
        }
    }

    fn handle(&mut self, ctx: &NodeCtx, msg: RouteMsg, from: Option<NodeId>) {
        if !self.seen.insert((msg.label, msg.dest)) {
            return; // only the first (λ, dest) message is forwarded
        }
        if msg.dest == ctx.id {
            self.arrived.push((msg.label, from));
            return;
        }
        let hop = self
            .next_hop(msg.dest)
            .unwrap_or_else(|| panic!("{}: no route to {}", ctx.id, msg.dest));
        let qi = ctx
            .neighbors()
            .binary_search_by_key(&hop, |&(nb, _)| nb)
            .expect("next hop is a neighbor");
        self.queues[qi].push_back(msg);
    }

    fn flush(&mut self, ctx: &NodeCtx, out: &mut Outbox<RouteMsg>) {
        for (qi, &(nb, _)) in ctx.neighbors().iter().enumerate() {
            if let Some(m) = self.queues[qi].pop_front() {
                out.send(nb, m);
            }
        }
    }
}

impl Protocol for RouteNode<'_> {
    type Msg = RouteMsg;

    fn init(&mut self, ctx: &NodeCtx, out: &mut Outbox<RouteMsg>) {
        let msgs = std::mem::take(&mut self.initial);
        for m in msgs {
            self.handle(ctx, m, None);
        }
        self.flush(ctx, out);
    }

    fn round(&mut self, ctx: &NodeCtx, inbox: &[(NodeId, RouteMsg)], out: &mut Outbox<RouteMsg>) {
        let nbrs = ctx.neighbors();
        for &(from, m) in inbox {
            let edge = nbrs
                .binary_search_by_key(&from, |&(nb, _)| nb)
                .map(|i| nbrs[i].1)
                .expect("sender is a neighbor");
            // Record before filtering: the edge was traversed either way.
            self.traversed.push(edge);
            self.handle(ctx, m, Some(from));
        }
        self.flush(ctx, out);
    }

    fn done(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }
}

/// Outcome of the selection stage.
#[derive(Debug, Clone)]
pub struct SelectionResult {
    /// The stage-1 edge set `F`.
    pub forest: ForestSolution,
    /// Itemized per-phase accounting.
    pub ledger: RoundLedger,
}

/// Runs phases `i = 0..=L` of the selection stage on a built embedding.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_selection_stage(
    g: &WeightedGraph,
    emb: &Embedding,
    minimal: &Instance,
    bfs: &BfsOutcome,
    cfg: &CongestConfig,
) -> Result<SelectionResult, SimError> {
    let mut ledger = RoundLedger::new();
    // Step 2: custody starts at the terminals.
    let mut custody: Vec<Vec<u32>> = g
        .nodes()
        .map(|v| minimal.label(v).map(|l| vec![l.0]).unwrap_or_default())
        .collect();
    let mut f_edges: HashSet<EdgeId> = HashSet::new();

    for i in 0..=emb.top_level {
        // Step 3a: which labels still have two or more custodians?
        let keep = multi_holder_labels(g, bfs, &custody, cfg, &mut ledger)?;
        for c in custody.iter_mut() {
            c.retain(|l| keep.contains(l));
        }
        if keep.is_empty() {
            // Every component's custody has merged: all nodes learned this
            // from the (empty) broadcast and terminate.
            break;
        }

        // Step 3b: every custodian requests its level-i destination.
        // Step 3c: the requests follow the embedding's installed paths, or
        // the S-Voronoi tree for truncated destinations.
        let nodes: Vec<RouteNode> = g
            .nodes()
            .map(|v| {
                let t = emb.truncation.as_ref().map(|tr| &tr[v.idx()]);
                let dest = match t {
                    Some(t) if i as usize >= t.prefix_len => t.closest_s,
                    _ => emb.chains[v.idx()][i as usize],
                };
                RouteNode {
                    routes: emb.routes(v),
                    fallback: t.and_then(|t| Some((t.closest_s, t.next_hop_s?))),
                    initial: custody[v.idx()]
                        .iter()
                        .map(|&label| RouteMsg { label, dest })
                        .collect(),
                    queues: vec![VecDeque::new(); g.degree(v)],
                    seen: HashSet::new(),
                    arrived: Vec::new(),
                    traversed: Vec::new(),
                }
            })
            .collect();
        let res = run(g, nodes, cfg)?;
        ledger.record(
            format!("phase {i}: request routing (Step 3c)"),
            &res.metrics,
        );
        ledger.charge(
            format!("phase {i}: routing termination O(D)"),
            bfs.height() as u64,
        );

        // Collect traversed edges and hand custody over (Step 3d).
        let mut max_bundle = 0u64;
        let mut next_custody: Vec<Vec<u32>> = vec![Vec::new(); g.n()];
        for w in g.nodes() {
            let st = &res.states[w.idx()];
            f_edges.extend(st.traversed.iter().copied());
            if st.arrived.is_empty() {
                continue;
            }
            let mut labels: Vec<u32> = st.arrived.iter().map(|&(l, _)| l).collect();
            labels.sort_unstable();
            labels.dedup();
            max_bundle = max_bundle.max(labels.len() as u64);
            // The new custodian: the first arriving sender, or w itself for
            // locally-originated requests.
            let custodian = st.arrived[0].1.unwrap_or(w);
            next_custody[custodian.idx()].extend(labels);
        }
        for c in next_custody.iter_mut() {
            c.sort_unstable();
            c.dedup();
        }
        custody = next_custody;
        // The backtrace reuses the recorded request paths (edges already in
        // F): pipelined, ≤ path hops + bundle size rounds.
        ledger.charge(
            format!("phase {i}: custody backtrace (Step 3d)"),
            res.metrics.rounds + max_bundle,
        );
    }

    Ok(SelectionResult {
        forest: f_edges.into_iter().collect(),
        ledger,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::build_bfs_tree;
    use dsf_embed::EmbeddingConfig;
    use dsf_graph::generators;
    use dsf_steiner::random_instance;

    fn stage(
        g: &WeightedGraph,
        inst: &Instance,
        seed: u64,
        truncate: Option<usize>,
    ) -> SelectionResult {
        let cfg = CongestConfig::for_graph(g);
        let bfs = build_bfs_tree(g, NodeId(0), &cfg).unwrap();
        let emb = Embedding::build(g, &EmbeddingConfig { seed, truncate });
        run_selection_stage(g, &emb, inst, &bfs, &cfg).unwrap()
    }

    #[test]
    fn untruncated_stage_solves_the_instance() {
        // Corollary G.10: with S = ∅ the first stage alone is feasible.
        for seed in 0..6 {
            let g = generators::gnp_connected(20, 0.2, 8, seed);
            let inst = random_instance(&g, 3, 2, seed + 5);
            let out = stage(&g, &inst, seed, None);
            assert!(inst.is_feasible(&g, &out.forest), "seed {seed}");
        }
    }

    #[test]
    fn stage1_weight_bounded_by_tree_optimum() {
        // Lemma G.8.
        for seed in 0..6 {
            let g = generators::random_geometric(22, 0.35, seed);
            let inst = random_instance(&g, 2, 3, seed);
            let emb = Embedding::build(&g, &EmbeddingConfig::new(seed));
            let cfg = CongestConfig::for_graph(&g);
            let bfs = build_bfs_tree(&g, NodeId(0), &cfg).unwrap();
            let out = run_selection_stage(&g, &emb, &inst, &bfs, &cfg).unwrap();
            assert!(
                out.forest.weight(&g) <= emb.tree_opt_weight(&inst),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn truncated_stage_reaches_s_nodes() {
        // Lemma G.9(ii): with truncation every terminal's F-component
        // contains an S node or its whole component.
        for seed in 0..4 {
            let g = generators::gnp_connected(25, 0.15, 9, seed + 30);
            let inst = random_instance(&g, 2, 2, seed);
            let trunc_size = 5;
            let out = stage(&g, &inst, seed, Some(trunc_size));
            let emb = Embedding::build(
                &g,
                &EmbeddingConfig {
                    seed,
                    truncate: Some(trunc_size),
                },
            );
            let comps = g.components_of(out.forest.edges());
            let s_comps: HashSet<NodeId> = emb.s_set.iter().map(|&v| comps[v.idx()]).collect();
            for comp in inst.components() {
                let all_same = comp
                    .windows(2)
                    .all(|w| comps[w[0].idx()] == comps[w[1].idx()]);
                let touches_s = comp.iter().all(|t| s_comps.contains(&comps[t.idx()]));
                assert!(all_same || touches_s, "seed {seed}: component stranded");
            }
        }
    }

    #[test]
    fn custody_count_shrinks_per_label() {
        // After the stage, every label was reduced to a single custodian.
        let g = generators::gnp_connected(18, 0.25, 7, 3);
        let inst = random_instance(&g, 2, 4, 3);
        let out = stage(&g, &inst, 3, None);
        assert!(inst.is_feasible(&g, &out.forest));
    }
}
