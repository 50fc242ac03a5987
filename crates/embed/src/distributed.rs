//! Distributed LE-list construction in the CONGEST model.
//!
//! This is the dominant stage of \[14\]'s `Õ(s)`-round virtual-tree
//! construction: a pipelined, Bellman–Ford-style propagation of Pareto
//! entries `(node, rank, dist)`. Each node starts with its own entry and
//! repeatedly relaxes received entries into its frontier; newly accepted
//! entries are queued to every other neighbor, *one entry per edge per
//! round* — the CONGEST cap the simulator enforces.
//!
//! Correctness: the protocol converges to exactly the centralized lists of
//! [`crate::le_lists`] (property-tested). Round complexity: `Õ(s)` w.h.p.
//! because only `O(log n)` entries survive per node; reported, not assumed.

use std::collections::VecDeque;

use dsf_congest::{
    id_bits, run, weight_bits, CongestConfig, Message, NodeCtx, Outbox, Protocol, RunMetrics,
};
use dsf_graph::{NodeId, Weight, WeightedGraph};

use crate::le_list::{LeEntry, LeList};

/// A Pareto entry in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeMsg {
    /// Origin node of the entry.
    pub node: NodeId,
    /// Rank of the origin node.
    pub rank: u32,
    /// Distance from the sender to the origin.
    pub dist: Weight,
}

impl Message for LeMsg {
    fn encoded_bits(&self) -> usize {
        // One node id, one rank (< n), one distance — all Θ(log n).
        id_bits(self.node.0 as usize + 1) + id_bits(self.rank as usize + 1) + weight_bits(self.dist)
    }
}

/// Per-node state of the LE protocol.
#[derive(Debug)]
pub struct LeProtocol {
    rank: u32,
    list: LeList,
    /// One FIFO of pending entry broadcasts per neighbor (by adjacency
    /// index).
    queues: Vec<VecDeque<LeMsg>>,
}

impl LeProtocol {
    /// Creates the state for a node of the given rank.
    pub fn new(rank: u32, degree: usize) -> Self {
        LeProtocol {
            rank,
            list: LeList::default(),
            queues: vec![VecDeque::new(); degree],
        }
    }

    /// The converged LE list (valid after the run quiesces).
    pub fn list(&self) -> &LeList {
        &self.list
    }

    fn enqueue_broadcast(&mut self, ctx: &NodeCtx, msg: LeMsg, except: Option<NodeId>) {
        for (qi, &(nb, _)) in ctx.neighbors().iter().enumerate() {
            if Some(nb) != except {
                self.queues[qi].push_back(msg);
            }
        }
    }

    fn flush(&mut self, ctx: &NodeCtx, out: &mut Outbox<LeMsg>) {
        for (qi, &(nb, _)) in ctx.neighbors().iter().enumerate() {
            // Drop queued entries that have been dominated since enqueueing:
            // re-sending them would waste the round.
            while let Some(front) = self.queues[qi].front() {
                let still_current = self
                    .list
                    .entries()
                    .iter()
                    .any(|e| e.node == front.node && e.dist == front.dist);
                if still_current {
                    break;
                }
                self.queues[qi].pop_front();
            }
            if let Some(msg) = self.queues[qi].pop_front() {
                out.send(nb, msg);
            }
        }
    }
}

impl Protocol for LeProtocol {
    type Msg = LeMsg;

    fn init(&mut self, ctx: &NodeCtx, out: &mut Outbox<LeMsg>) {
        let own = LeEntry {
            node: ctx.id,
            dist: 0,
            rank: self.rank,
            next_hop: None,
        };
        self.list.insert(own);
        self.enqueue_broadcast(
            ctx,
            LeMsg {
                node: ctx.id,
                rank: self.rank,
                dist: 0,
            },
            None,
        );
        self.flush(ctx, out);
    }

    fn round(&mut self, ctx: &NodeCtx, inbox: &[(NodeId, LeMsg)], out: &mut Outbox<LeMsg>) {
        let nbrs = ctx.neighbors();
        for &(from, msg) in inbox {
            let edge = nbrs
                .binary_search_by_key(&from, |&(nb, _)| nb)
                .map(|i| nbrs[i].1)
                .expect("sender is a neighbor");
            let cand = LeEntry {
                node: msg.node,
                dist: msg.dist + ctx.weight(edge),
                rank: msg.rank,
                next_hop: Some(from),
            };
            let dist = cand.dist;
            if self.list.insert(cand) {
                self.enqueue_broadcast(
                    ctx,
                    LeMsg {
                        node: msg.node,
                        rank: msg.rank,
                        dist,
                    },
                    Some(from),
                );
            }
        }
        self.flush(ctx, out);
    }

    fn done(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }
}

/// Runs the LE protocol on `g` with the given ranks; returns the lists and
/// the run metrics (the simulated construction cost).
///
/// # Errors
///
/// Propagates simulator errors (e.g. when the configured bandwidth is too
/// small for even a single entry).
pub fn le_lists_distributed(
    g: &WeightedGraph,
    ranks: &[u32],
    cfg: &CongestConfig,
) -> Result<(Vec<LeList>, RunMetrics), dsf_congest::SimError> {
    let nodes: Vec<LeProtocol> = g
        .nodes()
        .map(|v| LeProtocol::new(ranks[v.idx()], g.degree(v)))
        .collect();
    let res = run(g, nodes, cfg)?;
    let lists = res.states.into_iter().map(|p| p.list).collect();
    Ok((lists, res.metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::le_list::le_lists;
    use crate::random_ranks;
    use dsf_graph::generators;

    fn strip_hops(l: &LeList) -> Vec<(NodeId, Weight, u32)> {
        l.entries()
            .iter()
            .map(|e| (e.node, e.dist, e.rank))
            .collect()
    }

    #[test]
    fn matches_centralized_on_random_graphs() {
        for seed in 0..6 {
            // gnp, a tie-heavy grid (weights 1..16) and power-law RMAT.
            let graphs = [
                generators::gnp_connected(24, 0.15, 12, seed),
                generators::grid(5, 6, 16, seed),
                generators::rmat(40, 4, 16, seed),
            ];
            for (gi, g) in graphs.iter().enumerate() {
                let ranks = random_ranks(g.n(), seed + 50);
                let (dist_lists, metrics) =
                    le_lists_distributed(g, &ranks, &CongestConfig::for_graph(g)).unwrap();
                let central = le_lists(g, &ranks);
                for v in g.nodes() {
                    assert_eq!(
                        strip_hops(&dist_lists[v.idx()]),
                        strip_hops(&central[v.idx()]),
                        "graph {gi}, seed {seed}, node {v}"
                    );
                }
                assert!(metrics.rounds > 0);
            }
        }
    }

    #[test]
    fn next_hops_are_distance_consistent() {
        let g = generators::random_geometric(20, 0.4, 3);
        let ranks = random_ranks(20, 3);
        let (lists, _) = le_lists_distributed(&g, &ranks, &CongestConfig::for_graph(&g)).unwrap();
        for v in g.nodes() {
            for e in lists[v.idx()].entries() {
                if let Some(hop) = e.next_hop {
                    let edge = g.find_edge(v, hop).expect("hop is a neighbor");
                    // The hop lies on a shortest path: dist via hop matches.
                    let hop_entry = lists[hop.idx()].entries().iter().find(|h| h.node == e.node);
                    if let Some(h) = hop_entry {
                        assert_eq!(h.dist + g.weight(edge), e.dist);
                    }
                }
            }
        }
    }

    #[test]
    fn rounds_scale_with_shortest_path_diameter() {
        // On a path, s = n-1 and the protocol runs in Õ(s) rounds (the
        // Bellman-Ford propagation of [14]'s LE-list construction, paper
        // Section 5). The seed asserted `rounds >= n-1`, but that
        // over-constrains: propagation stops once no LE list improves, and
        // the one entry guaranteed to travel farthest is the globally
        // highest-rank node's (it belongs to every LE list). The sound
        // lower bound is that node's hop-eccentricity, which on a path is
        // its distance to the farther endpoint — ~n/2 for a random rank
        // permutation, not n-1.
        let n = 30;
        let g = generators::path(n, 3);
        let ranks = random_ranks(n, 1);
        let top = (0..n).max_by_key(|&v| ranks[v]).unwrap();
        let min_rounds = top.max(n - 1 - top) as u64;
        let (_, metrics) = le_lists_distributed(&g, &ranks, &CongestConfig::for_graph(&g)).unwrap();
        assert!(
            metrics.rounds >= min_rounds,
            "rounds = {} < eccentricity {} of the top-rank node",
            metrics.rounds,
            min_rounds
        );
        // And not absurdly more than s · max-list-size.
        assert!(
            metrics.rounds <= (n as u64 - 1) * 20,
            "rounds = {}",
            metrics.rounds
        );
    }

    #[test]
    fn single_message_per_edge_per_round_is_respected() {
        // Implicitly checked by the executor; this test just confirms a
        // dense graph still runs clean.
        let g = generators::complete(12, 30, 2);
        let ranks = random_ranks(12, 2);
        let (lists, _) = le_lists_distributed(&g, &ranks, &CongestConfig::for_graph(&g)).unwrap();
        assert!(lists.iter().all(|l| !l.is_empty()));
    }
}
