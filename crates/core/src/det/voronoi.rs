//! The per-phase terminal decomposition: multi-source Bellman–Ford on
//! reduced weights (Lemma 4.8).
//!
//! Sources are all nodes already owned by an *active* region, keyed by
//! their offset `wd(v,u) − rad(v)` (non-positive inside the moat). Nodes
//! owned by inactive regions are frozen walls: they neither update nor
//! forward — growth happens "only into uncovered parts of the graph"
//! (Definition 4.7). Free nodes adopt the lexicographically smallest
//! `(offset, owner, sender)` assignment and re-announce improvements, one
//! coalesced announcement per edge per round, which yields the `O(s)`
//! stabilization of distributed Bellman–Ford.

use dsf_congest::{
    id_bits, run, CongestConfig, Message, NodeCtx, Outbox, Protocol, RunMetrics, SimError,
};
use dsf_graph::dyadic::Dyadic;
use dsf_graph::{NodeId, WeightedGraph};

/// Role of a node entering the decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VorStatus {
    /// Owned by an active region: a Bellman–Ford source.
    Source {
        /// Terminal index of the owner.
        owner: u32,
        /// `wd(owner, u) − rad(owner)` at phase start.
        offset: Dyadic,
    },
    /// Owned by an inactive region: frozen, opaque to the wave.
    Blocked,
    /// Uncovered: competes in the Voronoi decomposition.
    Free,
}

/// A Voronoi announcement.
#[derive(Debug, Clone, Copy)]
pub struct VorMsg {
    owner: u32,
    offset: Dyadic,
}

impl Message for VorMsg {
    fn encoded_bits(&self) -> usize {
        id_bits(self.owner as usize + 1) + self.offset.encoded_bits()
    }
}

#[derive(Debug)]
struct VorNode {
    status: VorStatus,
    /// Free nodes: current best `(offset, owner, parent)`.
    best: Option<(Dyadic, u32, NodeId)>,
    /// Latest unsent announcement per neighbor (coalesced).
    pending: Vec<Option<VorMsg>>,
}

impl VorNode {
    fn announce(&mut self, ctx: &NodeCtx, msg: VorMsg, except: Option<NodeId>) {
        for (qi, &(nb, _)) in ctx.neighbors().iter().enumerate() {
            if Some(nb) != except {
                self.pending[qi] = Some(msg);
            }
        }
    }

    fn flush(&mut self, ctx: &NodeCtx, out: &mut Outbox<VorMsg>) {
        for (qi, &(nb, _)) in ctx.neighbors().iter().enumerate() {
            if let Some(msg) = self.pending[qi].take() {
                out.send(nb, msg);
            }
        }
    }
}

impl Protocol for VorNode {
    type Msg = VorMsg;

    fn init(&mut self, ctx: &NodeCtx, out: &mut Outbox<VorMsg>) {
        if let VorStatus::Source { owner, offset } = self.status {
            self.announce(ctx, VorMsg { owner, offset }, None);
        }
        self.flush(ctx, out);
    }

    fn round(&mut self, ctx: &NodeCtx, inbox: &[(NodeId, VorMsg)], out: &mut Outbox<VorMsg>) {
        if self.status == VorStatus::Free {
            for &(from, msg) in inbox {
                let nbrs = ctx.neighbors();
                let edge = nbrs
                    .binary_search_by_key(&from, |&(nb, _)| nb)
                    .map(|i| nbrs[i].1)
                    .expect("sender is a neighbor");
                let cand = msg.offset + Dyadic::from_weight(ctx.weight(edge));
                let better = match &self.best {
                    None => true,
                    Some((off, owner, parent)) => (cand, msg.owner, from) < (*off, *owner, *parent),
                };
                if better {
                    self.best = Some((cand, msg.owner, from));
                    self.announce(
                        ctx,
                        VorMsg {
                            owner: msg.owner,
                            offset: cand,
                        },
                        Some(from),
                    );
                }
            }
        }
        self.flush(ctx, out);
    }

    fn done(&self) -> bool {
        self.pending.iter().all(Option::is_none)
    }
}

/// Result of the decomposition stage.
#[derive(Debug, Clone)]
pub struct VoronoiOutcome {
    /// Tentative assignment per free node: `(offset, owner, parent)`;
    /// `None` for sources/blocked nodes (their state persists outside) and
    /// for unreachable free nodes (no active region exists).
    pub tentative: Vec<Option<(Dyadic, u32, NodeId)>>,
    /// Simulation metrics.
    pub metrics: RunMetrics,
}

/// Runs the decomposition.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn decompose(
    g: &WeightedGraph,
    status: &[VorStatus],
    cfg: &CongestConfig,
) -> Result<VoronoiOutcome, SimError> {
    assert_eq!(status.len(), g.n());
    let nodes: Vec<VorNode> = g
        .nodes()
        .map(|v| VorNode {
            status: status[v.idx()],
            best: None,
            pending: vec![None; g.degree(v)],
        })
        .collect();
    let res = run(g, nodes, cfg)?;
    Ok(VoronoiOutcome {
        tentative: res.states.iter().map(|s| s.best).collect(),
        metrics: res.metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsf_graph::generators;

    #[test]
    fn free_nodes_adopt_closest_active_source() {
        // Path 0-1-2-3-4, unit weights; sources at both ends with offset 0.
        let g = generators::path(5, 1);
        let mut status = vec![VorStatus::Free; 5];
        status[0] = VorStatus::Source {
            owner: 0,
            offset: Dyadic::ZERO,
        };
        status[4] = VorStatus::Source {
            owner: 1,
            offset: Dyadic::ZERO,
        };
        let out = decompose(&g, &status, &CongestConfig::for_graph(&g)).unwrap();
        let (o1, own1, _) = out.tentative[1].unwrap();
        assert_eq!((o1, own1), (Dyadic::from_int(1), 0));
        let (o3, own3, _) = out.tentative[3].unwrap();
        assert_eq!((o3, own3), (Dyadic::from_int(1), 1));
        // Equidistant node 2: smaller owner index wins.
        let (o2, own2, p2) = out.tentative[2].unwrap();
        assert_eq!((o2, own2, p2), (Dyadic::from_int(2), 0, NodeId(1)));
    }

    #[test]
    fn blocked_nodes_are_opaque() {
        // Path 0-1-2-3-4; source at 0; node 2 blocked: the wave must not
        // pass through, leaving 3 and 4 unassigned.
        let g = generators::path(5, 1);
        let mut status = vec![VorStatus::Free; 5];
        status[0] = VorStatus::Source {
            owner: 0,
            offset: Dyadic::ZERO,
        };
        status[2] = VorStatus::Blocked;
        let out = decompose(&g, &status, &CongestConfig::for_graph(&g)).unwrap();
        assert!(out.tentative[1].is_some());
        assert!(out.tentative[3].is_none());
        assert!(out.tentative[4].is_none());
    }

    #[test]
    fn negative_offsets_model_ball_interiors() {
        // Source nodes with negative offsets (inside the moat) compete
        // normally: node 2 is captured by the deeper moat.
        let g = generators::path(5, 2);
        let mut status = vec![VorStatus::Free; 5];
        status[0] = VorStatus::Source {
            owner: 0,
            offset: Dyadic::from_int(-3),
        };
        status[4] = VorStatus::Source {
            owner: 1,
            offset: Dyadic::ZERO,
        };
        let out = decompose(&g, &status, &CongestConfig::for_graph(&g)).unwrap();
        let (off2, own2, _) = out.tentative[2].unwrap();
        assert_eq!(own2, 0);
        assert_eq!(off2, Dyadic::from_int(1)); // -3 + 2 + 2
    }

    #[test]
    fn stabilizes_within_shortest_path_diameter_rounds() {
        let g = generators::gnp_connected(30, 0.15, 9, 8);
        let s = dsf_graph::metrics::shortest_path_diameter(&g) as u64;
        let mut status = vec![VorStatus::Free; 30];
        status[0] = VorStatus::Source {
            owner: 0,
            offset: Dyadic::ZERO,
        };
        let out = decompose(&g, &status, &CongestConfig::for_graph(&g)).unwrap();
        // One announcement wave per shortest-path hop plus drain slack.
        assert!(
            out.metrics.rounds <= 3 * s + 10,
            "rounds {} vs s {s}",
            out.metrics.rounds
        );
        // Offsets equal true distances.
        let sp = dsf_graph::dijkstra::shortest_paths(&g, NodeId(0));
        for v in 1..30 {
            let (off, _, _) = out.tentative[v].unwrap();
            assert_eq!(off, Dyadic::from_int(sp.dist[v] as i128));
        }
    }
}
