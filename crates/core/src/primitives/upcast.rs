//! Pipelined, cycle-filtered convergecast of candidate merges —
//! the MST-style "edge elimination" of Garay–Kutten–Peleg, as used by
//! Lemma 4.14 and Corollary 4.16.
//!
//! Every node holds a set of candidates (weighted edges of the candidate
//! multigraph `G_c` over terminals). Candidates stream up a BFS tree in
//! ascending order, one per edge per round; each node discards candidates
//! that close a cycle with smaller candidates it has already seen (safe by
//! the matroid argument: a locally-discarded candidate is also globally
//! redundant). The root consumes a globally ascending stream and either
//! drains it fully ([`UpcastMode::DrainAll`], used by Lemma 2.3's request
//! collection) or applies a verdict function that can accept-and-stop
//! ([`UpcastMode::PhaseDetect`], used per merge phase by Corollary 4.16,
//! where the phase ends at the first activity-changing merge); stopping
//! floods a `Stop` wave that aborts the remaining stream.
//!
//! The ascending-order guarantee is enforced with per-child watermarks:
//! a node forwards its minimal pending candidate only once every non-
//! exhausted child has streamed something at least as large (child streams
//! are themselves ascending). Exhaustion is signalled by `Done` messages
//! propagating up once subtrees drain.

use std::collections::BinaryHeap;

use dsf_congest::{
    id_bits, run, CongestConfig, Message, NodeCtx, Outbox, Protocol, RunMetrics, SimError,
};
use dsf_graph::dyadic::Dyadic;
use dsf_graph::union_find::UnionFind;
use dsf_graph::{EdgeId, NodeId, WeightedGraph};

/// A candidate merge: an edge `{a, b}` of the candidate multigraph with
/// its merge time `mu`, induced by graph edge `edge`.
///
/// The derived ordering `(mu, a, b, edge)` is the paper's lexicographic
/// candidate order (Definition 4.12 / Lemma 4.13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct UpcastCandidate {
    /// Merge time / reduced weight.
    pub mu: Dyadic,
    /// Smaller terminal index.
    pub a: u32,
    /// Larger terminal index.
    pub b: u32,
    /// The inducing graph edge.
    pub edge: EdgeId,
}

#[derive(Debug, Clone, Copy)]
enum UpMsg {
    Cand(UpcastCandidate),
    Done,
    Stop,
}

impl Message for UpMsg {
    fn encoded_bits(&self) -> usize {
        match self {
            UpMsg::Cand(c) => {
                c.mu.encoded_bits()
                    + id_bits(c.a as usize + 1)
                    + id_bits(c.b as usize + 1)
                    + id_bits(c.edge.0 as usize + 1)
                    + 2
            }
            UpMsg::Done | UpMsg::Stop => 2,
        }
    }
}

/// The root's decision for an accepted (cycle-free) candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpcastRootVerdict {
    /// Keep collecting.
    Accept,
    /// This candidate ends the phase: accept it and stop the stream.
    AcceptAndStop,
    /// Stop *without* accepting this candidate (used by the growth-phase
    /// variant when a candidate's merge time lies beyond the checkpoint
    /// threshold `μ̂`, Algorithm 2 line 16).
    StopBefore,
}

/// How the root terminates.
pub enum UpcastMode<'a> {
    /// Drain the entire stream.
    DrainAll,
    /// Ask the verdict function after each accepted candidate. The
    /// closure is `Send` because it lives inside a protocol node, which
    /// the sharded executor may move to a worker thread.
    PhaseDetect(Box<dyn FnMut(&UpcastCandidate) -> UpcastRootVerdict + Send + 'a>),
}

struct UpcastNode<'a> {
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    pending: BinaryHeap<std::cmp::Reverse<UpcastCandidate>>,
    uf: UnionFind,
    /// Last candidate received per child (stream is ascending).
    watermark: Vec<Option<UpcastCandidate>>,
    child_done: Vec<bool>,
    sent_done: bool,
    stopped: bool,
    forwarded_stop: bool,
    /// Root only: accepted candidates and the verdict function.
    accepted: Vec<UpcastCandidate>,
    mode: Option<UpcastMode<'a>>,
    emit_stop: bool,
}

impl std::fmt::Debug for UpcastNode<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpcastNode")
            .field("pending", &self.pending.len())
            .field("stopped", &self.stopped)
            .finish()
    }
}

impl UpcastNode<'_> {
    fn is_root(&self) -> bool {
        self.parent.is_none()
    }

    fn child_index(&self, from: NodeId) -> Option<usize> {
        self.children.iter().position(|&c| c == from)
    }

    /// Largest candidate we may currently emit: the min watermark over
    /// children that are still streaming (`None` = must wait).
    fn emit_bound(&self) -> Option<Option<UpcastCandidate>> {
        // Returns Some(bound) where bound=None means "unbounded";
        // outer None means "blocked by a silent child".
        let mut bound: Option<UpcastCandidate> = None;
        for (i, done) in self.child_done.iter().enumerate() {
            if *done {
                continue;
            }
            match self.watermark[i] {
                None => return None,
                Some(w) => {
                    bound = Some(match bound {
                        None => w,
                        Some(b) => b.min(w),
                    });
                }
            }
        }
        Some(bound)
    }

    /// Pops the minimal pending candidate that survives cycle filtering and
    /// respects the emit bound.
    fn next_emittable(&mut self) -> Option<UpcastCandidate> {
        let bound = self.emit_bound()?;
        loop {
            let &std::cmp::Reverse(top) = self.pending.peek()?;
            if let Some(b) = bound {
                if top > b {
                    return None;
                }
            }
            self.pending.pop();
            if self.uf.union(top.a as usize, top.b as usize) {
                return Some(top);
            }
            // Cycle with smaller candidates: discard and continue.
        }
    }

    fn step(&mut self, ctx: &NodeCtx, out: &mut Outbox<UpMsg>) {
        if self.stopped {
            if !self.forwarded_stop {
                self.forwarded_stop = true;
                for &c in &self.children {
                    out.send(c, UpMsg::Stop);
                }
            }
            return;
        }
        if self.is_root() {
            // Consume as much of the globally-ascending stream as possible.
            // The verdict runs *before* the union so that `StopBefore` can
            // reject a candidate without distorting the cycle filter.
            while let Some(bound) = self.emit_bound() {
                let Some(&std::cmp::Reverse(top)) = self.pending.peek() else {
                    break;
                };
                if let Some(b) = bound {
                    if top > b {
                        break;
                    }
                }
                self.pending.pop();
                if self.uf.same(top.a as usize, top.b as usize) {
                    continue; // cycle with smaller accepted candidates
                }
                let verdict = match &mut self.mode {
                    Some(UpcastMode::DrainAll) | None => UpcastRootVerdict::Accept,
                    Some(UpcastMode::PhaseDetect(f)) => f(&top),
                };
                let stop = match verdict {
                    UpcastRootVerdict::Accept => {
                        self.uf.union(top.a as usize, top.b as usize);
                        self.accepted.push(top);
                        false
                    }
                    UpcastRootVerdict::AcceptAndStop => {
                        self.uf.union(top.a as usize, top.b as usize);
                        self.accepted.push(top);
                        true
                    }
                    UpcastRootVerdict::StopBefore => true,
                };
                if stop {
                    self.stopped = true;
                    self.emit_stop = true;
                    self.forwarded_stop = true;
                    for &ch in &self.children {
                        out.send(ch, UpMsg::Stop);
                    }
                    return;
                }
            }
        } else {
            // Forward one candidate to the parent per round.
            if let Some(c) = self.next_emittable() {
                out.send(self.parent.unwrap(), UpMsg::Cand(c));
            } else if !self.sent_done
                && self.pending.is_empty()
                && self.child_done.iter().all(|&d| d)
            {
                self.sent_done = true;
                out.send(self.parent.unwrap(), UpMsg::Done);
            }
            let _ = ctx;
        }
    }
}

impl Protocol for UpcastNode<'_> {
    type Msg = UpMsg;

    fn init(&mut self, ctx: &NodeCtx, out: &mut Outbox<UpMsg>) {
        self.step(ctx, out);
    }

    fn round(&mut self, ctx: &NodeCtx, inbox: &[(NodeId, UpMsg)], out: &mut Outbox<UpMsg>) {
        for &(from, msg) in inbox {
            match msg {
                UpMsg::Cand(c) => {
                    let i = self
                        .child_index(from)
                        .expect("candidates come from children");
                    self.watermark[i] = Some(c);
                    self.pending.push(std::cmp::Reverse(c));
                }
                UpMsg::Done => {
                    let i = self.child_index(from).expect("done comes from children");
                    self.child_done[i] = true;
                }
                UpMsg::Stop => {
                    self.stopped = true;
                }
            }
        }
        self.step(ctx, out);
    }

    fn done(&self) -> bool {
        if self.stopped {
            return self.forwarded_stop || self.children.is_empty();
        }
        if self.is_root() {
            self.child_done.iter().all(|&d| d) && self.pending.is_empty()
        } else {
            self.sent_done
        }
    }
}

/// Result of a filtered upcast.
#[derive(Debug, Clone)]
pub struct UpcastOutcome {
    /// Candidates accepted at the root, in ascending order.
    pub accepted: Vec<UpcastCandidate>,
    /// Whether the root stopped the stream early.
    pub stopped_early: bool,
    /// Simulation metrics.
    pub metrics: RunMetrics,
}

/// Runs the filtered upcast.
///
/// * `tree`: `(parent, children)` of a BFS tree (root has `parent=None`);
/// * `local`: per-node candidate sets;
/// * `prior`: component representative per terminal index (the connectivity
///   of `(T, F'_c)` from previous phases — Lemma 4.14's tagging);
/// * `mode`: drain fully or detect a phase end.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn filtered_upcast(
    g: &WeightedGraph,
    parent: &[Option<NodeId>],
    children: &[Vec<NodeId>],
    local: Vec<Vec<UpcastCandidate>>,
    prior: &[u32],
    mode: UpcastMode<'_>,
    cfg: &CongestConfig,
) -> Result<UpcastOutcome, SimError> {
    assert_eq!(local.len(), g.n());
    let mut prior_uf = UnionFind::new(prior.len());
    for (i, &rep) in prior.iter().enumerate() {
        prior_uf.union(i, rep as usize);
    }
    let root = g
        .nodes()
        .find(|v| parent[v.idx()].is_none())
        .expect("tree has a root");
    let mut mode_slot = Some(mode);
    let nodes: Vec<UpcastNode> = g
        .nodes()
        .map(|v| UpcastNode {
            parent: parent[v.idx()],
            children: children[v.idx()].clone(),
            pending: local[v.idx()]
                .iter()
                .map(|&c| std::cmp::Reverse(c))
                .collect(),
            uf: prior_uf.clone(),
            watermark: vec![None; children[v.idx()].len()],
            child_done: vec![false; children[v.idx()].len()],
            sent_done: false,
            stopped: false,
            forwarded_stop: false,
            accepted: Vec::new(),
            mode: if v == root { mode_slot.take() } else { None },
            emit_stop: false,
        })
        .collect();
    let res = run(g, nodes, cfg)?;
    let root_state = &res.states[root.idx()];
    Ok(UpcastOutcome {
        accepted: root_state.accepted.clone(),
        stopped_early: root_state.emit_stop,
        metrics: res.metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::build_bfs_tree;
    use dsf_graph::generators;

    fn cand(mu: i128, a: u32, b: u32, e: u32) -> UpcastCandidate {
        UpcastCandidate {
            mu: Dyadic::from_int(mu),
            a,
            b,
            edge: EdgeId(e),
        }
    }

    fn run_upcast(
        g: &WeightedGraph,
        local: Vec<Vec<UpcastCandidate>>,
        nterms: usize,
        mode: UpcastMode<'_>,
    ) -> UpcastOutcome {
        let cfg = CongestConfig::for_graph(g);
        let bfs = build_bfs_tree(g, NodeId(0), &cfg).unwrap();
        let prior: Vec<u32> = (0..nterms as u32).collect();
        filtered_upcast(g, &bfs.parent, &bfs.children, local, &prior, mode, &cfg).unwrap()
    }

    #[test]
    fn collects_in_ascending_order_and_filters_cycles() {
        let g = generators::path(6, 1);
        let mut local = vec![Vec::new(); 6];
        local[5] = vec![cand(3, 0, 1, 0)];
        local[2] = vec![cand(1, 1, 2, 1), cand(7, 0, 2, 2)]; // the 7 closes a cycle
        local[4] = vec![cand(2, 2, 3, 3)];
        let out = run_upcast(&g, local, 4, UpcastMode::DrainAll);
        let mus: Vec<i128> = out.accepted.iter().map(|c| c.mu.raw().0).collect();
        assert_eq!(mus, vec![1, 2, 3]);
        assert!(!out.stopped_early);
    }

    #[test]
    fn duplicate_pairs_are_deduplicated() {
        let g = generators::path(4, 1);
        let mut local = vec![Vec::new(); 4];
        local[1] = vec![cand(1, 0, 1, 0)];
        local[3] = vec![cand(2, 0, 1, 1)]; // same pair, larger mu: filtered
        let out = run_upcast(&g, local, 2, UpcastMode::DrainAll);
        assert_eq!(out.accepted.len(), 1);
        assert_eq!(out.accepted[0].mu, Dyadic::from_int(1));
    }

    #[test]
    fn phase_detect_stops_the_stream() {
        let g = generators::path(8, 1);
        let mut local = vec![Vec::new(); 8];
        for i in 0..7u32 {
            local[(i + 1) as usize] = vec![cand(i as i128 + 1, i, i + 1, i)];
        }
        let mut count = 0;
        let out = run_upcast(
            &g,
            local,
            8,
            UpcastMode::PhaseDetect(Box::new(move |_c| {
                count += 1;
                if count == 3 {
                    UpcastRootVerdict::AcceptAndStop
                } else {
                    UpcastRootVerdict::Accept
                }
            })),
        );
        assert_eq!(out.accepted.len(), 3);
        assert!(out.stopped_early);
        let mus: Vec<i128> = out.accepted.iter().map(|c| c.mu.raw().0).collect();
        assert_eq!(mus, vec![1, 2, 3]);
    }

    #[test]
    fn prior_partition_filters_known_cycles() {
        let g = generators::path(4, 1);
        let mut local = vec![Vec::new(); 4];
        local[2] = vec![cand(5, 0, 1, 0), cand(6, 2, 3, 1)];
        // Terminals 0 and 1 already share a component.
        let cfg = CongestConfig::for_graph(&g);
        let bfs = build_bfs_tree(&g, NodeId(0), &cfg).unwrap();
        let prior = vec![0, 0, 2, 3];
        let out = filtered_upcast(
            &g,
            &bfs.parent,
            &bfs.children,
            local,
            &prior,
            UpcastMode::DrainAll,
            &cfg,
        )
        .unwrap();
        assert_eq!(out.accepted.len(), 1);
        assert_eq!(out.accepted[0].a, 2);
    }

    #[test]
    fn pipelining_rounds_linear_in_items() {
        // All candidates at the far end of a path: rounds ≈ D + #items.
        let n = 16usize;
        let g = generators::path(n, 1);
        let items = 30u32;
        let mut local = vec![Vec::new(); n];
        local[n - 1] = (0..items)
            .map(|i| cand(i as i128 + 1, 2 * i, 2 * i + 1, i))
            .collect();
        let out = run_upcast(&g, local, (2 * items) as usize, UpcastMode::DrainAll);
        assert_eq!(out.accepted.len(), items as usize);
        assert!(
            out.metrics.rounds <= (n as u64 + items as u64 + 4),
            "rounds = {}",
            out.metrics.rounds
        );
    }

    #[test]
    fn empty_upcast_terminates() {
        let g = generators::path(5, 1);
        let out = run_upcast(&g, vec![Vec::new(); 5], 2, UpcastMode::DrainAll);
        assert!(out.accepted.is_empty());
    }
}
