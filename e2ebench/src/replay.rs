//! Per-layer replays for the traced run: one layer's public function
//! called alone on a workload's own graphs, timed per message.

use std::time::Instant;

use dsf_congest::{
    run, run_sharded, BufferPool, CongestConfig, Message, NodeCtx, Outbox, Protocol,
};
use dsf_core::det::voronoi::{decompose, VorStatus};
use dsf_core::primitives::{
    build_bfs_tree, filtered_upcast, flood_items, FloodItem, UpcastCandidate, UpcastMode,
};
use dsf_graph::dyadic::Dyadic;
use dsf_graph::{EdgeId, NodeId, WeightedGraph};
use dsf_steiner::Instance;

use crate::stats::median;

/// Timed runs per replay (after one untimed warm run); the median is kept.
const REPS: usize = 3;

/// Median ns per message of `f` (which returns the messages it
/// delivered), inside a warm buffer pool like a session's solves.
pub fn ns_per_msg(pool: &mut BufferPool, mut f: impl FnMut() -> u64) -> f64 {
    pool.scope(|| {
        f();
        let v: Vec<f64> = (0..REPS)
            .map(|_| {
                let t = Instant::now();
                let m = f();
                t.elapsed().as_nanos() as f64 / m.max(1) as f64
            })
            .collect();
        median(&v)
    })
}

/// Median ms of `f` over [`REPS`] runs after one warm run.
pub fn ms(mut f: impl FnMut()) -> f64 {
    f();
    let v: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&v)
}

/// The benchmark's own gossip message: one 64-bit digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Message for Digest {
    fn encoded_bits(&self) -> usize {
        64
    }
}

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Dense gossip: every node sends its digest to every neighbour for a
/// fixed number of rounds and folds in what it receives. The protocol
/// does almost nothing per message, so its cost is the executor's floor.
#[derive(Debug)]
pub struct Gossip {
    digest: u64,
    left: u32,
}

impl Protocol for Gossip {
    type Msg = Digest;

    fn init(&mut self, ctx: &NodeCtx, out: &mut Outbox<Digest>) {
        self.digest = mix(u64::from(ctx.id.0));
        out.send_all(ctx, Digest(self.digest));
    }

    fn round(&mut self, ctx: &NodeCtx, inbox: &[(NodeId, Digest)], out: &mut Outbox<Digest>) {
        for &(from, Digest(d)) in inbox {
            self.digest = mix(self.digest ^ d ^ u64::from(from.0));
        }
        if self.left > 0 {
            self.left -= 1;
            out.send_all(ctx, Digest(self.digest));
        }
    }

    fn done(&self) -> bool {
        self.left == 0
    }
}

fn gossip_nodes(g: &WeightedGraph, rounds: u32) -> Vec<Gossip> {
    g.nodes()
        .map(|_| Gossip {
            digest: 0,
            left: rounds,
        })
        .collect()
}

/// Gossip rounds per replay.
const GOSSIP_ROUNDS: u32 = 8;

/// `congest.gossip.ns_per_msg`: gossip through [`run`].
pub fn gossip(pool: &mut BufferPool, g: &WeightedGraph) -> f64 {
    let cfg = CongestConfig::for_graph(g);
    ns_per_msg(pool, || {
        run(g, gossip_nodes(g, GOSSIP_ROUNDS), &cfg)
            .expect("gossip runs")
            .metrics
            .messages
    })
}

/// `congest.sharded.ns_per_msg`: the same gossip through [`run_sharded`].
pub fn gossip_sharded(g: &WeightedGraph, threads: usize) -> f64 {
    let cfg = CongestConfig::for_graph(g);
    ns_per_msg(&mut BufferPool::new(), || {
        run_sharded(g, gossip_nodes(g, GOSSIP_ROUNDS), &cfg, threads)
            .expect("sharded gossip runs")
            .metrics
            .messages
    })
}

/// A node that is done from the start and never sends.
#[derive(Debug)]
struct Idle;

impl Protocol for Idle {
    type Msg = Digest;
    fn init(&mut self, _: &NodeCtx, _: &mut Outbox<Digest>) {}
    fn round(&mut self, _: &NodeCtx, _: &[(NodeId, Digest)], _: &mut Outbox<Digest>) {}
    fn done(&self) -> bool {
        true
    }
}

/// `congest.run_overhead_us`: median µs of a message-free [`run`].
pub fn run_overhead_us(pool: &mut BufferPool, g: &WeightedGraph) -> f64 {
    let cfg = CongestConfig::for_graph(g);
    pool.scope(|| {
        let v: Vec<f64> = (0..200)
            .map(|_| {
                let t = Instant::now();
                run(g, g.nodes().map(|_| Idle).collect(), &cfg).expect("idle run");
                t.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        median(&v)
    })
}

/// `core.bfs.ns_per_msg`: [`build_bfs_tree`] from node 0.
pub fn bfs(pool: &mut BufferPool, g: &WeightedGraph) -> f64 {
    let cfg = CongestConfig::for_graph(g);
    ns_per_msg(pool, || {
        build_bfs_tree(g, NodeId(0), &cfg)
            .expect("bfs runs")
            .metrics
            .messages
    })
}

/// ns per message of the det solver's first-phase primitives on
/// `(g, inst)`: the Step-1 label flood ([`flood_items`]), the phase-1
/// terminal decomposition ([`decompose`]) and the phase-1 filtered
/// collection ([`filtered_upcast`], drained), each built from public
/// types exactly as the driver builds them.
pub fn det_primitives(pool: &mut BufferPool, g: &WeightedGraph, inst: &Instance) -> [f64; 3] {
    let cfg = CongestConfig::for_graph(g);
    let minimal = inst.make_minimal();
    let terms = minimal.terminals();
    let labels = || -> Vec<Vec<FloodItem>> {
        g.nodes()
            .map(|v| match minimal.label(v) {
                Some(l) => vec![FloodItem {
                    payload: (u128::from(v.0) << 32) | u128::from(l.0),
                    bits: 64,
                }],
                None => Vec::new(),
            })
            .collect()
    };
    let flood = ns_per_msg(pool, || {
        flood_items(g, labels(), &cfg)
            .expect("flood runs")
            .metrics
            .messages
    });

    let mut owner: Vec<Option<u32>> = vec![None; g.n()];
    for (i, t) in terms.iter().enumerate() {
        owner[t.idx()] = Some(i as u32);
    }
    let status: Vec<VorStatus> = owner
        .iter()
        .map(|o| match o {
            Some(i) => VorStatus::Source {
                owner: *i,
                offset: Dyadic::ZERO,
            },
            None => VorStatus::Free,
        })
        .collect();
    let voronoi = ns_per_msg(pool, || {
        decompose(g, &status, &cfg)
            .expect("decomposition runs")
            .metrics
            .messages
    });

    // Phase-1 boundary candidates, as the driver proposes them: every
    // region is active, so a boundary edge's merge time is half its gap.
    let vor = pool.scope(|| decompose(g, &status, &cfg).expect("decomposition runs"));
    let view = |u: usize| -> Option<(u32, Dyadic)> {
        match owner[u] {
            Some(i) => Some((i, Dyadic::ZERO)),
            None => vor.tentative[u].map(|(off, i, _)| (i, off)),
        }
    };
    let mut local: Vec<Vec<UpcastCandidate>> = vec![Vec::new(); g.n()];
    for (ei, e) in g.edges().iter().enumerate() {
        let (u, w) = (e.u.idx(), e.v.idx());
        if let (Some((iu, offu)), Some((iw, offw))) = (view(u), view(w)) {
            if iu != iw {
                local[u.min(w)].push(UpcastCandidate {
                    mu: (offu + Dyadic::from_weight(e.w) + offw).half(),
                    a: iu.min(iw),
                    b: iu.max(iw),
                    edge: EdgeId(ei as u32),
                });
            }
        }
    }
    let tree = pool.scope(|| build_bfs_tree(g, NodeId(0), &cfg).expect("bfs runs"));
    let prior: Vec<u32> = (0..terms.len() as u32).collect();
    let upcast = ns_per_msg(pool, || {
        filtered_upcast(
            g,
            &tree.parent,
            &tree.children,
            local.clone(),
            &prior,
            UpcastMode::DrainAll,
            &cfg,
        )
        .expect("upcast runs")
        .metrics
        .messages
    });
    [flood, voronoi, upcast]
}
