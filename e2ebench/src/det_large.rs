//! `det-large`: one client, one warm session, `Deterministic` solves on
//! a 40×40 grid and an n=1600 RMAT graph with k ∈ {4, 16}, fresh demand
//! pairs every op.
//!
//! Chosen because flood, upcast and Voronoi carry nearly all of a
//! Theorem 4.17 solve's work; it bypasses `embed`, `steiner` and
//! `server`, so a change there should not move it. In every ten ops the
//! classes, from fastest to slowest, take one (grid k=4), two (RMAT k=4),
//! four (grid k=16) and three (RMAT k=16) slots, so the median falls in
//! the middle of one class and the p90 tail inside the slowest, not at a
//! boundary between two classes. At n=6400 the same solves' median moved by up to 35% between
//! back-to-back runs of one seed on a shared 2-core host (their message
//! arenas do not fit in cache); at n=1600 it stays within a few percent.

use dsf_congest::BufferPool;
use dsf_graph::generators;
use dsf_service::{SolverKind, SolverSession};

use crate::delta_replay;
use crate::harness::{
    gen, stream_request, subseed, Class, Metrics, SolveLoop, Window, Workload, DET_STAGES,
};
use crate::replay;
use crate::trace::Tracer;

/// The networks are fixed; `--seed` draws the demand pairs of every op.
/// (Seeding the networks too moved `rounds_per_op` by a third between
/// seeds: a grid's weights set its shortest-path diameter, and that sets
/// the rounds.)
const GRAPH_SEED: u64 = 1;

/// Ops the exact metrics are counted over (twenty rotations): enough
/// that even the grid k=4 class, whose runs need several merge phases a
/// quarter of the time, has a stable median.
const EXACT_OPS: u64 = 200;

/// The `det-large` workload.
#[derive(Debug)]
pub struct DetLarge {
    solves: SolveLoop,
}

impl Workload for DetLarge {
    const TAIL_CAP: f64 = 90.0;

    fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let grid = gen(tr, || generators::grid(40, 40, 16, GRAPH_SEED));
        let rmat = gen(tr, || generators::rmat(1600, 4, 16, GRAPH_SEED));
        let class = |name, graph, k| Class::new(name, graph, k, SolverKind::Deterministic);
        let mut solves = SolveLoop {
            session: SolverSession::new(),
            classes: vec![
                class("grid/k=4", &grid, 4),
                class("rmat/k=4", &rmat, 4),
                class("grid/k=16", &grid, 16),
                class("rmat/k=16", &rmat, 16),
                class("grid/k=16", &grid, 16),
                class("rmat/k=4", &rmat, 4),
                class("grid/k=16", &grid, 16),
                class("rmat/k=16", &rmat, 16),
                class("grid/k=16", &grid, 16),
                class("rmat/k=16", &rmat, 16),
            ],
            seed,
            exact_ops: EXACT_OPS,
        };
        solves.warm(tr);
        DetLarge { solves }
    }

    fn measure(&mut self, secs: f64, tr: &mut Tracer) -> Window {
        self.solves.measure(secs, tr, "det", &DET_STAGES)
    }

    fn replay(&mut self, tr: &mut Tracer, w: &Window, layer: &mut Metrics) -> Vec<String> {
        let mut pool = BufferPool::new();
        // The first grid and RMAT k=16 instances of the stream: the
        // largest label flood and the most boundary candidates it has.
        let (classes, seed) = (&self.solves.classes, self.solves.seed);
        let reqs: Vec<_> = [2u64, 4]
            .iter()
            .map(|&i| stream_request(classes, seed, i).1)
            .collect();
        let mut sums = [0.0f64; 5];
        for req in &reqs {
            let g = req.graph.as_ref();
            let [flood, voronoi, upcast] = tr.span("core.replay_det", None, |_| {
                replay::det_primitives(&mut pool, g, &req.instance)
            });
            let bfs = tr.span("core.bfs", None, |_| replay::bfs(&mut pool, g));
            let gossip = tr.span("congest.gossip", None, |_| replay::gossip(&mut pool, g));
            for (s, v) in sums.iter_mut().zip([flood, voronoi, upcast, bfs, gossip]) {
                *s += v / reqs.len() as f64;
            }
        }
        let [flood, voronoi, upcast, bfs, gossip] = sums;
        layer.insert("core.flood.ns_per_msg".into(), flood);
        layer.insert("core.voronoi.ns_per_msg".into(), voronoi);
        layer.insert("core.upcast.ns_per_msg".into(), upcast);
        layer.insert("core.bfs.ns_per_msg".into(), bfs);
        layer.insert("congest.gossip.ns_per_msg".into(), gossip);
        // The time the replayed primitives explain: each stage's messages
        // per solve priced at its primitive's replayed cost.
        let price = [bfs, flood, voronoi, upcast, flood];
        let explained_ns: f64 = DET_STAGES
            .iter()
            .zip(price)
            .map(|((stage, _), ns)| layer[&format!("core.det.messages.{stage}")] * ns)
            .sum();
        layer.insert(
            "core.det.replay_coverage_frac".into(),
            explained_ns / w.mean_latency_ns(),
        );
        // The delta path has no end-to-end workload of its own; it is
        // replayed here, on this workload's grid.
        let grid = self.solves.classes[0].graph.clone();
        delta_replay::replay(&grid, subseed(seed, u64::MAX), tr, layer)
    }
}
