//! `rand-mid`: one client, one warm session, `Randomized` solves on an
//! n=320 grid and an n=360 RMAT graph with k ∈ {4, 8}, fresh demand
//! pairs and solver seed every op. Grid solves are the faster class and
//! take two thirds of the ops, so the median falls inside the grid class
//! and the p75 tail inside the RMAT class, not between the two.
//!
//! Chosen because it is the Theorem 5.2 path, where driver-side
//! `Embedding::build` and `metrics::shortest_path_diameter` dominate
//! rather than any CONGEST primitive; it never calls Voronoi, upcast or
//! `steiner`, and floods only the k-item label broadcast.

use dsf_congest::{BufferPool, CongestConfig};
use dsf_embed::distributed::le_lists_distributed;
use dsf_embed::{Embedding, EmbeddingConfig};
use dsf_graph::{generators, metrics};
use dsf_service::{SolverKind, SolverSession};

use crate::harness::{
    gen, stream_request, subseed, Class, Metrics, SolveLoop, Window, Workload, RAND_STAGES,
};
use crate::replay;
use crate::serve_open;
use crate::trace::Tracer;

/// The networks are fixed; `--seed` draws every op's demand pairs and
/// solver seed.
const GRAPH_SEED: u64 = 1;

/// Ops the exact metrics are counted over (six rotations).
const EXACT_OPS: u64 = 36;

/// Embeddings the randomized solver builds per solve
/// (`RandConfig::default().repetitions`).
const REPETITIONS: f64 = 3.0;

/// The `rand-mid` workload.
#[derive(Debug)]
pub struct RandMid {
    solves: SolveLoop,
}

impl Workload for RandMid {
    const TAIL_CAP: f64 = 75.0;

    fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let grid = gen(tr, || generators::grid(16, 20, 16, GRAPH_SEED));
        let rmat = gen(tr, || generators::rmat(360, 4, 16, GRAPH_SEED));
        let class = |name, graph, k| Class::new(name, graph, k, SolverKind::Randomized);
        let mut solves = SolveLoop {
            session: SolverSession::new(),
            classes: vec![
                class("grid/k=4", &grid, 4),
                class("grid/k=8", &grid, 8),
                class("rmat/k=4", &rmat, 4),
                class("grid/k=4", &grid, 4),
                class("grid/k=8", &grid, 8),
                class("rmat/k=8", &rmat, 8),
            ],
            seed,
            exact_ops: EXACT_OPS,
        };
        solves.warm(tr);
        RandMid { solves }
    }

    fn measure(&mut self, secs: f64, tr: &mut Tracer) -> Window {
        self.solves.measure(secs, tr, "rand", &RAND_STAGES)
    }

    fn replay(&mut self, tr: &mut Tracer, w: &Window, layer: &mut Metrics) -> Vec<String> {
        let mut pool = BufferPool::new();
        // The first grid and RMAT instances of the stream.
        let (classes, seed) = (&self.solves.classes, self.solves.seed);
        let graphs: Vec<_> = [0u64, 2]
            .iter()
            .map(|&i| stream_request(classes, seed, i).1)
            .map(|r| (r.graph, r.seed))
            .collect();
        let mut sums = [0.0f64; 4];
        let mut builds_per_solve = 0.0;
        for (g, seed) in &graphs {
            let g = g.as_ref();
            let spd_ms = tr.span("graph.sp_diameter", None, |_| {
                replay::ms(|| {
                    std::hint::black_box(metrics::shortest_path_diameter(g));
                })
            });
            // The solver truncates the embedding when s > √n.
            let sqrt_n = (g.n() as f64).sqrt().ceil() as usize;
            let truncated = metrics::shortest_path_diameter(g) as usize > sqrt_n;
            let cfg = EmbeddingConfig {
                seed: *seed,
                truncate: truncated.then_some(sqrt_n),
            };
            let build_ms = tr.span("embed.build", None, |_| {
                replay::ms(|| {
                    std::hint::black_box(Embedding::build(g, &cfg));
                })
            });
            let emb = Embedding::build(g, &cfg);
            let congest = CongestConfig::for_graph(g);
            let le = tr.span("embed.le_lists", None, |_| {
                replay::ns_per_msg(&mut pool, || {
                    le_lists_distributed(g, &emb.ranks, &congest)
                        .expect("LE lists run")
                        .1
                        .messages
                })
            });
            let bfs = tr.span("core.bfs", None, |_| replay::bfs(&mut pool, g));
            let n = graphs.len() as f64;
            for (s, v) in sums.iter_mut().zip([build_ms, spd_ms, le, bfs]) {
                *s += v / n;
            }
            // The truncated path rebuilds the chosen embedding once more.
            builds_per_solve += (REPETITIONS + f64::from(u8::from(truncated))) / n;
        }
        let [build_ms, spd_ms, le, bfs] = sums;
        layer.insert("embed.build_ms".into(), build_ms);
        layer.insert("graph.sp_diameter_ms".into(), spd_ms);
        layer.insert("embed.le_lists.ns_per_msg".into(), le);
        layer.insert("core.bfs.ns_per_msg".into(), bfs);
        let explained_ms =
            builds_per_solve * build_ms + spd_ms + layer["core.rand.messages.le_lists"] * le / 1e6;
        layer.insert(
            "core.rand.replay_coverage_frac".into(),
            explained_ms * 1e6 / w.mean_latency_ns(),
        );
        // The serving path has no end-to-end workload of its own; it is
        // replayed here.
        serve_open::replay(subseed(self.solves.seed, u64::MAX), tr, layer)
    }
}
