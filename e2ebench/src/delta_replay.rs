//! The session's write path, replayed layer by layer in `det-large`'s
//! traced run: a seeded stream of demand adds, removes and edge
//! re-pricings on one warm session over the `det-large` grid, then the
//! `steiner` improvers and `graph` Dijkstra on the stream's end state.
//!
//! This was planned as a `churn-delta` end-to-end workload. Its figures
//! did not hold still from seed to seed: a delta either repairs in a few
//! ms or races a from-scratch solve (50–300 ms), and which one depends on
//! how entangled the seed's forests get, so its median, tail and
//! throughput spread by 0.18–0.34 across five seeds. The per-layer
//! numbers below are what remains of it.

use std::sync::Arc;

use dsf_graph::{dijkstra, EdgeId, NodeId, Weight, WeightedGraph};
use dsf_service::{DeltaOutcome, DemandId, SolverSession};
use dsf_steiner::{greedy, local_search, repair, Instance};
use dsf_workloads::certify;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::check;
use crate::harness::Metrics;
use crate::replay;
use crate::stats;
use crate::trace::Tracer;

/// Demands the warm-up prefix installs.
const WARMUP_ADDS: usize = 10;
/// Deltas replayed after the warm-up.
const DELTAS: usize = 100;
/// Delta kinds of every block of ten: four removes and four adds (the
/// live set stays at the warm-up's ten, ±1), one uniform and one
/// forest-edge re-pricing.
const PATTERN: [u8; 10] = *b"RARAWRAFRA";
/// Hop radius a demand's terminals are drawn within: connection
/// requests are local, which is what makes a delta incremental.
const DEMAND_RADIUS: u32 = 3;
/// Re-pricings draw new weights from `1..=MAX_W`.
const MAX_W: Weight = 16;
/// Delta kinds, in the order of the per-kind metrics.
const KINDS: [&str; 3] = ["add", "remove", "reweight"];

/// Draws an arrival: a free center plus one or two free nodes within
/// [`DEMAND_RADIUS`] hops (nearest free nodes beyond it if the ball is
/// sparse).
fn sample_add(rng: &mut StdRng, g: &WeightedGraph, free: &mut Vec<NodeId>) -> Vec<NodeId> {
    let size = if rng.gen_range(0..4) == 0 { 3 } else { 2 };
    let center = free[rng.gen_range(0..free.len())];
    let mut is_free = vec![false; g.n()];
    for v in free.iter() {
        is_free[v.idx()] = true;
    }
    let mut hop = vec![u32::MAX; g.n()];
    hop[center.idx()] = 0;
    let mut queue = std::collections::VecDeque::from([center]);
    let mut ball = Vec::new();
    while let Some(v) = queue.pop_front() {
        for &(w, _) in g.neighbors(v) {
            if hop[w.idx()] == u32::MAX {
                hop[w.idx()] = hop[v.idx()] + 1;
                if is_free[w.idx()] {
                    ball.push(w);
                }
                queue.push_back(w);
            }
        }
    }
    let mut terms = vec![center];
    let mut near: Vec<NodeId> = ball
        .iter()
        .copied()
        .filter(|v| hop[v.idx()] <= DEMAND_RADIUS)
        .collect();
    while terms.len() < size && !near.is_empty() {
        terms.push(near.swap_remove(rng.gen_range(0..near.len())));
    }
    for v in ball {
        if terms.len() >= size {
            break;
        }
        if !terms.contains(&v) {
            terms.push(v);
        }
    }
    terms.sort_unstable();
    free.retain(|v| !terms.contains(v));
    terms
}

/// One replayed delta with the post-delta state it is checked against.
struct Record {
    kind: usize,
    graph: Arc<WeightedGraph>,
    instance: Instance,
    out: DeltaOutcome,
}

/// Full checks of one delta: the oracle's churn gate against a
/// certificate of the post-delta state, plus the reported weight.
fn check_record(r: &Record) -> Vec<String> {
    let (g, inst) = (r.graph.as_ref(), &r.instance);
    let mut v = check::check_delta(g, inst, &certify(g, inst), &r.out.forest);
    if r.out.weight != r.out.forest.weight(g) {
        v.push(format!(
            "reported weight {} but the forest weighs {}",
            r.out.weight,
            r.out.forest.weight(g)
        ));
    }
    v
}

/// Checks every record, split over the machine's threads (the
/// from-scratch comparison costs more than the delta itself).
fn check_all(records: &[Record]) -> Vec<String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = records.len().div_ceil(threads).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = records
            .chunks(chunk)
            .map(|c| s.spawn(move || c.iter().flat_map(check_record).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a check thread panicked"))
            .collect()
    })
}

/// Applies one delta of kind `kind` (a [`PATTERN`] letter); `live` holds
/// the live demands' handles and terminals in arrival order, `free` the
/// nodes no live demand uses.
fn apply(
    session: &mut SolverSession,
    rng: &mut StdRng,
    free: &mut Vec<NodeId>,
    live: &mut Vec<(DemandId, Vec<NodeId>)>,
    kind: u8,
) -> Result<(usize, DeltaOutcome), String> {
    let g = session.cached_graph().ok_or("no graph installed")?.clone();
    let err = |e: dsf_service::DeltaError| e.to_string();
    match kind {
        b'A' => {
            let terms = sample_add(rng, &g, free);
            let (id, out) = session.add_demand(&terms).map_err(err)?;
            live.push((id, terms));
            Ok((0, out))
        }
        b'R' => {
            let (id, terms) = live.remove(rng.gen_range(0..live.len()));
            free.extend(terms);
            free.sort_unstable();
            Ok((1, session.remove_demand(id).map_err(err)?))
        }
        _ => {
            let e = if kind == b'F' {
                let f = session.cached_forest().ok_or("no cached forest")?.edges();
                *f.get(rng.gen_range(0..f.len().max(1)))
                    .ok_or("empty forest")?
            } else {
                EdgeId(rng.gen_range(0..g.m() as u32))
            };
            // A new price always differs from the current one.
            let w = rng.gen_range(1..=MAX_W);
            let w = if w == g.weight(e) { w % MAX_W + 1 } else { w };
            Ok((2, session.reweight_edge(e, w).map_err(err)?))
        }
    }
}

/// Replays the delta stream on `graph` and the `steiner` improvers on
/// its end state, filling the delta and `steiner` per-layer metrics.
/// Returns every check violation.
pub fn replay(
    graph: &Arc<WeightedGraph>,
    seed: u64,
    tr: &mut Tracer,
    layer: &mut Metrics,
) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut session = SolverSession::new();
    session.install_graph(graph.clone());
    let mut free: Vec<NodeId> = graph.nodes().collect();
    let mut live = Vec::new();
    for _ in 0..WARMUP_ADDS {
        if let Err(e) = apply(&mut session, &mut rng, &mut free, &mut live, b'A') {
            return vec![format!("warm-up add: {e}")];
        }
    }
    let mut violations = Vec::new();
    let mut records = Vec::with_capacity(DELTAS);
    tr.span("service.deltas", None, |_| {
        for i in 0..DELTAS {
            match apply(
                &mut session,
                &mut rng,
                &mut free,
                &mut live,
                PATTERN[i % PATTERN.len()],
            ) {
                Ok((kind, out)) => match (session.cached_graph(), session.cached_instance()) {
                    (Some(g), Some(inst)) => records.push(Record {
                        kind,
                        graph: g.clone(),
                        instance: inst.clone(),
                        out,
                    }),
                    _ => violations.push(format!("delta {i}: session lost its cached state")),
                },
                Err(e) => violations.push(format!("delta {i}: {e}")),
            }
        }
    });
    violations.extend(tr.span("workloads.check", None, |_| check_all(&records)));

    for (k, kind) in KINDS.iter().enumerate() {
        let ms: Vec<f64> = records
            .iter()
            .filter(|r| r.kind == k)
            .map(|r| r.out.wall_ns as f64 / 1e6)
            .collect();
        layer.insert(format!("service.delta_ms_p50.{kind}"), stats::median(&ms));
        if *kind != "reweight" {
            layer.insert(
                format!("service.delta_ms_tail.{kind}"),
                stats::tail(&ms, 90.0).value,
            );
        }
    }
    let moves: u64 = records.iter().map(|r| r.out.moves).sum();
    layer.insert(
        "service.delta_moves_per_op".into(),
        moves as f64 / records.len().max(1) as f64,
    );

    let (Some(g), Some(inst)) = (session.cached_graph(), session.cached_instance()) else {
        return violations;
    };
    let (g, inst) = (g.as_ref(), inst);
    let start = greedy::solve_greedy(g, inst);
    let greedy_ms = tr.span("steiner.greedy", None, |_| {
        replay::ms(|| {
            std::hint::black_box(greedy::solve_greedy(g, inst));
        })
    });
    let ls_ms = tr.span("steiner.local_search", None, |_| {
        replay::ms(|| {
            std::hint::black_box(local_search::improve(g, inst, &start));
        })
    });
    let opt_ms = tr.span("steiner.optimize", None, |_| {
        replay::ms(|| {
            std::hint::black_box(repair::optimize(g, inst, &start, None));
        })
    });
    let source = inst.terminals()[0];
    let dijkstra_ms = tr.span("graph.dijkstra", None, |_| {
        replay::ms(|| {
            std::hint::black_box(dijkstra::shortest_paths(g, source));
        })
    });
    layer.insert("steiner.greedy_ms".into(), greedy_ms);
    layer.insert("steiner.local_search_ms".into(), ls_ms);
    layer.insert("steiner.optimize_ms".into(), opt_ms);
    layer.insert(
        "steiner.optimize_moves".into(),
        repair::optimize(g, inst, &start, None).1 as f64,
    );
    layer.insert("graph.dijkstra_ms".into(), dijkstra_ms);
    violations
}
