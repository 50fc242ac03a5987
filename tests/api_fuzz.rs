//! Seeded fuzz of the public API: graph construction, the streaming
//! server (streamed jobs, cancels, pause/resume, batches, shutdown) and
//! the delta API, driven by random op sequences that mix valid and
//! malformed input — zero, `INF` and `u64::MAX` weights, totals on both
//! sides of the graph weight rule, duplicate and out-of-range edges,
//! requests whose instance has another node count.
//!
//! Each case asserts the entry points' contract: no panic escapes, every
//! admitted job is reported exactly once and none as panicked, and every
//! `Ok` forest is feasible with a `weight` equal to its edge sum. Cases
//! are few and graphs small (n ≤ 24) so the suite runs in tier-1.

use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dsf_congest::SimError;
use dsf_graph::union_find::UnionFind;
use dsf_graph::{
    generators, Edge, EdgeId, GraphBuilder, GraphError, NodeId, Weight, WeightedGraph, INF,
};
use dsf_server::{
    AdmissionPolicy, BatchError, JobHandle, JobOptions, JobStatus, ServerConfig, ServerError,
    StreamingServer,
};
use dsf_service::{DeltaError, DeltaStats, DemandId, SolveRequest, SolverKind, SolverSession};
use dsf_steiner::{ForestSolution, Instance, InstanceBuilder};
use dsf_workloads::conformance::check_feasible_forest;

const MAX_N: usize = 24;

/// Feasible, acyclic, and `weight` equal to the forest's edge sum.
fn check_forest(
    g: &WeightedGraph,
    inst: &Instance,
    f: &ForestSolution,
    weight: Weight,
) -> Result<(), String> {
    check_feasible_forest(g, inst, f)?;
    let sum: u128 = f.edges().iter().map(|&e| u128::from(g.weight(e))).sum();
    if u128::from(weight) != sum {
        return Err(format!(
            "reported weight {weight} but the edges sum to {sum}"
        ));
    }
    Ok(())
}

/// A case failure: `ctx`, then what went wrong.
fn fail(ctx: impl std::fmt::Display, what: impl std::fmt::Display) -> TestCaseError {
    TestCaseError::Fail(format!("{ctx}: {what}"))
}

/// `m > 0` weights summing to just below `INF` (`below`) or to `INF` or
/// a little more, split unevenly (so one path may carry most of it).
fn heavy(rng: &mut StdRng, m: usize, below: bool) -> Vec<Weight> {
    let jitter = rng.gen_range(0..=m as Weight);
    let budget = if below {
        INF - 1 - jitter
    } else {
        INF + jitter
    };
    let shares: Vec<Weight> = (0..m).map(|_| rng.gen_range(1..=100)).collect();
    let parts: Weight = shares.iter().sum();
    let mut ws: Vec<Weight> = shares
        .iter()
        .map(|&s| (budget / parts * s).max(1))
        .collect();
    let rest = budget - ws.iter().sum::<Weight>();
    ws[0] += rest;
    ws
}

/// One weight from the malformed palette.
fn wild_weight(rng: &mut StdRng) -> Weight {
    match rng.gen_range(0..8) {
        0 => 0,
        1 => INF,
        2 => u64::MAX,
        3 => INF / 2,
        4 => INF / 2 + 1,
        _ => rng.gen_range(1..=1000),
    }
}

/// An edge list on `n` nodes. Clean lists are a random spanning tree
/// plus simple chords; malformed ones may drop a tree edge and add
/// self loops, duplicates and out-of-range endpoints. Weights are
/// ordinary, split to a total just below or at/above `INF`, or drawn
/// from the malformed palette.
fn sample_edges(rng: &mut StdRng, n: usize, malformed: bool) -> Vec<Edge> {
    let mut pairs: Vec<(u32, u32)> = (1..n as u32).map(|v| (rng.gen_range(0..v), v)).collect();
    let chords = rng.gen_range(0..=n);
    for _ in 0..chords {
        let hi = if malformed { n as u32 + 1 } else { n as u32 };
        let (a, b) = (rng.gen_range(0..hi.max(1)), rng.gen_range(0..hi.max(1)));
        let fresh = !pairs
            .iter()
            .any(|&(x, y)| (x, y) == (a, b) || (y, x) == (a, b));
        if malformed || (a != b && fresh) {
            pairs.push((a, b));
        }
    }
    if malformed && !pairs.is_empty() && rng.gen_bool(0.3) {
        let at = rng.gen_range(0..pairs.len());
        pairs.swap_remove(at);
    }
    let m = pairs.len();
    let weights: Vec<Weight> = match rng.gen_range(0..4) {
        0 if m > 0 => heavy(rng, m, true),
        1 if m > 0 => heavy(rng, m, false),
        2 if malformed => (0..m).map(|_| wild_weight(rng)).collect(),
        _ => (0..m).map(|_| rng.gen_range(1..=1000)).collect(),
    };
    pairs
        .into_iter()
        .zip(weights)
        .map(|((u, v), w)| Edge {
            u: NodeId(u),
            v: NodeId(v),
            w,
        })
        .collect()
}

/// The graph rule, restated independently: `(structure ok, weight ok)`.
fn oracle(n: usize, edges: &[Edge]) -> (bool, bool) {
    let mut seen = HashSet::new();
    let mut uf = UnionFind::new(n);
    let mut parts = n;
    for e in edges {
        let (a, b) = (e.u.idx().min(e.v.idx()), e.u.idx().max(e.v.idx()));
        if b >= n || a == b || e.w == 0 || !seen.insert((a, b)) {
            return (false, false);
        }
        if uf.union(a, b) {
            parts -= 1;
        }
    }
    let total: u128 = edges.iter().map(|e| u128::from(e.w)).sum();
    (n > 0 && parts == 1, total < u128::from(INF))
}

fn via_builder(n: usize, edges: &[Edge]) -> Result<WeightedGraph, GraphError> {
    let mut b = GraphBuilder::new(n);
    for e in edges {
        b.add_edge(e.u, e.v, e.w)?;
    }
    b.build()
}

/// A valid graph on at most [`MAX_N`] nodes: a seeded generator
/// family, sometimes rescaled so its total sits just below `INF`.
fn valid_graph(rng: &mut StdRng) -> WeightedGraph {
    let seed = rng.gen();
    let g = match rng.gen_range(0..5) {
        0 => generators::path(rng.gen_range(1..=MAX_N), rng.gen_range(1..=50)),
        1 => generators::grid(rng.gen_range(1..=4), rng.gen_range(2..=6), 50, seed),
        2 => generators::ring(rng.gen_range(3..=MAX_N), 50, seed),
        3 => generators::star(rng.gen_range(2..=MAX_N), 50, seed),
        _ => generators::gnp_connected(rng.gen_range(2..=MAX_N), 0.2, 50, seed),
    };
    if g.m() == 0 || rng.gen_bool(0.5) {
        return g;
    }
    let ws = heavy(rng, g.m(), true);
    let edges = g
        .edges()
        .iter()
        .zip(ws)
        .map(|(e, w)| Edge { w, ..*e })
        .collect();
    WeightedGraph::from_edges(g.n(), edges).expect("a total below INF is valid")
}

/// Up to two disjoint components of one to three terminals each.
fn random_instance(rng: &mut StdRng, g: &WeightedGraph) -> Instance {
    let mut free: Vec<NodeId> = g.nodes().collect();
    let mut b = InstanceBuilder::new(g);
    for _ in 0..rng.gen_range(0..=2) {
        let size = rng.gen_range(1..=3usize).min(free.len());
        if size == 0 {
            break;
        }
        let comp: Vec<NodeId> = (0..size)
            .map(|_| free.swap_remove(rng.gen_range(0..free.len())))
            .collect();
        b = b.component(&comp);
    }
    b.build().expect("disjoint in-range components")
}

fn random_kind(rng: &mut StdRng) -> SolverKind {
    SolverKind::ALL[rng.gen_range(0..SolverKind::ALL.len())]
}

/// A request on one of `pool`'s graphs; with probability 1/5 its
/// instance comes from another pool entry (a node-count mismatch when
/// the two sizes differ).
fn random_request(
    rng: &mut StdRng,
    pool: &[(Arc<WeightedGraph>, Instance)],
    id: String,
) -> (SolveRequest, bool) {
    let (g, inst) = &pool[rng.gen_range(0..pool.len())];
    let inst = if rng.gen_bool(0.2) {
        &pool[rng.gen_range(0..pool.len())].1
    } else {
        inst
    };
    let mismatched = inst.n() != g.n();
    let req = SolveRequest::new(id, g.clone(), inst.clone(), random_kind(rng), rng.gen());
    (req, mismatched)
}

/// How a request must end when it is neither cancelled nor expired.
fn check_solved(
    req: &SolveRequest,
    mismatched: bool,
    res: Result<(&ForestSolution, Weight), &SimError>,
) -> Result<(), String> {
    match (res, mismatched) {
        (Ok((f, w)), false) => check_forest(&req.graph, &req.instance, f, w),
        (Err(SimError::WrongNodeCount { .. }), true) => Ok(()),
        (Ok(_), true) => Err("a mismatched request was solved".into()),
        (Err(e), _) => Err(format!("unexpected solver error {e:?}")),
    }
}

/// What a rejected delta must leave untouched.
fn state(s: &SolverSession) -> (Option<ForestSolution>, Option<u64>, DeltaStats) {
    (
        s.cached_forest().cloned(),
        s.cached_fingerprint(),
        s.delta_stats(),
    )
}

struct Streamed {
    handle: JobHandle,
    req: SolveRequest,
    mismatched: bool,
    /// `cancel` was called (the job may have finished first).
    cancelled: bool,
    deadline: bool,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Builder and `from_edges` agree with the rule restated above, and
    /// every graph they accept — near-`INF` totals included — is solved
    /// feasibly by every solver.
    #[test]
    fn graph_builds_are_ok_or_typed_and_accepted_graphs_solve(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        for round in 0..6 {
            let n = rng.gen_range(0..=MAX_N);
            let malformed = rng.gen_bool(0.4);
            let edges = sample_edges(&mut rng, n, malformed);
            let ctx = format!("round {round}, n = {n}, edges {edges:?}");
            let built = via_builder(n, &edges);
            let direct = WeightedGraph::from_edges(n, edges.clone());
            match oracle(n, &edges) {
                (true, true) => {
                    let g = direct.map_err(|e| fail(&ctx, e))?;
                    let b = built.map_err(|e| fail(&ctx, e))?;
                    prop_assert_eq!(g.fingerprint(), b.fingerprint(), "{}", ctx);
                    let inst = random_instance(&mut rng, &g);
                    let g = Arc::new(g);
                    for kind in SolverKind::ALL {
                        let req = SolveRequest::new("fuzz", g.clone(), inst.clone(), kind, seed);
                        let out = SolverSession::new().solve(&req);
                        let res = out.as_ref().map(|o| (&o.forest, o.weight));
                        check_solved(&req, false, res)
                            .map_err(|e| fail(format!("{ctx}, {kind:?}"), e))?;
                    }
                }
                (true, false) => {
                    prop_assert_eq!(built.unwrap_err(), GraphError::WeightTooLarge, "{}", ctx);
                    prop_assert_eq!(direct.unwrap_err(), GraphError::WeightTooLarge, "{}", ctx);
                }
                (false, _) => {
                    // Structural errors come before the weight rule.
                    for res in [built, direct] {
                        let typed = !matches!(res, Ok(_) | Err(GraphError::WeightTooLarge));
                        prop_assert!(typed, "{}: {:?}", ctx, res);
                    }
                }
            }
        }
    }

    /// Random streamed submissions, cancels, pause/resume, batches and a
    /// shutdown: every admitted job is reported exactly once, none as
    /// panicked, and every result is what its request calls for.
    #[test]
    fn server_reports_every_admitted_job_once_and_never_panics(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool: Vec<(Arc<WeightedGraph>, Instance)> = (0..3)
            .map(|_| {
                let g = valid_graph(&mut rng);
                let inst = random_instance(&mut rng, &g);
                (Arc::new(g), inst)
            })
            .collect();
        let reject = rng.gen_bool(0.5);
        let capacity = rng.gen_range(1..=6);
        let mut server = StreamingServer::new(ServerConfig {
            workers: rng.gen_range(1..=2),
            queue_capacity: capacity,
            admission: if reject { AdmissionPolicy::Reject } else { AdmissionPolicy::Block },
            large_node_threshold: rng.gen_range(8..=MAX_N + 1),
        });
        let (mut paused, mut closed) = (false, false);
        let mut streamed: Vec<Streamed> = Vec::new();
        for op in 0..10 {
            match rng.gen_range(0..10) {
                0..=3 => {
                    // A blocking submit to a full, paused queue would wait
                    // for a resume that this thread would never send.
                    if paused && !reject && server.queued() >= capacity {
                        continue;
                    }
                    let (req, mismatched) = random_request(&mut rng, &pool, format!("s{op}"));
                    let deadline = rng.gen_bool(0.15);
                    let mut opts = JobOptions::default().with_priority(rng.gen_range(-2..=2));
                    if deadline {
                        opts = opts.with_deadline_in(Duration::ZERO);
                    }
                    match server.submit_with(req.clone(), opts) {
                        Ok(handle) => {
                            prop_assert!(!closed, "admitted after shutdown");
                            streamed.push(Streamed {
                                handle,
                                req,
                                mismatched,
                                cancelled: false,
                                deadline,
                            });
                        }
                        Err(ServerError::ShuttingDown) => prop_assert!(closed),
                        Err(ServerError::Saturated { .. }) => prop_assert!(reject && !closed),
                    }
                }
                4 if !streamed.is_empty() => {
                    let at = rng.gen_range(0..streamed.len());
                    streamed[at].handle.cancel();
                    streamed[at].cancelled = true;
                }
                5 => {
                    server.pause();
                    paused = true;
                }
                6 => {
                    server.resume();
                    paused = false;
                }
                7 | 8 => {
                    // A batch waits for its jobs, so it needs dispatch on.
                    server.resume();
                    paused = false;
                    let reqs: Vec<(SolveRequest, bool)> = (0..rng.gen_range(1..=3))
                        .map(|i| random_request(&mut rng, &pool, format!("b{op}.{i}")))
                        .collect();
                    let requests: Vec<SolveRequest> = reqs.iter().map(|(r, _)| r.clone()).collect();
                    let first_bad = reqs.iter().position(|(_, bad)| *bad);
                    match (server.run_batch(&requests), first_bad) {
                        (Err(BatchError::ShuttingDown), _) => prop_assert!(closed),
                        (Err(BatchError::Failed { index, error }), Some(bad)) => {
                            prop_assert_eq!(index, bad);
                            prop_assert!(matches!(error, SimError::WrongNodeCount { .. }));
                        }
                        (Ok(report), None) => {
                            prop_assert!(!closed);
                            prop_assert_eq!(report.jobs.len(), requests.len());
                            for (out, req) in report.jobs.iter().zip(&requests) {
                                check_forest(&req.graph, &req.instance, &out.forest, out.weight)
                                    .map_err(|e| fail(&req.id, e))?;
                            }
                        }
                        (other, bad) => {
                            return Err(TestCaseError::Fail(format!(
                                "batch with first mismatch {bad:?} returned {other:?}"
                            )));
                        }
                    }
                }
                9 => {
                    server.shutdown();
                    closed = true;
                }
                _ => {}
            }
        }
        server.shutdown();
        let mut reported = BTreeSet::new();
        while let Some(res) = server.try_next_result() {
            prop_assert!(reported.insert(res.job_id), "job {} reported twice", res.job_id);
        }
        let admitted: BTreeSet<u64> = streamed.iter().map(|s| s.handle.job_id()).collect();
        prop_assert_eq!(&reported, &admitted);
        for s in &streamed {
            let res = s.handle.try_result().expect("shutdown drains every admitted job");
            let ctx = format!("job {}", s.req.id);
            match &res.status {
                JobStatus::Panicked(msg) => {
                    return Err(fail(ctx, format!("panicked: {msg}")));
                }
                JobStatus::Cancelled => prop_assert!(s.cancelled, "{}", ctx),
                JobStatus::DeadlineExpired => prop_assert!(s.deadline, "{}", ctx),
                JobStatus::Completed(out) => {
                    check_solved(&s.req, s.mismatched, Ok((&out.forest, out.weight)))
                        .map_err(|e| fail(&ctx, e))?;
                }
                JobStatus::Failed(e) => {
                    check_solved(&s.req, s.mismatched, Err(e))
                        .map_err(|e| fail(&ctx, e))?;
                }
            }
        }
    }

    /// Random add/remove/reweight sequences, malformed ones included: an
    /// `Ok` delta leaves a feasible cached forest of the reported weight,
    /// an error is the typed one the input calls for and changes nothing.
    #[test]
    fn delta_sequences_are_ok_and_feasible_or_typed_and_inert(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = Arc::new(valid_graph(&mut rng));
        let n = g.n();
        let mut s = SolverSession::new();
        prop_assert_eq!(s.reweight_edge(EdgeId(0), 1).unwrap_err(), DeltaError::NoGraph);
        s.install_graph(g.clone());
        let mut live: Vec<(DemandId, Vec<NodeId>)> = Vec::new();
        let mut gone: Vec<DemandId> = Vec::new();
        for op in 0..10 {
            let graph = s.cached_graph().expect("installed").clone();
            let before = state(&s);
            let (res, expect_ok) = match rng.gen_range(0..3) {
                0 => {
                    let used: HashSet<NodeId> = live.iter().flat_map(|(_, t)| t.clone()).collect();
                    let terms: Vec<NodeId> = (0..rng.gen_range(0..=3))
                        .map(|_| NodeId(rng.gen_range(0..n as u32 + 1)))
                        .collect();
                    // A terminal repeated within the new demand is deduplicated.
                    let ok = !terms.is_empty()
                        && terms.iter().all(|t| t.idx() < n && !used.contains(t));
                    let res = s.add_demand(&terms).map(|(id, out)| {
                        live.push((id, terms.clone()));
                        out
                    });
                    if let Err(e) = &res {
                        prop_assert!(matches!(e, DeltaError::Instance(_)), "op {}: {:?}", op, e);
                    }
                    (res, ok)
                }
                1 => {
                    let pick = rng.gen_range(0..live.len() + gone.len() + 1);
                    let (id, ok) = if pick < live.len() {
                        (live.swap_remove(pick).0, true)
                    } else if pick < live.len() + gone.len() {
                        (gone[pick - live.len()], false)
                    } else {
                        (DemandId(u64::MAX), false)
                    };
                    if ok {
                        gone.push(id);
                    }
                    let res = s.remove_demand(id);
                    if let Err(e) = &res {
                        prop_assert_eq!(e, &DeltaError::UnknownDemand(id), "op {}", op);
                    }
                    (res, ok)
                }
                _ => {
                    let e = EdgeId(rng.gen_range(0..graph.m() as u32 + 1));
                    let rest = graph.edges().iter().enumerate()
                        .filter(|&(i, _)| i != e.idx())
                        .map(|(_, ed)| u128::from(ed.w))
                        .sum::<u128>();
                    let headroom = (u128::from(INF) - 1).saturating_sub(rest) as Weight;
                    let w = match rng.gen_range(0..5) {
                        0 => wild_weight(&mut rng),
                        1 => headroom,
                        2 => headroom.saturating_add(1),
                        _ => rng.gen_range(1..=100),
                    };
                    let expected = if e.idx() >= graph.m() {
                        Some(DeltaError::EdgeOutOfRange(e))
                    } else if w == 0 {
                        Some(DeltaError::ZeroWeight(e))
                    } else if rest + u128::from(w) >= u128::from(INF) {
                        Some(DeltaError::WeightTooLarge(e))
                    } else {
                        None
                    };
                    let res = s.reweight_edge(e, w);
                    if let (Err(got), Some(want)) = (&res, &expected) {
                        prop_assert_eq!(got, want, "op {}", op);
                    }
                    (res, expected.is_none())
                }
            };
            prop_assert_eq!(res.is_ok(), expect_ok, "op {}: {:?}", op, res.as_ref().err());
            match res {
                Ok(out) => {
                    let graph = s.cached_graph().expect("installed");
                    let inst = s.cached_instance().expect("installed");
                    prop_assert_eq!(s.cached_forest(), Some(&out.forest));
                    check_forest(graph, inst, &out.forest, out.weight)
                        .map_err(|e| fail(format!("op {op}"), e))?;
                }
                Err(_) => {
                    let after = state(&s);
                    prop_assert_eq!(before, after, "op {}: a rejected delta changed state", op);
                }
            }
        }
    }
}
