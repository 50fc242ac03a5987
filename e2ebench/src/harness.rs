//! What every workload shares: the op record, the measured window, the
//! closed-loop solve driver, and ledger stage attribution.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use dsf_bench::alloc_meter;
use dsf_congest::RoundLedger;
use dsf_graph::WeightedGraph;
use dsf_service::{SolveRequest, SolverKind, SolverSession};
use dsf_steiner::random_instance;
use dsf_workloads::certify;

use crate::check;
use crate::stats;
use crate::trace::Tracer;

/// Named per-layer numbers.
pub type Metrics = BTreeMap<String, f64>;

/// One timed op: a solve, a server job, or a delta.
#[derive(Debug, Clone)]
pub struct Op {
    /// Op class the latency notes group by (`grid/k=16`, `collect`).
    pub kind: &'static str,
    /// Latency in ns (open loop: from when the op was due).
    pub latency_ns: u64,
    /// Simulated CONGEST messages the op delivered.
    pub messages: u64,
}

/// The paper's cost measure and solution quality over a workload's
/// first ops, which are the same on every run with the same seed.
#[derive(Debug, Clone, Default)]
pub struct Exact {
    /// Ledger `(rounds, messages)` of each op, by op class.
    pub by_class: BTreeMap<String, Vec<(u64, u64)>>,
    /// Sum of `1000 · weight / certified lower bound` over the ops.
    pub ratio_milli_sum: f64,
    /// Ops counted.
    pub ratio_n: u64,
}

impl Exact {
    /// Adds one op.
    pub fn add(&mut self, class: &str, ledger: &RoundLedger, ratio_milli: f64) {
        self.by_class
            .entry(class.to_owned())
            .or_default()
            .push((ledger.total(), ledger.messages()));
        self.ratio_milli_sum += ratio_milli;
        self.ratio_n += 1;
    }

    /// Ops counted.
    pub fn ops(&self) -> usize {
        self.by_class.values().map(Vec::len).sum()
    }

    /// `(rounds, messages)` per op: each class's median, weighted by the
    /// class's share of the ops. The median keeps the rare instance
    /// whose det run needs several merge phases (two to three times the
    /// rounds of its class) from swinging the figure between seeds.
    pub fn per_op(&self) -> (f64, f64) {
        let n = self.ops().max(1) as f64;
        self.by_class.values().fold((0.0, 0.0), |(r, m), costs| {
            let share = costs.len() as f64 / n;
            let rounds: Vec<f64> = costs.iter().map(|c| c.0 as f64).collect();
            let msgs: Vec<f64> = costs.iter().map(|c| c.1 as f64).collect();
            (
                r + share * stats::median(&rounds),
                m + share * stats::median(&msgs),
            )
        })
    }

    /// Mean of `1000 · weight / certified lower bound`.
    pub fn ratio_milli(&self) -> f64 {
        self.ratio_milli_sum / self.ratio_n.max(1) as f64
    }
}

/// Everything one measured window produced.
#[derive(Debug, Default)]
pub struct Window {
    /// Timed ops, in completion order.
    pub ops: Vec<Op>,
    /// The time the ops' rate and message rate are taken over, in ns:
    /// the client's busy time in a closed loop, the schedule's span in
    /// an open loop.
    pub busy_ns: u64,
    /// Ops attempted (timed ops plus ops that failed before timing).
    pub attempted: u64,
    /// Ops that failed, were rejected, or returned a wrong result.
    pub failed: u64,
    /// One line per violation.
    pub errors: Vec<String>,
    /// Counted over the first ops, which a seed fixes.
    pub exact: Exact,
    /// Per-layer numbers taken from the window's own results.
    pub layer: Metrics,
    /// Highest live heap while ops ran (checks between ops excluded).
    pub mem_peak_bytes: usize,
    /// Whether the measurement itself is valid (an open-loop generator
    /// that fell behind invalidates it).
    pub valid: bool,
}

impl Window {
    /// Mean op latency in ns.
    pub fn mean_latency_ns(&self) -> f64 {
        self.ops.iter().map(|o| o.latency_ns as f64).sum::<f64>() / self.ops.len().max(1) as f64
    }

    /// An empty, valid window.
    pub fn new() -> Self {
        Window {
            valid: true,
            ..Window::default()
        }
    }

    /// Counts an op's check verdict: a non-empty list fails the op.
    pub fn verdict(&mut self, ctx: &str, violations: Vec<String>) {
        if !violations.is_empty() {
            self.failed += 1;
            self.errors
                .extend(violations.into_iter().map(|v| format!("{ctx}: {v}")));
        }
    }
}

/// A workload: set up from a seed, measured for a number of seconds, and
/// (in the traced run) replayed layer by layer.
pub trait Workload: Sized {
    /// The highest percentile `latency_ms_tail` may be taken at.
    const TAIL_CAP: f64;
    /// Builds inputs, certificates and warm state from `seed`.
    fn setup(seed: u64, tr: &mut Tracer) -> Self;
    /// Runs timed ops for about `secs` seconds and checks every output.
    fn measure(&mut self, secs: f64, tr: &mut Tracer) -> Window;
    /// Per-layer replays, run only in the traced run after the timed ops
    /// of window `w`. Returns the violations of any checked replay.
    fn replay(&mut self, tr: &mut Tracer, w: &Window, layer: &mut Metrics) -> Vec<String>;
}

/// Generates a graph inside a `graph.gen` span.
pub fn gen(tr: &mut Tracer, f: impl FnOnce() -> WeightedGraph) -> Arc<WeightedGraph> {
    Arc::new(tr.span("graph.gen", None, |_| f()))
}

/// Ledger stages attributed per solver: `(metric suffix, label fragment)`.
pub const DET_STAGES: [(&str, &str); 5] = [
    ("bfs", "BFS tree construction"),
    ("label_broadcast", "terminal label broadcast"),
    ("decomposition", "terminal decomposition"),
    ("merge_collection", "filtered merge collection"),
    ("fc_broadcast", "broadcast F_c"),
];

/// Randomized-solver stages (every repetition's entries are summed).
pub const RAND_STAGES: [(&str, &str); 4] = [
    ("le_lists", "LE-list construction"),
    ("multiplicity_convergecast", "multiplicity convergecast"),
    ("label_broadcast", "label broadcast"),
    ("request_routing", "request routing"),
];

/// Simulated `(messages, rounds)` of each stage in `stages`.
pub fn stage_totals(ledger: &RoundLedger, stages: &[(&str, &str)]) -> Vec<(u64, u64)> {
    stages
        .iter()
        .map(|(_, frag)| {
            ledger
                .entries()
                .iter()
                .filter(|e| e.label.contains(frag))
                .fold((0, 0), |(m, r), e| (m + e.messages, r + e.simulated))
        })
        .collect()
}

/// Mixes an op index into a seed (splitmix64), so each op of a stream
/// draws its own inputs.
pub fn subseed(seed: u64, i: u64) -> u64 {
    let mut x = seed ^ i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One instance class of a solve stream: a network, a number of demand
/// pairs, a solver.
#[derive(Debug, Clone)]
pub struct Class {
    /// Reported name, e.g. `grid/k=16`.
    pub name: &'static str,
    /// The (fixed) network.
    pub graph: Arc<WeightedGraph>,
    /// Demand pairs per instance.
    pub k: usize,
    /// Solver the class's jobs run.
    pub solver: SolverKind,
}

impl Class {
    /// A class of `k`-pair instances on `graph` for `solver`.
    pub fn new(
        name: &'static str,
        graph: &Arc<WeightedGraph>,
        k: usize,
        solver: SolverKind,
    ) -> Class {
        Class {
            name,
            graph: graph.clone(),
            k,
            solver,
        }
    }
}

/// The `i`-th request of a stream: classes in rotation, fresh demand
/// pairs and solver seed for every op.
pub fn stream_request(classes: &[Class], seed: u64, i: u64) -> (&Class, SolveRequest) {
    let c = &classes[(i % classes.len() as u64) as usize];
    let s = subseed(seed, i);
    let inst = random_instance(&c.graph, c.k, 2, s);
    let req = SolveRequest::new(
        format!("{}/{i}", c.name),
        c.graph.clone(),
        inst,
        c.solver,
        s,
    );
    (c, req)
}

/// A closed loop of one client on one warm session, solving a stream of
/// fresh instances: the shape of `det-large` and `rand-mid`. Every op
/// draws new demand pairs, so one run averages over many instances
/// rather than repeating a few.
#[derive(Debug)]
pub struct SolveLoop {
    /// The client's session, warmed in set-up.
    pub session: SolverSession,
    /// Instance classes, solved in rotation.
    pub classes: Vec<Class>,
    /// The workload seed.
    pub seed: u64,
    /// Ops the exact metrics are counted over: the window always runs
    /// at least this many.
    pub exact_ops: u64,
}

impl SolveLoop {
    /// Solves one instance of every class (drawn apart from the timed
    /// stream), so the session's arena pool is warm before timing starts.
    pub fn warm(&mut self, tr: &mut Tracer) {
        for i in 0..self.classes.len() as u64 {
            let (_, req) = stream_request(&self.classes, self.seed ^ 0x3a7, i);
            tr.span("service.warmup", None, |_| self.session.solve(&req))
                .expect("warm-up solve runs");
        }
    }

    /// Times ops until `secs` have passed and at least `exact_ops` ran,
    /// checking each output against a certificate of its instance.
    /// `stages` names the ledger stages reported per op as
    /// `core.<solver>.{messages,rounds}.<stage>`.
    pub fn measure(
        &mut self,
        secs: f64,
        tr: &mut Tracer,
        solver: &'static str,
        stages: &[(&str, &str)],
    ) -> Window {
        let mut w = Window::new();
        let mut stage_sum = vec![(0u64, 0u64); stages.len()];
        let mut solve_ms: Vec<f64> = Vec::new();
        let start = Instant::now();
        let mut i = 0u64;
        while i < self.exact_ops || start.elapsed().as_secs_f64() < secs {
            let (class, req) = stream_request(&self.classes, self.seed, i);
            let exact = i < self.exact_ops;
            i += 1;
            let op = w.attempted;
            w.attempted += 1;
            let session = &mut self.session;
            alloc_meter::reset_peak();
            let t0 = Instant::now();
            let res = tr.span("harness.op", Some(op), |tr| {
                tr.span("service.solve", Some(op), |_| session.solve(&req))
            });
            let latency_ns = t0.elapsed().as_nanos() as u64;
            w.mem_peak_bytes = w.mem_peak_bytes.max(alloc_meter::peak_bytes());
            let out = match res {
                Ok(out) => out,
                Err(e) => {
                    w.verdict(&req.id, vec![format!("solver error: {e}")]);
                    continue;
                }
            };
            w.busy_ns += latency_ns;
            w.ops.push(Op {
                kind: class.name,
                latency_ns,
                messages: out.messages(),
            });
            solve_ms.push(out.wall_ns as f64 / 1e6);
            let cert = tr.span("workloads.certify", Some(op), |_| {
                certify(&req.graph, &req.instance)
            });
            let violations = tr.span("workloads.check", Some(op), |_| {
                check::check_solve(&req.graph, &req.instance, &cert, &out)
            });
            w.verdict(&req.id, violations);
            if exact {
                w.exact.add(
                    class.name,
                    &out.ledger,
                    check::ratio_milli(out.weight, &cert),
                );
                for (acc, (m, r)) in stage_sum.iter_mut().zip(stage_totals(&out.ledger, stages)) {
                    acc.0 += m;
                    acc.1 += r;
                }
            }
        }
        let ops = w.exact.ops().max(1) as f64;
        for ((name, _), (m, r)) in stages.iter().zip(stage_sum) {
            w.layer
                .insert(format!("core.{solver}.messages.{name}"), m as f64 / ops);
            w.layer
                .insert(format!("core.{solver}.rounds.{name}"), r as f64 / ops);
        }
        w.layer.insert(
            format!("service.solve_ms_p50.{solver}"),
            stats::median(&solve_ms),
        );
        w
    }
}
