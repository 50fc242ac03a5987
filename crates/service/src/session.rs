//! A reusable solver session: one warm [`BufferPool`] carried across
//! solves.

use std::time::Instant;

use dsf_baselines::khan::{solve_khan, KhanConfig};
use dsf_baselines::solve_collect_at_root;
use dsf_congest::{with_threads, BufferPool, PoolStats, RoundLedger, SimError};
use dsf_core::det::{solve_deterministic, DetConfig};
use dsf_core::randomized::{solve_randomized, RandConfig};
use dsf_steiner::ForestSolution;

use crate::report::JobOutcome;
use crate::request::{SolveRequest, SolverKind};

/// A pooled solver session.
///
/// A session owns a [`BufferPool`] and installs it around every solve, so
/// all the CONGEST stages inside a solver check their slot arenas out of
/// the pool instead of allocating. After the first solve on a given graph
/// the session is *warm*: steady-state solves on that graph perform **no
/// per-solve arena allocation** ([`SolverSession::pool_stats`] proves it —
/// `builds` stays flat while `reuses` grows).
///
/// Sessions are plain owned data, used standalone for a sequential
/// stream of solves; the `dsf-server` scheduler keeps one per worker
/// thread and replaces it with a fresh one if a solve panics.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use dsf_graph::{generators, NodeId};
/// use dsf_service::{SolveRequest, SolverKind, SolverSession};
/// use dsf_steiner::InstanceBuilder;
///
/// let g = Arc::new(generators::gnp_connected(24, 0.2, 9, 7));
/// let inst = InstanceBuilder::new(&g)
///     .component(&[NodeId(0), NodeId(11)])
///     .component(&[NodeId(4), NodeId(19)])
///     .build()
///     .unwrap();
///
/// let mut session = SolverSession::new();
/// for seed in 0..3 {
///     let req = SolveRequest::new(
///         format!("job-{seed}"), g.clone(), inst.clone(), SolverKind::Randomized, seed);
///     let out = session.solve(&req).unwrap();
///     assert!(inst.is_feasible(&g, &out.forest));
/// }
/// // Warm after the first solve: repeats allocated no new arenas.
/// let stats = session.pool_stats();
/// assert!(stats.reuses > 0 && stats.builds <= stats.reuses);
/// ```
#[derive(Debug, Default)]
pub struct SolverSession {
    pool: BufferPool,
    solves: u64,
    /// Cached incremental solve, keyed by graph fingerprint (see
    /// [`crate::delta`]).
    pub(crate) incremental: Option<crate::delta::IncrementalState>,
    /// Counters of the incremental activity.
    pub(crate) delta_stats: crate::delta::DeltaStats,
}

/// Dispatches one request onto the matching `solve_*` entry point.
fn dispatch(req: &SolveRequest) -> Result<(ForestSolution, RoundLedger), SimError> {
    let g = req.graph.as_ref();
    match req.solver {
        SolverKind::Deterministic => solve_deterministic(g, &req.instance, &DetConfig::default())
            .map(|o| (o.forest, o.rounds)),
        SolverKind::Randomized => {
            let cfg = RandConfig {
                seed: req.seed,
                ..RandConfig::default()
            };
            solve_randomized(g, &req.instance, &cfg).map(|o| (o.forest, o.rounds))
        }
        SolverKind::Khan => {
            let cfg = KhanConfig {
                seed: req.seed,
                ..KhanConfig::default()
            };
            solve_khan(g, &req.instance, &cfg).map(|o| (o.forest, o.rounds))
        }
        SolverKind::CollectAtRoot => {
            solve_collect_at_root(g, &req.instance).map(|o| (o.forest, o.rounds))
        }
    }
}

impl SolverSession {
    /// A fresh, cold session.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs one request with this session's pool installed, pinned to the
    /// single-threaded executor.
    ///
    /// Pooling requires the single-threaded engine (the sharded engine
    /// owns per-worker state instead), so this pins the dispatch via
    /// [`dsf_congest::with_threads`]`(1, …)` regardless of the ambient
    /// `DSF_THREADS` — the session's zero-steady-state-allocation
    /// contract holds in any environment. To give one solve the sharded
    /// engine instead (large graphs), use
    /// [`SolverSession::solve_with_threads`].
    ///
    /// Deterministic outcome fields are independent of the session's
    /// history *and* of the thread count — a warm pool only skips
    /// allocations, never changes results (see
    /// [`dsf_congest::BufferPool`]).
    ///
    /// # Errors
    ///
    /// [`SimError::WrongNodeCount`] for a request whose instance and graph
    /// disagree on the node count (see
    /// [`SolverSession::solve_with_threads`]); any other [`SimError`] the
    /// solver raises is propagated (model violations indicate solver bugs,
    /// not user errors).
    pub fn solve(&mut self, req: &SolveRequest) -> Result<JobOutcome, SimError> {
        self.solve_with_threads(req, 1)
    }

    /// Like [`SolverSession::solve`] but with the executor dispatch of
    /// this solve pinned to `threads` workers. With `threads > 1` the
    /// CONGEST stages run on the sharded engine, which does not consult
    /// the session's pool — the trade a server's large lane makes
    /// deliberately. Results are bit-identical at every thread count.
    ///
    /// # Errors
    ///
    /// [`SimError::WrongNodeCount`] when the request's instance was built
    /// on a graph with a different node count than `req.graph` (checked
    /// before dispatch, so such a request never reaches a solver);
    /// otherwise propagates any [`SimError`] the solver raises.
    pub fn solve_with_threads(
        &mut self,
        req: &SolveRequest,
        threads: usize,
    ) -> Result<JobOutcome, SimError> {
        if req.instance.n() != req.graph.n() {
            return Err(SimError::WrongNodeCount {
                expected: req.graph.n(),
                got: req.instance.n(),
            });
        }
        let t0 = Instant::now();
        let (forest, ledger) = with_threads(threads, || self.pool.scope(|| dispatch(req)))?;
        let wall_ns = t0.elapsed().as_nanos() as u64;
        self.solves += 1;
        let weight = forest.weight(&req.graph);
        let ratio_milli = req
            .cert_upper
            .map(|upper| (1000 * u128::from(weight)).div_ceil(u128::from(upper.max(1))) as u64);
        Ok(JobOutcome {
            id: req.id.clone(),
            solver: req.solver,
            seed: req.seed,
            forest,
            ledger,
            weight,
            ratio_milli,
            wall_ns,
        })
    }

    /// Arena-traffic counters of the session's pool (steady state: `builds`
    /// flat, `reuses` growing).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Number of solves this session has completed.
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// Drops all pooled arenas (e.g. before a batch over much larger
    /// graphs); the session stays usable and re-warms on the next solve.
    pub fn clear(&mut self) {
        self.pool.clear();
    }
}
