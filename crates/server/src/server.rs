//! The streaming reactor: bounded admission, two dispatch lanes, the
//! result stream, and batches scheduled on the same lanes.

use std::any::Any;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use dsf_congest::{default_threads, PoolStats, SimError};
use dsf_service::{SolveRequest, SolverSession};

use crate::job::{JobHandle, JobOptions, JobResult, JobShared, JobStatus};
use crate::report::BatchReport;

/// What [`StreamingServer::submit`] does when the admission queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Block the submitting thread until a slot frees up (backpressure
    /// propagates to the producer). The default.
    #[default]
    Block,
    /// Fail fast with [`ServerError::Saturated`]; the caller decides
    /// whether to retry, shed, or redirect the job.
    Reject,
}

/// Configuration of a [`StreamingServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Small-lane worker threads (each owning a warm
    /// [`SolverSession`]), and the sharded-executor thread count a
    /// large job runs with. Clamped to ≥ 1.
    pub workers: usize,
    /// Most jobs (both lanes combined) admitted but not yet dispatched.
    /// Clamped to ≥ 1.
    pub queue_capacity: usize,
    /// What `submit` does when the queue is full.
    pub admission: AdmissionPolicy,
    /// Jobs whose graph has at least this many nodes take the large lane
    /// ([`ServerConfig::is_large`]).
    pub large_node_threshold: usize,
}

impl Default for ServerConfig {
    /// `DSF_THREADS` workers, a 1024-deep queue, blocking admission, and
    /// a 50 000-node large-job threshold.
    fn default() -> Self {
        ServerConfig {
            workers: default_threads(),
            queue_capacity: 1024,
            admission: AdmissionPolicy::Block,
            large_node_threshold: 50_000,
        }
    }
}

impl ServerConfig {
    /// The config with out-of-range fields clamped (workers ≥ 1, capacity
    /// ≥ 1) — what [`StreamingServer::new`] actually runs with.
    #[must_use]
    pub fn normalized(mut self) -> Self {
        self.workers = self.workers.max(1);
        self.queue_capacity = self.queue_capacity.max(1);
        self
    }

    /// Whether a graph with `nodes` nodes takes the large lane (sharded
    /// whole-pool execution) rather than the small lane: large means **at
    /// least** [`ServerConfig::large_node_threshold`] nodes, so a graph
    /// with exactly threshold nodes is large. Streamed and batched jobs
    /// are both classified here alone.
    pub fn is_large(&self, nodes: usize) -> bool {
        nodes >= self.large_node_threshold
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerError {
    /// The admission queue held `capacity` jobs and the config's policy
    /// is [`AdmissionPolicy::Reject`].
    Saturated {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// [`StreamingServer::shutdown`] was called; no new jobs are admitted.
    ShuttingDown,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Saturated { capacity } => {
                write!(f, "admission queue saturated ({capacity} jobs queued)")
            }
            ServerError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for ServerError {}

/// Why [`StreamingServer::run_batch`] returned no report. `index` is
/// the lowest failing request index, whatever the scheduling did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchError {
    /// The solver of request `index` raised the model violation `error`.
    Failed { index: usize, error: SimError },
    /// The solver of request `index` panicked with `message`
    /// ([`JobStatus::Panicked`]).
    Panicked { index: usize, message: String },
    /// [`StreamingServer::shutdown`] was called; no job was admitted.
    ShuttingDown,
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::Failed { index, error } => write!(f, "batch job {index} failed: {error}"),
            BatchError::Panicked { index, message } => {
                write!(f, "batch job {index} panicked: {message}")
            }
            BatchError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for BatchError {}

/// One admitted, not-yet-dispatched job.
#[derive(Debug)]
struct QueuedJob {
    job_id: u64,
    /// Admission order, for FIFO tie-breaking within a priority.
    seq: u64,
    priority: i32,
    deadline: Option<Instant>,
    submitted: Instant,
    req: SolveRequest,
    shared: Arc<JobShared>,
    /// Whether the result also goes on the server-wide stream (batch
    /// jobs are returned by [`StreamingServer::run_batch`] instead).
    streamed: bool,
}

// Heap order: highest priority first, then lowest seq (FIFO). Only
// `priority`/`seq` participate, consistent across all four impls.
impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for QueuedJob {}
impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedJob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

/// The two dispatch lanes plus admission bookkeeping, under one lock.
#[derive(Debug)]
struct State {
    /// Streamed small jobs, pulled by whichever small worker is free.
    small: BinaryHeap<QueuedJob>,
    /// Batched small jobs, one heap per small worker: the `j`-th small
    /// job of a batch waits for worker `j mod workers`, so a recurring
    /// batch meets warm arenas.
    pinned: Vec<BinaryHeap<QueuedJob>>,
    large: BinaryHeap<QueuedJob>,
    /// Pool counters each worker publishes after every job, indexed by
    /// [`Lane::slot`].
    pools: Vec<PoolStats>,
    closed: bool,
    paused: bool,
}

impl State {
    fn queued(&self) -> usize {
        self.small.len() + self.large.len() + self.pinned.iter().map(BinaryHeap::len).sum::<usize>()
    }

    /// The lane's best queued job. A small worker takes the higher of its
    /// pinned top and the shared top (priority, then FIFO).
    fn pop(&mut self, lane: Lane) -> Option<QueuedJob> {
        match lane {
            Lane::Small(w) if self.pinned[w].peek() > self.small.peek() => self.pinned[w].pop(),
            Lane::Small(_) => self.small.pop(),
            Lane::Large => self.large.pop(),
        }
    }
}

/// State shared between the server façade and its worker threads.
#[derive(Debug)]
struct Shared {
    state: Mutex<State>,
    /// Wakes small-lane workers (new job, unpause, shutdown).
    small_ready: Condvar,
    /// Wakes the large-lane worker.
    large_ready: Condvar,
    /// Wakes submitters blocked on a full queue.
    space: Condvar,
    capacity: usize,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("server state lock")
    }
}

/// Identifies a worker's dispatch lane to the shared worker loop.
#[derive(Clone, Copy)]
enum Lane {
    /// Small-lane worker `w`.
    Small(usize),
    Large,
}

impl Lane {
    /// The worker's index into [`State::pools`].
    fn slot(self) -> usize {
        match self {
            Lane::Large => 0,
            Lane::Small(w) => w + 1,
        }
    }
}

fn plus(a: PoolStats, b: PoolStats) -> PoolStats {
    PoolStats {
        reuses: a.reuses + b.reuses,
        builds: a.builds + b.builds,
    }
}

/// The solve scheduler: a long-lived front-end over the solver stack
/// for streamed jobs and whole batches alike.
///
/// [`StreamingServer::submit`] admits one job into a **bounded queue**
/// ([`AdmissionPolicy`]) with an optional priority and deadline
/// ([`JobOptions`]); its result arrives on the [`JobHandle`] and on the
/// server-wide stream ([`StreamingServer::next_result`]).
/// [`StreamingServer::run_batch`] runs a slice of requests on the same
/// lanes. Small jobs run on `workers` session-warm threads, while a job
/// at or above [`ServerConfig::large_node_threshold`] nodes drains on
/// the large lane with the whole `workers`-thread sharded executor, so
/// the small lane keeps flowing. Every admitted job is reported exactly
/// once, a panicking one as [`JobStatus::Panicked`].
///
/// Scheduling is invisible in the results: every completed job's
/// deterministic fields (forest, full round ledger, weight, ratio) are
/// bit-identical to a direct `solve_*` call on a fresh session, whatever
/// the queue did — `bench_runner --server` asserts exactly this under
/// open-loop load, and `bench_runner --service` for batches.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use dsf_graph::{generators, NodeId};
/// use dsf_server::{ServerConfig, StreamingServer};
/// use dsf_service::{SolveRequest, SolverKind};
/// use dsf_steiner::InstanceBuilder;
///
/// let g = Arc::new(generators::gnp_connected(20, 0.2, 9, 1));
/// let inst = InstanceBuilder::new(&g)
///     .component(&[NodeId(0), NodeId(13)])
///     .build()
///     .unwrap();
/// let requests: Vec<_> = (0..4)
///     .map(|seed| SolveRequest::new(
///         format!("job-{seed}"), g.clone(), inst.clone(), SolverKind::Randomized, seed))
///     .collect();
///
/// let mut server = StreamingServer::new(ServerConfig { workers: 2, ..Default::default() });
/// // Streamed: one handle per job, results as they finish.
/// let handles: Vec<_> = requests.iter().map(|r| server.submit(r.clone()).unwrap()).collect();
/// for h in &handles {
///     let result = h.wait();
///     assert!(inst.is_feasible(&g, &result.status.outcome().unwrap().forest));
/// }
/// // Batched: outcomes in request order, whatever the scheduling did.
/// let report = server.run_batch(&requests).unwrap();
/// assert!(report.violations.is_empty());
/// assert_eq!(report.jobs[2].id, "job-2");
/// server.shutdown();
/// ```
#[derive(Debug)]
pub struct StreamingServer {
    cfg: ServerConfig,
    shared: Arc<Shared>,
    /// The server-wide result stream (workers hold the senders).
    results: Mutex<mpsc::Receiver<JobResult>>,
    threads: Vec<std::thread::JoinHandle<()>>,
    next_id: AtomicU64,
}

impl StreamingServer {
    /// Starts a server: `cfg.workers` small-lane worker threads plus one
    /// large-lane thread, all idle until jobs arrive. Out-of-range config
    /// fields are clamped ([`ServerConfig::normalized`]).
    pub fn new(cfg: ServerConfig) -> Self {
        let cfg = cfg.normalized();
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                small: BinaryHeap::new(),
                pinned: (0..cfg.workers).map(|_| BinaryHeap::new()).collect(),
                large: BinaryHeap::new(),
                pools: vec![PoolStats::default(); cfg.workers + 1],
                closed: false,
                paused: false,
            }),
            small_ready: Condvar::new(),
            large_ready: Condvar::new(),
            space: Condvar::new(),
            capacity: cfg.queue_capacity,
        });
        let (tx, rx) = mpsc::channel();
        let mut threads = Vec::with_capacity(cfg.workers + 1);
        for w in 0..cfg.workers {
            let shared = shared.clone();
            let tx = tx.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("dsf-server-small-{w}"))
                    .spawn(move || worker_loop(&shared, Lane::Small(w), 1, &tx))
                    .expect("spawn small-lane worker"),
            );
        }
        let large_threads = cfg.workers;
        {
            let shared = shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("dsf-server-large".into())
                    .spawn(move || worker_loop(&shared, Lane::Large, large_threads, &tx))
                    .expect("spawn large-lane worker"),
            );
        }
        StreamingServer {
            cfg,
            shared,
            results: Mutex::new(rx),
            threads,
            next_id: AtomicU64::new(0),
        }
    }

    /// A server with the default configuration.
    pub fn with_defaults() -> Self {
        Self::new(ServerConfig::default())
    }

    /// The effective (clamped) configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Small-lane worker threads (also the sharded thread count of a
    /// large job).
    pub fn workers(&self) -> usize {
        self.cfg.workers
    }

    /// Jobs currently admitted but not yet dispatched.
    pub fn queued(&self) -> usize {
        self.shared.lock().queued()
    }

    /// Arena-traffic counters summed over every worker's session (small
    /// lane and large lane), as of each worker's last finished job. In
    /// steady state (recurring graphs) `builds` stays flat while `reuses`
    /// grows — the zero-per-solve-allocation property the service bench
    /// asserts. Counters of a session replaced after a panic stay in the
    /// sum, so it never decreases.
    pub fn pool_stats(&self) -> PoolStats {
        self.shared
            .lock()
            .pools
            .iter()
            .fold(PoolStats::default(), |acc, &p| plus(acc, p))
    }

    /// Submits a job with default options (priority 0, no deadline).
    ///
    /// # Errors
    ///
    /// [`ServerError::Saturated`] under [`AdmissionPolicy::Reject`] with a
    /// full queue; [`ServerError::ShuttingDown`] after shutdown.
    pub fn submit(&self, req: SolveRequest) -> Result<JobHandle, ServerError> {
        self.submit_with(req, JobOptions::default())
    }

    /// Submits a job with explicit scheduling options.
    ///
    /// Admission is the only place backpressure applies: once admitted, a
    /// job is guaranteed a terminal [`JobResult`] (completed, failed,
    /// panicked, cancelled, or deadline-expired).
    ///
    /// # Errors
    ///
    /// [`ServerError::Saturated`] under [`AdmissionPolicy::Reject`] with a
    /// full queue; [`ServerError::ShuttingDown`] after shutdown (including
    /// while blocked waiting for a slot).
    pub fn submit_with(
        &self,
        req: SolveRequest,
        opts: JobOptions,
    ) -> Result<JobHandle, ServerError> {
        self.admit(req, opts, None)
    }

    /// Runs a batch of requests on the server's lanes and reports
    /// per-job outcomes in request order.
    ///
    /// Every request is admitted — waiting for queue space whatever the
    /// [`AdmissionPolicy`], so a batch is never half-rejected — and then
    /// every job is waited for. Small jobs are pinned round-robin: the
    /// `j`-th small job goes to small worker `j mod workers`, so a
    /// recurring batch meets the same warm sessions and builds no arenas
    /// ([`StreamingServer::pool_stats`]). Large jobs take the large lane.
    /// Streamed jobs keep flowing beside the batch, and batch results do
    /// not go on the server-wide result stream.
    ///
    /// Scheduling is invisible in the results: every outcome is
    /// bit-identical to solving its request alone on a fresh session.
    /// Each job's ledger is re-checked against the conformance oracle's
    /// `B`-bit budget ([`BatchReport::violations`]).
    ///
    /// # Errors
    ///
    /// If any job fails or panics, the error of the lowest request index
    /// is returned (deterministic under any scheduling), after every job
    /// has finished; [`BatchError::ShuttingDown`] after shutdown.
    pub fn run_batch(&self, requests: &[SolveRequest]) -> Result<BatchReport, BatchError> {
        let t0 = Instant::now();
        let mut small = 0;
        let handles = requests
            .iter()
            .map(|req| {
                let worker = small % self.cfg.workers;
                small += usize::from(!self.cfg.is_large(req.graph.n()));
                self.admit(req.clone(), JobOptions::default(), Some(worker))
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|_| BatchError::ShuttingDown)?;
        let statuses: Vec<JobStatus> = handles.iter().map(|h| h.wait().status).collect();

        let mut jobs = Vec::with_capacity(requests.len());
        for (index, status) in statuses.into_iter().enumerate() {
            match status {
                JobStatus::Completed(out) => jobs.push(*out),
                JobStatus::Failed(error) => return Err(BatchError::Failed { index, error }),
                JobStatus::Panicked(message) => {
                    return Err(BatchError::Panicked { index, message })
                }
                JobStatus::Cancelled | JobStatus::DeadlineExpired => {
                    unreachable!("batch jobs have no deadline and no caller-side handle")
                }
            }
        }
        let violations = jobs
            .iter()
            .zip(requests)
            .flat_map(|(out, req)| out.budget_violations(&req.graph))
            .collect();
        Ok(BatchReport {
            workers: self.cfg.workers,
            jobs,
            wall_ns: t0.elapsed().as_nanos() as u64,
            violations,
        })
    }

    /// Admits one job. `batch_worker: Some(w)` marks a batch job: it waits
    /// for queue space whatever the admission policy, stays off the
    /// result stream, and if small is pinned to small worker `w`.
    fn admit(
        &self,
        req: SolveRequest,
        opts: JobOptions,
        batch_worker: Option<usize>,
    ) -> Result<JobHandle, ServerError> {
        let admission = match batch_worker {
            Some(_) => AdmissionPolicy::Block,
            None => self.cfg.admission,
        };
        let mut st = self.shared.lock();
        loop {
            if st.closed {
                return Err(ServerError::ShuttingDown);
            }
            if st.queued() < self.shared.capacity {
                break;
            }
            match admission {
                AdmissionPolicy::Reject => {
                    return Err(ServerError::Saturated {
                        capacity: self.shared.capacity,
                    })
                }
                AdmissionPolicy::Block => {
                    st = self.shared.space.wait(st).expect("server state lock");
                }
            }
        }
        let job_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::new(JobShared::default());
        let handle = JobHandle {
            job_id,
            id: req.id.clone(),
            shared: shared.clone(),
        };
        let large = self.cfg.is_large(req.graph.n());
        let job = QueuedJob {
            job_id,
            seq: job_id,
            priority: opts.priority,
            deadline: opts.deadline,
            submitted: Instant::now(),
            req,
            shared,
            streamed: batch_worker.is_none(),
        };
        match batch_worker {
            _ if large => {
                st.large.push(job);
                self.shared.large_ready.notify_one();
            }
            Some(w) => {
                st.pinned[w].push(job);
                // Only worker `w` may take it; wake them all to reach it.
                self.shared.small_ready.notify_all();
            }
            None => {
                st.small.push(job);
                self.shared.small_ready.notify_one();
            }
        }
        Ok(handle)
    }

    /// Stops dispatching queued jobs (already-running solves finish).
    /// Admission is unaffected — useful for building up a queue
    /// deterministically (tests, the bench saturation probe).
    pub fn pause(&self) {
        self.shared.lock().paused = true;
    }

    /// Resumes dispatch after [`StreamingServer::pause`].
    pub fn resume(&self) {
        let mut st = self.shared.lock();
        st.paused = false;
        drop(st);
        self.shared.small_ready.notify_all();
        self.shared.large_ready.notify_all();
    }

    /// Receives the next finished job, blocking until one is available.
    /// `None` once the server is shut down and every admitted job's
    /// result has been received.
    pub fn next_result(&self) -> Option<JobResult> {
        self.results.lock().expect("results lock").recv().ok()
    }

    /// Like [`StreamingServer::next_result`] with a timeout; `None` on
    /// timeout or exhaustion.
    pub fn next_result_timeout(&self, timeout: Duration) -> Option<JobResult> {
        self.results
            .lock()
            .expect("results lock")
            .recv_timeout(timeout)
            .ok()
    }

    /// Receives a finished job if one is already waiting.
    pub fn try_next_result(&self) -> Option<JobResult> {
        self.results.lock().expect("results lock").try_recv().ok()
    }

    /// Drains the server: stops admitting, lets every already-admitted
    /// job reach a terminal result (cancellations and expired deadlines
    /// included), and joins the worker threads. Idempotent; also run by
    /// `Drop`. Buffered results remain receivable afterwards.
    pub fn shutdown(&mut self) {
        {
            let mut st = self.shared.lock();
            st.closed = true;
            // A paused, closed server must still drain its queue.
            st.paused = false;
        }
        self.shared.small_ready.notify_all();
        self.shared.large_ready.notify_all();
        self.shared.space.notify_all();
        for t in self.threads.drain(..) {
            t.join()
                .expect("workers exit only by draining (job panics stay in `resolve`)");
        }
    }
}

impl Drop for StreamingServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One lane worker: pop the best queued job, resolve it, publish the
/// session's pool counters, then the result; exit when the server is
/// closed and the lane is drained.
fn worker_loop(shared: &Shared, lane: Lane, threads: usize, tx: &mpsc::Sender<JobResult>) {
    let mut session = SolverSession::new();
    // Counters of sessions replaced after a panic.
    let mut retired = PoolStats::default();
    loop {
        let job = {
            let mut st = shared.lock();
            loop {
                if !st.paused {
                    if let Some(job) = st.pop(lane) {
                        break Some(job);
                    }
                    if st.closed {
                        break None;
                    }
                }
                let cv = match lane {
                    Lane::Small(_) => &shared.small_ready,
                    Lane::Large => &shared.large_ready,
                };
                st = cv.wait(st).expect("server state lock");
            }
        };
        let Some(job) = job else { return };
        // One admission slot freed; wake one blocked submitter.
        shared.space.notify_one();
        let result = resolve(&mut session, &mut retired, &job, threads);
        shared.lock().pools[lane.slot()] = plus(retired, session.pool_stats());
        job.shared.finish(result.clone());
        if job.streamed {
            // The receiver lives in the server façade; if the façade is
            // mid-drop the handle above already carries the result.
            let _ = tx.send(result);
        }
    }
}

/// Resolves one popped job: cancellation and deadline are checked *before*
/// dispatch, so an unwanted job never burns a solve.
///
/// This is the job boundary: a panicking solve is caught here and
/// reported as [`JobStatus::Panicked`], and the session — whose pooled
/// arenas may be mid-write — is replaced by a fresh one (its counters
/// move to `retired`).
fn resolve(
    session: &mut SolverSession,
    retired: &mut PoolStats,
    job: &QueuedJob,
    threads: usize,
) -> JobResult {
    let dispatched = Instant::now();
    let queued_ns = dispatched.duration_since(job.submitted).as_nanos() as u64;
    let status = if job.shared.cancel.load(Ordering::Acquire) {
        JobStatus::Cancelled
    } else if job.deadline.is_some_and(|d| dispatched >= d) {
        JobStatus::DeadlineExpired
    } else {
        match catch_unwind(AssertUnwindSafe(|| {
            session.solve_with_threads(&job.req, threads)
        })) {
            Ok(Ok(out)) => JobStatus::Completed(Box::new(out)),
            Ok(Err(e)) => JobStatus::Failed(e),
            Err(payload) => {
                *retired = plus(*retired, std::mem::take(session).pool_stats());
                JobStatus::Panicked(panic_message(payload.as_ref()))
            }
        }
    };
    JobResult {
        job_id: job.job_id,
        id: job.req.id.clone(),
        priority: job.priority,
        status,
        queued_ns,
        total_ns: job.submitted.elapsed().as_nanos() as u64,
    }
}

/// The message of a panic payload (`panic!` carries a `&str` or a
/// `String`).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic with a non-string payload".to_owned())
}
