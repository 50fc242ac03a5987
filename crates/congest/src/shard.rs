//! The work-stealing deterministic executor: parallel CONGEST rounds
//! that stay bit-identical to the single-threaded engines with **one**
//! barrier per round.
//!
//! [`run_sharded`] partitions the CSR node arena into `C` contiguous,
//! slot-balanced *chunks* (`C = min(8 × threads, 64, n)`), each a
//! self-contained [`SegmentState`] with its own frontier
//! (`SlidingQueue` + `BitSet`), slot-arena slice, and protocol states.
//! Every worker owns a contiguous *home range* of chunks, claimed through
//! a per-range atomic cursor; a worker that drains its home range steals
//! whole chunks from the other ranges through the same cursors. A round
//! is, per claimed chunk:
//!
//! 1. **staged merge**: drain the messages other chunks staged for this
//!    chunk last round, in ascending source-chunk order — which, because
//!    chunks are contiguous ascending node ranges committed in ascending
//!    node order, is exactly the canonical ascending `(sender id, edge
//!    id)` order — writing each into its unique per-directed-edge slot;
//! 2. **promote**: slide the chunk's frontier and swap its slot arenas;
//! 3. **compute**: drain the chunk's active window in ascending node-id
//!    order, exactly like the single-threaded scheduler ([`crate::run`]);
//!    same-chunk deliveries are written straight into the chunk's `next`
//!    segment, cross-chunk deliveries are validated, metered, counted,
//!    and staged per `(destination, source)` chunk pair.
//!
//! After the claims dry up the worker publishes its per-round counters
//! (messages sent, not-done votes, error flag), crosses the round's
//! single barrier, and every worker replicates the same termination
//! decision from the published counters. Chunks with an empty frontier
//! tail and no staged arrivals are skipped at the cost of one cursor
//! claim — on skewed instances most of the graph is asleep most rounds,
//! and whole sleeping regions cost almost nothing while the few busy
//! chunks are shared by all workers.
//!
//! # Why the outcome is bit-identical
//!
//! Synchronous-round semantics make round `r` a pure function of the
//! state after round `r − 1`: a node's inbox (gathered from its own slot
//! segment in adjacency order, i.e. ascending sender id) and its state do
//! not depend on *when* other nodes run within the round — so neither
//! chunk claim order nor steal timing can influence any node's behavior.
//! Each per-directed-edge slot has exactly one legal writer per round, so
//! slot contents are independent of the chunk layout and of staging
//! order; each chunk's frontier window is sorted ascending and
//! deduplicated before execution, so scheduling order is canonical no
//! matter when deliveries arrived; [`crate::RunMetrics`] and the
//! deterministic [`SchedStats`] fields are commutative folds (sums and a
//! max) over layout-independent per-node facts; and commit-time model
//! violations are node-local verdicts, so the run aborts with the verdict
//! of the smallest erroring node id — the same error the sequential
//! executors report. The equivalence is property-tested across thread
//! counts and adversarially skewed activity patterns in
//! `tests/scheduler_equivalence.rs`.
//!
//! Two structural invariants carry the proofs:
//!
//! * **unique claim** — chunk cursors only move through `fetch_add`, so
//!   every chunk is claimed by exactly one worker per round; a claimed
//!   chunk is processed immediately by its claimant, whose exclusive
//!   access is materialized by the chunk's (uncontended) mutex;
//! * **lowest-error coverage** — a worker claims its home chunks in
//!   ascending chunk (hence node-id) order and only steals after its
//!   own range is fully claimed. If the chunk holding the globally
//!   smallest erroring node were left unclaimed, its home worker must
//!   have stopped earlier in its own range — i.e. on a violation by an
//!   even smaller node id, contradicting minimality. The minimal error
//!   is therefore always observed and wins the reduction.
//!
//! The replicated decision is race-free by construction: counters are
//! double-buffered by round parity, every worker publishes *before* the
//! round's barrier and reads *after* it, and a slot of the same parity is
//! only rewritten two barriers later — by which time every reader has
//! long moved on. The same parity scheme protects the staging matrix:
//! cells written in round `r` are drained in round `r + 1` under the
//! opposite parity, so producers and consumers of the same cell are
//! always separated by the barrier.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

use dsf_graph::WeightedGraph;

use crate::buffers::{
    check_arena_capacity, CsrTopology, EngineCtx, RemoteMsg, RunBuffers, SegmentState,
};
use crate::executor::{
    CongestConfig, Protocol, RunMetrics, RunResult, SchedStats, SimError, WorkerObs,
};
use crate::scheduler::{invoke_init, invoke_round, run_with_buffers};

/// Chunks handed to each worker's home range before stealing kicks in:
/// enough granularity that one hot region splits across workers, small
/// enough that idle-chunk claims stay negligible.
const CHUNKS_PER_WORKER: usize = 8;

/// Hard cap on the chunk count: the per-chunk staged-arrival source sets
/// are single `u64` bitmasks, so a chunk's merge scan touches only the
/// nonempty staging cells.
const MAX_CHUNKS: usize = 64;

/// Process-wide default worker-thread count used by [`crate::run`];
/// 0 = not yet initialized from the environment.
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Scoped per-thread override installed by [`with_threads`], consulted
    /// before the process-wide default. Lets a scheduler (the solver
    /// service) pin the dispatch of the solves *it* runs without
    /// perturbing concurrent users of [`crate::run`] on other threads.
    static THREAD_OVERRIDE: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// The worker-thread count [`crate::run`] dispatches on for the calling
/// thread: a scoped [`with_threads`] override if one is installed,
/// otherwise the process-wide default — the value of the `DSF_THREADS`
/// environment variable at first use (clamped to ≥ 1, default 1). Thread
/// count never changes any
/// deterministic outcome — it is a wall-clock knob only.
///
/// A set-but-malformed `DSF_THREADS` (unparseable, or `0`) falls back to
/// 1 worker, with a one-time diagnostic on stderr — a perf-gate run with
/// a typo'd variable must not *silently* drop to single-threaded (the
/// bench header also prints the effective count).
pub fn default_threads() -> usize {
    if let Some(t) = THREAD_OVERRIDE.with(std::cell::Cell::get) {
        return t;
    }
    match DEFAULT_THREADS.load(Ordering::Relaxed) {
        0 => {
            let raw = std::env::var("DSF_THREADS").ok();
            let parsed = raw.as_ref().and_then(|s| s.trim().parse::<usize>().ok());
            if let Some(raw) = &raw {
                if parsed.is_none() || parsed == Some(0) {
                    // Once: the first initializer wins the race, so losers
                    // (who would observe a nonzero cache) never get here
                    // twice, but two simultaneous first calls could.
                    static DIAG: std::sync::Once = std::sync::Once::new();
                    DIAG.call_once(|| {
                        eprintln!(
                            "dsf-congest: DSF_THREADS={raw:?} is not a positive integer; \
                             falling back to 1 worker thread"
                        );
                    });
                }
            }
            let t = parsed.unwrap_or(1).max(1);
            DEFAULT_THREADS.store(t, Ordering::Relaxed);
            t
        }
        t => t,
    }
}

/// Runs `f` with this thread's [`crate::run`] dispatch pinned to
/// `threads` workers (clamped to ≥ 1), restoring the previous state on
/// exit — including on unwind. The override is purely thread-local:
/// concurrent runs on other threads are unaffected, which is how the
/// solver service schedules batches without perturbing anyone else's
/// configuration. Nesting is allowed; the innermost
/// override wins.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = THREAD_OVERRIDE.with(|c| c.replace(Some(threads.max(1))));
    let _restore = Restore(prev);
    f()
}

/// Cumulative process-wide scheduling observability from every completed
/// [`run_sharded`] run. Report-only by contract: these totals track
/// wall-clock effort distribution (steal traffic, idle rounds), never
/// anything that feeds a deterministic outcome — `bench_runner` prints
/// the per-mode deltas in each mode footer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedObsTotals {
    /// Completed multi-threaded runs.
    pub sharded_runs: u64,
    /// Worker-rounds in which a worker processed at least one chunk with
    /// work.
    pub worker_rounds: u64,
    /// Active-set slots (node invocations, `init` included) executed.
    pub slots_processed: u64,
    /// Chunks claimed outside the claiming worker's home range that held
    /// work.
    pub chunks_stolen: u64,
    /// Worker-rounds spent reaching the barrier with nothing to do.
    pub idle_waits: u64,
}

static OBS_RUNS: AtomicU64 = AtomicU64::new(0);
static OBS_ROUNDS: AtomicU64 = AtomicU64::new(0);
static OBS_SLOTS: AtomicU64 = AtomicU64::new(0);
static OBS_STEALS: AtomicU64 = AtomicU64::new(0);
static OBS_IDLE: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide [`SchedObsTotals`]. Callers wanting
/// per-phase numbers (the bench modes) snapshot before and after and
/// report the difference.
pub fn sched_obs_totals() -> SchedObsTotals {
    SchedObsTotals {
        sharded_runs: OBS_RUNS.load(Ordering::Relaxed),
        worker_rounds: OBS_ROUNDS.load(Ordering::Relaxed),
        slots_processed: OBS_SLOTS.load(Ordering::Relaxed),
        chunks_stolen: OBS_STEALS.load(Ordering::Relaxed),
        idle_waits: OBS_IDLE.load(Ordering::Relaxed),
    }
}

/// How a worker left the round loop. All workers take the same exit in
/// the same round (the decision is a pure function of replicated data).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// Network quiet and all votes done.
    Quiesced,
    /// A model violation was recorded; the run returns it.
    Aborted,
    /// `cfg.max_rounds` exceeded.
    MaxRounds,
}

/// One chunk's claimable state: its arena segment plus the protocol
/// states of its nodes. The mutex materializes the unique-claim
/// invariant for the borrow checker — it is locked exactly once per
/// round, by the claimant, and never contended.
struct ChunkSlot<M, P> {
    seg: SegmentState<M>,
    nodes: Vec<P>,
}

/// State shared by all workers of one run.
struct SharedRound<M, P> {
    /// The round's single barrier.
    barrier: Barrier,
    /// The `C` claimable chunks, ascending contiguous node ranges.
    chunks: Vec<Mutex<ChunkSlot<M, P>>>,
    /// Post-hoc merge staging, double-buffered by round parity:
    /// `staging[p][dst * C + src]` holds the messages chunk `src`
    /// committed for chunk `dst` in a round of parity `p`, drained by
    /// `dst`'s claimant in the next round (opposite parity). Each cell is
    /// locked at most twice per use (producer swap-in, consumer drain)
    /// and its storage is recycled by the swap.
    staging: [Vec<Mutex<Vec<RemoteMsg<M>>>>; 2],
    /// Nonempty-source masks over the staging matrix, one `u64` per
    /// destination chunk and parity: bit `src` set ⇔ the staging cell
    /// `staging[p][dst * C + src]` is nonempty. The claimant consumes its
    /// chunk's mask with a single `swap(0)` and visits only the set bits,
    /// in ascending source-chunk (= canonical sender) order.
    nonempty: [Vec<AtomicU64>; 2],
    /// Per-worker home-range claim cursors (relative chunk index).
    /// Thieves advance foreign cursors with the same `fetch_add`, which
    /// is what makes every claim unique.
    cursors: Vec<AtomicUsize>,
    /// Home chunk range `[lo, hi)` of each worker.
    homes: Vec<(usize, usize)>,
    /// Per-worker `[sent, not_done, erred]` counters for the replicated
    /// termination decision, double-buffered by round parity: written by
    /// the owner before the round's barrier, read by everyone after it,
    /// and not rewritten until two barriers later.
    published: [Vec<[AtomicU64; 3]>; 2],
    /// The lowest-node-id model violation observed across chunks; the
    /// value the run aborts with.
    first_error: Mutex<Option<(u32, SimError)>>,
}

/// The node a commit-time violation is attributed to (all commit errors
/// name their sender).
fn error_node(e: &SimError) -> u32 {
    match e {
        SimError::BandwidthExceeded { from, .. }
        | SimError::DuplicateSend { from, .. }
        | SimError::NotANeighbor { from, .. } => from.0,
        // Raised by the loop control / entry checks, never by a commit.
        SimError::MaxRoundsExceeded { .. }
        | SimError::WrongNodeCount { .. }
        | SimError::ArenaOverflow { .. } => {
            unreachable!("not a commit error")
        }
    }
}

/// Records `e` as the run's error iff its node precedes the current one —
/// reproducing the sequential executors, which stop at the first erroring
/// node in ascending id order.
fn record_error(slot: &Mutex<Option<(u32, SimError)>>, e: SimError) {
    let node = error_node(&e);
    let mut guard = slot.lock().expect("no worker panics while recording");
    if guard.as_ref().is_none_or(|(n, _)| node < *n) {
        *guard = Some((node, e));
    }
}

/// Executes `nodes` on `g` until quiescence with `threads` worker
/// threads, bit-identical to [`crate::run`] and [`crate::run_reference`]
/// in [`RunMetrics`], final states, deterministic [`SchedStats`], and
/// errors (see the module docs for the argument; `threads` is clamped to
/// `1..=n`). `threads == 1` runs the single-threaded scheduler directly.
///
/// # Example
///
/// ```
/// use dsf_congest::{run_sharded, CongestConfig, Message, NodeCtx, Outbox, Protocol};
/// use dsf_graph::{generators, NodeId};
///
/// #[derive(Clone, Debug)]
/// struct Token;
/// impl Message for Token {
///     fn encoded_bits(&self) -> usize { 1 }
/// }
/// struct Flood { have: bool }
/// impl Protocol for Flood {
///     type Msg = Token;
///     fn init(&mut self, ctx: &NodeCtx, out: &mut Outbox<Token>) {
///         if ctx.id == NodeId(0) { self.have = true; out.send_all(ctx, Token); }
///     }
///     fn round(&mut self, ctx: &NodeCtx, inbox: &[(NodeId, Token)], out: &mut Outbox<Token>) {
///         if !self.have && !inbox.is_empty() { self.have = true; out.send_all(ctx, Token); }
///     }
///     fn done(&self) -> bool { self.have }
/// }
///
/// let g = generators::grid(8, 8, 4, 0);
/// let cfg = CongestConfig::for_graph(&g);
/// let nodes = |_: ()| (0..64).map(|_| Flood { have: false }).collect::<Vec<_>>();
/// let four = run_sharded(&g, nodes(()), &cfg, 4).unwrap();
/// let one = run_sharded(&g, nodes(()), &cfg, 1).unwrap();
/// // Bit-identical at every thread count — the worker count is a pure
/// // wall-clock knob.
/// assert_eq!(four.metrics, one.metrics);
/// ```
///
/// # Errors
///
/// Propagates any [`SimError`] raised by model enforcement — the same
/// error the sequential executors raise on the same protocol.
pub fn run_sharded<P>(
    g: &WeightedGraph,
    nodes: Vec<P>,
    cfg: &CongestConfig,
    threads: usize,
) -> Result<RunResult<P>, SimError>
where
    P: Protocol + Send,
    P::Msg: Send,
{
    let n = g.n();
    if nodes.len() != n {
        return Err(SimError::WrongNodeCount {
            expected: n,
            got: nodes.len(),
        });
    }
    check_arena_capacity(n, g.m())?;
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        let mut buffers = RunBuffers::for_graph(g);
        return run_with_buffers(g, nodes, cfg, &mut buffers);
    }

    let topo = CsrTopology::build(g);
    let c_total = (threads * CHUNKS_PER_WORKER).min(MAX_CHUNKS).min(n);
    let bounds = topo.shard_bounds(c_total);
    let c_total = bounds.len() - 1;
    let t = threads;
    let chunks: Vec<Mutex<ChunkSlot<P::Msg, P>>> = (0..c_total)
        .map(|c| SegmentState::new(&topo, bounds[c], bounds[c + 1]))
        .zip(split_nodes(nodes, &bounds))
        .map(|(seg, nodes)| Mutex::new(ChunkSlot { seg, nodes }))
        .collect();
    let cell_grid = || -> Vec<Mutex<Vec<RemoteMsg<P::Msg>>>> {
        (0..c_total * c_total)
            .map(|_| Mutex::new(Vec::new()))
            .collect()
    };
    let mask_row = || -> Vec<AtomicU64> { (0..c_total).map(|_| AtomicU64::new(0)).collect() };
    let published_row = || -> Vec<[AtomicU64; 3]> {
        (0..t)
            .map(|_| [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)])
            .collect()
    };
    let sync = SharedRound {
        barrier: Barrier::new(t),
        chunks,
        staging: [cell_grid(), cell_grid()],
        nonempty: [mask_row(), mask_row()],
        cursors: (0..t).map(|_| AtomicUsize::new(0)).collect(),
        homes: (0..t)
            .map(|w| (w * c_total / t, (w + 1) * c_total / t))
            .collect(),
        published: [published_row(), published_row()],
        first_error: Mutex::new(None),
    };

    let results: Vec<(Outcome, u64, WorkerObs)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..t)
            .map(|me| {
                let (topo, bounds, sync) = (&topo, &bounds[..], &sync);
                scope.spawn(move || {
                    let ectx = EngineCtx {
                        g,
                        topo,
                        cfg,
                        bounds,
                    };
                    worker(me, &ectx, sync)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                // A protocol callback panicked on that worker: re-raise
                // the original payload, exactly as the sequential
                // engines would have (the worker already steered every
                // other worker out of the barrier protocol first).
                Err(payload) => resume_unwind(payload),
            })
            .collect()
    });

    // Fold the report-only observability (process totals + per-run view)
    // before any early return, so even erroring runs are visible in the
    // bench footers.
    let mut workers = Vec::with_capacity(t);
    for (_, _, obs) in &results {
        OBS_ROUNDS.fetch_add(obs.rounds_participated, Ordering::Relaxed);
        OBS_SLOTS.fetch_add(obs.slots_processed, Ordering::Relaxed);
        OBS_STEALS.fetch_add(obs.chunks_stolen, Ordering::Relaxed);
        OBS_IDLE.fetch_add(obs.idle_waits, Ordering::Relaxed);
        workers.push(*obs);
    }
    OBS_RUNS.fetch_add(1, Ordering::Relaxed);

    if let Some((_, e)) = sync.first_error.into_inner().expect("workers joined") {
        return Err(e);
    }
    let (outcome, rounds, _) = results[0];
    if outcome == Outcome::MaxRounds {
        return Err(SimError::MaxRoundsExceeded {
            limit: cfg.max_rounds,
        });
    }
    let mut states = Vec::with_capacity(n);
    let mut metrics = RunMetrics::default();
    let mut stats = SchedStats::default();
    for slot in sync.chunks {
        let ChunkSlot { seg, nodes } = slot
            .into_inner()
            .expect("a panicked worker was re-raised above");
        states.extend(nodes);
        metrics.messages += seg.metrics.messages;
        metrics.total_bits += seg.metrics.total_bits;
        metrics.max_message_bits = metrics.max_message_bits.max(seg.metrics.max_message_bits);
        metrics.cut_bits += seg.metrics.cut_bits;
        stats.activations += seg.stats.activations;
        stats.wakeups += seg.stats.wakeups;
    }
    metrics.rounds = rounds;
    stats.workers = workers;
    Ok(RunResult {
        states,
        metrics,
        stats,
    })
}

/// Splits the node vector into per-chunk vectors along `bounds` with O(n)
/// total moves.
fn split_nodes<P>(nodes: Vec<P>, bounds: &[u32]) -> Vec<Vec<P>> {
    let t = bounds.len() - 1;
    let mut chunks = Vec::with_capacity(t);
    let mut rest = nodes;
    for s in (1..t).rev() {
        chunks.push(rest.split_off(bounds[s] as usize));
    }
    chunks.push(rest);
    chunks.reverse();
    chunks
}

/// Everything one worker accumulates within a single round.
struct RoundAcc {
    /// Messages committed by the chunks this worker processed (local and
    /// staged alike, counted at send time).
    sent: u64,
    /// Sum of the not-done votes over every chunk this worker claimed.
    /// Each chunk is claimed exactly once per round, so the cross-worker
    /// sum is the exact global count.
    not_done: u64,
    /// Whether any claimed chunk had work.
    worked: bool,
    /// A model violation was recorded; stop claiming, finish the round.
    erred: bool,
}

/// One worker's run: claim → process until the cursors dry up, publish,
/// one barrier, replicated decision — repeated until every worker takes
/// the same exit.
fn worker<P: Protocol>(
    me: usize,
    ectx: &EngineCtx<'_>,
    sync: &SharedRound<P::Msg, P>,
) -> (Outcome, u64, WorkerObs) {
    let t = sync.cursors.len();
    let c_total = sync.chunks.len();
    let mut outbound: Vec<Vec<RemoteMsg<P::Msg>>> = (0..c_total).map(|_| Vec::new()).collect();
    let mut obs = WorkerObs::default();
    // A panic caught in a protocol callback. Unwinding out of the round
    // loop directly would strand every other worker in `Barrier::wait`
    // forever; instead the panic is held, the round is flagged as erred
    // so the abort decision is collective, and the payload is re-raised
    // only after the barrier (see the `Aborted` exit).
    let mut panicked: Option<Box<dyn std::any::Any + Send>> = None;
    let mut round = 0u64;

    loop {
        let par = (round & 1) as usize;
        let mut acc = RoundAcc {
            sent: 0,
            not_done: 0,
            worked: false,
            erred: false,
        };

        // Claim phase: home range first (ascending — the lowest-error
        // coverage argument in the module docs depends on this), then
        // steal from the other ranges. Re-scan until a full pass claims
        // nothing; every cursor advance is a fetch_add, so each chunk is
        // claimed exactly once across all workers.
        loop {
            let mut claimed_any = false;
            'ranges: for i in 0..t {
                let w = (me + i) % t;
                let (lo, hi) = sync.homes[w];
                loop {
                    if acc.erred {
                        break 'ranges;
                    }
                    let idx = sync.cursors[w].fetch_add(1, Ordering::Relaxed);
                    if lo + idx >= hi {
                        break;
                    }
                    claimed_any = true;
                    let had_work = process_chunk(
                        lo + idx,
                        round,
                        par,
                        ectx,
                        sync,
                        &mut outbound,
                        &mut acc,
                        &mut obs,
                        &mut panicked,
                    );
                    if had_work && w != me {
                        obs.chunks_stolen += 1;
                    }
                }
            }
            if acc.erred || !claimed_any {
                break;
            }
        }

        // Publish this round's decision inputs under the round's parity.
        // Relaxed stores suffice: the barrier orders them against every
        // reader, and this parity slot is not rewritten until two
        // barriers later.
        let p = &sync.published[par][me];
        p[0].store(acc.sent, Ordering::Relaxed);
        p[1].store(acc.not_done, Ordering::Relaxed);
        p[2].store(u64::from(acc.erred), Ordering::Relaxed);
        if acc.worked {
            obs.rounds_participated += 1;
        } else {
            obs.idle_waits += 1;
        }
        sync.barrier.wait();
        // Reset the own-home cursor for the next round. Claims of round
        // `round` all happened before the barrier, so nothing races this
        // store; a thief peeking before the reset merely sees an
        // exhausted range and moves on (the owner still processes it).
        sync.cursors[me].store(0, Ordering::Relaxed);

        // Replicated decision — same inputs, same verdict, on every
        // worker.
        let mut sent = 0u64;
        let mut not_done = 0u64;
        let mut any_err = false;
        for p in &sync.published[par] {
            sent += p[0].load(Ordering::Relaxed);
            not_done += p[1].load(Ordering::Relaxed);
            any_err |= p[2].load(Ordering::Relaxed) != 0;
        }
        if any_err {
            // Past the barrier: every worker is taking this exit, so
            // re-raising a held panic can no longer strand anyone.
            if let Some(payload) = panicked {
                resume_unwind(payload);
            }
            return (Outcome::Aborted, round, obs);
        }
        if sent == 0 && not_done == 0 {
            return (Outcome::Quiesced, round, obs);
        }
        round += 1;
        if round > ectx.cfg.max_rounds {
            return (Outcome::MaxRounds, round, obs);
        }
    }
}

/// Processes one claimed chunk for `round`: staged merge in canonical
/// order, promote, compute, then flush this chunk's cross-chunk commits
/// into the opposite-parity staging row. Returns whether the chunk had
/// any work (an idle chunk costs one mask load and a frontier check).
#[allow(clippy::too_many_arguments)]
fn process_chunk<P: Protocol>(
    c: usize,
    round: u64,
    par: usize,
    ectx: &EngineCtx<'_>,
    sync: &SharedRound<P::Msg, P>,
    outbound: &mut [Vec<RemoteMsg<P::Msg>>],
    acc: &mut RoundAcc,
    obs: &mut WorkerObs,
    panicked: &mut Option<Box<dyn std::any::Any + Send>>,
) -> bool {
    let c_total = sync.chunks.len();
    // Consume this chunk's staged-arrival source set. Acquire pairs with
    // the producers' Release, though the barrier already orders both.
    let mask = sync.nonempty[par][c].swap(0, Ordering::Acquire);
    let mut guard = sync.chunks[c]
        .lock()
        .expect("chunk claims are unique and panics are caught inside");
    let ChunkSlot { seg, nodes } = &mut *guard;

    let outcome = if round == 0 {
        // Round 0: every chunk inits all of its nodes.
        acc.worked = true;
        obs.slots_processed += u64::from(seg.node_hi - seg.node_lo);
        catch_unwind(AssertUnwindSafe(|| {
            invoke_init(ectx, &mut *seg, nodes, &mut *outbound)
        }))
    } else {
        if mask == 0 && seg.frontier.tail_is_empty() {
            // Asleep: nothing arrived, nothing scheduled. `not_done`
            // must still be folded in (it is 0 whenever the invariant
            // "a not-done node is always scheduled" holds, but counting
            // it keeps the termination decision conservative).
            acc.not_done += seg.not_done as u64;
            return false;
        }
        acc.worked = true;
        // Staged merge: ascending source-chunk order is ascending
        // (sender id, edge id) order — the canonical merge order.
        let mut m = mask;
        while m != 0 {
            let src = m.trailing_zeros() as usize;
            m &= m - 1;
            let mut cell = sync.staging[par][c * c_total + src]
                .lock()
                .expect("staging cells see no panics");
            for msg in cell.drain(..) {
                seg.deliver_remote(msg);
            }
        }
        seg.promote();
        let before = seg.stats.activations;
        let r = catch_unwind(AssertUnwindSafe(|| {
            invoke_round(ectx, round, &mut *seg, nodes, &mut *outbound)
        }));
        obs.slots_processed += seg.stats.activations - before;
        r
    };

    match outcome {
        Ok(Ok(())) => {
            // Flush this chunk's cross-chunk commits into the staging row
            // of the next round's parity; the swap recycles whatever
            // storage the destination drained last time.
            let wpar = par ^ 1;
            for (dst, q) in outbound.iter_mut().enumerate() {
                if q.is_empty() {
                    continue;
                }
                debug_assert_ne!(dst, c, "same-chunk messages take the local path");
                let mut cell = sync.staging[wpar][dst * c_total + c]
                    .lock()
                    .expect("staging cells see no panics");
                debug_assert!(cell.is_empty(), "cell already drained by its consumer");
                std::mem::swap(&mut *cell, q);
                sync.nonempty[wpar][dst].fetch_or(1 << c, Ordering::Release);
            }
            acc.sent += seg.in_flight;
            acc.not_done += seg.not_done as u64;
        }
        Ok(Err(e)) => {
            record_error(&sync.first_error, e);
            acc.erred = true;
            // The partial commits are moot (the run aborts), but the
            // queues must not leak into another chunk's flush.
            for q in outbound.iter_mut() {
                q.clear();
            }
        }
        Err(payload) => {
            *panicked = Some(payload);
            acc.erred = true;
            for q in outbound.iter_mut() {
                q.clear();
            }
        }
    }
    true
}
