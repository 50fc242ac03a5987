//! The event-driven active-set scheduler.
//!
//! The reference executor ([`crate::run_reference`]) invokes
//! [`Protocol::round`] on **every** node **every** round — Θ(n · rounds)
//! work regardless of traffic, which dwarfs the useful work of sparse
//! protocols such as BFS waves where most nodes idle most rounds. This
//! scheduler only invokes nodes that are *active*:
//!
//! * a node that received a message this round (delivery wakes sleepers),
//! * a node whose last termination vote was not done.
//!
//! Synchronous delivery semantics are preserved exactly: messages sent in
//! round `r` arrive in round `r + 1`, inboxes list senders in ascending
//! node-id order, and active nodes execute in ascending node-id order —
//! precisely the observable behavior of the reference executor. The
//! equivalence is property-tested (`tests/scheduler_equivalence.rs`).
//!
//! Skipping a node is sound because of the [`Protocol::done`] contract: a
//! node voting done must neither send nor change state when invoked with
//! an empty inbox, so the skipped invocations are exactly the no-op ones.
//! A protocol that votes done and keeps talking violates the contract;
//! the reference executor (which skips nothing) flushes such bugs out.
//!
//! The per-node steps ([`invoke_init`], [`invoke_round`]) are shared with
//! the work-stealing engine in [`crate::shard`]: both operate on
//! [`SegmentState`] partitions, this module simply using a single segment
//! covering the whole graph while the sharded engine uses one per chunk.

use dsf_graph::{NodeId, WeightedGraph};

use crate::buffers::{check_arena_capacity, EngineCtx, RemoteMsg, RunBuffers, SegmentState};
use crate::executor::{CongestConfig, NodeCtx, Outbox, Protocol, RunResult, SimError};
use crate::pool;
use crate::shard::{default_threads, run_sharded};

/// Executes `nodes` (one [`Protocol`] state per node id) on the network
/// `g` until quiescence.
///
/// The engine is chosen by the configured worker-thread count
/// ([`crate::default_threads`], settable via the `DSF_THREADS` environment
/// variable or a scoped [`crate::with_threads`]): 1 runs the single-threaded
/// active-set scheduler — reusing a pooled slot arena when a
/// [`crate::BufferPool`] is installed on the thread, allocating fresh
/// [`RunBuffers`] otherwise; more dispatches to [`crate::run_sharded`].
/// Either way the observable outcome — [`crate::RunMetrics`], final
/// states, errors — is bit-identical; the thread count and the pool are
/// pure wall-clock/allocation knobs.
///
/// # Example
///
/// ```
/// use dsf_congest::{run, CongestConfig, Message, NodeCtx, Outbox, Protocol};
/// use dsf_graph::{generators, NodeId};
///
/// /// One-bit token, flooded outward from node 0.
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
/// let g = generators::path(5, 1);
/// let nodes = (0..5).map(|_| Flood { have: false }).collect();
/// let res = run(&g, nodes, &CongestConfig::for_graph(&g)).unwrap();
/// assert!(res.states.iter().all(|s| s.have));
/// ```
///
/// # Errors
///
/// Propagates any [`SimError`] raised by model enforcement.
pub fn run<P>(
    g: &WeightedGraph,
    nodes: Vec<P>,
    cfg: &CongestConfig,
) -> Result<RunResult<P>, SimError>
where
    P: Protocol + Send,
    P::Msg: Send + 'static,
{
    match default_threads() {
        0 | 1 => match pool::checkout::<P::Msg>(g) {
            Some(mut buffers) => {
                let res = run_with_buffers(g, nodes, cfg, &mut buffers);
                pool::checkin(buffers);
                res
            }
            None => {
                let mut buffers = RunBuffers::for_graph(g);
                run_with_buffers(g, nodes, cfg, &mut buffers)
            }
        },
        t => run_sharded(g, nodes, cfg, t),
    }
}

/// Like [`run`], but always single-threaded and reusing caller-owned
/// [`RunBuffers`]: repeated runs on the same graph allocate zero
/// steady-state memory.
///
/// # Errors
///
/// Propagates any [`SimError`] raised by model enforcement.
pub fn run_with_buffers<P: Protocol>(
    g: &WeightedGraph,
    mut nodes: Vec<P>,
    cfg: &CongestConfig,
    buf: &mut RunBuffers<P::Msg>,
) -> Result<RunResult<P>, SimError> {
    let n = g.n();
    if nodes.len() != n {
        return Err(SimError::WrongNodeCount {
            expected: n,
            got: nodes.len(),
        });
    }
    check_arena_capacity(n, g.m())?;
    buf.reset_for(g);
    let RunBuffers { topo, seg } = buf;
    let bounds = [0u32, n as u32];
    let ectx = EngineCtx {
        g,
        topo,
        cfg,
        bounds: &bounds,
    };

    // Round 0: init every node; with a single segment no message can be
    // cross-chunk, so the outbound queues stay untouched.
    invoke_init(&ectx, seg, &mut nodes, &mut [])?;

    let mut round = 0u64;
    loop {
        if seg.in_flight == 0 && seg.not_done == 0 {
            break;
        }
        round += 1;
        if round > cfg.max_rounds {
            return Err(SimError::MaxRoundsExceeded {
                limit: cfg.max_rounds,
            });
        }
        seg.promote();
        invoke_round(&ectx, round, seg, &mut nodes, &mut [])?;
        seg.metrics.rounds = round;
    }

    Ok(RunResult {
        states: nodes,
        metrics: std::mem::take(&mut seg.metrics),
        stats: std::mem::take(&mut seg.stats),
    })
}

/// Round 0 over one segment: initializes every owned node, commits its
/// messages, and records the first termination votes. `nodes` is the
/// segment-local slice (`nodes[v - node_lo]` is node `v`).
///
/// # Errors
///
/// Returns the violation of the lowest-id erroring node in this segment;
/// nodes after it are not invoked (matching the sequential order).
pub(crate) fn invoke_init<P: Protocol>(
    ectx: &EngineCtx<'_>,
    seg: &mut SegmentState<P::Msg>,
    nodes: &mut [P],
    outbound: &mut [Vec<RemoteMsg<P::Msg>>],
) -> Result<(), SimError> {
    let n = ectx.g.n();
    for v in seg.node_lo..seg.node_hi {
        let li = seg.local(v);
        let ctx = NodeCtx::new(NodeId(v), n, 0, ectx.g);
        let mut out = Outbox::recycled(ctx.id, std::mem::take(&mut seg.out_storage));
        nodes[li].init(&ctx, &mut out);
        let res = seg.commit(ectx, 0, &mut out, outbound);
        seg.out_storage = out.into_storage();
        res?;
        let vote = nodes[li].done();
        seg.done.assign(li, vote);
        if !vote {
            seg.not_done += 1;
            seg.schedule(v);
        }
    }
    Ok(())
}

/// One round over one segment: invokes the promoted active set in
/// ascending node-id order, gathering each inbox from the slot arena and
/// committing each outbox. `nodes` is the segment-local slice.
///
/// # Errors
///
/// Returns the violation of the lowest-id erroring node in this segment;
/// active nodes after it are not invoked (matching the sequential order).
pub(crate) fn invoke_round<P: Protocol>(
    ectx: &EngineCtx<'_>,
    round: u64,
    seg: &mut SegmentState<P::Msg>,
    nodes: &mut [P],
    outbound: &mut [Vec<RemoteMsg<P::Msg>>],
) -> Result<(), SimError> {
    let n = ectx.g.n();
    // Index-based iteration: the frontier's window bounds are fixed for
    // the whole round while commits push next-round work onto its tail.
    for i in 0..seg.frontier.window_len() {
        let v = seg.frontier.at(i);
        let li = seg.local(v);
        let ctx = NodeCtx::new(NodeId(v), n, round, ectx.g);
        seg.gather_inbox(ectx.g, ectx.topo, v);
        let was_done = seg.done.get(li);
        if was_done && !seg.inbox.is_empty() {
            seg.stats.wakeups += 1;
        }
        let mut out = Outbox::recycled(ctx.id, std::mem::take(&mut seg.out_storage));
        nodes[li].round(&ctx, &seg.inbox, &mut out);
        seg.stats.activations += 1;
        let res = seg.commit(ectx, round, &mut out, outbound);
        seg.out_storage = out.into_storage();
        res?;
        let vote = nodes[li].done();
        if vote != was_done {
            seg.done.assign(li, vote);
            if vote {
                seg.not_done -= 1;
            } else {
                seg.not_done += 1;
            }
        }
        if !vote {
            seg.schedule(v);
        }
    }
    Ok(())
}
