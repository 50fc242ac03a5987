//! A synchronous CONGEST-model network simulator.
//!
//! The paper's model (Section 2): computation proceeds in synchronous
//! rounds; in each round every node (i) performs arbitrary finite local
//! computation, (ii) may send one message of `O(log n)` bits to each
//! neighbor, and (iii) receives the messages its neighbors sent. Time
//! complexity is the number of rounds until all nodes explicitly terminate.
//!
//! This crate makes those rules executable and *enforced*:
//!
//! * a [`Protocol`] is the per-node state machine (one instance per node);
//! * the executor ([`run`]) delivers messages with one-round latency, in
//!   deterministic node-id order;
//! * every message's [`Message::encoded_bits`] is checked against the
//!   bandwidth budget `B(n) = Θ(log n)`; an over-budget message aborts the
//!   run with [`SimError::BandwidthExceeded`] — so pipelined stages really
//!   have to pipeline;
//! * [`RunMetrics`] reports rounds, messages, bits, and optionally the bits
//!   that crossed a metered edge cut (used by the Section 3 lower-bound
//!   experiments);
//! * [`RoundLedger`] aggregates multi-stage algorithms, distinguishing
//!   *simulated* rounds from explicitly *charged* control-flow surcharges
//!   (e.g. "termination detection over the BFS tree: `O(D)`"), so every
//!   reported round count is auditable.
//!
//! # Execution engines
//!
//! [`run`] is the event-driven active-set scheduler: it only invokes nodes
//! that received a message or have not voted [`Protocol::done`], backed by
//! a CSR-style flat slot arena instead of per-node per-round vectors. Use
//! [`run_with_buffers`] with a caller-owned [`RunBuffers`] to make
//! repeated runs (bench loops, multi-seed experiments) allocation-free in
//! steady state; a [`BufferPool`] extends the same reuse across *message
//! types and graphs* — install one with [`BufferPool::scope`] and every
//! single-threaded [`run`] inside (e.g. all the stages of a solver)
//! checks out its arena from the pool instead of allocating, which is how
//! `dsf-service` solver sessions make steady-state solves allocation-free
//! end to end. [`run_sharded`] is the multi-threaded variant: the node
//! arena is partitioned into chunk-sized segments that workers claim and
//! *steal* through atomic cursors; each round is claim/compute phases
//! fused around a **single** barrier, with cross-chunk messages staged
//! per `(destination, source)` chunk pair and merged post hoc in
//! canonical sender order — *bit identical* [`RunMetrics`], final
//! states, deterministic [`SchedStats`], and errors at every thread
//! count (see the [`run_sharded`] docs for the argument; report-only
//! per-worker effort counters are exposed as [`SchedStats::workers`] and
//! process-wide via [`sched_obs_totals`]).
//! [`run`] itself dispatches on [`default_threads`] (the `DSF_THREADS`
//! environment variable, or a scoped per-thread [`with_threads`]
//! override), so the whole solver stack parallelizes without a code
//! change — and without an observable one. [`run_reference`] is the retained naive executor —
//! everyone, every round — serving as the semantic oracle ([`RunMetrics`]
//! and final states are bit-identical; property-tested) and as the
//! baseline `bench_runner` measures scheduling savings against.
//!
//! # Example: flooding a token
//!
//! ```
//! use dsf_congest::{run, CongestConfig, Message, NodeCtx, Outbox, Protocol};
//! use dsf_graph::{generators, NodeId};
//!
//! #[derive(Clone, Debug)]
//! struct Token;
//! impl Message for Token {
//!     fn encoded_bits(&self) -> usize { 1 }
//! }
//!
//! struct Flood { have: bool, sent: bool }
//! impl Protocol for Flood {
//!     type Msg = Token;
//!     fn init(&mut self, ctx: &NodeCtx, out: &mut Outbox<Token>) {
//!         if ctx.id == NodeId(0) { self.have = true; }
//!         if self.have { out.send_all(ctx, Token); self.sent = true; }
//!     }
//!     fn round(&mut self, ctx: &NodeCtx, inbox: &[(NodeId, Token)], out: &mut Outbox<Token>) {
//!         if !inbox.is_empty() { self.have = true; }
//!         if self.have && !self.sent { out.send_all(ctx, Token); self.sent = true; }
//!     }
//!     fn done(&self) -> bool { self.have }
//! }
//!
//! let g = generators::path(5, 1);
//! let nodes = (0..5).map(|_| Flood { have: false, sent: false }).collect();
//! let res = run(&g, nodes, &CongestConfig::for_graph(&g)).unwrap();
//! assert!(res.states.iter().all(|s| s.have));
//! // 4 hops to reach the far end + 1 round draining its re-flood.
//! assert_eq!(res.metrics.rounds, 5);
//! ```

mod buffers;
mod compact;
mod executor;
mod ledger;
mod message;
mod pool;
mod scheduler;
mod shard;

pub use buffers::RunBuffers;
pub use executor::{
    run_reference, CongestConfig, NodeCtx, Outbox, Protocol, RunMetrics, RunResult, SchedStats,
    SimError, WorkerObs,
};
pub use ledger::{LedgerEntry, RoundLedger};
pub use message::{id_bits, weight_bits, Message};
pub use pool::{BufferPool, PoolStats};
pub use scheduler::{run, run_with_buffers};
pub use shard::{default_threads, run_sharded, sched_obs_totals, with_threads, SchedObsTotals};
