//! The solve scheduler: a streaming server with admission control over
//! the distributed Steiner forest stack, which also runs batches.
//!
//! A [`StreamingServer`] is a hand-rolled thread + channel reactor — no
//! async runtime — on top of the pooled [`dsf_service::SolverSession`]s,
//! one per worker thread. It is the only scheduler in the workspace:
//!
//! * **bounded admission** — at most [`ServerConfig::queue_capacity`]
//!   jobs queue; a full queue blocks the producer or rejects with
//!   [`ServerError::Saturated`] ([`AdmissionPolicy`]), so an overloaded
//!   server sheds load instead of growing without bound;
//! * **priorities and deadlines** — [`JobOptions`] order the queue
//!   (priority, then FIFO) and let a job expire un-dispatched
//!   ([`JobStatus::DeadlineExpired`]);
//! * **cancellation** — [`JobHandle::cancel`] drops a still-queued job;
//!   every admitted job is reported exactly once, never silently lost;
//! * **streamed results** — per job via [`JobHandle::wait`], server-wide
//!   via [`StreamingServer::next_result`], as each solve finishes;
//! * **mixed small/large traffic** — small jobs go to `workers` warm
//!   sessions while a large job ([`ServerConfig::is_large`]) drains on
//!   its own lane with the whole `workers`-thread sharded executor
//!   ([`dsf_congest::run_sharded`] via the scoped thread override);
//! * **batches** — [`StreamingServer::run_batch`] runs a slice of
//!   requests on the same lanes (small jobs pinned round-robin to the
//!   workers, so a recurring batch builds no arenas) and returns a
//!   [`BatchReport`] in request order, or a [`BatchError`] naming the
//!   lowest failing request;
//! * **contained panics** — a panicking solve ends as
//!   [`JobStatus::Panicked`]; the worker replaces its session and serves
//!   the next job.
//!
//! # Determinism contract
//!
//! Queueing, priorities, lanes, batching, and worker count are invisible
//! in the results: a completed job's deterministic fields (forest, full
//! round ledger, weight, ratio) are bit-identical to a direct `solve_*`
//! call. This inherits the executor's thread-count invariance and the
//! buffer pool's transparency, and is asserted end-to-end by
//! `bench_runner --server`, `bench_runner --service`, and the root
//! `tests/server_streaming.rs` tier.

mod job;
mod report;
mod server;

pub use job::{JobHandle, JobOptions, JobResult, JobStatus};
pub use report::BatchReport;
pub use server::{AdmissionPolicy, BatchError, ServerConfig, ServerError, StreamingServer};
