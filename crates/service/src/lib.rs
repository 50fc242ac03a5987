//! Pooled solver sessions over the distributed Steiner forest stack:
//! the request vocabulary, one reusable session, and its delta API.
//!
//! The algorithm crates expose one-shot entry points (`solve_*`), and
//! every such call used to pay full setup: fresh CSR slot arenas for each
//! CONGEST stage, fresh scheduler state, one instance at a time. The
//! workloads the source paper and the greedy/local-search Steiner forest
//! line assume — repeated solves over related instances — amortize all of
//! that. This crate is the amortization layer:
//!
//! * [`SolveRequest`] / [`SolverKind`] — one job: which solver to run on
//!   which instance, with which seed and optional certificate.
//! * [`SolverSession`] — a reusable session holding a
//!   [`dsf_congest::BufferPool`]: every stage of every solve checks its
//!   slot arena out of the pool, so steady-state solves over recurring
//!   graphs perform **zero** per-solve arena allocation (observable via
//!   [`SolverSession::pool_stats`]).
//! * [`JobOutcome`] — one solve's forest, full round ledger, weight and
//!   ratio, with the conformance oracle's ledger invariants re-checkable
//!   per job ([`JobOutcome::budget_violations`]).
//! * The **delta API** ([`SolverSession::install_graph`],
//!   [`SolverSession::add_demand`], [`SolverSession::remove_demand`],
//!   [`SolverSession::reweight_edge`]) — incremental re-solve on a warm
//!   session: a cached [`dsf_steiner::ForestSolution`] keyed by the
//!   graph fingerprint is *repaired* after each demand/weight change
//!   instead of re-solved, and finished to a deterministic local
//!   optimum (see `delta`'s module docs for the quality envelope).
//!
//! Scheduling many requests across sessions — streamed or batched — is
//! the `dsf-server` crate's job; it keeps one session per worker.
//!
//! # Determinism contract
//!
//! A session is invisible in the results: every [`JobOutcome`]'s
//! deterministic fields (forest, full round ledger, weight, ratio) are
//! bit-identical to solving the same request alone on a fresh session,
//! at any executor thread count. This follows from the executor's
//! thread-count invariance ([`dsf_congest::run_sharded`]) plus pool
//! transparency (arenas are cleared before reuse), and is continuously
//! asserted by `bench_runner --service` and the conformance tier.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use dsf_graph::{generators, NodeId};
//! use dsf_service::{SolveRequest, SolverKind, SolverSession};
//! use dsf_steiner::InstanceBuilder;
//!
//! let g = Arc::new(generators::gnp_connected(20, 0.2, 9, 5));
//! let inst = InstanceBuilder::new(&g)
//!     .component(&[NodeId(1), NodeId(17)])
//!     .build()
//!     .unwrap();
//!
//! let mut session = SolverSession::new();
//! for solver in [SolverKind::Deterministic, SolverKind::Randomized] {
//!     let req = SolveRequest::new(solver.name(), g.clone(), inst.clone(), solver, 7);
//!     let out = session.solve(&req).unwrap();
//!     assert!(out.budget_violations(&g).is_empty());
//!     assert!(inst.is_feasible(&g, &out.forest));
//! }
//! ```

mod delta;
mod report;
mod request;
mod session;

pub use delta::{DeltaError, DeltaOutcome, DeltaStats, DemandId};
pub use report::JobOutcome;
pub use request::{SolveRequest, SolverKind};
pub use session::SolverSession;
