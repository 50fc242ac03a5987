//! # steiner-forest
//!
//! Umbrella crate for the reproduction of **"Improved Distributed Steiner
//! Forest Construction"** (Lenzen & Patt-Shamir, PODC 2014) in the CONGEST
//! model.
//!
//! The implementation is split into focused crates, re-exported here:
//!
//! * [`graph`] — weighted graphs, shortest paths, graph parameters
//!   (`D`, `WD`, `s`), exact Steiner-tree oracle, generators.
//! * [`congest`] — the synchronous CONGEST simulator with per-edge
//!   bandwidth enforcement and round/message metrics.
//! * [`steiner`] — problem definitions (DSF-IC / DSF-CR), the centralized
//!   moat-growing algorithms (Algorithm 1 and Algorithm 2), exact solver,
//!   feasibility validation and pruning.
//! * [`embed`] — the probabilistic tree embedding of Khan et al. (LE lists,
//!   virtual tree), centralized and distributed.
//! * [`core`] — the paper's contribution: the deterministic distributed
//!   moat-growing algorithm (Theorem 4.17) and the randomized
//!   `O(log n)`-approximation (Theorem 5.2).
//! * [`baselines`] — Khan et al. `Õ(sk)` baseline and a collect-at-root
//!   baseline.
//! * [`lower_bounds`] — the Section 3 Set-Disjointness gadgets and cut
//!   communication experiments.
//! * [`workloads`] — the conformance lab: seeded instance corpus with
//!   per-instance certificates and the differential oracle harness every
//!   solver must pass.
//! * [`service`] — pooled solver sessions (zero steady-state
//!   allocation), the solve-request vocabulary, and the incremental
//!   delta API.
//! * [`server`] — the one scheduler: a long-lived thread + channel
//!   reactor with bounded admission, backpressure, priorities, deadlines,
//!   cancellation, per-job result streaming, and batches whose results
//!   are bit-identical to one-at-a-time solves, over one pooled session
//!   per worker.
//!
//! # Quickstart
//!
//! ```
//! use steiner_forest::prelude::*;
//!
//! // A random connected network with 30 nodes.
//! let g = generators::gnp_connected(30, 0.15, 20, 42);
//! // Two input components of three terminals each.
//! let inst = InstanceBuilder::new(&g)
//!     .component(&[NodeId(0), NodeId(5), NodeId(9)])
//!     .component(&[NodeId(12), NodeId(20), NodeId(28)])
//!     .build()
//!     .unwrap();
//! // The deterministic distributed algorithm (Theorem 4.17).
//! let out = solve_deterministic(&g, &inst, &DetConfig::default()).unwrap();
//! assert!(inst.is_feasible(&g, &out.forest));
//! println!("weight = {}, rounds = {}", out.forest.weight(&g), out.rounds.total());
//! ```

pub use dsf_baselines as baselines;
pub use dsf_congest as congest;
pub use dsf_core as core;
pub use dsf_embed as embed;
pub use dsf_graph as graph;
pub use dsf_lower_bounds as lower_bounds;
pub use dsf_server as server;
pub use dsf_service as service;
pub use dsf_steiner as steiner;
pub use dsf_workloads as workloads;

/// Convenience re-exports for examples and downstream users.
pub mod prelude {
    pub use dsf_congest::{CongestConfig, RoundLedger};
    pub use dsf_core::det::{solve_deterministic, DetConfig};
    pub use dsf_core::randomized::{solve_randomized, RandConfig};
    pub use dsf_graph::generators;
    pub use dsf_graph::metrics;
    pub use dsf_graph::{EdgeId, GraphBuilder, NodeId, Weight, WeightedGraph};
    pub use dsf_server::{
        AdmissionPolicy, BatchError, BatchReport, JobHandle, JobOptions, JobResult, JobStatus,
        ServerConfig, ServerError, StreamingServer,
    };
    pub use dsf_service::{SolveRequest, SolverKind, SolverSession};
    pub use dsf_steiner::{
        ComponentId, ConnectionRequests, ForestSolution, Instance, InstanceBuilder,
    };
}
