//! Steiner forest problem definitions and centralized reference algorithms.
//!
//! This crate hosts everything the distributed algorithms are measured
//! against:
//!
//! * [`Instance`] / [`InstanceBuilder`] — the *Distributed Steiner Forest
//!   with Input Components* problem (DSF-IC, Definition 2.2) and
//!   [`ConnectionRequests`] — the request form (DSF-CR, Definition 2.1);
//! * [`ForestSolution`] — a validated edge-set solution with feasibility
//!   checking and minimal-subforest pruning;
//! * [`moat`] — **Algorithm 1**, the centralized moat-growing algorithm of
//!   Agrawal–Klein–Ravi as specified in Appendix C, with an exact
//!   event log and the dual lower bound `Σ actᵢ·μᵢ` (Lemma C.4);
//! * [`moat_rounded`] — **Algorithm 2**, moat growing with rounded radii
//!   (Appendix D), giving `(2+ε)`-approximation with `O(log n / ε)` growth
//!   phases;
//! * [`greedy`] — the sequential gluttonous greedy of Gupta–Kumar
//!   (arXiv:1412.7693), the "beat the 2+ε line" reference solver;
//! * [`repair`] — the one forest improver, [`repair::optimize`]: a
//!   fixpoint over swap/replace (Groß et al., arXiv:1707.02753),
//!   whole-component-reroute and Steiner-elimination moves, optionally
//!   scoped to the trees a delta dirtied, plus the contracted
//!   reconnection of a terminal set (`dsf-service`'s delta API repairs
//!   cached forests with both);
//! * [`local_search`] — [`local_search::improve`], the unscoped
//!   [`repair::optimize`] as a post-processor over any solution;
//! * [`exact`] — an exact Steiner forest solver for small instances
//!   (minimum over component partitions of per-block Dreyfus–Wagner trees),
//!   the ground truth for every approximation-ratio experiment.
//!
//! # Example
//!
//! ```
//! use dsf_graph::{generators, NodeId};
//! use dsf_steiner::{moat, InstanceBuilder};
//!
//! let g = generators::gnp_connected(20, 0.2, 10, 1);
//! let inst = InstanceBuilder::new(&g)
//!     .component(&[NodeId(0), NodeId(7)])
//!     .component(&[NodeId(3), NodeId(12), NodeId(19)])
//!     .build()
//!     .unwrap();
//! let run = moat::grow(&g, &inst);
//! assert!(inst.is_feasible(&g, &run.forest));
//! // Theorem 4.1 + Lemma C.4: weight < 2 · dual ≤ 2 · OPT.
//! assert!((run.forest.weight(&g) as f64) < 2.0 * run.dual.to_f64() + 1e-9);
//! ```

pub mod exact;
pub mod greedy;
mod instance;
pub mod local_search;
pub mod moat;
pub mod moat_rounded;
pub mod repair;
mod solution;

pub use instance::{
    random_instance, ComponentId, ConnectionRequests, Instance, InstanceBuilder, InstanceError,
};
pub use solution::ForestSolution;
