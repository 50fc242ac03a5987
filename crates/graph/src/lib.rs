//! Weighted-graph substrate for the distributed Steiner forest reproduction.
//!
//! This crate provides everything the algorithm crates need from "classical"
//! graph land:
//!
//! * [`WeightedGraph`] — an immutable, validated, undirected weighted graph;
//! * [`dyadic::Dyadic`] — exact dyadic rationals for moat-growing event times;
//! * shortest paths ([`dijkstra`]), breadth-first search ([`bfs`]),
//!   the CONGEST-relevant graph parameters `D`, `WD` and `s` ([`metrics`]);
//! * a Kruskal MST ([`mst`]) and an exact Dreyfus–Wagner Steiner tree
//!   ([`dreyfus_wagner`]) used as ground truth by the experiment harness;
//! * deterministic random instance [`generators`].
//!
//! All randomness is seeded; identical seeds produce identical graphs on any
//! platform.
//!
//! # Example
//!
//! ```
//! use dsf_graph::{GraphBuilder, NodeId};
//!
//! # fn main() -> Result<(), dsf_graph::GraphError> {
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(NodeId(0), NodeId(1), 2)?;
//! b.add_edge(NodeId(1), NodeId(2), 3)?;
//! b.add_edge(NodeId(2), NodeId(3), 1)?;
//! let g = b.build()?;
//! let sp = dsf_graph::dijkstra::shortest_paths(&g, NodeId(0));
//! assert_eq!(sp.dist[3], 6);
//! # Ok(())
//! # }
//! ```

pub mod bfs;
pub mod dijkstra;
pub mod dreyfus_wagner;
pub mod dyadic;
pub mod generators;
mod graph;
pub mod metrics;
pub mod mst;
pub mod union_find;

pub use graph::{Edge, EdgeId, GraphBuilder, GraphError, NodeId, WeightedGraph};

/// Edge weights are positive integers, polynomially bounded in `n`
/// (the paper's model assumption, Section 2). Every validated
/// [`WeightedGraph`] enforces the bound as: total edge weight `< INF`
/// ([`GraphError::WeightTooLarge`] otherwise).
pub type Weight = u64;

/// "Infinite" distance sentinel, chosen so that `INF + INF` does not overflow.
///
/// On a validated graph every path weighs less than the total, hence less
/// than `INF`, so a distance of `INF` can only mean "unreachable".
pub const INF: Weight = u64::MAX / 4;
