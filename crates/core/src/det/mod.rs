//! The deterministic distributed moat-growing algorithms (Section 4).
//!
//! One phase loop serves both: [`solve_deterministic`] (Algorithm 1,
//! Theorem 4.17) and [`solve_growth`] (Algorithm 2, Corollary 4.20) are
//! thin wrappers that differ only in the *phase-end rule* they pass it.
//! Under the **exact** rule a phase ends at the first merge that changes
//! activity (Corollary 4.16). Under the **rounded** rule a phase ends
//! before any candidate at or beyond the checkpoint `μ̂`, and at any merge
//! involving an inactive moat (Definition 4.19); activities change only
//! at checkpoints, where they are recomputed and `μ̂` advances (see
//! [`growth`]).
//!
//! Per merge phase `j` (Definition 4.3) the loop runs:
//!
//! 1. **Terminal decomposition** (Lemma 4.8): a multi-source Bellman–Ford
//!    over the *uncovered* part of the graph, sourced at every node owned
//!    by an active region with key `wd(v,u) − rad(v)` — exactly
//!    `Reg_{j−1}(v) ∪ (Vor_j(v) \ ⋃ B_{i_{j−1}}(w))` ([`voronoi`]).
//! 2. **Candidate proposal** (Definition 4.11): every boundary edge
//!    between distinct regions with an active side proposes the merge time
//!    `μ = gap/2` (both active) or `μ = gap` (one side inactive), where
//!    `gap = off(x) + W(e) + off(y)`.
//! 3. **Filtered collection** (Corollary 4.16): the pipelined upcast of
//!    [`crate::primitives::filtered_upcast`] streams candidates in
//!    ascending `(μ, a, b, e)` order; the root replays moat bookkeeping
//!    and stops where the phase-end rule says — the phase end.
//! 4. **Dissemination**: `F_c^{(j)}` and the phase growth `μ^{(j)}` are
//!    flooded; every node updates radii, capture status and region parent
//!    pointers locally.
//!
//! After the last phase the minimal candidate subset `F_min` is computed
//! locally from the globally known `F_c` and labels (Step 4 of the
//! distributed algorithm in E.1) and realized by marking the region-tree
//! paths plus inducing edges (Step 5, charged `O(s + D)`).

mod book;
mod driver;
pub mod growth;
pub mod voronoi;

pub use driver::{solve_deterministic, DetConfig, DetOutput};
pub use growth::{solve_growth, GrowthConfig, GrowthOutput};
