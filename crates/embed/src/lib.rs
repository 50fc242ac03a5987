//! Probabilistic tree embedding of Khan et al. \[14\], the substrate of the
//! paper's randomized algorithm (Section 5) and of the `Õ(sk)` baseline.
//!
//! Construction (paper, Section 5 "Overview of the algorithm in \[14\]"):
//! nodes pick independent random ranks; a global `β` is drawn uniformly
//! from `[1, 2)`; the level-`i` ancestor of a node is the highest-rank node
//! within weighted distance `β·2^i`; virtual edge `(v_{i-1}, v_i)` has
//! weight `β·2^i`. The embedding dominates the graph metric and has
//! expected stretch `O(log n)`.
//!
//! We implement the *recentered* ancestor chain (the well-defined tree
//! variant used by \[14\]'s LE-list construction): the parent of internal
//! node `(c, i)` is the highest-rank node within `β·2^{i+1}` **of `c`**.
//! Ancestor chains are monotone in rank, so consistency is immediate, and
//! the leaf-to-ancestor distance bound `wd(v, c_i) ≤ β·2^{i+1}` keeps the
//! stretch `O(log n)` (experiment E5 measures it).
//!
//! Provided here:
//!
//! * [`LeList`] computation, centralized ([`le_lists`]) and as a CONGEST
//!   protocol ([`distributed::LeProtocol`]) with pipelined Bellman–Ford
//!   propagation — the dominant cost of \[14\]'s `Õ(s)` construction;
//! * [`Embedding`] — ancestor chains, one route table per node holding
//!   the installed paths through it (a sorted list of
//!   `destination → next hop, hops` [`Route`]s; each center's Dijkstra
//!   is dropped once its paths are installed), tree metric, optimal
//!   forest on the tree, and the `S`-truncation of Section 5 (`s > √n`
//!   regime). Hop lengths ([`Embedding::hops_to`]) are known only along
//!   installed paths. The solvers build it from the simulated lists
//!   ([`Embedding::from_lists`]); [`Embedding::build`], on the
//!   centralized lists, is the test oracle;
//! * per-node path-congestion statistics (Lemma G.1's `O(log n)` distinct
//!   paths per node — experiment E6), read off the route table.
//!
//! # Invariants
//!
//! Ranks and `β` are drawn from seeded, platform-deterministic PRNGs:
//! the same seed reproduces the same embedding (and therefore the same
//! randomized-solver output) on any machine. The distributed LE-list
//! protocol ([`distributed::le_lists_distributed`]) must agree entry-for-
//! entry with the centralized [`le_lists`] and respects the CONGEST
//! `B`-bit budget — both are property-tested.
//!
//! # Example
//!
//! ```
//! use dsf_embed::{le_lists, random_ranks};
//! use dsf_graph::generators;
//!
//! let g = generators::gnp_connected(16, 0.25, 9, 2);
//! let ranks = random_ranks(16, 7);
//! let lists = le_lists(&g, &ranks);
//! assert_eq!(lists.len(), 16);
//! // An LE list is rank-increasing with distance; its last entry is the
//! // globally highest-rank node.
//! let top = ranks.iter().max().unwrap();
//! assert!(lists.iter().all(|l| ranks[l.entries().last().unwrap().node.idx()] == *top));
//! ```

pub mod distributed;
mod embedding;
mod le_list;

pub use embedding::{Embedding, EmbeddingConfig, Route, TruncatedChain};
pub use le_list::{le_lists, LeEntry, LeList};

use dsf_graph::Weight;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random ranks: a permutation of `0..n`; higher value = higher rank.
/// The paper's "IDs picked independently at random" with ties removed.
pub fn random_ranks(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

/// The random scale factor `β ∈ [1, 2)`, kept as a fixed-point dyadic
/// `num / 2^16` so that the ball test `wd ≤ β·2^i` is exact integer
/// arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Beta {
    num: u32,
}

impl Beta {
    /// Fixed-point denominator exponent.
    pub const FRAC_BITS: u32 = 16;

    /// Samples `β` uniformly from the `[1, 2)` grid.
    pub fn sample(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xbe7a_0000_0000_0001);
        Beta {
            num: (1 << Self::FRAC_BITS) + rng.gen_range(0..1u32 << Self::FRAC_BITS),
        }
    }

    /// A deterministic `β = 1` (useful in tests).
    pub fn one() -> Self {
        Beta {
            num: 1 << Self::FRAC_BITS,
        }
    }

    /// Whether `wd ≤ β·2^i` (exact).
    pub fn ball_contains(self, wd: Weight, i: u32) -> bool {
        // wd ≤ num · 2^{i-16}  ⟺  wd · 2^16 ≤ num · 2^i
        (wd as u128) << Self::FRAC_BITS <= (self.num as u128) << i
    }

    /// `β·2^i` rounded up to an integer (virtual edge weights are reported
    /// at this granularity; the tree metric uses exact comparisons).
    pub fn scaled(self, i: u32) -> Weight {
        let v = (self.num as u128) << i;
        ((v + (1u128 << Self::FRAC_BITS) - 1) >> Self::FRAC_BITS) as Weight
    }

    /// `β` as a float, for reporting.
    pub fn to_f64(self) -> f64 {
        self.num as f64 / (1u64 << Self::FRAC_BITS) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_a_permutation() {
        let r = random_ranks(50, 9);
        let mut sorted = r.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_eq!(r, random_ranks(50, 9));
        assert_ne!(r, random_ranks(50, 10));
    }

    #[test]
    fn beta_range_and_balls() {
        for seed in 0..20 {
            let b = Beta::sample(seed);
            assert!(b.to_f64() >= 1.0 && b.to_f64() < 2.0);
        }
        let b = Beta::one();
        assert!(b.ball_contains(4, 2)); // 4 <= 1*4
        assert!(!b.ball_contains(5, 2));
        assert_eq!(b.scaled(3), 8);
    }

    #[test]
    fn beta_scaled_rounds_up() {
        // β = 1.5: scaled(0) = ceil(1.5) = 2.
        let b = Beta {
            num: 3 << (Beta::FRAC_BITS - 1),
        };
        assert_eq!(b.scaled(0), 2);
        assert_eq!(b.scaled(1), 3);
        assert!(b.ball_contains(3, 1)); // 3 <= 1.5*2
        assert!(!b.ball_contains(4, 1));
    }
}
