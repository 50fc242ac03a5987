//! The virtual tree: ancestor chains, physical routing tables, tree metric,
//! tree-optimal forests, and the `S`-truncation of Section 5. The solvers
//! build it with [`Embedding::from_lists`] from the simulated LE lists;
//! [`Embedding::build`] computes the lists centrally and is the oracle.

use std::collections::{HashMap, HashSet};

use dsf_graph::dijkstra::{self, ShortestPaths};
use dsf_graph::{NodeId, Weight, WeightedGraph, INF};
use dsf_steiner::Instance;

use crate::le_list::{le_lists, LeList};
use crate::{random_ranks, Beta};

/// Configuration of an embedding.
#[derive(Debug, Clone, Copy)]
pub struct EmbeddingConfig {
    /// Seed for ranks and `β`.
    pub seed: u64,
    /// If `Some(size)`, compute the `S`-truncation with `|S| = size`
    /// (the paper uses `√n` when `s > √n`).
    pub truncate: Option<usize>,
}

impl EmbeddingConfig {
    /// Untruncated embedding with the given seed.
    pub fn new(seed: u64) -> Self {
        EmbeddingConfig {
            seed,
            truncate: None,
        }
    }
}

/// Truncation data for one node (Section 5, Step 1): the node's ancestor
/// chain is cut at the first ancestor mapped to `S`; the node instead
/// learns its closest `S`-member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TruncatedChain {
    /// Chain prefix levels that survive (ancestors not in `S`);
    /// `prefix_len == iv` in the paper's notation.
    pub prefix_len: usize,
    /// The closest node of `S` (`ṽ_{iv}`).
    pub closest_s: NodeId,
    /// Weighted distance to it.
    pub dist_s: Weight,
    /// First hop towards it (`None` when the node is in `S` itself).
    pub next_hop_s: Option<NodeId>,
}

/// A constructed virtual tree embedding.
#[derive(Debug, Clone)]
pub struct Embedding {
    /// Random ranks (a permutation of `0..n`).
    pub ranks: Vec<u32>,
    /// The scale factor `β ∈ [1, 2)`.
    pub beta: Beta,
    /// Number of internal levels: ancestors exist for `i = 0..=top_level`.
    pub top_level: u32,
    /// Per-node LE lists.
    pub lists: Vec<LeList>,
    /// `chains[v][i]` = the level-`i` ancestor (recentered chain).
    pub chains: Vec<Vec<NodeId>>,
    route: Vec<HashMap<NodeId, NodeId>>,
    path_dests: Vec<HashSet<NodeId>>,
    dist_to_center: HashMap<NodeId, ShortestPaths>,
    /// `S`-truncation data (present iff configured).
    pub truncation: Option<Vec<TruncatedChain>>,
    /// The set `S` (highest-rank nodes), sorted by id; empty when not
    /// truncating.
    pub s_set: Vec<NodeId>,
}

impl Embedding {
    /// Builds the embedding on `g` from the centralized [`le_lists`].
    pub fn build(g: &WeightedGraph, cfg: &EmbeddingConfig) -> Self {
        let ranks = random_ranks(g.n(), cfg.seed);
        let lists = le_lists(g, &ranks);
        Self::from_lists(g, cfg, ranks, lists)
    }

    /// Builds the embedding on `g` from `lists`, the LE lists of
    /// `ranks = random_ranks(n, cfg.seed)`; `WD` is `g.parameters()`'s.
    pub fn from_lists(
        g: &WeightedGraph,
        cfg: &EmbeddingConfig,
        ranks: Vec<u32>,
        lists: Vec<LeList>,
    ) -> Self {
        let n = g.n();
        let beta = Beta::sample(cfg.seed);
        let wd = g.parameters().weighted_diameter;
        let top_level = (0..)
            .find(|&i| beta.ball_contains(wd, i))
            .expect("β·2^i grows");

        // Recentered ancestor chains: c_0(v) = max rank in B(v, β);
        // c_{i+1} = max rank in B(c_i, β·2^{i+1}).
        let mut chains: Vec<Vec<NodeId>> = vec![Vec::with_capacity(top_level as usize + 1); n];
        for v in g.nodes() {
            let mut cur = lists[v.idx()]
                .ancestor_within(|d| beta.ball_contains(d, 0))
                .expect("ball of radius >= 1 contains v itself")
                .node;
            chains[v.idx()].push(cur);
            for i in 1..=top_level {
                cur = lists[cur.idx()]
                    .ancestor_within(|d| beta.ball_contains(d, i))
                    .expect("ball contains the center")
                    .node;
                chains[v.idx()].push(cur);
            }
        }

        // Distinct centers per level; paths are drawn from the Dijkstra
        // tree rooted at each destination center so that "the union of all
        // least-weight paths ending at a specific node induces a tree"
        // (paper, Main Techniques).
        let centers: HashSet<NodeId> = chains.iter().flatten().copied().collect();
        let dist_to_center: HashMap<NodeId, ShortestPaths> = centers
            .into_iter()
            .map(|c| (c, dijkstra::shortest_paths(g, c)))
            .collect();

        let mut route: Vec<HashMap<NodeId, NodeId>> = vec![HashMap::new(); n];
        let mut path_dests: Vec<HashSet<NodeId>> = vec![HashSet::new(); n];
        let mut install_path = |src: NodeId, dest: NodeId| {
            let sp = &dist_to_center[&dest];
            let mut cur = src;
            loop {
                path_dests[cur.idx()].insert(dest);
                if cur == dest {
                    break;
                }
                let (next, _) = sp.parent[cur.idx()].expect("graph is connected");
                route[cur.idx()].insert(dest, next);
                cur = next;
            }
        };
        // The paper embeds "via a shortest path from each node v to each of
        // its L+1 ancestors": install v -> chains[v][i] for every level
        // (deduplicated by the route map itself).
        for v in g.nodes() {
            for i in 0..=top_level as usize {
                install_path(v, chains[v.idx()][i]);
            }
        }

        // S-truncation (Section 5 Step 1): S = the `size` highest-rank
        // nodes; chains are cut at the first S-ancestor.
        let (s_set, truncation) = match cfg.truncate {
            None => (Vec::new(), None),
            Some(size) => {
                let size = size.min(n);
                let mut by_rank: Vec<NodeId> = g.nodes().collect();
                by_rank.sort_by_key(|v| std::cmp::Reverse(ranks[v.idx()]));
                let mut s: Vec<NodeId> = by_rank[..size].to_vec();
                s.sort_unstable();
                let in_s: HashSet<NodeId> = s.iter().copied().collect();
                // Closest S member per node, with consistent tie-breaking.
                let msp = dijkstra::multi_source(g, &s);
                let owner = dijkstra::voronoi_owner(&msp, &s);
                let mut trunc = Vec::with_capacity(n);
                for v in g.nodes() {
                    let prefix_len = chains[v.idx()]
                        .iter()
                        .position(|c| in_s.contains(c))
                        .unwrap_or(chains[v.idx()].len());
                    trunc.push(TruncatedChain {
                        prefix_len,
                        closest_s: owner[v.idx()].expect("graph connected"),
                        dist_s: msp.dist[v.idx()],
                        next_hop_s: msp.parent[v.idx()].map(|(p, _)| p),
                    });
                }
                (s, Some(trunc))
            }
        };

        Embedding {
            ranks,
            beta,
            top_level,
            lists,
            chains,
            route,
            path_dests,
            dist_to_center,
            truncation,
            s_set,
        }
    }

    /// Next hop at `x` towards destination center `dest`, if `x` is on an
    /// installed path.
    pub fn next_hop(&self, x: NodeId, dest: NodeId) -> Option<NodeId> {
        self.route[x.idx()].get(&dest).copied()
    }

    /// Number of distinct path destinations traversing `x`
    /// (Lemma G.1: `O(log n)` w.h.p.; experiment E6).
    pub fn path_count(&self, x: NodeId) -> usize {
        self.path_dests[x.idx()].len()
    }

    /// Weighted distance from `x` to a center (`None` if the center is
    /// unknown to the embedding).
    pub fn dist_to(&self, x: NodeId, center: NodeId) -> Option<Weight> {
        self.dist_to_center
            .get(&center)
            .map(|sp| sp.dist[x.idx()])
            .filter(|&d| d < INF)
    }

    /// Hop length of the installed path from `x` to `center`.
    pub fn hops_to(&self, x: NodeId, center: NodeId) -> Option<u32> {
        self.dist_to_center.get(&center).map(|sp| sp.hops[x.idx()])
    }

    /// Tree-metric distance between two leaves: both chains are walked to
    /// their first common ancestor at level `i`; the distance is
    /// `2·Σ_{j=0..=i} β·2^j`, saturating at `Weight::MAX`.
    pub fn tree_distance(&self, u: NodeId, v: NodeId) -> Weight {
        if u == v {
            return 0;
        }
        let (cu, cv) = (&self.chains[u.idx()], &self.chains[v.idx()]);
        let mut meet = None;
        for i in 0..cu.len() {
            if cu[i] == cv[i] {
                meet = Some(i);
                break;
            }
        }
        let i = meet.expect("chains share the top-level root");
        saturate(
            2 * (0..=i as u32)
                .map(|j| u128::from(self.beta.scaled(j)))
                .sum::<u128>(),
        )
    }

    /// Weight of the optimal Steiner forest **on the virtual tree** for
    /// `inst` (union over components of the minimal spanning subtree of
    /// their leaves). This is the quantity Lemma G.8 compares the
    /// first-stage edge set against. Saturates at `Weight::MAX`: the tree
    /// metric dominates graph distances, so on a graph whose paths carry
    /// most of its (valid, `< INF`) total weight it can exceed `u64`.
    pub fn tree_opt_weight(&self, inst: &Instance) -> Weight {
        let mut total: u128 = 0;
        for comp in inst.components() {
            if comp.len() < 2 {
                continue;
            }
            // Leaf edges: each terminal's edge to its level-0 ancestor.
            total += comp.len() as u128 * u128::from(self.beta.scaled(0));
            // Level edges: ancestor at level i -> level i+1 is in the
            // subtree iff the leaves below it are a proper nonempty subset.
            for i in 0..self.top_level as usize {
                let mut below: HashMap<NodeId, usize> = HashMap::new();
                for &t in comp {
                    *below.entry(self.chains[t.idx()][i]).or_insert(0) += 1;
                }
                for (_, cnt) in below {
                    if cnt < comp.len() {
                        total += u128::from(self.beta.scaled(i as u32 + 1));
                    }
                }
            }
        }
        saturate(total)
    }

    /// All distinct centers (internal virtual nodes).
    pub fn centers(&self) -> Vec<NodeId> {
        let mut cs: Vec<NodeId> = self.dist_to_center.keys().copied().collect();
        cs.sort_unstable();
        cs
    }
}

/// Narrows a tree-metric sum to a [`Weight`], saturating at `Weight::MAX`.
fn saturate(sum: u128) -> Weight {
    Weight::try_from(sum).unwrap_or(Weight::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsf_graph::generators;
    use dsf_steiner::InstanceBuilder;

    fn build(n: usize, seed: u64) -> (WeightedGraph, Embedding) {
        let g = generators::gnp_connected(n, 0.15, 16, seed);
        let emb = Embedding::build(&g, &EmbeddingConfig::new(seed));
        (g, emb)
    }

    #[test]
    fn chains_converge_to_common_root() {
        let (g, emb) = build(30, 1);
        let top = emb.top_level as usize;
        let root = emb.chains[0][top];
        for v in g.nodes() {
            assert_eq!(emb.chains[v.idx()][top], root, "node {v}");
        }
        // The root is the global max-rank node.
        let max_rank = g.nodes().max_by_key(|v| emb.ranks[v.idx()]).unwrap();
        assert_eq!(root, max_rank);
    }

    #[test]
    fn chains_are_rank_monotone() {
        let (g, emb) = build(25, 2);
        for v in g.nodes() {
            let chain = &emb.chains[v.idx()];
            for w in chain.windows(2) {
                assert!(
                    emb.ranks[w[1].idx()] >= emb.ranks[w[0].idx()],
                    "rank must not decrease along the chain"
                );
            }
        }
    }

    #[test]
    fn tree_metric_dominates_graph_metric() {
        for seed in 0..8 {
            let (g, emb) = build(20, seed);
            let ap = dijkstra::all_pairs(&g);
            for u in g.nodes() {
                for v in g.nodes() {
                    assert!(
                        emb.tree_distance(u, v) >= ap[u.idx()][v.idx()],
                        "seed {seed}: d_T({u},{v}) < d_G"
                    );
                }
            }
        }
    }

    #[test]
    fn average_stretch_is_moderate() {
        // Expected stretch O(log n); over seeds the mean should be tame.
        let g = generators::random_geometric(40, 0.25, 3);
        let ap = dijkstra::all_pairs(&g);
        let mut ratios = Vec::new();
        for seed in 0..10 {
            let emb = Embedding::build(&g, &EmbeddingConfig::new(seed));
            for u in 0..g.n() {
                for v in (u + 1)..g.n() {
                    ratios.push(
                        emb.tree_distance(NodeId::from(u), NodeId::from(v)) as f64
                            / ap[u][v] as f64,
                    );
                }
            }
        }
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(mean < 60.0, "mean stretch {mean} looks broken");
        assert!(mean >= 1.0);
    }

    #[test]
    fn routes_walk_to_their_destination() {
        let (g, emb) = build(25, 5);
        for v in g.nodes() {
            let dest = emb.chains[v.idx()][0];
            let mut cur = v;
            let mut hops = 0;
            while cur != dest {
                cur = emb.next_hop(cur, dest).expect("installed path");
                hops += 1;
                assert!(hops <= g.n() as u32, "routing loop");
            }
        }
    }

    #[test]
    fn path_counts_are_logarithmicish() {
        let (g, emb) = build(60, 7);
        let max_count = g.nodes().map(|v| emb.path_count(v)).max().unwrap();
        // Lemma G.1-flavoured: a node serves few distinct destinations.
        assert!(max_count <= 40, "max path count {max_count}");
    }

    #[test]
    fn tree_opt_weight_bounds_component_distance() {
        let (g, emb) = build(20, 9);
        let inst = InstanceBuilder::new(&g)
            .component(&[NodeId(0), NodeId(10)])
            .build()
            .unwrap();
        let w = emb.tree_opt_weight(&inst);
        // The tree solution connects 0 and 10, so it weighs at least their
        // tree distance minus the doubled leaf edges, and at least d_G.
        assert!(w as f64 >= emb.tree_distance(NodeId(0), NodeId(10)) as f64 / 2.0);
    }

    #[test]
    fn truncation_prefix_and_closest_s() {
        let g = generators::random_geometric(36, 0.3, 11);
        let cfg = EmbeddingConfig {
            seed: 11,
            truncate: Some(6),
        };
        let emb = Embedding::build(&g, &cfg);
        let trunc = emb.truncation.as_ref().unwrap();
        assert_eq!(emb.s_set.len(), 6);
        let in_s: std::collections::HashSet<_> = emb.s_set.iter().copied().collect();
        for v in g.nodes() {
            let t = &trunc[v.idx()];
            // Prefix ancestors are outside S; the cut ancestor (if any) is in S.
            for i in 0..t.prefix_len {
                assert!(!in_s.contains(&emb.chains[v.idx()][i]));
            }
            if t.prefix_len < emb.chains[v.idx()].len() {
                assert!(in_s.contains(&emb.chains[v.idx()][t.prefix_len]));
            }
            // Closest-S data is consistent.
            assert!(in_s.contains(&t.closest_s));
            if in_s.contains(&v) {
                assert_eq!(t.dist_s, 0);
            }
        }
    }

    /// The solvers build their embedding from the simulated LE lists; it
    /// must be the centralized oracle's, facet for facet — on gnp, on a
    /// tie-heavy grid (weights 1..16) and on RMAT, truncated and not.
    #[test]
    fn from_simulated_lists_equals_build() {
        use crate::distributed::le_lists_distributed;
        use dsf_congest::CongestConfig;

        let graphs = [
            generators::gnp_connected(40, 0.1, 16, 3),
            generators::grid(6, 8, 16, 2),
            generators::rmat(60, 4, 16, 5),
        ];
        for (gi, g) in graphs.iter().enumerate() {
            let sqrt_n = (g.n() as f64).sqrt().ceil() as usize;
            for (seed, truncate) in [(gi as u64 + 1, None), (gi as u64 + 7, Some(sqrt_n))] {
                let cfg = EmbeddingConfig { seed, truncate };
                let oracle = Embedding::build(g, &cfg);
                let ranks = random_ranks(g.n(), seed);
                let (lists, _) =
                    le_lists_distributed(g, &ranks, &CongestConfig::for_graph(g)).unwrap();
                let emb = Embedding::from_lists(g, &cfg, ranks, lists);
                let at = format!("graph {gi}, seed {seed}, truncate {truncate:?}");
                assert_eq!(emb.ranks, oracle.ranks, "{at}");
                assert_eq!(emb.chains, oracle.chains, "{at}");
                assert_eq!(emb.top_level, oracle.top_level, "{at}");
                assert_eq!(emb.s_set, oracle.s_set, "{at}");
                assert_eq!(emb.truncation, oracle.truncation, "{at}");
                let centers = oracle.centers();
                assert_eq!(emb.centers(), centers, "{at}");
                for v in g.nodes() {
                    assert_eq!(emb.path_count(v), oracle.path_count(v), "{at}, node {v}");
                    for &c in &centers {
                        assert_eq!(
                            (emb.next_hop(v, c), emb.hops_to(v, c), emb.dist_to(v, c)),
                            (
                                oracle.next_hop(v, c),
                                oracle.hops_to(v, c),
                                oracle.dist_to(v, c)
                            ),
                            "{at}, node {v}, center {c}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::gnp_connected(20, 0.2, 9, 3);
        let a = Embedding::build(&g, &EmbeddingConfig::new(42));
        let b = Embedding::build(&g, &EmbeddingConfig::new(42));
        assert_eq!(a.chains, b.chains);
        assert_eq!(a.ranks, b.ranks);
    }
}
