//! The virtual tree: ancestor chains, physical routing tables, tree metric,
//! tree-optimal forests, and the `S`-truncation of Section 5. The solvers
//! build it with [`Embedding::from_lists`] from the simulated LE lists;
//! [`Embedding::build`] computes the lists centrally and is the oracle.

use std::collections::HashMap;

use dsf_graph::{dijkstra, NodeId, Weight, WeightedGraph};
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

/// One entry of a node's route table: the installed path to center `dest`
/// leaves this node towards neighbor `next`, `hops` edges from `dest`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// The destination center.
    pub dest: NodeId,
    /// The next hop towards `dest` (a neighbor).
    pub next: NodeId,
    /// Hop length of the installed path from this node to `dest`.
    pub hops: u32,
}

/// A constructed virtual tree embedding. The installed paths ("a shortest
/// path from each node to each of its ancestors") are held once, in one
/// route table per node ([`Embedding::routes`]); hop counts are known only
/// along them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Embedding {
    /// Random ranks (a permutation of `0..n`).
    pub ranks: Vec<u32>,
    /// The scale factor `β ∈ [1, 2)`.
    pub beta: Beta,
    /// Number of internal levels: ancestors exist for `i = 0..=top_level`.
    pub top_level: u32,
    /// `chains[v][i]` = the level-`i` ancestor (recentered chain).
    pub chains: Vec<Vec<NodeId>>,
    /// All distinct centers, sorted.
    centers: Vec<NodeId>,
    /// `routes[x]`, sorted by `dest`: see [`Embedding::routes`].
    routes: Vec<Vec<Route>>,
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
    /// Each center's Dijkstra is dropped once its paths are installed.
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
        drop(lists);

        // The paper embeds "via a shortest path from each node v to each of
        // its L+1 ancestors", drawn from the Dijkstra tree rooted at the
        // ancestor so that "the union of all least-weight paths ending at a
        // specific node induces a tree" (paper, Main Techniques). Center by
        // center, in ascending id (so every table comes out sorted): walk
        // each source's path and stop at the first node that already holds
        // this center — the rest of the path is installed.
        let mut pairs: Vec<(NodeId, NodeId)> = g
            .nodes()
            .flat_map(|v| chains[v.idx()].iter().map(move |&c| (c, v)))
            .collect();
        pairs.sort_unstable();
        let mut centers = Vec::new();
        let mut routes: Vec<Vec<Route>> = vec![Vec::new(); n];
        for group in pairs.chunk_by(|a, b| a.0 == b.0) {
            let dest = group[0].0;
            centers.push(dest);
            let sp = dijkstra::shortest_paths(g, dest);
            for &(_, mut cur) in group {
                while cur != dest && routes[cur.idx()].last().is_none_or(|r| r.dest != dest) {
                    let (next, _) = sp.parent[cur.idx()].expect("graph is connected");
                    let hops = sp.hops[cur.idx()];
                    routes[cur.idx()].push(Route { dest, next, hops });
                    cur = next;
                }
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
                // Closest S member per node, with consistent tie-breaking.
                let msp = dijkstra::multi_source(g, &s);
                let owner = dijkstra::voronoi_owner(&msp, &s);
                let mut trunc = Vec::with_capacity(n);
                for v in g.nodes() {
                    let prefix_len = chains[v.idx()]
                        .iter()
                        .position(|c| s.binary_search(c).is_ok())
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
            chains,
            centers,
            routes,
            truncation,
            s_set,
        }
    }

    /// The route table at `x`: a [`Route`] for every center whose installed
    /// path passes through `x` (the center itself excepted), sorted by
    /// destination. Lemma G.1 bounds it to `O(log n)` entries w.h.p.
    pub fn routes(&self, x: NodeId) -> &[Route] {
        &self.routes[x.idx()]
    }

    fn route(&self, x: NodeId, dest: NodeId) -> Option<&Route> {
        let table = &self.routes[x.idx()];
        let i = table.binary_search_by_key(&dest, |r| r.dest).ok()?;
        Some(&table[i])
    }

    /// Next hop at `x` towards destination center `dest`, if `x` is on an
    /// installed path.
    pub fn next_hop(&self, x: NodeId, dest: NodeId) -> Option<NodeId> {
        self.route(x, dest).map(|r| r.next)
    }

    /// Number of distinct path destinations traversing `x`, `x` itself
    /// included when it is a center (Lemma G.1; experiment E6).
    pub fn path_count(&self, x: NodeId) -> usize {
        self.routes[x.idx()].len() + usize::from(self.centers.binary_search(&x).is_ok())
    }

    /// Hop length of the installed path from `x` to `center`: defined only
    /// on installed paths (every chain level of `x` is one) and as `0` for
    /// `x == center`; `None` otherwise.
    pub fn hops_to(&self, x: NodeId, center: NodeId) -> Option<u32> {
        if x == center {
            return Some(0);
        }
        self.route(x, center).map(|r| r.hops)
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
        self.centers.clone()
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
        // Every node reaches every chain level by next hops, in exactly the
        // installed path's hop length.
        for (g, emb) in [build(25, 5), build(40, 6)] {
            for v in g.nodes() {
                for &dest in &emb.chains[v.idx()] {
                    let hops = emb.hops_to(v, dest).expect("chain level is installed");
                    let mut cur = v;
                    let mut steps = 0;
                    while cur != dest {
                        assert_eq!(emb.hops_to(cur, dest), Some(hops - steps));
                        let next = emb.next_hop(cur, dest).expect("installed path");
                        assert!(g.find_edge(cur, next).is_some(), "next hop is a neighbor");
                        cur = next;
                        steps += 1;
                        assert!(steps <= g.n() as u32, "routing loop");
                    }
                    assert_eq!(steps, hops, "node {v}, dest {dest}");
                }
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
                assert_eq!(
                    emb, oracle,
                    "graph {gi}, seed {seed}, truncate {truncate:?}"
                );
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
