//! Single-source shortest paths with the paper's tie-breaking convention.
//!
//! The paper assumes w.l.o.g. that "different paths have different weight
//! (ties broken lexicographically)" (Section 2). We realize that assumption
//! deterministically: among paths of equal weight we prefer fewer hops, and
//! among equal `(weight, hops)` we prefer the parent with the smaller node
//! id. This makes every routine that consumes shortest paths (centralized
//! moat growing, the distributed emulation, the virtual-tree embedding)
//! reproducible and mutually consistent.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::{EdgeId, NodeId, Weight, WeightedGraph, INF};

/// Result of a (possibly multi-source) shortest-path computation.
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    /// The source set, in the order given to [`multi_source`] (a single
    /// element for [`shortest_paths`]). Previously a single `source`
    /// field that silently reported only the first source of a
    /// multi-source run.
    pub sources: Vec<NodeId>,
    /// `dist[v]`: weighted distance from the source ([`INF`] if unreachable).
    pub dist: Vec<Weight>,
    /// `hops[v]`: number of edges on the tie-broken shortest path.
    pub hops: Vec<u32>,
    /// `parent[v]`: predecessor `(node, edge)` on that path (`None` at the
    /// source and for unreachable nodes).
    pub parent: Vec<Option<(NodeId, EdgeId)>>,
}

impl ShortestPaths {
    /// Edge ids of the tie-broken shortest path from the source to `v`,
    /// in order from the source.
    ///
    /// # Panics
    ///
    /// Panics if `v` is unreachable.
    pub fn path_edges(&self, v: NodeId) -> Vec<EdgeId> {
        assert!(self.dist[v.idx()] < INF, "{v} unreachable");
        let mut edges = Vec::new();
        let mut cur = v;
        while let Some((p, e)) = self.parent[cur.idx()] {
            edges.push(e);
            cur = p;
        }
        edges.reverse();
        edges
    }

    /// Node ids of the tie-broken shortest path from the source to `v`,
    /// inclusive of both endpoints.
    pub fn path_nodes(&self, v: NodeId) -> Vec<NodeId> {
        assert!(self.dist[v.idx()] < INF, "{v} unreachable");
        let mut nodes = vec![v];
        let mut cur = v;
        while let Some((p, _)) = self.parent[cur.idx()] {
            nodes.push(p);
            cur = p;
        }
        nodes.reverse();
        nodes
    }
}

/// Dijkstra from a single source with `(dist, hops, parent-id)` tie-breaking.
pub fn shortest_paths(g: &WeightedGraph, source: NodeId) -> ShortestPaths {
    multi_source(g, &[source])
}

/// Dijkstra from multiple sources at distance zero (a Voronoi computation):
/// every node is assigned to its closest source under the tie-breaking order.
///
/// The owning source of node `v` can be recovered by walking `parent`
/// pointers; see [`voronoi_owner`].
pub fn multi_source(g: &WeightedGraph, sources: &[NodeId]) -> ShortestPaths {
    multi_source_with(g, sources, |e| g.weight(e))
}

/// [`multi_source`] with an overriding edge-weight function.
///
/// Unlike [`WeightedGraph`] construction, `weight` may return `0`: the
/// greedy and local-search Steiner forest solvers use this to *contract*
/// an already-selected edge set (selected edges cost nothing to reuse)
/// without rebuilding the graph. The `(dist, hops, parent-id)`
/// tie-breaking order is identical to [`multi_source`], so with
/// `weight = |e| g.weight(e)` the two are interchangeable.
pub fn multi_source_with<W>(g: &WeightedGraph, sources: &[NodeId], weight: W) -> ShortestPaths
where
    W: Fn(EdgeId) -> Weight,
{
    let n = g.n();
    let mut dist = vec![INF; n];
    let mut hops = vec![u32::MAX; n];
    let mut parent: Vec<Option<(NodeId, EdgeId)>> = vec![None; n];
    let mut heap: BinaryHeap<Reverse<(Weight, u32, u32)>> = BinaryHeap::new();
    for &s in sources {
        dist[s.idx()] = 0;
        hops[s.idx()] = 0;
        heap.push(Reverse((0, 0, s.0)));
    }
    while let Some(Reverse((d, h, v))) = heap.pop() {
        let v = NodeId(v);
        if (d, h) != (dist[v.idx()], hops[v.idx()]) {
            continue;
        }
        for &(u, e) in g.neighbors(v) {
            // Checked instead of the old unchecked add, which could wrap
            // on heavy-tailed weights at scale and produce bogus *small*
            // distances. A u64 wrap is always a caller bug (debug
            // assert); a sum that merely reaches the INF sentinel is
            // clamped and treated as unreachable, keeping the
            // `dist < INF ⇔ reachable` invariant.
            let sum = d.checked_add(weight(e));
            debug_assert!(
                sum.is_some(),
                "path weight overflow: {d} + {} wraps u64",
                weight(e)
            );
            let nd = sum.unwrap_or(Weight::MAX).min(INF);
            if nd >= INF {
                continue;
            }
            let nh = h + 1;
            let better = (nd, nh) < (dist[u.idx()], hops[u.idx()])
                || ((nd, nh) == (dist[u.idx()], hops[u.idx()])
                    && parent[u.idx()].is_none_or(|(p, _)| v < p));
            if better {
                dist[u.idx()] = nd;
                hops[u.idx()] = nh;
                parent[u.idx()] = Some((v, e));
                heap.push(Reverse((nd, nh, u.0)));
            }
        }
    }
    ShortestPaths {
        sources: sources.to_vec(),
        dist,
        hops,
        parent,
    }
}

/// Recovers, for every node, the source that owns it in a [`multi_source`]
/// run (`None` for unreachable nodes).
pub fn voronoi_owner(sp: &ShortestPaths, sources: &[NodeId]) -> Vec<Option<NodeId>> {
    let n = sp.dist.len();
    let mut owner: Vec<Option<NodeId>> = vec![None; n];
    for &s in sources {
        owner[s.idx()] = Some(s);
    }
    // Nodes in order of distance are finalized after their parents.
    let mut order: Vec<usize> = (0..n).filter(|&v| sp.dist[v] < INF).collect();
    order.sort_by_key(|&v| (sp.dist[v], sp.hops[v]));
    for v in order {
        if owner[v].is_none() {
            if let Some((p, _)) = sp.parent[v] {
                owner[v] = owner[p.idx()];
            }
        }
    }
    owner
}

/// All-pairs weighted distances (one Dijkstra per node); `O(n·m·log n)`.
pub fn all_pairs(g: &WeightedGraph) -> Vec<Vec<Weight>> {
    g.nodes().map(|v| shortest_paths(g, v).dist).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// 0 -1- 1 -1- 2
    ///  \----2----/     (two equal-weight paths 0..2; tie-break prefers 1 hop)
    fn diamond() -> WeightedGraph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 1).unwrap();
        b.add_edge(NodeId(0), NodeId(2), 2).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn distances_and_paths() {
        let g = diamond();
        let sp = shortest_paths(&g, NodeId(0));
        assert_eq!(sp.dist, vec![0, 1, 2]);
        // Tie-break: direct edge (1 hop) preferred over the 2-hop path.
        assert_eq!(sp.hops[2], 1);
        assert_eq!(sp.path_edges(NodeId(2)), vec![EdgeId(2)]);
        assert_eq!(sp.path_nodes(NodeId(2)), vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn multi_source_voronoi() {
        // Path 0-1-2-3-4, sources {0, 4}.
        let mut b = GraphBuilder::new(5);
        for i in 0..4u32 {
            b.add_edge(NodeId(i), NodeId(i + 1), 1).unwrap();
        }
        let g = b.build().unwrap();
        let sp = multi_source(&g, &[NodeId(0), NodeId(4)]);
        assert_eq!(sp.dist, vec![0, 1, 2, 1, 0]);
        let owner = voronoi_owner(&sp, &[NodeId(0), NodeId(4)]);
        assert_eq!(owner[1], Some(NodeId(0)));
        assert_eq!(owner[3], Some(NodeId(4)));
        // Node 2 is equidistant; the smaller parent id wins the tie, so it
        // is owned via node 1 -> source 0.
        assert_eq!(owner[2], Some(NodeId(0)));
    }

    #[test]
    fn sources_field_reports_all_sources() {
        let mut b = GraphBuilder::new(5);
        for i in 0..4u32 {
            b.add_edge(NodeId(i), NodeId(i + 1), 1).unwrap();
        }
        let g = b.build().unwrap();
        let sp = multi_source(&g, &[NodeId(4), NodeId(0)]);
        assert_eq!(sp.sources, vec![NodeId(4), NodeId(0)]);
        let sp = shortest_paths(&g, NodeId(3));
        assert_eq!(sp.sources, vec![NodeId(3)]);
    }

    /// Path sums that exceed the INF sentinel must clamp to "unreachable"
    /// instead of wrapping into bogus small distances (the old unchecked
    /// `d + w`). A validated graph's total stays below INF, so the sums
    /// come from a `multi_source_with` weight closure, as when a caller
    /// prices an edge out with INF.
    #[test]
    fn near_inf_weights_clamp_instead_of_wrapping() {
        // 0 - 1 - 2, both edges priced huge: the two-edge path sum
        // exceeds INF (but not u64), so node 2 is "unreachable" from 0;
        // node 1 is at a finite (huge) distance.
        let huge = INF - 1;
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 1).unwrap();
        let g = b.build().unwrap();
        let sp = multi_source_with(&g, &[NodeId(0)], |_| huge);
        assert_eq!(sp.dist[1], huge);
        assert_eq!(sp.dist[2], INF, "saturated distance must read unreachable");
        assert_eq!(sp.parent[2], None);
        // The unchecked add would have produced 2*(INF-1) ≈ u64::MAX/2,
        // which still compares as "reachable" nonsense.
        assert!(sp.dist[2] >= INF);
    }

    #[test]
    fn multi_source_with_contracts_zero_weight_edges() {
        // Path 0-1-2-3 with weights 5,5,5: contracting e1 (1-2) makes the
        // 0→3 distance 10, and the path still reports all three edges.
        let mut b = GraphBuilder::new(4);
        for i in 0..3u32 {
            b.add_edge(NodeId(i), NodeId(i + 1), 5).unwrap();
        }
        let g = b.build().unwrap();
        let sp = multi_source_with(&g, &[NodeId(0)], |e| {
            if e == EdgeId(1) {
                0
            } else {
                g.weight(e)
            }
        });
        assert_eq!(sp.dist, vec![0, 5, 5, 10]);
        assert_eq!(
            sp.path_edges(NodeId(3)),
            vec![EdgeId(0), EdgeId(1), EdgeId(2)]
        );
    }

    #[test]
    fn multi_source_with_identity_weights_matches_multi_source() {
        let g = crate::generators::gnp_connected(24, 0.2, 9, 11);
        let sources = [NodeId(0), NodeId(13)];
        let a = multi_source(&g, &sources);
        let b = multi_source_with(&g, &sources, |e| g.weight(e));
        assert_eq!(a.dist, b.dist);
        assert_eq!(a.hops, b.hops);
        assert_eq!(a.parent, b.parent);
    }

    #[test]
    fn all_pairs_symmetric() {
        let g = diamond();
        let ap = all_pairs(&g);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(ap[i][j], ap[j][i]);
            }
        }
        assert_eq!(ap[0][2], 2);
    }
}
