//! The core immutable weighted-graph type and its builder.

use std::fmt;
use std::sync::OnceLock;

use crate::metrics::{self, GraphParameters};
use crate::{Weight, INF};

/// Identifier of a node; nodes are numbered `0..n`.
///
/// In the CONGEST model each node initially knows its own identifier, the
/// identifiers of its neighbors and the weights of its incident edges
/// (paper, Section 2); this type is that identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into per-node arrays.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(i: usize) -> Self {
        NodeId(u32::try_from(i).expect("node index exceeds u32"))
    }
}

/// Identifier of an (undirected) edge; edges are numbered `0..m` in insertion
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Index into per-edge arrays.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// An undirected weighted edge `{u, v}` with `u < v`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Smaller endpoint.
    pub u: NodeId,
    /// Larger endpoint.
    pub v: NodeId,
    /// Positive integer weight.
    pub w: Weight,
}

impl Edge {
    /// The endpoint that is not `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an endpoint of this edge.
    #[inline]
    pub fn other(&self, x: NodeId) -> NodeId {
        if x == self.u {
            self.v
        } else {
            assert_eq!(x, self.v, "node {x} is not an endpoint");
            self.u
        }
    }
}

/// Why an edge list is not a valid [`WeightedGraph`]; one validator,
/// [`WeightedGraph::from_edges`], decides it for every constructor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An endpoint was `>= n`.
    NodeOutOfRange { node: NodeId, n: usize },
    /// Both endpoints were equal.
    SelfLoop(NodeId),
    /// The same unordered pair was added twice.
    DuplicateEdge(NodeId, NodeId),
    /// Edge weight was zero (the model requires weights in `N`).
    ZeroWeight(NodeId, NodeId),
    /// The finished graph is not connected (required by the model: the
    /// network is a single connected component).
    Disconnected,
    /// The graph has no nodes.
    Empty,
    /// The total edge weight reaches [`INF`] (it bounds every path, so
    /// below it `INF` can only mean "unreachable").
    WeightTooLarge,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for graph with {n} nodes")
            }
            GraphError::SelfLoop(v) => write!(f, "self loop at {v}"),
            GraphError::DuplicateEdge(u, v) => write!(f, "duplicate edge {{{u}, {v}}}"),
            GraphError::ZeroWeight(u, v) => write!(f, "zero weight on edge {{{u}, {v}}}"),
            GraphError::Disconnected => write!(f, "graph is not connected"),
            GraphError::Empty => write!(f, "graph has no nodes"),
            GraphError::WeightTooLarge => write!(f, "total edge weight reaches INF"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Incrementally assembles a [`WeightedGraph`]: each edge is checked as
/// it is added, and [`GraphBuilder::build`] is [`WeightedGraph::from_edges`].
///
/// # Example
///
/// ```
/// use dsf_graph::{GraphBuilder, NodeId};
/// # fn main() -> Result<(), dsf_graph::GraphError> {
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(NodeId(0), NodeId(1), 1)?;
/// b.add_edge(NodeId(1), NodeId(2), 4)?;
/// let g = b.build()?;
/// assert_eq!(g.m(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<Edge>,
    seen: std::collections::HashSet<(u32, u32)>,
}

impl GraphBuilder {
    /// Starts a builder for a graph on `n` nodes (ids `0..n`).
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
            seen: std::collections::HashSet::new(),
        }
    }

    /// Adds the undirected edge `{u, v}` with weight `w`.
    ///
    /// # Errors
    ///
    /// Returns an error on self loops, duplicate edges, zero weights or
    /// out-of-range endpoints. The builder is left unchanged on error.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: Weight) -> Result<EdgeId, GraphError> {
        check_edge(self.n, &Edge { u, v, w })?;
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        if !self.seen.insert((a.0, b.0)) {
            return Err(GraphError::DuplicateEdge(a, b));
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge { u: a, v: b, w });
        Ok(id)
    }

    /// Returns `true` if the unordered pair `{u, v}` has already been added.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.seen.contains(&(a.0, b.0))
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Finishes the graph.
    ///
    /// # Errors
    ///
    /// The whole-graph errors of [`WeightedGraph::from_edges`]:
    /// `Empty`, `Disconnected` or `WeightTooLarge`.
    pub fn build(self) -> Result<WeightedGraph, GraphError> {
        WeightedGraph::from_edges(self.n, self.edges)
    }

    /// Finishes the graph without the whole-graph checks (empty,
    /// connected, total weight). Only for intermediate graphs: subgraphs
    /// of a valid graph such as the forest `(V, F)`, or unit-weight
    /// graphs still being stitched. Solvers panic on disconnected input.
    pub fn build_unchecked(self) -> WeightedGraph {
        WeightedGraph::assemble(self.n, self.edges)
    }
}

/// The per-edge rules: both endpoints in `0..n`, no self loop, and a
/// positive weight.
fn check_edge(n: usize, e: &Edge) -> Result<(), GraphError> {
    for node in [e.u, e.v] {
        if node.idx() >= n {
            return Err(GraphError::NodeOutOfRange { node, n });
        }
    }
    if e.u == e.v {
        return Err(GraphError::SelfLoop(e.u));
    }
    if e.w == 0 {
        return Err(GraphError::ZeroWeight(e.u, e.v));
    }
    Ok(())
}

/// An immutable, undirected, positively-weighted graph.
///
/// The graph is the communication network *and* the problem instance domain:
/// in the CONGEST model the input graph and the network coincide.
///
/// Adjacency is stored in compressed-sparse-row form — one flat
/// `(neighbor, edge id)` array sliced by a per-node offset table — instead
/// of one `Vec` per node. At the 10M-node scale tier this saves the 24
/// bytes/node of inner-`Vec` headers plus their reallocation slack, and
/// keeps every neighbor scan on a single contiguous allocation.
#[derive(Debug, Clone)]
pub struct WeightedGraph {
    n: usize,
    edges: Vec<Edge>,
    /// CSR offsets: node `v`'s adjacency is `adj[adj_off[v]..adj_off[v+1]]`.
    adj_off: Vec<u32>,
    /// Flat `(neighbor, edge id)` entries, each node's slice sorted by
    /// neighbor id.
    adj: Vec<(NodeId, EdgeId)>,
    /// `D`, `WD` and `s`, computed on first use; see [`Self::parameters`].
    params: OnceLock<GraphParameters>,
}

impl WeightedGraph {
    /// Builds the CSR adjacency for `edges` on `n` nodes via counting sort
    /// (no per-node allocations, no hashing).
    fn assemble(n: usize, edges: Vec<Edge>) -> WeightedGraph {
        let slots = u32::try_from(edges.len() * 2)
            .expect("directed adjacency exceeds the u32 CSR offset range");
        let mut adj_off = vec![0u32; n + 1];
        for e in &edges {
            adj_off[e.u.idx() + 1] += 1;
            adj_off[e.v.idx() + 1] += 1;
        }
        for v in 0..n {
            adj_off[v + 1] += adj_off[v];
        }
        let mut cursor = adj_off.clone();
        let mut adj = vec![(NodeId(0), EdgeId(0)); slots as usize];
        for (i, e) in edges.iter().enumerate() {
            let id = EdgeId(i as u32);
            adj[cursor[e.u.idx()] as usize] = (e.v, id);
            cursor[e.u.idx()] += 1;
            adj[cursor[e.v.idx()] as usize] = (e.u, id);
            cursor[e.v.idx()] += 1;
        }
        for v in 0..n {
            adj[adj_off[v] as usize..adj_off[v + 1] as usize].sort_unstable();
        }
        WeightedGraph {
            n,
            edges,
            adj_off,
            adj,
            params: OnceLock::new(),
        }
    }

    /// Builds a validated graph from an edge list in O(n + m): the one
    /// graph-validity rule. Edges may come in either orientation (they
    /// are normalized to `u < v`); duplicates are found from the sorted
    /// adjacency, not a hash set (over 20M+ edges one costs more memory
    /// than the graph).
    ///
    /// # Errors
    ///
    /// In this order: `Empty`; the per-edge `NodeOutOfRange`, `SelfLoop`,
    /// `ZeroWeight`; `DuplicateEdge`; `Disconnected`; and `WeightTooLarge`
    /// if the total weight, summed without overflow, is at least [`INF`].
    pub fn from_edges(n: usize, mut edges: Vec<Edge>) -> Result<WeightedGraph, GraphError> {
        if n == 0 {
            return Err(GraphError::Empty);
        }
        for e in &mut edges {
            check_edge(n, e)?;
            if e.u > e.v {
                std::mem::swap(&mut e.u, &mut e.v);
            }
        }
        let g = WeightedGraph::assemble(n, edges);
        for v in g.nodes() {
            for w in g.neighbors(v).windows(2) {
                if w[0].0 == w[1].0 {
                    let u = w[0].0;
                    let (a, b) = if u < v { (u, v) } else { (v, u) };
                    return Err(GraphError::DuplicateEdge(a, b));
                }
            }
        }
        if !g.is_connected() {
            return Err(GraphError::Disconnected);
        }
        let total = g
            .edges
            .iter()
            .fold(0 as Weight, |acc, e| acc.saturating_add(e.w));
        if total >= INF {
            return Err(GraphError::WeightTooLarge);
        }
        Ok(g)
    }

    /// The graph parameters `D`, `WD` and `s` ([`metrics::parameters`]).
    ///
    /// The graph is immutable, so the all-pairs sweep runs once, on the
    /// first call; later calls (from any thread, or on a clone made
    /// after it) return the stored value.
    pub fn parameters(&self) -> GraphParameters {
        *self.params.get_or_init(|| metrics::parameters(self))
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges `m`.
    #[inline]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// All edges, indexed by [`EdgeId`].
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The edge with the given id.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.idx()]
    }

    /// Weight of the edge with the given id.
    #[inline]
    pub fn weight(&self, e: EdgeId) -> Weight {
        self.edges[e.idx()].w
    }

    /// Neighbors of `v` as `(neighbor, edge id)` pairs, sorted by neighbor id.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        &self.adj[self.adj_off[v.idx()] as usize..self.adj_off[v.idx() + 1] as usize]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.adj_off[v.idx() + 1] - self.adj_off[v.idx()]) as usize
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n as u32).map(NodeId)
    }

    /// Looks up the edge id of `{u, v}`, if present.
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let a = self.neighbors(u);
        a.binary_search_by_key(&v, |&(nb, _)| nb)
            .ok()
            .map(|i| a[i].1)
    }

    /// Total weight of an edge subset.
    pub fn total_weight<'a>(&self, edges: impl IntoIterator<Item = &'a EdgeId>) -> Weight {
        edges.into_iter().map(|&e| self.weight(e)).sum()
    }

    /// Whether the graph is connected (vacuously true for `n == 1`).
    pub fn is_connected(&self) -> bool {
        if self.n == 0 {
            return false;
        }
        let mut seen = vec![false; self.n];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut cnt = 1;
        while let Some(v) = stack.pop() {
            for &(u, _) in self.neighbors(v) {
                if !seen[u.idx()] {
                    seen[u.idx()] = true;
                    cnt += 1;
                    stack.push(u);
                }
            }
        }
        cnt == self.n
    }

    /// Connected components of the subgraph `(V, F)` induced by an edge set.
    ///
    /// Returns a component label per node; labels are the smallest node id in
    /// the component.
    pub fn components_of(&self, edge_set: &[EdgeId]) -> Vec<NodeId> {
        let mut uf = crate::union_find::UnionFind::new(self.n);
        for &e in edge_set {
            let ed = self.edge(e);
            uf.union(ed.u.idx(), ed.v.idx());
        }
        // Canonicalize to the smallest node id in each class.
        let mut min_rep: Vec<usize> = (0..self.n).collect();
        for v in 0..self.n {
            let r = uf.find(v);
            if v < min_rep[r] {
                min_rep[r] = v;
            }
        }
        (0..self.n)
            .map(|v| NodeId::from(min_rep[uf.find(v)]))
            .collect()
    }

    /// Number of bits needed to encode a node identifier (`ceil(log2 n)`,
    /// at least 1).
    pub fn id_bits(&self) -> usize {
        (usize::BITS - (self.n.max(2) - 1).leading_zeros()) as usize
    }

    /// A 64-bit FNV-1a fingerprint of the weighted topology: `n`, `m`, and
    /// every `(u, v, w)` triple in edge-id order.
    ///
    /// Weights are part of the digest, so reweighting a single edge changes
    /// the fingerprint — cache keys built on it distinguish instances that
    /// agree on shape but not on metric. Two graphs built from the same
    /// edge list (in either orientation — edges are normalized to `u < v`)
    /// fingerprint identically. The usual 64-bit collision caveat applies:
    /// this is a cache key, not a cryptographic identity.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |word: u64| {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        mix(self.n as u64);
        mix(self.edges.len() as u64);
        for e in &self.edges {
            mix(u64::from(e.u.0));
            mix(u64::from(e.v.0));
            mix(e.w);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> WeightedGraph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 2).unwrap();
        b.add_edge(NodeId(2), NodeId(0), 3).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn parameters_are_computed_once_and_carried_by_clones() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<WeightedGraph>();
        let g = crate::generators::gnp_connected(20, 0.2, 9, 4);
        assert_eq!(g.params.get(), None);
        assert_eq!(g.parameters(), metrics::parameters(&g));
        let c = g.clone();
        assert_eq!(c.params.get(), Some(&metrics::parameters(&g)));
        assert_eq!(c.parameters(), g.parameters());
    }

    #[test]
    fn builds_and_indexes() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.weight(EdgeId(1)), 2);
        assert_eq!(g.degree(NodeId(1)), 2);
        assert_eq!(g.find_edge(NodeId(0), NodeId(2)), Some(EdgeId(2)));
        assert_eq!(g.find_edge(NodeId(2), NodeId(0)), Some(EdgeId(2)));
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(
            b.add_edge(NodeId(0), NodeId(0), 1),
            Err(GraphError::SelfLoop(NodeId(0)))
        );
    }

    #[test]
    fn rejects_duplicate_regardless_of_orientation() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        assert_eq!(
            b.add_edge(NodeId(1), NodeId(0), 2),
            Err(GraphError::DuplicateEdge(NodeId(0), NodeId(1)))
        );
    }

    #[test]
    fn rejects_zero_weight() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(
            b.add_edge(NodeId(0), NodeId(1), 0),
            Err(GraphError::ZeroWeight(NodeId(0), NodeId(1)))
        );
    }

    #[test]
    fn rejects_disconnected() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 1).unwrap();
        assert_eq!(b.build().err(), Some(GraphError::Disconnected));
    }

    #[test]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        assert!(matches!(
            b.add_edge(NodeId(0), NodeId(5), 1),
            Err(GraphError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn components_of_edge_subsets() {
        let g = triangle();
        let comps = g.components_of(&[EdgeId(0)]);
        assert_eq!(comps[0], comps[1]);
        assert_ne!(comps[0], comps[2]);
        let all = g.components_of(&[EdgeId(0), EdgeId(1)]);
        assert!(all.iter().all(|&c| c == NodeId(0)));
    }

    #[test]
    fn edge_other_endpoint() {
        let g = triangle();
        let e = g.edge(EdgeId(0));
        assert_eq!(e.other(NodeId(0)), NodeId(1));
        assert_eq!(e.other(NodeId(1)), NodeId(0));
    }

    #[test]
    fn id_bits_reasonable() {
        let g = triangle();
        assert_eq!(g.id_bits(), 2);
    }

    #[test]
    fn from_edges_matches_builder_output() {
        let edges = vec![
            Edge {
                u: NodeId(1),
                v: NodeId(0),
                w: 1,
            }, // reversed orientation is normalized
            Edge {
                u: NodeId(1),
                v: NodeId(2),
                w: 2,
            },
            Edge {
                u: NodeId(2),
                v: NodeId(0),
                w: 3,
            },
        ];
        let g = WeightedGraph::from_edges(3, edges).unwrap();
        let b = triangle();
        assert_eq!(g.edges(), b.edges());
        for v in g.nodes() {
            assert_eq!(g.neighbors(v), b.neighbors(v));
        }
    }

    #[test]
    fn fingerprint_tracks_topology_and_weights() {
        let g = triangle();
        // Stable across clones and rebuilds of the same edge list.
        assert_eq!(g.fingerprint(), g.clone().fingerprint());
        assert_eq!(
            g.fingerprint(),
            WeightedGraph::from_edges(3, g.edges().to_vec())
                .unwrap()
                .fingerprint()
        );
        // A single reweight changes it.
        let mut reweighted = g.edges().to_vec();
        reweighted[1].w += 1;
        let g2 = WeightedGraph::from_edges(3, reweighted).unwrap();
        assert_ne!(g.fingerprint(), g2.fingerprint());
        // A different shape on the same node count changes it.
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 2).unwrap();
        let path = b.build().unwrap();
        assert_ne!(g.fingerprint(), path.fingerprint());
    }

    #[test]
    fn from_edges_rejects_what_the_builder_rejects() {
        let e = |u: u32, v: u32, w: Weight| Edge {
            u: NodeId(u),
            v: NodeId(v),
            w,
        };
        assert_eq!(
            WeightedGraph::from_edges(0, vec![]).unwrap_err(),
            GraphError::Empty
        );
        assert_eq!(
            WeightedGraph::from_edges(2, vec![e(0, 0, 1)]).unwrap_err(),
            GraphError::SelfLoop(NodeId(0))
        );
        assert_eq!(
            WeightedGraph::from_edges(2, vec![e(0, 1, 0)]).unwrap_err(),
            GraphError::ZeroWeight(NodeId(0), NodeId(1))
        );
        assert!(matches!(
            WeightedGraph::from_edges(2, vec![e(0, 5, 1)]).unwrap_err(),
            GraphError::NodeOutOfRange { .. }
        ));
        // Duplicates are caught from the sorted adjacency, in either
        // orientation.
        assert_eq!(
            WeightedGraph::from_edges(2, vec![e(0, 1, 1), e(1, 0, 2)]).unwrap_err(),
            GraphError::DuplicateEdge(NodeId(0), NodeId(1))
        );
        assert_eq!(
            WeightedGraph::from_edges(4, vec![e(0, 1, 1), e(2, 3, 1)]).unwrap_err(),
            GraphError::Disconnected
        );
        // The weight rule, identically on both paths: a total at or above
        // INF is rejected (without overflowing the sum), INF - 1 is not.
        let via_builder = |n: usize, edges: &[Edge]| {
            let mut b = GraphBuilder::new(n);
            for ed in edges {
                b.add_edge(ed.u, ed.v, ed.w)?;
            }
            b.build()
        };
        let half = u64::MAX / 2;
        for (n, edges) in [
            (3, vec![e(0, 1, half), e(1, 2, half)]),
            (2, vec![e(0, 1, INF)]),
            (3, vec![e(0, 1, INF / 2 + 1), e(1, 2, INF / 2 + 1)]),
        ] {
            assert_eq!(
                via_builder(n, &edges).unwrap_err(),
                GraphError::WeightTooLarge,
                "{edges:?}"
            );
            assert_eq!(
                WeightedGraph::from_edges(n, edges.clone()).unwrap_err(),
                GraphError::WeightTooLarge,
                "{edges:?}"
            );
        }
        let largest = vec![e(0, 1, INF / 2), e(1, 2, INF - 1 - INF / 2)];
        assert_eq!(largest[0].w + largest[1].w, INF - 1);
        assert!(via_builder(3, &largest).is_ok());
        assert!(WeightedGraph::from_edges(3, largest).is_ok());
    }
}
