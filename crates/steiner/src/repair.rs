//! The forest improver and the repair moves behind it.
//!
//! Two entry points, both pure forest surgery independent of any session
//! state:
//!
//! * [`connect_terminals`] — the *addition* repair: extend a forest until
//!   a terminal set shares one tree, growing along cheapest contracted
//!   paths ([`dsf_graph::dijkstra::multi_source_with`] with selected
//!   edges at weight 0) exactly like the gluttonous greedy realizes its
//!   merges;
//! * [`optimize`] — the crate's one forest improver: a scoped fixpoint
//!   over *four* move families — the swap/replace moves of Groß et al.
//!   (swaps screened by a tree-path-maximum walk instead of a trial
//!   Kruskal per chord, replaces generalized to whole degree-2
//!   segments), a whole-component reroute, and a Steiner-elimination
//!   move that deletes a non-terminal branch vertex's edges wholesale
//!   and reconnects, escaping local optima where every one-edge trade is
//!   blocked.
//!
//! [`crate::local_search::improve`] is [`optimize`] run unscoped, and
//! the delta API in `dsf-service` finishes every patched cached forest
//! with a scoped [`optimize`]: scanning is restricted to the trees a
//! delta actually dirtied, so steady-state repairs cost a fraction of a
//! from-scratch solve. Every accepted move strictly decreases integer
//! weight, so the fixpoint is reached in finitely many rounds.
//!
//! The reroute move matters after removals. A cached forest can carry a
//! multi-edge detour that once rode for free on a since-departed
//! component's tree; one-edge trades can settle on such a detour, while
//! a whole-component reroute re-chooses the connection in one step.

use dsf_graph::{dijkstra, EdgeId, NodeId, Weight, WeightedGraph, INF};

use crate::instance::Instance;
use crate::solution::ForestSolution;

/// Extends `f` until every node of `terminals` lies in one tree.
///
/// Pending terminals are attached one at a time along the cheapest
/// contracted path from the component of `terminals[0]` (selected edges
/// cost 0), cheapest-first with node-id tie-breaking — deterministic, and
/// free wherever the path rides existing trees. The result is normalized
/// to a forest ([`ForestSolution::lightest_spanning_forest`]) but **not**
/// pruned: callers decide which instance to prune against.
///
/// Unreachable terminals are left unconnected (cannot happen on the
/// connected graphs the model requires).
pub fn connect_terminals(
    g: &WeightedGraph,
    f: &ForestSolution,
    terminals: &[NodeId],
) -> ForestSolution {
    let Some(&anchor) = terminals.first() else {
        return f.clone();
    };
    let mut selected = vec![false; g.m()];
    for &e in f.edges() {
        selected[e.idx()] = true;
    }
    loop {
        let sp = dijkstra::multi_source_with(g, &[anchor], |e| {
            if selected[e.idx()] {
                0
            } else {
                g.weight(e)
            }
        });
        // Contracted distance 0 means the terminal already shares the
        // anchor's component; attach the pending terminal with the
        // cheapest contracted connection, ties to the smallest node id.
        let pending: Vec<NodeId> = terminals
            .iter()
            .copied()
            .filter(|t| sp.dist[t.idx()] > 0 && sp.dist[t.idx()] < INF)
            .collect();
        let Some(&t) = pending.iter().min_by_key(|t| (sp.dist[t.idx()], **t)) else {
            break;
        };
        for e in sp.path_edges(t) {
            selected[e.idx()] = true;
        }
        if pending.len() == 1 {
            // Nothing else was pending, so the attachment we just made
            // finished the job — skip the confirming Dijkstra.
            break;
        }
    }
    let picked: ForestSolution = (0..g.m() as u32)
        .map(EdgeId)
        .filter(|e| selected[e.idx()])
        .collect();
    // Contracted paths re-entering a tree over equal-weight ties could
    // close a cycle; restore the forest invariant defensively.
    picked.lightest_spanning_forest(g)
}

/// Improves `start` to a fixpoint of four deterministic move families,
/// scanning only the *dirty region* seeded by `scope`:
///
/// 1. **edge swap** — add a chord, drop the heaviest edge on the tree
///    cycle it closes (screened by a tree-path maximum walk, so
///    non-improving chords cost no allocation);
/// 2. **path replace** — drop a forest edge, reconnect its sides along
///    the cheapest contracted path when feasibility still needs them;
/// 3. **component reroute** — tear one input component out and rebuild
///    its connection over the contracted remainder with
///    [`connect_terminals`], accepted when strictly lighter;
/// 4. **Steiner elimination** — delete a degree-≥3 non-terminal vertex's
///    forest edges wholesale and reconnect the split components, the
///    multi-edge restructuring none of the one-edge moves can express.
///
/// `scope` seeds the dirty node set (`None` = everything): only trees
/// containing a dirty node are scanned, and every accepted move marks the
/// nodes it touched dirty, so repairs stay proportional to the damage a
/// delta did rather than to the graph. Every accepted move strictly
/// decreases integer weight — termination is guaranteed — and scans run
/// in fixed ascending order, so the result is deterministic. Returns the
/// optimized forest and the number of accepted moves.
pub fn optimize(
    g: &WeightedGraph,
    inst: &Instance,
    start: &ForestSolution,
    scope: Option<&[NodeId]>,
) -> (ForestSolution, u64) {
    let mut dirty = match scope {
        None => vec![true; g.n()],
        Some(seeds) => {
            let mut d = vec![false; g.n()];
            for &v in seeds {
                d[v.idx()] = true;
            }
            d
        }
    };
    let mut cur = start.lightest_spanning_forest(g).prune_to_minimal(g, inst);
    let mut moves = 0u64;
    loop {
        let comps = g.components_of(cur.edges());
        // A tree is scanned iff it contains a dirty node.
        let mut tree_dirty = vec![false; g.n()];
        for v in 0..g.n() {
            if dirty[v] {
                tree_dirty[comps[v].idx()] = true;
            }
        }
        let scoped = |v: NodeId| tree_dirty[comps[v.idx()].idx()];
        let next = swap_move(g, inst, &cur, &comps, &scoped)
            .or_else(|| replace_move(g, inst, &cur, &dirty))
            .or_else(|| reroute_move(g, inst, &cur, &scoped))
            .or_else(|| eliminate_move(g, inst, &cur, &dirty));
        let Some(next) = next else {
            break;
        };
        debug_assert!(next.weight(g) < cur.weight(g), "move did not improve");
        // Exactly what the move touched becomes dirty — the symmetric
        // difference of the two edge sets — so follow-up moves in the
        // newly exposed region are found on the next pass while the
        // scan stays proportional to the damage.
        for &e in next.edges().iter().filter(|e| !cur.contains(**e)) {
            let ed = g.edge(e);
            dirty[ed.u.idx()] = true;
            dirty[ed.v.idx()] = true;
        }
        for &e in cur.edges().iter().filter(|e| !next.contains(**e)) {
            let ed = g.edge(e);
            dirty[ed.u.idx()] = true;
            dirty[ed.v.idx()] = true;
        }
        cur = next;
        moves += 1;
    }
    (cur, moves)
}

/// First improving swap in ascending edge-id order, screened cheaply:
/// a chord improves iff the heaviest edge on the tree path between its
/// endpoints outweighs it, checked by walking parent pointers — only
/// winners pay for materialization.
fn swap_move(
    g: &WeightedGraph,
    inst: &Instance,
    cur: &ForestSolution,
    comps: &[NodeId],
    scoped: &dyn Fn(NodeId) -> bool,
) -> Option<ForestSolution> {
    // Root every tree: parent edge + depth per node, BFS from the
    // smallest-id node of each tree.
    let mut adj: Vec<Vec<(NodeId, Weight)>> = vec![Vec::new(); g.n()];
    for &e in cur.edges() {
        let ed = g.edge(e);
        adj[ed.u.idx()].push((ed.v, ed.w));
        adj[ed.v.idx()].push((ed.u, ed.w));
    }
    let mut parent: Vec<Option<(NodeId, Weight)>> = vec![None; g.n()];
    let mut depth = vec![0u32; g.n()];
    let mut seen = vec![false; g.n()];
    let mut queue = std::collections::VecDeque::new();
    for r in 0..g.n() {
        if seen[r] {
            continue;
        }
        seen[r] = true;
        queue.push_back(NodeId::from(r));
        while let Some(v) = queue.pop_front() {
            for &(w, wt) in &adj[v.idx()] {
                if !seen[w.idx()] {
                    seen[w.idx()] = true;
                    parent[w.idx()] = Some((v, wt));
                    depth[w.idx()] = depth[v.idx()] + 1;
                    queue.push_back(w);
                }
            }
        }
    }
    let path_max = |mut a: NodeId, mut b: NodeId| -> Weight {
        let mut max = 0;
        while a != b {
            if depth[a.idx()] < depth[b.idx()] {
                std::mem::swap(&mut a, &mut b);
            }
            let (p, w) = parent[a.idx()].expect("same tree, so a has a parent until the LCA");
            max = max.max(w);
            a = p;
        }
        max
    };
    let before = cur.weight(g);
    for e in (0..g.m() as u32).map(EdgeId) {
        if cur.contains(e) {
            continue;
        }
        let ed = g.edge(e);
        if comps[ed.u.idx()] != comps[ed.v.idx()] || !scoped(ed.u) {
            continue;
        }
        if path_max(ed.u, ed.v) <= ed.w {
            continue;
        }
        let mut union = cur.edges().to_vec();
        union.push(e);
        let swapped = ForestSolution::from_edges(union)
            .lightest_spanning_forest(g)
            .prune_to_minimal(g, inst);
        if swapped.weight(g) < before {
            return Some(swapped);
        }
    }
    None
}

/// First improving segment replacement over the scoped trees.
///
/// A *segment* is a maximal tree path whose interior vertices are all
/// degree-2 non-terminals — the unit a detour actually occupies. Each
/// scoped segment is dropped wholesale and its endpoints reconnected
/// along the cheapest contracted path (or just pruned, when the drop
/// keeps the instance feasible). Single forest edges between branch
/// points are one-edge segments, so this strictly generalizes the
/// classic replace move: a multi-edge detour whose every edge is
/// individually cheaper than the alternative route still falls in one
/// move here, while per-edge replace is stuck.
fn replace_move(
    g: &WeightedGraph,
    inst: &Instance,
    cur: &ForestSolution,
    dirty: &[bool],
) -> Option<ForestSolution> {
    let mut adj: Vec<Vec<(NodeId, EdgeId)>> = vec![Vec::new(); g.n()];
    for &e in cur.edges() {
        let ed = g.edge(e);
        adj[ed.u.idx()].push((ed.v, e));
        adj[ed.v.idx()].push((ed.u, e));
    }
    // Branch points, terminals, and leaves delimit segments; interior
    // nodes are degree-2 Steiner vertices.
    let important = |v: NodeId| adj[v.idx()].len() != 2 || inst.label(v).is_some();
    let before = cur.weight(g);
    let mut visited = vec![false; g.m()];
    for u in (0..g.n()).map(NodeId::from) {
        if adj[u.idx()].is_empty() || !important(u) {
            continue;
        }
        for i in 0..adj[u.idx()].len() {
            let (mut node, mut edge) = adj[u.idx()][i];
            if visited[edge.idx()] {
                continue;
            }
            let mut segment = vec![edge];
            visited[edge.idx()] = true;
            let mut touched = dirty[u.idx()] || dirty[node.idx()];
            while !important(node) {
                let (a, b) = (adj[node.idx()][0], adj[node.idx()][1]);
                let (next, via) = if a.1 == edge { b } else { a };
                segment.push(via);
                visited[via.idx()] = true;
                node = next;
                edge = via;
                touched |= dirty[node.idx()];
            }
            // Node-level scope: only segments carrying actual damage are
            // re-examined; the rest of the tree keeps its fixpoint.
            if !touched {
                continue;
            }
            let rest: Vec<EdgeId> = cur
                .edges()
                .iter()
                .copied()
                .filter(|e| !segment.contains(e))
                .collect();
            // `cur` is pruned-minimal, so every edge splits some demand:
            // dropping a segment always disconnects something and the
            // only question is whether the reconnection is cheaper.
            let dropped = ForestSolution::from_edges(rest);
            let sp = dijkstra::multi_source_with(g, &[u], |x| {
                if dropped.contains(x) {
                    0
                } else {
                    g.weight(x)
                }
            });
            if sp.dist[node.idx()] >= INF {
                continue;
            }
            let path: Vec<EdgeId> = sp
                .path_edges(node)
                .into_iter()
                .filter(|x| !dropped.contains(*x))
                .collect();
            if path.is_empty() {
                continue;
            }
            let seg_w: Weight = segment.iter().map(|&x| g.weight(x)).sum();
            let path_w: Weight = path.iter().map(|&x| g.weight(x)).sum();
            if path_w >= seg_w {
                // The rewiring itself is not cheaper; skip the
                // materialization (prune can only shave further when the
                // path re-enters the tree, which the swap move covers).
                continue;
            }
            let candidate = dropped
                .union(&ForestSolution::from_edges(path))
                .lightest_spanning_forest(g)
                .prune_to_minimal(g, inst);
            if candidate.weight(g) < before && inst.is_feasible(g, &candidate) {
                return Some(candidate);
            }
        }
    }
    None
}

/// For every edge of the (pruned) forest `cur`, how many input
/// components its removal would disconnect within its tree, and — when
/// exactly one — which. One bottom-up label-counting DFS, the same pass
/// [`ForestSolution::prune_to_minimal`] runs, shared here by all `k`
/// per-component tear-outs of [`reroute_move`].
fn split_profile(g: &WeightedGraph, inst: &Instance, cur: &ForestSolution) -> Vec<(u32, u32)> {
    use std::collections::HashMap;
    let mut idx_of: HashMap<EdgeId, usize> = HashMap::new();
    for (i, &e) in cur.edges().iter().enumerate() {
        idx_of.insert(e, i);
    }
    let mut profile = vec![(0u32, 0u32); cur.edges().len()];
    let mut adj: Vec<Vec<(NodeId, EdgeId)>> = vec![Vec::new(); g.n()];
    for &e in cur.edges() {
        let ed = g.edge(e);
        adj[ed.u.idx()].push((ed.v, e));
        adj[ed.v.idx()].push((ed.u, e));
    }
    let comps = g.components_of(cur.edges());
    let mut tree_totals: HashMap<NodeId, HashMap<u32, u32>> = HashMap::new();
    for v in g.nodes() {
        if let Some(l) = inst.label(v) {
            *tree_totals
                .entry(comps[v.idx()])
                .or_default()
                .entry(l.0)
                .or_insert(0) += 1;
        }
    }
    let mut visited = vec![false; g.n()];
    let mut counts: Vec<HashMap<u32, u32>> = vec![HashMap::new(); g.n()];
    for root in g.nodes() {
        if visited[root.idx()] || adj[root.idx()].is_empty() {
            continue;
        }
        let Some(totals) = tree_totals.get(&comps[root.idx()]) else {
            continue;
        };
        type DfsFrame = (NodeId, Option<(NodeId, EdgeId)>, bool);
        let mut stack: Vec<DfsFrame> = vec![(root, None, false)];
        while let Some((v, par, expanded)) = stack.pop() {
            if expanded {
                if let Some(l) = inst.label(v) {
                    *counts[v.idx()].entry(l.0).or_insert(0) += 1;
                }
                if let Some((p, e)) = par {
                    let mut split = 0u32;
                    let mut lone = 0u32;
                    for (l, &c) in counts[v.idx()].iter() {
                        if c > 0 && c < totals[l] {
                            split += 1;
                            lone = *l;
                        }
                    }
                    profile[idx_of[&e]] = (split, lone);
                    let child_map = std::mem::take(&mut counts[v.idx()]);
                    let parent_map = &mut counts[p.idx()];
                    if parent_map.len() < child_map.len() {
                        let old = std::mem::replace(parent_map, child_map);
                        for (l, c) in old {
                            *parent_map.entry(l).or_insert(0) += c;
                        }
                    } else {
                        for (l, c) in child_map {
                            *parent_map.entry(l).or_insert(0) += c;
                        }
                    }
                }
            } else {
                visited[v.idx()] = true;
                stack.push((v, par, true));
                for &(u, e) in &adj[v.idx()] {
                    if par.is_none_or(|(p, _)| p != u) && !visited[u.idx()] {
                        stack.push((u, Some((v, e)), false));
                    }
                }
            }
        }
    }
    profile
}

/// First improving whole-component reroute in ascending component order.
fn reroute_move(
    g: &WeightedGraph,
    inst: &Instance,
    cur: &ForestSolution,
    scoped: &dyn Fn(NodeId) -> bool,
) -> Option<ForestSolution> {
    // A reroute can profit from damage in a *different* tree (the
    // rerouted component rides the changed tree for free), so any dirty
    // region makes every component a candidate.
    if !(0..g.n()).any(|v| scoped(NodeId::from(v))) {
        return None;
    }
    let before = cur.weight(g);
    let profile = split_profile(g, inst, cur);
    for c in 0..inst.k() {
        let terms = &inst.components()[c];
        if terms.len() < 2 {
            continue;
        }
        // Tear `c` out: edges whose removal splits only `c` are exactly
        // what pruning against the instance-without-`c` would drop.
        let mut dropped_w: Weight = 0;
        let mut base_edges = Vec::with_capacity(cur.edges().len());
        for (i, &e) in cur.edges().iter().enumerate() {
            let (split, lone) = profile[i];
            if split == 1 && lone == c as u32 {
                dropped_w += g.weight(e);
            } else {
                base_edges.push(e);
            }
        }
        if dropped_w == 0 {
            // A pure rider: removing it frees nothing, so no fresh
            // connection can cost less than the zero it pays now.
            continue;
        }
        let base = ForestSolution::from_edges(base_edges);
        let candidate = connect_terminals(g, &base, terms);
        if candidate.weight(g) - base.weight(g) >= dropped_w {
            continue;
        }
        let candidate = candidate.prune_to_minimal(g, inst);
        if candidate.weight(g) < before {
            return Some(candidate);
        }
    }
    None
}

/// First improving Steiner elimination in ascending node-id order over
/// the scoped trees: delete all forest edges of a non-terminal vertex of
/// forest degree ≥ 3 and reconnect the components it split.
fn eliminate_move(
    g: &WeightedGraph,
    inst: &Instance,
    cur: &ForestSolution,
    dirty: &[bool],
) -> Option<ForestSolution> {
    let mut degree = vec![0u32; g.n()];
    for &e in cur.edges() {
        let ed = g.edge(e);
        degree[ed.u.idx()] += 1;
        degree[ed.v.idx()] += 1;
    }
    let before = cur.weight(g);
    for v in (0..g.n()).map(NodeId::from) {
        if degree[v.idx()] < 3 || inst.label(v).is_some() || !dirty[v.idx()] {
            continue;
        }
        let rest: Vec<EdgeId> = cur
            .edges()
            .iter()
            .copied()
            .filter(|&e| {
                let ed = g.edge(e);
                ed.u != v && ed.v != v
            })
            .collect();
        let base = ForestSolution::from_edges(rest);
        let split = g.components_of(base.edges());
        let broken: Vec<usize> = (0..inst.k())
            .filter(|&c| {
                inst.components()[c]
                    .windows(2)
                    .any(|w| split[w[0].idx()] != split[w[1].idx()])
            })
            .collect();
        // Reconnection is order-dependent: an early component can re-buy
        // the deleted star while a different order shares cheaper edges.
        // The broken set is tiny (the deleted vertex's fragment count),
        // so try every order and keep the lightest, first-found on ties.
        let mut best: Option<ForestSolution> = None;
        for order in permutations(&broken) {
            let mut candidate = base.clone();
            for &c in &order {
                candidate = connect_terminals(g, &candidate, &inst.components()[c]);
            }
            let candidate = candidate.prune_to_minimal(g, inst);
            if candidate.weight(g) < before
                && inst.is_feasible(g, &candidate)
                && best
                    .as_ref()
                    .is_none_or(|b| candidate.weight(g) < b.weight(g))
            {
                best = Some(candidate);
            }
        }
        if best.is_some() {
            return best;
        }
    }
    None
}

/// Every ordering of `items` in lexicographic order, capped: beyond 4
/// items ([`eliminate_move`] never splits a vertex into more fragments
/// than its degree, and degree-5 stars are already rare) only the given
/// order is tried, keeping the move polynomial.
fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
    if items.len() > 4 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    let mut cur = Vec::with_capacity(items.len());
    let mut used = vec![false; items.len()];
    fn rec(items: &[usize], used: &mut [bool], cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == items.len() {
            out.push(cur.clone());
            return;
        }
        for i in 0..items.len() {
            if !used[i] {
                used[i] = true;
                cur.push(items[i]);
                rec(items, used, cur, out);
                cur.pop();
                used[i] = false;
            }
        }
    }
    rec(items, &mut used, &mut cur, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use dsf_graph::{generators, GraphBuilder};

    /// A stale detour: pair {4, 5} still connects over a 4-hop weight-12
    /// spine that once rode on a since-departed component's tree, while a
    /// direct weight-8 edge exists.
    fn detour_trap() -> (WeightedGraph, Instance, ForestSolution) {
        let mut b = GraphBuilder::new(6);
        b.add_edge(NodeId(4), NodeId(0), 3).unwrap(); // e0
        b.add_edge(NodeId(0), NodeId(1), 3).unwrap(); // e1
        b.add_edge(NodeId(1), NodeId(2), 3).unwrap(); // e2
        b.add_edge(NodeId(2), NodeId(5), 3).unwrap(); // e3  (detour tail)
        b.add_edge(NodeId(4), NodeId(5), 8).unwrap(); // e4  (direct)
        b.add_edge(NodeId(3), NodeId(0), 1).unwrap(); // e5  (filler, keeps g connected)
        let g = b.build().unwrap();
        let inst = InstanceBuilder::new(&g)
            .component(&[NodeId(4), NodeId(5)])
            .build()
            .unwrap();
        let detour = ForestSolution::from_edges(vec![EdgeId(0), EdgeId(1), EdgeId(2), EdgeId(3)]);
        (g, inst, detour)
    }

    #[test]
    fn reroute_replaces_a_stale_detour_with_the_direct_connection() {
        let (g, inst, detour) = detour_trap();
        assert_eq!(detour.weight(&g), 12);
        let (out, moves) = optimize(&g, &inst, &detour, None);
        assert_eq!(out.edges(), &[EdgeId(4)]);
        assert_eq!(out.weight(&g), 8);
        assert!(moves > 0);
        // The detour's own trees are the whole damage: a scope seeded
        // with just its endpoints finds the same reroute.
        let (scoped, _) = optimize(&g, &inst, &detour, Some(&[NodeId(4)]));
        assert_eq!(scoped, out);
    }

    #[test]
    fn reroute_is_idempotent_and_preserves_feasibility() {
        for seed in 0..6 {
            let g = generators::gnp_connected(24, 0.2, 11, seed);
            let inst = crate::random_instance(&g, 4, 2, seed);
            let start = crate::greedy::solve_greedy(&g, &inst);
            let (once, _) = optimize(&g, &inst, &start, None);
            assert!(inst.is_feasible(&g, &once), "seed {seed}");
            assert!(once.is_forest(&g), "seed {seed}");
            assert!(once.weight(&g) <= start.weight(&g), "seed {seed}");
            let (twice, moves) = optimize(&g, &inst, &once, None);
            assert_eq!(once, twice, "seed {seed}");
            assert_eq!(moves, 0, "seed {seed}: fixpoint still had moves");
        }
    }

    #[test]
    fn connect_terminals_grows_along_cheapest_contracted_paths() {
        let g = generators::path(5, 2); // unit-structure path, weight 2 per edge
        let f = ForestSolution::from_edges(vec![EdgeId(0)]); // tree {0,1}
        let grown = connect_terminals(&g, &f, &[NodeId(0), NodeId(3)]);
        assert_eq!(grown.edges(), &[EdgeId(0), EdgeId(1), EdgeId(2)]);
        // Already-connected terminal sets are a no-op.
        assert_eq!(
            connect_terminals(&g, &grown, &[NodeId(0), NodeId(3)]),
            grown
        );
        // Empty terminal set is the identity.
        assert_eq!(connect_terminals(&g, &f, &[]), f);
    }

    #[test]
    fn connect_terminals_rides_existing_trees_for_free() {
        // Star with center 0: tree {1,2} via spokes; connecting {1, 3}
        // only pays the one new spoke.
        let g = generators::star(5, 1, 0);
        let f = ForestSolution::from_edges(vec![EdgeId(0), EdgeId(1)]);
        let grown = connect_terminals(&g, &f, &[NodeId(1), NodeId(3)]);
        assert_eq!(grown.weight(&g), 3);
        assert!(grown.is_forest(&g));
    }

    #[test]
    fn reroute_on_empty_instance_clears_everything() {
        let g = generators::path(4, 1);
        let inst = InstanceBuilder::new(&g).build().unwrap();
        let full: ForestSolution = (0..3).map(EdgeId).collect();
        let (out, moves) = optimize(&g, &inst, &full, None);
        assert!(out.is_empty());
        // Normalization drops the unneeded edges before any move runs.
        assert_eq!(moves, 0);
    }
}
