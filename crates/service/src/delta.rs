//! Incremental re-solve: demand and graph deltas repairing a cached
//! forest on a warm [`SolverSession`].
//!
//! Production Steiner-forest traffic is not a stream of fresh instances:
//! demand pairs arrive and depart on a mostly-stable network, and an
//! occasional link is re-priced. Re-running a solver from scratch per
//! delta throws away the previous solution. This module keeps one cached
//! solve per session — graph, demand set, and the current
//! [`ForestSolution`] — keyed by [`WeightedGraph::fingerprint`], and
//! exposes three deltas that *repair* the cached forest instead:
//!
//! * [`SolverSession::add_demand`] connects the new component through a
//!   contracted-metric Dijkstra over the cached forest
//!   ([`repair::connect_terminals`], selected edges cost 0);
//! * [`SolverSession::remove_demand`] rolls the departed component back
//!   via the union-find pruning pass
//!   ([`ForestSolution::prune_to_minimal`] against the shrunk instance);
//! * [`SolverSession::reweight_edge`] re-prices one edge (the graph is
//!   rebuilt with the patched weight; edge ids are stable) and lets the
//!   repair pass react.
//!
//! Every repaired forest is then *finished* by [`repair::optimize`],
//! the scoped fixpoint over swap, replace, whole-component-reroute and
//! Steiner-elimination moves. The scope is seeded with exactly the
//! nodes the delta disturbed (new terminals, rollback scars, the
//! re-priced edge's endpoints), so untouched trees are never
//! re-scanned; a chord whose price only went *up* needs no search at
//! all.
//!
//! Deltas that can strand the cache in a shape no repair move escapes
//! (entangled adds and removals, adds to a near-empty cache, reweights
//! that change the graph metric) race the patched forest against the
//! from-scratch candidate [`conformance::scratch_solve`] — greedy +
//! [`repair::optimize`] — and adopt it only when strictly lighter. That
//! is the same solve the churn lab (`tests/churn.rs`, `bench_runner
//! --churn`) holds every repaired forest to, so "never heavier than
//! scratch" holds by construction on every raced step; the lab also
//! checks feasibility and the certified ratio bound.
//!
//! Installing a graph whose fingerprint differs from the cached one
//! drops the cached state entirely — repairs never run against the wrong
//! topology ([`SolverSession::install_graph`]).

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use dsf_graph::{dijkstra, EdgeId, NodeId, Weight, WeightedGraph, INF};
use dsf_steiner::repair;
use dsf_steiner::{ForestSolution, Instance, InstanceBuilder, InstanceError};
use dsf_workloads::conformance;

use crate::session::SolverSession;

/// Stable handle of one demand component in a session's incremental
/// state. Handles survive unrelated removals (unlike
/// [`dsf_steiner::ComponentId`], which indexes the current instance and
/// shifts when an earlier component departs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DemandId(pub u64);

impl fmt::Display for DemandId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// Errors raised by the delta API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// No graph installed ([`SolverSession::install_graph`] first).
    NoGraph,
    /// The demand handle is unknown or already removed.
    UnknownDemand(DemandId),
    /// The new demand violates the instance rules (terminal overlap,
    /// empty component, node out of range).
    Instance(InstanceError),
    /// The reweight target edge id is out of range.
    EdgeOutOfRange(EdgeId),
    /// Reweight to zero (the model requires weights in `N`, Section 2).
    ZeroWeight(EdgeId),
    /// Reweight that breaks the graph's weight rule
    /// ([`dsf_graph::GraphError::WeightTooLarge`]: total weight reaching
    /// [`INF`]).
    WeightTooLarge(EdgeId),
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::NoGraph => write!(f, "no graph installed in this session"),
            DeltaError::UnknownDemand(d) => write!(f, "unknown or removed demand {d}"),
            DeltaError::Instance(e) => write!(f, "invalid demand: {e}"),
            DeltaError::EdgeOutOfRange(e) => write!(f, "edge {e} out of range"),
            DeltaError::ZeroWeight(e) => write!(f, "zero weight for edge {e}"),
            DeltaError::WeightTooLarge(e) => write!(f, "edge {e}: graph weight would reach INF"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<InstanceError> for DeltaError {
    fn from(e: InstanceError) -> Self {
        DeltaError::Instance(e)
    }
}

/// What one delta did to the cached solution.
#[derive(Debug, Clone)]
pub struct DeltaOutcome {
    /// The repaired forest (also cached in the session).
    pub forest: ForestSolution,
    /// Its total weight on the session's current graph.
    pub weight: Weight,
    /// Accepted [`repair::optimize`] moves (swap, replace, reroute,
    /// Steiner elimination) spent patching the cached forest. An adopted
    /// from-scratch candidate adds none: it already is an `optimize`
    /// fixpoint.
    pub moves: u64,
    /// Wall-clock of the repair, report-only (never part of any
    /// deterministic comparison).
    pub wall_ns: u64,
}

/// Counters of a session's incremental activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// [`SolverSession::install_graph`] calls.
    pub installs: u64,
    /// Installs that hit the fingerprint cache (state survived).
    pub cache_hits: u64,
    /// Installs that dropped cached state because the fingerprint
    /// changed (plus the first install of a cold session).
    pub rebuilds: u64,
    /// Deltas applied (adds + removals + reweights).
    pub deltas: u64,
    /// Total accepted repair moves across all deltas.
    pub moves: u64,
}

/// The cached solve a session repairs incrementally.
#[derive(Debug)]
pub(crate) struct IncrementalState {
    graph: Arc<WeightedGraph>,
    fingerprint: u64,
    /// Active demands in arrival order, keyed by stable handle.
    demands: Vec<(DemandId, Vec<NodeId>)>,
    next_id: u64,
    /// The instance built from `demands` (rebuilt per delta).
    instance: Instance,
    forest: ForestSolution,
}

/// Below this many demand components an add races a from-scratch solve:
/// the cached forest is too thin to give the attach an edge, and a fresh
/// solve of so small an instance costs little.
const SMALL_INSTANCE_RACE_K: usize = 4;

/// Builds the instance for the current demand list.
fn build_instance(
    g: &WeightedGraph,
    demands: &[(DemandId, Vec<NodeId>)],
) -> Result<Instance, InstanceError> {
    let mut b = InstanceBuilder::new(g);
    for (_, terms) in demands {
        b = b.component(terms);
    }
    b.build()
}

/// Races a patched forest and its move count against the from-scratch
/// candidate [`conformance::scratch_solve`], adopting the candidate only
/// when it is strictly lighter. The candidate already is a
/// [`repair::optimize`] fixpoint, so adoption keeps the move count; on a
/// tie or a heavier candidate `patched` comes back unchanged.
fn race_scratch(
    g: &WeightedGraph,
    inst: &Instance,
    patched: (ForestSolution, u64),
) -> (ForestSolution, u64) {
    let scratch = conformance::scratch_solve(g, inst);
    if scratch.weight(g) < patched.0.weight(g) {
        (scratch, patched.1)
    } else {
        patched
    }
}

impl SolverSession {
    /// Installs the graph the incremental state lives on.
    ///
    /// Solution caching is keyed by [`WeightedGraph::fingerprint`]: when
    /// the installed graph fingerprints identically to the cached one,
    /// the call is a cache hit and the cached demands and forest survive
    /// untouched. Any other fingerprint — including the first install on
    /// a cold session — (re)builds fresh empty state, so later deltas
    /// can never repair against the wrong topology.
    ///
    /// Returns `true` when state was (re)built and `false` on a cache
    /// hit.
    ///
    /// # Example
    ///
    /// ```
    /// use std::sync::Arc;
    /// use dsf_graph::{generators, NodeId};
    /// use dsf_service::SolverSession;
    ///
    /// let g = Arc::new(generators::gnp_connected(16, 0.3, 9, 1));
    /// let mut session = SolverSession::new();
    /// assert!(session.install_graph(g.clone()));
    ///
    /// let (_, out) = session.add_demand(&[NodeId(0), NodeId(9)]).unwrap();
    /// assert!(out.weight > 0);
    /// // Same fingerprint: cache hit, the solution survives.
    /// assert!(!session.install_graph(g.clone()));
    /// assert_eq!(session.cached_forest().unwrap(), &out.forest);
    /// ```
    pub fn install_graph(&mut self, graph: Arc<WeightedGraph>) -> bool {
        let fingerprint = graph.fingerprint();
        self.delta_stats.installs += 1;
        if let Some(state) = &self.incremental {
            if state.fingerprint == fingerprint {
                self.delta_stats.cache_hits += 1;
                return false;
            }
        }
        self.delta_stats.rebuilds += 1;
        let instance = build_instance(&graph, &[]).expect("empty instance is valid");
        self.incremental = Some(IncrementalState {
            graph,
            fingerprint,
            demands: Vec::new(),
            next_id: 0,
            instance,
            forest: ForestSolution::empty(),
        });
        true
    }

    /// Adds one demand component and repairs the cached forest: the new
    /// terminals are connected through a contracted-metric Dijkstra over
    /// the existing trees ([`repair::connect_terminals`] — riding cached
    /// edges is free), then finished to the deterministic local optimum.
    ///
    /// Returns a stable [`DemandId`] handle for later removal, plus the
    /// repair outcome.
    ///
    /// # Errors
    ///
    /// [`DeltaError::NoGraph`] before [`SolverSession::install_graph`];
    /// [`DeltaError::Instance`] when the terminals overlap an active
    /// demand, are empty, or exceed the node range.
    pub fn add_demand(
        &mut self,
        terminals: &[NodeId],
    ) -> Result<(DemandId, DeltaOutcome), DeltaError> {
        let t0 = Instant::now();
        let state = self.incremental.as_mut().ok_or(DeltaError::NoGraph)?;
        let id = DemandId(state.next_id);
        let mut demands = state.demands.clone();
        demands.push((id, terminals.to_vec()));
        // Validation happens in the instance build (overlap, range,
        // emptiness); state is untouched on error.
        let instance = build_instance(&state.graph, &demands)?;
        let connected = repair::connect_terminals(&state.graph, &state.forest, terminals);
        // The damage an add does is the new terminals plus the connection
        // path just bought; seeding the repair scope with both lets the
        // finishing pass react to the path (e.g. swap a detour it grazed)
        // without rescanning untouched trees.
        let mut scope = terminals.to_vec();
        for &e in connected.edges() {
            if !state.forest.contains(e) {
                let ed = &state.graph.edges()[e.idx()];
                scope.push(ed.u);
                scope.push(ed.v);
            }
        }
        let patched = repair::optimize(&state.graph, &instance, &connected, Some(&scope));
        // An add leaves the graph metric untouched, so a connection
        // path that built its own tree cannot improve any other tree.
        // But a path that *merged* into existing trees entangles the
        // newcomer with older components, and the merged topology may
        // only be escapable by a restructuring no repair move reaches:
        // give the unscoped fixpoint one look (it starts at the scoped
        // pass's fixpoint, so when nothing global moves it costs one
        // empty sweep), then race the from-scratch candidate exactly as
        // [`SolverSession::remove_demand`] does for entangled
        // departures. A disentangled add bought a standalone tree and
        // disturbed nobody, so both passes are skipped and the attach
        // stays cheap.
        let tree_of = state.graph.components_of(patched.0.edges());
        let new_tree = terminals.first().map(|t| tree_of[t.idx()]);
        let entangled = state
            .demands
            .iter()
            .any(|(_, terms)| terms.iter().any(|t| Some(tree_of[t.idx()]) == new_tree));
        let (forest, moves) = if entangled {
            let (global, extra) = repair::optimize(&state.graph, &instance, &patched.0, None);
            race_scratch(&state.graph, &instance, (global, patched.1 + extra))
        } else if instance.k() <= SMALL_INSTANCE_RACE_K {
            // On a near-cold session there is little cached structure
            // to ride, so attaching onto it can lock in a worse topology
            // than a fresh greedy's interleaved merges — and a
            // from-scratch solve of a tiny instance is cheap. Race it
            // while the instance is small; once enough components are
            // cached the attach rides real structure and the
            // incremental path wins on its own.
            race_scratch(&state.graph, &instance, patched)
        } else {
            patched
        };
        state.next_id += 1;
        state.demands = demands;
        state.instance = instance;
        let weight = forest.weight(&state.graph);
        state.forest = forest.clone();
        self.delta_stats.deltas += 1;
        self.delta_stats.moves += moves;
        Ok((
            id,
            DeltaOutcome {
                forest,
                weight,
                moves,
                wall_ns: t0.elapsed().as_nanos() as u64,
            },
        ))
    }

    /// Removes one demand component and rolls the cached forest back:
    /// pruning against the shrunk instance drops every edge only the
    /// departed component needed (the union-find label pass of
    /// [`ForestSolution::prune_to_minimal`]), and the finishing pass then
    /// re-optimizes what remains — e.g. rerouting a survivor that was
    /// riding the departed component's tree for free. Because a
    /// departure can strand the survivors in a shape only a
    /// multi-component restructuring escapes, the patched forest is
    /// raced against the from-scratch candidate and the strictly lighter
    /// of the two wins — a removal therefore never yields a forest
    /// heavier than a fresh solve.
    ///
    /// Removing the last demand yields the empty forest.
    ///
    /// # Errors
    ///
    /// [`DeltaError::NoGraph`] before [`SolverSession::install_graph`];
    /// [`DeltaError::UnknownDemand`] for a handle that was never issued
    /// or was already removed.
    pub fn remove_demand(&mut self, id: DemandId) -> Result<DeltaOutcome, DeltaError> {
        let t0 = Instant::now();
        let state = self.incremental.as_mut().ok_or(DeltaError::NoGraph)?;
        let at = state
            .demands
            .iter()
            .position(|(d, _)| *d == id)
            .ok_or(DeltaError::UnknownDemand(id))?;
        let (_, removed_terms) = state.demands.remove(at);
        let instance =
            build_instance(&state.graph, &state.demands).expect("shrunk demand set stays valid");
        // Did the departed component share its tree with a survivor?
        // (All its terminals sat in one tree — the forest was feasible —
        // so checking any one of them suffices.)
        let tree_of = state.graph.components_of(state.forest.edges());
        let removed_tree = removed_terms.first().map(|t| tree_of[t.idx()]);
        let entangled = state
            .demands
            .iter()
            .any(|(_, terms)| terms.iter().any(|t| Some(tree_of[t.idx()]) == removed_tree));
        let rolled_back = state.forest.prune_to_minimal(&state.graph, &instance);
        // The rollback scar: the departed terminals plus both endpoints
        // of every edge the prune dropped. Survivors that were riding
        // those edges for free sit in the scarred trees, so seeding the
        // repair scope here reaches everything the removal disturbed.
        let mut scope = removed_terms;
        for &e in state.forest.edges() {
            if !rolled_back.contains(e) {
                let ed = &state.graph.edges()[e.idx()];
                scope.push(ed.u);
                scope.push(ed.v);
            }
        }
        let patched = repair::optimize(&state.graph, &instance, &rolled_back, Some(&scope));
        // An *entangled* departure — the departed terminals shared a
        // tree with a survivor — can leave that survivor in a shape no
        // local move escapes: its detours were bought when the departed
        // tree was free to ride, and unwinding them can take a
        // multi-component restructuring. Race the from-scratch
        // candidate. A disentangled departure takes its whole tree with
        // it and disturbs nobody, so the race is skipped and the removal
        // stays cheap.
        let (forest, moves) = if entangled {
            race_scratch(&state.graph, &instance, patched)
        } else {
            patched
        };
        state.instance = instance;
        let weight = forest.weight(&state.graph);
        state.forest = forest.clone();
        self.delta_stats.deltas += 1;
        self.delta_stats.moves += moves;
        Ok(DeltaOutcome {
            forest,
            weight,
            moves,
            wall_ns: t0.elapsed().as_nanos() as u64,
        })
    }

    /// Re-prices one edge and repairs the cached forest against the new
    /// metric. The session's graph is rebuilt with the patched weight
    /// (edge ids are stable, so the cached forest stays valid) and the
    /// cache key follows the new fingerprint; the finishing pass then
    /// swaps away from an edge that got expensive or routes through one
    /// that got cheap.
    ///
    /// A reweight to the current weight is a no-op (no repair runs),
    /// and raising the price of an edge the forest does not use skips
    /// the search outright — no move can become profitable when every
    /// candidate only got more expensive.
    ///
    /// # Errors
    ///
    /// [`DeltaError::NoGraph`] before [`SolverSession::install_graph`];
    /// [`DeltaError::EdgeOutOfRange`] / [`DeltaError::ZeroWeight`] /
    /// [`DeltaError::WeightTooLarge`] for an invalid target or weight;
    /// the cached state is untouched on error.
    pub fn reweight_edge(&mut self, e: EdgeId, w: Weight) -> Result<DeltaOutcome, DeltaError> {
        let t0 = Instant::now();
        let state = self.incremental.as_mut().ok_or(DeltaError::NoGraph)?;
        if e.idx() >= state.graph.m() {
            return Err(DeltaError::EdgeOutOfRange(e));
        }
        if w == 0 {
            return Err(DeltaError::ZeroWeight(e));
        }
        if state.graph.weight(e) == w {
            self.delta_stats.deltas += 1;
            let weight = state.forest.weight(&state.graph);
            return Ok(DeltaOutcome {
                forest: state.forest.clone(),
                weight,
                moves: 0,
                wall_ns: t0.elapsed().as_nanos() as u64,
            });
        }
        let mut edges = state.graph.edges().to_vec();
        edges[e.idx()].w = w;
        let old_w = state.graph.weight(e);
        let went_up = w > old_w;
        // Re-pricing one edge to a positive weight keeps the structure
        // valid, so the graph's weight rule is the only one that can fail.
        let graph = Arc::new(
            WeightedGraph::from_edges(state.graph.n(), edges)
                .map_err(|_| DeltaError::WeightTooLarge(e))?,
        );
        let (forest, moves) = if went_up && !state.forest.contains(e) {
            // A chord that only got more expensive cannot enable any
            // move: every candidate's cost weakly increased while the
            // cached forest's weight is unchanged, so the fixpoint is
            // preserved without searching.
            (state.forest.clone(), 0)
        } else if !went_up && state.forest.contains(e) {
            // A forest edge that got cheaper pays for itself: in any
            // candidate trade the edge can only appear on the dropped
            // side, and dropping it now saves less — every move's
            // balance weakly worsened, so the fixpoint is preserved
            // without searching.
            (state.forest.clone(), 0)
        } else {
            // One Dijkstra finds the cheapest-alternative threshold:
            // the best `u`–`v` route avoiding the re-priced edge
            // itself. While the edge stays on its side of that
            // threshold the graph metric is unchanged up to ties —
            // contraction only shrinks distances, so the argument
            // survives the contracted metric the solvers search.
            let ed = &graph.edges()[e.idx()];
            let alt = dijkstra::multi_source_with(&graph, &[ed.u], |x| {
                if x == e {
                    INF
                } else {
                    graph.weight(x)
                }
            })
            .dist[ed.v.idx()];
            if went_up {
                // The forest absorbs a price increase on an edge it
                // uses: a scoped finish sheds or keeps it. If the edge
                // was *dominant* — priced below its alternative, hence
                // on real shortest paths — the increase re-shapes the
                // metric, and absorbing it may take a multi-component
                // restructuring no scoped move finds: race the
                // from-scratch candidate exactly as
                // [`SolverSession::remove_demand`] does. An edge that
                // was already redundant re-shapes nothing; the scoped
                // finish alone sheds it.
                let patched =
                    repair::optimize(&graph, &state.instance, &state.forest, Some(&[ed.u, ed.v]));
                if old_w < alt {
                    race_scratch(&graph, &state.instance, patched)
                } else {
                    patched
                }
            } else if w < alt {
                // A chord dropping below every alternative improves
                // real distances, so it can pay off in trees far from
                // its endpoints (e.g. a component rerouting through
                // it): finish unscoped so every move family sees it,
                // and — because the metric genuinely changed — race
                // the from-scratch candidate, whose interleaved greedy
                // merges can reach topologies no repair move does.
                let patched = repair::optimize(&graph, &state.instance, &state.forest, None);
                race_scratch(&graph, &state.instance, patched)
            } else {
                // A redundant cheaper chord leaves the metric
                // unchanged; the only possibly-profitable new move is
                // the swap adding the chord itself, which needs both
                // endpoints in one tree.
                let tree_of = graph.components_of(state.forest.edges());
                if tree_of[ed.u.idx()] == tree_of[ed.v.idx()] {
                    repair::optimize(&graph, &state.instance, &state.forest, Some(&[ed.u, ed.v]))
                } else {
                    (state.forest.clone(), 0)
                }
            }
        };
        state.fingerprint = graph.fingerprint();
        let weight = forest.weight(&graph);
        state.graph = graph;
        state.forest = forest.clone();
        self.delta_stats.deltas += 1;
        self.delta_stats.moves += moves;
        Ok(DeltaOutcome {
            forest,
            weight,
            moves,
            wall_ns: t0.elapsed().as_nanos() as u64,
        })
    }

    /// The cached repaired forest, if a graph is installed.
    pub fn cached_forest(&self) -> Option<&ForestSolution> {
        self.incremental.as_ref().map(|s| &s.forest)
    }

    /// The instance of the current demand set, if a graph is installed.
    pub fn cached_instance(&self) -> Option<&Instance> {
        self.incremental.as_ref().map(|s| &s.instance)
    }

    /// The graph the incremental state lives on (follows reweights —
    /// after [`SolverSession::reweight_edge`] this is the re-priced
    /// graph, not the one originally installed).
    pub fn cached_graph(&self) -> Option<&Arc<WeightedGraph>> {
        self.incremental.as_ref().map(|s| &s.graph)
    }

    /// The fingerprint the solution cache is keyed by.
    pub fn cached_fingerprint(&self) -> Option<u64> {
        self.incremental.as_ref().map(|s| s.fingerprint)
    }

    /// Handles of the active demands, in arrival order.
    pub fn active_demands(&self) -> Vec<DemandId> {
        self.incremental
            .as_ref()
            .map(|s| s.demands.iter().map(|(d, _)| *d).collect())
            .unwrap_or_default()
    }

    /// Counters of this session's incremental activity.
    pub fn delta_stats(&self) -> DeltaStats {
        self.delta_stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsf_graph::generators;

    fn session_on(g: &Arc<WeightedGraph>) -> SolverSession {
        let mut s = SolverSession::new();
        assert!(s.install_graph(g.clone()));
        s
    }

    #[test]
    fn add_connects_and_remove_rolls_back_to_empty() {
        let g = Arc::new(generators::path(6, 2));
        let mut s = session_on(&g);
        let (id, out) = s.add_demand(&[NodeId(1), NodeId(4)]).unwrap();
        assert_eq!(out.weight, 6); // the 3 path edges between 1 and 4
        assert!(s.cached_instance().unwrap().is_feasible(&g, &out.forest));
        let out = s.remove_demand(id).unwrap();
        assert!(out.forest.is_empty());
        assert_eq!(out.weight, 0);
        assert_eq!(
            s.remove_demand(id).unwrap_err(),
            DeltaError::UnknownDemand(id)
        );
    }

    #[test]
    fn deltas_require_an_installed_graph() {
        let mut s = SolverSession::new();
        assert_eq!(
            s.add_demand(&[NodeId(0), NodeId(1)]).unwrap_err(),
            DeltaError::NoGraph
        );
        assert_eq!(
            s.remove_demand(DemandId(0)).unwrap_err(),
            DeltaError::NoGraph
        );
        assert_eq!(
            s.reweight_edge(EdgeId(0), 1).unwrap_err(),
            DeltaError::NoGraph
        );
    }

    #[test]
    fn add_demand_validates_without_corrupting_state() {
        let g = Arc::new(generators::gnp_connected(12, 0.3, 8, 2));
        let mut s = session_on(&g);
        let (_, before) = s.add_demand(&[NodeId(0), NodeId(7)]).unwrap();
        // Overlap with the active demand is rejected...
        assert!(matches!(
            s.add_demand(&[NodeId(7), NodeId(9)]).unwrap_err(),
            DeltaError::Instance(InstanceError::Relabeled(_))
        ));
        assert!(matches!(
            s.add_demand(&[]).unwrap_err(),
            DeltaError::Instance(InstanceError::EmptyComponent)
        ));
        assert!(matches!(
            s.add_demand(&[NodeId(99), NodeId(3)]).unwrap_err(),
            DeltaError::Instance(InstanceError::NodeOutOfRange(_))
        ));
        // ...and the cached state is exactly what the last success left.
        assert_eq!(s.cached_forest().unwrap(), &before.forest);
        assert_eq!(s.active_demands().len(), 1);
    }

    #[test]
    fn reweight_patches_the_metric_and_moves_the_forest() {
        // Square 0-1-2-3-0, demand {0,2}: starts on the cheap side, a
        // reweight flips which side is cheap.
        let mut b = dsf_graph::GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap(); // e0
        b.add_edge(NodeId(1), NodeId(2), 1).unwrap(); // e1
        b.add_edge(NodeId(2), NodeId(3), 3).unwrap(); // e2
        b.add_edge(NodeId(3), NodeId(0), 3).unwrap(); // e3
        let g = Arc::new(b.build().unwrap());
        let mut s = session_on(&g);
        let (_, out) = s.add_demand(&[NodeId(0), NodeId(2)]).unwrap();
        assert_eq!(out.forest.edges(), &[EdgeId(0), EdgeId(1)]);
        let out = s.reweight_edge(EdgeId(0), 20).unwrap();
        assert_eq!(out.forest.edges(), &[EdgeId(2), EdgeId(3)]);
        assert_eq!(out.weight, 6);
        assert!(out.moves > 0);
        // The session's graph followed the reweight, cache key included.
        let cached = s.cached_graph().unwrap();
        assert_eq!(cached.weight(EdgeId(0)), 20);
        assert_eq!(s.cached_fingerprint(), Some(cached.fingerprint()));
        // Invalid targets are rejected.
        assert_eq!(
            s.reweight_edge(EdgeId(99), 1).unwrap_err(),
            DeltaError::EdgeOutOfRange(EdgeId(99))
        );
        assert_eq!(
            s.reweight_edge(EdgeId(0), 0).unwrap_err(),
            DeltaError::ZeroWeight(EdgeId(0))
        );
    }

    #[test]
    fn reweight_to_the_same_weight_is_a_no_op() {
        let g = Arc::new(generators::path(4, 5));
        let mut s = session_on(&g);
        let (_, before) = s.add_demand(&[NodeId(0), NodeId(3)]).unwrap();
        let out = s.reweight_edge(EdgeId(1), 5).unwrap();
        assert_eq!(out.forest, before.forest);
        assert_eq!(out.moves, 0);
        assert!(Arc::ptr_eq(s.cached_graph().unwrap(), &g));
    }

    #[test]
    fn reweight_rejects_weights_at_or_above_inf_without_touching_state() {
        let g = Arc::new(generators::path(6, 2));
        let mut s = session_on(&g);
        let (_, before) = s.add_demand(&[NodeId(0), NodeId(5)]).unwrap();
        let stats = s.delta_stats();
        for w in [INF, u64::MAX] {
            assert_eq!(
                s.reweight_edge(EdgeId(1), w).unwrap_err(),
                DeltaError::WeightTooLarge(EdgeId(1)),
                "w = {w}"
            );
            assert_eq!(s.cached_forest().unwrap(), &before.forest);
            assert!(Arc::ptr_eq(s.cached_graph().unwrap(), &g));
            assert_eq!(s.cached_fingerprint(), Some(g.fingerprint()));
            assert_eq!(s.delta_stats(), stats);
        }
        // Any weight lifting the total to INF is rejected too; the
        // largest legal one still repairs to a feasible forest.
        let others = 4 * 2;
        assert_eq!(
            s.reweight_edge(EdgeId(1), INF - others).unwrap_err(),
            DeltaError::WeightTooLarge(EdgeId(1))
        );
        let out = s.reweight_edge(EdgeId(1), INF - others - 1).unwrap();
        assert!(s
            .cached_instance()
            .unwrap()
            .is_feasible(s.cached_graph().unwrap(), &out.forest));
    }

    #[test]
    fn race_adopts_scratch_only_when_strictly_lighter() {
        // Unit square, demand {0, 2}: both sides are optimal paths.
        let mut b = dsf_graph::GraphBuilder::new(4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            b.add_edge(NodeId(u), NodeId(v), 1).unwrap();
        }
        let g = b.build().unwrap();
        let inst = InstanceBuilder::new(&g)
            .component(&[NodeId(0), NodeId(2)])
            .build()
            .unwrap();
        let scratch = conformance::scratch_solve(&g, &inst);
        assert_eq!(scratch.weight(&g), 2);
        // A heavier patched forest loses; its move count survives.
        let bloated = ForestSolution::from_edges(vec![EdgeId(0), EdgeId(1), EdgeId(2)]);
        assert_eq!(race_scratch(&g, &inst, (bloated, 5)), (scratch.clone(), 5));
        // A tie keeps the patched forest (the other side), bit for bit.
        let other_side: Vec<EdgeId> = (0..4)
            .map(EdgeId)
            .filter(|e| !scratch.contains(*e))
            .collect();
        let tie = ForestSolution::from_edges(other_side);
        assert_ne!(tie, scratch);
        assert_eq!(race_scratch(&g, &inst, (tie.clone(), 7)), (tie, 7));
        // A heavier candidate keeps the patched forest: find a small
        // instance where the exact optimum beats the scratch solve.
        let (g, inst, opt) = (0..200)
            .find_map(|seed| {
                let g = generators::gnp_connected(10, 0.35, 20, seed);
                let inst = dsf_steiner::random_instance(&g, 3, 2, seed);
                let opt = dsf_steiner::exact::solve(&g, &inst).forest;
                (opt.weight(&g) < conformance::scratch_solve(&g, &inst).weight(&g))
                    .then_some((g, inst, opt))
            })
            .expect("some small instance where scratch is not optimal");
        assert_eq!(race_scratch(&g, &inst, (opt.clone(), 3)), (opt, 3));
    }

    #[test]
    fn install_is_keyed_by_fingerprint_not_identity() {
        let g = Arc::new(generators::gnp_connected(14, 0.3, 7, 4));
        let rebuilt = Arc::new(WeightedGraph::from_edges(g.n(), g.edges().to_vec()).unwrap());
        let mut s = session_on(&g);
        let (_, out) = s.add_demand(&[NodeId(2), NodeId(11)]).unwrap();
        // A different allocation of the same graph is still a cache hit.
        assert!(!s.install_graph(rebuilt));
        assert_eq!(s.cached_forest().unwrap(), &out.forest);
        let stats = s.delta_stats();
        assert_eq!(stats.installs, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.rebuilds, 1);
    }
}
