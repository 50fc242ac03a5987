//! Phase-loop driver of the deterministic algorithm (Theorem 4.17), run
//! under one of two phase-end rules: the exact rule of Algorithm 1 or the
//! rounded checkpoint rule of Algorithm 2 (Section 4.2, [`super::growth`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dsf_congest::{CongestConfig, RoundLedger, SimError};
use dsf_graph::dyadic::Dyadic;
use dsf_graph::{EdgeId, GraphBuilder, NodeId, WeightedGraph};
use dsf_steiner::moat_rounded::next_mu_hat;
use dsf_steiner::{ForestSolution, Instance, InstanceBuilder};

use crate::primitives::{
    build_bfs_tree, filtered_upcast, flood_items, FloodItem, UpcastCandidate, UpcastMode,
    UpcastRootVerdict,
};

use super::book::MoatBook;
use super::voronoi::{decompose, VorStatus};

/// Configuration of the deterministic solver.
#[derive(Debug, Clone, Default)]
pub struct DetConfig {
    /// Override of the per-edge bandwidth (None: `CongestConfig::for_graph`).
    pub bandwidth_bits: Option<usize>,
    /// Edges whose traffic is metered (lower-bound experiments).
    pub metered_cut: Vec<EdgeId>,
}

/// One accepted merge.
#[derive(Debug, Clone)]
pub struct DetMerge {
    /// Terminal of the first moat (smaller node id).
    pub v: NodeId,
    /// Terminal of the second moat.
    pub w: NodeId,
    /// Cumulative growth within the phase at which the moats met.
    pub mu: Dyadic,
    /// Merge phase index (1-based).
    pub phase: usize,
    /// The inducing boundary edge.
    pub edge: EdgeId,
}

/// Result of the deterministic distributed algorithm.
#[derive(Debug, Clone)]
pub struct DetOutput {
    /// The minimal feasible solution (the algorithm's output).
    pub forest: ForestSolution,
    /// The realization of *all* accepted merges (before minimal-subset
    /// selection) — the analogue of Algorithm 1's `F_imax`.
    pub raw: ForestSolution,
    /// Itemized round accounting.
    pub rounds: RoundLedger,
    /// Number of merge phases executed (Lemma 4.4: `≤ 2k`).
    pub phases: usize,
    /// The merge log, in global order.
    pub merges: Vec<DetMerge>,
}

/// When a merge phase ends — the one point where Algorithm 2 differs
/// from Algorithm 1.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PhaseEnd {
    /// Algorithm 1 (Corollary 4.16): at the first merge that changes
    /// activity.
    Exact,
    /// Algorithm 2 (Definition 4.19): before any candidate at or beyond
    /// the checkpoint `μ̂`, and at any merge involving an inactive moat.
    /// Activities change only at checkpoints, after which `μ̂` advances
    /// by the factor `1 + ε/2`.
    Rounded {
        /// The `ε` of the `(2+ε)` approximation.
        eps: Dyadic,
    },
}

/// Safety bound on the rounded rule's merge phases. Lemma F.1 bounds them
/// by `t` plus `O(log WD/ε)` checkpoints; this only catches a runaway loop.
const MAX_ROUNDED_PHASES: usize = 100_000;

/// The phase loop's outcome, before the wrappers realize and charge the
/// final selection.
pub(crate) struct Grown {
    pub(crate) ledger: RoundLedger,
    /// Merge phases executed.
    pub(crate) phases: usize,
    /// Checkpoints passed (always 0 under [`PhaseEnd::Exact`]).
    pub(crate) checkpoints: usize,
    /// Every accepted merge, in global order.
    pub(crate) merges: Vec<DetMerge>,
    /// Indices into `merges` of the minimal subset `F_min`.
    pub(crate) fmin: Vec<usize>,
    parent_ptr: Vec<Option<NodeId>>,
    bfs_height: u64,
}

impl Grown {
    /// Realizes the merges `cands` by marking the region-tree paths from
    /// both ends of each inducing edge (E.1 Step 5). Returns the forest
    /// and the longest path walked, in hops.
    pub(crate) fn realize(
        &self,
        g: &WeightedGraph,
        cands: impl IntoIterator<Item = usize>,
    ) -> (ForestSolution, u64) {
        let mut max_hops = 0u64;
        let mut edges: Vec<EdgeId> = Vec::new();
        for ci in cands {
            let edge = self.merges[ci].edge;
            edges.push(edge);
            let e = g.edge(edge);
            for endpoint in [e.u, e.v] {
                let mut cur = endpoint;
                let mut hops = 0u64;
                while let Some(p) = self.parent_ptr[cur.idx()] {
                    edges.push(g.find_edge(cur, p).expect("parent is a neighbor"));
                    cur = p;
                    hops += 1;
                    assert!(hops <= g.n() as u64, "parent pointer loop");
                }
                max_hops = max_hops.max(hops);
            }
        }
        (ForestSolution::from_edges(edges), max_hops)
    }

    /// Charges the token marking of the final selection, whose paths were
    /// at most `max_hops` long.
    pub(crate) fn charge_token_marking(&mut self, max_hops: u64) {
        self.ledger.charge(
            "final selection: token marking O(s + D)",
            max_hops + self.bfs_height,
        );
    }
}

/// Packs an accepted candidate for flooding.
fn pack_candidate(c: &UpcastCandidate) -> FloodItem {
    let payload = ((c.a as u128) << 64) | ((c.b as u128) << 40) | (c.edge.0 as u128);
    FloodItem { payload, bits: 64 }
}

/// Packs the phase growth `μ^{(j)}` (a non-negative dyadic).
fn pack_mu(mu: Dyadic) -> FloodItem {
    let (m, e) = mu.raw();
    assert!(
        (0..(1i128 << 80)).contains(&m) && e < 256,
        "phase growth exceeds encoding"
    );
    FloodItem {
        payload: (1u128 << 120) | ((m as u128) << 8) | e as u128,
        bits: 96,
    }
}

/// Runs the merge phases under `rule` and selects `F_min`. Returns `None`
/// for an instance without terminals (nothing is simulated or charged).
///
/// # Panics
///
/// Panics if internal invariants are violated (e.g. an exact-rule phase
/// without an activity-changing merge, which Lemma 4.4 rules out).
pub(crate) fn grow(
    g: &WeightedGraph,
    inst: &Instance,
    congest: &CongestConfig,
    rule: PhaseEnd,
) -> Result<Option<Grown>, SimError> {
    let mut ledger = RoundLedger::new();
    let minimal = inst.make_minimal();
    let terms = minimal.terminals();
    if terms.is_empty() {
        return Ok(None);
    }
    let tidx: HashMap<NodeId, u32> = terms
        .iter()
        .enumerate()
        .map(|(i, &t)| (t, i as u32))
        .collect();

    // Step 1: BFS tree + global broadcast of (terminal, label).
    let bfs = build_bfs_tree(g, NodeId(0), congest)?;
    ledger.record("BFS tree construction", &bfs.metrics);
    let label_items: Vec<Vec<FloodItem>> = g
        .nodes()
        .map(|v| match minimal.label(v) {
            Some(l) => vec![FloodItem {
                payload: ((v.0 as u128) << 32) | l.0 as u128,
                bits: 64,
            }],
            None => Vec::new(),
        })
        .collect();
    let lf = flood_items(g, label_items, congest)?;
    ledger.record("terminal label broadcast (Step 1)", &lf.metrics);

    // Replicated bookkeeping + per-node region state.
    let mut book = MoatBook::new(&minimal, &terms);
    let n = g.n();
    let mut owner: Vec<Option<u32>> = vec![None; n];
    let mut rel: Vec<Dyadic> = vec![Dyadic::ZERO; n];
    let mut parent_ptr: Vec<Option<NodeId>> = vec![None; n];
    for (i, &t) in terms.iter().enumerate() {
        owner[t.idx()] = Some(i as u32);
    }

    let rounded = matches!(rule, PhaseEnd::Rounded { .. });
    let max_phases = if rounded {
        MAX_ROUNDED_PHASES
    } else {
        2 * minimal.k() + 1 // Lemma 4.4
    };
    let mut merges: Vec<DetMerge> = Vec::new();
    let mut phase = 0usize;
    // Rounded rule: the next checkpoint `μ̂` and the growth since start.
    let mut mu_hat = Dyadic::ONE;
    let mut elapsed = Dyadic::ZERO;
    let mut checkpoints = 0usize;

    while book.active_moats() > 0 {
        phase += 1;
        assert!(phase <= max_phases, "phase count exceeds its bound");
        // Growth left before the next checkpoint (rounded rule only).
        let remaining = rounded.then(|| mu_hat - elapsed);

        // Stage a: terminal decomposition (Lemma 4.8).
        let status: Vec<VorStatus> = g
            .nodes()
            .map(|u| match owner[u.idx()] {
                Some(i) => {
                    if book.moat_active(i as usize) {
                        VorStatus::Source {
                            owner: i,
                            offset: rel[u.idx()],
                        }
                    } else {
                        VorStatus::Blocked
                    }
                }
                None => VorStatus::Free,
            })
            .collect();
        let vor = decompose(g, &status, congest)?;
        ledger.record(
            format!("phase {phase}: terminal decomposition"),
            &vor.metrics,
        );
        ledger.charge(
            format!("phase {phase}: BF termination detection O(D)"),
            bfs.height() as u64,
        );

        // Combined view of this phase's (owner, offset, active?) per node.
        let view = |u: usize| -> Option<(u32, Dyadic, bool)> {
            match owner[u] {
                Some(i) => {
                    let active = status[u] != VorStatus::Blocked;
                    Some((i, rel[u], active))
                }
                None => vor.tentative[u].map(|(off, i, _)| (i, off, true)),
            }
        };

        // Stage b: candidate proposal over boundary edges (Def. 4.11).
        let mut local: Vec<Vec<UpcastCandidate>> = vec![Vec::new(); n];
        for (ei, e) in g.edges().iter().enumerate() {
            let (u, w) = (e.u.idx(), e.v.idx());
            let (Some((iu, offu, au)), Some((iw, offw, aw))) = (view(u), view(w)) else {
                continue;
            };
            if iu == iw || (!au && !aw) {
                continue;
            }
            let gap = offu + Dyadic::from_weight(e.w) + offw;
            let mu = if au && aw { gap.half() } else { gap };
            let (a, b) = if iu < iw { (iu, iw) } else { (iw, iu) };
            local[u.min(w)].push(UpcastCandidate {
                mu,
                a,
                b,
                edge: EdgeId(ei as u32),
            });
        }
        ledger.charge(format!("phase {phase}: boundary exchange"), 1);

        // Stage c: filtered collection with phase-end detection. The root
        // replays the bookkeeping and stops at an activity-changing merge
        // (Cor. 4.16; under the rounded rule only merges with an inactive
        // moat change activity), or — rounded rule, Algorithm 2 line 16 —
        // *before* a candidate with `μ ≥ μ̂ − elapsed`: equality belongs
        // to the checkpoint.
        let prior: Vec<u32> = (0..terms.len())
            .map(|i| book.moats.find_const(i) as u32)
            .collect();
        let mut sim = book.clone();
        // `Arc<AtomicBool>` rather than `Rc<Cell<_>>`: the closure is
        // owned by a protocol node, and protocol nodes must be `Send` so
        // the sharded executor may run them on worker threads.
        let hit_checkpoint = Arc::new(AtomicBool::new(false));
        let hit_flag = hit_checkpoint.clone();
        let verdict = move |c: &UpcastCandidate| {
            if remaining.is_some_and(|r| c.mu >= r) {
                hit_flag.store(true, Ordering::Relaxed);
                return UpcastRootVerdict::StopBefore;
            }
            let (involved_inactive, new_active) = sim.merge(c.a as usize, c.b as usize, rounded);
            if involved_inactive || !new_active {
                UpcastRootVerdict::AcceptAndStop
            } else {
                UpcastRootVerdict::Accept
            }
        };
        let up = filtered_upcast(
            g,
            &bfs.parent,
            &bfs.children,
            local,
            &prior,
            UpcastMode::PhaseDetect(Box::new(verdict)),
            congest,
        )?;
        ledger.record(
            format!("phase {phase}: filtered merge collection"),
            &up.metrics,
        );
        ledger.charge(
            format!("phase {phase}: collection termination O(D)"),
            bfs.height() as u64,
        );
        // A drained stream without a stop also means "no merge before the
        // checkpoint" (e.g. a lone active moat with no candidates left).
        let checkpoint = hit_checkpoint.load(Ordering::Relaxed) || !up.stopped_early;
        let mu_phase = if checkpoint {
            remaining.expect("every exact-rule phase ends with an activity-changing merge")
        } else {
            up.accepted.last().expect("stopped at a merge").mu
        };
        debug_assert!(!mu_phase.is_negative(), "negative phase growth");

        // Stage d: flood F_c^{(j)} and μ^{(j)} from the root.
        let mut items: Vec<FloodItem> = up.accepted.iter().map(pack_candidate).collect();
        items.push(pack_mu(mu_phase));
        let mut initial = vec![Vec::new(); n];
        initial[bfs.root.idx()] = items;
        let fl = flood_items(g, initial, congest)?;
        ledger.record(format!("phase {phase}: broadcast F_c^(j)"), &fl.metrics);

        // Local updates (radii, capture, parents) — act must be read at
        // phase start, i.e. before merges are applied to `book`.
        for u in 0..n {
            match owner[u] {
                Some(_) => {
                    if matches!(status[u], VorStatus::Source { .. }) {
                        rel[u] -= mu_phase;
                    }
                }
                None => {
                    if let Some((off, i, par)) = vor.tentative[u] {
                        if off <= mu_phase {
                            owner[u] = Some(i);
                            rel[u] = off - mu_phase;
                            parent_ptr[u] = Some(par);
                        }
                    }
                }
            }
        }
        // (Terminals are Voronoi sources, so their radii grew in the loop
        // above: rad(v) += μ ⟺ rel(v) −= μ.)

        // Apply merges to the canonical bookkeeping.
        for c in &up.accepted {
            book.merge(c.a as usize, c.b as usize, rounded);
            merges.push(DetMerge {
                v: terms[c.a as usize],
                w: terms[c.b as usize],
                mu: c.mu,
                phase,
                edge: c.edge,
            });
        }

        if let PhaseEnd::Rounded { eps } = rule {
            elapsed += mu_phase;
            if checkpoint {
                checkpoints += 1;
                book.checkpoint_activities();
                mu_hat = next_mu_hat(mu_hat, eps);
                // Activity recomputation is global information exchange;
                // the paper performs it with the Lemma 2.4 machinery
                // (small moats communicate internally, large moats over
                // the BFS tree) in O(k + D); see DESIGN.md for the
                // small/large-moat note.
                ledger.charge(
                    format!("checkpoint {checkpoints}: activity recomputation O(k + D)"),
                    (minimal.k() + 2 * bfs.height() as usize) as u64,
                );
            }
        }
    }

    // Final selection (E.1 Steps 4-6): minimal candidate subset in G_c,
    // computed locally from global knowledge; the wrappers realize it by
    // marking region-tree paths.
    let mut tb = GraphBuilder::new(terms.len());
    for m in &merges {
        tb.add_edge(NodeId(tidx[&m.v]), NodeId(tidx[&m.w]), 1)
            .expect("accepted merges form a forest");
    }
    let tg = tb.build_unchecked();
    let mut ib = InstanceBuilder::new(&tg);
    for comp in minimal.components() {
        let mapped: Vec<NodeId> = comp.iter().map(|t| NodeId(tidx[t])).collect();
        ib = ib.component(&mapped);
    }
    let inst_t = ib.build().expect("components are disjoint");
    let all_tg: ForestSolution = (0..tg.m() as u32).map(EdgeId).collect();
    let fmin = all_tg.prune_to_minimal(&tg, &inst_t);

    Ok(Some(Grown {
        ledger,
        phases: phase,
        checkpoints,
        merges,
        fmin: fmin.edges().iter().map(|e| e.idx()).collect(),
        parent_ptr,
        bfs_height: bfs.height() as u64,
    }))
}

/// Solves DSF-IC with the deterministic distributed algorithm
/// (Theorem 4.17: 2-approximate, `O(ks + t)` rounds).
///
/// # Example
///
/// ```
/// use dsf_core::det::{solve_deterministic, DetConfig};
/// use dsf_graph::{generators, NodeId};
/// use dsf_steiner::InstanceBuilder;
///
/// let g = generators::gnp_connected(16, 0.25, 9, 5);
/// let inst = InstanceBuilder::new(&g)
///     .component(&[NodeId(0), NodeId(11)])
///     .build()
///     .unwrap();
/// let out = solve_deterministic(&g, &inst, &DetConfig::default()).unwrap();
/// assert!(inst.is_feasible(&g, &out.forest));
/// // Fully deterministic: running again reproduces forest and ledger.
/// let again = solve_deterministic(&g, &inst, &DetConfig::default()).unwrap();
/// assert_eq!(out.forest, again.forest);
/// assert_eq!(out.rounds, again.rounds);
/// ```
///
/// # Errors
///
/// Propagates CONGEST model violations from the simulator (none occur for
/// well-formed instances; they indicate bugs, not user errors).
///
/// # Panics
///
/// Panics if internal invariants are violated (e.g. a phase without an
/// activity-changing merge, which Lemma 4.4 rules out).
pub fn solve_deterministic(
    g: &WeightedGraph,
    inst: &Instance,
    cfg: &DetConfig,
) -> Result<DetOutput, SimError> {
    let mut congest = CongestConfig::for_graph(g);
    if let Some(b) = cfg.bandwidth_bits {
        congest.bandwidth_bits = b;
    }
    congest.metered_cut = cfg.metered_cut.iter().copied().collect();
    let Some(mut run) = grow(g, inst, &congest, PhaseEnd::Exact)? else {
        return Ok(DetOutput {
            forest: ForestSolution::empty(),
            raw: ForestSolution::empty(),
            rounds: RoundLedger::new(),
            phases: 0,
            merges: Vec::new(),
        });
    };
    // `raw` realizes every accepted merge, so the token marking is
    // charged for the longest path over all of them, not just `F_min`.
    let (raw, raw_hops) = run.realize(g, 0..run.merges.len());
    let (forest, hops) = run.realize(g, run.fmin.iter().copied());
    run.charge_token_marking(raw_hops.max(hops));
    Ok(DetOutput {
        forest,
        raw,
        rounds: run.ledger,
        phases: run.phases,
        merges: run.merges,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsf_graph::generators;
    use dsf_steiner::{exact, moat, random_instance};

    fn check_instance(g: &WeightedGraph, inst: &Instance, tag: &str) -> DetOutput {
        let out = solve_deterministic(g, inst, &DetConfig::default()).unwrap();
        assert!(inst.is_feasible(g, &out.forest), "{tag}: infeasible");
        assert!(out.forest.is_forest(g), "{tag}: cyclic output");
        let central = moat::grow(g, inst);
        assert_eq!(
            out.forest.weight(g),
            central.forest.weight(g),
            "{tag}: weight differs from centralized Algorithm 1"
        );
        // Same merge pair multiset, in the same global order.
        let dist_pairs: Vec<(NodeId, NodeId)> = out.merges.iter().map(|m| (m.v, m.w)).collect();
        let cent_pairs: Vec<(NodeId, NodeId)> = central.merges.iter().map(|m| (m.v, m.w)).collect();
        assert_eq!(dist_pairs, cent_pairs, "{tag}: merge order differs");
        out
    }

    #[test]
    fn matches_centralized_on_small_instances() {
        for seed in 0..8 {
            let g = generators::gnp_connected(16, 0.25, 10, seed);
            let inst = random_instance(&g, 2, 2, seed + 7);
            check_instance(&g, &inst, &format!("seed {seed}"));
        }
    }

    #[test]
    fn matches_centralized_on_geometric_graphs() {
        for seed in 0..4 {
            let g = generators::random_geometric(24, 0.3, seed);
            let inst = random_instance(&g, 3, 3, seed);
            check_instance(&g, &inst, &format!("geo seed {seed}"));
        }
    }

    #[test]
    fn two_approximation_vs_exact() {
        for seed in 0..6 {
            let g = generators::gnp_connected(14, 0.3, 8, seed + 50);
            let inst = random_instance(&g, 3, 2, seed);
            let out = solve_deterministic(&g, &inst, &DetConfig::default()).unwrap();
            let opt = exact::solve(&g, &inst).weight;
            assert!(
                out.forest.weight(&g) <= 2 * opt,
                "seed {seed}: {} > 2·{opt}",
                out.forest.weight(&g)
            );
        }
    }

    #[test]
    fn phase_count_respects_lemma_4_4() {
        for seed in 0..5 {
            let g = generators::gnp_connected(20, 0.2, 12, seed);
            let k = 4;
            let inst = random_instance(&g, k, 2, seed);
            let out = solve_deterministic(&g, &inst, &DetConfig::default()).unwrap();
            assert!(out.phases <= 2 * k, "seed {seed}: {} phases", out.phases);
        }
    }

    #[test]
    fn mst_specialization_is_exact() {
        // k = 1, t = n: the output must be an exact MST (paper Section 1).
        for seed in 0..5 {
            let g = generators::gnp_connected(12, 0.3, 20, seed + 3);
            let all: Vec<NodeId> = g.nodes().collect();
            let inst = InstanceBuilder::new(&g).component(&all).build().unwrap();
            let out = solve_deterministic(&g, &inst, &DetConfig::default()).unwrap();
            let mst = dsf_graph::mst::kruskal(&g);
            assert_eq!(out.forest.weight(&g), mst.weight, "seed {seed}");
        }
    }

    #[test]
    fn empty_and_singleton_instances() {
        let g = generators::path(4, 1);
        let empty = InstanceBuilder::new(&g).build().unwrap();
        let out = solve_deterministic(&g, &empty, &DetConfig::default()).unwrap();
        assert!(out.forest.is_empty());
        assert_eq!(out.phases, 0);

        let single = InstanceBuilder::new(&g)
            .component(&[NodeId(2)])
            .build()
            .unwrap();
        let out = solve_deterministic(&g, &single, &DetConfig::default()).unwrap();
        assert!(out.forest.is_empty());
    }

    #[test]
    fn ledger_itemizes_phases() {
        let g = generators::gnp_connected(15, 0.25, 6, 2);
        let inst = random_instance(&g, 2, 2, 2);
        let out = solve_deterministic(&g, &inst, &DetConfig::default()).unwrap();
        let labels: Vec<&str> = out
            .rounds
            .entries()
            .iter()
            .map(|e| e.label.as_str())
            .collect();
        assert!(labels.iter().any(|l| l.contains("BFS")));
        assert!(labels.iter().any(|l| l.contains("terminal decomposition")));
        assert!(labels
            .iter()
            .any(|l| l.contains("filtered merge collection")));
        assert!(out.rounds.total() > 0);
        assert!(out.rounds.simulated() > 0);
    }
}
