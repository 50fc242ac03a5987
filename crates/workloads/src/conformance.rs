//! The differential oracle harness.
//!
//! One reusable layer of checks shared by the root `tests/conformance.rs`
//! tier, `bench_runner --conformance`, and the integration/property suites
//! (which previously each carried their own copy-pasted assertions):
//!
//! * **feasibility** — every demand pair connected, output acyclic
//!   ([`check_feasible_forest`]);
//! * **ratio** — solver weight against the entry's [`crate::Certificate`]
//!   ([`check_ratio_le`]): `W(det) ≤ 2·OPT` (Theorem 4.17, tie slack per
//!   the Section 2 unique-weight assumption), `W(moat) ≤ 2·dual`
//!   (Theorem 4.1), `W(rounded) ≤ (2+ε)·OPT` (Theorem D.2),
//!   `W(randomized) ≤ O(log n)·OPT` (Theorem 5.2), and every feasible
//!   output weighs at least the certified lower bound;
//! * **differential** — the distributed deterministic solver must replay
//!   the centralized Algorithm 1 merge-for-merge (Lemma 4.13,
//!   [`check_merge_agreement`]);
//! * **determinism** — repeated seeded runs must be bit-identical
//!   (forest, rounds, messages, bits);
//! * **CONGEST compliance** — every [`RoundLedger`] entry respects the
//!   `B`-bit per-edge budget ([`check_ledger_budget`]).
//!
//! Checks come in two flavors: `check_*` returns `Result`/`Vec` for
//! violation collection (bench reporting, proptests), `assert_*` panics
//! with context (integration tests).

use dsf_baselines::khan::{solve_khan, KhanConfig};
use dsf_baselines::solve_collect_at_root;
use dsf_congest::{CongestConfig, RoundLedger, SimError};
use dsf_core::det::{solve_deterministic, DetConfig, DetOutput};
use dsf_core::randomized::{solve_randomized, RandConfig};
use dsf_graph::dyadic::Dyadic;
use dsf_graph::{NodeId, Weight, WeightedGraph};
use dsf_steiner::moat::MoatRun;
use dsf_steiner::{greedy, local_search, moat, moat_rounded, ForestSolution, Instance};

use crate::certificate::Certificate;
use crate::corpus::CorpusEntry;

/// Checks that `f` connects every demand component and is acyclic.
///
/// # Errors
///
/// Returns a description of the first violated condition.
pub fn check_feasible_forest(
    g: &WeightedGraph,
    inst: &Instance,
    f: &ForestSolution,
) -> Result<(), String> {
    if !inst.is_feasible(g, f) {
        return Err("solution leaves a demand pair disconnected".into());
    }
    if !f.is_forest(g) {
        return Err("solution contains a cycle".into());
    }
    Ok(())
}

/// Panicking flavor of [`check_feasible_forest`] for test suites.
///
/// # Panics
///
/// Panics with `ctx` if the solution is infeasible or cyclic.
pub fn assert_feasible_forest(g: &WeightedGraph, inst: &Instance, f: &ForestSolution, ctx: &str) {
    if let Err(e) = check_feasible_forest(g, inst, f) {
        panic!("{ctx}: {e}");
    }
}

/// Checks `weight ≤ factor · base` (with absolute slack `slack` for
/// integer-tie effects).
///
/// # Errors
///
/// Returns the violated inequality, spelled out.
pub fn check_ratio_le(weight: Weight, factor: f64, base: f64, slack: f64) -> Result<(), String> {
    let bound = factor * base + slack;
    if (weight as f64) <= bound + 1e-9 {
        Ok(())
    } else {
        Err(format!(
            "weight {weight} exceeds {factor} x {base} + {slack} = {bound:.3}"
        ))
    }
}

/// Panicking flavor of [`check_ratio_le`].
///
/// # Panics
///
/// Panics with `ctx` if the ratio bound is violated.
pub fn assert_ratio_le(weight: Weight, factor: f64, base: f64, ctx: &str) {
    if let Err(e) = check_ratio_le(weight, factor, base, 0.0) {
        panic!("{ctx}: {e}");
    }
}

/// The `O(log n)` factor asserted for the randomized solver
/// (Theorem 5.2 with the constant used throughout the experiments).
pub fn randomized_log_factor(n: usize) -> f64 {
    3.0 * (n as f64).ln()
}

/// The (looser) `O(log n)` factor for the Khan et al. baseline, whose
/// per-component selection repeats the embedding lottery independently.
pub fn khan_log_factor(n: usize) -> f64 {
    6.0 * (n as f64).ln()
}

/// The constant factor asserted for the gluttonous greedy and its
/// local-search post-processing. Gupta–Kumar and Groß et al. prove
/// constant ratios without pinning a small explicit constant, so — like
/// [`randomized_log_factor`]'s `3.0` — this is the empirical envelope used
/// throughout the experiments; in practice both solvers sit well under 2.
pub const GREEDY_FACTOR: f64 = 4.0;

/// Solver-agnostic acceptance checks for one solution against a corpus
/// certificate: feasibility and forest-ness ([`check_feasible_forest`]),
/// the certified lower bound (any feasible forest weighs at least
/// `OPT ≥ lower`), and the `factor · upper + slack` ratio envelope
/// ([`check_ratio_le`]).
///
/// [`check_entry`] routes every solver through this; the oracle mutation
/// self-test (`tests/oracle_selftest.rs`) feeds it deliberately broken
/// solutions to prove the gate can fail. Returns every violation, tagged
/// `[solver]` (empty = accepted).
pub fn check_solution(
    g: &WeightedGraph,
    inst: &Instance,
    cert: &Certificate,
    solver: &str,
    forest: &ForestSolution,
    factor: f64,
    slack: f64,
) -> Vec<String> {
    let mut violations = Vec::new();
    let w = forest.weight(g);
    if let Err(e) = check_feasible_forest(g, inst, forest) {
        violations.push(format!("[{solver}] {e}"));
    }
    if (w as f64) < cert.lower - 1e-6 {
        violations.push(format!(
            "[{solver}] weight {w} below certified lower bound {}",
            cert.lower
        ));
    }
    if let Err(e) = check_ratio_le(w, factor, cert.upper as f64, slack) {
        violations.push(format!("[{solver}] {e}"));
    }
    violations
}

/// The from-scratch baseline the churn gate holds repaired forests to:
/// gluttonous greedy followed by the forest improver
/// (`local_search::improve`, i.e. an unscoped `repair::optimize`), on
/// the post-delta instance. Deterministic. The delta API races exactly
/// this candidate, so a raced repair is never heavier by construction.
pub fn scratch_solve(g: &WeightedGraph, inst: &Instance) -> ForestSolution {
    local_search::improve(g, inst, &greedy::solve_greedy(g, inst))
}

/// The churn-differential gate: acceptance checks for one *repaired*
/// forest after a delta, against the post-delta instance.
///
/// On top of the solver-agnostic [`check_solution`] checks (feasibility,
/// forest-ness, certified ratio envelope at [`GREEDY_FACTOR`]) the
/// repaired forest must
///
/// * weigh no more than `scratch_weight`, the from-scratch
///   [`scratch_solve`] of the same post-delta state — repair must never
///   cost solution quality; and
/// * be minimal: [`ForestSolution::prune_to_minimal`] must be the
///   identity, so a corrupted rollback that leaves a dangling edge after
///   a removal is rejected even when the forest is still feasible and
///   within ratio.
///
/// Returns every violation, tagged `[repair]` (empty = accepted). The
/// oracle self-test feeds this stale and corrupted forests to prove the
/// gate can fail.
pub fn check_repaired(
    g: &WeightedGraph,
    inst: &Instance,
    cert: &Certificate,
    repaired: &ForestSolution,
    scratch_weight: Weight,
) -> Vec<String> {
    let mut violations = check_solution(g, inst, cert, "repair", repaired, GREEDY_FACTOR, 0.0);
    let w = repaired.weight(g);
    if w > scratch_weight {
        violations.push(format!(
            "[repair] weight {w} exceeds the from-scratch greedy+local_search weight {scratch_weight}"
        ));
    }
    if &repaired.prune_to_minimal(g, inst) != repaired {
        violations.push(
            "[repair] forest is not minimal: a dangling edge survived the rollback".to_string(),
        );
    }
    violations
}

/// The per-entry ratio ceiling a solver committed to, in milli units:
/// `⌈1000 · (factor · upper + slack) / upper⌉`. Emitted next to the
/// achieved `ratio_milli` so the schema checker can replay the
/// ratio-regression gate (`ratio_milli ≤ bound_milli`) offline.
pub fn bound_milli(cert: &Certificate, factor: f64, slack: f64) -> u64 {
    let upper = cert.upper.max(1) as f64;
    ((1000.0 * (factor * upper + slack)) / upper).ceil() as u64
}

/// Merge endpoints of the distributed deterministic run, in merge order.
pub fn det_merge_pairs(out: &DetOutput) -> Vec<(NodeId, NodeId)> {
    out.merges.iter().map(|m| (m.v, m.w)).collect()
}

/// Merge endpoints of a centralized moat run, in merge order.
pub fn moat_merge_pairs(run: &MoatRun) -> Vec<(NodeId, NodeId)> {
    run.merges.iter().map(|m| (m.v, m.w)).collect()
}

/// Lemma 4.13: the distributed deterministic solver replays the
/// centralized Algorithm 1 merge sequence exactly, and the realized
/// weights agree up to shortest-path tie slack (Section 2's unique-weight
/// assumption does not hold for integer weights).
///
/// # Errors
///
/// Returns which of the two agreements failed.
pub fn check_merge_agreement(
    g: &WeightedGraph,
    det: &DetOutput,
    central: &MoatRun,
) -> Result<(), String> {
    if det_merge_pairs(det) != moat_merge_pairs(central) {
        return Err(format!(
            "merge sequences diverge: {:?} vs {:?}",
            det_merge_pairs(det),
            moat_merge_pairs(central)
        ));
    }
    let (dw, cw) = (det.forest.weight(g) as f64, central.forest.weight(g) as f64);
    if (dw - cw).abs() > tie_slack(cw) {
        return Err(format!("weights diverge beyond tie slack: {dw} vs {cw}"));
    }
    Ok(())
}

/// The absolute slack allowed between two realizations of the same merge
/// sequence over equal-weight shortest-path ties.
pub fn tie_slack(central_weight: f64) -> f64 {
    0.15 * central_weight + 2.0
}

/// Checks the CONGEST bandwidth invariants on every ledger entry: a stage
/// delivering `messages` messages of at most `bandwidth_bits` bits each
/// can carry at most `messages · B` bits, and the metered-cut traffic is a
/// subset of all traffic.
///
/// Returns one description per violated entry (empty = compliant).
pub fn check_ledger_budget(ledger: &RoundLedger, bandwidth_bits: usize) -> Vec<String> {
    let mut violations = Vec::new();
    for e in ledger.entries() {
        if e.bits > e.messages * bandwidth_bits as u64 {
            violations.push(format!(
                "stage {:?}: {} bits exceed {} messages x B={} bits",
                e.label, e.bits, e.messages, bandwidth_bits
            ));
        }
        if e.cut_bits > e.bits {
            violations.push(format!(
                "stage {:?}: cut_bits {} exceed total bits {}",
                e.label, e.cut_bits, e.bits
            ));
        }
    }
    violations
}

/// Panicking flavor of [`check_ledger_budget`].
///
/// # Panics
///
/// Panics with `ctx` on the first over-budget ledger entry.
pub fn assert_ledger_budget(ledger: &RoundLedger, bandwidth_bits: usize, ctx: &str) {
    let v = check_ledger_budget(ledger, bandwidth_bits);
    assert!(v.is_empty(), "{ctx}: {v:?}");
}

/// One solver's result on a corpus entry.
#[derive(Debug, Clone)]
pub struct SolverRecord {
    /// Solver name (`moat`, `moat_rounded`, `greedy`,
    /// `greedy+local_search`, `det`, `randomized`, `khan`).
    pub solver: &'static str,
    /// Weight of the returned forest.
    pub weight: Weight,
    /// The ratio ceiling this solver was held to ([`bound_milli`]).
    pub bound_milli: u64,
}

/// The oracle's verdict on one corpus entry.
#[derive(Debug, Clone)]
pub struct EntryOutcome {
    /// The entry's id.
    pub id: String,
    /// Per-solver weights, in a stable order.
    pub records: Vec<SolverRecord>,
    /// Everything that failed (empty = conformant).
    pub violations: Vec<String>,
}

/// One distributed run reduced to the fields the oracle compares.
type DistRun = Result<(ForestSolution, RoundLedger), SimError>;

/// A fingerprint of one run for bit-identical determinism checks.
fn fingerprint(forest: &ForestSolution, ledger: &RoundLedger) -> (Vec<u32>, u64, u64, u64) {
    (
        forest.edges().iter().map(|e| e.0).collect(),
        ledger.total(),
        ledger.messages(),
        ledger.bits(),
    )
}

/// Runs every solver on `entry` and applies the full oracle.
///
/// Never panics on a conformance failure — violations are collected so a
/// sweep can report all of them; simulator errors are violations too.
pub fn check_entry(entry: &CorpusEntry) -> EntryOutcome {
    let g = &entry.graph;
    let inst = &entry.instance;
    let cert = &entry.certificate;
    let upper = cert.upper as f64;
    let bandwidth = CongestConfig::for_graph(g).bandwidth_bits;
    let mut records = Vec::new();
    let mut violations = Vec::new();
    let violate = |solver: &str, what: String| format!("[{solver}] {what}");

    // Common per-solver checks, routed through the same [`check_solution`]
    // seam the oracle self-test attacks with broken solutions.
    let mut base_checks = |solver: &'static str,
                           forest: &ForestSolution,
                           factor: f64,
                           slack: f64,
                           violations: &mut Vec<String>| {
        violations.extend(check_solution(g, inst, cert, solver, forest, factor, slack));
        records.push(SolverRecord {
            solver,
            weight: forest.weight(g),
            bound_milli: bound_milli(cert, factor, slack),
        });
    };

    // Centralized Algorithm 1: 2-approximation via the primal-dual bound.
    let central = moat::grow(g, inst);
    {
        let w = central.forest.weight(g);
        if let Err(e) = check_ratio_le(w, 2.0, central.dual.to_f64(), 0.0) {
            violations.push(violate("moat", format!("primal-dual bound: {e}")));
        }
        if central.dual.to_f64() > upper + 1e-6 {
            violations.push(violate(
                "moat",
                format!(
                    "dual {} exceeds certified upper {upper}",
                    central.dual.to_f64()
                ),
            ));
        }
        base_checks("moat", &central.forest, 2.0, 0.0, &mut violations);
    }

    // Centralized Algorithm 2 (rounded radii): (2+ε) with ε = 1/2.
    let rounded = moat_rounded::grow_rounded(g, inst, Dyadic::new(1, 1));
    base_checks("moat_rounded", &rounded.forest, 2.5, 0.0, &mut violations);

    // The beat-the-2 sequential line: gluttonous greedy (Gupta–Kumar) and
    // its local-search post-processing (Groß et al.). Both are
    // deterministic by construction — run twice and hold them to it — and
    // the improver must never raise the weight of what it was handed.
    let greedy_forest = greedy::solve_greedy(g, inst);
    if greedy_forest != greedy::solve_greedy(g, inst) {
        violations.push(violate(
            "greedy",
            "repeated runs are not bit-identical".into(),
        ));
    }
    base_checks(
        "greedy",
        &greedy_forest,
        GREEDY_FACTOR,
        0.0,
        &mut violations,
    );
    let improved = local_search::improve(g, inst, &greedy_forest);
    if improved != local_search::improve(g, inst, &greedy_forest) {
        violations.push(violate(
            "greedy+local_search",
            "repeated runs are not bit-identical".into(),
        ));
    }
    if improved.weight(g) > greedy_forest.weight(g) {
        violations.push(violate(
            "greedy+local_search",
            format!(
                "improve increased weight: {} from {}",
                improved.weight(g),
                greedy_forest.weight(g)
            ),
        ));
    }
    base_checks(
        "greedy+local_search",
        &improved,
        GREEDY_FACTOR,
        0.0,
        &mut violations,
    );

    // Shared distributed-solver protocol: run twice, check bit-identical
    // determinism and the ledger budget, and hand the first run back for
    // the solver-specific checks (None on simulator error).
    let dual_run = |solver: &'static str,
                    runs: (DistRun, DistRun),
                    violations: &mut Vec<String>|
     -> Option<(ForestSolution, RoundLedger)> {
        match runs {
            (Ok(a), Ok(b)) => {
                if fingerprint(&a.0, &a.1) != fingerprint(&b.0, &b.1) {
                    violations.push(violate(
                        solver,
                        "repeated seeded runs are not bit-identical".into(),
                    ));
                }
                for v in check_ledger_budget(&a.1, bandwidth) {
                    violations.push(violate(solver, v));
                }
                Some(a)
            }
            (r1, r2) => {
                violations.push(violate(
                    solver,
                    format!("simulator error: {:?}", r1.err().or(r2.err())),
                ));
                None
            }
        }
    };

    // Distributed deterministic (Theorem 4.17): differential vs Algorithm
    // 1, 2·OPT with tie slack, determinism, ledger budget.
    let det_runs = (
        solve_deterministic(g, inst, &DetConfig::default()),
        solve_deterministic(g, inst, &DetConfig::default()),
    );
    if let (Ok(det), _) | (_, Ok(det)) = (&det_runs.0, &det_runs.1) {
        if let Err(e) = check_merge_agreement(g, det, &central) {
            violations.push(violate("det", e));
        }
    }
    let det_runs = (
        det_runs.0.map(|o| (o.forest, o.rounds)),
        det_runs.1.map(|o| (o.forest, o.rounds)),
    );
    if let Some((forest, _)) = dual_run("det", det_runs, &mut violations) {
        let central_w = central.forest.weight(g) as f64;
        base_checks("det", &forest, 2.0, tie_slack(central_w), &mut violations);
    }

    // Distributed randomized (Theorem 5.2): O(log n)·OPT, seeded
    // determinism, ledger budget.
    let rand_runs = (
        solve_randomized(g, inst, &RandConfig::default()).map(|o| (o.forest, o.rounds)),
        solve_randomized(g, inst, &RandConfig::default()).map(|o| (o.forest, o.rounds)),
    );
    if let Some((forest, _)) = dual_run("randomized", rand_runs, &mut violations) {
        base_checks(
            "randomized",
            &forest,
            randomized_log_factor(g.n()),
            0.0,
            &mut violations,
        );
    }

    // Khan et al. baseline: feasibility, seeded determinism, budget, and
    // the looser O(log n) embedding bound.
    let khan_runs = (
        solve_khan(g, inst, &KhanConfig::default()).map(|o| (o.forest, o.rounds)),
        solve_khan(g, inst, &KhanConfig::default()).map(|o| (o.forest, o.rounds)),
    );
    if let Some((forest, _)) = dual_run("khan", khan_runs, &mut violations) {
        base_checks(
            "khan",
            &forest,
            khan_log_factor(g.n()),
            0.0,
            &mut violations,
        );
    }

    // Collect-at-root sanity baseline: must reproduce Algorithm 1 exactly.
    match solve_collect_at_root(g, inst) {
        Ok(collect) => {
            if collect.forest != central.forest {
                violations.push(violate(
                    "collect",
                    "collect-at-root diverges from centralized Algorithm 1".into(),
                ));
            }
            for v in check_ledger_budget(&collect.rounds, bandwidth) {
                violations.push(violate("collect", v));
            }
        }
        Err(e) => violations.push(violate("collect", format!("simulator error: {e:?}"))),
    }

    EntryOutcome {
        id: entry.id.clone(),
        records,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsf_congest::RunMetrics;
    use dsf_graph::{generators, EdgeId};
    use dsf_steiner::InstanceBuilder;

    #[test]
    fn feasibility_check_flags_disconnection_and_cycles() {
        let g = generators::path(4, 1);
        let inst = InstanceBuilder::new(&g)
            .component(&[NodeId(0), NodeId(3)])
            .build()
            .unwrap();
        let partial = ForestSolution::from_edges(vec![EdgeId(0)]);
        assert!(check_feasible_forest(&g, &inst, &partial).is_err());
        let full = ForestSolution::from_edges(vec![EdgeId(0), EdgeId(1), EdgeId(2)]);
        assert!(check_feasible_forest(&g, &inst, &full).is_ok());
        // A cycle is rejected even when feasible.
        let ring = generators::ring(4, 3, 0);
        let ring_inst = InstanceBuilder::new(&ring)
            .component(&[NodeId(0), NodeId(2)])
            .build()
            .unwrap();
        let cyclic: ForestSolution = (0..4).map(EdgeId).collect();
        assert!(check_feasible_forest(&ring, &ring_inst, &cyclic).is_err());
    }

    #[test]
    fn ratio_check_boundaries() {
        assert!(check_ratio_le(10, 2.0, 5.0, 0.0).is_ok());
        assert!(check_ratio_le(11, 2.0, 5.0, 0.0).is_err());
        assert!(check_ratio_le(11, 2.0, 5.0, 1.0).is_ok());
    }

    #[test]
    fn ledger_budget_flags_overflow_and_cut_excess() {
        let mut ledger = RoundLedger::new();
        ledger.record(
            "ok",
            &RunMetrics {
                rounds: 2,
                messages: 10,
                total_bits: 320,
                max_message_bits: 32,
                cut_bits: 100,
            },
        );
        assert!(check_ledger_budget(&ledger, 32).is_empty());
        ledger.record(
            "over",
            &RunMetrics {
                rounds: 1,
                messages: 2,
                total_bits: 100,
                max_message_bits: 50,
                cut_bits: 0,
            },
        );
        ledger.record(
            "cut",
            &RunMetrics {
                rounds: 1,
                messages: 4,
                total_bits: 64,
                max_message_bits: 16,
                cut_bits: 65,
            },
        );
        let v = check_ledger_budget(&ledger, 32);
        assert_eq!(v.len(), 2);
        assert!(v[0].contains("over"));
        assert!(v[1].contains("cut"));
    }

    #[test]
    fn check_entry_accepts_a_known_good_instance() {
        let entries = crate::corpus::corpus(crate::corpus::Tier::Quick);
        let outcome = check_entry(&entries[0]);
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
        let solvers: Vec<&str> = outcome.records.iter().map(|r| r.solver).collect();
        assert_eq!(
            solvers,
            vec![
                "moat",
                "moat_rounded",
                "greedy",
                "greedy+local_search",
                "det",
                "randomized",
                "khan"
            ]
        );
        // Every record carries the ratio ceiling it was held to.
        assert!(outcome.records.iter().all(|r| r.bound_milli >= 1000));
    }

    #[test]
    fn check_solution_rejects_the_three_defect_classes() {
        // Path 0-1-2 (unit edges) plus a heavy detour 0-3-2; demand {0,2};
        // exact certificate OPT = 2.
        let mut b = dsf_graph::GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 1).unwrap();
        b.add_edge(NodeId(0), NodeId(3), 100).unwrap();
        b.add_edge(NodeId(3), NodeId(2), 100).unwrap();
        let g = b.build().unwrap();
        let inst = InstanceBuilder::new(&g)
            .component(&[NodeId(0), NodeId(2)])
            .build()
            .unwrap();
        let cert = crate::certificate::certify(&g, &inst);
        let good = ForestSolution::from_edges(vec![EdgeId(0), EdgeId(1)]);
        assert!(check_solution(&g, &inst, &cert, "good", &good, 2.0, 0.0).is_empty());
        // Heavy detour: feasible but 100x over the 2·OPT envelope.
        let heavy = ForestSolution::from_edges(vec![EdgeId(2), EdgeId(3)]);
        let v = check_solution(&g, &inst, &cert, "heavy", &heavy, 2.0, 0.0);
        assert!(v.iter().any(|e| e.contains("exceeds")), "{v:?}");
    }

    #[test]
    fn bound_milli_is_the_scaled_ceiling() {
        let cert = Certificate {
            kind: crate::certificate::CertificateKind::Exact,
            lower: 7.0,
            upper: 7,
        };
        assert_eq!(bound_milli(&cert, 2.0, 0.0), 2000);
        assert_eq!(bound_milli(&cert, 2.5, 0.0), 2500);
        // Slack shows up scaled by 1000/upper, rounded up.
        assert_eq!(bound_milli(&cert, 2.0, 1.0), 2143);
    }
}
