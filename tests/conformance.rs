//! The conformance tier: every solver against the full quick corpus
//! (8 graph families × 4 demand patterns), with per-instance certificates.
//!
//! For each entry the oracle (`workloads::conformance`) asserts:
//! feasibility and forest-ness of every output, the paper's ratio bounds
//! against the certificate (det ≤ 2·OPT with tie slack, moat ≤ 2·dual,
//! rounded ≤ (2+ε)·OPT, randomized/Khan ≤ O(log n)·OPT, greedy and its
//! local-search post-processing within the constant `GREEDY_FACTOR`
//! envelope, the improver never above the greedy weight), the Lemma 4.13
//! merge-for-merge agreement between the distributed deterministic solver
//! and centralized Algorithm 1, bit-identical determinism across repeated
//! seeded runs, and the CONGEST `B`-bit per-edge bandwidth budget on every
//! round-ledger stage.

use std::sync::Arc;

use steiner_forest::congest::{run, CongestConfig, Message, NodeCtx, Outbox, Protocol, RunMetrics};
use steiner_forest::prelude::*;
use steiner_forest::server::{ServerConfig, StreamingServer};
use steiner_forest::service::{SolveRequest, SolverKind};
use steiner_forest::workloads::conformance::{self, check_entry};
use steiner_forest::workloads::corpus::{corpus, stream, Tier, FAMILIES, PATTERNS};
use steiner_forest::workloads::CertificateKind;

#[test]
fn corpus_covers_the_family_pattern_matrix() {
    let entries = corpus(Tier::Quick);
    // Acceptance floor: at least 8 family × pattern combinations; the
    // quick tier actually crosses all 8 families with all 4 patterns.
    let mut combos: Vec<(&str, &str)> = entries.iter().map(|e| (e.family, e.pattern)).collect();
    combos.sort_unstable();
    combos.dedup();
    assert!(combos.len() >= 8, "only {} combinations", combos.len());
    assert_eq!(combos.len(), FAMILIES.len() * PATTERNS.len());
    // Both certificate kinds are exercised in CI.
    assert!(entries
        .iter()
        .any(|e| e.certificate.kind == CertificateKind::Exact));
    assert!(entries
        .iter()
        .any(|e| e.certificate.kind == CertificateKind::Sandwich));
}

#[test]
fn all_solvers_conform_on_the_quick_corpus() {
    let mut checked = 0;
    // Per-family (sum of ratios, entry count) for the beat-the-det gate.
    let mut family_sums: Vec<(&str, [u64; 2], u64)> = Vec::new();
    for entry in corpus(Tier::Quick) {
        let outcome = check_entry(&entry);
        assert!(
            outcome.violations.is_empty(),
            "{}: {:#?}",
            entry.id,
            outcome.violations
        );
        // Every centralized/sequential/distributed solver produced a record.
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
            ],
            "{}",
            entry.id
        );
        let upper = entry.certificate.upper.max(1);
        let ratio_of = |name: &str| {
            let r = outcome.records.iter().find(|r| r.solver == name).unwrap();
            (1000 * r.weight).div_ceil(upper)
        };
        let sums = match family_sums.iter_mut().find(|(f, _, _)| *f == entry.family) {
            Some((_, sums, count)) => {
                *count += 1;
                sums
            }
            None => {
                family_sums.push((entry.family, [0, 0], 1));
                &mut family_sums.last_mut().unwrap().1
            }
        };
        sums[0] += ratio_of("greedy+local_search");
        sums[1] += ratio_of("det");
        checked += 1;
    }
    assert_eq!(checked, FAMILIES.len() * PATTERNS.len());
    // Beat-the-2 acceptance: the improved greedy matches or beats det's
    // mean ratio on at least half of the graph families.
    let beaten = family_sums
        .iter()
        .filter(|(_, [ls, det], _)| ls <= det)
        .count();
    assert!(
        2 * beaten >= family_sums.len(),
        "greedy+local_search beats det on only {beaten} of {} families: {family_sums:?}",
        family_sums.len()
    );
}

/// A one-token flood, the minimal protocol that touches every edge.
#[derive(Clone, Debug)]
struct Token;

impl Message for Token {
    fn encoded_bits(&self) -> usize {
        8
    }
}

struct Flood {
    have: bool,
    sent: bool,
}

impl Protocol for Flood {
    type Msg = Token;

    fn init(&mut self, ctx: &NodeCtx, out: &mut Outbox<Token>) {
        if ctx.id == NodeId(0) {
            self.have = true;
            out.send_all(ctx, Token);
            self.sent = true;
        }
    }

    fn round(&mut self, ctx: &NodeCtx, inbox: &[(NodeId, Token)], out: &mut Outbox<Token>) {
        if !inbox.is_empty() {
            self.have = true;
        }
        if self.have && !self.sent {
            out.send_all(ctx, Token);
            self.sent = true;
        }
    }

    fn done(&self) -> bool {
        self.have
    }
}

fn budget_invariants(metrics: &RunMetrics, bandwidth_bits: usize, ctx: &str) {
    assert!(
        metrics.max_message_bits <= bandwidth_bits,
        "{ctx}: a {}-bit message exceeded B = {bandwidth_bits}",
        metrics.max_message_bits
    );
    assert!(
        metrics.total_bits <= metrics.messages * bandwidth_bits as u64,
        "{ctx}: {} bits over {} messages exceed the per-message budget",
        metrics.total_bits,
        metrics.messages
    );
    assert!(
        metrics.cut_bits <= metrics.total_bits,
        "{ctx}: metered-cut bits exceed total bits"
    );
}

#[test]
fn congest_bandwidth_budget_holds_across_the_corpus() {
    for entry in corpus(Tier::Quick) {
        let g = &entry.graph;
        let cfg = CongestConfig::for_graph(g);

        // Raw executor replay: a full-coverage flood over the corpus graph.
        let nodes = g
            .nodes()
            .map(|_| Flood {
                have: false,
                sent: false,
            })
            .collect();
        let res = run(g, nodes, &cfg).unwrap();
        assert!(
            res.states.iter().all(|s| s.have),
            "{}: flood died",
            entry.id
        );
        budget_invariants(&res.metrics, cfg.bandwidth_bits, &entry.id);

        // Solver replay: every ledger stage respects the per-edge budget
        // (`bits`/`cut_bits` were recorded from day one but never
        // asserted). The full per-solver sweep lives in `check_entry`
        // (asserted by `all_solvers_conform_on_the_quick_corpus`); here
        // one solver run suffices to pin the ledger-level invariant with
        // a dedicated, debuggable failure.
        let det = solve_deterministic(g, &entry.instance, &DetConfig::default()).unwrap();
        conformance::assert_ledger_budget(&det.rounds, cfg.bandwidth_bits, &entry.id);
        assert!(
            det.rounds.simulated() > 0,
            "{}: nothing simulated",
            entry.id
        );
    }
}

/// The direct (one-shot) twin of a scheduled job: the same `solve_*` call
/// the session dispatches, reduced to the comparable fields.
fn direct_solve(req: &SolveRequest) -> (ForestSolution, RoundLedger) {
    use steiner_forest::baselines::khan::{solve_khan, KhanConfig};
    use steiner_forest::baselines::solve_collect_at_root;
    use steiner_forest::core::randomized::{solve_randomized, RandConfig};
    let g = req.graph.as_ref();
    match req.solver {
        SolverKind::Deterministic => {
            let o = solve_deterministic(g, &req.instance, &DetConfig::default()).unwrap();
            (o.forest, o.rounds)
        }
        SolverKind::Randomized => {
            let cfg = RandConfig {
                seed: req.seed,
                ..RandConfig::default()
            };
            let o = solve_randomized(g, &req.instance, &cfg).unwrap();
            (o.forest, o.rounds)
        }
        SolverKind::Khan => {
            let cfg = KhanConfig {
                seed: req.seed,
                ..KhanConfig::default()
            };
            let o = solve_khan(g, &req.instance, &cfg).unwrap();
            (o.forest, o.rounds)
        }
        SolverKind::CollectAtRoot => {
            let o = solve_collect_at_root(g, &req.instance).unwrap();
            (o.forest, o.rounds)
        }
    }
}

/// The differential gate also covers the scheduled path: every corpus
/// entry × solver kind runs as one job of a server batch, and each
/// outcome must be bit-identical — forest and full round ledger — to the
/// direct one-shot solver call, feasible, and at least the certified
/// lower bound. The batch re-checks the `B`-bit ledger budget per job
/// itself (`report.violations`).
#[test]
fn service_path_matches_the_direct_solver_path_on_the_corpus() {
    let mut requests = Vec::new();
    let mut certificates = Vec::new();
    for entry in stream(Tier::Quick) {
        let g = Arc::new(entry.graph.clone());
        for solver in SolverKind::ALL {
            requests.push(
                SolveRequest::new(
                    format!("{}/{}", entry.id, solver.name()),
                    g.clone(),
                    entry.instance.clone(),
                    solver,
                    1,
                )
                .with_cert_upper(entry.certificate.upper),
            );
            certificates.push(entry.certificate.clone());
        }
    }

    let server = StreamingServer::new(ServerConfig {
        workers: 2,
        ..Default::default()
    });
    let report = server.run_batch(&requests).unwrap();
    assert!(report.violations.is_empty(), "{:#?}", report.violations);
    assert_eq!(report.jobs.len(), requests.len());

    for ((job, req), cert) in report.jobs.iter().zip(&requests).zip(&certificates) {
        let (forest, ledger) = direct_solve(req);
        assert_eq!(
            job.forest, forest,
            "{}: batched forest diverges from the direct solve",
            job.id
        );
        assert_eq!(
            job.ledger, ledger,
            "{}: batched ledger diverges from the direct solve",
            job.id
        );
        conformance::assert_feasible_forest(&req.graph, &req.instance, &job.forest, &job.id);
        assert!(
            job.weight as f64 >= cert.lower - 1e-6,
            "{}: weight {} below certified lower bound {}",
            job.id,
            job.weight,
            cert.lower
        );
    }
}

#[test]
fn certificates_are_internally_consistent() {
    for entry in corpus(Tier::Quick) {
        let cert = &entry.certificate;
        assert!(
            cert.lower <= cert.upper as f64 + 1e-9,
            "{}: inverted certificate",
            entry.id
        );
        if cert.kind == CertificateKind::Exact {
            assert_eq!(cert.lower, cert.upper as f64, "{}", entry.id);
        }
        assert!(cert.upper > 0, "{}: demand implies positive OPT", entry.id);
    }
}
