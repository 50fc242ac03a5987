//! Output checks, built on the conformance oracle's public checkers.
//!
//! Every op's output goes through one of these; a non-empty violation
//! list counts the op as failed.

use dsf_congest::CongestConfig;
use dsf_graph::{Weight, WeightedGraph};
use dsf_service::{JobOutcome, SolverKind};
use dsf_steiner::{ForestSolution, Instance};
use dsf_workloads::conformance;
use dsf_workloads::Certificate;

/// The ratio envelope `(factor, slack)` each solver is held to against
/// the certificate's upper bound, as in the conformance oracle: `2·OPT`
/// with tie slack for the moat-growing solvers (Theorem 4.17), `O(log n)`
/// for the embedding-based ones (Theorem 5.2 and the Khan et al.
/// baseline). The det slack is taken at `2·upper`, which bounds the
/// centralized weight the oracle uses.
fn envelope(solver: SolverKind, n: usize, cert: &Certificate) -> (f64, f64) {
    match solver {
        SolverKind::Deterministic | SolverKind::CollectAtRoot => {
            (2.0, conformance::tie_slack(2.0 * cert.upper as f64))
        }
        SolverKind::Randomized => (conformance::randomized_log_factor(n), 0.0),
        SolverKind::Khan => (conformance::khan_log_factor(n), 0.0),
    }
}

/// Checks one solve: feasibility and forest-ness, the certified ratio
/// envelope of its solver, and the CONGEST bandwidth budget on every
/// ledger entry.
pub fn check_solve(
    g: &WeightedGraph,
    inst: &Instance,
    cert: &Certificate,
    out: &JobOutcome,
) -> Vec<String> {
    let (factor, slack) = envelope(out.solver, g.n(), cert);
    let mut v =
        conformance::check_solution(g, inst, cert, out.solver.name(), &out.forest, factor, slack);
    if out.weight != out.forest.weight(g) {
        v.push(format!(
            "[{}] reported weight {} but the forest weighs {}",
            out.solver.name(),
            out.weight,
            out.forest.weight(g)
        ));
    }
    let budget = CongestConfig::for_graph(g).bandwidth_bits;
    v.extend(conformance::check_ledger_budget(&out.ledger, budget));
    v
}

/// Checks a result that must equal a reference solve of the same
/// request bit for bit (forest, weight and full ledger).
pub fn check_identical(got: &JobOutcome, reference: &JobOutcome) -> Vec<String> {
    if got.deterministic_eq(reference) {
        Vec::new()
    } else {
        vec![format!(
            "[{}] job {} differs from its direct solve (weight {} vs {}, rounds {} vs {})",
            got.solver.name(),
            got.id,
            got.weight,
            reference.weight,
            got.rounds(),
            reference.rounds()
        )]
    }
}

/// Checks one repaired forest after a delta against the post-delta
/// state: the oracle's churn gate (feasible, within the certified ratio,
/// minimal, and never heavier than a from-scratch solve).
pub fn check_delta(
    g: &WeightedGraph,
    inst: &Instance,
    cert: &Certificate,
    forest: &ForestSolution,
) -> Vec<String> {
    let scratch: Weight = conformance::scratch_solve(g, inst).weight(g);
    conformance::check_repaired(g, inst, cert, forest, scratch)
}

/// `1000 · weight / lower`, the weight's ratio to the certified lower
/// bound.
pub fn ratio_milli(weight: Weight, cert: &Certificate) -> f64 {
    1000.0 * weight as f64 / cert.lower.max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsf_graph::{generators, NodeId};
    use dsf_service::{SolveRequest, SolverSession};
    use dsf_steiner::InstanceBuilder;
    use dsf_workloads::certify;
    use std::sync::Arc;

    fn solved() -> (Arc<WeightedGraph>, Instance, Certificate, JobOutcome) {
        let g = Arc::new(generators::grid(6, 6, 9, 4));
        let inst = InstanceBuilder::new(&g)
            .component(&[NodeId(0), NodeId(35)])
            .component(&[NodeId(5), NodeId(30)])
            .build()
            .expect("valid instance");
        let cert = certify(&g, &inst);
        let req = SolveRequest::new("t", g.clone(), inst.clone(), SolverKind::Deterministic, 1);
        let out = SolverSession::new().solve(&req).expect("solve runs");
        (g, inst, cert, out)
    }

    #[test]
    fn clean_solve_passes() {
        let (g, inst, cert, out) = solved();
        assert_eq!(check_solve(&g, &inst, &cert, &out), Vec::<String>::new());
        assert!(check_identical(&out, &out.clone()).is_empty());
    }

    #[test]
    fn dropped_edge_forest_is_an_error() {
        let (g, inst, cert, mut out) = solved();
        let mut edges = out.forest.edges().to_vec();
        edges.remove(0);
        out.forest = ForestSolution::from_edges(edges);
        out.weight = out.forest.weight(&g);
        let v = check_solve(&g, &inst, &cert, &out);
        assert!(v.iter().any(|e| e.contains("disconnected")), "{v:?}");
    }

    #[test]
    fn tampered_serve_result_is_an_error() {
        let (g, inst, cert, reference) = solved();
        // A result whose ledger was tampered with still passes the
        // solution checks but must fail bit-identity.
        let mut got = reference.clone();
        got.ledger.charge("tampered", 1);
        assert!(check_solve(&g, &inst, &cert, &got).is_empty());
        assert_eq!(check_identical(&got, &reference).len(), 1);
        // So must one carrying a heavier (cyclic) forest.
        let mut got = reference.clone();
        let extra = (0..g.m() as u32)
            .map(dsf_graph::EdgeId)
            .find(|e| !got.forest.contains(*e))
            .expect("grid has an unused edge");
        got.forest = got.forest.union(&ForestSolution::from_edges(vec![extra]));
        got.weight = got.forest.weight(&g);
        assert_eq!(check_identical(&got, &reference).len(), 1);
        // A misreported weight is caught without any reference.
        let mut got = reference.clone();
        got.weight += 1;
        assert!(!check_solve(&g, &inst, &cert, &got).is_empty());
    }

    #[test]
    fn stale_repair_is_an_error() {
        let (g, inst, cert, out) = solved();
        assert!(check_delta(&g, &inst, &cert, &out.forest)
            .iter()
            .all(|e| e.contains("scratch")));
        let mut edges = out.forest.edges().to_vec();
        edges.pop();
        let broken = ForestSolution::from_edges(edges);
        assert!(!check_delta(&g, &inst, &cert, &broken).is_empty());
    }
}
