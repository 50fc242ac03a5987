//! Per-job reporting: the outcome of one solve and the ledger
//! invariants the conformance oracle also checks.

use dsf_congest::{CongestConfig, RoundLedger};
use dsf_graph::WeightedGraph;
use dsf_steiner::ForestSolution;
use dsf_workloads::conformance::check_ledger_budget;

use crate::request::SolverKind;

/// One completed job.
///
/// `forest`, `ledger`, `weight`, and `ratio_milli` are deterministic —
/// identical no matter how the job was scheduled (worker count, batch
/// composition, session reuse); `wall_ns` is machine- and
/// schedule-dependent, report-only. [`JobOutcome::deterministic_eq`]
/// compares exactly the deterministic part, which is how the benches
/// assert scheduled results are bit-identical to one-at-a-time solves.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The request's id.
    pub id: String,
    /// The solver that ran.
    pub solver: SolverKind,
    /// The seed it ran with.
    pub seed: u64,
    /// The returned solution.
    pub forest: ForestSolution,
    /// The itemized round accounting of the whole solve.
    pub ledger: RoundLedger,
    /// Weight of the returned forest.
    pub weight: u64,
    /// `⌈1000 · weight / cert_upper⌉` when the request carried a
    /// certificate.
    pub ratio_milli: Option<u64>,
    /// Wall-clock of this solve in nanoseconds (report-only).
    pub wall_ns: u64,
}

impl JobOutcome {
    /// Total rounds (simulated + charged) of the solve.
    pub fn rounds(&self) -> u64 {
        self.ledger.total()
    }

    /// Total messages delivered during the solve.
    pub fn messages(&self) -> u64 {
        self.ledger.messages()
    }

    /// Total bits delivered during the solve.
    pub fn bits(&self) -> u64 {
        self.ledger.bits()
    }

    /// Whether two outcomes agree on every deterministic field (identity,
    /// forest, full ledger — entry-for-entry); wall-clock is ignored.
    pub fn deterministic_eq(&self, other: &JobOutcome) -> bool {
        self.id == other.id
            && self.solver == other.solver
            && self.seed == other.seed
            && self.weight == other.weight
            && self.ratio_milli == other.ratio_milli
            && self.forest == other.forest
            && self.ledger == other.ledger
    }

    /// The conformance oracle's `B`-bit ledger checks on this outcome of
    /// a job over `graph`, one `job <id> [<solver>]: <violation>` line
    /// each; empty for a healthy solve.
    pub fn budget_violations(&self, graph: &WeightedGraph) -> Vec<String> {
        let bandwidth = CongestConfig::for_graph(graph).bandwidth_bits;
        check_ledger_budget(&self.ledger, bandwidth)
            .into_iter()
            .map(|v| format!("job {} [{}]: {v}", self.id, self.solver.name()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(wall_ns: u64) -> JobOutcome {
        JobOutcome {
            id: "j".into(),
            solver: SolverKind::Deterministic,
            seed: 0,
            forest: ForestSolution::empty(),
            ledger: RoundLedger::new(),
            weight: 0,
            ratio_milli: None,
            wall_ns,
        }
    }

    #[test]
    fn deterministic_eq_ignores_wall_clock() {
        let a = outcome(10);
        let b = outcome(99_999);
        assert!(a.deterministic_eq(&b));
        let mut c = outcome(10);
        c.weight = 1;
        assert!(!a.deterministic_eq(&c));
    }
}
