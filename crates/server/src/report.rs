//! The report of one batch: per-job outcomes in request order, batch
//! throughput, and the ledger invariants the conformance oracle also
//! checks.

use dsf_service::JobOutcome;

/// The result of one [`crate::StreamingServer::run_batch`] call.
#[derive(Debug)]
pub struct BatchReport {
    /// Small-lane workers the batch was scheduled across (also the
    /// sharded thread count of its large jobs).
    pub workers: usize,
    /// One outcome per request, in request order.
    pub jobs: Vec<JobOutcome>,
    /// Wall-clock of the whole batch in nanoseconds (report-only).
    pub wall_ns: u64,
    /// CONGEST-ledger invariant violations across the batch (empty on a
    /// healthy run) — the same `B`-bit budget checks the conformance
    /// oracle applies ([`JobOutcome::budget_violations`]), so the batch
    /// path cannot silently launder an over-budget solve.
    pub violations: Vec<String>,
}

impl BatchReport {
    /// Sum of per-job rounds (deterministic).
    pub fn total_rounds(&self) -> u64 {
        self.jobs.iter().map(JobOutcome::rounds).sum()
    }

    /// Sum of per-job messages (deterministic).
    pub fn total_messages(&self) -> u64 {
        self.jobs.iter().map(JobOutcome::messages).sum()
    }

    /// Batch throughput: `1000 × jobs / seconds` (report-only).
    pub fn solves_per_sec_milli(&self) -> u64 {
        if self.jobs.is_empty() {
            return 0;
        }
        (self.jobs.len() as u64)
            .saturating_mul(1_000_000_000_000)
            .checked_div(self.wall_ns.max(1))
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsf_congest::RoundLedger;
    use dsf_service::SolverKind;
    use dsf_steiner::ForestSolution;

    fn outcome() -> JobOutcome {
        JobOutcome {
            id: "j".into(),
            solver: SolverKind::Deterministic,
            seed: 0,
            forest: ForestSolution::empty(),
            ledger: RoundLedger::new(),
            weight: 0,
            ratio_milli: None,
            wall_ns: 1,
        }
    }

    #[test]
    fn throughput_is_jobs_over_seconds() {
        let report = BatchReport {
            workers: 1,
            jobs: vec![outcome(), outcome()],
            wall_ns: 500_000_000, // 2 jobs in half a second = 4 solves/sec
            violations: Vec::new(),
        };
        assert_eq!(report.solves_per_sec_milli(), 4_000);
    }
}
