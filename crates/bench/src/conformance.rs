//! The `bench_runner --conformance` mode: sweeps the conformance corpus
//! through the [`dsf_workloads::conformance`] oracle and emits one
//! [`crate::record`] per solver-on-instance (tier `conformance`,
//! `BENCH_conformance.json`).
//!
//! Every value is deterministic, so a record has only a `det` class:
//! `n`, `m`, `k`, `t`, `weight`, `cert_lower_milli` (the certified lower
//! bound scaled by 1000 and rounded), `cert_upper`, `ratio_milli`
//! (`⌈1000 · weight / cert_upper⌉` — an integer so the report is
//! bit-identical across machines) and `bound_milli` (the ratio ceiling
//! the oracle held that solver to, so `ratio_milli ≤ bound_milli` is
//! checkable offline by `tools/check_bench_schema.py`). Record names are
//! `conformance/<family>/<pattern>/seed=<s>/<solver>`.
//!
//! The gate is the oracle's violation list (the runner exits non-zero
//! when it is not empty), which includes the beat-the-det condition:
//! `greedy + local_search` must match or beat `det`'s mean ratio on at
//! least half of the graph families. The per-family and per-solver
//! summaries ([`family_summary`], [`solver_summaries`]) are derived from
//! the records and printed by the runner, not stored.

use dsf_workloads::conformance::{check_entry, EntryOutcome};
use dsf_workloads::corpus::{corpus, CorpusEntry, Tier};

use crate::record::{Record, Report};

/// Per-solver aggregate over the whole sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolverSummary {
    /// Solver name, e.g. `greedy+local_search`.
    pub solver: String,
    /// Records contributing to the aggregate.
    pub entries: usize,
    /// Distinct graph families covered.
    pub families: usize,
    /// Mean achieved `ratio_milli` (integer division).
    pub mean_ratio_milli: u64,
    /// Worst achieved `ratio_milli`.
    pub max_ratio_milli: u64,
    /// Loosest per-record ceiling the solver was held to.
    pub max_bound_milli: u64,
}

/// Splits a record name `conformance/<family>/<pattern>/seed=<s>/<solver>`
/// into its family and solver parts.
fn family_solver(name: &str) -> (&str, &str) {
    let parts: Vec<&str> = name.split('/').collect();
    (parts[1], parts[parts.len() - 1])
}

/// A `det` value every conformance record carries.
fn det(r: &Record, key: &str) -> u64 {
    r.det
        .get(key)
        .unwrap_or_else(|| panic!("{}: conformance records carry {key}", r.name))
}

/// Aggregates `records` per solver, in first-appearance order.
pub fn solver_summaries(records: &[Record]) -> Vec<SolverSummary> {
    let mut order: Vec<&str> = Vec::new();
    for r in records {
        let (_, solver) = family_solver(&r.name);
        if !order.contains(&solver) {
            order.push(solver);
        }
    }
    order
        .into_iter()
        .map(|solver| {
            let rs: Vec<&Record> = records
                .iter()
                .filter(|r| family_solver(&r.name).1 == solver)
                .collect();
            let mut families: Vec<&str> = rs.iter().map(|r| family_solver(&r.name).0).collect();
            families.sort_unstable();
            families.dedup();
            let ratios = rs.iter().map(|r| det(r, "ratio_milli"));
            SolverSummary {
                solver: solver.to_string(),
                entries: rs.len(),
                families: families.len(),
                mean_ratio_milli: ratios.clone().sum::<u64>() / rs.len() as u64,
                max_ratio_milli: ratios.max().unwrap_or(0),
                max_bound_milli: rs.iter().map(|r| det(r, "bound_milli")).max().unwrap_or(0),
            }
        })
        .collect()
}

/// The beat-the-det gate: on how many graph families does
/// `greedy+local_search` achieve a mean ratio ≤ `det`'s? Returns
/// `(families_beaten, families_compared)`; compared via summed
/// `ratio_milli` (equal record counts per family), so no rounding noise.
pub fn families_beating_det(records: &[Record]) -> (usize, usize) {
    let mut families: Vec<&str> = records.iter().map(|r| family_solver(&r.name).0).collect();
    families.sort_unstable();
    families.dedup();
    let sum_for = |family: &str, solver: &str| -> Option<(u64, u64)> {
        let rs: Vec<u64> = records
            .iter()
            .filter(|r| family_solver(&r.name) == (family, solver))
            .map(|r| det(r, "ratio_milli"))
            .collect();
        (!rs.is_empty()).then(|| (rs.iter().sum(), rs.len() as u64))
    };
    let mut beaten = 0;
    let mut compared = 0;
    for family in families {
        let (Some((ls_sum, ls_n)), Some((det_sum, det_n))) = (
            sum_for(family, "greedy+local_search"),
            sum_for(family, "det"),
        ) else {
            continue;
        };
        compared += 1;
        // mean_ls ≤ mean_det ⟺ ls_sum·det_n ≤ det_sum·ls_n.
        if ls_sum * det_n <= det_sum * ls_n {
            beaten += 1;
        }
    }
    (beaten, compared)
}

/// Per-`family/solver` ratio distribution (min/mean/max of
/// `ratio_milli`), in first-appearance order — the human-readable summary
/// `bench_runner` prints.
pub fn family_summary(records: &[Record]) -> Vec<(String, u64, u64, u64)> {
    let mut buckets: Vec<(String, Vec<u64>)> = Vec::new();
    for r in records {
        let (family, solver) = family_solver(&r.name);
        let key = format!("{family}/{solver}");
        let ratio = det(r, "ratio_milli");
        match buckets.iter_mut().find(|(k, _)| *k == key) {
            Some((_, rs)) => rs.push(ratio),
            None => buckets.push((key, vec![ratio])),
        }
    }
    buckets
        .into_iter()
        .map(|(key, rs)| {
            let min = *rs.iter().min().expect("nonempty bucket");
            let max = *rs.iter().max().expect("nonempty bucket");
            let mean = rs.iter().sum::<u64>() / rs.len() as u64;
            (key, min, mean, max)
        })
        .collect()
}

fn records_of(entry: &CorpusEntry, outcome: &EntryOutcome) -> Vec<Record> {
    outcome
        .records
        .iter()
        .map(|r| {
            let upper = entry.certificate.upper.max(1);
            Record::new(format!("conformance/{}/{}", entry.id, r.solver))
                .det("n", entry.graph.n() as u64)
                .det("m", entry.graph.m() as u64)
                .det("k", entry.instance.k() as u64)
                .det("t", entry.instance.t() as u64)
                .det("weight", r.weight)
                .det(
                    "cert_lower_milli",
                    (entry.certificate.lower * 1000.0).round() as u64,
                )
                .det("cert_upper", entry.certificate.upper)
                .det("ratio_milli", (1000 * r.weight).div_ceil(upper))
                .det("bound_milli", r.bound_milli)
        })
        .collect()
}

/// Sweeps the corpus tier: the report plus the oracle's violations
/// (empty = gate passes).
pub fn collect(quick: bool) -> (Report, Vec<String>) {
    let tier = if quick { Tier::Quick } else { Tier::Full };
    let mut records = Vec::new();
    let mut violations = Vec::new();
    for entry in corpus(tier) {
        let outcome = check_entry(&entry);
        records.extend(records_of(&entry, &outcome));
        violations.extend(
            outcome
                .violations
                .into_iter()
                .map(|v| format!("{}: {v}", entry.id)),
        );
    }
    // The beat-the-det gate (in-harness, not just report-only): the
    // improved greedy must match or beat det's mean ratio on at least
    // half of the graph families.
    let (beaten, compared) = families_beating_det(&records);
    if 2 * beaten < compared {
        violations.push(format!(
            "[greedy+local_search] beats det's mean ratio on only {beaten} of \
             {compared} families (need >= {})",
            compared.div_ceil(2)
        ));
    }
    (Report::new("conformance", quick, records), violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, ratio_milli: u64) -> Record {
        Record::new(name)
            .det("weight", 30)
            .det("ratio_milli", ratio_milli)
            .det("bound_milli", 2000)
    }

    fn sample() -> Vec<Record> {
        vec![
            entry("conformance/gnp/long_range/seed=0/det", 1072),
            entry("conformance/gnp/long_range/seed=0/moat", 1000),
        ]
    }

    #[test]
    fn json_has_schema_and_one_entry_per_line() {
        // The records of one real corpus entry: every value is det, and
        // each achieved ratio sits within its certified ceiling.
        let entry = dsf_workloads::corpus::stream(Tier::Quick)
            .next()
            .expect("corpus is nonempty");
        let records = records_of(&entry, &check_entry(&entry));
        let solvers = records.len();
        assert!(solvers >= 2);
        for r in &records {
            assert!(det(r, "ratio_milli") <= det(r, "bound_milli"), "{}", r.name);
            assert_eq!(r.det.iter().count(), 9, "{}", r.name);
            assert!(r.wall.iter().next().is_none() && r.obs.iter().next().is_none());
        }
        let json = Report::new("conformance", true, records).to_json();
        assert!(json.contains("\"schema\": \"dsf-bench/v5\""));
        assert!(json.contains("\"tier\": \"conformance\""));
        assert_eq!(
            json.lines().filter(|l| l.contains("\"name\"")).count(),
            solvers
        );
    }

    #[test]
    fn family_summary_aggregates_per_solver() {
        let s = family_summary(&sample());
        assert_eq!(s.len(), 2);
        assert_eq!(s[0], ("gnp/det".into(), 1072, 1072, 1072));
        assert_eq!(s[1], ("gnp/moat".into(), 1000, 1000, 1000));
    }

    #[test]
    fn solver_summaries_aggregate_across_families() {
        let entries = vec![
            entry("conformance/gnp/long_range/seed=0/det", 1100),
            entry("conformance/ring/long_range/seed=0/det", 1300),
            entry("conformance/gnp/long_range/seed=0/moat", 1000),
        ];
        let s = solver_summaries(&entries);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].solver, "det");
        assert_eq!(s[0].entries, 2);
        assert_eq!(s[0].families, 2);
        assert_eq!(s[0].mean_ratio_milli, 1200);
        assert_eq!(s[0].max_ratio_milli, 1300);
        assert_eq!(s[0].max_bound_milli, 2000);
        assert_eq!(s[1].solver, "moat");
    }

    #[test]
    fn beat_det_gate_counts_families() {
        let entries = vec![
            // Family gnp: improver (mean 1000) beats det (mean 1100).
            entry("conformance/gnp/a/seed=0/det", 1100),
            entry("conformance/gnp/a/seed=0/greedy+local_search", 1000),
            // Family ring: improver loses.
            entry("conformance/ring/a/seed=0/det", 1000),
            entry("conformance/ring/a/seed=0/greedy+local_search", 1200),
            // Family star: exact tie counts as beaten.
            entry("conformance/star/a/seed=0/det", 1050),
            entry("conformance/star/a/seed=0/greedy+local_search", 1050),
        ];
        assert_eq!(families_beating_det(&entries), (2, 3));
    }

    #[test]
    fn ratio_milli_rounds_up() {
        // 1000 * 30 / 28 = 1071.42 -> 1072.
        assert_eq!((1000u64 * 30).div_ceil(28), 1072);
    }
}
