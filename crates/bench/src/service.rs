//! The `bench_runner --service` mode: throughput of server batches
//! (`dsf_server::StreamingServer::run_batch` over pooled `dsf-service`
//! sessions) on the workloads corpus, with the batching-determinism and
//! zero-steady-state-allocation guarantees asserted in-harness, emitted
//! as `BENCH_service.json`.
//!
//! Two workload tiers:
//!
//! * **repeat** — one corpus instance solved `batch` times (solver kinds
//!   cycling, one seed per job) at batch sizes {1, 16, 256} and worker
//!   counts {1, 4}. Before a record is emitted the harness asserts
//!   (a) every batched job is bit-identical — forest, full round ledger,
//!   ratio — to a one-at-a-time solve on a fresh session, and (b) the
//!   measured batch ran on warm sessions with **zero** arena builds
//!   (steady-state session reuse allocates nothing).
//! * **sweep** — the entire corpus tier run on the server as one
//!   deterministic batch per worker count, certificates attached, and
//!   the worker counts asserted bit-identical to each other.
//!
//! Like the `--scale` tier there is no checked-in baseline (`--check` is
//! rejected): wall-clock throughput is the product, and the correctness
//! gates are the in-harness asserts — a violated determinism or
//! allocation guarantee aborts the run.
//!
//! # Records (tier `service`)
//!
//! `det`: `jobs`, `batch`, `workers`, `rounds`, `messages`,
//! `arena_reuses`, and `arena_builds` (a batch pins its small jobs
//! round-robin to the workers, so all are schedule-invariant;
//! `arena_builds` is 0 on every record). `wall`: `wall_ns` of the
//! measured batch and `solves_per_sec_milli`.

use std::sync::Arc;

use dsf_server::{BatchReport, ServerConfig, StreamingServer};
use dsf_service::{JobOutcome, SolveRequest, SolverKind, SolverSession};
use dsf_workloads::corpus::{stream, CorpusEntry, Tier};

use crate::record::{Record, Report};

/// The `batch` requests of the repeat workload: one instance, solver kinds
/// cycling, seed = job index.
fn repeat_requests(
    entry: &CorpusEntry,
    graph: &Arc<dsf_graph::WeightedGraph>,
    batch: usize,
) -> Vec<SolveRequest> {
    (0..batch)
        .map(|j| {
            let solver = SolverKind::ALL[j % SolverKind::ALL.len()];
            SolveRequest::new(
                format!("repeat/{}/{j}", solver.name()),
                graph.clone(),
                entry.instance.clone(),
                solver,
                j as u64,
            )
            .with_cert_upper(entry.certificate.upper)
        })
        .collect()
}

/// One deterministic-solver request per corpus entry, certificate attached.
fn sweep_requests(tier: Tier) -> Vec<SolveRequest> {
    stream(tier)
        .map(|entry| {
            let upper = entry.certificate.upper;
            SolveRequest::new(
                format!("sweep/{}", entry.id),
                Arc::new(entry.graph),
                entry.instance,
                SolverKind::Deterministic,
                0,
            )
            .with_cert_upper(upper)
        })
        .collect()
}

/// Asserts every batched job is bit-identical to its one-at-a-time twin.
fn assert_batched_matches(name: &str, report: &BatchReport, baseline: &[JobOutcome]) {
    assert_eq!(
        report.jobs.len(),
        baseline.len(),
        "{name}: job count mismatch"
    );
    for (job, reference) in report.jobs.iter().zip(baseline) {
        assert!(
            job.deterministic_eq(reference),
            "{name}: batched job {} is not bit-identical to its sequential solve",
            job.id
        );
    }
    assert!(
        report.violations.is_empty(),
        "{name}: ledger violations {:?}",
        report.violations
    );
}

/// Runs a warmup batch plus the measured batch on a fresh server and
/// returns its record, asserting determinism vs `baseline` and zero
/// arena builds on the warm repetition.
fn service_record(
    name: &str,
    requests: &[SolveRequest],
    workers: usize,
    batch: usize,
    baseline: &[JobOutcome],
) -> Record {
    let server = StreamingServer::new(ServerConfig {
        workers,
        ..Default::default()
    });
    let warmup = server.run_batch(requests).expect("batch runs clean");
    assert_batched_matches(name, &warmup, baseline);
    let warm_stats = server.pool_stats();
    let measured = server.run_batch(requests).expect("batch runs clean");
    assert_batched_matches(name, &measured, baseline);
    let stats = server.pool_stats();
    let builds = stats.builds - warm_stats.builds;
    assert_eq!(
        builds, 0,
        "{name}: steady-state session reuse must not allocate arenas"
    );
    Record::new(name)
        .det("jobs", measured.jobs.len() as u64)
        .det("batch", batch as u64)
        .det("workers", workers as u64)
        .det("rounds", measured.total_rounds())
        .det("messages", measured.total_messages())
        .det("arena_reuses", stats.reuses - warm_stats.reuses)
        .det("arena_builds", builds)
        .wall("wall_ns", measured.wall_ns)
        .wall("solves_per_sec_milli", measured.solves_per_sec_milli())
}

/// Runs every service workload and assembles the report.
///
/// `quick` selects the quick corpus tier (CI smoke); the workload
/// structure — batch sizes {1, 16, 256}, worker counts {1, 4}, repeat +
/// sweep tiers — is identical in both modes.
pub fn collect(quick: bool) -> Report {
    let tier = if quick { Tier::Quick } else { Tier::Full };
    let batches = [1usize, 16, 256];
    let worker_counts = [1usize, 4];
    let mut records = Vec::new();

    // Repeat tier: the first corpus instance, solved over and over. The
    // request list for a smaller batch is a prefix of the largest one, so
    // the one-at-a-time reference (fresh session per job) is solved once
    // at the largest size and sliced.
    let entry = stream(tier).next().expect("corpus is nonempty");
    let graph = Arc::new(entry.graph.clone());
    let max_batch = *batches.iter().max().expect("batch sizes are nonempty");
    let all_requests = repeat_requests(&entry, &graph, max_batch);
    let all_baseline: Vec<JobOutcome> = all_requests
        .iter()
        .map(|r| SolverSession::new().solve(r).expect("clean solve"))
        .collect();
    for batch in batches {
        let requests = &all_requests[..batch];
        let baseline = &all_baseline[..batch];
        for workers in worker_counts {
            records.push(service_record(
                &format!(
                    "service/repeat/{}/batch={batch}/workers={workers}",
                    entry.family
                ),
                requests,
                workers,
                batch,
                baseline,
            ));
        }
    }

    // Sweep tier: the whole corpus tier as one batch per worker count,
    // asserted bit-identical across worker counts.
    let requests = sweep_requests(tier);
    let baseline: Vec<JobOutcome> = requests
        .iter()
        .map(|r| SolverSession::new().solve(r).expect("clean solve"))
        .collect();
    for workers in worker_counts {
        records.push(service_record(
            &format!(
                "service/sweep/det/batch={}/workers={workers}",
                requests.len()
            ),
            &requests,
            workers,
            requests.len(),
            &baseline,
        ));
    }

    Report::new("service", quick, records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_schema_and_one_entry_per_line() {
        // One real (tiny) repeat record: the work counters are det, the
        // timings wall, and the warm batch built no arenas.
        let entry = stream(Tier::Quick).next().expect("corpus is nonempty");
        let requests = repeat_requests(&entry, &Arc::new(entry.graph.clone()), 2);
        let baseline: Vec<JobOutcome> = requests
            .iter()
            .map(|r| SolverSession::new().solve(r).expect("clean solve"))
            .collect();
        let record = service_record(
            "service/repeat/x/batch=2/workers=1",
            &requests,
            1,
            2,
            &baseline,
        );
        assert_eq!(record.det.get("jobs"), Some(2));
        assert_eq!(record.det.get("arena_builds"), Some(0));
        assert!(record.wall.get("wall_ns").is_some() && record.obs.iter().next().is_none());
        let json = Report::new("service", true, vec![record]).to_json();
        assert!(json.contains("\"schema\": \"dsf-bench/v5\""));
        assert!(json.contains("\"tier\": \"service\""));
        assert_eq!(json.lines().filter(|l| l.contains("\"name\"")).count(), 1);
    }
}
