//! The `bench_runner --server` mode: latency and throughput of the
//! streaming server (`dsf-server`) under open-loop load, with the
//! admission-control and bit-identical-to-direct-solve guarantees
//! asserted in-harness, emitted as `BENCH_server.json`.
//!
//! The workload is a fixed mixed job list (all four solver kinds over a
//! corpus instance, plus jobs classified *large* so both lanes run):
//!
//! * **probes** — before anything is timed, a paused server is driven
//!   through the admission-control edge cases: a full queue under
//!   [`AdmissionPolicy::Reject`] must return `Saturated` (not deadlock),
//!   a cancelled job must be reported as cancelled, an expired deadline
//!   must be reported as expired. A violated probe panics the run.
//! * **closed-loop** — the whole mix submitted at once and drained,
//!   measuring the server's capacity (solves/sec); emitted with
//!   `rate_milli_x = 0`.
//! * **open-loop** — the mix re-submitted with exponential-free fixed
//!   inter-arrival times at offered rates ×{0.5, 1, 2} of the measured
//!   capacity, through a deliberately shallow queue (blocking admission =
//!   backpressure at ×2). Per-job sojourn latency (submit → result) is
//!   reported as p50/p99.
//!
//! Every tier asserts in-harness that each completed job is bit-identical
//! — forest, full round ledger, ratio — to a direct solve on a fresh
//! session, and that *every* offered job came back (admitted jobs are
//! never silently dropped).
//!
//! Like the `--scale` and `--service` tiers there is no checked-in
//! baseline (`--check` is rejected): wall-clock is the product, and the
//! correctness gates are the in-harness asserts.
//!
//! # Records (tier `server`)
//!
//! `det`: `jobs`, `workers`, `queue_capacity`, `rate_milli_x` (offered
//! rate as a multiple of measured capacity, ×1000; 0 for the closed
//! loop), `rounds`, and `messages` (blocking admission means every
//! offered job completes, and per-job metrics are schedule-invariant).
//! `wall`: `wall_ns` (first submit to last result),
//! `offered_per_sec_milli`, `p50_ns`, `p99_ns`, and
//! `solves_per_sec_milli`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dsf_server::{
    AdmissionPolicy, JobOptions, JobStatus, ServerConfig, ServerError, StreamingServer,
};
use dsf_service::{JobOutcome, SolveRequest, SolverKind, SolverSession};
use dsf_workloads::corpus::{stream, Tier};

use crate::record::{Record, Report};

/// The fixed mixed job list: `small_jobs` over the first corpus instance
/// (solver kinds cycling, certificates attached) plus `large_jobs` on a
/// grid that the tier's threshold classifies as large.
fn mixed_requests(tier: Tier, small_jobs: usize, large_jobs: usize) -> (Vec<SolveRequest>, usize) {
    let entry = stream(tier).next().expect("corpus is nonempty");
    let graph = Arc::new(entry.graph.clone());
    let mut requests: Vec<SolveRequest> = (0..small_jobs)
        .map(|j| {
            let solver = SolverKind::ALL[j % SolverKind::ALL.len()];
            SolveRequest::new(
                format!("small/{}/{j}", solver.name()),
                graph.clone(),
                entry.instance.clone(),
                solver,
                j as u64,
            )
            .with_cert_upper(entry.certificate.upper)
        })
        .collect();
    // The large jobs: a 100-node grid, threshold pinned to its size so the
    // large lane (whole-pool sharded executor) really runs.
    let side: usize = 10;
    let corner = |r: usize, c: usize| dsf_graph::NodeId((r * side + c) as u32);
    let large_graph = Arc::new(dsf_graph::generators::grid(side, side, 8, 1));
    let large_inst = dsf_steiner::InstanceBuilder::new(&large_graph)
        .component(&[corner(0, 0), corner(side - 1, side - 1)])
        .component(&[corner(0, side - 1), corner(side - 1, 0)])
        .build()
        .expect("grid corners are valid terminals");
    let threshold = large_graph.n();
    for j in 0..large_jobs {
        requests.push(SolveRequest::new(
            format!("large/det/{j}"),
            large_graph.clone(),
            large_inst.clone(),
            SolverKind::Deterministic,
            j as u64,
        ));
    }
    (requests, threshold)
}

/// Direct-solve references, one fresh session per request.
fn references(requests: &[SolveRequest]) -> Vec<JobOutcome> {
    requests
        .iter()
        .map(|r| SolverSession::new().solve(r).expect("clean solve"))
        .collect()
}

/// Drives the admission-control edge cases on a paused server; any
/// deviation panics (this is the mode's correctness gate, alongside the
/// bit-identity asserts).
fn probe_admission_control(requests: &[SolveRequest], threshold: usize) {
    let capacity = 3;
    let mut server = StreamingServer::new(ServerConfig {
        workers: 1,
        queue_capacity: capacity,
        admission: AdmissionPolicy::Reject,
        large_node_threshold: threshold,
    });
    server.pause();
    for (i, req) in requests.iter().take(capacity).enumerate() {
        server
            .submit(req.clone())
            .unwrap_or_else(|e| panic!("probe submit {i} under capacity rejected: {e}"));
    }
    match server.submit(requests[0].clone()) {
        Err(ServerError::Saturated { .. }) => {}
        other => panic!("full queue must reject with Saturated, got {other:?}"),
    }
    // Drain the backlog, then pause again for the cancellation and
    // deadline probes.
    server.resume();
    for _ in 0..capacity {
        assert!(
            server
                .next_result_timeout(Duration::from_secs(60))
                .is_some(),
            "paused-queue backlog failed to drain"
        );
    }
    server.pause();
    let doomed = server.submit(requests[0].clone()).expect("admitted");
    let expired = server
        .submit_with(
            requests[1].clone(),
            JobOptions::default().with_deadline(Instant::now()),
        )
        .expect("admitted");
    assert!(doomed.cancel(), "cancel must land before dispatch");
    server.resume();
    assert!(
        matches!(doomed.wait().status, JobStatus::Cancelled),
        "cancelled job must be reported as cancelled"
    );
    assert!(
        matches!(expired.wait().status, JobStatus::DeadlineExpired),
        "expired job must be reported as expired"
    );
    server.shutdown();
}

/// Submits the whole mix (optionally paced), waits for every result, and
/// asserts completeness + bit-identity before returning the tier's record.
#[allow(clippy::too_many_arguments)]
fn load_tier(
    name: &str,
    requests: &[SolveRequest],
    baseline: &[JobOutcome],
    threshold: usize,
    workers: usize,
    queue_capacity: usize,
    interarrival: Option<Duration>,
    rate_milli_x: u64,
    offered_per_sec_milli: u64,
) -> Record {
    let mut server = StreamingServer::new(ServerConfig {
        workers,
        queue_capacity,
        admission: AdmissionPolicy::Block,
        large_node_threshold: threshold,
    });
    let t0 = Instant::now();
    let mut handles = Vec::with_capacity(requests.len());
    for (j, req) in requests.iter().enumerate() {
        if let Some(gap) = interarrival {
            // Open loop: arrival j is *scheduled* at t0 + j·gap; a stalled
            // submit (backpressure) delays later arrivals — that queueing
            // time is exactly what p99 measures.
            let due = t0 + gap * j as u32;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        handles.push(
            server
                .submit(req.clone())
                .expect("blocking admission admits"),
        );
    }
    let mut latencies: Vec<u64> = Vec::with_capacity(handles.len());
    let mut rounds = 0u64;
    let mut messages = 0u64;
    for (handle, reference) in handles.iter().zip(baseline) {
        let result = handle.wait();
        let out = result
            .status
            .outcome()
            .unwrap_or_else(|| panic!("{name}: job {} did not complete", result.id));
        assert!(
            out.deterministic_eq(reference),
            "{name}: job {} is not bit-identical to its direct solve",
            result.id
        );
        latencies.push(result.total_ns);
        rounds += out.rounds();
        messages += out.messages();
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    server.shutdown();
    latencies.sort_unstable();
    let pct = |p: usize| latencies[(latencies.len() - 1) * p / 100];
    let solves_per_sec_milli = (requests.len() as u64)
        .saturating_mul(1_000_000_000_000)
        .checked_div(wall_ns.max(1))
        .unwrap_or(0);
    Record::new(name)
        .det("jobs", requests.len() as u64)
        .det("workers", workers as u64)
        .det("queue_capacity", queue_capacity as u64)
        .det("rate_milli_x", rate_milli_x)
        .det("rounds", rounds)
        .det("messages", messages)
        .wall("wall_ns", wall_ns)
        .wall("offered_per_sec_milli", offered_per_sec_milli)
        .wall("p50_ns", pct(50))
        .wall("p99_ns", pct(99))
        .wall("solves_per_sec_milli", solves_per_sec_milli)
}

/// Runs the probes, the closed-loop capacity tier, and the open-loop rate
/// tiers, and assembles the report.
///
/// `quick` shrinks the job mix (CI smoke); the tier structure — probes,
/// closed loop, offered rates ×{0.5, 1, 2} — is identical in both modes.
pub fn collect(quick: bool) -> Report {
    let tier = if quick { Tier::Quick } else { Tier::Full };
    let (small_jobs, large_jobs) = if quick { (22, 2) } else { (92, 4) };
    let workers = 4;
    let (requests, threshold) = mixed_requests(tier, small_jobs, large_jobs);
    let baseline = references(&requests);

    probe_admission_control(&requests, threshold);

    // Closed loop: everything at once through a deep queue — the measured
    // capacity the open-loop tiers are scaled from.
    let closed = load_tier(
        "server/closed-loop",
        &requests,
        &baseline,
        threshold,
        workers,
        requests.len(),
        None,
        0,
        0,
    );
    let capacity_jobs_per_sec_milli = closed
        .wall
        .get("solves_per_sec_milli")
        .expect("load_tier records throughput")
        .max(1);
    let mut records = vec![closed];

    // Open loop: fixed inter-arrival at ×{0.5, 1, 2} of capacity, through
    // a shallow queue so over-capacity load actually backpressures.
    let shallow = (requests.len() / 3).max(2);
    for rate_milli_x in [500u64, 1000, 2000] {
        let offered_per_sec_milli = capacity_jobs_per_sec_milli * rate_milli_x / 1000;
        let interarrival = Duration::from_nanos(
            1_000_000_000_000u64
                .checked_div(offered_per_sec_milli.max(1))
                .unwrap_or(u64::MAX)
                .min(5_000_000_000), // cap pathological gaps at 5 s/job
        );
        records.push(load_tier(
            &format!("server/open-loop/x{:.1}", rate_milli_x as f64 / 1000.0),
            &requests,
            &baseline,
            threshold,
            workers,
            shallow,
            Some(interarrival),
            rate_milli_x,
            offered_per_sec_milli,
        ));
    }

    Report::new("server", quick, records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_schema_and_one_entry_per_line() {
        // One real (tiny) closed-loop record: admission and work counters
        // are det, latencies and rates wall.
        let (requests, threshold) = mixed_requests(Tier::Quick, 2, 0);
        let baseline = references(&requests);
        let record = load_tier(
            "server/x", &requests, &baseline, threshold, 1, 2, None, 0, 0,
        );
        assert_eq!(record.det.get("jobs"), Some(2));
        assert_eq!(record.det.get("rate_milli_x"), Some(0));
        assert!(record.wall.get("p50_ns") <= record.wall.get("p99_ns"));
        assert!(record.obs.iter().next().is_none());
        let json = Report::new("server", true, vec![record]).to_json();
        assert!(json.contains("\"schema\": \"dsf-bench/v5\""));
        assert!(json.contains("\"tier\": \"server\""));
        assert_eq!(json.lines().filter(|l| l.contains("\"name\"")).count(), 1);
    }

    #[test]
    fn quick_collect_gates_and_reports_all_tiers() {
        let report = collect(true);
        assert_eq!(report.mode, "quick");
        assert_eq!(report.records.len(), 4, "closed loop + three rates");
        let det = |r: &Record, key: &str| r.det.get(key).unwrap();
        for r in &report.records {
            assert_eq!(det(r, "jobs"), 24);
            assert!(det(r, "rounds") > 0 && det(r, "messages") > 0);
            assert!(r.wall.get("p50_ns").unwrap() <= r.wall.get("p99_ns").unwrap());
        }
        // Deterministic sums agree across tiers: scheduling is invisible.
        let first = &report.records[0];
        for r in &report.records[1..] {
            assert_eq!(
                (det(r, "rounds"), det(r, "messages")),
                (det(first, "rounds"), det(first, "messages"))
            );
        }
    }
}
