//! Acceptance tests of server batches: scheduling must be invisible in
//! the results, warm sessions must stop allocating, a failing or
//! panicking job must come back as a typed error, and streamed jobs must
//! keep flowing beside a batch.

use std::sync::Arc;
use std::time::Duration;

use dsf_congest::SimError;
use dsf_graph::{generators, GraphBuilder, NodeId};
use dsf_server::{BatchError, JobOptions, ServerConfig, StreamingServer};
use dsf_service::{JobOutcome, SolveRequest, SolverKind, SolverSession};
use dsf_steiner::InstanceBuilder;

/// A deterministic mixed batch: two graphs, all four solver kinds, a few
/// seeds.
fn mixed_requests() -> Vec<SolveRequest> {
    let g1 = Arc::new(generators::gnp_connected(24, 0.18, 9, 3));
    let g2 = Arc::new(generators::grid(4, 6, 8, 1));
    let i1 = InstanceBuilder::new(&g1)
        .component(&[NodeId(0), NodeId(11), NodeId(21)])
        .component(&[NodeId(4), NodeId(17)])
        .build()
        .unwrap();
    let i2 = InstanceBuilder::new(&g2)
        .component(&[NodeId(0), NodeId(23)])
        .component(&[NodeId(5), NodeId(18)])
        .build()
        .unwrap();
    let mut reqs = Vec::new();
    for (seed, &solver) in SolverKind::ALL.iter().enumerate().flat_map(|(s, k)| {
        // Two seeds per kind, alternating graphs: 8 jobs.
        [(s as u64, k), (s as u64 + 10, k)]
    }) {
        let (g, inst) = if seed % 2 == 0 {
            (g1.clone(), i1.clone())
        } else {
            (g2.clone(), i2.clone())
        };
        reqs.push(SolveRequest::new(
            format!("{}-{seed}", solver.name()),
            g,
            inst,
            solver,
            seed,
        ));
    }
    reqs
}

/// The one-at-a-time reference: every request on its own fresh session.
fn sequential(requests: &[SolveRequest]) -> Vec<JobOutcome> {
    requests
        .iter()
        .map(|r| SolverSession::new().solve(r).expect("clean solve"))
        .collect()
}

fn server(workers: usize) -> StreamingServer {
    StreamingServer::new(ServerConfig {
        workers,
        ..Default::default()
    })
}

fn assert_matches(jobs: &[JobOutcome], baseline: &[JobOutcome], what: &str) {
    assert_eq!(jobs.len(), baseline.len());
    for (job, reference) in jobs.iter().zip(baseline) {
        assert!(
            job.deterministic_eq(reference),
            "{what}: job {} diverged from the sequential solve",
            job.id
        );
    }
}

#[test]
fn batched_results_are_bit_identical_to_sequential_at_every_worker_count() {
    let requests = mixed_requests();
    let baseline = sequential(&requests);
    for workers in [1, 2, 4] {
        let report = server(workers).run_batch(&requests).expect("clean batch");
        assert_eq!(report.workers, workers);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_matches(&report.jobs, &baseline, &format!("workers={workers}"));
    }
}

#[test]
fn warm_sessions_allocate_no_arenas_in_steady_state() {
    let requests = mixed_requests();
    let server = server(2);
    let warmup = server.run_batch(&requests).expect("clean batch");
    let warm = server.pool_stats();
    assert!(warm.builds > 0, "the cold batch must have built arenas");
    // Steady state: the identical batch again — every small job meets the
    // worker it was pinned to last time, so all arena checkouts must now
    // be in-place reuses, zero new allocations.
    let steady = server.run_batch(&requests).expect("clean batch");
    let stats = server.pool_stats();
    assert_eq!(
        stats.builds, warm.builds,
        "steady-state solves must not allocate arenas"
    );
    assert!(stats.reuses > warm.reuses, "reuse counters must grow");
    // And reuse must not have perturbed any result.
    assert_matches(&steady.jobs, &warmup.jobs, "warm batch");
}

#[test]
fn large_jobs_take_the_whole_pool_and_still_match_sequential() {
    let requests = mixed_requests();
    let baseline = sequential(&requests);
    // Threshold 1 node: every job is "large" and runs through the sharded
    // whole-pool path.
    let server = StreamingServer::new(ServerConfig {
        workers: 4,
        large_node_threshold: 1,
        ..Default::default()
    });
    let report = server.run_batch(&requests).expect("clean batch");
    assert_matches(&report.jobs, &baseline, "sharded large-job path");
}

#[test]
fn report_carries_ratios_and_request_order() {
    let g = Arc::new(generators::path(6, 2));
    let inst = InstanceBuilder::new(&g)
        .component(&[NodeId(0), NodeId(5)])
        .build()
        .unwrap();
    // OPT on a weight-2 path of 5 edges is exactly 10.
    let requests: Vec<_> = (0..3)
        .map(|seed| {
            SolveRequest::new(
                format!("p{seed}"),
                g.clone(),
                inst.clone(),
                SolverKind::Deterministic,
                seed,
            )
            .with_cert_upper(10)
        })
        .collect();
    let report = server(2).run_batch(&requests).expect("clean batch");
    assert_eq!(
        report.total_rounds(),
        report.jobs.iter().map(|j| j.rounds()).sum::<u64>()
    );
    for (i, job) in report.jobs.iter().enumerate() {
        assert_eq!(job.id, format!("p{i}"), "request order preserved");
        assert_eq!(job.weight, 10);
        assert_eq!(job.ratio_milli, Some(1000));
    }
}

#[test]
fn exactly_threshold_nodes_schedules_as_large() {
    // Docs say "at least this many nodes" is large — pin the boundary:
    // a graph with *exactly* threshold nodes must take the sharded
    // large lane, not the pinned small lane.
    let g = Arc::new(generators::gnp_connected(24, 0.18, 9, 3));
    let cfg = ServerConfig {
        workers: 2,
        large_node_threshold: g.n(),
        ..Default::default()
    };
    assert!(cfg.is_large(g.n()), "n == threshold is large");
    assert!(!cfg.is_large(g.n() - 1), "n == threshold - 1 is small");

    // And the classification is invisible in the results: the same batch
    // matches sequential solves whether it ran large (threshold == n) or
    // small (threshold == n + 1).
    let inst = InstanceBuilder::new(&g)
        .component(&[NodeId(0), NodeId(11), NodeId(21)])
        .build()
        .unwrap();
    let requests: Vec<_> = (0..3)
        .map(|seed| {
            SolveRequest::new(
                format!("b{seed}"),
                g.clone(),
                inst.clone(),
                SolverKind::Randomized,
                seed,
            )
        })
        .collect();
    let baseline = sequential(&requests);
    for threshold in [g.n(), g.n() + 1] {
        let server = StreamingServer::new(ServerConfig {
            large_node_threshold: threshold,
            ..cfg.clone()
        });
        let report = server.run_batch(&requests).expect("clean batch");
        assert_matches(&report.jobs, &baseline, &format!("threshold={threshold}"));
    }
}

#[test]
fn mismatched_graph_fails_the_batch_at_its_request_index() {
    // The instance was built on a 30-node graph but the request carries a
    // 10-node one: the session rejects it before any solver indexes the
    // instance out of bounds, and the batch names its index.
    let big = generators::path(30, 1);
    let inst = InstanceBuilder::new(&big)
        .component(&[NodeId(0), NodeId(29)])
        .build()
        .unwrap();
    let small = Arc::new(generators::path(10, 1));
    let bad = SolveRequest::new("bad", small, inst, SolverKind::Deterministic, 0);
    let mut requests = mixed_requests();
    requests.insert(1, bad.clone());
    requests.insert(5, bad);
    let expected = BatchError::Failed {
        index: 1,
        error: SimError::WrongNodeCount {
            expected: 10,
            got: 30,
        },
    };
    for workers in [1, 4] {
        assert_eq!(server(workers).run_batch(&requests).unwrap_err(), expected);
    }
}

#[test]
fn panicking_job_fails_the_batch_without_unwinding_into_the_caller() {
    // A disconnected graph (only `build_unchecked` makes one) makes
    // every solver's BFS panic.
    let mut b = GraphBuilder::new(4);
    b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
    b.add_edge(NodeId(2), NodeId(3), 1).unwrap();
    let g = Arc::new(b.build_unchecked());
    let inst = InstanceBuilder::new(&g)
        .component(&[NodeId(0), NodeId(2)])
        .build()
        .unwrap();
    let bad = SolveRequest::new("bad", g, inst, SolverKind::CollectAtRoot, 0);
    let mut requests = mixed_requests();
    requests.insert(3, bad);
    let server = server(2);
    match server.run_batch(&requests) {
        Err(BatchError::Panicked { index: 3, .. }) => {}
        other => panic!("expected the panic at index 3, got {other:?}"),
    }
    // The lanes survived: the same server runs a clean batch next.
    requests.remove(3);
    let report = server.run_batch(&requests).expect("clean batch");
    assert_matches(&report.jobs, &sequential(&requests), "after a panic");
}

#[test]
fn streamed_job_completes_while_a_batch_is_in_flight() {
    let requests = mixed_requests();
    let baseline = sequential(&requests);
    let (g, inst) = (requests[0].graph.clone(), requests[0].instance.clone());
    let streamed = SolveRequest::new("streamed", g, inst, SolverKind::Randomized, 99);
    let mut server = server(2);
    // Paused, so the whole batch is queued before the streamed job
    // arrives; its higher priority lets it overtake the pinned batch jobs.
    server.pause();
    std::thread::scope(|s| {
        let batch = s.spawn(|| server.run_batch(&requests));
        while server.queued() < requests.len() && !batch.is_finished() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let handle = server
            .submit_with(streamed.clone(), JobOptions::default().with_priority(1))
            .expect("admitted beside the batch");
        server.resume();
        let result = handle
            .wait_timeout(Duration::from_secs(60))
            .expect("the streamed job is served");
        let reference = SolverSession::new().solve(&streamed).expect("clean solve");
        assert!(result
            .status
            .outcome()
            .expect("completed")
            .deterministic_eq(&reference));
        let report = batch.join().expect("no unwind").expect("clean batch");
        assert_matches(&report.jobs, &baseline, "batch beside a stream");
    });
    server.shutdown();
    // Only the streamed job is on the result stream; batch outcomes were
    // returned by `run_batch`.
    let stream: Vec<_> = std::iter::from_fn(|| server.try_next_result())
        .map(|r| r.id)
        .collect();
    assert_eq!(stream, ["streamed"]);
}
